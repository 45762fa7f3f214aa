"""Fixed-step integration: Euler-Maruyama for the monitored (stochastic)
equations in both the joint and block representations, and classical RK4
for the deterministic block master equation.

Steps apply a per-segment operator plan (:mod:`nmembed.generators`).
:func:`step_plans` resolves segments on the integer step grid, builds each
segment's plan once and holds only the current one; all stages of a step
use that step's plan.  For a model of total dimension at most
:data:`D_SUP` with a nontrivial auxiliary, it also attaches to the plan of
each segment its superoperator
(:func:`nmembed.generators.superoperator`), a real matrix on the states'
Hermitian coordinates (:class:`nmembed.generators.HermCoords`).  A step is
then one real matrix product on the batch's coordinates instead of many
small complex products per trajectory; the coordinates describe a
Hermitian state exactly, so this path needs no hermitisation pass.

One Euler-Maruyama core serves every stochastic run.  States carry a
leading trajectory axis: a batch is ``(N, D, D)`` joint matrices or
``(N, A, A, d_s, d_s)`` block arrays.  :func:`em_step_joint` and
:func:`em_step_blocks` apply the same update and renormalisation to either
layout, :func:`draw_innovations` draws the ``(N, n_steps)`` noise and
:func:`em_run` steps a batch through the segment plans (on the
superoperator path it holds the batch as its ``(N, K)`` real coordinates
and builds the layout only at the steps its caller reads).  A single
trajectory (:func:`simulate_trajectory`) is a batch of one; the shared-path
cross-check and the ensemble (:mod:`nmembed.verify`) run the same core.

Noise streams are counter-based (numpy Philox) and keyed by
``(master seed, trajectory index)`` so distinct trajectories are
independent and any parallel schedule reproduces the same numbers.
Gaussian increments come from ``Generator.standard_normal`` (numpy's
documented ziggurat transform of Philox uniforms), scaled by sqrt(dt).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .generators import (
    BlockPlan,
    BlockState,
    JointPlan,
    block_drift,
    block_meas,
    block_plan,
    herm_coords,
    joint_drift,
    joint_meas,
    joint_plan,
    superoperator,
)
from .model import EmbeddingModel, grid_index

SCHEMES = ("euler-maruyama", "rk4")
MEASUREMENTS = ("amplitude", "phase", "none")

# Largest total dimension D stepped through a per-segment superoperator.
# Per Euler-Maruyama step, direct -> superoperator on the Hermitian
# coordinates, one trajectory | 500 (2-core Xeon, OpenBLAS 0.3.31, one
# thread): joint D=4 77 -> 14 us | 3.2 -> 0.09 ms, D=8 62 -> 14 us | 6.3 ->
# 0.9 ms, D=12 75 -> 19 us | 13 -> 2.1 ms, D=16 110 -> 39 us | 29 -> 3.8 ms;
# blocks D=4 99 -> 13 us | 6.5 -> 0.09 ms, D=8 220 -> 24 us | 34 -> 1.0 ms,
# D=12 254 -> 21 us | 68 -> 2.4 ms, D=16 523 -> 51 us | 138 -> 3.6 ms.
# Building it per segment took 0.5, 0.9, 4.2 and 16 ms (joint) and 0.6,
# 3.5, 15 and 80 ms (blocks) at D=4, 8, 12 and 16.
D_SUP = 8


class StepSizeError(RuntimeError):
    """Pre-normalization trace of batch row ``row`` became nonpositive."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


def finite_real(v) -> bool:
    """A finite real number (bools excluded)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def sim_problems(dt, t_end, scheme, measurement, seed, snapshot_stride):
    """``(field, reason)`` for every invalid :class:`SimConfig` value."""
    checks = (
        ("dt", dt, finite_real(dt) and dt > 0, "a finite positive number"),
        ("t_end", t_end, finite_real(t_end) and t_end >= 0, "a finite nonnegative number"),
        ("seed", seed, _integer(seed) and 0 <= seed < 2 ** 64, "an integer in [0, 2**64)"),
        ("snapshot_stride", snapshot_stride, _integer(snapshot_stride) and snapshot_stride >= 1,
         "an integer >= 1"),
        ("scheme", scheme, scheme in SCHEMES, f"one of {SCHEMES}"),
        ("measurement", measurement, measurement in MEASUREMENTS, f"one of {MEASUREMENTS}"),
    )
    problems = [(name, f"must be {what}, got {v!r}") for name, v, ok, what in checks if not ok]
    # t_end = 0 is the trivial run: no steps, initial state only
    if checks[0][2] and checks[1][2] and t_end > 0:
        if dt > t_end:
            problems.append(("dt", "must not exceed t_end"))
        elif grid_index(t_end, dt) is None:
            problems.append(("t_end", "must be a multiple of dt"))
    return problems


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    scheme: str = "euler-maruyama"
    measurement: str = "amplitude"
    seed: int = 0
    snapshot_stride: int = 1

    def __post_init__(self):
        problems = sim_problems(self.dt, self.t_end, self.scheme, self.measurement,
                                self.seed, self.snapshot_stride)
        if problems:
            raise ValueError("; ".join(f"{name} {reason}" for name, reason in problems))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class TrajectoryRecord:
    """Per-step measurement record plus periodic state snapshots.

    ``times[n]`` is the end of step n; ``dY[n] = mval[n]*dt + dI[n]`` holds
    exactly as stored.  For unmonitored runs the record arrays are empty.
    """

    times: np.ndarray
    dY: np.ndarray
    dI: np.ndarray
    mvals: np.ndarray
    snapshots: list
    snapshot_times: list[float]
    seed: int
    representation: str


def noise_stream(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """Counter-based per-trajectory stream; reproducible under any schedule."""
    key = np.array([master_seed, trajectory_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_innovations(cfg: SimConfig, N: int, first: int = 0) -> np.ndarray:
    """``(N, n_steps)`` innovations increments dW, row n drawn from the
    stream ``(cfg.seed, first + n)``; zeros when unmonitored."""
    dW = np.zeros((N, cfg.n_steps))
    if cfg.measurement != "none":
        for row in range(N):
            dW[row] = noise_stream(cfg.seed, first + row).standard_normal(cfg.n_steps)
        dW *= math.sqrt(cfg.dt)
    return dW


def _rows(v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-trajectory values v, shaped to broadcast against batch X."""
    return v.reshape(v.shape + (1,) * (X.ndim - 1))


def _renormalize(X: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """Every row of batch X divided by its trace tr; a nonpositive trace is
    a :class:`StepSizeError` naming its row."""
    if (tr <= 0).any():
        row = int(np.argmax(tr <= 0))
        raise StepSizeError(f"nonpositive trace {tr[row]:.3e}; reduce dt", row)
    return X / _rows(tr, X)


def _finalize(X: np.ndarray) -> np.ndarray:
    """Hermitize and renormalize every trajectory of a batch: joint
    ``(N, D, D)`` (trace) or blocks ``(N, A, A, d_s, d_s)`` (total trace over
    the diagonal blocks)."""
    joint = X.ndim == 3
    X = (X + X.transpose((0, 2, 1) if joint else (0, 2, 1, 4, 3)).conj()) / 2
    tr = (X.trace(axis1=1, axis2=2) if joint else np.einsum("niiss->n", X)).real
    return _renormalize(X, tr)


def _uses_sup(model: EmbeddingModel) -> bool:
    """Whether the model steps through per-segment superoperators: total
    dimension at most :data:`D_SUP` and some auxiliary nontrivial."""
    return model.dims.total <= D_SUP and any(d > 1 for d in model.dims.aux)


def step_plans(model: EmbeddingModel, dt: float, n_steps: int, build, kernels):
    """Iterator over the operator plan of each step 0..n_steps-1.

    Segment k starts at step round(t_k/dt) and runs to the next start;
    ``build(t_k)`` is called once per segment reached.  When
    :func:`_uses_sup`, each segment's plan also carries its superoperator,
    built from ``kernels`` (the ``(drift, meas)`` pair of the plan's route).
    The choice reads only the model, never the batch size, so a trajectory
    steps alike alone and in an ensemble.  Raises ValueError at once for a
    breakpoint off the dt grid.
    """
    starts = dict(model.segment_starts(dt))
    small = _uses_sup(model)

    def plans():
        plan = None
        for i in range(n_steps):
            if i in starts:
                plan = build(starts[i])
                if small:
                    plan = replace(plan, sup=superoperator(plan, *kernels))
            yield plan

    return plans()


def _sup_step(P: np.ndarray, x: np.ndarray, dt: float, dW: np.ndarray, n_diag: int):
    """One Euler-Maruyama step of the ``(N, K)`` Hermitian coordinates x
    through superoperator P, renormalised; returns ``(x', mval)`` (mval None
    when P holds only the drift)."""
    N, K = x.shape
    # numpy sends a one-row product to gemv, which rounds differently from
    # gemm: a batch of one takes the batch kernel as two equal rows.  That a
    # row of a gemm product does not depend on the other rows is a property
    # of the BLAS, checked with OpenBLAS 0.3.31; another BLAS may differ.
    Y = (x @ P if N > 1 else np.concatenate((x, x)) @ P)[:N]
    new = x + Y[:, :K] * dt
    mval = None
    if P.shape[1] > K:
        mval = Y[:, -1]
        new = new + (Y[:, K:-1] - mval[:, None] * x) * dW[:, None]
    return _renormalize(new, new[:, :n_diag].sum(axis=1)), mval


def _em_step(drift, meas, plan, X, dt, dW):
    """X + drift dt + G dW, then :func:`_finalize`: the one Euler-Maruyama
    update of both routes, through the plan's superoperator (on the batch's
    Hermitian coordinates) when it has one."""
    if plan.sup is not None:
        c = herm_coords(X.shape[1:])
        x, mval = _sup_step(plan.sup, c.coords(X), dt, dW, c.n_diag)
        return c.layout(x), mval
    a = drift(plan, X)
    G, mval = (None, None) if plan.meas is None else meas(plan, X)
    new = X + a * dt
    if G is not None:
        new = new + G * _rows(dW, X)
    return _finalize(new), mval


def em_step_joint(plan: JointPlan, X: np.ndarray, dt: float, dW: np.ndarray):
    """One Euler-Maruyama step of the joint equation for a batch X of shape
    ``(N, D, D)`` and innovations dW of shape ``(N,)``; returns ``(X', mval)``
    (mval None when unmonitored).  A step's record is dI = dW and
    dY = mval*dt + dI."""
    return _em_step(joint_drift, joint_meas, plan, X, dt, dW)


def em_step_blocks(plan: BlockPlan, X: np.ndarray, dt: float, dW: np.ndarray):
    """Block-representation counterpart of :func:`em_step_joint`; X has
    shape ``(N, A, A, d_s, d_s)``."""
    return _em_step(block_drift, block_meas, plan, X, dt, dW)


def em_run(model: EmbeddingModel, X: np.ndarray, cfg: SimConfig, dW: np.ndarray,
           representation: str, aux_sign: float = 1.0, first: int = 0, read_at=None):
    """Generator over the Euler-Maruyama steps of a batch, yielding
    ``(X, mval)`` after each step.  X is the initial batch in
    ``representation``'s layout, row n being trajectory ``first + n``, and dW
    its ``(N, n_steps)`` noise.  ``read_at`` holds the step counts after
    which the caller reads X (None: every step); after the other steps X is
    None.  On the superoperator path the batch is held as its ``(N, K)``
    Hermitian coordinates and the layout is built only where it is read.
    A failing step raises :class:`StepSizeError` naming the trajectory, the
    step and t."""
    if representation not in ("joint", "blocks"):
        raise ValueError(f"unknown representation {representation!r}")
    joint = representation == "joint"
    step = em_step_joint if joint else em_step_blocks
    plans = step_plans(model, cfg.dt, cfg.n_steps, lambda t: (
        joint_plan(model, t, cfg.measurement) if joint
        else block_plan(model, t, cfg.measurement, aux_sign)),
        (joint_drift, joint_meas) if joint else (block_drift, block_meas))
    c = herm_coords(X.shape[1:]) if _uses_sup(model) else None
    state = X if c is None else c.coords(X)
    for i, plan in enumerate(plans):
        try:
            if c is None:
                state, mval = step(plan, state, cfg.dt, dW[:, i])
            else:
                state, mval = _sup_step(plan.sup, state, cfg.dt, dW[:, i], c.n_diag)
        except StepSizeError as exc:
            raise StepSizeError(f"trajectory {first + exc.row}, step {i} "
                                f"(t={i * cfg.dt:.6g}): {exc}", exc.row) from exc
        if read_at is not None and i + 1 not in read_at:
            yield None, mval
        else:
            yield (state if c is None else c.layout(state)), mval


def _rk4(drift, y, dt):
    """One classical RK4 step of dy/dt = drift(y)."""
    k1 = drift(y)
    k2 = drift(y + 0.5 * dt * k1)
    k3 = drift(y + 0.5 * dt * k2)
    k4 = drift(y + dt * k3)
    return rk4_combine(y, dt, k1, k2, k3, k4)


def _coord_drift(plan, K: int):
    """Drift of ``(K,)`` Hermitian coordinates from the drift columns of the
    plan's superoperator."""
    P = plan.sup[:, :K]
    return lambda x: x @ P


def rk4_step_qme(plan: BlockPlan, bs: BlockState, dt: float) -> BlockState:
    """Classical 4-stage Runge-Kutta step of the block master equation; all
    four stages use the step's plan (on the state's Hermitian coordinates
    when the plan carries a superoperator).

    No renormalization: trace drift measures integrator error.
    """
    if plan.sup is None:
        return BlockState(bs.dims, _rk4(lambda T: block_drift(plan, T), bs.blocks, dt))
    c = herm_coords(bs.blocks.shape)
    x = _rk4(_coord_drift(plan, c.size), c.coords(bs.blocks[None])[0], dt)
    return BlockState(bs.dims, c.layout(x[None])[0])


def rk4_combine(y, dt, k1, k2, k3, k4):
    """Shared RK4 update formula (exposed so reference series can reproduce
    the exact arithmetic of :func:`rk4_step_qme`)."""
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate_trajectory(model: EmbeddingModel, init, cfg: SimConfig,
                        representation: str = "blocks", trajectory_index: int = 0,
                        aux_sign: float = 1.0) -> TrajectoryRecord:
    """Run one trajectory of the monitored (or unmonitored) dynamics.

    ``init`` must match ``representation`` (:class:`BlockState` for
    "blocks", :class:`JointState` for "joint").  Snapshots are recorded at
    t=0 and after every ``snapshot_stride``-th step.
    """
    if cfg.scheme != "euler-maruyama":
        raise ValueError("simulate_trajectory requires the euler-maruyama scheme")
    monitored = cfg.measurement != "none"
    if monitored and model.probe is None:
        raise ValueError("measurement requested but model has no probe")
    n = cfg.n_steps
    dW = draw_innovations(cfg, 1, trajectory_index)
    X0 = (init.rho if representation == "joint" else init.blocks)[None]
    stride = cfg.snapshot_stride
    steps = em_run(model, X0, cfg, dW, representation, aux_sign, trajectory_index,
                   read_at=range(stride, n + 1, stride))
    times = np.arange(1, n + 1) * cfg.dt
    mvals = np.empty(n) if monitored else np.empty(0)
    snapshots = [init]
    snapshot_times = [0.0]
    for i, (X, mval) in enumerate(steps):
        if monitored:
            mvals[i] = mval[0]
        if X is not None:
            snapshots.append(type(init)(init.dims, X[0]))
            snapshot_times.append(times[i])
    dI = dW[0] if monitored else np.empty(0)
    dY = mvals * cfg.dt + dI
    return TrajectoryRecord(times=times, dY=dY, dI=dI, mvals=mvals,
                            snapshots=snapshots, snapshot_times=snapshot_times,
                            seed=cfg.seed, representation=representation)


def solve_qme(model: EmbeddingModel, init: BlockState, cfg: SimConfig):
    """RK4 time series of the block master equation.

    Returns a list of ``(t, BlockState, reduced principal state)`` sampled
    at t=0 and every ``snapshot_stride``-th step.
    """
    if cfg.scheme != "rk4":
        raise ValueError("solve_qme requires the rk4 scheme")
    out = [(0.0, init, init.reduced())]
    bs = init
    plans = step_plans(model, cfg.dt, cfg.n_steps, lambda t: block_plan(model, t),
                       (block_drift, block_meas))
    # on the superoperator path the state is held as its Hermitian
    # coordinates x and laid out only at the snapshots
    c = herm_coords(init.blocks.shape) if _uses_sup(model) else None
    x = None if c is None else c.coords(init.blocks[None])[0]
    for i, plan in enumerate(plans):
        if c is None:
            bs = rk4_step_qme(plan, bs, cfg.dt)
        else:
            x = _rk4(_coord_drift(plan, c.size), x, cfg.dt)
        if (i + 1) % cfg.snapshot_stride == 0:
            if c is not None:
                bs = BlockState(init.dims, c.layout(x[None])[0])
            out.append(((i + 1) * cfg.dt, bs, bs.reduced()))
    return out
