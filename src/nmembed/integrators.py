"""Fixed-step integration: Euler-Maruyama for the monitored (stochastic)
equations in both the joint and block representations, and classical RK4
for the deterministic block master equation.

Steps apply a per-segment operator plan (:mod:`nmembed.generators`).
:func:`step_plans` resolves segments on the integer step grid, builds each
segment's plan once and holds only the current one; all stages of a step
use that step's plan.  For a model of total dimension at most
:data:`D_SUP` with a nontrivial auxiliary, it also attaches to the plan of
each segment its superoperator
(:func:`nmembed.generators.superoperator`), and a step is then one matrix
product on the batch's state vectors instead of many small products per
trajectory.

One Euler-Maruyama core serves every stochastic run.  States carry a
leading trajectory axis: a batch is ``(N, D, D)`` joint matrices or
``(N, A, A, d_s, d_s)`` block arrays.  :func:`em_step_joint` and
:func:`em_step_blocks` apply the same update and renormalisation to either
layout, :func:`draw_innovations` draws the ``(N, n_steps)`` noise and
:func:`em_run` steps a batch through the segment plans.  A single
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
    joint_drift,
    joint_meas,
    joint_plan,
    superoperator,
)
from .model import EmbeddingModel, grid_index

SCHEMES = ("euler-maruyama", "rk4")
MEASUREMENTS = ("amplitude", "phase", "none")

# Largest total dimension D stepped through a per-segment superoperator.
# Per Euler-Maruyama step of one joint trajectory, direct -> superoperator
# (2-core Xeon, OpenBLAS 0.3.31, one thread): D=4 86 -> 35 us, D=8 67 -> 47
# us, D=12 90 -> 81 us, D=16 138 -> 218 us; building the block route's
# superoperator took 4.7 ms per segment at D=8 and 22 ms at D=12.
D_SUP = 8


class StepSizeError(RuntimeError):
    """Pre-normalization trace of batch row ``row`` became nonpositive."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


def _real(v) -> bool:
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
        ("dt", dt, _real(dt) and dt > 0, "a finite positive number"),
        ("t_end", t_end, _real(t_end) and t_end >= 0, "a finite nonnegative number"),
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


def _finalize(X: np.ndarray) -> np.ndarray:
    """Hermitize and renormalize every trajectory of a batch: joint
    ``(N, D, D)`` (trace) or blocks ``(N, A, A, d_s, d_s)`` (total trace over
    the diagonal blocks)."""
    joint = X.ndim == 3
    X = (X + X.transpose((0, 2, 1) if joint else (0, 2, 1, 4, 3)).conj()) / 2
    tr = (X.trace(axis1=1, axis2=2) if joint else np.einsum("niiss->n", X)).real
    if (tr <= 0).any():
        row = int(np.argmax(tr <= 0))
        raise StepSizeError(f"nonpositive trace {tr[row]:.3e}; reduce dt", row)
    return X / _rows(tr, X)


def step_plans(model: EmbeddingModel, dt: float, n_steps: int, build, kernels):
    """Iterator over the operator plan of each step 0..n_steps-1.

    Segment k starts at step round(t_k/dt) and runs to the next start;
    ``build(t_k)`` is called once per segment reached.  When the total
    dimension is at most :data:`D_SUP` and some auxiliary is nontrivial,
    each segment's plan also carries its superoperator, built from ``kernels``
    (the ``(drift, meas)`` pair of the plan's route).  The choice reads
    only the model, never the batch size, so a trajectory steps alike
    alone and in an ensemble.  Raises ValueError at once for a breakpoint
    off the dt grid.
    """
    starts = dict(model.segment_starts(dt))
    small = model.dims.total <= D_SUP and any(d > 1 for d in model.dims.aux)

    def plans():
        plan = None
        for i in range(n_steps):
            if i in starts:
                plan = build(starts[i])
                if small:
                    plan = replace(plan, sup=superoperator(plan, *kernels))
            yield plan

    return plans()


def _apply_sup(P: np.ndarray, x: np.ndarray):
    """``(drift, G, mval)`` of the ``(N, K)`` state vectors x from one
    product with superoperator P (G and mval None when P holds only the
    drift)."""
    N, K = x.shape
    # numpy sends a one-row product to gemv, which rounds differently from
    # gemm: a batch of one takes the batch kernel as two equal rows.  That a
    # row of a gemm product does not depend on the other rows is a property
    # of the BLAS, checked with OpenBLAS 0.3.31; another BLAS may differ.
    Y = (x @ P if N > 1 else np.concatenate((x, x)) @ P)[:N]
    if P.shape[1] == K:
        return Y, None, None
    mval = Y[:, -1].real
    return Y[:, :K], Y[:, K:-1] - mval[:, None] * x, mval


def _sup_drift(plan, T: np.ndarray) -> np.ndarray:
    """Drift of one state T from the drift columns of the plan's
    superoperator."""
    K = T.size
    return (T.reshape(K) @ plan.sup[:, :K]).reshape(T.shape)


def _em_step(drift, meas, plan, X, dt, dW):
    """X + drift dt + G dW, then :func:`_finalize`: the one Euler-Maruyama
    update of both routes, through the plan's superoperator when it has
    one."""
    shape = X.shape
    if plan.sup is not None:
        X = X.reshape(len(X), -1)
        a, G, mval = _apply_sup(plan.sup, X)
    else:
        a = drift(plan, X)
        G, mval = (None, None) if plan.meas is None else meas(plan, X)
    new = X + a * dt
    if G is not None:
        new = new + G * _rows(dW, X)
    return _finalize(new.reshape(shape)), mval


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
           representation: str, aux_sign: float = 1.0, first: int = 0):
    """Generator over the Euler-Maruyama steps of a batch, yielding
    ``(X, mval)`` after each step.  X is the initial batch in
    ``representation``'s layout, row n being trajectory ``first + n``, and dW
    its ``(N, n_steps)`` noise.  A failing step raises :class:`StepSizeError`
    naming the trajectory, the step and t."""
    if representation not in ("joint", "blocks"):
        raise ValueError(f"unknown representation {representation!r}")
    joint = representation == "joint"
    step = em_step_joint if joint else em_step_blocks
    plans = step_plans(model, cfg.dt, cfg.n_steps, lambda t: (
        joint_plan(model, t, cfg.measurement) if joint
        else block_plan(model, t, cfg.measurement, aux_sign)),
        (joint_drift, joint_meas) if joint else (block_drift, block_meas))
    for i, plan in enumerate(plans):
        try:
            X, mval = step(plan, X, cfg.dt, dW[:, i])
        except StepSizeError as exc:
            raise StepSizeError(f"trajectory {first + exc.row}, step {i} "
                                f"(t={i * cfg.dt:.6g}): {exc}", exc.row) from exc
        yield X, mval


def rk4_step_qme(plan: BlockPlan, bs: BlockState, dt: float) -> BlockState:
    """Classical 4-stage Runge-Kutta step of the block master equation; all
    four stages use the step's plan.

    No renormalization: trace drift measures integrator error.
    """
    b = bs.blocks
    drift = block_drift if plan.sup is None else _sup_drift
    k1 = drift(plan, b)
    k2 = drift(plan, b + 0.5 * dt * k1)
    k3 = drift(plan, b + 0.5 * dt * k2)
    k4 = drift(plan, b + dt * k3)
    return BlockState(bs.dims, rk4_combine(b, dt, k1, k2, k3, k4))


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
    steps = em_run(model, X0, cfg, dW, representation, aux_sign, trajectory_index)
    times = np.arange(1, n + 1) * cfg.dt
    mvals = np.empty(n) if monitored else np.empty(0)
    snapshots = [init]
    snapshot_times = [0.0]
    for i, (X, mval) in enumerate(steps):
        if monitored:
            mvals[i] = mval[0]
        if (i + 1) % cfg.snapshot_stride == 0:
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
    for i, plan in enumerate(plans):
        bs = rk4_step_qme(plan, bs, cfg.dt)
        if (i + 1) % cfg.snapshot_stride == 0:
            out.append(((i + 1) * cfg.dt, bs, bs.reduced()))
    return out
