"""Fixed-step integration: Euler-Maruyama for the monitored (stochastic)
equations in both the joint and block representations, and classical RK4
for the deterministic block master equation.

Steps apply a per-segment operator plan (:mod:`nmembed.generators`),
which carries its route's kernels (``plan.drift``, ``plan.measure``), so
the stepping core never names a kernel.  :func:`step_plans` resolves
segments on the integer step grid, builds each segment's plan once and
holds only the current one; all stages of a step use that step's plan.
For a model with a nontrivial auxiliary and total dimension D at most
:data:`D_SUP_SHORT`, or up to :data:`D_SUP` when every segment of the run
spans at least D*D steps, it also attaches to the plan of each segment
its superoperator (:func:`nmembed.generators.superoperator`), a real
matrix on the states' Hermitian coordinates
(:class:`nmembed.generators.HermCoords`).  A step is then one real matrix
product on the batch's coordinates instead of many small complex products
per trajectory; the coordinates describe a Hermitian state exactly.  The
kernels assume Hermitian states, and on the layout they keep a Hermitian
state Hermitian bitwise, so no step repairs one: the run loop replaces
its start batch by the batch's Hermitian part once, before choosing its
form, and a run from X steps bitwise like the run from (X + X†)/2 on
every path.

One stepping core serves every run.  States carry a leading trajectory
axis: a batch's layout is ``(N, D, D)`` joint matrices or
``(N, A, A, d_s, d_s)`` block arrays, and the layout names the route, so
no caller names it.  The run loop reads it from the batch's shape (any
other shape is a ValueError naming the model's two layouts, raised before
a plan is built) and :func:`simulate_trajectory` from its start state's
type.  The plans fix the form a batch is stepped in: the layout, or, when
they carry a superoperator, the ``(N, D*D)`` Hermitian coordinates.
:func:`em_step_joint` and :func:`em_step_blocks` are the one
Euler-Maruyama update: they step a batch in its plan's form and return it
in that form.  One run loop serves :func:`em_run` and :func:`solve_qme` (a
batch of one): it takes the plans and their form from :func:`step_plans`,
holds the batch in that form, names the trajectory, step and t of a
failing step, and builds the layout only at the steps its caller reads.
:func:`draw_innovations` draws the ``(N, n_steps)`` noise.  A single
trajectory (:func:`simulate_trajectory`) is a batch of one; the
shared-path cross-check and the ensemble (:mod:`nmembed.verify`) run the
same core.  The block route builds its plans through the module name
``block_plan``, which is where the mutation tests inject the sign-flip
fault; the library has no fault switch.

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
    JointState,
    adjoint,
    block_plan,
    herm_coords,
    joint_plan,
    superoperator,
)
from .model import GRID_LIMIT, ConfigError, EmbeddingModel, grid_index

SCHEMES = ("euler-maruyama", "rk4")
MEASUREMENTS = ("amplitude", "phase", "none")

# Largest total dimension D stepped through a per-segment superoperator P,
# and the largest for which P is built for every segment however short.
# Between the two, P is built only when every segment of the run spans at
# least K = D*D steps, the number of basis states P is built from; shorter
# segments can spend more on building P than their steps save (a D=12
# cross-check with 20 segments of 10 steps took 123-132 ms direct and
# 316-326 ms with P).
# Per Euler-Maruyama step, direct -> superoperator on the Hermitian
# coordinates, one trajectory | 500 (2-core Xeon, OpenBLAS 0.3.31, one
# thread): joint D=4 77 -> 14 us | 3.2 -> 0.09 ms, D=8 62 -> 14 us | 6.3 ->
# 0.9 ms, D=12 75 -> 19 us | 13 -> 2.1 ms, D=16 110 -> 39 us | 29 -> 3.8 ms;
# blocks D=4 99 -> 13 us | 6.5 -> 0.09 ms, D=8 220 -> 24 us | 34 -> 1.0 ms,
# D=12 254 -> 21 us | 68 -> 2.4 ms, D=16 523 -> 51 us | 138 -> 3.6 ms.
# Building P took 0.1-0.2, 0.9-1.4, 2.9-4.8 and 10 ms (joint) and 0.2-0.3,
# 2.8, 6.4-9.5 and 25-34 ms (blocks) at D=4, 8, 12 and 16: above D=8, about
# 40-100 direct steps, well under K.  D=16 caps the range: P is then
# (256, 528) float64, about 1 MB.
D_SUP = 16
D_SUP_SHORT = 8

# Largest relative drift of an RK4 run's trace from its start's.  The GKSL
# drift is traceless, so a stable run's trace moves by rounding only (1e-15
# over acceptance 6's run); an unstable one reaches this within a few steps.
TRACE_RTOL = 1e-6


class StepSizeError(RuntimeError):
    """A step left batch row ``row`` with a trace that is not finite, not
    positive before renormalisation, or, under RK4, beyond
    :data:`TRACE_RTOL` of the start's."""

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


def integer(v) -> bool:
    """An integer (bools excluded)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class SimConfig:
    """The ``sim`` section of a run.  Construction raises
    :class:`ConfigError` at ``sim.<field>`` for every invalid value; dt and
    t_end are held as floats."""

    dt: float
    t_end: float
    scheme: str = "euler-maruyama"
    measurement: str = "amplitude"
    seed: int = 0
    snapshot_stride: int = 1

    def __post_init__(self):
        dt, t_end, seed, stride = self.dt, self.t_end, self.seed, self.snapshot_stride
        checks = (
            ("dt", dt, finite_real(dt) and dt > 0, "a finite positive number"),
            ("t_end", t_end, finite_real(t_end) and t_end >= 0, "a finite nonnegative number"),
            ("seed", seed, integer(seed) and 0 <= seed < 2 ** 64, "an integer in [0, 2**64)"),
            ("snapshot_stride", stride, integer(stride) and stride >= 1, "an integer >= 1"),
            ("scheme", self.scheme, self.scheme in SCHEMES, f"one of {SCHEMES}"),
            ("measurement", self.measurement, self.measurement in MEASUREMENTS,
             f"one of {MEASUREMENTS}"),
        )
        problems = [(f"sim.{name}", f"must be {what}, got {v!r}")
                    for name, v, ok, what in checks if not ok]
        # t_end = 0 is the trivial run: no steps, initial state only
        if checks[0][2] and checks[1][2] and t_end > 0:
            if dt > t_end:
                problems.append(("sim.dt", "must not exceed t_end"))
            elif t_end / dt >= GRID_LIMIT:
                problems.append(("sim.t_end", f"t_end/dt must be below {GRID_LIMIT:g} steps, "
                                              f"got {t_end / dt:.6g}"))
            elif grid_index(t_end, dt) is None:
                problems.append(("sim.t_end", "must be a multiple of dt"))
        if problems:
            raise ConfigError(problems)
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "t_end", float(t_end))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def probe_problems(model: EmbeddingModel, measurement: str) -> list[tuple[str, str]]:
    """The located problem of a run monitored through ``measurement`` on a
    model with no probe: ``[("sim.measurement", reason)]``, else empty."""
    if measurement == "none" or model.probe is not None:
        return []
    return [("sim.measurement",
             f"a run monitored by {measurement!r} needs a probe: the model has none")]


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
    seed: int


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


def _trace(plan, X: np.ndarray) -> np.ndarray:
    """Per-trajectory trace of batch X in the plan's form: the sum of the
    first ``n_diag`` Hermitian coordinates when the plan carries a
    superoperator, else the trace of the joint ``(N, D, D)`` layout or the
    total trace over the diagonal blocks of ``(N, A, A, d_s, d_s)``."""
    if plan.sup is not None:
        return X[:, :herm_coords(plan.state_shape).n_diag].sum(axis=1)
    return (X.trace(axis1=1, axis2=2) if X.ndim == 3 else np.einsum("niiss->n", X)).real


def _trace_error(tr: float, tr0: float, row: int = 0) -> StepSizeError:
    """The :class:`StepSizeError` of batch row ``row``, whose trace tr from
    a start of trace tr0 failed a check, worded by its cause: a non-finite
    trace, a nonpositive start (a degenerate state), or else a drift from
    the start's beyond :data:`TRACE_RTOL`: the run diverged."""
    if not math.isfinite(tr):
        cause = f"non-finite trace {tr:.3e}"
    elif not tr0 > 0:
        cause = f"nonpositive trace {tr0:.3e}"
    else:
        cause = (f"trace drifted {abs(tr - tr0) / tr0:.3e} from its start's, "
                 f"beyond {TRACE_RTOL:g} relative: the run diverged")
    return StepSizeError(f"{cause}; reduce dt", row)


def _renormalize(plan, X: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Every row of batch ``new``, the step from X, divided by its trace
    (:func:`_trace`).  It does not hermitise: the kernels keep a Hermitian
    batch Hermitian bitwise, and :func:`_run` makes a run's start Hermitian
    once.  A trace that is not finite and positive is a
    :class:`StepSizeError` naming its row, worded against that row's trace
    in X (:func:`_trace_error`)."""
    tr = _trace(plan, new)
    bad = (tr <= 0) | ~np.isfinite(tr)
    if bad.any():
        row = int(np.argmax(bad))
        raise _trace_error(tr[row], float(_trace(plan, X[row:row + 1])[0]), row)
    return new / _rows(tr, new)


def step_plans(model: EmbeddingModel, dt: float, n_steps: int, representation: str,
               measurement: str = "none"):
    """``(plans, sup)``: an iterator over the operator plan of each step
    0..n_steps-1 of ``representation``'s route, and whether those plans
    carry a superoperator.

    Segment k starts at step round(t_k/dt) and runs to the next start; its
    plan (:func:`joint_plan` or :func:`block_plan`, for ``measurement``) is
    built once, when the segment is reached.  For a model with some
    auxiliary nontrivial and total dimension D at most :data:`D_SUP_SHORT`,
    or at most :data:`D_SUP` when every segment of the run spans at least
    D*D steps, each plan also carries its superoperator, built from the
    plan's own kernels.  The choice reads only the model and the step grid,
    never the batch size, so a trajectory steps alike alone and in an
    ensemble.  Raises ValueError at once for an unknown representation or
    a breakpoint off the dt grid.
    """
    if representation not in ("joint", "blocks"):
        raise ValueError(f"unknown representation {representation!r}")
    build = joint_plan if representation == "joint" else block_plan
    starts = dict(model.segment_starts(dt))
    bounds = sorted(k for k in starts if k < n_steps) + [n_steps]
    shortest = min((b - a for a, b in zip(bounds, bounds[1:])), default=0)
    D = model.dims.total
    sup = (any(d > 1 for d in model.dims.aux) and D <= D_SUP
           and (D <= D_SUP_SHORT or shortest >= D * D))

    def plans():
        plan = None
        for i in range(n_steps):
            if i in starts:
                plan = build(model, starts[i], measurement)
                if sup:
                    plan = replace(plan, sup=superoperator(plan))
            yield plan

    return plans(), sup


def _run(model: EmbeddingModel, X: np.ndarray, cfg: SimConfig, measurement: str, step,
         first: int = 0, read_at=None):
    """Generator over the steps of batch X (row n being trajectory
    ``first + n``), yielding ``(X, out)`` after each step i, where
    ``step(plan, state, i)`` returns ``(state', out)``.

    X's layout names the route: ``(N, D, D)`` is joint and
    ``(N, A, A, d_s, d_s)`` blocks.  Any other shape raises ValueError at
    once, before a plan is built, and a monitored run on a model with no
    probe is a :class:`ConfigError` (:func:`probe_problems`).  The run
    steps X's Hermitian part (X + X†)/2, formed once here, before the form
    is chosen; the kernels keep it Hermitian bitwise, so no step repairs
    the state, and X and its Hermitian part step alike.  The batch is held
    in its plans' form: the layout, or on the superoperator path its
    ``(N, K)`` Hermitian coordinates, laid out only after the step counts
    in ``read_at`` (None: every step); after the other steps X is None.  A
    failing step raises :class:`StepSizeError` naming the trajectory, the
    step and t.
    """
    D, A, ds = model.dims.total, model.dims.aux_total, model.dims.principal
    routes = {(D, D): "joint", (A, A, ds, ds): "blocks"}
    if X.shape[1:] not in routes:
        raise ValueError(f"a batch of shape {X.shape} has neither of the model's layouts: "
                         f"joint (N, {D}, {D}) or blocks (N, {A}, {A}, {ds}, {ds})")
    if problems := probe_problems(model, measurement):
        raise ConfigError(problems)
    X = (X + adjoint(X, X.ndim - 1)) / 2
    plans, sup = step_plans(model, cfg.dt, cfg.n_steps, routes[X.shape[1:]], measurement)
    c = herm_coords(X.shape[1:]) if sup else None

    def steps(state):
        for i, plan in enumerate(plans):
            try:
                state, out = step(plan, state, i)
            except StepSizeError as exc:
                raise StepSizeError(f"trajectory {first + exc.row}, step {i} "
                                    f"(t={i * cfg.dt:.6g}): {exc}", exc.row) from exc
            if read_at is not None and i + 1 not in read_at:
                yield None, out
            else:
                yield (state if c is None else c.layout(state)), out

    return steps(X if c is None else c.coords(X))


def _em_step(plan, X, dt, dW):
    """X + a dt + G dW, renormalised: the one Euler-Maruyama update of both
    routes, in the plan's form.  With a superoperator P, X is the batch's
    ``(N, K)`` Hermitian coordinates and a, G and mval come from one real
    product ``X @ P``.  Otherwise X is the layout, which must be Hermitian
    (:func:`_run` makes a run's start so, once), and the plan's kernels
    give a, G and mval; both are Hermitian bitwise, so the result is too."""
    P = plan.sup
    if P is None:
        a = plan.drift(X)
        G, mval = (None, None) if plan.meas is None else plan.measure(X)
    else:
        N, K = X.shape
        # numpy sends a one-row product to gemv, which rounds differently
        # from gemm: a batch of one takes the batch kernel as two equal rows.
        # That a row of a gemm product does not depend on the other rows is
        # a property of the BLAS, checked with OpenBLAS 0.3.31 for P's
        # padded width (:data:`nmembed.generators.SUP_ALIGN`); another BLAS
        # may differ.
        Y = (X @ P if N > 1 else np.concatenate((X, X)) @ P)[:N]
        a, G, mval = Y[:, :K], None, None
        if plan.meas is not None:
            mval = Y[:, 2 * K]
            G = Y[:, K:2 * K] - mval[:, None] * X
    new = X + a * dt
    if G is not None:
        new = new + G * _rows(dW, X)
    return _renormalize(plan, X, new), mval


def em_step_joint(plan: JointPlan, X: np.ndarray, dt: float, dW: np.ndarray):
    """One Euler-Maruyama step of the joint equation for a batch X in the
    plan's form (the Hermitian ``(N, D, D)`` layout, or the ``(N, D*D)``
    Hermitian coordinates when the plan carries a superoperator) and
    innovations dW of shape ``(N,)``; returns ``(X', mval)`` with X' in the
    same form (mval None when unmonitored).  A step's record is dI = dW and
    dY = mval*dt + dI."""
    return _em_step(plan, X, dt, dW)


def em_step_blocks(plan: BlockPlan, X: np.ndarray, dt: float, dW: np.ndarray):
    """Block-representation counterpart of :func:`em_step_joint`; the
    Hermitian layout has shape ``(N, A, A, d_s, d_s)``."""
    return _em_step(plan, X, dt, dW)


def em_run(model: EmbeddingModel, X: np.ndarray, cfg: SimConfig, dW: np.ndarray,
           first: int = 0, read_at=None):
    """Generator over the Euler-Maruyama steps of a batch, yielding
    ``(X, mval)`` after each step.  X is the initial batch, row n being
    trajectory ``first + n``, and dW its ``(N, n_steps)`` noise.  X's layout
    names the route: ``(N, D, D)`` is joint and ``(N, A, A, d_s, d_s)``
    blocks; any other shape raises ValueError at once, and a monitored run
    on a model with no probe :class:`ConfigError` at ``sim.measurement``,
    before a plan is built.  ``read_at`` holds the step counts after which
    the caller reads X (None: every step); after the other steps X is
    None.  A failing step raises :class:`StepSizeError` naming the
    trajectory, the step and t."""
    step = em_step_joint if X.ndim == 3 else em_step_blocks
    return _run(model, X, cfg, cfg.measurement,
                lambda plan, x, i: step(plan, x, cfg.dt, dW[:, i]), first, read_at)


def _rk4(plan: BlockPlan, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of the block master equation for batch y in
    the plan's form: drift from the first K columns of ``y @ P`` on
    ``(N, K)`` Hermitian coordinates when the (unmonitored) plan carries its
    superoperator P, ``plan.drift`` on the layout otherwise.  All four
    stages use the step's plan.

    The layout must be Hermitian (:func:`_run` makes a run's start so,
    once).  The kernels assume Hermitian states: on an anti-Hermitian part
    a their drift is sum_E E a E†, which grows.  Their drift is Hermitian
    bitwise, so a Hermitian y stays Hermitian bitwise and no step repairs
    it."""
    def drift(y):
        return plan.drift(y) if plan.sup is None else (y @ plan.sup)[:, :y.shape[1]]

    k1 = drift(y)
    k2 = drift(y + 0.5 * dt * k1)
    k3 = drift(y + 0.5 * dt * k2)
    k4 = drift(y + dt * k3)
    return rk4_combine(y, dt, k1, k2, k3, k4)


def rk4_step_qme(plan: BlockPlan, bs: BlockState, dt: float) -> BlockState:
    """Classical 4-stage Runge-Kutta step of Hermitian block state ``bs``
    through the plan's kernels (the plan carries no superoperator); all
    four stages use the step's plan.

    No renormalization: trace drift measures integrator error.
    """
    return BlockState(bs.dims, _rk4(plan, bs.blocks, dt))


def rk4_combine(y, dt, k1, k2, k3, k4):
    """Shared RK4 update formula (exposed so reference series can reproduce
    the exact arithmetic of :func:`rk4_step_qme`)."""
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate_trajectory(model: EmbeddingModel, init, cfg: SimConfig,
                        trajectory_index: int = 0) -> TrajectoryRecord:
    """Run one trajectory of the monitored (or unmonitored) dynamics.

    ``init``'s type names the route: a :class:`JointState` runs the joint
    equation, a :class:`BlockState` the block equations.  Snapshots are
    recorded at t=0 and after every ``snapshot_stride``-th step.  A scheme
    other than euler-maruyama is a :class:`ConfigError` at ``sim.scheme``,
    and a monitored run on a model with no probe one at ``sim.measurement``.
    """
    if cfg.scheme != "euler-maruyama":
        raise ConfigError([("sim.scheme", "a trajectory runs 'euler-maruyama', "
                                          f"got {cfg.scheme!r}")])
    monitored = cfg.measurement != "none"
    n = cfg.n_steps
    dW = draw_innovations(cfg, 1, trajectory_index)
    stride = cfg.snapshot_stride
    start = init.rho if isinstance(init, JointState) else init.blocks
    steps = em_run(model, start[None], cfg, dW,
                   first=trajectory_index, read_at=range(stride, n + 1, stride))
    times = np.arange(1, n + 1) * cfg.dt
    mvals = np.empty(n) if monitored else np.empty(0)
    snapshots = [init]
    for i, (X, mval) in enumerate(steps):
        if monitored:
            mvals[i] = mval[0]
        if X is not None:
            snapshots.append(type(init)(init.dims, X[0]))
    dI = dW[0] if monitored else np.empty(0)
    dY = mvals * cfg.dt + dI
    return TrajectoryRecord(times=times, dY=dY, dI=dI, mvals=mvals,
                            snapshots=snapshots, seed=cfg.seed)


def solve_qme(model: EmbeddingModel, init: BlockState, cfg: SimConfig):
    """RK4 time series of the block master equation, run as a batch of one.

    Returns a list of ``(t, BlockState, reduced principal state)`` sampled
    at t=0 and every ``snapshot_stride``-th step.  A scheme other than rk4
    is a :class:`ConfigError` at ``sim.scheme``.  A step whose trace is not
    finite or lies beyond :data:`TRACE_RTOL` of the start's, relative, is a
    :class:`StepSizeError` naming the step and t: the run diverged.
    """
    if cfg.scheme != "rk4":
        raise ConfigError([("sim.scheme", f"the master equation runs 'rk4', got {cfg.scheme!r}")])
    stride = cfg.snapshot_stride
    tr0 = init.total_trace()

    def step(plan, x, i):
        x = _rk4(plan, x, cfg.dt)
        tr = float(_trace(plan, x)[0])
        if not abs(tr - tr0) <= TRACE_RTOL * abs(tr0):  # a nan trace fails too
            raise _trace_error(tr, tr0)
        return x, None

    # the master equation is unmonitored whatever cfg.measurement says
    steps = _run(model, init.blocks[None], cfg, "none", step,
                 read_at=range(stride, cfg.n_steps + 1, stride))
    out = [(0.0, init, init.reduced())]
    for i, (X, _) in enumerate(steps):
        if X is not None:
            bs = BlockState(init.dims, X[0])
            out.append(((i + 1) * cfg.dt, bs, bs.reduced()))
    return out
