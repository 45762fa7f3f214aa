"""Fixed-step integration: Euler-Maruyama for the monitored (stochastic)
equations in both the joint and block representations, and classical RK4
for the deterministic block master equation.

Steps apply a per-segment operator plan (:mod:`nmembed.generators`).
:func:`step_plans` resolves segments on the integer step grid, builds each
segment's plan once and holds only the current one; all stages of a step
use that step's plan.

Noise streams are counter-based (numpy Philox) and keyed by
``(master seed, trajectory index)`` so distinct trajectories are
independent and any parallel schedule reproduces the same numbers.
Gaussian increments come from ``Generator.standard_normal`` (numpy's
documented ziggurat transform of Philox uniforms), scaled by sqrt(dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import (
    BlockPlan,
    BlockState,
    JointPlan,
    JointState,
    block_drift,
    block_meas,
    block_plan,
    joint_drift,
    joint_meas,
    joint_plan,
)
from .model import EmbeddingModel, grid_index

SCHEMES = ("euler-maruyama", "rk4")
MEASUREMENTS = ("amplitude", "phase", "none")


class StepSizeError(RuntimeError):
    """Pre-normalization trace became nonpositive: dt is too large."""


@dataclass(frozen=True)
class SimConfig:
    dt: float
    t_end: float
    scheme: str = "euler-maruyama"
    measurement: str = "amplitude"
    seed: int = 0
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt must be positive and t_end nonnegative")
        # t_end = 0 is the trivial run: no steps, initial state only
        if self.t_end > 0:
            if self.dt > self.t_end:
                raise ValueError("dt must not exceed t_end")
            if grid_index(self.t_end, self.dt) is None:
                raise ValueError("t_end must be a multiple of dt")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.measurement not in MEASUREMENTS:
            raise ValueError(f"unknown measurement {self.measurement!r}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

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


def _finalize(mat: np.ndarray, dt_label: str):
    """Hermitize and renormalize an updated density-like array.

    Works for a joint matrix (trace) or a blocks array (total trace over
    diagonal blocks); returns (normalized array, trace before scaling).
    """
    if mat.ndim == 2:
        mat = (mat + mat.conj().T) / 2
        tr = float(np.trace(mat).real)
    else:
        mat = (mat + np.conj(np.transpose(mat, (1, 0, 3, 2)))) / 2
        tr = float(np.einsum("iiss->", mat).real)
    if tr <= 0:
        raise StepSizeError(f"nonpositive trace {tr:.3e} after {dt_label}; reduce dt")
    return mat / tr, tr


def step_plans(model: EmbeddingModel, dt: float, n_steps: int, build):
    """Iterator over the operator plan of each step 0..n_steps-1.

    Segment k starts at step round(t_k/dt) and runs to the next start;
    ``build(t_k)`` is called once per segment reached.  Raises ValueError
    at once for a breakpoint off the dt grid.
    """
    starts = dict(model.segment_starts(dt))

    def plans():
        plan = None
        for i in range(n_steps):
            if i in starts:
                plan = build(starts[i])
            yield plan

    return plans()


def em_step_joint(plan: JointPlan, state: JointState, dt: float, dW: float):
    """One Euler-Maruyama step of the joint equation.

    Returns ``(state', dY, dI, mval)``; the record entries are None when the
    plan is unmonitored.  The innovations increment dI is the supplied dW
    and dY = mval*dt + dI exactly.
    """
    drift = joint_drift(plan, state.rho)
    if plan.meas is None:
        rho, _ = _finalize(state.rho + drift * dt, "Euler step")
        return JointState(state.dims, rho), None, None, None
    G, mval = joint_meas(plan, state.rho)
    rho, _ = _finalize(state.rho + drift * dt + G * dW, "Euler-Maruyama step")
    return JointState(state.dims, rho), mval * dt + dW, dW, mval


def em_step_blocks(plan: BlockPlan, bs: BlockState, dt: float, dW: float):
    """Block-representation counterpart of :func:`em_step_joint`."""
    drift = block_drift(plan, bs.blocks)
    if plan.meas is None:
        blocks, _ = _finalize(bs.blocks + drift * dt, "Euler step")
        return BlockState(bs.dims, blocks), None, None, None
    G, mval = block_meas(plan, bs.blocks)
    blocks, _ = _finalize(bs.blocks + drift * dt + G * dW, "Euler-Maruyama step")
    return BlockState(bs.dims, blocks), mval * dt + dW, dW, mval


def rk4_step_qme(plan: BlockPlan, bs: BlockState, dt: float) -> BlockState:
    """Classical 4-stage Runge-Kutta step of the block master equation; all
    four stages use the step's plan.

    No renormalization: trace drift measures integrator error.
    """
    b = bs.blocks
    k1 = block_drift(plan, b)
    k2 = block_drift(plan, b + 0.5 * dt * k1)
    k3 = block_drift(plan, b + 0.5 * dt * k2)
    k4 = block_drift(plan, b + dt * k3)
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
    if representation not in ("blocks", "joint"):
        raise ValueError(f"unknown representation {representation!r}")
    if cfg.scheme != "euler-maruyama":
        raise ValueError("simulate_trajectory requires the euler-maruyama scheme")
    monitored = cfg.measurement != "none"
    if monitored and model.probe is None:
        raise ValueError("measurement requested but model has no probe")
    n = cfg.n_steps
    if monitored:
        dWs = noise_stream(cfg.seed, trajectory_index).standard_normal(n) * math.sqrt(cfg.dt)
    else:
        dWs = np.zeros(n)
    state = init
    times = np.arange(1, n + 1) * cfg.dt
    dY = np.empty(n) if monitored else np.empty(0)
    dI = np.empty(n) if monitored else np.empty(0)
    mvals = np.empty(n) if monitored else np.empty(0)
    if representation == "joint":
        step = em_step_joint
        plans = step_plans(model, cfg.dt, n, lambda t: joint_plan(model, t, cfg.measurement))
    else:
        step = em_step_blocks
        plans = step_plans(model, cfg.dt, n,
                           lambda t: block_plan(model, t, cfg.measurement, aux_sign))
    snapshots = [state]
    snapshot_times = [0.0]
    for i, plan in enumerate(plans):
        try:
            state, y, w, m = step(plan, state, cfg.dt, dWs[i])
        except StepSizeError as exc:
            raise StepSizeError(f"step {i} (t={i * cfg.dt:.6g}): {exc}") from exc
        if monitored:
            mvals[i] = m
            dY[i] = y
            dI[i] = w
        if (i + 1) % cfg.snapshot_stride == 0:
            snapshots.append(state)
            snapshot_times.append(times[i])
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
    plans = step_plans(model, cfg.dt, cfg.n_steps, lambda t: block_plan(model, t))
    for i, plan in enumerate(plans):
        bs = rk4_step_qme(plan, bs, cfg.dt)
        if (i + 1) % cfg.snapshot_stride == 0:
            out.append(((i + 1) * cfg.dt, bs, bs.reduced()))
    return out
