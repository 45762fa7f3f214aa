"""Independent verification layer: joint <-> block projection maps, the
matrix-exponential oracle for closed models, shared-noise cross-checks of
the two stochastic integrators, and Monte Carlo ensemble statistics.

Both stochastic checks run the integrators' one Euler-Maruyama core
(:func:`nmembed.integrators.em_run`) and hold no step arithmetic: the
cross-check zips a joint and a block run on one noise array, and the
ensemble steps all N trajectories as one batch in either representation.
Each hands the core a batch whose layout names its route.  The cross-check
has no fault switch: the sign-flip fault the mutation tests must see it
catch is injected from outside, by patching the block plan builder
``nmembed.integrators.block_plan``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .generators import BlockState, JointState, assemble_joint_operators
from .integrators import (SimConfig, draw_innovations, em_run, integer, probe_problems,
                          solve_qme)
from .linalg import (HERM_ATOL, TRACE_ATOL, SubsystemDims, as_operator, dagger,
                     density_problem, fro_dist, herm_defect, partial_trace)
from .model import CompoundBath, ConfigError, EmbeddingModel, TimedOperator


def blocks_from_joint(js: JointState) -> BlockState:
    """Sandwich the joint matrix between auxiliary basis vectors.

    Pure index permutation; exact inverse of :func:`joint_from_blocks`.
    """
    return BlockState(js.dims, project_blocks(js.rho, js.dims))


def joint_from_blocks(bs: BlockState) -> JointState:
    dims = bs.dims
    d = dims.total
    r4 = np.transpose(bs.blocks, (2, 0, 3, 1))
    return JointState(dims, np.ascontiguousarray(r4.reshape(d, d)))


def project_blocks(rho: np.ndarray, dims: SubsystemDims) -> np.ndarray:
    """Blocks array of an arbitrary (not necessarily state-like) matrix."""
    ds, a = dims.principal, dims.aux_total
    return np.ascontiguousarray(np.transpose(rho.reshape(ds, a, ds, a), (1, 3, 0, 2)))


def check_block_state(bs: BlockState) -> list[str]:
    """Invariant violations of a normalized block state."""
    problems = []
    pd = bs.pairing_defect()
    if pd > HERM_ATOL:
        problems.append(f"conjugate pairing defect {pd:.3e}")
    tr = bs.total_trace()
    if abs(tr - 1.0) > TRACE_ATOL:
        problems.append(f"total trace {tr:.12g} != 1")
    if not problems and (why := density_problem(joint_from_blocks(bs).rho, bs.dims.total)):
        problems.append(why)
    return problems


def crosscheck_paths(model: EmbeddingModel, init: BlockState, cfg: SimConfig) -> float:
    """Run the joint and block stochastic integrators on one shared noise
    path and return the supremum over steps of the Frobenius distance
    between the assembled block state and the joint state.

    Each run's layout names its route.  The discrete maps are exactly
    conjugate under the projection, so the result measures accumulated
    rounding only.  The mutation tests inject the sign-flip fault (every
    bath's H_a and H_sa negated) into the block route alone by patching the
    plan builder the integrators call, ``nmembed.integrators.block_plan``.
    """
    dW = draw_innovations(cfg, 1)
    joint = em_run(model, joint_from_blocks(init).rho[None], cfg, dW)
    blocks = em_run(model, init.blocks[None], cfg, dW)
    return max((fro_dist(joint_from_blocks(BlockState(init.dims, B[0])).rho, J[0])
                for (J, _), (B, _) in zip(joint, blocks)), default=0.0)


def oracle_gaps(model: EmbeddingModel, t_end: float) -> list[str]:
    """Why :func:`closed_system_oracle` does not cover ``model`` up to
    ``t_end``: empty for a closed (purely Hamiltonian) model whose operators
    are constant before ``t_end``.  A step runs the operators of its start,
    so a switch at or after ``t_end`` is never used."""
    gaps = ["the model has a probe"] if model.probe is not None else []
    gaps += [f"bath {li} has field couplings" for li, b in enumerate(model.baths)
             if b.L1 or b.L2]
    if any(0.0 < t < t_end for t in model.segment_times()):
        gaps.append("the model's operators change in time")
    return gaps


def closed_system_oracle(model: EmbeddingModel, init: JointState, times):
    """Exact reduced principal states of a closed (purely Hamiltonian) model.

    Evolves the joint state by the eigendecomposition-based exponential of
    the total embedded Hamiltonian, then partial-traces the auxiliaries.
    Raises ValueError with every :func:`oracle_gaps` reason for a model it
    does not cover up to the last of ``times``.
    """
    gaps = oracle_gaps(model, max(times, default=0.0))
    if gaps:
        raise ValueError(f"closed-system oracle does not cover this model: {'; '.join(gaps)}")
    H, _, _ = assemble_joint_operators(model, 0.0)
    w, V = np.linalg.eigh(H)
    rho0 = init.rho
    out = []
    for t in times:
        phase = np.exp(-1j * w * t)
        U = (V * phase) @ dagger(V)
        rho_t = U @ rho0 @ dagger(U)
        out.append(partial_trace(rho_t, model.dims))
    return out


@dataclass
class EnsembleSummary:
    """Monte Carlo means/standard errors of principal observables at
    checkpoints, with the deterministic master-equation reference."""

    N: int
    checkpoints: np.ndarray
    mean_obs: dict[str, np.ndarray]
    stderr_obs: dict[str, np.ndarray]
    qme_obs: dict[str, np.ndarray]
    innovations_mean: float
    innovations_var: float


def pauli_observables(d_s: int) -> dict[str, np.ndarray]:
    """Default observables: Pauli expectations for a qubit principal."""
    if d_s != 2:
        raise ValueError("default Pauli observables need a 2-dimensional principal")
    return {
        "sx": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "sy": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        "sz": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    }


def run_problems(N, representation, observables, d_s: int | None) -> list[tuple[str, str]]:
    """Located problems of a run section: ``run.trajectories`` (N not an
    integer >= 2), ``run.representation`` (neither "joint" nor "blocks")
    and ``run.observables.<name>`` (not a numeric ``(d_s, d_s)`` matrix, or
    one whose Hermiticity defect exceeds :data:`HERM_ATOL`, in the operator
    rule's words; not checked when d_s is None)."""
    problems = []
    if not (integer(N) and N >= 2):
        problems.append(("run.trajectories", f"must be an integer >= 2, got {N!r}"))
    if representation not in ("joint", "blocks"):
        problems.append(("run.representation",
                         f"must be 'joint' or 'blocks', got {representation!r}"))
    for name, O in observables.items() if d_s is not None else ():
        where = f"run.observables.{name}"
        try:
            O = np.asarray(O, dtype=np.complex128)
        except (TypeError, ValueError):  # ragged rows or non-numeric entries
            problems.append((where, "not a numeric matrix"))
            continue
        if O.shape != (d_s, d_s):
            problems.append((where, f"shape {O.shape}, expected {(d_s, d_s)}"))
        elif (defect := herm_defect(O)) > HERM_ATOL:
            problems.append((where, f"hermiticity: defect {defect:.3e}"))
    return problems


def _batched_em_run(model: EmbeddingModel, X0: np.ndarray, cfg: SimConfig, N: int,
                    checkpoint_steps, observables: dict[str, np.ndarray]):
    """N monitored trajectories from X0 as one batch of the Euler-Maruyama
    core, in the route X0's layout names (a joint ``(D, D)`` matrix or
    ``(A, A, d_s, d_s)`` blocks), trajectory n on the stream (cfg.seed, n):
    observables of the reduced state at the checkpoint steps and each
    trajectory's summed innovations."""
    ds, a = model.dims.principal, model.dims.aux_total
    dW = draw_innovations(cfg, N)
    X = np.broadcast_to(X0, (N,) + X0.shape)
    obs_samples = {name: np.empty((len(checkpoint_steps), N)) for name in observables}
    innov = np.zeros(N)
    cp = {step: i for i, step in enumerate(checkpoint_steps)}
    for i, (X, _) in enumerate(em_run(model, X, cfg, dW, read_at=cp)):
        innov += dW[:, i]
        if X is not None:
            red = (np.einsum("nsata->nst", X.reshape(N, ds, a, ds, a))
                   if X0.ndim == 2 else np.einsum("niist->nst", X))
            for name, O in observables.items():
                obs_samples[name][cp[i + 1]] = np.einsum("nij,ji->n", red, O).real
    return obs_samples, innov


N_CHECKPOINTS = 10  # default ensemble checkpoints, evenly spaced over (0, t_end]


def ensemble_average(model: EmbeddingModel, init: BlockState, cfg: SimConfig, N: int,
                     observables: dict[str, np.ndarray] | None = None,
                     n_checkpoints: int = N_CHECKPOINTS,
                     representation: str = "joint") -> EnsembleSummary:
    """Monte Carlo mean of the monitored dynamics against the deterministic
    master-equation reference, plus terminal innovations statistics.  The
    trajectories run in ``representation``; the two agree to rounding.

    No observables mean the Pauli observables of a qubit principal.  Raises
    ValueError for an ``n_checkpoints`` that is not a positive integer, and
    otherwise :class:`ConfigError` with every problem of the run, before a
    step is taken: those of :func:`run_problems`, then ``sim.t_end`` (a
    step count that is not a positive multiple of ``n_checkpoints``),
    ``sim.measurement`` (an unmonitored run, or
    :func:`~nmembed.integrators.probe_problems`) and ``run.observables``
    (none to average).
    """
    if not (integer(n_checkpoints) and n_checkpoints >= 1):
        raise ValueError(f"n_checkpoints must be a positive integer, got {n_checkpoints!r}")
    d_s, n = model.dims.principal, cfg.n_steps
    if not observables and d_s == 2:
        observables = pauli_observables(2)
    problems = run_problems(N, representation, observables or {}, d_s)
    if n <= 0 or n % n_checkpoints:
        problems.append(("sim.t_end", f"t_end/dt ({n} steps) must be positive and divisible "
                                      f"by the {n_checkpoints} checkpoints"))
    if cfg.measurement == "none":
        problems.append(("sim.measurement", "an ensemble averages monitored trajectories: "
                         "must be 'amplitude' or 'phase', with a probe in the model"))
    problems += probe_problems(model, cfg.measurement)
    if not observables:
        problems.append(("run.observables", "must name the observables to average: the "
                         "default Pauli observables need a 2-dimensional principal, got "
                         f"{d_s}"))
    if problems:
        raise ConfigError(problems)
    observables = {k: as_operator(v) for k, v in observables.items()}
    stride = n // n_checkpoints
    checkpoint_steps = [stride * (k + 1) for k in range(n_checkpoints)]
    checkpoints = np.array([s * cfg.dt for s in checkpoint_steps])

    X0 = joint_from_blocks(init).rho if representation == "joint" else init.blocks
    obs_samples, innov = _batched_em_run(model, X0, cfg, N, checkpoint_steps, observables)

    # rows 1.. of the reference are its checkpoint steps
    qme_series = solve_qme(model, init, replace(cfg, scheme="rk4", measurement="none",
                                                snapshot_stride=stride))[1:]

    mean_obs, stderr_obs, qme_obs = {}, {}, {}
    for name, O in observables.items():
        samples = obs_samples[name]
        mean_obs[name] = samples.mean(axis=1)
        stderr_obs[name] = samples.std(axis=1, ddof=1) / math.sqrt(N)
        qme_obs[name] = np.array([float(np.trace(O @ red).real) for _, _, red in qme_series])
    return EnsembleSummary(
        N=N,
        checkpoints=checkpoints,
        mean_obs=mean_obs,
        stderr_obs=stderr_obs,
        qme_obs=qme_obs,
        innovations_mean=float(innov.mean()),
        innovations_var=float(innov.var(ddof=1)),
    )


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (x + x.conj().T) / 2


def random_operator(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)


def random_model(rng: np.random.Generator, d_s: int, d_aux, m1=None, m2=None,
                 probe: np.ndarray | None = None, scale: float = 1.0) -> EmbeddingModel:
    """Random constant model for oracle and cross-check exercises."""
    d_aux = tuple(d_aux)
    m1 = [1] * len(d_aux) if m1 is None else list(m1)
    m2 = [1] * len(d_aux) if m2 is None else list(m2)
    baths = []
    for dl, n1, n2 in zip(d_aux, m1, m2):
        baths.append(CompoundBath(
            H_a=TimedOperator.constant(random_hermitian(rng, dl, scale)),
            H_sa=TimedOperator.constant(random_hermitian(rng, d_s * dl, scale)),
            L1=tuple(TimedOperator.constant(random_operator(rng, d_s * dl, scale))
                     for _ in range(n1)),
            L2=tuple(TimedOperator.constant(random_operator(rng, dl, scale))
                     for _ in range(n2)),
        ))
    return EmbeddingModel(
        dims=SubsystemDims(d_s, d_aux),
        H_s=TimedOperator.constant(random_hermitian(rng, d_s, scale)),
        baths=tuple(baths),
        probe=None if probe is None else TimedOperator.constant(probe),
    )


def random_block_state(rng: np.random.Generator, dims: SubsystemDims) -> BlockState:
    """Random normalized density matrix, expressed in block form."""
    d = dims.total
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    return blocks_from_joint(JointState(dims, rho))


def standard_fixture(seed: int = 2023):
    """The cross-check fixture: qubit principal, two compound baths of
    dimensions 2 and 3, one interconnection and one auxiliary-only coupling
    per bath, lowering-operator probe on the principal."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    sigma_minus = np.array([[0, 0], [1, 0]], dtype=np.complex128)
    model = random_model(rng, 2, (2, 3), probe=sigma_minus, scale=0.5)
    dims = model.dims
    # Maximally mixed start: the conditional state then keeps its spectrum
    # well away from zero, where the Euler-Maruyama update would otherwise
    # push near-zero eigenvalues slightly negative.
    init = BlockState.from_product(
        dims,
        np.eye(2, dtype=np.complex128) / 2,
        (np.eye(2, dtype=np.complex128) / 2, np.eye(3, dtype=np.complex128) / 3),
    )
    return model, init
