"""Per-segment superoperator stepping: the superoperator path against the
direct kernels, the block route's superoperator without joint assembly,
row independence of the batch product, and which plans carry one."""

from dataclasses import replace

import numpy as np
import pytest

import nmembed.integrators as integrators
from nmembed.generators import (
    BlockPlan,
    BlockState,
    JointPlan,
    block_plan,
    herm_coords,
    joint_plan,
    superoperator,
)
from nmembed.integrators import (
    D_SUP,
    SimConfig,
    draw_innovations,
    em_run,
    em_step_blocks,
    em_step_joint,
    simulate_trajectory,
    solve_qme,
    step_plans,
)
from nmembed.model import CompoundBath, EmbeddingModel, TimedOperator
from nmembed.verify import (
    blocks_from_joint,
    crosscheck_paths,
    ensemble_average,
    joint_from_blocks,
    pauli_observables,
    random_block_state,
    random_hermitian,
    random_model,
    random_operator,
    standard_fixture,
)

from conftest import SIGMA_MINUS, aux_sign_fault, forbid_joint_operators

# (d_s, auxiliary dims): total dimension 4, 6, 6, 8, 8, 12 and 16
SHAPES = [(2, (2,)), (3, (2,)), (2, (3,)), (2, (2, 2)), (1, (2, 4)), (2, (2, 3)),
          (2, (2, 2, 2))]
ROUTES = {
    "joint": (joint_plan, JointPlan.drift, JointPlan.measure, em_step_joint),
    "blocks": (block_plan, BlockPlan.drift, BlockPlan.measure, em_step_blocks),
}


def _model(rng, d_s, d_aux):
    M = len(d_aux)
    return random_model(rng, d_s, d_aux, m1=[1] * M, m2=[2] * M,
                        probe=random_operator(rng, d_s, 0.7), scale=0.5)


def _layout(bs: BlockState, representation):
    return joint_from_blocks(bs).rho if representation == "joint" else bs.blocks


def _batch(rng, dims, representation, N):
    return np.stack([_layout(random_block_state(rng, dims), representation)
                     for _ in range(N)])


def _width(plan):
    """Columns of the plan's superoperator: drift, plus the measurement's
    linear part and mval when monitored, padded to a multiple of 16."""
    K = herm_coords(plan.state_shape).size
    return -(-(K if plan.meas is None else 2 * K + 1) // 16) * 16


def _count_superops(monkeypatch):
    """Record the plan type of every superoperator the stepping core builds."""
    built = []

    def counting(plan):
        built.append(type(plan).__name__)
        return superoperator(plan)

    monkeypatch.setattr(integrators, "superoperator", counting)
    return built


def _segmented(rng, d_s, d_aux, starts):
    """Random model whose principal Hamiltonian, probe and first
    interconnection coupling change at every time in ``starts``."""
    base = _model(rng, d_s, d_aux)

    def timed(make, d):
        return TimedOperator(tuple((t, make(rng, d, 0.5)) for t in starts))

    bath = base.baths[0]
    first = CompoundBath(H_a=bath.H_a, H_sa=bath.H_sa,
                         L1=(timed(random_operator, d_s * d_aux[0]),), L2=bath.L2)
    return EmbeddingModel(dims=base.dims, H_s=timed(random_hermitian, d_s),
                          baths=(first,) + base.baths[1:],
                          probe=timed(random_operator, d_s))


@pytest.mark.parametrize("measurement", ["amplitude", "phase", "none"])
@pytest.mark.parametrize("representation", ["joint", "blocks"])
@pytest.mark.parametrize("d_s, d_aux", SHAPES)
def test_superoperator_matches_direct_kernels(d_s, d_aux, representation, measurement):
    rng = np.random.default_rng(d_s * 100 + sum(d_aux))
    model = _model(rng, d_s, d_aux)
    build, drift, meas, step = ROUTES[representation]
    plan = build(model, 0.0, measurement)
    P = superoperator(plan)
    D, N = model.dims.total, 5
    K = D * D
    assert P.dtype == np.float64
    used = 2 * K + 1 if measurement != "none" else K
    assert P.shape == (K, _width(plan)) and P.shape[1] % 16 == 0
    assert not P[:, used:].any()
    X = _batch(rng, model.dims, representation, N)
    c = herm_coords(X.shape[1:])
    Y = c.coords(X) @ P
    assert np.max(np.abs(c.layout(Y[:, :K]) - drift(plan, X))) <= 1e-12
    if measurement != "none":
        G, mval = meas(plan, X)
        assert np.max(np.abs(Y[:, 2 * K] - mval)) <= 1e-12
        lin = G + mval.reshape((N,) + (1,) * (X.ndim - 1)) * X
        assert np.max(np.abs(c.layout(Y[:, K:2 * K]) - lin)) <= 1e-12
    dW = rng.standard_normal(N) * np.sqrt(1e-3)
    direct, m_direct = step(plan, X, 1e-3, dW)
    # a plan carrying P steps the coordinates
    fast, m_fast = step(replace(plan, sup=P), c.coords(X), 1e-3, dW)
    assert np.max(np.abs(c.layout(fast) - direct)) <= 1e-12
    assert (m_fast is None) == (m_direct is None)
    if m_fast is not None:
        assert np.max(np.abs(m_fast - m_direct)) <= 1e-12


def _zero_superoperator(plan):
    """A zero matrix of the shape :func:`superoperator` gives the plan."""
    return np.zeros((herm_coords(plan.state_shape).size, _width(plan)))


@pytest.mark.parametrize("representation", ["joint", "blocks"])
def test_steps_apply_the_attached_superoperator(monkeypatch, representation):
    # a zero superoperator stands in for the kernels: the step leaves the
    # state as it is
    rng = np.random.default_rng(16)
    model = _model(rng, 2, (2,))
    build, _, _, step = ROUTES[representation]
    plan = build(model, 0.0, "amplitude")
    plan = replace(plan, sup=_zero_superoperator(plan))
    X = _hermitian(_batch(rng, model.dims, representation, 3))
    c = herm_coords(X.shape[1:])
    out, mval = step(plan, c.coords(X), 1e-3, np.full(3, 0.1))
    assert np.max(np.abs(c.layout(out) - X)) <= 1e-15 and not mval.any()
    # the runs step through the superoperator they attach
    monkeypatch.setattr(integrators, "superoperator", _zero_superoperator)
    cfg = SimConfig(dt=1e-3, t_end=0.005, seed=3)
    for Xs, ms in em_run(model, X, cfg, draw_innovations(cfg, 3)):
        assert np.max(np.abs(Xs - X)) <= 1e-15 and not ms.any()
    if representation == "blocks":
        bs = BlockState(model.dims, X[0])
        rk = SimConfig(dt=1e-3, t_end=1e-3, scheme="rk4", measurement="none")
        assert np.array_equal(solve_qme(model, bs, rk)[1][1].blocks, bs.blocks)


def _adjoint(X):
    """Adjoint of every state of a joint or blocks batch."""
    return X.transpose((0, 2, 1) if X.ndim == 3 else (0, 2, 1, 4, 3)).conj()


def _hermitian(X):
    """(X + X†)/2: bitwise Hermitian, since the sum of the two terms is
    computed in both orders."""
    return (X + _adjoint(X)) / 2


@pytest.mark.parametrize("representation", ["joint", "blocks"])
@pytest.mark.parametrize("d_s, d_aux", SHAPES)
def test_coordinates_round_trip_hermitian_batches(d_s, d_aux, representation):
    rng = np.random.default_rng(26)
    dims = _model(rng, d_s, d_aux).dims
    X = _hermitian(_batch(rng, dims, representation, 4))
    c = herm_coords(X.shape[1:])
    x = c.coords(X)
    assert x.dtype == np.float64 and x.shape == (4, dims.total ** 2) == (4, c.size)
    assert c.n_diag == dims.total
    assert np.array_equal(c.layout(x), X)
    trace = (X.trace(axis1=1, axis2=2) if representation == "joint"
             else np.einsum("niiss->n", X)).real
    assert np.max(np.abs(x[:, :c.n_diag].sum(axis=1) - trace)) <= 1e-15
    # coordinates of a layout are the coordinates laid out
    y = rng.standard_normal(x.shape)
    assert np.array_equal(c.coords(c.layout(y)), y)


@pytest.mark.parametrize("representation", ["joint", "blocks"])
def test_materialised_states_are_bitwise_hermitian(representation):
    rng = np.random.default_rng(27)
    model = _model(rng, 2, (2, 2))  # D = 8
    build, drift, meas, step = ROUTES[representation]
    plan = build(model, 0.0, "phase")
    X = _batch(rng, model.dims, representation, 3)  # Hermitian to rounding only
    c = herm_coords(X.shape[1:])
    x, _ = step(replace(plan, sup=superoperator(plan)), c.coords(X), 1e-3,
                rng.standard_normal(3) * np.sqrt(1e-3))
    out = c.layout(x)
    assert np.array_equal(out, _adjoint(out))
    cfg = SimConfig(dt=1e-3, t_end=0.03, measurement="phase", seed=5)
    for Xs, _ in em_run(model, X, cfg, draw_innovations(cfg, 3)):
        assert np.array_equal(Xs, _adjoint(Xs))
    init = random_block_state(rng, model.dims)
    rk = SimConfig(dt=1e-3, t_end=0.03, scheme="rk4", measurement="none")
    for _, bs, _ in solve_qme(model, init, rk)[1:]:
        assert np.array_equal(bs.blocks, _adjoint(bs.blocks[None])[0])


def test_real_block_superoperator_needs_no_joint_operators(monkeypatch):
    rng = np.random.default_rng(28)
    models = [_model(rng, 2, d_aux) for d_aux in ((2, 2), (2, 3))]  # D = 8, 12
    quads = ("amplitude", "phase", "none")
    allowed = {(m, q): superoperator(block_plan(model, 0.0, q))
               for m, model in enumerate(models) for q in quads}
    forbid_joint_operators(monkeypatch)
    for m, model in enumerate(models):
        for q in quads:
            P = superoperator(block_plan(model, 0.0, q))
            assert P.dtype == np.float64 and np.array_equal(P, allowed[m, q])


def test_read_steps_only_are_laid_out():
    rng = np.random.default_rng(29)
    model = _model(rng, 2, (2,))
    cfg = SimConfig(dt=1e-3, t_end=0.02, seed=7)
    X = _batch(rng, model.dims, "joint", 2)
    dW = draw_innovations(cfg, 2)
    every = list(em_run(model, X, cfg, dW))
    some = list(em_run(model, X, cfg, dW, read_at={5, 20}))
    for i, ((Xe, me), (Xs, ms)) in enumerate(zip(every, some)):
        assert np.array_equal(me, ms)
        assert (Xs is None) == (i + 1 not in (5, 20))
        if Xs is not None:
            assert np.array_equal(Xs, Xe)


@pytest.mark.parametrize("measurement", ["amplitude", "phase", "none"])
@pytest.mark.parametrize("representation", ["joint", "blocks"])
def test_segmented_run_matches_direct_path(monkeypatch, representation, measurement):
    # D = 8, and D = 12 with segments of at least K = 144 steps
    for d_aux, split in (((2, 2), 0.13), ((2, 3), 0.15)):
        rng = np.random.default_rng(17)
        model = _segmented(rng, 2, d_aux, (0.0, split))
        cfg = SimConfig(dt=1e-3, t_end=2 * split, measurement=measurement, seed=4)
        X0 = _batch(rng, model.dims, representation, 3)
        dW = draw_innovations(cfg, 3)

        built = _count_superops(monkeypatch)
        fast = list(em_run(model, X0, cfg, dW))
        assert len(built) == 2
        with monkeypatch.context() as m:
            m.setattr(integrators, "D_SUP", 0)
            direct = list(em_run(model, X0, cfg, dW))
        assert len(built) == 2
        for (Xf, mf), (Xd, md) in zip(fast, direct):
            assert np.max(np.abs(Xf - Xd)) <= 1e-12
            if measurement != "none":
                assert np.max(np.abs(mf - md)) <= 1e-12


def test_qme_series_matches_direct_path(monkeypatch):
    rng = np.random.default_rng(18)
    model = _segmented(rng, 2, (3,), (0.0, 0.08))  # D = 6
    init = random_block_state(rng, model.dims)
    cfg = SimConfig(dt=1e-3, t_end=0.16, scheme="rk4", measurement="none",
                    snapshot_stride=8)
    built = _count_superops(monkeypatch)
    fast = solve_qme(model, init, cfg)
    assert built == ["BlockPlan"] * 2
    monkeypatch.setattr(integrators, "D_SUP", 0)
    direct = solve_qme(model, init, cfg)
    for (_, bf, _), (_, bd, _) in zip(fast, direct):
        assert np.max(np.abs(bf.blocks - bd.blocks)) <= 1e-12


def test_block_superoperator_needs_no_joint_operators(monkeypatch):
    rng = np.random.default_rng(19)
    model = _model(rng, 2, (2, 2))
    init = random_block_state(rng, model.dims)
    built = _count_superops(monkeypatch)
    forbid_joint_operators(monkeypatch)
    for quad in ("amplitude", "phase", "none"):
        superoperator(block_plan(model, 0.0, quad))
    simulate_trajectory(model, init, SimConfig(dt=1e-3, t_end=0.13, seed=2))
    solve_qme(model, init, SimConfig(dt=1e-3, t_end=0.13, scheme="rk4", measurement="none"))
    assert built == ["BlockPlan"] * 2


def test_aux_sign_fault_detected_on_superoperator_path(monkeypatch):
    for d_aux in ((2, 2), (2, 3)):  # D = 8, 12
        rng = np.random.default_rng(20)
        model = random_model(rng, 2, d_aux, probe=SIGMA_MINUS, scale=0.5)
        init = BlockState.from_product(model.dims, np.eye(2) / 2,
                                       [np.eye(d) / d for d in d_aux])
        cfg = SimConfig(dt=1e-3, t_end=0.2, measurement="amplitude", seed=42)
        assert step_plans(model, cfg.dt, cfg.n_steps, "blocks")[1]
        built = _count_superops(monkeypatch)
        dev = crosscheck_paths(model, init, cfg)
        with aux_sign_fault():
            mutated = crosscheck_paths(model, init, cfg)
        assert sorted(built) == ["BlockPlan", "BlockPlan", "JointPlan", "JointPlan"]
        assert dev <= 1e-10
        assert mutated > 1e-3


@pytest.mark.parametrize("representation", ["joint", "blocks"])
def test_batch_of_one_is_its_batch_row_bitwise(monkeypatch, representation):
    """Rests on the BLAS computing each row of a gemm product independently
    of the other rows (true of OpenBLAS 0.3.31); a failure on another BLAS
    is a platform difference, not a physics fault."""
    rng = np.random.default_rng(21)
    model = _model(rng, 2, (2,))
    build, drift, meas, step = ROUTES[representation]
    plan = build(model, 0.0, "amplitude")
    fast = replace(plan, sup=superoperator(plan))
    X = _batch(rng, model.dims, representation, 7)
    c = herm_coords(X.shape[1:])
    x = c.coords(X)
    dW = rng.standard_normal(7) * np.sqrt(1e-3)
    out, mval = step(fast, x, 1e-3, dW)
    out = c.layout(out)
    for n in range(7):
        one, m = step(fast, x[n:n + 1], 1e-3, dW[n:n + 1])
        assert np.array_equal(c.layout(one)[0], out[n]) and m[0] == mval[n]

    # whole runs: trajectory n alone against row n of a batch, every step
    cfg = SimConfig(dt=1e-3, t_end=0.05, seed=8)
    built = _count_superops(monkeypatch)
    dW = draw_innovations(cfg, 4)
    rows = list(em_run(model, X[:4], cfg, dW))
    for n in range(4):
        alone = em_run(model, X[n:n + 1], cfg, dW[n:n + 1], first=n)
        for (Xb, mb), (Xa, ma) in zip(rows, alone):
            assert np.array_equal(Xa[0], Xb[n]) and ma[0] == mb[n]
    assert len(built) == 5


@pytest.mark.parametrize("representation", ["joint", "blocks"])
@pytest.mark.parametrize("d_s, d_aux", [(2, (2,)), (2, (2, 2)), (2, (2, 3))])
def test_batch_rows_are_their_one_row_steps_at_any_offset(d_s, d_aux, representation):
    """Every row of a batch step equals the step of that row alone,
    bitwise, for batches of 7, 64 and 500 and for copies of P at several
    memory offsets.  Rests on the BLAS property named in
    test_batch_of_one_is_its_batch_row_bitwise, which the padded width of
    P secures on OpenBLAS 0.3.31."""
    rng = np.random.default_rng(30)
    model = _model(rng, d_s, d_aux)
    build, drift, meas, step = ROUTES[representation]
    plan = build(model, 0.0, "amplitude")
    P = superoperator(plan)
    X = _batch(rng, model.dims, representation, 500)
    x = herm_coords(X.shape[1:]).coords(X)
    dW = rng.standard_normal(500) * np.sqrt(1e-3)
    buf = np.empty(P.size + 8)
    for offset in range(8):
        at = buf[offset:offset + P.size].reshape(P.shape)
        at[...] = P
        fast = replace(plan, sup=at)
        alone = [step(fast, x[n:n + 1], 1e-3, dW[n:n + 1]) for n in range(500)]
        for N in (7, 64, 500):
            out, mval = step(fast, x[:N], 1e-3, dW[:N])
            differ = [n for n, (one, m) in enumerate(alone[:N])
                      if not (np.array_equal(one[0], out[n]) and m[0] == mval[n])]
            assert differ == [], (offset, N, len(differ))


def test_ensemble_row_is_the_single_trajectory(monkeypatch):
    """Bitwise, so it rests on the BLAS property named in
    test_batch_of_one_is_its_batch_row_bitwise."""
    # D = 4, and D = 12 over at least K = 144 steps
    for d_aux, t_end in (((2,), 0.04), ((2, 3), 0.16)):
        model = _model(np.random.default_rng(22), 2, d_aux)
        init = random_block_state(np.random.default_rng(23), model.dims)
        cfg = SimConfig(dt=1e-3, t_end=t_end, seed=6, snapshot_stride=round(t_end / 4e-3))
        built = _count_superops(monkeypatch)
        summary = ensemble_average(model, init, cfg, 3, n_checkpoints=4)
        sz = pauli_observables(2)["sz"]
        manual = np.array([
            [np.trace(sz @ blocks_from_joint(snap).reduced()).real
             for snap in simulate_trajectory(model, joint_from_blocks(init), cfg,
                                             trajectory_index=n).snapshots[1:]]
            for n in range(3)])
        assert np.array_equal(summary.mean_obs["sz"], manual.mean(axis=0))
        # the ensemble, its block RK4 reference and the three trajectories
        assert sorted(built) == ["BlockPlan"] + ["JointPlan"] * 4


def test_no_superoperator_outside_its_range(monkeypatch):
    built = _count_superops(monkeypatch)
    cfg = SimConfig(dt=1e-3, t_end=0.2, seed=1)
    # D = 12: a run shorter than K = 144 steps, and segments of 100 steps
    model, init = standard_fixture()
    short = SimConfig(dt=1e-3, t_end=0.1, seed=1)
    simulate_trajectory(model, init, short)
    crosscheck_paths(model, init, short)
    rng = np.random.default_rng(24)
    segmented = _segmented(rng, 2, (2, 3), (0.0, 0.1))
    crosscheck_paths(segmented, random_block_state(rng, segmented.dims), cfg)
    # D = 18 > D_SUP, over more than K = 324 steps
    large = _model(rng, 2, (3, 3))
    assert large.dims.total > D_SUP
    simulate_trajectory(large, random_block_state(rng, large.dims),
                        SimConfig(dt=1e-3, t_end=0.33, seed=1))

    trivial = _model(rng, 2, (1, 1))
    simulate_trajectory(trivial, random_block_state(rng, trivial.dims), cfg)
    solve_qme(trivial, random_block_state(rng, trivial.dims),
              SimConfig(dt=1e-3, t_end=0.2, scheme="rk4", measurement="none"))
    assert built == []


def test_superoperator_built_once_per_segment(monkeypatch):
    rng = np.random.default_rng(25)
    starts = (0.0, 0.13, 0.26)
    K = len(starts)
    model = _segmented(rng, 2, (2, 2), starts)
    init = random_block_state(rng, model.dims)
    em = SimConfig(dt=1e-3, t_end=0.39, seed=3, snapshot_stride=39)
    rk = SimConfig(dt=1e-3, t_end=0.39, scheme="rk4", measurement="none", snapshot_stride=39)
    runs = [
        (lambda: simulate_trajectory(model, init, em), ["BlockPlan"] * K),
        (lambda: simulate_trajectory(model, joint_from_blocks(init), em),
         ["JointPlan"] * K),
        (lambda: crosscheck_paths(model, init, em), ["BlockPlan"] * K + ["JointPlan"] * K),
        (lambda: solve_qme(model, init, rk), ["BlockPlan"] * K),
        (lambda: ensemble_average(model, init, em, 2, n_checkpoints=3),
         ["BlockPlan"] * K + ["JointPlan"] * K),
    ]
    for run, expected in runs:
        built = _count_superops(monkeypatch)
        run()
        assert sorted(built) == expected
