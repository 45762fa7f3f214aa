"""Per-segment operator plans: the GEMM block generator against the joint
route, the block route's independence from joint assembly, one plan build
per segment, and segment resolution on the integer step grid."""

import numpy as np
import pytest

import nmembed.generators as generators
import nmembed.integrators as integrators
import nmembed.verify as verify
from nmembed.generators import (
    BlockState,
    JointState,
    assemble_joint_operators,
    BlockPlan,
    JointPlan,
    block_plan,
    gksl_rhs,
    herm_coords,
    joint_plan,
)
from nmembed.integrators import SimConfig, draw_innovations, em_run, simulate_trajectory, solve_qme
from nmembed.linalg import SubsystemDims
from nmembed.model import CompoundBath, EmbeddingModel, TimedOperator
from nmembed.verify import (
    blocks_from_joint,
    crosscheck_paths,
    ensemble_average,
    joint_from_blocks,
    project_blocks,
    random_block_state,
    random_hermitian,
    random_operator,
    standard_fixture,
)

from conftest import (
    KET_E,
    SIGMA_MINUS,
    SIGMA_X,
    aux_sign_fault,
    batch_adjoint,
    forbid_joint_operators,
)

BREAKPOINTS = (0.0, 0.1, 0.25)
BUILDERS = {name: getattr(generators, name)
            for name in ("block_plan", "joint_plan", "assemble_joint_operators")}


def _timed(rng, make, d):
    """Operator with a random subset of BREAKPOINTS as segment starts."""
    starts = [0.0] + [t for t in BREAKPOINTS[1:] if rng.random() < 0.5]
    return TimedOperator(tuple((t, make(rng, d)) for t in starts))


def _random_timed_model(rng, d_s, d_aux, n1, n2, probe):
    baths = tuple(CompoundBath(
        H_a=_timed(rng, random_hermitian, dl),
        H_sa=_timed(rng, random_hermitian, d_s * dl),
        L1=tuple(_timed(rng, random_operator, d_s * dl) for _ in range(k1)),
        L2=tuple(_timed(rng, random_operator, dl) for _ in range(k2)),
    ) for dl, k1, k2 in zip(d_aux, n1, n2))
    return EmbeddingModel(
        dims=SubsystemDims(d_s, d_aux),
        H_s=_timed(rng, random_hermitian, d_s),
        baths=baths,
        probe=_timed(rng, random_operator, d_s) if probe else None,
    )


def test_block_plan_matches_joint_route_on_random_models():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(60):
        d_s = int(rng.integers(1, 4))
        M = int(rng.integers(1, 4))
        d_aux = tuple(int(rng.integers(1, 4)) for _ in range(M))
        n1 = [int(rng.integers(0, 3)) for _ in range(M)]
        n2 = [int(rng.integers(0, 3)) for _ in range(M)]
        probe = trial % 2 == 0
        model = _random_timed_model(rng, d_s, d_aux, n1, n2, probe)
        bs = random_block_state(rng, model.dims)
        rho = joint_from_blocks(bs).rho
        for t in (0.0, 0.1, 0.2, 0.25, 0.3):
            H, Ls, _ = assemble_joint_operators(model, t)
            ref = project_blocks(gksl_rhs(H, Ls, rho), model.dims)
            got = BlockPlan.drift(block_plan(model, t), bs.blocks)
            worst = max(worst, float(np.max(np.abs(got - ref))))
            for quad in ("amplitude", "phase") if probe else ():
                Gb, mb = BlockPlan.measure(block_plan(model, t, quad), bs.blocks)
                Gj, mj = JointPlan.measure(joint_plan(model, t, quad), rho)
                worst = max(worst, float(np.max(np.abs(Gb - project_blocks(Gj, model.dims)))),
                            abs(mb - mj))
    assert worst <= 1e-12


@pytest.mark.parametrize("d_s, d_aux, n1, n2, probe", [
    (2, (2, 3), (1, 2), (1, 0), True),
    (3, (3, 2), (0, 1), (2, 1), False),
    (1, (2, 2), (1, 1), (1, 1), True),
])
def test_block_kernels_take_any_leading_axes(d_s, d_aux, n1, n2, probe):
    # the kernels flatten the leading axes into one; each state of a
    # (2, 3) batch must come out as it does on its own
    rng = np.random.default_rng(11)
    model = _random_timed_model(rng, d_s, d_aux, n1, n2, probe)
    plan = block_plan(model, 0.1, "amplitude" if probe else "none")
    states = [random_block_state(rng, model.dims).blocks for _ in range(6)]
    batch = np.stack(states).reshape((2, 3) + plan.state_shape)
    kernels = [generators.block_hs_term, generators.block_dissipator_term, BlockPlan.drift]
    kernels += [lambda p, T, l=l: generators.block_aux_term(p, l, T)
                for l in range(1, len(d_aux) + 1)]
    if probe:
        kernels += [lambda p, T: BlockPlan.measure(p, T)[0],
                    lambda p, T: BlockPlan.measure(p, T)[1]]
    for kernel in kernels:
        got = kernel(plan, batch)
        for n, T in enumerate(states):
            assert np.max(np.abs(got[n // 3, n % 3] - kernel(plan, T))) <= 1e-15


def test_kernels_keep_hermitian_batches_hermitian_bitwise():
    # No step repairs a state: a run stays Hermitian bitwise only because
    # the drift and G of a bitwise-Hermitian batch are Hermitian bitwise,
    # in both routes, whatever the model and quadrature.
    rng = np.random.default_rng(18)
    for _ in range(60):
        d_s = int(rng.integers(1, 4))
        M = int(rng.integers(1, 3))
        d_aux = tuple(int(rng.integers(1, 4)) for _ in range(M))
        n1 = [int(rng.integers(0, 3)) for _ in range(M)]
        n2 = [int(rng.integers(0, 3)) for _ in range(M)]
        model = _random_timed_model(rng, d_s, d_aux, n1, n2, probe=True)
        for quadrature in ("none", "amplitude", "phase"):
            for build in (joint_plan, block_plan):
                plan = build(model, 0.1, quadrature)
                c = herm_coords(plan.state_shape)
                X = c.layout(rng.standard_normal((4, c.size)))
                assert np.array_equal(X, batch_adjoint(X))
                terms = [plan.drift(X)] + ([] if plan.meas is None else [plan.measure(X)[0]])
                for Y in terms:
                    assert np.array_equal(Y, batch_adjoint(Y))


def test_aux_sign_fault_is_detected():
    model, _ = standard_fixture()
    bs = random_block_state(np.random.default_rng(2), model.dims)
    H, Ls, _ = assemble_joint_operators(model, 0.0)
    ref = project_blocks(gksl_rhs(H, Ls, joint_from_blocks(bs).rho), model.dims)
    good = BlockPlan.drift(block_plan(model, 0.0), bs.blocks)
    with aux_sign_fault() as faulty_plan:
        bad = BlockPlan.drift(faulty_plan(model, 0.0), bs.blocks)
    assert np.max(np.abs(good - ref)) <= 1e-12
    assert np.max(np.abs(bad - ref)) > 1e-3


def _switching_model(rng, t_switch):
    """qubit (x) (2, 3) with the principal Hamiltonian, the probe and one
    interconnection coupling changing at t_switch."""
    base = verify.random_model(rng, 2, (2, 3), probe=SIGMA_MINUS, scale=0.5)

    def two(a, b):
        return TimedOperator(((0.0, a), (t_switch, b)))

    bath = base.baths[0]
    L1 = two(bath.L1[0].value_at(0.0), random_operator(rng, 4, 0.5))
    return EmbeddingModel(
        dims=base.dims,
        H_s=two(random_hermitian(rng, 2, 0.5), random_hermitian(rng, 2, 0.5)),
        baths=(CompoundBath(H_a=bath.H_a, H_sa=bath.H_sa, L1=(L1,), L2=bath.L2),
               base.baths[1]),
        probe=two(SIGMA_MINUS, 0.5 * SIGMA_MINUS),
    )


def _maximally_mixed(dims):
    return BlockState.from_product(dims, np.eye(dims.principal) / dims.principal,
                                   [np.eye(d) / d for d in dims.aux])


def test_block_route_never_forms_joint_operators(monkeypatch):
    model = _switching_model(np.random.default_rng(4), 0.05)
    init = _maximally_mixed(model.dims)
    forbid_joint_operators(monkeypatch)
    with pytest.raises(AssertionError):
        joint_plan(model, 0.0)
    cfg = SimConfig(dt=1e-3, t_end=0.1, measurement="amplitude", seed=3)
    rec = simulate_trajectory(model, init, cfg)
    assert len(rec.snapshots) == 101
    series = solve_qme(model, init, SimConfig(dt=1e-3, t_end=0.1, scheme="rk4",
                                              measurement="none", snapshot_stride=50))
    assert len(series) == 3


def test_block_plan_parts_follow_the_model(monkeypatch):
    # the principal's part first, then one per bath, each from the model's
    # own operators in (auxiliary, principal) order
    model = _random_timed_model(np.random.default_rng(12), 2, (2, 3), (2, 1), (1, 2), True)
    forbid_joint_operators(monkeypatch)
    t = 0.25
    plan = block_plan(model, t, "amplitude")
    assert len(plan.parts) == 1 + model.dims.n_baths
    principal = plan.parts[0]
    L0 = model.probe.value_at(t)
    assert np.array_equal(principal.KR, -1j * model.H_s.value_at(t))
    assert len(principal.couplings) == 1
    assert np.array_equal(principal.couplings[0][0], L0)
    assert np.array_equal(principal.couplings[0][1], 0.5 * L0.conj().T)
    eye, aux_major = np.eye(2, dtype=complex), generators._aux_major
    for l, (dl, bath) in enumerate(zip(model.dims.aux, model.baths), start=1):
        part = plan.parts[l]
        R = np.kron(bath.H_a.value_at(t), eye) + aux_major(bath.H_sa.value_at(t), 2, dl)
        assert np.array_equal(part.KR, -1j * R)
        ops = ([aux_major(op.value_at(t), 2, dl) for op in bath.L1]
               + [np.kron(op.value_at(t), eye) for op in bath.L2])
        assert len(part.couplings) == len(ops)
        for (E, _), op in zip(part.couplings, ops):
            assert np.array_equal(E, op)
    bare = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=model.H_s)
    assert len(block_plan(bare, t).parts) == 1


def _count_builds(monkeypatch):
    counts = dict.fromkeys(BUILDERS, 0)

    def counting(name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return BUILDERS[name](*args, **kwargs)
        return wrapper

    monkeypatch.setattr(integrators, "block_plan", counting("block_plan"))
    monkeypatch.setattr(integrators, "joint_plan", counting("joint_plan"))
    monkeypatch.setattr(generators, "assemble_joint_operators",
                        counting("assemble_joint_operators"))
    return counts


def test_each_segment_builds_its_plan_once(monkeypatch):
    rng = np.random.default_rng(5)
    base = _switching_model(rng, 0.03)
    # a third segment from the second bath's H_a
    bath2 = base.baths[1]
    h_a = TimedOperator(((0.0, bath2.H_a.value_at(0.0)),
                         (0.07, random_hermitian(rng, 3, 0.5))))
    model = EmbeddingModel(dims=base.dims, H_s=base.H_s, probe=base.probe,
                           baths=(base.baths[0], CompoundBath(H_a=h_a, H_sa=bath2.H_sa,
                                                              L1=bath2.L1, L2=bath2.L2)))
    K = 3
    init = _maximally_mixed(model.dims)
    em = SimConfig(dt=1e-3, t_end=0.1, measurement="amplitude", seed=1)
    rk = SimConfig(dt=1e-3, t_end=0.1, scheme="rk4", measurement="none")

    counts = _count_builds(monkeypatch)
    simulate_trajectory(model, init, em)
    assert counts == {"block_plan": K, "joint_plan": 0, "assemble_joint_operators": 0}

    counts = _count_builds(monkeypatch)
    simulate_trajectory(model, joint_from_blocks(init), em)
    assert counts == {"block_plan": 0, "joint_plan": K, "assemble_joint_operators": K}

    counts = _count_builds(monkeypatch)
    crosscheck_paths(model, init, em)
    assert counts == {"block_plan": K, "joint_plan": K, "assemble_joint_operators": K}

    counts = _count_builds(monkeypatch)
    solve_qme(model, init, rk)
    assert counts == {"block_plan": K, "joint_plan": 0, "assemble_joint_operators": 0}

    counts = _count_builds(monkeypatch)
    ensemble_average(model, init, em, 2)
    assert counts == {"block_plan": K, "joint_plan": K, "assemble_joint_operators": K}

    counts = _count_builds(monkeypatch)
    ensemble_average(model, init, em, 2, representation="blocks")
    assert counts == {"block_plan": 2 * K, "joint_plan": 0, "assemble_joint_operators": 0}


def test_crosscheck_across_a_breakpoint():
    model = _switching_model(np.random.default_rng(6), 0.165)
    init = _maximally_mixed(model.dims)
    cfg = SimConfig(dt=0.015, t_end=0.3, measurement="amplitude", seed=9)
    assert crosscheck_paths(model, init, cfg) <= 1e-10


def _kicked_qubit(t_switch):
    """Zero generator until t_switch, then a strong sigma_x drive."""
    H = TimedOperator(((0.0, np.zeros((2, 2))), (t_switch, 10.0 * SIGMA_X)))
    return EmbeddingModel(dims=SubsystemDims(2, ()), H_s=H)


def test_step_resolves_segment_by_step_index():
    # 11 * 0.015 == 0.16499999999999998 < 0.165: a float lookup would give
    # step 11 the first segment
    dt, init = 0.015, BlockState(SubsystemDims(2, ()), KET_E.reshape(1, 1, 2, 2))
    cfg = SimConfig(dt=dt, t_end=0.3, measurement="none")
    for rep, start in (("blocks", init), ("joint", joint_from_blocks(init))):
        rec = simulate_trajectory(_kicked_qubit(0.165), start, cfg)
        before, after = rec.snapshots[11], rec.snapshots[12]
        mat = (lambda s: s.blocks[0, 0]) if rep == "blocks" else (lambda s: s.rho)
        assert np.array_equal(mat(before), KET_E)
        assert np.max(np.abs(mat(after) - KET_E)) > 1e-3


def test_rk4_stages_stay_in_the_step_segment():
    init = BlockState(SubsystemDims(2, ()), KET_E.reshape(1, 1, 2, 2))
    cfg = SimConfig(dt=0.01, t_end=0.1, scheme="rk4", measurement="none")
    series = solve_qme(_kicked_qubit(0.05), init, cfg)
    # step 4 ends at the breakpoint: its last stage must not see the drive
    assert np.array_equal(series[5][1].blocks, init.blocks)
    assert np.max(np.abs(series[6][1].blocks - init.blocks)) > 1e-3


def test_breakpoints_landing_on_one_step_merge():
    # 11 * 0.015 and 0.165 are distinct floats on the same step
    zero = np.zeros((2, 2))
    model = EmbeddingModel(dims=SubsystemDims(2, ()),
                           H_s=TimedOperator(((0.0, zero), (0.165, SIGMA_X))),
                           probe=TimedOperator(((0.0, zero), (11 * 0.015, SIGMA_MINUS))))
    assert model.segment_starts(0.015) == [(0, 0.0), (11, 0.165)]
    plan = block_plan(model, 0.165)
    assert (np.array_equal(plan.parts[0].KR, -1j * SIGMA_X)
            and np.array_equal(plan.parts[0].couplings[0][0], SIGMA_MINUS))


def test_off_grid_breakpoint_rejected():
    model = _kicked_qubit(0.1651)
    init = BlockState(SubsystemDims(2, ()), KET_E.reshape(1, 1, 2, 2))
    em = SimConfig(dt=0.015, t_end=0.3, measurement="none")
    with pytest.raises(ValueError, match="not on the dt"):
        simulate_trajectory(model, init, em)
    with pytest.raises(ValueError, match="not on the dt"):
        crosscheck_paths(model, init, em)
    with pytest.raises(ValueError, match="not on the dt"):
        solve_qme(model, init, SimConfig(dt=0.015, t_end=0.3, scheme="rk4",
                                         measurement="none"))
    monitored = EmbeddingModel(dims=model.dims, H_s=model.H_s, probe=SIGMA_MINUS)
    with pytest.raises(ValueError, match="not on the dt"):
        ensemble_average(monitored, init, SimConfig(dt=0.015, t_end=0.3, seed=1), 2,
                         n_checkpoints=4)


@pytest.mark.parametrize("model", [standard_fixture()[0],
                                   verify.random_model(np.random.default_rng(7), 2, (2,),
                                                       probe=SIGMA_MINUS, scale=0.5)],
                         ids=["D12-direct", "D4-superoperator"])
def test_joint_batch_steps_the_joint_route_unmonitored(monkeypatch, model):
    js = joint_from_blocks(_maximally_mixed(model.dims))
    cfg = SimConfig(dt=1e-3, t_end=0.01, measurement="none", seed=4)
    counts = _count_builds(monkeypatch)
    *_, (X, _) = em_run(model, js.rho[None], cfg, draw_innovations(cfg, 1))
    assert np.array_equal(X[0], simulate_trajectory(model, js, cfg).snapshots[-1].rho)
    assert counts == {"block_plan": 0, "joint_plan": 2, "assemble_joint_operators": 2}


LAYOUTS = r"neither of the model's layouts: joint \(N, 12, 12\) or blocks \(N, 6, 6, 2, 2\)"


@pytest.mark.parametrize("state", [
    JointState(SubsystemDims(13), np.eye(13) / 13),
    BlockState.from_product(SubsystemDims(4, (3,)), np.eye(4) / 4, [np.eye(3) / 3]),
], ids=["joint-13x13", "blocks-3x3x4x4"])
def test_batch_in_neither_layout_rejected_before_any_plan(monkeypatch, state):
    model, _ = standard_fixture()  # principal 2, aux (2, 3)
    em = SimConfig(dt=1e-3, t_end=0.01, seed=1)
    rk = SimConfig(dt=1e-3, t_end=0.01, scheme="rk4", measurement="none")
    joint = isinstance(state, JointState)
    X = np.stack([state.rho if joint else state.blocks] * 2)
    counts = _count_builds(monkeypatch)
    with pytest.raises(ValueError, match=LAYOUTS):
        em_run(model, X, em, draw_innovations(em, 2))
    with pytest.raises(ValueError, match=LAYOUTS):
        simulate_trajectory(model, state, em)
    with pytest.raises(ValueError, match=LAYOUTS):
        solve_qme(model, blocks_from_joint(state) if joint else state, rk)
    assert counts == dict.fromkeys(BUILDERS, 0)
