from dataclasses import replace

import numpy as np
import pytest

from nmembed import integrators
from nmembed.generators import BlockState, block_plan, gksl_rhs, joint_plan
from nmembed.integrators import (
    ConfigError,
    SimConfig,
    StepSizeError,
    draw_innovations,
    em_run,
    em_step_blocks,
    em_step_joint,
    noise_stream,
    rk4_combine,
    rk4_step_qme,
    simulate_trajectory,
    solve_qme,
    step_plans,
)
from nmembed.linalg import SubsystemDims, fro_dist
from nmembed.model import EmbeddingModel, cascade_embedding
from nmembed.verify import (
    crosscheck_paths,
    joint_from_blocks,
    random_block_state,
    random_model,
    standard_fixture,
)

from conftest import KET_E, KET_G, SIGMA_MINUS, SIGMA_Z, batch_adjoint, textbook_gksl


def probe_only_model(probe=SIGMA_MINUS):
    return EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)), probe=probe)


def single_block(rho, dims=None):
    dims = dims or SubsystemDims(2, ())
    return BlockState(dims, np.asarray(rho, dtype=complex).reshape(1, 1, 2, 2))


class TestSimConfig:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.3, t_end=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=-0.1, t_end=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=2.0, t_end=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, t_end=1.0, snapshot_stride=0)

    def test_n_steps(self):
        assert SimConfig(dt=1e-3, t_end=1.0).n_steps == 1000


def batch(*mats):
    """Batch of joint states or block arrays, one row per argument."""
    return np.stack([np.asarray(m, dtype=complex) for m in mats])


class TestEmStepJoint:
    def test_zero_generator(self):
        model = probe_only_model(np.zeros((2, 2)))
        out, mval = em_step_joint(joint_plan(model, 0.0, "amplitude"), batch(KET_E), 1e-3,
                                  np.array([0.05]))
        assert fro_dist(out[0], KET_E) == 0.0
        assert mval.shape == (1,) and mval[0] == 0.0

    def test_unmonitored_is_deterministic_euler(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=SIGMA_Z)
        rho = np.full((2, 2), 0.5, dtype=complex)
        out, mval = em_step_joint(joint_plan(model, 0.0), batch(rho), 1e-3, np.array([123.0]))
        assert mval is None
        expected = rho + 1e-3 * gksl_rhs(SIGMA_Z, [], rho)
        expected = (expected + expected.conj().T) / 2
        expected /= np.trace(expected).real
        assert fro_dist(out[0], expected) == 0.0

    def test_qubit_decay_one_step(self):
        model = probe_only_model()
        out, _ = em_step_joint(joint_plan(model, 0.0, "amplitude"), batch(KET_E), 1e-3,
                               np.array([0.0]))
        assert fro_dist(out[0], np.diag([1 - 1e-3, 1e-3])) < 1e-9

    def test_step_size_error_guard(self):
        # the EM update is traceless, so the guard fires only when the
        # pre-step trace is already degenerate
        model = probe_only_model()
        with pytest.raises(StepSizeError):
            em_step_joint(joint_plan(model, 0.0, "amplitude"), batch(np.zeros((2, 2))), 1e-3,
                          np.array([0.1]))

    def test_batch_rows_step_independently(self, rng):
        model = random_model(rng, 2, (2, 3), probe=SIGMA_MINUS, scale=0.4)
        plan = joint_plan(model, 0.0, "amplitude")
        rhos = [joint_from_blocks(random_block_state(rng, model.dims)).rho for _ in range(3)]
        dW = rng.standard_normal(3) * np.sqrt(1e-3)
        out, mval = em_step_joint(plan, batch(*rhos), 1e-3, dW)
        for n, rho in enumerate(rhos):
            one, m = em_step_joint(plan, batch(rho), 1e-3, dW[n:n + 1])
            assert np.array_equal(out[n], one[0]) and mval[n] == m[0]


class TestEmStepBlocks:
    def test_trivial_aux_matches_joint(self, rng):
        model = probe_only_model()
        rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]], dtype=complex)
        bj, mj = em_step_joint(joint_plan(model, 0.0, "amplitude"), batch(rho), 1e-3,
                               np.array([0.02]))
        bb, mb = em_step_blocks(block_plan(model, 0.0, "amplitude"),
                                batch(single_block(rho).blocks), 1e-3, np.array([0.02]))
        assert np.array_equal(bb[0, 0, 0], bj[0])
        assert np.array_equal(mj, mb)

    def test_zero_model_identity(self, rng):
        model = EmbeddingModel(dims=SubsystemDims(2, (2,)),
                               H_s=np.zeros((2, 2)),
                               baths=(random_model(rng, 2, (2,), m1=[0], m2=[0],
                                                   scale=0.0).baths[0],),
                               probe=np.zeros((2, 2)))
        bs = random_block_state(rng, model.dims)
        out, mval = em_step_blocks(block_plan(model, 0.0, "amplitude"), batch(bs.blocks),
                                   1e-3, np.array([0.07]))
        assert np.max(np.abs(out[0] - bs.blocks)) < 1e-15
        assert mval[0] == 0.0

    def test_shared_path_matches_joint(self, rng):
        model = random_model(rng, 2, (2, 3), probe=SIGMA_MINUS, scale=0.4)
        bs = random_block_state(rng, model.dims)
        J, B = batch(joint_from_blocks(bs).rho), batch(bs.blocks)
        jp, bp = joint_plan(model, 0.0, "amplitude"), block_plan(model, 0.0, "amplitude")
        for dw in rng.standard_normal(20) * np.sqrt(1e-3):
            J, _ = em_step_joint(jp, J, 1e-3, np.array([dw]))
            B, _ = em_step_blocks(bp, B, 1e-3, np.array([dw]))
            assert fro_dist(joint_from_blocks(BlockState(model.dims, B[0])).rho, J[0]) < 1e-12

    def test_batch_rows_step_independently(self, rng):
        model = random_model(rng, 2, (2, 3), probe=SIGMA_MINUS, scale=0.4)
        plan = block_plan(model, 0.0, "amplitude")
        blocks = [random_block_state(rng, model.dims).blocks for _ in range(3)]
        dW = rng.standard_normal(3) * np.sqrt(1e-3)
        out, mval = em_step_blocks(plan, batch(*blocks), 1e-3, dW)
        for n, b in enumerate(blocks):
            one, m = em_step_blocks(plan, batch(b), 1e-3, dW[n:n + 1])
            assert np.max(np.abs(out[n] - one[0])) < 1e-15 and abs(mval[n] - m[0]) < 1e-15


class TestEmRun:
    @pytest.mark.parametrize("representation", ["joint", "blocks"])
    def test_degenerate_trajectory_named(self, representation):
        model = probe_only_model()
        cfg = SimConfig(dt=1e-1, t_end=1.0, seed=1)
        good = np.asarray(KET_E, dtype=complex)
        rows = [good, np.zeros((2, 2)), good]
        if representation == "blocks":
            rows = [single_block(r).blocks for r in rows]
        dW = draw_innovations(cfg, 3, first=5)
        steps = em_run(model, batch(*rows), cfg, dW, first=5)
        with pytest.raises(StepSizeError, match=r"trajectory 6, step 0 \(t=0\)"):
            list(steps)

    @pytest.mark.parametrize("representation", ["joint", "blocks"])
    def test_non_finite_trajectory_named(self, representation):
        # NaN <= 0 is False: the trace check must catch it by name
        model, init = standard_fixture()
        start = joint_from_blocks(init).rho if representation == "joint" else init.blocks
        X = batch(start, start)
        X[(1,) + (0,) * (X.ndim - 1)] = np.nan
        cfg = SimConfig(dt=1e-3, t_end=0.01, seed=1)
        steps = em_run(model, X, cfg, draw_innovations(cfg, 2))
        with pytest.raises(StepSizeError,
                           match=r"^trajectory 1, step 0 \(t=0\): non-finite trace nan"):
            list(steps)

    def test_innovations_rows_are_the_trajectory_streams(self):
        cfg = SimConfig(dt=1e-3, t_end=0.05, seed=9)
        dW = draw_innovations(cfg, 3, first=2)
        for row in range(3):
            expected = noise_stream(9, 2 + row).standard_normal(50) * np.sqrt(1e-3)
            assert np.array_equal(dW[row], expected)
        unmonitored = SimConfig(dt=1e-3, t_end=0.05, measurement="none")
        assert not draw_innovations(unmonitored, 2).any()


def test_monitored_run_without_probe_located_before_any_plan(monkeypatch, rng):
    built = []
    for name in ("joint_plan", "block_plan"):
        build = getattr(integrators, name)
        monkeypatch.setattr(integrators, name,
                            lambda *args, build=build: built.append(1) or build(*args))
    model = random_model(rng, 2, (2,))  # no probe
    init = random_block_state(rng, model.dims)
    cfg = SimConfig(dt=1e-2, t_end=0.1, measurement="phase")
    dW = draw_innovations(cfg, 1)
    runs = {
        "simulate_trajectory, blocks": lambda: simulate_trajectory(model, init, cfg),
        "simulate_trajectory, joint": lambda: simulate_trajectory(
            model, joint_from_blocks(init), cfg),
        "em_run": lambda: em_run(model, init.blocks[None], cfg, dW),
        "crosscheck_paths": lambda: crosscheck_paths(model, init, cfg),
    }
    for name, run in runs.items():
        with pytest.raises(ConfigError) as exc_info:
            run()
        assert exc_info.value.errors == [("sim.measurement", "a run monitored by 'phase' "
                                          "needs a probe: the model has none")], name
    assert built == []
    simulate_trajectory(model, init, replace(cfg, measurement="none"))
    assert built == [1]


def _with_defect(rng, X):
    """``(X, Xd)``: the bitwise-Hermitian part of X, and it plus a 1e-10
    anti-Hermitian part."""
    X = (X + batch_adjoint(X)) / 2
    Y = rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape)
    return X, X + 1e-10 * (Y - batch_adjoint(Y)) / 2


@pytest.mark.parametrize("aux", [(2,), (2, 3), (3, 3), (1, 1)],
                         ids=["D4-superoperator", "D12-direct", "D18-direct", "collapsed"])
def test_runs_step_the_hermitian_part_of_their_start(aux):
    # A run makes its start Hermitian once and no step repairs a state, so
    # a start with an anti-Hermitian defect steps bitwise like its
    # Hermitian part, on the coordinate path and on the layout, in both
    # routes, and every state it reaches is Hermitian bitwise.
    rng = np.random.default_rng(18)
    model = random_model(rng, 2, aux, probe=SIGMA_MINUS)
    states = [random_block_state(rng, model.dims) for _ in range(3)]
    starts = [_with_defect(rng, np.stack([bs.blocks for bs in states])),
              _with_defect(rng, np.stack([joint_from_blocks(bs).rho for bs in states]))]
    cfg = SimConfig(dt=1e-3, t_end=0.02, seed=4)
    for representation in ("joint", "blocks"):
        assert step_plans(model, cfg.dt, cfg.n_steps, representation)[1] == (aux == (2,))
    dW = draw_innovations(cfg, 3)
    for X, Xd in starts:
        assert np.array_equal(X, batch_adjoint(X))
        assert not np.array_equal(Xd, batch_adjoint(Xd))
        for (S, m), (Sd, md) in zip(em_run(model, X, cfg, dW), em_run(model, Xd, cfg, dW),
                                    strict=True):
            assert np.array_equal(Sd, S) and np.array_equal(md, m)
            assert np.array_equal(S, batch_adjoint(S))
    # the master equation, from the blocks
    X, Xd = starts[0]
    rk = SimConfig(dt=1e-3, t_end=0.02, scheme="rk4", measurement="none")
    ref = solve_qme(model, BlockState(model.dims, X[0]), rk)
    got = solve_qme(model, BlockState(model.dims, Xd[0]), rk)
    for (_, bs, red), (_, bsd, redd) in zip(ref[1:], got[1:], strict=True):
        assert np.array_equal(bsd.blocks, bs.blocks) and np.array_equal(redd, red)
        assert np.array_equal(bs.blocks, batch_adjoint(bs.blocks[None])[0])


class TestRk4StepQme:
    def test_zero_generator_identity(self, rng):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)))
        bs = single_block(np.eye(2, dtype=complex) / 2)
        out = rk4_step_qme(block_plan(model, 0.0), bs, 1e-3)
        assert np.array_equal(out.blocks, bs.blocks)

    def test_matches_matrix_exponential(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=SIGMA_Z)
        rho = np.full((2, 2), 0.5, dtype=complex)
        out = rk4_step_qme(block_plan(model, 0.0), single_block(rho), 1e-3)
        w, v = np.linalg.eigh(SIGMA_Z)
        u = (v * np.exp(-1j * w * 1e-3)) @ v.conj().T
        assert fro_dist(out.blocks[0, 0], u @ rho @ u.conj().T) < 1e-15

    def test_exponential_decay(self):
        model = probe_only_model()
        cfg = SimConfig(dt=1e-3, t_end=1.0, scheme="rk4", measurement="none",
                        snapshot_stride=100)
        series = solve_qme(model, single_block(KET_E), cfg)
        for t, _, red in series:
            assert abs(red[0, 0].real - np.exp(-t)) < 1e-10

    def test_trace_preserved_per_step(self, rng):
        model = random_model(rng, 2, (2, 2), probe=SIGMA_MINUS)
        bs = random_block_state(rng, model.dims)
        out = rk4_step_qme(block_plan(model, 0.0), bs, 1e-3)
        assert abs(out.total_trace() - bs.total_trace()) < 1e-12


class TestSimulateTrajectory:
    def test_unmonitored_deterministic(self):
        model = probe_only_model()
        cfg = SimConfig(dt=1e-2, t_end=0.1, measurement="none", snapshot_stride=5)
        rec = simulate_trajectory(model, single_block(KET_E), cfg)
        assert rec.dI.size == 0 and rec.dY.size == 0
        assert len(rec.snapshots) == 3  # t = 0, 0.05, 0.1

    def test_record_identity_exact(self):
        model = probe_only_model()
        cfg = SimConfig(dt=1e-3, t_end=0.1, seed=11)
        rec = simulate_trajectory(model, single_block(KET_E), cfg)
        assert np.all(rec.dY == rec.mvals * cfg.dt + rec.dI)

    def test_vacuum_record_is_pure_noise(self):
        model = probe_only_model(np.zeros((2, 2)))
        cfg = SimConfig(dt=1e-3, t_end=0.1, seed=5)
        rec = simulate_trajectory(model, single_block(KET_E), cfg)
        assert np.all(rec.mvals == 0.0)
        assert np.array_equal(rec.dY, rec.dI)
        expected = noise_stream(5, 0).standard_normal(100) * np.sqrt(1e-3)
        assert np.array_equal(rec.dI, expected)

    def test_bit_reproducible(self, rng):
        model = random_model(rng, 2, (2,), probe=SIGMA_MINUS, scale=0.3)
        init = random_block_state(rng, model.dims)
        cfg = SimConfig(dt=1e-3, t_end=0.2, seed=77, snapshot_stride=50)
        rec1 = simulate_trajectory(model, init, cfg)
        rec2 = simulate_trajectory(model, init, cfg)
        assert np.array_equal(rec1.dY, rec2.dY)
        for s1, s2 in zip(rec1.snapshots, rec2.snapshots):
            assert np.array_equal(s1.blocks, s2.blocks)

    def test_representations_share_noise_path(self, rng):
        model = random_model(rng, 2, (2,), probe=SIGMA_MINUS, scale=0.3)
        init = random_block_state(rng, model.dims)
        cfg = SimConfig(dt=1e-3, t_end=0.2, seed=3, snapshot_stride=20)
        rb = simulate_trajectory(model, init, cfg)
        rj = simulate_trajectory(model, joint_from_blocks(init), cfg)
        assert np.array_equal(rb.dI, rj.dI)
        for sb, sj in zip(rb.snapshots, rj.snapshots):
            assert fro_dist(joint_from_blocks(sb).rho, sj.rho) < 1e-9

    def test_step_failure_reports_index(self):
        model = probe_only_model()
        cfg = SimConfig(dt=1e-1, t_end=1.0, seed=1)
        zero = single_block(np.zeros((2, 2)))
        with pytest.raises(StepSizeError, match="step 0"):
            simulate_trajectory(model, zero, cfg)


class TestSolveQme:
    def test_zero_horizon_returns_initial_state_only(self, rng):
        model = random_model(rng, 2, (2,))
        init = random_block_state(rng, model.dims)
        cfg = SimConfig(dt=1e-3, t_end=0.0, scheme="rk4", measurement="none")
        series = solve_qme(model, init, cfg)
        assert len(series) == 1
        t0, bs0, red0 = series[0]
        assert t0 == 0.0
        assert np.array_equal(bs0.blocks, init.blocks)
        assert np.array_equal(red0, init.reduced())

    def test_trivial_aux_equals_direct_gksl_bitwise(self, rng):
        from nmembed.generators import collapsed_principal_ops

        model = random_model(rng, 2, (1, 1), probe=SIGMA_MINUS)
        rho0 = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]], dtype=complex)
        init = BlockState(model.dims, rho0.reshape(1, 1, 2, 2).copy())
        cfg = SimConfig(dt=1e-3, t_end=0.05, scheme="rk4", measurement="none",
                        snapshot_stride=1)
        series = solve_qme(model, init, cfg)
        h, ls = collapsed_principal_ops(model, 0.0)
        y = rho0.copy()
        refs = [y]
        for _ in range(cfg.n_steps):
            k1 = gksl_rhs(h, ls, y)
            k2 = gksl_rhs(h, ls, y + 0.5 * cfg.dt * k1)
            k3 = gksl_rhs(h, ls, y + 0.5 * cfg.dt * k2)
            k4 = gksl_rhs(h, ls, y + cfg.dt * k3)
            y = rk4_combine(y, cfg.dt, k1, k2, k3, k4)
            refs.append(y)
        for (t, bs, red), ref in zip(series, refs):
            assert np.array_equal(bs.blocks[0, 0], ref)

    def test_memory_effects_against_joint_rk4(self, rng):
        # qubit (x) qubit direct-coupling model: exchange plus auxiliary decay
        from nmembed.generators import assemble_joint_operators
        from nmembed.model import direct_embedding

        sp = SIGMA_MINUS.conj().T
        h_sa = 4.0 * (np.kron(sp, SIGMA_MINUS) + np.kron(SIGMA_MINUS, sp))
        model = direct_embedding(np.zeros((2, 2)), np.zeros((2, 2)), h_sa,
                                 np.sqrt(2.0) * SIGMA_MINUS)
        init = BlockState.from_product(model.dims, KET_E, (KET_G,))
        cfg = SimConfig(dt=1e-3, t_end=1.0, scheme="rk4", measurement="none",
                        snapshot_stride=100)
        series = solve_qme(model, init, cfg)
        # independent route: RK4 on the joint GKSL equation + partial trace
        h, ls, _ = assemble_joint_operators(model, 0.0)
        rho = joint_from_blocks(init).rho
        refs = {0: rho}
        for i in range(cfg.n_steps):
            k1 = gksl_rhs(h, ls, rho)
            k2 = gksl_rhs(h, ls, rho + 0.5 * cfg.dt * k1)
            k3 = gksl_rhs(h, ls, rho + 0.5 * cfg.dt * k2)
            k4 = gksl_rhs(h, ls, rho + cfg.dt * k3)
            rho = rk4_combine(rho, cfg.dt, k1, k2, k3, k4)
            refs[i + 1] = rho
        pops = []
        for t, _, red in series:
            ref = refs[round(t / cfg.dt)]
            ref_red = np.einsum("sata->st", ref.reshape(2, 2, 2, 2))
            assert fro_dist(red, ref_red) < 1e-10
            pops.append(red[0, 0].real)
        # memory effects: population is non-monotone (not a plain exponential)
        diffs = np.diff(pops)
        assert np.any(diffs > 1e-6) and np.any(diffs < -1e-6)

    @pytest.mark.parametrize("aux", [(1, 1), (3, 3)])
    def test_anti_hermitian_start_defect_does_not_grow(self, rng, aux):
        # The kernels assume Hermitian states: on an anti-Hermitian part a
        # their drift is sum_E E a E†, which under dephasing at rate gamma
        # grows like exp(gamma t).  Both models step the layout directly (a
        # collapsed model, and D = 18 above the superoperator range), so a
        # 1e-10 defect in the start state must stay at rounding level over
        # gamma * t_end = 30 against the textbook GKSL RK4 solution.
        from nmembed.generators import assemble_joint_operators
        from nmembed.integrators import step_plans
        from nmembed.model import CompoundBath
        from nmembed.verify import project_blocks, random_hermitian

        gamma = 30.0
        baths = tuple(CompoundBath(
            H_a=random_hermitian(rng, dl, 0.5),
            H_sa=random_hermitian(rng, 2 * dl, 0.5),
            L1=(np.sqrt(gamma) * np.kron(SIGMA_Z, np.eye(dl)),),
            L2=(np.sqrt(gamma) * np.diag(np.linspace(1.0, -1.0, dl) if dl > 1 else [1.0]),),
        ) for dl in aux)
        model = EmbeddingModel(SubsystemDims(2, aux), random_hermitian(rng, 2), baths)
        cfg = SimConfig(dt=1e-2, t_end=1.0, scheme="rk4", measurement="none",
                        snapshot_stride=25)
        assert not step_plans(model, cfg.dt, cfg.n_steps, "blocks")[1]
        rho = joint_from_blocks(random_block_state(rng, model.dims)).rho
        rho = (rho + rho.conj().T) / 2
        x = rng.standard_normal(rho.shape) + 1j * rng.standard_normal(rho.shape)
        rho = rho + 1e-10 * (x - x.conj().T) / 2
        series = solve_qme(model, BlockState(model.dims, project_blocks(rho, model.dims)), cfg)

        h, ls, _ = assemble_joint_operators(model, 0.0)
        refs = {0: rho}
        for i in range(cfg.n_steps):
            k1 = textbook_gksl(h, ls, rho)
            k2 = textbook_gksl(h, ls, rho + 0.5 * cfg.dt * k1)
            k3 = textbook_gksl(h, ls, rho + 0.5 * cfg.dt * k2)
            k4 = textbook_gksl(h, ls, rho + cfg.dt * k3)
            rho = rk4_combine(rho, cfg.dt, k1, k2, k3, k4)
            refs[i + 1] = rho
        for t, bs, _ in series[1:]:
            ref = refs[round(t / cfg.dt)]
            assert bs.pairing_defect() == 0.0
            assert np.max(np.abs(bs.blocks - project_blocks((ref + ref.conj().T) / 2,
                                                            model.dims))) < 1e-10
