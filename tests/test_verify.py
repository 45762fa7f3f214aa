import numpy as np
import pytest

from nmembed import integrators
from nmembed.generators import BlockState, JointState
from nmembed.integrators import ConfigError, SimConfig, StepSizeError, simulate_trajectory
from nmembed.linalg import (HERM_ATOL, TRACE_ATOL, SubsystemDims, density_problem, fro_dist,
                            partial_trace)
from nmembed.model import TimedOperator, cascade_embedding, direct_embedding
from nmembed.verify import (
    blocks_from_joint,
    closed_system_oracle,
    crosscheck_paths,
    ensemble_average,
    joint_from_blocks,
    oracle_gaps,
    pauli_observables,
    random_block_state,
    random_model,
    standard_fixture,
)

from conftest import KET_E, KET_G, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z, aux_sign_fault


class TestProjectionMaps:
    def test_round_trip_is_exact(self, rng):
        for dims in [SubsystemDims(2, (2,)), SubsystemDims(3, (2, 2)), SubsystemDims(2, (1, 3))]:
            bs = random_block_state(rng, dims)
            back = blocks_from_joint(joint_from_blocks(bs))
            assert np.array_equal(back.blocks, bs.blocks)
            js = joint_from_blocks(bs)
            assert np.array_equal(joint_from_blocks(blocks_from_joint(js)).rho, js.rho)

    def test_product_state_blocks(self):
        dims = SubsystemDims(2, (2,))
        rho_a = np.diag([0.25, 0.75]).astype(complex)
        js = JointState(dims, np.kron(KET_E, rho_a))
        bs = blocks_from_joint(js)
        # block (j, k) = <j| rho_aux |k> * rho_principal
        assert fro_dist(bs.block((0,), (0,)), 0.25 * KET_E) == 0.0
        assert fro_dist(bs.block((1,), (1,)), 0.75 * KET_E) == 0.0
        assert fro_dist(bs.block((0,), (1,)), np.zeros((2, 2))) == 0.0

    def test_reduced_matches_partial_trace(self, rng):
        dims = SubsystemDims(2, (2, 3))
        for _ in range(10):
            bs = random_block_state(rng, dims)
            expected = partial_trace(joint_from_blocks(bs).rho, dims)
            assert fro_dist(bs.reduced(), expected) < 1e-12

    def test_trace_consistency(self, rng):
        dims = SubsystemDims(3, (2,))
        bs = random_block_state(rng, dims)
        assert abs(bs.total_trace() - 1.0) < 1e-14
        assert abs(np.trace(joint_from_blocks(bs).rho).real - 1.0) < 1e-14


class TestBlockStateInvariants:
    # each defect a broken block state can carry is caught by the check that
    # test_block_state_is_valid and acceptance 6 apply to it
    def test_pairing_defect_reported(self):
        dims = SubsystemDims(2, (2,))
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 0] = KET_E / 2
        blocks[1, 1] = KET_G / 2
        blocks[0, 1] = 0.3 * SIGMA_MINUS  # not the adjoint of block (1, 0)
        assert BlockState(dims, blocks).pairing_defect() == 0.3

    def test_trace_defect_reported(self):
        dims = SubsystemDims(2, (1,))
        blocks = (2.0 * KET_E).reshape(1, 1, 2, 2)
        assert abs(BlockState(dims, blocks).total_trace() - 1.0) > TRACE_ATOL

    def test_non_positive_state_reported(self):
        dims = SubsystemDims(2, (1,))
        blocks = np.diag([1.5, -0.5]).astype(complex).reshape(1, 1, 2, 2)
        bs = BlockState(dims, blocks)
        assert bs.pairing_defect() == 0.0 and bs.total_trace() == 1.0
        assert density_problem(joint_from_blocks(bs).rho, dims.total) == (
            "not positive semidefinite (min eigenvalue -5.000e-01)")


class TestCrosscheckPaths:
    def test_standard_fixture_agrees(self):
        model, init = standard_fixture()
        cfg = SimConfig(dt=1e-3, t_end=0.05, scheme="euler-maruyama", measurement="amplitude", seed=42)
        assert crosscheck_paths(model, init, cfg) < 1e-10

    def test_mutation_detected(self):
        model, init = standard_fixture()
        cfg = SimConfig(dt=1e-3, t_end=0.05, scheme="euler-maruyama", measurement="amplitude", seed=42)
        with aux_sign_fault():
            assert crosscheck_paths(model, init, cfg) > 1e-3

    def test_unmonitored_paths_agree(self):
        model, init = standard_fixture()
        cfg = SimConfig(dt=1e-3, t_end=0.05, scheme="euler-maruyama", measurement="none", seed=42)
        assert crosscheck_paths(model, init, cfg) < 1e-10


class TestClosedSystemOracle:
    def _exchange_model(self, g=1.0):
        h_sa = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
        model = direct_embedding(np.zeros((2, 2)), np.zeros((2, 2)), h_sa,
                                 np.zeros((2, 2)))
        # strip the trivial zero coupling so the model is closed
        bath = model.baths[0]
        return type(model)(dims=model.dims, H_s=model.H_s,
                           baths=(type(bath)(H_a=bath.H_a, H_sa=bath.H_sa),))

    def test_excitation_exchange_cosine(self):
        model = self._exchange_model(g=1.0)
        rho0 = np.kron(KET_E, KET_G)
        times = np.linspace(0.0, 2.0, 9)
        out = closed_system_oracle(model, JointState(model.dims, rho0), times)
        for t, red in zip(times, out):
            assert abs(red[0, 0].real - np.cos(t) ** 2) < 1e-12

    def test_trace_and_hermiticity_preserved(self, rng):
        model = self._exchange_model(g=0.7)
        bs = random_block_state(rng, model.dims)
        out = closed_system_oracle(model, joint_from_blocks(bs), [0.0, 1.3])
        for red in out:
            assert abs(np.trace(red).real - 1.0) < 1e-12
            assert fro_dist(red, red.conj().T) < 1e-12
        assert fro_dist(out[0], bs.reduced()) < 1e-13

    def test_rejects_open_models(self):
        model = cascade_embedding(np.zeros((2, 2)), SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS)
        with pytest.raises(ValueError, match="field couplings"):
            closed_system_oracle(model, JointState(model.dims, np.eye(4) / 4), [0.0])

    def test_rejects_probed_models(self):
        model = cascade_embedding(np.zeros((2, 2)), np.zeros((2, 2)),
                                  np.zeros((2, 2)), np.zeros((2, 2)),
                                  probe=SIGMA_MINUS)
        with pytest.raises(ValueError, match="probe"):
            closed_system_oracle(model, JointState(model.dims, np.eye(4) / 4), [0.0])

    def test_gaps_name_every_reason(self):
        switched = TimedOperator(((0.0, SIGMA_Z), (0.5, SIGMA_X)))
        model = cascade_embedding(switched, SIGMA_MINUS, np.zeros((2, 2)), SIGMA_MINUS,
                                  probe=SIGMA_MINUS)
        assert oracle_gaps(model, 1.0) == ["the model has a probe", "bath 0 has field couplings",
                                           "the model's operators change in time"]
        # a switch at or after the horizon is never used
        assert oracle_gaps(model, 0.5) == ["the model has a probe", "bath 0 has field couplings"]
        assert oracle_gaps(self._exchange_model(), 1.0) == []


class TestRandomModel:
    def test_respects_requested_shape(self, rng):
        model = random_model(rng, 3, (2, 4), m1=(1, 0), m2=(0, 2))
        assert model.dims == SubsystemDims(3, (2, 4))
        assert len(model.baths[0].L1) == 1 and len(model.baths[0].L2) == 0
        assert len(model.baths[1].L1) == 0 and len(model.baths[1].L2) == 2

    @pytest.mark.parametrize("aux", [(2,), (2, 2)])
    def test_block_state_is_valid(self, rng, aux):
        dims = SubsystemDims(2, aux)
        bs = random_block_state(rng, dims)
        assert bs.pairing_defect() <= HERM_ATOL
        assert abs(bs.total_trace() - 1.0) <= TRACE_ATOL
        assert density_problem(joint_from_blocks(bs).rho, dims.total) is None


class TestEnsembleAverage:
    def test_vacuum_cascade_matches_master_equation(self):
        # ground-state fixed point: every trajectory sits at |g>, so the
        # Monte Carlo mean equals the deterministic answer exactly
        model = cascade_embedding(np.zeros((2, 2)), SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS,
                                  probe=SIGMA_MINUS)
        init = BlockState.from_product(model.dims, KET_G, (KET_G,))
        cfg = SimConfig(dt=1e-2, t_end=0.5, scheme="euler-maruyama", measurement="amplitude", seed=3)
        summary = ensemble_average(model, init, cfg, N=8, n_checkpoints=5)
        assert summary.N == 8
        assert np.allclose(summary.checkpoints, [0.1, 0.2, 0.3, 0.4, 0.5])
        for name in ("sx", "sy", "sz"):
            assert np.all(np.abs(summary.mean_obs[name] - summary.qme_obs[name]) < 1e-10)
        assert summary.mean_obs["sz"] == pytest.approx([-1.0] * 5)

    def test_matches_single_trajectory_runner(self):
        # the batched runner must reproduce simulate_trajectory stream by
        # stream, so the ensemble mean equals the mean of individual runs
        model = cascade_embedding(0.3 * SIGMA_X, SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS,
                                  probe=SIGMA_MINUS)
        init = BlockState.from_product(model.dims, KET_E, (KET_G,))
        N, stride = 6, 5
        cfg = SimConfig(dt=1e-2, t_end=0.2, scheme="euler-maruyama", measurement="amplitude",
                        seed=11, snapshot_stride=stride)
        summary = ensemble_average(model, init, cfg, N=N, n_checkpoints=4)
        sz = pauli_observables(2)["sz"]
        manual = np.zeros((4, N))
        for traj in range(N):
            rec = simulate_trajectory(model, joint_from_blocks(init), cfg,
                                      trajectory_index=traj)
            for k in range(4):
                snap = rec.snapshots[k + 1]  # snapshot 0 is the initial state
                red = blocks_from_joint(snap).reduced()
                manual[k, traj] = np.trace(sz @ red).real
        assert np.array_equal(summary.mean_obs["sz"], manual.mean(axis=1))

    def test_representations_agree_on_shared_streams(self):
        model, init = standard_fixture()
        cfg = SimConfig(dt=1e-3, t_end=0.05, scheme="euler-maruyama", measurement="amplitude",
                        seed=5)
        joint = ensemble_average(model, init, cfg, N=100, n_checkpoints=5,
                                 representation="joint")
        blocks = ensemble_average(model, init, cfg, N=100, n_checkpoints=5,
                                  representation="blocks")
        assert joint.innovations_mean == blocks.innovations_mean
        for name in ("sx", "sy", "sz"):
            assert np.max(np.abs(joint.mean_obs[name] - blocks.mean_obs[name])) <= 1e-12
            assert np.max(np.abs(joint.stderr_obs[name] - blocks.stderr_obs[name])) <= 1e-12
            assert np.array_equal(joint.qme_obs[name], blocks.qme_obs[name])

    def test_degenerate_state_raises_step_size_error(self):
        model = cascade_embedding(np.zeros((2, 2)), SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS,
                                  probe=SIGMA_MINUS)
        zero = BlockState(model.dims, np.zeros((2, 2, 2, 2)))
        cfg = SimConfig(dt=1e-2, t_end=0.1, scheme="euler-maruyama", measurement="amplitude",
                        seed=0)
        for representation in ("joint", "blocks"):
            with pytest.raises(StepSizeError, match=r"trajectory 0, step 0 \(t=0\)"):
                ensemble_average(model, zero, cfg, N=3, representation=representation)

    def test_rejects_unmonitored_setup(self):
        model = cascade_embedding(np.zeros((2, 2)), SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS)
        init = BlockState.from_product(model.dims, KET_G, (KET_G,))
        cfg = SimConfig(dt=1e-2, t_end=0.1, scheme="euler-maruyama", measurement="amplitude", seed=0)
        with pytest.raises(ValueError, match="monitored"):
            ensemble_average(model, init, cfg, N=4)

    def test_rejects_bad_checkpoint_split(self):
        model = cascade_embedding(np.zeros((2, 2)), SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS,
                                  probe=SIGMA_MINUS)
        init = BlockState.from_product(model.dims, KET_G, (KET_G,))
        cfg = SimConfig(dt=1e-2, t_end=0.07, scheme="euler-maruyama", measurement="amplitude", seed=0)
        with pytest.raises(ValueError, match="divisible"):
            ensemble_average(model, init, cfg, N=4, n_checkpoints=10)

    def test_reports_every_problem_located(self, rng):
        model = random_model(rng, 3, (2,))  # qutrit principal, no probe
        init = random_block_state(rng, model.dims)
        cfg = SimConfig(dt=1e-2, t_end=0.07, measurement="none")
        with pytest.raises(ConfigError) as exc_info:
            ensemble_average(model, init, cfg, N=1)
        assert [p for p, _ in exc_info.value.errors] == [
            "run.trajectories", "sim.t_end", "sim.measurement", "run.observables"]

    def test_rejects_unknown_representation(self, rng):
        model = cascade_embedding(np.zeros((2, 2)), SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS, probe=SIGMA_MINUS)
        init = BlockState.from_product(model.dims, KET_G, (KET_G,))
        cfg = SimConfig(dt=1e-2, t_end=0.1, measurement="amplitude", seed=0)
        with pytest.raises(ConfigError) as exc_info:
            ensemble_average(model, init, cfg, N=4, representation="Joint")
        assert exc_info.value.errors == [
            ("run.representation", "must be 'joint' or 'blocks', got 'Joint'")]
        # located together with the run's other problems, in one raise
        with pytest.raises(ConfigError) as exc_info:
            ensemble_average(model, init, cfg, N=1, representation="joint ")
        assert [p for p, _ in exc_info.value.errors] == ["run.trajectories",
                                                         "run.representation"]

    def test_rejects_non_integer_trajectories(self):
        model = cascade_embedding(np.zeros((2, 2)), SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS, probe=SIGMA_MINUS)
        init = BlockState.from_product(model.dims, KET_G, (KET_G,))
        cfg = SimConfig(dt=1e-2, t_end=0.1, measurement="amplitude", seed=0)
        for N in (2.5, 3.0, True, "4"):
            with pytest.raises(ConfigError) as exc_info:
                ensemble_average(model, init, cfg, N=N)
            assert exc_info.value.errors == [
                ("run.trajectories", f"must be an integer >= 2, got {N!r}")]
        # located together with the run's other problems, in one raise
        with pytest.raises(ConfigError) as exc_info:
            ensemble_average(model, init, cfg, N=2.5, representation="Joint")
        assert [p for p, _ in exc_info.value.errors] == ["run.trajectories",
                                                         "run.representation"]
        summary = ensemble_average(model, init, cfg, N=np.int64(3),
                                   n_checkpoints=np.int64(5))
        assert summary.N == 3 and len(summary.checkpoints) == 5

    def test_rejects_bad_checkpoint_count(self):
        model = cascade_embedding(np.zeros((2, 2)), SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS, probe=SIGMA_MINUS)
        init = BlockState.from_product(model.dims, KET_G, (KET_G,))
        cfg = SimConfig(dt=1e-2, t_end=0.1, measurement="amplitude", seed=0)
        for count in (0, -5, 2.5, 5.0, True):
            with pytest.raises(ValueError) as exc_info:
                ensemble_average(model, init, cfg, N=4, n_checkpoints=count)
            assert not isinstance(exc_info.value, ConfigError)
            assert str(exc_info.value) == (
                f"n_checkpoints must be a positive integer, got {count!r}")

    @pytest.mark.parametrize("representation", ["joint", "blocks"])
    def test_wrong_shape_observable_located_before_any_step(self, monkeypatch,
                                                            representation):
        steps = []
        for name in ("em_step_joint", "em_step_blocks"):
            step = getattr(integrators, name)
            monkeypatch.setattr(integrators, name,
                                lambda *args, step=step: steps.append(1) or step(*args))
        model = cascade_embedding(np.zeros((2, 2)), SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS, probe=SIGMA_MINUS)
        init = BlockState.from_product(model.dims, KET_G, (KET_G,))
        cfg = SimConfig(dt=1e-2, t_end=0.1, measurement="amplitude", seed=0)
        observables = {"pe": KET_E, "q": np.eye(3), "r": [[1, 0], [0]], "s": [["a", 0], [0, 1]]}
        with pytest.raises(ConfigError) as exc_info:
            ensemble_average(model, init, cfg, N=4, observables=observables,
                             representation=representation)
        assert exc_info.value.errors == [("run.observables.q", "shape (3, 3), expected (2, 2)"),
                                         ("run.observables.r", "not a numeric matrix"),
                                         ("run.observables.s", "not a numeric matrix")]
        assert steps == []
        del observables["q"], observables["r"], observables["s"]
        ensemble_average(model, init, cfg, N=4, observables=observables,
                         representation=representation)
        assert len(steps) == cfg.n_steps

    def test_pauli_observables_qubit_only(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            pauli_observables(3)
