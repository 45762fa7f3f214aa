import numpy as np
import pytest

from nmembed.generators import (
    BlockState,
    JointPlan,
    JointState,
    assemble_joint_operators,
    block_aux_term,
    block_dissipator_term,
    block_hs_term,
    block_meas_term,
    block_plan,
    block_qme_rhs,
    gksl_rhs,
    joint_plan,
    joint_sme_drift,
    joint_sme_meas,
)
from nmembed.linalg import SubsystemDims, embed, embed_principal_aux, fro_dist
from nmembed.model import CompoundBath, EmbeddingModel, TimedOperator, cascade_embedding
from nmembed.verify import (
    joint_from_blocks,
    project_blocks,
    random_block_state,
    random_model,
)

from conftest import KET_E, KET_G, SIGMA_MINUS, SIGMA_X, SIGMA_Z, textbook_gksl

PLUS = np.full((2, 2), 0.5, dtype=complex)


def single_block(rho):
    return BlockState(SubsystemDims(2, ()), np.asarray(rho, dtype=complex).reshape(1, 1, 2, 2))


class TestGkslRhs:
    def test_zero_generator(self):
        assert fro_dist(gksl_rhs(np.zeros((2, 2)), [], PLUS), np.zeros((2, 2))) == 0.0

    def test_hamiltonian_commutator(self):
        # i[|+><+|, sigma_z] computed by direct 2x2 arithmetic
        expected = np.array([[0, -1j], [1j, 0]])
        got = gksl_rhs(SIGMA_Z, [], PLUS)
        oracle = 1j * (PLUS @ SIGMA_Z - SIGMA_Z @ PLUS)
        assert fro_dist(got, oracle) == 0.0
        assert fro_dist(got, expected) < 1e-15

    def test_amplitude_damping(self):
        got = gksl_rhs(np.zeros((2, 2)), [SIGMA_MINUS], KET_E)
        assert fro_dist(got, KET_G - KET_E) < 1e-15

    def test_traceless_and_hermitian(self, rng):
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (h + h.conj().T) / 2
        ls = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = rho @ rho.conj().T
        out = gksl_rhs(h, ls, rho)
        assert abs(np.trace(out)) < 1e-12
        assert fro_dist(out, out.conj().T) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gksl_rhs(np.eye(3), [], PLUS)


def _random_states(rng, d, n=3):
    x = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    rho = x @ np.conj(np.swapaxes(x, -1, -2))
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


class TestTextbookForms:
    """The kernels write every two-sided term as X rho + (X rho)†, which
    holds on Hermitian states only; on a batch of Hermitian states they
    match the textbook forms."""

    @pytest.mark.parametrize("couplings", [True, False])
    def test_drift(self, rng, couplings):
        m = None if couplings else [0, 0]
        model = random_model(rng, 2, (2, 3), m1=m, m2=m,
                             probe=SIGMA_MINUS if couplings else None)
        rho = _random_states(rng, model.dims.total)
        H, Ls, _ = assemble_joint_operators(model, 0.0)
        assert len(Ls) == (5 if couplings else 0)
        ref = np.array([textbook_gksl(H, Ls, r) for r in rho])
        assert max(np.max(np.abs(gksl_rhs(H, Ls, r) - e)) for r, e in zip(rho, ref)) < 1e-12
        assert np.max(np.abs(JointPlan.drift(joint_plan(model, 0.0), rho) - ref)) < 1e-12

    @pytest.mark.parametrize("quadrature", ["amplitude", "phase"])
    @pytest.mark.parametrize("couplings", [True, False])
    def test_meas(self, rng, couplings, quadrature):
        m = None if couplings else [0, 0]
        model = random_model(rng, 2, (2, 3), m1=m, m2=m, probe=SIGMA_MINUS)
        rho = _random_states(rng, model.dims.total)
        L0 = embed(SIGMA_MINUS if quadrature == "amplitude" else -1j * SIGMA_MINUS, 0,
                   model.dims)
        L0d = L0.conj().T
        mref = np.trace((L0 + L0d) @ rho, axis1=1, axis2=2).real
        gref = L0 @ rho + rho @ L0d - mref[:, None, None] * rho
        g, mval = JointPlan.measure(joint_plan(model, 0.0, quadrature), rho)
        assert mval.shape == (3,) and np.max(np.abs(mval - mref)) < 1e-12
        assert np.max(np.abs(g - gref)) < 1e-12


class TestJointSme:
    def test_empty_model_drift(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)))
        js = JointState(model.dims, PLUS)
        assert fro_dist(joint_sme_drift(model, 0.0, js), np.zeros((2, 2))) == 0.0

    def test_probe_only_decay(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)),
                               probe=SIGMA_MINUS)
        js = JointState(model.dims, KET_E)
        assert fro_dist(joint_sme_drift(model, 0.0, js), KET_G - KET_E) < 1e-15

    def test_cascade_drift_matches_independent_assembly(self, rng):
        # oracle: assemble H and L by hand, not via the model plumbing
        h_s, h_a = SIGMA_Z, 0.5 * SIGMA_X
        l_s, l_a = 0.7 * SIGMA_MINUS, SIGMA_MINUS
        model = cascade_embedding(h_s, l_s, h_a, l_a)
        rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = rho @ rho.conj().T
        rho /= np.trace(rho).real
        lsf, laf = np.kron(l_s, np.eye(2)), np.kron(np.eye(2), l_a)
        h = (np.kron(h_s, np.eye(2)) + np.kron(np.eye(2), h_a)
             + (lsf.conj().T @ laf - laf.conj().T @ lsf) / 2j)
        expected = gksl_rhs(h, [lsf + laf], rho)
        got = joint_sme_drift(model, 0.0, JointState(model.dims, rho))
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_meas_zero_probe(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)),
                               probe=np.zeros((2, 2)))
        g, mval = joint_sme_meas(model, 0.0, JointState(model.dims, KET_E))
        assert mval == 0.0
        assert fro_dist(g, np.zeros((2, 2))) == 0.0

    def test_meas_excited_state(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)),
                               probe=SIGMA_MINUS)
        g, mval = joint_sme_meas(model, 0.0, JointState(model.dims, KET_E))
        assert mval == 0.0
        expected = np.array([[0, 1], [1, 0]], dtype=complex)  # |g><e| + |e><g|
        assert fro_dist(g, expected) == 0.0

    def test_meas_plus_state(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)),
                               probe=SIGMA_MINUS)
        g, mval = joint_sme_meas(model, 0.0, JointState(model.dims, PLUS))
        assert mval == pytest.approx(1.0)
        expected = SIGMA_MINUS @ PLUS + PLUS @ SIGMA_MINUS.conj().T - PLUS
        assert fro_dist(g, expected) < 1e-15

    def test_meas_requires_probe(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="probe"):
            joint_sme_meas(model, 0.0, JointState(model.dims, PLUS))

    def test_phase_quadrature_substitution(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)),
                               probe=SIGMA_MINUS)
        js = JointState(model.dims, PLUS)
        g, mval = joint_sme_meas(model, 0.0, js, "phase")
        l0 = -1j * SIGMA_MINUS
        mref = float(np.trace((l0 + l0.conj().T) @ PLUS).real)
        gref = l0 @ PLUS + PLUS @ l0.conj().T - mref * PLUS
        assert mval == pytest.approx(mref)
        assert fro_dist(g, gref) < 1e-15


def _hs_model(h_s):
    bath = CompoundBath(H_a=np.zeros((2, 2)), H_sa=np.zeros((4, 4)))
    return EmbeddingModel(dims=SubsystemDims(2, (2,)), H_s=h_s, baths=(bath,))


class TestBlockHsTerm:
    def test_eigenstate_block_is_static(self):
        model = _hs_model(SIGMA_Z)
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 0] = np.diag([1.0, 0.0])
        out = block_hs_term(block_plan(model, 0.0), blocks)
        assert np.max(np.abs(out)) == 0.0

    def test_plus_state_block(self):
        model = _hs_model(SIGMA_Z)
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 0] = PLUS
        out = block_hs_term(block_plan(model, 0.0), blocks)
        expected = 1j * np.array([[0, -1], [1, 0]])  # i[|+><+|, sigma_z]
        assert fro_dist(out[0, 0], expected) < 1e-15

    def test_trivial_aux_equals_gksl_hamiltonian_part(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=SIGMA_Z)
        bs = single_block(PLUS)
        out = block_hs_term(block_plan(model, 0.0), bs.blocks)
        assert fro_dist(out[0, 0], gksl_rhs(SIGMA_Z, [], PLUS)) == 0.0


class TestBlockAuxTerm:
    def test_zero_hamiltonians(self, rng):
        model = _hs_model(SIGMA_Z)
        bs = random_block_state(rng, model.dims)
        out = block_aux_term(block_plan(model, 0.0), 1, bs.blocks)
        assert np.max(np.abs(out)) == 0.0

    def test_diagonal_aux_hamiltonian_phases(self, rng):
        bath = CompoundBath(H_a=SIGMA_Z, H_sa=np.zeros((4, 4)))
        model = EmbeddingModel(dims=SubsystemDims(2, (2,)), H_s=np.zeros((2, 2)),
                               baths=(bath,))
        bs = random_block_state(rng, model.dims)
        out = block_aux_term(block_plan(model, 0.0), 1, bs.blocks)
        energies = [1.0, -1.0]
        for j in range(2):
            for k in range(2):
                expected = 1j * (energies[k] - energies[j]) * bs.blocks[j, k]
                assert fro_dist(out[j, k], expected) < 1e-14

    def test_joint_space_oracle(self, rng):
        for _ in range(5):
            model = random_model(rng, 2, (2, 3))
            bs = random_block_state(rng, model.dims)
            rho = joint_from_blocks(bs).rho
            for l in (1, 2):
                b = model.baths[l - 1]
                h = (embed(b.H_a.value_at(0), l, model.dims)
                     + embed_principal_aux(b.H_sa.value_at(0), l, model.dims))
                ref = project_blocks(1j * (rho @ h - h @ rho), model.dims)
                got = block_aux_term(block_plan(model, 0.0), l, bs.blocks)
                assert np.max(np.abs(got - ref)) < 1e-12

    def test_bath_index_out_of_range(self, rng):
        model = _hs_model(SIGMA_Z)
        bs = random_block_state(rng, model.dims)
        with pytest.raises(ValueError, match="range"):
            block_aux_term(block_plan(model, 0.0), 2, bs.blocks)


class TestBlockDissipatorTerm:
    def test_all_zero(self, rng):
        model = _hs_model(SIGMA_Z)
        bs = random_block_state(rng, model.dims)
        assert np.max(np.abs(block_dissipator_term(block_plan(model, 0.0), bs.blocks))) == 0.0

    def test_trivial_aux_probe_decay(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)),
                               probe=SIGMA_MINUS)
        out = block_dissipator_term(block_plan(model, 0.0), single_block(KET_E).blocks)
        assert fro_dist(out[0, 0], KET_G - KET_E) < 1e-15

    def test_joint_space_oracle(self, rng):
        for _ in range(5):
            model = random_model(rng, 2, (2, 3), probe=SIGMA_MINUS)
            bs = random_block_state(rng, model.dims)
            rho = joint_from_blocks(bs).rho
            ref = np.zeros_like(rho)
            ls = [embed(SIGMA_MINUS, 0, model.dims)]
            for l, b in enumerate(model.baths, start=1):
                ls += [embed_principal_aux(op.value_at(0), l, model.dims) for op in b.L1]
                ls += [embed(op.value_at(0), l, model.dims) for op in b.L2]
            for L in ls:
                ld = L.conj().T
                ref += L @ rho @ ld - 0.5 * (ld @ L @ rho + rho @ ld @ L)
            got = block_dissipator_term(block_plan(model, 0.0), bs.blocks)
            assert np.max(np.abs(got - project_blocks(ref, model.dims))) < 1e-12


class TestBlockMeasTerm:
    def test_zero_probe(self, rng):
        model = random_model(rng, 2, (2,), probe=np.zeros((2, 2)))
        bs = random_block_state(rng, model.dims)
        g, mval = block_meas_term(model, 0.0, bs)
        assert mval == 0.0
        assert np.max(np.abs(g)) == 0.0

    def test_trivial_aux_matches_joint_example(self):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=np.zeros((2, 2)),
                               probe=SIGMA_MINUS)
        g, mval = block_meas_term(model, 0.0, single_block(KET_E))
        assert mval == 0.0
        assert fro_dist(g[0, 0], np.array([[0, 1], [1, 0]], dtype=complex)) == 0.0

    def test_joint_space_oracle(self, rng):
        for quad in ("amplitude", "phase"):
            model = random_model(rng, 2, (2, 3), probe=SIGMA_MINUS)
            bs = random_block_state(rng, model.dims)
            js = joint_from_blocks(bs)
            g, mval = block_meas_term(model, 0.0, bs, quad)
            gj, mj = joint_sme_meas(model, 0.0, js, quad)
            assert abs(mval - mj) < 1e-12
            assert np.max(np.abs(g - project_blocks(gj, model.dims))) < 1e-12
            # trace of G vanishes
            assert abs(np.einsum("iiss->", g)) < 1e-12

    def test_requires_probe(self, rng):
        model = random_model(rng, 2, (2,))
        with pytest.raises(ValueError, match="model has no probe coupling"):
            block_meas_term(model, 0.0, random_block_state(rng, model.dims))


class TestBlockQmeRhs:
    def test_closed_purely_hamiltonian(self, rng):
        model = random_model(rng, 2, (2,), m1=[0], m2=[0])
        bs = random_block_state(rng, model.dims)
        got = block_qme_rhs(model, 0.0, bs)
        ham_only = block_hs_term(block_plan(model, 0.0), bs.blocks) + block_aux_term(block_plan(model, 0.0), 1, bs.blocks)
        assert np.max(np.abs(got - ham_only)) == 0.0

    def test_trivial_aux_equals_gksl(self, rng):
        model = EmbeddingModel(dims=SubsystemDims(2, ()), H_s=SIGMA_Z, probe=SIGMA_MINUS)
        bs = single_block(PLUS)
        got = block_qme_rhs(model, 0.0, bs)
        assert np.array_equal(got[0, 0], gksl_rhs(SIGMA_Z, [SIGMA_MINUS], PLUS))

    def test_joint_space_oracle_and_invariants(self, rng):
        for _ in range(5):
            model = random_model(rng, 3, (2, 2), probe=None)
            bs = random_block_state(rng, model.dims)
            h, ls, _ = assemble_joint_operators(model, 0.0)
            ref = project_blocks(gksl_rhs(h, ls, joint_from_blocks(bs).rho), model.dims)
            got = block_qme_rhs(model, 0.0, bs)
            assert np.max(np.abs(got - ref)) < 1e-12
            # trace conservation and pairing preservation
            assert abs(np.einsum("iiss->", got)) < 1e-12
            sym = np.conj(np.transpose(got, (1, 0, 3, 2)))
            assert np.max(np.abs(got - sym)) < 1e-12
