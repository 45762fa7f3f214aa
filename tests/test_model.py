import numpy as np
import pytest

from nmembed.linalg import SubsystemDims, fro_dist
from nmembed.model import (
    CompoundBath,
    ConfigError,
    EmbeddingModel,
    TimedOperator,
    cascade_embedding,
    direct_embedding,
    validate,
)

from conftest import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z


class TestTimedOperator:
    def test_constant(self):
        op = TimedOperator.constant(SIGMA_X)
        assert np.array_equal(op.value_at(3.7), SIGMA_X)

    def test_boundary_is_right_continuous(self):
        a, b = np.eye(2, dtype=complex), SIGMA_X
        op = TimedOperator(((0.0, a), (1.0, b)))
        assert np.array_equal(op.value_at(1.0), b)
        assert np.array_equal(op.value_at(0.999), a)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TimedOperator.constant(SIGMA_X).value_at(-0.1)

    def test_bad_segments_rejected(self):
        with pytest.raises(ValueError, match="t=0"):
            TimedOperator(((0.5, SIGMA_X),))
        with pytest.raises(ValueError, match="increasing"):
            TimedOperator(((0.0, SIGMA_X), (0.0, SIGMA_Z)))
        with pytest.raises(ValueError, match="shape"):
            TimedOperator(((0.0, SIGMA_X), (1.0, np.eye(3))))


class TestCascadeEmbedding:
    def test_no_principal_coupling(self):
        model = cascade_embedding(np.zeros((2, 2)), np.zeros((2, 2)),
                                  np.zeros((2, 2)), SIGMA_MINUS)
        bath = model.baths[0]
        assert fro_dist(bath.H_sa.value_at(0), np.zeros((4, 4))) == 0.0
        assert fro_dist(bath.L1[0].value_at(0), np.kron(np.eye(2), SIGMA_MINUS)) == 0.0
        assert bath.L2 == ()

    def test_qubit_qubit_induced_interaction(self):
        model = cascade_embedding(np.zeros((2, 2)), SIGMA_MINUS,
                                  np.zeros((2, 2)), SIGMA_MINUS)
        h_expected = (np.kron(SIGMA_PLUS, SIGMA_MINUS) - np.kron(SIGMA_MINUS, SIGMA_PLUS)) / 2j
        l_expected = np.kron(SIGMA_MINUS, np.eye(2)) + np.kron(np.eye(2), SIGMA_MINUS)
        assert fro_dist(model.baths[0].H_sa.value_at(0), h_expected) < 1e-15
        assert fro_dist(model.baths[0].L1[0].value_at(0), l_expected) == 0.0

    def test_commuting_scalar_couplings_cancel(self):
        c = 0.7 + 0.2j
        one = np.ones((1, 1), dtype=complex)
        model = cascade_embedding(np.zeros((1, 1)), c * one, np.zeros((1, 1)), c * one)
        assert fro_dist(model.baths[0].H_sa.value_at(0), np.zeros((1, 1))) < 1e-16
        assert fro_dist(model.baths[0].L1[0].value_at(0), 2 * c * one) < 1e-16

    def test_output_always_validates(self, rng):
        for _ in range(10):
            ls = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            la = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            hs = rng.standard_normal((2, 2))
            ha = rng.standard_normal((3, 3))
            model = cascade_embedding((hs + hs.T) / 2, ls, (ha + ha.T) / 2, la)
            assert validate(model) == []

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match=r"model\.cascade\.H_s: hermiticity"):
            cascade_embedding(SIGMA_MINUS, SIGMA_MINUS, np.zeros((2, 2)), SIGMA_MINUS)

    def test_every_bad_input_in_one_error(self):
        with pytest.raises(ConfigError) as exc_info:
            cascade_embedding(SIGMA_MINUS, np.zeros((3, 3)), SIGMA_MINUS, np.zeros((2, 3)))
        assert [p for p, _ in exc_info.value.errors] == [
            "model.cascade.H_s", "model.cascade.L_s", "model.cascade.H_a", "model.cascade.L_a"]

    def test_piecewise_couplings_merge_breakpoints(self):
        ls = TimedOperator(((0.0, SIGMA_MINUS), (0.5, 2 * SIGMA_MINUS)))
        model = cascade_embedding(np.zeros((2, 2)), ls, np.zeros((2, 2)), SIGMA_MINUS)
        l_sa = model.baths[0].L1[0]
        early = np.kron(SIGMA_MINUS, np.eye(2)) + np.kron(np.eye(2), SIGMA_MINUS)
        late = np.kron(2 * SIGMA_MINUS, np.eye(2)) + np.kron(np.eye(2), SIGMA_MINUS)
        assert fro_dist(l_sa.value_at(0.2), early) == 0.0
        assert fro_dist(l_sa.value_at(0.5), late) == 0.0


class TestDirectEmbedding:
    def test_decoupled(self):
        model = direct_embedding(SIGMA_Z, SIGMA_Z, np.zeros((4, 4)), np.zeros((2, 2)))
        assert validate(model) == []
        assert model.baths[0].L1 == ()
        assert len(model.baths[0].L2) == 1

    def test_exchange_model_is_valid(self):
        h_sa = 0.3 * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
        model = direct_embedding(np.zeros((2, 2)), np.zeros((2, 2)), h_sa,
                                 np.sqrt(2.0) * SIGMA_MINUS)
        assert validate(model) == []

    def test_rejects_non_hermitian_interaction(self):
        with pytest.raises(ValueError, match=r"H_sa: hermiticity"):
            direct_embedding(np.zeros((2, 2)), np.zeros((2, 2)),
                             np.kron(SIGMA_PLUS, SIGMA_MINUS), SIGMA_MINUS)


    def test_every_bad_input_in_one_error(self):
        with pytest.raises(ConfigError) as exc_info:
            direct_embedding(SIGMA_MINUS, SIGMA_MINUS, np.zeros((2, 2)), np.zeros((1, 1)))
        assert exc_info.value.errors == [
            ("H_s", "hermiticity: defect 1.000e+00 (segment 0)"),
            ("H_a", "hermiticity: defect 1.000e+00 (segment 0)"),
            ("H_sa", "dimension: shape (2, 2), expected (4, 4) (segment 0)"),
            ("L_a", "dimension: shape (1, 1), expected (2, 2) (segment 0)")]


class TestValidate:
    def _qubit_model(self, h_s=None, l1=None):
        bath = CompoundBath(
            H_a=np.zeros((2, 2)),
            H_sa=np.zeros((4, 4)),
            L1=(l1 if l1 is not None else np.kron(SIGMA_MINUS, np.eye(2)),),
        )
        return EmbeddingModel(
            dims=SubsystemDims(2, (2,)),
            H_s=h_s if h_s is not None else SIGMA_Z,
            baths=(bath,),
        )

    def test_clean_model(self):
        assert validate(self._qubit_model()) == []

    def test_hermiticity_defect_named(self):
        bad = SIGMA_Z + 1e-3 * SIGMA_MINUS
        [(where, reason)] = validate(self._qubit_model(h_s=bad))
        assert where == "model.H_s"
        assert reason.startswith("hermiticity:")

    def test_wrong_coupling_dimension_named(self):
        [(where, reason)] = validate(self._qubit_model(l1=np.eye(6, dtype=complex)))
        assert where == "model.baths[0].L1[0]"
        assert reason.startswith("dimension:")

    def test_idempotent(self):
        model = self._qubit_model()
        assert validate(model) == validate(model)
