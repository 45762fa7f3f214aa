import numpy as np
import pytest

from nmembed.linalg import (
    SubsystemDims,
    embed,
    embed_principal_aux,
    fro_dist,
    partial_trace,
    psd_check,
)

from conftest import KET_E, SIGMA_MINUS, SIGMA_Z


def random_density(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def test_embed_principal():
    dims = SubsystemDims(2, (2,))
    assert np.array_equal(embed(SIGMA_Z, 0, dims), np.kron(SIGMA_Z, np.eye(2)))


def test_embed_identity_aux():
    dims = SubsystemDims(2, (2,))
    assert np.array_equal(embed(np.eye(2), 1, dims), np.eye(4))


def test_embed_contiguous_pair_pads_trailing(rng):
    dims = SubsystemDims(2, (2, 3))
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    got = embed_principal_aux(op, 1, dims)
    # brute-force index arithmetic oracle
    expected = np.zeros((12, 12), dtype=complex)
    for r in range(4):
        for c in range(4):
            for q in range(3):
                expected[r * 3 + q, c * 3 + q] = op[r, c]
    assert fro_dist(got, expected) == 0.0


def test_embed_rejects_dim_mismatch():
    dims = SubsystemDims(2, (3,))
    with pytest.raises(ValueError, match="shape"):
        embed(np.eye(2), 1, dims)


def test_partial_trace_product_state(rng):
    dims = SubsystemDims(2, (3,))
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    got = partial_trace(np.kron(rho_a, rho_b), dims)
    assert fro_dist(got, rho_a) < 1e-14


def test_partial_trace_bell_state():
    dims = SubsystemDims(2, (2,))
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert fro_dist(partial_trace(rho, dims), np.eye(2) / 2) < 1e-15


def test_partial_trace_preserves_trace(rng):
    dims = SubsystemDims(2, (2,))
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = (x + x.conj().T) / 2
    # brute-force oracle: sum over paired auxiliary indices
    expected = np.zeros((2, 2), dtype=complex)
    for s in range(2):
        for t in range(2):
            for a in range(2):
                expected[s, t] += x[s * 2 + a, t * 2 + a]
    got = partial_trace(x, dims)
    assert fro_dist(got, expected) < 1e-15
    assert abs(np.trace(got) - np.trace(x)) < 1e-14


def test_psd_check_basic():
    ok, mn = psd_check(np.eye(2) / 2)
    assert ok and mn == pytest.approx(0.5)
    ok, mn = psd_check(np.diag([1.0, -1e-6]), tol=1e-8)
    assert not ok and mn == pytest.approx(-1e-6)


def test_psd_check_pure_plus_state():
    plus = np.full((2, 2), 0.5, dtype=complex)
    ok, mn = psd_check(plus)
    assert ok and abs(mn) < 1e-15


def test_psd_check_rejects_non_hermitian():
    with pytest.raises(ValueError, match="hermitian"):
        psd_check(SIGMA_MINUS)


def test_psd_check_unitary_invariance(rng):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (x + x.conj().T) / 2
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    _, mn1 = psd_check(h, tol=1e30)
    _, mn2 = psd_check(q @ h @ q.conj().T, tol=1e30)
    assert abs(mn1 - mn2) < 1e-10


def test_fro_dist_values():
    assert fro_dist(SIGMA_Z, SIGMA_Z) == 0.0
    assert fro_dist(SIGMA_Z, -SIGMA_Z) == pytest.approx(2 * np.sqrt(2))
    assert fro_dist(np.zeros((2, 2)), np.eye(2)) == pytest.approx(np.sqrt(2))
    with pytest.raises(ValueError):
        fro_dist(np.eye(2), np.eye(3))


def test_partial_trace_embed_product_compat(rng):
    # tracing onto the embedded factors commutes with acting there on
    # product states
    dims = SubsystemDims(2, (3,))
    op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    full = np.kron(rho_a, rho_b)
    lhs = partial_trace(embed(op, 0, dims) @ full, dims)
    rhs = op @ partial_trace(full, dims)
    assert fro_dist(lhs, rhs) < 1e-12
