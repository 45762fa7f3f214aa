"""Dense complex linear algebra for small multi-factor Hilbert spaces.

All operators are plain ``numpy`` arrays of dtype complex128, row-major,
in the canonical factor order: principal system first, then auxiliaries
1..M.  Target dimensions are small (total dimension of order 10..200),
so everything is dense and eigenproblems use LAPACK's hermitian solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hermiticity is checked to this absolute entrywise tolerance everywhere.
HERM_ATOL = 1e-9
# Default positivity slack: Euler-Maruyama steps drift below zero by O(dt).
PSD_ATOL = 1e-8
# A normalized state's trace is 1 to this absolute tolerance.
TRACE_ATOL = 1e-9


def as_operator(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


@dataclass(frozen=True)
class SubsystemDims:
    """Factor dimensions of the principal + auxiliaries tensor space."""

    principal: int
    aux: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "aux", tuple(int(d) for d in self.aux))
        if self.principal < 1 or any(d < 1 for d in self.aux):
            raise ValueError("all factor dimensions must be >= 1")

    @property
    def n_baths(self) -> int:
        return len(self.aux)

    @property
    def factors(self) -> tuple[int, ...]:
        return (self.principal,) + self.aux

    @property
    def aux_total(self) -> int:
        return int(math.prod(self.aux)) if self.aux else 1

    @property
    def total(self) -> int:
        return self.principal * self.aux_total


def dagger(x: np.ndarray) -> np.ndarray:
    return x.conj().T


def herm_defect(x: np.ndarray) -> float:
    """max_{jk} |X_jk - conj(X_kj)|."""
    return float(np.max(np.abs(x - x.conj().T))) if x.size else 0.0


def embed(op: np.ndarray, slot: int, dims: SubsystemDims) -> np.ndarray:
    """Pad ``op``, an operator on factor ``slot`` (0 = principal, l =
    auxiliary l), with identities on every other factor."""
    factors = dims.factors
    if not 0 <= slot < len(factors):
        raise ValueError(f"slot {slot} out of range for {len(factors)} factors")
    d = factors[slot]
    op = as_operator(op)
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} != factor dim {d}")
    d_pre, d_post = math.prod(factors[:slot]), math.prod(factors[slot + 1:])
    return np.kron(np.eye(d_pre, dtype=np.complex128), np.kron(op, np.eye(d_post, dtype=np.complex128)))


def embed_principal_aux(op: np.ndarray, l: int, dims: SubsystemDims) -> np.ndarray:
    """Embed an operator on principal (x) auxiliary l into the full space.

    The two factors are not adjacent for l > 1, so unlike :func:`embed`
    this pads by explicit index bookkeeping.
    """
    if not 1 <= l <= dims.n_baths:
        raise ValueError(f"auxiliary index {l} out of range")
    ds, dl = dims.principal, dims.aux[l - 1]
    op = as_operator(op)
    if op.shape != (ds * dl, ds * dl):
        raise ValueError(f"operator shape {op.shape} != {(ds * dl, ds * dl)}")
    if dims.n_baths == 1:
        return op
    op4 = op.reshape(ds, dl, ds, dl)
    pre, post = math.prod(dims.aux[: l - 1]), math.prod(dims.aux[l:])
    # result[(s,p,a,q),(s',p',a',q')] = op4[s,a,s',a'] δ_pp' δ_qq'
    out = np.einsum(
        "satb,pq,uv->spautqbv",
        op4,
        np.eye(pre, dtype=np.complex128),
        np.eye(post, dtype=np.complex128),
    )
    d = dims.total
    return np.ascontiguousarray(out.reshape(d, d))


def partial_trace(x: np.ndarray, dims: SubsystemDims) -> np.ndarray:
    """Reduced principal state: trace out every auxiliary."""
    x = as_operator(x)
    if x.shape != (dims.total, dims.total):
        raise ValueError(f"matrix shape {x.shape} != total dim {dims.total}")
    ds, A = dims.principal, dims.aux_total
    return np.einsum("iaja->ij", x.reshape(ds, A, ds, A))


def psd_check(x: np.ndarray, tol: float = PSD_ATOL) -> tuple[bool, float]:
    """(min eigenvalue >= -tol, min eigenvalue) for a hermitian matrix."""
    x = as_operator(x)
    if herm_defect(x) > HERM_ATOL:
        raise ValueError(f"matrix not hermitian (defect {herm_defect(x):.3e})")
    w = np.linalg.eigvalsh(x)
    mn = float(w[0])
    return mn >= -tol, mn


def density_problem(m: np.ndarray, d: int) -> str | None:
    """Why m is not a d-dimensional density matrix (its trace aside): a
    wrong shape, a Hermiticity defect above :data:`HERM_ATOL` or an
    eigenvalue below -:data:`PSD_ATOL`; None when it is one."""
    if m.shape != (d, d):
        return f"shape {m.shape}, expected {(d, d)}"
    if (defect := herm_defect(m)) > HERM_ATOL:
        return f"not hermitian (defect {defect:.3e})"
    ok, mn = psd_check(m)
    return None if ok else f"not positive semidefinite (min eigenvalue {mn:.3e})"


def fro_dist(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
