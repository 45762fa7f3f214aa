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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(a, b)


def embed(op: np.ndarray, slots, dims: SubsystemDims) -> np.ndarray:
    """Pad ``op`` with identities on the unselected factors.

    ``slots`` is a set of factor indices (0 = principal, l = auxiliary l)
    that must be contiguous in the canonical order; ``op`` lives on the
    tensor product of exactly those factors.
    """
    slots = sorted(int(s) for s in slots)
    if not slots:
        raise ValueError("empty slot set")
    factors = dims.factors
    if slots[0] < 0 or slots[-1] >= len(factors):
        raise ValueError(f"slot out of range for {len(factors)} factors")
    if slots != list(range(slots[0], slots[-1] + 1)):
        raise ValueError(f"non-contiguous slot set {slots}")
    d_sel = math.prod(factors[s] for s in slots)
    op = as_operator(op)
    if op.shape != (d_sel, d_sel):
        raise ValueError(f"operator shape {op.shape} != selected dims {d_sel}")
    d_pre = math.prod(factors[: slots[0]]) if slots[0] > 0 else 1
    d_post = math.prod(factors[slots[-1] + 1 :]) if slots[-1] + 1 < len(factors) else 1
    return np.kron(np.eye(d_pre, dtype=np.complex128), np.kron(op, np.eye(d_post, dtype=np.complex128)))


def embed_principal_aux(op: np.ndarray, l: int, dims: SubsystemDims) -> np.ndarray:
    """Embed an operator on principal (x) auxiliary l into the full space.

    Unlike :func:`embed` this handles the non-contiguous (principal, aux l)
    pair for l > 1 by explicit index bookkeeping.
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
    pre = math.prod(dims.aux[: l - 1]) if l > 1 else 1
    post = math.prod(dims.aux[l:]) if l < dims.n_baths else 1
    # result[(s,p,a,q),(s',p',a',q')] = op4[s,a,s',a'] δ_pp' δ_qq'
    out = np.einsum(
        "satb,pq,uv->spautqbv",
        op4,
        np.eye(pre, dtype=np.complex128),
        np.eye(post, dtype=np.complex128),
    )
    d = dims.total
    return np.ascontiguousarray(out.reshape(d, d))


def partial_trace(x: np.ndarray, dims: SubsystemDims, keep) -> np.ndarray:
    """Trace out every factor not listed in ``keep`` (factor indices)."""
    keep = sorted(int(k) for k in keep)
    factors = dims.factors
    n = len(factors)
    x = as_operator(x)
    if x.shape != (dims.total, dims.total):
        raise ValueError(f"matrix shape {x.shape} != total dim {dims.total}")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError("keep index out of range")
    xt = x.reshape(*factors, *factors)
    # Pair up row/column axes of each traced-out factor.
    row = list(range(n))
    col = list(range(n, 2 * n))
    letters = "abcdefghijklmnopqrstuvwxyz"
    sub = [""] * (2 * n)
    nxt = 0
    out_sub = ""
    for f in range(n):
        if f in keep:
            sub[row[f]] = letters[nxt]
            sub[col[f]] = letters[nxt + 1]
            nxt += 2
        else:
            sub[row[f]] = sub[col[f]] = letters[nxt]
            nxt += 1
    for f in keep:
        out_sub += sub[row[f]]
    for f in keep:
        out_sub += sub[col[f]]
    res = np.einsum("".join(sub) + "->" + out_sub, xt)
    d_keep = math.prod(factors[k] for k in keep)
    return np.ascontiguousarray(res.reshape(d_keep, d_keep))


def psd_check(x: np.ndarray, tol: float = PSD_ATOL) -> tuple[bool, float]:
    """(min eigenvalue >= -tol, min eigenvalue) for a hermitian matrix."""
    x = as_operator(x)
    if herm_defect(x) > HERM_ATOL:
        raise ValueError(f"matrix not hermitian (defect {herm_defect(x):.3e})")
    w = np.linalg.eigvalsh(x)
    mn = float(w[0])
    return mn >= -tol, mn


def fro_dist(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))
