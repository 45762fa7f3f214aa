"""Right-hand sides: GKSL, the joint monitored master equation on the full
principal (x) auxiliaries space, and the blockwise superoperators that drive
the coupled block equations.

Block storage: a state is the family of principal-space matrices obtained by
sandwiching the joint state between auxiliary basis vectors.  Blocks are kept
as a single array of shape ``(A, A, d_s, d_s)`` where ``A`` is the product of
auxiliary dimensions and the first two axes are the flattened (row-major)
auxiliary multi-indices j_{1:M} and k_{1:M}.  The auxiliary basis is the
computational basis of each factor.

Operator plans: operators are piecewise constant, so everything a
right-hand side needs is built once per segment.  :func:`block_plan` builds
the block route's operators from the model's own operators;
:func:`joint_plan` makes one :func:`assemble_joint_operators` call.  Both
take ``(model, t, measurement)``, so the integrators build either route's
plan through one call; a state's layout, not a caller's flag, picks the
route.  A plan carries its route's kernels as the methods ``drift`` and
``measure`` (:meth:`JointPlan.drift`, :meth:`JointPlan.measure`,
:meth:`BlockPlan.drift`, :meth:`BlockPlan.measure`), which the
integrators apply to states with leading batch axes, one per trajectory;
the time-based functions (:func:`block_qme_rhs`, :func:`block_meas_term`,
:func:`joint_sme_drift`, :func:`joint_sme_meas`) build a plan for one call
on one state.

Superoperator: between renormalisations the equations are linear in the
state, and they map Hermitian states to Hermitian matrices, so for a small
state a plan's linear maps fit in one real matrix on the state's Hermitian
coordinates (:class:`HermCoords`).  :func:`superoperator` builds it by
applying the plan's own kernels to the Hermitian basis states, a chunk at
a time; the integrators attach it to plans of small models (``sup``) and
then step the coordinates with one real matrix product.

Effective Hamiltonian: every kernel takes Hermitian states (every state
a run steps is one), so each two-sided term X rho + rho X† is
(X rho) + (X rho)†, one product plus :func:`adjoint`.  The GKSL generator
is B + B† with B = K rho + ½ sum_L L rho L† and K = -iH - ½ sum_L L†L,
which the joint plan holds; one adjoint over the whole sum makes the drift
Hermitian bitwise.  The measurement terms come from the one product
B = L0 rho, and G is likewise Hermitian bitwise, so every Euler-Maruyama
and RK4 step keeps a Hermitian state Hermitian bitwise and no step repairs
it.  A new kernel must keep this property.

Block generator: it is a sum of parts, the principal's (H_s and the
probe dissipator) and one per bath, and each part is planned as a
:class:`BathPlan` by one rule.  :func:`_block_parts` walks the model's
operators once, giving each part's Hamiltonian terms and couplings as
``(d_l d_s, d_l d_s)`` matrices ``X[(a s), (b t)]`` on principal (x)
aux l (d_l = 1 for the principal).  Every part views the blocks as
``(-1, a_1..a_M, b_1..b_M, d_s, d_s)``, the joint state
T[a, b, s, t] = <s a|rho|t b> with every factor on its own axis and any
leading axes flattened into the first.  Bath l's row axes are (a_l, s)
and its column axes (b_l, t); the principal's are s and t alone.  One
primitive, :func:`_product`, applies every operator: it moves the
operator's axes to the back of the view and does one tall matrix
product,

    rho Y :  T[rest, (b t)] @ Y      column axes (b_l, t) last;
    X rho :  T[rest, (a s)] @ X^T    row axes (a_l, s) last.

A part holds its K as two terms, ``KR`` = -iR (R = H_s for the principal,
H_a (x) I + H_sa for a bath) and ``KF`` = -½ sum E†E over its couplings
E.  :meth:`BathPlan.pair`, one X rho product plus the adjoint, gives each
Hamiltonian term from ``KR``.  The dissipator term is B + B†, B summing
every part's KF rho and ½ E rho E† (the rho Y product serves only these
jump terms), under one adjoint.  So the block route never forms an
operator on the joint space, and its drift is Hermitian bitwise like the
joint one.
The joint routines are the independent second route used by the
verification layer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SubsystemDims,
    as_operator,
    dagger,
    embed,
    embed_principal_aux,
)
from .model import EmbeddingModel


@dataclass(frozen=True, eq=False)
class JointState:
    """Density matrix on the full principal (x) auxiliaries space."""

    dims: SubsystemDims
    rho: np.ndarray

    def __post_init__(self):
        rho = as_operator(self.rho)
        if rho.shape != (self.dims.total, self.dims.total):
            raise ValueError(f"rho shape {rho.shape} != total dim {self.dims.total}")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True, eq=False)
class BlockState:
    """Indexed family of principal-space matrices, one per auxiliary
    multi-index pair; the sum of diagonal blocks is the reduced state."""

    dims: SubsystemDims
    blocks: np.ndarray  # (A, A, d_s, d_s)

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=np.complex128)
        a, ds = self.dims.aux_total, self.dims.principal
        if b.shape != (a, a, ds, ds):
            raise ValueError(f"blocks shape {b.shape} != {(a, a, ds, ds)}")
        object.__setattr__(self, "blocks", b)

    def block(self, j, k) -> np.ndarray:
        """Block for auxiliary multi-indices j, k (tuples, 0-based)."""
        aux = self.dims.aux
        return self.blocks[np.ravel_multi_index(j, aux), np.ravel_multi_index(k, aux)]

    def total_trace(self) -> float:
        return float(np.einsum("iiss->", self.blocks).real)

    def reduced(self) -> np.ndarray:
        """Principal reduced state: sum of diagonal blocks."""
        return np.einsum("iist->st", self.blocks)

    def pairing_defect(self) -> float:
        """max entrywise deviation of block(j,k) from block(k,j) adjoint."""
        return float(np.max(np.abs(self.blocks - adjoint(self.blocks, 4))))

    @classmethod
    def from_product(cls, dims: SubsystemDims, rho_s, aux_states) -> "BlockState":
        """Product state of a principal density matrix with one auxiliary
        density matrix per factor."""
        rho_s = as_operator(rho_s)
        w = np.eye(1, dtype=np.complex128)
        for a in aux_states:
            w = np.kron(w, as_operator(a))
        if w.shape != (dims.aux_total, dims.aux_total):
            raise ValueError("auxiliary state dims inconsistent with model dims")
        return cls(dims, np.einsum("jk,st->jkst", w, rho_s))


# ---------------------------------------------------------------------------
# GKSL and joint-space generators
# ---------------------------------------------------------------------------


def adjoint(X: np.ndarray, n: int) -> np.ndarray:
    """Adjoint of every state of X whose last n axes hold one state: n = 2
    for a joint ``(D, D)`` matrix, n = 4 for a blocks ``(A, A, d_s, d_s)``
    array, where it maps block (j, k) to block (k, j)†.  Leading axes are
    kept."""
    k = X.ndim - n
    return X.transpose(tuple(range(k)) + (k + 1, k, k + 3, k + 2)[:n]).conj()


def _decay(Ls):
    """-½ sum_L L†L (a zero scalar without couplings)."""
    return -0.5 * sum(dagger(L) @ L for L in Ls)


def _effective(H: np.ndarray, Ls) -> np.ndarray:
    """The effective Hamiltonian K = -iH - ½ sum_L L†L."""
    return -1j * H + _decay(Ls)


def _lindblad(K: np.ndarray, Ls, rho: np.ndarray) -> np.ndarray:
    """B + B† with B = K rho + ½ sum_L L rho L† and K = :func:`_effective`:
    the GKSL generator on a Hermitian ``rho``, which may carry leading
    batch axes.  The result is Hermitian bitwise whatever rho is, so a
    Hermitian state stays Hermitian bitwise under RK4."""
    B = K @ rho
    for L in Ls:
        B += 0.5 * ((L @ rho) @ dagger(L))
    return B + adjoint(B, 2)


def gksl_rhs(H: np.ndarray, Ls, rho: np.ndarray) -> np.ndarray:
    """i[rho, H] + sum_L (L rho L† - ½{L†L, rho}) for a Hermitian rho."""
    H = as_operator(H)
    rho = as_operator(rho)
    if H.shape != rho.shape:
        raise ValueError(f"shape mismatch H {H.shape} vs rho {rho.shape}")
    Ls = [as_operator(L) for L in Ls]
    for L in Ls:
        if L.shape != rho.shape:
            raise ValueError(f"shape mismatch L {L.shape} vs rho {rho.shape}")
    return _lindblad(_effective(H, Ls), Ls, rho)


def assemble_joint_operators(model: EmbeddingModel, t: float):
    """Full-space (H, couplings, probe) at time t, embedded canonically.

    Returns ``(H_full, L_full, L0_full)`` where ``L_full`` lists every
    interconnection and auxiliary-only coupling and ``L0_full`` is the
    embedded probe (or None).
    """
    dims = model.dims
    H = embed(model.H_s.value_at(t), 0, dims)
    Ls: list[np.ndarray] = []
    L0 = None
    if model.probe is not None:
        L0 = embed(model.probe.value_at(t), 0, dims)
        Ls.append(L0)
    for li, b in enumerate(model.baths, start=1):
        H = H + embed(b.H_a.value_at(t), li, dims)
        H = H + embed_principal_aux(b.H_sa.value_at(t), li, dims)
        for op in b.L1:
            Ls.append(embed_principal_aux(op.value_at(t), li, dims))
        for op in b.L2:
            Ls.append(embed(op.value_at(t), li, dims))
    return H, Ls, L0


def _meas_probe(L0, measurement: str):
    """L0 of the measured quadrature, or None when unmonitored."""
    if measurement == "none":
        return None
    if measurement not in ("amplitude", "phase"):
        raise ValueError(f"unknown quadrature {measurement!r}")
    if L0 is None:
        raise ValueError("model has no probe coupling")
    return L0 if measurement == "amplitude" else -1j * L0


def _meas_terms(B: np.ndarray, rho: np.ndarray, n: int):
    """``(G, mval)`` of B = L0 rho for Hermitian states rho of n axes (see
    :func:`adjoint`): G = B + B† - mval rho and mval = 2 Re Tr B, which is
    Tr((L0+L0†) rho)."""
    mval = 2 * np.einsum("...ii->..." if n == 2 else "...iiss->...", B).real
    return B + adjoint(B, n) - mval.reshape(mval.shape + (1,) * n) * rho, mval


@dataclass(frozen=True, eq=False)
class JointPlan:
    """Joint-space operators of one piecewise-constant segment.

    L† is formed per use rather than stored: at D=64 every held operator
    is 64 KiB, and two plans are alive while a segment's plan is built.
    """

    K: np.ndarray  # effective Hamiltonian -iH - ½ sum L†L
    Ls: tuple  # every coupling, probe first
    meas: np.ndarray | None  # L0 of the measured quadrature
    sup: np.ndarray | None = None  # :func:`superoperator`, when attached

    @property
    def state_shape(self) -> tuple[int, int]:
        return self.K.shape

    def drift(self, rho: np.ndarray) -> np.ndarray:
        """dt-coefficient of the joint monitored master equation for
        Hermitian ``rho``, which may carry leading batch axes."""
        return _lindblad(self.K, self.Ls, rho)

    def measure(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stochastic coefficient G = L0 rho + rho L0† - mval rho and
        measurement mean mval = Tr((L0+L0†) rho) per Hermitian state;
        ``rho`` may carry leading axes, which mval keeps."""
        return _meas_terms(self.meas @ rho, rho, 2)


def joint_plan(model: EmbeddingModel, t: float, measurement: str = "none") -> JointPlan:
    """Plan of the segment containing t for the given quadrature ("none":
    unmonitored)."""
    H, Ls, L0 = assemble_joint_operators(model, t)
    return JointPlan(_effective(H, Ls), tuple(Ls), _meas_probe(L0, measurement))


def joint_sme_drift(model: EmbeddingModel, t: float, state: JointState) -> np.ndarray:
    """dt-coefficient of the joint monitored master equation (Hermitian
    state)."""
    return joint_plan(model, t).drift(state.rho)


def joint_sme_meas(model: EmbeddingModel, t: float, state: JointState,
                   quadrature: str = "amplitude") -> tuple[np.ndarray, float]:
    """Stochastic coefficient G and measurement mean mval = Tr((L0+L0†) rho)
    (Hermitian state)."""
    G, mval = joint_plan(model, t, quadrature).measure(state.rho)
    return G, float(mval)


# ---------------------------------------------------------------------------
# Blockwise generators (two-sided matrix products, no joint assembly)
# ---------------------------------------------------------------------------


def _aux_major(op: np.ndarray, ds: int, dl: int) -> np.ndarray:
    """Operator on principal (x) aux l as the matrix X[(a s), (b t)]."""
    return op.reshape(ds, dl, ds, dl).transpose(1, 0, 3, 2).reshape(dl * ds, dl * ds)


def _to_back(axes: tuple[int, ...], n: int):
    """Permutation of n axes moving ``axes`` to the back, in order, and its
    inverse."""
    perm = tuple(ax for ax in range(n) if ax not in axes) + axes
    return perm, tuple(int(ax) for ax in np.argsort(perm))


def _product(T: np.ndarray, Y: np.ndarray, view: tuple[int, ...], axes) -> np.ndarray:
    """T viewed as ``view`` with the axes of ``axes`` moved to the back,
    times Y, as one tall matrix product; the result has shape ``view``."""
    perm, inv = axes
    Tp = T.reshape(view).transpose(perm)
    return (Tp.reshape(-1, Y.shape[0]) @ Y).reshape(Tp.shape).transpose(inv)


@dataclass(frozen=True, eq=False)
class BathPlan:
    """One part of the block generator, the principal's or a bath's,
    acting on the blocks through their one view: its couplings E and its
    effective Hamiltonian K = -iR - ½ sum E†E, held as the two terms ``KR``
    and ``KF``.  Its operators are ``(d_l d_s, d_l d_s)`` matrices in
    (auxiliary, principal) index order, with d_l = 1 for the principal.
    """

    KR: np.ndarray  # -iR; principal R = H_s, bath R = H_a (x) I + H_sa
    couplings: tuple  # (E, ½E†) per coupling
    KF: np.ndarray | float  # -½ sum E†E, a zero scalar without couplings
    view: tuple[int, ...]  # shape of the blocks, leading axes flattened into -1
    rows: tuple  # permutation (and inverse) moving the operator's row axes last
    cols: tuple  # likewise for its column axes

    def left(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """X rho, as T (rows last) times X transposed; shape ``view``."""
        return _product(T, X.T, self.view, self.rows)

    def right(self, T: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """rho Y, as T (columns last) times Y; shape ``view``."""
        return _product(T, Y, self.view, self.cols)

    def pair(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """X rho + (X rho)† for Hermitian rho, in T's shape: one left product
        and its :func:`adjoint`."""
        B = self.left(X, T).reshape(T.shape)
        return B + adjoint(B, 4)

    def dissipate(self, T: np.ndarray, out: np.ndarray) -> None:
        """Add B = KF rho + ½ sum_E E rho E† to the contiguous ``out`` of T's
        shape; B + B† is the part's dissipator sum_E (E rho E† -
        ½{E†E, rho}) for Hermitian rho."""
        if self.couplings:
            o = out.reshape(self.view)
            o += self.left(self.KF, T)
            for E, hEd in self.couplings:
                o += self.right(self.left(E, T), hEd)


def _block_parts(model: EmbeddingModel, t: float):
    """``(Hamiltonian terms, couplings)`` of each part of the block
    generator at time t, the principal first and then bath 1..M; every
    matrix is ``(d_l d_s, d_l d_s)`` in (auxiliary, principal) order."""
    ds = model.dims.principal
    eye = np.eye(ds, dtype=np.complex128)
    yield [model.H_s.value_at(t)], ([] if model.probe is None else [model.probe.value_at(t)])
    for dl, bath in zip(model.dims.aux, model.baths):
        yield ([np.kron(bath.H_a.value_at(t), eye), _aux_major(bath.H_sa.value_at(t), ds, dl)],
               [_aux_major(op.value_at(t), ds, dl) for op in bath.L1]
               + [np.kron(op.value_at(t), eye) for op in bath.L2])


def _bath_plan(terms, ops, view, l) -> BathPlan:
    """Plan of part l (0: the principal, l >= 1: bath l) with Hamiltonian
    terms ``terms`` and couplings ``ops``: its row axes in ``view`` are
    (a_l, s) and its column axes (b_l, t), s and t alone for the
    principal."""
    n, M = len(view), (len(view) - 3) // 2
    rows, cols = ((l, n - 2), (M + l, n - 1)) if l else ((n - 2,), (n - 1,))
    return BathPlan(KR=-1j * sum(terms[1:], terms[0]),
                    couplings=tuple((E, 0.5 * dagger(E)) for E in ops),
                    KF=_decay(ops), view=view, rows=_to_back(rows, n), cols=_to_back(cols, n))


@dataclass(frozen=True, eq=False)
class BlockPlan:
    """Block-route operators of one piecewise-constant segment, built from
    the model's principal and principal (x) aux_l operators only: one
    :class:`BathPlan` per part of the generator."""

    dims: SubsystemDims
    parts: tuple[BathPlan, ...]  # the principal (H_s, probe), then bath 1..M
    meas: np.ndarray | None  # L0 of the measured quadrature
    collapsed: tuple | None  # (K, couplings) when every auxiliary is trivial
    sup: np.ndarray | None = None  # :func:`superoperator`, when attached

    @property
    def state_shape(self) -> tuple[int, int, int, int]:
        return (self.dims.aux_total,) * 2 + (self.dims.principal,) * 2

    def drift(self, T: np.ndarray) -> np.ndarray:
        """Deterministic block derivative of Hermitian blocks T (leading
        batch axes allowed): Hamiltonian terms plus dissipators.

        This is both the coupled master-equation right-hand side and the
        drift of the coupled stochastic equation.  When every auxiliary is
        trivial (all d_l = 1) the computation collapses to a single GKSL
        evaluation on the lone block, sharing the arithmetic path of
        :func:`gksl_rhs`.  Otherwise each term is one call of its
        module-level function (:func:`block_aux_term` once per bath).
        """
        if self.collapsed is not None:
            return _lindblad(*self.collapsed, T)
        out = block_hs_term(self, T)
        for l in range(1, len(self.parts)):
            out += block_aux_term(self, l, T)
        out += block_dissipator_term(self, T)
        return out

    def measure(self, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Blockwise stochastic coefficient G = L0 rho + rho L0† - mval rho
        and measurement mean mval = Tr((L0+L0†) rho) of Hermitian blocks T;
        leading axes of T are kept in mval."""
        return _meas_terms(self.parts[0].left(self.meas, T).reshape(T.shape), T, 4)


def block_plan(model: EmbeddingModel, t: float, measurement: str = "none") -> BlockPlan:
    """Plan of the segment containing t for the given quadrature ("none":
    unmonitored), built from ``model``'s principal and principal (x) aux_l
    operators only.  It shares :func:`joint_plan`'s signature, so the
    integrators build either route's plan through one call; mutation tests
    inject the sign-flip fault by handing it a model whose bath
    Hamiltonians are negated.
    """
    dims = model.dims
    view = (-1,) + dims.aux + dims.aux + (dims.principal,) * 2
    parts = tuple(_bath_plan(terms, ops, view, l)
                  for l, (terms, ops) in enumerate(_block_parts(model, t)))
    probe = parts[0].couplings
    collapsed = None
    if all(d == 1 for d in dims.aux):
        H, Ls = collapsed_principal_ops(model, t)
        collapsed = (_effective(H, Ls), tuple(Ls))
    return BlockPlan(dims=dims, parts=parts, collapsed=collapsed,
                     meas=_meas_probe(probe[0][0] if probe else None, measurement))


def block_hs_term(plan: BlockPlan, T: np.ndarray) -> np.ndarray:
    """Blockwise i[block, H_s] of Hermitian blocks T: the Kronecker-delta
    sums collapse."""
    p = plan.parts[0]
    return p.pair(p.KR, T)


def block_aux_term(plan: BlockPlan, l: int, T: np.ndarray) -> np.ndarray:
    """Blockwise i[., H_a^(l) + H_sa^(l)] for bath l (1-based) of Hermitian
    blocks T."""
    if not 1 <= l < len(plan.parts):
        raise ValueError(f"bath index {l} out of range")
    b = plan.parts[l]
    return b.pair(b.KR, T)


def block_dissipator_term(plan: BlockPlan, T: np.ndarray) -> np.ndarray:
    """Blockwise probe dissipator plus all bath-coupling dissipators of
    Hermitian blocks T."""
    out = np.zeros(T.shape, dtype=np.complex128)
    for part in plan.parts:
        part.dissipate(T, out)
    return out + adjoint(out, 4)


def block_qme_rhs(model: EmbeddingModel, t: float, bs: BlockState) -> np.ndarray:
    """:meth:`BlockPlan.drift` of the segment containing t."""
    return block_plan(model, t).drift(bs.blocks)


def block_meas_term(model: EmbeddingModel, t: float, bs: BlockState,
                    quadrature: str = "amplitude") -> tuple[np.ndarray, float]:
    """:meth:`BlockPlan.measure` of the segment containing t."""
    G, mval = block_plan(model, t, quadrature).measure(bs.blocks)
    return G, float(mval)


class HermCoords:
    """Real coordinates of the Hermitian states of one layout.

    The adjoint permutation of the row-major layout maps position k to
    adj[k]: (i, j) <-> (j, i) for a joint ``(D, D)`` state, (j, k, s, t) <->
    (k, j, t, s) for a blocks ``(A, A, d_s, d_s)`` state.  A self-adjoint
    position (``diag``) gives one coordinate, its real part; a pair
    ``lo`` < ``hi`` = adj[lo] gives two, Re and Im of the ``lo`` entry.  The
    K coordinates are ordered ``[Re X[diag] | Re X[lo] | Im X[lo]]``, so
    the trace is the sum of the first ``n_diag``.
    """

    def __init__(self, shape: tuple[int, ...]):
        K = math.prod(shape)
        k = np.arange(K)
        adj = adjoint(k.reshape(shape), len(shape)).ravel()
        self.shape = shape
        self.diag = k[adj == k]
        self.lo = k[k < adj]
        self.hi = adj[self.lo]
        self.n_diag = len(self.diag)
        # coordinate holding the real part of each position
        self._re = np.empty(K, dtype=np.intp)
        self._re[self.diag] = np.arange(self.n_diag)
        self._re[self.lo] = self._re[self.hi] = self.n_diag + np.arange(len(self.lo))

    @property
    def size(self) -> int:
        return len(self._re)

    def coords(self, X: np.ndarray) -> np.ndarray:
        """``(N, K)`` real coordinates of a Hermitian batch ``(N,) + shape``
        (the ``hi`` entries are not read)."""
        X = X.reshape(len(X), -1)
        return np.concatenate((X.real[:, self.diag], X.real[:, self.lo],
                               X.imag[:, self.lo]), axis=1)

    def layout(self, x: np.ndarray) -> np.ndarray:
        """Batch ``(N,) + shape`` of the ``(N, K)`` coordinates x; every
        state is Hermitian bitwise (``hi`` holds the exact conjugate)."""
        X = np.zeros(x.shape, dtype=np.complex128)
        im = x[:, self.n_diag + len(self.lo):]
        X.real = x[:, self._re]
        X.imag[:, self.lo] = im
        X.imag[:, self.hi] = -im
        return X.reshape((len(x),) + self.shape)


@functools.lru_cache(maxsize=None)
def herm_coords(shape: tuple[int, ...]) -> HermCoords:
    """The :class:`HermCoords` of a state shape, built once per shape."""
    return HermCoords(shape)


# Basis states per kernel call while :func:`superoperator` builds P.  It
# bounds the build's temporaries: on the D=12 cross-check (K=144), building
# P unchunked raised the command's peak RSS from 36.7 to 39.9 MB, in chunks
# of 32 to 37.9 MB and in chunks of 16 to 37.6 MB, for 0.5-0.8 ms more
# build time (both routes) than chunks of 32.
SUP_CHUNK = 16
# P's width is padded with zero columns to a multiple of this.  At a width
# of 2K+1, OpenBLAS 0.3.31 rounded a row of ``X @ P`` differently depending
# on the number of rows of X and on where P was allocated; padded, no row
# differed from its one-row product at any batch size or offset tried.
SUP_ALIGN = 16


def superoperator(plan) -> np.ndarray:
    """The plan's linear maps as one real matrix P on Hermitian coordinates.
    The plan's kernels take Hermitian states only, and P is built from
    Hermitian basis states.

    With x the ``(K,)`` :class:`HermCoords` of a Hermitian state rho (K
    entries), ``x @ P`` holds in columns ``[0, K)`` the coordinates of the
    drift, and when the plan is monitored, in ``[K, 2K)`` those of
    ``L0 rho + rho L0†`` and in column 2K the number ``Tr((L0+L0†) rho)``;
    the remaining columns, padding the width to a multiple of
    :data:`SUP_ALIGN`, are zero.  All three are real-linear maps of
    Hermitian states to Hermitian matrices (and a real number), so row c of
    P is the image of the c-th Hermitian basis state: a unit at a
    self-adjoint position, ``E_lo + E_hi`` or ``iE_lo - iE_hi`` for a pair.
    The plan's own kernels (``plan.drift``, ``plan.measure``) are applied
    to those basis states :data:`SUP_CHUNK` at a time, so P needs no index
    formula of its own and the block route's P is still built without
    joint-space operators.
    """
    c = herm_coords(plan.state_shape)
    K = c.size
    width = K if plan.meas is None else 2 * K + 1
    P = np.zeros((K, -(-width // SUP_ALIGN) * SUP_ALIGN))
    for lo in range(0, K, SUP_CHUNK):
        n = min(SUP_CHUNK, K - lo)
        B = c.layout(np.eye(n, K, lo))
        P[lo:lo + n, :K] = c.coords(plan.drift(B))
        if plan.meas is not None:
            # measure returns G = L0 rho + rho L0† - mval rho
            G, m = plan.measure(B)
            P[lo:lo + n, K:2 * K] = c.coords(G + m.reshape((n,) + (1,) * len(c.shape)) * B)
            P[lo:lo + n, 2 * K] = m
    return P


def collapsed_principal_ops(model: EmbeddingModel, t: float):
    """Effective principal-only (H, couplings) when every auxiliary is
    one-dimensional: every part of :func:`_block_parts` then acts on the
    principal, so H sums every Hamiltonian term in order and the couplings
    are every part's, the probe first.  The terms are added one at a time,
    H_s first: adding a bath's H_a (x) I + H_sa as one sum changes the bits
    of the collapsed runs."""
    parts = list(_block_parts(model, t))
    terms = [X for part_terms, _ in parts for X in part_terms]
    return sum(terms[1:], terms[0].copy()), [E for _, ops in parts for E in ops]
