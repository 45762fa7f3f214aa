"""Markovian-embedding model family: direct, cascade and general M-bath.

A model is a principal system plus M compound baths.  Bath l carries an
auxiliary Hamiltonian ``H_a`` (on aux l), an interaction ``H_sa`` (on
principal (x) aux l), interconnection couplings ``L1`` (on principal (x)
aux l) and auxiliary-only couplings ``L2`` (on aux l).  The principal may
additionally couple to a monitored probe field through ``probe``.

All operators are piecewise-constant in time (:class:`TimedOperator`);
evaluation is right-continuous at segment boundaries.  Integrators resolve
segments on the integer step grid: a segment starting at t_k takes over at
step ``round(t_k / dt)``, so every breakpoint must lie on the dt grid
(:meth:`EmbeddingModel.segment_starts`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .linalg import HERM_ATOL, SubsystemDims, as_operator, dagger, herm_defect


@dataclass(frozen=True, eq=False)
class TimedOperator:
    """Piecewise-constant operator schedule; a single segment is a constant."""

    segments: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        segs = tuple((float(t), as_operator(m)) for t, m in self.segments)
        if not segs:
            raise ValueError("TimedOperator needs at least one segment")
        if segs[0][0] != 0.0:
            raise ValueError("first segment must start at t=0")
        times = [t for t, _ in segs]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("segment start times must be strictly increasing")
        shape = segs[0][1].shape
        if any(m.shape != shape for _, m in segs):
            raise ValueError("all segments must share one shape")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def constant(cls, mat) -> "TimedOperator":
        return cls(((0.0, as_operator(mat)),))

    @property
    def dim(self) -> int:
        return self.segments[0][1].shape[0]

    def value_at(self, t: float) -> np.ndarray:
        """Segment value whose interval contains t (right-continuous)."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        return self.segments[bisect_right(self.segments, t, key=lambda seg: seg[0]) - 1][1]


# grid_index's tolerance, 1e-12 * n, reaches half a step at n = 5e11, so
# beyond that a time half a step off the grid would pass as on it.
GRID_LIMIT = 5e11


def grid_index(t: float, dt: float) -> int | None:
    """k with t == k*dt up to rounding, or None when t is off the dt grid
    (or t/dt overflows)."""
    n = t / dt
    if not math.isfinite(n):
        return None
    k = round(n)
    return k if abs(n - k) <= 1e-12 * max(1.0, abs(n)) else None


def as_timed(op) -> TimedOperator:
    return op if isinstance(op, TimedOperator) else TimedOperator.constant(op)


def _merge_timed(ops, combine) -> TimedOperator:
    """Combine several TimedOperators on the union of their breakpoints."""
    times = sorted({t for op in ops for t, _ in op.segments})
    return TimedOperator(tuple((t, combine(*(op.value_at(t) for op in ops))) for t in times))


@dataclass(frozen=True, eq=False)
class CompoundBath:
    """Auxiliary system l plus its field couplings."""

    H_a: TimedOperator
    H_sa: TimedOperator
    L1: tuple[TimedOperator, ...] = ()
    L2: tuple[TimedOperator, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "H_a", as_timed(self.H_a))
        object.__setattr__(self, "H_sa", as_timed(self.H_sa))
        object.__setattr__(self, "L1", tuple(as_timed(x) for x in self.L1))
        object.__setattr__(self, "L2", tuple(as_timed(x) for x in self.L2))


@dataclass(frozen=True, eq=False)
class EmbeddingModel:
    dims: SubsystemDims
    H_s: TimedOperator
    baths: tuple[CompoundBath, ...] = ()
    probe: TimedOperator | None = None

    def __post_init__(self):
        object.__setattr__(self, "H_s", as_timed(self.H_s))
        object.__setattr__(self, "baths", tuple(self.baths))
        if self.probe is not None:
            object.__setattr__(self, "probe", as_timed(self.probe))

    @property
    def n_baths(self) -> int:
        return len(self.baths)

    def operators(self):
        """``(config path, operator, dimension, hermitian)`` of every
        operator, in config order."""
        ds = self.dims.principal
        yield "model.H_s", self.H_s, ds, True
        if self.probe is not None:
            yield "model.probe", self.probe, ds, False
        for li, b in enumerate(self.baths):
            dl, tag = self.dims.aux[li], f"model.baths[{li}]"
            yield f"{tag}.H_a", b.H_a, dl, True
            yield f"{tag}.H_sa", b.H_sa, ds * dl, True
            for k, op in enumerate(b.L1):
                yield f"{tag}.L1[{k}]", op, ds * dl, False
            for k, op in enumerate(b.L2):
                yield f"{tag}.L2[{k}]", op, dl, False

    def segment_times(self) -> list[float]:
        """Union of all operator breakpoints (time grid of constancy)."""
        return sorted({t for _, op, _, _ in self.operators() for t, _ in op.segments})

    def segment_starts(self, dt: float) -> list[tuple[int, float]]:
        """``(first step, breakpoint)`` of each segment on the dt grid.

        Breakpoints of different operators that land on one step merge into
        the latest of them, whose operator values are those of every segment
        starting there.  Raises ValueError for a breakpoint off the grid.
        """
        starts: list[tuple[int, float]] = []
        for t in self.segment_times():
            k = grid_index(t, dt)
            if k is None:
                raise ValueError(f"segment breakpoint t={t!r} is not on the dt={dt!r} grid")
            if starts and starts[-1][0] == k:
                starts[-1] = (k, t)
            else:
                starts.append((k, t))
        return starts


class ConfigError(ValueError):
    """Carries the full list of ``(path, reason)`` problems of a run's
    config, each located at its config path (``sim.dt``, ``model.H_s``)."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{p}: {r}" for p, r in self.errors))


def operator_problems(where: str, op: TimedOperator, d: int,
                      hermitian: bool) -> list[tuple[str, str]]:
    """The operator rule, as ``(where, reason)`` pairs, one per offending
    segment: every segment has shape (d, d) and, when ``hermitian``, a
    Hermiticity defect of at most :data:`HERM_ATOL`."""
    out = [(where, f"dimension: shape {m.shape}, expected {(d, d)} (segment {i})")
           for i, (_, m) in enumerate(op.segments) if m.shape != (d, d)]
    if hermitian:  # a non-square segment is a dimension violation already
        out += [(where, f"hermiticity: defect {defect:.3e} (segment {i})")
                for i, (_, m) in enumerate(op.segments)
                if m.shape[0] == m.shape[1] and (defect := herm_defect(m)) > HERM_ATOL]
    return out


def validate(model: EmbeddingModel) -> list[tuple[str, str]]:
    """Every type-invariant violation as a ``(config path, reason)`` pair,
    one per offending segment."""
    if model.dims.n_baths != len(model.baths):
        return [("model.baths", f"dimension: {len(model.baths)} baths for "
                                f"{model.dims.n_baths} aux factors")]
    return [p for args in model.operators() for p in operator_problems(*args)]


def _check_operators(where: str, ops) -> None:
    """Raise one :class:`ConfigError` with every :func:`operator_problems`
    pair of ``ops``, ``(name, operator, dimension, hermitian)`` tuples
    located at ``where + name``."""
    if problems := [p for name, *rule in ops for p in operator_problems(where + name, *rule)]:
        raise ConfigError(problems)


def cascade_embedding(H_s, L_s, H_a, L_a, probe=None) -> EmbeddingModel:
    """Single-bath model for a principal I/O system fed by an auxiliary one.

    The series connection induces the interaction Hamiltonian
    ``(L_s† L_a - L_a† L_s) / 2i`` on principal (x) aux and the summed
    coupling ``L_s + L_a`` to the shared field.  Every operator-rule
    problem of the four inputs, against ``H_s.dim`` and ``H_a.dim``, is
    raised as one :class:`ConfigError` at ``model.cascade.<name>``.
    """
    H_s, L_s, H_a, L_a = as_timed(H_s), as_timed(L_s), as_timed(H_a), as_timed(L_a)
    ds, da = H_s.dim, H_a.dim
    _check_operators("model.cascade.", (("H_s", H_s, ds, True), ("L_s", L_s, ds, False),
                                        ("H_a", H_a, da, True), ("L_a", L_a, da, False)))
    i_s = np.eye(ds, dtype=np.complex128)
    i_a = np.eye(da, dtype=np.complex128)

    def h_sa(ls, la):
        lsf, laf = np.kron(ls, i_a), np.kron(i_s, la)
        return (dagger(lsf) @ laf - dagger(laf) @ lsf) / 2j

    def l_sa(ls, la):
        return np.kron(ls, i_a) + np.kron(i_s, la)

    bath = CompoundBath(
        H_a=H_a,
        H_sa=_merge_timed((L_s, L_a), h_sa),
        L1=(_merge_timed((L_s, L_a), l_sa),),
    )
    return EmbeddingModel(dims=SubsystemDims(ds, (da,)), H_s=H_s, baths=(bath,), probe=probe)


def direct_embedding(H_s, H_a, H_sa, L_a, probe=None) -> EmbeddingModel:
    """Single-bath model where the principal couples to the bath only via
    H_sa.  Every operator-rule problem of the four inputs, against
    ``H_s.dim`` and ``H_a.dim``, is raised as one :class:`ConfigError` at
    the input's name."""
    H_s, H_a, H_sa, L_a = as_timed(H_s), as_timed(H_a), as_timed(H_sa), as_timed(L_a)
    ds, da = H_s.dim, H_a.dim
    _check_operators("", (("H_s", H_s, ds, True), ("H_a", H_a, da, True),
                          ("H_sa", H_sa, ds * da, True), ("L_a", L_a, da, False)))
    bath = CompoundBath(H_a=H_a, H_sa=H_sa, L2=(L_a,))
    return EmbeddingModel(dims=SubsystemDims(ds, (da,)), H_s=H_s, baths=(bath,), probe=probe)
