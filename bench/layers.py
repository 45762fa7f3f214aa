"""Span tracing of nmembed's layers, installed from outside the package.

:class:`Tracer` replaces selected functions by timing wrappers in every
``nmembed`` module that binds them (a name imported with ``from .x import
f`` is a separate binding), and puts the originals back on
:meth:`Tracer.restore`.  No source under ``src/`` is edited.

Per span it keeps the call count, busy time (outermost calls only, so a
re-entered function is not counted twice), self time (busy time minus
the wrapped calls made inside it), busy time split by calling span, and a
few quantities computed from the arguments.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("cli.parse_config", "nmembed.cli", "parse_config"),
    ("cli.output", "nmembed.cli", "_write_csv"),
    ("model.value_at", "nmembed.model", "TimedOperator.value_at"),
    ("linalg.embed", "nmembed.linalg", "embed"),
    ("linalg.embed_principal_aux", "nmembed.linalg", "embed_principal_aux"),
    ("linalg.fro_dist", "nmembed.linalg", "fro_dist"),
    ("generators.block_qme_rhs", "nmembed.generators", "block_qme_rhs"),
    ("generators.block_hs_term", "nmembed.generators", "block_hs_term"),
    ("generators.block_aux_term", "nmembed.generators", "block_aux_term"),
    ("generators.block_dissipator_term", "nmembed.generators", "block_dissipator_term"),
    ("generators.block_meas_term", "nmembed.generators", "block_meas_term"),
    ("generators.assemble_joint_operators", "nmembed.generators", "assemble_joint_operators"),
    ("generators.gksl_rhs", "nmembed.generators", "gksl_rhs"),
    ("generators.joint_sme_drift", "nmembed.generators", "joint_sme_drift"),
    ("generators.joint_sme_meas", "nmembed.generators", "joint_sme_meas"),
    ("integrators.em_step_joint", "nmembed.integrators", "em_step_joint"),
    ("integrators.em_step_blocks", "nmembed.integrators", "em_step_blocks"),
    ("integrators.rk4_step_qme", "nmembed.integrators", "rk4_step_qme"),
    ("integrators.noise", "nmembed.integrators", "noise_stream"),
    ("integrators.simulate_trajectory", "nmembed.integrators", "simulate_trajectory"),
    ("integrators.solve_qme", "nmembed.integrators", "solve_qme"),
    ("verify.crosscheck_paths", "nmembed.verify", "crosscheck_paths"),
    ("verify.joint_from_blocks", "nmembed.verify", "joint_from_blocks"),
    ("verify.ensemble_average", "nmembed.verify", "ensemble_average"),
    ("verify.ensemble.batched", "nmembed.verify", "_batched_em_run"),
)

# Spans whose per-call durations are kept as samples (integrator steps).
STEP_SPANS = ("integrators.em_step_joint", "integrators.em_step_blocks",
              "integrators.rk4_step_qme")


class Span:
    __slots__ = ("calls", "busy", "self_time", "active", "by_parent", "flops",
                 "bytes", "samples", "errors")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.active = 0
        self.by_parent: dict[str, float] = {}
        self.flops = 0
        self.bytes = 0
        self.samples: list[float] = []
        self.errors: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {"calls": self.calls, "s": self.busy, "self_s": self.self_time,
                "by_parent": self.by_parent, "flops": self.flops, "bytes": self.bytes,
                "samples": self.samples, "errors": self.errors}


def _gksl_flops(span, args, kwargs, result):
    """Real flops of the dense products in gksl_rhs: 2 for the commutator
    and 5 per coupling, each 8*D^3 for complex D x D operands."""
    H, Ls = args[0], args[1]
    D = np.shape(H)[0]
    span.flops += 8 * D ** 3 * (2 + 5 * len(Ls))
    return result


def _csv_bytes(span, args, kwargs, result):
    span.bytes += os.path.getsize(args[0])
    return result


def _batched_state_bytes(span, args, kwargs, result):
    """Arrays the batched run holds for its whole length: N states of
    D x D complex128, the N x n_steps noise array, checkpoint samples and
    the innovations sums.  Computed from the arguments, not measured."""
    _model, rho0, cfg, N, checkpoint_steps, observables = args[:6]
    D = np.shape(rho0)[0]
    n_cp = len(checkpoint_steps)
    span.bytes = max(span.bytes, N * (D * D * 16 + cfg.n_steps * 8
                                      + n_cp * len(observables) * 8 + 8))
    return result


class _TimedStream:
    """Noise generator whose draws are timed under the stream's span."""

    def __init__(self, gen, draw):
        self._gen = gen
        self.standard_normal = draw

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack: list[list] = []  # [span name, wrapped-child busy time]
        self._patched: list[tuple[object, str, object]] = []
        self._seen_errors: set[int] = set()

    def span(self, name: str) -> Span:
        if name not in self.spans:
            self.spans[name] = Span()
        return self.spans[name]

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper recording into span ``name``.  ``after(span, args,
        kwargs, result)`` may record extra quantities and replace the result."""
        span = self.span(name)
        stack = self._stack
        keep_samples = name in STEP_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            span.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(span, args, kwargs, result)
                return result
            except Exception as exc:
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    kind = type(exc).__name__
                    span.errors[kind] = span.errors.get(kind, 0) + 1
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                span.active -= 1
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += elapsed
                span.calls += 1
                span.self_time += elapsed - frame[1]
                if span.active == 0:
                    span.busy += elapsed
                    span.by_parent[parent] = span.by_parent.get(parent, 0.0) + elapsed
                if keep_samples:
                    span.samples.append(elapsed)

        return wrapper

    def _timed_stream(self, span, args, kwargs, result):
        return _TimedStream(result, self.wrap("integrators.noise", result.standard_normal))

    def install(self):
        hooks = {
            "generators.gksl_rhs": _gksl_flops,
            "cli.output": _csv_bytes,
            "verify.ensemble.batched": _batched_state_bytes,
            "integrators.noise": self._timed_stream,
        }
        for name, modname, attr in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self.wrap(name, vars(owner)[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            for mod in [m for k, m in sys.modules.items()
                        if k == "nmembed" or k.startswith("nmembed.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def report(self) -> dict:
        return {name: span.as_dict() for name, span in self.spans.items()}
