"""The benchmark's layer tracer (``bench/layers.py``) sees every
Euler-Maruyama step, on the superoperator (coordinate) path and on the
direct path alike.

The tracer patches functions by name, so a refactor that routes steps
around ``em_step_joint``/``em_step_blocks``, or a block drift that stops
calling its term functions by their module names, silently zeroes the
spans; these tests catch that.  ``bench/`` is only imported, never
changed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from nmembed.generators import BlockState
from nmembed.integrators import SimConfig, step_plans
from nmembed.verify import crosscheck_paths, ensemble_average, random_model, standard_fixture

from conftest import SIGMA_MINUS

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    yield tracer
    tracer.restore()


def _calls(tracer, name):
    span = tracer.spans[f"integrators.{name}"]
    assert len(span.samples) == span.calls
    return span.calls


@pytest.mark.parametrize("representation", ["joint", "blocks"])
def test_step_spans_count_coordinate_path_steps(tracer, representation):
    model = random_model(np.random.default_rng(31), 2, (2,), probe=SIGMA_MINUS, scale=0.5)
    init = BlockState.from_product(model.dims, np.eye(2) / 2, [np.eye(2) / 2])
    cfg = SimConfig(dt=1e-3, t_end=0.02, seed=5)
    assert step_plans(model, cfg.dt, cfg.n_steps, representation)[1]
    ensemble_average(model, init, cfg, 3, n_checkpoints=2, representation=representation)
    step = "em_step_joint" if representation == "joint" else "em_step_blocks"
    other = "em_step_blocks" if representation == "joint" else "em_step_joint"
    assert _calls(tracer, step) == cfg.n_steps
    assert _calls(tracer, other) == 0


def test_step_spans_count_direct_path_steps(tracer):
    model, init = standard_fixture()
    cfg = SimConfig(dt=1e-3, t_end=0.02, seed=5)  # D = 12, 20 < K = 144 steps
    assert not any(step_plans(model, cfg.dt, cfg.n_steps, r)[1] for r in ("joint", "blocks"))
    crosscheck_paths(model, init, cfg)
    assert _calls(tracer, "em_step_joint") == cfg.n_steps
    assert _calls(tracer, "em_step_blocks") == cfg.n_steps
    # the block drift's term spans: one per direct step, block_aux_term once per bath
    terms = {name: tracer.spans[f"generators.{name}"].calls
             for name in ("block_hs_term", "block_aux_term", "block_dissipator_term")}
    assert terms == {"block_hs_term": cfg.n_steps, "block_aux_term": 2 * cfg.n_steps,
                     "block_dissipator_term": cfg.n_steps}
