"""Tests of the benchmark's own parts: config generation, the layer
tracer and the output checks.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import nmembed  # noqa: E402
import nmembed.cli  # noqa: E402
import nmembed.generators  # noqa: E402
import nmembed.model  # noqa: E402
from layers import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, check_sme, config_bytes  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_config_validates_and_is_reproducible(name, tmp_path):
    raw = config_bytes(name, 7)
    assert raw == config_bytes(name, 7)
    assert raw != config_bytes(name, 8)
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    assert nmembed.cli.main(["validate", "--config", str(path), "--quiet"]) == 0


def _bound_names():
    """Every (owner, attribute) binding of the traced functions."""
    out = {}
    for mod in [nmembed, nmembed.cli, nmembed.generators, nmembed.model,
                sys.modules["nmembed.integrators"], sys.modules["nmembed.verify"],
                sys.modules["nmembed.linalg"]]:
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
    out[("TimedOperator", "value_at")] = vars(nmembed.model.TimedOperator)["value_at"]
    return out


def test_tracer_patches_every_binding_and_restores_originals():
    before = _bound_names()
    tracer = Tracer()
    tracer.install()
    try:
        assert nmembed.generators.gksl_rhs is not before[("nmembed.generators", "gksl_rhs")]
        # re-exports and from-imports are wrapped too
        assert nmembed.gksl_rhs is nmembed.generators.gksl_rhs
        assert nmembed.cli.parse_config is not before[("nmembed.cli", "parse_config")]
        assert (vars(nmembed.model.TimedOperator)["value_at"]
                is not before[("TimedOperator", "value_at")])
    finally:
        tracer.restore()
    after = _bound_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert len(tracer.spans) == len(TARGETS)


def _short_crosscheck(tmp_path, n_steps=5):
    doc = json.loads(config_bytes("crosscheck-d12", 3))
    doc["sim"]["t_end"] = n_steps * doc["sim"]["dt"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_self_times_fit_in_traced_wall(tmp_path, capsys):
    from time import perf_counter

    path = _short_crosscheck(tmp_path)
    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        rc = nmembed.cli.main(["crosscheck", "--config", str(path), "--out", str(tmp_path)])
    finally:
        wall = perf_counter() - t0
        tracer.restore()
    assert rc == 0
    assert all(line.startswith("PASS") for line in capsys.readouterr().out.splitlines())
    spans = tracer.report()
    assert sum(s["self_s"] for s in spans.values()) <= wall
    for name, s in spans.items():
        assert 0.0 <= s["self_s"] <= s["s"] + 1e-9, name
    assert spans["integrators.em_step_blocks"]["calls"] == 5
    assert spans["integrators.em_step_joint"]["calls"] == 5
    assert spans["generators.block_aux_term"]["calls"] == 5 * 2  # one per bath per step
    assert len(spans["integrators.em_step_joint"]["samples"]) == 5


def test_sme_check_rejects_a_broken_record(tmp_path):
    doc = json.loads(config_bytes("sme-joint-d64", 1))
    doc["sim"]["t_end"] = 2 * doc["sim"]["dt"]
    good = "t,dY,dI,mval\n0.001,0.5,0.25,250.0\n0.002,0.25,0.25,0.0\n"
    (tmp_path / "sme.csv").write_text(good)
    problems, digest = check_sme(doc, b"", tmp_path)
    assert problems == [] and digest
    (tmp_path / "sme.csv").write_text(good.replace("0.002,0.25,", "0.002,0.26,"))
    problems, _ = check_sme(doc, b"", tmp_path)
    assert problems == ["row 1: dY != mval*dt + dI"]


def _benchmark_json():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_per_layer_names_match_benchmark_json():
    import ladder
    import run

    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    produced = {name: unit for name, (_, unit) in run.layer_metrics([]).items()}
    produced.update({"trace.wall_s": "s", "trace.overhead_pct": "%"})
    for kind, sizes in (("block_qme_rhs", ladder.BLOCK_M), ("joint_sme_drift", ladder.JOINT_M)):
        produced.update({f"ladder.{kind}.ms.D{2 ** (M + 1)}": "ms" for M in sizes})
    for key, _ in run.ACCEPTANCE.values():
        produced.update({f"{key}.elapsed_s": "s", f"{key}.margin_s": "s"})
    assert produced == declared


def _run_benchmark(root, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_end_to_end_run_reports_declared_metrics():
    proc = _run_benchmark(BENCH.parent, "--workload", "sme-joint-d64", "--seed", "5",
                          "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run_benchmark(tmp_path, "--workload", "ensemble-d4", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
