import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nmembed
from nmembed.cli import ConfigError, main, parse_config
from nmembed.integrators import step_plans
from nmembed.linalg import fro_dist
from nmembed.model import cascade_embedding
from nmembed.verify import ensemble_average

from conftest import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X


def mat(m):
    m = np.asarray(m, dtype=complex)
    return [[[v.real, v.imag] for v in row] for row in m]


def cascade_doc():
    return {
        "model": {
            "cascade": {
                "H_s": mat(0.5 * SIGMA_X),
                "L_s": mat(np.sqrt(0.5) * SIGMA_MINUS),
                "H_a": mat(np.zeros((2, 2))),
                "L_a": mat(SIGMA_MINUS),
            },
            "probe": mat(SIGMA_MINUS),
        },
        "init": {
            "principal": mat([[1, 0], [0, 0]]),
            "aux": [mat([[0, 0], [0, 1]])],
        },
        "sim": {"dt": 0.01, "t_end": 0.1, "scheme": "euler-maruyama",
                "measurement": "amplitude", "seed": 7, "snapshot_stride": 5},
        "run": {"trajectories": 4, "representation": "blocks"},
    }


def write_doc(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def models_agree(a, b, t=0.0):
    assert a.dims == b.dims
    assert fro_dist(a.H_s.value_at(t), b.H_s.value_at(t)) < 1e-15
    for ba, bb in zip(a.baths, b.baths):
        assert fro_dist(ba.H_a.value_at(t), bb.H_a.value_at(t)) < 1e-15
        assert fro_dist(ba.H_sa.value_at(t), bb.H_sa.value_at(t)) < 1e-15
        assert len(ba.L1) == len(bb.L1) and len(ba.L2) == len(bb.L2)
        for la, lb in zip(ba.L1 + ba.L2, bb.L1 + bb.L2):
            assert fro_dist(la.value_at(t), lb.value_at(t)) < 1e-15


class TestParseConfig:
    def test_cascade_shorthand_expands(self, tmp_path):
        cfg = parse_config(write_doc(tmp_path, cascade_doc()))
        expected = cascade_embedding(0.5 * SIGMA_X, np.sqrt(0.5) * SIGMA_MINUS,
                                     np.zeros((2, 2)), SIGMA_MINUS,
                                     probe=SIGMA_MINUS)
        models_agree(cfg.model, expected)
        assert cfg.run.trajectories == 4
        assert cfg.sim.seed == 7
        assert abs(cfg.init.total_trace() - 1.0) < 1e-15
        # qubit principal gets default Pauli observables
        assert set(cfg.run.observables) == {"sx", "sy", "sz"}

    def test_collects_all_errors(self, tmp_path):
        doc = cascade_doc()
        doc["model"] = {
            "dims": {"principal": 2, "aux": [2]},
            "H_s": mat(SIGMA_MINUS),  # not hermitian
            "baths": [{"H_a": mat(np.zeros((2, 2))), "H_sa": mat(np.zeros((4, 4)))}],
        }
        doc["init"]["principal"] = mat([[2, 0], [0, 0]])  # trace 2
        with pytest.raises(ConfigError) as exc_info:
            parse_config(write_doc(tmp_path, doc))
        paths = [p for p, _ in exc_info.value.errors]
        assert "model.H_s" in paths
        assert "init" in paths
        reasons = dict(exc_info.value.errors)
        assert "hermiticity" in reasons["model.H_s"]

    def test_malformed_entries_located(self, tmp_path):
        doc = cascade_doc()
        doc["model"]["cascade"]["H_s"] = [[1.0, 0.0]]  # bare floats, not pairs
        doc["run"]["representation"] = "dense"
        with pytest.raises(ConfigError) as exc_info:
            parse_config(write_doc(tmp_path, doc))
        paths = [p for p, _ in exc_info.value.errors]
        assert "model.cascade.H_s" in paths
        assert "run.representation" in paths

    def test_missing_sections_reported(self, tmp_path):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(write_doc(tmp_path, {"sim": {"dt": 0.1, "t_end": 0.1}}))
        paths = [p for p, _ in exc_info.value.errors]
        assert "model" in paths and "init" in paths

    def test_malformed_json_reported(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_config(p)


class TestCommands:
    def test_validate_exit_codes(self, tmp_path, capsys):
        good = write_doc(tmp_path, cascade_doc(), "good.json")
        assert main(["validate", "--config", str(good), "--quiet"]) == 0
        doc = cascade_doc()
        del doc["model"]["cascade"]["L_a"]
        bad = write_doc(tmp_path, doc, "bad.json")
        assert main(["validate", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "model.cascade.L_a" in err

    def test_emit_normalized_round_trips(self, tmp_path):
        src = write_doc(tmp_path, cascade_doc())
        norm_path = tmp_path / "normalized.json"
        assert main(["validate", "--config", str(src), "--quiet",
                     "--emit-normalized", str(norm_path)]) == 0
        cfg1 = parse_config(src)
        cfg2 = parse_config(norm_path)
        models_agree(cfg1.model, cfg2.model)
        assert np.array_equal(cfg1.init.blocks, cfg2.init.blocks)
        # the normalized form names dims and baths explicitly
        norm = json.loads(norm_path.read_text())
        assert norm["model"]["dims"] == {"principal": 2, "aux": [2]}
        assert "cascade" not in norm["model"]

    def test_qme_writes_observable_series(self, tmp_path):
        doc = cascade_doc()
        doc["sim"]["scheme"] = "rk4"
        doc["sim"]["measurement"] = "none"
        src = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["qme", "--config", str(src), "--out", str(out), "--quiet"]) == 0
        lines = (out / "qme.csv").read_text().strip().splitlines()
        assert lines[0] == "t,sx,sy,sz"
        assert len(lines) == 1 + 3  # header, t=0, then 10 steps at stride 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[3]) == 1.0  # <sz> of |e>

    def test_qme_zero_horizon_single_row(self, tmp_path):
        doc = cascade_doc()
        doc["sim"].update(scheme="rk4", measurement="none", t_end=0.0)
        src = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["qme", "--config", str(src), "--out", str(out), "--quiet"]) == 0
        lines = (out / "qme.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + initial observables only

    def test_qme_rejects_stochastic_scheme(self, tmp_path, capsys):
        src = write_doc(tmp_path, cascade_doc())
        assert main(["qme", "--config", str(src), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error at sim.scheme:") and "rk4" in err

    def test_sme_record_identity_in_csv(self, tmp_path):
        src = write_doc(tmp_path, cascade_doc())
        out = tmp_path / "out"
        assert main(["sme", "--config", str(src), "--out", str(out), "--quiet"]) == 0
        rows = (out / "sme.csv").read_text().strip().splitlines()
        assert rows[0] == "t,dY,dI,mval"
        assert len(rows) == 11
        for row in rows[1:]:
            t, dY, dI, mval = map(float, row.split(","))
            assert dY == mval * 0.01 + dI  # exact, full-precision round trip

    def test_sme_byte_identical_reruns(self, tmp_path):
        src = write_doc(tmp_path, cascade_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["sme", "--config", str(src), "--out", str(out), "--quiet"]) == 0
        assert (out1 / "sme.csv").read_bytes() == (out2 / "sme.csv").read_bytes()

    def test_seed_override_changes_record(self, tmp_path):
        src = write_doc(tmp_path, cascade_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sme", "--config", str(src), "--out", str(out1), "--quiet"]) == 0
        assert main(["sme", "--config", str(src), "--out", str(out2), "--quiet",
                     "--seed", "99"]) == 0
        assert (out1 / "sme.csv").read_bytes() != (out2 / "sme.csv").read_bytes()

    def test_ensemble_outputs(self, tmp_path):
        src = write_doc(tmp_path, cascade_doc())
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(src), "--out", str(out), "--quiet"]) == 0
        lines = (out / "ensemble.csv").read_text().strip().splitlines()
        assert lines[0].startswith("t,mean_sx,stderr_sx,qme_sx")
        assert len(lines) == 11  # 10 checkpoints
        summary = json.loads((out / "ensemble_summary.json").read_text())
        assert summary["trajectories"] == 4
        assert "innovations_mean" in summary and "innovations_var" in summary

    def test_crosscheck_passes_on_fixture(self, tmp_path, capsys):
        src = write_doc(tmp_path, cascade_doc())
        assert main(["crosscheck", "--config", str(src)]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text

    def test_shipped_fixtures_validate(self):
        for name in ("crosscheck.json", "qubit_cascade.json", "closed_exchange.json"):
            cfg = parse_config(f"fixtures/{name}")
            assert cfg.model is not None and cfg.init is not None


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    env = dict(os.environ)
    src = str(Path(nmembed.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "nmembed.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


def _segmented_h_s(doc, t):
    h = doc["model"]["cascade"]["H_s"]
    doc["model"]["cascade"]["H_s"] = {"segments": [{"t": 0.0, "matrix": h},
                                                   {"t": t, "matrix": h}]}


def _bad_trajectories(doc):
    doc["run"]["trajectories"] = "abc"


def _bad_segment_time(doc):
    _segmented_h_s(doc, "x")


def _bad_init_aux(doc):
    doc["init"]["aux"] = 5


def _off_grid_breakpoint(doc):
    doc["sim"].update(dt=0.015, t_end=0.3)
    _segmented_h_s(doc, 0.1651)


def _sim(**fields):
    def mutate(doc):
        doc["sim"].update(fields)
    mutate.__name__ = "_sim_" + "_".join(f"{k}={v!r}" for k, v in fields.items())
    return mutate


def _no_probe(doc):
    del doc["model"]["probe"]


def _one_trajectory(doc):
    doc["run"]["trajectories"] = 1


@pytest.mark.parametrize("mutate, where", [
    (_bad_trajectories, "run.trajectories"),
    (_bad_segment_time, "model.cascade.H_s.segments[1].t"),
    (_bad_init_aux, "init.aux"),
    (_off_grid_breakpoint, "model.cascade.H_s.segments[1].t"),
    (_sim(dt="x"), "sim.dt"),
    (_sim(dt=True), "sim.dt"),
    (_sim(t_end=-1.0), "sim.t_end"),
    (_sim(snapshot_stride=1.5), "sim.snapshot_stride"),
    (_sim(seed=1.7), "sim.seed"),
    (_sim(seed=True), "sim.seed"),
    (_sim(scheme="leapfrog"), "sim.scheme"),
    (_no_probe, "sim.measurement"),
    (_one_trajectory, "run.trajectories"),
])
def test_malformed_config_located_without_traceback(tmp_path, mutate, where):
    doc = cascade_doc()
    mutate(doc)
    rc, err = _run_cli("validate", "--config", str(write_doc(tmp_path, doc)), "--quiet")
    assert rc == 1
    assert f"config error at {where}:" in err
    assert "Traceback" not in err


def test_on_grid_breakpoint_accepted(tmp_path):
    # 0.165 / 0.015 is 11 up to rounding
    doc = cascade_doc()
    doc["sim"].update(dt=0.015, t_end=0.3)
    _segmented_h_s(doc, 0.165)
    assert parse_config(write_doc(tmp_path, doc)).model.H_s.segments[1][0] == 0.165


def test_config_file_read_once(tmp_path, monkeypatch):
    loads = []
    real_load = json.load
    monkeypatch.setattr(json, "load", lambda fh, **kw: loads.append(1) or real_load(fh, **kw))
    src = write_doc(tmp_path, cascade_doc())
    assert main(["validate", "--config", str(src), "--quiet",
                 "--emit-normalized", str(tmp_path / "norm.json")]) == 0
    assert len(loads) == 1


def test_every_sim_problem_located(tmp_path):
    doc = cascade_doc()
    doc["sim"].update(dt="x", seed=1.7, snapshot_stride=0, measurement="loud")
    with pytest.raises(ConfigError) as exc_info:
        parse_config(write_doc(tmp_path, doc))
    paths = {p for p, _ in exc_info.value.errors}
    assert {"sim.dt", "sim.seed", "sim.snapshot_stride", "sim.measurement"} <= paths


def test_unmonitored_config_needs_no_probe(tmp_path):
    doc = cascade_doc()
    del doc["model"]["probe"]
    doc["sim"].update(scheme="rk4", measurement="none")
    assert parse_config(write_doc(tmp_path, doc)).model.probe is None


def test_seed_override_out_of_range(tmp_path, capsys):
    src = write_doc(tmp_path, cascade_doc())
    assert main(["sme", "--config", str(src), "--out", str(tmp_path), "--seed", "-1"]) == 1
    assert "config error at --seed:" in capsys.readouterr().err


def _dims(**fields):
    def mutate(model):
        model["dims"].update(fields)
    mutate.__name__ = f"dims:{fields}"
    return mutate


def _bath(i, **fields):
    def mutate(model):
        model["baths"][i].update(fields)
    mutate.__name__ = f"baths[{i}]:{fields}"
    return mutate


@pytest.mark.parametrize("mutate, where", [
    (_bath(0, L1=5), "model.baths[0].L1"),
    (_bath(1, L2={"a": 1}), "model.baths[1].L2"),
    (_dims(principal=2.5), "model.dims.principal"),
    (_dims(principal="2"), "model.dims.principal"),
    (_dims(principal=True), "model.dims.principal"),
    (_dims(aux=[2, "3"]), "model.dims.aux[1]"),
    (_dims(aux=[2, 3.0]), "model.dims.aux[1]"),
    (_dims(aux=[True, 3]), "model.dims.aux[0]"),
    (_dims(aux=3), "model.dims.aux"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_malformed_explicit_model_located(tmp_path, mutate, where):
    doc = json.loads((Path(__file__).parents[1] / "fixtures" / "crosscheck.json").read_text())
    mutate(doc["model"])
    rc, err = _run_cli("validate", "--config", str(write_doc(tmp_path, doc)), "--quiet")
    assert rc == 1
    assert f"config error at {where}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("t_end", [0.15, 0.0])
def test_ensemble_step_count_checked_before_running(tmp_path, capsys, t_end):
    doc = cascade_doc()
    doc["sim"]["t_end"] = t_end  # 15 or 0 steps for the 10 checkpoints
    src = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(src), "--out", str(out), "--quiet"]) == 1
    assert "config error at sim.t_end:" in capsys.readouterr().err
    # the other commands run such a config
    assert main(["validate", "--config", str(src), "--quiet"]) == 0
    assert main(["sme", "--config", str(src), "--out", str(out), "--quiet"]) == 0


def _set(path, value):
    """Mutation setting the value at ``path`` (keys and indices) of a doc."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    mutate.__name__ = f"{'.'.join(map(str, path))}={value!r:.20}"
    return mutate


_CROSSCHECK = Path(__file__).parents[1] / "fixtures" / "crosscheck.json"


@pytest.mark.parametrize("base, mutate, where", [
    # a cascade model is validated like an explicit one
    (cascade_doc, _set(("model", "probe"), [[[1, 0]]]), "model.probe"),
    # matrix entries must be numbers, not strings or bools
    (cascade_doc, _set(("model", "cascade", "H_s", 0, 0), ["1", 0]), "model.cascade.H_s"),
    (cascade_doc, _set(("init", "principal", 1, 1), [0, False]), "init.principal"),
    (cascade_doc, _set(("model", "cascade", "L_a", 0, 0), [10 ** 400, 0]),
     "model.cascade.L_a"),
    (lambda: json.loads(_CROSSCHECK.read_text()),
     _set(("model", "H_s", "segments", 0, "matrix", 0, 0), [True, 0]),
     "model.H_s.segments[0].matrix"),
    (lambda: json.loads(_CROSSCHECK.read_text()),
     _set(("model", "baths", 0, "L2", 0, "segments", 0, "matrix", 1, 0), [0, "0"]),
     "model.baths[0].L2[0].segments[0].matrix"),
    # a segment start beyond the float range
    (cascade_doc, lambda doc: _segmented_h_s(doc, 10 ** 400),
     "model.cascade.H_s.segments[1].t"),
], ids=lambda v: v.__name__ if callable(v) else v)
def test_malformed_values_located_in_process(tmp_path, capsys, base, mutate, where):
    doc = base()
    mutate(doc)
    src = str(write_doc(tmp_path, doc))
    for command in ("validate", "sme"):
        assert main([command, "--config", src, "--out", str(tmp_path), "--quiet"]) == 1
        assert f"config error at {where}:" in capsys.readouterr().err


_NOT_HERMITIAN = [[0, 1], [0, 0]]


_CASCADE = "model.cascade."


@pytest.mark.parametrize("operators, lines", [
    ({"H_s": _NOT_HERMITIAN}, [_CASCADE + "H_s: hermiticity: defect 1.000e+00 (segment 0)"]),
    ({"L_s": [[1]]}, [_CASCADE + "L_s: dimension: shape (1, 1), expected (2, 2) (segment 0)"]),
    ({"H_a": _NOT_HERMITIAN, "L_a": [[1]]},
     [_CASCADE + "H_a: hermiticity: defect 1.000e+00 (segment 0)",
      _CASCADE + "L_a: dimension: shape (1, 1), expected (2, 2) (segment 0)"]),
    ({"H_s": np.zeros((2, 3))},
     [_CASCADE + "H_s: dimension: shape (2, 3), expected (2, 2) (segment 0)"]),
    ({"L_a": np.zeros((2, 3))},
     [_CASCADE + "L_a: dimension: shape (2, 3), expected (2, 2) (segment 0)"]),
    # the aux dimension is H_a's, and init is checked against it
    ({"H_a": np.zeros((3, 3))},
     [_CASCADE + "L_a: dimension: shape (2, 2), expected (3, 3) (segment 0)",
      "init.aux[0]: shape (2, 2), expected (3, 3)"]),
], ids=["H_s-not-hermitian", "L_s-1x1", "H_a-not-hermitian-and-L_a-1x1", "H_s-2x3", "L_a-2x3",
        "H_a-3x3"])
def test_every_cascade_operator_problem_located(tmp_path, capsys, operators, lines):
    doc = cascade_doc()
    doc["model"]["cascade"].update({key: mat(m) for key, m in operators.items()})
    src = str(write_doc(tmp_path, doc))
    assert main(["validate", "--config", src, "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error at {line}" for line in lines]


def test_monitored_sme_header_at_zero_horizon(tmp_path):
    # the columns follow sim.measurement, not the number of steps
    doc = json.loads((Path(__file__).parents[1] / "fixtures" / "qubit_cascade.json").read_text())
    doc["sim"]["t_end"] = 0
    out = tmp_path / "out"
    assert main(["sme", "--config", str(write_doc(tmp_path, doc)), "--out", str(out),
                 "--quiet"]) == 0
    assert (out / "sme.csv").read_text() == "t,dY,dI,mval\n"


@pytest.mark.parametrize("content", [
    b'{"sim": {"seed": ' + b"1" * 5000 + b"}}",  # beyond Python's int conversion limit
    b'{"model": "\xff\xfe"}',  # not UTF-8
], ids=["long-int", "not-utf8"])
def test_unreadable_json_located(tmp_path, capsys, content):
    src = tmp_path / "config.json"
    src.write_bytes(content)
    assert main(["validate", "--config", str(src), "--quiet"]) == 1
    assert "config error at <file>: malformed JSON" in capsys.readouterr().err


def _qutrit_doc():
    """Monitored qutrit principal with one qubit auxiliary and no
    ``run.observables``: no default observables apply."""
    doc = cascade_doc()
    doc["model"] = {
        "dims": {"principal": 3, "aux": [2]},
        "H_s": mat(np.diag([0.0, 1.0, 2.0])),
        "probe": mat(0.3 * np.eye(3, k=-1)),
        "baths": [{"H_a": mat(np.zeros((2, 2))), "H_sa": mat(np.zeros((6, 6)))}],
    }
    doc["init"] = {"principal": mat(np.eye(3) / 3), "aux": [mat(np.eye(2) / 2)]}
    return doc


def test_ensemble_without_observables_located(tmp_path, capsys):
    src = write_doc(tmp_path, _qutrit_doc())
    out = tmp_path / "out"
    assert main(["validate", "--config", str(src), "--quiet"]) == 0
    assert main(["ensemble", "--config", str(src), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error at run.observables:") and "2-dimensional" in err
    assert not (out / "ensemble.csv").exists()


def _unmonitored(doc):
    doc["sim"]["measurement"] = "none"


def _rk4(doc):
    doc["sim"].update(scheme="rk4", measurement="none")


def _as_is(doc):
    pass


@pytest.mark.parametrize("command, mutate, where", [
    ("sme", _rk4, "sim.scheme"),
    ("qme", _as_is, "sim.scheme"),  # an Euler-Maruyama config
    ("ensemble", _unmonitored, "sim.measurement"),
    ("ensemble", None, "sim.measurement"),  # fixtures/closed_exchange.json: no probe
])
def test_command_mismatch_located_before_running(tmp_path, capsys, command, mutate, where):
    if mutate is None:
        src = Path(__file__).parents[1] / "fixtures" / "closed_exchange.json"
    else:
        doc = cascade_doc()
        mutate(doc)
        src = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(src), "--quiet"]) == 0
    assert main([command, "--config", str(src), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {where}:") and err.count("\n") == 1
    assert not out.exists()


def test_out_that_cannot_be_created_is_a_runtime_error(tmp_path, capsys):
    src = write_doc(tmp_path, cascade_doc())
    for command in ("sme", "validate"):
        assert main([command, "--config", str(src), "--out", str(src), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error in {command}: cannot create --out directory")
        assert err.count("\n") == 1


def test_commands_that_write_nothing_leave_no_out(tmp_path, capsys):
    fixture = Path(__file__).parents[1] / "fixtures" / "qubit_cascade.json"
    for command in ("validate", "crosscheck"):
        out = tmp_path / command / "nested"
        assert main([command, "--config", str(fixture), "--out", str(out), "--quiet"]) == 0
        assert not (tmp_path / command).exists()
        # an --out below a file can never be created: the same runtime error
        below_file = fixture / "sub"
        assert main([command, "--config", str(fixture), "--out", str(below_file)]) == 2
        assert capsys.readouterr().err == (f"error in {command}: cannot create --out "
                                           f"directory: [Errno 20] Not a directory: "
                                           f"'{below_file}'\n")


def _diverging_doc(t_end, idle_bath, scheme="rk4", measurement="none"):
    """A qubit exchanging with a 2-level mode that decays at rate 1e4, at
    dt = 0.01: rate times dt is 100, far beyond RK4's real-axis stability
    limit of about 2.785 and Euler-Maruyama's of 2.  An idle 5-level second
    bath makes D = 20, above the superoperator path's bound."""
    a = SIGMA_MINUS.T  # |0><1| on the mode
    baths = [{"H_a": mat(np.zeros((2, 2))),
              "H_sa": mat(np.kron(SIGMA_MINUS.T, a) + np.kron(SIGMA_MINUS, a.T)),
              "L2": [mat(np.sqrt(1e4) * a)]}]
    aux, aux_init = [2], [mat(np.diag([1, 0]))]
    if idle_bath:
        baths.append({"H_a": mat(np.zeros((5, 5))), "H_sa": mat(np.zeros((10, 10)))})
        aux.append(5)
        aux_init.append(mat(np.diag([1, 0, 0, 0, 0])))
    return {"model": {"dims": {"principal": 2, "aux": aux}, "H_s": mat(np.zeros((2, 2))),
                      "baths": baths, "probe": mat(np.sqrt(0.3) * SIGMA_MINUS)},
            "init": {"principal": mat(np.full((2, 2), 0.5)), "aux": aux_init},
            "sim": {"dt": 0.01, "t_end": t_end, "scheme": scheme, "measurement": measurement}}


@pytest.mark.parametrize("command, scheme, measurement", [
    ("qme", "rk4", "none"),
    ("sme", "euler-maruyama", "none"),
    ("sme", "euler-maruyama", "amplitude"),
])
@pytest.mark.parametrize("t_end", [0.2, 2.0])
@pytest.mark.parametrize("idle_bath, coordinates", [(False, True), (True, False)],
                         ids=["coordinates-D4", "direct-D20"])
def test_diverging_rk4_run_fails_naming_its_step(tmp_path, capsys, t_end, idle_bath,
                                                 coordinates, command, scheme, measurement):
    # it used to exit 0 with entries up to 1e117 (t_end 0.2) or nan rows (2)
    src = write_doc(tmp_path, _diverging_doc(t_end, idle_bath, scheme, measurement))
    cfg = parse_config(src)
    assert step_plans(cfg.model, cfg.sim.dt, cfg.sim.n_steps, "blocks")[1] is coordinates
    out = tmp_path / "out"
    assert main([command, "--config", str(src), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    m = re.fullmatch(rf"error in {command}: trajectory 0, step (\d+) \(t=(\S+)\): "
                     r"(non-finite trace|trace drifted) .*; reduce dt", err[0])
    assert m, err[0]
    if scheme == "euler-maruyama":
        assert err[0].endswith(": the run diverged; reduce dt"), err[0]
    assert float(m[2]) == pytest.approx(int(m[1]) * cfg.sim.dt)
    assert not out.exists()


def test_crosscheck_runs_the_closed_system_oracle(tmp_path, capsys):
    fixture = Path(__file__).parents[1] / "fixtures" / "closed_exchange.json"
    assert main(["crosscheck", "--config", str(fixture), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(line.startswith("PASS  ") for line in lines)
    assert lines[2].startswith("PASS  closed-system matrix-exponential oracle: ")


def test_crosscheck_skips_the_oracle_on_a_switched_closed_model(tmp_path, capsys):
    # the oracle covers constant closed models only
    doc = json.loads((Path(__file__).parents[1] / "fixtures" / "closed_exchange.json").read_text())
    h = doc["model"]["H_s"]
    doc["model"]["H_s"] = {"segments": [{"t": 0.0, "matrix": h}, {"t": 0.5, "matrix": h}]}
    src = write_doc(tmp_path, doc)
    assert main(["crosscheck", "--config", str(src), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.startswith("PASS  ") for line in lines)


def test_crosscheck_runs_the_oracle_when_the_switch_is_at_the_horizon(tmp_path, capsys):
    # a step runs the operators of its start, so a switch at t_end is never used
    doc = json.loads((Path(__file__).parents[1] / "fixtures" / "closed_exchange.json").read_text())
    h = doc["model"]["H_s"]
    doc["model"]["H_s"] = {"segments": [{"t": 0.0, "matrix": h},
                                        {"t": doc["sim"]["t_end"], "matrix": h}]}
    src = write_doc(tmp_path, doc)
    assert main(["crosscheck", "--config", str(src), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(line.startswith("PASS  ") for line in lines)


@pytest.mark.parametrize("fixture, t_end", [
    ("closed_exchange.json", 1e300),
    ("crosscheck.json", 1e300),
    # on the grid only by grid_index's tolerance: half a step off
    ("closed_exchange.json", 1e9 + 0.0005),
])
def test_step_count_bounded_at_t_end(tmp_path, capsys, fixture, t_end):
    doc = json.loads((Path(__file__).parents[1] / "fixtures" / fixture).read_text())
    doc["sim"]["t_end"] = t_end
    src = str(write_doc(tmp_path, doc))
    assert main(["validate", "--config", src, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("config error at sim.t_end: t_end/dt must be below")
    if fixture == "closed_exchange.json":
        # a fresh process with a timeout, so an unbounded run fails instead of hanging
        rc, err = _run_cli("qme", "--config", src, "--out", str(tmp_path / "out"), "--quiet")
        assert rc == 1 and err.startswith("config error at sim.t_end:")


@pytest.mark.parametrize("t, dt, line", [
    (0.5, 5e-324, "config error at model.H_s.segments[1].t: "
                  "breakpoint 0.5 is not a multiple of sim.dt = 5e-324"),
    (1e306, 1e-3, "config error at model.H_s.segments[1].t: "
                  "breakpoint 1e+306 is not a multiple of sim.dt = 0.001"),
], ids=["tiny-dt", "huge-t"])
def test_breakpoint_whose_step_index_overflows_located(tmp_path, capsys, t, dt, line):
    # t/dt is infinite; a zero horizon skips the t_end bound
    doc = json.loads((Path(__file__).parents[1] / "fixtures" / "closed_exchange.json").read_text())
    h = doc["model"]["H_s"]
    doc["model"]["H_s"] = {"segments": [{"t": 0.0, "matrix": h}, {"t": t, "matrix": h}]}
    doc["sim"].update(dt=dt, t_end=0.0)
    assert main(["validate", "--config", str(write_doc(tmp_path, doc)), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [line] and "Traceback" not in err


@pytest.mark.parametrize("where, state, line", [
    ("principal", [[0.5, 0.3], [0.0, 0.5]],
     "config error at init.principal: not hermitian (defect 3.000e-01)"),
    ("principal", [[1.5, 0.0], [0.0, -0.5]],
     "config error at init.principal: not positive semidefinite (min eigenvalue -5.000e-01)"),
    (1, np.diag([1.2, 0.0, -0.2]),
     "config error at init.aux[1]: not positive semidefinite (min eigenvalue -2.000e-01)"),
], ids=["non-hermitian", "negative-principal", "negative-aux"])
def test_init_that_is_not_a_density_matrix_located(tmp_path, capsys, where, state, line):
    # the total trace is 1 in every case; the stepping paths treat such a
    # start differently, so it must not run
    doc = _crosscheck_doc()
    if where == "principal":
        doc["init"]["principal"] = mat(state)
    else:
        doc["init"]["aux"][where] = mat(state)
    assert main(["validate", "--config", str(write_doc(tmp_path, doc)), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [line]


def test_init_checked_when_only_the_model_dims_parsed(tmp_path, capsys):
    doc = _crosscheck_doc()
    del doc["model"]["baths"][0]["H_a"]
    doc["init"]["principal"] = mat(np.diag([1.5, -0.5]))
    assert main(["validate", "--config", str(write_doc(tmp_path, doc)), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error at model.baths[0].H_a: missing",
        "config error at init.principal: not positive semidefinite (min eigenvalue -5.000e-01)",
    ]


def test_init_form_checked_when_the_model_dims_fail(tmp_path, capsys):
    doc = _crosscheck_doc()
    doc["model"]["dims"]["principal"] = "x"
    doc["init"]["bogus"] = 1
    doc["init"]["principal"] = [[1]]
    assert main(["validate", "--config", str(write_doc(tmp_path, doc)), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error at model.dims.principal: must be an integer, got 'x'",
        "config error at init.bogus: unknown field",
        "config error at init.principal: malformed matrix: entry is not an [re, im] pair",
    ]


def _crosscheck_doc():
    return json.loads(_CROSSCHECK.read_text())


def _top_level_array():
    return [cascade_doc()]


def _unordered_segments(doc):
    h = doc["model"]["H_s"]["segments"][0]["matrix"]
    doc["model"]["H_s"] = {"segments": [{"t": t, "matrix": h} for t in (0.0, 0.5, 0.2)]}


@pytest.mark.parametrize("base, mutate, where", [
    (cascade_doc, _set(("model", "dims"), {"principal": 2, "aux": [2]}), "model"),
    (cascade_doc, _set(("model", "cascade"), 5), "model.cascade"),
    (_crosscheck_doc, _set(("model", "dims", "principal"), 0), "model.dims"),
    (_crosscheck_doc, _set(("model", "baths"), {}), "model.baths"),
    (_crosscheck_doc, _set(("model", "baths", 0), 5), "model.baths[0]"),
    (_crosscheck_doc, _unordered_segments, "model.H_s"),
    (_top_level_array, None, "<file>"),
    (None, None, "<file>"),  # no config file
], ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", "none"))
def test_parser_errors_located_in_process(tmp_path, capsys, base, mutate, where):
    src = tmp_path / "absent.json"
    if base is not None:
        doc = base()
        if mutate is not None:
            mutate(doc)
        src = write_doc(tmp_path, doc)
    assert main(["validate", "--config", str(src), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"config error at {where}:" in err
    assert all(line.startswith("config error at ") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["ensemble", "crosscheck"])
def test_fixed_scheme_commands_accept_any_scheme(tmp_path, command):
    # ensemble and crosscheck run Euler-Maruyama trajectories and an RK4
    # reference whatever sim.scheme names
    doc = cascade_doc()
    doc["sim"]["scheme"] = "rk4"
    src = write_doc(tmp_path, doc)
    assert main([command, "--config", str(src), "--out", str(tmp_path), "--quiet"]) == 0


def test_custom_observables_name_the_ensemble_columns(tmp_path):
    doc = cascade_doc()
    doc["run"]["observables"] = {"pe": mat([[1, 0], [0, 0]]), "x": mat(SIGMA_X)}
    src = write_doc(tmp_path, doc)
    assert list(parse_config(src).run.observables) == ["pe", "x"]
    assert main(["ensemble", "--config", str(src), "--out", str(tmp_path), "--quiet"]) == 0
    header = (tmp_path / "ensemble.csv").read_text().splitlines()[0]
    assert header == "t,mean_pe,stderr_pe,qme_pe,mean_x,stderr_x,qme_x"


@pytest.mark.parametrize("run, where", [
    ({"observables": {"sz": mat(np.eye(3))}}, "run.observables.sz"),
    ({"observables": {"sz": "diag"}}, "run.observables.sz"),
    ({"observables": [mat(SIGMA_X)]}, "run.observables"),
    ({"observables": []}, "run.observables"),
    ({"trajectories": 2.5}, "run.trajectories"),
    ({"trajectories": True}, "run.trajectories"),
    ({"trajectories": 1}, "run.trajectories"),
    ({"trajectories": -3}, "run.trajectories"),
    ({"representation": "dense"}, "run.representation"),
    ([], "run"),
    (0, "run"),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v)[:40])
def test_malformed_run_options_located(tmp_path, run, where):
    doc = cascade_doc()
    if isinstance(run, dict):
        doc["run"].update(run)
    else:
        doc["run"] = run
    with pytest.raises(ConfigError) as exc_info:
        parse_config(write_doc(tmp_path, doc))
    assert [p for p, _ in exc_info.value.errors] == [where]


def test_every_command_reports_without_quiet(tmp_path, capsys):
    doc = cascade_doc()
    src = write_doc(tmp_path, doc)
    norm = tmp_path / "norm.json"
    assert main(["validate", "--config", str(src), "--emit-normalized", str(norm)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "config ok: principal dim 2, 1 bath(s), probe present",
        f"normalized config written to {norm}"]
    assert main(["sme", "--config", str(src), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / 'sme.csv'} (10 rows, seed 7)\n"
    assert main(["ensemble", "--config", str(src), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"wrote {tmp_path / 'ensemble.csv'} and ensemble_summary.json (N=4, ")
    doc["sim"].update(scheme="rk4", measurement="none")
    src = write_doc(tmp_path, doc)
    assert main(["qme", "--config", str(src), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / 'qme.csv'} (3 rows)\n"
    assert main(["crosscheck", "--config", str(src), "--out", str(tmp_path)]) == 0
    assert all(line.startswith("PASS  ") for line in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("field", ["dt", "t_end"])
def test_missing_step_or_horizon_located(tmp_path, capsys, field):
    doc = cascade_doc()
    del doc["sim"][field]
    src = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    for command in ("validate", "sme"):
        assert main([command, "--config", str(src), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == f"config error at sim.{field}: missing\n"
    assert not out.exists()


def _errors(tmp_path, doc):
    with pytest.raises(ConfigError) as exc_info:
        parse_config(write_doc(tmp_path, doc))
    return exc_info.value.errors


@pytest.mark.parametrize("base", [cascade_doc, _crosscheck_doc])
def test_malformed_probe_located_once(tmp_path, base):
    # the model is still built and checked without its probe, but its
    # absence is not reported against sim.measurement
    doc = base()
    doc["model"]["probe"] = "x"
    assert [p for p, _ in _errors(tmp_path, doc)] == ["model.probe"]
    doc["init"]["aux"][0] = mat(np.diag([1.5, -0.5]))
    assert {"model.probe", "init.aux[0]"} <= {p for p, _ in _errors(tmp_path, doc)}


def test_problems_in_every_section_located_in_one_parse(tmp_path):
    doc = _crosscheck_doc()
    doc["model"]["baths"][0]["H_a"] = mat([[0, 1], [0, 0]])
    segments = doc["model"]["H_s"]["segments"]
    segments.append({"t": 0.0105, "matrix": segments[0]["matrix"]})  # dt = 1e-3
    doc["init"]["principal"] = mat(np.diag([1.5, -0.5]))
    doc["run"]["trajectories"] = 1
    assert {p for p, _ in _errors(tmp_path, doc)} == {
        "model.baths[0].H_a", "model.H_s.segments[1].t", "init.principal", "run.trajectories"}


def _rename(path, new):
    """Mutation renaming the field at ``path`` of a doc to ``new``."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[new] = node.pop(path[-1])
    mutate.__name__ = f"{'.'.join(map(str, path))}->{new}"
    return mutate


@pytest.mark.parametrize("base, mutate, where", [
    # typos the parser used to drop, running another experiment
    (cascade_doc, _rename(("sim", "measurement"), "measurment"), "sim.measurment"),
    (cascade_doc, _rename(("run", "trajectories"), "trajectory"), "run.trajectory"),
    (_crosscheck_doc, _rename(("model", "baths", 0, "L1"), "L_1"), "model.baths[0].L_1"),
    # every object the parser reads
    (cascade_doc, _set(("sims",), {}), "sims"),
    (cascade_doc, _set(("model", "note"), "x"), "model.note"),
    (_crosscheck_doc, _set(("model", "H_S"), "x"), "model.H_S"),
    (cascade_doc, _set(("model", "cascade", "L_b"), "x"), "model.cascade.L_b"),
    (_crosscheck_doc, _set(("model", "dims", "principle"), 2), "model.dims.principle"),
    (cascade_doc, _set(("init", "Aux"), []), "init.Aux"),
    (_crosscheck_doc, _set(("model", "H_s", "unit"), "GHz"), "model.H_s.unit"),
    (_crosscheck_doc, _set(("model", "H_s", "segments", 0, "dt"), 0.1),
     "model.H_s.segments[0].dt"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_unknown_field_located(tmp_path, capsys, base, mutate, where):
    doc = base()
    mutate(doc)
    src = write_doc(tmp_path, doc)
    assert main(["validate", "--config", str(src), "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error at {where}: unknown field\n"


@pytest.mark.parametrize("key, value", [
    ("trajectories", 2.5), ("trajectories", True), ("trajectories", 1), ("trajectories", "4"),
    ("representation", "dense"), ("representation", "Joint"),
    ("observables", {"sz": np.eye(3)}),  # on a qubit principal
    ("observables", {"sp": SIGMA_PLUS}),  # not Hermitian
], ids=lambda v: (v if isinstance(v, str)
                   else json.dumps(v, default=lambda m: f"{len(m)}x{len(m)}")))
def test_run_section_located_alike_by_parser_and_library(tmp_path, key, value):
    doc = cascade_doc()
    cfg = parse_config(write_doc(tmp_path, doc, "ok.json"))
    run = {"N": 4, "representation": "blocks", "observables": None}
    run["N" if key == "trajectories" else key] = value
    doc["run"][key] = ({n: mat(m) for n, m in value.items()} if key == "observables"
                       else value)
    with pytest.raises(ConfigError) as parsed:
        parse_config(write_doc(tmp_path, doc))
    with pytest.raises(ConfigError) as ran:
        ensemble_average(cfg.model, cfg.init, cfg.sim, **run)
    assert parsed.value.errors == ran.value.errors


def test_probe_rule_located_alike_by_parser_and_library(tmp_path):
    doc = cascade_doc()
    cfg = parse_config(write_doc(tmp_path, doc, "ok.json"))
    del doc["model"]["probe"]
    with pytest.raises(ConfigError) as parsed:
        parse_config(write_doc(tmp_path, doc))
    with pytest.raises(ConfigError) as ran:
        ensemble_average(replace(cfg.model, probe=None), cfg.init, cfg.sim,
                         N=cfg.run.trajectories, observables=cfg.run.observables)
    assert parsed.value.errors == ran.value.errors == [
        ("sim.measurement", "a run monitored by 'amplitude' needs a probe: the model has none")]


def _delete(path):
    """Mutation deleting the field at ``path`` (keys and indices) of a doc."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return mutate


def _where(path):
    """The config path, as errors locate it, of ``path`` (keys and indices)."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _validate_lines(tmp_path, capsys, doc):
    """``validate``'s stderr lines on doc, which it must reject."""
    assert main(["validate", "--config", str(write_doc(tmp_path, doc)), "--quiet"]) == 1
    return capsys.readouterr().err.splitlines()


_SEGMENT_0 = ("model", "H_s", "segments", 0)


@pytest.mark.parametrize("base, path", [
    (cascade_doc, ("sim",)),
    (cascade_doc, ("run",)),
    (cascade_doc, ("model",)),
    (cascade_doc, ("model", "cascade")),
    (_crosscheck_doc, ("model", "dims")),
    (_crosscheck_doc, ("model", "baths", 0)),
    (cascade_doc, ("init",)),
    (_crosscheck_doc, _SEGMENT_0),
], ids=lambda v: v.__name__ if callable(v) else _where(v))
def test_every_object_kind_must_be_an_object(tmp_path, capsys, base, path):
    doc = base()
    _set(path, 5)(doc)
    assert _validate_lines(tmp_path, capsys, doc) == [
        f"config error at {_where(path)}: must be an object"]


@pytest.mark.parametrize("base, path", [
    (cascade_doc, ("model",)),
    (cascade_doc, ("init",)),
    (cascade_doc, ("sim", "dt")),
    (cascade_doc, ("sim", "t_end")),
    *[(cascade_doc, ("model", "cascade", key)) for key in ("H_s", "L_s", "H_a", "L_a")],
    (_crosscheck_doc, ("model", "dims")),
    (_crosscheck_doc, ("model", "dims", "principal")),
    (_crosscheck_doc, ("model", "H_s")),
    (_crosscheck_doc, ("model", "baths", 0, "H_a")),
    (_crosscheck_doc, ("model", "baths", 0, "H_sa")),
    (_crosscheck_doc, ("init", "principal")),
    (_crosscheck_doc, ("model", "H_s", "segments")),
    (_crosscheck_doc, (*_SEGMENT_0, "t")),
    (_crosscheck_doc, (*_SEGMENT_0, "matrix")),
], ids=lambda v: v.__name__ if callable(v) else _where(v))
def test_every_required_field_missing_located(tmp_path, capsys, base, path):
    doc = base()
    _delete(path)(doc)
    assert _validate_lines(tmp_path, capsys, doc) == [f"config error at {_where(path)}: missing"]


def test_every_malformed_segment_located(tmp_path, capsys):
    doc = _crosscheck_doc()
    doc["model"]["H_s"] = {"segments": [{"t": 0.0}, 5]}
    assert _validate_lines(tmp_path, capsys, doc) == [
        "config error at model.H_s.segments[0].matrix: missing",
        "config error at model.H_s.segments[1]: must be an object"]


def test_missing_dims_hide_no_other_model_problem(tmp_path, capsys):
    doc = _crosscheck_doc()
    del doc["model"]["dims"], doc["model"]["baths"][0]["H_sa"]
    doc["model"]["H_s"] = 5
    assert _validate_lines(tmp_path, capsys, doc) == [
        "config error at model.dims: missing",
        "config error at model.H_s: matrix must be a non-empty list of rows",
        "config error at model.baths[0].H_sa: missing"]


def test_malformed_cascade_still_checks_init(tmp_path, capsys):
    doc = cascade_doc()
    doc["model"]["cascade"]["H_s"] = mat(_NOT_HERMITIAN)
    doc["init"]["principal"] = mat(np.diag([1.5, -0.5]))
    assert _validate_lines(tmp_path, capsys, doc) == [
        "config error at model.cascade.H_s: hermiticity: defect 1.000e+00 (segment 0)",
        "config error at init.principal: not positive semidefinite (min eigenvalue -5.000e-01)"]


def test_bath_count_located_by_validate(tmp_path, capsys):
    doc = _crosscheck_doc()
    del doc["model"]["baths"][1]
    assert _validate_lines(tmp_path, capsys, doc) == [
        "config error at model.baths: dimension: 1 baths for 2 aux factors"]


@pytest.mark.parametrize("observables", [{}, None])
def test_no_observables_means_the_pauli_ones_on_a_qubit(tmp_path, observables):
    doc = cascade_doc()
    doc["run"]["observables"] = observables
    assert list(parse_config(write_doc(tmp_path, doc)).run.observables) == ["sx", "sy", "sz"]


def test_null_step_is_a_value_problem_not_missing(tmp_path, capsys):
    doc = cascade_doc()
    doc["sim"]["dt"] = None
    assert _validate_lines(tmp_path, capsys, doc) == [
        "config error at sim.dt: must be a finite positive number, got None"]


def test_null_probe_means_no_probe(tmp_path):
    doc = cascade_doc()
    doc["model"]["probe"] = None
    doc["sim"]["measurement"] = "none"
    assert parse_config(write_doc(tmp_path, doc)).model.probe is None
