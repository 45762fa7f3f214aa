"""``tools/parity.py``: a recorded manifest is reproducible, and ``--diff``
reports a changed case."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "parity.py"
CASE = "fixtures/closed_exchange.json:qme"


def _tool():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_manifest_reproduces_and_diff_flags_a_change(tmp_path, capsys):
    parity = _tool()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert parity.main(["--case", CASE, "-o", str(path)]) == 0
    manifest = json.loads(a.read_text())
    assert manifest == json.loads(b.read_text())
    (run,) = manifest["cases"].values()
    assert run["exit"] == 0 and list(run["files"]) == ["out/qme.csv"]
    assert run["stdout"] == "wrote <TMP>/out/qme.csv (11 rows)\n"
    assert parity.main(["--diff", str(a), str(b)]) == 0
    run["files"]["out/qme.csv"] = "0" * 64
    b.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert parity.main(["--diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"{CASE}: differs in files",
                                                    "1 of 1 cases differ"]
