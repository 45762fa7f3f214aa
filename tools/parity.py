"""Record what the nmembed CLI does on a fixed set of runs, and compare two
such records.

Cases: each of the five commands (``validate``, ``qme``, ``sme``,
``ensemble``, ``crosscheck``) on every ``fixtures/*.json`` and every
``fixtures/invalid/*.json`` (configs that some command rejects or fails on),
plus ``validate --emit-normalized`` on each, and each benchmark workload's
command on its seed-101 config (read from ``bench/workloads.config_bytes``;
nothing is written under ``bench/``).  Each case runs in a fresh
``python -m nmembed.cli`` subprocess, from a temporary directory holding a
copy of its config, with the package directory given by ``--src`` on
``PYTHONPATH`` and BLAS pinned to one thread as ``bench/run.py`` pins it.
The manifest records per case the exit code, stdout and stderr (the
temporary directory replaced by ``<TMP>``) and a sha256 for each file the
run wrote.

    python tools/parity.py [--src DIR] [--case GLOB ...] [-o MANIFEST.json]
    python tools/parity.py --diff A.json B.json

``--src`` defaults to this tree's ``src``, so a second checkout's package
can be recorded with this script.  ``--case`` keeps the cases whose name
matches a glob (names look like ``fixtures/crosscheck.json:qme`` and
``crosscheck-d12@101:crosscheck``).  Without ``-o`` the manifest goes to
stdout.  ``--diff`` prints each case that is missing from one manifest or
differs between them, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("validate", "qme", "sme", "ensemble", "crosscheck")
WORKLOAD_SEED = 101
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 300


def workload_configs(seed: int = WORKLOAD_SEED) -> dict[str, tuple[str, bytes]]:
    """``{workload: (command, config bytes)}`` from the benchmark's
    generator, imported without writing bytecode under ``bench/``."""
    was = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = was
    return {name: (w.command, workloads.config_bytes(name, seed))
            for name, w in workloads.WORKLOADS.items()}


def cases() -> dict[str, tuple[list[str], bytes]]:
    """``{case name: (command and extra CLI arguments, config bytes)}``;
    ``{TMP}`` in an argument stands for the run's temporary directory."""
    out = {}
    fixtures = ROOT / "fixtures"
    for path in sorted(fixtures.glob("*.json")) + sorted(fixtures.glob("invalid/*.json")):
        raw, name = path.read_bytes(), path.relative_to(ROOT).as_posix()
        for command in COMMANDS:
            out[f"{name}:{command}"] = ([command], raw)
        out[f"{name}:validate --emit-normalized"] = (
            ["validate", "--emit-normalized", "{TMP}/normalized.json"], raw)
    for name, (command, raw) in workload_configs().items():
        out[f"{name}@{WORKLOAD_SEED}:{command}"] = ([command], raw)
    return out


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def run_case(args: list[str], raw: bytes, src: Path) -> dict:
    """One case in a fresh interpreter: exit code, stdout, stderr and the
    sha256 of every file it wrote."""
    with tempfile.TemporaryDirectory(prefix="nmembed-parity-") as tmp:
        config = Path(tmp) / "config.json"
        config.write_bytes(raw)
        argv = [args[0], "--config", str(config), "--out", str(Path(tmp) / "out"), *args[1:]]
        argv = [a.replace("{TMP}", tmp) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "nmembed.cli", *argv], cwd=tmp,
                              env=child_env(src), capture_output=True, timeout=TIMEOUT_S)
        files = {str(p.relative_to(tmp)): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(tmp).rglob("*")) if p.is_file() and p != config}
        return {"exit": proc.returncode,
                "stdout": proc.stdout.decode(errors="replace").replace(tmp, "<TMP>"),
                "stderr": proc.stderr.decode(errors="replace").replace(tmp, "<TMP>"),
                "files": files}


def record(src: Path, patterns=None) -> dict:
    chosen = {name: case for name, case in cases().items()
              if not patterns or any(fnmatch.fnmatchcase(name, p) for p in patterns)}
    return {"cases": {name: run_case(args, raw, src) for name, (args, raw) in chosen.items()}}


def diff(a: dict, b: dict) -> list[str]:
    """One line per case missing from a manifest or differing between them."""
    ca, cb = a["cases"], b["cases"]
    lines = []
    for name in sorted(ca.keys() | cb.keys()):
        if name not in ca or name not in cb:
            lines.append(f"{name}: only in {'B' if name not in ca else 'A'}")
        elif ca[name] != cb[name]:
            fields = [k for k in sorted(ca[name].keys() | cb[name].keys())
                      if ca[name].get(k) != cb[name].get(k)]
            lines.append(f"{name}: differs in {', '.join(fields)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the nmembed package")
    parser.add_argument("--case", action="append", metavar="GLOB",
                        help="record only the cases matching GLOB (repeatable)")
    parser.add_argument("-o", "--output", type=Path, help="write the manifest here")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two manifests instead of recording one")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(p.read_text()) for p in args.diff)
        lines = diff(a, b)
        for line in lines:
            print(line)
        print(f"{len(lines)} of {len(a['cases'].keys() | b['cases'].keys())} cases differ")
        return 1 if lines else 0
    manifest = record(args.src.resolve(), args.case)
    if not manifest["cases"]:
        parser.error("no case matches --case")
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
