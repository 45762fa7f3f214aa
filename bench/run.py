"""End-to-end and per-layer benchmark of the nmembed CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload config is generated
from ``--seed`` (see ``workloads.py``) and handed to ``nmembed`` as a JSON
file; nothing else reaches the program.  Commands run one at a time, each
in a fresh ``python3 -m nmembed.cli`` process with ``src`` on
``PYTHONPATH`` and BLAS/OpenMP pinned to one thread, in a closed loop for
``--seconds`` seconds (at least three commands; a traced run alternates
untraced and traced commands, at least two of each).

``--trace 0`` prints the end-to-end metrics (medians over the commands of
the run; ``setup_s`` is the median of the ``validate --quiet`` runs made
after each command, so both medians sample the same stretch of time).
``--trace 1`` instead runs the same command with every layer wrapped
(``layers.py``), the size ladder (``ladder.py``) and acceptance tests 1, 2
and 5 unmodified, and prints the per-layer metrics.  Per-layer values are
per command unless named otherwise.

Every command's output is checked (``workloads.py``) and must hash to the
same sha256 as the first command of the run, traced or not; a command that
fails either way counts in ``failed``.  The last stdout line is the result
object; the line before it records the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path
from time import perf_counter

import numpy as np

from layers import STEP_SPANS
from workloads import WORKLOADS, config_bytes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 120.0
ACCEPTANCE = {"test_1_generator_projection_identity": ("accept.test_1", 60.0),
              "test_2_shared_path_sme_equivalence": ("accept.test_2", 30.0),
              "test_5_sme_qme_ensemble_consistency": ("accept.test_5", 300.0)}
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(BLAS_THREADS)}


def run_child(argv, cwd: Path, log_prefix: Path, timeout=COMMAND_TIMEOUT_S):
    """Run ``argv`` to completion; return (exit code, wall s, peak RSS MB, stdout)."""
    out_path, err_path = log_prefix.with_suffix(".out"), log_prefix.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_bytes()


class Run:
    """One benchmark invocation: a generated config and the commands on it."""

    def __init__(self, workload, seed: int, work: Path):
        self.wl = workload
        self.work = work
        self.seed = seed
        raw = config_bytes(workload.name, seed)
        self.doc = json.loads(raw)
        self.config = work / "config.json"
        self.config.write_bytes(raw)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_hash = None
        self._n = 0

    def _cli_argv(self, command: str, outdir: Path) -> list[str]:
        return ["-m", "nmembed.cli", command, "--config", str(self.config),
                "--out", str(outdir), "--quiet"]

    def _fail(self, what: str):
        self.failures.append(what)
        print(f"FAILED {what}", file=sys.stderr)

    def validate(self) -> float:
        self._n += 1
        self.attempted += 1
        rc, wall, _, _ = run_child([sys.executable] + self._cli_argv("validate", self.work),
                                   ROOT, self.work / f"validate-{self._n}")
        if rc != 0:
            self._fail(f"validate exited {rc}")
        return wall

    def command(self, traced: bool = False):
        """Run the workload command once; return (wall s, peak RSS MB, span stats)."""
        self._n += 1
        self.attempted += 1
        outdir = self.work / f"out-{self._n}"
        stats_path = self.work / f"stats-{self._n}.json"
        argv = [sys.executable]
        if traced:
            argv += [str(BENCH_DIR / "trace_child.py"), str(stats_path), "--"]
            argv += self._cli_argv(self.wl.command, outdir)[2:]
        else:
            argv += self._cli_argv(self.wl.command, outdir)
        rc, wall, rss, stdout = run_child(argv, ROOT, self.work / f"cmd-{self._n}")
        label = f"{self.wl.command} #{self._n}{' (traced)' if traced else ''}"
        if rc != 0:
            self._fail(f"{label} exited {rc}")
            return wall, rss, None
        problems, digest = self.wl.check(self.doc, stdout, outdir)
        if self.reference_hash is None:
            self.reference_hash = digest
        if digest != self.reference_hash:
            problems.append("output sha256 differs from the run's first command")
        stats = json.loads(stats_path.read_text()) if traced else None
        if stats is not None:
            self_sum = sum(s["self_s"] for s in stats["spans"].values())
            if self_sum > stats["wall_s"]:
                problems.append(f"span self times {self_sum:.4f}s exceed wall {stats['wall_s']:.4f}s")
        if problems:
            self._fail(f"{label}: " + "; ".join(problems))
        shutil.rmtree(outdir, ignore_errors=True)
        return wall, rss, stats

    def loop(self, seconds: float, pattern=(False,), min_commands=MIN_COMMANDS,
             setup: list | None = None) -> list:
        """Closed loop: the next command starts when the previous one ends.
        ``pattern`` lists the traced flags cycled through; results are
        grouped by position in it.  With a ``setup`` list, each round ends
        with a ``validate`` run whose wall time is appended to it.  After
        ``min_commands`` rounds, a round starts only if it is expected to
        end nearer the ``seconds`` mark than stopping now would (expected
        from the median round so far)."""
        results = [[] for _ in pattern]
        rounds = []
        t0 = perf_counter()
        while (len(rounds) < min_commands
               or perf_counter() - t0 + statistics.median(rounds) / 2 < seconds):
            start = perf_counter()
            for group, traced in zip(results, pattern):
                group.append(self.command(traced))
            if setup is not None:
                setup.append(self.validate())
            rounds.append(perf_counter() - start)
        return results

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}

    # -- end-to-end -------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        self.validate()  # first run writes bytecode caches; not timed
        setup = []
        runs, = self.loop(seconds, setup=setup)
        walls = [w for w, _, _ in runs]
        steps = self.wl.steps(self.doc)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "steps_per_s": (statistics.median(steps / w for w in walls), "1/s"),
            "peak_rss_mb": (statistics.median(r for _, r, _ in runs), "MB"),
            "ok_rate": ((self.attempted - len(self.failures)) / self.attempted, "ratio"),
        }
        return self.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    # -- per-layer --------------------------------------------------------

    def ladder(self) -> dict:
        rc, _, _, stdout = run_child([sys.executable, str(BENCH_DIR / "ladder.py"),
                                      str(self.seed)], ROOT, self.work / "ladder")
        self.attempted += 1
        if rc != 0:
            self._fail(f"ladder exited {rc}")
            return {"block_qme_rhs": {}, "joint_sme_drift": {}}
        return json.loads(stdout.decode().splitlines()[-1])

    def acceptance(self) -> dict:
        """Acceptance tests 1, 2 and 5, unmodified; elapsed from pytest's junit report.

        Only the wall-clock margins are recorded.  A failing test is reported
        on stderr but not counted in ``failed``: its outcome belongs to the
        test suite, and a test over its time bound shows as a negative margin.
        """
        xml = self.work / "acceptance.xml"
        selector = " or ".join(ACCEPTANCE)
        run_child([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "tests/test_acceptance.py", "-k", selector, f"--junitxml={xml}"],
                  ROOT, self.work / "acceptance", timeout=170.0)
        elapsed = {}
        if xml.exists():
            for case in ET.parse(xml).getroot().iter("testcase"):
                elapsed[case.get("name")] = (float(case.get("time")),
                                             case.find("failure") is None
                                             and case.find("error") is None)
        self.attempted += 1
        missing = [test for test in ACCEPTANCE if test not in elapsed]
        if missing:
            self._fail(f"acceptance tests not run: {missing}")
        for test, (_, passed) in elapsed.items():
            if not passed:
                print(f"WARNING acceptance {test} did not pass", file=sys.stderr)
        return {test: elapsed.get(test, (0.0, False))[0] for test in ACCEPTANCE}

    def per_layer(self, seconds: float) -> dict:
        self.validate()
        # untraced and traced commands alternate, so drift in machine speed
        # affects both sides of trace.overhead_pct alike
        untraced, traced = self.loop(seconds, pattern=(False, True), min_commands=2)
        stats = [s for _, _, s in traced if s is not None]
        metrics = layer_metrics(stats)
        base = statistics.median(w for w, _, _ in untraced)
        traced_wall = statistics.median(w for w, _, _ in traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall - base) / base, "%")
        for kind, by_size in self.ladder().items():
            for size, ms in by_size.items():
                metrics[f"ladder.{kind}.ms.{size}"] = (ms, "ms")
        for test, elapsed in self.acceptance().items():
            key, bound = ACCEPTANCE[test]
            metrics[f"{key}.elapsed_s"] = (elapsed, "s")
            metrics[f"{key}.margin_s"] = (bound - elapsed, "s")
        return self.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def _empty_span() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "flops": 0, "bytes": 0, "by_parent": {},
            "samples": [], "errors": {}}


def merge_spans(stats: list[dict]) -> dict:
    """Sum span records over traced commands (samples concatenated)."""
    merged: dict[str, dict] = {}
    for run in stats:
        for name, sp in run["spans"].items():
            m = merged.setdefault(name, _empty_span())
            for key in ("calls", "s", "self_s", "flops", "bytes"):
                m[key] += sp[key]
            for parent, t in sp["by_parent"].items():
                m["by_parent"][parent] = m["by_parent"].get(parent, 0.0) + t
            for kind, n in sp["errors"].items():
                m["errors"][kind] = m["errors"].get(kind, 0) + n
            m["samples"] += sp["samples"]
    return merged


def layer_metrics(stats: list[dict]) -> dict:
    """Per-layer metrics, per traced command unless named otherwise."""
    k = max(len(stats), 1)
    spans = merge_spans(stats)

    def sp(name):
        return spans.get(name) or _empty_span()

    def per_cmd(name, key):
        return sp(name)[key] / k

    m = {}
    for name, kinds in (
        ("cli.parse_config", ("s",)),
        ("cli.output", ("s",)),
        ("model.value_at", ("calls", "s")),
        ("linalg.embed", ("calls", "s")),
        ("linalg.embed_principal_aux", ("calls", "s")),
        ("generators.block_hs_term", ("calls", "s")),
        ("generators.block_aux_term", ("calls", "s")),
        ("generators.block_dissipator_term", ("calls", "s")),
        ("generators.block_meas_term", ("calls", "s")),
        ("generators.assemble_joint_operators", ("calls", "s")),
        ("generators.gksl_rhs", ("calls", "s")),
        ("generators.joint_sme_meas", ("calls", "s")),
        ("integrators.em_step_joint", ("calls", "self_s")),
        ("integrators.em_step_blocks", ("calls", "self_s")),
        ("integrators.rk4_step_qme", ("calls", "s")),
        ("integrators.noise", ("s",)),
        ("verify.crosscheck_paths", ("s",)),
    ):
        for kind in kinds:
            m[f"{name}.{kind}"] = (per_cmd(name, kind), "count" if kind == "calls" else "s")
    m["cli.output.bytes"] = (per_cmd("cli.output", "bytes"), "B")
    gksl = sp("generators.gksl_rhs")
    m["generators.gksl_rhs.gflops"] = (gksl["flops"] / gksl["s"] / 1e9 if gksl["s"] else 0.0,
                                       "GFLOP/s")
    steps = [s for name in STEP_SPANS for s in sp(name)["samples"]]
    p50, p99 = np.percentile(steps, [50, 99]) * 1e3 if steps else (0.0, 0.0)
    m["integrators.step_ms.p50"] = (float(p50), "ms")
    m["integrators.step_ms.p99"] = (float(p99), "ms")
    m["integrators.step_ms.n"] = (len(steps), "count")
    m["integrators.step_size_errors"] = (
        sum(s["errors"].get("StepSizeError", 0) for s in spans.values()), "count")
    cc = "verify.crosscheck_paths"
    m["verify.projection.s"] = ((sp("verify.joint_from_blocks")["by_parent"].get(cc, 0.0)
                                 + sp("linalg.fro_dist")["by_parent"].get(cc, 0.0)) / k, "s")
    m["verify.ensemble.batched_self_s"] = (per_cmd("verify.ensemble.batched", "self_s"), "s")
    m["verify.ensemble.qme_ref_s"] = (
        sp("integrators.solve_qme")["by_parent"].get("verify.ensemble_average", 0.0) / k, "s")
    m["verify.ensemble.state_bytes"] = (per_cmd("verify.ensemble.batched", "bytes"), "B")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nmembed" / "cli.py").is_file():
        print(f"no nmembed sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, work)
        result = run.per_layer(args.seconds) if args.trace else run.end_to_end(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
