"""Seeded workload configs for the nmembed benchmark and the checks on
their outputs.

Every config is a plain JSON document in the CLI's schema, drawn from a
Philox stream keyed by the workload seed, so one seed always yields the
same bytes.  The program under test only ever sees the written JSON.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DT = 1e-3


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed % 2 ** 64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mat(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _hermitian(rng, d, scale):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (x + x.conj().T) / 2


def _operator(rng, d, scale):
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)


def _segments(mats, every_steps):
    """Piecewise-constant operator with a breakpoint every ``every_steps``
    steps, each start time written as the decimal a user would type."""
    return {"segments": [{"t": round(k * every_steps * DT, 9), "matrix": _mat(m)}
                         for k, m in enumerate(mats)]}


def _random_baths(rng, d_s, d_aux, scale):
    """One interconnection (L1) and one auxiliary-only (L2) coupling per bath."""
    return [{
        "H_a": _mat(_hermitian(rng, dl, scale)),
        "H_sa": _mat(_hermitian(rng, d_s * dl, scale)),
        "L1": [_mat(_operator(rng, d_s * dl, scale))],
        "L2": [_mat(_operator(rng, dl, scale))],
    } for dl in d_aux]


def _mixed(d):
    return _mat(np.eye(d) / d)


SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def crosscheck_config(seed: int) -> dict:
    """The cross-check fixture's shape: qubit (x) (2, 3), one L1 and one L2
    per bath, sigma-minus probe, amplitude measurement, maximally mixed start."""
    rng = _rng(seed, 1)
    d_aux = (2, 3)
    return {
        "model": {
            "dims": {"principal": 2, "aux": list(d_aux)},
            "H_s": _mat(_hermitian(rng, 2, 0.5)),
            "probe": _mat(SIGMA_MINUS),
            "baths": _random_baths(rng, 2, d_aux, 0.5),
        },
        "init": {"principal": _mixed(2), "aux": [_mixed(d) for d in d_aux]},
        "sim": {"dt": DT, "t_end": 0.2, "scheme": "euler-maruyama",
                "measurement": "amplitude", "seed": int(rng.integers(2 ** 31)),
                "snapshot_stride": 10},
        "run": {"representation": "blocks"},
    }


def sme_joint_config(seed: int) -> dict:
    """qubit (x) (2,)^5 (D=64) joint-route trajectory; H_s and the probe
    change every 10 and 8 steps respectively; phase quadrature."""
    rng = _rng(seed, 2)
    d_aux = (2,) * 5
    n_steps = 160
    h_segs = [_hermitian(rng, 2, 0.5) for _ in range(n_steps // 10)]
    probe_segs = [math.sqrt(rng.uniform(0.5, 1.5)) * SIGMA_MINUS for _ in range(n_steps // 8)]
    return {
        "model": {
            "dims": {"principal": 2, "aux": list(d_aux)},
            "H_s": _segments(h_segs, 10),
            "probe": _segments(probe_segs, 8),
            "baths": _random_baths(rng, 2, d_aux, 0.3),
        },
        "init": {"principal": _mixed(2), "aux": [_mixed(d) for d in d_aux]},
        "sim": {"dt": DT, "t_end": round(n_steps * DT, 9), "scheme": "euler-maruyama",
                "measurement": "phase", "seed": int(rng.integers(2 ** 31)),
                "snapshot_stride": 10},
        "run": {"representation": "joint"},
    }


def ensemble_config(seed: int) -> dict:
    """Qubit cascade (D=4): drive and decay rates drawn around the shipped
    fixture's values, excited principal, auxiliary in its ground state."""
    rng = _rng(seed, 3)
    omega = rng.uniform(0.7, 1.3)
    kappa_s, kappa_a = rng.uniform(0.3, 0.7), rng.uniform(0.7, 1.3)
    ground = np.diag([0.0, 1.0])
    return {
        "model": {
            "cascade": {
                "H_s": _mat(0.5 * omega * SIGMA_X),
                "L_s": _mat(math.sqrt(kappa_s) * SIGMA_MINUS),
                "H_a": _mat(0.5 * rng.uniform(-0.5, 0.5) * SIGMA_Z),
                "L_a": _mat(math.sqrt(kappa_a) * SIGMA_MINUS),
            },
            "probe": _mat(SIGMA_MINUS),
        },
        "init": {"principal": _mat(np.diag([1.0, 0.0])), "aux": [_mat(ground)]},
        "sim": {"dt": DT, "t_end": 1.0, "scheme": "euler-maruyama",
                "measurement": "amplitude", "seed": int(rng.integers(2 ** 31)),
                "snapshot_stride": 10},
        # N=500 fits about eight commands into a run; at N=1000 a command
        # takes over twice as long, ~600k of its page faults from the
        # allocator returning and refetching the (N, 4, 4) temporaries.
        "run": {"representation": "joint", "trajectories": 500},
    }


def n_steps(doc: dict) -> int:
    return round(doc["sim"]["t_end"] / doc["sim"]["dt"])


# ---------------------------------------------------------------------------
# Output checks: each returns (problems, sha256 of the command's output)
# ---------------------------------------------------------------------------


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)
    return h.hexdigest()


def check_crosscheck(doc: dict, stdout: bytes, outdir: Path):
    lines = [ln for ln in stdout.decode().splitlines() if ln.strip()]
    problems = [f"not PASS: {ln}" for ln in lines if not ln.startswith("PASS")]
    if not lines:
        problems.append("no check lines printed")
    return problems, _sha(stdout)


def check_sme(doc: dict, stdout: bytes, outdir: Path):
    path = outdir / "sme.csv"
    if not path.exists():
        return ["sme.csv missing"], ""
    raw = path.read_bytes()
    rows = list(csv.reader(raw.decode().splitlines()))
    problems = []
    if rows[0] != ["t", "dY", "dI", "mval"]:
        problems.append(f"header {rows[0]}")
    body = rows[1:]
    if len(body) != n_steps(doc):
        problems.append(f"{len(body)} rows, expected {n_steps(doc)}")
    dt = float(doc["sim"]["dt"])
    for i, row in enumerate(body):
        t, dY, dI, mval = (float(x) for x in row)
        if not all(math.isfinite(v) for v in (t, dY, dI, mval)):
            problems.append(f"row {i}: non-finite value")
        elif dY != mval * dt + dI:
            problems.append(f"row {i}: dY != mval*dt + dI")
        if len(problems) > 5:
            break
    return problems, _sha(raw)


def check_ensemble(doc: dict, stdout: bytes, outdir: Path):
    csv_path, summ_path = outdir / "ensemble.csv", outdir / "ensemble_summary.json"
    if not (csv_path.exists() and summ_path.exists()):
        return ["ensemble outputs missing"], ""
    raw_csv, raw_summ = csv_path.read_bytes(), summ_path.read_bytes()
    rows = list(csv.DictReader(raw_csv.decode().splitlines()))
    names = [k[len("mean_"):] for k in rows[0] if k.startswith("mean_")]
    worst = max(abs(float(r[f"mean_{n}"]) - float(r[f"qme_{n}"])) / float(r[f"stderr_{n}"])
                for r in rows for n in names)
    summary = json.loads(raw_summ)
    N, t_end = doc["run"]["trajectories"], doc["sim"]["t_end"]
    band = 5.0 * math.sqrt(t_end / N)
    problems = []
    if not worst < 5.0:
        problems.append(f"max |mean-qme|/stderr {worst:.3g} >= 5")
    if not abs(summary["innovations_mean"]) < band:
        problems.append(f"innovations mean {summary['innovations_mean']:.3g} outside {band:.3g}")
    if summary["trajectories"] != N:
        problems.append(f"summary reports {summary['trajectories']} trajectories")
    return problems, _sha(raw_csv, raw_summ)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_config: Callable[[int], dict]
    check: Callable

    def steps(self, doc: dict) -> int:
        """Trajectory-steps per command: one shared-path step counts once;
        an ensemble counts N x n_steps."""
        trajectories = doc["run"]["trajectories"] if self.command == "ensemble" else 1
        return trajectories * n_steps(doc)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("crosscheck-d12", "crosscheck", crosscheck_config, check_crosscheck),
    Workload("sme-joint-d64", "sme", sme_joint_config, check_sme),
    Workload("ensemble-d4", "ensemble", ensemble_config, check_ensemble),
)}


def config_bytes(workload: str, seed: int) -> bytes:
    return json.dumps(WORKLOADS[workload].make_config(seed), sort_keys=True).encode()
