"""End-to-end acceptance gate.

Each test exercises one of the seven headline guarantees at its stated
tolerance and prints a single PASS/FAIL line (visible with ``pytest -s``).
"""

import json
import time

import numpy as np
import pytest

from nmembed.cli import main
from nmembed.generators import (
    BlockState,
    JointState,
    assemble_joint_operators,
    block_meas_term,
    block_qme_rhs,
    collapsed_principal_ops,
    gksl_rhs,
    joint_sme_meas,
)
from nmembed.integrators import SimConfig, rk4_combine, simulate_trajectory, solve_qme
from nmembed.linalg import fro_dist, psd_check
from nmembed.model import cascade_embedding, direct_embedding
from nmembed.verify import (
    blocks_from_joint,
    closed_system_oracle,
    crosscheck_paths,
    ensemble_average,
    joint_from_blocks,
    project_blocks,
    random_block_state,
    random_model,
    standard_fixture,
)

from conftest import KET_E, KET_G, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, aux_sign_fault


def _report(num: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, f"acceptance criterion {num} failed: {name}{tail}"


def _cascade_decay_model():
    """Qubit principal driven through a qubit auxiliary cascade, monitored
    through a lowering-operator probe."""
    return cascade_embedding(0.5 * SIGMA_X, np.sqrt(0.5) * SIGMA_MINUS,
                             np.zeros((2, 2)), SIGMA_MINUS, probe=SIGMA_MINUS)


def test_1_generator_projection_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(50):
        d_s = int(rng.integers(2, 4))
        M = int(rng.integers(1, 3))
        d_aux = tuple(int(rng.integers(1, 4)) for _ in range(M))
        m1 = [int(rng.integers(0, 2)) for _ in range(M)]
        m2 = [int(rng.integers(0, 2)) for _ in range(M)]
        probe = None
        if trial % 2 == 0:
            p = rng.standard_normal((d_s, d_s)) + 1j * rng.standard_normal((d_s, d_s))
            probe = p / np.sqrt(2)
        model = random_model(rng, d_s, d_aux, m1=m1, m2=m2, probe=probe)
        H, Ls, L0 = assemble_joint_operators(model, 0.0)
        for _ in range(10):
            bs = random_block_state(rng, model.dims)
            rho = joint_from_blocks(bs).rho
            dev = np.max(np.abs(block_qme_rhs(model, 0.0, bs)
                                - project_blocks(gksl_rhs(H, Ls, rho), model.dims)))
            worst = max(worst, float(dev))
            if probe is not None:
                for quad in ("amplitude", "phase"):
                    Gb, mb = block_meas_term(model, 0.0, bs, quad)
                    Gj, mj = joint_sme_meas(model, 0.0, JointState(model.dims, rho), quad)
                    dev = max(np.max(np.abs(Gb - project_blocks(Gj, model.dims))),
                              abs(mb - mj))
                    worst = max(worst, float(dev))
    elapsed = time.monotonic() - t0
    _report(1, "generator projection identity",
            worst <= 1e-12 and elapsed <= 60.0,
            f"max entrywise deviation {worst:.3e}, {elapsed:.1f}s")


def test_2_shared_path_sme_equivalence():
    t0 = time.monotonic()
    model, init = standard_fixture()
    cfg = SimConfig(dt=1e-3, t_end=1.0, scheme="euler-maruyama",
                    measurement="amplitude", seed=42)
    dev = crosscheck_paths(model, init, cfg)
    with aux_sign_fault():
        mutated = crosscheck_paths(model, init, cfg)
    elapsed = time.monotonic() - t0
    _report(2, "shared-path joint/block equivalence",
            dev <= 1e-10 and mutated > 1e-3 and elapsed <= 30.0,
            f"deviation {dev:.3e}, sign-flip mutation {mutated:.3e}, {elapsed:.1f}s")


def test_3_trivial_auxiliary_collapse():
    rng = np.random.default_rng(3)
    model = random_model(rng, 2, (1, 1), probe=SIGMA_MINUS)
    rho0 = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]], dtype=complex)
    init = BlockState(model.dims, rho0.reshape(1, 1, 2, 2).copy())
    cfg = SimConfig(dt=1e-3, t_end=0.2, scheme="rk4", measurement="none", seed=0)
    series = solve_qme(model, init, cfg)

    # reference: direct GKSL RK4 on the principal alone, same arithmetic path
    H_eff, Ls = collapsed_principal_ops(model, 0.0)
    rho = rho0.copy()
    refs = []
    for i in range(cfg.n_steps):
        k1 = gksl_rhs(H_eff, Ls, rho)
        k2 = gksl_rhs(H_eff, Ls, rho + 0.5 * cfg.dt * k1)
        k3 = gksl_rhs(H_eff, Ls, rho + 0.5 * cfg.dt * k2)
        k4 = gksl_rhs(H_eff, Ls, rho + cfg.dt * k3)
        rho = rk4_combine(rho, cfg.dt, k1, k2, k3, k4)
        refs.append(rho.copy())
    identical = all(np.array_equal(bs.blocks[0, 0], refs[round(t / cfg.dt) - 1])
                    for t, bs, _ in series[1:])
    _report(3, "trivial-auxiliary collapse is bitwise exact", identical,
            f"{len(series) - 1} steps compared")


def test_4_closed_system_exchange():
    g = 1.0
    h_sa = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    model = direct_embedding(np.zeros((2, 2)), np.zeros((2, 2)), h_sa,
                             np.zeros((2, 2)))
    bath = model.baths[0]
    model = type(model)(dims=model.dims, H_s=model.H_s,
                        baths=(type(bath)(H_a=bath.H_a, H_sa=bath.H_sa),))
    init = BlockState.from_product(model.dims, KET_E, (KET_G,))
    cfg = SimConfig(dt=1e-3, t_end=1.0, scheme="rk4", measurement="none",
                    seed=0, snapshot_stride=100)
    series = solve_qme(model, init, cfg)
    times = [t for t, _, _ in series]
    oracle = closed_system_oracle(model, joint_from_blocks(init), times)
    dev_oracle = max(fro_dist(red, ref) for (_, _, red), ref in zip(series, oracle))
    dev_cos = max(abs(red[0, 0].real - np.cos(g * t) ** 2) for t, _, red in series)
    _report(4, "closed exchange model vs matrix-exponential oracle",
            dev_oracle <= 1e-8 and dev_cos <= 1e-8,
            f"oracle deviation {dev_oracle:.3e}, cos² deviation {dev_cos:.3e}")


def test_5_sme_qme_ensemble_consistency():
    t0 = time.monotonic()
    model = _cascade_decay_model()
    init = BlockState.from_product(model.dims, KET_E, (KET_G,))
    N = 4000
    cfg = SimConfig(dt=1e-3, t_end=1.0, scheme="euler-maruyama",
                    measurement="amplitude", seed=20230815, snapshot_stride=100)
    summary = ensemble_average(model, init, cfg, N, n_checkpoints=10)
    worst_pull = max(
        float(np.max(np.abs(summary.mean_obs[n] - summary.qme_obs[n])
                     / summary.stderr_obs[n]))
        for n in ("sx", "sy", "sz")
    )
    innov_band = 5.0 * np.sqrt(cfg.t_end / N)
    elapsed = time.monotonic() - t0
    _report(5, "ensemble mean vs master-equation reference",
            worst_pull < 5.0 and abs(summary.innovations_mean) < innov_band
            and elapsed <= 300.0,
            f"max |mean-qme|/stderr {worst_pull:.2f}, innovations mean "
            f"{summary.innovations_mean:.4f} (band {innov_band:.4f}), {elapsed:.1f}s")


def test_6_state_validity_throughout():
    # monitored trajectories on both fixtures: trace, pairing, assembled PSD
    worst_tr, worst_pair, worst_eig = 0.0, 0.0, np.inf
    runs = [standard_fixture()]
    cascade = _cascade_decay_model()
    runs.append((cascade, BlockState.from_product(cascade.dims, KET_E, (KET_G,))))
    cfg = SimConfig(dt=1e-3, t_end=1.0, scheme="euler-maruyama",
                    measurement="amplitude", seed=42, snapshot_stride=10)
    for model, init in runs:
        rec = simulate_trajectory(model, init, cfg)
        for bs in rec.snapshots:
            worst_tr = max(worst_tr, abs(bs.total_trace() - 1.0))
            worst_pair = max(worst_pair, bs.pairing_defect())
            _, mn = psd_check(joint_from_blocks(bs).rho, tol=np.inf)
            worst_eig = min(worst_eig, mn)
    # deterministic route: trace drift of the unrenormalized RK4 series
    model, init = standard_fixture()
    qme_cfg = SimConfig(dt=1e-3, t_end=1.0, scheme="rk4", measurement="none",
                        seed=0, snapshot_stride=10)
    drift = max(abs(bs.total_trace() - 1.0) for _, bs, _ in solve_qme(model, init, qme_cfg))
    _report(6, "state validity throughout",
            worst_tr <= 1e-9 and worst_pair <= 1e-9 and worst_eig >= -1e-8
            and drift <= 1e-9,
            f"trace {worst_tr:.2e}, pairing {worst_pair:.2e}, "
            f"min eigenvalue {worst_eig:.2e}, qme trace drift {drift:.2e}")


def test_7_determinism_byte_identical(tmp_path):
    def mat(m):
        m = np.asarray(m, dtype=complex)
        return [[[v.real, v.imag] for v in row] for row in m]

    doc = {
        "model": {
            "cascade": {
                "H_s": mat(0.5 * SIGMA_X),
                "L_s": mat(np.sqrt(0.5) * SIGMA_MINUS),
                "H_a": mat(np.zeros((2, 2))),
                "L_a": mat(SIGMA_MINUS),
            },
            "probe": mat(SIGMA_MINUS),
        },
        "init": {"principal": mat(KET_E), "aux": [mat(KET_G)]},
        "sim": {"dt": 1e-3, "t_end": 0.5, "scheme": "euler-maruyama",
                "measurement": "amplitude", "seed": 11, "snapshot_stride": 50},
        "run": {"trajectories": 50},
    }
    src = tmp_path / "config.json"
    src.write_text(json.dumps(doc))
    outputs = {}
    for cmd, tweak in (("sme", {}),
                       ("ensemble", {}),
                       ("qme", {"scheme": "rk4", "measurement": "none"})):
        doc["sim"].update({"dt": 1e-3, "t_end": 0.5, "scheme": "euler-maruyama",
                           "measurement": "amplitude"})
        doc["sim"].update(tweak)
        src.write_text(json.dumps(doc))
        pair = []
        for rep in ("a", "b"):
            out = tmp_path / f"{cmd}-{rep}"
            assert main([cmd, "--config", str(src), "--out", str(out), "--quiet"]) == 0
            pair.append(sorted(f.read_bytes() for f in out.iterdir()))
        outputs[cmd] = pair[0] == pair[1]
    ok = all(outputs.values())
    _report(7, "seeded commands are byte-identical across runs", ok,
            ", ".join(f"{c}: {'same' if v else 'DIFFERS'}" for c, v in outputs.items()))
