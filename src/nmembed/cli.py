"""Command-line front end: JSON experiment configs in, CSV series out.

Commands, and what each needs of a config that ``validate`` accepts
-------------------------------------------------------------------
validate    nothing more; may write the normalized config (--emit-normalized)
qme         sim.scheme rk4 -> qme.csv, block master-equation observables
sme         sim.scheme euler-maruyama -> sme.csv, one trajectory's t, dY, dI, mval
ensemble    monitored, t_end/dt a positive multiple of 10, observables -> CSV + summary
crosscheck  nothing more; adds the closed-system oracle where verify.oracle_gaps is empty

ensemble and crosscheck run Euler-Maruyama trajectories and an RK4 reference
or oracle whatever sim.scheme names.

Exit codes: 0 success; 1 config errors, one located line each, found by
:func:`parse_config` or by the library function that runs the command; 2
runtime failure (including an --out directory that cannot be created).

Config schema (JSON): complex scalars are two-element [re, im] arrays and
matrices are row-major nested arrays of them.  An operator is either a bare
matrix (constant) or {"segments": [{"t": 0.0, "matrix": [...]}, ...]}; every
segment start t must be a multiple of sim.dt.

    {
      "model": {
        "dims": {"principal": 2, "aux": [2, 3]},
        "H_s": OP,
        "probe": OP | null,
        "baths": [{"H_a": OP, "H_sa": OP, "L1": [OP, ...], "L2": [OP, ...]}],
        "cascade": {"H_s": OP, "L_s": OP, "H_a": OP, "L_a": OP}   # shorthand
      },
      "init": {"principal": MATRIX, "aux": [MATRIX, ...]},
      "sim": {"dt": 1e-3, "t_end": 1.0, "scheme": "euler-maruyama",
              "measurement": "amplitude", "seed": 1, "snapshot_stride": 10},
      "run": {"trajectories": 4000, "representation": "blocks",
              "observables": {"sz": MATRIX, ...}}
    }

A model gives either "cascade" (expanded via the cascade embedding; "dims"
and the explicit bath fields must then be absent) or the explicit form.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .generators import BlockState
from .integrators import (
    ConfigError,
    SimConfig,
    finite_real,
    integer,
    simulate_trajectory,
    solve_qme,
)
from .linalg import HERM_ATOL, SubsystemDims, fro_dist, herm_defect, partial_trace, psd_check
from .model import (
    CompoundBath,
    EmbeddingModel,
    TimedOperator,
    cascade_embedding,
    grid_index,
    validate,
)
from .verify import (
    closed_system_oracle,
    crosscheck_paths,
    ensemble_average,
    joint_from_blocks,
    oracle_gaps,
    pauli_observables,
)


@dataclass
class RunOptions:
    trajectories: int = 100
    representation: str = "blocks"
    observables: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    model: EmbeddingModel
    init: BlockState
    sim: SimConfig
    run: RunOptions
    source: dict  # the parsed JSON document


class _Collector:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []
        # every parsed time-dependent operator, by config path, for the
        # breakpoint grid check once sim.dt is known
        self.operators: list[tuple[str, TimedOperator]] = []

    def add(self, path, reason):
        self.errors.append((path, reason))


def _parse_matrix(node, path, errs):
    if not isinstance(node, list) or not node or not all(isinstance(r, list) for r in node):
        errs.add(path, "matrix must be a non-empty list of rows")
        return None
    try:
        rows = []
        for r in node:
            row = []
            for entry in r:
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise ValueError("entry is not an [re, im] pair")
                if not all(finite_real(v) for v in entry):
                    raise ValueError(f"entry {entry!r} is not a pair of finite numbers")
                row.append(complex(*entry))
            rows.append(row)
        m = np.array(rows, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        errs.add(path, f"malformed matrix: {exc}")
        return None
    if m.ndim != 2 or any(len(r) != m.shape[1] for r in node):
        errs.add(path, "ragged matrix rows")
        return None
    return m


def _parse_operator(node, path, errs):
    if isinstance(node, dict):
        segs = node.get("segments")
        if not isinstance(segs, list) or not segs:
            errs.add(path, "operator object needs a non-empty 'segments' list")
            return None
        parsed = []
        for i, seg in enumerate(segs):
            if not isinstance(seg, dict) or "t" not in seg or "matrix" not in seg:
                errs.add(f"{path}.segments[{i}]", "segment needs 't' and 'matrix'")
                return None
            t = seg["t"]
            if not finite_real(t):
                errs.add(f"{path}.segments[{i}].t", f"must be a finite number, got {t!r}")
                return None
            m = _parse_matrix(seg["matrix"], f"{path}.segments[{i}].matrix", errs)
            if m is None:
                return None
            parsed.append((float(t), m))
        try:
            op = TimedOperator(tuple(parsed))
        except ValueError as exc:
            errs.add(path, str(exc))
            return None
        errs.operators.append((path, op))
        return op
    m = _parse_matrix(node, path, errs)
    return None if m is None else TimedOperator.constant(m)


def _parse_model(node, errs) -> EmbeddingModel | None:
    if not isinstance(node, dict):
        errs.add("model", "must be an object")
        return None
    if "cascade" in node:
        extra = sorted(set(node) & {"dims", "baths", "H_s"})
        if extra:
            errs.add("model", f"cascade shorthand excludes {extra}")
            return None
        c = node["cascade"]
        if not isinstance(c, dict):
            errs.add("model.cascade", "must be an object")
            return None
        ops = {}
        for key in ("H_s", "L_s", "H_a", "L_a"):
            if key not in c:
                errs.add(f"model.cascade.{key}", "missing")
                continue
            ops[key] = _parse_operator(c[key], f"model.cascade.{key}", errs)
        probe = None
        if node.get("probe") is not None:
            probe = _parse_operator(node["probe"], "model.probe", errs)
        if len(ops) < 4 or any(v is None for v in ops.values()):
            return None
        try:
            model = cascade_embedding(ops["H_s"], ops["L_s"], ops["H_a"], ops["L_a"],
                                      probe=probe)
        except ValueError as exc:
            errs.add("model.cascade", str(exc))
            return None
        _add_violations(model, errs)
        return model
    dims_node = node.get("dims")
    if not isinstance(dims_node, dict):
        errs.add("model.dims", "missing or not an object")
        return None
    principal, aux = dims_node.get("principal"), dims_node.get("aux", [])
    bad = [] if integer(principal) else [
        ("model.dims.principal", f"must be an integer, got {principal!r}")]
    if isinstance(aux, list):
        bad += [(f"model.dims.aux[{k}]", f"must be an integer, got {d!r}")
                for k, d in enumerate(aux) if not integer(d)]
    else:
        bad.append(("model.dims.aux", f"must be a list of integers, got {aux!r}"))
    for where, reason in bad:
        errs.add(where, reason)
    if bad:
        return None
    try:
        dims = SubsystemDims(principal, tuple(aux))
    except ValueError as exc:
        errs.add("model.dims", str(exc))
        return None
    H_s = _parse_operator(node.get("H_s"), "model.H_s", errs) if "H_s" in node else None
    if H_s is None:
        if "H_s" not in node:
            errs.add("model.H_s", "missing")
        return None
    probe = None
    if node.get("probe") is not None:
        probe = _parse_operator(node["probe"], "model.probe", errs)
    baths = []
    baths_node = node.get("baths", [])
    if not isinstance(baths_node, list):
        errs.add("model.baths", "must be a list of bath objects")
        return None
    if len(baths_node) != dims.n_baths:
        errs.add("model.baths", f"{len(baths_node)} baths for {dims.n_baths} aux dims")
        return None
    for i, bn in enumerate(baths_node):
        tag = f"model.baths[{i}]"
        if not isinstance(bn, dict):
            errs.add(tag, "must be an object")
            return None
        H_a = _parse_operator(bn.get("H_a"), f"{tag}.H_a", errs) if "H_a" in bn else None
        H_sa = _parse_operator(bn.get("H_sa"), f"{tag}.H_sa", errs) if "H_sa" in bn else None
        for key, v in (("H_a", H_a), ("H_sa", H_sa)):
            if key not in bn:
                errs.add(f"{tag}.{key}", "missing")
        couplings = {}
        for key in ("L1", "L2"):
            ops = bn.get(key, [])
            if not isinstance(ops, list):
                errs.add(f"{tag}.{key}", f"must be a list of operators, got {ops!r}")
                return None
            couplings[key] = [_parse_operator(x, f"{tag}.{key}[{k}]", errs)
                              for k, x in enumerate(ops)]
        L1, L2 = couplings["L1"], couplings["L2"]
        if H_a is None or H_sa is None or any(x is None for x in L1 + L2):
            return None
        baths.append(CompoundBath(H_a=H_a, H_sa=H_sa, L1=tuple(L1), L2=tuple(L2)))
    model = EmbeddingModel(dims=dims, H_s=H_s, baths=tuple(baths), probe=probe)
    _add_violations(model, errs)
    return model


def _add_violations(model: EmbeddingModel, errs):
    for v in validate(model):
        errs.add(v.where, f"{v.check}: {v.detail} (segment {v.segment})")


def _density_problem(m, d) -> str | None:
    """Why m is not a d-dimensional density matrix (its trace aside), or
    None."""
    if m.shape != (d, d):
        return f"shape {m.shape}, expected {(d, d)}"
    if (defect := herm_defect(m)) > HERM_ATOL:
        return f"not hermitian (defect {defect:.3e})"
    ok, mn = psd_check(m)
    return None if ok else f"not positive semidefinite (min eigenvalue {mn:.3e})"


def _parse_init(node, model, errs) -> BlockState | None:
    if model is None:
        return None
    if not isinstance(node, dict) or "principal" not in node:
        errs.add("init", "needs 'principal' (and one 'aux' matrix per bath)")
        return None
    rho_s = _parse_matrix(node["principal"], "init.principal", errs)
    aux_nodes = node.get("aux", [])
    if not isinstance(aux_nodes, list):
        errs.add("init.aux", "must be a list of matrices, one per bath")
        return None
    if len(aux_nodes) != model.dims.n_baths:
        errs.add("init.aux", f"{len(aux_nodes)} auxiliary states for {model.dims.n_baths} baths")
        return None
    auxs = [_parse_matrix(a, f"init.aux[{i}]", errs) for i, a in enumerate(aux_nodes)]
    if rho_s is None or any(a is None for a in auxs):
        return None
    paths = ["init.principal"] + [f"init.aux[{i}]" for i in range(len(auxs))]
    problems = [(path, why) for path, m, d in zip(paths, [rho_s] + auxs, model.dims.factors)
                if (why := _density_problem(m, d))]
    if problems:
        errs.errors += problems
        return None
    bs = BlockState.from_product(model.dims, rho_s, auxs)
    tr = bs.total_trace()
    if abs(tr - 1.0) > 1e-9:
        errs.add("init", f"total trace {tr:.12g} != 1")
    return bs


def _parse_sim(node, errs) -> SimConfig | None:
    if not isinstance(node, dict):
        errs.add("sim", "must be an object")
        return None
    fields = {k: node.get(k, v) for k, v in (
        ("dt", 0.0), ("t_end", 0.0), ("scheme", "euler-maruyama"), ("measurement", "none"),
        ("seed", 0), ("snapshot_stride", 1))}
    try:
        return SimConfig(**fields)
    except ConfigError as exc:
        errs.errors += exc.errors
        return None


def _check_breakpoints(sim: SimConfig, errs):
    """Every segment must start on the dt grid: integrators switch operators
    at step round(t/dt)."""
    for path, op in errs.operators:
        for i, (t, _) in enumerate(op.segments):
            if grid_index(t, sim.dt) is None:
                errs.add(f"{path}.segments[{i}].t",
                         f"breakpoint {t!r} is not a multiple of sim.dt = {sim.dt!r}")


def _parse_run(node, model, errs) -> RunOptions:
    node = {} if node is None else node
    opts = RunOptions()
    if not isinstance(node, dict):
        errs.add("run", "must be an object")
        return opts
    n = node.get("trajectories", opts.trajectories)
    if not integer(n):
        errs.add("run.trajectories", f"must be an integer, got {n!r}")
    elif n < 2:
        errs.add("run.trajectories", f"must be >= 2, got {n}")
    else:
        opts.trajectories = n
    opts.representation = node.get("representation", opts.representation)
    if opts.representation not in ("blocks", "joint"):
        errs.add("run.representation", f"unknown value {opts.representation!r}")
    obs_node = node.get("observables")
    if obs_node is not None and not isinstance(obs_node, dict):
        errs.add("run.observables", "must be an object of named matrices")
    elif obs_node:
        for name, m in obs_node.items():
            parsed = _parse_matrix(m, f"run.observables.{name}", errs)
            if parsed is not None:
                if model is not None and parsed.shape != (model.dims.principal,) * 2:
                    errs.add(f"run.observables.{name}", "wrong shape for the principal")
                else:
                    opts.observables[name] = parsed
    elif model is not None and model.dims.principal == 2:
        opts.observables = pauli_observables(2)
    return opts


def parse_config(path) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment config.

    Raises :class:`ConfigError` carrying every located problem.
    """
    errs = _Collector()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError([("<file>", str(exc))]) from exc
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, an int too long to convert
        raise ConfigError([("<file>", f"malformed JSON: {exc}")]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([("<file>", "top level must be a JSON object")])
    model = _parse_model(doc.get("model"), errs) if "model" in doc else None
    if "model" not in doc:
        errs.add("model", "missing")
    sim = _parse_sim(doc.get("sim", {}), errs)
    init = _parse_init(doc.get("init"), model, errs) if "init" in doc else None
    if "init" not in doc:
        errs.add("init", "missing")
    run = _parse_run(doc.get("run"), model, errs)
    if sim is not None:
        _check_breakpoints(sim, errs)
        if model is not None and sim.measurement != "none" and model.probe is None:
            errs.add("sim.measurement", f"{sim.measurement!r} needs a probe: the model has none")
    if errs.errors:
        raise ConfigError(errs.errors)
    return ExperimentConfig(model=model, init=init, sim=sim, run=run, source=doc)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the float exactly."""
    return repr(float(x))


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _matrix_json(m: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _operator_json(op: TimedOperator):
    return {"segments": [{"t": t, "matrix": _matrix_json(m)} for t, m in op.segments]}


def emit_normalized(cfg: ExperimentConfig) -> dict:
    """Normalized config: cascade shorthand expanded, operators in segment form."""
    m = cfg.model
    out_model = {
        "dims": {"principal": m.dims.principal, "aux": list(m.dims.aux)},
        "H_s": _operator_json(m.H_s),
        "probe": None if m.probe is None else _operator_json(m.probe),
        "baths": [
            {
                "H_a": _operator_json(b.H_a),
                "H_sa": _operator_json(b.H_sa),
                "L1": [_operator_json(x) for x in b.L1],
                "L2": [_operator_json(x) for x in b.L2],
            }
            for b in m.baths
        ],
    }
    doc = cfg.source
    return {"model": out_model, "init": doc.get("init"), "sim": doc.get("sim"),
            "run": doc.get("run")}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(cfg: ExperimentConfig, args, outdir: Path) -> int:
    if not args.quiet:
        print(f"config ok: principal dim {cfg.model.dims.principal}, "
              f"{cfg.model.n_baths} bath(s), probe "
              f"{'present' if cfg.model.probe is not None else 'absent'}")
    if args.emit_normalized:
        norm = emit_normalized(cfg)
        dest = Path(args.emit_normalized)
        with open(dest, "w") as fh:
            json.dump(norm, fh, indent=1, sort_keys=True)
        if not args.quiet:
            print(f"normalized config written to {dest}")
    return 0


def _cmd_qme(cfg: ExperimentConfig, args, outdir: Path) -> int:
    series = solve_qme(cfg.model, cfg.init, cfg.sim)
    names = list(cfg.run.observables)
    rows = [
        [t] + [float(np.trace(cfg.run.observables[n] @ red).real) for n in names]
        for t, _, red in series
    ]
    _write_csv(outdir / "qme.csv", ["t"] + names, rows)
    if not args.quiet:
        print(f"wrote {outdir / 'qme.csv'} ({len(rows)} rows)")
    return 0


def _cmd_sme(cfg: ExperimentConfig, args, outdir: Path) -> int:
    init = cfg.init if cfg.run.representation == "blocks" else joint_from_blocks(cfg.init)
    rec = simulate_trajectory(cfg.model, init, cfg.sim, cfg.run.representation)
    if rec.dY.size:
        rows = zip(rec.times, rec.dY, rec.dI, rec.mvals)
        _write_csv(outdir / "sme.csv", ["t", "dY", "dI", "mval"], rows)
    else:
        _write_csv(outdir / "sme.csv", ["t"], ([t] for t in rec.times))
    if not args.quiet:
        print(f"wrote {outdir / 'sme.csv'} ({rec.times.size} rows, seed {rec.seed})")
    return 0


def _cmd_ensemble(cfg: ExperimentConfig, args, outdir: Path) -> int:
    summ = ensemble_average(cfg.model, cfg.init, cfg.sim, cfg.run.trajectories,
                            cfg.run.observables, representation=cfg.run.representation)
    names = list(summ.mean_obs)
    header = ["t"]
    for n in names:
        header += [f"mean_{n}", f"stderr_{n}", f"qme_{n}"]
    rows = []
    for i, t in enumerate(summ.checkpoints):
        row = [t]
        for n in names:
            row += [summ.mean_obs[n][i], summ.stderr_obs[n][i], summ.qme_obs[n][i]]
        rows.append(row)
    _write_csv(outdir / "ensemble.csv", header, rows)
    summary = {
        "trajectories": summ.N,
        "innovations_mean": summ.innovations_mean,
        "innovations_var": summ.innovations_var,
    }
    with open(outdir / "ensemble_summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    if not args.quiet:
        print(f"wrote {outdir / 'ensemble.csv'} and ensemble_summary.json "
              f"(N={summ.N}, innovations mean {summ.innovations_mean:.4g})")
    return 0


def _cmd_crosscheck(cfg: ExperimentConfig, args, outdir: Path) -> int:
    checks = []
    model, init, sim = cfg.model, cfg.init, cfg.sim
    dev = crosscheck_paths(model, init, sim)
    checks.append(("shared-path joint/block deviation", dev, dev <= 1e-10))
    red_dev = fro_dist(init.reduced(), partial_trace(joint_from_blocks(init).rho, model.dims))
    checks.append(("reduced-state identity (diag blocks vs partial trace)", red_dev,
                   red_dev <= 1e-12))
    if not oracle_gaps(model, sim.t_end):
        series = solve_qme(model, init, replace(sim, scheme="rk4", measurement="none"))
        refs = closed_system_oracle(model, joint_from_blocks(init),
                                    [t for t, _, _ in series])
        cdev = max(fro_dist(red, ref) for (_, _, red), ref in zip(series, refs))
        checks.append(("closed-system matrix-exponential oracle", cdev, cdev <= 1e-8))
    all_ok = all(ok for _, _, ok in checks)
    for name, value, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e}")
    return 0 if all_ok else 2


def _config_errors(errors) -> int:
    """Print located config errors; the validation-failure exit code."""
    for path, reason in errors:
        print(f"config error at {path}: {reason}", file=sys.stderr)
    return 1


_COMMANDS = {"validate": _cmd_validate, "qme": _cmd_qme, "sme": _cmd_sme,
             "ensemble": _cmd_ensemble, "crosscheck": _cmd_crosscheck}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nmembed",
        description="Markovian-embedding simulator for non-Markovian open quantum systems",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=".", help="output directory for CSV files")
    parser.add_argument("--seed", type=int, default=None, help="override sim.seed")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--emit-normalized", metavar="PATH", default=None,
                        help="with validate: write the normalized config here")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        return _config_errors(exc.errors)
    if args.seed is not None:
        try:
            cfg.sim = replace(cfg.sim, seed=args.seed)
        except ConfigError as exc:
            return _config_errors(("--seed", reason) for _, reason in exc.errors)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error in {args.command}: cannot create --out directory: {exc}",
              file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, args, outdir)
    except ConfigError as exc:  # a run requirement the config does not meet
        return _config_errors(exc.errors)
    except Exception as exc:  # library failures -> runtime exit code
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
