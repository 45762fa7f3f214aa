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

qme, sme and ensemble create --out only once their run is done, just before
they write to it, so a rejected run leaves no directory behind.  validate and
crosscheck write nothing there and never create it; they only check, up
front, that it could be created (its nearest existing ancestor is a
directory), so that an --out that cannot be created fails every command
alike.

Exit codes: 0 success; 1 config errors, one located line each, found by
:func:`parse_config` or by the library function that runs the command; 2
runtime failure (including an --out directory that cannot be created).

Each config rule has one home, and every rule reports ``(config path,
reason)`` pairs.  This module parses the JSON's shape (objects, lists,
matrices, operator segments on the sim.dt grid, integer dims) and collects
problems.  Every JSON object is read by one rule, :func:`_fields`, from a
table of its fields: a non-object is "must be an object" at its path, a
field not in the table "unknown field" at ``<path>.<key>``, and an absent
field without a default "missing" there.  Every list is read by
:func:`_list_of` and every integer dim and segment start by :func:`_value`.
The library checks the values: :class:`~nmembed.integrators.SimConfig` the
sim fields, :func:`~nmembed.model.operator_problems` the operators'
dimensions and Hermiticity (through :func:`~nmembed.model.validate`, which
also checks the bath count against model.dims, and for the cascade
shorthand through :func:`~nmembed.model.cascade_embedding`),
:func:`~nmembed.linalg.density_problem` each init factor,
:func:`~nmembed.integrators.probe_problems` a monitored run's probe and
:func:`~nmembed.verify.run_problems` the run section (Hermitian observables
among it).  The commands' own library functions raise the same located
errors.

Config schema (JSON): complex scalars are two-element [re, im] arrays and
matrices are row-major nested arrays of them.  An operator is either a bare
matrix (constant) or {"segments": [{"t": 0.0, "matrix": [...]}, ...]}; every
segment start t must be a multiple of sim.dt.  Optional: run and
model.probe (either may be null), the other sim fields and the run fields
(sim.measurement "none", the others SimConfig's and RunOptions'
defaults), and the lists model.dims.aux, model.baths, a bath's L1 and L2
and init.aux (empty).  Every other field below is required, and no other
field is allowed.

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
import errno
import json
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .generators import BlockState
from .integrators import (
    SimConfig,
    finite_real,
    integer,
    probe_problems,
    simulate_trajectory,
    solve_qme,
)
from .linalg import TRACE_ATOL, SubsystemDims, density_problem, fro_dist, partial_trace
from .model import (
    CompoundBath,
    ConfigError,
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
    run_problems,
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
        # sim.dt once sim is valid: every segment start is checked against it
        self.dt: float | None = None
        # the model's dims once known, even if the rest of the model fails:
        # init (aux count, density rule, trace) and the run's observables
        # are checked against them
        self.dims: SubsystemDims | None = None

    def add(self, path, reason):
        self.errors.append((path, reason))


def _fields(node, path, errs, parsers, defaults=()) -> dict | None:
    """The object rule: ``{key: parsers[key](value, "<path>.<key>", errs)}``
    for every key of ``parsers``, an absent key read as if it held
    ``defaults[key]``.  Errors: ``must be an object`` at path (None
    returned), first ``unknown field`` at ``<path>.<key>`` for each key not
    in ``parsers``, and ``missing`` for an absent key without a default
    (read as None)."""
    if not isinstance(node, dict):
        errs.add(path, "must be an object")
        return None
    at = f"{path}." if path else ""
    errs.errors += [(at + k, "unknown field") for k in node if k not in parsers]
    out = {}
    for key, parse in parsers.items():
        if key in node or key in defaults:
            out[key] = parse(node[key] if key in node else defaults[key], at + key, errs)
        else:
            errs.add(at + key, "missing")
            out[key] = None
    return out


def _complete(parsed: dict | None) -> dict | None:
    """``parsed`` if the object and each of its fields parsed, else None."""
    return None if parsed is None or any(v is None for v in parsed.values()) else parsed


def _list_of(parse, what):
    """The list rule: a parser of lists whose items ``parse`` reads at
    ``<path>[k]``; None after ``must be a list of <what>`` (``{!r}`` there
    shows the value) or when an item failed."""
    def parse_list(node, path, errs):
        if not isinstance(node, list):
            errs.add(path, "must be a list of " + what.format(node))
            return None
        items = [parse(x, f"{path}[{k}]", errs) for k, x in enumerate(node)]
        return None if any(x is None for x in items) else items
    return parse_list


def _value(ok, what):
    """The value rule: a parser passing a value for which ``ok`` holds, and
    otherwise None after ``must be <what>, got <repr>``."""
    def parse_value(node, path, errs):
        if ok(node):
            return node
        errs.add(path, f"must be {what}, got {node!r}")
        return None
    return parse_value


def _as_is(node, path, errs):
    return node


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


def _parse_segment(node, path, errs) -> tuple[float, np.ndarray] | None:
    seg = _complete(_fields(node, path, errs, {"t": _value(finite_real, "a finite number"),
                                               "matrix": _parse_matrix}))
    return seg and (float(seg["t"]), seg["matrix"])


def _parse_operator(node, path, errs) -> TimedOperator | None:
    if not isinstance(node, dict):
        m = _parse_matrix(node, path, errs)
        return None if m is None else TimedOperator.constant(m)
    segs = _complete(_fields(node, path, errs,
                             {"segments": _list_of(_parse_segment, "segment objects")}))
    if segs is None:
        return None
    try:
        op = TimedOperator(tuple(segs["segments"]))
    except ValueError as exc:
        errs.add(path, str(exc))
        return None
    # integrators switch operators at step round(t/dt): every start on the grid
    for i, (t, _) in enumerate(op.segments):
        if errs.dt is not None and grid_index(t, errs.dt) is None:
            errs.add(f"{path}.segments[{i}].t",
                     f"breakpoint {t!r} is not a multiple of sim.dt = {errs.dt!r}")
    return op


def _parse_probe(node, path, errs) -> TimedOperator | None:
    return None if node is None else _parse_operator(node, path, errs)


def _parse_model(node, path, errs) -> EmbeddingModel | None:
    """The model in either form: ``cascade`` (and ``probe``) or ``dims``,
    ``H_s``, ``baths`` (and ``probe``).  A malformed probe leaves the model
    built without it, so that the rest of it and ``init`` are still
    checked."""
    if isinstance(node, dict) and "cascade" in node:
        extra = sorted(set(node) & {"dims", "baths", "H_s"})
        f = _fields({k: v for k, v in node.items() if k not in extra}, path, errs,
                    {"probe": _parse_probe, "cascade": _as_is}, {"probe": None})
        if extra:
            errs.add(path, f"cascade shorthand excludes {extra}")
            return None
        ops = _complete(_fields(f["cascade"], f"{path}.cascade", errs,
                                dict.fromkeys(("H_s", "L_s", "H_a", "L_a"), _parse_operator)))
        if ops is None:
            return None
        errs.dims = SubsystemDims(ops["H_s"].dim, (ops["H_a"].dim,))
        try:
            model = cascade_embedding(**ops, probe=f["probe"])
        except ConfigError as exc:
            errs.errors += exc.errors
            return None
    else:
        f = _fields(node, path, errs, {"probe": _parse_probe, "dims": _parse_dims,
                                       "H_s": _parse_operator,
                                       "baths": _list_of(_parse_bath, "bath objects")},
                    {"probe": None, "baths": []})
        if f is None or any(f[k] is None for k in ("dims", "H_s", "baths")):
            return None
        model = EmbeddingModel(**f)
    errs.dims = model.dims
    errs.errors += validate(model)
    return model


def _parse_dims(node, path, errs) -> SubsystemDims | None:
    """The dims, also kept as ``errs.dims``."""
    dim = _value(integer, "an integer")
    f = _complete(_fields(node, path, errs,
                          {"principal": dim, "aux": _list_of(dim, "integers, got {!r}")},
                          {"aux": []}))
    if f is None:
        return None
    try:
        errs.dims = SubsystemDims(f["principal"], tuple(f["aux"]))
    except ValueError as exc:
        errs.add(path, str(exc))
        return None
    return errs.dims


def _parse_bath(node, path, errs) -> CompoundBath | None:
    ops = _list_of(_parse_operator, "operators, got {!r}")
    f = _complete(_fields(node, path, errs, {"H_a": _parse_operator, "H_sa": _parse_operator,
                                             "L1": ops, "L2": ops}, {"L1": [], "L2": []}))
    return f and CompoundBath(**f)


def _parse_init(node, path, errs) -> BlockState | None:
    """The start state.  Its form is checked whether or not the model's
    dims are known; the aux count, the density rule and the trace need
    them."""
    f = _fields(node, path, errs, {"principal": _parse_matrix,
                                   "aux": _list_of(_parse_matrix, "matrices, one per bath")},
                {"aux": []})
    dims = errs.dims
    if f is None or f["aux"] is None or dims is None:
        return None
    rho_s, auxs = f["principal"], f["aux"]
    if len(auxs) != dims.n_baths:
        errs.add(f"{path}.aux", f"{len(auxs)} auxiliary states for {dims.n_baths} baths")
        return None
    if rho_s is None:
        return None
    paths = [f"{path}.principal"] + [f"{path}.aux[{i}]" for i in range(len(auxs))]
    problems = [(where, why) for where, m, d in zip(paths, [rho_s] + auxs, dims.factors)
                if (why := density_problem(m, d))]
    if problems:
        errs.errors += problems
        return None
    bs = BlockState.from_product(dims, rho_s, auxs)
    tr = bs.total_trace()
    if abs(tr - 1.0) > TRACE_ATOL:
        errs.add(path, f"total trace {tr:.12g} != 1")
    return bs


# a run without a measurement is unmonitored
_SIM_DEFAULTS = {**{f.name: f.default for f in fields(SimConfig) if f.default is not MISSING},
                 "measurement": "none"}


def _parse_sim(node, path, errs) -> SimConfig | None:
    """The sim section, checked by :class:`SimConfig`; sets ``errs.dt``."""
    given = _fields(node, path, errs, {f.name: _as_is for f in fields(SimConfig)}, _SIM_DEFAULTS)
    if given is None:
        return None
    # stand-ins for an absent dt or t_end, already "missing": dt = 0 fails
    # only its own check, dropped below, and t_end = 0 is the trivial run, so
    # the other fields and the operators (against dt) are still checked
    absent = {k: 0.0 for k in ("dt", "t_end") if k not in node}
    try:
        sim = SimConfig(**{**given, **absent})
    except ConfigError as exc:
        errs.errors += [(p, r) for p, r in exc.errors if p.removeprefix("sim.") not in absent]
        return None
    errs.dt = sim.dt
    return sim


def _parse_observables(node, path, errs) -> dict:
    """The named matrices that parse; null is none."""
    if node is not None and not isinstance(node, dict):
        errs.add(path, "must be an object of named matrices")
        return {}
    return {name: m for name, x in (node or {}).items()
            if (m := _parse_matrix(x, f"{path}.{name}", errs)) is not None}


def _parse_run(node, path, errs) -> RunOptions:
    """The run section (null is all defaults), parsed, then checked by
    :func:`run_problems`, the observables' shapes once the model's dims are
    known.  Without observables a qubit principal gets the Pauli ones."""
    given = _fields({} if node is None else node, path, errs,
                    {"trajectories": _as_is, "representation": _as_is,
                     "observables": _parse_observables}, vars(RunOptions()))
    if given is None:
        return RunOptions()
    opts, d_s = RunOptions(**given), errs.dims and errs.dims.principal
    if not opts.observables and d_s == 2:
        opts.observables = pauli_observables(2)
    errs.errors += run_problems(opts.trajectories, opts.representation, opts.observables, d_s)
    return opts


def parse_config(path) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment config in one pass, ``sim``
    first so that each operator is checked against ``sim.dt`` as it is read.

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
    top = _fields(doc, "", errs, {"sim": _parse_sim, "model": _parse_model,
                                  "init": _parse_init, "run": _parse_run}, {"run": None})
    model, sim = top["model"], top["sim"]
    # a malformed probe is reported at model.probe only
    if model is not None and sim is not None and doc["model"].get("probe") is None:
        errs.errors += probe_problems(model, sim.measurement)
    if errs.errors:
        raise ConfigError(errs.errors)
    return ExperimentConfig(**top, source=doc)


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


def _out(args) -> Path:
    """The --out directory, created: commands that write there call this
    only once nothing can reject the run."""
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create --out directory: {exc}") from exc
    return outdir


def _check_out(args) -> None:
    """Fail an --out that :func:`_out` could not create, with its error,
    creating nothing: the path's nearest existing ancestor must be a
    directory.  For the commands that write nothing there."""
    outdir = Path(args.out)
    ancestor = next(p for p in (outdir, *outdir.parents) if os.path.lexists(p))
    if not ancestor.is_dir():
        code = errno.EEXIST if ancestor == outdir else errno.ENOTDIR
        raise OSError(f"cannot create --out directory: "
                      f"{OSError(code, os.strerror(code), str(outdir))}")


def _cmd_validate(cfg: ExperimentConfig, args) -> int:
    _check_out(args)
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


def _cmd_qme(cfg: ExperimentConfig, args) -> int:
    series = solve_qme(cfg.model, cfg.init, cfg.sim)
    outdir = _out(args)
    names = list(cfg.run.observables)
    rows = [
        [t] + [float(np.trace(cfg.run.observables[n] @ red).real) for n in names]
        for t, _, red in series
    ]
    _write_csv(outdir / "qme.csv", ["t"] + names, rows)
    if not args.quiet:
        print(f"wrote {outdir / 'qme.csv'} ({len(rows)} rows)")
    return 0


def _cmd_sme(cfg: ExperimentConfig, args) -> int:
    init = cfg.init if cfg.run.representation == "blocks" else joint_from_blocks(cfg.init)
    rec = simulate_trajectory(cfg.model, init, cfg.sim)
    outdir = _out(args)
    if cfg.sim.measurement != "none":
        rows = zip(rec.times, rec.dY, rec.dI, rec.mvals)
        _write_csv(outdir / "sme.csv", ["t", "dY", "dI", "mval"], rows)
    else:
        _write_csv(outdir / "sme.csv", ["t"], ([t] for t in rec.times))
    if not args.quiet:
        print(f"wrote {outdir / 'sme.csv'} ({rec.times.size} rows, seed {rec.seed})")
    return 0


def _cmd_ensemble(cfg: ExperimentConfig, args) -> int:
    summ = ensemble_average(cfg.model, cfg.init, cfg.sim, cfg.run.trajectories,
                            cfg.run.observables, representation=cfg.run.representation)
    outdir = _out(args)
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


def _cmd_crosscheck(cfg: ExperimentConfig, args) -> int:
    _check_out(args)
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
    try:
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:  # a run requirement the config does not meet
        return _config_errors(exc.errors)
    except Exception as exc:  # library failures -> runtime exit code
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
