"""Property tests: mutations of the shipped fixtures (a key dropped, a value
of another type, a matrix resized) are either valid configs or located
config errors; ``nmembed validate`` never raises.  Every command on mutated
fixtures and on a grid of run settings either succeeds, fails with located
config errors (exit 1, leaving no ``--out`` directory) or fails with one
``error in <command>:`` line (exit 2).  ``validate`` and ``crosscheck``
never create their ``--out``; ``sme``, ``qme`` and ``ensemble`` have
created it whenever they exit 0."""

import contextlib
import copy
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest

from nmembed.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FIXTURES = {p.name: json.loads(p.read_text())
            for p in sorted((Path(__file__).parents[1] / "fixtures").glob("*.json"))}

# values of every JSON type, including the edges a float conversion or a
# shape check might trip on
OTHER_VALUES = (None, True, False, 0, 1, -1, 3, 2.5, -1e-3, 1e300, 10 ** 400,
                float("nan"), float("inf"), "", "x", "1", [], {}, [1, 0], [[1, 0]],
                [[[1, 0]]], [[[True, 0]]], [["1", "0"]], {"segments": []},
                {"segments": [{"t": 0.0}]}, {"segments": [{"t": "0", "matrix": [[[1, 0]]]}]})


def _locations(node):
    """Every (parent, key) pair under node, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _locations(child)


def _is_matrix(node) -> bool:
    return (isinstance(node, list) and bool(node) and all(
        isinstance(row, list) and row and all(isinstance(e, list) and len(e) == 2 for e in row)
        for row in node))


def _drop_key(data, doc):
    spots = [(parent, key) for parent, key in _locations(doc) if isinstance(parent, dict)]
    parent, key = data.draw(st.sampled_from(spots))
    del parent[key]


def _swap_type(data, doc):
    parent, key = data.draw(st.sampled_from(list(_locations(doc))))
    parent[key] = copy.deepcopy(data.draw(st.sampled_from(OTHER_VALUES)))


def _resize_matrix(data, doc):
    matrices = [(parent, key) for parent, key in _locations(doc) if _is_matrix(parent[key])]
    if not matrices:
        return
    parent, key = data.draw(st.sampled_from(matrices))
    m = parent[key]
    how = data.draw(st.sampled_from(("drop row", "add row", "add column", "ragged")))
    if how == "drop row":
        m.pop()
    elif how == "add row":
        m.append(copy.deepcopy(m[-1]))
    elif how == "add column":
        for row in m:
            row.append([0.0, 0.0])
    else:
        m[0].append([0.0, 0.0])


MUTATIONS = (_drop_key, _swap_type, _resize_matrix)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_fixtures_validate_or_fail_located(data):
    doc = copy.deepcopy(FIXTURES[data.draw(st.sampled_from(sorted(FIXTURES)))])
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(st.sampled_from(MUTATIONS))(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "config.json"
        src.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(src), "--out", tmp, "--quiet"]) in (0, 1)


RUN_COMMANDS = ("validate", "sme", "qme", "ensemble", "crosscheck")
WRITE_NOTHING = ("validate", "crosscheck")


def _cut(doc):
    """The doc cut to 20 steps of the fixtures' dt = 1e-3 and 4 trajectories,
    where its sections are still objects."""
    if isinstance(doc.get("sim"), dict):
        doc["sim"]["t_end"] = 0.02
    if isinstance(doc.get("run"), dict):
        doc["run"]["trajectories"] = 4
    return doc


def _run_commands(doc):
    """``(command, exit code, stderr, whether --out exists)`` of every command
    on doc, each with its own --out."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "config.json"
        src.write_text(json.dumps(doc))
        for command in RUN_COMMANDS:
            err, out = io.StringIO(), Path(tmp) / command
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main([command, "--config", str(src), "--out", str(out), "--quiet"])
            yield command, rc, err.getvalue(), out.exists()


def _assert_allowed(command, rc, err, out_exists):
    lines = err.splitlines()
    if command in WRITE_NOTHING:
        assert not out_exists, f"{command} exited {rc} and left its --out directory"
    elif rc == 0:
        assert out_exists, f"{command} exited 0 without creating its --out directory"
    if rc == 1:
        assert lines and all(line.startswith("config error at ") for line in lines), err
        assert not out_exists, f"a rejected {command} created its --out directory"
    elif rc == 2:
        assert len(lines) == 1 and lines[0].startswith(f"error in {command}: "), err
    else:
        assert rc == 0, (rc, err)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_fixtures_run_or_fail_cleanly(data):
    doc = copy.deepcopy(FIXTURES[data.draw(st.sampled_from(sorted(FIXTURES)))])
    for _ in range(data.draw(st.integers(1, 2))):
        data.draw(st.sampled_from(MUTATIONS))(data, doc)
    for result in _run_commands(_cut(doc)):
        _assert_allowed(*result)


def _variant(fixture, scheme, measurement, no_probe, breakpoint, zero_horizon,
             representation):
    doc = _cut(copy.deepcopy(FIXTURES[fixture]))
    doc["sim"].update(scheme=scheme, measurement=measurement)
    if zero_horizon:
        doc["sim"]["t_end"] = 0.0
    doc["run"]["representation"] = representation
    model = doc["model"]
    if no_probe:
        model.pop("probe", None)
    if breakpoint:  # H_s switches, to the same matrix, at step 10
        ops = model["cascade"] if "cascade" in model else model
        ops["H_s"] = {"segments": [{"t": 0.0, "matrix": ops["H_s"]},
                                   {"t": 0.01, "matrix": ops["H_s"]}]}
    return doc


# every combination of the run settings, each on the next fixture in turn
GRID = [(fixture, *run) for fixture, run in zip(
    itertools.cycle(sorted(FIXTURES)),
    itertools.product(("euler-maruyama", "rk4"), ("amplitude", "phase", "none"),
                      (False, True), (False, True), (False, True), ("blocks", "joint")))]


@pytest.mark.parametrize("variant", GRID, ids=lambda v: "-".join(map(str, v)))
def test_run_settings_grid_runs_or_fails_located(variant):
    # the grid changes only well-formed settings, so nothing fails at run time
    for command, rc, err, out_exists in _run_commands(_variant(*variant)):
        assert rc in (0, 1), (command, rc, err)
        _assert_allowed(command, rc, err, out_exists)
