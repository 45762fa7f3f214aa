"""Property test: mutations of the shipped fixtures (a key dropped, a value
of another type, a matrix resized) are either valid configs or located
config errors; ``nmembed validate`` never raises."""

import copy
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
