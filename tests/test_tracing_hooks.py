"""The benchmark's tracer wraps program functions by module attribute; a
renamed or moved function would otherwise break ``perfbench/run.py --trace 1``
only when the benchmark runs."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from graphorder import evaluation, models
from graphorder.graphs import Graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every attribute of the program's modules and of their classes."""
    out = {}
    for name, module in sys.modules.items():
        if name != "graphorder" and not name.startswith("graphorder."):
            continue
        for key, value in vars(module).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[name, key, attr] = member
    for key, value in evaluation.STATISTICS.items():
        out["STATISTICS", key] = value
    return out


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracing")


def test_instrument_finds_and_restores_every_target(tracing):
    before = _bindings()
    # entering looks up every wrapped function and fails on a missing one
    with tracing.instrument(tracing.Recorder()):
        wrapped = {key for key, value in _bindings().items() if before.get(key) is not value}
    assert ("graphorder.symmetry", "color_refinement") in wrapped
    assert ("graphorder.graphs", "isomorphic") in wrapped
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize(
    "family, mode, span",
    [
        ("adjacency", "exact", "models.aut_lookup"),
        ("adjacency", "cr", "models.aut_lookup"),
        ("sequence", "exact", "models.aut_lookup"),
        ("sequence", "cr", "symmetry.cr"),
    ],
)
def test_joint_log_probs_reaches_every_wrapped_layer(tracing, family, mode, span):
    """A scoring routine captured at import or moved out of its class body
    would escape the wrappers and zero its per-layer count."""
    if family == "adjacency":
        model = models.AdjacencyModel(models.AdjacencyModelConfig(max_nodes=5, hidden=4, row_embed=3))
    else:
        model = models.SequenceModel(models.SequenceModelConfig(max_nodes=5, hidden=4, edge_hidden=3))
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    pis = np.array([[0, 1, 2, 3], [2, 3, 1, 0]])
    with tracing.instrument(tracing.Recorder()) as rec:
        models.joint_log_probs(model, g, pis, mode)
    assert rec.calls["models.joint"] == 1
    assert rec.calls["models.forward"] == 1
    # one |Aut| lookup per batch; one refinement bound per ordering
    assert rec.calls[span] == (len(pis) if span == "symmetry.cr" else 1)
