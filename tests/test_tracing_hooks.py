"""The benchmark's tracer wraps program functions by module attribute; a
renamed or moved function would otherwise break ``perfbench/run.py --trace 1``
only when the benchmark runs."""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from graphorder import evaluation, models, posterior, training
from graphorder.graphs import Graph
from graphorder.rng import spawn_rng

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


def test_posterior_passes_reach_the_attention_wrapper(tracing):
    """Stacking the heads once per call must not capture the attention
    round where the wrapper cannot see it: a sampler call runs each round
    at each of its n - 1 network steps, and a teacher-forced call once."""
    layers = 3
    q = posterior.OrderPosterior(posterior.PosteriorConfig(max_nodes=6, layers=layers, heads=2, head_dim=2))
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    with tracing.instrument(tracing.Recorder()) as rec:
        q.sample_orderings(g, 4, spawn_rng(3))
    assert rec.calls["posterior.sample"] == 1
    assert rec.calls["nn.attention"] == layers * (g.n - 1)
    with tracing.instrument(tracing.Recorder()) as rec:
        q.log_probs_orderings(g, [[0, 1, 2, 3, 4], [4, 2, 0, 1, 3]])
    assert rec.calls["posterior.log_q"] == 1
    assert rec.calls["nn.attention"] == layers


def test_traced_train_loop_counts_each_step(tracing):
    """``tracing.py`` wraps ``ParameterStore.adam_step`` and
    ``OrderPosterior.log_probs_orderings`` through the class ``__dict__``:
    each graph of each epoch takes one Adam step per store and one
    teacher-forced log q call, which runs each attention round once."""
    layers, epochs = 2, 2
    model = models.AdjacencyModel(models.AdjacencyModelConfig(max_nodes=6, hidden=4, row_embed=3))
    q = posterior.OrderPosterior(posterior.PosteriorConfig(max_nodes=6, layers=layers, heads=2, head_dim=2))
    graphs = [Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])]
    cfg = training.TrainConfig(sample_count=3, epochs=epochs, seed=4)
    with tracing.instrument(tracing.Recorder()) as rec:
        training.train_loop(model, q, graphs, cfg)
    assert rec.calls["training.train_loop"] == 1
    assert rec.calls["tensor.adam"] == 2 * len(graphs) * epochs
    assert rec.calls["posterior.log_q"] == len(graphs) * epochs
    log_q_spans = {i for i, span in enumerate(rec.spans) if span[0] == "posterior.log_q"}
    inside = Counter(span[3] for span in rec.spans if span[0] == "nn.attention" and span[3] in log_q_spans)
    assert inside == {i: layers for i in log_q_spans}
