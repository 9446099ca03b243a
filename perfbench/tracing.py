"""Spans and counters recorded around calls into the program's modules.

`instrument(recorder)` wraps public functions and methods of `graphorder`
from outside and restores them on exit; no file of the program changes. A
function imported by name into another module is rebound there too, and the
statistic table `evaluation.STATISTICS` gets the wrapped statistics, so every
call path goes through the wrapper.

Each wrapped call is timed; its self time (duration minus the time of wrapped
calls made inside it) is charged to the module its name starts with. Calls
marked `fine` run too often to keep one record each: they are timed and
counted but not stored. The other spans are kept in memory with name, start,
end and parent, and written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from graphorder import data, evaluation, graphs, models, nn, posterior, symmetry, tensor, training

MODULES = ("symmetry", "graphs", "tensor", "nn", "models", "posterior", "training", "evaluation", "data", "bench")

# ops whose node count is reported by name; the op of a tape node is the
# function that created its pull closure, and a node without one is a leaf
TAPE_OPS = (
    "leaf", "add", "sub", "mul", "matmul", "sigmoid", "tanh", "relu", "leaky_relu", "log", "exp",
    "log_sigmoid", "tensor_sum", "reshape", "concat", "gather_rows", "take_along_last",
    "masked_softmax", "masked_log_softmax", "other",
)


class Recorder:
    """Open-span stack, stored spans, per-name totals and per-module self time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self._stack: list[list] = []  # [name, start, child seconds, stored index]
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._prefix_keys: set = set()
        self._distinct_closed = 0

    def enter(self, name: str, keep: bool = True) -> None:
        index = -1
        if keep:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        start = time.perf_counter()
        if keep:
            self.spans[index][1] = start
        self._stack.append([name, start, 0.0, index])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        self.self_s[name.split(".", 1)[0]] += duration - child_s
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def note_prefixes(self, g, order) -> None:
        """Count (graph, prefix node set) keys of one multiplicity query."""
        mask = 0
        for v in order:
            mask |= 1 << int(v)
            self._prefix_keys.add((g, mask))
        self.counts["symmetry.prefix_lookups"] += len(order)

    def end_round(self) -> None:
        """Close the prefix-key window: distinct keys are counted per round."""
        self._distinct_closed += len(self._prefix_keys)
        self._prefix_keys.clear()

    @property
    def prefix_distinct(self) -> int:
        return self._distinct_closed + len(self._prefix_keys)

    def note_tape(self, tape) -> None:
        for node in tape.nodes:
            op = "leaf" if node.pull is None else node.pull.__qualname__.split(".", 1)[0]
            self.counts["tensor.tape_nodes." + (op if op in TAPE_OPS else "other")] += 1
        self.counts["tensor.tape_nodes"] += len(tape.nodes)


def _wrap(recorder: Recorder, name: str, fn, keep: bool, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        recorder.enter(name, keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _targets(rec: Recorder):
    """(owner, attribute, span name, keep, before hook, after hook)."""

    def prefixes(args, kwargs):
        rec.note_prefixes(args[0], kwargs.get("order", args[1] if len(args) > 1 else ()))

    def tape_nodes(args, kwargs):
        rec.note_tape(kwargs.get("tape", args[0]))

    def orderings(args, kwargs):
        rec.counts["posterior.orderings_sampled"] += int(kwargs.get("count", args[2]))

    def nodes(args, kwargs, result):
        rec.counts["models.nodes_sampled"] += sum(g.n for g in result)

    return (
        (symmetry, "sequence_multiplicity_exact", "symmetry.exact", True, prefixes, None),
        (symmetry, "sequence_multiplicity_cr", "symmetry.cr", True, prefixes, None),
        (symmetry, "automorphism_count", "symmetry.automorphism", True, None, None),
        (symmetry, "color_refinement", "symmetry.color_refinement", False, None, None),
        (graphs, "induced_subgraph", "graphs.induced_subgraph", False, None, None),
        (graphs, "isomorphic", "graphs.isomorphic", False, None, None),
        (models, "cached_automorphism_count", "models.aut_lookup", False, None, None),
        (models, "joint_log_probs", "models.joint", True, None, None),
        (models.AdjacencyModel, "log_prob_rows", "models.forward", True, None, None),
        (models.SequenceModel, "log_prob_orderings", "models.forward", True, None, None),
        (models.AdjacencyModel, "sample", "models.sample", True, None, nodes),
        (models.SequenceModel, "sample", "models.sample", True, None, nodes),
        (nn, "attention_message_pass", "nn.attention", True, None, None),
        (nn, "gru_step", "nn.gru", True, None, None),
        (posterior.OrderPosterior, "sample_orderings", "posterior.sample", True, orderings, None),
        (posterior.OrderPosterior, "log_probs_orderings", "posterior.log_q", True, None, None),
        (tensor, "backward", "tensor.backward", True, tape_nodes, None),
        (tensor.ParameterStore, "adam_step", "tensor.adam", True, None, None),
        (training, "train_loop", "training.train_loop", True, None, None),
        (evaluation, "importance_estimate", "evaluation.importance", True, None, None),
        (evaluation, "mmd", "evaluation.mmd", True, None, None),
        (evaluation, "degree_statistic", "evaluation.statistic", True, None, None),
        (evaluation, "clustering_statistic", "evaluation.statistic", True, None, None),
        (evaluation, "orbit_statistic", "evaluation.statistic", True, None, None),
        (evaluation, "orbit4_counts", "evaluation.orbit4", False, None, None),
        (evaluation, "wasserstein1", "evaluation.w1", False, None, None),
        (data, "gen_community_small", "data.generate", True, None, None),
        (data, "gen_er", "data.generate", True, None, None),
    )


@contextmanager
def instrument(recorder: Recorder):
    """Wrap the program's functions for the duration of the block."""
    program = [m for name, m in sys.modules.items() if name == "graphorder" or name.startswith("graphorder.")]
    undo = []
    try:
        for owner, attr, name, keep, before, after in _targets(recorder):
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, _wrap(recorder, name, original, keep, before, after))
                undo.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(recorder, name, original, keep, before, after)
            for module in program:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
            for key, value in list(evaluation.STATISTICS.items()):
                if value is original:
                    evaluation.STATISTICS[key] = wrapper
                    undo.append((evaluation.STATISTICS, key, original))
        yield recorder
    finally:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def per_layer(rec: Recorder, rounds: int) -> dict[str, float]:
    """Per-round figures of the traced pass, keyed by metric name."""
    out: dict[str, float] = {}

    def calls_and_seconds(metric: str, span: str) -> None:
        out[f"{metric}_calls"] = rec.calls[span] / rounds
        out[f"{metric}_s"] = rec.total_s[span] / rounds

    calls_and_seconds("symmetry.exact", "symmetry.exact")
    calls_and_seconds("symmetry.cr", "symmetry.cr")
    calls_and_seconds("symmetry.automorphism", "symmetry.automorphism")
    out["symmetry.color_refinement_calls"] = rec.calls["symmetry.color_refinement"] / rounds
    out["symmetry.prefix_lookups"] = rec.counts["symmetry.prefix_lookups"] / rounds
    out["symmetry.prefix_distinct"] = rec.prefix_distinct / rounds
    out["models.aut_lookups"] = rec.calls["models.aut_lookup"] / rounds
    out["graphs.induced_subgraph_calls"] = rec.calls["graphs.induced_subgraph"] / rounds
    out["graphs.isomorphic_calls"] = rec.calls["graphs.isomorphic"] / rounds
    calls_and_seconds("tensor.backward", "tensor.backward")
    calls_and_seconds("tensor.adam", "tensor.adam")
    out["tensor.tape_nodes"] = rec.counts["tensor.tape_nodes"] / rounds
    for op in TAPE_OPS:
        out[f"tensor.tape_nodes.{op}"] = rec.counts[f"tensor.tape_nodes.{op}"] / rounds
    calls_and_seconds("nn.attention", "nn.attention")
    calls_and_seconds("nn.gru", "nn.gru")
    calls_and_seconds("models.forward", "models.forward")
    out["models.sample_s"] = rec.total_s["models.sample"] / rounds
    out["models.nodes_sampled"] = rec.counts["models.nodes_sampled"] / rounds
    calls_and_seconds("posterior.sample", "posterior.sample")
    out["posterior.orderings_sampled"] = rec.counts["posterior.orderings_sampled"] / rounds
    calls_and_seconds("posterior.log_q", "posterior.log_q")
    out["evaluation.importance_s"] = rec.total_s["evaluation.importance"] / rounds
    out["evaluation.mmd_s"] = rec.total_s["evaluation.mmd"] / rounds
    out["evaluation.statistic_s"] = rec.total_s["evaluation.statistic"] / rounds
    out["evaluation.orbit4_calls"] = rec.calls["evaluation.orbit4"] / rounds
    out["evaluation.w1_calls"] = rec.calls["evaluation.w1"] / rounds
    for module in MODULES:
        out[f"{module}.self_s"] = rec.self_s[module] / rounds
    return out
