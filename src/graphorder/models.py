"""Autoregressive graph generative models over ordered representations.

Two model families share one contract: for a batch of orderings of one graph,
the log-probabilities of the ordered representations (lower-triangular
adjacency rows, or node-by-node growth steps) and the log ordering
multiplicities, whose difference is the joint log p(G, pi).  Both families
also sample new graphs ancestrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations

import numpy as np

from .errors import InputError, ResourceError
from .graphs import (
    Graph,
    LowerTriangularEncoding,
    adjacency_matrix,
    decode_adjacency,
    validate_orderings,
)
from .nn import gru_step, linear, register_gru, register_linear
from .rng import spawn_rng
from .symmetry import (
    automorphism_count,
    sequence_multiplicity_cr,
    sequence_multiplicity_exact,
)
from .tensor import (
    Checkpointable,
    ParameterStore,
    Tape,
    Tensor,
    add,
    check_positive_ints,
    concat,
    ensure_finite,
    gather_rows,
    log_sigmoid,
    mean,
    mul,
    reshape,
    tanh,
    tensor_sum,
)

MULTIPLICITY_MODES = ("exact", "cr")
# node rows (batch x prefixes x widest prefix) of one padded block of
# sequence-model prefixes: bounds the memory of large tape-free batches
PADDED_ROWS = 4096


def log_sum_exp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


@lru_cache(maxsize=4096)
def cached_automorphism_count(g: Graph) -> int:
    return automorphism_count(g)


def _bernoulli_log_prob(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None) -> Tensor:
    """Sum over the last axis of Bernoulli log-likelihoods at ``targets``."""
    ll = add(
        mul(targets, log_sigmoid(logits)),
        mul(1.0 - targets, log_sigmoid(mul(logits, -1.0))),
    )
    if mask is not None:
        ll = mul(ll, mask)
    return tensor_sum(ll, axis=-1)


def _prefix_blocks(batch: int, last: int) -> list[tuple[int, int]]:
    """Prefix sizes 1..last as consecutive inclusive (lo, hi) blocks.  A block
    grows while batch x its prefix count x hi (its padded node rows) stays
    within ``PADDED_ROWS``; a prefix too wide for that is a block alone."""
    blocks = []
    lo = 1
    while lo <= last:
        hi = lo
        while hi < last and batch * (hi + 2 - lo) * (hi + 1) <= PADDED_ROWS:
            hi += 1
        blocks.append((lo, hi))
        lo = hi + 1
    return blocks


def _broadcast_rows(x: Tensor, *lead: int) -> Tensor:
    """(..., d) tensor broadcast to (*lead, d), differentiably."""
    return add(Tensor(np.zeros((*lead, x.data.shape[-1]))), x)


def _permuted_adjacency(g: Graph, pis: np.ndarray) -> np.ndarray:
    """(batch, n, n) adjacency matrices of ``g`` with nodes in each ordering."""
    a = adjacency_matrix(g)
    return a[pis[:, :, None], pis[:, None, :]]


def _check_model_config(cfg, sizes: tuple[str, ...]) -> None:
    """The checks both model configs share: ``max_nodes`` and ``sizes`` are
    positive integers, there are at least two nodes, and a fixed node count
    is an integer in [1, max_nodes]."""
    check_positive_ints(cfg, ("max_nodes", *sizes))
    if cfg.max_nodes < 2:
        raise InputError("max_nodes must be at least 2")
    if cfg.fixed_node_count is not None:
        check_positive_ints(cfg, ("fixed_node_count",))
        if cfg.fixed_node_count > cfg.max_nodes:
            raise InputError("fixed_node_count must lie in [1, max_nodes]")


class GraphModel(Checkpointable):
    """What both model families share: one scoring contract, the node-count
    guard, and checkpoints (``load_model`` reads either family).

    Each family scores an (S, n) batch of orderings of one graph with two
    methods: ``log_prob_orderings(g, orders, tape)`` gives the (S,) tensor of
    log-probabilities of the ordered representations, and
    ``log_multiplicities(g, orders, mode)`` the (S,) array of the log of how
    many orderings share each representation.  ``joint_log_probs`` returns
    both; the joint log p(G, pi) is their difference."""

    def _check_n(self, n: int) -> None:
        if not 1 <= n <= self.cfg.max_nodes:
            raise InputError(f"graph size {n} outside [1, {self.cfg.max_nodes}]")
        fixed = self.cfg.fixed_node_count
        if fixed is not None and n != fixed:
            raise InputError(f"model generates exactly {fixed} nodes, got {n}")

    def _orderings(self, g: Graph, orders) -> np.ndarray:
        """The checked (S, n) ordering batch of a graph this model can generate."""
        self._check_n(g.n)
        return validate_orderings(g, orders)


@dataclass(frozen=True)
class AdjacencyModelConfig:
    max_nodes: int = 20
    hidden: int = 64
    row_embed: int = 32
    fixed_node_count: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_model_config(self, ("hidden", "row_embed"))


class AdjacencyModel(GraphModel):
    """Recurrent model over lower-triangular adjacency rows.

    A GRU consumes one full-width row per step; each state emits Bernoulli
    logits for the next row's entries and for the continue/stop decision.
    With ``fixed_node_count`` set, size is deterministic and the stop terms
    vanish (useful for hand-built fixtures).
    """

    kind = "adjacency"
    config_type = AdjacencyModelConfig

    def __init__(self, cfg: AdjacencyModelConfig, zero_init: bool = False):
        self.cfg = cfg
        self.store = ParameterStore()
        rng = spawn_rng(cfg.seed, 0)
        width = cfg.max_nodes - 1
        register_linear(self.store, "embed", width, cfg.row_embed, rng, zero=zero_init)
        register_gru(self.store, "cell", cfg.row_embed, cfg.hidden, rng, zero=zero_init)
        self.store.add("state0", np.zeros(cfg.hidden))
        register_linear(self.store, "edges", cfg.hidden, width, rng, zero=zero_init)
        register_linear(self.store, "stop", cfg.hidden, 1, rng, zero=zero_init)

    # -- step pieces shared by scoring and sampling -------------------------

    def _advance(self, bound, state: Tensor, row: np.ndarray | Tensor) -> Tensor:
        return gru_step(bound, "cell", state, tanh(linear(bound, "embed", row)))

    def _row_logits(self, bound, state: Tensor) -> Tensor:
        return linear(bound, "edges", state)

    def _stop_logit(self, bound, state: Tensor) -> Tensor:
        return reshape(linear(bound, "stop", state), state.data.shape[:-1])

    # -- scoring -------------------------------------------------------------

    def log_prob_rows(self, rows: np.ndarray, tape: Tape | None = None) -> Tensor:
        """Log-probabilities of (batch, n-1, max_nodes-1) padded row arrays."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 3 or rows.shape[2] != self.cfg.max_nodes - 1:
            raise InputError("rows must have shape (batch, steps, max_nodes - 1)")
        batch, steps, width = rows.shape
        self._check_n(steps + 1)
        sized = self.cfg.fixed_node_count is not None
        bound = self.store.bind(tape)
        state = _broadcast_rows(bound["state0"], batch)
        terms = [Tensor(np.zeros(batch), tape=tape)]
        for k in range(steps):
            if not sized:
                terms.append(log_sigmoid(mul(self._stop_logit(bound, state), -1.0)))
            mask = np.zeros(width)
            mask[: k + 1] = 1.0
            terms.append(_bernoulli_log_prob(self._row_logits(bound, state), rows[:, k, :], mask))
            state = self._advance(bound, state, rows[:, k, :])
        if not sized:
            terms.append(log_sigmoid(self._stop_logit(bound, state)))
        return reduce(add, terms)

    def log_prob_orderings(
        self, g: Graph, orders: np.ndarray, tape: Tape | None = None
    ) -> Tensor:
        """Log-probabilities of the adjacency rows of ``g`` under each ordering."""
        pis = self._orderings(g, orders)
        aperm = _permuted_adjacency(g, pis)
        rows = np.zeros((len(pis), g.n - 1, self.cfg.max_nodes - 1))
        for k in range(g.n - 1):
            rows[:, k, : k + 1] = aperm[:, k + 1, : k + 1]
        return self.log_prob_rows(rows, tape)

    def log_multiplicities(self, g: Graph, orders: np.ndarray, mode: str) -> np.ndarray:
        """log |Aut(g)| per ordering, in either mode: every ordering shares
        its rows with exactly the orderings it maps to under an automorphism."""
        pis = self._orderings(g, orders)
        return np.full(len(pis), math.log(cached_automorphism_count(g)))

    # -- sampling ------------------------------------------------------------

    def sample(self, count: int, rng: np.random.Generator) -> list[Graph]:
        """``count`` graphs drawn ancestrally; the stop and edge logits must
        be finite before each draw."""
        if count < 1:
            raise InputError("count must be positive")
        cfg = self.cfg
        bound = self.store.bind(None)
        state = _broadcast_rows(bound["state0"], count)
        alive = np.ones(count, dtype=bool)
        rows: list[list[tuple[int, ...]]] = [[] for _ in range(count)]
        for k in range(cfg.max_nodes - 1):
            if cfg.fixed_node_count is not None:
                if k >= cfg.fixed_node_count - 1:
                    break
            else:
                stop = ensure_finite(self._stop_logit(bound, state).data, "stop logits")
                p_stop = 1.0 / (1.0 + np.exp(-stop))
                stopping = alive & (rng.random(count) < p_stop)
                alive &= ~stopping
                if not alive.any():
                    break
            logits = ensure_finite(self._row_logits(bound, state).data[:, : k + 1], "edge logits")
            bits = (rng.random(logits.shape) < 1.0 / (1.0 + np.exp(-logits))).astype(np.float64)
            for b in range(count):
                if alive[b]:
                    rows[b].append(tuple(int(x) for x in bits[b]))
            full = np.zeros((count, cfg.max_nodes - 1))
            full[:, : k + 1] = np.where(alive[:, None], bits, 0.0)
            state = self._advance(bound, state, full)
        graphs = []
        for b in range(count):
            n = len(rows[b]) + 1
            graphs.append(decode_adjacency(LowerTriangularEncoding(n, tuple(rows[b]))))
        return graphs


@dataclass(frozen=True)
class SequenceModelConfig:
    max_nodes: int = 20
    hidden: int = 32
    rounds: int = 2
    edge_hidden: int = 32
    fixed_node_count: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_model_config(self, ("hidden", "rounds", "edge_hidden"))


class SequenceModel(GraphModel):
    """Node-by-node growth model with a message-passing propagator.

    Each step re-embeds the current partial graph (summed messages with a
    gated update, repeated ``rounds`` times from a learned constant), then an
    edge head scores the new node against every existing node and a stop head
    reads the mean node state.  Scoring runs every prefix of an ordering
    batch in padded blocks of consecutive prefix sizes, each at most
    ``PADDED_ROWS`` node rows (or one prefix), so a training step is one
    propagation and a large tape-free batch one propagation per prefix.
    """

    kind = "sequence"
    config_type = SequenceModelConfig

    def __init__(self, cfg: SequenceModelConfig, zero_init: bool = False):
        self.cfg = cfg
        self.store = ParameterStore()
        rng = spawn_rng(cfg.seed, 1)
        d = cfg.hidden
        self.store.add("node0", np.zeros(d) if zero_init else spawn_rng(cfg.seed, 2).normal(0, 0.1, d))
        register_linear(self.store, "msg", d, d, rng, zero=zero_init)
        register_gru(self.store, "cell", d, d, rng, zero=zero_init)
        register_linear(self.store, "edge1", 3 * d, cfg.edge_hidden, rng, zero=zero_init)
        register_linear(self.store, "edge2", cfg.edge_hidden, 1, rng, zero=zero_init)
        register_linear(self.store, "stop", d, 1, rng, zero=zero_init)

    # -- step pieces -----------------------------------------------------------

    def _propagate(self, bound, adj: np.ndarray) -> Tensor:
        """Node states (..., t, hidden) for adjacency blocks (..., t, t).

        A node whose adjacency row and column are zero neither sends nor
        receives messages, so padding a prefix with such nodes leaves the
        states of its own nodes as they are: ``log_prob_orderings`` runs
        prefixes of several sizes, padded to the widest, in one call."""
        h = _broadcast_rows(bound["node0"], *adj.shape[:-1])
        for _ in range(self.cfg.rounds):
            msgs = Tensor(adj) @ linear(bound, "msg", h)
            h = gru_step(bound, "cell", h, msgs)
        return h

    def _edge_logits(self, bound, h: Tensor, readout: Tensor) -> Tensor:
        """Bernoulli logits (..., t) for joining the new node to each node."""
        lead = h.data.shape[:-1]
        new = _broadcast_rows(bound["node0"], *lead)
        ro = _broadcast_rows(reshape(readout, readout.data.shape[:-1] + (1, self.cfg.hidden)), *lead)
        feats = concat([h, new, ro], axis=-1)
        hidden = tanh(linear(bound, "edge1", feats))
        return reshape(linear(bound, "edge2", hidden), lead)

    def _stop_logit(self, bound, readout: Tensor) -> Tensor:
        return reshape(linear(bound, "stop", readout), readout.data.shape[:-1])

    # -- scoring -----------------------------------------------------------------

    def log_prob_orderings(
        self, g: Graph, orders: np.ndarray, tape: Tape | None = None
    ) -> Tensor:
        """Log-probabilities of growing ``g`` along each ordering in ``orders``.

        The prefix of size t < n pays the continue term and the edges of the
        node that joins it; the full graph (t = n) pays the stop term.  With
        ``fixed_node_count`` set there are no stop terms and no t = n prefix.
        Prefix sizes are scored in blocks from ``_prefix_blocks``: each block
        pads its prefixes to its widest one, masks the adjacency, readout and
        edge terms to each prefix, and runs one ``_propagate``."""
        aperm = _permuted_adjacency(g, self._orderings(g, orders))
        batch, n, _ = aperm.shape
        sized = self.cfg.fixed_node_count is not None
        bound = self.store.bind(tape)
        total = Tensor(np.zeros(batch), tape=tape)
        for lo, hi in _prefix_blocks(batch, n - 1 if sized else n):
            sizes = np.arange(lo, hi + 1)
            nodes = (np.arange(hi) < sizes[:, None]).astype(np.float64)  # (prefixes, hi)
            adj = aperm[:, None, :hi, :hi] * (nodes[:, :, None] * nodes[:, None, :])
            h = self._propagate(bound, adj)
            readout = mul(tensor_sum(mul(h, nodes[:, :, None]), axis=-2), 1.0 / sizes[:, None])
            # node t + 1 joins the prefix of size t; the full graph has none
            grows = sizes < n
            targets = aperm[:, np.minimum(sizes, n - 1), :hi]
            block = _bernoulli_log_prob(
                self._edge_logits(bound, h, readout), targets, nodes * grows[:, None]
            )
            if not sized:
                sign = np.where(grows, -1.0, 1.0)
                block = add(block, log_sigmoid(mul(self._stop_logit(bound, readout), sign)))
            total = add(total, tensor_sum(block, axis=-1))
        return total

    def log_multiplicities(self, g: Graph, orders: np.ndarray, mode: str) -> np.ndarray:
        """Log of the number of orderings that grow the same sequence of
        graphs as each ordering: exact orbit products in ``exact`` mode, the
        colour-refinement upper bound in ``cr`` mode."""
        count = sequence_multiplicity_exact if mode == "exact" else sequence_multiplicity_cr
        return np.array([math.log(count(g, tuple(pi))) for pi in self._orderings(g, orders).tolist()])

    # -- sampling ---------------------------------------------------------------

    def sample(self, count: int, rng: np.random.Generator) -> list[Graph]:
        """``count`` graphs drawn ancestrally; the stop and edge logits must
        be finite before each draw."""
        if count < 1:
            raise InputError("count must be positive")
        cfg = self.cfg
        bound = self.store.bind(None)
        out: list[Graph] = []
        adjs = [np.zeros((1, 1, 1)) for _ in range(count)]
        alive = np.ones(count, dtype=bool)
        # grow every sample in lockstep; finished samples stop participating
        for t in range(1, cfg.max_nodes):
            if cfg.fixed_node_count is not None:
                if t >= cfg.fixed_node_count:
                    break
            live_idx = np.flatnonzero(alive)
            if live_idx.size == 0:
                break
            block = np.stack([adjs[b][0] for b in live_idx])
            h = self._propagate(bound, block)
            readout = mean(h, axis=-2)
            if cfg.fixed_node_count is None:
                stop = ensure_finite(self._stop_logit(bound, readout).data, "stop logits")
                p_stop = 1.0 / (1.0 + np.exp(-stop))
                stops = rng.random(live_idx.size) < p_stop
                alive[live_idx[stops]] = False
                live_idx = live_idx[~stops]
                if live_idx.size == 0:
                    break
                # each sample propagates on its own, so the kept rows are
                # the states a propagation of the kept block would give
                kept = np.flatnonzero(~stops)
                h, readout = gather_rows(h, kept), gather_rows(readout, kept)
            logits = ensure_finite(self._edge_logits(bound, h, readout).data, "edge logits")
            bits = (rng.random(logits.shape) < 1.0 / (1.0 + np.exp(-logits))).astype(np.float64)
            for i, b in enumerate(live_idx):
                old = adjs[b][0]
                grown = np.zeros((t + 1, t + 1))
                grown[:t, :t] = old
                grown[t, :t] = bits[i]
                grown[:t, t] = bits[i]
                adjs[b] = grown[None]
        for b in range(count):
            a = adjs[b][0]
            n = a.shape[0]
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i, j] > 0]
            out.append(Graph.from_edges(n, edges))
        return out


# one code path rebuilds both families: the shared base's checkpoint readers
model_from_document = GraphModel.from_checkpoint
load_model = GraphModel.load


def joint_log_probs(
    model: GraphModel, g: Graph, orders: np.ndarray, mode: str = "exact", tape: Tape | None = None
) -> tuple[Tensor, np.ndarray]:
    """Batched joint log-probabilities for orderings of one graph.

    Returns (representation log-probs as a tensor, log-multiplicities as a
    constant array); the joint is their difference.  Adjacency models always
    divide by the exact automorphism count; for sequence models ``mode``
    selects the exact orbit product or its cheaper colour-refinement upper
    bound (which makes the joint a lower bound).
    """
    if mode not in MULTIPLICITY_MODES:
        raise InputError(f"multiplicity mode must be one of {MULTIPLICITY_MODES}")
    return model.log_prob_orderings(g, orders, tape), model.log_multiplicities(g, orders, mode)


def exact_marginal_log_prob(model: GraphModel, g: Graph, max_nodes: int = 8) -> float:
    """log p(graph) by summing the joint over every ordering (factorial cost)."""
    if g.n > max_nodes:
        raise ResourceError(
            f"exact marginal enumerates {g.n}! orderings; raise max_nodes (currently {max_nodes}) to allow"
        )
    logs = []
    chunk: list[tuple[int, ...]] = []

    def flush() -> None:
        if not chunk:
            return
        rep, log_mult = joint_log_probs(model, g, np.array(chunk), mode="exact")
        logs.append(rep.data - log_mult)
        chunk.clear()

    for pi in permutations(range(g.n)):
        chunk.append(pi)
        if len(chunk) == 8192:
            flush()
    flush()
    return log_sum_exp(ensure_finite(np.concatenate(logs), "joint log-probabilities"))
