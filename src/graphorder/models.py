"""Autoregressive graph generative models over ordered representations.

Two model families share one contract: for a batch of orderings of one graph,
the log-probabilities of the ordered representations (lower-triangular
adjacency rows, or node-by-node growth steps) and the log ordering
multiplicities, whose difference is the joint log p(G, pi).  Both families
emit the labelled adjacency matrix of the ordering, which exactly |Aut(G)|
orderings reach, so both divide by |Aut(G)| in ``exact`` mode.  The orbit
products of ``symmetry`` count the orderings that grow the same sequence of
prefix classes, a set that can be larger; no model divides by them.
Both families also sample new graphs ancestrally, growing one boolean
(count, max_nodes, max_nodes) adjacency array; a free-size model stops at
``max_nodes`` with certainty, so neither sampling nor scoring draws or
charges a stop there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice, permutations

import numpy as np

from .errors import InputError, ResourceError
from .graphs import Graph, adjacency_matrix, validate_orderings
from .nn import gru_step, linear, register_gru, register_linear
from .rng import spawn_rng
from .symmetry import automorphism_count, sequence_multiplicity_cr
from .tensor import (
    Checkpointable,
    ParameterStore,
    Tape,
    Tensor,
    add,
    check_positive_ints,
    concat,
    ensure_finite,
    log_sigmoid,
    matmul,
    mean,
    mul,
    reshape,
    take,
    tanh,
    tensor_sum,
)

MULTIPLICITY_MODES = ("exact", "cr")
# state rows of one block of a large batch: node rows (batch x prefixes x
# widest prefix) of one padded block of sequence-model prefixes, and
# recurrent states (orderings x row steps) of one tape-free block of
# adjacency rows.  Bounds the memory of large tape-free batches
PADDED_ROWS = 4096


def log_sum_exp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


@lru_cache(maxsize=4096)
def cached_automorphism_count(g: Graph) -> int:
    return automorphism_count(g)


def _bernoulli_log_prob(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None) -> Tensor:
    """Sum over the last axis of Bernoulli log-likelihoods at the 0/1
    ``targets``: log sigmoid(x) for a 1 and log sigmoid(-x) for a 0."""
    ll = log_sigmoid(mul(logits, 2.0 * targets - 1.0))
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


def _bernoulli_draws(logits: np.ndarray, rng: np.random.Generator, what: str) -> np.ndarray:
    """Boolean draws, one per finite logit, true with probability sigmoid."""
    logits = ensure_finite(logits, what)
    return rng.random(logits.shape) < 1.0 / (1.0 + np.exp(-logits))


def _graphs(adj: np.ndarray, sizes: np.ndarray) -> list[Graph]:
    """The graphs whose edges are the strict lower triangles of boolean
    adjacency arrays, graph b on its first ``sizes[b]`` nodes."""
    return [
        Graph.from_edges(int(n), np.argwhere(np.tril(a[:n, :n])).tolist()) for a, n in zip(adj, sizes)
    ]


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
    check_positive_ints(**{name: getattr(cfg, name) for name in ("max_nodes", *sizes)})
    if cfg.max_nodes < 2:
        raise InputError("max_nodes must be at least 2")
    if cfg.fixed_node_count is not None:
        check_positive_ints(fixed_node_count=cfg.fixed_node_count)
        if cfg.fixed_node_count > cfg.max_nodes:
            raise InputError("fixed_node_count must lie in [1, max_nodes]")


class GraphModel(Checkpointable):
    """What both model families share: one scoring contract, the node-count
    guard, and checkpoints (``load_model`` reads either family).

    Each family scores an (S, n) batch of orderings of one graph with two
    methods: ``log_prob_orderings(g, orders, tape)`` gives the (S,) tensor of
    log-probabilities of the ordered representations, and
    ``log_multiplicities(g, orders, mode)`` the (S,) array of the log of how
    many orderings share each representation: |Aut(G)| for both families in
    ``exact`` mode.  ``joint_log_probs`` returns both; the joint log p(G, pi)
    is their difference."""

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

    def log_multiplicities(self, g: Graph, orders: np.ndarray, mode: str) -> np.ndarray:
        """log |Aut(g)| per ordering: every ordering shares its labelled
        adjacency matrix with exactly the orderings it maps to under an
        automorphism."""
        pis = self._orderings(g, orders)
        return np.full(len(pis), math.log(cached_automorphism_count(g)))


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

    Each row, zero-padded to width ``max_nodes - 1``, is embedded and fed
    to a GRU; state k emits Bernoulli logits for row k + 1's entries and
    for the continue/stop decision.  Scoring embeds every row in one op,
    runs only the GRU steps in its loop, and emits from all the stacked
    states in one pass, reading the logits of the lower-triangle entries
    alone; the sampler runs one row per step.  With ``fixed_node_count``
    set, size is deterministic and the stop terms vanish (useful for
    hand-built fixtures).
    """

    kind = "adjacency"
    config_type = AdjacencyModelConfig

    def __init__(self, cfg: AdjacencyModelConfig):
        self.cfg = cfg
        self.store = ParameterStore()
        rng = spawn_rng(cfg.seed, 0)
        width = cfg.max_nodes - 1
        register_linear(self.store, "embed", width, cfg.row_embed, rng)
        register_gru(self.store, "cell", cfg.row_embed, cfg.hidden, rng)
        self.store.add("state0", np.zeros(cfg.hidden))
        register_linear(self.store, "edges", cfg.hidden, width, rng)
        register_linear(self.store, "stop", cfg.hidden, 1, rng)

    # -- step pieces shared by scoring and sampling -------------------------

    def _embed(self, bound, rows: np.ndarray) -> Tensor:
        return tanh(linear(bound, "embed", rows))

    def _row_logits(self, bound, state: Tensor) -> Tensor:
        return linear(bound, "edges", state)

    def _stop_logit(self, bound, state: Tensor) -> Tensor:
        return reshape(linear(bound, "stop", state), state.data.shape[:-1])

    # -- scoring -------------------------------------------------------------

    def log_prob_rows(self, rows: np.ndarray, tape: Tape | None = None) -> Tensor:
        """Log-probabilities of (batch, n-1, max_nodes-1) padded row arrays.
        A free-size model pays a continue term before each row and a stop
        term after the last, except at ``max_nodes``, where it stops surely.
        Row k's entries past k are embedded but never scored.  A tape-free
        batch is scored in blocks of at most ``PADDED_ROWS`` states."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 3 or rows.shape[2] != self.cfg.max_nodes - 1:
            raise InputError("rows must have shape (batch, steps, max_nodes - 1)")
        batch, steps, _ = rows.shape
        self._check_n(steps + 1)
        block = max(1, PADDED_ROWS // (steps + 1))
        if tape is not None or batch <= block:
            return self._score_rows(rows, tape)
        return concat([self._score_rows(rows[lo : lo + block], None) for lo in range(0, batch, block)])

    def _score_rows(self, rows: np.ndarray, tape: Tape | None) -> Tensor:
        """``log_prob_rows`` of one block.  State k, for k < steps, scores
        row k and its continue term; state ``steps`` scores the final stop,
        when there is one."""
        batch, steps, width = rows.shape
        sized = self.cfg.fixed_node_count is not None
        count = steps + (not sized and steps + 1 < self.cfg.max_nodes)
        if count == 0:
            return Tensor(np.zeros(batch), tape=tape)
        bound = self.store.bind(tape)
        states = [_broadcast_rows(bound["state0"], batch)]
        if count > 1:
            inputs = self._embed(bound, rows[:, : count - 1])
            for k in range(count - 1):
                states.append(gru_step(bound, "cell", states[-1], take(inputs, k, axis=1)))
        stacked = reshape(concat(states), (batch, count, self.cfg.hidden))
        terms = []
        if steps:
            k, j = np.tril_indices(steps)
            logits = reshape(self._row_logits(bound, stacked), (batch, count * width))
            terms.append(_bernoulli_log_prob(take(logits, k * width + j, axis=1), rows[:, k, j], None))
        if not sized:
            sign = np.where(np.arange(count) < steps, -1.0, 1.0)
            terms.append(tensor_sum(log_sigmoid(mul(self._stop_logit(bound, stacked), sign)), axis=-1))
        return reduce(add, terms)

    def log_prob_orderings(
        self, g: Graph, orders: np.ndarray, tape: Tape | None = None
    ) -> Tensor:
        """Log-probabilities of the adjacency rows of ``g`` under each ordering."""
        pis = self._orderings(g, orders)
        aperm = _permuted_adjacency(g, pis)
        rows = np.zeros((len(pis), g.n - 1, self.cfg.max_nodes - 1))
        rows[:, :, : g.n - 1] = np.tril(aperm[:, 1:, :-1])
        return self.log_prob_rows(rows, tape)

    # -- sampling ------------------------------------------------------------

    def sample(self, count: int, rng: np.random.Generator) -> list[Graph]:
        """``count`` graphs drawn ancestrally; the stop and edge logits must
        be finite before each draw.  Step k draws node k + 2's row for every
        sample, and a stopped sample keeps a zero row, which is what the
        next state reads."""
        check_positive_ints(count=count)
        cfg = self.cfg
        bound = self.store.bind(None)
        state = _broadcast_rows(bound["state0"], count)
        adj = np.zeros((count, cfg.max_nodes, cfg.max_nodes), dtype=bool)
        sizes = np.ones(count, dtype=np.int64)
        alive = np.ones(count, dtype=bool)
        for k in range((cfg.fixed_node_count or cfg.max_nodes) - 1):
            if cfg.fixed_node_count is None:
                alive &= ~_bernoulli_draws(self._stop_logit(bound, state).data, rng, "stop logits")
                if not alive.any():
                    break
            logits = self._row_logits(bound, state).data[:, : k + 1]
            bits = _bernoulli_draws(logits, rng, "edge logits") & alive[:, None]
            adj[:, k + 1, : k + 1] = bits
            sizes += alive
            state = gru_step(bound, "cell", state, self._embed(bound, adj[:, k + 1, :-1].astype(np.float64)))
        return _graphs(adj, sizes)


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

    def __init__(self, cfg: SequenceModelConfig):
        self.cfg = cfg
        self.store = ParameterStore()
        rng = spawn_rng(cfg.seed, 1)
        d = cfg.hidden
        self.store.add("node0", spawn_rng(cfg.seed, 2).normal(0, 0.1, d))
        register_linear(self.store, "msg", d, d, rng)
        register_gru(self.store, "cell", d, d, rng)
        register_linear(self.store, "edge1", 3 * d, cfg.edge_hidden, rng)
        register_linear(self.store, "edge2", cfg.edge_hidden, 1, rng)
        register_linear(self.store, "stop", d, 1, rng)

    # -- step pieces -----------------------------------------------------------

    def _propagate(self, bound, adj: np.ndarray) -> Tensor:
        """Node states (..., t, hidden) for adjacency blocks (..., t, t).

        A node whose adjacency row and column are zero neither sends nor
        receives messages, so padding a prefix with such nodes leaves the
        states of its own nodes as they are: ``log_prob_orderings`` runs
        prefixes of several sizes, padded to the widest, in one call."""
        h = _broadcast_rows(bound["node0"], *adj.shape[:-1])
        for _ in range(self.cfg.rounds):
            msgs = matmul(Tensor(adj), linear(bound, "msg", h))
            h = gru_step(bound, "cell", h, msgs)
        return h

    def _edge_logits(self, bound, h: Tensor, readout: Tensor) -> Tensor:
        """Bernoulli logits (..., t) for joining the new node to each node."""
        lead = h.data.shape[:-1]
        new = _broadcast_rows(bound["node0"], *lead)
        ro = _broadcast_rows(reshape(readout, readout.data.shape[:-1] + (1, self.cfg.hidden)), *lead)
        feats = concat([h, new, ro])
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
        node that joins it; the full graph (t = n) pays the stop term, unless
        n = ``max_nodes``, where the model stops surely.  With
        ``fixed_node_count`` set there are no stop terms and no t = n prefix.
        Prefix sizes are scored in blocks from ``_prefix_blocks``: each block
        pads its prefixes to its widest one, masks the adjacency, readout and
        edge terms to each prefix, and runs one ``_propagate``."""
        aperm = _permuted_adjacency(g, self._orderings(g, orders))
        batch, n, _ = aperm.shape
        sized = self.cfg.fixed_node_count is not None
        bound = self.store.bind(tape)
        total = Tensor(np.zeros(batch), tape=tape)
        stops = not sized and n < self.cfg.max_nodes
        for lo, hi in _prefix_blocks(batch, n if stops else n - 1):
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
        """log |Aut(g)| in ``exact`` mode; in ``cr`` mode the log of the
        colour-refinement bound, which is at least the orbit product and so
        at least |Aut(g)|: the joint it gives is a lower bound."""
        if mode == "exact":
            return super().log_multiplicities(g, orders, mode)
        pis = self._orderings(g, orders).tolist()
        return np.array([math.log(sequence_multiplicity_cr(g, tuple(pi))) for pi in pis])

    # -- sampling ---------------------------------------------------------------

    def sample(self, count: int, rng: np.random.Generator) -> list[Graph]:
        """``count`` graphs drawn ancestrally; the stop and edge logits must
        be finite before each draw.  Every live sample has exactly t nodes at
        step t, so one propagation of their (live, t, t) block serves both
        heads; a sample that stops there draws no edges."""
        check_positive_ints(count=count)
        cfg = self.cfg
        bound = self.store.bind(None)
        adj = np.zeros((count, cfg.max_nodes, cfg.max_nodes), dtype=bool)
        sizes = np.ones(count, dtype=np.int64)
        live = np.arange(count)
        for t in range(1, cfg.fixed_node_count or cfg.max_nodes):
            h = self._propagate(bound, adj[live, :t, :t].astype(np.float64))
            readout = mean(h, axis=-2)
            grows = np.ones(live.size, dtype=bool)
            if cfg.fixed_node_count is None:
                grows = ~_bernoulli_draws(self._stop_logit(bound, readout).data, rng, "stop logits")
                if not grows.any():
                    break
            logits = self._edge_logits(bound, h, readout).data[grows]
            live = live[grows]
            bits = _bernoulli_draws(logits, rng, "edge logits")
            adj[live, t, :t] = adj[live, :t, t] = bits
            sizes[live] = t + 1
        return _graphs(adj, sizes)


# one code path rebuilds both families: the shared base's checkpoint readers
model_from_document = GraphModel.from_checkpoint
load_model = GraphModel.load


def joint_log_probs(
    model: GraphModel, g: Graph, orders: np.ndarray, mode: str, tape: Tape | None = None
) -> tuple[Tensor, np.ndarray]:
    """Batched joint log-probabilities for orderings of one graph.

    Returns (representation log-probs as a tensor, log-multiplicities as a
    constant array); the joint is their difference.  ``exact`` mode divides
    by |Aut(G)| for both families; in ``cr`` mode a sequence model divides
    by the colour-refinement upper bound instead, which makes its joint a
    lower bound.
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
    orderings = permutations(range(g.n))
    while chunk := list(islice(orderings, 8192)):
        rep, log_mult = joint_log_probs(model, g, np.array(chunk), mode="exact")
        logs.append(rep.data - log_mult)
    return log_sum_exp(ensure_finite(np.concatenate(logs), "joint log-probabilities"))
