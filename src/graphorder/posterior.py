"""Learned distribution over node orderings of a graph.

The posterior factorizes over steps: at step t a categorical over the
not-yet-chosen nodes is computed by an attention network whose input
features mark already-chosen nodes with the positional encoding of the
step at which they were picked.  A uniform fallback with the same sampling
interface serves as the no-learning baseline.  ``draw_orderings`` returns
either one's draws as arrays; the rest of the package reads draws only
through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import Graph, Ordering, validate_orderings
from .nn import (
    ALLOCATE,
    AttentionWork,
    bind_attention,
    linear,
    neighborhood_mask,
    register_attention,
    register_linear,
    residual_attention_stack,
    work_view,
)
from .rng import spawn_rng
from .tensor import (
    Checkpointable,
    ParameterStore,
    Tape,
    Tensor,
    add,
    check_positive_ints,
    ensure_finite,
    masked_log_softmax,
    reshape,
    take,
    tensor_sum,
)


def positional_encoding(positions, dim: int) -> np.ndarray:
    """Sinusoidal position features: sin on even lanes, cos on odd lanes,
    wavelengths geometric in 10000^(2i/dim)."""
    pos = np.asarray(positions, dtype=np.float64)[..., None]
    lanes = np.arange(dim)
    angles = pos / np.power(10000.0, (2 * (lanes // 2)) / dim)
    return np.where(lanes % 2 == 0, np.sin(angles), np.cos(angles))


@dataclass(frozen=True)
class OrderingSample:
    """One draw from an ordering distribution."""

    pi: Ordering
    log_q: float


@dataclass(frozen=True)
class PosteriorConfig:
    max_nodes: int = 20
    layers: int = 3
    heads: int = 6
    head_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        check_positive_ints(
            max_nodes=self.max_nodes, layers=self.layers, heads=self.heads, head_dim=self.head_dim
        )

    @property
    def d_model(self) -> int:
        return self.heads * self.head_dim


def extend_prefixes(prefix: np.ndarray, node: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber prefixes of n-node orderings after row i, whose prefix is
    numbered prefix[i], appends node[i].  The new prefixes are numbered
    from 0 in the order of (old id, node), the order in which ``np.unique``
    sorts id * n + node.  Returns the index of the first row to reach each
    new prefix and each row's new id."""
    _, first, ids = np.unique(prefix * n + node, return_index=True, return_inverse=True)
    return first, ids


class OrderPosterior(Checkpointable):
    """Attention network scoring which unchosen node to pick next."""

    kind = "posterior"
    config_type = PosteriorConfig

    def __init__(self, cfg: PosteriorConfig):
        self.cfg = cfg
        self.store = ParameterStore()
        rng = spawn_rng(cfg.seed, 10)
        d = cfg.d_model
        self.store.add("h0", rng.normal(0, 0.1, d))
        for i in range(cfg.layers):
            register_attention(self.store, f"gnn.layer{i}", d, cfg.heads, cfg.head_dim, rng)
        register_linear(self.store, "head", d, 1, rng)
        # row k of 1..max_nodes marks a node chosen at step k; row 0, for the
        # unchosen nodes, is zero
        self._pe = positional_encoding(np.arange(cfg.max_nodes + 1), d)
        self._pe[0] = 0.0

    def _check_graph(self, g: Graph) -> None:
        if g.n > self.cfg.max_nodes:
            raise InputError(f"graph size {g.n} exceeds max_nodes {self.cfg.max_nodes}")

    # -- shared forward: per-node logits from marked prefixes -----------------------

    def _bind(self, tape: Tape | None) -> dict[str, Tensor]:
        """The parameters recorded on ``tape``, with every attention round's
        heads stacked once for all the network calls of one pass, and the
        table ``features`` of input features: row k is h0 plus the
        encoding of step k, row 0 (unchosen) h0 alone."""
        rounds = [f"gnn.layer{layer}" for layer in range(self.cfg.layers)]
        bound = bind_attention(self.store, tape, rounds, self.cfg.heads)
        bound["features"] = add(self._pe, bound["h0"])
        return bound

    def _node_logits(
        self,
        bound,
        mask: np.ndarray,
        marks: np.ndarray,
        work: AttentionWork = ALLOCATE,
        rows=None,
    ) -> Tensor:
        """(..., n) logits of the prefixes whose nodes carry ``marks``
        (..., n): the step, from 1, at which each node was chosen, or 0.
        Each node's input feature is row ``marks`` of the table
        ``bound["features"]`` (``bound`` comes from ``_bind``), and
        attention is restricted to the (n, n) ``neighborhood_mask`` of the
        graph.  A tape-free call may pass ``work`` for the features and the
        attention stack, and ``rows`` ((..., q) node indices) to score only
        those nodes: the logits are then (..., q)."""
        h = take(bound["features"], marks, 0, out=work_view(work.h, marks.shape + (self.cfg.d_model,)))
        states = residual_attention_stack(bound, "gnn", h, mask, self.cfg.layers, work, rows)
        return reshape(linear(bound, "head", states), states.data.shape[:-1])

    def log_probs_orderings(self, g: Graph, orders, tape: Tape | None = None) -> Tensor:
        """Teacher-forced log q for a batch of orderings, shape (batch,).

        The orderings' prefixes at steps 0..n - 2 are numbered step by step
        with ``extend_prefixes``, as the sampler numbers its draws', and the
        network scores each distinct prefix once, all in one call, with a
        log-softmax over its unchosen nodes.  Each ordering picks its term
        of every step with ``take``, whose pull sums the gradients of the
        rows that orderings share.  The last step has one candidate, whose
        log-probability is exactly 0, so it is not scored."""
        self._check_graph(g)
        pis = validate_orderings(g, orders)
        b, n = pis.shape
        if n == 1:
            return Tensor(np.zeros(b), tape=tape)
        # chosen[i, v]: the step, from 1, at which ordering i chooses node v
        chosen = np.empty_like(pis)
        np.put_along_axis(chosen, pis, np.arange(1, n + 1), axis=1)
        # the first ordering to reach each distinct prefix of each step, and
        # each ordering's prefix id at each step
        firsts, ids = [np.zeros(1, dtype=np.int64)], [np.zeros(b, dtype=np.int64)]
        for s in range(1, n - 1):
            first, prefix = extend_prefixes(ids[-1], pis[:, s - 1], n)
            firsts.append(first)
            ids.append(prefix)
        sizes = [len(first) for first in firsts]
        steps = np.repeat(np.arange(n - 1), sizes)[:, None]
        reached = chosen[np.concatenate(firsts)]
        marks = np.where(reached <= steps, reached, 0)
        rows = np.stack(ids, axis=1) + np.cumsum([0] + sizes[:-1])
        bound, mask = self._bind(tape), neighborhood_mask(g)
        lp = masked_log_softmax(self._node_logits(bound, mask, marks), marks == 0)
        return tensor_sum(take(reshape(lp, (-1,)), rows * n + pis[:, :-1], 0), axis=-1)

    def sample_orderings(self, g: Graph, count: int, rng: np.random.Generator) -> list[OrderingSample]:
        """Ancestral draws; each sample consumes an independent child stream
        so any parallel split reproduces the sequential result.

        Rows that have drawn the same prefix share one network evaluation:
        each distinct prefix has a compact id, renumbered after each draw by
        ``extend_prefixes``.  Each prefix keeps its unchosen nodes in
        increasing order, and the network's last attention round, the head,
        the log-softmax and the draw run on those nodes only, so no mask is
        needed: a draw walks the cumulative probabilities of the unchosen
        nodes in the order a full row would.  The last node is the only
        candidate left, with log-probability exactly zero, so the last step
        runs no network.  Each step's logits must be finite before they are
        drawn from.

        There are never more than ``count`` distinct prefixes, so the
        network's work arrays are allocated once per call with ``count``
        rows, and each step uses their first rows.  A prefix is carried as
        the marks of its nodes (see ``_node_logits``), not as features.
        The attention heads' parameters and the feature table are built
        once per call too, and each of the n - 1 network calls runs one op
        per attention round."""
        self._check_graph(g)
        check_positive_ints(count=count)
        n, d = g.n, self.cfg.d_model
        bound = self._bind(None)
        mask = neighborhood_mask(g)
        uniforms = np.stack([stream.random(n) for stream in rng.spawn(count)])
        work = AttentionWork.allocate(count, n, d, self.cfg.heads)
        # marks of the b distinct prefixes, in the first b rows of one of
        # two buffers that swap at each step, and their unchosen nodes; draw
        # i has drawn the prefix numbered prefix[i]
        marks, marks_next = np.zeros((count, n), dtype=np.int64), np.empty((count, n), dtype=np.int64)
        b = 1
        left = np.arange(n)[None]
        prefix = np.zeros(count, dtype=np.int64)
        pis = np.zeros((count, n), dtype=np.int64)
        log_q = np.zeros(count)
        for s in range(n - 1):
            m = n - s
            # every node is a candidate at the first step, so it needs no rows
            logits = self._node_logits(bound, mask, marks[:b], work, left if s else None).data
            ensure_finite(logits, "posterior logits")
            top = logits.max(axis=-1, keepdims=True)
            lp = logits - (top + np.log(np.exp(logits - top).sum(axis=-1, keepdims=True)))
            probs = np.exp(lp)
            cum = probs.cumsum(axis=-1)[prefix]
            r = uniforms[:, s] * cum[:, -1]
            k = (cum <= r[:, None]).sum(axis=-1)
            # r can round up to the total; then a full row's draw would take
            # node n - 1 if it is unchosen with mass, else its first node
            # with mass
            for i in np.flatnonzero(k == m):
                p = probs[prefix[i]]
                k[i] = m - 1 if left[prefix[i], -1] == n - 1 and p[-1] > 0.0 else np.flatnonzero(p > 0.0)[0]
            key = prefix * m + k
            node = left.take(key)
            log_q += lp.take(key)
            pis[:, s] = node
            first, prefix_next = extend_prefixes(prefix, node, n)
            parents, picked = prefix[first], k[first]
            b = len(first)
            marks.take(parents, axis=0, out=marks_next[:b], mode="clip")
            marks, marks_next = marks_next, marks
            marks[np.arange(b), node[first]] = s + 1
            kept = left[parents]
            left = np.where(np.arange(m - 1) < picked[:, None], kept[:, :-1], kept[:, 1:])
            prefix = prefix_next
        pis[:, n - 1] = left[prefix, 0]
        return [OrderingSample(tuple(pi), lq) for pi, lq in zip(pis.tolist(), log_q.tolist())]


class UniformOrderer:
    """Parameter-free stand-in for the learned posterior."""

    kind = "uniform"

    def __init__(self):
        self.store = ParameterStore()

    def log_probs_orderings(self, g: Graph, orders, tape: Tape | None = None) -> Tensor:
        pis = validate_orderings(g, orders)
        return Tensor(np.full(len(pis), -math.lgamma(g.n + 1)), tape=tape)

    def sample_orderings(self, g: Graph, count: int, rng: np.random.Generator) -> list[OrderingSample]:
        """One uniform permutation per independent child stream; log q is
        -log n!."""
        check_positive_ints(count=count)
        log_q = -math.lgamma(g.n + 1)
        return [
            OrderingSample(tuple(stream.permutation(g.n).tolist()), log_q)
            for stream in rng.spawn(count)
        ]


OrderingModel = OrderPosterior | UniformOrderer


def draw_orderings(q: OrderingModel, g: Graph, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """``count`` orderings drawn from q as a (count, n) int array, and their
    log q as a (count,) array."""
    samples = q.sample_orderings(g, count, rng)
    pis = np.array([s.pi for s in samples], dtype=np.int64)
    return pis, np.array([s.log_q for s in samples])
