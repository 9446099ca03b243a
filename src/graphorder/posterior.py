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
    take_along_last,
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
        # rows 1..max_nodes mark the step at which a node was chosen
        self._pe = positional_encoding(np.arange(cfg.max_nodes + 1), d)

    def _check_graph(self, g: Graph) -> None:
        if g.n > self.cfg.max_nodes:
            raise InputError(f"graph size {g.n} exceeds max_nodes {self.cfg.max_nodes}")

    # -- shared forward: per-node logits from marked features ---- -------------------

    def _bind(self, tape: Tape | None) -> dict[str, Tensor]:
        """The parameters recorded on ``tape``, with every attention round's
        heads stacked once for all the network calls of one pass."""
        rounds = [f"gnn.layer{layer}" for layer in range(self.cfg.layers)]
        return bind_attention(self.store, tape, rounds, self.cfg.heads)

    def _node_logits(
        self,
        bound,
        mask: np.ndarray,
        feats_np: np.ndarray,
        tape: Tape | None,
        work: AttentionWork = ALLOCATE,
        rows=None,
    ) -> Tensor:
        """(..., n) logits from (..., n, d_model) chosen-step features, with
        attention restricted to the (n, n) ``neighborhood_mask`` of the graph;
        ``bound`` comes from ``_bind``.  A tape-free call may pass ``work``
        for the attention stack, and ``rows`` ((..., q) node indices) to
        score only those nodes: the logits are then (..., q)."""
        h = add(Tensor(feats_np, tape=tape), bound["h0"], out=work_view(work.h, feats_np.shape))
        states = residual_attention_stack(bound, "gnn", h, mask, self.cfg.layers, work, rows)
        return reshape(linear(bound, "head", states), states.data.shape[:-1])

    def _step_features(self, g: Graph, pis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-step marked features and availability masks for a batch of
        orderings: feats (B, n, n, d) and avail (B, n, n) over steps axis 1."""
        b, n = pis.shape
        d = self.cfg.d_model
        delta = np.zeros((b, n, n, d))
        avail_delta = np.zeros((b, n, n))
        if n > 1:
            b_idx = np.repeat(np.arange(b), n - 1)
            s_idx = np.tile(np.arange(1, n), b)
            j_idx = pis[:, : n - 1].ravel()
            delta[b_idx, s_idx, j_idx] = self._pe[s_idx]
            avail_delta[b_idx, s_idx, j_idx] = 1.0
        feats = np.cumsum(delta, axis=1)
        avail = np.cumsum(avail_delta, axis=1) < 0.5
        return feats, avail

    def log_probs_orderings(self, g: Graph, orders, tape: Tape | None = None) -> Tensor:
        """Teacher-forced log q for a batch of orderings, shape (batch,)."""
        self._check_graph(g)
        pis = validate_orderings(g, orders)
        feats, avail = self._step_features(g, pis)
        b, n = pis.shape
        bound, mask = self._bind(tape), neighborhood_mask(g)
        logits = self._node_logits(bound, mask, feats.reshape(b * n, n, -1), tape)
        lp = masked_log_softmax(reshape(logits, (b, n, n)), avail)
        return tensor_sum(take_along_last(lp, pis), axis=-1)

    def sample_orderings(self, g: Graph, count: int, rng: np.random.Generator) -> list[OrderingSample]:
        """Ancestral draws; each sample consumes an independent child stream
        so any parallel split reproduces the sequential result.

        Rows that have drawn the same prefix share one network evaluation:
        each distinct prefix has a compact id, which after a draw becomes
        ``id * (n - s) + k`` for the k-th of its n - s unchosen nodes and is
        renumbered by ``np.unique``.  Each prefix keeps its unchosen nodes in
        increasing order, and the network's last attention round, the head,
        the log-softmax and the draw run on those rows only, so no mask is
        needed: a draw walks the cumulative probabilities of the unchosen
        nodes in the order a full row would.  The last node is the only
        candidate left, with log-probability exactly zero, so the last step
        runs no network.  Each step's logits must be finite before they are
        drawn from.

        There are never more than ``count`` distinct prefixes, so the
        network's work arrays and the prefix features are allocated once per
        call with ``count`` rows, and each step uses their first rows.  The
        attention heads' parameters are stacked once per call too, and each
        of the n - 1 network calls runs one op per attention round."""
        self._check_graph(g)
        check_positive_ints(count=count)
        n, d = g.n, self.cfg.d_model
        bound = self._bind(None)
        mask = neighborhood_mask(g)
        uniforms = np.stack([stream.random(n) for stream in rng.spawn(count)])
        work = AttentionWork.allocate(count, n, d, self.cfg.heads)
        # marked features of the b distinct prefixes, in the first b rows of
        # one of two buffers that swap at each step, and their unchosen
        # nodes; draw i has drawn the prefix numbered prefix[i]
        feats, feats_next = np.empty((count, n, d)), np.empty((count, n, d))
        feats[0], b = 0.0, 1
        left = np.arange(n)[None]
        prefix = np.zeros(count, dtype=np.int64)
        pis = np.zeros((count, n), dtype=np.int64)
        log_q = np.zeros(count)
        for s in range(n - 1):
            m = n - s
            # every node is a candidate at the first step, so it needs no rows
            logits = self._node_logits(bound, mask, feats[:b], None, work, left if s else None).data
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
            _, first, prefix_next = np.unique(key, return_index=True, return_inverse=True)
            parents, picked = prefix[first], k[first]
            b = len(first)
            feats.take(parents, axis=0, out=feats_next[:b], mode="clip")
            feats, feats_next = feats_next, feats
            feats[np.arange(b), node[first]] = self._pe[s + 1]
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
