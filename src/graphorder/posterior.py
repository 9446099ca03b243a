"""Learned distribution over node orderings of a graph.

The posterior factorizes over steps: at step t a categorical over the
not-yet-chosen nodes is computed by an attention network whose input
features mark already-chosen nodes with the positional encoding of the
step at which they were picked.  A uniform fallback with the same sampling
interface serves as the no-learning baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import Graph, Ordering, validate_orderings
from .nn import neighborhood_mask, register_attention, register_linear, residual_attention_stack, linear
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
        check_positive_ints(self, ("max_nodes", "layers", "heads", "head_dim"))

    @property
    def d_model(self) -> int:
        return self.heads * self.head_dim


class OrderPosterior(Checkpointable):
    """Attention network scoring which unchosen node to pick next."""

    kind = "posterior"
    config_type = PosteriorConfig

    def __init__(self, cfg: PosteriorConfig, zero_init: bool = False):
        self.cfg = cfg
        self.store = ParameterStore()
        rng = spawn_rng(cfg.seed, 10)
        d = cfg.d_model
        self.store.add("h0", np.zeros(d) if zero_init else rng.normal(0, 0.1, d))
        for i in range(cfg.layers):
            register_attention(self.store, f"gnn.layer{i}", d, cfg.heads, cfg.head_dim, rng, zero=zero_init)
        register_linear(self.store, "head", d, 1, rng, zero=zero_init)
        # rows 1..max_nodes mark the step at which a node was chosen
        self._pe = positional_encoding(np.arange(cfg.max_nodes + 1), d)

    def _check_graph(self, g: Graph) -> None:
        if g.n > self.cfg.max_nodes:
            raise InputError(f"graph size {g.n} exceeds max_nodes {self.cfg.max_nodes}")

    # -- shared forward: per-node logits from marked features ---- -------------------

    def _node_logits(self, bound, mask: np.ndarray, feats_np: np.ndarray, tape: Tape | None) -> Tensor:
        """(..., n) logits from (..., n, d_model) chosen-step features, with
        attention restricted to the (n, n) ``neighborhood_mask`` of the graph."""
        h = add(Tensor(feats_np, tape=tape), bound["h0"])
        states = residual_attention_stack(bound, "gnn", h, mask, self.cfg.layers, self.cfg.heads)
        return reshape(linear(bound, "head", states), feats_np.shape[:-1])

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
        bound, mask = self.store.bind(tape), neighborhood_mask(g)
        logits = self._node_logits(bound, mask, feats.reshape(b * n, n, -1), tape)
        lp = masked_log_softmax(reshape(logits, (b, n, n)), avail)
        return tensor_sum(take_along_last(lp, pis), axis=-1)

    def sample_orderings(self, g: Graph, count: int, rng: np.random.Generator) -> list[OrderingSample]:
        """Ancestral draws; each sample consumes an independent child stream
        so any parallel split reproduces the sequential result.

        Rows that have drawn the same prefix share one network evaluation:
        each distinct prefix has a compact id, which after a draw becomes
        ``id * n + node`` and is renumbered by ``np.unique``.  The last node
        is the only candidate left, with log-probability exactly zero, so the
        last step runs no network.  Each step's logits must be finite before
        they are drawn from."""
        self._check_graph(g)
        if count < 1:
            raise InputError("count must be positive")
        n = g.n
        bound = self.store.bind(None)
        mask = neighborhood_mask(g)
        uniforms = np.stack([stream.random(n) for stream in rng.spawn(count)])
        # marked features and chosen flags per distinct prefix; row i has
        # drawn the prefix numbered prefix[i]
        feats = np.zeros((1, n, self.cfg.d_model))
        chosen = np.zeros((1, n), dtype=bool)
        prefix = np.zeros(count, dtype=np.int64)
        pis = np.zeros((count, n), dtype=np.int64)
        log_q = np.zeros(count)
        rows = np.arange(count)
        for s in range(n - 1):
            logits = self._node_logits(bound, mask, feats, None)
            ensure_finite(logits.data, "posterior logits")
            lp = masked_log_softmax(logits, ~chosen).data
            probs = np.where(chosen, 0.0, np.exp(lp))
            cum = np.cumsum(probs, axis=-1)[prefix]
            r = uniforms[:, s] * cum[:, -1]
            idx = np.minimum((cum <= r[:, None]).sum(axis=-1), n - 1)
            for i in rows[probs[prefix, idx] <= 0.0]:
                idx[i] = int(np.flatnonzero(probs[prefix[i]] > 0.0)[0])
            log_q += lp[prefix, idx]
            pis[:, s] = idx
            _, first, prefix_next = np.unique(prefix * n + idx, return_index=True, return_inverse=True)
            parents, picked = prefix[first], idx[first]
            feats, chosen = feats[parents], chosen[parents]
            feats[np.arange(len(first)), picked] = self._pe[s + 1]
            chosen[np.arange(len(first)), picked] = True
            prefix = prefix_next
        pis[:, n - 1] = np.argmin(chosen[prefix], axis=-1)
        return [OrderingSample(tuple(int(v) for v in pis[i]), float(log_q[i])) for i in range(count)]


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
        if count < 1:
            raise InputError("count must be positive")
        log_q = -math.lgamma(g.n + 1)
        return [
            OrderingSample(tuple(int(v) for v in stream.permutation(g.n)), log_q)
            for stream in rng.spawn(count)
        ]


OrderingModel = OrderPosterior | UniformOrderer

