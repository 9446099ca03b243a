"""Neural building blocks shared by the generative models and the posterior:
Glorot initialisation, linear maps, a GRU cell, and a multi-head additive
attention round over graph neighbourhoods (node and neighbours, self
included).  A GRU step is one fused ``tensor.gru`` op, and each head's
attention weights come from the fused ``tensor.additive_attention`` op
(Velickovic et al. 2018, "Graph Attention Networks").  A tape-free
attention stack can write its large results into the arrays of an
``AttentionWork`` instead of allocating them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import Graph, adjacency_matrix
from .tensor import ParameterStore, Tensor, add, additive_attention, concat, gru, matmul, tanh


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


def register_linear(
    store: ParameterStore,
    name: str,
    in_dim: int,
    out_dim: int,
    rng: np.random.Generator,
) -> None:
    store.add(f"{name}.w", glorot(rng, in_dim, out_dim))
    store.add(f"{name}.b", np.zeros(out_dim))


def linear(bound: dict[str, Tensor], name: str, x) -> Tensor:
    return add(matmul(x, bound[f"{name}.w"]), bound[f"{name}.b"])


_GRU_GATES = ("update", "reset", "candidate")


def register_gru(
    store: ParameterStore,
    name: str,
    in_dim: int,
    dim: int,
    rng: np.random.Generator,
) -> None:
    for gate in _GRU_GATES:
        store.add(f"{name}.{gate}.wx", glorot(rng, in_dim, dim))
        store.add(f"{name}.{gate}.wh", glorot(rng, dim, dim))
        store.add(f"{name}.{gate}.b", np.zeros(dim))


def gru_step(bound: dict[str, Tensor], name: str, h, x) -> Tensor:
    """One gated recurrent update, h (..., dim), x (..., in_dim), recorded
    as one ``tensor.gru`` op."""
    return gru(h, x, [[bound[f"{name}.{gate}.{p}"] for p in ("wx", "wh", "b")] for gate in _GRU_GATES])


def register_attention(
    store: ParameterStore,
    name: str,
    in_dim: int,
    heads: int,
    head_dim: int,
    rng: np.random.Generator,
) -> None:
    for k in range(heads):
        store.add(f"{name}.head{k}.w", glorot(rng, in_dim, head_dim))
        for side in ("src", "dst"):
            store.add(f"{name}.head{k}.{side}", glorot(rng, head_dim, 1, shape=(head_dim,)))


def neighborhood_mask(g: Graph) -> np.ndarray:
    """Boolean (n, n) attention support: neighbours and self, so every row
    has an entry."""
    return adjacency_matrix(g).astype(bool) | np.eye(g.n, dtype=bool)


class AttentionWork(NamedTuple):
    """Arrays that a tape-free ``residual_attention_stack`` writes its
    (batch, n, ...) results into, each passed to its op as ``out=``: the
    states ``h``, the joined head outputs ``joined`` (then their tanh), and
    per head its output ``head_out[k]``, projected features ``z``, source
    and target scores ``src`` and ``dst``, attention ``weights``, and the
    leaky step's temporary ``leaky`` (passed as ``scratch=``).  With every
    field None, the default ``ALLOCATE``, each op allocates its result,
    which a taped call must do."""

    h: np.ndarray | None = None
    joined: np.ndarray | None = None
    head_out: np.ndarray | None = None
    z: np.ndarray | None = None
    src: np.ndarray | None = None
    dst: np.ndarray | None = None
    weights: np.ndarray | None = None
    leaky: np.ndarray | None = None

    @classmethod
    def allocate(cls, rows: int, n: int, d: int, heads: int) -> AttentionWork:
        """Uninitialised arrays for batches of up to ``rows`` rows of ``n``
        nodes, with ``heads`` heads of d // heads lanes each."""
        head_dim = d // heads
        return cls(
            h=np.empty((rows, n, d)),
            joined=np.empty((rows, n, d)),
            head_out=np.empty((heads, rows, n, head_dim)),
            z=np.empty((rows, n, head_dim)),
            src=np.empty((rows, n)),
            dst=np.empty((rows, n)),
            weights=np.empty((rows, n, n)),
            leaky=np.empty((rows, n, n)),
        )

    def rows(self, b: int) -> AttentionWork:
        """Views of the first ``b`` batch rows of every array."""
        return AttentionWork(
            *(arr[:, :b] if field == "head_out" else arr[:b] for field, arr in zip(self._fields, self))
        )

    def head(self, k: int) -> np.ndarray | None:
        return None if self.head_out is None else self.head_out[k]


ALLOCATE = AttentionWork()


def attention_message_pass(
    bound: dict[str, Tensor],
    name: str,
    feats,
    neighbor_mask: np.ndarray,
    heads: int,
    work: AttentionWork = ALLOCATE,
) -> Tensor:
    """One multi-head attention round restricted to ``neighbor_mask``.

    feats has shape (..., n, d).  Head k scores pair (i, j) as
    leaky_relu(src_k . W_k f_i + dst_k . W_k f_j) (negative slope
    ``tensor.ATTENTION_SLOPE``), normalises over each node's
    masked neighbourhood, and averages the projected features; head outputs
    are concatenated.  The weights come from one ``additive_attention`` op,
    so a taped head records five op nodes.  Permutation equivariant by
    construction.  The result is written into ``work.joined``; see
    ``AttentionWork``.
    """
    outs = []
    for k in range(heads):
        z = matmul(feats, bound[f"{name}.head{k}.w"], out=work.z)
        s_src = matmul(z, bound[f"{name}.head{k}.src"], out=work.src)
        s_dst = matmul(z, bound[f"{name}.head{k}.dst"], out=work.dst)
        att = additive_attention(s_src, s_dst, neighbor_mask, out=work.weights, scratch=work.leaky)
        outs.append(matmul(att, z, out=work.head(k)))
    return concat(outs, out=work.joined)


def residual_attention_stack(
    bound: dict[str, Tensor],
    name: str,
    feats,
    neighbor_mask: np.ndarray,
    layers: int,
    heads: int,
    work: AttentionWork = ALLOCATE,
) -> Tensor:
    """``layers`` attention rounds with tanh nonlinearity and residual sums.

    Requires in_dim == heads * head_dim so outputs can be added back.  Each
    sum is written into ``work.h``, which may hold ``feats`` itself: a round
    reads the states before it adds to them."""
    h = feats
    for layer in range(layers):
        message = attention_message_pass(bound, f"{name}.layer{layer}", h, neighbor_mask, heads, work)
        h = add(h, tanh(message, out=work.joined), out=work.h)
    return h
