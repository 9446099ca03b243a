"""Neural building blocks shared by the generative models and the posterior:
Glorot initialisation, linear maps, a GRU cell, and a multi-head additive
attention round over graph neighbourhoods (node and neighbours, self
included).  A GRU step is one fused ``tensor.gru`` op, and an attention
round, every head at once, one fused ``tensor.multi_head_attention`` op
(Velickovic et al. 2018, "Graph Attention Networks") over the heads'
parameters that ``bind_attention`` stacks once per network pass.  A
tape-free attention stack can write its large results into the arrays of
an ``AttentionWork`` instead of allocating them.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .graphs import Graph, adjacency_matrix
from .tensor import ParameterStore, Tensor, add, gru, matmul, multi_head_attention, stack, tanh


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
    results into, each with its batch rows on axis -3: the states ``h`` and
    the joined head outputs ``joined`` (then their tanh), (rows, n, d); and
    for ``tensor.multi_head_attention``, with heads on axis 0, the projected
    features ``z`` (heads, rows, n, head_dim), the source and target scores
    ``scores`` (2, heads, rows, n, 1), the attention ``weights`` and the
    leaky step's temporary ``leaky`` (heads, rows, n, n).  With every field
    None, the default ``ALLOCATE``, each op allocates its result, which a
    taped call must do."""

    h: np.ndarray | None = None
    joined: np.ndarray | None = None
    z: np.ndarray | None = None
    scores: np.ndarray | None = None
    weights: np.ndarray | None = None
    leaky: np.ndarray | None = None

    @classmethod
    def allocate(cls, rows: int, n: int, d: int, heads: int) -> AttentionWork:
        """Uninitialised arrays for batches of up to ``rows`` rows of ``n``
        nodes, with ``heads`` heads of d // heads lanes each."""
        return cls(
            h=np.empty((rows, n, d)),
            joined=np.empty((rows, n, d)),
            z=np.empty((heads, rows, n, d // heads)),
            scores=np.empty((2, heads, rows, n, 1)),
            weights=np.empty((heads, rows, n, n)),
            leaky=np.empty((heads, rows, n, n)),
        )

    def rows(self, b: int) -> AttentionWork:
        """Views of the first ``b`` batch rows of every array."""
        return AttentionWork(*(arr[..., :b, :, :] for arr in self))


ALLOCATE = AttentionWork()


def bind_attention(store: ParameterStore, tape, rounds: Sequence[str], heads: int) -> dict[str, Tensor]:
    """``store.bind(tape)`` plus, for each attention round ``name`` in
    ``rounds``, its heads' parameters on a leading heads axis, the entries
    that ``attention_message_pass`` reads: ``{name}.w`` (heads, in_dim,
    head_dim), and ``{name}.a`` (2 * heads, head_dim), the heads' source
    vectors and then their target vectors.  On a tape each is one ``stack``
    op, whose pull hands every head's slice back to its own leaf, so the
    store keeps its per-head names.  Bind once per network pass: the
    stacked entries then serve all of its calls."""
    bound = store.bind(tape)
    for name in rounds:
        head = [f"{name}.head{k}" for k in range(heads)]
        bound[f"{name}.w"] = stack([bound[f"{p}.w"] for p in head])
        bound[f"{name}.a"] = stack([bound[f"{p}.{side}"] for side in ("src", "dst") for p in head])
    return bound


def attention_message_pass(
    bound: dict[str, Tensor],
    name: str,
    feats,
    neighbor_mask: np.ndarray,
    work: AttentionWork = ALLOCATE,
) -> Tensor:
    """One multi-head attention round restricted to ``neighbor_mask``.

    feats has shape (..., n, d).  Head k scores pair (i, j) as
    leaky_relu(src_k . W_k f_i + dst_k . W_k f_j) (negative slope
    ``tensor.ATTENTION_SLOPE``), normalises over each node's
    masked neighbourhood, and averages the projected features; head outputs
    are concatenated.  All heads run as one ``tensor.multi_head_attention``
    op on the stacked parameters ``{name}.w`` and ``{name}.a`` of
    ``bind_attention``, so a taped round records one op node.  Permutation
    equivariant by construction.  The stages are written into ``work``;
    see ``AttentionWork``.
    """
    return multi_head_attention(
        feats,
        bound[f"{name}.w"],
        bound[f"{name}.a"],
        neighbor_mask,
        out=work.joined,
        z=work.z,
        scores=work.scores,
        weights=work.weights,
        scratch=work.leaky,
    )


def residual_attention_stack(
    bound: dict[str, Tensor],
    name: str,
    feats,
    neighbor_mask: np.ndarray,
    layers: int,
    work: AttentionWork = ALLOCATE,
) -> Tensor:
    """``layers`` attention rounds ``{name}.layer{i}`` with tanh
    nonlinearity and residual sums; ``bound`` comes from
    ``bind_attention`` with these rounds.

    Requires in_dim == heads * head_dim so outputs can be added back.  Each
    sum is written into ``work.h``, which may hold ``feats`` itself: a round
    reads the states before it adds to them."""
    h = feats
    for layer in range(layers):
        message = attention_message_pass(bound, f"{name}.layer{layer}", h, neighbor_mask, work)
        h = add(h, tanh(message, out=work.joined), out=work.h)
    return h
