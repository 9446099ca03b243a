"""Neural building blocks shared by the generative models and the posterior:
Glorot initialisation, linear maps, a GRU cell, and a multi-head additive
attention round over graph neighbourhoods (node and neighbours, self
included).  A GRU step is one fused ``tensor.gru`` op, and an attention
round, every head at once, one fused ``tensor.multi_head_attention`` op
(Velickovic et al. 2018, "Graph Attention Networks") over the heads'
parameters that ``bind_attention`` stacks once per network pass.  A
tape-free attention stack can write its large results into the arrays of
an ``AttentionWork`` instead of allocating them, and can compute its last
round for chosen query nodes only.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import Graph, adjacency_matrix
from .tensor import ParameterStore, Tensor, add, gru, matmul, multi_head_attention, reshape, stack, take, tanh


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
    """Flat float64 arrays that a tape-free ``residual_attention_stack``
    writes its results into.  Each round views the leading entries of each
    array as one C-contiguous array of the shape it needs (``work_view``),
    so a batch of b rows, or a last round of q query rows, uses a prefix of
    every array.  For an attention round over (..., n, d) states, with q
    query rows (q = n without ``rows``): the states ``h`` (..., n, d); the
    joined head outputs ``joined`` (..., q, d), then their tanh; for
    ``tensor.multi_head_attention`` the projected features ``z`` (heads,
    ..., n, head_dim), its ``pairs`` (3, heads * ... * n), and the attention
    ``weights`` and the leaky step's temporary ``leaky`` (heads, ..., q, n).
    With ``rows``, the last round's states (..., q, d) go into ``z``'s array,
    which the round no longer reads.  With every field None, the default
    ``ALLOCATE``, each op allocates its result, which a taped call must
    do."""

    h: np.ndarray | None = None
    joined: np.ndarray | None = None
    z: np.ndarray | None = None
    pairs: np.ndarray | None = None
    weights: np.ndarray | None = None
    leaky: np.ndarray | None = None

    @classmethod
    def allocate(cls, rows: int, n: int, d: int, heads: int) -> AttentionWork:
        """Uninitialised arrays for batches of up to ``rows`` rows of ``n``
        nodes, ``d`` = heads * head_dim wide."""
        return cls(
            h=np.empty(rows * n * d),
            joined=np.empty(rows * n * d),
            z=np.empty(rows * n * d),
            pairs=np.empty((3, heads * rows * n)),
            weights=np.empty(heads * rows * n * n),
            leaky=np.empty(heads * rows * n * n),
        )


ALLOCATE = AttentionWork()


def work_view(buf: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray | None:
    """The first prod(shape) entries of the flat work array ``buf`` as a
    C-contiguous array of ``shape``; None for None."""
    return None if buf is None else buf[: math.prod(shape)].reshape(shape)


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
    rows=None,
) -> Tensor:
    """One multi-head attention round restricted to ``neighbor_mask``.

    feats has shape (..., n, d).  Head k scores pair (i, j) as
    leaky_relu(src_k . W_k f_i + dst_k . W_k f_j) (negative slope
    ``tensor.ATTENTION_SLOPE``), normalises over each node's
    masked neighbourhood, and averages the projected features; head outputs
    are concatenated.  All heads run as one ``tensor.multi_head_attention``
    op on the stacked parameters ``{name}.w`` and ``{name}.a`` of
    ``bind_attention``, so a taped round records one op node.  Permutation
    equivariant by construction.  Tape-free, ``rows`` ((..., q) node
    indices) computes only those nodes' outputs, (..., q, d).  The stages
    are written into ``work``; see ``AttentionWork``.
    """
    w = bound[f"{name}.w"]
    heads, _, head_dim = w.data.shape
    shape = feats.data.shape if isinstance(feats, Tensor) else np.shape(feats)
    lead, n = shape[:-2], shape[-2]
    q = n if rows is None else np.shape(rows)[-1]
    return multi_head_attention(
        feats,
        w,
        bound[f"{name}.a"],
        neighbor_mask,
        rows=rows,
        out=work_view(work.joined, lead + (q, heads * head_dim)),
        z=work_view(work.z, (heads,) + lead + (n, head_dim)),
        pairs=work.pairs,
        weights=work_view(work.weights, (heads,) + lead + (q, n)),
        scratch=work_view(work.leaky, (heads,) + lead + (q, n)),
    )


def residual_attention_stack(
    bound: dict[str, Tensor],
    name: str,
    feats,
    neighbor_mask: np.ndarray,
    layers: int,
    work: AttentionWork = ALLOCATE,
    rows=None,
) -> Tensor:
    """``layers`` attention rounds ``{name}.layer{i}`` with tanh
    nonlinearity and residual sums; ``bound`` comes from
    ``bind_attention`` with these rounds.

    Requires in_dim == heads * head_dim so outputs can be added back.  Each
    sum is written into ``work.h``, which may hold ``feats`` itself: a round
    reads the states before it adds to them.  Tape-free, ``rows`` ((..., q)
    node indices) passes to the last round only, which then sums only those
    nodes' states: the result is (..., q, d), with the bits of those rows
    of the full result."""
    shape = feats.data.shape if isinstance(feats, Tensor) else np.shape(feats)
    h = feats
    for layer in range(layers):
        last = rows if layer == layers - 1 else None
        message = attention_message_pass(bound, f"{name}.layer{layer}", h, neighbor_mask, work, last)
        message = tanh(message, out=None if work.joined is None else message.data)
        if last is None:
            h = add(h, message, out=work_view(work.h, shape))
        else:
            # the query rows' states, from rows of the flattened batch
            lead, (n, d) = shape[:-2], shape[-2:]
            at = np.asarray(last) + n * np.arange(math.prod(lead)).reshape(lead + (1,))
            states = take(reshape(h, (-1, d)), at, 0, out=work_view(work.z, at.shape + (d,)))
            h = add(states, message, out=None if work.z is None else states.data)
    return h
