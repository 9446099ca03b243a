"""Independent brute-force references used to pin down expected values.

Everything here avoids the package's symmetry engine on purpose: counts come
from explicit permutation enumeration (or plain pruned search), canonical forms
from minimising over all relabelings, gradients from finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from graphorder.errors import InputError
from graphorder.graphs import Graph, bit_indices, induced_subgraph, validate_ordering, validate_orderings
from graphorder.models import _bernoulli_log_prob, _broadcast_rows, _permuted_adjacency, joint_log_probs
from graphorder.nn import gru_step, linear, neighborhood_mask, residual_attention_stack
from graphorder.tensor import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Tape,
    Tensor,
    add,
    backward,
    log_sigmoid,
    masked_log_softmax,
    mean,
    mul,
    reshape,
    take_along_last,
    tanh,
    tensor_sum,
)


def all_graphs(n: int):
    """Every labeled simple graph on n nodes (2^C(n,2) of them)."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


@dataclass(frozen=True)
class LowerTriangularEncoding:
    """Strictly lower-triangular adjacency bits of an ordered graph.

    ``rows[k]`` has k+1 binary entries and describes the node at position k+1:
    entry j is 1 iff it is adjacent to the node at position j.  A single-node
    graph has no rows.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n <= 0:
            raise InputError("encoding must cover at least one node")
        if len(self.rows) != self.n - 1:
            raise InputError("encoding must have n - 1 rows")
        for k, row in enumerate(self.rows):
            if len(row) != k + 1:
                raise InputError(f"row {k} must have {k + 1} entries, got {len(row)}")
            if any(b not in (0, 1) for b in row):
                raise InputError(f"row {k} entries must be 0 or 1")


def encode_adjacency(g: Graph, order: Sequence[int]) -> LowerTriangularEncoding:
    """Lower-triangular encoding of g with nodes relabeled by ``order``."""
    pi = validate_ordering(g, order)
    rows = tuple(
        tuple(int(g.has_edge(pi[t], pi[j])) for j in range(t))
        for t in range(1, g.n)
    )
    return LowerTriangularEncoding(g.n, rows)


def loop_color_refinement(g: Graph, initial=None) -> tuple[int, ...]:
    """Color refinement as one loop over adjacency bitmasks from a single
    class (or from ``initial``, densely renumbered): each pass gives every
    node the lexicographic rank of (color, sorted neighbour colors), until a
    pass splits no class."""
    if initial is None:
        colors = [0] * g.n
    else:
        ids = {c: i for i, c in enumerate(sorted(set(initial)))}
        colors = [ids[c] for c in initial]
    while True:
        sigs = [
            (colors[u], tuple(sorted(colors[v] for v in bit_indices(g.adj[u]))))
            for u in range(g.n)
        ]
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ids[s] for s in sigs]
        if len(ids) == len(set(colors)):
            return tuple(new)
        colors = new


def per_prefix_multiplicity_cr(g: Graph, order) -> int:
    """``sequence_multiplicity_cr`` from one induced prefix graph per step:
    the product over t of the size of the newest node's class in
    ``loop_color_refinement`` of the t-node prefix."""
    pi = [int(v) for v in order]
    value = 1
    for t in range(1, g.n + 1):
        colors = loop_color_refinement(induced_subgraph(g, pi[:t]))
        value *= colors.count(colors[t - 1])
    return value


def edges_preserved(g: Graph, perm: tuple[int, ...]) -> bool:
    return all(
        g.has_edge(u, v) == g.has_edge(perm[u], perm[v])
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def brute_automorphism_count(g: Graph) -> int:
    """Edge-preserving permutations counted by full enumeration (n <= 8)."""
    assert g.n <= 8, "full enumeration reserved for n <= 8"
    return sum(edges_preserved(g, p) for p in permutations(range(g.n)))


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    assert g.n <= 8
    return [p for p in permutations(range(g.n)) if edges_preserved(g, p)]


def search_automorphism_count(g: Graph) -> int:
    """Exhaustive permutation search with adjacency-consistency pruning.

    Same count as brute_automorphism_count but usable at n = 10 (Petersen);
    deliberately uses no color refinement.
    """
    n = g.n
    degs = [g.degree(u) for u in range(n)]
    count = 0

    def extend(i: int, mapping: list[int], used: int) -> None:
        nonlocal count
        if i == n:
            count += 1
            return
        for j in range(n):
            if used >> j & 1 or degs[i] != degs[j]:
                continue
            if all((g.adj[i] >> k & 1) == (g.adj[j] >> mapping[k] & 1) for k in range(i)):
                mapping.append(j)
                extend(i + 1, mapping, used | 1 << j)
                mapping.pop()

    extend(0, [], 0)
    return count


def brute_orbits(g: Graph) -> list[set[int]]:
    """Node orbits from the full automorphism list (n <= 8)."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in brute_automorphisms(g):
        for u in range(g.n):
            ru, rv = find(u), find(p[u])
            if ru != rv:
                parent[ru] = rv
    cells: dict[int, set[int]] = {}
    for u in range(g.n):
        cells.setdefault(find(u), set()).add(u)
    return sorted(cells.values(), key=min)


def brute_canonical_form(g: Graph) -> tuple[int, ...]:
    """Minimum edge-bit vector over all relabelings; equal iff isomorphic."""
    pairs = list(combinations(range(g.n), 2))
    best = None
    for p in permutations(range(g.n)):
        key = tuple(int(g.has_edge(p[i], p[j])) for i, j in pairs)
        if best is None or key < best:
            best = key
    return (g.n,) + (best or ())


def brute_prefix_signatures(g: Graph) -> dict[tuple[int, ...], tuple]:
    """Each ordering's tuple of canonical forms of its t-node prefixes.

    The prefix class depends only on the chosen node set, so canonical forms
    are cached per subset.
    """
    canon: dict[frozenset, tuple] = {}

    def subset_canon(nodes: tuple[int, ...]) -> tuple:
        key = frozenset(nodes)
        if key not in canon:
            sel = list(nodes)
            k = len(sel)
            rows = [0] * k
            for a in range(k):
                for b in range(a + 1, k):
                    if g.has_edge(sel[a], sel[b]):
                        rows[a] |= 1 << b
                        rows[b] |= 1 << a
            canon[key] = brute_canonical_form(Graph(k, tuple(rows)))
        return canon[key]

    return {
        p: tuple(subset_canon(p[: t + 1]) for t in range(g.n))
        for p in permutations(range(g.n))
    }


def brute_sequence_class_counts(g: Graph) -> dict[tuple, int]:
    """Orderings grouped by the isomorphism classes of their prefix graphs.

    Key: tuple of canonical forms of the t-node prefixes; value: how many
    orderings produce that sequence of classes.
    """
    counts: dict[tuple, int] = {}
    for sig in brute_prefix_signatures(g).values():
        counts[sig] = counts.get(sig, 0) + 1
    return counts


def brute_sequence_multiplicity(g: Graph, order: tuple[int, ...]) -> int:
    """Number of orderings whose prefix-class sequence matches ``order``'s."""
    sigs = brute_prefix_signatures(g)
    sig = sigs[tuple(int(v) for v in order)]
    return sum(1 for other in sigs.values() if other == sig)


def random_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


# orbit ids of loop_orbit4_counts, keyed by edge count, sorted local degrees
# and local degree: path end/mid (0, 1), star leaf/center (2, 3), 4-cycle (4),
# paw pendant/pair/apex (5, 6, 7), diamond side/hub (8, 9), clique (10)
_ORBIT_TABLES = {
    3: {(1, 1, 2, 2): {1: 0, 2: 1}, (1, 1, 1, 3): {1: 2, 3: 3}},
    4: {(2, 2, 2, 2): {2: 4}, (1, 2, 2, 3): {1: 5, 2: 6, 3: 7}},
    5: {(2, 2, 3, 3): {2: 8, 3: 9}},
    6: {(3, 3, 3, 3): {3: 10}},
}


def loop_orbit4_counts(g: Graph) -> np.ndarray:
    """Per-node counts over the 11 connected 4-node graphlet orbits, one
    4-node subset at a time."""
    counts = np.zeros((g.n, 11), dtype=np.int64)
    for quad in combinations(range(g.n), 4):
        degs = [0, 0, 0, 0]
        m = 0
        for a, b in combinations(range(4), 2):
            if g.has_edge(quad[a], quad[b]):
                degs[a] += 1
                degs[b] += 1
                m += 1
        orbit_ids = _ORBIT_TABLES.get(m, {}).get(tuple(sorted(degs)))
        if orbit_ids is None:
            # fewer than three edges, or a triangle plus an isolated node
            continue
        for local, node in enumerate(quad):
            counts[node, orbit_ids[degs[local]]] += 1
    return counts


def zero_store(store) -> None:
    """Set every entry of a parameter store to zero."""
    for name in store.names():
        store.get(name)[:] = 0.0


def store_state(store) -> np.ndarray:
    """Every parameter entry of a store, then every gradient entry."""
    return np.concatenate([store.get(name).ravel() for name in store.names()] + [store.grad_vector()])


def two_tape_step_gradients(model, q, g: Graph, pis, mode: str, baseline: float = 0.0):
    """The descent gradients (model, posterior) of ``training.step`` with the
    two scores on separate tapes: each pass records only one store's scores
    and backpropagates -[mean(rep) + mean((signal - baseline) * log q)] into
    that store.  Each store's gradient is zeroed before its pass and left at
    zero."""
    grads = []
    for store in (model.store, q.store):
        store.zero_grads()
        tape = Tape()
        rep, log_mult = joint_log_probs(model, g, pis, mode, tape=tape if store is model.store else None)
        log_q = q.log_probs_orderings(g, pis, tape=tape if store is q.store else None)
        signal = rep.data - log_mult - log_q.data
        surrogate = add(mean(rep), mean(mul(Tensor(signal - baseline, tape=log_q.tape), log_q)))
        backward(tape, mul(surrogate, -1.0))
        store.accumulate_from_tape(tape)
        grads.append(store.grad_vector())
        store.zero_grads()
    return tuple(grads)


def central_difference(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Componentwise central-difference gradient of scalar f at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = f(x)
        xf[i] = orig - eps
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def per_prefix_log_prob_orderings(model, g: Graph, orders, tape=None) -> Tensor:
    """``SequenceModel.log_prob_orderings`` one prefix at a time: one
    propagation over the unpadded first t nodes for each prefix size t.  A
    free-size model pays the final stop term only below ``max_nodes``."""
    aperm = _permuted_adjacency(g, model._orderings(g, orders))
    batch, n, _ = aperm.shape
    sized = model.cfg.fixed_node_count is not None
    bound = model.store.bind(tape)
    terms = [Tensor(np.zeros(batch), tape=tape)]
    for t in range(1, n):
        h = model._propagate(bound, aperm[:, :t, :t])
        readout = mean(h, axis=-2)
        if not sized:
            terms.append(log_sigmoid(mul(model._stop_logit(bound, readout), -1.0)))
        logits = model._edge_logits(bound, h, readout)
        terms.append(_bernoulli_log_prob(logits, aperm[:, t, :t], None))
    if not sized and n < model.cfg.max_nodes:
        h = model._propagate(bound, aperm)
        terms.append(log_sigmoid(model._stop_logit(bound, mean(h, axis=-2))))
    return reduce(add, terms)


def composed_gru_step(params: dict[str, np.ndarray], name: str, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``nn.gru_step`` as the chain of ops it replaced, in numpy: each gate
    is (x @ wx + state @ wh) + b, sigmoid is 1 / (1 + exp(-clip(v, -500,
    500))), and the update is (1 - z) * c + z * h."""

    def gate(which: str, state: np.ndarray) -> np.ndarray:
        return (np.matmul(x, params[f"{name}.{which}.wx"]) + np.matmul(state, params[f"{name}.{which}.wh"])) + params[
            f"{name}.{which}.b"
        ]

    def sigmoid(v: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(v, -500, 500)))

    z = sigmoid(gate("update", h))
    r = sigmoid(gate("reset", h))
    cand = np.tanh(gate("candidate", r * h))
    return (1.0 - z) * cand + z * h


def per_step_log_prob_rows(model, rows: np.ndarray, tape=None) -> Tensor:
    """``AdjacencyModel.log_prob_rows`` one row step at a time: state k
    pays the continue term and the masked full-width Bernoulli terms of row
    k, then embeds row k and takes one GRU step.  A free-size model pays the
    final stop term only below ``max_nodes``."""
    rows = np.asarray(rows, dtype=np.float64)
    batch, steps, width = rows.shape
    sized = model.cfg.fixed_node_count is not None
    bound = model.store.bind(tape)
    state = _broadcast_rows(bound["state0"], batch)
    terms = [Tensor(np.zeros(batch), tape=tape)]
    for k in range(steps):
        if not sized:
            terms.append(log_sigmoid(mul(model._stop_logit(bound, state), -1.0)))
        mask = np.zeros(width)
        mask[: k + 1] = 1.0
        terms.append(_bernoulli_log_prob(linear(bound, "edges", state), rows[:, k, :], mask))
        state = gru_step(bound, "cell", state, tanh(linear(bound, "embed", rows[:, k, :])))
    if not sized and steps + 1 < model.cfg.max_nodes:
        terms.append(log_sigmoid(model._stop_logit(bound, state)))
    return reduce(add, terms)


def chained_additive_attention(src, dst, mask, slope: float, g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The attention weights of ``tensor.multi_head_attention`` as the chain
    of ops they replaced, in numpy: broadcast add, leaky ReLU, masked
    softmax, each with its own pull.  Returns the weights and the gradients
    of src and dst for the upstream gradient ``g``."""
    scores = src[..., :, None] + dst[..., None, :]
    act = np.where(scores > 0, scores, slope * scores)
    mb = np.broadcast_to(np.asarray(mask, dtype=bool), act.shape)
    shifted = np.where(mb, act, -np.inf)
    e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    d_act = p * (g - (g * p).sum(axis=-1, keepdims=True))
    d_scores = d_act * np.where(scores > 0, 1.0, slope)
    return p, d_scores.sum(axis=-1, keepdims=True)[..., 0], d_scores.sum(axis=-2, keepdims=True)[..., 0, :]


def ones_row_sums(x: np.ndarray) -> np.ndarray:
    """The sums over the last axis of x, keeping it, as one matrix-vector
    product with ones over all rows padded with zero rows to a multiple of
    four; BLAS sums each row of a group of four with the same bits."""
    rows = x.reshape(-1, x.shape[-1])
    padded = np.concatenate([rows, np.zeros((-len(rows) % 4, x.shape[-1]))])
    return np.matmul(padded, np.ones(x.shape[-1]))[: len(rows)].reshape(x.shape[:-1] + (1,))


def _shifted_bound_weights(src: np.ndarray, dst: np.ndarray, mask, slope: float, floor: float) -> np.ndarray:
    """The weights of one head as the fused op of the per-head chain
    computed them: every row shifted by the bound
    leaky_relu(src_i + max_j dst_j), summed by ``ones_row_sums``, and a row
    whose sum falls below ``floor`` recomputed with its exact masked
    maximum."""
    x = src[..., :, None] + dst[..., None, :]
    m = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    x = np.maximum(x, slope * x)
    bound = src + dst.max(axis=-1, keepdims=True)
    bound = np.maximum(bound, slope * bound)
    x = np.exp(x - bound[..., None]) * m
    z = ones_row_sums(x)
    low = z[..., 0] < floor
    if low.any():
        scores = src[low][:, None] + np.broadcast_to(dst[..., None, :], x.shape)[low]
        scores = np.maximum(scores, slope * scores)
        scores = np.where(m[low], scores, -np.inf)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        x[low] = e / e.sum(axis=-1, keepdims=True)
        z[low] = 1.0
    return x / z


def per_head_attention(x, w, a, mask, slope: float, floor: float) -> np.ndarray:
    """One attention round as the per-head chain of ops that
    ``tensor.multi_head_attention`` replaced, in numpy: for each head k its
    own ``x @ w[k]``, the matrix-vector products of its source and target
    vectors (rows k and H + k of a), its weights, and their product with
    its projections; the heads' outputs joined on the last axis."""
    heads = len(w)
    outs = []
    for k in range(heads):
        z = np.matmul(x, w[k])
        weights = _shifted_bound_weights(np.matmul(z, a[k]), np.matmul(z, a[heads + k]), mask, slope, floor)
        outs.append(np.matmul(weights, z))
    return np.concatenate(outs, axis=-1)


def full_row_sample_orderings(q, g: Graph, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """``OrderPosterior.sample_orderings`` as a full-row sampler: each step
    scores every node of each distinct prefix, masks the chosen ones out of
    the log-softmax, and walks the cumulative probabilities of the whole
    row, falling back from node n - 1 to the first node with mass when the
    walk runs off the end.  Returns the (count, n) orderings and their
    log q."""
    n = g.n
    bound, mask = q._bind(None), neighborhood_mask(g)
    uniforms = np.stack([stream.random(n) for stream in rng.spawn(count)])
    marks = np.zeros((1, n), dtype=np.int64)
    prefix = np.zeros(count, dtype=np.int64)
    pis = np.zeros((count, n), dtype=np.int64)
    log_q = np.zeros(count)
    for s in range(n - 1):
        chosen = marks > 0
        logits = q._node_logits(bound, mask, marks)
        lp = masked_log_softmax(logits, ~chosen).data
        probs = np.where(chosen, 0.0, np.exp(lp))
        cum = np.cumsum(probs, axis=-1)[prefix]
        idx = np.minimum((cum <= (uniforms[:, s] * cum[:, -1])[:, None]).sum(axis=-1), n - 1)
        for i in np.flatnonzero(probs[prefix, idx] <= 0.0):
            idx[i] = np.flatnonzero(probs[prefix[i]] > 0.0)[0]
        log_q += lp[prefix, idx]
        pis[:, s] = idx
        _, first, next_prefix = np.unique(prefix * n + idx, return_index=True, return_inverse=True)
        parents, picked, rows = prefix[first], idx[first], np.arange(len(first))
        marks = marks[parents]
        marks[rows, picked] = s + 1
        prefix = next_prefix
    pis[:, n - 1] = np.argmin(marks[prefix], axis=-1)
    return pis, log_q


def full_step_log_probs_orderings(q, g: Graph, orders, tape=None) -> Tensor:
    """``OrderPosterior.log_probs_orderings`` as one network row for every
    step of every ordering, the last step and repeated prefixes included:
    (B, n, n, d) features, each a cumulative sum over steps of the
    positional encoding of the step at which a node was chosen, plus h0;
    a log-softmax over each row's unchosen nodes; each ordering's picks
    summed over all n steps."""
    pis = validate_orderings(g, orders)
    b, n = pis.shape
    d = q.cfg.d_model
    delta = np.zeros((b, n, n, d))
    avail_delta = np.zeros((b, n, n))
    if n > 1:
        b_idx = np.repeat(np.arange(b), n - 1)
        s_idx = np.tile(np.arange(1, n), b)
        j_idx = pis[:, : n - 1].ravel()
        delta[b_idx, s_idx, j_idx] = q._pe[s_idx]
        avail_delta[b_idx, s_idx, j_idx] = 1.0
    feats = np.cumsum(delta, axis=1).reshape(b * n, n, d)
    avail = np.cumsum(avail_delta, axis=1) < 0.5
    bound = q._bind(tape)
    h = add(Tensor(feats, tape=tape), bound["h0"])
    states = residual_attention_stack(bound, "gnn", h, neighborhood_mask(g), q.cfg.layers)
    logits = reshape(linear(bound, "head", states), (b, n, n))
    return tensor_sum(take_along_last(masked_log_softmax(logits, avail), pis), axis=-1)


def loop_adam_step(params, grads, m, v, step_count: int, lr: float) -> None:
    """``ParameterStore.adam_step`` as a loop over parameters, in place on
    dicts of arrays: a parameter with no nonzero gradient entry is skipped,
    and the others update their nonzero entries and clear their gradient.
    ``step_count`` is the store's count after the step."""
    c1 = 1.0 - ADAM_BETA1**step_count
    c2 = 1.0 - ADAM_BETA2**step_count
    for name, g in grads.items():
        upd = g != 0.0
        if not upd.any():
            continue
        m[name][:] = np.where(upd, ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g, m[name])
        v[name][:] = np.where(upd, ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g, v[name])
        step = lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)
        params[name] -= np.where(upd, step, 0.0)
        g[:] = 0.0
