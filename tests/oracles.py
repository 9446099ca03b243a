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
from graphorder.graphs import Graph, bit_indices, induced_subgraph, validate_ordering
from graphorder.models import _bernoulli_log_prob, _broadcast_rows, _permuted_adjacency
from graphorder.nn import linear
from graphorder.tensor import Tensor, add, log_sigmoid, matmul, mean, mul, sigmoid, sub, tanh


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


def composed_gru_step(bound: dict, name: str, h, x) -> Tensor:
    """``nn.gru_step`` as the chain of tape ops it replaced: each gate is
    add(add(matmul(x, wx), matmul(state, wh)), b), with about 19 op nodes
    per step."""

    def gate(which: str, state) -> Tensor:
        return add(
            add(
                matmul(x, bound[f"{name}.{which}.wx"]),
                matmul(state, bound[f"{name}.{which}.wh"]),
            ),
            bound[f"{name}.{which}.b"],
        )

    z = sigmoid(gate("update", h))
    r = sigmoid(gate("reset", h))
    cand = tanh(gate("candidate", mul(r, h)))
    return add(mul(sub(1.0, z), cand), mul(z, h))


def per_step_log_prob_rows(model, rows: np.ndarray, tape=None) -> Tensor:
    """``AdjacencyModel.log_prob_rows`` one row step at a time, with the
    composed GRU: state k pays the continue term and the masked full-width
    Bernoulli terms of row k, then embeds row k and steps.  A free-size
    model pays the final stop term only below ``max_nodes``."""
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
        state = composed_gru_step(bound, "cell", state, tanh(linear(bound, "embed", rows[:, k, :])))
    if not sized and steps + 1 < model.cfg.max_nodes:
        terms.append(log_sigmoid(model._stop_logit(bound, state)))
    return reduce(add, terms)


def chained_additive_attention(src, dst, mask, slope: float, g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``tensor.additive_attention`` as the chain of ops it replaced, in
    numpy: broadcast add, leaky ReLU, masked softmax, each with its own
    pull.  Returns the weights and the gradients of src and dst for the
    upstream gradient ``g``."""
    scores = src[..., :, None] + dst[..., None, :]
    act = np.where(scores > 0, scores, slope * scores)
    mb = np.broadcast_to(np.asarray(mask, dtype=bool), act.shape)
    shifted = np.where(mb, act, -np.inf)
    e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    d_act = p * (g - (g * p).sum(axis=-1, keepdims=True))
    d_scores = d_act * np.where(scores > 0, 1.0, slope)
    return p, d_scores.sum(axis=-1, keepdims=True)[..., 0], d_scores.sum(axis=-2, keepdims=True)[..., 0, :]
