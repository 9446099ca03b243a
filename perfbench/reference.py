"""Independent computations the benchmark checks the program against.

Nothing here calls the program's `symmetry` or `evaluation` modules or its
exact marginalisation. Graphs are read only through their node count `n` and
neighbour bitmasks `adj`; symmetry comes from brute-force permutation
enumeration, statistics are recomputed from dense adjacency matrices.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

CLUSTERING_BINS = 100
ORBIT_COUNT = 11


def has_edge(g, u: int, v: int) -> bool:
    return bool(g.adj[u] >> v & 1)


def adjacency(g) -> np.ndarray:
    """Dense 0/1 adjacency matrix read from the neighbour bitmasks."""
    return np.array([[float(g.adj[u] >> v & 1) for v in range(g.n)] for u in range(g.n)])


def _pair_bits(g, nodes) -> tuple[int, ...]:
    return tuple(int(has_edge(g, nodes[a], nodes[b])) for a, b in combinations(range(len(nodes)), 2))


def canonical_form(g, nodes) -> tuple:
    """Smallest pair-bit vector of the subgraph induced on ``nodes`` over all
    relabelings; equal for two node sets iff their subgraphs are isomorphic."""
    return (len(nodes),) + min(_pair_bits(g, p) for p in permutations(nodes))


def automorphism_count(g) -> int:
    """|Aut(g)|: permutations that map every edge and non-edge onto itself."""
    pairs = list(combinations(range(g.n), 2))
    return sum(
        all(has_edge(g, u, v) == has_edge(g, p[u], p[v]) for u, v in pairs)
        for p in permutations(range(g.n))
    )


def prefix_class_counts(g) -> dict[tuple[int, ...], int]:
    """For every ordering, how many orderings share its sequence of prefix
    isomorphism classes. The class of a prefix depends only on its node set,
    so canonical forms are computed once per subset."""
    forms: dict[int, tuple] = {}

    def form(mask: int) -> tuple:
        if mask not in forms:
            forms[mask] = canonical_form(g, [v for v in range(g.n) if mask >> v & 1])
        return forms[mask]

    signature = {}
    for p in permutations(range(g.n)):
        mask = 0
        sig = []
        for v in p:
            mask |= 1 << v
            sig.append(form(mask))
        signature[p] = tuple(sig)
    counts: dict[tuple, int] = {}
    for sig in signature.values():
        counts[sig] = counts.get(sig, 0) + 1
    return {p: counts[sig] for p, sig in signature.items()}


def log_sum_exp(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    top = float(values.max())
    return top + math.log(float(np.exp(values - top).sum()))


def exact_log_lik(g, score_orderings, multiplicity) -> float:
    """log p(G) by summing p(representation)/multiplicity over every ordering.

    ``score_orderings(pis)`` returns the model's log-probabilities of the
    representations produced by an (orderings, n) array; ``multiplicity``
    maps each ordering tuple to its multiplicity. Every distinct
    representation is reached by exactly `multiplicity` orderings, so the
    sum counts each once.
    """
    pis = np.array(list(permutations(range(g.n))), dtype=np.int64)
    scores = np.asarray(score_orderings(pis), dtype=np.float64)
    logs = scores - np.log([float(multiplicity[tuple(int(v) for v in p)]) for p in pis])
    return log_sum_exp(logs)


# ---------------------------------------------------------------------------
# graph statistics and MMD, recomputed from adjacency matrices

# Connected 4-node graphlets with each node's orbit id, in the program's
# numbering: path end/mid (0, 1), star leaf/centre (2, 3), 4-cycle (4),
# paw pendant/pair/apex (5, 6, 7), diamond side/hub (8, 9), clique (10).
_GRAPHLETS = (
    ([(0, 1), (1, 2), (2, 3)], (0, 1, 1, 0)),
    ([(0, 1), (0, 2), (0, 3)], (3, 2, 2, 2)),
    ([(0, 1), (1, 2), (2, 3), (3, 0)], (4, 4, 4, 4)),
    ([(0, 1), (1, 2), (0, 2), (2, 3)], (6, 6, 7, 5)),
    ([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (8, 8, 9, 9)),
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (10, 10, 10, 10)),
)
_QUAD_PAIRS = tuple(combinations(range(4), 2))


def _orbit_table() -> np.ndarray:
    """(64, ORBIT_COUNT) orbit totals of each labelled 4-node graph, keyed by
    its six pair bits; found by matching against the graphlets above under
    all 24 relabelings."""
    table = np.zeros((64, ORBIT_COUNT))
    for code in range(64):
        edges = {pair for i, pair in enumerate(_QUAD_PAIRS) if code >> i & 1}
        for shape, roles in _GRAPHLETS:
            shape_edges = {tuple(sorted(e)) for e in shape}
            if len(shape_edges) != len(edges):
                continue
            for p in permutations(range(4)):
                if {tuple(sorted((p[a], p[b]))) for a, b in shape} == edges:
                    for role in roles:
                        table[code, role] += 1
                    break
            else:
                continue
            break
    return table


_ORBIT_TABLE = _orbit_table()


def degree_histogram(a: np.ndarray) -> np.ndarray:
    degrees = a.sum(axis=1).astype(np.int64)
    return np.bincount(degrees).astype(np.float64) / a.shape[0]


def clustering_histogram(a: np.ndarray) -> np.ndarray:
    degrees = a.sum(axis=1)
    closed = np.diag(a @ a @ a) / 2.0
    wedges = degrees * (degrees - 1) / 2.0
    coeff = np.divide(closed, wedges, out=np.zeros_like(closed), where=wedges > 0)
    edges = np.linspace(0.0, 1.0, CLUSTERING_BINS + 1)
    bins = np.minimum(np.searchsorted(edges, coeff, side="right") - 1, CLUSTERING_BINS - 1)
    return np.bincount(bins, minlength=CLUSTERING_BINS).astype(np.float64) / a.shape[0]


def orbit_histogram(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    totals = np.zeros(ORBIT_COUNT)
    if n >= 4:
        quads = np.array(list(combinations(range(n), 4)), dtype=np.int64)
        codes = np.zeros(len(quads), dtype=np.int64)
        for bit, (i, j) in enumerate(_QUAD_PAIRS):
            codes |= a[quads[:, i], quads[:, j]].astype(np.int64) << bit
        totals = _ORBIT_TABLE[codes].sum(axis=0)
    if totals.sum() <= 0:
        point = np.zeros(ORBIT_COUNT)
        point[0] = 1.0
        return point
    return totals / totals.sum()


STATISTICS = {
    "degree": degree_histogram,
    "clustering": clustering_histogram,
    "orbit": orbit_histogram,
}


def _w1_matrix(xs: list[np.ndarray], ys: list[np.ndarray]) -> np.ndarray:
    width = max(h.shape[0] for h in xs + ys)
    cx = np.cumsum([np.pad(h, (0, width - h.shape[0])) for h in xs], axis=1)
    cy = np.cumsum([np.pad(h, (0, width - h.shape[0])) for h in ys], axis=1)
    return np.abs(cx[:, None, :] - cy[None, :, :]).sum(axis=-1)


def mmd(adjs_a: list[np.ndarray], adjs_b: list[np.ndarray], statistic: str, bandwidth: float = 1.0) -> float:
    """Biased squared MMD under exp(-W1^2 / 2 sigma^2), clamped at zero."""
    fn = STATISTICS[statistic]
    xs = [fn(a) for a in adjs_a]
    ys = [fn(a) for a in adjs_b]

    def kernel_mean(p, q):
        d = _w1_matrix(p, q)
        return float(np.exp(-(d * d) / (2.0 * bandwidth * bandwidth)).mean())

    return max(kernel_mean(xs, xs) + kernel_mean(ys, ys) - 2.0 * kernel_mean(xs, ys), 0.0)
