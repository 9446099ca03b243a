"""Model evaluation: importance-sampled log-likelihoods, graph
statistics (degree, clustering, 4-node orbits), MMD set comparison, and
ordering-averaged adjacency matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InputError, NumericError
from .graphs import Graph, adjacency_matrix
from .models import GraphModel, joint_log_probs, log_sum_exp
from .posterior import OrderingModel, draw_orderings
from .tensor import check_positive_ints

# orderings drawn and scored per block.  It also bounds the rows of the
# arrays that ``OrderPosterior.sample_orderings`` allocates per call: for
# graphs of n nodes and a posterior d = heads * head_dim wide, about
# 8 * n * (3 * d + 2 + heads * (2 * n + 3)) bytes per row, of which the
# attention weights and their leaky temporary, (heads, n, n) each, grow
# with the head count; the last round, over each prefix's unchosen nodes
# only, uses the leading entries of these arrays.  That is 15.0 KB per
# row (7.5 MB at 512 rows) at n = 16 for the benchmark posterior (2 heads
# of 8), and 131 KB per row at n = 20 for the default one (6 heads of 32).
_IS_CHUNK = 512

CLUSTERING_BINS = 100
ORBIT_COUNT = 11


@dataclass(frozen=True)
class ImportanceEstimate:
    """Importance-sampled log-likelihood with a jackknife standard error.

    The standard error is None when sample_count == 1 (leave-one-out is
    undefined) and may be inf when a single draw dominates the average.
    """

    log_lik: float
    stderr: float | None
    sample_count: int


def jackknife_log_mean_stderr(log_weights: np.ndarray) -> float:
    """Standard error of log(mean(w)) from leave-one-out recomputation."""
    count = log_weights.shape[0]
    if count < 2:
        raise InputError("jackknife needs at least two samples")
    total = log_sum_exp(log_weights)
    rest = -np.expm1(np.minimum(log_weights - total, 0.0))
    with np.errstate(divide="ignore"):
        loo = total + np.log(rest) - math.log(count - 1)
    if not np.all(np.isfinite(loo)):
        return math.inf
    variance = (count - 1) / count * np.sum((loo - loo.mean()) ** 2)
    return float(np.sqrt(variance))


def importance_estimate(
    model: GraphModel, proposal: OrderingModel, g: Graph, sample_count: int, rng
) -> ImportanceEstimate:
    """log of the average importance ratio p(G, pi)/q(pi | G) over draws
    from the proposal, with the exact joint; consistent for log p(G) and a
    lower bound in expectation."""
    check_positive_ints(sample_count=sample_count)
    log_weights = []
    remaining = sample_count
    while remaining > 0:
        block = min(_IS_CHUNK, remaining)
        pis, log_q = draw_orderings(proposal, g, block, rng)
        rep, log_mult = joint_log_probs(model, g, pis, "exact")
        w = rep.data - log_mult - log_q
        if not np.all(np.isfinite(w)):
            raise NumericError("non-finite importance ratio")
        log_weights.append(w)
        remaining -= block
    stacked = np.concatenate(log_weights)
    estimate = log_sum_exp(stacked) - np.log(sample_count)
    stderr = jackknife_log_mean_stderr(stacked) if sample_count > 1 else None
    return ImportanceEstimate(float(estimate), stderr, sample_count)


# orbit ids: path end/mid (0, 1), star leaf/center (2, 3), 4-cycle (4),
# paw pendant/pair/apex (5, 6, 7), diamond side/hub (8, 9), clique (10),
# keyed by the edge count, then the sorted local degrees of the quad, then
# the local degree of the node
_M3_ORBITS = {
    (1, 1, 2, 2): {1: 0, 2: 1},
    (1, 1, 1, 3): {1: 2, 3: 3},
}
_M4_ORBITS = {
    (2, 2, 2, 2): {2: 4},
    (1, 2, 2, 3): {1: 5, 2: 6, 3: 7},
}
_M5_ORBITS = {(2, 2, 3, 3): {2: 8, 3: 9}}
_M6_ORBITS = {(3, 3, 3, 3): {3: 10}}
_ORBIT_TABLES = {3: _M3_ORBITS, 4: _M4_ORBITS, 5: _M5_ORBITS, 6: _M6_ORBITS}

# the six node pairs of a quad, and which of them touch each local node
_QUAD_PAIRS = np.array(list(combinations(range(4), 2)))
_PAIR_INCIDENCE = (_QUAD_PAIRS[:, :, None] == np.arange(4)).any(axis=1).astype(np.int64)


def _orbit_lookup() -> np.ndarray:
    """Orbit id per (edge count, sorted local degrees, local degree), -1
    where the quad is disconnected or the degree does not occur."""
    lookup = np.full((7, 4, 4, 4, 4, 4), -1, dtype=np.int64)
    for m, table in _ORBIT_TABLES.items():
        for degs, orbits in table.items():
            for local, orbit in orbits.items():
                lookup[(m, *degs, local)] = orbit
    return lookup


_ORBIT_LOOKUP = _orbit_lookup()


@lru_cache(maxsize=32)
def _quads(n: int) -> np.ndarray:
    """All combinations(range(n), 4) as a read-only (C(n, 4), 4) array."""
    quads = np.array(list(combinations(range(n), 4)), dtype=np.int64).reshape(-1, 4)
    quads.setflags(write=False)
    return quads


def clustering_coefficients(g: Graph) -> np.ndarray:
    """Per-node ratio of closed wedges; zero for degree below two."""
    coeffs = np.zeros(g.n)
    for v in range(g.n):
        nbrs = list(g.neighbors(v))
        k = len(nbrs)
        if k < 2:
            continue
        links = sum(1 for a, b in combinations(nbrs, 2) if g.has_edge(a, b))
        coeffs[v] = links / (k * (k - 1) / 2)
    return coeffs


def orbit4_counts(g: Graph) -> np.ndarray:
    """Per-node counts over the 11 connected 4-node graphlet orbits, shape
    (n, ORBIT_COUNT).

    Every 4-node subset is classified at once: its six node pairs give the
    edge count and the local degrees, and a lookup on (edge count, sorted
    local degrees, local degree) names each node's orbit.  Time and memory
    grow with C(n, 4)."""
    quads = _quads(g.n)
    pairs = adjacency_matrix(g).astype(np.int64)[quads[:, _QUAD_PAIRS[:, 0]], quads[:, _QUAD_PAIRS[:, 1]]]
    degs = pairs @ _PAIR_INCIDENCE
    s0, s1, s2, s3 = np.sort(degs, axis=1).T[:, :, None]
    orbit = _ORBIT_LOOKUP[pairs.sum(axis=1, keepdims=True), s0, s1, s2, s3, degs]
    found = orbit >= 0
    counts = np.bincount(quads[found] * ORBIT_COUNT + orbit[found], minlength=g.n * ORBIT_COUNT)
    return counts.reshape(g.n, ORBIT_COUNT)


def _normalized(hist: np.ndarray) -> np.ndarray:
    """Histogram scaled to unit mass; an all-zero vector becomes a point
    mass at index zero so that distances stay defined."""
    total = hist.sum()
    if total <= 0:
        out = np.zeros(max(hist.shape[0], 1))
        out[0] = 1.0
        return out
    return hist / total


def degree_statistic(g: Graph) -> np.ndarray:
    """Normalized counts over degrees 0..max degree."""
    hist = np.bincount(np.array([g.degree(v) for v in range(g.n)]), minlength=1).astype(np.float64)
    return hist / hist.sum()


def clustering_statistic(g: Graph) -> np.ndarray:
    """Per-node clustering coefficients on [0, 1] in CLUSTERING_BINS equal
    bins, as a share of the nodes."""
    hist, _ = np.histogram(clustering_coefficients(g), bins=CLUSTERING_BINS, range=(0.0, 1.0))
    return hist.astype(np.float64) / g.n


def orbit_statistic(g: Graph) -> np.ndarray:
    """Normalized distribution of total orbit participation over the 11
    orbit types."""
    return _normalized(orbit4_counts(g).sum(axis=0).astype(np.float64))


STATISTICS = {
    "degree": degree_statistic,
    "clustering": clustering_statistic,
    "orbit": orbit_statistic,
}


def wasserstein1(a: np.ndarray, b: np.ndarray) -> float:
    """First Wasserstein distance between histograms on unit-spaced bins;
    the shorter one is padded with zeros."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    width = max(a.shape[0], b.shape[0])
    a, b = np.pad(a, (0, width - a.shape[0])), np.pad(b, (0, width - b.shape[0]))
    return float(np.abs(np.cumsum(a - b)).sum())


def _pairwise_wasserstein1(xs: list[np.ndarray], ys: list[np.ndarray]) -> np.ndarray:
    """wasserstein1(x, y) for every pair, shape (len(xs), len(ys)).

    The histograms are stacked with zero padding.  Pairs are grouped by
    their own padded width, so each distance sums exactly the terms, in the
    order, that wasserstein1 sums for that pair."""
    lens_x = np.array([h.shape[0] for h in xs])
    lens_y = np.array([h.shape[0] for h in ys])
    width = int(max(lens_x.max(), lens_y.max()))
    stack_x = np.array([np.pad(h, (0, width - h.shape[0])) for h in xs])
    stack_y = np.array([np.pad(h, (0, width - h.shape[0])) for h in ys])
    widths = np.maximum(lens_x[:, None], lens_y[None, :])
    out = np.empty(widths.shape)
    for w in np.unique(widths):
        i, j = np.nonzero(widths == w)
        out[i, j] = np.abs(np.cumsum(stack_x[i, :w] - stack_y[j, :w], axis=1)).sum(axis=1)
    return out


def mmd(graphs_a, graphs_b, statistic: str, bandwidth: float = 1.0) -> float:
    """Squared maximum mean discrepancy between two graph sets under a
    Gaussian kernel on the Wasserstein distance of the statistic that
    ``STATISTICS`` names, looked up at call time.

    Biased V-statistic estimate: zero exactly on identical sets and
    symmetric in its arguments.  The statistic runs once per graph and all
    pairwise distances are computed together; each kernel mean is a
    ``math.fsum``, so it does not depend on the order of the pairs."""
    if not 0 < bandwidth < math.inf:
        raise InputError(f"bandwidth must be positive and finite, got {bandwidth!r}")
    if statistic not in STATISTICS:
        raise InputError(f"unknown statistic {statistic!r}")
    fn = STATISTICS[statistic]
    graphs_a, graphs_b = list(graphs_a), list(graphs_b)
    if not graphs_a or not graphs_b:
        raise InputError("mmd needs two nonempty graph sets")
    hists_a = [np.asarray(fn(g), dtype=np.float64) for g in graphs_a]
    hists_b = [np.asarray(fn(g), dtype=np.float64) for g in graphs_b]

    def kernel_mean(xs, ys):
        d = _pairwise_wasserstein1(xs, ys)
        terms = np.exp(-(d * d) / (2.0 * bandwidth * bandwidth))
        return math.fsum(terms.ravel().tolist()) / terms.size

    value = (
        kernel_mean(hists_a, hists_a)
        + kernel_mean(hists_b, hists_b)
        - 2.0 * kernel_mean(hists_a, hists_b)
    )
    return max(value, 0.0)


def averaged_adjacency(q: OrderingModel, g: Graph, sample_count: int, rng) -> np.ndarray:
    """Mean permuted adjacency matrix over orderings drawn from q; entry
    (i, j) is the frequency with which positions i and j hold adjacent
    nodes."""
    check_positive_ints(sample_count=sample_count)
    a = adjacency_matrix(g)
    acc = np.zeros((g.n, g.n))
    remaining = sample_count
    while remaining > 0:
        block = min(_IS_CHUNK, remaining)
        pis, _ = draw_orderings(q, g, block, rng)
        acc += a[pis[:, :, None], pis[:, None, :]].sum(axis=0)
        remaining -= block
    return acc / sample_count
