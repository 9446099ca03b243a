"""Hand-computable cases for the benchmark's independent computations.

Run from the repository root: python3 -m pytest perfbench/test_reference.py
"""

import math
from itertools import combinations, permutations
from typing import NamedTuple

import numpy as np
import pytest

import reference


class G(NamedTuple):
    n: int
    adj: tuple


def graph(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return G(n, tuple(rows))


def complete(n):
    return graph(n, combinations(range(n), 2))


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


@pytest.mark.parametrize(
    "g, expected",
    [(complete(5), 120), (cycle(6), 12), (cycle(5), 10), (star(4), 24), (path(5), 2), (graph(4, []), 24)],
)
def test_automorphism_count(g, expected):
    assert reference.automorphism_count(g) == expected


def test_prefix_counts_complete_graph_single_class():
    counts = reference.prefix_class_counts(complete(4))
    assert set(counts.values()) == {24}


def test_prefix_counts_path3():
    counts = reference.prefix_class_counts(path(3))
    # an adjacent first pair (K2 prefix) is reached by 4 orderings, a
    # non-adjacent one by the 2 orderings that start with both ends
    assert counts[(0, 1, 2)] == 4 and counts[(1, 2, 0)] == 4
    assert counts[(0, 2, 1)] == 2 and counts[(2, 0, 1)] == 2


def test_prefix_counts_partition_orderings():
    for g in (cycle(5), star(3), path(4)):
        counts = reference.prefix_class_counts(g)
        # each class of orderings of size m contributes m entries equal to m
        assert sum(1.0 / m for m in counts.values()) == pytest.approx(len(set_of_classes(g)))


def set_of_classes(g):
    sigs = set()
    for p in permutations(range(g.n)):
        sig = tuple(reference.canonical_form(g, sorted(p[: t + 1])) for t in range(g.n))
        sigs.add(sig)
    return sigs


def test_exact_log_lik_counts_distinct_encodings():
    # a constant score c per ordering sums to c + log(number of distinct
    # representations): n!/|Aut| = 24/8 = 3 adjacency encodings of C4
    g = cycle(4)
    aut = reference.automorphism_count(g)
    mult = {p: aut for p in permutations(range(4))}
    value = reference.exact_log_lik(g, lambda pis: np.full(len(pis), -2.0), mult)
    assert value == pytest.approx(-2.0 + math.log(3))


def test_exact_log_lik_complete_graph_is_the_score():
    g = complete(4)
    value = reference.exact_log_lik(g, lambda pis: np.full(len(pis), -1.5), reference.prefix_class_counts(g))
    assert value == pytest.approx(-1.5)


def test_degree_and_clustering_histograms():
    a = reference.adjacency(star(3))
    assert reference.degree_histogram(a).tolist() == [0.0, 0.75, 0.0, 0.25]
    c = reference.clustering_histogram(reference.adjacency(complete(4)))
    assert c[-1] == 1.0 and c[:-1].sum() == 0.0
    c = reference.clustering_histogram(a)
    assert c[0] == 1.0


PAW = graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
DIAMOND = graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.mark.parametrize(
    "g, totals",
    [
        (path(4), {0: 2, 1: 2}),
        (star(3), {2: 3, 3: 1}),
        (cycle(4), {4: 4}),
        (PAW, {5: 1, 6: 2, 7: 1}),
        (DIAMOND, {8: 2, 9: 2}),
        (complete(4), {10: 4}),
    ],
)
def test_orbit_histogram_single_graphlet(g, totals):
    expected = np.zeros(reference.ORBIT_COUNT)
    for orbit, count in totals.items():
        expected[orbit] = count / 4
    assert reference.orbit_histogram(reference.adjacency(g)).tolist() == expected.tolist()


def test_orbit_histogram_of_small_graph_is_point_mass():
    h = reference.orbit_histogram(reference.adjacency(path(3)))
    assert h[0] == 1.0 and h.sum() == 1.0


def test_orbit_counts_of_k5():
    # every 4-subset of K5 is a K4, and each K4 has four clique-orbit nodes
    h = reference.orbit_histogram(reference.adjacency(complete(5)))
    assert h[10] == 1.0


def test_mmd_by_hand():
    k3 = [reference.adjacency(complete(3))]
    p3 = [reference.adjacency(path(3))]
    # degree histograms [0, 0, 1] and [0, 2/3, 1/3] are 2/3 apart in W1
    expected = 2.0 - 2.0 * math.exp(-((2 / 3) ** 2) / 2)
    assert reference.mmd(k3, p3, "degree") == pytest.approx(expected)
    assert reference.mmd(k3 + p3, k3 + p3, "orbit") == 0.0
