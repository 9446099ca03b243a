import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphorder.data import gen_community_small
from graphorder.errors import InputError, ResourceError
from graphorder.graphs import Graph
from graphorder.rng import spawn_rng
from graphorder.symmetry import (
    _newest_orbit_size,
    _orbit,
    automorphism_count,
    color_refinement,
    orbit_partition,
    sequence_multiplicity_cr,
    sequence_multiplicity_exact,
    symmetry_report,
)
from oracles import (
    all_graphs,
    brute_automorphism_count,
    brute_canonical_form,
    brute_orbits,
    brute_prefix_signatures,
    brute_sequence_class_counts,
    brute_sequence_multiplicity,
    loop_color_refinement,
    per_prefix_multiplicity_cr,
    random_graph,
    search_automorphism_count,
)
from strategies import graphs, graphs_with_ordering


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


class TestColorRefinement:
    def test_four_path_two_classes(self):
        colors = color_refinement(path(4))
        assert colors[0] == colors[3]
        assert colors[1] == colors[2]
        assert colors[0] != colors[1]
        assert len(set(colors)) == 2

    def test_regular_graph_single_class(self):
        assert len(set(color_refinement(cycle(6)))) == 1
        assert len(set(color_refinement(complete(4)))) == 1

    def test_respects_initial_coloring(self):
        g = cycle(4)
        colors = color_refinement(g, [1, 0, 0, 0])
        # marking one node of C4 separates its neighbours from the far node
        assert len(set(colors)) == 3
        assert colors[1] == colors[3]

    def test_initial_length_checked(self):
        with pytest.raises(InputError):
            color_refinement(path(3), [0, 1])

    @given(graphs(1, 6))
    def test_stable_under_one_more_round(self, g):
        colors = color_refinement(g)
        again = color_refinement(g, colors)
        assert again == colors

    @given(graphs(1, 5))
    def test_classes_are_orbit_unions(self, g):
        colors = color_refinement(g)
        for cell in brute_orbits(g):
            assert len({colors[u] for u in cell}) == 1

    @given(graphs(1, 6))
    def test_dense_ids(self, g):
        colors = color_refinement(g)
        assert set(colors) == set(range(len(set(colors))))


class TestRefinementMatchesLoopOracle:
    """Refinement over neighbour lists, and cr multiplicities from neighbour
    lists grown along the ordering, against one refinement loop over
    bitmasks and one induced prefix graph per step (``oracles``)."""

    FIXED = [
        Graph.from_edges(1, []),
        Graph.from_edges(4, []),
        cycle(6),
        complete(4),
        petersen(),
        # a 6-cycle and two triangles: 2-regular, one class, two orbits
        Graph.from_edges(
            12,
            [(i, (i + 1) % 6) for i in range(6)] + [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)],
        ),
        path(5),
        star(4),
    ]

    @pytest.mark.parametrize("g", FIXED, ids=lambda g: f"n{g.n}m{g.edge_count}")
    def test_fixed_graphs(self, g):
        assert color_refinement(g) == loop_color_refinement(g)
        marked = [0] * g.n
        marked[-1] = 5
        assert color_refinement(g, marked) == loop_color_refinement(g, marked)

    @given(graphs(1, 8))
    def test_color_refinement(self, g):
        assert color_refinement(g) == loop_color_refinement(g)

    @given(graphs(1, 8), st.data())
    def test_color_refinement_from_initial(self, g, data):
        initial = data.draw(st.lists(st.integers(-2, 3), min_size=g.n, max_size=g.n))
        assert color_refinement(g, initial) == loop_color_refinement(g, initial)

    def test_cr_multiplicity_every_ordering_up_to_five_nodes(self):
        # one graph per isomorphism class: a relabelled graph with the
        # relabelled ordering has the same prefix graphs
        seen = set()
        for n in range(1, 6):
            for g in all_graphs(n):
                form = brute_canonical_form(g)
                if form in seen:
                    continue
                seen.add(form)
                for pi in permutations(range(n)):
                    assert sequence_multiplicity_cr(g, pi) == per_prefix_multiplicity_cr(g, pi), (g, pi)
        assert len(seen) == 1 + 2 + 4 + 11 + 34

    def test_cr_multiplicity_community_graphs(self):
        dataset = gen_community_small(8, (12, 16), 0.7, spawn_rng(17, 0))
        rng = spawn_rng(17, 1)
        for g in dataset.graphs:
            for _ in range(5):
                pi = rng.permutation(g.n)
                assert sequence_multiplicity_cr(g, pi) == per_prefix_multiplicity_cr(g, pi)


class TestAutomorphismCount:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete(5), 120),
            (cycle(6), 12),
            (path(6), 2),
            (star(5), 120),
            (cycle(5), 10),
            (Graph.from_edges(1, []), 1),
            (Graph.from_edges(4, []), 24),
            (path(3), 2),
        ],
    )
    def test_known_groups(self, g, expected):
        assert automorphism_count(g) == expected

    def test_petersen(self):
        g = petersen()
        assert automorphism_count(g) == 120
        assert search_automorphism_count(g) == 120

    def test_exhaustive_small(self):
        for n in (1, 2, 3, 4, 5):
            for g in all_graphs(n):
                assert automorphism_count(g) == brute_automorphism_count(g)
                assert orbit_partition(g) == brute_orbits(g)

    @settings(max_examples=40)
    @given(graphs(5, 7))
    def test_matches_brute_force(self, g):
        assert automorphism_count(g) == brute_automorphism_count(g)

    def test_budget(self):
        g = path(129)
        with pytest.raises(ResourceError):
            automorphism_count(g)
        with pytest.raises(ResourceError):
            orbit_partition(g)
        with pytest.raises(ResourceError):
            sequence_multiplicity_exact(g, range(129))


class TestOrbits:
    def test_path_orbits(self):
        assert orbit_partition(path(4)) == [{0, 3}, {1, 2}]

    def test_star_orbits(self):
        assert orbit_partition(star(4)) == [{0}, {1, 2, 3, 4}]

    def test_orbits_inside_one_refinement_class(self):
        # every node has degree 2, so refinement leaves one class holding two
        # orbits, and the triangles' orbit needs the map that swaps them
        triangles = [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)]
        g = Graph.from_edges(12, [(i, (i + 1) % 6) for i in range(6)] + triangles)
        assert len(set(color_refinement(g))) == 1
        assert orbit_partition(g) == [set(range(6)), set(range(6, 12))]
        assert automorphism_count(g) == 12 * 72

    def test_orbit_of(self):
        assert orbit_partition(cycle(5)) == [{0, 1, 2, 3, 4}]
        assert {0, 3} in orbit_partition(path(4))

    @settings(max_examples=40)
    @given(graphs(1, 6))
    def test_matches_brute_orbits(self, g):
        assert orbit_partition(g) == brute_orbits(g)

    @given(graphs(1, 6), st.data())
    def test_orbit_of_consistent_with_partition(self, g, data):
        v = data.draw(st.integers(0, g.n - 1))
        cells = orbit_partition(g)
        (cell,) = [c for c in cells if v in c]
        # orbit_partition starts each cell's search at its smallest node
        assert _orbit(g, color_refinement(g), v) == cell

    @given(graphs(1, 6))
    def test_orbit_sizes_divide_group_order(self, g):
        total = automorphism_count(g)
        for cell in orbit_partition(g):
            assert total % len(cell) == 0


class TestSequenceMultiplicity:
    def test_three_path_center_first(self):
        assert sequence_multiplicity_exact(path(3), (1, 0, 2)) == 4
        assert sequence_multiplicity_cr(path(3), (1, 0, 2)) == 4

    def test_three_path_ends_first(self):
        assert sequence_multiplicity_exact(path(3), (0, 2, 1)) == 2

    def test_complete_graph_factorial(self):
        for n in (2, 3, 4, 5):
            g = complete(n)
            pi = tuple(range(n))
            assert sequence_multiplicity_exact(g, pi) == math.factorial(n)
            assert sequence_multiplicity_cr(g, pi) == math.factorial(n)

    @settings(max_examples=25)
    @given(graphs_with_ordering(1, 5))
    def test_matches_brute_grouping(self, g_pi):
        g, pi = g_pi
        assert sequence_multiplicity_exact(g, pi) == brute_sequence_multiplicity(g, pi)

    @settings(max_examples=25)
    @given(graphs_with_ordering(1, 6))
    def test_bound_holds(self, g_pi):
        g, pi = g_pi
        assert sequence_multiplicity_cr(g, pi) >= sequence_multiplicity_exact(g, pi)

    @settings(max_examples=15)
    @given(graphs(1, 5))
    def test_class_multiplicities_sum_to_factorial(self, g):
        # summing 1/multiplicity over all orderings counts each sequence
        # isomorphism class exactly once
        values = [sequence_multiplicity_exact(g, pi) for pi in permutations(range(g.n))]
        assert sum(1.0 / v for v in values) == pytest.approx(
            len(brute_sequence_class_counts(g))
        )

    def test_random_graphs_match_brute_grouping(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 7)), 0.4)
            counts = brute_sequence_class_counts(g)
            assert sum(counts.values()) == math.factorial(g.n)
            pi = tuple(rng.permutation(g.n))
            assert sequence_multiplicity_exact(g, pi) == brute_sequence_multiplicity(g, pi)

    def test_prefix_memo_is_exact_and_bounded(self):
        _newest_orbit_size.cache_clear()
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        counts = brute_sequence_class_counts(g)
        signatures = brute_prefix_signatures(g)
        for pi, sig in signatures.items():
            assert sequence_multiplicity_exact(g, pi) == counts[sig]
        first = _newest_orbit_size.cache_info()
        # one lookup per (node set, newest node in it)
        assert first.misses <= g.n * 2 ** (g.n - 1)
        for pi in signatures:
            sequence_multiplicity_exact(g, pi)
        second = _newest_orbit_size.cache_info()
        assert second.misses == first.misses
        assert second.hits > first.hits
        assert second.currsize <= second.maxsize
        # same n, overlapping masks: the key must tell the graphs apart
        p4, s3 = path(4), star(3)
        for pi in permutations(range(4)):
            for h in (p4, s3):
                assert sequence_multiplicity_exact(h, pi) == brute_sequence_multiplicity(h, pi)


class TestSymmetryReport:
    def test_report_contents(self):
        doc = symmetry_report(complete(3), order=(0, 1, 2), exact_sequence=True)
        assert doc == {
            "nodeCount": 3,
            "autCount": 6,
            "orbits": [[0, 1, 2]],
            "stableColoring": [0, 0, 0],
            "order": [0, 1, 2],
            "sequenceMultiplicityExact": 6,
            "sequenceMultiplicityBound": 6,
        }

    def test_report_without_order(self):
        doc = symmetry_report(path(3), order=None, exact_sequence=True)
        assert "order" not in doc
        assert doc["stableColoring"][0] == doc["stableColoring"][2]
        doc = symmetry_report(path(3), order=(1, 0, 2), exact_sequence=False)
        assert doc["sequenceMultiplicityExact"] is None
        assert doc["sequenceMultiplicityBound"] == 4
