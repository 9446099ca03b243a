"""Dataset format and synthetic generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphorder.data import (
    GraphDataset,
    community_halves,
    format_graphs,
    gen_community_small,
    gen_er,
    load_dataset,
    parse_graphs,
)
from graphorder.errors import GenerationError, InputError, ParseError
from graphorder.files import write_text_atomic
from graphorder.graphs import Graph, is_connected, isomorphic
from graphorder.rng import spawn_rng
from graphorder.symmetry import automorphism_count

from strategies import graphs as graph_strategy

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestParsing:
    def test_single_node_file(self):
        assert parse_graphs("1 0\n") == [Graph.from_edges(1, [])]

    def test_triangle_file(self):
        assert parse_graphs("3 3\n0 1\n1 2\n0 2\n") == [K3]

    def test_multiple_blocks(self):
        parsed = parse_graphs("1 0\n\n3 3\n0 1\n1 2\n0 2\n")
        assert parsed == [Graph.from_edges(1, []), K3]

    def test_isolated_node_kept(self):
        (g,) = parse_graphs("3 1\n0 1\n")
        assert g.n == 3 and g.degree(2) == 0

    def test_missing_final_newline_tolerated(self):
        assert parse_graphs("3 1\n0 1") == [Graph.from_edges(3, [(0, 1)])]

    def test_empty_text_is_empty_dataset(self):
        assert parse_graphs("") == []

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("x 0\n", 1),
            ("2\n", 1),
            ("0 0\n", 1),
            ("-1 0\n", 1),
            ("2 4\n", 1),
            ("2 1\nnope\n", 2),
            ("2 1\n0 0\n", 2),
            ("2 1\n1 0\n", 2),
            ("2 1\n0 2\n", 2),
            ("3 2\n0 1\n0 1\n", 3),
            ("3 2\n0 1\n", 3),
            ("3 2\n0 1\n\n", 3),
            ("\n1 0\n", 1),
            ("1 0\n1 0\n", 2),
            ("1 0\n\n", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(ParseError) as info:
            parse_graphs(text)
        assert info.value.line == lineno
        assert f"line {lineno}:" in str(info.value)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_dataset(tmp_path / "absent.txt")

    def test_load_reads_file_graphs(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("1 0\n\n3 3\n0 1\n0 2\n1 2\n")
        assert load_dataset(path).graphs == (Graph.from_edges(1, []), K3)


class TestRoundTrip:
    def test_known_bytes(self, tmp_path):
        ds = GraphDataset((Graph.from_edges(1, []), K3))
        path = tmp_path / "two.txt"
        write_text_atomic(path, format_graphs(ds))
        assert path.read_bytes() == b"1 0\n\n3 3\n0 1\n0 2\n1 2\n"
        # the write goes through a temporary file that must not be left behind
        assert [p.name for p in tmp_path.iterdir()] == ["two.txt"]

    @given(st.lists(graph_strategy(max_nodes=7), min_size=0, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_format_parse_identity(self, graph_list):
        assert parse_graphs(format_graphs(graph_list)) == graph_list

    def test_save_load_identity(self, tmp_path):
        rng = spawn_rng(7)
        ds = gen_er(6, 5, 0.4, rng)
        path = tmp_path / "er.txt"
        write_text_atomic(path, format_graphs(ds))
        loaded = load_dataset(path)
        assert list(loaded.graphs) == list(ds.graphs)
        write_text_atomic(tmp_path / "again.txt", format_graphs(loaded))
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


class TestErGenerator:
    def test_p_zero_empty(self):
        ds = gen_er(4, 5, 0.0, spawn_rng(0))
        assert all(g.edge_count == 0 for g in ds)

    def test_p_one_complete(self):
        ds = gen_er(4, 5, 1.0, spawn_rng(0))
        assert all(g.edge_count == 10 for g in ds)

    def test_mean_edge_count_binomial(self):
        n, p, draws = 6, 0.3, 10000
        pairs = n * (n - 1) // 2
        ds = gen_er(draws, n, p, spawn_rng(11))
        mean = np.mean([g.edge_count for g in ds])
        sigma = math.sqrt(pairs * p * (1 - p) / draws)
        assert abs(mean - pairs * p) < 3 * sigma

    def test_seed_reproducible(self):
        a = gen_er(5, 6, 0.5, spawn_rng(3))
        b = gen_er(5, 6, 0.5, spawn_rng(3))
        assert list(a.graphs) == list(b.graphs)

    def test_rejects_bad_arguments(self):
        rng = spawn_rng(0)
        with pytest.raises(InputError):
            gen_er(-1, 3, 0.5, rng)
        with pytest.raises(InputError):
            gen_er(1, 0, 0.5, rng)
        with pytest.raises(InputError):
            gen_er(1, 3, 1.5, rng)


def bridge_edges(g: Graph, a: int) -> list[tuple[int, int]]:
    return [(u, v) for u, v in g.edges() if u < a <= v]


class TestCommunityGenerator:
    def test_sizes_within_range(self):
        ds = gen_community_small(20, (12, 16), 0.7, spawn_rng(5))
        assert len(ds) == 20
        sizes = [g.n for g in ds]
        assert 12 <= min(sizes) <= max(sizes) <= 16

    def test_exactly_one_bridge_and_connected_halves(self):
        ds = gen_community_small(30, (8, 11), 0.6, spawn_rng(9))
        for g in ds:
            a, b = community_halves(g.n)
            bridges = bridge_edges(g, a)
            assert len(bridges) == 1
            left = [e for e in g.edges() if e[1] < a]
            right = [(u - a, v - a) for u, v in g.edges() if u >= a]
            assert is_connected(Graph.from_edges(a, left))
            assert is_connected(Graph.from_edges(b, right))

    @pytest.mark.parametrize("n", [6, 8])
    def test_clique_pair_automorphisms(self, n):
        ds = gen_community_small(3, (n, n), 1.0, spawn_rng(21))
        a, b = community_halves(n)
        expected = math.factorial(a - 1) * math.factorial(b - 1)
        if a == b:
            expected *= 2
        for g in ds:
            assert automorphism_count(g) == expected

    def test_seed_reproducible(self):
        a = gen_community_small(4, (8, 10), 0.7, spawn_rng(2))
        b = gen_community_small(4, (8, 10), 0.7, spawn_rng(2))
        assert list(a.graphs) == list(b.graphs)

    def test_impossible_connectivity_raises(self):
        with pytest.raises(GenerationError):
            gen_community_small(1, (6, 6), 0.0, spawn_rng(0))

    def test_rejects_bad_arguments(self):
        rng = spawn_rng(0)
        with pytest.raises(InputError):
            gen_community_small(1, (3, 6), 0.7, rng)
        with pytest.raises(InputError):
            gen_community_small(1, (8, 6), 0.7, rng)
        with pytest.raises(InputError):
            gen_community_small(1, (6, 8), -0.1, rng)


class TestDatasetContainer:
    def test_coerces_to_tuple(self):
        ds = GraphDataset([K3])
        assert isinstance(ds.graphs, tuple)

    def test_isomorphism_not_required_for_equality(self):
        relabeled = Graph.from_edges(3, [(0, 2), (1, 2), (0, 1)])
        assert isomorphic(K3, relabeled)
        assert list(GraphDataset((K3,)).graphs) == [relabeled]
