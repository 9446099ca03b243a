import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphorder.errors import InputError
from graphorder.graphs import (
    Graph,
    adjacency_matrix,
    degree_sequence,
    induced_subgraph,
    is_connected,
    isomorphic,
    validate_ordering,
    validate_orderings,
)
from graphorder.symmetry import sequence_multiplicity_cr
from oracles import (
    LowerTriangularEncoding,
    all_graphs,
    brute_canonical_form,
    edges_preserved,
    encode_adjacency,
    random_graph,
)
from strategies import graphs, graphs_with_ordering


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def rows_matrix(enc):
    """The symmetric 0/1 matrix whose strict lower triangle is ``enc.rows``."""
    a = np.zeros((enc.n, enc.n))
    for k, row in enumerate(enc.rows):
        a[k + 1, : k + 1] = row
    return a + a.T


def permuted_adjacency(g, pi):
    """Adjacency matrix of ``g`` with row and column i for node ``pi[i]``."""
    return adjacency_matrix(g)[np.ix_(pi, pi)]


class TestGraph:
    def test_basic_accessors(self):
        g = path(3)
        assert g.n == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.neighbors(1) == [0, 2]
        assert g.degree(1) == 2
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (1, 2)]

    def test_single_node(self):
        g = Graph.from_edges(1, [])
        assert g.n == 1 and g.edge_count == 0

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(InputError):
            Graph(2, (1, 2))  # bit 0 of row 0 set

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 2)])

    def test_from_edges_accepts_numpy_integers(self):
        g = Graph.from_edges(3, np.array([[0, 1]]))
        assert g == Graph.from_edges(3, [(0, 1)])
        assert all(type(row) is int for row in g.adj)
        assert g.degree(0) == 1
        assert Graph.from_edges(3, [(np.int32(2), np.uint8(0))]) == Graph.from_edges(3, [(0, 2)])

    @pytest.mark.parametrize(
        "edge", [(True, 2), (0, False), (0.0, 1), (1, np.float64(2.0)), (np.bool_(True), 2)]
    )
    def test_from_edges_rejects_floats_and_bools(self, edge):
        with pytest.raises(InputError, match="integers"):
            Graph.from_edges(3, [edge])

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            Graph(2, (2, 0))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Graph(0, ())

    def test_degree_sequence(self):
        assert degree_sequence(path(4)) == (1, 1, 2, 2)
        assert degree_sequence(complete(4)) == (3, 3, 3, 3)

    def test_adjacency_matrix(self):
        a = adjacency_matrix(path(3))
        assert a.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert (a == a.T).all()

    def test_is_connected(self):
        assert is_connected(path(5))
        assert not is_connected(Graph.from_edges(3, [(0, 1)]))
        assert is_connected(Graph.from_edges(1, []))


class TestInducedSubgraph:
    def test_path_middle(self):
        g = path(4)
        sub = induced_subgraph(g, [1, 2])
        assert sub.n == 2 and sub.has_edge(0, 1)

    def test_node_order_defines_labels(self):
        g = path(3)
        sub = induced_subgraph(g, [2, 1])
        assert sub.has_edge(0, 1)
        sub2 = induced_subgraph(g, [0, 2])
        assert sub2.edge_count == 0

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            induced_subgraph(path(3), [0, 0])

    @given(graphs(2, 6), st.data())
    def test_subgraph_edges_match(self, g, data):
        k = data.draw(st.integers(1, g.n))
        nodes = data.draw(st.permutations(range(g.n)))[:k]
        sub = induced_subgraph(g, nodes)
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert sub.has_edge(i, j) == g.has_edge(nodes[i], nodes[j])


class TestEncoding:
    def test_identity_roundtrip(self):
        g = path(4)
        enc = encode_adjacency(g, (0, 1, 2, 3))
        assert np.array_equal(rows_matrix(enc), adjacency_matrix(g))

    def test_rows_shape(self):
        enc = encode_adjacency(path(4), (0, 1, 2, 3))
        assert [len(r) for r in enc.rows] == [1, 2, 3]
        assert enc.rows[0] == (1,)
        assert enc.rows[2] == (0, 0, 1)

    def test_reversed_path(self):
        enc = encode_adjacency(path(3), (2, 1, 0))
        assert enc.rows == ((1,), (0, 1))

    def test_single_node_encoding(self):
        enc = encode_adjacency(Graph.from_edges(1, []), (0,))
        assert enc.n == 1 and enc.rows == ()

    def test_rejects_bad_ordering(self):
        with pytest.raises(InputError):
            encode_adjacency(path(3), (0, 1))
        with pytest.raises(InputError):
            encode_adjacency(path(3), (0, 1, 1))

    def test_rejects_malformed_rows(self):
        with pytest.raises(InputError):
            LowerTriangularEncoding(3, ((1,),))
        with pytest.raises(InputError):
            LowerTriangularEncoding(3, ((1,), (0, 2)))
        with pytest.raises(InputError):
            LowerTriangularEncoding(3, ((1, 0), (0, 1)))

    @given(graphs_with_ordering(1, 6))
    def test_rows_match_permuted_adjacency(self, g_pi):
        g, pi = g_pi
        assert np.array_equal(rows_matrix(encode_adjacency(g, pi)), permuted_adjacency(g, pi))

    @given(graphs(1, 6))
    def test_identity_rows_match_adjacency(self, g):
        enc = encode_adjacency(g, tuple(range(g.n)))
        assert np.array_equal(rows_matrix(enc), adjacency_matrix(g))


class TestIsomorphic:
    def test_path_relabelings(self):
        assert isomorphic(path(4), induced_subgraph(path(4), (2, 1, 3, 0)))

    def test_nonisomorphic_same_degrees(self):
        # C6 and two triangles share the degree sequence
        c6 = cycle(6)
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not isomorphic(c6, two_triangles)

    def test_star_vs_path(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert not isomorphic(star, path(4))

    def test_size_mismatch(self):
        assert not isomorphic(path(3), path(4))

    def test_exhaustive_four_nodes(self):
        small = list(all_graphs(4))
        forms = [brute_canonical_form(g) for g in small]
        for g1, f1 in zip(small, forms):
            for g2, f2 in zip(small, forms):
                assert isomorphic(g1, g2) == (f1 == f2)

    @settings(max_examples=20)
    @given(graphs(1, 5), graphs(1, 5))
    def test_matches_canonical_form_oracle(self, g1, g2):
        assert isomorphic(g1, g2) == (brute_canonical_form(g1) == brute_canonical_form(g2))

    @given(graphs_with_ordering(1, 6))
    def test_relabeling_is_isomorphic(self, g_pi):
        g, pi = g_pi
        h = induced_subgraph(g, pi)
        assert np.array_equal(adjacency_matrix(h), permuted_adjacency(g, pi))
        assert isomorphic(g, h) and isomorphic(h, g)


def test_validate_ordering_roundtrip():
    g = path(3)
    assert validate_ordering(g, [2, 0, 1]) == (2, 0, 1)
    with pytest.raises(InputError):
        validate_ordering(g, [0, 1])


@pytest.mark.parametrize(
    "bad",
    [
        [0, 1.7, 2],
        [0, 1.0, 2],
        [0, np.float64(1.0), 2],
        [True, False, 2],
        [0, np.bool_(True), 2],
        np.array([0.0, 1.0, 2.0]),
    ],
)
def test_validate_ordering_rejects_non_integers(bad):
    # int() would truncate 1.7 to 1 and read True as 1, passing the
    # permutation check
    with pytest.raises(InputError, match="integers"):
        validate_ordering(path(3), bad)
    with pytest.raises(InputError, match="integers"):
        sequence_multiplicity_cr(path(3), bad)


def test_validate_ordering_accepts_numpy_integers():
    g = path(3)
    for pi in (np.array([2, 0, 1]), np.array([2, 0, 1], dtype=np.int32), [np.int64(2), 0, np.uint8(1)]):
        assert validate_ordering(g, pi) == (2, 0, 1)
        assert all(type(v) is int for v in validate_ordering(g, pi))


def test_validate_orderings_batch():
    g = path(3)
    pis = validate_orderings(g, [[2, 0, 1], (0, 1, 2)])
    assert pis.dtype == np.int64 and pis.tolist() == [[2, 0, 1], [0, 1, 2]]
    for bad in ([[-1, 0, 1]], [["a", 1, 2]], [[0.5, 1, 2]], [[True, False, True]]):
        with pytest.raises(InputError):
            validate_orderings(g, bad)


def test_all_graphs_count():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(4)) == 64


def test_random_graph_oracle_helper():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 6, 0.5)
    assert g.n == 6
    assert edges_preserved(g, tuple(range(6)))
