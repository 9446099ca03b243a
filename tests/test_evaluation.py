"""Evaluation tests: importance-sampled likelihoods against enumeration,
graphlet-orbit classification against the automorphism engine, MMD
properties, and averaged adjacency values."""

import math
from itertools import combinations

import numpy as np
import pytest

from graphorder.errors import InputError, ResourceError
from graphorder.evaluation import (
    STATISTICS,
    averaged_adjacency,
    clustering_coefficients,
    clustering_statistic,
    degree_statistic,
    importance_estimate,
    jackknife_log_mean_stderr,
    mmd,
    orbit4_counts,
    orbit_statistic,
    wasserstein1,
)
from graphorder.graphs import Graph, induced_subgraph, is_connected, isomorphic
from graphorder.models import (
    AdjacencyModel,
    AdjacencyModelConfig,
    SequenceModel,
    SequenceModelConfig,
    exact_marginal_log_prob,
)
from graphorder.posterior import OrderPosterior, PosteriorConfig, UniformOrderer
from graphorder.rng import spawn_rng
from graphorder.symmetry import orbit_partition
from oracles import all_graphs, loop_orbit4_counts, random_graph, zero_store

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
STAR4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
PAW = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
DIAMOND = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def coin3():
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=5, fixed_node_count=3))
    zero_store(model.store)
    return model


def coin3_sequence():
    model = SequenceModel(SequenceModelConfig(max_nodes=5, fixed_node_count=3))
    zero_store(model.store)
    return model


class TestImportanceLogLik:
    def test_constant_ratio_exact_at_one_sample(self):
        for coin in (coin3(), coin3_sequence()):
            # fair coin on K_3: joint 1/48 against uniform 1/6, ratio always 1/8
            est = importance_estimate(coin, UniformOrderer(), K3, 1, spawn_rng(1)).log_lik
            assert est == pytest.approx(math.log(1 / 8), abs=1e-12)
            # on P_3 the ratio is (1/16)/(1/6) for every ordering, as every
            # ordering divides by |Aut(P_3)| = 2
            est = importance_estimate(coin, UniformOrderer(), P3, 16, spawn_rng(2))
            assert est.log_lik == pytest.approx(math.log(3 / 8), abs=1e-12), coin.kind
            assert est.stderr == pytest.approx(0.0, abs=1e-12), coin.kind

    def test_converges_to_enumerated_value(self):
        g = random_graph(spawn_rng(4), 4, 0.5)
        for model in (
            AdjacencyModel(AdjacencyModelConfig(max_nodes=6, hidden=8, row_embed=4, seed=3)),
            SequenceModel(SequenceModelConfig(max_nodes=6, hidden=8, edge_hidden=6, seed=3)),
        ):
            exact = exact_marginal_log_prob(model, g)
            est = importance_estimate(model, UniformOrderer(), g, 5000, spawn_rng(5)).log_lik
            assert abs(est - exact) < 0.05, model.kind

    def test_learned_proposal_accepted(self):
        q = OrderPosterior(PosteriorConfig(max_nodes=6, layers=1, heads=2, head_dim=3, seed=6))
        model = AdjacencyModel(AdjacencyModelConfig(max_nodes=6, hidden=8, row_embed=4, seed=7))
        est = importance_estimate(model, q, P3, 64, spawn_rng(8)).log_lik
        assert math.isfinite(est) and est < 0

    def test_sample_count_guard(self):
        with pytest.raises(InputError):
            importance_estimate(coin3(), UniformOrderer(), K3, 0, spawn_rng(9))

    def test_estimate_record_constant_ratio_zero_stderr(self):
        est = importance_estimate(coin3(), UniformOrderer(), K3, 16, spawn_rng(10))
        assert est.log_lik == pytest.approx(math.log(1 / 8), abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)
        assert est.sample_count == 16

    def test_single_sample_has_no_stderr(self):
        est = importance_estimate(coin3(), UniformOrderer(), K3, 1, spawn_rng(11))
        assert est.stderr is None

    def test_jackknife_matches_direct_leave_one_out(self):
        rng = spawn_rng(12)
        log_w = rng.normal(-3.0, 1.5, size=40)
        w = np.exp(log_w)
        loo = np.array([np.log(np.delete(w, i).mean()) for i in range(len(w))])
        direct = math.sqrt((len(w) - 1) / len(w) * np.sum((loo - loo.mean()) ** 2))
        assert jackknife_log_mean_stderr(log_w) == pytest.approx(direct, rel=1e-9)

    def test_jackknife_dominant_weight_is_infinite(self):
        log_w = np.array([0.0, -2000.0, -2000.0])
        assert jackknife_log_mean_stderr(log_w) == math.inf

    def test_jackknife_needs_two_samples(self):
        with pytest.raises(InputError):
            jackknife_log_mean_stderr(np.array([0.5]))

    def test_stderr_shrinks_with_sample_count(self):
        model = AdjacencyModel(AdjacencyModelConfig(max_nodes=6, hidden=8, row_embed=4, seed=3))
        g = random_graph(spawn_rng(4), 4, 0.5)
        small = importance_estimate(model, UniformOrderer(), g, 50, spawn_rng(13))
        large = importance_estimate(model, UniformOrderer(), g, 5000, spawn_rng(13))
        assert large.stderr < small.stderr


class TestExactLogLik:
    def test_frozen_coin_values(self):
        assert exact_marginal_log_prob(coin3(), K3) == pytest.approx(math.log(1 / 8), abs=1e-12)
        assert exact_marginal_log_prob(coin3(), P3) == pytest.approx(math.log(3 / 8), abs=1e-12)

    def test_size_guard(self):
        model = AdjacencyModel(AdjacencyModelConfig(max_nodes=12, hidden=8, row_embed=4))
        with pytest.raises(ResourceError):
            exact_marginal_log_prob(model, random_graph(spawn_rng(11), 9, 0.3))


class TestStatistics:
    def test_triangle(self):
        assert np.allclose(degree_statistic(K3), [0, 0, 1])
        clustering = clustering_statistic(K3)
        assert clustering[-1] == pytest.approx(1.0)
        assert clustering[:-1].sum() == 0
        counts = orbit4_counts(K3)
        assert counts.shape == (3, 11)
        assert counts.sum() == 0

    def test_four_cycle(self):
        counts = orbit4_counts(C4)
        expect = np.zeros((4, 11))
        expect[:, 4] = 1
        assert np.array_equal(counts, expect)
        assert np.allclose(degree_statistic(C4), [0, 0, 1])

    def test_star_clustering_zero(self):
        assert clustering_statistic(STAR4)[0] == pytest.approx(1.0)
        counts = orbit4_counts(STAR4)
        assert counts[0, 3] == 1 and np.all(counts[1:, 2] == 1)

    def test_path_orbits(self):
        counts = orbit4_counts(P4)
        assert counts[0, 0] == 1 and counts[3, 0] == 1
        assert counts[1, 1] == 1 and counts[2, 1] == 1
        assert counts.sum() == 4

    def test_paw_orbits(self):
        counts = orbit4_counts(PAW)
        assert counts[3, 5] == 1  # pendant
        assert counts[0, 6] == 1 and counts[1, 6] == 1  # triangle pair
        assert counts[2, 7] == 1  # apex
        assert counts.sum() == 4

    def test_diamond_and_clique_orbits(self):
        counts = orbit4_counts(DIAMOND)
        assert counts[2, 8] == 1 and counts[3, 8] == 1
        assert counts[0, 9] == 1 and counts[1, 9] == 1
        counts = orbit4_counts(K4)
        assert np.all(counts[:, 10] == 1)

    def test_triangle_plus_isolated_excluded(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert orbit4_counts(g).sum() == 0
        assert np.allclose(orbit_statistic(g), np.eye(11)[0])

    def test_orbit_table_matches_automorphism_orbits(self):
        """Within every connected 4-node graphlet, two nodes share a table
        orbit id exactly when the automorphism engine puts them in one
        orbit."""
        seen = []
        for g in all_graphs(4):
            if not is_connected(g) or any(isomorphic(g, h) for h in seen):
                continue
            seen.append(g)
            counts = orbit4_counts(g)
            ids = [int(np.flatnonzero(counts[v])[0]) for v in range(4)]
            parts = orbit_partition(g)
            for u in range(4):
                for v in range(u + 1, 4):
                    same_part = any(u in p and v in p for p in parts)
                    assert (ids[u] == ids[v]) == same_part
        assert len(seen) == 6

    def test_total_participation_counts_connected_quads(self):
        rng = spawn_rng(12)
        for _ in range(10):
            g = random_graph(rng, 7, 0.45)
            quads = sum(
                1
                for sub in combinations(range(7), 4)
                if is_connected(induced_subgraph(g, sub))
            )
            assert orbit4_counts(g).sum() == 4 * quads

    def test_matches_loop_oracle(self):
        rng = spawn_rng(25)
        for n in range(1, 11):
            for p in (0.2, 0.5, 0.8):
                g = random_graph(rng, n, p)
                counts = orbit4_counts(g)
                assert counts.shape == (n, 11) and counts.dtype == np.int64
                assert np.array_equal(counts, loop_orbit4_counts(g))

    def test_clustering_values(self):
        # node 2 of the paw touches all three others with one closed pair
        coeffs = clustering_coefficients(PAW)
        assert coeffs[2] == pytest.approx(1 / 3)
        assert coeffs[3] == 0.0
        assert coeffs[0] == pytest.approx(1.0)


class TestMmd:
    def test_wasserstein_values(self):
        assert wasserstein1([1, 0], [0, 1]) == pytest.approx(1.0)
        assert wasserstein1([0.5, 0.5], [0, 1]) == pytest.approx(0.5)
        assert wasserstein1([1], [0, 0, 1]) == pytest.approx(2.0)

    def test_identical_sets_zero(self):
        graphs = [K3, P3, C4]
        assert mmd(graphs, list(graphs), "degree") == 0.0

    @pytest.mark.parametrize("stat", sorted(STATISTICS))
    def test_matches_per_pair_wasserstein_loop(self, stat):
        # mixed sizes, so degree histograms differ in length
        a = [random_graph(spawn_rng(26, i), 4 + i % 7, 0.3) for i in range(9)]
        b = [random_graph(spawn_rng(27, i), 3 + i % 9, 0.6) for i in range(7)]
        fn = STATISTICS[stat]

        def kernel_mean(xs, ys, bandwidth):
            terms = [math.exp(-wasserstein1(fn(x), fn(y)) ** 2 / (2 * bandwidth**2)) for x in xs for y in ys]
            return math.fsum(terms) / len(terms)

        for bandwidth in (0.5, 1.0):
            loop = kernel_mean(a, a, bandwidth) + kernel_mean(b, b, bandwidth) - 2 * kernel_mean(a, b, bandwidth)
            assert mmd(a, b, stat, bandwidth) == pytest.approx(max(loop, 0.0), abs=1e-12)
            assert mmd(a, a, stat, bandwidth) == 0.0

    def test_symmetry(self):
        a = [random_graph(spawn_rng(13, i), 8, 0.3) for i in range(5)]
        b = [random_graph(spawn_rng(14, i), 8, 0.7) for i in range(5)]
        for stat in ("degree", "clustering", "orbit"):
            assert mmd(a, b, stat) == mmd(b, a, stat)
            assert mmd(a, b, stat) > 0

    def test_separates_densities(self):
        sparse1 = [random_graph(spawn_rng(15, i), 10, 0.2) for i in range(10)]
        sparse2 = [random_graph(spawn_rng(16, i), 10, 0.2) for i in range(10)]
        dense = [random_graph(spawn_rng(17, i), 10, 0.8) for i in range(10)]
        assert mmd(sparse1, dense, "degree") > mmd(sparse1, sparse2, "degree")

    def test_guards(self):
        with pytest.raises(InputError):
            mmd([], [K3], "degree")
        with pytest.raises(InputError):
            mmd([K3], [K3], "unknown")
        for bandwidth in (0.0, math.nan, math.inf):
            with pytest.raises(InputError):
                mmd([K3], [K3], "degree", bandwidth=bandwidth)
        with pytest.raises(InputError):
            mmd([K3], [P3], lambda g: np.array([g.edge_count, 0.0]))

    def test_callable_statistic(self, monkeypatch):
        """A name is looked up in STATISTICS when mmd runs, so a callable
        bound there (as the benchmark's tracer binds its wrappers) is used."""
        # K3 and C4 share a degree histogram but not an edge count
        assert mmd([K3], [C4], "degree") == 0.0
        monkeypatch.setitem(STATISTICS, "degree", lambda g: np.array([g.edge_count, 0.0]))
        assert mmd([K3], [C4], "degree") > 0


class TestAveragedAdjacency:
    def test_complete_graph_all_ones(self):
        avg = averaged_adjacency(UniformOrderer(), K3, 50, spawn_rng(18))
        assert np.allclose(avg, 1 - np.eye(3))

    def test_uniform_path_entry_two_thirds(self):
        avg = averaged_adjacency(UniformOrderer(), P3, 10000, spawn_rng(19))
        sigma = math.sqrt((2 / 3) * (1 / 3) / 10000)
        assert abs(avg[1, 2] - 2 / 3) < 3 * sigma
        assert np.allclose(avg, avg.T)
        assert np.allclose(np.diag(avg), 0.0)

    def test_peaked_posterior_matches_its_ordering(self):
        q = OrderPosterior(PosteriorConfig(max_nodes=4, layers=1, heads=2, head_dim=3, seed=21))
        # drive the head weights hard so the posterior is near-deterministic
        q.store.get("head.w")[:] *= 50.0
        samples = q.sample_orderings(P3, 200, spawn_rng(22))
        pis = {s.pi for s in samples}
        if len(pis) == 1:
            pi = next(iter(pis))
            avg = averaged_adjacency(q, P3, 200, spawn_rng(23))
            a = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    a[i, j] = float(P3.has_edge(pi[i], pi[j]))
            assert np.allclose(avg, a)

    def test_guard(self):
        with pytest.raises(InputError):
            averaged_adjacency(UniformOrderer(), P3, 0, spawn_rng(24))


def _count_entry_points():
    """Each tape-free entry point that takes a draw count, as count -> call."""
    q = OrderPosterior(PosteriorConfig(max_nodes=4, layers=1, heads=2, head_dim=3, seed=25))
    adjacency = AdjacencyModel(AdjacencyModelConfig(max_nodes=4, hidden=4, row_embed=2, seed=26))
    sequence = SequenceModel(SequenceModelConfig(max_nodes=4, hidden=4, edge_hidden=2, seed=27))
    return {
        "importance_estimate": lambda c: importance_estimate(adjacency, q, P3, c, spawn_rng(28)),
        "averaged_adjacency": lambda c: averaged_adjacency(q, P3, c, spawn_rng(29)),
        "posterior": lambda c: q.sample_orderings(P3, c, spawn_rng(30)),
        "uniform": lambda c: UniformOrderer().sample_orderings(P3, c, spawn_rng(31)),
        "adjacency_sample": lambda c: adjacency.sample(c, spawn_rng(32)),
        "sequence_sample": lambda c: sequence.sample(c, spawn_rng(33)),
    }


@pytest.mark.parametrize("count", [2.5, 2.0, True, 0])
@pytest.mark.parametrize("entry", sorted(_count_entry_points()))
def test_draw_counts_must_be_positive_integers(entry, count):
    with pytest.raises(InputError, match="count must be a positive integer"):
        _count_entry_points()[entry](count)
