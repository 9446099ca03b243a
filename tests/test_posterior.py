"""Ordering-posterior tests: normalization, equivariance, sampling
consistency, and the uniform baseline."""

import math
from itertools import permutations

import numpy as np
import pytest

from graphorder import nn
from graphorder.errors import InputError
from graphorder.graphs import Graph
from graphorder.models import log_sum_exp
from graphorder.posterior import (
    OrderPosterior,
    PosteriorConfig,
    UniformOrderer,
    positional_encoding,
)
from graphorder.rng import spawn_rng
from graphorder.tensor import ATTENTION_SLOPE, Tape, additive_attention, backward, mean as tensor_mean
from oracles import central_difference, random_graph, zero_store

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def tiny_posterior(seed=0):
    return OrderPosterior(PosteriorConfig(max_nodes=8, layers=2, heads=2, head_dim=4, seed=seed))


def log_q(q, g, orders):
    """Teacher-forced log q of a batch of orderings as a plain array."""
    return q.log_probs_orderings(g, orders).data


class TestNormalizationAndValues:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_all_orderings_sum_to_one(self, seed):
        q = tiny_posterior(seed)
        for g in (P3, random_graph(spawn_rng(seed + 40), 5, 0.5)):
            table = log_q(q, g, list(permutations(range(g.n))))
            assert len(table) == math.factorial(g.n)
            assert log_sum_exp(table) == pytest.approx(0.0, abs=1e-9)

    def test_zero_parameters_give_uniform(self):
        q = tiny_posterior()
        zero_store(q.store)
        g = random_graph(spawn_rng(41), 4, 0.5)
        table = log_q(q, g, list(permutations(range(4))))
        assert np.allclose(table, -math.log(24), rtol=0.0, atol=1e-12)

    def test_single_node_log_prob_is_zero(self):
        q = tiny_posterior()
        assert log_q(q, Graph(1, (0,)), [[0]])[0] == pytest.approx(0.0, abs=1e-12)

    def test_invalid_orderings_rejected(self):
        q = tiny_posterior()
        with pytest.raises(InputError):
            log_q(q, P3, [[0, 1, 1]])
        with pytest.raises(InputError):
            log_q(q, P3, [[0, 1]])
        with pytest.raises(InputError):
            log_q(q, Graph(9, (0,) * 9), [list(range(9))])


def step_masses(q, g, prefix):
    """Probability that q picks each node next after ``prefix``, by exact
    enumeration of teacher-forced log q over every ordering."""
    pis = [pi for pi in permutations(range(g.n)) if pi[: len(prefix)] == tuple(prefix)]
    table = log_q(q, g, pis)
    step = len(prefix)
    masses = np.zeros(g.n)
    for pi, value in zip(pis, table):
        masses[pi[step]] += math.exp(value)
    return masses / masses.sum()


class TestStepEquivariance:
    def test_vertex_transitive_first_node_uniform(self):
        masses = step_masses(tiny_posterior(seed=7), C5, ())
        assert np.allclose(masses, 0.2, rtol=0.0, atol=1e-9)

    def test_isolated_pair_uniform(self):
        table = log_q(tiny_posterior(seed=8), Graph(2, (0, 0)), [(0, 1), (1, 0)])
        assert np.allclose(table, -math.log(2), rtol=0.0, atol=1e-9)

    def test_prefix_breaks_symmetry(self):
        # once node 0 is chosen on C5, its two neighbours get equal mass, and
        # so do the two non-neighbours
        masses = step_masses(tiny_posterior(seed=9), C5, (0,))
        assert masses[0] == 0.0
        assert masses[1] == pytest.approx(masses[4], abs=1e-9)
        assert masses[2] == pytest.approx(masses[3], abs=1e-9)


class TestAutomorphismInvariance:
    def test_log_prob_invariant_under_automorphism(self):
        q = tiny_posterior(seed=11)
        # P3's nontrivial automorphism swaps the endpoints
        swap = {0: 2, 1: 1, 2: 0}
        pis = [(0, 1, 2), (1, 0, 2), (2, 0, 1)]
        mapped = [tuple(swap[v] for v in pi) for pi in pis]
        assert np.allclose(log_q(q, P3, pis), log_q(q, P3, mapped), rtol=0.0, atol=1e-9)


class TestSampling:
    def test_replayed_log_prob_matches(self):
        q = tiny_posterior(seed=13)
        g = random_graph(spawn_rng(42), 5, 0.4)
        samples = q.sample_orderings(g, 6, spawn_rng(43))
        assert all(sorted(s.pi) == list(range(5)) for s in samples)
        replayed = log_q(q, g, [s.pi for s in samples])
        assert np.allclose(replayed, [s.log_q for s in samples], rtol=0.0, atol=1e-9)

    def test_first_step_marginal_uniform_on_cycle(self):
        q = tiny_posterior(seed=14)
        draws = q.sample_orderings(C5, 3000, spawn_rng(44))
        counts = np.bincount([s.pi[0] for s in draws], minlength=5)
        sigma = math.sqrt(0.2 * 0.8 / 3000)
        assert np.all(np.abs(counts / 3000 - 0.2) < 3 * sigma)

    def test_sample_streams_prefix_stable(self):
        """Per-sample child streams: a shorter batch is a prefix of a longer
        one drawn from a fresh generator with the same seed, in orderings
        and log q.  256 draws on 7 nodes fill most rows of the sampler's
        work arrays, whose first rows each step reuses, so that case also
        shows that no step's rows carry state into the next; 1 and 2 nodes
        are the edge cases of no network step and one."""
        q = tiny_posterior(seed=15)
        for n, short_count, long_count in ((5, 3, 5), (7, 8, 256), (1, 3, 5), (2, 3, 5)):
            g = random_graph(spawn_rng(45), n, 0.5)
            short = q.sample_orderings(g, short_count, spawn_rng(46))
            long = q.sample_orderings(g, long_count, spawn_rng(46))
            assert [s.pi for s in short] == [s.pi for s in long[:short_count]]
            assert [s.log_q for s in short] == [s.log_q for s in long[:short_count]]
            if long_count == 256:
                # distinct prefixes at the last network step
                assert len({s.pi[:-2] for s in long}) > 0.9 * long_count

    def test_sampled_log_q_matches_teacher_forced(self):
        """256 draws share prefixes and skip the network at the last step;
        each log q must still equal the teacher-forced value."""
        q = tiny_posterior(seed=16)
        q.store.get("head.w")[:] *= 8.0
        for n in (6, 7, 8):
            g = random_graph(spawn_rng(47 + n), n, 0.4)
            samples = q.sample_orderings(g, 256, spawn_rng(60 + n))
            assert len({s.pi[:2] for s in samples}) < 256
            pis = np.array([s.pi for s in samples])
            teacher = q.log_probs_orderings(g, pis).data
            assert np.allclose([s.log_q for s in samples], teacher, rtol=0.0, atol=1e-10)

    def test_attention_scores_beyond_exp_range(self, monkeypatch):
        """With the attention vectors scaled up, some rows' bound sits
        hundreds of nats above every score they keep; log q stays finite
        and the draws still match the teacher-forced pass."""
        q = tiny_posterior(seed=19)
        for name in q.store.names():
            if name.endswith((".src", ".dst")):
                q.store.get(name)[:] *= 1e4
        gaps = []

        def recording_attention(src, dst, mask, **buffers):
            scores = src.data[..., :, None] + dst.data[..., None, :]
            scores = np.maximum(scores, ATTENTION_SLOPE * scores)
            kept = np.where(mask, scores, -np.inf).max(axis=-1)
            gaps.append((scores.max(axis=-1) - kept).max())
            return additive_attention(src, dst, mask, **buffers)

        monkeypatch.setattr(nn, "additive_attention", recording_attention)
        g = random_graph(spawn_rng(50), 7, 0.4)
        samples = q.sample_orderings(g, 64, spawn_rng(51))
        sampled = np.array([s.log_q for s in samples])
        teacher = log_q(q, g, [s.pi for s in samples])
        assert max(gaps) > 800
        assert np.isfinite(sampled).all() and np.isfinite(teacher).all()
        assert np.allclose(sampled, teacher, rtol=0.0, atol=1e-10)

    def test_deterministic_given_seed(self):
        q = tiny_posterior(seed=17)
        g = random_graph(spawn_rng(48), 6, 0.5)
        a = q.sample_orderings(g, 4, spawn_rng(49))
        b = q.sample_orderings(g, 4, spawn_rng(49))
        assert [s.pi for s in a] == [s.pi for s in b]
        assert [s.log_q for s in a] == [s.log_q for s in b]


class TestGradients:
    def test_teacher_forced_gradients_match_finite_differences(self):
        q = OrderPosterior(PosteriorConfig(max_nodes=6, layers=2, heads=2, head_dim=3, seed=18))
        g = random_graph(spawn_rng(50), 4, 0.5)
        pis = np.array([[0, 1, 2, 3], [3, 1, 0, 2]])

        def run():
            tape = Tape()
            loss = tensor_mean(q.log_probs_orderings(g, pis, tape=tape))
            backward(tape, loss)
            q.store.accumulate_from_tape(tape)
            return float(loss.data)

        run()
        grads = {name: q.store.grad(name).copy() for name in q.store.names()}
        for name in q.store.names():
            arr = q.store.get(name)

            def f(vec, _arr=arr):
                saved = _arr.copy()
                _arr[:] = vec.reshape(_arr.shape)
                out = run()
                _arr[:] = saved
                q.store.zero_grads()
                return out

            fd = central_difference(f, arr.ravel().copy()).reshape(arr.shape)
            assert np.allclose(grads[name], fd, atol=1e-6), name


class TestPositionalEncoding:
    def test_rows_distinct_over_supported_range(self):
        table = positional_encoding(np.arange(1, 21), 16)
        for i in range(20):
            for j in range(i + 1, 20):
                assert not np.allclose(table[i], table[j], atol=1e-9)

    def test_values_bounded(self):
        table = positional_encoding(np.arange(0, 30), 12)
        assert np.all(np.abs(table) <= 1.0)


class TestUniformBaseline:
    def test_log_q_is_minus_log_factorial(self):
        g = random_graph(spawn_rng(51), 4, 0.5)
        (sample,) = UniformOrderer().sample_orderings(g, 1, spawn_rng(52))
        assert sample.log_q == pytest.approx(-math.log(24), abs=1e-12)
        assert sorted(sample.pi) == list(range(4))

    def test_orderer_interface_matches(self):
        u = UniformOrderer()
        g = P3
        pis = np.array([[0, 1, 2], [2, 1, 0]])
        vals = u.log_probs_orderings(g, pis).data
        assert np.allclose(vals, -math.log(6))

    def test_empirical_uniformity(self):
        u = UniformOrderer()
        draws = u.sample_orderings(P3, 6000, spawn_rng(53))
        counts = {}
        for s in draws:
            counts[s.pi] = counts.get(s.pi, 0) + 1
        p = 1 / 6
        sigma = math.sqrt(p * (1 - p) / 6000)
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / 6000 - p) < 3 * sigma

    def test_single_node(self):
        (sample,) = UniformOrderer().sample_orderings(Graph(1, (0,)), 1, spawn_rng(54))
        assert sample.pi == (0,)
        assert sample.log_q == 0.0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        q = tiny_posterior(seed=19)
        path = tmp_path / "posterior.json"
        q.save(path, metadata={"epoch": 2})
        again = OrderPosterior.load(path)
        g = random_graph(spawn_rng(55), 5, 0.5)
        pis = [(4, 2, 0, 1, 3), (0, 1, 2, 3, 4)]
        assert np.array_equal(log_q(again, g, pis), log_q(q, g, pis))

    def test_wrong_kind_rejected(self, tmp_path):
        from graphorder.models import AdjacencyModel, AdjacencyModelConfig

        model = AdjacencyModel(AdjacencyModelConfig(max_nodes=4, hidden=6, row_embed=4))
        path = tmp_path / "model.json"
        model.save(path, {})
        with pytest.raises(InputError):
            OrderPosterior.load(path)
