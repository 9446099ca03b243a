"""Generative model tests: frozen fair-coin values, normalization,
gradients against finite differences, and sampling frequencies."""

import json
import math
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphorder.errors import InputError, ResourceError
from graphorder.graphs import (
    Graph,
    LowerTriangularEncoding,
    all_graphs,
    encode_adjacency,
    isomorphic,
    ordering_to_sequence,
)
from graphorder.models import (
    AdjacencyModel,
    AdjacencyModelConfig,
    SequenceModel,
    SequenceModelConfig,
    exact_marginal_log_prob,
    joint_log_prob,
    joint_log_probs,
    load_model,
    log_sum_exp,
    model_from_document,
)
from graphorder.posterior import OrderPosterior, PosteriorConfig
from graphorder.rng import root_rng
from graphorder.tensor import Checkpointable, Tape, backward, mean as tensor_mean
from oracles import central_difference, random_graph
from strategies import graphs

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
# trained checkpoints kept for the benchmark; the tests only read them
CHECKPOINTS = Path(__file__).resolve().parents[1] / "perfbench" / "checkpoints"


def coin_adjacency(n=3):
    return AdjacencyModel(AdjacencyModelConfig(max_nodes=6, fixed_node_count=n), zero_init=True)


def coin_sequence(n=3):
    return SequenceModel(SequenceModelConfig(max_nodes=6, fixed_node_count=n), zero_init=True)


def small_adjacency(seed=1):
    return AdjacencyModel(AdjacencyModelConfig(max_nodes=6, hidden=10, row_embed=6, seed=seed))


def small_sequence(seed=2):
    return SequenceModel(SequenceModelConfig(max_nodes=6, hidden=8, edge_hidden=6, seed=seed))


class TestFairCoinValues:
    def test_adjacency_three_node_encoding_is_one_eighth(self):
        model = coin_adjacency()
        for g in (K3, P3, Graph(3, (0, 0, 0))):
            enc = encode_adjacency(g, (0, 1, 2))
            assert model.log_prob(enc) == pytest.approx(math.log(1 / 8), abs=1e-12)

    def test_adjacency_free_size_pays_stop_terms(self):
        model = AdjacencyModel(AdjacencyModelConfig(max_nodes=6), zero_init=True)
        enc = encode_adjacency(K3, (0, 1, 2))
        # 3 edge bits + 2 continue + 1 stop decisions, all fair
        assert model.log_prob(enc) == pytest.approx(6 * math.log(0.5), abs=1e-12)

    def test_triangle_joint_is_one_forty_eighth(self):
        assert joint_log_prob(coin_adjacency(), K3, (0, 1, 2)) == pytest.approx(
            math.log(1 / 48), abs=1e-12
        )

    def test_triangle_marginal_is_one_eighth(self):
        assert exact_marginal_log_prob(coin_adjacency(), K3) == pytest.approx(
            math.log(1 / 8), abs=1e-12
        )

    def test_path_marginal_is_three_eighths(self):
        # 6 orderings, |Aut| = 2, each encoding worth 1/8
        assert exact_marginal_log_prob(coin_adjacency(), P3) == pytest.approx(
            math.log(3 / 8), abs=1e-12
        )

    def test_sequence_coin_matches_adjacency_coin(self):
        adj, seq = coin_adjacency(), coin_sequence()
        for g in (K3, P3):
            for pi in permutations(range(3)):
                a = float(joint_log_probs(adj, g, np.array([pi]))[0].data[0])
                s = float(seq.log_prob_orderings(g, np.array([pi])).data[0])
                assert a == pytest.approx(s, abs=1e-12)

    def test_sequence_marginal_splits_by_multiplicity(self):
        # triangle: every ordering gives the same sequence, multiplicity 6
        assert exact_marginal_log_prob(coin_sequence(), K3) == pytest.approx(
            math.log(1 / 8), abs=1e-12
        )
        # path: trace-based joints undercount when distinct traces share a
        # sequence class (two traces grow leaf-first), so the ordering sum
        # is 1/4, strictly below the 3/8 frequency of sampled paths
        assert exact_marginal_log_prob(coin_sequence(), P3) == pytest.approx(
            math.log(1 / 4), abs=1e-12
        )


class TestNormalization:
    @pytest.mark.parametrize(
        "model",
        [
            AdjacencyModel(
                AdjacencyModelConfig(
                    max_nodes=6, hidden=10, row_embed=6, fixed_node_count=4, seed=1
                )
            ),
            SequenceModel(
                SequenceModelConfig(
                    max_nodes=6, hidden=8, edge_hidden=6, fixed_node_count=4, seed=2
                )
            ),
        ],
        ids=["adjacency", "sequence"],
    )
    def test_fixed_size_probabilities_sum_to_one(self, model):
        """With size pinned, the model is a distribution over n-node encodings."""
        total = 0.0
        n = 4
        for bits in range(2 ** (n * (n - 1) // 2)):
            rows, idx = [], 0
            adj = [0] * n
            for k in range(1, n):
                row = []
                for j in range(k):
                    b = (bits >> idx) & 1
                    idx += 1
                    row.append(b)
                    if b:
                        adj[k] |= 1 << j
                        adj[j] |= 1 << k
                rows.append(tuple(row))
            if isinstance(model, AdjacencyModel):
                lp = model.log_prob(LowerTriangularEncoding(n, tuple(rows)))
            else:
                g = Graph(n, tuple(adj))
                lp = float(model.log_prob_orderings(g, np.array([list(range(n))])).data[0])
            total += math.exp(lp)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_marginals_over_all_graphs_sum_to_one(self):
        """Summing exact marginals over isomorphism classes of one size gives
        the total probability mass the model puts on that size."""
        model = coin_adjacency(4)
        seen: list[Graph] = []
        total = 0.0
        for g in all_graphs(4):
            if any(isomorphic(g, h) for h in seen):
                continue
            seen.append(g)
            total += math.exp(exact_marginal_log_prob(model, g))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestGradients:
    @pytest.mark.parametrize("make", [small_adjacency, small_sequence])
    def test_log_prob_gradients_match_finite_differences(self, make):
        model = make()
        g = random_graph(root_rng(5), 4, 0.5)
        pis = np.array([[0, 1, 2, 3], [2, 0, 3, 1]])

        def run():
            tape = Tape()
            rep, _ = joint_log_probs(model, g, pis, tape=tape)
            loss = tensor_mean(rep)
            backward(tape, loss)
            model.store.accumulate_from_tape(tape)
            return float(loss.data)

        run()
        grads = {name: model.store.grad(name).copy() for name in model.store.names()}
        for name in model.store.names():
            arr = model.store.get(name)

            def f(vec, _name=name, _arr=arr):
                saved = _arr.copy()
                _arr[:] = vec.reshape(_arr.shape)
                out = run()
                _arr[:] = saved
                model.store.zero_grads()
                return out

            fd = central_difference(f, arr.ravel().copy()).reshape(arr.shape)
            assert np.allclose(grads[name], fd, atol=1e-6), name


class TestSampling:
    def test_adjacency_sample_frequencies_match_marginals(self):
        model = coin_adjacency(3)
        rng = root_rng(11)
        draws = model.sample(4000, rng)
        assert all(g.n == 3 for g in draws)
        hits = sum(1 for g in draws if isomorphic(g, P3))
        p = 3 / 8
        sigma = math.sqrt(p * (1 - p) / 4000)
        assert abs(hits / 4000 - p) < 3 * sigma

    def test_sequence_sample_frequencies_match_marginals(self):
        model = small_sequence(seed=9)
        rng = root_rng(12)
        draws = model.sample(3000, rng)
        sizes = np.array([g.n for g in draws])
        assert sizes.max() <= model.cfg.max_nodes
        # frequency of single-node graphs equals the first stop probability
        target = math.exp(exact_marginal_log_prob(model, Graph(1, (0,))))
        freq = float(np.mean(sizes == 1))
        sigma = math.sqrt(target * (1 - target) / 3000)
        assert abs(freq - target) < 3 * sigma + 1e-9

    def test_adjacency_sample_respects_max_nodes(self):
        cfg = AdjacencyModelConfig(max_nodes=4, hidden=8, row_embed=4, seed=3)
        model = AdjacencyModel(cfg)
        # force near-certain continuation so the cap must bind
        model.store.get("stop.b")[:] = -50.0
        draws = model.sample(64, root_rng(13))
        assert all(g.n == 4 for g in draws)

    def test_fixed_size_sampling(self):
        draws = coin_sequence(3).sample(50, root_rng(14))
        assert all(g.n == 3 for g in draws)


class TestJointAndMarginal:
    def test_marginal_equals_dedup_over_encodings(self):
        """Summing over orderings must equal summing distinct encodings."""
        model = small_adjacency(seed=21)
        g = random_graph(root_rng(22), 5, 0.4)
        by_enc = {}
        for pi in permutations(range(5)):
            enc = encode_adjacency(g, pi)
            by_enc.setdefault(enc, model.log_prob(enc))
        # each distinct encoding corresponds to exactly |Aut| orderings
        from graphorder.symmetry import automorphism_count

        assert math.factorial(5) // automorphism_count(g) == len(by_enc)
        expect = log_sum_exp(np.array(list(by_enc.values())))
        assert exact_marginal_log_prob(model, g) == pytest.approx(expect, abs=1e-9)

    @given(graphs(min_nodes=2, max_nodes=5), st.integers(0, 3))
    def test_sequence_joint_sums_to_marginal(self, g, seed):
        model = SequenceModel(
            SequenceModelConfig(max_nodes=6, hidden=6, edge_hidden=4, seed=seed)
        )
        joints = [
            joint_log_prob(model, g, pi, mode="exact")
            for pi in permutations(range(g.n))
        ]
        assert log_sum_exp(np.array(joints)) == pytest.approx(
            exact_marginal_log_prob(model, g), abs=1e-9
        )

    def test_cr_mode_joint_never_exceeds_exact(self):
        model = small_sequence(seed=31)
        rng = root_rng(32)
        for _ in range(20):
            g = random_graph(rng, 5, 0.5)
            pi = tuple(rng.permutation(5).tolist())
            cr = joint_log_prob(model, g, pi, mode="cr")
            exact = joint_log_prob(model, g, pi, mode="exact")
            assert cr <= exact + 1e-12

    def test_marginal_budget_guard(self):
        g = random_graph(root_rng(33), 5, 0.5)
        with pytest.raises(ResourceError):
            exact_marginal_log_prob(small_adjacency(), g, max_nodes=4)

    def test_bad_mode_rejected(self):
        with pytest.raises(InputError):
            joint_log_prob(small_adjacency(), K3, (0, 1, 2), mode="fast")


class TestSequenceTraceScoring:
    def test_trace_matches_ordering_scoring(self):
        model = small_sequence(seed=41)
        g = random_graph(root_rng(42), 5, 0.5)
        pi = (2, 0, 4, 1, 3)
        gs = ordering_to_sequence(g, pi)
        trace = [
            [1 if gs.steps[k + 1].has_edge(k + 1, j) else 0 for j in range(k + 1)]
            for k in range(g.n - 1)
        ]
        via_trace = model.log_prob_sequence(gs, trace)
        via_order = float(model.log_prob_orderings(g, np.array([pi])).data[0])
        assert via_trace == pytest.approx(via_order, abs=1e-12)

    def test_inconsistent_trace_rejected(self):
        model = small_sequence(seed=43)
        gs = ordering_to_sequence(P3, (0, 1, 2))
        trace = [[1], [1, 1]]  # claims an edge the sequence lacks
        with pytest.raises(InputError):
            model.log_prob_sequence(gs, trace)

    def test_malformed_trace_rejected(self):
        model = small_sequence(seed=44)
        gs = ordering_to_sequence(P3, (0, 1, 2))
        with pytest.raises(InputError):
            model.log_prob_sequence(gs, [[1]])
        with pytest.raises(InputError):
            model.log_prob_sequence(gs, [[1], [0, 2]])


class TestCheckpoints:
    @pytest.mark.parametrize("make", [small_adjacency, small_sequence])
    def test_roundtrip_preserves_log_probs(self, make, tmp_path):
        model = make()
        path = tmp_path / "model.json"
        model.save(path, metadata={"epoch": 3})
        again = load_model(path)
        assert type(again) is type(model)
        g = random_graph(root_rng(51), 4, 0.5)
        pi = (0, 1, 2, 3)
        assert joint_log_prob(again, g, pi) == pytest.approx(
            joint_log_prob(model, g, pi), abs=0
        )

    def test_kind_mismatch_rejected(self):
        doc = small_adjacency().checkpoint()
        with pytest.raises(InputError):
            SequenceModel.from_checkpoint(doc)

    def test_unknown_kind_rejected(self):
        doc = small_adjacency().checkpoint()
        doc["modelKind"] = "mystery"
        with pytest.raises(InputError):
            model_from_document(doc)

    def test_kind_checked_in_both_directions(self, tmp_path):
        model_doc = small_adjacency().checkpoint()
        q_doc = OrderPosterior(PosteriorConfig(max_nodes=4, layers=1, heads=1, head_dim=2)).checkpoint()
        q_path = tmp_path / "posterior.json"
        q_path.write_text(json.dumps(q_doc), encoding="utf-8")
        with pytest.raises(InputError):
            load_model(q_path)
        with pytest.raises(InputError):
            model_from_document(q_doc)
        with pytest.raises(InputError):
            OrderPosterior.from_checkpoint(model_doc)
        unknown = dict(model_doc, modelKind="mystery")
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps(unknown), encoding="utf-8")
        readers = (AdjacencyModel, SequenceModel, OrderPosterior, Checkpointable)
        for from_doc in (model_from_document, *(cls.from_checkpoint for cls in readers)):
            with pytest.raises(InputError, match="'mystery'"):
                from_doc(unknown)
        for load in (load_model, *(cls.load for cls in readers)):
            with pytest.raises(InputError, match="'mystery'"):
                load(path)

    @pytest.mark.parametrize("path", sorted(CHECKPOINTS.glob("*.json")), ids=lambda p: p.name)
    def test_stored_checkpoints_resave_byte_for_byte(self, path, tmp_path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        extra = {k: v for k, v in doc["metadata"].items() if k not in ("config", "seed")}
        reader = OrderPosterior.load if doc["modelKind"] == OrderPosterior.kind else load_model
        again = tmp_path / path.name
        reader(path).save(again, extra)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "make, field",
        [
            (AdjacencyModelConfig, "max_nodes"),
            (AdjacencyModelConfig, "hidden"),
            (AdjacencyModelConfig, "row_embed"),
            (SequenceModelConfig, "max_nodes"),
            (SequenceModelConfig, "hidden"),
            (SequenceModelConfig, "rounds"),
            (SequenceModelConfig, "edge_hidden"),
        ],
    )
    def test_config_sizes_must_be_positive_integers(self, make, field):
        for value in (0, -3, 4.5, "8", True):
            with pytest.raises(InputError, match=field):
                make(**{field: value})
        assert getattr(make(**{field: 3}), field) == 3

    def test_config_node_bounds(self):
        for make in (AdjacencyModelConfig, SequenceModelConfig):
            with pytest.raises(InputError):
                make(max_nodes=1)
            for fixed in (0, 7, 2.5):
                with pytest.raises(InputError):
                    make(max_nodes=6, fixed_node_count=fixed)

    def test_size_guard_from_config(self):
        model = coin_adjacency(3)
        with pytest.raises(InputError):
            model.log_prob(encode_adjacency(Graph(2, (0, 0)), (0, 1)))
