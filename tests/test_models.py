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
from graphorder.graphs import Graph, isomorphic
from graphorder.models import (
    PADDED_ROWS,
    AdjacencyModel,
    AdjacencyModelConfig,
    SequenceModel,
    SequenceModelConfig,
    _prefix_blocks,
    exact_marginal_log_prob,
    joint_log_probs,
    load_model,
    log_sum_exp,
    model_from_document,
)
from graphorder.posterior import OrderPosterior, PosteriorConfig, UniformOrderer
from graphorder.rng import spawn_rng
from graphorder.symmetry import automorphism_count, sequence_multiplicity_cr
from graphorder.tensor import Checkpointable, Tape, backward, mean as tensor_mean, mul, tensor_sum
from oracles import (
    all_graphs,
    central_difference,
    encode_adjacency,
    per_prefix_log_prob_orderings,
    per_step_log_prob_rows,
    random_graph,
    zero_store,
)
from strategies import graphs

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
# trained checkpoints kept for the benchmark; the tests only read them
CHECKPOINTS = Path(__file__).resolve().parents[1] / "perfbench" / "checkpoints"


def coin_adjacency(n=3):
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=6, fixed_node_count=n))
    zero_store(model.store)
    return model


def coin_sequence(n=3):
    model = SequenceModel(SequenceModelConfig(max_nodes=6, fixed_node_count=n))
    zero_store(model.store)
    return model


def small_adjacency(seed=1):
    return AdjacencyModel(AdjacencyModelConfig(max_nodes=6, hidden=10, row_embed=6, seed=seed))


def small_sequence(seed=2):
    return SequenceModel(SequenceModelConfig(max_nodes=6, hidden=8, edge_hidden=6, seed=seed))


def joints(model, g, orders, mode="exact"):
    """Joint log-probabilities of a batch of orderings as a plain array."""
    rep, log_mult = joint_log_probs(model, g, np.asarray(orders), mode)
    return rep.data - log_mult


class TestFairCoinValues:
    def test_adjacency_three_node_encoding_is_one_eighth(self):
        model = coin_adjacency()
        for g in (K3, P3, Graph(3, (0, 0, 0))):
            lp = model.log_prob_orderings(g, [[0, 1, 2]]).data[0]
            assert lp == pytest.approx(math.log(1 / 8), abs=1e-12)

    def test_adjacency_free_size_pays_stop_terms(self):
        model = AdjacencyModel(AdjacencyModelConfig(max_nodes=6))
        zero_store(model.store)
        # 3 edge bits + 2 continue + 1 stop decisions, all fair
        lp = model.log_prob_orderings(K3, [[0, 1, 2]]).data[0]
        assert lp == pytest.approx(6 * math.log(0.5), abs=1e-12)

    def test_triangle_joint_is_one_forty_eighth(self):
        assert joints(coin_adjacency(), K3, [[0, 1, 2]])[0] == pytest.approx(
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
                a = float(joint_log_probs(adj, g, np.array([pi]), "exact")[0].data[0])
                s = float(seq.log_prob_orderings(g, np.array([pi])).data[0])
                assert a == pytest.approx(s, abs=1e-12)

    def test_sequence_marginal_divides_by_automorphisms(self):
        # triangle: 6 orderings, |Aut| = 6, each worth 1/8
        assert exact_marginal_log_prob(coin_sequence(), K3) == pytest.approx(
            math.log(1 / 8), abs=1e-12
        )
        # path: 6 orderings, |Aut| = 2, so 3/8, the frequency of sampled
        # paths; dividing by orbit products (4 for the orderings that end on
        # a leaf) would give 1/4
        assert exact_marginal_log_prob(coin_sequence(), P3) == pytest.approx(
            math.log(3 / 8), abs=1e-12
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
        # under the identity ordering, each labelled graph is one encoding
        for g in all_graphs(n):
            total += math.exp(model.log_prob_orderings(g, [list(range(n))]).data[0])
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
        g = random_graph(spawn_rng(5), 4, 0.5)
        pis = np.array([[0, 1, 2, 3], [2, 0, 3, 1]])

        def run():
            tape = Tape()
            rep, _ = joint_log_probs(model, g, pis, "exact", tape=tape)
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
        rng = spawn_rng(11)
        draws = model.sample(4000, rng)
        assert all(g.n == 3 for g in draws)
        hits = sum(1 for g in draws if isomorphic(g, P3))
        p = 3 / 8
        sigma = math.sqrt(p * (1 - p) / 4000)
        assert abs(hits / 4000 - p) < 3 * sigma

    def test_sequence_sample_frequencies_match_marginals(self):
        model = small_sequence(seed=9)
        rng = spawn_rng(12)
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
        draws = model.sample(64, spawn_rng(13))
        assert all(g.n == 4 for g in draws)

    def test_fixed_size_sampling(self):
        draws = coin_sequence(3).sample(50, spawn_rng(14))
        assert all(g.n == 3 for g in draws)


class TestStopAtMaxNodes:
    """A free-size model stops surely at ``max_nodes``: no stop term is
    scored there, so the exact marginals of the graphs it can generate sum
    to 1 and samples, which stop at different sizes within one batch, follow
    them."""

    N = 4000
    MODELS = [
        AdjacencyModel(AdjacencyModelConfig(max_nodes=3, hidden=8, row_embed=4, seed=5)),
        SequenceModel(SequenceModelConfig(max_nodes=3, hidden=8, edge_hidden=6, seed=5)),
        SequenceModel(SequenceModelConfig(max_nodes=4, hidden=8, edge_hidden=6, seed=5)),
    ]
    IDS = ["adjacency", "sequence", "sequence-4"]
    # isomorphism classes of graphs with at most 3 and 4 nodes
    CLASS_COUNTS = {3: 7, 4: 18}

    @staticmethod
    def class_probabilities(model) -> list[tuple[Graph, float]]:
        """One graph of each isomorphism class the model can generate, with
        exp of its ``exact_marginal_log_prob``."""
        classes = []
        for n in range(1, model.cfg.max_nodes + 1):
            for g in all_graphs(n):
                if not any(isomorphic(g, h) for h, _ in classes):
                    classes.append((g, math.exp(exact_marginal_log_prob(model, g))))
        return classes

    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    def test_class_probabilities_sum_to_one(self, model):
        probs = [p for _, p in self.class_probabilities(model)]
        assert len(probs) == self.CLASS_COUNTS[model.cfg.max_nodes]
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    def test_sample_frequencies_match_class_probabilities(self, model):
        classes = self.class_probabilities(model)
        draws = model.sample(self.N, spawn_rng(31))
        assert len({g.n for g in draws}) == model.cfg.max_nodes
        hits = [0] * len(classes)
        for g in draws:
            hits[next(i for i, (h, _) in enumerate(classes) if isomorphic(g, h))] += 1
        for (h, p), count in zip(classes, hits):
            assert abs(count / self.N - p) < 4 * math.sqrt(p * (1 - p) / self.N), h


class TestJointAndMarginal:
    def test_marginal_equals_dedup_over_encodings(self):
        """Summing over orderings must equal summing distinct encodings."""
        model = small_adjacency(seed=21)
        g = random_graph(spawn_rng(22), 5, 0.4)
        pis = list(permutations(range(5)))
        by_enc = {}
        for pi, lp in zip(pis, model.log_prob_orderings(g, pis).data):
            by_enc.setdefault(encode_adjacency(g, pi), lp)
        # each distinct encoding corresponds to exactly |Aut| orderings
        assert math.factorial(5) // automorphism_count(g) == len(by_enc)
        expect = log_sum_exp(np.array(list(by_enc.values())))
        assert exact_marginal_log_prob(model, g) == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_adjacency_scores_the_encoding_rows(self, n):
        """``log_prob_orderings`` scores the rows of ``encode_adjacency``,
        padded to the model's row width."""
        model = small_adjacency(seed=23)
        rng = spawn_rng(24, n)
        g = random_graph(rng, n, 0.5)
        pis = np.array([rng.permutation(n) for _ in range(6)])
        rows = np.zeros((len(pis), n - 1, model.cfg.max_nodes - 1))
        for b, pi in enumerate(pis):
            for k, row in enumerate(encode_adjacency(g, pi).rows):
                rows[b, k, : k + 1] = row
        assert np.array_equal(model.log_prob_orderings(g, pis).data, model.log_prob_rows(rows).data)

    @given(graphs(min_nodes=2, max_nodes=5), st.integers(0, 3))
    def test_sequence_joint_sums_to_marginal(self, g, seed):
        model = SequenceModel(
            SequenceModelConfig(max_nodes=6, hidden=6, edge_hidden=4, seed=seed)
        )
        every = joints(model, g, list(permutations(range(g.n))), mode="exact")
        assert log_sum_exp(every) == pytest.approx(
            exact_marginal_log_prob(model, g), abs=1e-9
        )

    def test_cr_mode_joint_never_exceeds_exact(self):
        model = small_sequence(seed=31)
        rng = spawn_rng(32)
        for _ in range(20):
            g = random_graph(rng, 5, 0.5)
            pis = [rng.permutation(5)]
            cr = joints(model, g, pis, mode="cr")[0]
            exact = joints(model, g, pis, mode="exact")[0]
            assert cr <= exact + 1e-12

    def test_marginal_budget_guard(self):
        g = random_graph(spawn_rng(33), 5, 0.5)
        with pytest.raises(ResourceError):
            exact_marginal_log_prob(small_adjacency(), g, max_nodes=4)

    def test_bad_mode_rejected(self):
        with pytest.raises(InputError):
            joint_log_probs(small_adjacency(), K3, [[0, 1, 2]], mode="fast")


class TestScoringContract:
    """Both families answer the same two batched questions, and every scorer
    of orderings rejects the same malformed batches."""

    FAMILIES = {"adjacency": small_adjacency, "sequence": small_sequence}

    @pytest.mark.parametrize("mode", ["exact", "cr"])
    @pytest.mark.parametrize("family", ["adjacency", "sequence"])
    def test_joint_is_log_prob_minus_log_multiplicity(self, family, mode):
        model = self.FAMILIES[family]()
        rng = spawn_rng(61)
        g = random_graph(rng, 5, 0.5)
        pis = np.array([rng.permutation(5) for _ in range(4)])
        rep, log_mult = joint_log_probs(model, g, pis, mode)
        assert np.array_equal(rep.data, model.log_prob_orderings(g, pis).data)
        assert np.array_equal(log_mult, model.log_multiplicities(g, pis, mode))
        if family == "sequence" and mode == "cr":
            expect = [sequence_multiplicity_cr(g, pi) for pi in pis]
        else:
            expect = [automorphism_count(g)] * len(pis)
        assert np.allclose(log_mult, np.log(expect), rtol=0.0, atol=1e-12)

    @staticmethod
    def scorers(kind):
        """Every call that scores a batch of orderings for one scorer kind."""
        if kind == "uniform":
            return [UniformOrderer().log_probs_orderings]
        if kind == "posterior":
            q = OrderPosterior(PosteriorConfig(max_nodes=6, layers=1, heads=1, head_dim=2))
            return [q.log_probs_orderings]
        model = TestScoringContract.FAMILIES[kind]()
        return [
            lambda g, orders: joint_log_probs(model, g, orders, mode="exact"),
            lambda g, orders: joint_log_probs(model, g, orders, mode="cr"),
            model.log_prob_orderings,
            lambda g, orders: model.log_multiplicities(g, orders, "exact"),
        ]

    @pytest.mark.parametrize(
        "orders",
        [[[0, 0, 1]], [[0, 1, 3]], [[0, 1]], [[0, 1, 2, 3]], [], [0, 1, 2], [[0, 1, 2], [0, 1]]],
        ids=["repeat", "out-of-range", "short", "long", "empty", "flat", "ragged"],
    )
    @pytest.mark.parametrize("kind", ["adjacency", "sequence", "posterior", "uniform"])
    def test_malformed_orderings_rejected(self, kind, orders):
        for score in self.scorers(kind):
            with pytest.raises(InputError):
                score(P3, orders)

    @pytest.mark.parametrize("kind", ["adjacency", "sequence", "posterior"])
    def test_graph_above_max_nodes_rejected(self, kind):
        big = Graph.from_edges(7, [(i, i + 1) for i in range(6)])
        for score in self.scorers(kind):
            with pytest.raises(InputError):
                score(big, [list(range(7))])


class TestPaddedPrefixBlocks:
    """The sequence model scores prefixes in padded blocks; the values and
    gradients are those of one propagation per prefix."""

    BATCHES = (1, 8, 64, 512)
    SIZES = (1, 2, 5, 12, 16)

    @pytest.mark.parametrize("batch", [1, 2, 8, 64, 300, 512, 4096, 8192])
    def test_blocks_partition_prefix_sizes(self, batch):
        for last in range(21):
            blocks = _prefix_blocks(batch, last)
            assert [t for lo, hi in blocks for t in range(lo, hi + 1)] == list(range(1, last + 1))
            for lo, hi in blocks:
                assert batch * (hi - lo + 1) * hi <= max(PADDED_ROWS, batch * hi)
            for lo, hi in blocks[:-1]:
                # a block stops growing only when the next prefix would not fit
                assert batch * (hi + 2 - lo) * (hi + 1) > PADDED_ROWS

    def test_cases_cover_every_block_shape(self):
        shapes = set()
        for batch in self.BATCHES:
            for n in self.SIZES:
                blocks = _prefix_blocks(batch, n)
                if len(blocks) == 1 and blocks[0][1] > blocks[0][0]:
                    shapes.add("one block")
                if len(blocks) > 1:
                    shapes.add("several blocks")
                if any(lo == hi for lo, hi in blocks[1:]):
                    shapes.add("one prefix per block")
        assert shapes == {"one block", "several blocks", "one prefix per block"}

    @pytest.mark.parametrize("sized", [False, True], ids=["free", "fixed"])
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_matches_per_prefix_loop(self, batch, n, sized):
        model = SequenceModel(
            SequenceModelConfig(
                max_nodes=16, hidden=8, edge_hidden=6, fixed_node_count=n if sized else None, seed=n
            )
        )
        rng = spawn_rng(100 * batch + n)
        g = random_graph(rng, n, 0.4)
        pis = np.array([rng.permutation(n) for _ in range(batch)])
        weights = rng.normal(size=batch)
        results = []
        for blocked in (True, False):
            model.store.zero_grads()
            tape = Tape()
            if blocked:
                rep = model.log_prob_orderings(g, pis, tape)
            else:
                rep = per_prefix_log_prob_orderings(model, g, pis, tape)
            backward(tape, tensor_sum(mul(rep, weights)))
            model.store.accumulate_from_tape(tape)
            results.append((rep.data, model.store.grad_vector()))
        (got, got_grad), (want, want_grad) = results
        assert np.abs(got - want).max() <= 1e-10
        assert np.abs(got_grad - want_grad).max() <= 1e-10

    def test_training_shape_tape_stays_small(self):
        # the benchmark's sequence model on a 16-node graph with S = 8: one
        # padded block; one propagation per prefix records 1,168 nodes
        model = SequenceModel(SequenceModelConfig(max_nodes=16, hidden=16, rounds=2, edge_hidden=16))
        rng = spawn_rng(17)
        g = random_graph(rng, 16, 0.3)
        tape = Tape()
        model.log_prob_orderings(g, np.array([rng.permutation(16) for _ in range(8)]), tape)
        assert len(tape.nodes) <= 150


class TestRowScorer:
    """``AdjacencyModel.log_prob_rows`` runs the GRU steps alone in its loop
    and emits from the stacked states in one pass; its values and gradients
    are those of one emission per step, and tape-free batches of any size
    score in blocks."""

    MAX_NODES = 9

    def model(self, n, sized):
        return AdjacencyModel(
            AdjacencyModelConfig(
                max_nodes=self.MAX_NODES, hidden=8, row_embed=5, fixed_node_count=n if sized else None, seed=n
            )
        )

    def rows(self, rng, batch, n):
        """Random 0/1 rows, with entries past the lower triangle too: they
        are embedded but never scored."""
        return (rng.random((batch, n - 1, self.MAX_NODES - 1)) < 0.4).astype(np.float64)

    @pytest.mark.parametrize("sized", [False, True], ids=["free", "fixed"])
    @pytest.mark.parametrize("n", [1, 2, 5, MAX_NODES])
    def test_matches_per_step_loop(self, n, sized):
        model = self.model(n, sized)
        rng = spawn_rng(200 + n, int(sized))
        rows = self.rows(rng, 6, n)
        weights = rng.normal(size=6)
        results = []
        for score in (model.log_prob_rows, lambda r, tape: per_step_log_prob_rows(model, r, tape)):
            model.store.zero_grads()
            tape = Tape()
            rep = score(rows, tape)
            backward(tape, tensor_sum(mul(rep, weights)))
            model.store.accumulate_from_tape(tape)
            results.append((rep.data, model.store.grad_vector()))
        (got, got_grad), (want, want_grad) = results
        assert np.abs(got - want).max() <= 1e-12
        assert np.abs(got_grad - want_grad).max() <= 1e-12
        assert np.abs(model.log_prob_rows(rows).data - want).max() <= 1e-12

    @pytest.mark.parametrize("sized", [False, True], ids=["free", "fixed"])
    def test_tape_free_batch_spans_several_blocks(self, sized):
        n = self.MAX_NODES
        model = self.model(n, sized)
        block = PADDED_ROWS // n
        rng = spawn_rng(210, int(sized))
        rows = self.rows(rng, 2 * block + 7, n)
        want = per_step_log_prob_rows(model, rows).data
        assert np.abs(model.log_prob_rows(rows).data - want).max() <= 1e-12
        assert np.abs(model.log_prob_rows(rows, Tape()).data - want).max() <= 1e-12

    def test_training_shape_tape_stays_small(self):
        # the benchmark's adjacency model on a 15-node graph with S = 8: one
        # emission per step with the composed GRU records 566 op nodes, and
        # this scorer 52
        model = AdjacencyModel(AdjacencyModelConfig(max_nodes=16, hidden=32, row_embed=16))
        rng = spawn_rng(18)
        g = random_graph(rng, 15, 0.3)
        tape = Tape()
        model.log_prob_orderings(g, np.array([rng.permutation(15) for _ in range(8)]), tape)
        assert len([t for t in tape.nodes if t.pull is not None]) <= 60


class TestCheckpoints:
    @pytest.mark.parametrize("make", [small_adjacency, small_sequence])
    def test_roundtrip_preserves_log_probs(self, make, tmp_path):
        model = make()
        path = tmp_path / "model.json"
        model.save(path, metadata={"epoch": 3})
        again = load_model(path)
        assert type(again) is type(model)
        g = random_graph(spawn_rng(51), 4, 0.5)
        pis = [[0, 1, 2, 3], [3, 1, 0, 2]]
        assert np.array_equal(joints(again, g, pis), joints(model, g, pis))

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
            model.log_prob_orderings(Graph(2, (0, 0)), [[0, 1]])
