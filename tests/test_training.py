"""Training-loop tests: estimator values and unbiasedness on enumerable
graphs, determinism, update mechanics, and gradient-variance behavior."""

import gc
import math
import weakref
from itertools import permutations

import numpy as np
import pytest

from graphorder.errors import InputError, NumericError
from graphorder.graphs import Graph
from graphorder.models import (
    AdjacencyModel,
    AdjacencyModelConfig,
    SequenceModel,
    SequenceModelConfig,
    exact_marginal_log_prob,
    joint_log_probs,
)
from graphorder.posterior import OrderPosterior, PosteriorConfig, UniformOrderer, draw_orderings
from graphorder import training
from graphorder.rng import spawn_rng
from graphorder.tensor import ParameterStore, Tape, Tensor, backward, mean, mul, tensor_sum
from graphorder.training import TrainConfig, TrainReport, step, train_loop, variance_trace
from oracles import random_graph, store_state, two_tape_step_gradients, zero_store

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def coin3():
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=5, fixed_node_count=3))
    zero_store(model.store)
    return model


def small_model(seed=1, max_nodes=6):
    return AdjacencyModel(
        AdjacencyModelConfig(max_nodes=max_nodes, hidden=8, row_embed=4, seed=seed)
    )


def small_posterior(seed=2, max_nodes=6):
    return OrderPosterior(
        PosteriorConfig(max_nodes=max_nodes, layers=1, heads=2, head_dim=3, seed=seed)
    )


def sequence_model(seed=1, max_nodes=6):
    return SequenceModel(SequenceModelConfig(max_nodes=max_nodes, hidden=6, edge_hidden=4, seed=seed))


def step_gradients(model, q, g, count, rng, mode="cr") -> tuple[np.ndarray, np.ndarray]:
    """Ascent gradients (model, posterior) of one ``step`` on ``count``
    orderings drawn from q: the negated store gradients.  Both stores'
    gradients are left at zero."""
    pis, _ = draw_orderings(q, g, count, rng)
    step(model, q, g, pis, mode)
    grads = -model.store.grad_vector(), -q.store.grad_vector()
    model.store.zero_grads()
    q.store.zero_grads()
    return grads


def mc_elbo(model, q, g, sample_count, rng, mode="cr") -> float:
    """Monte Carlo ELBO: the mean of log p(G, pi) - log q(pi | G) over
    orderings drawn from q."""
    pis, log_q = draw_orderings(q, g, sample_count, rng)
    rep, log_mult = joint_log_probs(model, g, pis, mode)
    return float(np.mean(rep.data - log_mult - log_q))


class TestElbo:
    def test_constant_integrand_is_exact(self):
        # joint log(1/48), uniform log q = -log 6: every sample gives log(1/8)
        for s in (1, 4):
            est = mc_elbo(coin3(), UniformOrderer(), K3, s, spawn_rng(1))
            assert est == pytest.approx(math.log(1 / 8), abs=1e-12)

    def test_elbo_never_beats_marginal(self):
        model = small_model(seed=3)
        q = UniformOrderer()
        g = random_graph(spawn_rng(4), 4, 0.5)
        exact = exact_marginal_log_prob(model, g)
        estimates = [
            mc_elbo(model, q, g, 4, spawn_rng(5, trial)) for trial in range(200)
        ]
        mean_est = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert mean_est - 3 * se <= exact

    def test_learned_posterior_accepted(self):
        est = mc_elbo(small_model(6), small_posterior(7), P3, 3, spawn_rng(8))
        assert math.isfinite(est)


class TestGradTheta:
    """The model gradient that ``step`` accumulates."""

    def test_matches_enumerated_expectation(self):
        model = small_model(seed=11)
        q = UniformOrderer()
        g = P3
        pis = np.array(list(permutations(range(3))), dtype=np.int64)
        tape = Tape()
        rep, _ = joint_log_probs(model, g, pis, "exact", tape=tape)
        backward(tape, mean(rep))
        model.store.accumulate_from_tape(tape)
        exact = model.store.grad_vector()
        model.store.zero_grads()

        draws = [step_gradients(model, q, g, 2, spawn_rng(12, trial))[0] for trial in range(300)]
        emp = np.mean(draws, axis=0)
        se = np.std(draws, axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(emp - exact) <= 4 * se + 1e-12)

    def test_fair_coin_pushes_triangle_edges_up(self):
        model = coin3()
        q = UniformOrderer()
        step(model, q, K3, draw_orderings(q, K3, 4, spawn_rng(13))[0], "cr")
        # observed edges are all ones, so edge weights rise: descent is negative
        assert np.all(model.store.grad("edges.b")[:2] < 0)


class TestGradPhi:
    """The posterior (score-function) gradient that ``step`` accumulates."""

    def test_constant_signal_gives_zero_gradient(self):
        """On a vertex-transitive graph every ordering carries the same
        learning signal, and symmetry forces the score to vanish."""
        q = OrderPosterior(PosteriorConfig(max_nodes=4, layers=1, heads=2, head_dim=3, seed=14))
        zero_store(q.store)
        vec = step_gradients(coin3(), q, K3, 4, spawn_rng(15))[1]
        assert np.allclose(vec, 0.0, atol=1e-9)

    def test_matches_enumerated_expectation(self):
        model = small_model(seed=16, max_nodes=4)
        q = small_posterior(seed=17, max_nodes=4)
        g = P3
        pis = np.array(list(permutations(range(3))), dtype=np.int64)
        rep, log_mult = joint_log_probs(model, g, pis, "exact")
        tape = Tape()
        log_q = q.log_probs_orderings(g, pis, tape=tape)
        weights = np.exp(log_q.data)
        signal = rep.data - log_mult - log_q.data
        backward(tape, tensor_sum(mul(Tensor(weights * signal, tape=tape), log_q)))
        q.store.accumulate_from_tape(tape)
        exact = q.store.grad_vector()
        q.store.zero_grads()

        draws = [step_gradients(model, q, g, 2, spawn_rng(18, trial))[1] for trial in range(400)]
        emp = np.mean(draws, axis=0)
        se = np.std(draws, axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(emp - exact) <= 4 * se + 1e-10)


class TestTrainLoop:
    def test_single_step_counts(self):
        model, q = small_model(21), small_posterior(22)
        cfg = TrainConfig(sample_count=1, epochs=1, seed=23)
        report = train_loop(model, q, [P3], cfg)
        assert model.store.step_count == 1
        assert q.store.step_count == 1
        assert len(report.epochs) == 1

    def test_seeded_rerun_identical(self):
        def run():
            model, q = small_model(24), small_posterior(25)
            cfg = TrainConfig(sample_count=2, epochs=3, seed=26)
            report = train_loop(model, q, [P3, K3], cfg)
            return report, model, q

        r1, m1, q1 = run()
        r2, m2, q2 = run()
        assert [e.elbo for e in r1.epochs] == [e.elbo for e in r2.epochs]
        for name in m1.store.names():
            assert np.array_equal(m1.store.get(name), m2.store.get(name))
        for name in q1.store.names():
            assert np.array_equal(q1.store.get(name), q2.store.get(name))

    def test_elbo_improves_on_small_dataset(self):
        model, q = small_model(27), small_posterior(28)
        data = [K3, P3, Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])]
        cfg = TrainConfig(sample_count=4, epochs=30, lr_model=0.05, lr_posterior=0.02, seed=29)
        report = train_loop(model, q, data, cfg)
        first = np.mean([e.elbo for e in report.epochs[:5]])
        last = np.mean([e.elbo for e in report.epochs[-5:]])
        assert last > first

    def test_uniform_orderer_skips_posterior_step(self):
        model, q = small_model(31), UniformOrderer()
        train_loop(model, q, [P3], TrainConfig(sample_count=2, epochs=2, seed=32))
        assert model.store.step_count == 2
        assert q.store.parameter_count() == 0

    def test_progress_lines(self):
        lines = []
        train_loop(
            small_model(33),
            UniformOrderer(),
            [P3],
            TrainConfig(sample_count=1, epochs=2, seed=34),
            progress=lines.append,
        )
        assert len(lines) == 2
        assert lines[0].startswith("epoch 0 elbo ") and " sec " in lines[0]

    def test_oversized_graph_rejected(self):
        model = small_model(35, max_nodes=4)
        with pytest.raises(InputError):
            train_loop(model, UniformOrderer(), [random_graph(spawn_rng(36), 5, 0.5)],
                       TrainConfig(seed=37))

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            train_loop(small_model(38), UniformOrderer(), [], TrainConfig(seed=39))

    def test_nonfinite_parameters_abort(self):
        model = small_model(41)
        model.store.get("edges.b")[0] = np.inf
        with pytest.raises(NumericError):
            train_loop(model, UniformOrderer(), [P3], TrainConfig(seed=42))

    def test_baseline_variant_runs(self):
        model, q = small_model(43), small_posterior(44)
        cfg = TrainConfig(sample_count=2, epochs=2, seed=45, use_baseline=True)
        report = train_loop(model, q, [P3], cfg)
        assert all(math.isfinite(e.elbo) for e in report.epochs)

    def test_step_tapes_freed_without_cycle_collector(self, monkeypatch):
        refs = []

        class TrackedTape(Tape):
            # no __slots__, so instances take weak references
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

        monkeypatch.setattr(training, "Tape", TrackedTape)
        model, q = small_model(49), small_posterior(50)
        gc.disable()
        try:
            train_loop(model, q, [P3, K3], TrainConfig(sample_count=2, epochs=1, seed=51))
            # one tape per training step, one step per graph
            assert len(refs) == 2
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    @pytest.mark.parametrize("family", ["adjacency", "sequence"])
    @pytest.mark.parametrize("use_baseline", [False, True])
    def test_first_step_descends_on_both_estimators(self, monkeypatch, family, use_baseline):
        """``step`` gives each store the gradient that a reference with the
        model and the posterior on separate tapes gives it, so neither
        store's gradient leaks into the other on the shared tape, at
        baseline 0 and 0.5; and train_loop's first step is that step on the
        same stream (its EMA baseline starts at 0)."""

        def fresh():
            model = small_model(63) if family == "adjacency" else sequence_model(63)
            return model, small_posterior(64)

        cfg = TrainConfig(sample_count=3, epochs=1, seed=65, use_baseline=use_baseline)
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        captured = {}
        adam_step = ParameterStore.adam_step

        def capture(store, lr):
            captured[id(store)] = store.grad_vector().copy()
            adam_step(store, lr)

        monkeypatch.setattr(ParameterStore, "adam_step", capture)
        trained, trained_q = fresh()
        train_loop(trained, trained_q, [g], cfg)
        monkeypatch.undo()

        model, q = fresh()
        pis, _ = draw_orderings(q, g, cfg.sample_count, spawn_rng(cfg.seed, training._TRAIN_LANE, 0, 0))
        step(model, q, g, pis, cfg.multiplicity_mode)
        assert np.array_equal(captured[id(trained.store)], model.store.grad_vector())
        assert np.array_equal(captured[id(trained_q.store)], q.store.grad_vector())

        baseline = 0.5 if use_baseline else 0.0
        theta, phi = two_tape_step_gradients(model, q, g, pis, cfg.multiplicity_mode, baseline)
        step(model, q, g, pis, cfg.multiplicity_mode, baseline)
        assert np.any(theta != 0) and np.any(phi != 0)
        assert np.array_equal(model.store.grad_vector(), theta)
        assert np.array_equal(q.store.grad_vector(), phi)

    def test_report_shape_and_json(self):
        model, q = small_model(46), small_posterior(47)
        cfg = TrainConfig(sample_count=1, epochs=2, seed=48)
        report = train_loop(model, q, [P3], cfg)
        doc = report.to_dict()
        assert len(doc["epochs"]) == 2
        assert doc["config"]["sample_count"] == 1
        assert "elbo" in doc["epochs"][0]
        with pytest.raises(InputError):
            TrainReport(doc["config"], (), 0.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            TrainConfig(sample_count=0)
        with pytest.raises(InputError):
            TrainConfig(multiplicity_mode="fast")
        with pytest.raises(InputError):
            TrainConfig(lr_model=0.0)
        with pytest.raises(InputError):
            TrainConfig(epochs=0)
        for field, value in (("epochs", 1.5), ("epochs", True), ("sample_count", 2.0), ("sample_count", True)):
            with pytest.raises(InputError, match=field):
                TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lr_model", "lr_posterior"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_learning_rate_must_be_positive_and_finite(self, field, value):
        with pytest.raises(InputError, match=field):
            TrainConfig(**{field: value})


class TestVarianceTrace:
    def test_more_samples_less_variance(self):
        model = small_model(51)
        q = small_posterior(52)
        g = random_graph(spawn_rng(53), 4, 0.5)
        trace = variance_trace(model, q, g, [1, 8], trials=40, seed=54)
        assert trace[8] < trace[1]
        # i.i.d. averaging: variance should shrink roughly like 1/S
        assert trace[1] / 16 < trace[8] < trace[1] / 3

    def test_constant_signal_near_zero_variance(self):
        q = OrderPosterior(PosteriorConfig(max_nodes=4, layers=1, heads=2, head_dim=3, seed=55))
        zero_store(q.store)
        trace = variance_trace(coin3(), q, K3, [2], trials=10, seed=56)
        assert trace[2] < 1e-18

    @pytest.mark.parametrize("family", ["adjacency", "sequence"])
    def test_batched_step_is_mean_of_single_steps(self, family):
        """The trace's one step over S orderings estimates what the mean of S
        one-ordering steps does, up to float reassociation."""
        model = small_model(70) if family == "adjacency" else sequence_model(70)
        q = small_posterior(71)
        g = random_graph(spawn_rng(72), 5, 0.5)
        pis, _ = draw_orderings(q, g, 8, spawn_rng(73))
        singles = []
        for pi in pis:
            step(model, q, g, pi[None], "cr")
            singles.append((model.store.grad_vector(), q.store.grad_vector()))
            model.store.zero_grads()
            q.store.zero_grads()
        step(model, q, g, pis, "cr")
        for batched, single in zip((model.store.grad_vector(), q.store.grad_vector()), zip(*singles)):
            reference = np.mean(single, axis=0)
            assert np.any(reference != 0)
            assert np.allclose(batched, reference, rtol=0, atol=1e-12 * np.abs(reference).max())

    def test_leaves_stores_unchanged(self):
        model, q = small_model(74), small_posterior(75)
        g = random_graph(spawn_rng(76), 4, 0.5)
        before = [store_state(model.store), store_state(q.store)]
        variance_trace(model, q, g, [1, 3], trials=3, seed=77)
        # the gradients were zero before, so zero gradients after are unchanged
        assert np.array_equal(store_state(model.store), before[0])
        assert np.array_equal(store_state(q.store), before[1])

    def test_guards(self):
        model, q = small_model(57), small_posterior(58)
        with pytest.raises(InputError):
            variance_trace(model, q, P3, [2], trials=1, seed=59)
        with pytest.raises(InputError):
            variance_trace(model, UniformOrderer(), P3, [2], trials=3, seed=61)
        with pytest.raises(InputError):
            variance_trace(model, q, P3, [0], trials=3, seed=62)
