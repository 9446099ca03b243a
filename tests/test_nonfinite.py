"""Non-finite contract at the API: parameters that are finite but make an op
inside the forward pass overflow must surface as ``NumericError`` wherever a
result is drawn from, reported or backpropagated, never as an ``IndexError``
from a sampler or as a silent non-finite result."""

import numpy as np
import pytest

from graphorder.errors import NumericError
from graphorder.evaluation import importance_estimate
from graphorder.graphs import Graph
from graphorder.models import (
    AdjacencyModel,
    AdjacencyModelConfig,
    SequenceModel,
    SequenceModelConfig,
    exact_marginal_log_prob,
)
from graphorder.posterior import OrderPosterior, PosteriorConfig
from graphorder.rng import spawn_rng
from graphorder.tensor import Tensor, add, mul
from graphorder.training import TrainConfig, grad_phi, grad_theta, train_loop

# the overflows below warn as they happen; the errors are what is tested
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
HUGE = 1.5e308


def overflow(store) -> None:
    """Set every parameter to +-1.5e308 in alternation: finite, so binding
    them passes, but sums and products of them overflow."""
    for name in store.names():
        values = store.get(name)
        signs = np.where(np.arange(values.size) % 2 == 0, 1.0, -1.0)
        values[:] = (HUGE * signs).reshape(values.shape)


def make_model(kind: str, fixed: int | None = None):
    if kind == "adjacency":
        return AdjacencyModel(
            AdjacencyModelConfig(max_nodes=6, hidden=4, row_embed=3, fixed_node_count=fixed, seed=1)
        )
    return SequenceModel(
        SequenceModelConfig(max_nodes=6, hidden=4, edge_hidden=3, fixed_node_count=fixed, seed=1)
    )


def make_posterior() -> OrderPosterior:
    return OrderPosterior(PosteriorConfig(max_nodes=6, layers=2, heads=2, head_dim=4, seed=2))


def overflowing_pair(kind: str, which: str):
    """A (model, posterior) pair with the parameters of ``which`` overflowing."""
    model, q = make_model(kind), make_posterior()
    overflow(q.store if which == "posterior" else model.store)
    return model, q


KINDS = ("adjacency", "sequence")
WHICH = ("posterior", "model")


class TestInputOverflows:
    """The parameters are finite, so only an op inside the forward pass can
    produce the non-finite values the other tests expect."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_parameters_finite_but_model_forward_overflows(self, kind):
        model = make_model(kind)
        overflow(model.store)
        model.store.bind(None)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            model.log_prob_orderings(C5, [tuple(range(5))])

    def test_parameters_finite_but_posterior_forward_overflows(self):
        q = make_posterior()
        overflow(q.store)
        q.store.bind(None)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            q.log_probs_orderings(C5, [tuple(range(5))])


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("kind", KINDS)
class TestEstimatorsRaise:
    def test_train_loop(self, kind, which):
        model, q = overflowing_pair(kind, which)
        with pytest.raises(NumericError):
            train_loop(model, q, [C5], TrainConfig(sample_count=2, seed=3))

    def test_grad_theta(self, kind, which):
        model, q = overflowing_pair(kind, which)
        with pytest.raises(NumericError):
            grad_theta(model, q, C5, 2, spawn_rng(4))

    def test_grad_phi(self, kind, which):
        model, q = overflowing_pair(kind, which)
        with pytest.raises(NumericError):
            grad_phi(model, q, C5, 2, spawn_rng(4))

    def test_importance_estimate(self, kind, which):
        model, q = overflowing_pair(kind, which)
        with pytest.raises(NumericError):
            importance_estimate(model, q, C5, 4, spawn_rng(5))


class TestSamplersRaise:
    def test_posterior_sample_orderings(self):
        q = make_posterior()
        overflow(q.store)
        with pytest.raises(NumericError):
            q.sample_orderings(C5, 4, spawn_rng(6))

    @pytest.mark.parametrize("fixed", [None, 5], ids=["free", "fixed"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_model_sample(self, kind, fixed):
        model = make_model(kind, fixed)
        overflow(model.store)
        with pytest.raises(NumericError):
            model.sample(4, spawn_rng(7))


class TestExactMarginalRaises:
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_marginal(self, kind):
        model = make_model(kind)
        overflow(model.store)
        with pytest.raises(NumericError):
            exact_marginal_log_prob(model, C5)


@pytest.mark.parametrize("constant", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_python_constant_rejected(constant):
    """A Python float that an op wraps is checked like any other constant."""
    with pytest.raises(NumericError, match="non-finite"):
        mul(Tensor([1.0, 2.0]), constant)
    with pytest.raises(NumericError, match="non-finite"):
        add(constant, Tensor([1.0]))


def test_finite_python_constants_wrap_to_their_values():
    assert np.array_equal(mul(Tensor([1.0, 2.0]), -1).data, [-1.0, -2.0])
    assert np.array_equal(add(Tensor([1.0]), 0.5).data, [1.5])
    assert mul(Tensor([3.0]), True).data[0] == 3.0

