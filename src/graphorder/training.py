"""Variational training of a graph model jointly with an ordering posterior.

Per graph: draw S orderings from q, then ``step`` scores them under the model
and the posterior on one tape and accumulates both descent gradients: the
model's of the mean joint log-probability, and the posterior's
score-function estimator whose learning signal is log p(G, pi) minus
log q(pi | G).  Both gradients are computed from pre-update parameters; the
posterior updates first.  The training loop and the gradient-variance trace
both run ``step``, so the estimator they measure is the one that trains.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError, NumericError
from .graphs import Graph
from .models import GraphModel, MULTIPLICITY_MODES, joint_log_probs
from .posterior import OrderingModel, draw_orderings
from .rng import spawn_rng
from .tensor import Tape, Tensor, add, backward, check_positive_ints, mean, mul

# spawn-key lanes: 20 for the train loop, 30 for variance studies
_TRAIN_LANE = 20
_VARIANCE_LANE = 30

# The surrogate of the last ``step``, which keeps that step's tensors alive
# until the next step has built its own; their memory then serves the next
# backward pass.  Freed at the end of their step, the tensors (several MB for
# the sequence model) leave the top of the heap free, glibc malloc returns it
# to the OS, and the next step faults it in again: on a 2-core x86-64 Linux
# box that cost 51k more minor faults and about 20% more time per
# `train-sequence` benchmark round.  ``train_loop`` and ``variance_trace``
# let go of it when they return.
_last_step: Tensor | None = None


@dataclass(frozen=True)
class TrainConfig:
    sample_count: int = 8
    multiplicity_mode: str = "cr"
    lr_model: float = 0.01
    lr_posterior: float = 0.01
    epochs: int = 1
    seed: int = 0
    use_baseline: bool = False

    def __post_init__(self):
        check_positive_ints(sample_count=self.sample_count, epochs=self.epochs)
        if self.multiplicity_mode not in MULTIPLICITY_MODES:
            raise InputError(f"multiplicity_mode must be one of {MULTIPLICITY_MODES}")
        for name in ("lr_model", "lr_posterior"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InputError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class EpochRecord:
    elbo: float
    seconds: float


@dataclass(frozen=True)
class TrainReport:
    config: dict
    epochs: tuple[EpochRecord, ...]
    total_seconds: float

    def __post_init__(self):
        if len(self.epochs) != self.config["epochs"]:
            raise InputError("report must carry one record per epoch")

    def to_dict(self) -> dict:
        return {
            "config": dict(self.config),
            "epochs": [asdict(r) for r in self.epochs],
            "totalSeconds": self.total_seconds,
        }


def step(
    model: GraphModel, q: OrderingModel, g: Graph, pis: np.ndarray, mode: str, baseline: float = 0.0
) -> np.ndarray:
    """One training step's gradients for the orderings ``pis`` of g: add the
    descent gradient of each store to that store, and return the per-sample
    learning signal log p(G, pi) - log q(pi | G).

    The ascent surrogate is mean(rep) + mean((signal - baseline) * log q).
    Its gradient is E_q[grad log p(G, pi)] for the model, whose multiplicity
    term is constant in the parameters, plus the score-function gradient
    E_q[(signal - baseline) grad log q] for the posterior.  A non-finite mean
    signal raises ``NumericError`` before either store is touched."""
    global _last_step
    tape = Tape()
    rep, log_mult = joint_log_probs(model, g, pis, mode, tape=tape)
    log_q = q.log_probs_orderings(g, pis, tape=tape)
    signal = rep.data - log_mult - log_q.data
    if not math.isfinite(float(np.mean(signal))):
        raise NumericError("non-finite loss")
    surrogate = add(mean(rep), mean(mul(Tensor(signal - baseline, tape=log_q.tape), log_q)))
    # frees the previous step's tensors, below this step's
    _last_step = surrogate
    # both scores are on the tape, so one backward descends for both stores
    backward(tape, mul(surrogate, -1.0))
    q.store.accumulate_from_tape(tape)
    model.store.accumulate_from_tape(tape)
    # each tensor points back to the tape; emptying the tape breaks that
    # cycle, so the step is freed by reference counting once ``_last_step``
    # lets go of it
    tape.nodes.clear()
    return signal


def train_loop(
    model: GraphModel, q: OrderingModel, dataset, cfg: TrainConfig, progress=None
) -> TrainReport:
    """Run the per-graph update loop and return one record per epoch.

    ``progress`` is an optional line sink (e.g. ``print``); each epoch emits
    ``epoch <k> elbo <v> sec <t>``.
    """
    global _last_step
    graphs = list(dataset)
    if not graphs:
        raise InputError("dataset must contain at least one graph")
    for g in graphs:
        if g.n > model.cfg.max_nodes:
            raise InputError(f"graph with {g.n} nodes exceeds model max_nodes")
    records = []
    baseline = 0.0
    start = time.perf_counter()
    for epoch in range(cfg.epochs):
        tick = time.perf_counter()
        elbos = []
        for index, g in enumerate(graphs):
            rng = spawn_rng(cfg.seed, _TRAIN_LANE, epoch, index)
            pis, _ = draw_orderings(q, g, cfg.sample_count, rng)
            try:
                elbo = float(np.mean(step(model, q, g, pis, cfg.multiplicity_mode, baseline)))
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch} graph {index}") from exc
            if q.store.parameter_count():
                q.store.adam_step(cfg.lr_posterior)
            model.store.adam_step(cfg.lr_model)
            if cfg.use_baseline:
                baseline = 0.9 * baseline + 0.1 * elbo
            elbos.append(elbo)
        seconds = time.perf_counter() - tick
        records.append(EpochRecord(float(np.mean(elbos)), seconds))
        if progress is not None:
            progress(f"epoch {epoch} elbo {records[-1].elbo:.6f} sec {seconds:.3f}")
    _last_step = None
    return TrainReport(asdict(cfg), tuple(records), time.perf_counter() - start)


def variance_trace(
    model: GraphModel,
    q: OrderingModel,
    g: Graph,
    sample_sizes,
    trials: int,
    seed: int = 0,
    mode: str = "cr",
) -> dict[int, float]:
    """Empirical variance of the S-sample posterior gradient estimator of
    ``step``, per parameter entry then averaged, for each requested S.  Both
    stores' gradients are left at zero."""
    global _last_step
    if trials < 2:
        raise InputError("need at least two trials to estimate a variance")
    if not q.store.parameter_count():
        raise InputError("variance trace needs a posterior with parameters")
    out = {}
    for size_index, size in enumerate(sample_sizes):
        size = int(size)
        if size < 1:
            raise InputError("sample sizes must be positive")
        estimates = []
        for trial in range(trials):
            rng = spawn_rng(seed, _VARIANCE_LANE, 1000 + size_index, trial)
            pis, _ = draw_orderings(q, g, size, rng)
            step(model, q, g, pis, mode)
            estimates.append(-q.store.grad_vector())
            model.store.zero_grads()
            q.store.zero_grads()
        out[size] = float(np.mean(np.var(np.stack(estimates), axis=0)))
    _last_step = None
    return out
