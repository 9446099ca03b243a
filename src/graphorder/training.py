"""Variational training of a graph model jointly with an ordering posterior.

Per graph: draw S orderings from q, form joint log-probabilities, then take
a model gradient step on the mean joint log-probability and a posterior step
on the score-function estimator whose learning signal is log p(G, pi) minus
log q(pi | G).  Both gradients are computed from pre-update parameters; the
posterior updates first.  ``_objective`` writes the signal and the surrogate
whose gradient is both estimators; the training loop and the stand-alone
estimators differ only in which of its inputs they record on a tape.
"""

from __future__ import annotations

import json
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1) + "\n"


def _objective(
    rep: Tensor, log_mult: np.ndarray, log_q: Tensor, baseline: float = 0.0
) -> tuple[np.ndarray, Tensor]:
    """Per-sample learning signal log p(G, pi) - log q(pi | G) and the ascent
    surrogate mean(rep) + mean((signal - baseline) * log q).

    The surrogate's gradient is E_q[grad log p(G, pi)] for the model, whose
    multiplicity term is constant in the parameters, plus the score-function
    gradient E_q[(signal - baseline) grad log q] for the posterior; each
    reaches only the store whose scores the caller recorded on a tape."""
    signal = rep.data - log_mult - log_q.data
    return signal, add(mean(rep), mean(mul(Tensor(signal - baseline, tape=log_q.tape), log_q)))


def grad_theta(
    model: GraphModel, q: OrderingModel, g: Graph, sample_count: int, rng, mode: str = "cr"
) -> np.ndarray:
    """Accumulate the ascent gradient (1/S) sum_s grad log p(G, pi_s) into the
    model store."""
    pis, log_q = draw_orderings(q, g, sample_count, rng)
    tape = Tape()
    _, surrogate = _objective(*joint_log_probs(model, g, pis, mode, tape=tape), Tensor(log_q))
    backward(tape, surrogate)
    model.store.accumulate_from_tape(tape)
    return model.store.grad_vector()


def grad_phi(
    model: GraphModel, q: OrderingModel, g: Graph, sample_count: int, rng, mode: str = "cr"
) -> np.ndarray:
    """Accumulate the score-function ascent gradient
    (1/S) sum_s [log p(G, pi_s) - log q(pi_s)] grad log q(pi_s) into the
    posterior store."""
    pis, _ = draw_orderings(q, g, sample_count, rng)
    rep, log_mult = joint_log_probs(model, g, pis, mode)
    tape = Tape()
    _, surrogate = _objective(rep, log_mult, q.log_probs_orderings(g, pis, tape=tape))
    backward(tape, surrogate)
    q.store.accumulate_from_tape(tape)
    return q.store.grad_vector()


def train_loop(
    model: GraphModel, q: OrderingModel, dataset, cfg: TrainConfig, progress=None
) -> TrainReport:
    """Run the per-graph update loop and return one record per epoch.

    ``progress`` is an optional line sink (e.g. ``print``); each epoch emits
    ``epoch <k> elbo <v> sec <t>``.
    """
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
            tape = Tape()
            rep, log_mult = joint_log_probs(model, g, pis, cfg.multiplicity_mode, tape=tape)
            log_q = q.log_probs_orderings(g, pis, tape=tape)
            signal, surrogate = _objective(rep, log_mult, log_q, baseline if cfg.use_baseline else 0.0)
            elbo = float(np.mean(signal))
            if not math.isfinite(elbo):
                raise NumericError(f"non-finite loss at epoch {epoch} graph {index}")
            # both scores are on the tape, so one backward descends for both stores
            backward(tape, mul(surrogate, -1.0))
            q.store.accumulate_from_tape(tape)
            model.store.accumulate_from_tape(tape)
            # each tensor points back to the tape; emptying the tape breaks
            # that cycle, so the step is freed by reference counting
            tape.nodes.clear()
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
    return TrainReport(asdict(cfg), tuple(records), time.perf_counter() - start)


def _per_sample_phi_grads(model, q, g, count: int, rng, mode: str) -> np.ndarray:
    """(count, phi_dim) array of single-sample score-function gradients."""
    pis, _ = draw_orderings(q, g, count, rng)
    rep, log_mult = joint_log_probs(model, g, pis, mode)
    rows = []
    for s in range(count):
        tape = Tape()
        log_q = q.log_probs_orderings(g, pis[s : s + 1], tape=tape)
        _, surrogate = _objective(Tensor(rep.data[s : s + 1]), log_mult[s : s + 1], log_q)
        backward(tape, surrogate)
        q.store.accumulate_from_tape(tape)
        tape.nodes.clear()
        rows.append(q.store.grad_vector())
        q.store.zero_grads()
    return np.stack(rows)


def variance_trace(
    model: GraphModel,
    q: OrderingModel,
    g: Graph,
    sample_sizes,
    trials: int,
    seed: int = 0,
    mode: str = "cr",
) -> dict[int, float]:
    """Empirical variance of the S-sample posterior gradient estimator,
    per parameter entry then averaged, for each requested S."""
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
            grads = _per_sample_phi_grads(model, q, g, size, rng, mode)
            estimates.append(grads.mean(axis=0))
        out[size] = float(np.mean(np.var(np.stack(estimates), axis=0)))
    return out
