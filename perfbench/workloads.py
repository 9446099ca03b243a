"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one round of a
fixed set of operations in `run_round`, summarises the rounds into the
end-to-end metrics, and checks the outputs against `reference`. Every call
into the program goes through a module attribute (`training.train_loop`, not
a name imported from it), so the wrappers of `tracing.instrument` see it.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

from graphorder import data, evaluation, models, posterior, symmetry, training
from graphorder.rng import spawn_rng

import reference

CHECKPOINTS = Path(__file__).resolve().parent / "checkpoints"

SIZES = (12, 13, 14, 15, 16)
P_INTRA = 0.7
SAMPLE_COUNT = 8
TRAIN_EPOCHS = 1
CORPUS_PER_SIZE = 4
CHECK_SIZES = (5, 6)
ELBO_CHECK_SAMPLES = 64
IMPORTANCE_SAMPLES = 1000
IMPORTANCE_TOLERANCE_SE = 5.0
IMPORTANCE_TOLERANCE_NATS = 0.01
MMD_SAMPLES = 20
SYMMETRY_SIZES = (5, 6, 7)
SYMMETRY_EDGE_P = 0.5
SYMMETRY_PREGENERATED_ROUNDS = 64
# A run completes at least this many rounds, and quality figures average over
# exactly these rounds, so they depend on the seed alone; `evaluate` rotates
# its held-out graphs through this many sets.
ROTATION = 4
STATISTICS = ("degree", "clustering", "orbit")

# spawn-key lanes, one per independent input stream
(LANE_CORPUS, LANE_CHECK, LANE_TRAIN, LANE_ELBO, LANE_SYMMETRY, LANE_HELDOUT, LANE_IMPORTANCE,
 LANE_SAMPLE, LANE_CHECKPOINT) = range(900, 909)


def community_corpus(per_size: int, sizes, seed: int, *key: int) -> list:
    """``per_size`` community-small graphs of every size in ``sizes``, drawn
    from the stream ``key`` of ``seed``; the size mix, and with it the cost,
    is the same for every seed."""
    rng = spawn_rng(seed, *key)
    out = []
    for n in sizes:
        out.extend(data.gen_community_small(per_size, (n, n), P_INTRA, rng).graphs)
    return out


def derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


def all_orderings(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.int64)


def adjacency_scores(model, g, pis: np.ndarray) -> np.ndarray:
    """Adjacency-model log-probabilities of the lower-triangular rows that
    each ordering produces, built here from the adjacency matrix."""
    a = reference.adjacency(g)
    aperm = a[pis[:, :, None], pis[:, None, :]]
    rows = np.zeros((len(pis), g.n - 1, model.cfg.max_nodes - 1))
    for k in range(g.n - 1):
        rows[:, k, : k + 1] = aperm[:, k + 1, : k + 1]
    return model.log_prob_rows(rows).data


def exact_log_lik(model, g) -> float:
    """log p(G) of either model family, from reference multiplicities."""
    if isinstance(model, models.AdjacencyModel):
        aut = reference.automorphism_count(g)
        return reference.exact_log_lik(
            g, lambda pis: adjacency_scores(model, g, pis), {tuple(p): aut for p in permutations(range(g.n))}
        )
    return reference.exact_log_lik(
        g, lambda pis: model.log_prob_orderings(g, pis).data, reference.prefix_class_counts(g)
    )


@dataclass
class Round:
    """One round's outputs: `attempted` counts program operations, `work`
    the units of the workload's rate, `work_s` the seconds they took, and
    `scale` takes those seconds to the reference host speed (`hostspeed`).
    `outputs["fingerprint"]` holds what must not change under tracing."""

    seconds: float
    attempted: int
    work: float
    work_s: float
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    scale: float = 1.0


class Workload:
    epochs_per_round = 0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_round(self, r: int) -> Round:
        raise NotImplementedError

    def summary(self, rounds: list[Round]) -> tuple[dict, dict]:
        """(end-to-end metric values, the same figures under their own names
        with units, for the report lines)."""
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> list[str]:
        raise NotImplementedError


def _rate(rounds: list[Round]) -> float:
    """Work per second over the whole run, at the reference host speed: each
    round's seconds are scaled by the host gauge read around it, and the
    totals average the inputs of every round."""
    return sum(r.work for r in rounds) / sum(r.work_s * r.scale for r in rounds)


def _round_s(rounds: list[Round]) -> float:
    """Mean seconds of one round at the reference host speed."""
    return statistics.fmean(r.seconds * r.scale for r in rounds)


def _wall(rounds: list[Round]) -> dict:
    """The unscaled figures, for the report lines."""
    return {
        "wall_ops_per_s": (sum(r.work for r in rounds) / sum(r.work_s for r in rounds), "1/s"),
        "wall_round_s": (statistics.fmean(r.seconds for r in rounds), "s"),
    }


class TrainWorkload(Workload):
    """Whole `train_loop` jobs that continue training the stored checkpoint;
    each round starts from the same parameters, trains one epoch on a fresh
    corpus and draws its orderings from its own seed. Starting from trained
    parameters keeps the ELBO off the sudden early drop whose timing varies
    with the seed. The cost of a corpus differs between seeds, so a run
    covers as many fresh corpora as it can rather than repeating epochs
    over a few."""

    epochs_per_round = TRAIN_EPOCHS

    def __init__(self, kind: str):
        self.kind = kind
        self.trained = None

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.model_doc = models.load_model(CHECKPOINTS / f"{self.kind}.json").checkpoint()
        self.q_doc = posterior.OrderPosterior.load(CHECKPOINTS / f"{self.kind}_posterior.json").checkpoint()
        self.corpora = []
        for r in range(ROTATION):
            self.corpus(r)
        self.small = community_corpus(1, CHECK_SIZES, seed, LANE_CHECK)

    def corpus(self, r: int) -> list:
        while len(self.corpora) <= r:
            self.corpora.append(community_corpus(CORPUS_PER_SIZE, SIZES, self.seed, LANE_CORPUS, len(self.corpora)))
        return self.corpora[r]

    def run_round(self, r: int) -> Round:
        cfg = training.TrainConfig(
            sample_count=SAMPLE_COUNT, epochs=TRAIN_EPOCHS, seed=derived_seed(self.seed, LANE_TRAIN, r),
            multiplicity_mode="cr",
        )
        corpus = self.corpus(r)
        tick = time.perf_counter()
        model = models.model_from_document(self.model_doc)
        q = posterior.OrderPosterior.from_checkpoint(self.q_doc)
        report = training.train_loop(model, q, corpus, cfg)
        seconds = time.perf_counter() - tick
        if self.trained is None:
            self.trained = (model, q)
        updates = len(corpus) * TRAIN_EPOCHS
        elbos = [e.elbo for e in report.epochs]
        return Round(seconds, updates, updates, seconds, outputs={"elbos": elbos, "fingerprint": elbos})

    def summary(self, rounds):
        rate = _rate(rounds)
        neg_elbo = -statistics.fmean(r.outputs["elbos"][-1] for r in rounds[:ROTATION])
        e2e = {"ops_per_s": rate, "round_s": _round_s(rounds), "nats": neg_elbo}
        named = {
            "train_graphs_per_s": (rate, "1/s"),
            "train_neg_elbo_nats": (neg_elbo, "nats"),
            **_wall(rounds),
        }
        return e2e, named

    def check(self, rounds):
        failures = []
        if not all(math.isfinite(v) for r in rounds for v in r.outputs["elbos"]):
            failures.append("non-finite ELBO in a training report")
        model, q = self.trained
        for i, g in enumerate(self.small):
            pis = all_orderings(g.n)
            total = float(np.exp(q.log_probs_orderings(g, pis).data).sum())
            if abs(total - 1.0) > 1e-9:
                failures.append(f"posterior mass over all orderings of a {g.n}-node graph is {total!r}")
            exact = exact_log_lik(model, g)
            samples = q.sample_orderings(g, ELBO_CHECK_SAMPLES, spawn_rng(self.seed, LANE_ELBO, i))
            drawn = np.array([s.pi for s in samples], dtype=np.int64)
            rep, log_mult = models.joint_log_probs(model, g, drawn, "cr")
            terms = rep.data - log_mult - np.array([s.log_q for s in samples])
            elbo = float(terms.mean())
            stderr = float(terms.std(ddof=1) / math.sqrt(len(terms)))
            if not elbo <= exact + 3.0 * stderr + 1e-9:
                failures.append(f"ELBO {elbo:.6f} exceeds exact log p {exact:.6f} + 3 x {stderr:.2e}")
        return failures


class SymmetryWorkload(Workload):
    """Both ordering multiplicities for every ordering of a stream of fresh
    random graphs, one graph of each size per round."""

    def setup(self, seed: int) -> None:
        self.rng = spawn_rng(seed, LANE_SYMMETRY)
        self.stream: list[list] = []
        self._extend(SYMMETRY_PREGENERATED_ROUNDS)

    def _extend(self, rounds: int) -> None:
        for _ in range(rounds):
            self.stream.append([self._graph(n) for n in SYMMETRY_SIZES])

    def _graph(self, n: int):
        """G(n, 1/2) drawn until it has half the node pairs (rounded down)
        as edges: a uniform graph with that many edges. A fixed edge count
        takes out much of the spread in cost between graphs, which would
        otherwise differ between seeds."""
        edges = n * (n - 1) // 4
        while True:
            g = data.gen_er(1, n, SYMMETRY_EDGE_P, self.rng).graphs[0]
            if g.edge_count == edges:
                return g

    def run_round(self, r: int) -> Round:
        if r >= len(self.stream):
            self._extend(r + 1 - len(self.stream))
        graphs = self.stream[r]
        results = []
        tick = time.perf_counter()
        for g in graphs:
            exact, cr = [], []
            for pi in permutations(range(g.n)):
                exact.append(symmetry.sequence_multiplicity_exact(g, pi))
                cr.append(symmetry.sequence_multiplicity_cr(g, pi))
            results.append((g, exact, cr))
        seconds = time.perf_counter() - tick
        count = sum(len(e) for _, e, _ in results)
        fp = [(e, c) for _, e, c in results]
        return Round(seconds, count, count, seconds, outputs={"results": results, "fingerprint": fp})

    def summary(self, rounds):
        rate = _rate(rounds)
        logs = [math.log(m) for r in rounds[:ROTATION] for _, exact, _ in r.outputs["results"] for m in exact]
        mean_log = sum(logs) / len(logs)
        e2e = {"ops_per_s": rate, "round_s": _round_s(rounds), "nats": mean_log}
        named = {
            "symmetry_orderings_per_s": (rate, "1/s"),
            "mean_log_exact_multiplicity": (mean_log, "nats"),
            **_wall(rounds),
        }
        return e2e, named

    def check(self, rounds):
        wrong_exact = below_exact = 0
        for rnd in rounds:
            for g, exact, cr in rnd.outputs["results"]:
                counts = reference.prefix_class_counts(g)
                for pi, e, c in zip(permutations(range(g.n)), exact, cr):
                    wrong_exact += e != counts[pi]
                    below_exact += c < e
        failures = []
        if wrong_exact:
            failures.append(f"{wrong_exact} exact multiplicities differ from brute-force class counts")
        if below_exact:
            failures.append(f"{below_exact} refinement multiplicities fall below the exact one")
        return failures


class EvaluateWorkload(Workload):
    """Tape-free evaluation of trained checkpoints: importance-sampled
    log-likelihood, ancestral sampling, and the three-statistic MMD."""

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.adjacency = models.load_model(CHECKPOINTS / "adjacency.json")
        self.sequence = models.load_model(CHECKPOINTS / "sequence.json")
        self.q = posterior.OrderPosterior.load(CHECKPOINTS / "adjacency_posterior.json")
        self.heldout = community_corpus(CORPUS_PER_SIZE, SIZES, seed, LANE_HELDOUT)
        self.small = community_corpus(1, CHECK_SIZES, seed, LANE_CHECK)

    def scored(self, r: int) -> list:
        """The held-out graphs round r scores: one of each size, rotating."""
        return [self.heldout[b * CORPUS_PER_SIZE + r % ROTATION] for b in range(len(SIZES))]

    def run_round(self, r: int) -> Round:
        tick = time.perf_counter()
        estimates = [
            evaluation.importance_estimate(
                self.adjacency, self.q, g, IMPORTANCE_SAMPLES, spawn_rng(self.seed, LANE_IMPORTANCE, r, i)
            )
            for i, g in enumerate(self.scored(r))
        ]
        importance_s = time.perf_counter() - tick
        tock = time.perf_counter()
        sampled = [
            model.sample(MMD_SAMPLES, spawn_rng(self.seed, LANE_SAMPLE, r, k))
            for k, model in enumerate((self.adjacency, self.sequence))
        ]
        sample_s = time.perf_counter() - tock
        tock = time.perf_counter()
        mmds = [[evaluation.mmd(self.heldout, graphs, stat) for stat in STATISTICS] for graphs in sampled]
        mmd_s = time.perf_counter() - tock
        seconds = time.perf_counter() - tick
        outputs = {
            "log_liks": [e.log_lik for e in estimates],
            "sampled": sampled,
            "mmds": mmds,
            "sample_s": sample_s,
            "mmd_s": mmd_s,
        }
        outputs["fingerprint"] = (outputs["log_liks"], [[g.adj for g in gs] for gs in sampled], mmds)
        attempted = len(estimates) + len(sampled) + len(sampled) * len(STATISTICS)
        return Round(seconds, attempted, len(estimates) * IMPORTANCE_SAMPLES, importance_s, outputs=outputs)

    def summary(self, rounds):
        rate = _rate(rounds)
        nll = -statistics.fmean(v for r in rounds[:ROTATION] for v in r.outputs["log_liks"])
        nodes = sum(g.n for r in rounds for gs in r.outputs["sampled"] for g in gs)
        comparisons = sum(len(r.outputs["mmds"]) for r in rounds)
        e2e = {"ops_per_s": rate, "round_s": _round_s(rounds), "nats": nll}
        named = {
            "loglik_samples_per_s": (rate, "1/s"),
            "test_nll_nats": (nll, "nats"),
            "sample_nodes_per_s": (nodes / sum(r.outputs["sample_s"] * r.scale for r in rounds), "1/s"),
            "mmd_comparisons_per_s": (
                comparisons / sum(r.outputs["mmd_s"] * r.scale for r in rounds),
                f"1/s, {len(self.heldout)} held-out vs {MMD_SAMPLES} sampled graphs",
            ),
            **_wall(rounds),
        }
        return e2e, named

    def check(self, rounds):
        failures = []
        if not all(math.isfinite(v) for r in rounds for v in r.outputs["log_liks"]):
            failures.append("non-finite importance estimate")
        # On graphs this small the uniform proposal is consistent and the
        # error at L = 1000 is a few standard errors at most. The learned
        # proposal, trained on 12-16 nodes, misses most of the mass here, so
        # only its lower-bound side is checked.
        uniform = posterior.UniformOrderer()
        for i, g in enumerate(self.small):
            exact = exact_log_lik(self.adjacency, g)
            for k, proposal in enumerate((uniform, self.q)):
                est = evaluation.importance_estimate(
                    self.adjacency, proposal, g, IMPORTANCE_SAMPLES, spawn_rng(self.seed, LANE_CHECK, i, k)
                )
                tolerance = IMPORTANCE_TOLERANCE_SE * est.stderr + IMPORTANCE_TOLERANCE_NATS
                low = -math.inf if proposal is self.q else exact - tolerance
                if not low <= est.log_lik <= exact + tolerance:
                    failures.append(
                        f"{proposal.kind} importance estimate {est.log_lik:.5f} (stderr {est.stderr:.5f}) "
                        f"is outside {tolerance:.5f} nats of the exact {exact:.5f} on a {g.n}-node graph"
                    )
        heldout = [reference.adjacency(g) for g in self.heldout]
        for rnd in rounds:
            for model, graphs, values in zip((self.adjacency, self.sequence), rnd.outputs["sampled"], rnd.outputs["mmds"]):
                for g in graphs:
                    a = reference.adjacency(g)
                    if not (1 <= g.n <= model.cfg.max_nodes and np.array_equal(a, a.T) and not a.diagonal().any()):
                        failures.append(f"sampled graph with {g.n} nodes is not a simple graph within max_nodes")
                sampled = [reference.adjacency(g) for g in graphs]
                for stat, value in zip(STATISTICS, values):
                    ours = reference.mmd(heldout, sampled, stat)
                    if abs(value - ours) > 1e-9:
                        failures.append(f"{stat} MMD {value!r} differs from the recomputed {ours!r}")
        for stat in STATISTICS:
            same = evaluation.mmd(self.heldout[:MMD_SAMPLES // 2], self.heldout[:MMD_SAMPLES // 2], stat)
            if same != 0.0:
                failures.append(f"{stat} MMD of a set with itself is {same!r}")
        return failures


WORKLOADS = {
    "train-adjacency": lambda: TrainWorkload("adjacency"),
    "train-sequence": lambda: TrainWorkload("sequence"),
    "symmetry-enumerate": SymmetryWorkload,
    "evaluate": EvaluateWorkload,
}
