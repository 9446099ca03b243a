"""Acceptance suite: one test per numbered acceptance criterion.

Each test prints a `criterion <k>: pass|fail (...)` line through the capture
guard so the verdicts are visible in plain pytest output, then asserts.
Expensive shared artifacts (generated corpora, trained models) live in
module-scoped fixtures.  All randomness derives from ACCEPT_SEED on stream
lanes >= 100, disjoint from the lanes the library itself uses.
"""

import math
import time
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from graphorder.data import gen_community_small, gen_er
from graphorder.evaluation import averaged_adjacency, importance_estimate, mmd
from graphorder.graphs import Graph, induced_subgraph, isomorphic
from graphorder.models import (
    AdjacencyModel,
    AdjacencyModelConfig,
    SequenceModel,
    SequenceModelConfig,
    exact_marginal_log_prob,
    joint_log_probs,
    log_sum_exp,
)
from graphorder.nn import (
    attention_message_pass,
    bind_attention,
    gru_step,
    linear,
    neighborhood_mask,
    register_attention,
    register_gru,
    register_linear,
    residual_attention_stack,
)
from graphorder.posterior import OrderPosterior, PosteriorConfig, UniformOrderer
from graphorder.rng import spawn_rng
from graphorder.symmetry import (
    automorphism_count,
    orbit_partition,
    sequence_multiplicity_cr,
    sequence_multiplicity_exact,
)
from graphorder.tensor import (
    ParameterStore,
    Tape,
    Tensor,
    add,
    backward,
    concat,
    log_sigmoid,
    masked_log_softmax,
    matmul,
    mean,
    mul,
    multi_head_attention,
    reshape,
    stack,
    take_along_last,
    tanh,
    tensor_sum,
)
from graphorder.training import TrainConfig, grad_phi, grad_theta, train_loop

from oracles import (
    all_graphs,
    brute_canonical_form,
    central_difference,
    encode_adjacency,
    random_graph,
    search_automorphism_count,
)

ACCEPT_SEED = 90125


@pytest.fixture
def report(capsys):
    def emit(number: int, ok: bool, extra: str = "") -> None:
        line = f"criterion {number}: {'pass' if ok else 'fail'}"
        if extra:
            line += f" ({extra})"
        with capsys.disabled():
            print(line, flush=True)

    return emit


# ---------------------------------------------------------------------------
# shared trained artifacts


@pytest.fixture(scope="module")
def small_trained_suite():
    """20 graphs with n <= 5 plus an adjacency model and posterior fitted to them."""
    rng = spawn_rng(ACCEPT_SEED, 108)
    graphs = [random_graph(rng, int(rng.integers(2, 6)), 0.5) for _ in range(20)]
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=5, hidden=8, row_embed=4, seed=81))
    q = OrderPosterior(PosteriorConfig(max_nodes=5, layers=1, heads=2, head_dim=4, seed=82))
    train_loop(model, q, graphs, TrainConfig(sample_count=4, epochs=30, seed=83))
    return graphs, model, q


@pytest.fixture(scope="module")
def mid_trained_suite():
    """20 graphs with 6 <= n <= 9 plus a fitted adjacency model and posterior."""
    rng = spawn_rng(ACCEPT_SEED, 109)
    graphs = [
        random_graph(rng, int(rng.integers(6, 10)), float(rng.uniform(0.25, 0.6)))
        for _ in range(20)
    ]
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=9, hidden=12, row_embed=6, seed=91))
    q = OrderPosterior(PosteriorConfig(max_nodes=9, layers=2, heads=2, head_dim=6, seed=92))
    train_loop(model, q, graphs, TrainConfig(sample_count=4, epochs=40, seed=93))
    return graphs, model, q


@pytest.fixture(scope="module")
def community_run():
    """Two identically initialized adjacency models trained on the same
    community corpus with the same budget: (a) against a learned ordering
    posterior, (b) against uniform orderings."""
    data_rng = spawn_rng(ACCEPT_SEED, 110)
    train_graphs = list(gen_community_small(100, (12, 16), 0.7, data_rng))
    test_graphs = list(gen_community_small(25, (12, 16), 0.7, data_rng))
    model_cfg = AdjacencyModelConfig(max_nodes=16, hidden=32, row_embed=16, seed=7)
    cfg = TrainConfig(sample_count=8, epochs=50, seed=1100)
    model_a = AdjacencyModel(model_cfg)
    q_a = OrderPosterior(PosteriorConfig(max_nodes=16, layers=2, heads=2, head_dim=8, seed=8))
    tick = time.perf_counter()
    train_loop(model_a, q_a, train_graphs, cfg)
    secs_a = time.perf_counter() - tick
    model_b = AdjacencyModel(model_cfg)
    q_b = UniformOrderer()
    tick = time.perf_counter()
    train_loop(model_b, q_b, train_graphs, cfg)
    secs_b = time.perf_counter() - tick
    return test_graphs, (model_a, q_a), (model_b, q_b), (secs_a, secs_b)


# ---------------------------------------------------------------------------
# criterion 1


def prefix_class_sizes(g: Graph) -> list[tuple[tuple[int, ...], int]]:
    """Every ordering paired with the number of orderings whose prefix graphs
    are isomorphic to its own, stage by stage.  Independent of the library's
    multiplicity engine: prefixes are compared by brute-force canonical forms."""
    canon: dict[frozenset, tuple] = {}

    def subset_canon(nodes: tuple[int, ...]) -> tuple:
        key = frozenset(nodes)
        if key not in canon:
            canon[key] = brute_canonical_form(induced_subgraph(g, sorted(key)))
        return canon[key]

    sigs = [
        (p, tuple(subset_canon(p[: t + 1]) for t in range(g.n)))
        for p in permutations(range(g.n))
    ]
    counts = Counter(sig for _, sig in sigs)
    return [(p, counts[sig]) for p, sig in sigs]


def test_criterion_01_exact_multiplicity_matches_class_counts(report):
    tick = time.perf_counter()
    rng = spawn_rng(ACCEPT_SEED, 101)
    suite = [
        random_graph(rng, int(rng.integers(3, 8)), float(rng.uniform(0.2, 0.8)))
        for _ in range(200)
    ]
    for n in range(1, 6):
        suite.extend(all_graphs(n))
    checks = 0
    mismatches = 0
    for g in suite:
        for order, expected in prefix_class_sizes(g):
            checks += 1
            if sequence_multiplicity_exact(g, order) != expected:
                mismatches += 1
    elapsed = time.perf_counter() - tick
    ok = mismatches == 0 and elapsed < 120.0
    report(1, ok, f"{len(suite)} graphs, {checks} ordering checks, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_02_orbits_match_deletion_isomorphism(report):
    tick = time.perf_counter()
    rng = spawn_rng(ACCEPT_SEED, 102)
    pairs = 0
    mismatches = 0
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(2, 8)), float(rng.uniform(0.15, 0.85)))
        orbit_index = {}
        for index, orbit in enumerate(orbit_partition(g)):
            for node in orbit:
                orbit_index[node] = index
        deleted = [induced_subgraph(g, [w for w in range(g.n) if w != u]) for u in range(g.n)]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                pairs += 1
                if (orbit_index[u] == orbit_index[v]) != isomorphic(deleted[u], deleted[v]):
                    mismatches += 1
    elapsed = time.perf_counter() - tick
    ok = mismatches == 0 and elapsed < 120.0
    report(2, ok, f"{pairs} node pairs, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 3


def named_graphs() -> list[tuple[str, Graph, int]]:
    complete5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    cycle6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    path6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    star5 = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    petersen = Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    return [
        ("K5", complete5, 120),
        ("C6", cycle6, 12),
        ("P6", path6, 2),
        ("star5", star5, 120),
        ("Petersen", petersen, 120),
    ]


def test_criterion_03_automorphism_counts_on_named_graphs(report):
    results = []
    ok = True
    for name, g, expected in named_graphs():
        engine = automorphism_count(g)
        oracle = search_automorphism_count(g)
        results.append(f"{name}={engine}")
        ok = ok and engine == expected == oracle
    report(3, ok, " ".join(results))
    for name, g, expected in named_graphs():
        assert automorphism_count(g) == expected
        assert search_automorphism_count(g) == expected


# ---------------------------------------------------------------------------
# criterion 4


def test_criterion_04_refinement_bound_never_undercounts(report):
    tick = time.perf_counter()
    rng = spawn_rng(ACCEPT_SEED, 104)
    violations = 0
    equal = 0
    total = 0
    for index in range(500):
        n = int(rng.integers(3, 13))
        p = 0.2 if index % 2 == 0 else 0.5
        g = random_graph(rng, n, p)
        for _ in range(10):
            order = tuple(int(v) for v in rng.permutation(n))
            bound = sequence_multiplicity_cr(g, order)
            exact = sequence_multiplicity_exact(g, order)
            total += 1
            violations += bound < exact
            equal += bound == exact
    elapsed = time.perf_counter() - tick
    ok = violations == 0
    report(4, ok, f"equality rate {equal}/{total} = {equal / total:.4f}, {elapsed:.1f}s")
    assert violations == 0


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_05_ordering_sum_matches_distinct_encoding_sum(report):
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=6, hidden=6, row_embed=4, seed=55))
    rng = spawn_rng(ACCEPT_SEED, 105)
    worst = 0.0
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(2, 7)), float(rng.uniform(0.2, 0.8)))
        orders = np.array(list(permutations(range(g.n))), dtype=np.int64)
        rep, log_mult = joint_log_probs(model, g, orders, "exact")
        ordering_sum = float(np.exp(rep.data - log_mult).sum())
        first_by_encoding = {}
        for row, order in enumerate(orders):
            key = encode_adjacency(g, tuple(int(v) for v in order)).rows
            first_by_encoding.setdefault(key, row)
        encoding_sum = float(
            sum(math.exp(rep.data[row]) for row in first_by_encoding.values())
        )
        worst = max(worst, abs(ordering_sum - encoding_sum))
    ok = worst < 1e-9
    report(5, ok, f"max |sum difference| = {worst:.3e}")
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# criterion 6


def test_criterion_06_posterior_normalization(report):
    q = OrderPosterior(PosteriorConfig(max_nodes=5, layers=2, heads=2, head_dim=5, seed=66))
    worst = 0.0
    count = 0
    for n in range(1, 6):
        orders = np.array(list(permutations(range(n))), dtype=np.int64)
        for g in all_graphs(n):
            total = float(np.exp(q.log_probs_orderings(g, orders).data).sum())
            worst = max(worst, abs(total - 1.0))
            count += 1
    ok = worst < 1e-9
    report(6, ok, f"{count} graphs, max |sum - 1| = {worst:.3e}")
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# criterion 7


def leaf_fd_err(build, *arrays) -> float:
    """Max relative error between tape gradients and central differences for a
    scalar-valued builder over raw leaf arrays."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tape = Tape()
    leaves = [Tensor(a.copy(), tape=tape) for a in arrays]
    backward(tape, build(*leaves))
    worst = 0.0
    for slot, base in enumerate(arrays):
        def value_at(x, slot=slot):
            vals = [a.copy() for a in arrays]
            vals[slot] = x
            return float(build(*[Tensor(v) for v in vals]).data)

        numeric = central_difference(value_at, base.copy())
        analytic = leaves[slot].grad
        if analytic is None:
            analytic = np.zeros_like(numeric)
        scale = max(1.0, float(np.abs(numeric).max()), float(np.abs(analytic).max()))
        worst = max(worst, float(np.abs(analytic - numeric).max() / scale))
    return worst


def store_fd_err(store: ParameterStore, build) -> float:
    """Same check for a builder whose inputs are the parameters of a store;
    ``build(tape)`` must return a scalar tensor."""
    store.zero_grads()
    tape = Tape()
    backward(tape, build(tape))
    store.accumulate_from_tape(tape)
    worst = 0.0
    for name in store.names():
        analytic = store.grad(name).copy()
        live = store.get(name)
        base = live.copy()

        def value_at(x, live=live):
            live[:] = x
            return float(build(None).data)

        numeric = central_difference(value_at, base.copy())
        live[:] = base
        scale = max(1.0, float(np.abs(numeric).max()), float(np.abs(analytic).max()))
        worst = max(worst, float(np.abs(analytic - numeric).max() / scale))
    return worst


def tensor_op_cases(rng) -> list:
    """(label, build, arrays) finite-difference cases for every tensor op."""

    def rand(*shape):
        return rng.uniform(-1.5, 1.5, size=shape)

    def row_mask(rows, cols):
        mask = rng.random((rows, cols)) < 0.6
        mask[:, 0] = True
        return mask

    def attention_operands(rows, n, d, heads, head_dim):
        """x, w and a of ``multi_head_attention`` whose scores
        src_i + dst_j all keep 0.05 clear of the leaky step's kink."""
        while True:
            x, w, a = rand(rows, n, d), rand(heads, d, head_dim), rand(2 * heads, head_dim)
            z = np.matmul(x, w[:, None])
            s = np.matmul(z, a.reshape(2, heads, 1, head_dim, 1))[..., 0]
            if np.abs(s[0][..., :, None] + s[1][..., None, :]).min() >= 0.05:
                return x, w, a

    cases = []
    for _ in range(5):
        w23 = rand(2, 3)
        w24 = rand(2, 4)
        w34 = rand(3, 4)
        w35 = rand(3, 5)
        w25 = rand(2, 5)
        w2 = rand(2)
        mask = row_mask(3, 5)
        att_mask = (rng.random((4, 4)) < 0.6) | np.eye(4, dtype=bool)
        w244 = rand(2, 4, 4)
        w223 = rand(2, 2, 3)
        idx_last = np.array([1, 3, 0])
        cases.extend(
            [
                ("add", lambda x, y, w=w23: tensor_sum(mul(w, add(x, y))), (rand(2, 3), rand(3))),
                ("mul", lambda x, y, w=w23: tensor_sum(mul(w, mul(x, y))), (rand(2, 3), rand(2, 3))),
                ("matmul", lambda x, y, w=w24: tensor_sum(mul(w, matmul(x, y))), (rand(2, 3), rand(3, 4))),
                (
                    "matmul3d",
                    lambda x, y: tensor_sum(matmul(x, y)),
                    (rand(2, 3, 4), rand(4, 2)),
                ),
                ("tanh", lambda x, w=w23: tensor_sum(mul(w, tanh(x))), (rand(2, 3),)),
                ("log_sigmoid", lambda x, w=w23: tensor_sum(mul(w, log_sigmoid(x))), (rand(2, 3),)),
                (
                    "tensor_sum_axis",
                    lambda x, w=w2: tensor_sum(mul(w, tensor_sum(x, axis=1))),
                    (rand(2, 5),),
                ),
                ("mean_axis", lambda x, w=w2: tensor_sum(mul(w, mean(x, axis=1))), (rand(2, 4),)),
                (
                    "reshape",
                    lambda x, w=w34: tensor_sum(mul(w, reshape(x, (3, 4)))),
                    (rand(2, 6),),
                ),
                (
                    "concat",
                    lambda x, y, w=w25: tensor_sum(mul(w, concat([x, y]))),
                    (rand(2, 2), rand(2, 3)),
                ),
                (
                    "take_along_last",
                    lambda x, i=idx_last: tensor_sum(mul(np.array([1.0, -2.0, 0.5]), take_along_last(x, i))),
                    (rand(3, 4),),
                ),
                (
                    "stack",
                    lambda x, y, w=w223: tensor_sum(mul(w, stack([x, y]))),
                    (rand(2, 3), rand(2, 3)),
                ),
                (
                    "multi_head_attention",
                    lambda x, wt, a, w=w244, m=att_mask: tensor_sum(mul(w, multi_head_attention(x, wt, a, m))),
                    attention_operands(2, 4, 3, 2, 2),
                ),
                (
                    "masked_log_softmax",
                    lambda x, w=w35, m=mask: tensor_sum(mul(w * m, masked_log_softmax(x, m))),
                    (rand(3, 5),),
                ),
            ]
        )
    return cases


def network_fd_cases(rng) -> list:
    """(label, store, build) cases for the composite network blocks and for
    every model head, differentiated with respect to stored parameters."""
    cases = []
    for draw in range(2):
        g = random_graph(spawn_rng(ACCEPT_SEED, 107, 90 + draw), 5, 0.5)
        mask = neighborhood_mask(g)
        x43 = rng.uniform(-1.0, 1.0, size=(4, 3))
        h24 = rng.uniform(-1.0, 1.0, size=(2, 4))
        x23 = rng.uniform(-1.0, 1.0, size=(2, 3))
        feats = rng.uniform(-1.0, 1.0, size=(5, 4))
        w42 = rng.uniform(-1.0, 1.0, size=(4, 2))
        w24 = rng.uniform(-1.0, 1.0, size=(2, 4))
        w56 = rng.uniform(-1.0, 1.0, size=(5, 6))
        w54 = rng.uniform(-1.0, 1.0, size=(5, 4))

        lin_store = ParameterStore()
        register_linear(lin_store, "lin", 3, 2, rng)
        cases.append(
            (
                "linear",
                lin_store,
                lambda tape, s=lin_store, w=w42: tensor_sum(
                    mul(w, linear(s.bind(tape), "lin", x43))
                ),
            )
        )

        gru_store = ParameterStore()
        register_gru(gru_store, "cell", 3, 4, rng)
        cases.append(
            (
                "gru_step",
                gru_store,
                lambda tape, s=gru_store, w=w24, h=h24, x=x23: tensor_sum(
                    mul(w, gru_step(s.bind(tape), "cell", Tensor(h, tape=tape), x))
                ),
            )
        )

        att_store = ParameterStore()
        register_attention(att_store, "att", 4, 2, 3, rng)
        cases.append(
            (
                "attention_message_pass",
                att_store,
                lambda tape, s=att_store, w=w56, f=feats, m=mask: tensor_sum(
                    mul(
                        w,
                        attention_message_pass(
                            bind_attention(s, tape, ["att"], 2), "att", Tensor(f, tape=tape), m
                        ),
                    )
                ),
            )
        )

        stack_store = ParameterStore()
        for layer in range(2):
            register_attention(stack_store, f"stack.layer{layer}", 4, 2, 2, rng)
        cases.append(
            (
                "residual_attention_stack",
                stack_store,
                lambda tape, s=stack_store, w=w54, f=feats, m=mask: tensor_sum(
                    mul(
                        w,
                        residual_attention_stack(
                            bind_attention(s, tape, ["stack.layer0", "stack.layer1"], 2),
                            "stack",
                            Tensor(f, tape=tape),
                            m,
                            layers=2,
                        ),
                    )
                ),
            )
        )

        g4 = random_graph(spawn_rng(ACCEPT_SEED, 107, 95 + draw), 4, 0.5)
        orders = np.array([[0, 1, 2, 3], [2, 0, 3, 1]], dtype=np.int64)
        weights = rng.uniform(-1.0, 1.0, size=2)

        adj = AdjacencyModel(AdjacencyModelConfig(max_nodes=4, hidden=5, row_embed=3, seed=40 + draw))
        cases.append(
            (
                "adjacency_log_prob",
                adj.store,
                lambda tape, m=adj, gg=g4, w=weights: tensor_sum(
                    mul(w, joint_log_probs(m, gg, orders, "exact", tape=tape)[0])
                ),
            )
        )

        seq = SequenceModel(SequenceModelConfig(max_nodes=4, hidden=5, rounds=2, edge_hidden=4, seed=44 + draw))
        cases.append(
            (
                "sequence_log_prob",
                seq.store,
                lambda tape, m=seq, gg=g4, w=weights: tensor_sum(
                    mul(w, joint_log_probs(m, gg, orders, "exact", tape=tape)[0])
                ),
            )
        )

        post = OrderPosterior(PosteriorConfig(max_nodes=4, layers=1, heads=1, head_dim=4, seed=48 + draw))
        cases.append(
            (
                "posterior_log_prob",
                post.store,
                lambda tape, q=post, gg=g4, w=weights: tensor_sum(
                    mul(w, q.log_probs_orderings(gg, orders, tape=tape))
                ),
            )
        )
    return cases


def estimator_z_scores(model, q, g, exact_grad, estimator, chunks, chunk_size, rng):
    """Max |z| between the chunked Monte Carlo mean and the enumerated
    gradient, with a tiny absolute floor for exactly deterministic entries."""
    draws = []
    for _ in range(chunks):
        draws.append(estimator(chunk_size, rng).copy())
    stacked = np.stack(draws)
    mc_mean = stacked.mean(axis=0)
    se = stacked.std(axis=0, ddof=1) / math.sqrt(chunks)
    gap = np.abs(mc_mean - exact_grad)
    return float(np.max(gap / (3.0 * se + 1e-12))), float(gap.max())


def test_criterion_07_gradients_match_finite_differences_and_enumeration(report):
    tick = time.perf_counter()
    rng = spawn_rng(ACCEPT_SEED, 107)
    worst_fd = 0.0
    cases = 0
    for label, build, arrays in tensor_op_cases(rng):
        err = leaf_fd_err(build, *arrays)
        assert err < 1e-4, f"{label}: finite-difference mismatch {err:.3e}"
        worst_fd = max(worst_fd, err)
        cases += 1
    for label, store, build in network_fd_cases(rng):
        err = store_fd_err(store, build)
        assert err < 1e-4, f"{label}: finite-difference mismatch {err:.3e}"
        worst_fd = max(worst_fd, err)
        cases += 1

    g = random_graph(spawn_rng(ACCEPT_SEED, 107, 1), 4, 0.5)
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=4, hidden=4, row_embed=3, seed=71))
    q = OrderPosterior(PosteriorConfig(max_nodes=4, layers=1, heads=1, head_dim=4, seed=72))
    orders = np.array(list(permutations(range(4))), dtype=np.int64)
    probs = np.exp(q.log_probs_orderings(g, orders).data)

    model.store.zero_grads()
    tape = Tape()
    rep_t, _ = joint_log_probs(model, g, orders, "cr", tape=tape)
    backward(tape, tensor_sum(mul(Tensor(probs, tape=tape), rep_t)))
    model.store.accumulate_from_tape(tape)
    exact_theta = model.store.grad_vector().copy()

    rep, log_mult = joint_log_probs(model, g, orders, "cr")
    q.store.zero_grads()
    tape = Tape()
    log_q = q.log_probs_orderings(g, orders, tape=tape)
    signal = rep.data - log_mult - log_q.data
    backward(tape, tensor_sum(mul(Tensor(probs * signal, tape=tape), log_q)))
    q.store.accumulate_from_tape(tape)
    exact_phi = q.store.grad_vector().copy()

    def theta_chunk(count, chunk_rng):
        model.store.zero_grads()
        return grad_theta(model, q, g, count, chunk_rng, mode="cr")

    def phi_chunk(count, chunk_rng):
        q.store.zero_grads()
        return grad_phi(model, q, g, count, chunk_rng, mode="cr")

    z_theta, gap_theta = estimator_z_scores(
        model, q, g, exact_theta, theta_chunk, 50, 2000, spawn_rng(ACCEPT_SEED, 107, 2)
    )
    z_phi, gap_phi = estimator_z_scores(
        model, q, g, exact_phi, phi_chunk, 50, 2000, spawn_rng(ACCEPT_SEED, 107, 13)
    )
    elapsed = time.perf_counter() - tick
    ok = worst_fd < 1e-4 and z_theta <= 1.0 and z_phi <= 1.0
    report(
        7,
        ok,
        f"{cases} fd cases, max rel err {worst_fd:.2e}; "
        f"max gap/3se: model {z_theta:.2f}, posterior {z_phi:.2f}; {elapsed:.0f}s",
    )
    assert worst_fd < 1e-4
    assert z_theta <= 1.0, f"model-gradient estimator off by {gap_theta:.3e}"
    assert z_phi <= 1.0, f"posterior-gradient estimator off by {gap_phi:.3e}"


# ---------------------------------------------------------------------------
# criterion 8


def elbo_margins(model, q, graphs, rng) -> tuple[float, int]:
    """Worst (mean + 3 sigma - exact) gap over the suite using 10^4
    single-sample bound estimates per graph; positive margin means the mean
    estimate sits clearly below the exact value."""
    worst = -math.inf
    violations = 0
    for g in graphs:
        samples = q.sample_orderings(g, 10000, rng)
        pis = np.array([s.pi for s in samples], dtype=np.int64)
        log_q = np.array([s.log_q for s in samples])
        rep, log_mult = joint_log_probs(model, g, pis, "cr")
        values = rep.data - log_mult - log_q
        mean_est = float(values.mean())
        sigma = float(values.std(ddof=1)) / math.sqrt(len(values))
        exact = exact_marginal_log_prob(model, g)
        # The bound is exactly tight for fully symmetric graphs (the
        # equivariant posterior is uniform there and every sample value is
        # the same constant), so leave room for float rounding between the
        # two summation orders.
        violations += mean_est - 3.0 * sigma > exact + 1e-9
        worst = max(worst, mean_est - 3.0 * sigma - exact)
    return worst, violations


def test_criterion_08_elbo_lower_bounds_exact_log_lik(report, small_trained_suite):
    graphs, trained_model, trained_q = small_trained_suite
    random_model = AdjacencyModel(AdjacencyModelConfig(max_nodes=5, hidden=8, row_embed=4, seed=84))
    random_q = OrderPosterior(PosteriorConfig(max_nodes=5, layers=1, heads=2, head_dim=4, seed=85))
    worst_random, bad_random = elbo_margins(random_model, random_q, graphs, spawn_rng(ACCEPT_SEED, 118, 0))
    worst_trained, bad_trained = elbo_margins(trained_model, trained_q, graphs, spawn_rng(ACCEPT_SEED, 118, 1))
    ok = bad_random == 0 and bad_trained == 0
    report(
        8,
        ok,
        f"worst mean+3sigma-exact: random {worst_random:.3e}, trained {worst_trained:.3e}",
    )
    assert bad_random == 0
    assert bad_trained == 0


# ---------------------------------------------------------------------------
# criterion 9


def test_criterion_09_importance_estimate_accuracy_sweep(report, mid_trained_suite):
    tick = time.perf_counter()
    graphs, model, q = mid_trained_suite
    sizes = (10, 100, 1000, 2200)
    errors = {size: [] for size in sizes}
    rng = spawn_rng(ACCEPT_SEED, 119)
    for g in graphs:
        exact = exact_marginal_log_prob(model, g, max_nodes=9)
        samples = q.sample_orderings(g, sizes[-1], rng)
        pis = np.array([s.pi for s in samples], dtype=np.int64)
        log_q = np.array([s.log_q for s in samples])
        rep, log_mult = joint_log_probs(model, g, pis, "exact")
        log_w = rep.data - log_mult - log_q
        for size in sizes:
            estimate = log_sum_exp(log_w[:size]) - math.log(size)
            errors[size].append(abs(estimate - exact))
    means = {size: float(np.mean(errors[size])) for size in sizes}
    elapsed = time.perf_counter() - tick
    monotone = all(means[a] >= means[b] for a, b in zip(sizes, sizes[1:]))
    ok = means[2200] < 0.1 and monotone and elapsed < 300.0
    trail = " ".join(f"L={size}:{means[size]:.4f}" for size in sizes)
    report(9, ok, f"mean |error| nats {trail}, {elapsed:.0f}s")
    assert means[2200] < 0.1
    assert monotone, f"suite mean error not non-increasing: {means}"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 10


def test_criterion_10_learned_ordering_beats_uniform(report, community_run):
    tick = time.perf_counter()
    test_graphs, (model_a, q_a), (model_b, q_b), (secs_a, secs_b) = community_run
    rng_a = spawn_rng(ACCEPT_SEED, 120, 0)
    rng_b = spawn_rng(ACCEPT_SEED, 120, 1)
    lik_a = float(
        np.mean([importance_estimate(model_a, q_a, g, 1000, rng_a).log_lik for g in test_graphs])
    )
    lik_b = float(
        np.mean([importance_estimate(model_b, q_b, g, 1000, rng_b).log_lik for g in test_graphs])
    )
    total = secs_a + secs_b + (time.perf_counter() - tick)
    ok = lik_a >= lik_b and total < 1800.0
    report(
        10,
        ok,
        f"mean test log-lik learned {lik_a:.3f} vs uniform {lik_b:.3f}, {total:.0f}s total",
    )
    assert lik_a >= lik_b
    assert total < 1800.0


# ---------------------------------------------------------------------------
# criterion 11


def test_criterion_11_mmd_sanity_and_separation(report):
    statistics = ("degree", "clustering", "orbit")
    fixed = list(gen_er(8, 12, 0.4, spawn_rng(ACCEPT_SEED, 121, 999)))
    self_distances = {stat: mmd(fixed, fixed, statistic=stat) for stat in statistics}
    wins = {stat: 0 for stat in statistics}
    trials = 100
    for trial in range(trials):
        rng = spawn_rng(ACCEPT_SEED, 121, trial)
        sparse_a = list(gen_er(16, 14, 0.2, rng))
        sparse_b = list(gen_er(16, 14, 0.2, rng))
        dense = list(gen_er(16, 14, 0.8, rng))
        for stat in statistics:
            separation = mmd(sparse_a, dense, statistic=stat)
            same = mmd(sparse_a, sparse_b, statistic=stat)
            wins[stat] += separation > same
    ok = all(v == 0.0 for v in self_distances.values()) and all(
        wins[stat] >= 95 for stat in statistics
    )
    trail = " ".join(f"{stat}:{wins[stat]}/{trials}" for stat in statistics)
    report(11, ok, f"self-mmd all zero, separation wins {trail}")
    for stat in statistics:
        assert self_distances[stat] == 0.0
        assert wins[stat] >= 95


# ---------------------------------------------------------------------------
# criterion 12 (reported, not gated)


def test_criterion_12_averaged_adjacency_block_structure(report, community_run, tmp_path):
    test_graphs, (model_a, q_a), _, _ = community_run
    g = test_graphs[0]
    matrix = averaged_adjacency(q_a, g, 200, spawn_rng(ACCEPT_SEED, 122))
    half = (g.n + 1) // 2
    blocks = np.zeros((g.n, g.n), dtype=bool)
    blocks[:half, :half] = True
    blocks[half:, half:] = True
    np.fill_diagonal(blocks, False)
    off_diag = ~np.eye(g.n, dtype=bool)
    in_mass = float(matrix[blocks].mean())
    cross_mass = float(matrix[off_diag & ~blocks].mean())
    path = tmp_path / "averaged_adjacency.csv"
    lines = [",".join(f"{v:.10g}" for v in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ok = in_mass > cross_mass
    report(
        12,
        ok,
        f"in-community mean {in_mass:.4f} vs cross {cross_mass:.4f}, csv at {path.name}; informational",
    )
    # Informational criterion: the verdict is reported above, only the
    # artifact itself is gated.
    assert path.exists()
    assert np.isfinite(matrix).all()
    assert matrix.shape == (g.n, g.n)
