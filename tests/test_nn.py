import numpy as np
import pytest

from graphorder.errors import NumericError
from graphorder.graphs import Graph
from graphorder.nn import (
    AttentionWork,
    attention_message_pass,
    bind_attention,
    glorot,
    gru_step,
    linear,
    neighborhood_mask,
    register_attention,
    register_gru,
    register_linear,
    residual_attention_stack,
)
from graphorder.tensor import ParameterStore, Tape, Tensor, backward, mul, tensor_sum
from oracles import central_difference, composed_gru_step, zero_store


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_glorot_bounds_and_determinism():
    rng = np.random.default_rng(0)
    w = glorot(rng, 30, 50)
    limit = np.sqrt(6.0 / 80)
    assert w.shape == (30, 50)
    assert np.abs(w).max() <= limit
    w2 = glorot(np.random.default_rng(0), 30, 50)
    assert np.array_equal(w, w2)


def test_linear_forward():
    store = ParameterStore()
    register_linear(store, "map", 3, 2, np.random.default_rng(1))
    bound = store.bind(None)
    x = np.array([[1.0, 2.0, 3.0]])
    out = linear(bound, "map", Tensor(x))
    expect = x @ store.get("map.w") + store.get("map.b")
    assert np.allclose(out.data, expect)


def test_gru_zero_parameters_halve_state():
    store = ParameterStore()
    register_gru(store, "cell", 2, 3, np.random.default_rng(2))
    zero_store(store)
    bound = store.bind(None)
    h = np.array([1.0, -2.0, 0.5])
    out = gru_step(bound, "cell", Tensor(h), Tensor(np.zeros(2)))
    assert np.allclose(out.data, 0.5 * h)


def test_gru_batched_matches_single():
    store = ParameterStore()
    register_gru(store, "cell", 2, 3, np.random.default_rng(3))
    bound = store.bind(None)
    rng = np.random.default_rng(4)
    hs = rng.normal(size=(5, 3))
    xs = rng.normal(size=(5, 2))
    batched = gru_step(bound, "cell", Tensor(hs), Tensor(xs)).data
    for i in range(5):
        single = gru_step(bound, "cell", Tensor(hs[i]), Tensor(xs[i])).data
        assert np.allclose(batched[i], single, atol=1e-12)


def random_gru(in_dim, dim, seed) -> ParameterStore:
    """A GRU with Glorot weights and random (not zero) biases."""
    store = ParameterStore()
    register_gru(store, "cell", in_dim, dim, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for name in store.names():
        if name.endswith(".b"):
            store.get(name)[:] = rng.normal(size=dim)
    return store


GRU_SHAPES = {
    "1-d": ((8,), (5,)),
    "batched": ((6, 8), (6, 5)),
    "prefix-blocks": ((4, 3, 5, 8), (4, 3, 5, 5)),
    "broadcast-state": ((8,), (6, 5)),
}


@pytest.mark.parametrize("case", list(GRU_SHAPES))
def test_gru_forward_equals_composed_ops(case):
    """The fused op repeats the composed ops' numpy expressions in their
    order, so the bits agree, taped or not; a taped step is one op node."""
    h_shape, x_shape = GRU_SHAPES[case]
    store = random_gru(5, 8, seed=30)
    rng = np.random.default_rng(31)
    h, x = rng.normal(size=h_shape), rng.normal(size=x_shape)
    expect = composed_gru_step({name: store.get(name) for name in store.names()}, "cell", h, x)
    assert np.array_equal(gru_step(store.bind(None), "cell", Tensor(h), Tensor(x)).data, expect)
    tape = Tape()
    bound = store.bind(tape)
    leaves = len(tape.nodes)
    taped = gru_step(bound, "cell", Tensor(h, tape=tape), Tensor(x, tape=tape))
    assert np.array_equal(taped.data, expect)
    assert [t.pull is None for t in tape.nodes[leaves:]] == [True, True, False]


def test_gru_gradients_match_finite_differences():
    for case in ("1-d", "batched", "broadcast-state"):
        check_gru_gradients(*GRU_SHAPES[case])


def check_gru_gradients(h_shape, x_shape):
    """The pull's gradients of h, x and all nine parameters against central
    differences."""
    store = random_gru(5, 8, seed=32)
    rng = np.random.default_rng(33)
    h0, x0 = rng.normal(size=h_shape), rng.normal(size=x_shape)
    w = rng.normal(size=np.broadcast_shapes(h_shape[:-1], x_shape[:-1]) + (8,))

    def value(h, x):
        return float(tensor_sum(mul(w, gru_step(store.bind(None), "cell", Tensor(h), Tensor(x)))).data)

    tape = Tape()
    h, x = Tensor(h0, tape=tape), Tensor(x0, tape=tape)
    backward(tape, tensor_sum(mul(w, gru_step(store.bind(tape), "cell", h, x))))
    store.accumulate_from_tape(tape)
    assert np.abs(h.grad - central_difference(lambda v: value(v, x0), h0.copy())).max() < 1e-6
    assert np.abs(x.grad - central_difference(lambda v: value(h0, v), x0.copy())).max() < 1e-6
    assert len(store.names()) == 9
    for name in store.names():
        base = store.get(name).copy()

        def f(v, name=name, base=base):
            store.get(name)[:] = v
            val = value(h0, x0)
            store.get(name)[:] = base
            return val

        assert np.abs(store.grad(name) - central_difference(f, base.copy())).max() < 1e-6, (name, h_shape)


def test_gru_refuses_a_non_finite_input_array():
    store = random_gru(2, 3, seed=34)
    x = np.array([np.nan, 0.0])
    with pytest.raises(NumericError, match="non-finite"):
        gru_step(store.bind(None), "cell", Tensor(np.zeros(3)), x)


class TestAttention:
    def make(self, n=4, dim=6, heads=2, seed=7):
        store = ParameterStore()
        register_attention(store, "att", dim, heads, dim // heads, np.random.default_rng(seed))
        return store

    def test_single_node_self_attention(self):
        store = ParameterStore()
        register_attention(store, "att", 4, 2, 2, np.random.default_rng(8))
        bound = bind_attention(store, None, ["att"], 2)
        g = Graph.from_edges(1, [])
        feats = np.random.default_rng(9).normal(size=(1, 4))
        out = attention_message_pass(bound, "att", Tensor(feats), neighborhood_mask(g))
        # with a single node the attention weight is 1: output is just the
        # concatenated per-head projections of its own feature
        expect = np.concatenate(
            [feats @ store.get("att.head0.w"), feats @ store.get("att.head1.w")], axis=-1
        )
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_permutation_equivariance(self):
        store = self.make()
        bound = bind_attention(store, None, ["att"], 2)
        rng = np.random.default_rng(10)
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
        feats = rng.normal(size=(5, 6))
        out = attention_message_pass(bound, "att", Tensor(feats), neighborhood_mask(g)).data

        perm = np.array([3, 0, 4, 1, 2])
        adj = np.zeros((5, 5), dtype=bool)
        for u, v in g.edges():
            adj[perm[u], perm[v]] = adj[perm[v], perm[u]] = True
        mask_p = adj | np.eye(5, dtype=bool)
        feats_p = np.empty_like(feats)
        feats_p[perm] = feats
        out_p = attention_message_pass(bound, "att", Tensor(feats_p), mask_p).data
        assert np.allclose(out_p[perm], out, atol=1e-12)

    def test_batched_matches_single(self):
        store = self.make()
        bound = bind_attention(store, None, ["att"], 2)
        rng = np.random.default_rng(11)
        g = cycle(4)
        mask = neighborhood_mask(g)
        feats = rng.normal(size=(3, 4, 6))
        batched = attention_message_pass(bound, "att", Tensor(feats), mask).data
        for b in range(3):
            single = attention_message_pass(bound, "att", Tensor(feats[b]), mask).data
            assert np.allclose(batched[b], single, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        """The features and every head's w, src and dst, through the
        ``stack`` ops of ``bind_attention`` and the round's one op."""
        for heads in (1, 3):
            self.check_gradients(heads)

    def check_gradients(self, heads):
        store = self.make(seed=12, heads=heads)
        g = cycle(4)
        mask = neighborhood_mask(g)
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(2, 4, 6))
        upstream = rng.normal(size=(2, 4, 6))

        def value(f):
            out = attention_message_pass(bind_attention(store, None, ["att"], heads), "att", Tensor(f), mask)
            return float(tensor_sum(mul(upstream, out)).data)

        tape = Tape()
        feats_t = Tensor(feats, tape=tape)
        out = attention_message_pass(bind_attention(store, tape, ["att"], heads), "att", feats_t, mask)
        backward(tape, tensor_sum(mul(upstream, out)))
        store.accumulate_from_tape(tape)
        assert np.abs(feats_t.grad - central_difference(value, feats.copy())).max() < 1e-6
        assert len(store.names()) == 3 * heads
        for name in store.names():
            base = store.get(name).copy()

            def f(v, name=name, base=base):
                store.get(name)[:] = v
                val = value(feats)
                store.get(name)[:] = base
                return val

            assert np.abs(store.grad(name) - central_difference(f, base.copy())).max() < 1e-6, (name, heads)

    def test_residual_stack_shape_and_equivariance(self):
        store = ParameterStore()
        rng = np.random.default_rng(14)
        for layer in range(2):
            register_attention(store, f"stack.layer{layer}", 6, 2, 3, rng)
        bound = bind_attention(store, None, ["stack.layer0", "stack.layer1"], 2)
        g = cycle(5)
        feats = np.random.default_rng(15).normal(size=(5, 6))
        out = residual_attention_stack(bound, "stack", Tensor(feats), neighborhood_mask(g), 2)
        assert out.data.shape == (5, 6)
        # rotating the cycle is an automorphism: rotated features give rotated output
        rot = np.roll(np.arange(5), 1)
        feats_r = feats[np.argsort(rot)]
        out_r = residual_attention_stack(bound, "stack", Tensor(feats_r), neighborhood_mask(g), 2).data
        assert np.allclose(out_r, out.data[np.argsort(rot)], atol=1e-12)

    @pytest.mark.parametrize("layers", [1, 3])
    def test_residual_stack_rows_equal_the_rows_of_the_full_stack(self, layers):
        """Tape-free, ``rows`` reaches the last round only and gives the
        bits of the full stack's rows, allocating or into the leading
        entries of one ``AttentionWork`` reused for smaller batches."""
        store = ParameterStore()
        rng = np.random.default_rng(18)
        rounds = [f"stack.layer{layer}" for layer in range(layers)]
        for name in rounds:
            register_attention(store, name, 6, 2, 3, rng)
        bound = bind_attention(store, None, rounds, 2)
        mask = neighborhood_mask(cycle(7))
        work = AttentionWork.allocate(9, 7, 6, 2)
        for batch in (9, 4):
            feats = rng.normal(size=(batch, 7, 6))
            full = residual_attention_stack(bound, "stack", Tensor(feats), mask, layers).data
            rows = np.sort(rng.permuted(np.tile(np.arange(7), (batch, 1)), axis=1)[:, :4], axis=1)
            expect = np.take_along_axis(full, rows[..., None], axis=-2)
            got = residual_attention_stack(bound, "stack", Tensor(feats), mask, layers, rows=rows).data
            assert np.array_equal(got, expect)
            got = residual_attention_stack(bound, "stack", Tensor(feats), mask, layers, work, rows).data
            assert np.array_equal(got, expect) and np.shares_memory(got, work.z)

    def test_taped_round_records_one_op_node(self):
        """Whatever the head count: one op node per round, and one
        ``stack`` node each for the round's w and its attention vectors."""
        g = cycle(5)
        for heads in (1, 2, 3, 6):
            store = self.make(n=5, dim=6, heads=heads, seed=17)
            tape = Tape()
            bound = bind_attention(store, tape, ["att"], heads)
            leaves = 3 * heads
            feats = Tensor(np.random.default_rng(16).normal(size=(5, 6)), tape=tape)
            attention_message_pass(bound, "att", feats, neighborhood_mask(g))
            assert [t.pull is None for t in tape.nodes[leaves:]] == [False, False, True, False]
            assert all(t.pull is None for t in tape.nodes[:leaves])
