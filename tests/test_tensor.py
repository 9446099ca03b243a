import json

import numpy as np
import pytest

from graphorder.errors import InputError, NumericError
from graphorder.models import AdjacencyModel, AdjacencyModelConfig
from graphorder.tensor import (
    ATTENTION_SLOPE,
    Checkpointable,
    ParameterStore,
    Tape,
    Tensor,
    add,
    additive_attention,
    backward,
    concat,
    log_sigmoid,
    masked_log_softmax,
    matmul,
    mean,
    mul,
    parse_checkpoint,
    reshape,
    sigmoid,
    sub,
    take,
    take_along_last,
    tanh,
    tensor_sum,
)
from oracles import central_difference, chained_additive_attention


def scalar_grad_check(build, *arrays, tol=1e-6):
    """Backward gradients of build(*tensors) vs central differences."""
    tape = Tape()
    leaves = [Tensor(a, tape=tape) for a in arrays]
    out = build(*leaves)
    backward(tape, out)
    for i in range(len(arrays)):
        def f(x, i=i):
            vals = [np.array(a, dtype=np.float64) for a in arrays]
            vals[i] = x
            return float(build(*[Tensor(v) for v in vals]).data)

        num = central_difference(f, np.array(arrays[i], dtype=np.float64))
        got = leaves[i].grad
        if got is None:
            got = np.zeros_like(num)
        denom = max(1.0, float(np.abs(num).max()))
        assert np.abs(got - num).max() / denom < tol, f"operand {i}"


class TestForwardValues:
    def test_sigmoid_midpoint(self):
        assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_masked_softmax_uniform_over_active(self):
        out = additive_attention(Tensor(np.zeros(3)), Tensor(np.zeros(3)), [True, True, False])
        assert out.data == pytest.approx(np.tile([0.5, 0.5, 0.0], (3, 1)))
        assert (out.data[:, 2] == 0.0).all()

    def test_masked_softmax_single_active(self):
        out = additive_attention(Tensor([3.0, -1.0]), Tensor([3.0, -1.0]), [False, True])
        assert out.data == pytest.approx(np.tile([0.0, 1.0], (2, 1)))

    def test_masked_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        src, dst = rng.normal(size=(2, 4, 7)) * 10
        mask = rng.random((4, 7, 7)) < 0.6
        mask[..., 0] = True
        out = additive_attention(Tensor(src), Tensor(dst), mask)
        assert np.allclose(out.data.sum(-1), 1.0, atol=1e-12)
        assert (out.data[~mask] == 0.0).all()

    def test_masked_log_softmax_matches_softmax(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 5)) * 4
        mask = np.ones((3, 5), dtype=bool)
        mask[:, 3] = False
        e = np.where(mask, np.exp(logits), 0.0)
        p = e / e.sum(-1, keepdims=True)
        lp = masked_log_softmax(Tensor(logits), mask).data
        assert np.allclose(np.exp(lp[mask]), p[mask], atol=1e-12)

    def test_empty_mask_row_rejected(self):
        with pytest.raises(NumericError):
            additive_attention(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]), [[True, True], [False, False]])
        with pytest.raises(NumericError):
            masked_log_softmax(Tensor([[1.0, 2.0], [0.0, 0.0]]), [[True, True], [False, False]])

    def test_empty_row_of_broadcast_mask_rejected(self):
        mask = np.array([[True, False, True], [False, False, False], [True, True, True]])
        with pytest.raises(NumericError):
            additive_attention(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3))), mask)
        with pytest.raises(NumericError):
            masked_log_softmax(Tensor(np.zeros((4, 3, 3))), mask)

    def test_mask_that_does_not_broadcast_rejected(self):
        with pytest.raises(NumericError):
            masked_log_softmax(Tensor(np.zeros((2, 3))), np.ones((4, 2, 3), dtype=bool))
        with pytest.raises(NumericError):
            masked_log_softmax(Tensor(np.zeros((2, 3))), np.ones((2, 2), dtype=bool))

    def test_empty_batch_with_empty_mask_row_accepted(self):
        mask = np.array([[True, False], [False, False]])
        out = additive_attention(Tensor(np.zeros((0, 2))), Tensor(np.zeros((0, 2))), mask)
        assert out.data.shape == (0, 2, 2)
        assert masked_log_softmax(Tensor(np.zeros((0, 2, 2))), mask).data.shape == (0, 2, 2)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])
        with pytest.raises(NumericError):
            Tensor([np.inf])

    def test_internal_overflow_passes_through(self):
        # op results are not checked; the tape's boundaries are
        with np.errstate(over="ignore"):
            out = mul(Tensor([1e200]), Tensor([1e200]))
        assert out.data[0] == np.inf

    def test_log_sigmoid_stable_far_negative(self):
        out = log_sigmoid(Tensor([-800.0]))
        assert out.data[0] == pytest.approx(-800.0)

    def test_matmul_shapes(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        b = np.arange(12, dtype=float).reshape(3, 4)
        assert matmul(Tensor(a), Tensor(b)).data.shape == (2, 4)
        assert matmul(Tensor(a[0]), Tensor(b)).data.shape == (4,)
        assert matmul(Tensor(a), Tensor(b[:, 0])).data.shape == (2,)
        batched = matmul(Tensor(np.ones((5, 2, 3))), Tensor(b))
        assert batched.data.shape == (5, 2, 4)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(NumericError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_shape_mismatch(self):
        with pytest.raises(NumericError):
            add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    @pytest.mark.parametrize("op", [add, sub, mul], ids=["add", "sub", "mul"])
    def test_elementwise_shape_mismatch_message(self, op):
        with pytest.raises(NumericError) as info:
            op(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))
        assert str(info.value) == f"{op.__name__} shape mismatch: (2, 3) vs (4,)"


class TestBackward:
    def test_square_gradient(self):
        tape = Tape()
        x = Tensor([3.0], tape=tape)
        y = mul(x, x)
        backward(tape, y)
        assert x.grad[0] == pytest.approx(6.0)

    def test_product_gradients(self):
        tape = Tape()
        x = Tensor([3.0], tape=tape)
        y = Tensor([4.0], tape=tape)
        z = mul(x, y)
        backward(tape, z)
        assert x.grad[0] == pytest.approx(4.0)
        assert y.grad[0] == pytest.approx(3.0)

    def test_reuse_accumulates(self):
        tape = Tape()
        x = Tensor([3.0], tape=tape)
        z = add(mul(x, x), mul(x, x))
        backward(tape, z)
        assert x.grad[0] == pytest.approx(12.0)

    def test_only_leaves_keep_gradients(self):
        tape = Tape()
        x = Tensor([3.0, -1.0], tape=tape)
        w = Tensor([0.5, 2.0], tape=tape)
        hidden = tanh(mul(x, w))
        root = tensor_sum(mul(hidden, hidden))
        backward(tape, root)
        first = (x.grad.copy(), w.grad.copy())
        assert hidden.grad is None and root.grad is None
        assert all(t.grad is None for t in tape.nodes if t.pull is not None)
        backward(tape, root)
        assert np.array_equal(x.grad, first[0]) and np.array_equal(w.grad, first[1])
        assert hidden.grad is None

    def test_shared_gradient_not_mutated(self):
        # the outer add hands one array to add(a, b) and to a; adding a's
        # second gradient into it in place would give b a gradient of 2
        tape = Tape()
        a = Tensor(np.ones(3), tape=tape)
        b = Tensor(np.ones(3), tape=tape)
        backward(tape, tensor_sum(add(add(a, b), a)))
        assert np.array_equal(a.grad, [2.0, 2.0, 2.0])
        assert np.array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_shared_gradient_through_reshape_view(self):
        tape = Tape()
        a = Tensor(np.ones((2, 3)), tape=tape)
        b = Tensor(np.ones((2, 3)), tape=tape)
        backward(tape, tensor_sum(add(reshape(add(a, b), (6,)), reshape(a, (6,)))))
        assert np.array_equal(a.grad, np.full((2, 3), 2.0))
        assert np.array_equal(b.grad, np.ones((2, 3)))

    def test_shared_gradient_through_concat_view(self):
        # b's first gradient is a slice of the concat's gradient, next to
        # the slice that add(a, b) and a share
        tape = Tape()
        a = Tensor(np.ones(2), tape=tape)
        b = Tensor(np.ones(2), tape=tape)
        backward(tape, tensor_sum(concat([add(add(a, b), a), b])))
        assert np.array_equal(a.grad, [2.0, 2.0])
        assert np.array_equal(b.grad, [2.0, 2.0])

    def test_second_backward_gives_same_leaf_gradients(self):
        tape = Tape()
        a = Tensor(np.arange(6.0).reshape(2, 3), tape=tape)
        b = Tensor(np.ones((2, 3)), tape=tape)
        shared = add(a, b)
        root = tensor_sum(
            concat([add(reshape(mul(shared, a), (6,)), reshape(b, (6,))), reshape(shared, (6,))])
        )
        backward(tape, root)
        first = (a.grad, b.grad)
        kept = (a.grad.copy(), b.grad.copy())
        backward(tape, root)
        for got, old, copy in zip((a.grad, b.grad), first, kept):
            assert np.array_equal(got, copy)
            assert np.array_equal(old, copy)

    def test_nonfinite_root_rejected(self):
        tape = Tape()
        x = Tensor([1e200], tape=tape)
        with np.errstate(over="ignore"):
            root = tensor_sum(mul(x, x))
        with pytest.raises(NumericError):
            backward(tape, root)

    def test_non_scalar_root_rejected(self):
        tape = Tape()
        x = Tensor([1.0, 2.0], tape=tape)
        with pytest.raises(InputError):
            backward(tape, x)

    def test_root_not_on_tape_rejected(self):
        tape = Tape()
        Tensor([1.0], tape=tape)
        other = Tensor([1.0])
        with pytest.raises(InputError):
            backward(tape, other)

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        a = Tensor([1.0], tape=t1)
        b = Tensor([1.0], tape=t2)
        with pytest.raises(InputError):
            add(a, b)

    def test_eager_matches_taped(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        tape = Tape()
        taped = tanh(matmul(Tensor(x, tape=tape), Tensor(w, tape=tape)))
        eager = tanh(matmul(Tensor(x), Tensor(w)))
        assert np.array_equal(taped.data, eager.data)
        assert eager.tape is None and eager.pull is None


def _out_cases():
    """(op, operand arrays, extra arguments) for each op that takes out=."""
    rng = np.random.default_rng(3)
    mask = np.eye(4, dtype=bool) | (rng.random((4, 4)) < 0.5)
    return {
        "add": (add, [rng.normal(size=(3, 4, 5)), rng.normal(size=5)], []),
        "matmul": (matmul, [rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2))], []),
        "matmul-vector": (matmul, [rng.normal(size=(3, 4, 5)), rng.normal(size=5)], []),
        "tanh": (tanh, [rng.normal(size=(3, 4))], []),
        "concat": (
            lambda *parts, **kw: concat(parts, **kw),
            [rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4, 3))],
            [],
        ),
        "additive_attention": (
            additive_attention,
            [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
            [mask],
        ),
    }


class TestOutArrays:
    @pytest.mark.parametrize("case", list(_out_cases()))
    def test_out_equals_allocating_call_and_refuses_a_tape(self, case):
        """A tape-free op writes into out= exactly what it would allocate;
        with any operand on a tape, out= raises InputError."""
        op, arrays, extra = _out_cases()[case]
        fresh = op(*[Tensor(a) for a in arrays], *extra)
        out = np.full(fresh.data.shape, np.nan)
        written = op(*[Tensor(a) for a in arrays], *extra, out=out)
        assert written.data is out and written.tape is None
        assert np.array_equal(out, fresh.data)
        for taped in range(len(arrays)):
            tape = Tape()
            operands = [Tensor(a, tape=tape if i == taped else None) for i, a in enumerate(arrays)]
            with pytest.raises(InputError, match="out="):
                op(*operands, *extra, out=np.empty(fresh.data.shape))


    def test_attention_scratch_keeps_the_weights_and_refuses_a_tape(self):
        """``scratch`` holds the leaky step's temporary: the weights keep
        their bits, and a taped operand refuses it like ``out=``."""
        _, (src, dst), (mask,) = _out_cases()["additive_attention"]
        fresh = additive_attention(src, dst, mask).data
        scratch = np.full(fresh.shape, np.nan)
        assert np.array_equal(additive_attention(src, dst, mask, scratch=scratch).data, fresh)
        with pytest.raises(InputError, match="out="):
            additive_attention(Tensor(src, tape=Tape()), dst, mask, scratch=scratch)


class TestGradientsAgainstFiniteDifferences:
    def test_add_broadcast(self):
        rng = np.random.default_rng(3)
        scalar_grad_check(
            lambda a, b: tensor_sum(mul(add(a, b), add(a, b))),
            rng.normal(size=(3, 4)),
            rng.normal(size=(4,)),
        )

    def test_sub_mul(self):
        rng = np.random.default_rng(4)
        scalar_grad_check(
            lambda a, b: tensor_sum(mul(sub(a, b), a)),
            rng.normal(size=(2, 3)),
            rng.normal(size=(2, 3)),
        )

    @pytest.mark.parametrize(
        "sa,sb",
        [
            ((2, 3), (3, 4)),
            ((3,), (3, 4)),
            ((2, 3), (3,)),
            ((3,), (3,)),
            ((5, 2, 3), (3, 4)),
            ((5, 2, 3), (5, 3, 4)),
            ((2, 4, 3, 2), (2, 5)),
        ],
    )
    def test_matmul_variants(self, sa, sb):
        rng = np.random.default_rng(hash((sa, sb)) % 2**32)
        scalar_grad_check(
            lambda a, b: tensor_sum(tanh(matmul(a, b))),
            rng.normal(size=sa),
            rng.normal(size=sb),
        )

    @pytest.mark.parametrize("op", [sigmoid, tanh, log_sigmoid])
    def test_smooth_unary(self, op):
        rng = np.random.default_rng(5)
        scalar_grad_check(lambda x: tensor_sum(op(x)), rng.normal(size=(3, 3)))

    def test_sum_axis(self):
        rng = np.random.default_rng(8)
        scalar_grad_check(
            lambda x: tensor_sum(tanh(tensor_sum(x, axis=0))), rng.normal(size=(3, 4))
        )
        scalar_grad_check(
            lambda x: tensor_sum(tanh(tensor_sum(x, axis=1))),
            rng.normal(size=(3, 4)),
        )

    def test_mean(self):
        rng = np.random.default_rng(9)
        scalar_grad_check(lambda x: tensor_sum(tanh(mean(x, axis=1))), rng.normal(size=(2, 5)))

    def test_reshape(self):
        rng = np.random.default_rng(10)
        scalar_grad_check(
            lambda x: tensor_sum(tanh(reshape(x, (6,)))), rng.normal(size=(2, 3))
        )

    def test_concat(self):
        rng = np.random.default_rng(11)
        scalar_grad_check(
            lambda a, b: tensor_sum(tanh(concat([a, b]))),
            rng.normal(size=(2, 3)),
            rng.normal(size=(2, 2)),
        )

    def test_take_along_last(self):
        rng = np.random.default_rng(13)
        idx = np.array([[0, 2], [1, 1]])
        scalar_grad_check(
            lambda x: tensor_sum(tanh(take_along_last(x, idx))), rng.normal(size=(2, 2, 3))
        )

    @pytest.mark.parametrize(
        "shape,indices,axis",
        [
            ((3, 4, 2), np.array([[2, 0], [2, 2]]), 1),
            ((3, 4, 2), 1, 1),
            ((5, 3), np.array([4, 4, 0, 4]), 0),
            ((2, 6), np.array([5, 1, 5]), -1),
        ],
        ids=["repeated-2d-index", "scalar-index", "repeated-axis-0", "negative-axis"],
    )
    def test_take(self, shape, indices, axis):
        """Slices taken more than once get the sum of their gradients."""
        rng = np.random.default_rng(16)
        x = rng.normal(size=shape)
        w = rng.normal(size=np.take(x, indices, axis=axis).shape)
        assert np.array_equal(take(x, indices, axis).data, np.take(x, indices, axis=axis))
        scalar_grad_check(lambda t: tensor_sum(mul(w, tanh(take(t, indices, axis)))), x)

    def test_take_refuses_an_index_out_of_range(self):
        with pytest.raises(InputError, match="take"):
            take(np.zeros((2, 3)), np.array([0, 3]), 1)

    def test_additive_attention(self):
        rng = np.random.default_rng(14)
        mask = np.array(
            [[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 0, 1]], dtype=bool
        )
        w = rng.normal(size=(2, 4, 4))
        src, dst = rng.normal(size=(2, 2, 4))
        # keep every score clear of the leaky step's kink
        assert np.abs(src[..., :, None] + dst[..., None, :]).min() > 0.01
        scalar_grad_check(
            lambda s, d: tensor_sum(mul(additive_attention(s, d, mask), w)), src, dst
        )

    def test_masked_log_softmax(self):
        rng = np.random.default_rng(15)
        mask = np.array([[True, True, False, True]])
        w = rng.normal(size=(1, 4)) * mask
        scalar_grad_check(
            lambda x: tensor_sum(mul(masked_log_softmax(x, mask), w)),
            rng.normal(size=(1, 4)),
        )


def attention_masks(n: int, rng) -> dict[str, np.ndarray]:
    """An (n, n) neighbourhood mask with self loops whose node 0 is isolated
    (its row is self only), and a mask of full rows."""
    adj = rng.random((n, n)) < 0.5
    adj = adj | adj.T
    adj[0, :] = adj[:, 0] = False
    return {"isolated": adj | np.eye(n, dtype=bool), "full": np.ones((n, n), dtype=bool)}


# The fused op shifts each row by a bound and the chain by the row's masked
# maximum, so exp's arguments round differently (by about gap * eps / 2 each,
# see ``tensor.ATTENTION_ROW_FLOOR``).  Weights, which are at most 1, agree
# within this many ulps of 1, and gradients within it times the largest
# upstream gradient.
CHAIN_TOL = 4 * np.finfo(np.float64).eps


def assert_matches_chain(src, dst, mask, g, label) -> np.ndarray:
    """The fused op's weights and gradients against the chain, within
    ``CHAIN_TOL``; excluded weights are exactly 0 and taped and tape-free
    weights are equal.  Returns the weights."""
    expect, expect_src, expect_dst = chained_additive_attention(src, dst, mask, ATTENTION_SLOPE, g)
    tape = Tape()
    s, d = Tensor(src, tape=tape), Tensor(dst, tape=tape)
    out = additive_attention(s, d, mask)
    backward(tape, tensor_sum(mul(out, g)))
    grad_tol = CHAIN_TOL * np.abs(g).max()
    assert np.abs(out.data - expect).max() <= CHAIN_TOL, label
    assert np.abs(s.grad - expect_src).max() <= grad_tol, label
    assert np.abs(d.grad - expect_dst).max() <= grad_tol, label
    assert np.array_equal(additive_attention(src, dst, mask).data, out.data), label
    assert (out.data[..., ~mask] == 0.0).all(), label
    return out.data


class TestAdditiveAttentionMatchesChain:
    """The fused op against the add / leaky ReLU / masked softmax chain it
    replaced."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("lead", ["single", "batch", "rows"])
    def test_values_and_gradients_equal_chain(self, n, lead):
        rng = np.random.default_rng(1000 + n)
        shape = {"single": (n,), "batch": (3, n), "rows": (3 * n, n)}[lead]
        for label, mask in attention_masks(n, rng).items():
            src, dst = rng.normal(size=(2,) + shape) * 2.0
            g = rng.normal(size=shape + (n,))
            out = assert_matches_chain(src, dst, mask, g, label)
            if label == "isolated":
                assert (out[..., 0, 0] == 1.0).all()

    @pytest.mark.parametrize("self_loops", [True, False], ids=["with-self", "without-self"])
    def test_dst_spread_beyond_exp_range(self, self_loops):
        """Node 0's dst sits 1e3 above the others' and node 1's 1e3 below, so
        a row that does not reach node 0 has a bound hundreds of nats above
        every score it keeps: shifted by the bound, all its exps underflow
        to 0.  Those rows take the exact path and stay finite."""
        n = 8
        rng = np.random.default_rng(77)
        ring = np.roll(np.eye(n, dtype=bool), 1, axis=1)
        mask = ring | ring.T | (rng.random((n, n)) < 0.2)
        mask = mask | mask.T
        np.fill_diagonal(mask, self_loops)
        src, dst = rng.normal(size=(2, 3, n))
        dst[:, 0] += 1e3
        dst[:, 1] -= 1e3
        scores = src[..., :, None] + dst[..., None, :]
        scores = np.maximum(scores, ATTENTION_SLOPE * scores)
        # the leaky step is monotone, so a row's largest score is its bound
        gap = scores.max(axis=-1) - np.where(mask, scores, -np.inf).max(axis=-1)
        assert (gap > 800).any() and (gap == 0).any()
        out = assert_matches_chain(src, dst, mask, rng.normal(size=(3, n, n)), "spread")
        assert np.isfinite(out).all()
        assert np.allclose(out.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)

    def test_rejects_mismatched_operands_and_slope(self):
        with pytest.raises(NumericError):
            additive_attention(np.zeros(3), np.zeros(4), np.ones((3, 3), dtype=bool))
        with pytest.raises(NumericError):
            additive_attention(np.zeros(3), np.zeros(3), np.ones((4, 4), dtype=bool))
        # the leaky step max(x, slope * x) is exact only for 0 < slope < 1
        assert 0.0 < ATTENTION_SLOPE < 1.0


class TestParameterStore:
    def test_register_and_fetch(self):
        store = ParameterStore()
        arr = store.add("w", np.ones((2, 2)))
        assert store.get("w") is arr
        assert store.names() == ["w"]
        assert store.parameter_count() == 4

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", [1.0])
        with pytest.raises(InputError):
            store.add("w", [2.0])

    def test_unknown_name_rejected(self):
        store = ParameterStore()
        with pytest.raises(InputError):
            store.get("nope")

    def test_bind_and_accumulate(self):
        store = ParameterStore()
        store.add("w", [2.0, 3.0])
        tape = Tape()
        bound = store.bind(tape)
        out = tensor_sum(mul(bound["w"], bound["w"]))
        backward(tape, out)
        store.accumulate_from_tape(tape)
        assert store.grad("w") == pytest.approx([4.0, 6.0])

    def test_adam_first_step_magnitude(self):
        store = ParameterStore()
        store.add("w", [1.0, -1.0])
        store.grad("w")[:] += [0.5, -2.0]
        store.adam_step(lr=0.01)
        # bias-corrected first step is lr * sign(grad) up to eps effects
        assert store.get("w") == pytest.approx([1.0 - 0.01, -1.0 + 0.01], abs=1e-6)
        assert store.grad("w") == pytest.approx([0.0, 0.0])

    def test_adam_leaves_zero_grad_entries(self):
        store = ParameterStore()
        store.add("w", [1.0, 2.0])
        store.grad("w")[:] += [1.0, 0.0]
        store.adam_step(lr=0.1)
        assert store.get("w")[1] == 2.0
        assert store.get("w")[0] != 1.0

    def test_adam_constant_gradient_direction(self):
        store = ParameterStore()
        store.add("w", [0.0])
        for _ in range(25):
            store.grad("w")[:] += [3.0]
            store.adam_step(lr=0.05)
        assert store.get("w")[0] < -1.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_adam_moment_overflow_rejected(self):
        # a finite gradient of 1e200 squares to inf in the second moment,
        # which would zero that entry's step for good
        store = ParameterStore()
        store.add("w", [1.0, 2.0])
        store.grad("w")[:] = [1e200, 0.0]
        with pytest.raises(NumericError, match="second moment of 'w'"):
            store.adam_step(lr=0.01)
        assert np.array_equal(store.get("w"), [1.0, 2.0])

    def test_adam_nonfinite_gradient_rejected(self):
        store = ParameterStore()
        store.add("w", [1.0, 2.0])
        store.grad("w")[:] = [np.nan, 1.0]
        with pytest.raises(NumericError, match="gradient of 'w'"):
            store.adam_step(lr=0.01)
        assert np.array_equal(store.get("w"), [1.0, 2.0])

    def test_zero_grads(self):
        store = ParameterStore()
        store.add("w", [1.0])
        store.grad("w")[:] += [5.0]
        store.zero_grads()
        assert store.grad("w")[0] == 0.0


def small_model() -> AdjacencyModel:
    model = AdjacencyModel(AdjacencyModelConfig(max_nodes=4, hidden=3, row_embed=2, seed=7))
    model.store.get("edges.w")[:] = np.arange(9, dtype=float).reshape(3, 3)
    return model


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        model = small_model()
        path = tmp_path / "ckpt.json"
        model.save(path, {"epoch": 3})
        again = Checkpointable.load(path)
        assert type(again) is AdjacencyModel and again.cfg == model.cfg
        for name in model.store.names():
            assert np.array_equal(again.store.get(name), model.store.get(name))
        metadata = json.loads(path.read_text(encoding="utf-8"))["metadata"]
        assert metadata["seed"] == 7 and metadata["epoch"] == 3
        assert metadata["config"]["hidden"] == 3

    def test_document_shape_fields(self):
        doc = small_model().checkpoint()
        assert doc["modelKind"] == "adjacency"
        assert doc["parameters"]["edges.w"]["shape"] == [3, 3]
        assert doc["parameters"]["edges.w"]["values"] == list(range(9))

    def test_malformed_document_rejected(self):
        with pytest.raises(InputError):
            parse_checkpoint({"parameters": {}})
        with pytest.raises(InputError):
            parse_checkpoint({"modelKind": "x", "parameters": {"w": {"shape": [2]}}})
        with pytest.raises(InputError):
            parse_checkpoint(
                {"modelKind": "x", "parameters": {"w": {"shape": [2], "values": [1.0]}}}
            )
        with pytest.raises(InputError):
            parse_checkpoint({"modelKind": "x", "parameters": [1.0, 2.0]})
        with pytest.raises(InputError):
            parse_checkpoint({"modelKind": "x", "parameters": {}, "metadata": "config"})

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InputError):
            Checkpointable.load(path)
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(InputError):
            Checkpointable.load(path)

    def test_config_and_parameters_checked(self):
        doc = small_model().checkpoint()
        for config in (None, {"hidden": 3, "width": 2}, {"max_nodes": 4.5}):
            bad = dict(doc, metadata={"config": config})
            with pytest.raises(InputError):
                Checkpointable.from_checkpoint(bad)
        missing = dict(doc, parameters={k: v for k, v in doc["parameters"].items() if k != "stop.b"})
        with pytest.raises(InputError, match="missing \\['stop.b'\\]"):
            Checkpointable.from_checkpoint(missing)
        entry = {"shape": [2], "values": [0.0, 0.0]}
        reshaped = dict(doc, parameters=dict(doc["parameters"], **{"stop.b": entry}))
        with pytest.raises(InputError, match="shape"):
            Checkpointable.from_checkpoint(reshaped)

    def test_nonfinite_checkpoint_rejected(self):
        with pytest.raises(NumericError):
            parse_checkpoint(
                {
                    "modelKind": "x",
                    "parameters": {"w": {"shape": [1], "values": [float("nan")]}},
                }
            )
