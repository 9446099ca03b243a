import inspect
import json
import math
import re

import numpy as np
import pytest

from graphorder import tensor
from graphorder.errors import InputError, NumericError
from graphorder.models import AdjacencyModel, AdjacencyModelConfig
from graphorder.tensor import (
    ATTENTION_ROW_FLOOR,
    ATTENTION_SLOPE,
    Checkpointable,
    ParameterStore,
    Tape,
    Tensor,
    add,
    backward,
    concat,
    gru,
    log_sigmoid,
    masked_log_softmax,
    matmul,
    mean,
    mul,
    multi_head_attention,
    parse_checkpoint,
    reshape,
    stack,
    take,
    tanh,
    tensor_sum,
)
from oracles import central_difference, chained_additive_attention, loop_adam_step, per_head_attention


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


def identity_attention(src, dst, mask, tape=None) -> tuple[Tensor, Tensor]:
    """``multi_head_attention`` with one head per row of src and dst
    (heads, n), x and every w_k the identity: then z_k = I, head k scores
    pair (i, j) as exactly src[k, i] + dst[k, j], and its block of the
    result is exactly its weights.  Returns the leaf of the attention
    vectors and the result (n, heads * n); see ``head_view``."""
    src, dst = np.atleast_2d(src), np.atleast_2d(dst)
    heads, n = src.shape
    a = Tensor(np.concatenate([src, dst]), tape=tape)
    eye = np.eye(n)
    return a, multi_head_attention(eye, np.broadcast_to(eye, (heads, n, n)), a, mask)


def head_view(joined: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, heads * hd) → (heads, ..., n, hd): each head's block of a
    joined result, as a view."""
    return np.moveaxis(joined.reshape(joined.shape[:-1] + (heads, -1)), -2, 0)


def joined_view(blocks: np.ndarray) -> np.ndarray:
    """The inverse of ``head_view``."""
    return np.moveaxis(blocks, 0, -2).reshape(blocks.shape[1:-1] + (-1,))


def random_round(shape, heads, head_dim, rng, scale=1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features of ``shape`` (..., n, d), projections (heads, d, head_dim)
    and attention vectors (2 * heads, head_dim)."""
    d = shape[-1]
    return (
        rng.normal(size=shape),
        rng.normal(size=(heads, d, head_dim)),
        rng.normal(size=(2 * heads, head_dim)) * scale,
    )


class TestForwardValues:
    def test_sigmoid_midpoint(self):
        # with every weight and bias 0 both gates are sigmoid(0) = 1/2 and
        # the candidate tanh(0) = 0, so a GRU step halves the state
        zero = [[np.zeros((2, 3)), np.zeros((3, 3)), np.zeros(3)]] * 3
        h = np.array([1.0, -2.0, 4.0])
        assert np.array_equal(gru(h, np.ones(2), zero).data, 0.5 * h)

    def test_masked_softmax_uniform_over_active(self):
        _, out = identity_attention(np.zeros(3), np.zeros(3), [True, True, False])
        weights = head_view(out.data, 1)[0]
        assert weights == pytest.approx(np.tile([0.5, 0.5, 0.0], (3, 1)))
        assert (weights[:, 2] == 0.0).all()

    def test_masked_softmax_single_active(self):
        _, out = identity_attention([3.0, -1.0], [3.0, -1.0], [False, True])
        assert head_view(out.data, 1)[0] == pytest.approx(np.tile([0.0, 1.0], (2, 1)))

    def test_masked_softmax_sums_to_one(self):
        """Every head's weights over a batch of masks, read from the
        ``weights=`` array."""
        rng = np.random.default_rng(0)
        x, w, a = random_round((4, 7, 6), 3, 2, rng, scale=10.0)
        mask = rng.random((4, 7, 7)) < 0.6
        mask[..., 0] = True
        weights = np.full((3, 4, 7, 7), np.nan)
        multi_head_attention(x, w, a, mask, weights=weights)
        assert np.allclose(weights.sum(-1), 1.0, atol=1e-12)
        assert (weights[:, ~mask] == 0.0).all()

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
        with pytest.raises(NumericError, match="empty support"):
            identity_attention([1.0, 2.0], [0.0, 0.0], [[True, True], [False, False]])
        with pytest.raises(NumericError):
            masked_log_softmax(Tensor([[1.0, 2.0], [0.0, 0.0]]), [[True, True], [False, False]])

    def test_empty_row_of_broadcast_mask_rejected(self):
        mask = np.array([[True, False, True], [False, False, False], [True, True, True]])
        with pytest.raises(NumericError, match="empty support"):
            multi_head_attention(np.zeros((4, 3, 2)), np.ones((2, 2, 1)), np.ones((4, 1)), mask)
        with pytest.raises(NumericError):
            masked_log_softmax(Tensor(np.zeros((4, 3, 3))), mask)

    def test_mask_that_does_not_broadcast_rejected(self):
        with pytest.raises(NumericError):
            masked_log_softmax(Tensor(np.zeros((2, 3))), np.ones((4, 2, 3), dtype=bool))
        with pytest.raises(NumericError):
            masked_log_softmax(Tensor(np.zeros((2, 3))), np.ones((2, 2), dtype=bool))

    def test_empty_batch_with_empty_mask_row_accepted(self):
        mask = np.array([[True, False], [False, False]])
        out = multi_head_attention(np.zeros((0, 2, 2)), np.ones((2, 2, 1)), np.ones((4, 1)), mask)
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

    @pytest.mark.parametrize("op", [add, mul], ids=["add", "mul"])
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
        "tanh": (tanh, [rng.normal(size=(3, 4))], []),
        "take": (take, [rng.normal(size=(3, 4, 5))], [np.array([[2, 0], [1, 1]]), 1]),
        "multi_head_attention": (multi_head_attention, list(random_round((3, 4, 6), 2, 3, rng)), [mask]),
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
        """The stage arrays ``z``, ``pairs``, ``weights`` and ``scratch``
        (the leaky step's temporary), alone or together, leave the result's
        bits as they are and hold the stages; each refuses a taped operand
        like ``out=``."""
        _, (x, w, a), (mask,) = _out_cases()["multi_head_attention"]
        fresh = multi_head_attention(x, w, a, mask).data
        shapes = {"z": (2, 3, 4, 3), "pairs": (3, 2 * 3 * 4 + 5), "weights": (2, 3, 4, 4), "scratch": (2, 3, 4, 4)}
        stages = {name: np.full(shape, np.nan) for name, shape in shapes.items()}
        for name, arr in stages.items():
            assert np.array_equal(multi_head_attention(x, w, a, mask, **{name: arr}).data, fresh), name
        assert np.array_equal(multi_head_attention(x, w, a, mask, **stages).data, fresh)
        z = np.matmul(x, w[:, None])
        assert np.array_equal(stages["z"], z)
        scores = np.matmul(z, a.reshape(2, 2, 1, 3, 1)).reshape(2, -1)
        pairs = stages["pairs"][:, : scores.shape[1]]
        assert np.array_equal(pairs[0::2], scores) and (pairs[1] == 1.0).all()
        assert np.array_equal(np.matmul(stages["weights"], z), head_view(fresh, 2))
        for name, arr in stages.items():
            for taped in range(3):
                operands = [Tensor(v, tape=Tape() if i == taped else None) for i, v in enumerate((x, w, a))]
                with pytest.raises(InputError, match="out="):
                    multi_head_attention(*operands, mask, **{name: arr})

    def test_attention_refuses_pairs_it_cannot_write_through(self):
        _, (x, w, a), (mask,) = _out_cases()["multi_head_attention"]
        for bad in (np.empty((3, 23)), np.empty((4, 24)), np.empty((3, 48))[:, ::2], np.empty((3, 24), dtype=np.float32)):
            with pytest.raises(InputError, match="pairs="):
                multi_head_attention(x, w, a, mask, pairs=bad)


def test_docstring_names_exactly_the_ops_that_take_out():
    """The module docstring's list of ops that take ``out=`` is the set of
    public functions whose signature has an ``out`` parameter."""
    doc = " ".join(tensor.__doc__.split())
    listed = doc.split("On that path, and only there, ")[1].split(" take ``out=``")[0]
    named = set(re.findall(r"``(\w+)``", listed))
    with_out = {
        name
        for name, f in vars(tensor).items()
        if inspect.isfunction(f) and not name.startswith("_") and "out" in inspect.signature(f).parameters
    }
    assert named == with_out and named


class TestGradientsAgainstFiniteDifferences:
    def test_add_broadcast(self):
        rng = np.random.default_rng(3)
        scalar_grad_check(
            lambda a, b: tensor_sum(mul(add(a, b), add(a, b))),
            rng.normal(size=(3, 4)),
            rng.normal(size=(4,)),
        )

    def test_sub_mul(self):
        # a - b as a + (-1.0) b, with a wrapped Python constant
        rng = np.random.default_rng(4)
        scalar_grad_check(
            lambda a, b: tensor_sum(mul(add(a, mul(b, -1.0)), a)),
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

    @pytest.mark.parametrize("op", [tanh, log_sigmoid])
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

    def test_multi_head_attention(self):
        rng = np.random.default_rng(14)
        mask = np.array(
            [[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 0, 1]], dtype=bool
        )
        x, w, a = random_round((2, 4, 5), 2, 3, rng)
        g = rng.normal(size=(2, 4, 6))
        # keep every score clear of the leaky step's kink
        scores = np.matmul(np.matmul(x, w[:, None]), a.reshape(2, 2, 1, 3, 1))[..., 0]
        assert np.abs(scores[0][..., :, None] + scores[1][..., None, :]).min() > 0.01
        scalar_grad_check(lambda *ops: tensor_sum(mul(multi_head_attention(*ops, mask), g)), x, w, a)

    def test_stack(self):
        rng = np.random.default_rng(17)
        parts = [rng.normal(size=(2, 3)) for _ in range(3)]
        g = rng.normal(size=(3, 2, 3))
        assert np.array_equal(stack(parts).data, np.stack(parts))
        scalar_grad_check(lambda *ts: tensor_sum(mul(g, tanh(stack(ts)))), *parts)

    def test_stack_refuses_mismatched_or_no_tensors(self):
        with pytest.raises(NumericError, match="stack shape mismatch"):
            stack([np.zeros(2), np.zeros(3)])
        with pytest.raises(InputError, match="at least one"):
            stack([])

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
    """The fused op's weights and the gradients of its src and dst vectors
    (one head per row of src and dst, see ``identity_attention``) against
    the chain, within ``CHAIN_TOL``; excluded weights are exactly 0 and
    taped and tape-free weights are equal.  Returns the weights."""
    expect, expect_src, expect_dst = chained_additive_attention(src, dst, mask, ATTENTION_SLOPE, g)
    heads = len(src)
    tape = Tape()
    a, out = identity_attention(src, dst, mask, tape)
    backward(tape, tensor_sum(mul(out, joined_view(g))))
    weights = head_view(out.data, heads)
    grad_tol = CHAIN_TOL * np.abs(g).max()
    assert np.abs(weights - expect).max() <= CHAIN_TOL, label
    assert np.abs(a.grad[:heads] - expect_src).max() <= grad_tol, label
    assert np.abs(a.grad[heads:] - expect_dst).max() <= grad_tol, label
    assert np.array_equal(identity_attention(src, dst, mask)[1].data, out.data), label
    assert (weights[..., ~mask] == 0.0).all(), label
    return weights


class TestAdditiveAttentionMatchesChain:
    """The weights of ``multi_head_attention`` against the add / leaky ReLU
    / masked softmax chain that they replaced."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("lead", ["single", "batch", "rows"])
    def test_values_and_gradients_equal_chain(self, n, lead):
        """One head, three heads and 3 n heads."""
        rng = np.random.default_rng(1000 + n)
        shape = {"single": (1, n), "batch": (3, n), "rows": (3 * n, n)}[lead]
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
        x, w, a = random_round((3, 4), 2, 2, np.random.default_rng(18))
        mask = np.ones((3, 3), dtype=bool)
        for bad in ((x[:, :3], w, a), (x, w[:, :, :1], a), (x, w, a[:3]), (x[0], w, a)):
            with pytest.raises(NumericError, match="shape mismatch"):
                multi_head_attention(*bad, mask)
        with pytest.raises(NumericError, match="broadcast"):
            multi_head_attention(x, w, a, np.ones((4, 4), dtype=bool))
        # the leaky step max(x, slope * x) is exact only for 0 < slope < 1
        assert 0.0 < ATTENTION_SLOPE < 1.0


ROUND_SHAPES = {
    # (features, mask); a mask of None is one (n, n) mask
    "2-d": ((5, 12), None),
    "batched": ((4, 5, 12), None),
    "batched-masks": ((4, 5, 12), (4, 5, 5)),
    "broadcast": ((3, 4, 5, 12), (4, 5, 5)),
}


def round_mask(shape, rng) -> np.ndarray:
    """Random neighbourhood masks of ``shape`` (..., n, n), self included."""
    adj = rng.random(shape) < 0.4
    return adj | np.swapaxes(adj, -1, -2) | np.eye(shape[-1], dtype=bool)


def round_work(lead, n: int, q: int, heads: int, hd: int) -> list[dict[str, np.ndarray]]:
    """Work arrays for a round of q query rows, NaN-filled: views of the
    first rows of larger arrays (rows of the last leading axis on axis -3,
    3 spare), and, as ``nn.AttentionWork`` passes them, C-contiguous views
    of the leading entries of larger flat arrays."""
    count = heads * math.prod(lead) * n
    shapes = {
        "out": lead + (q, 12),
        "z": (heads,) + lead + (n, hd),
        "weights": (heads,) + lead + (q, n),
        "scratch": (heads,) + lead + (q, n),
    }
    works = []
    if lead:
        spare = lead[:-1] + (lead[-1] + 3,)
        cut = np.s_[..., : lead[-1], :, :]
        work = {name: np.full(s[: -len(lead) - 2] + spare + s[-2:], np.nan)[cut] for name, s in shapes.items()}
        works.append(dict(work, pairs=np.full((3, count + 3 * n * heads), np.nan)))
    flat = {name: np.full(math.prod(s) + 7, np.nan)[: math.prod(s)].reshape(s) for name, s in shapes.items()}
    works.append(dict(flat, pairs=np.full((3, count + 5), np.nan)[:, :count]))
    return works


class TestMultiHeadAttention:
    """All heads of a round in one op, against the per-head chain it
    replaced (``oracles.per_head_attention``)."""

    @pytest.mark.parametrize("heads", [1, 2, 3, 6])
    @pytest.mark.parametrize("case", list(ROUND_SHAPES))
    def test_forward_equals_per_head_chain(self, case, heads):
        """Bit for bit: taped, tape-free, and into work arrays (see
        ``round_work``)."""
        shape, mask_shape = ROUND_SHAPES[case]
        rng = np.random.default_rng(40 + heads)
        x, w, a = random_round(shape, heads, 12 // heads, rng)
        lead, n, hd = shape[:-2], shape[-2], 12 // heads
        mask = round_mask(mask_shape or (n, n), rng)
        expect = per_head_attention(x, w, a, mask, ATTENTION_SLOPE, ATTENTION_ROW_FLOOR)
        assert np.array_equal(multi_head_attention(x, w, a, mask).data, expect)
        tape = Tape()
        operands = [Tensor(v, tape=tape) for v in (x, w, a)]
        assert np.array_equal(multi_head_attention(*operands, mask).data, expect)
        assert sum(t.pull is not None for t in tape.nodes) == 1
        for work in round_work(lead, n, n, heads, hd):
            got = multi_head_attention(x, w, a, mask, **work)
            assert got.data is work["out"]
            assert np.array_equal(got.data, expect)

    @pytest.mark.parametrize("heads", [1, 2, 6])
    @pytest.mark.parametrize("case", list(ROUND_SHAPES))
    def test_rows_equal_the_rows_of_the_full_round(self, case, heads):
        """``rows=`` gives, bit for bit, the rows of the full result that
        it names (each batch row its own nodes, in any order, repeats
        allowed), allocating or into work arrays."""
        shape, mask_shape = ROUND_SHAPES[case]
        rng = np.random.default_rng(60 + heads)
        x, w, a = random_round(shape, heads, 12 // heads, rng)
        lead, n, hd = shape[:-2], shape[-2], 12 // heads
        mask = round_mask(mask_shape or (n, n), rng)
        full = multi_head_attention(x, w, a, mask).data
        for q in (2, 3, n):
            rows = rng.integers(0, n, size=lead + (q,))
            expect = np.take_along_axis(full, rows[..., None], axis=-2)
            assert np.array_equal(multi_head_attention(x, w, a, mask, rows=rows).data, expect), q
            for work in round_work(lead, n, q, heads, hd):
                got = multi_head_attention(x, w, a, mask, rows=rows, **work)
                assert got.data is work["out"]
                assert np.array_equal(got.data, expect), q

    def test_rows_in_a_short_tail_keep_their_bits(self):
        """One head and one batch row make the row sums a mat-vec over q
        rows; with q = 2, 3, 5, 6 or 7 some rows sit in a tail of fewer than
        four, which BLAS can round otherwise (``tensor._row_sums``)."""
        for seed in range(10):
            rng = np.random.default_rng(80 + seed)
            for n in (8, 12, 16):
                x, w, a = random_round((1, n, 4), 1, 4, rng)
                mask = round_mask((n, n), rng)
                full = multi_head_attention(x, w, a, mask).data
                for q in (2, 3, 5, 6, 7):
                    rows = rng.choice(n, size=(1, q), replace=False)
                    expect = np.take_along_axis(full, rows[..., None], axis=-2)
                    assert np.array_equal(multi_head_attention(x, w, a, mask, rows=rows).data, expect)

    def test_rows_refused_on_a_tape_and_checked(self):
        x, w, a = random_round((3, 4, 6), 2, 3, np.random.default_rng(61))
        mask = np.ones((4, 4), dtype=bool)
        rows = np.array([[0, 1], [2, 3], [3, 0]])
        for taped in range(3):
            operands = [Tensor(v, tape=Tape() if i == taped else None) for i, v in enumerate((x, w, a))]
            with pytest.raises(InputError, match="rows="):
                multi_head_attention(*operands, mask, rows=rows)
        # too few batch rows, no query, no batch axis, a node past n, below 0
        for bad in (rows[:2], rows[:, :0], rows[0], np.array([[0, 4], [0, 1], [0, 1]]), -rows):
            with pytest.raises(InputError, match="rows"):
                multi_head_attention(x, w, a, mask, rows=bad)

    def test_rows_with_an_empty_mask_row(self):
        """A query row without support raises ``NumericError``; an empty
        row that no query names is never computed."""
        mask = np.array([[True, True, False], [False, False, False], [True, True, True]])
        x, w, a = np.zeros((2, 3, 2)), np.ones((2, 2, 1)), np.ones((4, 1))
        with pytest.raises(NumericError, match="empty support"):
            multi_head_attention(x, w, a, mask, rows=np.array([[0, 2], [1, 2]]))
        out = multi_head_attention(x, w, a, mask, rows=np.array([[0, 2], [2, 0]])).data
        assert out.shape == (2, 2, 2) and np.isfinite(out).all()

    def test_row_below_the_floor_takes_the_exact_path(self):
        """Row 1 does not reach node 0, whose dst sits 1e3 above the rest:
        every exp of the row underflows below ``ATTENTION_ROW_FLOOR`` when
        shifted by the bound, and the exact path gives its true weights."""
        mask = np.array([[True, True, True], [False, True, True], [True, True, True]])
        _, out = identity_attention([0.0, 0.0, 0.0], [1e3, 0.0, 0.0], mask)
        weights = head_view(out.data, 1)[0]
        assert np.array_equal(weights[1], [0.0, 0.5, 0.5])
        assert np.array_equal(weights[0], [1.0, 0.0, 0.0])


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


# registered out of name order, with (1,)-shaped entries among them
ADAM_SHAPES = {"z.w": (3, 4), "b": (1,), "a.w": (2, 3, 2), "m.b": (5,), "c": (1,), "k.w": (4, 1)}


def mixed_store(seed: int) -> ParameterStore:
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    for name, shape in ADAM_SHAPES.items():
        store.add(name, rng.normal(size=shape))
    return store


class TestFlatAdam:
    """Parameters, gradients and moments live in one flat array per store;
    the step must match the per-parameter loop it replaced bit for bit."""

    def test_thirty_steps_equal_the_per_parameter_loop(self):
        store = mixed_store(1)
        names = list(ADAM_SHAPES)
        params = {name: store.get(name).copy() for name in names}
        grads = {name: np.zeros(shape) for name, shape in ADAM_SHAPES.items()}
        m = {name: np.zeros(shape) for name, shape in ADAM_SHAPES.items()}
        v = {name: np.zeros(shape) for name, shape in ADAM_SHAPES.items()}
        views = {name: (store.get(name), store.grad(name)) for name in names}
        rng = np.random.default_rng(2)
        for step in range(1, 31):
            for name, shape in ADAM_SHAPES.items():
                # sparse and of mixed sign and scale; some steps leave a
                # whole parameter without gradient
                g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                g *= rng.random(shape) < (0.0 if rng.random() < 0.2 else 0.6)
                grads[name][:] = g
                store.grad(name)[:] += g
            store.adam_step(lr=0.05)
            loop_adam_step(params, grads, m, v, step, lr=0.05)
            assert store.step_count == step
            moments = store._data[2:, : store.parameter_count()]
            for name in names:
                assert np.array_equal(store.get(name), params[name]), name
                assert not store.grad(name).any()
            assert np.array_equal(moments[0], np.concatenate([m[name].ravel() for name in names]))
            assert np.array_equal(moments[1], np.concatenate([v[name].ravel() for name in names]))
        # views taken before the first step still read and write the store
        for name in names:
            param, grad = views[name]
            assert param is store.get(name) and grad is store.grad(name)
            assert np.array_equal(param, params[name])
        views["b"][0][:] = 7.0
        assert store.get("b")[0] == 7.0

    def test_grad_vector_is_a_copy_in_name_order(self):
        store = mixed_store(3)
        for name in store.names():
            store.grad(name)[:] = store.get(name)
        vec = store.grad_vector()
        assert np.array_equal(vec, np.concatenate([store.get(name).ravel() for name in store.names()]))
        store.zero_grads()
        assert vec.any() and not store.grad_vector().any()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("bad", ["a.w", "z.w"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_rejected_step_changes_nothing(self, bad, value):
        """The parameter with the bad gradient is first, then last, in name
        order; the others have finite gradients and moments from one good
        step.  The raise must leave every parameter, moment, gradient and
        the step count as they were."""
        store = mixed_store(4)
        for name in store.names():
            store.grad(name)[:] = 0.5
        store.adam_step(lr=0.01)
        for name in store.names():
            store.grad(name)[:] = -0.25
        store.grad(bad).flat[1] = value
        before = store._data[:, : store.parameter_count()].copy()
        what = "gradient" if value != 1e200 else "Adam second moment"
        with pytest.raises(NumericError, match=f"{what} of '{bad}'"):
            store.adam_step(lr=0.01)
        assert np.array_equal(store._data[:, : store.parameter_count()], before, equal_nan=True)
        assert store.step_count == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_error_names_the_first_bad_parameter_in_registration_order(self):
        store = ParameterStore()
        store.add("empty", np.zeros(0))
        store.add("a", [1.0, 2.0])
        store.add("b", [3.0])
        store.grad("a")[:] = [0.0, 1e200]
        store.grad("b")[:] = [np.nan]
        with pytest.raises(NumericError, match="second moment of 'a'"):
            store.adam_step(lr=0.01)


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
