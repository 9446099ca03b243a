"""Dense float64 arrays with a reverse-mode gradient tape.

A Tape records tensors in creation order, which is already a topological
order, so the backward pass is a single reverse sweep that visits each node
once.  Ops are module functions; a Tensor has no operator methods:

- elementwise and linear: ``add``, ``mul``, ``matmul``, ``tanh``,
  ``log_sigmoid``;
- shape and selection: ``tensor_sum`` (and ``mean`` built on it),
  ``reshape``, ``concat`` (last axis), ``stack`` (a new leading axis),
  and ``take`` (np.take along one axis; its pull scatter-adds, so repeated
  indices are summed);
- masked: ``masked_log_softmax`` (below);
- fused, each recorded as one node with one hand-written pull: ``gru``, one
  GRU update whose forward has the bits of the chain of matmul, add,
  sigmoid, mul, tanh and subtract steps it stands for, and
  ``multi_head_attention`` (below).

``Tensor(data, tape, leaf_ref)`` builds a leaf only: its data, the tape
that records it (if any) and, for a parameter leaf, the (store, name) that
its gradient belongs to.  An op builds its own output, recorded on its
operands' tape with the pull that sends gradients back to them.  Ops
called on tensors that carry no tape run eagerly and record nothing, which
doubles as the no-gradient fast path for sampling and evaluation.

On that path, and only there, ``add``, ``tanh``, ``take`` and
``multi_head_attention`` take ``out=``: a float64 array of the result's
shape that the op writes its result into and returns as the result's data,
so a caller can reuse its work arrays from call to call;
``multi_head_attention`` also takes ``z=``, ``pairs=``, ``weights=`` and
``scratch=`` for its stages and its one temporary, and ``rows=``, the query
nodes whose rows alone it computes.  Any of these with an operand on a
tape raises ``InputError``, since the tape would keep a view of an array
that the caller goes on to overwrite (or, for ``rows=``, a result whose
pull would need the rows it skipped).

Two ops work over the last axis restricted to a boolean mask:
``masked_log_softmax``, and ``multi_head_attention``, which runs every head
of one graph-attention round over a leading heads axis, one matmul per
stage.  It turns the scores leaky_relu(src_i + dst_j) into attention
weights in one (H, ..., q, n) buffer, in place, and pulls the whole round
back in one step.  It shifts row i by the bound
leaky_relu(src_i + max_j dst_j), not by the row's masked maximum, and
multiplies exp's result by the mask, so excluded weights are exactly zero;
only a row whose sum falls below ``ATTENTION_ROW_FLOOR`` is recomputed with
its exact masked maximum (or, with an empty mask row, raises
``NumericError``).

Parameters live in a ParameterStore, which keeps them, their gradients and
Adam's moments in one flat array, so an Adam step is one vectorised pass;
``Checkpointable`` writes and reads the JSON checkpoint of any object built
from a config and one store.

Finiteness is checked where values enter or leave the tape, not on every op
result, so an op that overflows returns inf or nan and passes it on.
``NumericError`` is raised for non-finite values in:

- tensors built by calling ``Tensor(...)``, which includes constants that
  ops wrap (every operand of ``gru`` and ``take`` too; a Python int or
  float is checked with ``math.isfinite``) and the parameter leaves of
  ``ParameterStore.bind``;
- the root of ``backward``;
- ``ParameterStore.add``, checkpoints read by ``parse_checkpoint``, and the
  gradients and updated moments of ``ParameterStore.adam_step``.

Code that turns a tape-free result into a draw or a reported number checks
it there with ``ensure_finite``: the samplers check the logits of each
draw's candidates before the draw, and ``exact_marginal_log_prob`` its
joint log-probabilities.  The training estimates wrap their learning signal
in ``Tensor(...)``, and ``importance_estimate`` checks its weights.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError
from .files import read_text, write_text_atomic

# negative slope of the leaky step in ``multi_head_attention``
ATTENTION_SLOPE = 0.2
# a row of ``multi_head_attention``'s weights whose sum is below this takes the exact
# path.  Above it, the row's bound sits at most 40 + log n nats over its
# largest score; rounding exp's argument then costs a weight a relative
# error of about gap * eps / 2, which the floor keeps to a few dozen ulps.
ATTENTION_ROW_FLOOR = math.exp(-40.0)
# Adam's moment decay rates and denominator offset (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def ensure_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr``, or ``NumericError`` naming ``what`` if any entry is inf or nan."""
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {what}")
    return arr


class Tape:
    """Ordered record of tensor operations; creation order is topological."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Tensor] = []


class Tensor:
    """A float64 array, optionally recorded on a tape for backpropagation."""

    __slots__ = ("data", "grad", "tape", "pull", "leaf_ref")

    def __init__(self, data, tape: Tape | None = None, leaf_ref: tuple | None = None):
        self.data = ensure_finite(np.asarray(data, dtype=np.float64), "tensor data")
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.pull: Callable[[np.ndarray], None] | None = None
        self.leaf_ref = leaf_ref
        if tape is not None:
            tape.nodes.append(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"


def _wrap(x) -> Tensor:
    """``x`` if it is a tensor, else a tape-free constant: a Python int or
    float, such as the -1.0 of ``mul(x, -1.0)``, is checked with
    ``math.isfinite``, anything else by ``Tensor(x)``."""
    if isinstance(x, Tensor):
        return x
    if type(x) is float or type(x) is int:
        if not math.isfinite(x):
            raise NumericError("non-finite values in tensor data")
        return _result((), np.float64(x), None)
    return Tensor(x)


def _result(inputs: tuple[Tensor, ...], data: np.ndarray, pull) -> Tensor:
    """An op's output, recorded on its operands' tape if they have one.  It
    skips the finite check of ``Tensor(...)``; see the module docstring."""
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise InputError("operands belong to different tapes")
    out = object.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    out.leaf_ref = None
    if tape is None:
        out.tape, out.pull = None, None
    else:
        out.tape, out.pull = tape, pull
        tape.nodes.append(out)
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to t's gradient.  The first gradient is kept as it is and
    later ones are added out of place, because a pull may hand one array to
    several parents."""
    if t.tape is None:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _tape_free(out, inputs: tuple[Tensor, ...], name: str = "out=") -> None:
    """``InputError`` if ``out`` is given and an operand is on a tape."""
    if out is not None:
        for t in inputs:
            if t.tape is not None:
                raise InputError(f"{name} is only for operands that carry no tape")


def _elementwise(op, a: Tensor, b: Tensor, name: str, out=None) -> np.ndarray:
    """``op(a.data, b.data)`` with numpy broadcasting, written into ``out``
    if given; operands that do not broadcast raise ``NumericError``."""
    try:
        return op(a.data, b.data, out=out)
    except ValueError as exc:
        raise NumericError(f"{name} shape mismatch: {a.data.shape} vs {b.data.shape}") from exc


def add(a, b, out=None) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _tape_free(out, (a, b))
    data = _elementwise(np.add, a, b, "add", out)

    def pull(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(g, b.data.shape))

    return _result((a, b), data, pull)


def mul(a, b) -> Tensor:
    """Elementwise (broadcasting) product."""
    a, b = _wrap(a), _wrap(b)
    data = _elementwise(np.multiply, a, b, "mul")

    def pull(g):
        _acc(a, _unbroadcast(g * b.data, a.data.shape))
        _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _result((a, b), data, pull)


def matmul(a, b) -> Tensor:
    """np.matmul semantics: batched 2-D products, 1-D operands promoted."""
    a, b = _wrap(a), _wrap(b)
    A, B = a.data, b.data
    if A.ndim == 0 or B.ndim == 0:
        raise NumericError("matmul operands must be at least 1-D")
    a1 = A[None, :] if A.ndim == 1 else A
    b1 = B[:, None] if B.ndim == 1 else B
    if a1.shape[-1] != b1.shape[-2]:
        raise NumericError(f"matmul shape mismatch: {A.shape} @ {B.shape}")
    data = np.matmul(A, B)

    def pull(g):
        g1 = g
        if B.ndim == 1:
            g1 = g1[..., None]
        if A.ndim == 1:
            g1 = g1[..., None, :]
        da = _unbroadcast(np.matmul(g1, np.swapaxes(b1, -1, -2)), a1.shape)
        db = _unbroadcast(np.matmul(np.swapaxes(a1, -1, -2), g1), b1.shape)
        _acc(a, da.reshape(A.shape))
        _acc(b, db.reshape(B.shape))

    return _result((a, b), data, pull)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(v, -500, 500)))


def tanh(x, out=None) -> Tensor:
    x = _wrap(x)
    _tape_free(out, (x,))
    data = np.tanh(x.data, out=out)

    def pull(g):
        _acc(x, g * (1.0 - data * data))

    return _result((x,), data, pull)


def log_sigmoid(x) -> Tensor:
    """log(sigmoid(x)), computed stably."""
    x = _wrap(x)
    data = -np.logaddexp(0.0, -x.data)

    def pull(g):
        _acc(x, g * (1.0 / (1.0 + np.exp(np.clip(x.data, -500, 500)))))

    return _result((x,), data, pull)


def tensor_sum(x, axis=None) -> Tensor:
    x = _wrap(x)
    data = x.data.sum(axis=axis)

    def pull(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _acc(x, np.broadcast_to(g, x.data.shape).copy())

    return _result((x,), data, pull)


def mean(x, axis=None) -> Tensor:
    x = _wrap(x)
    count = x.data.size if axis is None else x.data.shape[axis]
    return mul(tensor_sum(x, axis=axis), 1.0 / count)


def reshape(x, shape) -> Tensor:
    x = _wrap(x)
    shape = tuple(map(int, shape))
    data = x.data.reshape(shape)

    def pull(g):
        _acc(x, g.reshape(x.data.shape))

    return _result((x,), data, pull)


def concat(tensors: Sequence) -> Tensor:
    """Tensors joined along the last axis."""
    parts = tuple(_wrap(t) for t in tensors)
    if not parts:
        raise InputError("concat needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=-1)
    sizes = [p.data.shape[-1] for p in parts]

    def pull(g):
        offsets = np.cumsum([0] + sizes)
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _acc(p, g[..., lo:hi])

    return _result(parts, data, pull)


def stack(tensors: Sequence) -> Tensor:
    """Tensors of one shape stacked on a new leading axis (``np.stack``);
    the pull hands each its slice of the gradient."""
    parts = tuple(_wrap(t) for t in tensors)
    if not parts:
        raise InputError("stack needs at least one tensor")
    try:
        data = np.stack([p.data for p in parts])
    except ValueError as exc:
        raise NumericError(f"stack shape mismatch: {[p.data.shape for p in parts]}") from exc

    def pull(g):
        for p, part in zip(parts, g):
            _acc(p, part)

    return _result(parts, data, pull)


def take(x, indices, axis: int, out=None) -> Tensor:
    """``np.take(x, indices, axis)``: the slices of x along ``axis`` at the
    integer ``indices`` (a scalar or an array, entries may repeat), in
    their place.  The pull adds each slice's gradient back at its index."""
    x = _wrap(x)
    _tape_free(out, (x,))
    idx = np.asarray(indices, dtype=np.int64)
    try:
        size = x.data.shape[axis]
    except IndexError as exc:
        raise InputError(f"take: axis {axis} out of range for shape {x.data.shape}") from exc
    if idx.ndim == 0:
        outside = not -size <= int(idx) < size
    else:
        outside = idx.size > 0 and (idx.min() < -size or idx.max() >= size)
    if outside:
        raise InputError(f"take: index out of range for axis {axis} of size {size}")
    # in range, "wrap" reads what "raise" would, without buffering ``out``
    data = x.data.take(idx, axis=axis, out=out, mode="wrap")

    def pull(g):
        # the flat place in x of each entry of the result; bincount adds the
        # entries that share a place one by one in order, as np.add.at
        # would, with the same bits and several times faster
        at = np.arange(x.data.size).reshape(x.data.shape).take(idx, axis=axis)
        _acc(x, np.bincount(at.ravel(), weights=g.ravel(), minlength=x.data.size).reshape(x.data.shape))

    return _result((x,), data, pull)


def gru(h, x, gates: Sequence[Sequence]) -> Tensor:
    """One gated recurrent update (Cho et al. 2014) as one op.  For states
    h (..., dim), inputs x (..., in_dim) and the (wx, wh, b) triples of the
    update, reset and candidate gates, with a_k(s) = x wx_k + s wh_k + b_k:

        z = sigmoid(a_update(h)),  r = sigmoid(a_reset(h)),
        c = tanh(a_candidate(r * h)),  out = (1 - z) * c + z * h.

    The forward evaluates the numpy expressions of a chain of matmul, add,
    sigmoid (``_sigmoid``), mul, tanh and subtract ops in the order in
    which the chain would (``tests/oracles.py::composed_gru_step``), so its
    result has the same bits; one pull sends the gradient to h, x and the
    nine parameters.  Weights must be 2-D and biases 1-D; h and x broadcast
    over their leading axes."""
    h, x = _wrap(h), _wrap(x)
    params = tuple(_wrap(p) for gate in gates for p in gate)
    if [p.data.ndim for p in params] != [2, 2, 1] * 3:
        raise InputError("gru takes three (wx, wh, b) gates of 2-D weights and 1-D biases")
    wxz, whz, bz, wxr, whr, br, wxc, whc, bc = (p.data for p in params)
    H, X = h.data, x.data
    try:
        z = _sigmoid(np.matmul(X, wxz) + np.matmul(H, whz) + bz)
        r = _sigmoid(np.matmul(X, wxr) + np.matmul(H, whr) + br)
        rh = r * H
        c = np.tanh(np.matmul(X, wxc) + np.matmul(rh, whc) + bc)
        data = (1.0 - z) * c + z * H
    except ValueError as exc:
        raise NumericError(f"gru shape mismatch: h {H.shape}, x {X.shape}") from exc
    lead, dim = data.shape[:-1], data.shape[-1]

    def rows(a: np.ndarray) -> np.ndarray:
        """``a`` broadcast to the output's leading axes, as (rows, last)."""
        return np.broadcast_to(a, lead + a.shape[-1:]).reshape(-1, a.shape[-1])

    def pull(g):
        g, Z, R, C = (a.reshape(-1, dim) for a in (g, z, r, c))
        H2, X2 = rows(H), rows(X)
        dc = g * (1.0 - Z) * (1.0 - C * C)
        dz = g * (H2 - C) * Z * (1.0 - Z)
        drh = dc @ whc.T
        dr = drh * H2 * R * (1.0 - R)
        if h.tape is not None:
            dh = g * Z + drh * R + dz @ whz.T + dr @ whr.T
            _acc(h, _unbroadcast(dh.reshape(lead + (dim,)), H.shape))
        if x.tape is not None:
            dx = dz @ wxz.T + dr @ wxr.T + dc @ wxc.T
            _acc(x, _unbroadcast(dx.reshape(lead + X.shape[-1:]), X.shape))
        grads = (X2.T @ dz, H2.T @ dz, dz.sum(axis=0), X2.T @ dr, H2.T @ dr, dr.sum(axis=0))
        grads += (X2.T @ dc, rows(rh).T @ dc, dc.sum(axis=0))
        for p, grad in zip(params, grads):
            _acc(p, grad)

    return _result((h, x, *params), data, pull)


def _mask(mask, shape: tuple[int, ...]) -> np.ndarray:
    """``mask`` as a bool array; ``NumericError`` unless it broadcasts to
    ``shape``."""
    m = np.asarray(mask, dtype=bool)
    if m.shape == shape[len(shape) - m.ndim :]:
        return m
    try:
        fits = np.broadcast_shapes(m.shape, shape) == shape
    except ValueError:
        fits = False
    if not fits:
        raise NumericError(f"mask of shape {m.shape} does not broadcast to {shape}")
    return m


def _require_support(rows: np.ndarray) -> None:
    """``NumericError`` unless every row (last axis) of ``rows`` has an entry."""
    if not rows.any(axis=-1).all():
        raise NumericError("masked softmax row with empty support")


def masked_log_softmax(x, mask) -> Tensor:
    """Log-probabilities over the last axis restricted to mask; excluded
    entries are set to zero and must not be read."""
    x = _wrap(x)
    m = _mask(mask, x.data.shape)
    # broadcasting only repeats the mask's rows, so unless the broadcast
    # mask is empty (or the mask has no rows) the mask as passed decides
    _require_support(m if m.ndim and x.data.size else np.broadcast_to(m, x.data.shape))
    shifted = np.where(m, x.data, -np.inf)
    mx = shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted - mx)
    z = e.sum(axis=-1, keepdims=True)
    data = np.where(m, x.data - (mx + np.log(z)), 0.0)

    def pull(g):
        gm = g * m
        s = gm.sum(axis=-1, keepdims=True)
        _acc(x, gm - np.where(m, e / z * s, 0.0))

    return _result((x,), data, pull)


@functools.cache
def _ones(n: int) -> np.ndarray:
    """A read-only vector of n ones."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def _row_sums(x: np.ndarray) -> np.ndarray:
    """The sums of the rows of the 2-D array x, as matrix-vector products
    with ones.  BLAS sums a row with the same bits in every group of four
    rows but not always in a shorter tail, so rows go in groups of four: a
    tail is summed again with the three rows before it (or, with fewer than
    four rows, padded with zero rows).  Each row's sum then has the same
    bits whatever the number of rows and wherever the row sits."""
    count, n = x.shape
    ones = _ones(n)
    tail = count % 4
    if not tail:
        return np.matmul(x, ones)
    sums = np.empty(count)
    if count > 4:
        np.matmul(x[: count - tail], ones, out=sums[: count - tail])
        np.matmul(x[count - 4 :], ones, out=sums[count - 4 :])
    else:
        padded = np.zeros((4, n))
        padded[:count] = x
        sums[:] = np.matmul(padded, ones)[:count]
    return sums


def _attention_weights(src, dst, left, right, m, out, scratch, taped: bool):
    """Weights softmax_j(leaky_relu(src_i + dst_j)) over the entries of the
    mask m, for the query rows' src (..., q) and every node's dst (..., n),
    in one (..., q, n) buffer (``out`` if given); ``left`` (..., q, 2) and
    ``right`` (..., 2, n) are [src_i, 1] and [1; dst_j].  Also returns where
    the leaky step's input is positive, which only a pull (``taped``)
    needs.  See ``multi_head_attention``."""
    # both terms of [src_i, 1] [1; dst_j] are exact, so the product has the
    # bits of the sum src_i + dst_j
    x = np.matmul(left, right, out=out)
    np.maximum(x, np.multiply(x, ATTENTION_SLOPE, out=scratch), out=x)
    # the leaky step keeps signs
    pos = x > 0 if taped else None
    bound = src + dst.max(axis=-1, keepdims=True)
    np.maximum(bound, ATTENTION_SLOPE * bound, out=bound)
    np.subtract(x, bound[..., None], out=x)
    np.exp(x, out=x)
    np.multiply(x, m, out=x)
    z = _row_sums(x.reshape(src.size, x.shape[-1])).reshape(src.shape)
    if z.size and z.min() < ATTENTION_ROW_FLOOR:
        low = z < ATTENTION_ROW_FLOOR
        rows = np.broadcast_to(m, x.shape)[low]
        _require_support(rows)
        scores = src[low][:, None] + np.broadcast_to(dst[..., None, :], x.shape)[low]
        np.maximum(scores, ATTENTION_SLOPE * scores, out=scores)
        np.copyto(scores, -np.inf, where=~rows)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        x[low] = e / e.sum(axis=-1, keepdims=True)
        z[low] = 1.0
    np.divide(x, z[..., None], out=x)
    return x, pos


def _query_rows(rows, lead: tuple[int, ...], n: int) -> np.ndarray:
    """``rows`` as an int array of shape ``lead`` + (q,) with q >= 1 and
    entries in [0, n), or ``InputError``."""
    idx = np.asarray(rows, dtype=np.intp)
    if idx.shape[:-1] != lead or idx.ndim == len(lead) or idx.shape[-1] < 1:
        raise InputError(f"rows of shape {idx.shape} do not fit features with leading axes {lead}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InputError(f"rows must index the {n} nodes")
    return idx


def multi_head_attention(
    x, w, a, mask, *, rows=None, out=None, z=None, pairs=None, weights=None, scratch=None
) -> Tensor:
    """Every head of one additive attention round (Velickovic et al. 2018)
    as one op.  For features x (..., n, d), projections w (H, d, hd) and
    attention vectors a (2H, hd), whose first H rows are the heads' source
    vectors src_k and last H rows their target vectors dst_k, head k
    projects z_k = x w_k, scores pair (i, j) as
    leaky_relu(src_k . z_ki + dst_k . z_kj) with negative slope
    ``ATTENTION_SLOPE``, normalises each row i over the entries of mask
    (which broadcasts to (..., n, n)), and averages: o_k = A_k z_k.  The
    result, (..., n, H * hd), holds the heads' outputs side by side.

    Tape-free only, ``rows`` ((..., q) node indices) picks the query
    nodes: the result is (..., q, H * hd), its row r node rows[..., r]'s.
    The keys stay all n nodes, so only the weights' rows shrink, to (..., q,
    n).  For q >= 2 each row has the bits of that row of the full result;
    for q = 1 numpy computes A_k z_k as a matrix-vector product, which
    rounds differently.

    Each stage is one matmul over a leading heads axis: the projections z
    (H, ..., n, hd); the scores, source then target, each a matrix-vector
    product as in a per-head chain of ``matmul`` ops; and A_k z_k, written
    straight into the result through a transposed view.  So the result has
    the bits of that chain, given that chain's row sums (``_row_sums``).

    The weights A (H, ..., q, n) are built in one buffer, in place.  The
    scores src_i + dst_j are the rank-2 product [src_i, 1] [1; dst_j].  The
    leaky step is max(s, slope * s), exact because 0 < slope < 1.  Row i is
    shifted by the bound leaky_relu(src_i + max_j dst_j) rather than by its
    masked maximum: the leaky step is monotone, so the bound is at least
    every score of the row and exp cannot overflow.  exp runs on every
    score and the mask multiplies its result, so excluded weights are
    exactly zero.  Each row is summed by a matrix-vector product with ones.
    A row whose sum falls below ``ATTENTION_ROW_FLOOR`` is the rare case: it
    has no entry in the mask (``NumericError``), or every masked score sits
    more than 40 nats below the bound, and then it is recomputed with its
    exact masked maximum.

    Tape-free only, like ``out`` (the result), the keyword arrays receive
    the stages: ``z`` and ``weights`` of the shapes above, ``scratch`` for
    the leaky step's slope * s, of the weights' shape, and ``pairs``, a
    (3, m) float64 array with unit stride along m >= H * prod(...) * n: row
    0 receives the query rows' source scores, row 1 ones (with ``rows``,
    after it has held every node's source scores) and row 2 the target
    scores, so that [src_i, 1] and [1; dst_j] are strided views of it.  One
    node is recorded, and its pull sends the gradient to x, w and a with
    matmuls."""
    x, w, a = _wrap(x), _wrap(w), _wrap(a)
    operands = (x, w, a)
    taped = any(t.tape is not None for t in operands)
    if taped:
        _tape_free(rows, operands, "rows=")
        for buf in (out, z, pairs, weights, scratch):
            _tape_free(buf, operands)
    X, W, A = x.data, w.data, a.data
    if X.ndim < 2 or W.ndim != 3 or X.shape[-1] != W.shape[1] or A.shape != (2 * W.shape[0], W.shape[2]):
        raise NumericError(f"multi_head_attention shape mismatch: x {X.shape}, w {W.shape}, a {A.shape}")
    heads, d, hd = W.shape
    lead, n = X.shape[:-2], X.shape[-2]
    over_lead = (1,) * len(lead)
    # (..., n, heads, hd) -> (heads, ..., n, hd)
    heads_first = (len(lead) + 1, *range(len(lead) + 1), len(lead) + 2)
    m = _mask(mask, lead + (n, n))
    count = heads * math.prod(lead) * n
    if pairs is None:
        pairs = np.empty((3, count))
    elif pairs.dtype != np.float64 or pairs.ndim != 2 or pairs.shape[0] != 3 or pairs.shape[1] < count or (
        count and pairs.strides[1] != pairs.itemsize
    ):
        raise InputError(f"pairs= must be a (3, >= {count}) float64 array with unit stride along its rows")
    # (3, heads, ..., n) -> (heads, ..., n, 3) and (heads, ..., 3, n)
    block = pairs[:, :count].reshape((3, heads) + lead + (n,))
    by_row = (*range(1, block.ndim), 0)
    by_column = (*range(1, block.ndim - 1), 0, block.ndim - 1)
    Z = np.matmul(X, W.reshape((heads,) + over_lead + (d, hd)), out=z)
    if rows is None:
        q, src = n, block[0]
        np.matmul(Z, A.reshape((2, heads) + over_lead + (hd, 1)), out=block[0::2, ..., None])
        left = block[0:2].transpose(by_row)
    else:
        idx = _query_rows(rows, lead, n)
        q = idx.shape[-1]
        if m.shape == (n, n):
            m = m[idx]
        else:
            m = np.take_along_axis(np.broadcast_to(m, lead + (n, n)), idx[..., None], axis=-2)
        np.matmul(Z, A.reshape((2, heads) + over_lead + (hd, 1)), out=block[1:3, ..., None])
        # the query rows' source scores, from row 1 into row 0 of pairs
        at = idx + n * np.arange(math.prod(lead)).reshape(lead + (1,))
        queried = pairs[0:2, : heads * at.size].reshape((2, heads) + at.shape)
        src = queried[0]
        block[1].reshape(heads, -1).take(at, axis=1, out=src, mode="clip")
        left = queried.transpose(by_row)
    pairs[1, :count] = 1.0
    right = block[1:3].transpose(by_column)
    P, pos = _attention_weights(src, block[2], left, right, m, weights, scratch, taped)
    data = np.empty(lead + (q, heads * hd)) if out is None else out
    np.matmul(P, Z, out=data.reshape(lead + (q, heads, hd)).transpose(heads_first))

    def pull(g):
        G = g.reshape(lead + (n, heads, hd)).transpose(heads_first)
        # through the weights to the score of each pair (i, j), in place
        dS = np.matmul(G, np.swapaxes(Z, -1, -2))
        np.subtract(dS, _row_sums((dS * P).reshape(-1, n)).reshape(P.shape[:-1] + (1,)), out=dS)
        np.multiply(dS, P, out=dS)
        np.multiply(dS, np.where(pos, 1.0, ATTENTION_SLOPE), out=dS)
        # the weights and vectors act on every row alike, so the rows fold
        # into one axis: summed over j a pair's gradient is its source
        # score's, summed over i its target score's
        count = math.prod(lead) * n
        ones = _ones(n)
        ds = np.stack([np.matmul(dS.reshape(-1, n), ones), np.matmul(ones, dS).reshape(-1)], axis=-1)
        ds = ds.reshape(heads, count, 2)
        dZ = np.matmul(np.swapaxes(P, -1, -2), G).reshape(heads, count, hd)
        dZ += np.matmul(ds, A.reshape(2, heads, hd).transpose(1, 0, 2))
        if x.tape is not None:
            _acc(x, np.matmul(dZ, np.swapaxes(W, -1, -2)).sum(axis=0).reshape(X.shape))
        if w.tape is not None:
            _acc(w, np.matmul(X.reshape(count, d).T, dZ))
        if a.tape is not None:
            dA = np.matmul(np.swapaxes(Z.reshape(heads, count, hd), -1, -2), ds)
            _acc(a, dA.transpose(2, 0, 1).reshape(A.shape))

    return _result(operands, data, pull)


def backward(tape: Tape, root: Tensor) -> None:
    """Reverse sweep from a scalar root, which must be finite.  Leaf tensors
    (those without a pull) that the root reaches keep their gradient in
    .grad; an interior tensor's .grad is dropped once it has been pulled to
    its parents, so the sweep holds only the gradients still to be pulled."""
    if root.tape is not tape:
        raise InputError("backward root is not recorded on this tape")
    if root.data.size != 1:
        raise InputError("backward root must be scalar")
    ensure_finite(root.data, "backward root")
    for t in tape.nodes:
        t.grad = None
    root.grad = np.ones_like(root.data)
    for t in reversed(tape.nodes):
        if t.grad is not None and t.pull is not None:
            t.pull(t.grad)
            t.grad = None


class ParameterStore:
    """Named float64 parameter arrays with gradient buffers and Adam state.

    Parameters, gradients and Adam's two moments live in the four rows of
    one (4, capacity) array, each parameter in one slot of consecutive
    entries, in the order of registration.  ``get`` and ``grad`` return
    views of a slot, so writes through them (a checkpoint load, a test, an
    accumulated gradient) reach the store, and the views stay live through
    every step.  Registering a parameter may move the array, so views taken
    before the last ``add`` can go stale.  An Adam step and clearing the
    gradients are each one pass over the used entries."""

    def __init__(self):
        self._data = np.zeros((4, 0))
        self._size = 0
        # (slot start, shape) of each parameter in registration order, and
        # its parameter and gradient views
        self._slots: dict[str, tuple[int, tuple[int, ...]]] = {}
        self._views: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.step_count = 0

    def _lay_out(self, name: str) -> None:
        start, shape = self._slots[name]
        end = start + math.prod(shape)
        self._views[name] = (self._data[0, start:end].reshape(shape), self._data[1, start:end].reshape(shape))

    def add(self, name: str, values) -> np.ndarray:
        if name in self._slots:
            raise InputError(f"parameter {name!r} already registered")
        arr = np.array(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        ensure_finite(arr, f"parameter {name!r}")
        start, end = self._size, self._size + arr.size
        if end > self._data.shape[1]:
            # growing geometrically keeps registration linear in the size
            grown = np.zeros((4, max(end, 2 * self._data.shape[1])))
            grown[:, :start] = self._data[:, :start]
            self._data = grown
            for old in self._slots:
                self._lay_out(old)
        self._data[0, start:end] = arr.ravel()
        self._slots[name] = (start, arr.shape)
        self._lay_out(name)
        self._size = end
        return self._views[name][0]

    def names(self) -> list[str]:
        return sorted(self._slots)

    def _entry(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in self._views:
            raise InputError(f"unknown parameter {name!r}")
        return self._views[name]

    def get(self, name: str) -> np.ndarray:
        return self._entry(name)[0]

    def grad(self, name: str) -> np.ndarray:
        return self._entry(name)[1]

    def zero_grads(self) -> None:
        self._data[1, : self._size] = 0.0

    def grad_vector(self) -> np.ndarray:
        """A copy of all gradients, flattened in name order."""
        return np.concatenate([self._views[name][1].ravel() for name in self.names()] or [np.zeros(0)])

    def parameter_count(self) -> int:
        return self._size

    def bind(self, tape: Tape | None) -> dict[str, Tensor]:
        """Leaf tensors for every parameter, recorded on ``tape``."""
        return {name: Tensor(arr, tape=tape, leaf_ref=(self, name)) for name, (arr, _) in self._views.items()}

    def accumulate_from_tape(self, tape: Tape) -> None:
        """Add leaf gradients found on the tape into this store's buffers."""
        for t in tape.nodes:
            if t.leaf_ref is not None and t.leaf_ref[0] is self and t.grad is not None:
                grad = self._views[t.leaf_ref[1]][1]
                grad += t.grad

    def adam_step(self, lr: float) -> None:
        """One Adam update with the ``ADAM_*`` constants over every entry at
        once; entries with zero accumulated gradient are left untouched.
        Gradients are cleared afterwards.  A non-finite gradient, or a
        second moment that overflows (a finite gradient of 1e200 squares to
        inf), raises ``NumericError`` naming the first such parameter in
        registration order, and then nothing has changed: no parameter,
        moment, gradient or ``step_count``."""
        p, g, m, v = self._data[:, : self._size]
        upd = g != 0.0
        v_next = np.where(upd, ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g, v)
        # one check covers both moments: a non-finite gradient makes v
        # non-finite, and so does any gradient beyond 1e154 (whose square
        # overflows), the only kind that can overflow m
        bad = ~np.isfinite(v_next)
        if bad.any():
            at = int(np.argmax(bad))
            name = next(n for n, (start, shape) in self._slots.items() if start <= at < start + math.prod(shape))
            what = "Adam second moment" if np.isfinite(self._views[name][1]).all() else "gradient"
            raise NumericError(f"non-finite values in {what} of {name!r}")
        self.step_count += 1
        c1 = 1.0 - ADAM_BETA1**self.step_count
        c2 = 1.0 - ADAM_BETA2**self.step_count
        m[:] = np.where(upd, ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g, m)
        v[:] = v_next
        step = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p -= np.where(upd, step, 0.0)
        g[:] = 0.0


def parse_checkpoint(doc: dict) -> tuple[str, dict, dict[str, np.ndarray]]:
    """(model kind, metadata, parameter arrays) from a checkpoint document."""
    if not isinstance(doc, dict) or "modelKind" not in doc or "parameters" not in doc:
        raise InputError("checkpoint must carry modelKind and parameters")
    metadata = doc.get("metadata", {})
    if not isinstance(doc["parameters"], dict) or not isinstance(metadata, dict):
        raise InputError("checkpoint parameters and metadata must be JSON objects")
    params: dict[str, np.ndarray] = {}
    for name, entry in doc["parameters"].items():
        try:
            shape = tuple(int(s) for s in entry["shape"])
            arr = np.array(entry["values"], dtype=np.float64).reshape(shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed checkpoint entry for {name!r}") from exc
        params[name] = ensure_finite(arr, f"checkpoint parameter {name!r}")
    return str(doc["modelKind"]), dict(metadata), params


def check_positive_ints(**values) -> None:
    """Raise ``InputError``, naming the keyword, unless each keyword's value
    is an integer of at least 1 (a bool is not one)."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise InputError(f"{name} must be a positive integer, got {value!r}")


class Checkpointable:
    """Checkpoints of an object built from a frozen config dataclass ``cfg``
    (of type ``config_type``) whose parameters live in ``store``.

    A class that sets ``kind`` writes it into its checkpoints.
    ``from_checkpoint`` and ``load`` called on a class accept the kinds of it
    and of the classes below it, so a shared base rebuilds any of its
    families and a concrete class only its own.
    """

    kind: str
    config_type: type

    @classmethod
    def _kinds(cls) -> dict[str, type]:
        kinds = {cls.kind: cls} if "kind" in vars(cls) else {}
        for sub in cls.__subclasses__():
            kinds.update(sub._kinds())
        return kinds

    def checkpoint(self, metadata: dict | None = None) -> dict:
        """The document, with the config and seed ahead of ``metadata``."""
        meta = {"config": asdict(self.cfg), "seed": self.cfg.seed}
        meta.update(metadata or {})
        params = {}
        for name in self.store.names():
            arr = self.store.get(name)
            params[name] = {"shape": list(arr.shape), "values": arr.ravel().tolist()}
        return {"modelKind": self.kind, "metadata": meta, "parameters": params}

    def save(self, path, metadata: dict) -> None:
        """Write the document to ``path`` atomically."""
        write_text_atomic(path, json.dumps(self.checkpoint(metadata), indent=1) + "\n")

    @classmethod
    def from_checkpoint(cls, doc: dict):
        """Rebuild the object a document holds, checking its kind, config,
        and parameter names and shapes."""
        kind, meta, params = parse_checkpoint(doc)
        kinds = cls._kinds()
        if kind not in kinds:
            raise InputError(f"checkpoint kind {kind!r} is not one of {sorted(kinds)}")
        target = kinds[kind]
        fields = meta.get("config")
        if not isinstance(fields, dict):
            raise InputError("checkpoint metadata must carry a config mapping")
        try:
            config = target.config_type(**fields)
        except TypeError as exc:
            raise InputError(f"bad checkpoint config: {exc}") from exc
        obj = target(config)
        expected, got = set(obj.store.names()), set(params)
        if expected != got:
            raise InputError(
                f"checkpoint parameters mismatch: missing {sorted(expected - got)}, "
                f"unexpected {sorted(got - expected)}"
            )
        for name, arr in params.items():
            values = obj.store.get(name)
            if values.shape != arr.shape:
                raise InputError(f"parameter {name!r} has shape {arr.shape}, expected {values.shape}")
            values[:] = arr
        return obj

    @classmethod
    def load(cls, path):
        """``from_checkpoint`` on the JSON document in the file at ``path``."""
        text = read_text(path, "checkpoint")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"checkpoint {path} is not valid JSON: {exc}") from exc
        return cls.from_checkpoint(doc)
