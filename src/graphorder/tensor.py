"""Dense float64 arrays with a reverse-mode gradient tape.

A Tape records tensors in creation order, which is already a topological
order, so the backward pass is a single reverse sweep that visits each node
once.  Ops are module functions; a Tensor has no operator methods:

- elementwise and linear: ``add``, ``sub``, ``mul``, ``matmul``,
  ``sigmoid``, ``tanh``, ``log_sigmoid``;
- shape and selection: ``tensor_sum`` (and ``mean`` built on it),
  ``reshape``, ``concat`` (last axis), ``take`` (np.take along one axis; its
  pull scatter-adds, so repeated indices are summed) and
  ``take_along_last``;
- masked: ``masked_log_softmax`` and ``additive_attention`` (below);
- fused: ``gru``, one GRU update whose forward has the bits of the chain of
  ``matmul``/``add``/``sigmoid``/``mul``/``tanh``/``sub`` ops it stands for,
  recorded as one node with one hand-written pull.

``Tensor(data, tape, leaf_ref)`` builds a leaf only: its data, the tape
that records it (if any) and, for a parameter leaf, the (store, name) that
its gradient belongs to.  An op builds its own output, recorded on its
operands' tape with the pull that sends gradients back to them.  Ops
called on tensors that carry no tape run eagerly and record nothing, which
doubles as the no-gradient fast path for sampling and evaluation.

On that path, and only there, ``add``, ``matmul``, ``tanh``, ``concat`` and
``additive_attention`` take ``out=``: a float64 array of the result's shape
that the op writes its result into and returns as the result's data, so a
caller can reuse its work arrays from call to call; ``additive_attention``
also takes ``scratch=``, an array of the same shape for its one temporary.
``out=`` (or ``scratch=``) with an operand on a tape raises ``InputError``,
since the tape would keep a view of an array that the caller goes on to
overwrite.

Two ops work over the last axis restricted to a boolean mask:
``masked_log_softmax``, and ``additive_attention``, which turns the scores
leaky_relu(src_i + dst_j) into attention weights in one (..., n, n) buffer,
in place, and pulls the whole chain back in one step.  It shifts row i by
the bound leaky_relu(src_i + max_j dst_j), not by the row's masked maximum,
and multiplies exp's result by the mask, so excluded weights are exactly
zero; only a row whose sum falls below ``ATTENTION_ROW_FLOOR`` is
recomputed with its exact masked maximum (or, with an empty mask row,
raises ``NumericError``).

Parameters live in a ParameterStore; ``Checkpointable`` writes and reads
the JSON checkpoint of any object built from a config and one store.

Finiteness is checked where values enter or leave the tape, not on every op
result, so an op that overflows returns inf or nan and passes it on.
``NumericError`` is raised for non-finite values in:

- tensors built by calling ``Tensor(...)``, which includes constants that
  ops wrap (every operand of ``gru`` and ``take`` too) and the parameter
  leaves of ``ParameterStore.bind``;
- the root of ``backward``;
- ``ParameterStore.add``, checkpoints read by ``parse_checkpoint``, and the
  gradients and updated moments of ``ParameterStore.adam_step``.

Code that turns a tape-free result into a draw or a reported number checks
it there with ``ensure_finite``: the samplers check their logits before each
draw, and ``exact_marginal_log_prob`` its joint log-probabilities.  The
training estimates wrap their learning signal in ``Tensor(...)``, and
``importance_estimate`` checks its weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError
from .files import read_text, write_text_atomic

# negative slope of the leaky step in ``additive_attention``
ATTENTION_SLOPE = 0.2
# a row of ``additive_attention`` whose sum is below this takes the exact
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
    return x if isinstance(x, Tensor) else Tensor(x)


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


def _tape_free(out, inputs: tuple[Tensor, ...]) -> None:
    """``InputError`` if ``out`` is given and an operand is on a tape."""
    if out is not None:
        for t in inputs:
            if t.tape is not None:
                raise InputError("out= is only for operands that carry no tape")


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


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = _elementwise(np.subtract, a, b, "sub")

    def pull(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(-g, b.data.shape))

    return _result((a, b), data, pull)


def mul(a, b) -> Tensor:
    """Elementwise (broadcasting) product."""
    a, b = _wrap(a), _wrap(b)
    data = _elementwise(np.multiply, a, b, "mul")

    def pull(g):
        _acc(a, _unbroadcast(g * b.data, a.data.shape))
        _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _result((a, b), data, pull)


def matmul(a, b, out=None) -> Tensor:
    """np.matmul semantics: batched 2-D products, 1-D operands promoted."""
    a, b = _wrap(a), _wrap(b)
    _tape_free(out, (a, b))
    A, B = a.data, b.data
    if A.ndim == 0 or B.ndim == 0:
        raise NumericError("matmul operands must be at least 1-D")
    a1 = A[None, :] if A.ndim == 1 else A
    b1 = B[:, None] if B.ndim == 1 else B
    if a1.shape[-1] != b1.shape[-2]:
        raise NumericError(f"matmul shape mismatch: {A.shape} @ {B.shape}")
    data = np.matmul(A, B, out=out)

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


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    data = _sigmoid(x.data)

    def pull(g):
        _acc(x, g * data * (1.0 - data))

    return _result((x,), data, pull)


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
    shape = tuple(int(s) for s in shape)
    data = x.data.reshape(shape)

    def pull(g):
        _acc(x, g.reshape(x.data.shape))

    return _result((x,), data, pull)


def concat(tensors: Sequence, out=None) -> Tensor:
    """Tensors joined along the last axis."""
    parts = tuple(_wrap(t) for t in tensors)
    if not parts:
        raise InputError("concat needs at least one tensor")
    _tape_free(out, parts)
    data = np.concatenate([p.data for p in parts], axis=-1, out=out)
    sizes = [p.data.shape[-1] for p in parts]

    def pull(g):
        offsets = np.cumsum([0] + sizes)
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _acc(p, g[..., lo:hi])

    return _result(parts, data, pull)


def take_along_last(x, indices) -> Tensor:
    """Pick one entry per row along the last axis; indices shape x.shape[:-1]."""
    x = _wrap(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != x.data.shape[:-1]:
        raise InputError("take_along_last index shape must match leading axes")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[-1]):
        raise InputError("take_along_last index out of range")
    data = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]

    def pull(g):
        buf = np.zeros_like(x.data)
        np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
        _acc(x, buf)

    return _result((x,), data, pull)


def take(x, indices, axis: int) -> Tensor:
    """``np.take(x, indices, axis)``: the slices of x along ``axis`` at the
    integer ``indices`` (a scalar or an array, entries may repeat), in
    their place.  The pull adds each slice's gradient back at its index."""
    x = _wrap(x)
    idx = np.asarray(indices, dtype=np.int64)
    try:
        data = np.take(x.data, idx, axis=axis)
    except IndexError as exc:
        raise InputError(f"take: {exc}") from exc
    where = (slice(None),) * (axis % x.data.ndim) + (idx,)

    def pull(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, where, g)
        _acc(x, buf)

    return _result((x,), data, pull)


def gru(h, x, gates: Sequence[Sequence]) -> Tensor:
    """One gated recurrent update (Cho et al. 2014) as one op.  For states
    h (..., dim), inputs x (..., in_dim) and the (wx, wh, b) triples of the
    update, reset and candidate gates, with a_k(s) = x wx_k + s wh_k + b_k:

        z = sigmoid(a_update(h)),  r = sigmoid(a_reset(h)),
        c = tanh(a_candidate(r * h)),  out = (1 - z) * c + z * h.

    The forward evaluates the numpy expressions of the ops ``matmul``,
    ``add``, ``sigmoid``, ``mul``, ``tanh`` and ``sub`` in the order in
    which a chain of those ops would, so its result has the same bits; one
    pull sends the gradient to h, x and the nine parameters.  Weights must
    be 2-D and biases 1-D; h and x broadcast over their leading axes."""
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


def additive_attention(src, dst, mask, out=None, scratch=None) -> Tensor:
    """Attention weights softmax_j(leaky_relu(src_i + dst_j)) with negative
    slope ``ATTENTION_SLOPE`` over the entries of mask, for src and dst of
    shape (..., n) and a mask that broadcasts to (..., n, n); excluded
    weights are exactly zero.

    One (..., n, n) buffer, ``out`` if given, holds the scores and is turned
    into the weights in place.  The leaky step is max(x, slope * x), exact
    because 0 < slope < 1; a second buffer, ``scratch`` if given (tape-free
    only, like ``out``), holds slope * x.  Row i is shifted by the bound
    leaky_relu(src_i + max_j dst_j) rather than by its masked maximum: the
    leaky step is monotone, so the bound is at least every score of the row
    and exp cannot overflow.  exp runs on every score and the mask
    multiplies its result, so excluded weights are exactly zero.
    A row whose sum falls below ``ATTENTION_ROW_FLOOR`` is the rare case:
    it has no entry in the mask (``NumericError``), or every masked score
    sits more than 40 nats below the bound, and then it is recomputed with
    its exact masked maximum."""
    src, dst = _wrap(src), _wrap(dst)
    if src.data.ndim == 0 or src.data.shape != dst.data.shape:
        raise NumericError(f"additive_attention shape mismatch: {src.data.shape} vs {dst.data.shape}")
    _tape_free(out, (src, dst))
    _tape_free(scratch, (src, dst))
    x = np.add(src.data[..., :, None], dst.data[..., None, :], out=out)
    m = _mask(mask, x.shape)
    np.maximum(x, np.multiply(x, ATTENTION_SLOPE, out=scratch), out=x)
    # the leaky step keeps signs; the pull needs them only on a tape
    pos = x > 0 if src.tape is not None or dst.tape is not None else None
    bound = src.data + dst.data.max(axis=-1, keepdims=True)
    np.maximum(bound, ATTENTION_SLOPE * bound, out=bound)
    np.subtract(x, bound[..., None], out=x)
    np.exp(x, out=x)
    np.multiply(x, m, out=x)
    z = x.sum(axis=-1, keepdims=True)
    low = z[..., 0] < ATTENTION_ROW_FLOOR
    if low.any():
        rows = np.broadcast_to(m, x.shape)[low]
        _require_support(rows)
        scores = src.data[low][:, None] + np.broadcast_to(dst.data[..., None, :], x.shape)[low]
        np.maximum(scores, ATTENTION_SLOPE * scores, out=scores)
        np.copyto(scores, -np.inf, where=~rows)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        x[low] = e / e.sum(axis=-1, keepdims=True)
        z[low] = 1.0
    np.divide(x, z, out=x)

    def pull(g):
        gx = x * (g - (g * x).sum(axis=-1, keepdims=True)) * np.where(pos, 1.0, ATTENTION_SLOPE)
        _acc(src, gx.sum(axis=-1))
        _acc(dst, gx.sum(axis=-2))

    return _result((src, dst), x, pull)


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
    """Named float64 parameter arrays with gradient buffers and Adam state."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, values) -> np.ndarray:
        if name in self._arrays:
            raise InputError(f"parameter {name!r} already registered")
        arr = np.array(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        ensure_finite(arr, f"parameter {name!r}")
        self._arrays[name] = arr
        self._grads[name] = np.zeros_like(arr)
        self._m[name] = np.zeros_like(arr)
        self._v[name] = np.zeros_like(arr)
        return arr

    def names(self) -> list[str]:
        return sorted(self._arrays)

    def get(self, name: str) -> np.ndarray:
        if name not in self._arrays:
            raise InputError(f"unknown parameter {name!r}")
        return self._arrays[name]

    def grad(self, name: str) -> np.ndarray:
        if name not in self._grads:
            raise InputError(f"unknown parameter {name!r}")
        return self._grads[name]

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g[:] = 0.0

    def grad_vector(self) -> np.ndarray:
        """All gradients flattened in name order."""
        return np.concatenate([self._grads[n].ravel() for n in self.names()] or [np.zeros(0)])

    def parameter_count(self) -> int:
        return sum(a.size for a in self._arrays.values())

    def bind(self, tape: Tape | None) -> dict[str, Tensor]:
        """Leaf tensors for every parameter, recorded on ``tape``."""
        return {
            name: Tensor(arr, tape=tape, leaf_ref=(self, name))
            for name, arr in self._arrays.items()
        }

    def accumulate_from_tape(self, tape: Tape) -> None:
        """Add leaf gradients found on the tape into this store's buffers."""
        for t in tape.nodes:
            if t.leaf_ref is not None and t.leaf_ref[0] is self and t.grad is not None:
                self._grads[t.leaf_ref[1]] += t.grad

    def adam_step(self, lr: float) -> None:
        """One Adam update with the ``ADAM_*`` constants; entries with zero
        accumulated gradient are left untouched.  Gradients are cleared
        afterwards.  A non-finite gradient, or a second moment that
        overflows (a finite gradient of 1e200 squares to inf), raises
        ``NumericError`` before that parameter or its moments change."""
        self.step_count += 1
        c1 = 1.0 - ADAM_BETA1**self.step_count
        c2 = 1.0 - ADAM_BETA2**self.step_count
        for name, g in self._grads.items():
            upd = g != 0.0
            if not upd.any():
                continue
            m, v = self._m[name], self._v[name]
            v_next = np.where(upd, ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g, v)
            # one check covers both moments: a non-finite gradient makes v
            # non-finite, and so does any gradient beyond 1e154 (whose square
            # overflows), the only kind that can overflow m
            if not np.isfinite(v_next).all():
                what = "Adam second moment" if np.isfinite(g).all() else "gradient"
                raise NumericError(f"non-finite values in {what} of {name!r}")
            m[:] = np.where(upd, ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g, m)
            v[:] = v_next
            step = lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            self._arrays[name] -= np.where(upd, step, 0.0)
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
