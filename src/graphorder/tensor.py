"""Dense float64 arrays with a reverse-mode gradient tape.

A Tape records tensors in creation order, which is already a topological
order, so the backward pass is a single reverse sweep that visits each node
once.  Ops called on tensors that carry no tape run eagerly and keep nothing,
which doubles as the no-gradient fast path for sampling and evaluation.
Parameters live in a ParameterStore; ``Checkpointable`` writes and reads
the JSON checkpoint of any object built from a config and one store.

Finiteness is checked where values enter or leave the tape, not on every op
result, so an op that overflows returns inf or nan and passes it on.
``NumericError`` is raised for non-finite values in:

- tensors built by calling ``Tensor(...)``, which includes constants that
  ops wrap and the parameter leaves of ``ParameterStore.bind``;
- the outputs of ``exp`` and ``log``;
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
from dataclasses import asdict
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError
from .files import read_text, write_text_atomic


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

    __slots__ = ("data", "grad", "tape", "parents", "pull", "leaf_ref")

    def __init__(
        self,
        data,
        tape: Tape | None = None,
        parents: tuple["Tensor", ...] = (),
        pull: Callable[[np.ndarray], None] | None = None,
        leaf_ref: tuple | None = None,
    ):
        self.data = ensure_finite(np.asarray(data, dtype=np.float64), "tensor data")
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.parents = parents if tape is not None else ()
        self.pull = pull if tape is not None else None
        self.leaf_ref = leaf_ref
        if tape is not None:
            tape.nodes.append(self)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

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
        out.tape, out.parents, out.pull = None, (), None
    else:
        out.tape, out.parents, out.pull = tape, inputs, pull
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


def _elementwise(op, a: Tensor, b: Tensor, name: str) -> np.ndarray:
    """``op(a.data, b.data)`` with numpy broadcasting; operands that do not
    broadcast raise ``NumericError``."""
    try:
        return op(a.data, b.data)
    except ValueError as exc:
        raise NumericError(f"{name} shape mismatch: {a.data.shape} vs {b.data.shape}") from exc


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = _elementwise(np.add, a, b, "add")

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


def sigmoid(x) -> Tensor:
    x = _wrap(x)
    data = 1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500)))

    def pull(g):
        _acc(x, g * data * (1.0 - data))

    return _result((x,), data, pull)


def tanh(x) -> Tensor:
    x = _wrap(x)
    data = np.tanh(x.data)

    def pull(g):
        _acc(x, g * (1.0 - data * data))

    return _result((x,), data, pull)


def relu(x) -> Tensor:
    x = _wrap(x)
    data = np.maximum(x.data, 0.0)

    def pull(g):
        _acc(x, g * (x.data > 0))

    return _result((x,), data, pull)


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    x = _wrap(x)
    data = np.where(x.data > 0, x.data, slope * x.data)

    def pull(g):
        _acc(x, g * np.where(x.data > 0, 1.0, slope))

    return _result((x,), data, pull)


def log(x) -> Tensor:
    x = _wrap(x)
    if (x.data <= 0).any():
        raise NumericError("log of non-positive value")
    data = ensure_finite(np.log(x.data), "log output")

    def pull(g):
        _acc(x, g / x.data)

    return _result((x,), data, pull)


def exp(x) -> Tensor:
    x = _wrap(x)
    with np.errstate(over="ignore"):
        data = ensure_finite(np.exp(x.data), "exp output")

    def pull(g):
        _acc(x, g * data)

    return _result((x,), data, pull)


def log_sigmoid(x) -> Tensor:
    """log(sigmoid(x)), computed stably."""
    x = _wrap(x)
    data = -np.logaddexp(0.0, -x.data)

    def pull(g):
        _acc(x, g * (1.0 / (1.0 + np.exp(np.clip(x.data, -500, 500)))))

    return _result((x,), data, pull)


def tensor_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _wrap(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def pull(g):
        if axis is None:
            _acc(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            _acc(x, np.broadcast_to(g, x.data.shape).copy())

    return _result((x,), data, pull)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _wrap(x)
    count = x.data.size if axis is None else x.data.shape[axis]
    return mul(tensor_sum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(x, shape) -> Tensor:
    x = _wrap(x)
    shape = tuple(int(s) for s in shape)
    data = x.data.reshape(shape)

    def pull(g):
        _acc(x, g.reshape(x.data.shape))

    return _result((x,), data, pull)


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    parts = tuple(_wrap(t) for t in tensors)
    if not parts:
        raise InputError("concat needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def pull(g):
        offsets = np.cumsum([0] + sizes)
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _acc(p, g[tuple(idx)])

    return _result(parts, data, pull)


def gather_rows(x, indices) -> Tensor:
    """Rows of x selected along axis 0; duplicate indices sum in the backward
    pass."""
    x = _wrap(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise InputError("gather_rows expects a 1-D index list")
    if x.data.ndim < 1:
        raise NumericError("gather_rows operand must be at least 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise InputError("gather_rows index out of range")
    data = x.data[idx]

    def pull(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, idx, g)
        _acc(x, buf)

    return _result((x,), data, pull)


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


def _masked_parts(x: Tensor, mask) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    m = np.asarray(mask, dtype=bool)
    mb = np.broadcast_to(m, x.data.shape)
    # broadcasting only repeats the mask's rows, so unless the broadcast
    # mask is empty (or the mask has no rows) the mask as passed decides
    rows = mb if mb.size == 0 or m.ndim == 0 else m
    if not rows.any(axis=-1).all():
        raise NumericError("masked softmax row with empty support")
    shifted = np.where(mb, x.data, -np.inf)
    mx = shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted - mx)
    z = e.sum(axis=-1, keepdims=True)
    return mb, e / z, mx, z


def masked_softmax(x, mask) -> Tensor:
    """Softmax over the last axis restricted to mask; excluded entries are
    exactly zero.  Uses the max-shifted stable form."""
    x = _wrap(x)
    mb, p, _, _ = _masked_parts(x, mask)

    def pull(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        _acc(x, p * (g - dot))

    return _result((x,), p, pull)


def masked_log_softmax(x, mask) -> Tensor:
    """Log-probabilities over the last axis restricted to mask; excluded
    entries are set to zero and must not be read."""
    x = _wrap(x)
    mb, p, mx, z = _masked_parts(x, mask)
    data = np.where(mb, x.data - (mx + np.log(z)), 0.0)

    def pull(g):
        gm = g * mb
        s = gm.sum(axis=-1, keepdims=True)
        _acc(x, gm - np.where(mb, p * s, 0.0))

    return _result((x,), data, pull)


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

    def adam_step(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        """One Adam update; entries with zero accumulated gradient are left
        untouched.  Gradients are cleared afterwards.  A non-finite gradient,
        or a second moment that overflows (a finite gradient of 1e200
        squares to inf), raises ``NumericError`` before that parameter or its
        moments change."""
        self.step_count += 1
        c1 = 1.0 - beta1**self.step_count
        c2 = 1.0 - beta2**self.step_count
        for name, g in self._grads.items():
            upd = g != 0.0
            if not upd.any():
                continue
            m, v = self._m[name], self._v[name]
            v_next = np.where(upd, beta2 * v + (1.0 - beta2) * g * g, v)
            # one check covers both moments: a non-finite gradient makes v
            # non-finite, and so does any gradient beyond 1e154 (whose square
            # overflows), the only kind that can overflow m
            if not np.isfinite(v_next).all():
                what = "Adam second moment" if np.isfinite(g).all() else "gradient"
                raise NumericError(f"non-finite values in {what} of {name!r}")
            m[:] = np.where(upd, beta1 * m + (1.0 - beta1) * g, m)
            v[:] = v_next
            step = lr * (m / c1) / (np.sqrt(v / c2) + eps)
            self._arrays[name] -= np.where(upd, step, 0.0)
            g[:] = 0.0


def checkpoint_document(store: ParameterStore, model_kind: str, metadata: dict) -> dict:
    """JSON-ready checkpoint: parameter name -> {shape, values} plus metadata."""
    return {
        "modelKind": model_kind,
        "metadata": metadata,
        "parameters": {
            name: {
                "shape": list(store.get(name).shape),
                "values": store.get(name).ravel().tolist(),
            }
            for name in store.names()
        },
    }


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


def check_positive_ints(cfg, names: Sequence[str]) -> None:
    """Raise ``InputError`` unless each named field of the config ``cfg`` is
    an integer of at least 1 (a bool is not one)."""
    for name in names:
        value = getattr(cfg, name)
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
        return checkpoint_document(self.store, self.kind, meta)

    def save(self, path, metadata: dict | None = None) -> None:
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
