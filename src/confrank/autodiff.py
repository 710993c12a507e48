"""Minimal reverse-mode differentiation on numpy arrays.

A ``Tape`` records operations as they execute (define-by-run) and replays
them in reverse to accumulate gradients into ``Parameter`` objects. Only
the handful of ops the ranking model needs are provided: dense layers,
component-wise activations, embedding lookups, elementwise arithmetic,
reductions, concatenation, a binary cross-entropy loss and a stop-gradient
barrier.

Everything is float64. Tapes are single-use: build one per forward pass.

Needs-grad rule: a node needs a gradient when a parameter can receive one
through it. Constants and stop-gradient outputs do not; on a recording tape
the outputs of ``leaf``, ``dense`` and ``embedding`` do, and any other op's
output does when one of its inputs does. An op whose output needs no
gradient records no backward function, and a backward function computes no
gradient for an input that needs none. A gradless tape, ``Tape(grad=False)``,
is for inference: its parameter-backed outputs need no gradient either, so
it records nothing and a forward pass on it keeps no activation alive past
its last use. Backward functions do not capture their tape, so a tape is
never part of a reference cycle.

Buffer ownership: an ``Adam`` optimizer holds every parameter's value,
gradient and both moments in one contiguous buffer each, in ``params``
order; ``Parameter.value`` and ``Parameter.grad`` are views into those
buffers, and assigning to ``value`` copies into the view. Building a second
optimizer over the same parameters re-homes them into its own buffers; the
first optimizer then no longer updates them.

Node gradients are never modified in place: the first gradient a node
receives is stored as is and later ones are added out of place, so a
backward function may pass its incoming gradient (or a view of it) on.
Likewise no op changes a node's data once the node is built (``dense``
works in place only on its own new output), so nodes may share arrays:
``stop_gradient`` returns its input's array.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes do not conform."""


class EmbeddingIndexError(IndexError):
    """Raised on an out-of-vocabulary embedding lookup."""


_F64 = np.dtype(np.float64)


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """np.clip(x, lo, hi) for float64 x, NaN and infinities included,
    without np.clip's Python dispatch."""
    return np.minimum(np.maximum(x, lo), hi)


class Node:
    """A value produced on a tape. Holds data and (during backward) a grad.

    ``needs_grad`` says whether a parameter can receive gradient through it.
    """

    __slots__ = ("data", "grad", "needs_grad")

    def __init__(self, data, needs_grad: bool = False):
        # an exact float64 ndarray is kept as is; anything else converts
        self.data = data if type(data) is np.ndarray and data.dtype is _F64 else _as_f64(data)
        self.grad = None
        self.needs_grad = needs_grad


class Parameter:
    """Named trainable array with a persistent gradient buffer.

    ``value`` and ``grad`` keep their arrays for life (an optimizer may move
    them into its buffers); assigning to ``value`` copies into its array.
    """

    def __init__(self, name: str, value):
        self.name = name
        self._value = np.array(value, dtype=np.float64)
        self._grad = np.zeros_like(self._value)

    @property
    def value(self) -> np.ndarray:
        return self._value

    @value.setter
    def value(self, arr):
        try:
            arr = _as_f64(arr)
        except (TypeError, ValueError) as e:
            raise ShapeMismatchError(f"{self.name} value is not an array of numbers: {e}") from None
        if arr.shape != self.shape:
            raise ShapeMismatchError(
                f"cannot assign shape {arr.shape} to {self.name} value of shape {self.shape}")
        self._value[...] = arr

    @property
    def grad(self) -> np.ndarray:
        return self._grad

    @property
    def shape(self):
        return self._value.shape

    def _rehome(self, value: np.ndarray, grad: np.ndarray):
        """Move value and grad into the given flat slices of an owner's buffers."""
        value[:] = self._value.ravel()
        grad[:] = self._grad.ravel()
        self._value = value.reshape(self.shape)
        self._grad = grad.reshape(self.shape)


def _spread(g, axis, like: np.ndarray) -> np.ndarray:
    """Broadcast a reduction's output gradient back over the reduced axis."""
    if axis is None:
        return np.full_like(like, g)
    kept = list(like.shape)
    kept[axis] = 1
    out = np.empty_like(like)
    out[...] = g.reshape(kept)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accum(node: Node, g: np.ndarray):
    node.grad = g if node.grad is None else node.grad + g


class Tape:
    """Ordered op record; backward() replays it in strict reverse order.

    ``Tape(grad=False)`` records nothing (see the module docstring).
    """

    def __init__(self, grad: bool = True):
        self.recording = grad
        self._ops = []  # (output Node, backward fn taking output grad)

    # -- leaves ---------------------------------------------------------

    def constant(self, data) -> Node:
        return Node(data)

    def leaf(self, param: Parameter) -> Node:
        node = Node(param.value, self.recording)
        if node.needs_grad:
            def back(g):
                param._grad += g

            self._ops.append((node, back))
        return node

    # -- elementwise ----------------------------------------------------

    def add(self, a: Node, b: Node) -> Node:
        out = Node(a.data + b.data, a.needs_grad or b.needs_grad)
        if out.needs_grad:
            def back(g):
                if a.needs_grad:
                    _accum(a, _unbroadcast(g, a.data.shape))
                if b.needs_grad:
                    _accum(b, _unbroadcast(g, b.data.shape))

            self._ops.append((out, back))
        return out

    def sub(self, a: Node, b: Node) -> Node:
        out = Node(a.data - b.data, a.needs_grad or b.needs_grad)
        if out.needs_grad:
            def back(g):
                if a.needs_grad:
                    _accum(a, _unbroadcast(g, a.data.shape))
                if b.needs_grad:
                    _accum(b, _unbroadcast(-g, b.data.shape))

            self._ops.append((out, back))
        return out

    def mul(self, a: Node, b: Node) -> Node:
        out = Node(a.data * b.data, a.needs_grad or b.needs_grad)
        if out.needs_grad:
            def back(g):
                if a.needs_grad:
                    _accum(a, _unbroadcast(g * b.data, a.data.shape))
                if b.needs_grad:
                    _accum(b, _unbroadcast(g * a.data, b.data.shape))

            self._ops.append((out, back))
        return out

    def scale(self, a: Node, c: float) -> Node:
        out = Node(a.data * c, a.needs_grad)
        if out.needs_grad:
            def back(g):
                _accum(a, g * c)

            self._ops.append((out, back))
        return out

    def relu(self, a: Node) -> Node:
        out = Node(np.maximum(a.data, 0.0), a.needs_grad)
        if out.needs_grad:
            def back(g):
                _accum(a, g * (a.data > 0.0))

            self._ops.append((out, back))
        return out

    def sigmoid(self, a: Node) -> Node:
        s = 1.0 / (1.0 + np.exp(-a.data))
        out = Node(s, a.needs_grad)
        if out.needs_grad:
            def back(g):
                _accum(a, g * s * (1.0 - s))

            self._ops.append((out, back))
        return out

    def log(self, a: Node) -> Node:
        out = Node(np.log(a.data), a.needs_grad)
        if out.needs_grad:
            def back(g):
                _accum(a, g / a.data)

            self._ops.append((out, back))
        return out

    def abs(self, a: Node) -> Node:
        out = Node(np.abs(a.data), a.needs_grad)
        if out.needs_grad:
            def back(g):
                _accum(a, g * np.sign(a.data))

            self._ops.append((out, back))
        return out

    def clip(self, a: Node, lo: float, hi: float) -> Node:
        """Clamp values; gradient passes through only where unclipped."""
        out = Node(clamp(a.data, lo, hi), a.needs_grad)
        if out.needs_grad:
            def back(g):
                _accum(a, g * ((a.data > lo) & (a.data < hi)))

            self._ops.append((out, back))
        return out

    def softmax(self, a: Node) -> Node:
        """Softmax over the last axis."""
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        s = e / e.sum(axis=-1, keepdims=True)
        out = Node(s, a.needs_grad)
        if out.needs_grad:
            def back(g):
                dot = (g * s).sum(axis=-1, keepdims=True)
                _accum(a, s * (g - dot))

            self._ops.append((out, back))
        return out

    # -- reductions -----------------------------------------------------

    def sum(self, a: Node, axis=None) -> Node:
        """Sum over axis (all axes if None); over an axis of length 1 it is a
        reshape, which drops the axis without a copy."""
        shape = a.data.shape
        if axis is not None and shape[axis] == 1:
            axis %= len(shape)
            out = Node(a.data.reshape(shape[:axis] + shape[axis + 1:]), a.needs_grad)
            if out.needs_grad:
                def back(g):
                    _accum(a, g.reshape(shape))

                self._ops.append((out, back))
            return out
        out = Node(a.data.sum(axis=axis), a.needs_grad)
        if out.needs_grad:
            def back(g):
                _accum(a, _spread(g, axis, a.data))

            self._ops.append((out, back))
        return out

    def mean(self, a: Node, axis=None) -> Node:
        """sum * (1/n), not ndarray.mean, so the bits match a scaled sum."""
        c = 1.0 / (a.data.size if axis is None else a.data.shape[axis])
        out = Node(a.data.sum(axis=axis) * c, a.needs_grad)
        if out.needs_grad:
            def back(g):
                _accum(a, _spread(g * c, axis, a.data))

            self._ops.append((out, back))
        return out

    # -- losses ---------------------------------------------------------

    def bce(self, p: Node, y, lo: float, hi: float) -> Node:
        """Mean binary cross-entropy of probabilities p ([n]) against labels y,
        with p clipped to [lo, hi]. One node, with the float ops, in their
        order, of the chain clip, log, mul, sub, add, mean and scale by -1."""
        y = _as_f64(y)
        pc = clamp(p.data, lo, hi)
        not_y, not_pc = 1.0 - y, 1.0 - pc
        s = y * np.log(pc) + not_y * np.log(not_pc)
        c = 1.0 / s.size
        out = Node((s.sum() * c) * -1.0, p.needs_grad)
        if out.needs_grad:
            def back(g):
                gs = np.full_like(s, (g * -1.0) * c)
                d = -((gs * not_y) / not_pc) + (gs * y) / pc
                _accum(p, d * ((p.data > lo) & (p.data < hi)))

            self._ops.append((out, back))
        return out

    # -- linear algebra -------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ShapeMismatchError(
                f"matmul shapes do not conform: {a.data.shape} @ {b.data.shape}"
            )
        out = Node(a.data @ b.data, a.needs_grad or b.needs_grad)
        if out.needs_grad:
            def back(g):
                if a.needs_grad:
                    _accum(a, g @ b.data.T)
                if b.needs_grad:
                    _accum(b, a.data.T @ g)

            self._ops.append((out, back))
        return out

    def dense(self, x: Node, weights: Parameter, bias: Parameter, relu: bool = False,
              residual: Node | None = None) -> Node:
        """x @ W + b with [batch, in] x [in, out] + [out], then max(., 0) if
        relu, then + residual ([batch, out]) if given. One output array: the
        bias, relu and residual are applied to the product in place."""
        if x.data.ndim != 2 or x.data.shape[1] != weights.shape[0]:
            raise ShapeMismatchError(
                f"dense input {x.data.shape} does not match weights {weights.shape}"
            )
        if bias.shape != (weights.shape[1],):
            raise ShapeMismatchError(
                f"dense bias {bias.shape} does not match weights {weights.shape}"
            )
        if residual is not None and residual.data.shape != (x.data.shape[0], weights.shape[1]):
            raise ShapeMismatchError(
                f"dense residual {residual.data.shape} does not match output "
                f"{(x.data.shape[0], weights.shape[1])}"
            )
        w = weights.value
        y = x.data @ w
        y += bias.value
        active = None
        if relu:
            np.maximum(y, 0.0, out=y)
            if self.recording:
                active = y > 0.0
        if residual is not None:
            y += residual.data
        out = Node(y, self.recording)
        if out.needs_grad:
            def back(g):
                if residual is not None and residual.needs_grad:
                    _accum(residual, g)
                if relu:
                    g = g * active
                weights._grad += x.data.T @ g
                bias._grad += np.add.reduce(g, axis=0)
                if x.needs_grad:
                    _accum(x, g @ w.T)

            self._ops.append((out, back))
        return out

    def concat(self, nodes: list, axis: int = 1) -> Node:
        """Join along axis; backward hands each input its slice of the
        gradient as a view."""
        out = Node(np.concatenate([n.data for n in nodes], axis=axis),
                   any(n.needs_grad for n in nodes))
        if out.needs_grad:
            lead = (slice(None),) * (axis % out.data.ndim)
            pieces, lo = [], 0
            for node in nodes:
                hi = lo + node.data.shape[axis]
                if node.needs_grad:
                    pieces.append((node, (*lead, slice(lo, hi))))
                lo = hi

            def back(g):
                for node, where in pieces:
                    _accum(node, g[where])

            self._ops.append((out, back))
        return out

    def slice_cols(self, a: Node, start: int, stop: int) -> Node:
        out = Node(a.data[:, start:stop], a.needs_grad)
        if out.needs_grad:
            def back(g):
                full = np.zeros_like(a.data)
                full[:, start:stop] = g
                _accum(a, full)

            self._ops.append((out, back))
        return out

    # -- embeddings -----------------------------------------------------

    def embedding(self, rows: Parameter, indices) -> Node:
        """Rows of a [vocab, dim] parameter, one per index."""
        idx = np.asarray(indices, dtype=np.int64)
        vocab = rows.shape[0]
        if idx.size and (idx.min() < 0 or idx.max() >= vocab):
            bad = idx[(idx < 0) | (idx >= vocab)][0]
            raise EmbeddingIndexError(f"index {bad} out of range for vocab of {vocab}")
        out = Node(rows.value[idx], self.recording)
        if out.needs_grad:
            def back(g):
                np.add.at(rows._grad, idx, g)

            self._ops.append((out, back))
        return out

    # -- control --------------------------------------------------------

    def stop_gradient(self, a: Node) -> Node:
        """Forward identity sharing a's array; nothing is recorded, so no
        gradient flows back."""
        return Node(a.data)

    def backward(self, loss: Node):
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, back in reversed(self._ops):
            if out.grad is not None:
                back(out.grad)


def check_names(what: str, entries, names):
    """Refuse `entries` unless it is a mapping keyed by exactly the parameter
    names `names`: ValueError names `what` and the first name missing or unknown."""
    if not isinstance(entries, dict):
        raise ValueError(f"{what} is not a mapping but {type(entries).__name__}")
    missing = [n for n in names if n not in entries]
    unknown = [n for n in entries if n not in names]
    if missing or unknown:
        raise ValueError(f"{what} has no entry for parameter {missing[0]!r}" if missing else
                         f"{what} has an entry for unknown parameter {unknown[0]!r}")


class Adam:
    """Adam with bias correction; state is serializable for warm starts.

    Owns one flat buffer each for the values, gradients and both moments of
    ``params`` (see the module docstring), so a step is a few whole-buffer
    ops and all parameters share one step count ``t``.
    """

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        n = sum(p.value.size for p in self.params)
        self._value, self._grad = np.empty(n), np.empty(n)
        self._m, self._v = np.zeros(n), np.zeros(n)
        self._scratch = np.empty(n), np.empty(n)  # step's temporaries
        self._moments = {}  # name -> (m view, v view)
        lo = 0
        for p in self.params:
            hi = lo + p.value.size
            p._rehome(self._value[lo:hi], self._grad[lo:hi])
            self._moments[p.name] = (self._m[lo:hi].reshape(p.shape),
                                     self._v[lo:hi].reshape(p.shape))
            lo = hi

    @property
    def state(self) -> dict:
        """name -> {"m", "v", "t"}; m and v are views into the moment buffers."""
        return {name: {"m": m, "v": v, "t": self.t} for name, (m, v) in self._moments.items()}

    def zero_grads(self):
        self._grad.fill(0.0)

    def step(self):
        # Same arithmetic, element for element, as the per-parameter formula
        # m = b1 m + (1-b1) g; v = b2 v + (1-b2) g^2;
        # p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
        self.t += 1
        g, m, v = self._grad, self._m, self._v
        a, b = self._scratch
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        np.square(g, out=a)
        v += np.multiply(a, 1.0 - self.beta2, out=a)
        denom = np.sqrt(np.divide(v, 1.0 - self.beta2 ** self.t, out=a), out=a)
        denom += self.eps
        step = np.multiply(np.divide(m, 1.0 - self.beta1 ** self.t, out=b), self.lr, out=b)
        self._value -= np.divide(step, denom, out=b)

    def load_state_dict(self, state: dict):
        """Moments and step count from `state`, which must name exactly this
        optimizer's parameters, each with a mapping holding an integer step
        count "t" >= 0 and moments "m" and "v" of the parameter's shape;
        otherwise ValueError names the first parameter and key at fault.
        Nothing is loaded unless all of it is valid."""
        check_names("optimizer state", state, self._moments)
        for name, st in state.items():
            if not isinstance(st, dict):
                raise ValueError(f"optimizer state for parameter {name!r} is not a mapping")
            t = st.get("t")
            if not isinstance(t, (int, np.integer)) or isinstance(t, bool) or t < 0:
                raise ValueError(f"optimizer state for parameter {name!r} has no integer "
                                 f"step count 't' >= 0 (got {t!r})")
            shape = self._moments[name][0].shape
            for key in ("m", "v"):
                arr = st.get(key)
                if not (isinstance(arr, np.ndarray) and arr.shape == shape):
                    got = (f"shape {arr.shape}" if isinstance(arr, np.ndarray)
                           else type(arr).__name__)
                    raise ValueError(f"optimizer state for parameter {name!r} has {key!r} "
                                     f"of {got}, not an array of shape {shape}")
        steps = {int(st["t"]) for st in state.values()}
        if len(steps) > 1:
            raise ValueError(f"optimizer state has unequal step counts {sorted(steps)}")
        for name, st in state.items():
            m, v = self._moments[name]
            m[...] = _as_f64(st["m"])
            v[...] = _as_f64(st["v"])
        if steps:
            self.t = steps.pop()


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
