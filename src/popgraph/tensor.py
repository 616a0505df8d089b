"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable operation the pipeline needs lives here: elementwise
arithmetic with numpy-style broadcasting, matmul (whose left operand may also
be a constant ``scipy.sparse`` matrix, the graph adjacencies and pooling
matrices of batched graphs), activations, reductions, row softmax, pairwise
Euclidean distances, and the finite-difference oracle the test suite leans on.

Everything is float64. Tensors produced by an operation record their parents
and a local gradient rule; ``backward`` replays those rules over the tape in
reverse topological order, handing each rule its output's gradient. The rules
never refer to their own output, so a finished step's tensors are freed by
reference counting alone.
"""

import numpy as np
import scipy.sparse as sp


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class Tensor:
    """A dense float64 array plus reverse-mode bookkeeping.

    Leaf tensors are created directly; non-leaf tensors are created by the
    operations below and carry a closure implementing their local gradient
    rule. ``grad`` is populated by ``backward`` for every tensor with
    ``requires_grad`` reachable from the loss.
    """

    def __init__(self, data, requires_grad=False, name=""):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        nm = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{req}{nm})"

    # operators
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scalar_mul(self, float(other))
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scalar_mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def backward(self) -> None:
        """Populate ``grad`` for every requires_grad ancestor of this scalar.

        Gradients are freshly initialised on each call (no accumulation
        across separate backward calls); fan-out within one call accumulates
        additively.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        tape = Tape.trace(self)
        for node in tape.entries:
            if node.requires_grad:
                node.grad = np.zeros_like(node.data)
        if self.requires_grad:
            self.grad = np.ones_like(self.data)
        for node in reversed(tape.entries):
            if node._backward is not None:
                node._backward(node.grad)


class Tape:
    """Topologically ordered record of the operations below one root.

    ``entries[i]`` appears after every tensor that produced one of its
    inputs, so a single reverse sweep visits each recorded operation
    exactly once.
    """

    def __init__(self, entries):
        self.entries = entries

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        return cls(order)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, parents, backward_fn) -> Tensor:
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad += _unbroadcast(g, t.data.shape)


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _record(out, (a, b), backward)


def scalar_mul(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s)

    def backward(g):
        _accumulate(a, g * s)

    return _record(out, (a,), backward)


def matmul(a, b: Tensor) -> Tensor:
    """a @ b; ``a`` is a Tensor or a constant scipy.sparse matrix.

    Gradients are formed only for operands that require them, so a constant
    operand (a sparse adjacency, a fixed dense graph) costs no backward work.
    """
    sparse = sp.issparse(a)
    a_data = a if sparse else a.data
    if a_data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-D operands, got {a_data.shape} and {b.data.shape}"
        )
    if a_data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a_data.shape} vs {b.data.shape}"
        )
    out = Tensor(a_data @ b.data)

    def backward(g):
        if not sparse and a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a_data.T @ g)

    return _record(out, (b,) if sparse else (a, b), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient 0 at exactly 0
    out = Tensor(np.where(mask, a.data, 0.0))

    def backward(g):
        _accumulate(a, g * mask)

    return _record(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)

    def backward(g):
        _accumulate(a, g * y * (1.0 - y))

    return _record(out, (a,), backward)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y)

    def backward(g):
        _accumulate(a, g * y)

    return _record(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise ValueError("log: input contains non-finite values")
    out = Tensor(np.log(a.data))

    def backward(g):
        _accumulate(a, g / a.data)

    return _record(out, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise ValueError("softmax: input contains non-finite values")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def backward(g):
        _accumulate(a, (g - (g * y).sum(axis=axis, keepdims=True)) * y)

    return _record(out, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise ValueError("log_softmax: input contains non-finite values")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor(y)

    def backward(g):
        _accumulate(a, g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    return _record(out, (a,), backward)


def tensor_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _record(out, (a,), backward)


def tensor_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    count = a.data.size if axis is None else a.data.shape[axis]
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g / count, a.data.shape).copy())

    return _record(out, (a,), backward)


def pairwise_euclidean(a: Tensor) -> Tensor:
    """Row-wise pairwise Euclidean distance matrix.

    Uses the expanded form with squared distances clamped at 0 before the
    square root; the subgradient at exactly-zero distance is 0, so the
    all-zero diagonal never produces NaN gradients. The result is exactly
    symmetric with an exactly-zero diagonal.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"pairwise_euclidean expects a 2-D input, got {a.data.shape}")
    x = a.data
    gram = x @ x.T
    sq_norms = np.diag(gram)
    sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram
    sq = 0.5 * (sq + sq.T)
    np.maximum(sq, 0.0, out=sq)
    np.fill_diagonal(sq, 0.0)
    dist = np.sqrt(sq)
    out = Tensor(dist)

    def backward(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(dist > 0.0, (g + g.T) / dist, 0.0)
        _accumulate(a, w.sum(axis=1)[:, None] * x - w @ x)

    return _record(out, (a,), backward)


def concatenate(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    spans = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, spans, axis=axis)):
            _accumulate(t, piece)

    return _record(out, tuple(tensors), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D input, got {a.data.shape}")
    out = Tensor(a.data.T.copy())

    def backward(g):
        _accumulate(a, g.T)

    return _record(out, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape).copy())

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _record(out, (a,), backward)


def greater(a: Tensor, threshold: float) -> Tensor:
    """Elementwise 0/1 mask for ``a > threshold``; non-differentiable."""
    return Tensor((a.data > threshold).astype(np.float64))


def stop_gradient(a: Tensor) -> Tensor:
    """Identity on values; blocks all gradient flow."""
    return Tensor(a.data.copy())


def finite_difference_check(f, x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map the current tensor state to a scalar Tensor; ``x`` is
    perturbed coordinate-by-coordinate in place. Error per coordinate is
    |analytic - numeric| / max(1, |analytic|); NaN anywhere propagates to
    the returned value.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    loss = f(x)
    loss.backward()
    if x.grad is None:
        raise ValueError("x does not receive a gradient from f")
    analytic = x.grad.reshape(-1).copy()
    flat = x.data.reshape(-1)
    numeric = np.zeros_like(analytic)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = float(f(x).data)
        flat[i] = orig - step
        down = float(f(x).data)
        flat[i] = orig
        numeric[i] = (up - down) / (2.0 * step)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(np.max(err)) if err.size else 0.0
