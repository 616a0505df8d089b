"""Dense float64 tensors with reverse-mode automatic differentiation.

It holds the differentiable operations the model runs, and only those:
elementwise arithmetic with numpy-style broadcasting, matmul (whose left
operand may also be a constant ``scipy.sparse`` matrix, the pooling matrices
of batched graphs), relu, exp and log, sums, and softmax and log-softmax
along an axis; plus the finite-difference oracle the test suite leans on.
The model's fused ops are built from the same ``_record`` and
``_accumulate``: the graph convolution with its relu, ``nn.GraphConv``, and
the two N x N ops, the latent graph's edge weights and the NDDL degree
histogram, in ``latent_graph`` and ``degree_loss``. ``nn.GraphConv`` builds
its output in one buffer, the bias, into which BLAS adds both projections
with beta 1 (``nn.add_matmul``); on f1's first layer its neighbour sums are
a per-batch constant, ``GraphBatch.aggregated_features``, computed once.

Everything is float64. ``Tensor(...)`` builds leaves and constants from a copy
of its input, so a leaf never aliases the caller's array; an operation wraps
the array it has just computed as its output without copying it again.
Tensors produced by an operation record their parents and a local gradient
rule; ``backward`` replays those rules over the tape in reverse topological
order, handing each rule its output's gradient. The rules never refer to
their own output tensor, so a finished step's tensors are freed by reference
counting alone.

Gradients are lazy and only leaves keep them. A gradient array is allocated
by its first accumulation, not zero-filled up front, and an operation
output's ``grad`` is dropped as soon as its rule has run. A leaf with
``requires_grad`` that the loss reaches ends ``backward`` with a gradient
that owns its memory, zero when nothing accumulated into it.
"""

import numpy as np
import scipy.sparse as sp


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class Tensor:
    """A dense float64 array plus reverse-mode bookkeeping.

    Leaf tensors are created directly; non-leaf tensors are created by the
    operations below and carry a closure implementing their local gradient
    rule. ``backward`` populates ``grad`` for every leaf with
    ``requires_grad`` reachable from the loss; a non-leaf holds its gradient
    only while ``backward`` runs.
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

    def backward(self) -> None:
        """Populate ``grad`` for every requires_grad leaf below this scalar.

        Leaf gradients are fresh on each call (no accumulation across
        separate backward calls); fan-out within one call accumulates
        additively. Non-leaf gradients are released once their rule has run.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        tape = Tape.trace(self)
        for node in tape.entries:
            node.grad = None
        if self.requires_grad:
            self.grad = np.ones_like(self.data)
        for node in reversed(tape.entries):
            if node._backward is not None:
                g, node.grad = node.grad, None
                if g is not None:
                    node._backward(g)
            elif node.requires_grad and node.grad is None:
                node.grad = np.zeros_like(node.data)


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


def _record(data, parents, backward_fn) -> Tensor:
    """Wrap an op's freshly computed result, without a copy, as its output.

    The output joins the tape only when a parent requires a gradient.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    out.name = ""
    out._parents = tuple(parents) if out.requires_grad else ()
    out._backward = backward_fn if out.requires_grad else None
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
    """Add ``g`` to ``t.grad``, allocating it on the first accumulation.

    ``g`` may be shared: a rule can hand one array to several parents, or pass
    its own output gradient through. So an operation output borrows ``g`` and
    later accumulations build a new sum instead of adding in place, while a
    leaf copies ``g`` once and then owns, and adds into, its gradient.
    """
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    if t.grad is None:
        t.grad = g if t._backward is not None else np.array(g, dtype=np.float64)
    elif t._backward is not None:
        t.grad = t.grad + g
    else:
        t.grad += g


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _record(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _record(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _record(a.data * b.data, (a, b), backward)


def scalar_mul(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accumulate(a, g * s)

    return _record(a.data * s, (a,), backward)


def matmul(a, b: Tensor) -> Tensor:
    """a @ b; ``a`` is a Tensor or a constant scipy.sparse matrix.

    Gradients are formed only for operands that require them, so a constant
    operand (a sparse pooling matrix, a constant input) costs no backward work.
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

    def backward(g):
        if not sparse and a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a_data.T @ g)

    return _record(a_data @ b.data, (b,) if sparse else (a, b), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient 0 at exactly 0

    def backward(g):
        _accumulate(a, g * mask)

    return _record(np.where(mask, a.data, 0.0), (a,), backward)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * y)

    return _record(y, (a,), backward)


def log(a: Tensor) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise ValueError("log: input contains non-finite values")

    def backward(g):
        _accumulate(a, g / a.data)

    return _record(np.log(a.data), (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise ValueError("softmax: input contains non-finite values")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        _accumulate(a, (g - (g * y).sum(axis=axis, keepdims=True)) * y)

    return _record(y, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise ValueError("log_softmax: input contains non-finite values")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    def backward(g):
        _accumulate(a, g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    return _record(y, (a,), backward)


def tensor_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _record(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


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
    # a numpy scalar (left by ``t.data = t.data + eps`` on a 0-d parameter)
    # reshapes to a copy, so perturbing it would never reach ``f``
    x.data = np.asarray(x.data, dtype=np.float64)
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
