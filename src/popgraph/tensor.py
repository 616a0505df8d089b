"""Dense float64 tensors with reverse-mode automatic differentiation.

It holds the differentiable operations the model runs: elementwise
arithmetic with numpy-style broadcasting, matmul, relu, exp and log, the sum
of all elements, and log-softmax along the last axis; plus the
finite-difference oracle the test suite leans on. The model's fused ops are
built from the same ``_record`` and ``_accumulate``: f1, the per-graph stack
of graph convolutions and its pooling, ``node_level.NodeLevelModule.forward``;
f3's graph convolution over the population graph, ``nn.GraphConv``;
and the population graph's edge weights and NDDL, in ``latent_graph`` and
``degree_loss``. Each of those modules documents its own op.

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

from .data import check_real


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
        self._factored = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        nm = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{req}{nm})"

    # operators
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def sum(self):
        return tensor_sum(self)

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


def check_tensor(name: str, value) -> None:
    """Raise ``TypeError`` naming ``name`` and the type given unless ``value`` is a Tensor."""
    if not isinstance(value, Tensor):
        raise TypeError(f"{name} must be a Tensor, not {type(value).__name__}")


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


class FactoredGrad:
    """An n x n gradient held as a sum of terms.

    Its terms are outer products u v^T, from pairs of n x r arrays (u, v);
    masked row broadcasts [a > threshold] c 1^T, from pairs (threshold, c)
    of a float and a length-n vector, where a is the data of the tensor the
    gradient belongs to; and plain n x n arrays. A rule sends a parent one
    term as ``FactoredGrad(outer=[(u, v)])`` or
    ``FactoredGrad(masked=[(threshold, c)])``.
    """

    def __init__(self, outer=(), masked=(), dense=()):
        self.outer = list(outer)
        self.masked = list(masked)
        self.dense = list(dense)

    def extend(self, other: "FactoredGrad") -> None:
        self.outer += other.outer
        self.masked += other.masked
        self.dense += other.dense

    def to_dense(self, a: np.ndarray) -> np.ndarray:
        """The sum of the terms as one array, the masks taken from ``a``.

        A lone dense term is returned as it is, so the result may be shared,
        as an array gradient may.
        """
        parts = ([u @ v.T for u, v in self.outer]
                 + [(a > threshold) * c[:, None] for threshold, c in self.masked] + self.dense)
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total


def _record(data, parents, backward_fn, factored=False) -> Tensor:
    """Wrap an op's freshly computed result, without a copy, as its output.

    The output joins the tape only when a parent requires a gradient. With
    ``factored``, ``backward_fn`` takes the output's gradient as a
    :class:`FactoredGrad`.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    out.name = ""
    out._parents = tuple(parents) if out.requires_grad else ()
    out._backward = backward_fn if out.requires_grad else None
    out._factored = factored and out.requires_grad
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


def _accumulate(t: Tensor, g) -> None:
    """Add ``g``, an array or a :class:`FactoredGrad`, to ``t.grad``,
    allocating it on the first accumulation.

    An op output recorded with ``factored`` appends ``g`` to its
    ``FactoredGrad`` as terms; for any other target a ``FactoredGrad`` is first
    made dense. ``g`` may be shared: a rule can hand one array to several
    parents, or pass its own output gradient through. So an operation output
    borrows ``g`` and later accumulations build a new sum instead of adding in
    place, while a leaf copies ``g`` once and then owns, and adds into, its
    gradient.
    """
    if not t.requires_grad:
        return
    if t._factored:
        if t.grad is None:
            t.grad = FactoredGrad()
        if not isinstance(g, FactoredGrad):
            g = FactoredGrad(dense=[_unbroadcast(g, t.data.shape)])
        t.grad.extend(g)
        return
    if isinstance(g, FactoredGrad):
        g = g.to_dense(t.data)
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b of two 2-D Tensors.

    Gradients are formed only for operands that require them, so a constant
    operand costs no backward work.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.data.shape} vs {b.data.shape}"
        )

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record(a.data @ b.data, (a, b), backward)


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


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax along the last axis; ``exp`` of it gives probabilities."""
    if not np.all(np.isfinite(a.data)):
        raise ValueError("log_softmax: input contains non-finite values")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse

    def backward(g):
        _accumulate(a, g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return _record(y, (a,), backward)


def tensor_sum(a: Tensor) -> Tensor:
    """The sum of every element, as a 0-d tensor."""
    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _record(a.data.sum(), (a,), backward)


def finite_difference_check(f, x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map the current tensor state to a scalar Tensor; ``x`` is
    perturbed coordinate-by-coordinate in place. Error per coordinate is
    |analytic - numeric| / max(1, |analytic|); NaN anywhere propagates to
    the returned value. Raises ``ValueError`` naming a ``step`` that is not a
    finite positive real number, and when ``f`` gives ``x`` no gradient.
    """
    check_real("step", step)
    if step <= 0:
        raise ValueError(f"step={step!r} is not positive")
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
