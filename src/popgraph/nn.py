"""Parameter containers, and the graph-convolution arithmetic, shared by the model modules."""

import os
import weakref
from concurrent import futures

import numpy as np
import scipy.sparse as sp

from .data import check_integer
from .tensor import FactoredGrad, ShapeError, Tensor, _accumulate, _record, relu


def parameter(rng: np.random.Generator, shape, fan_in: int, name: str) -> Tensor:
    """A trainable Tensor named ``name`` drawn from ``rng`` as U(+-1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True, name=name)


def check_widths(field: str, widths, at_least=0) -> None:
    """Raise ``ValueError`` naming ``field``, and any entry at fault, unless ``widths``
    is a list, tuple or 1-D array of ``at_least`` or more positive integers."""
    listed = isinstance(widths, (list, tuple)) or isinstance(widths, np.ndarray) and widths.ndim == 1
    if not listed or len(widths) < at_least:
        raise ValueError(f"{field}={widths!r} is not a sequence of {at_least} or more widths")
    for i, w in enumerate(widths):
        check_integer(f"{field}[{i}]", w, 1)


def stacked(layer, dims, rng: np.random.Generator, name: str) -> list:
    """One ``layer(d_in, d_out, rng, name=f"{name}{i}")`` per consecutive pair of
    ``dims``, built in order, so their parameters are drawn from ``rng`` in turn."""
    return [layer(d_in, d_out, rng, name=f"{name}{i}")
            for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:]))]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Whether lane 1 of :func:`run_lanes` runs on a worker thread: when the
# process may use two or more CPUs. Otherwise both lanes run in turn on the
# caller, with the same results.
LANE_WORKER = _usable_cpus() >= 2

_worker = []  # the worker thread's executor, once the first two-lane run has made it
os.register_at_fork(after_in_child=_worker.clear)  # the thread does not survive fork


def run_lanes(lane):
    """``(lane(0), lane(1))``, with lane 0 on the calling thread and lane 1
    at the same time on one worker thread, or in turn on the caller when
    ``LANE_WORKER`` is false.

    The caller waits for lane 1 before it returns or raises; lane 0's
    exception is raised before lane 1's. Two lanes overlap only in numpy's
    and scipy's calls that release the GIL, such as ``np.matmul``, sparse
    products and elementwise passes over large arrays. Each lane must write
    only its own outputs.
    """
    if not LANE_WORKER:
        return lane(0), lane(1)
    if not _worker:
        _worker.append(futures.ThreadPoolExecutor(1, thread_name_prefix="popgraph-lane"))
    second = _worker[0].submit(lane, 1)
    try:
        first = lane(0)
    finally:
        futures.wait([second])
    return first, second.result()


def deal(sizes) -> tuple:
    """Two lists of indices into ``sizes``: each index in turn goes to the
    lane whose sizes sum to less so far, lane 0 on a tie."""
    lanes, loads = ([], []), [0, 0]
    for i, size in enumerate(sizes):
        lane = int(loads[1] < loads[0])
        lanes[lane].append(i)
        loads[lane] += size
    return lanes


class Linear:
    """y = x @ W + b with uniform +-1/sqrt(fan_in) initialization."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, name=""):
        self.weight = parameter(rng, (d_in, d_out), d_in, f"{name}.weight")
        self.bias = parameter(rng, (d_out,), d_in, f"{name}.bias")

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def parameters(self):
        return [self.weight, self.bias]


class MLP:
    """Stacked Linear layers with relu between layers (none after the last);
    ``dims`` holds two or more positive integers, the input's and each layer's width."""

    def __init__(self, dims, rng: np.random.Generator, name=""):
        check_widths(f"{name or 'MLP'} dims", dims, at_least=2)
        self.layers = stacked(Linear, dims, rng, f"{name}.")

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer.forward(x)
            if i + 1 < len(self.layers):
                x = relu(x)
        return x

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]


def conv_forward(x, ax, w_self, w_neigh, bias) -> np.ndarray:
    """relu(x W_self + ax W_neigh + b) for a set of node rows, ``ax`` their
    aggregated neighbours A x: the forward of one graph-convolution layer.

    The sum is taken as ((x W_self) + b) + (A x) W_neigh, in one fresh buffer.
    relu maps a NaN pre-activation to 0, as ``tensor.relu`` does.
    """
    y = x @ w_self
    y += bias
    y += ax @ w_neigh
    np.fmax(y, 0.0, out=y)
    return y


def conv_backward(g, x, mask):
    """The relu, self and bias part of one graph-convolution layer's backward.

    For the output gradient ``g`` of :func:`conv_forward`'s rows from input
    rows ``x``, with ``mask`` the rows' relu sign (output > 0), returns
    ``(g_pre, g_w_self, g_bias)``: the gradient at the pre-activation and two
    parameter gradients. W_neigh's gradient and the input gradient's
    neighbour term depend on how the caller aggregates, so the caller forms
    them from ``g_pre``. ``g`` is not modified.
    """
    g = g * mask.astype(np.float64)  # relu's subgradient is 0 at 0; float: faster than bool
    # the bias gradient as a BLAS product: ~3x faster than g.sum(axis=0)
    return g, x.T @ g, np.ones(len(g)) @ g


# A constant adjacency with fewer nonzeros than this share of its entries is
# multiplied through a CSR copy of them, any other densely. With 32 columns
# and one BLAS thread, a use's two cached CSR products (A x, and A^T g for
# x's gradient) cost what the dense ones do at ~9% nonzeros for N = 256,
# ~11% for N = 1024 and ~15% for N = 2048.
CSR_MAX_DENSITY = 0.1

# Each constant adjacency's route, kept while its Tensor lives: the pair
# (array, CSR copy of it or None). An entry never refers to its Tensor, so
# the Tensor's last reference frees both.
_csr_copies = weakref.WeakKeyDictionary()


def constant_csr(adj: Tensor):
    """The CSR copy of ``adj.data``'s nonzeros, or None when they are at
    least ``CSR_MAX_DENSITY`` of its entries. The route is decided, and the
    copy built, on the first call for the array and then reused. A NaN or
    inf entry is a nonzero, so it is counted and kept.

    An array with a copy is made read-only, so an in-place write raises
    ``ValueError`` instead of leaving the copy stale; a dense one stays
    writable. Assigning another array to ``adj.data`` decides again.
    """
    entry = _csr_copies.get(adj)
    if entry is None or entry[0] is not adj.data:
        csr = None
        if np.count_nonzero(adj.data) < CSR_MAX_DENSITY * adj.data.size:
            adj.data.setflags(write=False)
            csr = sp.csr_matrix(adj.data)
        entry = _csr_copies[adj] = (adj.data, csr)
    return entry[1]


class GraphConv:
    """x' = relu(x @ W_self + (A @ x) @ W_neigh + b), one layer of message
    passing over the population graph: f3's layer. Both widths, ``d_in`` and
    ``d_out``, are positive integers.

    ``adj`` is the n x n dense adjacency Tensor of the graph whose n nodes
    are the rows of ``x``. The layer is one autograd op with a hand-derived
    backward. It shares :func:`conv_forward` and the relu, self and bias part
    of the backward, :func:`conv_backward`, with f1's blocked op
    (``node_level``), which runs them over its blocks of a sparse adjacency.
    Aggregating before projecting runs the adjacency product on d_in columns.
    Unlike f1, the layer keeps A @ x (n x d_in, small) and takes W_neigh's
    gradient as (A x)^T g: f1's form, x^T (A^T g), would cost an extra
    adjacency product whenever ``x`` needs no gradient.

    A is multiplied by one of two routes:
    - A constant adjacency under ``CSR_MAX_DENSITY`` nonzeros (a fixed
      graph: WL-kNN, random, oracle) is multiplied through the CSR copy of
      its nonzeros, :func:`constant_csr`, as A x forward and A^T g_ax for
      x's gradient, g_ax being the gradient of A x. Its array is read-only
      from its first use. A row's sum runs over its nonzeros in column
      order, so a NaN in ``x`` reaches only its neighbours' sums. On a
      k = 5 WL-kNN graph at n = 1024 (0.9% dense), d_in = 32, the two
      products took 0.23-0.29 ms against 3.2-3.4 ms densely, and building
      the copy 5.6-5.7 ms (one BLAS thread).
    - Any other adjacency is multiplied densely: one that needs a gradient
      (f2's learned graph), and a dense constant, such as the learned graph
      evaluated with gradients off, which gives the same output bit for bit.
      A needed gradient, g_ax x^T, is sent as its two n x d_in factors
      (``tensor.FactoredGrad``), never as an n x n array. A^T g_ax runs
      only when ``x`` needs a gradient, as (g_ax^T A)^T, which took 1.8 ms
      against 3.2 ms for A^T g_ax at n = 1024, d_in = 32 (one BLAS thread).
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, name="conv"):
        check_widths(f"{name} dims", (d_in, d_out))
        self.w_self = parameter(rng, (d_in, d_out), d_in, f"{name}.w_self")
        self.w_neigh = parameter(rng, (d_in, d_out), d_in, f"{name}.w_neigh")
        self.bias = parameter(rng, (d_out,), d_in, f"{name}.bias")

    def forward(self, x: Tensor, adj: Tensor) -> Tensor:
        for arg, kind in ((x, "node-row"), (adj, "dense adjacency")):
            if not isinstance(arg, Tensor):
                raise TypeError(f"GraphConv takes a {kind} Tensor, not {type(arg).__name__}")
        n = x.shape[0]
        if adj.shape != (n, n):
            raise ShapeError(f"adjacency of shape {adj.shape} for {n} node rows")
        d_in = self.w_self.shape[0]
        if x.ndim != 2 or x.shape[1] != d_in:
            raise ShapeError(f"node rows of shape {x.shape} for input width {d_in}")
        params = (self.w_self, self.w_neigh, self.bias)
        w_self, w_neigh, bias = (p.data for p in params)
        csr = None if adj.requires_grad else constant_csr(adj)
        ax = adj.data @ x.data if csr is None else csr @ x.data
        y = conv_forward(x.data, ax, w_self, w_neigh, bias)

        def backward(g):
            g, g_w_self, g_bias = conv_backward(g, x.data, y > 0.0)
            for p, grad in zip(params, (g_w_self, ax.T @ g, g_bias)):
                _accumulate(p, grad)
            g_ax = g @ w_neigh.T
            if x.requires_grad:
                g_x = (g_ax.T @ adj.data).T if csr is None else csr.T @ g_ax
                g_x += g @ w_self.T
                _accumulate(x, g_x)
            _accumulate(adj, FactoredGrad(outer=[(g_ax, x.data)]))

        return _record(y, (x,) + params + (adj,), backward)

    def parameters(self):
        return [self.w_self, self.w_neigh, self.bias]
