"""Learned population graph: MLP embedding plus logistic distance weighting.

Edge weights are a_ij = sigmoid(theta - t * ||hhat_i - hhat_j||), so close
pairs in the embedding space get weights near 1 and distant pairs near 0.
The temperature t is kept positive by storing its log; the diagonal is
forced to zero so self-loops never enter degree statistics or message
passing.

Every distance comes from one kernel, ``_distance_block``. The upper
triangle is cut into blocks of ``ROW_BLOCK`` rows, as FlashAttention tiles
attention scores (Dao et al., arXiv 2205.14135): rows i0:i1 against columns
i0:, from one gemm into a contiguous buffer, where the whole elementwise
chain then runs. The squared norms every block needs are taken first, each
row block's from its own square product. The square part of each block is
made exactly symmetric before the chain and its diagonal exactly zero, so
every consumer mirrors the block's right part below the diagonal and gets an
exactly symmetric result, whatever the BLAS kernel or thread count.
``_upper_distance_blocks`` walks the blocks in turn for ``pairwise_distances``
and ``init_threshold``.

``logistic_edge_weights`` computes the N x N weights as one autograd op on
those blocks, dealt by width to the two lanes of ``nn.run_lanes``. Its tape
holds the weights and, inside the rule, the upper distance blocks, about
half an N x N array: no logit, scaled-distance or mask array. Its
hand-derived backward gives the gradients of the embedding, ``t_raw`` and
``theta`` from the same upper blocks. The weights' gradient reaches it as
factors (``tensor.FactoredGrad``), from which it builds each block's
gradient in a block-sized buffer, so no N x N gradient is formed.
"""

from dataclasses import dataclass

import numpy as np

from .nn import MLP, deal, run_lanes
from .tensor import ShapeError, Tensor, _accumulate, _record, check_tensor

# Rows per block of every N x N pass: f2's, NDDL's degrees and the baselines'.
# One 64 x N float64 buffer is 512 KB at N = 1024.
ROW_BLOCK = 64
_STRICT_LOWER = np.tri(ROW_BLOCK, k=-1, dtype=bool)


def row_blocks(n: int) -> list:
    """The ``(r0, r1)`` row blocks of an n-row array, ``ROW_BLOCK`` rows each, in order."""
    return [(r0, min(r0 + ROW_BLOCK, n)) for r0 in range(0, n, ROW_BLOCK)]


def _require_finite_rows(x: np.ndarray, what: str = "embedding") -> None:
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise ValueError(f"{what} row {int(np.argmax(bad))} is not finite")


def _squared_norms(x: np.ndarray, minus2x: np.ndarray) -> np.ndarray:
    """|x_p|^2 for every row, each block's from the diagonal of its own square
    product with -2 x, the product :func:`_distance_block` forms for it."""
    norms = np.empty(x.shape[0])
    for i0, i1 in row_blocks(x.shape[0]):
        np.multiply((x[i0:i1] @ minus2x[i0:i1].T).diagonal(), -0.5, out=norms[i0:i1])
    return norms


def _distance_block(x, minus2x, norms, i0, i1, d, scratch):
    """Fill ``d``, a contiguous (i1 - i0) x (n - i0) array, with the distances
    of rows i0:i1 to rows i0:, and return it; ``scratch`` is a buffer of at
    least ``d.size`` floats, overwritten.

    Squared distances are taken in the expanded form |x_p|^2 + |x_q|^2 - 2 x_p.x_q
    and clamped at 0 before the square root. The product comes from one gemm
    of the rows against -2 x: scaling by -2 is exact, so no pass is spent on
    it and no rounding is added. The square part of the block is mirrored
    from its upper triangle and its diagonal is exactly 0. Equal rows in
    different blocks also get exactly 0 where BLAS rounds every dot product
    of a gemm alike.
    """
    b, w = d.shape
    np.matmul(x[i0:i1], minus2x[i0:].T, out=d)  # -2 x_p.x_q
    square = d[:, :b]
    np.copyto(square, square.T, where=_STRICT_LOWER[:b, :b])
    s = scratch[:b * w].reshape(b, w)
    np.add(norms[i0:i1, None], norms[None, i0:], out=s)
    d += s
    np.maximum(d, 0.0, out=d)
    d.flat[:b * w:w + 1] = 0.0
    np.sqrt(d, out=d)
    return d


def _upper_distance_blocks(x: np.ndarray):
    """Yield ``(i0, i1, d)``: the distances of rows i0:i1 to rows i0:, a
    contiguous block (:func:`_distance_block`), for every row block in turn.
    Every block is a view of one buffer, overwritten by the next block."""
    x = np.ascontiguousarray(x)
    minus2x = -2.0 * x
    norms = _squared_norms(x, minus2x)
    n = x.shape[0]
    store = np.empty(min(n, ROW_BLOCK) * n)
    scratch = np.empty_like(store)
    for i0, i1 in row_blocks(n):
        d = store[:(i1 - i0) * (n - i0)].reshape(i1 - i0, n - i0)
        yield i0, i1, _distance_block(x, minus2x, norms, i0, i1, d, scratch)


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance matrix of a 2-D array of finite rows.

    Assembled from the upper blocks of ``_upper_distance_blocks``, each
    copied in place and its right part mirrored below the diagonal, so the
    result is exactly symmetric with an exactly-zero diagonal. Raises
    ``ShapeError`` for an array that is not 2-D, and ``ValueError`` naming the
    first row with a NaN or infinite entry.
    """
    if x.ndim != 2:
        raise ShapeError(f"pairwise distances expect a 2-D array of rows, got {x.shape}")
    _require_finite_rows(x)
    n = x.shape[0]
    out = np.empty((n, n))
    for i0, i1, d in _upper_distance_blocks(x):
        out[i0:i1, i0:] = d
        out[i1:, i0:i1] = d[:, i1 - i0:].T
    return out


def logistic_edge_weights(z: Tensor, t_raw: Tensor, theta: Tensor) -> Tensor:
    """a_ij = sigmoid(theta - exp(t_raw) * ||z_i - z_j||) off the diagonal, 0 on it.

    The sigmoid is computed as 1 / (1 + exp(t * d_ij - theta)) block by block,
    in each lane's buffer of ``ROW_BLOCK`` rows, not with the scalar
    ``scipy.special.expit`` loop, which took about three times as long at
    N = 1024. Each block is copied into the upper triangle of the output and
    mirrored below it. Where t * d_ij - theta exceeds ~709.78 the ``exp``
    overflows to inf and the weight is exactly 0.0, as ``expit`` gives there;
    the overflow raises no warning. Elsewhere the two differ by less than
    1e-15 relative wherever ``expit`` is at least 1e-300. A row with a NaN
    gives NaN weights in its row and column. Raises ``ShapeError`` for an
    embedding that is not 2-D, and naming a ``t_raw`` or ``theta`` that is not
    0-d.

    The backward works on the same upper blocks with the symmetric
    S = a (1 - a) (G + G^T), where G is the weights' gradient, the gradient of
    the logits being a (1 - a) G. G arrives as a ``tensor.FactoredGrad``. Each
    lane's buffer, reused for every block I of the lane with columns J = i0:,
    is filled with G[I, J] + G[J, I]^T from every term:
    - outer products U V^T, all of them in one gemm,
      [U_I | V_I] [V_J | U_J]^T;
    - masked rows [a > h] c 1^T, as [a_IJ > h] (c_I 1^T + 1 c_J^T), the
      mask taken from the block of the (exactly symmetric) weights;
    - dense arrays, read in place as G[I, J] and G[J, I]^T.
    The square part of the block holds each pair twice, so it is halved.
    theta's and t's gradients, the row and column sums of S / d and its
    products with the embedding all come from the buffer. Every sum is
    numpy's own, never a BLAS dot, so theta's and t's gradients do not depend
    on BLAS's thread count. Each lane of ``nn.run_lanes`` adds up its own
    blocks' sums in its own buffers, and lane 1's are added to lane 0's after
    both finish, so the gradients do not depend on whether lane 1 has a
    thread of its own either. The subgradient of a distance at exactly zero is
    0, so duplicate rows and the diagonal never produce NaN gradients.
    """
    if z.data.ndim != 2:
        raise ShapeError(f"edge weights expect a 2-D embedding, got {z.data.shape}")
    for name, param in (("t_raw", t_raw), ("theta", theta)):
        if param.data.ndim != 0:  # a vector theta would break the weights' symmetry
            raise ShapeError(f"edge weights expect a scalar {name}, got shape {param.data.shape}")
    x = np.ascontiguousarray(z.data)
    n, k = x.shape
    t = float(np.exp(t_raw.data))
    minus2x = -2.0 * x
    norms = _squared_norms(x, minus2x)
    spans = row_blocks(n)
    lanes = deal([n - i0 for i0, _ in spans])
    a = np.empty((n, n))
    blocks = [None] * len(spans)  # the upper distance blocks, kept for the backward

    def forward_lane(lane):
        chain = np.empty(min(n, ROW_BLOCK) * n)
        for j in lanes[lane]:
            i0, i1 = spans[j]
            b, w = i1 - i0, n - i0
            d = blocks[j] = _distance_block(x, minus2x, norms, i0, i1, np.empty((b, w)), chain)
            e = chain[:b * w].reshape(b, w)
            np.multiply(d, t, out=e)
            e -= theta.data
            with np.errstate(over="ignore"):
                np.exp(e, out=e)
            e += 1.0
            np.reciprocal(e, out=e)
            e.flat[:b * w:w + 1] = 0.0
            a[i0:i1, i0:] = e
            a[i1:, i0:i1] = e[:, b:].T

    run_lanes(forward_lane)

    def backward(g):
        # columns: S/d @ x, then the row sums of S/d against a column of ones
        xa = np.empty((n, k + 1))
        xa[:, :k] = x
        xa[:, k] = 1.0
        us, vs = [u for u, _ in g.outer], [v for _, v in g.outer]
        uv = np.concatenate([np.empty((n, 0))] + us + vs, axis=1)
        vu = np.concatenate([np.empty((n, 0))] + vs + us, axis=1)

        def backward_lane(lane):
            acc = np.zeros((n, k + 1))
            rows = min(n, ROW_BLOCK)
            sym = np.empty(rows * n)
            columns = np.empty(rows * n)
            slope = np.empty(rows * n)  # also holds the masks
            d_theta = d_t = np.float64(0.0)
            for j in lanes[lane]:
                (i0, i1), d = spans[j], blocks[j]
                b, w = d.shape
                s = sym[:b * w].reshape(b, w)
                np.matmul(uv[i0:i1], vu[i0:].T, out=s)  # zeros when there is no outer term
                ab = a[i0:i1, i0:]
                for threshold, c in g.masked:
                    mask = slope[:b * w].reshape(b, w)
                    np.greater(ab, threshold, out=mask)
                    cc = columns[:b * w].reshape(b, w)
                    np.add(c[i0:i1, None], c[None, i0:], out=cc)
                    cc *= mask
                    s += cc
                for dense in g.dense:
                    s += dense[i0:i1, i0:]
                    s += dense[i0:, i0:i1].T
                s[:, :b] *= 0.5
                da = slope[:b * w].reshape(b, w)
                np.subtract(1.0, ab, out=da)
                da *= ab
                s *= da  # S over the block; a_ii = 0, so the diagonal drops out
                d_theta += s.sum()
                np.multiply(s, d, out=da)
                d_t += da.sum()
                # d loss / d z_i = -t * sum_j S_ij (z_i - z_j) / d_ij; the block
                # gives rows I, and through its transpose rows i0:
                with np.errstate(divide="ignore", invalid="ignore"):
                    s /= d
                s[d == 0.0] = 0.0
                acc[i0:i1] += s @ xa[i0:]
                acc[i0:] += s.T @ xa[i0:i1]
            return acc, d_theta, d_t

        (acc, d_theta, d_t), (acc_1, d_theta_1, d_t_1) = run_lanes(backward_lane)
        acc += acc_1
        _accumulate(theta, d_theta + d_theta_1)
        _accumulate(t_raw, -t * (d_t + d_t_1))
        grad = acc[:, k:] * x
        grad -= acc[:, :k]
        grad *= -t
        _accumulate(z, grad)

    return _record(a, (z, t_raw, theta), backward, factored=True)


@dataclass
class PopulationGraph:
    """Weighted adjacency over the current batch."""

    a_p: Tensor


class LatentGraphParams:
    """MLP embedding ``g`` and the learnable (t, theta) pair."""

    def __init__(self, dims, rng: np.random.Generator):
        self.mlp = MLP(dims, rng, name="g")
        self.t_raw = Tensor(0.0, requires_grad=True, name="t_raw")  # t = exp(t_raw) = 1
        self.theta = Tensor(1.0, requires_grad=True, name="theta")

    @property
    def temperature(self) -> float:
        return float(np.exp(self.t_raw.data))

    def forward(self, h: Tensor) -> PopulationGraph:
        check_tensor("h", h)
        return PopulationGraph(a_p=logistic_edge_weights(self.mlp.forward(h), self.t_raw,
                                                         self.theta))

    def init_threshold(self, h: Tensor) -> None:
        """Center theta on the median pairwise distance of an initial batch.

        Starts the population graph near half density so gradients flow
        toward both sparser and denser structures. The median is over the
        n(n-1)/2 distinct pairs. When their count is odd the median is itself
        a distance, whose pair would get a_ij = 0.5 exactly, on NDDL's strict
        threshold; theta then takes the midpoint of that distance and the next.

        Raises ``ValueError`` for a batch of two: its single pair has no next
        distance, so theta would put it at a_ij = 0.5 exactly, whatever its
        distance. A batch of fewer than two has no pair and leaves theta as is.
        Raises ``ValueError`` naming the first row whose embedding is not
        finite: a NaN distance has no place in the order a median needs.
        """
        check_tensor("h", h)
        n = h.shape[0]
        if n < 2:
            return
        if n == 2:
            raise ValueError("init_threshold needs at least 3 rows: the single pair of 2 "
                             "would sit at a_ij = 0.5, on NDDL's strict threshold")
        x = self.mlp.forward(h).data
        _require_finite_rows(x)
        pairs = np.empty(n * (n - 1) // 2)
        end = pairs.size
        for i0, i1, d in _upper_distance_blocks(x):
            b = i1 - i0
            right = d[:, b:]
            end -= right.size
            pairs[end:end + right.size].reshape(right.shape)[...] = right  # no copy of the slice
            square = d[:, :b][_STRICT_LOWER[:b, :b].T]
            end -= square.size
            pairs[end:end + square.size] = square
        k = pairs.size // 2
        pairs.partition(k)  # in place: a copy would double the peak
        if pairs.size % 2 == 0:  # the middle two: the largest below k, and k
            lo, hi = pairs[:k].max(), pairs[k]
        else:  # k, and the smallest above it
            lo, hi = pairs[k], pairs[k + 1:].min()
        median = 0.5 * (lo + hi)
        self.theta.data = np.asarray(float(median) * self.temperature)

    def parameters(self):
        return self.mlp.parameters() + [self.t_raw, self.theta]
