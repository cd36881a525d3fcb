"""Minimal dense-tensor engine with tape-based reverse-mode gradients.

Backed by numpy. Compute is float32 by default; pass dtype=np.float64 when
building models for finite-difference verification. Tensors are immutable
after creation (backward writes only to .grad, through _accum).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "linear_forward",
    "relu",
    "reshape",
    "linear_points_global",
    "shared_mlp",
    "shared_mlp_max_pool",
    "dropout",
    "linear_cross_entropy",
    "l2_normalize_rows",
    "info_nce",
    "index",
    "backward",
    "BNState",
]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an operation."""


class Tensor:
    """A dense multi-dimensional array node in a recorded computation.

    Fields
    ------
    data : np.ndarray (row-major)
    requires_grad : bool
    grad : same-shape read-only np.ndarray, maybe a view another grad shares;
        None again on an interior node once backward has spent it
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, dtype=None,
                 _parents=(), _backward=None, _op=""):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(_parents)
        self._backward = _backward
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"


def _result(data, parents, backward_fn, op):
    """Wrap a forward result, recording provenance only if a parent needs grad."""
    needs = any(p.requires_grad for p in parents)
    if needs:
        return Tensor(data, requires_grad=True, _parents=parents,
                      _backward=backward_fn, _op=op)
    return Tensor(data, requires_grad=False, _op=op)


def _accum(t, g):
    """The tape's only writer of .grad (fit_probe sets its parameter's grad
    off the tape): keeps the first g as given, even a view or an array
    another parent holds too, and adds later ones out of place. Stored grads
    are read-only, so a backward that writes into one raises."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        g = t.grad + g
    g = np.asarray(g, dtype=t.data.dtype).view()
    g.flags.writeable = False
    t.grad = g


def _check_affine(name, x, w, b):
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise ShapeError(f"{name}: shapes {x.shape} x {w.shape} + {b.shape} "
                         "do not conform")


def linear_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[B,D] @ w[D,K] + b[K], the affine layer, as one tape node.

    The gradient of a frozen x or w is never formed; the bias gradient is
    the column sum ones(B) @ g.
    """
    _check_affine("linear_forward", x, w, b)
    out_data = x.data @ w.data
    out_data += b.data

    def bw(g):
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        _accum(b, np.ones(g.shape[0], dtype=g.dtype) @ g)

    return _result(out_data, (x, w, b), bw, "linear")


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the backward derives its mask from the output, so the node
    keeps one array. max(x, 0) > 0 exactly where x > 0: subgradient 0 at the
    tie x == 0 and at a NaN."""
    out_data = np.maximum(x.data, 0)

    def bw(g):
        _accum(x, g * (out_data > 0))

    return _result(out_data, (x,), bw, "relu")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out_data = x.data.reshape(shape)
    orig = x.data.shape

    def bw(g):
        _accum(x, g.reshape(orig))

    return _result(out_data, (x,), bw, "reshape")


def linear_points_global(p: Tensor, g: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """[p, g repeated over the N points] @ w + b as one tape node, without
    forming the concatenation: p[B,N,Dp], g[B,Dg], w[Dp+Dg,K] -> [B*N,K].
    g's half of the product, on the rows w[Dp:], is taken once per cloud."""
    if (p.data.ndim != 3 or g.data.ndim != 2 or b.data.ndim != 1 or g.shape[0] != p.shape[0]
            or w.shape != (p.shape[2] + g.shape[1], b.shape[0])):
        raise ShapeError(f"linear_points_global: shapes [{p.shape}, {g.shape}] x "
                         f"{w.shape} + {b.shape} do not conform")
    B, N, dp = p.shape
    p2 = p.data.reshape(B * N, dp)
    out = (p2 @ w.data[:dp]).reshape(B, N, -1)
    out += (g.data @ w.data[dp:] + b.data)[:, None, :]
    out_data = out.reshape(B * N, -1)

    def bw(gr):
        gs = gr.reshape(B, N, -1).sum(axis=1)  # [B, K]: the global half's gradient
        if p.requires_grad:
            _accum(p, (gr @ w.data[:dp].T).reshape(B, N, dp))
        if g.requires_grad:
            _accum(g, gs @ w.data[dp:].T)
        if w.requires_grad:
            _accum(w, np.concatenate([p2.T @ gr, g.data.T @ gs]))
        _accum(b, gs.sum(axis=0))

    return _result(out_data, (p, g, w, b), bw, "linear_points_global")


def _first_at_max(x, m):
    """[B, D] index of the first point at the max m [B, D] of x [B, N, D]:
    the largest weight N - n among the points at m, a few times cheaper than
    an argmax over the strided point axis. A NaN m, which no point is at,
    gives N mod N = point 0."""
    n = x.shape[1]
    rev = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))
    return (n - ((x >= m[:, None, :]) * rev[:, None]).max(axis=1)) % n


class BNState:
    """Learned scale/shift plus running statistics for one batch-norm layer."""

    def __init__(self, dim, dtype=np.float32):
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(dim, dtype=dtype)
        self.running_var = np.ones(dim, dtype=dtype)

    @property
    def dim(self):
        return self.gamma.shape[0]


_BN_EPS = 1e-5
_POOL_BLOCK = 1 << 19  # product entries per block of clouds: 2 MB in float32
_GRAD_BLOCK = 1 << 17  # entries per block of shared_mlp's backward relu mask


def _check_layer(name, x, w, bn, training):
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or bn.dim != w.shape[1]):
        raise ShapeError(f"{name}: shapes {x.shape} x {w.shape} and batch "
                         f"norm of width {bn.dim} do not conform")
    if training and x.shape[0] < 2:
        raise ShapeError(f"{name}: batch of {x.shape[0]} too small for training mode")


def _bn_affine(x, w, bn, momentum, training):
    """Batch norm of t = x @ w as the affine xs @ (w * a) + c of xs = x - x0,
    without forming t: inv = 1 / sqrt(var + eps), a = gamma * inv and
    c = beta - (mean - x0 @ w) * a. Returns xs, a, c and the backward's
    (inv, mean - x0 @ w, x0, C).

    Eval mode reads the running statistics and takes x0 = 0. Training mode
    takes x0 = xm, x's column mean, so the batch mean m = xm @ w leaves c,
    and the variance v = colsum(w * (C @ w)) from x's centred Gram matrix
    C = xs^T xs / R, clamped at 0 against rounding. Centring first keeps both
    accurate when x's mean dwarfs its spread. The statistics keep the
    [Din, Din] matrix C, not the [Din, D] product C @ w, which the backward
    forms again. It moves the running statistics: running <- momentum *
    running + (1 - momentum) * batch.
    """
    if not training:
        inv = 1.0 / np.sqrt(bn.running_var + _BN_EPS)
        a = bn.gamma.data * inv
        return x, a, bn.beta.data - bn.running_mean * a, (inv, bn.running_mean, 0.0, None)
    xm = x.mean(axis=0)
    xs = x - xm
    gram = xs.T @ xs / len(xs)
    m, v = xm @ w, np.maximum(np.einsum("ij,ij->j", w, gram @ w), 0)
    mom = float(momentum)
    bn.running_mean = (mom * bn.running_mean + (1.0 - mom) * m).astype(m.dtype)
    bn.running_var = (mom * bn.running_var + (1.0 - mom) * v).astype(m.dtype)
    inv = 1.0 / np.sqrt(v + _BN_EPS)
    return xs, bn.gamma.data * inv, bn.beta.data, (inv, 0.0, xm, gram)


def _layer_backward(x, w, bn, a, stats, xg, dbeta, dx, blocks):
    """Both encoder-layer ops' gradients from gh, the gradient at the batch
    norm's output, given as xg = xs^T gh, dbeta = colsum(gh) and dx = gh @
    (w * a)^T (None when x takes no gradient): dgamma = inv * (colsum(w *
    xg) - (mean - x0 @ w) * dbeta) and dw = a * xg. Training mode adds the
    batch statistics' terms, from [Din, D] matrices: dw -= (a * dgamma *
    inv) * (C @ w), dx -= xs @ (w * (inv * a * dgamma / R)) @ w^T + w @
    (a * dbeta / R). The xs term runs over the row slices blocks, each
    block's rows of xs = x - x0 formed on their own, so no [R, Din] centred
    input or product is formed beside dx."""
    inv, m0, x0, gram = stats
    dgamma = inv * (np.einsum("ij,ij->j", w.data, xg) - m0 * dbeta)
    dw = a * xg
    if gram is not None:
        cw = gram @ w.data  # scaled in place: one [Din, D] temporary, not two
        cw *= a * dgamma * inv
        dw -= cw
        del cw
        if dx is not None:
            k = (w.data * (inv * a * dgamma / len(x.data))) @ w.data.T
            for rb in blocks:
                xs = x.data[rb] - x0
                dx[rb] -= xs @ k
                del xs  # one block of xs at a time
            dx -= w.data @ (a * dbeta / len(x.data))
    for p, d in ((bn.gamma, dgamma), (bn.beta, dbeta), (w, dw), (x, dx)):
        _accum(p, d)  # dx is None only where x takes no gradient


def shared_mlp(x: Tensor, w: Tensor, bn: BNState, momentum: float,
               training: bool) -> Tensor:
    """One shared-MLP layer, relu(batch_norm(x @ w)), as one tape node.

    No bias: batch norm subtracts the mean, which would cancel it. Both modes
    fold batch norm into the weight, relu(xs @ (w * a) + c) (see _bn_affine),
    built in place in the one [R, D] array the node keeps. The backward
    derives the relu mask from the output a block of rows at a time, so no
    [R, D] mask is formed, and drops g, which backward hands it as the only
    reference, once gh is formed.
    """
    _check_layer("shared_mlp", x, w, bn, training)
    xs, a, c, stats = _bn_affine(x.data, w.data, bn, momentum, training)
    wa = w.data * a
    out_data = xs @ wa
    out_data += c
    np.maximum(out_data, 0, out=out_data)

    def bw(g):
        gh = np.empty_like(g)  # a block of rows at a time: no [R, D] mask
        step = max(1, _GRAD_BLOCK // g.shape[1])
        for s in range(0, len(g), step):
            np.multiply(g[s:s + step], out_data[s:s + step] > 0, out=gh[s:s + step])
        del g  # the caller holds no other reference
        xs = x.data - stats[2]  # formed again rather than kept beside the output
        xg, dbeta = xs.T @ gh, gh.sum(axis=0)
        del xs  # gone before dx is formed
        dx = gh @ wa.T if x.requires_grad else None
        del gh  # spent before _layer_backward forms its [R, Din] correction
        _layer_backward(x, w, bn, a, stats, xg, dbeta, dx, (slice(None),))

    return _result(out_data, (x, w, bn.gamma, bn.beta), bw, "shared_mlp")


def shared_mlp_max_pool(x: Tensor, w: Tensor, bn: BNState, momentum: float,
                        training: bool, n_points: int) -> Tensor:
    """The max over the points of reshape(shared_mlp(x, w, bn, ...), (B, N, D))
    as one tape node, x[B*N, Din] -> [B, D]: the encoder's last layer and its
    pool. An empty cloud (N = 0) has no max and raises.

    It pools before the affine, relu(max_n(xs @ (w * a)) + c), whose max is
    the min of x @ w where a < 0: shared_mlp's pooled values up to rounding.
    Both modes run in blocks of clouds of about _POOL_BLOCK product
    entries, so neither forms a [B*N, D] array. Training mode keeps the row
    of x at each max, the first point at it, and drops xs once the pool has
    run. Eval mode does not search; its backward searches x again. Where
    gamma = 0 the folded column is constant and point 0 takes its gradient,
    a valid subgradient at that kink. The node keeps neither xs nor w * a:
    the backward forms w * a again, takes x's gradient over zero-filled
    blocks of gh, each block's product written into its rows of dx, then
    gathers the winners' rows of x and centres them in place
    for xs^T gh, and hands _layer_backward the same blocks of clouds for its
    correction, so xs is never formed whole.
    """
    n_points = int(n_points)
    if x.data.ndim != 2 or n_points < 1 or x.shape[0] % n_points:
        raise ShapeError(f"shared_mlp_max_pool: {x.shape} is not [B*N, D] "
                         f"rows for N = {n_points} points")
    _check_layer("shared_mlp_max_pool", x, w, bn, training)
    xs, a, c, stats = _bn_affine(x.data, w.data, bn, momentum, training)
    B, D = x.shape[0] // n_points, w.shape[1]
    k = max(1, _POOL_BLOCK // (n_points * D))
    blocks = [(slice(s, s + k), slice(s * n_points, (s + k) * n_points)) for s in range(0, B, k)]

    def pool(src, wa, search):
        """The [B, D] max over the points of src @ wa and, if search, the
        rows of src at the first point at each max."""
        tp, rows = np.empty((B, D), dtype=wa.dtype), np.empty((B, D), dtype=np.intp)
        for cb, rb in blocks:
            t3 = (src[rb] @ wa).reshape(-1, n_points, D)
            tp[cb] = t3.max(axis=1)
            if search:
                rows[cb] = _first_at_max(t3, tp[cb]) + n_points * np.arange(B)[cb, None]
            del t3  # so the next block's product is not formed beside this one
        return tp, rows if search else None

    tp, rows = pool(xs, w.data * a, training)
    del xs  # the backward gathers the rows it needs from x
    pooled = np.maximum(tp + c, 0)

    def bw(g):
        wa = w.data * a  # formed again rather than kept on the node
        at = rows if training else pool(x.data, wa, True)[1]
        gp = g * (pooled > 0)
        dx = None
        if x.requires_grad:
            dx = np.empty((x.shape[0], wa.shape[0]), dtype=gp.dtype)
            for cb, rb in blocks:
                gh = np.zeros((len(gp[cb]) * n_points, D), dtype=gp.dtype)
                np.put(gh, (at[cb] - rb.start) * D + np.arange(D), gp[cb])
                np.matmul(gh, wa.T, out=dx[rb])
                del gh  # as in pool: one block of gh at a time
        del wa  # gone before the winners' rows are gathered
        xg = 0
        for cb, _ in blocks:
            xw = x.data[at[cb]]  # [clouds, D, Din]: the winners' rows of x
            xw -= stats[2]
            xg = xg + np.einsum("bdi,bd->id", xw, gp[cb])
            del xw
        _layer_backward(x, w, bn, a, stats, xg, gp.sum(axis=0), dx,
                        [rb for _, rb in blocks])

    return _result(pooled, (x, w, bn.gamma, bn.beta), bw, "shared_mlp_max_pool")


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability rate, scale survivors by
    1/(1-rate). Rate 0, as in eval mode, returns x and needs no rng."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise ValueError(f"dropout at rate {rate} needs an rng for its mask")
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    factor = 1.0 / (1.0 - rate)
    out_data = x.data * keep * factor

    def bw(g):
        _accum(x, g * keep * factor)

    return _result(out_data, (x,), bw, "dropout")


_LOGIT_BLOCK = 2048  # rows per block of _SoftmaxCE's products; longer blocks ran slower


class _SoftmaxCE:
    """The mean softmax cross-entropy of x @ w + b on fixed rows x [R, D],
    with the label terms formed once: the class counts n [K] and class sums
    S = Y^T x [K, D], Y the one-hot labels. Every call fills the same
    class-major [K, R] array e, whose columns' max and sum run along the
    long axis. The linear probe's epochs and linear_cross_entropy run it;
    name is the caller's, for the label errors."""

    def __init__(self, x, labels, num_classes, name):
        self.x = x
        R, K = len(x), num_classes
        self.labels = labels = np.asarray(labels, dtype=np.int64)
        if R == 0:
            raise ShapeError(f"{name}: empty batch, logits {(R, K)}")
        if labels.shape != (R,):
            raise ShapeError(f"{name}: {R} rows but {labels.shape} labels")
        if labels.min() < 0 or labels.max() >= K:
            raise IndexError(f"label out of range [0, {K})")
        self.e = np.zeros((K, R), dtype=x.dtype)
        self.e[labels, np.arange(R)] = 1  # Y^T
        self.sums, self.counts = self._times_x(), self.e.sum(axis=1)

    def _fill(self, w, b):
        """e = (x @ w + b)^T, from row-major products over row blocks."""
        for r in range(0, len(self.x), _LOGIT_BLOCK):
            self.e[:, r:r + _LOGIT_BLOCK] = (self.x[r:r + _LOGIT_BLOCK] @ w).T
        self.e += b[:, None]

    def _times_x(self):
        """e @ x [K, D], summed over row blocks."""
        e, x, B = self.e, self.x, _LOGIT_BLOCK
        out = e[:, :B] @ x[:B]
        for r in range(B, len(x), B):
            out += e[:, r:r + B] @ x[r:r + B]
        return out

    def grads(self, w, b, with_loss=False):
        """(g [D + 1, K], loss) at (w, b), P the softmax, which e holds as
        P / R afterwards: w's gradient (P x - S)^T / R, then b's, (rowsum P
        - n) / R. The loss, None unless with_loss, is mean(max + log sum) -
        (<S, w> + n.b) / R, each column's max subtracted before the exponent."""
        e, R = self.e, len(self.x)
        self._fill(w, b)
        m = e.max(axis=0)
        e -= m
        np.exp(e, out=e)
        s = e.sum(axis=0)
        e /= s * R
        g = np.vstack([self._times_x().T, e.sum(axis=1)])
        g -= np.vstack([self.sums.T, self.counts]) / R
        loss = None
        if with_loss:
            loss = float(np.mean(m + np.log(s))
                         - ((self.sums * w.T).sum() + self.counts @ b) / R)
        return g, loss

    def accuracy(self, w, b):
        """The share of rows whose first largest logit is their label's, by
        blocks: argmax copies what it reads along axis 0."""
        self._fill(w, b)
        B = _LOGIT_BLOCK
        hits = sum(np.count_nonzero(self.e[:, r:r + B].argmax(axis=0) == self.labels[r:r + B])
                   for r in range(0, len(self.x), B))
        return hits / len(self.x)


def linear_cross_entropy(x: Tensor, w: Tensor, b: Tensor, labels) -> Tensor:
    """Mean over rows of -log softmax(x @ w + b)[label] as one tape node, the
    loss of supervised finetuning: one call of the probe's kernel
    _SoftmaxCE. The forward forms the loss and w's and b's gradients, which
    the backward scales by g; x's is g * ((P / R) @ w^T - w^T[labels] / R),
    from the P / R the call leaves in the kernel's array.
    """
    _check_affine("linear_cross_entropy", x, w, b)
    ce = _SoftmaxCE(x.data, labels, w.shape[1], "linear_cross_entropy")
    dwb, loss = ce.grads(w.data, b.data, with_loss=True)

    def bw(g):
        if x.requires_grad:
            wt = w.data.T
            _accum(x, g * (ce.e.T @ wt - wt[ce.labels] / len(ce.x)))
        _accum(w, g * dwb[:-1])
        _accum(b, g * dwb[-1])

    return _result(np.asarray(loss, dtype=x.dtype), (x, w, b), bw,
                   "linear_cross_entropy")


_NORM_EPS = 1e-12  # floor on a row norm, so a zero row stays zero


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Normalize the last axis of x to unit norm."""
    norms = np.sqrt((x.data ** 2).sum(axis=-1, keepdims=True))
    norms = np.maximum(norms, _NORM_EPS)
    y = x.data / norms

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, (g - y * dot) / norms)

    return _result(y, (x,), bw, "l2_normalize_rows")


def info_nce(q: Tensor, k: Tensor, tau: float, labels, labels_back=None,
             exclude_positive: bool = False) -> Tensor:
    """InfoNCE over [..., N, d] stacks whose leading axes index the groups,
    as one tape node: the contrastive loss.

    Each row of q attends over the N rows of its group in k with the logits
    q . k / tau and takes the cross-entropy against its key labels[r] (over
    the flattened rows). A row labelled -1 has no positive and weight 0; the
    mean runs over the others. Given labels_back, the loss averages in the
    direction from k over q, the same logits read transposed. With
    exclude_positive the positive's term leaves its row's softmax (its
    logit is -inf there). Each direction's logit gradient is (P - Y) / rows,
    P the softmax; the backward sums both into dS and forms dS . k / tau and
    dS^T . q / tau.
    """
    if q.data.ndim not in (2, 3) or q.shape != k.shape:
        raise ShapeError(f"info_nce: shapes {q.shape} and {k.shape} are not one "
                         "[..., N, d] shape")
    N = q.shape[-2]
    c = float(1.0 / tau)
    # k's transpose made contiguous: the product's bits depend on the
    # operand layout, and fixed-seed runs pin this one.
    sim = q.data @ np.swapaxes(k.data, -1, -2).copy()
    sim *= c
    views = [(sim.reshape(-1, N), labels)]
    if labels_back is not None:
        views.append((np.ascontiguousarray(np.swapaxes(sim, -1, -2)).reshape(-1, N),
                      labels_back))
    parts, means = [], []
    for e, lab in views:  # e becomes exp(logits - row max) in place
        lab = np.asarray(lab, dtype=np.int64)
        if lab.shape != e.shape[:1]:
            raise ShapeError(f"info_nce: {len(e)} rows but {lab.shape} labels")
        kept = lab >= 0
        at = np.arange(len(e)), np.maximum(lab, 0)
        pos = e[at]
        if exclude_positive:
            e[at] = -np.inf
        m = e.max(axis=1)
        e -= m[:, None]
        np.exp(e, out=e)
        sums = e @ np.ones(N, dtype=e.dtype)
        per_row = np.log(sums) - (pos - m)
        parts.append((e, sums, at, kept))
        means.append(np.mean(per_row if kept.all() else per_row[kept]))
    out_data = means[0] if len(means) == 1 else (means[0] + means[1]) * 0.5

    def bw(g):
        g = g * 0.5 if len(parts) == 2 else g
        ds = None
        for e, sums, at, kept in parts:
            gl = e / sums[:, None]
            gl[at] -= 1.0
            gl *= g / int(kept.sum())  # an int keeps g / n in g's dtype
            gl[~kept] = 0.0
            gl = gl.reshape(sim.shape)
            ds = gl if ds is None else ds + np.swapaxes(gl, -1, -2)
        ds *= c
        if q.requires_grad:
            _accum(q, ds @ k.data)
        if k.requires_grad:
            _accum(k, np.swapaxes(ds, -1, -2) @ q.data)

    return _result(np.asarray(out_data, dtype=q.dtype), (q, k), bw, "info_nce")


def index(x: Tensor, key) -> Tensor:
    """x.data[key] for an int, a slice or a tuple of them.

    Each element is selected once, so the gradient is a plain assignment
    into the indexed positions. An index array raises ShapeError.
    """
    parts = key if isinstance(key, tuple) else (key,)
    if not all(isinstance(p, (int, np.integer, slice)) for p in parts):
        raise ShapeError(f"index: key {key!r} is not ints and slices")
    out_data = np.array(x.data[key])

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        _accum(x, gx)

    return _result(out_data, (x,), bw, "slice")


def _spend(node):
    """node.grad, cleared on the node, so the call it is handed to holds the
    only reference and may drop it once spent."""
    g, node.grad = node.grad, None
    return g


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad tensor reachable from loss.

    loss must be a scalar. Walks the recorded graph in reverse topological
    order; each node's local backward accumulates into its parents. Leaves
    keep their gradients, which add up over calls. An interior node's
    gradient is handed to its own backward: .grad is None again before the
    call, and no local here holds the array, so the call holds the only
    reference and can drop it once spent. Interior gradients are also reset
    before the walk, so a walk that raised part-way leaves none for the
    next call to add to.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:  # an earlier call's gradient; leaves keep theirs
            node.grad = None
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    loss.grad.flags.writeable = False
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(_spend(node))  # no local holds it while the call runs
