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
    "mul",
    "scale",
    "linear_forward",
    "relu",
    "reshape",
    "linear_points_global",
    "shared_mlp",
    "shared_mlp_max_pool",
    "dropout",
    "softmax_cross_entropy",
    "linear_cross_entropy",
    "l2_normalize_rows",
    "info_nce",
    "index",
    "tsum",
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
    grad : same-shape read-only np.ndarray, maybe a view another grad shares
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
    """The only writer of .grad: keeps the first g as given, even a view or an
    array another parent holds too, and adds later ones out of place. Stored
    grads are read-only, so a backward that writes into one raises."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        g = t.grad + g
    g = np.asarray(g, dtype=t.data.dtype).view()
    g.flags.writeable = False
    t.grad = g


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out_data = a.data * b.data

    def bw(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _result(out_data, (a, b), bw, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = a.data * c

    def bw(g):
        _accum(a, g * c)

    return _result(out_data, (a,), bw, "scale")


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
    out_data = np.maximum(x.data, 0)
    mask = x.data > 0  # subgradient 0 at the tie x == 0

    def bw(g):
        _accum(x, g * mask)

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


def _first_at_max(x, m, neg=None):
    """[B, D] index of the first point at the max m [B, D] of x [B, N, D] (at
    the min in the channels of the [D] mask neg): the largest weight N - n
    among the points not below m (not above), a few times cheaper than an
    argmax over the strided point axis. A NaN m gives point 0."""
    n = x.shape[1]
    rev = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))
    off = x < m[:, None, :]
    if neg is not None and neg.any():
        off[:, :, neg] = x[:, :, neg] > m[:, None, neg]
    return n - (~off * rev[:, None]).max(axis=1)


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


def _bn_center(name, x, w, bn, momentum, training):
    """x @ w centred in place, and inv = 1 / sqrt(var + eps): the batch-norm
    statistics of both encoder-layer ops.

    Training mode centres by the batch mean, takes the variance from the
    centred array and moves the running statistics toward the batch ones:
    running <- momentum * running + (1 - momentum) * batch. Eval mode
    centres by the running mean and takes the running variance.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or bn.dim != w.shape[1]):
        raise ShapeError(f"{name}: shapes {x.shape} x {w.shape} and batch "
                         f"norm of width {bn.dim} do not conform")
    if training and x.shape[0] < 2:
        raise ShapeError(f"{name}: batch of {x.shape[0]} too small for training mode")
    t = x.data @ w.data
    if training:
        m = t.mean(axis=0)
        t -= m
        v = np.einsum("ij,ij->j", t, t) / t.shape[0]  # from the centred t
        mom = float(momentum)
        bn.running_mean = (mom * bn.running_mean + (1.0 - mom) * m).astype(t.dtype)
        bn.running_var = (mom * bn.running_var + (1.0 - mom) * v).astype(t.dtype)
    else:
        t -= bn.running_mean
        v = bn.running_var
    return t, 1.0 / np.sqrt(v + _BN_EPS)


def shared_mlp(x: Tensor, w: Tensor, bn: BNState, momentum: float,
               training: bool) -> Tensor:
    """One shared-MLP layer, relu(batch_norm(x @ w)), as one tape node.

    No bias: batch norm subtracts the mean, which would cancel it. The
    pre-activation is normalized in place and kept as xhat; the backward
    derives the relu mask from the output.
    """
    xhat, inv = _bn_center("shared_mlp", x, w, bn, momentum, training)
    xhat *= inv
    out_data = xhat * bn.gamma.data
    out_data += bn.beta.data
    np.maximum(out_data, 0, out=out_data)
    a = bn.gamma.data * inv

    def bw(g):
        gh = g * (out_data > 0)
        dgamma = np.einsum("ij,ij->j", gh, xhat)
        dbeta = gh.sum(axis=0)
        if training:
            B = gh.shape[0]
            gh -= xhat * (dgamma / B)
            gh -= dbeta / B
        gh *= a
        _accum(bn.gamma, dgamma)
        _accum(bn.beta, dbeta)
        _accum(w, x.data.T @ gh)
        if x.requires_grad:
            _accum(x, gh @ w.data.T)

    return _result(out_data, (x, w, bn.gamma, bn.beta), bw, "shared_mlp")


def shared_mlp_max_pool(x: Tensor, w: Tensor, bn: BNState, momentum: float,
                        training: bool, n_points: int) -> Tensor:
    """The max over the points of reshape(shared_mlp(x, w, bn, ...), (B, N, D))
    as one tape node, x[B*N, Din] -> [B, D]: the encoder's last layer and its
    pool. An empty cloud (N = 0) has no max and raises.

    It pools before the affine: the max over the points of the centred
    pre-activation t (the min where gamma < 0), then *inv, *gamma, +beta and
    the relu on those B*D entries alone, in shared_mlp's order. Each step is
    monotone, so the values are shared_mlp's pooled bit for bit, and t is
    the only [B*N, D] array. The backward routes each pooled gradient to the
    first point at that max (min) of t. The pre-activation gradient is the
    batch-norm term -a * (t * inv * dgamma + dbeta) / R (none in eval mode)
    plus a times the pooled gradient at the routed points.
    """
    n_points = int(n_points)
    if x.data.ndim != 2 or n_points < 1 or x.shape[0] % n_points:
        raise ShapeError(f"shared_mlp_max_pool: {x.shape} is not [B*N, D] "
                         f"rows for N = {n_points} points")
    t, inv = _bn_center("shared_mlp_max_pool", x, w, bn, momentum, training)
    R, D = t.shape
    t3 = t.reshape(R // n_points, n_points, D)
    neg = bn.gamma.data < 0
    tp = t3.max(axis=1)
    if neg.any():
        tp[:, neg] = t3[:, :, neg].min(axis=1)
    pooled = np.maximum(tp * inv * bn.gamma.data + bn.beta.data, 0)
    a = bn.gamma.data * inv

    def bw(g):
        B = g.shape[0]
        first = _first_at_max(t3, tp, neg)
        at = ((first + n_points * np.arange(B)[:, None]) * D + np.arange(D)).ravel()
        gp = g * (pooled > 0)
        dgamma = np.einsum("ij,ij->j", gp, t.reshape(-1)[at].reshape(B, D) * inv)
        dbeta = gp.sum(axis=0)
        if training:
            gh = t * inv  # xhat, as shared_mlp forms it
            gh *= -a * dgamma / R
            gh -= a * dbeta / R
        else:
            gh = np.zeros_like(t)
        gh.reshape(-1)[at] += (gp * a).ravel()  # at: flat [R, D] positions, unique
        _accum(bn.gamma, dgamma)
        _accum(bn.beta, dbeta)
        _accum(w, x.data.T @ gh)
        if x.requires_grad:
            _accum(x, gh @ w.data.T)

    return _result(pooled, (x, w, bn.gamma, bn.beta), bw, "shared_mlp_max_pool")


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability rate, scale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    factor = 1.0 / (1.0 - rate)
    out_data = x.data * keep * factor

    def bw(g):
        _accum(x, g * keep * factor)

    return _result(out_data, (x,), bw, "dropout")


def _row_max(x):
    """Max over the last axis: [..., K] -> [...].

    Reduces a copy with the last axis moved to the front, so the reduction
    runs along contiguous rows; max(axis=-1) over a short last axis is
    several times slower.
    """
    return np.ascontiguousarray(np.moveaxis(x, -1, 0)).max(axis=0)


def _checked_labels(name, labels, B, K):
    """labels as an int64 [B] array of class ids below K, for B > 0 logit rows."""
    labels = np.asarray(labels, dtype=np.int64)
    if B == 0:
        raise ShapeError(f"{name}: empty batch, logits {(B, K)}")
    if labels.shape != (B,):
        raise ShapeError(f"{name}: {B} rows but {labels.shape} labels")
    if labels.min() < 0 or labels.max() >= K:
        raise IndexError(f"label out of range [0, {K})")
    return labels


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over rows of -log softmax(logits)[label], row-max stabilized."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: expected [B,K], got {logits.shape}")
    B, K = logits.shape
    labels = _checked_labels("softmax_cross_entropy", labels, B, K)
    rows = np.arange(B)
    # One working array: shifted logits, then their exponents in place.
    e = logits.data - _row_max(logits.data)[:, None]
    picked = e[rows, labels]
    np.exp(e, out=e)
    s = e @ np.ones(K, dtype=e.dtype)
    out_data = np.mean(np.log(s) - picked)

    def bw(g):
        gl = e / s[:, None]
        gl[rows, labels] -= 1.0
        gl *= g / B
        _accum(logits, gl)

    return _result(np.asarray(out_data, dtype=logits.dtype), (logits,), bw,
                   "softmax_cross_entropy")


def linear_cross_entropy(x: Tensor, w: Tensor, b: Tensor, labels) -> Tensor:
    """softmax_cross_entropy(linear_forward(x, w, b), labels) as one tape
    node: the linear probe's loss.

    The logits are formed class-major, as one [K, R] array, so each per-row
    max, sum and label read runs over the long axis. That array becomes the
    softmax in place and then (P - Y) / R, the logits' gradient. The forward
    also takes each trained parent's gradient from it (so a probe on frozen
    x never forms the [R, D] one) and keeps those alone; the backward
    scales them by g.
    """
    _check_affine("linear_cross_entropy", x, w, b)
    R, K = x.shape[0], w.shape[1]
    labels = _checked_labels("linear_cross_entropy", labels, R, K)
    at = labels * R + np.arange(R)  # flat [K, R] positions of the label entries
    e = w.data.T @ x.data.T
    e += b.data[:, None]
    e -= e.max(axis=0)
    picked = e.reshape(-1)[at]
    np.exp(e, out=e)
    s = e.sum(axis=0)
    out_data = np.mean(np.log(s) - picked)
    e /= s * R
    e.reshape(-1)[at] -= 1.0 / R
    grads = []  # (parent, its gradient at g = 1)
    if x.requires_grad:
        grads.append((x, e.T @ w.data.T))
    if w.requires_grad:
        grads.append((w, (e @ x.data).T))
    if b.requires_grad:
        grads.append((b, e.sum(axis=1)))

    def bw(g):
        for p, d in grads:
            _accum(p, g * d)

    return _result(np.asarray(out_data, dtype=x.dtype), (x, w, b), bw,
                   "linear_cross_entropy")


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis of x to unit norm."""
    norms = np.sqrt((x.data ** 2).sum(axis=-1, keepdims=True))
    norms = np.maximum(norms, eps)
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
        m = _row_max(e)
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


def tsum(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum(), dtype=x.dtype)

    def bw(g):
        _accum(x, np.broadcast_to(g, x.shape))

    return _result(out_data, (x,), bw, "sum")


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad tensor reachable from loss.

    loss must be a scalar. Walks the recorded graph in reverse topological
    order; each node's local backward accumulates into its parents. Leaf
    gradients add up over calls; intermediate ones are reset first.
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
            node._backward(node.grad)
