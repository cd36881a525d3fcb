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
    "add",
    "mul",
    "scale",
    "matmul",
    "transpose",
    "linear_forward",
    "relu",
    "reshape",
    "linear_points_global",
    "max_pool_points",
    "shared_mlp",
    "shared_mlp_max_pool",
    "dropout",
    "softmax_cross_entropy",
    "l2_normalize_rows",
    "index",
    "logsumexp",
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


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out_data = a.data + b.data

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _result(out_data, (a, b), bw, "add")


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a[M,K] @ b[K,P], or a[B,M,K] @ b[B,K,P]: one product per batch entry."""
    if a.data.ndim not in (2, 3) or a.shape[:-2] + a.shape[-1:] != b.shape[:-1]:
        raise ShapeError(f"matmul: shapes {a.shape} x {b.shape} do not conform")
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _result(out_data, (a, b), bw, "matmul")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a 2-d or 3-d tensor."""
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"transpose: expected 2-d or 3-d, got {a.shape}")
    out_data = np.swapaxes(a.data, -1, -2).copy()

    def bw(g):
        _accum(a, np.swapaxes(g, -1, -2))

    return _result(out_data, (a,), bw, "transpose")


def linear_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[B,D] @ w[D,K] + b[K], the affine layer, as one tape node.

    The gradient of a frozen x or w is never formed; the bias gradient is
    the column sum ones(B) @ g.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise ShapeError(f"linear_forward: shapes {x.shape} x {w.shape} + {b.shape} "
                         "do not conform")
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


def max_pool_points(x: Tensor) -> Tensor:
    """Max over the point axis: [B,N,D] -> [B,D].

    Gradient routes to the first argmax per (b, d); ties broken by index.
    The argmax is found in backward, so a pass that never differentiates
    pays for the max alone.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"max_pool_points: expected [B,N,D], got {x.shape}")
    if x.shape[1] == 0:
        raise ShapeError("max_pool_points: empty cloud (N == 0)")
    out_data = np.max(x.data, axis=1)

    def bw(g):
        idx = np.argmax(x.data, axis=1)[:, None, :]  # first occurrence on ties
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, g[:, None, :], axis=1)
        _accum(x, gx)

    return _result(out_data, (x,), bw, "max_pool_points")


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


def _bn_relu(name, x, w, bn, momentum, training):
    """relu(batch_norm(x @ w)), the forward of both encoder-layer ops.

    Returns (out, xhat, a): xhat is the normalized x @ w and a = gamma /
    sqrt(var + eps). Training mode normalizes by the batch statistics and
    moves the running ones toward them: running <- momentum * running +
    (1 - momentum) * batch. Eval mode normalizes by the running statistics.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or bn.dim != w.shape[1]):
        raise ShapeError(f"{name}: shapes {x.shape} x {w.shape} and batch "
                         f"norm of width {bn.dim} do not conform")
    if training and x.shape[0] < 2:
        raise ShapeError(f"{name}: batch of {x.shape[0]} too small for training mode")
    xhat = x.data @ w.data
    if training:
        m = xhat.mean(axis=0)
        xhat -= m
        v = np.einsum("ij,ij->j", xhat, xhat) / xhat.shape[0]  # from the centered xhat
        mom = float(momentum)
        bn.running_mean = (mom * bn.running_mean + (1.0 - mom) * m).astype(xhat.dtype)
        bn.running_var = (mom * bn.running_var + (1.0 - mom) * v).astype(xhat.dtype)
    else:
        xhat -= bn.running_mean
        v = bn.running_var
    inv = 1.0 / np.sqrt(v + _BN_EPS)
    xhat *= inv
    out = xhat * bn.gamma.data
    out += bn.beta.data
    np.maximum(out, 0, out=out)
    return out, xhat, bn.gamma.data * inv


def shared_mlp(x: Tensor, w: Tensor, bn: BNState, momentum: float,
               training: bool) -> Tensor:
    """One shared-MLP layer, relu(batch_norm(x @ w)), as one tape node.

    No bias: batch norm subtracts the mean, which would cancel it. The
    pre-activation is normalized in place and kept as xhat; the backward
    derives the relu mask from the output.
    """
    out_data, xhat, a = _bn_relu("shared_mlp", x, w, bn, momentum, training)

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
    """max_pool_points(reshape(shared_mlp(x, w, bn, ...), (B, N, D))) as one
    tape node, x[B*N, Din] -> [B, D]: the encoder's last layer and its pool.

    The forward forms no argmax. One point per (cloud, channel) survives the
    pool, so the backward takes the relu mask, dgamma and dbeta from the B*D
    pooled entries alone. The dense pre-activation gradient is the batch-norm
    term -a * (xhat * dgamma + dbeta) / R (none in eval mode) plus a times the
    pooled gradient at the first point that reaches each max.
    """
    n_points = int(n_points)
    if x.data.ndim != 2 or n_points < 1 or x.shape[0] % n_points:
        raise ShapeError(f"shared_mlp_max_pool: {x.shape} is not [B*N, D] "
                         f"rows for N = {n_points} points")
    out, xhat, a = _bn_relu("shared_mlp_max_pool", x, w, bn, momentum, training)
    R, D = out.shape
    out3 = out.reshape(R // n_points, n_points, D)
    pooled = out3.max(axis=1)

    def bw(g):
        B = g.shape[0]
        # The first point at the max has the largest weight N - n among the
        # points not below it, a few times cheaper to find than an argmax
        # over the strided point axis. A NaN max routes to point 0.
        rev = np.arange(n_points, 0, -1, dtype=np.min_scalar_type(n_points))
        first = n_points - (~(out3 < pooled[:, None, :]) * rev[:, None]).max(axis=1)
        at = ((first + n_points * np.arange(B)[:, None]) * D + np.arange(D)).ravel()
        gp = g * (pooled > 0)
        dgamma = np.einsum("ij,ij->j", gp, xhat.reshape(-1)[at].reshape(B, D))
        dbeta = gp.sum(axis=0)
        if training:
            gh = xhat * (-a * dgamma / R)
            gh -= a * dbeta / R
        else:
            gh = np.zeros_like(xhat)
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


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over rows of -log softmax(logits)[label], row-max stabilized."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: expected [B,K], got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    B, K = logits.shape
    if B == 0:
        raise ShapeError(f"softmax_cross_entropy: empty batch, logits {logits.shape}")
    if labels.shape != (B,):
        raise ShapeError(f"softmax_cross_entropy: {B} rows but {labels.shape} labels")
    if labels.min() < 0 or labels.max() >= K:
        raise IndexError(f"label out of range [0, {K})")
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


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis of x to unit norm."""
    norms = np.sqrt((x.data ** 2).sum(axis=-1, keepdims=True))
    norms = np.maximum(norms, eps)
    y = x.data / norms

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, (g - y * dot) / norms)

    return _result(y, (x,), bw, "l2_normalize_rows")


def index(x: Tensor, key) -> Tensor:
    """x.data[key] for any numpy index: an int, a slice or index arrays.

    The gradient scatters back into the indexed positions. Index arrays may
    select an element twice, so their gradient adds up through np.add.at;
    ints and slices select each element once and take a plain assignment.
    """
    out_data = np.array(x.data[key])
    parts = key if isinstance(key, tuple) else (key,)
    repeats = any(isinstance(k, (np.ndarray, list)) for k in parts)

    def bw(g):
        gx = np.zeros_like(x.data)
        if repeats:
            np.add.at(gx, key, g)
        else:
            gx[key] = g
        _accum(x, gx)

    return _result(out_data, (x,), bw, "slice")


def logsumexp(x: Tensor) -> Tensor:
    """log sum exp over the last axis, max-stabilized: [..., K] -> [...]."""
    m = _row_max(x.data)[..., None]
    ez = np.exp(x.data - m)
    s = ez.sum(axis=-1, keepdims=True)
    out_data = (m + np.log(s))[..., 0]
    soft = ez / s

    def bw(g):
        _accum(x, g[..., None] * soft)

    return _result(out_data, (x,), bw, "logsumexp")


def tsum(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum(), dtype=x.dtype)

    def bw(g):
        _accum(x, np.broadcast_to(g, x.shape))

    return _result(out_data, (x,), bw, "sum")


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad tensor reachable from loss.

    loss must be a scalar. Walks the recorded graph in reverse topological
    order; each node's local backward accumulates into its parents.
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
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    loss.grad.flags.writeable = False
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
