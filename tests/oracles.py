"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: plain-numpy brute
force for the losses and IoU, and central finite differences for gradients.
The reference_* ops keep an earlier form of a library op; the one that
stands in for a tape op records itself through the tape's own helpers.
So do mul, scale and tsum, the tape ops only the tests record: they turn
an op's output into a weighted scalar loss.
"""

import numpy as np

from pointcl import tensor as T


def mul(a, b):
    """Elementwise a * b of two same-shape tensors."""
    if a.shape != b.shape:
        raise T.ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def bw(g):
        T._accum(a, g * b.data)
        T._accum(b, g * a.data)

    return T._result(a.data * b.data, (a, b), bw, "mul")


def scale(a, c):
    """a * c for a float c."""
    c = float(c)

    def bw(g):
        T._accum(a, g * c)

    return T._result(a.data * c, (a,), bw, "scale")


def tsum(x):
    """The sum of every entry of x, a scalar tensor."""
    def bw(g):
        T._accum(x, np.broadcast_to(g, x.shape))

    return T._result(np.asarray(x.data.sum(), dtype=x.dtype), (x,), bw, "sum")


def brute_force_infonce(z_orig, z_trans, tau, exclude_positive=False):
    """Softmax cross-entropy with pseudo-label i over raw dot products."""
    n = z_orig.shape[0]
    total = 0.0
    for i in range(n):
        logits = np.array([float(np.dot(z_orig[i], z_trans[t])) / tau
                           for t in range(n)])
        if exclude_positive:
            denom_terms = [np.exp(logits[t]) for t in range(n) if t != i]
        else:
            denom_terms = [np.exp(logits[t]) for t in range(n)]
        total += -(logits[i] - np.log(sum(denom_terms)))
    return total / n


def brute_force_pointwise(Z_orig, Z_trans, tau, src=None, symmetric=False,
                          exclude_positive=False):
    """Per-point cross-entropy within each pair, averaged over the points
    that have a positive.

    src[a][j] is the original point that transformed slot j of cloud a came
    from; None means slot j came from point j. The positive of original
    point i is the first slot sourced from i, and an original point that no
    slot came from is left out. With symmetric, the mean over transformed
    slots, each with positive src[a][j], is averaged in at weight 1/2.
    """
    n, N, _ = Z_orig.shape
    if src is None:
        src = [list(range(N)) for _ in range(n)]

    def row_loss(query, keys, pos):
        logits = [float(np.dot(query, key)) / tau for key in keys]
        denom = sum(np.exp(l) for t, l in enumerate(logits)
                    if not (exclude_positive and t == pos))
        return -(logits[pos] - np.log(denom))

    forward, backward = [], []
    for a in range(n):
        for i in range(N):
            slots = [j for j in range(N) if src[a][j] == i]
            if slots:
                forward.append(row_loss(Z_orig[a, i], Z_trans[a], slots[0]))
            if symmetric:
                backward.append(row_loss(Z_trans[a, i], Z_orig[a], src[a][i]))
    loss = sum(forward) / len(forward)
    if symmetric:
        loss = 0.5 * (loss + sum(backward) / len(backward))
    return loss


def reference_cross_entropy(logits, labels):
    """Mean softmax cross-entropy over rows and its gradient with respect to
    the logits, in float64: log-sum-exp minus the label logit."""
    z = np.asarray(logits, dtype=np.float64)
    rows = np.arange(z.shape[0])
    m = np.max(z, axis=1)
    lse = m + np.log(np.sum(np.exp(z - m[:, None]), axis=1))
    loss = float(np.mean(lse - z[rows, labels]))
    grad = np.exp(z - lse[:, None])
    grad[rows, labels] -= 1.0
    return loss, grad / z.shape[0]


def reference_probe_fit(feats, labels, num_classes, epochs, lr,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """Full-batch Adam on an affine classifier from zero weights, in float64.

    Returns (w [D, K], b [K]).
    """
    x = np.asarray(feats, dtype=np.float64)
    w = np.zeros((x.shape[1], num_classes))
    b = np.zeros(num_classes)
    moments = [[np.zeros_like(w), np.zeros_like(w)],
               [np.zeros_like(b), np.zeros_like(b)]]
    for t in range(1, epochs + 1):
        _, gz = reference_cross_entropy(x @ w + b, labels)
        new = []
        for p, g, mv in zip((w, b), (x.T @ gz, gz.sum(axis=0)), moments):
            mv[0] = beta1 * mv[0] + (1 - beta1) * g
            mv[1] = beta2 * mv[1] + (1 - beta2) * g * g
            mhat = mv[0] / (1 - beta1 ** t)
            vhat = mv[1] / (1 - beta2 ** t)
            new.append(p - lr * mhat / (np.sqrt(vhat) + eps))
        w, b = new
    return w, b


def reference_smooth(points, k, lam):
    """One cloud blended with the mean of each point's k nearest other
    points, in float64, one point at a time."""
    p = np.asarray(points, dtype=np.float64)
    out = np.empty_like(p)
    for i in range(len(p)):
        d = ((p - p[i]) ** 2).sum(axis=1)
        d[i] = np.inf
        out[i] = (1 - lam) * p[i] + lam * p[np.argsort(d)[:k]].mean(axis=0)
    return out


def reference_gen_cube(n, rng):
    """Cube-surface points and per-axis part labels, one point at a time,
    with the same draws as pointcloud._gen_cube."""
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1, 1, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for i in range(n):
        others = [a for a in range(3) if a != axis[i]]
        pts[i, axis[i]] = sign[i]
        pts[i, others[0]] = uv[i, 0]
        pts[i, others[1]] = uv[i, 1]
    return pts, axis.astype(np.int64)


def _reference_gen_sphere(n, rng):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v, (v[:, 2] < 0).astype(np.int64)


def _reference_gen_cylinder(n, rng, half_height=1.0, radius=0.5):
    on_cap = rng.random(n) < 0.2
    theta = rng.uniform(0, 2 * np.pi, size=n)
    pts = np.empty((n, 3))
    labels = np.empty(n, dtype=np.int64)
    body = ~on_cap
    pts[body, 0] = radius * np.cos(theta[body])
    pts[body, 1] = radius * np.sin(theta[body])
    pts[body, 2] = rng.uniform(-half_height, half_height, size=body.sum())
    labels[body] = 0
    r = radius * np.sqrt(rng.random(on_cap.sum()))
    pts[on_cap, 0] = r * np.cos(theta[on_cap])
    pts[on_cap, 1] = r * np.sin(theta[on_cap])
    pts[on_cap, 2] = np.where(rng.random(on_cap.sum()) < 0.5, half_height, -half_height)
    labels[on_cap] = 1
    return pts, labels


def _reference_gen_torus(n, rng, R=1.0, r=0.35):
    u = rng.uniform(0, 2 * np.pi, size=n)
    v = rng.uniform(0, 2 * np.pi, size=n)
    pts = np.stack([
        (R + r * np.cos(v)) * np.cos(u),
        (R + r * np.cos(v)) * np.sin(u),
        r * np.sin(v),
    ], axis=1)
    return pts, (np.cos(v) < 0).astype(np.int64)


def _reference_gen_plane_cross(n, rng):
    which = rng.random(n) < 0.5
    uv = rng.uniform(-1, 1, size=(n, 2))
    pts = np.zeros((n, 3))
    pts[which, 0] = uv[which, 0]
    pts[which, 2] = uv[which, 1]
    pts[~which, 1] = uv[~which, 0]
    pts[~which, 2] = uv[~which, 1]
    return pts, (~which).astype(np.int64)


REFERENCE_SHAPES = {
    "sphere": (_reference_gen_sphere, 2),
    "cube": (reference_gen_cube, 3),
    "cylinder": (_reference_gen_cylinder, 2),
    "torus": (_reference_gen_torus, 2),
    "plane-cross": (_reference_gen_plane_cross, 2),
}


def reference_synthetic_dataset(classes, per_class, points_per_cloud, with_parts, rng):
    """pointcloud.generate_synthetic_dataset as first written: per cloud, the
    shape's draws, a float32 PointCloud with offset part labels, then the
    unit-sphere normalization of that one cloud. Returns the samples as
    (points, class, point labels or None, id) tuples and the parts map or
    None; the library must match their bytes and the rng state after."""
    samples, parts_per_class, part_offset = [], {}, 0
    for ci, name in enumerate(classes):
        gen, nparts = REFERENCE_SHAPES[name]
        parts_per_class[ci] = list(range(part_offset, part_offset + nparts))
        for _ in range(per_class):
            pts, labels = gen(points_per_cloud, rng)
            pts = np.asarray(pts, dtype=np.float32)
            pts = pts - pts.mean(axis=0, keepdims=True)
            r = np.linalg.norm(pts, axis=1).max()
            if r > 0:
                pts = pts / r
            samples.append((pts.astype(np.float32), ci,
                            labels + part_offset if with_parts else None, len(samples)))
        part_offset += nparts
    return samples, parts_per_class if with_parts else None


def brute_force_iou(pred, gt, part_ids):
    """Per-shape mean IoU by explicit set counting."""
    pred, gt = list(pred), list(gt)
    ious = []
    for part in part_ids:
        p = {i for i, v in enumerate(pred) if v == part}
        g = {i for i, v in enumerate(gt) if v == part}
        union = p | g
        ious.append(1.0 if not union else len(p & g) / len(union))
    return sum(ious) / len(ious)


def finite_difference_grads(f, params, h=1e-4, max_entries=None, rng=None):
    """Central finite differences of scalar f() w.r.t. each Tensor in params.

    Mutates param data in place and restores it. Returns a list of
    (flat_index, numeric_grad) lists, one per parameter; max_entries caps
    the probed entries per parameter.
    """
    out = []
    for p in params:
        flat = p.data.ravel()
        if max_entries is not None and flat.size > max_entries:
            idxs = (rng or np.random.default_rng(0)).choice(
                flat.size, max_entries, replace=False)
        else:
            idxs = np.arange(flat.size)
        entries = []
        for j in idxs:
            old = flat[j]
            flat[j] = old + h
            l1 = f()
            flat[j] = old - h
            l2 = f()
            flat[j] = old
            entries.append((int(j), (l1 - l2) / (2 * h)))
        out.append(entries)
    return out


def max_rel_error(analytic_grads, fd_entries, floor=1e-6):
    """Worst relative disagreement between analytic and numeric gradients."""
    worst = 0.0
    for g, entries in zip(analytic_grads, fd_entries):
        if g is None:
            continue
        flat = g.ravel()
        for j, num in entries:
            an = flat[j]
            rel = abs(num - an) / max(floor, abs(num) + abs(an))
            worst = max(worst, rel)
    return worst


def reference_encoder_layer(x, w, gamma, beta, running_mean, running_var,
                            momentum, training, gout, eps=1e-5):
    """relu(batch_norm(x @ w)) and its gradients in float64, unfused.

    Uses the textbook formulas (np.var, the three-term batch-norm backward)
    rather than the library's helpers. gout is the gradient at the output.
    Returns (out, grads dict for x, w, gamma, beta, new running mean,
    new running var).
    """
    x, w, gamma, beta, gout = (np.asarray(a, dtype=np.float64)
                               for a in (x, w, gamma, beta, gout))
    h = x @ w
    if training:
        m, v = h.mean(axis=0), h.var(axis=0)
        running_mean = momentum * running_mean + (1 - momentum) * m
        running_var = momentum * running_var + (1 - momentum) * v
    else:
        m, v = running_mean, running_var
    inv = 1.0 / np.sqrt(v + eps)
    xhat = (h - m) * inv
    y = xhat * gamma + beta
    out = np.maximum(y, 0.0)
    gy = gout * (y > 0)
    gxhat = gy * gamma
    if training:
        B = h.shape[0]
        gh = inv / B * (B * gxhat - gxhat.sum(axis=0)
                        - xhat * (gxhat * xhat).sum(axis=0))
    else:
        gh = gxhat * inv
    grads = {"x": gh @ w.T, "w": x.T @ gh,
             "gamma": (gy * xhat).sum(axis=0), "beta": gy.sum(axis=0)}
    return out, grads, running_mean, running_var


def reference_accum(t, g):
    """tensor._accum as first written: the first gradient is copied and a
    later one is added in place. The copy-free, read-only _accum must match
    it bit for bit."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def reference_adam_step(params, state, lr):
    """Bias-corrected Adam with a new array for every operation, the update
    as first written; the in-place training.adam_step must match it bit for
    bit."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for i, p in enumerate(params):
        g = p.grad
        if g is None:
            continue
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        mhat = state.m[i] / (1 - b1 ** t)
        vhat = state.v[i] / (1 - b2 ** t)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + state.eps)
        p.grad = None


def reference_sample_stack(clouds, n_out, rng):
    """The sampling rule as a per-cloud loop, in order: a cloud with n_out
    points is a copy of its stored points and labels and takes no draw; any
    other cloud is resampled by one rng.choice. Then np.stack. Returns
    (points [S, n_out, 3], labels [S, n_out] or None unless every cloud has
    labels); pointcloud.sample_stack must match its bytes and rng state."""
    points, labels = [], []
    for p in clouds:
        idx = (np.arange(n_out) if p.n == n_out
               else rng.choice(p.n, size=n_out, replace=p.n < n_out))
        points.append(p.points[idx].copy())
        labels.append(None if p.point_labels is None else p.point_labels[idx])
    if any(lab is None for lab in labels):
        return np.stack(points), None
    return np.stack(points), np.stack(labels)


def reference_shared_mlp_max_pool(x, w, bn, momentum, training, n_points):
    """tensor.shared_mlp_max_pool as first written, dense: the batch-norm
    affine and relu over all B*N points, then a max over the points; the
    backward routes each pooled gradient to the first point at the max of
    that output. The pool-before-affine op takes its statistics from x's
    Gram matrix and folds the affine into the weight, so it matches this
    up to rounding: within 1e-12 relative over the tests' fixed-seed
    float64 pretraining run."""
    xhat = x.data @ w.data
    if training:
        m = xhat.mean(axis=0)
        xhat -= m
        v = np.einsum("ij,ij->j", xhat, xhat) / xhat.shape[0]
        mom = float(momentum)
        bn.running_mean = (mom * bn.running_mean + (1.0 - mom) * m).astype(xhat.dtype)
        bn.running_var = (mom * bn.running_var + (1.0 - mom) * v).astype(xhat.dtype)
    else:
        xhat -= bn.running_mean
        v = bn.running_var
    inv = 1.0 / np.sqrt(v + T._BN_EPS)
    xhat *= inv
    out = xhat * bn.gamma.data
    out += bn.beta.data
    np.maximum(out, 0, out=out)
    a = bn.gamma.data * inv
    R, D = out.shape
    out3 = out.reshape(R // n_points, n_points, D)
    pooled = out3.max(axis=1)

    def bw(g):
        B = g.shape[0]
        first = T._first_at_max(out3, pooled)
        at = ((first + n_points * np.arange(B)[:, None]) * D + np.arange(D)).ravel()
        gp = g * (pooled > 0)
        dgamma = np.einsum("ij,ij->j", gp, xhat.reshape(-1)[at].reshape(B, D))
        dbeta = gp.sum(axis=0)
        if training:
            gh = xhat * (-a * dgamma / R)
            gh -= a * dbeta / R
        else:
            gh = np.zeros_like(xhat)
        gh.reshape(-1)[at] += (gp * a).ravel()
        T._accum(bn.gamma, dgamma)
        T._accum(bn.beta, dbeta)
        T._accum(w, x.data.T @ gh)
        if x.requires_grad:
            T._accum(x, gh @ w.data.T)

    return T._result(pooled, (x, w, bn.gamma, bn.beta), bw, "shared_mlp_max_pool")
