"""Independent recomputations the benchmark checks the program's outputs
against.  Plain numpy or plain Python, float64, written from the method's
definitions rather than from pointcl's code paths."""

from __future__ import annotations

import numpy as np


def infonce(z_orig, z_trans, tau):
    """Cloud-level InfoNCE: row i's positive is column i of z_orig z_trans^T / tau."""
    zo = np.asarray(z_orig, dtype=np.float64)
    zt = np.asarray(z_trans, dtype=np.float64)
    total = 0.0
    for i in range(zo.shape[0]):
        logits = zt @ zo[i] / tau
        top = logits.max()
        total += top + np.log(np.exp(logits - top).sum()) - logits[i]
    return total / zo.shape[0]


def pointwise_infonce(Z_orig, Z_trans, tau):
    """Per-point InfoNCE inside each pair: point i's positive is slot i."""
    n, N, _ = Z_orig.shape
    return sum(infonce(Z_orig[a], Z_trans[a], tau) for a in range(n)) / n


def rotate_y180(points):
    """(x, y, z) -> (-x, y, -z), exact in any float format."""
    return points * np.array([-1.0, 1.0, -1.0], dtype=points.dtype)


def knn_smooth(points, k, lam, tie_tol=1e-5):
    """Each point blended with the mean of its k nearest other points.

    Returns (smoothed float64 [N, 3], ambiguous bool [N]).  A row is
    ambiguous when its k-th and (k+1)-th neighbour distances tie within
    tie_tol of the largest distance, so float32 arithmetic may pick
    either point.
    """
    p = np.asarray(points, dtype=np.float64)
    n = len(p)
    out = np.empty_like(p)
    ambiguous = np.zeros(n, dtype=bool)
    for i in range(n):
        d = ((p - p[i]) ** 2).sum(axis=1)
        d[i] = np.inf
        order = np.argsort(d, kind="stable")
        out[i] = (1 - lam) * p[i] + lam * p[order[:k]].mean(axis=0)
        if k < n - 1:
            ambiguous[i] = d[order[k]] - d[order[k - 1]] <= tie_tol * d[order[-2]]
    return out, ambiguous


def miou(preds, gts, classes, parts_per_class):
    """(instance mIoU, class mIoU) by set counting over point indices."""
    shape_ious, by_class = [], {}
    for pred, gt, cls in zip(preds, gts, classes):
        ious = []
        for part in parts_per_class[cls]:
            p = {i for i, v in enumerate(pred) if v == part}
            g = {i for i, v in enumerate(gt) if v == part}
            ious.append(len(p & g) / len(p | g) if p | g else 1.0)
        iou = sum(ious) / len(ious)
        shape_ious.append(iou)
        by_class.setdefault(cls, []).append(iou)
    class_means = [sum(v) / len(v) for v in by_class.values()]
    return sum(shape_ious) / len(shape_ious), sum(class_means) / len(class_means)


def accuracy(pred, gt, num_classes):
    """(overall accuracy, mean per-class accuracy) by counting."""
    pairs = list(zip(pred.tolist(), gt.tolist()))
    overall = sum(p == g for p, g in pairs) / len(pairs)
    per_class = []
    for c in range(num_classes):
        hits = [p == g for p, g in pairs if g == c]
        if hits:
            per_class.append(sum(hits) / len(hits))
    return overall, sum(per_class) / len(per_class)
