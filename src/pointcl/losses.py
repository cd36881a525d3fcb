"""Contrastive objectives.

Cloud-level loss: each original embedding attends over all transformed
embeddings in the minibatch; the aligned one is the positive. With n pairs
this is cross-entropy with pseudo-labels 0..n-1 over similarity logits.
Point-wise loss: the same construction per point within each pair, with
pseudo-labels equal to point indices 0..N-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = ["LossConfig", "contrastive_loss_cls", "contrastive_loss_seg"]


@dataclass
class LossConfig:
    tau: float = 0.1
    symmetric: bool = False
    normalize: bool = True          # consumed by models.project
    exclude_positive: bool = False  # literal denominator variant, for study

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau}")


def _ce_direction(sim: Tensor, labels, exclude_positive: bool):
    if not exclude_positive:
        return T.softmax_cross_entropy(sim, labels)
    # Literal variant: drop the positive term from the denominator. With
    # logits l and label j this is -l_j + log sum_{t != j} exp(l_t).
    n = sim.shape[0]
    mask = np.zeros(sim.shape, dtype=sim.dtype)
    mask[np.arange(n), labels] = -1e9
    lse = T.logsumexp(T.add(sim, Tensor(mask)))
    pos = T.index(sim, (np.arange(n), labels))
    per_row = T.add(lse, T.scale(pos, -1.0))
    return T.scale(T.tsum(per_row), 1.0 / n)


def contrastive_loss_cls(z_orig: Tensor, z_trans: Tensor, cfg: LossConfig) -> Tensor:
    """Cloud-level contrastive loss over n index-aligned embedding pairs."""
    n = z_orig.shape[0]
    if z_trans.shape[0] != n:
        raise ValueError(f"pair count mismatch: {n} vs {z_trans.shape[0]}")
    if n < 2:
        raise ValueError(f"need at least 2 pairs for a contrastive batch, got {n}")
    labels = np.arange(n)
    sim = T.scale(T.matmul(z_orig, T.transpose(z_trans)), 1.0 / cfg.tau)
    loss = _ce_direction(sim, labels, cfg.exclude_positive)
    if cfg.symmetric:
        sim_t = T.scale(T.matmul(z_trans, T.transpose(z_orig)), 1.0 / cfg.tau)
        loss_t = _ce_direction(sim_t, labels, cfg.exclude_positive)
        loss = T.scale(T.add(loss, loss_t), 0.5)
    return loss


def contrastive_loss_seg(Z_orig: Tensor, Z_trans: Tensor, cfg: LossConfig,
                         point_labels: np.ndarray | None = None) -> Tensor:
    """Point-wise contrastive loss over [n, N, d] embedding stacks.

    point_labels, when given (shape [n, N]), maps each transformed slot to
    its source point index; defaults to the identity correspondence.
    """
    if Z_orig.shape != Z_trans.shape:
        raise ValueError(f"shape mismatch: {Z_orig.shape} vs {Z_trans.shape}")
    n, N, _ = Z_orig.shape
    if N < 2:
        raise ValueError(f"need at least 2 points per cloud, got {N}")
    terms = []
    for a in range(n):
        za = T.index(Z_orig, a)
        zb = T.index(Z_trans, a)
        sim = T.scale(T.matmul(za, T.transpose(zb)), 1.0 / cfg.tau)
        if point_labels is None:
            labels = np.arange(N)
        else:
            # slot j of the transformed cloud came from source point
            # point_labels[a, j]; original point i matches transformed slots
            # sourced from i. With refill maps the positive is the first
            # such slot.
            src = np.asarray(point_labels[a])
            labels = np.full(N, -1, dtype=np.int64)
            for j in range(N - 1, -1, -1):
                labels[src[j]] = j
            if (labels < 0).any():
                # points that vanished under cutout/crop: fall back to identity
                missing = labels < 0
                labels[missing] = np.nonzero(missing)[0]
        loss_a = _ce_direction(sim, labels, cfg.exclude_positive)
        if cfg.symmetric:
            sim_t = T.scale(T.matmul(zb, T.transpose(za)), 1.0 / cfg.tau)
            inv = np.argsort(labels) if point_labels is not None else labels
            loss_t = _ce_direction(sim_t, np.arange(N) if point_labels is None else inv,
                                   cfg.exclude_positive)
            loss_a = T.scale(T.add(loss_a, loss_t), 0.5)
        terms.append(loss_a)
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return T.scale(total, 1.0 / n)
