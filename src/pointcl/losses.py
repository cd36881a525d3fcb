"""Contrastive objectives: one InfoNCE over two groupings.

Each query row attends over the N key rows of its group with logits
q . k / tau, and takes the cross-entropy against its positive key. The
cloud-level loss is one group of n pairs; the positive is the pair index.
The point-wise loss is n groups, one per pair, of N points; the positive is
the point index, or follows point_labels[a, j], the original point that
transformed slot j of cloud a came from. Original point i's positive is the
first slot sourced from i, and a point no slot came from is left out of the
mean; with symmetric, transformed slot j's positive is point_labels[a, j].
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


def _info_nce(z_a: Tensor, z_b: Tensor, labels_ab, labels_ba, cfg: LossConfig) -> Tensor:
    """InfoNCE over [..., N, d] stacks whose leading axes index the groups.

    Rows of z_a attend over the N rows of their group in z_b; labels_ab gives
    each row's positive within its group, or -1 to leave the row out of the
    mean. cfg.symmetric averages in z_b over z_a, by labels_ba.
    """
    N = z_a.shape[-2]

    def direction(q, k, labels):
        sim = T.reshape(T.scale(T.matmul(q, T.transpose(k)), 1.0 / cfg.tau), (-1, N))
        kept = np.flatnonzero(labels >= 0)
        if kept.size < labels.size:
            sim, labels = T.index(sim, kept), labels[kept]
        return _ce_direction(sim, labels, cfg.exclude_positive)

    loss = direction(z_a, z_b, labels_ab)
    if cfg.symmetric:
        loss = T.scale(T.add(loss, direction(z_b, z_a, labels_ba)), 0.5)
    return loss


def contrastive_loss_cls(z_orig: Tensor, z_trans: Tensor, cfg: LossConfig) -> Tensor:
    """Cloud-level contrastive loss over n index-aligned embedding pairs."""
    n = z_orig.shape[0]
    if z_trans.shape[0] != n:
        raise ValueError(f"pair count mismatch: {n} vs {z_trans.shape[0]}")
    if n < 2:
        raise ValueError(f"need at least 2 pairs for a contrastive batch, got {n}")
    labels = np.arange(n)
    return _info_nce(z_orig, z_trans, labels, labels, cfg)


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
    src = (np.tile(np.arange(N), (n, 1)) if point_labels is None
           else np.asarray(point_labels, dtype=np.int64))
    if src.shape != (n, N) or src.min() < 0 or src.max() >= N:
        raise ValueError(f"point_labels must be [{n}, {N}] indices in [0, {N})")
    # the first slot sourced from each point, over all n*N slots
    first = np.full(n * N, -1, dtype=np.int64)
    sources, slots = np.unique(src + N * np.arange(n)[:, None], return_index=True)
    first[sources] = slots % N
    return _info_nce(Z_orig, Z_trans, first, src.ravel(), cfg)
