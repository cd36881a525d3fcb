"""Contrastive objectives: one InfoNCE over two groupings.

Each query row attends over the N key rows of its group with logits
q . k / tau, and takes the cross-entropy against its positive key. The
cloud-level loss is one group of n pairs; the positive is the pair index.
The point-wise loss is n groups, one per pair, of N points; the positive is
the point index, or follows point_labels[a, j], the original point that
transformed slot j of cloud a came from. Original point i's positive is the
first slot sourced from i, and a point no slot came from is left out of the
mean; with symmetric, transformed slot j's positive is point_labels[a, j].
Both losses are recorded as one tape node, tensor.info_nce.
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
        if not 0.0 < self.tau < np.inf:  # an inf tau makes every logit 0
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")


def contrastive_loss_cls(z_orig: Tensor, z_trans: Tensor, cfg: LossConfig) -> Tensor:
    """Cloud-level contrastive loss over n index-aligned embedding pairs."""
    n = z_orig.shape[0]
    if z_trans.shape[0] != n:
        raise ValueError(f"pair count mismatch: {n} vs {z_trans.shape[0]}")
    if n < 2:
        raise ValueError(f"need at least 2 pairs for a contrastive batch, got {n}")
    labels = np.arange(n)
    return T.info_nce(z_orig, z_trans, cfg.tau, labels,
                      labels if cfg.symmetric else None, cfg.exclude_positive)


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
    return T.info_nce(Z_orig, Z_trans, cfg.tau, first,
                      src.ravel() if cfg.symmetric else None, cfg.exclude_positive)
