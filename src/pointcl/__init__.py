"""Unsupervised contrastive representation learning for 3D point clouds.

A numpy-backed library: a minimal reverse-mode tensor engine, a point-set
encoder with max pooling, rotation-generated contrastive pairs, cloud-level
and point-wise contrastive losses, and the standard representation-quality
evaluation protocols (frozen linear probe, finetune initialization,
part-segmentation mIoU).
"""

from . import evaluation, losses, models, pointcloud, tensor, training, transforms

__version__ = "0.1.0"

__all__ = [
    "tensor", "pointcloud", "transforms", "models", "losses",
    "training", "evaluation", "__version__",
]
