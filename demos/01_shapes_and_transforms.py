"""Generate the synthetic shape families and look at the contrastive
transformations applied to them.

Run:  python3 demos/01_shapes_and_transforms.py
"""

import numpy as np

from pointcl.pointcloud import SyntheticSpec, generate_synthetic_dataset
from pointcl.transforms import parse_transform, transform_stack

rng = np.random.default_rng(0)

# Five geometric classes, 128 points each, normalized to the unit sphere.
ds = generate_synthetic_dataset(
    SyntheticSpec(classes=["sphere", "cube", "cylinder", "torus", "plane-cross"],
                  per_class=2, points_per_cloud=128), rng)
print(f"{len(ds)} clouds, {ds.num_classes} classes")
for pc in ds.samples[::2]:
    norms = np.linalg.norm(pc.points, axis=1)
    print(f"  class {pc.class_label}: {pc.n} points, "
          f"max |p| = {norms.max():.3f}, mean |p| = {norms.mean():.3f}")

# The transformation family. Rotation by 180 degrees around Y is the default
# pairing transform; the others are the sweep alternatives.
cloud = ds.samples[0]
print("\ntransform            mean displacement   rigid?")
for name in ["rotate:y:180", "rotate:x:90", "cutout", "crop",
             "scale", "jitter", "smooth"]:
    spec = parse_transform(name)
    stack, _ = transform_stack(cloud.points[None], spec, np.random.default_rng(1))
    out = stack[0]
    disp = np.linalg.norm(out - cloud.points, axis=1).mean()
    d_in = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=2)
    d_out = np.linalg.norm(out[:, None] - out[None], axis=2)
    rigid = np.abs(d_in - d_out).max() < 1e-6
    print(f"{name:<20} {disp:>12.4f}        {rigid}")
