"""Point-cloud data model, normalization, synthetic shape generation, dataset I/O."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = [
    "PointCloud",
    "Dataset",
    "ParseError",
    "sample_points",
    "sample_stack",
    "SyntheticSpec",
    "SHAPE_CLASSES",
    "generate_synthetic_dataset",
    "save_dataset",
    "load_dataset",
]


class ParseError(ValueError):
    """Malformed dataset file; the message names the file and what in it is
    at fault: a byte offset, a sample id or a header field."""


@dataclass
class PointCloud:
    points: np.ndarray                       # (N, 3) float32
    class_label: Optional[int] = None
    point_labels: Optional[np.ndarray] = None  # (N,) int
    id: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float32)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {self.points.shape}")
        if self.points.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.isfinite(self.points).all():
            raise ValueError("point coordinates must be finite")
        if self.point_labels is not None:
            self.point_labels = np.asarray(self.point_labels, dtype=np.int64)
            if self.point_labels.shape != (self.points.shape[0],):
                raise ValueError("point_labels length must equal point count")

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass
class Dataset:
    samples: list
    split: str = "train"
    num_classes: int = 0
    num_parts: int = 0
    # per-class part-id lists, used by the instance-mIoU convention
    parts_per_class: Optional[dict] = field(default=None)

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]


def _normalize_stack(pts: np.ndarray) -> np.ndarray:
    """Center each cloud of a float32 [S, N, 3] stack at its centroid and
    scale it so its farthest point has norm 1, in place; a cloud whose
    points all coincide stays at the origin. The farthest norm is the root
    of the largest (x² + y²) + z², the sum np.linalg.norm takes over a row.
    Working in place keeps the stack the only large allocation."""
    pts -= pts.mean(axis=1, keepdims=True)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    r = np.sqrt((x * x + y * y + z * z).max(axis=1))[:, None, None]
    return np.divide(pts, r, out=pts, where=r > 0)


def sample_stack(clouds, n_out: int, rng: np.random.Generator):
    """Stack the clouds, in order, at n_out points each: the one sampling rule
    of training, finetuning and evaluation. A cloud with exactly n_out points
    is copied as stored and takes no draw; the encoder max-pools over points,
    so their order carries nothing. Any other cloud is resampled by one
    rng.choice, without replacement when it has more than n_out points. So
    rng seeds only the resampling of clouds of other sizes. Returns float32
    points [S, n_out, 3] and point labels [S, n_out], or None unless every
    cloud has labels."""
    points = np.empty((len(clouds), n_out, 3), dtype=np.float32)
    labels = (np.empty((len(clouds), n_out), dtype=np.int64)
              if all(p.point_labels is not None for p in clouds) else None)
    for s, p in enumerate(clouds):
        idx = (slice(None) if p.n == n_out
               else rng.choice(p.n, size=n_out, replace=p.n < n_out))
        points[s] = p.points[idx]
        if labels is not None:
            labels[s] = p.point_labels[idx]
    return points, labels


def sample_points(p: PointCloud, n_out: int, rng: np.random.Generator) -> PointCloud:
    """sample_stack of one cloud."""
    points, labels = sample_stack([p], n_out, rng)
    return replace(p, points=points[0], point_labels=None if labels is None else labels[0])


# ---------------------------------------------------------------------------
# Synthetic shapes.  Each generator builds a whole class: gen(count, n, rng)
# returns float64 points [count, n, 3] and int64 part labels [count, n]. The
# rng sees each cloud's draws in sample order, as count one-cloud calls
# would; the arithmetic runs once on the stacked draws. Clouds are
# normalized afterwards so classes stay distinguishable by gross geometry.
# ---------------------------------------------------------------------------

def _draw_per_cloud(count, draw):
    """draw()'s arrays for count clouds, one call per cloud, each stacked on
    a leading cloud axis."""
    return [np.stack(a) for a in zip(*(draw() for _ in range(count)))]


def _gen_sphere(count, n, rng):
    v = rng.normal(size=(count, n, 3))  # filled in order: each cloud's draws
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    # parts: northern vs southern hemisphere
    return v, (v[..., 2] < 0).astype(np.int64)


def _gen_cube(count, n, rng):
    face, uv = _draw_per_cloud(count, lambda: (rng.integers(0, 6, size=n),
                                               rng.uniform(-1, 1, size=(n, 2))))
    axis = face // 2
    side = np.where(face & 1, -1.0, 1.0)  # even faces on the + side
    a, b = uv[..., 0], uv[..., 1]  # on the other two axes, in order
    pts = np.stack([np.where(axis == 0, side, a),
                    np.where(axis == 0, a, np.where(axis == 1, side, b)),
                    np.where(axis == 2, side, b)], axis=2)
    return pts, axis  # parts: one per axis pair of faces


def _gen_cylinder(count, n, rng, half_height=1.0, radius=0.5):
    # ~80% lateral surface, ~20% caps
    on_cap = np.empty((count, n), dtype=bool)
    theta = np.empty((count, n))
    z_side, r_cap, z_cap = [], [], []
    for i in range(count):  # the later draws' sizes depend on the cloud's cap count
        on_cap[i] = rng.random(n) < 0.2
        theta[i] = rng.uniform(0, 2 * np.pi, size=n)
        caps = int(on_cap[i].sum())
        z_side.append(rng.uniform(-half_height, half_height, size=n - caps))
        r_cap.append(rng.random(caps))
        z_cap.append(rng.random(caps))
    # a mask over [count, n] fills cloud by cloud in point order
    rad = np.full((count, n), radius)
    z = np.empty((count, n))
    z[~on_cap] = np.concatenate(z_side)
    rad[on_cap] = radius * np.sqrt(np.concatenate(r_cap))
    z[on_cap] = np.where(np.concatenate(z_cap) < 0.5, half_height, -half_height)
    pts = np.stack([rad * np.cos(theta), rad * np.sin(theta), z], axis=2)
    return pts, on_cap.astype(np.int64)  # parts: 0 lateral surface, 1 caps


def _gen_torus(count, n, rng, R=1.0, r=0.35):
    uv = rng.uniform(0, 2 * np.pi, size=(count, 2, n))  # each cloud's u, then its v
    u, v = uv[:, 0], uv[:, 1]
    cos_v = np.cos(v)
    ring = R + r * cos_v
    pts = np.stack([ring * np.cos(u), ring * np.sin(u), r * np.sin(v)], axis=2)
    # parts: outer vs inner half of the tube
    return pts, (cos_v < 0).astype(np.int64)


def _gen_plane_cross(count, n, rng):
    # two orthogonal unit squares intersecting along the z axis
    draw, uv = _draw_per_cloud(count, lambda: (rng.random(n), rng.uniform(-1, 1, size=(n, 2))))
    which = draw < 0.5
    pts = np.stack([np.where(which, uv[..., 0], 0.0), np.where(which, 0.0, uv[..., 0]),
                    uv[..., 1]], axis=2)
    return pts, (~which).astype(np.int64)


SHAPE_CLASSES = {
    "sphere": (_gen_sphere, 2),
    "cube": (_gen_cube, 3),
    "cylinder": (_gen_cylinder, 2),
    "torus": (_gen_torus, 2),
    "plane-cross": (_gen_plane_cross, 2),
}


@dataclass
class SyntheticSpec:
    classes: list            # names from SHAPE_CLASSES
    per_class: int = 50
    points_per_cloud: int = 128
    with_parts: bool = False
    split: str = "train"

    def __post_init__(self):
        if not self.classes:
            raise ValueError("classes must name at least one class")
        for name in self.classes:
            if name not in SHAPE_CLASSES:
                raise ValueError(
                    f"unknown class {name!r}; choose from {sorted(SHAPE_CLASSES)}")
        for name in ("per_class", "points_per_cloud"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def generate_synthetic_dataset(spec: SyntheticSpec, rng: np.random.Generator) -> Dataset:
    """Deterministic synthetic dataset of simple geometric classes.

    The rng stream: each cloud's draws, class by class, in sample order,
    from one generator call per class. Everything after the draws (the
    shape arithmetic, the float32 cast, the normalization, the part-label
    offset) runs once per class on its stacked clouds and takes no draws."""
    samples, parts_per_class, part_offset = [], {}, 0
    n, count = spec.points_per_cloud, spec.per_class
    for ci, name in enumerate(spec.classes):
        gen, nparts = SHAPE_CLASSES[name]
        parts_per_class[ci] = list(range(part_offset, part_offset + nparts))
        points, labels = gen(count, n, rng)
        points = _normalize_stack(points.astype(np.float32))  # drops the float64 stack
        labels += part_offset
        for pts, lab in zip(points, labels):
            samples.append(PointCloud(points=pts, class_label=ci, id=len(samples),
                                      point_labels=lab if spec.with_parts else None))
        part_offset += nparts
    return Dataset(samples=samples, split=spec.split,
                   num_classes=len(spec.classes),
                   num_parts=part_offset if spec.with_parts else 0,
                   parts_per_class=parts_per_class if spec.with_parts else None)


# ---------------------------------------------------------------------------
# Packed-binary format: magic "PCDS", version u16, little-endian.
# Header: num_samples u32, num_classes u16, num_parts u16 (0 = none), then
# the split name: its UTF-8 byte count u16 and the bytes.
# Then parts_per_class: a class count u16 (0 = no map), and per class:
# class u16, part count u16, the part ids as u16. Only version 3 is read;
# version 1 had no parts map and version 2 no split.
# Per sample: id u32, class u16, N u32, N*3 f32 coords, N*u16 point labels
# iff num_parts > 0.
# ---------------------------------------------------------------------------

_MAGIC = b"PCDS"
_VERSION = 3


def _check_range(what, value, top):
    if not 0 <= value < top:
        raise ValueError(f"{what} {value} out of range [0, {top})")


def _check_samples(ds: Dataset) -> None:
    """Raise ValueError, naming the field (and the sample id or the parts-map
    class), for a header field, parts-map entry or sample that the format
    cannot hold or that load_dataset would reject."""
    _check_range("sample count", len(ds.samples), 1 << 32)
    _check_range("num_classes", ds.num_classes, 1 << 16)
    _check_range("num_parts", ds.num_parts, 1 << 16)
    _check_range("split name bytes", len(ds.split.encode()), 1 << 16)
    classes = ds.num_classes or 1 << 16  # no class count: any u16 class
    ppc = ds.parts_per_class or {}
    _check_range("parts map: class count", len(ppc), 1 << 16)
    for cls, parts in ppc.items():
        _check_range("parts map: class", cls, classes)
        _check_range(f"parts map: class {cls}: part count", len(parts), 1 << 16)
        for part in parts:
            _check_range(f"parts map: class {cls}: part", part, ds.num_parts)
    for pc in ds.samples:
        _check_range(f"sample {pc.id}: id", pc.id, 1 << 32)
        _check_range(f"sample {pc.id}: class",
                     pc.class_label if pc.class_label is not None else 0, classes)
        if ds.num_parts > 0:
            if pc.point_labels is None:
                raise ValueError(f"sample {pc.id}: num_parts > 0 but no point labels")
            lo, hi = pc.point_labels.min(), pc.point_labels.max()
            _check_range(f"sample {pc.id}: point label", lo if lo < 0 else hi, ds.num_parts)


def save_dataset(ds: Dataset, path) -> None:
    """Write ds in the PCDS format; every sample is checked before the file
    is opened."""
    _check_samples(ds)
    tmp = os.fspath(path) + ".tmp"  # a failed save keeps the file at path
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<H", _VERSION))
            f.write(struct.pack("<IHH", len(ds.samples), ds.num_classes, ds.num_parts))
            split = ds.split.encode()
            f.write(struct.pack("<H", len(split)) + split)
            ppc = ds.parts_per_class or {}
            f.write(struct.pack("<H", len(ppc)))
            for cls, parts in sorted(ppc.items()):
                f.write(struct.pack(f"<HH{len(parts)}H", cls, len(parts), *parts))
            for pc in ds.samples:
                cls = pc.class_label if pc.class_label is not None else 0
                f.write(struct.pack("<IHI", pc.id, cls, pc.n))
                f.write(np.ascontiguousarray(pc.points, dtype="<f4").tobytes())
                if ds.num_parts > 0:
                    f.write(pc.point_labels.astype("<u2").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_exact(f, nbytes, what):
    buf = f.read(nbytes)
    if len(buf) != nbytes:
        raise ParseError(f"{f.name}: truncated file reading {what} "
                         f"at byte offset {f.tell() - len(buf)}")
    return buf


def load_dataset(path) -> Dataset:
    """Read a dataset file that save_dataset wrote."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != _MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r} at byte offset 0")
        (version,) = struct.unpack("<H", _read_exact(f, 2, "version"))
        if version != _VERSION:
            raise ParseError(f"{path}: unsupported version {version} (expected {_VERSION})")
        num_samples, num_classes, num_parts = struct.unpack(
            "<IHH", _read_exact(f, 8, "header"))
        (n,) = struct.unpack("<H", _read_exact(f, 2, "split"))
        try:
            split = _read_exact(f, n, "split").decode()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: split name is not UTF-8: {e}") from None
        parts_per_class = _read_parts_map(f, num_classes, num_parts)
        samples = []
        for _ in range(num_samples):
            sid, cls, n = struct.unpack("<IHI", _read_exact(f, 10, "sample header"))
            if num_classes and cls >= num_classes:
                raise ParseError(f"{path}: sample {sid}: class {cls} "
                                 f">= num_classes {num_classes}")
            coords = np.frombuffer(_read_exact(f, n * 12, "coordinates"),
                                   dtype="<f4").reshape(n, 3)
            labels = None
            if num_parts > 0:
                labels = np.frombuffer(_read_exact(f, n * 2, "point labels"),
                                       dtype="<u2").astype(np.int64)
                if labels.max(initial=0) >= num_parts:
                    raise ParseError(f"{path}: sample {sid}: point label "
                                     f"{labels.max()} >= num_parts {num_parts}")
            try:  # no points, or a coordinate that is not finite
                samples.append(PointCloud(points=coords.copy(), class_label=int(cls),
                                          point_labels=labels, id=int(sid)))
            except ValueError as e:
                raise ParseError(f"{path}: sample {sid}: {e}") from None
    return Dataset(samples=samples, split=split, num_classes=num_classes,
                   num_parts=num_parts, parts_per_class=parts_per_class)


def _read_parts_map(f, num_classes, num_parts):
    """The parts_per_class table; None when it is empty."""
    (count,) = struct.unpack("<H", _read_exact(f, 2, "parts map"))
    ppc = {}
    for _ in range(count):
        cls, n = struct.unpack("<HH", _read_exact(f, 4, "parts map entry"))
        parts = list(struct.unpack(f"<{n}H", _read_exact(f, 2 * n, "parts map entry")))
        if (num_classes and cls >= num_classes) or any(p >= num_parts for p in parts):
            raise ParseError(f"{f.name}: parts map: class {cls} or one of its parts {parts} "
                             f"out of range ({num_classes} classes, {num_parts} parts)")
        ppc[cls] = parts
    return ppc or None
