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
    "normalize_unit_sphere",
    "sample_points",
    "SyntheticSpec",
    "SHAPE_CLASSES",
    "generate_synthetic_dataset",
    "save_dataset",
    "load_dataset",
]


class ParseError(ValueError):
    """Malformed dataset file; message carries line number or byte offset."""


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


def normalize_unit_sphere(p: PointCloud) -> PointCloud:
    """Center at the centroid and scale so the farthest point has norm 1."""
    pts = p.points - p.points.mean(axis=0, keepdims=True)
    r = np.linalg.norm(pts, axis=1).max()
    if r > 0:
        pts = pts / r
    return replace(p, points=pts.astype(np.float32))


def sample_points(p: PointCloud, n_out: int, rng: np.random.Generator) -> PointCloud:
    """Resample to exactly n_out points; without replacement when possible."""
    idx = rng.choice(p.n, size=n_out, replace=p.n < n_out)
    labels = p.point_labels[idx] if p.point_labels is not None else None
    return replace(p, points=p.points[idx].copy(), point_labels=labels)


# ---------------------------------------------------------------------------
# Synthetic shapes.  Each generator returns (points, part_labels); clouds are
# normalized afterwards so classes stay distinguishable by gross geometry.
# ---------------------------------------------------------------------------

def _gen_sphere(n, rng):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # parts: northern vs southern hemisphere
    labels = (v[:, 2] < 0).astype(np.int64)
    return v, labels


def _gen_cube(n, rng):
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1, 1, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    rows = np.arange(n)
    pts[rows, axis] = np.where(face % 2 == 0, 1.0, -1.0)
    pts[rows[:, None], np.array([[1, 2], [0, 2], [0, 1]])[axis]] = uv  # the other two axes
    labels = axis.astype(np.int64)  # parts: one per axis pair of faces
    return pts, labels


def _gen_cylinder(n, rng, half_height=1.0, radius=0.5):
    # ~80% lateral surface, ~20% caps
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


def _gen_torus(n, rng, R=1.0, r=0.35):
    u = rng.uniform(0, 2 * np.pi, size=n)
    v = rng.uniform(0, 2 * np.pi, size=n)
    pts = np.stack([
        (R + r * np.cos(v)) * np.cos(u),
        (R + r * np.cos(v)) * np.sin(u),
        r * np.sin(v),
    ], axis=1)
    # parts: outer vs inner half of the tube
    labels = (np.cos(v) < 0).astype(np.int64)
    return pts, labels


def _gen_plane_cross(n, rng):
    # two orthogonal unit squares intersecting along the z axis
    which = rng.random(n) < 0.5
    uv = rng.uniform(-1, 1, size=(n, 2))
    pts = np.zeros((n, 3))
    pts[which, 0] = uv[which, 0]
    pts[which, 2] = uv[which, 1]
    pts[~which, 1] = uv[~which, 0]
    pts[~which, 2] = uv[~which, 1]
    labels = (~which).astype(np.int64)
    return pts, labels


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


def generate_synthetic_dataset(spec: SyntheticSpec, rng: np.random.Generator) -> Dataset:
    """Deterministic synthetic dataset of simple geometric classes."""
    for name in spec.classes:
        if name not in SHAPE_CLASSES:
            raise ValueError(
                f"unknown class {name!r}; choose from {sorted(SHAPE_CLASSES)}")
    samples, parts_per_class, part_offset = [], {}, 0
    for ci, name in enumerate(spec.classes):
        gen, nparts = SHAPE_CLASSES[name]
        parts_per_class[ci] = list(range(part_offset, part_offset + nparts))
        for _ in range(spec.per_class):
            pts, labels = gen(spec.points_per_cloud, rng)
            pc = PointCloud(points=pts, class_label=ci, id=len(samples),
                            point_labels=labels + part_offset if spec.with_parts else None)
            samples.append(normalize_unit_sphere(pc))
        part_offset += nparts
    return Dataset(samples=samples, split=spec.split,
                   num_classes=len(spec.classes),
                   num_parts=part_offset if spec.with_parts else 0,
                   parts_per_class=parts_per_class if spec.with_parts else None)


# ---------------------------------------------------------------------------
# Packed-binary format: magic "PCDS", version u16, little-endian.
# Header: num_samples u32, num_classes u16, num_parts u16 (0 = none).
# Then parts_per_class: a class count u16 (0 = no map), and per class:
# class u16, part count u16, the part ids as u16. Only version 2 is read;
# version 1 had no parts map.
# Per sample: id u32, class u16, N u32, N*3 f32 coords, N*u16 point labels
# iff num_parts > 0.
# ---------------------------------------------------------------------------

_MAGIC = b"PCDS"
_VERSION = 2


def save_dataset(ds: Dataset, path, format="packed-binary") -> None:
    if format == "xyz-text":
        return save_dataset_xyz(ds, path)
    if format != "packed-binary":
        raise ValueError(f"unknown format {format!r}")
    tmp = os.fspath(path) + ".tmp"  # a failed save keeps the file at path
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<H", _VERSION))
            f.write(struct.pack("<IHH", len(ds.samples), ds.num_classes, ds.num_parts))
            ppc = ds.parts_per_class or {}
            f.write(struct.pack("<H", len(ppc)))
            for cls, parts in sorted(ppc.items()):
                f.write(struct.pack(f"<HH{len(parts)}H", cls, len(parts), *parts))
            for pc in ds.samples:
                cls = pc.class_label if pc.class_label is not None else 0
                f.write(struct.pack("<IHI", pc.id, cls, pc.n))
                f.write(np.ascontiguousarray(pc.points, dtype="<f4").tobytes())
                if ds.num_parts > 0:
                    if pc.point_labels is None:
                        raise ValueError(f"sample {pc.id}: num_parts > 0 but no point labels")
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


def load_dataset(path, format="packed-binary", split="train") -> Dataset:
    if format == "xyz-text":
        return load_dataset_xyz(path, split=split)
    if format != "packed-binary":
        raise ValueError(f"unknown format {format!r}")
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != _MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r} at byte offset 0")
        (version,) = struct.unpack("<H", _read_exact(f, 2, "version"))
        if version != _VERSION:
            raise ParseError(f"{path}: unsupported version {version} (expected {_VERSION})")
        num_samples, num_classes, num_parts = struct.unpack(
            "<IHH", _read_exact(f, 8, "header"))
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
            samples.append(PointCloud(points=coords.copy(), class_label=int(cls),
                                      point_labels=labels, id=int(sid)))
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


# ---------------------------------------------------------------------------
# xyz-text: one point per line, blank line separates clouds, optional
# header line "# class <k>".
# ---------------------------------------------------------------------------

def save_dataset_xyz(ds: Dataset, path) -> None:
    with open(path, "w") as f:
        for pc in ds.samples:
            if pc.class_label is not None:
                f.write(f"# class {pc.class_label}\n")
            for x, y, z in pc.points:
                f.write(f"{x:.6g} {y:.6g} {z:.6g}\n")
            f.write("\n")


def load_dataset_xyz(path, split="train") -> Dataset:
    samples = []
    cur: list = []
    cur_class = None
    max_class = -1

    def flush(sid):
        nonlocal cur, cur_class
        if cur:
            samples.append(PointCloud(points=np.array(cur, dtype=np.float32),
                                      class_label=cur_class, id=sid))
        cur, cur_class = [], None

    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            s = line.strip()
            if not s:
                flush(len(samples))
                continue
            if s.startswith("#"):
                toks = s[1:].split()
                if len(toks) == 2 and toks[0] == "class":
                    try:
                        cur_class = int(toks[1])
                    except ValueError:
                        raise ParseError(f"{path}: line {lineno}: bad class header {s!r}")
                    max_class = max(max_class, cur_class)
                continue
            toks = s.split()
            if len(toks) != 3:
                raise ParseError(f"{path}: line {lineno}: expected 3 coordinates, "
                                 f"got {len(toks)}")
            try:
                cur.append([float(t) for t in toks])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric coordinate in {s!r}")
    flush(len(samples))
    return Dataset(samples=samples, split=split, num_classes=max_class + 1)
