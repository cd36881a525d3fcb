"""Contrastive transformations: rotate, cutout, crop, scale, jitter, smooth, compose.

transform_stack transforms a [n, N, 3] stack of clouds in one pass and
returns an [n, N] slot -> source map with it; apply_transform is its
one-cloud case. Every transform preserves the point count. All but
cutout/crop also keep index alignment (the map is the identity); cutout/crop
move the survivors to the front and refill the rest from them, and the map
says where each slot came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .pointcloud import PointCloud

__all__ = [
    "TransformSpec",
    "parse_transform",
    "apply_transform",
    "transform_stack",
    "rotation_matrix",
]

_KINDS = {"rotate", "cutout", "crop", "scale", "jitter", "smooth", "compose"}


@dataclass
class TransformSpec:
    kind: str
    axis: str = "y"                  # rotate
    angle_deg: float = 180.0         # rotate
    scale_range: tuple = (0.8, 1.25)  # per-axis uniform scale; identity is (1, 1)
    children: list = field(default_factory=list)  # compose
    # No spec string sets these, so they are constants, not fields.
    radius: ClassVar[float] = 0.2         # cutout ball radius (fraction of unit sphere)
    keep_fraction: ClassVar[float] = 0.7  # crop
    sigma: ClassVar[float] = 0.01         # jitter
    clip: ClassVar[float] = 0.05          # jitter
    k: ClassVar[int] = 8                  # smooth: neighbors
    lam: ClassVar[float] = 0.5            # smooth: blend weight

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "rotate":
            if self.axis.lower() not in ("x", "y", "z"):
                raise ValueError(f"rotate axis must be x, y or z, got {self.axis!r}")
            if not -360.0 < self.angle_deg < 360.0:
                raise ValueError(f"rotate angle must be in (-360, 360), got {self.angle_deg}")
        if self.kind == "compose" and not self.children:
            raise ValueError("compose requires a non-empty child list")


def rotation_matrix(axis: str, angle_deg: float) -> np.ndarray:
    """Rotation about axis; exact at multiples of 90 degrees, so e.g. Y-180
    maps (x, y, z) -> (-x, y, -z) with no floating-point residue."""
    t = np.deg2rad(angle_deg)
    c, s = np.cos(t), np.sin(t)
    if angle_deg % 90 == 0:
        c, s = np.rint(c), np.rint(s)
    if axis.lower() == "x":
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    if axis.lower() == "y":
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def transform_stack(points: np.ndarray, spec: TransformSpec,
                    rng: np.random.Generator):
    """Transform each cloud of a [n, N, 3] stack; the input is left as it is.

    Returns (float32 [n, N, 3], map [n, N]); map[a, j] is the source slot of
    output slot j of cloud a (the identity for everything but cutout/crop).
    """
    points = np.asarray(points, dtype=np.float32)
    n, N, _ = points.shape
    ident = np.tile(np.arange(N), (n, 1))
    if spec.kind == "rotate":
        m = rotation_matrix(spec.axis, spec.angle_deg)
        return (points @ m.T).astype(np.float32), ident
    if spec.kind == "scale":
        lo, hi = spec.scale_range
        factors = rng.uniform(lo, hi, size=(n, 1, 3))
        return (points * factors).astype(np.float32), ident
    if spec.kind == "jitter":
        noise = np.clip(rng.normal(scale=spec.sigma, size=points.shape),
                        -spec.clip, spec.clip)
        return (points + noise).astype(np.float32), ident
    if spec.kind == "smooth":
        k = min(spec.k, N - 1)
        if k < 1:
            return points.copy(), ident
        sq = np.einsum("anc,anc->an", points, points)
        d2 = sq[:, :, None] + sq[:, None, :] - 2 * (points @ points.transpose(0, 2, 1))
        d2[:, np.arange(N), np.arange(N)] = np.inf
        # in distance order, which fixes the summation order of their mean
        nbr = np.argsort(d2, axis=2)[:, :, :k]
        avg = points[np.arange(n)[:, None, None], nbr].mean(axis=2)
        return ((1 - spec.lam) * points + spec.lam * avg).astype(np.float32), ident
    if spec.kind == "cutout":
        center = points[np.arange(n), rng.integers(N, size=n)]
        keep = ((points - center[:, None]) ** 2).sum(axis=2) > spec.radius ** 2
        return _refill(points, keep, rng)
    if spec.kind == "crop":
        normal = rng.normal(size=(n, 3))
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        proj = np.einsum("anc,ac->an", points, normal)
        # keep the top keep_fraction of points along the plane normal
        thresh = np.quantile(proj, 1.0 - spec.keep_fraction, axis=1, keepdims=True)
        return _refill(points, proj >= thresh, rng)
    if spec.kind == "compose":
        out, idx = points, ident
        for child in spec.children:
            out, m = transform_stack(out, child, rng)
            idx = np.take_along_axis(idx, m, axis=1)
        return out, idx
    raise ValueError(f"unknown transform kind {spec.kind!r}")


def _refill(points, keep, rng):
    """Move each cloud's kept points to the front and fill the remaining
    slots with draws from them; a cloud that keeps nothing keeps all."""
    n, N, _ = points.shape
    idx = np.empty((n, N), dtype=np.int64)
    for a in range(n):
        survive = np.flatnonzero(keep[a]) if keep[a].any() else np.arange(N)
        fill = rng.choice(survive, size=N - survive.size, replace=True)
        idx[a] = np.concatenate([survive, fill])
    return np.take_along_axis(points, idx[:, :, None], axis=1), idx


def apply_transform(p: PointCloud, spec: TransformSpec,
                    rng: np.random.Generator) -> PointCloud:
    """transform_stack of one cloud; its point labels follow their points."""
    pts, idx = transform_stack(p.points[None], spec, rng)
    labels = p.point_labels[idx[0]] if p.point_labels is not None else None
    return replace(p, points=pts[0], point_labels=labels)


# ---------------------------------------------------------------------------
# Textual spec format used in run-configuration files, e.g.
#   rotate:y:180      cutout      compose(rotate:y:180,jitter)
# ---------------------------------------------------------------------------

def parse_transform(text: str) -> TransformSpec:
    s = text.strip()
    if s.startswith("compose(") and s.endswith(")"):
        inner = s[len("compose("):-1]
        parts, depth, cur = [], 0, []
        for ch in inner:
            if ch == "(" :
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur))
        if not all(t.strip() for t in parts):
            raise ValueError(f"cannot parse transform spec {text!r}: empty compose child")
        return TransformSpec(kind="compose",
                             children=[parse_transform(t) for t in parts])
    toks = s.split(":")
    kind = toks[0]
    if kind == "rotate" and len(toks) <= 3:  # a fourth token falls to the error below
        given = dict(zip(("axis", "angle_deg"), toks[1:]))  # the rest keep their defaults
        if "angle_deg" in given:
            try:
                given["angle_deg"] = float(toks[2])
            except ValueError:
                raise ValueError(f"cannot parse transform spec {text!r}: angle "
                                 f"{toks[2]!r} is not a number") from None
        return TransformSpec(kind="rotate", **given)
    if kind in ("cutout", "crop", "scale", "jitter", "smooth"):
        if len(toks) > 1:
            raise ValueError(f"transform {kind!r} takes no parameters in spec strings")
        return TransformSpec(kind=kind)
    if kind == "identity":
        # convenience: a scale transform collapsed to factor 1
        return TransformSpec(kind="scale", scale_range=(1.0, 1.0))
    raise ValueError(f"cannot parse transform spec {text!r}")
