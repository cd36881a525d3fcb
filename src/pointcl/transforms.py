"""Contrastive transformations: rotate, cutout, crop, scale, jitter, smooth, compose.

Every transform preserves the point count. All but cutout/crop also keep
index alignment (output slot i holds input point i); cutout/crop move the
survivors to the front and refill the rest from them (the slot -> source map
is available via apply_transform_with_map for point-wise pretraining).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .pointcloud import PointCloud

__all__ = [
    "TransformSpec",
    "parse_transform",
    "format_transform",
    "apply_transform",
    "apply_transform_with_map",
    "make_pair",
    "rotation_matrix",
]

_KINDS = {"rotate", "cutout", "crop", "scale", "jitter", "smooth", "compose"}


@dataclass
class TransformSpec:
    kind: str
    axis: str = "y"                  # rotate
    angle_deg: float = 180.0         # rotate
    radius: float = 0.2              # cutout ball radius (fraction of unit sphere)
    keep_fraction: float = 0.7       # crop
    scale_range: tuple = (0.8, 1.25)  # per-axis uniform scale
    sigma: float = 0.01              # jitter
    clip: float = 0.05               # jitter
    k: int = 8                       # smooth: neighbors
    lam: float = 0.5                 # smooth: blend weight
    children: list = field(default_factory=list)  # compose

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "rotate":
            if self.axis.lower() not in ("x", "y", "z"):
                raise ValueError(f"rotate axis must be x, y or z, got {self.axis!r}")
            if not -360.0 < self.angle_deg < 360.0:
                raise ValueError(f"rotate angle must be in (-360, 360), got {self.angle_deg}")
        if self.kind == "cutout" and not 0.0 < self.radius <= 1.0:
            raise ValueError(f"cutout radius must be in (0, 1], got {self.radius}")
        if self.kind == "crop" and not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError(f"crop keep fraction must be in (0, 1], got {self.keep_fraction}")
        if self.kind == "compose" and not self.children:
            raise ValueError("compose requires a non-empty child list")


def rotation_matrix(axis: str, angle_deg: float) -> np.ndarray:
    t = np.deg2rad(angle_deg)
    c, s = np.cos(t), np.sin(t)
    if axis.lower() == "x":
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    if axis.lower() == "y":
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def _exact_rot(axis: str, angle_deg: float) -> Optional[np.ndarray]:
    """Exact matrices for multiples of 90 degrees so e.g. Y-180 maps
    (x,y,z) -> (-x,y,-z) with no floating-point residue."""
    if angle_deg % 90 != 0:
        return None
    q = int(angle_deg // 90) % 4
    m = rotation_matrix(axis, 90.0 * q)
    return np.rint(m)


def _apply(points: np.ndarray, spec: TransformSpec, rng: np.random.Generator):
    """Returns (new_points, index_map); index_map[i] is the source slot of
    output slot i (identity for everything but cutout/crop)."""
    n = points.shape[0]
    ident = np.arange(n)
    if spec.kind == "rotate":
        m = _exact_rot(spec.axis, spec.angle_deg)
        if m is None:
            m = rotation_matrix(spec.axis, spec.angle_deg)
        return (points @ m.T).astype(np.float32), ident
    if spec.kind == "scale":
        lo, hi = spec.scale_range
        factors = rng.uniform(lo, hi, size=3)
        return (points * factors).astype(np.float32), ident
    if spec.kind == "jitter":
        noise = np.clip(rng.normal(scale=spec.sigma, size=points.shape),
                        -spec.clip, spec.clip)
        return (points + noise).astype(np.float32), ident
    if spec.kind == "smooth":
        k = min(spec.k, n - 1)
        if k < 1:
            return points.copy(), ident
        d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        nbr = np.argsort(d2, axis=1)[:, :k]
        avg = points[nbr].mean(axis=1)
        return ((1 - spec.lam) * points + spec.lam * avg).astype(np.float32), ident
    if spec.kind == "cutout":
        center = points[rng.integers(n)]
        survive = np.where(((points - center) ** 2).sum(axis=1) > spec.radius ** 2)[0]
        return _refill(points, survive, n, rng)
    if spec.kind == "crop":
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        proj = points @ normal
        # keep the top keep_fraction of points along the plane normal
        thresh = np.quantile(proj, 1.0 - spec.keep_fraction)
        survive = np.where(proj >= thresh)[0]
        return _refill(points, survive, n, rng)
    if spec.kind == "compose":
        idx = np.arange(n)
        out = points
        for child in spec.children:
            out, m = _apply(out, child, rng)
            idx = idx[m]
        return out, idx
    raise ValueError(f"unknown transform kind {spec.kind!r}")


def _refill(points, survive, n, rng):
    if survive.size == 0:
        survive = np.arange(n)  # degenerate: nothing survived, keep all
    if survive.size == n:
        return points.copy(), np.arange(n)
    fill = rng.choice(survive, size=n - survive.size, replace=True)
    idx = np.concatenate([survive, fill])
    return points[idx].copy(), idx


def apply_transform_with_map(p: PointCloud, spec: TransformSpec,
                             rng: np.random.Generator):
    """Transform p; also return the slot -> source-slot correspondence map."""
    pts, idx = _apply(p.points, spec, rng)
    labels = p.point_labels[idx] if p.point_labels is not None else None
    return replace(p, points=pts, point_labels=labels), idx


def apply_transform(p: PointCloud, spec: TransformSpec,
                    rng: np.random.Generator) -> PointCloud:
    out, _ = apply_transform_with_map(p, spec, rng)
    return out


def make_pair(p: PointCloud, spec: TransformSpec, rng: np.random.Generator):
    """An (original, transformed) contrastive pair; the original is untouched."""
    return p, apply_transform(p, spec, rng)


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
        if cur:
            parts.append("".join(cur))
        return TransformSpec(kind="compose",
                             children=[parse_transform(t) for t in parts])
    toks = s.split(":")
    kind = toks[0]
    if kind == "rotate":
        axis = toks[1] if len(toks) > 1 else "y"
        angle = float(toks[2]) if len(toks) > 2 else 180.0
        return TransformSpec(kind="rotate", axis=axis, angle_deg=angle)
    if kind in ("cutout", "crop", "scale", "jitter", "smooth"):
        if len(toks) > 1:
            raise ValueError(f"transform {kind!r} takes no parameters in spec strings")
        return TransformSpec(kind=kind)
    if kind == "identity":
        # convenience: a scale transform collapsed to factor 1
        return TransformSpec(kind="scale", scale_range=(1.0, 1.0))
    raise ValueError(f"cannot parse transform spec {text!r}")


def format_transform(spec: TransformSpec) -> str:
    if spec.kind == "compose":
        return "compose(" + ",".join(format_transform(c) for c in spec.children) + ")"
    if spec.kind == "rotate":
        angle = spec.angle_deg
        angle_s = f"{int(angle)}" if float(angle).is_integer() else f"{angle}"
        return f"rotate:{spec.axis.lower()}:{angle_s}"
    return spec.kind
