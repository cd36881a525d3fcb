"""Encoder, projection head, segmentation branch, linear probe, checkpoints.

The encoder is a shared per-point MLP (no input/feature alignment sub-network
anywhere) followed by a max pool over points; the pooled global feature is
the representation used for linear-probe evaluation. The projection head is
a small fully connected MLP whose output feeds the contrastive losses only.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor, BNState

__all__ = [
    "EncoderParams",
    "HeadParams",
    "SegBranchParams",
    "ProbeParams",
    "ModelParams",
    "encode",
    "project",
    "segment_embed",
    "probe_forward",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "DESK_ENCODER_WIDTHS",
    "FULL_ENCODER_WIDTHS",
    "HEAD_WIDTHS",
    "SEG_WIDTHS",
    "DROPOUT_RATE",
]

# Model-shape defaults; TrainConfig and the CLI take theirs from these.
FULL_ENCODER_WIDTHS = [64, 64, 64, 128, 1024]
DESK_ENCODER_WIDTHS = [32, 64, 128]
HEAD_WIDTHS = [64, 32]
SEG_WIDTHS = [64, 32]
DROPOUT_RATE = 0.7


class CheckpointError(ValueError):
    """Checkpoint file malformed or incompatible with the requested model."""


def _glorot(rng, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


@dataclass
class DenseLayer:
    w: Tensor
    b: Tensor
    bn: BNState | None = None

    @staticmethod
    def make(rng, din, dout, dtype, with_bn):
        return DenseLayer(
            w=Tensor(_glorot(rng, din, dout, dtype), requires_grad=True),
            b=Tensor(np.zeros(dout, dtype=dtype), requires_grad=True),
            bn=BNState(dout, dtype=dtype) if with_bn else None,
        )

    def params(self):
        ps = [self.w, self.b]
        if self.bn is not None:
            ps += [self.bn.gamma, self.bn.beta]
        return ps


@dataclass
class EncoderParams:
    """Shared per-point MLP widths; the last width is the global feature size."""
    layers: list
    widths: list

    @staticmethod
    def create(rng, widths=None, dtype=np.float32):
        widths = list(widths or DESK_ENCODER_WIDTHS)
        if any(w < 1 for w in widths):
            raise ValueError(f"encoder widths must be >= 1, got {widths}")
        dims = [3] + widths
        layers = [DenseLayer.make(rng, dims[i], dims[i + 1], dtype, with_bn=True)
                  for i in range(len(widths))]
        return EncoderParams(layers=layers, widths=widths)

    @property
    def d_global(self):
        return self.widths[-1]

    @property
    def d_mid(self):
        # per-point feature kept for the segmentation branch
        return self.widths[-2] if len(self.widths) > 1 else self.widths[-1]

    def params(self):
        return [p for l in self.layers for p in l.params()]


@dataclass
class HeadParams:
    layers: list
    widths: list
    dropout_rate: float = DROPOUT_RATE

    @staticmethod
    def create(rng, d_in, widths=None, dropout_rate=DROPOUT_RATE, dtype=np.float32):
        widths = list(widths or HEAD_WIDTHS)
        if widths[-1] < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {widths[-1]}")
        dims = [d_in] + widths
        layers = [DenseLayer.make(rng, dims[i], dims[i + 1], dtype, with_bn=False)
                  for i in range(len(widths))]
        return HeadParams(layers=layers, widths=widths, dropout_rate=dropout_rate)

    @property
    def d_out(self):
        return self.widths[-1]

    def params(self):
        return [p for l in self.layers for p in l.params()]


@dataclass
class SegBranchParams:
    """Per-point MLP over [intermediate feature || broadcast global feature]."""
    layers: list
    widths: list

    @staticmethod
    def create(rng, d_mid, d_global, widths=None, dtype=np.float32):
        widths = list(widths or SEG_WIDTHS)
        dims = [d_mid + d_global] + widths
        layers = [DenseLayer.make(rng, dims[i], dims[i + 1], dtype, with_bn=False)
                  for i in range(len(widths))]
        return SegBranchParams(layers=layers, widths=widths)

    @property
    def d_out(self):
        return self.widths[-1]

    def params(self):
        return [p for l in self.layers for p in l.params()]


@dataclass
class ProbeParams:
    """Single affine map: the strict reading of a linear classifier."""
    w: Tensor
    b: Tensor

    @staticmethod
    def create(rng, d_in, num_classes, dtype=np.float32):
        return ProbeParams(
            w=Tensor(np.zeros((d_in, num_classes), dtype=dtype), requires_grad=True),
            b=Tensor(np.zeros(num_classes, dtype=dtype), requires_grad=True),
        )

    def params(self):
        return [self.w, self.b]


@dataclass
class ModelParams:
    encoder: EncoderParams
    head: HeadParams
    seg: SegBranchParams | None = None
    config: dict = field(default_factory=dict)

    @staticmethod
    def create(rng, encoder_widths=None, head_widths=None, seg_widths=None,
               dropout_rate=DROPOUT_RATE, with_seg=False, dtype=np.float32):
        enc = EncoderParams.create(rng, encoder_widths, dtype=dtype)
        head = HeadParams.create(rng, enc.d_global, head_widths,
                                 dropout_rate=dropout_rate, dtype=dtype)
        seg = None
        if with_seg:
            seg = SegBranchParams.create(rng, enc.d_mid, enc.d_global,
                                         seg_widths, dtype=dtype)
        cfg = {
            "encoder_widths": enc.widths,
            "head_widths": head.widths,
            "seg_widths": seg.widths if seg else None,
            "dropout_rate": dropout_rate,
        }
        return ModelParams(encoder=enc, head=head, seg=seg, config=cfg)

    def params(self):
        ps = self.encoder.params() + self.head.params()
        if self.seg is not None:
            ps += self.seg.params()
        return ps


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def encode(points: np.ndarray, enc: EncoderParams, training: bool,
           bn_momentum: float = 0.9):
    """Run the shared per-point MLP and max pool.

    points: [B, N, 3] array. Returns (global_feature [B, D_g] Tensor,
    per_point [B, N, D_mid] Tensor).
    """
    points = np.asarray(points)
    B, N, _ = points.shape
    h = Tensor(points.reshape(B * N, 3).astype(enc.layers[0].w.dtype))
    per_point = None
    for i, layer in enumerate(enc.layers):
        h = T.shared_mlp(h, layer.w, layer.b, layer.bn, bn_momentum, training)
        if i == len(enc.layers) - 2 or (len(enc.layers) == 1 and i == 0):
            per_point = h
    feats = T.reshape(h, (B, N, enc.d_global))
    global_feat = T.max_pool_points(feats)
    if per_point is None:
        per_point = h
    per_point = T.reshape(per_point, (B, N, enc.d_mid))
    return global_feat, per_point


def project(global_feat: Tensor, head: HeadParams, training: bool,
            rng: np.random.Generator | None = None, normalize: bool = True):
    """Projection head: FC stack with ReLU + dropout between layers, linear
    output, then (by default) unit-norm rows."""
    h = global_feat
    last = len(head.layers) - 1
    for i, layer in enumerate(head.layers):
        h = T.linear_forward(h, layer.w, layer.b)
        if i != last:
            h = T.relu(h)
            if training and head.dropout_rate > 0:
                if rng is None:
                    raise ValueError("training-mode projection needs an rng for dropout")
                h = T.dropout(h, head.dropout_rate, training, rng)
    if normalize:
        h = T.l2_normalize_rows(h)
    return h


def segment_embed(per_point: Tensor, global_feat: Tensor, seg: SegBranchParams,
                  training: bool, normalize: bool = True):
    """Per-point embeddings [B, N, d_out] from the concatenated
    per-point/global features; rows unit-normalized by default."""
    B, N, dmid = per_point.shape
    g = T.broadcast_points(global_feat, N)
    h = T.concat_last(per_point, g)
    h = T.reshape(h, (B * N, dmid + global_feat.shape[1]))
    last = len(seg.layers) - 1
    for i, layer in enumerate(seg.layers):
        h = T.linear_forward(h, layer.w, layer.b)
        if i != last:
            h = T.relu(h)
    h = T.reshape(h, (B, N, seg.d_out))
    if normalize:
        h = T.l2_normalize_rows(h)
    return h


def probe_forward(features, probe: ProbeParams):
    """Affine logits over frozen features [B, D_in]."""
    if isinstance(features, np.ndarray):
        features = Tensor(features.astype(probe.w.dtype))
    return T.linear_forward(features, probe.w, probe.b)


# ---------------------------------------------------------------------------
# Checkpoint format, version 2: magic "PCLM", version u16 LE, u32 JSON header
# length, JSON header bytes, then tensors, each as ndim u8, dims u32..., f32
# payload. The header holds the model config, the caller's "extra" dict and
# the number of caller tensors; it holds no array. The tensors are the
# trainables in declaration order, the running BN statistics (so round-trips
# are bit-exact), then the caller's tensors (a training checkpoint's Adam
# moments). A file is written beside its target and renamed into place, so a
# failed save leaves the previous file whole.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"PCLM"
_CKPT_VERSION = 2


def _model_tensors(model: ModelParams):
    """Trainables in declaration order, then BN running stats."""
    arrs = [p.data for p in model.params()]
    for layer in model.encoder.layers:
        if layer.bn is not None:
            arrs.append(layer.bn.running_mean)
            arrs.append(layer.bn.running_var)
    return arrs


def save_checkpoint(model: ModelParams, path, extra: dict | None = None,
                    tensors=()) -> None:
    """Write the model, a JSON-able extra dict and further tensors to path."""
    header = dict(model.config, extra=extra or {}, tensors=len(tensors))
    blob = json.dumps(header).encode()
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_CKPT_MAGIC + struct.pack("<HI", _CKPT_VERSION, len(blob)) + blob)
            for arr in _model_tensors(model) + list(tensors):
                a = np.ascontiguousarray(arr, dtype="<f4")
                f.write(struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape))
                f.write(a.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path, dtype=np.float32):
    """Rebuild ModelParams from a checkpoint; returns (model, extra_dict).

    Tensors saved after the model's come back as extra["tensors"].
    """
    with open(path, "rb") as f:
        buf = f.read()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(buf):
            raise CheckpointError(f"{path}: truncated at byte {len(buf)}")
        pos += n
        return buf[pos - n:pos]

    if take(4) != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    version, hlen = struct.unpack("<HI", take(6))
    if version != _CKPT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported version {version} (expected {_CKPT_VERSION})")
    blob = take(hlen)
    try:
        header = json.loads(blob)
    except ValueError as e:
        raise CheckpointError(f"{path}: bad header: {e}") from e
    model = ModelParams.create(
        np.random.default_rng(0),  # values overwritten below
        encoder_widths=header["encoder_widths"],
        head_widths=header["head_widths"],
        seg_widths=header["seg_widths"],
        dropout_rate=header["dropout_rate"],
        with_seg=header["seg_widths"] is not None,
        dtype=dtype,
    )
    arrays = []
    for expect in _model_tensors(model) + [None] * header["tensors"]:
        ndim = take(1)[0]
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        payload = take(4 * int(np.prod(dims, dtype=np.int64)))
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
        if expect is not None and arr.shape != expect.shape:
            raise CheckpointError(
                f"{path}: shape mismatch {arr.shape} vs expected {expect.shape}")
        arrays.append(arr.astype(dtype))
    if pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - pos} bytes after the last tensor")
    it = iter(arrays)
    for p in model.params():
        p.data = next(it)
    for layer in model.encoder.layers:
        if layer.bn is not None:
            layer.bn.running_mean = next(it)
            layer.bn.running_var = next(it)
    extra = header["extra"]
    rest = list(it)
    if rest:
        extra["tensors"] = rest
    return model, extra
