"""Encoder, projection head, segmentation branch, checkpoints.

The encoder is a shared per-point MLP (no input/feature alignment sub-network
anywhere) followed by a max pool over points; the pooled global feature is
the representation used for linear-probe evaluation. The projection head is
a small fully connected MLP whose output feeds the contrastive losses only.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import tensor as T
from .tensor import Tensor, BNState

__all__ = [
    "LayerStack",
    "DenseLayer",
    "ModelParams",
    "encode",
    "project",
    "segment_embed",
    "save_checkpoint",
    "load_checkpoint",
    "check_model_config",
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
    w = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
    return Tensor(w, requires_grad=True)


@dataclass
class DenseLayer:
    """Affine layer x @ w + b: a layer of the projection head or the seg
    branch, or the linear probe."""
    w: Tensor
    b: Tensor

    def params(self):
        return [self.w, self.b]


@dataclass
class EncoderLayer:
    """Shared-MLP layer relu(batch_norm(x @ w)); batch norm's beta is its shift."""
    w: Tensor
    bn: BNState

    def params(self):
        return [self.w, self.bn.gamma, self.bn.beta]


def _dense_stack(weight, dims, dtype):
    return [DenseLayer(weight(a, b), Tensor(np.zeros(b, dtype=dtype), requires_grad=True))
            for a, b in zip(dims, dims[1:])]


def _frozen(layers):
    """Dense layers on their own arrays, as tensors that take no gradient."""
    return [DenseLayer(Tensor(l.w.data), Tensor(l.b.data)) for l in layers]


def _d_mid(encoder_widths):
    """Width of the per-point feature kept for the segmentation branch: the
    encoder's second-last layer."""
    return encoder_widths[-2]


@dataclass
class LayerStack:
    """One model part's layers in order: the encoder's EncoderLayers (its
    last width is the global feature size), or the projection head's or
    segmentation branch's DenseLayers. Only the head sets dropout_rate."""
    layers: list
    dropout_rate: float = 0.0

    def params(self):
        return [p for l in self.layers for p in l.params()]

    @property
    def widths(self):
        """Output width of each layer, read off its weight."""
        return [l.w.shape[1] for l in self.layers]


@dataclass
class ModelParams:
    encoder: LayerStack
    head: LayerStack
    seg: LayerStack | None = None  # per-point MLP over [per-point || global feature]

    @staticmethod
    def create(rng, encoder_widths=DESK_ENCODER_WIDTHS, head_widths=HEAD_WIDTHS,
               seg_widths=SEG_WIDTHS, dropout_rate=DROPOUT_RATE, with_seg=False,
               dtype=np.float32):
        """Glorot weights drawn from rng: the encoder's, the head's, then
        (with_seg) the segmentation branch's, each in layer order."""
        check_model_config(encoder_widths=encoder_widths, head_widths=head_widths,
                           seg_widths=seg_widths, dropout_rate=dropout_rate)
        if with_seg and seg_widths is None:
            raise ValueError("seg_widths must be widths >= 1 for a segmentation "
                             "branch, got None")
        return _build(lambda a, b: _glorot(rng, a, b, dtype), encoder_widths, head_widths,
                      seg_widths if with_seg else None, dropout_rate, dtype)

    @property
    def config(self):
        """The checkpoint header's model config, read off the layers."""
        return {"encoder_widths": self.encoder.widths, "head_widths": self.head.widths,
                "seg_widths": self.seg.widths if self.seg else None,
                "dropout_rate": self.head.dropout_rate}

    def params(self):
        ps = self.encoder.params() + self.head.params()
        if self.seg is not None:
            ps += self.seg.params()
        return ps


def _build(weight, encoder_widths, head_widths, seg_widths, dropout_rate, dtype):
    """The model of these widths (no seg branch for seg_widths None): each
    weight matrix is weight(fan_in, fan_out), taken in layer order (encoder,
    head, seg branch), and every other array is a constant."""
    dims = [3] + list(encoder_widths)
    enc = LayerStack([EncoderLayer(weight(a, b), BNState(b, dtype=dtype))
                      for a, b in zip(dims, dims[1:])])
    head = LayerStack(_dense_stack(weight, dims[-1:] + list(head_widths), dtype), dropout_rate)
    seg = None if seg_widths is None else LayerStack(_dense_stack(
        weight, [_d_mid(encoder_widths) + dims[-1]] + list(seg_widths), dtype))
    return ModelParams(encoder=enc, head=head, seg=seg)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def encode(points: np.ndarray, enc: LayerStack, training: bool,
           bn_momentum: float = 0.9):
    """Run the shared per-point MLP and max pool.

    points: [B, N, 3] array. Returns (global_feature [B, D_g] Tensor,
    per_point [B, N, D_mid] Tensor): the pooled last layer, one node, and
    the output of the layer before it.
    """
    points = np.asarray(points)
    B, N, _ = points.shape
    h = Tensor(points.reshape(B * N, 3).astype(enc.layers[0].w.dtype))
    *body, last = enc.layers
    for layer in body:
        h = T.shared_mlp(h, layer.w, layer.bn, bn_momentum, training)
    global_feat = T.shared_mlp_max_pool(h, last.w, last.bn, bn_momentum, training, N)
    return global_feat, T.reshape(h, (B, N, h.shape[1]))


def _hidden(h: Tensor, layers, dropout_rate=0.0, rng=None):
    """A dense stack's hidden layers: affine, ReLU, then dropout at
    dropout_rate. The stack's last layer is a linear_forward after them."""
    for layer in layers:
        h = T.dropout(T.relu(T.linear_forward(h, layer.w, layer.b)), dropout_rate, rng)
    return h


def project(global_feat: Tensor, head: LayerStack, training: bool,
            rng: np.random.Generator | None = None, normalize: bool = True):
    """Projection head: FC stack with ReLU + dropout between layers, linear
    output, then (by default) unit-norm rows. training selects tracking: eval
    mode runs on _frozen layers, so an untracked input records no tape node."""
    *hidden, last = head.layers if training else _frozen(head.layers)
    h = _hidden(global_feat, hidden, head.dropout_rate if training else 0.0, rng)
    h = T.linear_forward(h, last.w, last.b)
    if normalize:
        h = T.l2_normalize_rows(h)
    return h


def segment_embed(per_point: Tensor, global_feat: Tensor, seg: LayerStack,
                  training: bool, normalize: bool = True):
    """Per-point embeddings [B, N, d_out] from the per-point features
    concatenated with their cloud's global feature (never formed); rows
    unit-normalized by default. training selects tracking, as in project."""
    B, N, _ = per_point.shape
    first, *rest = seg.layers if training else _frozen(seg.layers)
    h = T.linear_points_global(per_point, global_feat, first.w, first.b)
    for layer in rest:
        h = T.linear_forward(T.relu(h), layer.w, layer.b)
    h = T.reshape(h, (B, N, seg.widths[-1]))
    if normalize:
        h = T.l2_normalize_rows(h)
    return h


# ---------------------------------------------------------------------------
# Checkpoint format, version 3: magic "PCLM", version u16 LE, u32 JSON header
# length, JSON header bytes, then tensors, each as ndim u8, dims u32..., f32
# payload. The header holds the model config, the caller's "extra" dict and
# the number of caller tensors; it holds no array. The tensors come in
# _model_slots order: encoder (w, gamma, beta) per layer, head and seg branch
# (w, b) per layer, each encoder layer's (running_mean, running_var) so
# round-trips are bit-exact, then the caller's tensors (a training
# checkpoint's Adam m and v). A file is written beside its target and
# renamed into place, so a failed save leaves the previous file whole.
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"PCLM"
_CKPT_VERSION = 3


def _is_widths(v):
    return isinstance(v, list) and v != [] and all(type(n) is int and n >= 1 for n in v)


# What each header field must hold, as (rule, check); the model is built from
# them. An encoder has two or more layers: the last one pools
# (shared_mlp_max_pool), and the one before it gives the per-point feature.
_HEADER_FIELDS = {
    "encoder_widths": ("two or more widths >= 1", lambda v: _is_widths(v) and len(v) >= 2),
    "head_widths": ("widths >= 1, the last >= 2", lambda v: _is_widths(v) and v[-1] >= 2),
    "seg_widths": ("None or widths >= 1", lambda v: v is None or _is_widths(v)),
    "dropout_rate": ("in [0, 1)", lambda v: type(v) in (int, float) and 0 <= v < 1),
    "extra": ("a JSON object", lambda v: isinstance(v, dict)),
    "tensors": ("a count >= 0", lambda v: type(v) is int and v >= 0),
}


def check_model_config(**fields):
    """Raise ValueError for the first model-shape field that breaks its
    checkpoint-header rule, so no model is built that load_checkpoint
    would reject. A tuple of widths is checked as a list."""
    for name, value in fields.items():
        rule, ok = _HEADER_FIELDS[name]
        if not ok(list(value) if isinstance(value, tuple) else value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def _model_slots(model: ModelParams):
    """The model's tensors in file order, as (owner, attribute) pairs: the
    trainables in declaration order, then each encoder layer's BN running
    statistics."""
    slots = [(p, "data") for p in model.params()]
    for layer in model.encoder.layers:
        slots += [(layer.bn, "running_mean"), (layer.bn, "running_var")]
    return slots


def _model_nbytes(config):
    """File bytes of the model tensors config implies: each is ndim u8, dims
    u32... and f32 values; an encoder layer a -> b holds w [a, b] and four [b]
    vectors (gamma, beta, running stats), a dense layer w [a, b] and b [b]."""
    enc = [3] + config["encoder_widths"]
    stacks = [(enc, 29, 16), (enc[-1:] + config["head_widths"], 14, 4)]
    if config["seg_widths"] is not None:
        d_in = _d_mid(config["encoder_widths"]) + enc[-1]
        stacks.append(([d_in] + config["seg_widths"], 14, 4))
    return sum(fixed + 4 * a * b + per_b * b
               for dims, fixed, per_b in stacks for a, b in zip(dims, dims[1:]))


def save_checkpoint(model: ModelParams, path, extra: dict | None = None,
                    tensors=()) -> None:
    """Write the model, a JSON-able extra dict and further tensors to path."""
    if extra and "tensors" in extra:  # load_checkpoint returns the tensors there
        raise ValueError("a checkpoint's extra may not hold a 'tensors' key")
    header = dict(model.config, extra=extra or {}, tensors=len(tensors))
    blob = json.dumps(header).encode()
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_CKPT_MAGIC + struct.pack("<HI", _CKPT_VERSION, len(blob)) + blob)
            for arr in [getattr(*slot) for slot in _model_slots(model)] + list(tensors):
                a = np.ascontiguousarray(arr, dtype="<f4")
                f.write(struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape))
                f.write(a.data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Rebuild ModelParams from a checkpoint; returns (model, extra_dict).

    Tensors saved after the model's come back as extra["tensors"]. Each
    tensor is read straight into its own array, after its size is checked
    against the file's, so the file is never held whole.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        pos = 0

        def need(n):
            nonlocal pos
            if pos + n > size:
                raise CheckpointError(f"{path}: truncated at byte {size}")
            pos += n

        def take(n):
            need(n)
            out = f.read(n)
            if len(out) != n:  # the file shrank after fstat
                raise CheckpointError(f"{path}: truncated at byte {size}")
            return out

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
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: bad header: not a JSON object")
        for key, (_, ok) in _HEADER_FIELDS.items():
            if key not in header:
                raise CheckpointError(f"{path}: bad header: no {key!r}")
            if not ok(header[key]):
                raise CheckpointError(f"{path}: bad header: {key!r} is {header[key]!r}")
        if "tensors" in header["extra"]:
            raise CheckpointError(f"{path}: bad header: 'extra' holds a 'tensors' key")
        config = {k: header[k] for k in ("encoder_widths", "head_widths", "seg_widths",
                                         "dropout_rate")}
        if _model_nbytes(config) > size - pos:  # before allocating any of it
            raise CheckpointError(f"{path}: truncated at byte {size}")
        # The model's arrays are read into in place, so no weight is drawn
        # first; the model is discarded if a later check fails.
        model = _build(lambda a, b: Tensor(np.empty((a, b), np.float32), requires_grad=True),
                       dtype=np.float32, **config)
        rest = []
        for slot in chain(_model_slots(model), repeat(None, header["tensors"])):
            ndim = take(1)[0]
            dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
            need(4 * math.prod(dims))
            arr = getattr(*slot) if slot else np.empty(dims, dtype=np.float32)
            if dims != arr.shape:
                raise CheckpointError(f"{path}: shape mismatch {dims} vs expected {arr.shape}")
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated at byte {size}")
            if sys.byteorder == "big":  # the file's values are little-endian
                arr.byteswap(inplace=True)
            if not slot:
                rest.append(arr)
        if pos != size:
            raise CheckpointError(f"{path}: {size - pos} bytes after the last tensor")
    extra = header["extra"]
    if rest:
        extra["tensors"] = rest
    return model, extra
