"""Batch assembly, Adam, lr / batch-norm momentum schedules, pretraining loop."""

from __future__ import annotations

import csv
import ctypes
import os
from dataclasses import dataclass, field

import numpy as np

from . import models, tensor as T
from .losses import LossConfig, contrastive_loss_cls, contrastive_loss_seg
from .pointcloud import Dataset, sample_stack
from .transforms import TransformSpec, parse_transform, transform_stack

__all__ = [
    "TrainConfig",
    "AdamState",
    "adam_step",
    "lr_schedule",
    "bn_schedule",
    "build_batch",
    "pretrain",
    "save_train_checkpoint",
    "load_train_checkpoint",
]


@dataclass(frozen=True)  # so transform_spec always matches transform
class TrainConfig:
    pairs_per_batch: int = 16
    epochs: int = 30
    points_per_cloud: int = 128
    lr_init: float = 0.001
    lr_floor: float = 1e-5
    lr_decay_gamma: float = 0.7
    decay_period_steps: int = 0      # 0 = derived as 20 epochs worth of steps
    bn_init: float = 0.5
    bn_cap: float = 0.99
    seed: int = 0
    transform: str = "rotate:y:180"
    jitter_augment: bool = False
    loss: LossConfig = field(default_factory=LossConfig)
    encoder_widths: list = field(default_factory=lambda: list(models.DESK_ENCODER_WIDTHS))
    head_widths: list = field(default_factory=lambda: list(models.HEAD_WIDTHS))
    seg_widths: list = field(default_factory=lambda: list(models.SEG_WIDTHS))
    dropout_rate: float = models.DROPOUT_RATE
    checkpoint_every: int = 0        # steps; 0 = final checkpoint only
    # parsed from transform when the config is built; not a setting
    transform_spec: TransformSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "transform_spec", parse_transform(self.transform))
        if self.pairs_per_batch < 2:
            raise ValueError("need at least 2 pairs per batch")
        # a negative lr makes Adam climb the loss; lr_schedule's max() turns a nan into the floor
        for name in ("lr_init", "lr_floor"):
            lr = getattr(self, name)
            if not 0.0 <= lr < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {lr}")
        if self.lr_floor > self.lr_init:
            raise ValueError("lr_floor must not exceed lr_init")
        if not 0.0 < self.lr_decay_gamma <= 1.0:
            raise ValueError(f"lr_decay_gamma must be in (0, 1], got {self.lr_decay_gamma}")
        if not 0.0 <= self.bn_init <= 1.0:  # bn_schedule is 1 - bn_init * 0.5 ** k
            raise ValueError(f"bn_init must be in [0, 1], got {self.bn_init}")
        if not 0.5 <= self.bn_cap <= 1.0:
            raise ValueError("bn momentum cap must be in [0.5, 1]")
        for name in ("epochs", "decay_period_steps", "checkpoint_every", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.points_per_cloud < 1:
            raise ValueError(f"points_per_cloud must be >= 1, got {self.points_per_cloud}")
        # so pretrain never writes a checkpoint that load_checkpoint rejects
        models.check_model_config(dropout_rate=self.dropout_rate,
                                  encoder_widths=self.encoder_widths,
                                  head_widths=self.head_widths,
                                  seg_widths=self.seg_widths)


# glibc mallopt parameters, and the values _pin_heap gives them. A
# full-preset step at 1024 points frees more than 64 MB at once: under a
# 64 MB trim threshold it faulted about 7400 pages back in per step.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 256 << 20
_MMAP_THRESHOLD = 32 << 20  # glibc's largest on 64-bit


def _libc():
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):  # TypeError: no process handle on Windows
        return None


def _pin_heap() -> None:
    """Keep freed heap in the process, so each training step reuses the
    pages of the one before instead of faulting them in again.

    Sets glibc's M_TRIM_THRESHOLD to _TRIM_THRESHOLD and M_MMAP_THRESHOLD to
    _MMAP_THRESHOLD: arrays below the latter come from the heap, and free
    heap memory up to the former stays in the process. The effect is
    process-wide and lasts after the call returns. It does nothing without
    glibc's mallopt, or where MALLOC_TRIM_THRESHOLD_ or MALLOC_MMAP_THRESHOLD_
    is set in the environment: glibc has then applied the user's values.
    """
    if "MALLOC_TRIM_THRESHOLD_" in os.environ or "MALLOC_MMAP_THRESHOLD_" in os.environ:
        return
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


class AdamState:
    """First/second moment buffers and step counter for one parameter list."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def adam_step(params, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam, the one update of pretraining, finetuning and the
    probe: the moments are updated in place, each parameter's data is rebound
    to a new array and grads are cleared. A non-finite grad raises."""
    state.step_count += 1
    t, b1, b2 = state.step_count, state.beta1, state.beta2
    for i, p in enumerate(params):
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in parameter {i} (shape {p.shape})")
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and lr*mhat/(sqrt(vhat)+eps)
        # with the moments updated in place, in that operation order: same bits.
        m, v = state.m[i], state.v[i]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        step = m / (1 - b1 ** t)
        step *= lr
        step /= np.sqrt(v / (1 - b2 ** t)) + state.eps
        p.data = p.data - step
        p.grad = None


def lr_schedule(step: int, cfg: TrainConfig, period: int) -> float:
    k = step // max(period, 1)
    return max(cfg.lr_floor, cfg.lr_init * cfg.lr_decay_gamma ** k)


def bn_schedule(step: int, cfg: TrainConfig, period: int) -> float:
    k = step // max(period, 1)
    return min(cfg.bn_cap, 1.0 - cfg.bn_init * 0.5 ** k)


def build_batch(ds: Dataset, cfg: TrainConfig, rng: np.random.Generator):
    """Select n distinct samples, fix the point count and pair each with its
    transformed version. Returns (orig [n,N,3], trans [n,N,3])."""
    n = cfg.pairs_per_batch
    if len(ds) < n:
        raise ValueError(f"dataset of {len(ds)} samples < batch of {n} pairs")
    idx = rng.choice(len(ds), size=n, replace=False)
    orig, _ = sample_stack([ds[int(i)] for i in idx], cfg.points_per_cloud, rng)
    trans, _ = transform_stack(orig, cfg.transform_spec, rng)
    if cfg.jitter_augment:
        jitter = TransformSpec(kind="jitter")
        orig, _ = transform_stack(orig, jitter, rng)
        trans, _ = transform_stack(trans, jitter, rng)
    return orig, trans


@dataclass
class LossRecord:
    step: int
    epoch: int
    lr: float
    bn_momentum: float
    loss: float


def _curve_rows(path, before):
    """The rows of the loss curve at path whose step is below before, as the
    text fields they were written with; none if there is no file."""
    if not os.path.exists(path):
        return []
    with open(path, newline="") as f:
        return [row for row in list(csv.reader(f))[1:] if int(row[0]) < before]


def write_loss_curve(records, path, kept=()):
    """The curve of records at path, after the rows kept (_curve_rows)."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "epoch", "lr", "bn_momentum", "loss"])
        w.writerows(kept)
        for r in records:
            w.writerow([r.step, r.epoch, f"{r.lr:.10g}",
                        f"{r.bn_momentum:.10g}", f"{r.loss:.10g}"])


def _forward_loss(model, orig, trans, cfg, rng, objective, bn_momentum=0.9):
    """The training-mode contrastive loss of one batch of pairs."""
    n = orig.shape[0]
    both = np.concatenate([orig, trans], axis=0)
    global_feat, per_point = models.encode(both, model.encoder, True,
                                           bn_momentum=bn_momentum)
    if objective == "cls":
        z = models.project(global_feat, model.head, True, rng,
                           normalize=cfg.loss.normalize)
        loss_fn = contrastive_loss_cls
    elif objective == "seg":
        z = models.segment_embed(per_point, global_feat, model.seg, True,
                                 normalize=cfg.loss.normalize)
        loss_fn = contrastive_loss_seg
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return loss_fn(T.index(z, slice(0, n)), T.index(z, slice(n, 2 * n)), cfg.loss)


def pretrain(ds: Dataset, cfg: TrainConfig, objective: str = "cls",
             out_dir: str | None = None, resume: str | None = None,
             model: models.ModelParams | None = None):
    """Unsupervised contrastive pretraining.

    Returns (model, loss_records). With out_dir set, writes loss_curve.csv,
    periodic checkpoints and checkpoint_final.pclm. A run that raises after
    completing a step still writes loss_curve.csv, with the steps it completed.
    A run resumed into an out_dir that holds a loss_curve.csv keeps that
    file's rows below the resume step and writes its own after them, so a
    killed run resumed from its last checkpoint leaves the uninterrupted
    run's curve; records holds only the resumed steps.
    """
    if objective not in ("cls", "seg"):
        raise ValueError(f"objective must be 'cls' or 'seg', got {objective!r}")
    _pin_heap()
    steps_per_epoch = max(len(ds) // cfg.pairs_per_batch, 1)
    period = cfg.decay_period_steps or 20 * steps_per_epoch
    total_steps = cfg.epochs * steps_per_epoch
    rng = np.random.default_rng(cfg.seed)
    start_step = 0
    records: list[LossRecord] = []
    curve = os.path.join(out_dir, "loss_curve.csv") if out_dir else None
    kept = []  # an earlier curve's rows below the resume step
    if resume is not None:
        model, opt, rng, start_step = load_train_checkpoint(resume)
        if start_step >= total_steps:  # before out_dir's files are rewritten
            raise ValueError(f"{resume} is at step {start_step}, and the run "
                             f"has {total_steps} steps: nothing to resume")
        if curve:
            kept = _curve_rows(curve, start_step)
    else:
        if model is None:
            model = models.ModelParams.create(
                rng, encoder_widths=cfg.encoder_widths, head_widths=cfg.head_widths,
                seg_widths=cfg.seg_widths if objective == "seg" else None,
                dropout_rate=cfg.dropout_rate, with_seg=(objective == "seg"))
        opt = AdamState(model.params())

    params = model.params()
    last_ckpt = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    try:
        for step in range(start_step, total_steps):
            epoch = step // steps_per_epoch
            lr = lr_schedule(step, cfg, period)
            bn_m = bn_schedule(step, cfg, period)
            orig, trans = build_batch(ds, cfg, rng)
            loss = _forward_loss(model, orig, trans, cfg, rng, objective, bn_momentum=bn_m)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise FloatingPointError(
                    f"non-finite loss {loss_val} at step {step}; "
                    + (f"last checkpoint written: {last_ckpt}" if last_ckpt
                       else "no checkpoint was written"))
            T.backward(loss)
            del loss  # frees the step's tape before the update and the next batch
            adam_step(params, opt, lr)
            records.append(LossRecord(step, epoch, lr, bn_m, loss_val))
            if out_dir and cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
                path = os.path.join(out_dir, f"checkpoint_{step + 1:06d}.pclm")
                save_train_checkpoint(model, opt, rng, step + 1, path)
                last_ckpt = path
        if out_dir:
            save_train_checkpoint(model, opt, rng, total_steps,
                                  os.path.join(out_dir, "checkpoint_final.pclm"))
    except BaseException:
        # Keep the curve of the completed steps. A run that failed before
        # its first step leaves an earlier curve in out_dir as it was.
        if curve and records:
            write_loss_curve(records, curve, kept)
        raise
    if curve:
        write_loss_curve(records, curve, kept)
    return model, records


# ---------------------------------------------------------------------------
# Training checkpoints: the model checkpoint plus optimizer moments and the
# rng state, so a resumed run reproduces the uninterrupted trajectory.
# ---------------------------------------------------------------------------

def save_train_checkpoint(model, opt: AdamState, rng: np.random.Generator,
                          step: int, path) -> None:
    extra = {
        "step": step,
        "adam": {"step_count": opt.step_count},
        "rng_state": rng.bit_generator.state,
    }
    models.save_checkpoint(model, path, extra=extra, tensors=opt.m + opt.v)


def load_train_checkpoint(path):
    model, extra = models.load_checkpoint(path)
    if type(extra.get("step")) is not int:
        raise models.CheckpointError(f"{path}: not a training checkpoint ('step')")
    params = model.params()
    moments = extra.get("tensors", [])
    if [a.shape for a in moments] != [p.data.shape for p in params] * 2:
        raise models.CheckpointError(f"{path}: Adam moments do not match the model")
    adam = extra.get("adam")
    if not (isinstance(adam, dict) and type(adam.get("step_count")) is int):
        raise models.CheckpointError(f"{path}: bad header: 'adam' is {adam!r}")
    opt = AdamState(params)
    opt.step_count = adam["step_count"]
    opt.m, opt.v = moments[:len(params)], moments[len(params):]
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = extra.get("rng_state")
    except (KeyError, TypeError, ValueError) as e:
        raise models.CheckpointError(f"{path}: bad header: 'rng_state': {e!r}") from e
    return model, opt, rng, extra["step"]
