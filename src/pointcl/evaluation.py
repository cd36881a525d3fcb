"""Evaluation protocols: frozen linear probe, pretraining (finetune)
evaluation, cross-dataset validation, part-segmentation metrics, and the
transformation ablation harness."""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass, field

import numpy as np

from . import models, tensor as T
from .models import DenseLayer, ModelParams
from .pointcloud import Dataset, sample_points
from .training import AdamState, TrainConfig, adam_step, pretrain
from .transforms import parse_transform

__all__ = [
    "Metrics",
    "extract_features",
    "fit_probe",
    "linear_probe_eval",
    "pretrain_finetune_eval",
    "cross_validate",
    "segmentation_eval",
    "check_segmentation_sets",
    "shape_miou",
    "ablate_transforms",
    "TABLE4_SUITE",
    "TABLE5_SUITE",
]

# The single-transform sweep and the two-transform compositions.
TABLE4_SUITE = [
    "rotate:y:180", "rotate:y:90", "rotate:y:45",
    "rotate:x:180", "rotate:x:90", "rotate:x:45",
    "cutout", "crop", "scale", "jitter", "smooth",
]
TABLE5_SUITE = [
    "compose(rotate:y:180,cutout)",
    "compose(rotate:y:180,crop)",
    "compose(rotate:y:180,scale)",
    "compose(rotate:y:180,jitter)",
    "compose(rotate:y:180,smooth)",
]


@dataclass
class Metrics:
    overall_accuracy: float
    mean_class_accuracy: float
    instance_miou: float | None = None
    class_miou: float | None = None
    per_class: dict = field(default_factory=dict)
    tags: dict = field(default_factory=dict)

    def row(self):
        d = {"overall_accuracy": self.overall_accuracy,
             "mean_class_accuracy": self.mean_class_accuracy}
        if self.instance_miou is not None:
            d["instance_miou"] = self.instance_miou
            d["class_miou"] = self.class_miou
        d.update(self.tags)
        return d


def classification_metrics(pred, gt, num_classes, tags=None) -> Metrics:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    overall = float((pred == gt).mean())
    per_class = {}
    accs = []
    for c in range(num_classes):
        mask = gt == c
        if mask.any():
            acc = float((pred[mask] == c).mean())
            per_class[c] = acc
            accs.append(acc)
    return Metrics(overall_accuracy=overall,
                   mean_class_accuracy=float(np.mean(accs)) if accs else 0.0,
                   per_class=per_class, tags=tags or {})


# ---------------------------------------------------------------------------
# Feature extraction and the linear probe
# ---------------------------------------------------------------------------

_EVAL_BATCH = 32  # clouds per models.encode call when extracting features


def extract_features(model: ModelParams, ds: Dataset, points_per_cloud: int,
                     seed: int = 0, source: str = "encoder"):
    """Eval-mode features for every sample: the pooled global feature
    (source='encoder', the default) or the projection-head output
    (source='head'). Returns (features [S, D], labels [S])."""
    if source not in ("encoder", "head"):
        raise ValueError(f"feature source must be 'encoder' or 'head', got {source!r}")
    rng = np.random.default_rng(seed)
    clouds = [sample_points(p, points_per_cloud, rng).points for p in ds.samples]
    labels = np.array([p.class_label for p in ds.samples])
    feats = []
    for i in range(0, len(clouds), _EVAL_BATCH):
        batch = np.stack(clouds[i:i + _EVAL_BATCH])
        g, _ = models.encode(batch, model.encoder, training=False)
        if source == "head":
            g = models.project(g, model.head, training=False)
        feats.append(g.data.copy())
    return np.concatenate(feats), labels


def fit_probe(train_feats, train_labels, num_classes, epochs=100,
              lr=0.001) -> DenseLayer:
    """Full-batch Adam fit of a single affine classifier on cached features,
    from zero weights."""
    dtype = train_feats.dtype
    probe = DenseLayer(
        w=T.Tensor(np.zeros((train_feats.shape[1], num_classes), dtype=dtype),
                   requires_grad=True),
        b=T.Tensor(np.zeros(num_classes, dtype=dtype), requires_grad=True))
    opt = AdamState(probe.params())
    x = T.Tensor(train_feats, dtype=dtype)
    for _ in range(epochs):
        logits = T.linear_forward(x, probe.w, probe.b)
        loss = T.softmax_cross_entropy(logits, train_labels)
        T.backward(loss)
        adam_step(probe.params(), opt, lr)
    return probe


def probe_predict(probe: DenseLayer, feats):
    x = T.Tensor(feats, dtype=probe.w.dtype)
    return T.linear_forward(x, probe.w, probe.b).data.argmax(axis=1)


def linear_probe_eval(model: ModelParams, train_ds: Dataset, test_ds: Dataset,
                      points_per_cloud: int = 128, source: str = "encoder",
                      probe_epochs: int = 100, seed: int = 0, tags=None):
    """Frozen-feature linear classification evaluation."""
    if train_ds.num_classes != test_ds.num_classes:
        raise ValueError(
            f"class-count mismatch: {train_ds.num_classes} vs {test_ds.num_classes}")
    tr_f, tr_y = extract_features(model, train_ds, points_per_cloud, seed, source)
    te_f, te_y = extract_features(model, test_ds, points_per_cloud, seed + 1, source)
    probe = fit_probe(tr_f, tr_y, train_ds.num_classes, epochs=probe_epochs)
    pred = probe_predict(probe, te_f)
    t = {"protocol": "linear_probe", "features": source}
    t.update(tags or {})
    m = classification_metrics(pred, te_y, test_ds.num_classes, tags=t)
    return m, pred, te_y


# ---------------------------------------------------------------------------
# Pretraining (finetune) evaluation
# ---------------------------------------------------------------------------

def _supervised_forward(model, batch, labels, training, rng):
    g, _ = models.encode(batch, model.encoder, training)
    # classification branch: the head layers with a fresh affine output
    h = models.project(g, model.head, training, rng, normalize=False)
    return T.softmax_cross_entropy(h, labels), h


def pretrain_finetune_eval(checkpoint_path, train_ds: Dataset, test_ds: Dataset,
                           cfg: TrainConfig, finetune_epochs: int = 20,
                           init_head: bool = False, seed: int = 0, tags=None):
    """Initialize a supervised classifier's encoder (and optionally its MLP
    branch) from an unsupervised checkpoint, train it, report test metrics."""
    pretrained, _ = models.load_checkpoint(checkpoint_path)
    rng = np.random.default_rng(seed)
    num_classes = train_ds.num_classes
    sup = models.ModelParams.create(
        rng,
        encoder_widths=pretrained.encoder.widths,
        head_widths=list(pretrained.head.widths[:-1]) + [num_classes],
        dropout_rate=cfg.dropout_rate)
    # copy pretrained encoder weights
    for dst, src in zip(sup.encoder.params(), pretrained.encoder.params()):
        dst.data = src.data.copy()
    for dl, sl in zip(sup.encoder.layers, pretrained.encoder.layers):
        dl.bn.running_mean = sl.bn.running_mean.copy()
        dl.bn.running_var = sl.bn.running_var.copy()
    if init_head:
        # all head layers except the final class-count affine
        for dst_l, src_l in zip(sup.head.layers[:-1], pretrained.head.layers[:-1]):
            dst_l.w.data = src_l.w.data.copy()
            dst_l.b.data = src_l.b.data.copy()
    return _supervised_fit_eval(sup, train_ds, test_ds, cfg, finetune_epochs,
                                rng, tags={"protocol": "finetune",
                                           "head_init": init_head, **(tags or {})})


def supervised_baseline_eval(train_ds, test_ds, cfg: TrainConfig,
                             epochs: int = 20, seed: int = 0, tags=None):
    """Same supervised pipeline from a random initialization."""
    rng = np.random.default_rng(seed)
    sup = models.ModelParams.create(
        rng, encoder_widths=cfg.encoder_widths,
        head_widths=list(cfg.head_widths[:-1]) + [train_ds.num_classes],
        dropout_rate=cfg.dropout_rate)
    return _supervised_fit_eval(sup, train_ds, test_ds, cfg, epochs, rng,
                                tags={"protocol": "supervised_random_init",
                                      **(tags or {})})


def _supervised_fit_eval(sup, train_ds, test_ds, cfg, epochs, rng, tags):
    params = sup.params()
    opt = AdamState(params)
    bs = 2 * cfg.pairs_per_batch
    steps_per_epoch = max(len(train_ds) // bs, 1)
    labels_all = np.array([p.class_label for p in train_ds.samples])
    for epoch in range(epochs):
        for _ in range(steps_per_epoch):
            idx = rng.choice(len(train_ds), size=min(bs, len(train_ds)), replace=False)
            batch = np.stack([sample_points(train_ds[int(i)], cfg.points_per_cloud,
                                            rng).points for i in idx])
            loss, _ = _supervised_forward(sup, batch, labels_all[idx], True, rng)
            T.backward(loss)
            adam_step(params, opt, cfg.lr_init)
    # evaluate
    preds, gts = [], []
    for i in range(0, len(test_ds), bs):
        chunk = test_ds.samples[i:i + bs]
        batch = np.stack([sample_points(p, cfg.points_per_cloud, rng).points
                          for p in chunk])
        y = np.array([p.class_label for p in chunk])
        _, logits = _supervised_forward(sup, batch, y, False, rng)
        preds.append(logits.data.argmax(axis=1))
        gts.append(y)
    return classification_metrics(np.concatenate(preds), np.concatenate(gts),
                                  test_ds.num_classes, tags=tags)


# ---------------------------------------------------------------------------
# Cross-dataset validation
# ---------------------------------------------------------------------------

def cross_validate(unsup_ds: Dataset, probe_train: Dataset, probe_test: Dataset,
                   cfg: TrainConfig, objective: str = "cls"):
    """Pretrain on one dataset, probe on another; metrics carry both names."""
    if len(probe_train) == 0:
        raise ValueError("empty probe training set")
    model, _ = pretrain(unsup_ds, cfg, objective=objective)
    m, _, _ = linear_probe_eval(model, probe_train, probe_test,
                                points_per_cloud=cfg.points_per_cloud,
                                seed=cfg.seed,
                                tags={"unsup_dataset": unsup_ds.split,
                                      "probe_dataset": probe_test.split})
    return m


# ---------------------------------------------------------------------------
# Part segmentation metrics
# ---------------------------------------------------------------------------

def shape_miou(pred, gt, part_ids):
    """Mean IoU over the given part ids for one shape.

    A part absent from both pred and gt counts as IoU 1.0 for the shape.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    ious = []
    for part in part_ids:
        inter = int(((pred == part) & (gt == part)).sum())
        union = int(((pred == part) | (gt == part)).sum())
        ious.append(1.0 if union == 0 else inter / union)
    return float(np.mean(ious))


def segmentation_metrics(preds, gts, classes, parts_per_class, tags=None) -> Metrics:
    """Instance mIoU (mean over shapes) and class mIoU (mean over categories)
    plus overall point accuracy."""
    shape_ious = []
    per_class_ious: dict = {}
    correct = total = 0
    for pred, gt, cls in zip(preds, gts, classes):
        parts = parts_per_class[cls]
        iou = shape_miou(pred, gt, parts)
        shape_ious.append(iou)
        per_class_ious.setdefault(cls, []).append(iou)
        correct += int((np.asarray(pred) == np.asarray(gt)).sum())
        total += len(gt)
    class_miou = float(np.mean([np.mean(v) for v in per_class_ious.values()]))
    return Metrics(overall_accuracy=correct / total,
                   mean_class_accuracy=class_miou,
                   instance_miou=float(np.mean(shape_ious)),
                   class_miou=class_miou,
                   per_class={c: float(np.mean(v)) for c, v in per_class_ious.items()},
                   tags=tags or {})


def extract_point_features(model: ModelParams, ds: Dataset, points_per_cloud,
                           seed=0):
    """Eval-mode per-point embeddings and labels for every sample.

    Every cloud is sampled first, in dataset order, then encoded
    _EVAL_BATCH clouds at a time.
    """
    rng = np.random.default_rng(seed)
    sampled = [sample_points(p, points_per_cloud, rng) for p in ds.samples]
    feats = []
    for i in range(0, len(sampled), _EVAL_BATCH):
        batch = np.stack([q.points for q in sampled[i:i + _EVAL_BATCH]])
        g, pp = models.encode(batch, model.encoder, training=False)
        feats.extend(models.segment_embed(pp, g, model.seg, training=False).data)
    return (feats, [q.point_labels for q in sampled],
            [q.class_label for q in sampled])


def check_segmentation_sets(train_ds: Dataset, test_ds: Dataset) -> None:
    """Raise ValueError unless both sets have point labels over as many parts."""
    for role, ds in (("training", train_ds), ("test", test_ds)):
        if ds.num_parts == 0 or any(p.point_labels is None for p in ds.samples):
            raise ValueError(
                f"segmentation evaluation needs point labels; the {role} set has none")
    if train_ds.num_parts != test_ds.num_parts:
        raise ValueError(
            f"part-count mismatch: {train_ds.num_parts} vs {test_ds.num_parts}")


def segmentation_eval(model: ModelParams, train_ds: Dataset, test_ds: Dataset,
                      points_per_cloud: int = 128, probe_epochs: int = 100,
                      seed: int = 0, tags=None) -> Metrics:
    """Fit a per-point linear probe on frozen point embeddings; report mIoU."""
    check_segmentation_sets(train_ds, test_ds)
    if model.seg is None:
        raise ValueError("model has no segmentation branch")
    tr_f, tr_y, _ = extract_point_features(model, train_ds, points_per_cloud, seed)
    te_f, te_y, te_c = extract_point_features(model, test_ds, points_per_cloud, seed + 1)
    probe = fit_probe(np.concatenate(tr_f), np.concatenate(tr_y),
                      train_ds.num_parts, epochs=probe_epochs)
    preds = [probe_predict(probe, f) for f in te_f]
    ppc = test_ds.parts_per_class or {
        c: list(range(test_ds.num_parts)) for c in set(te_c)}
    return segmentation_metrics(preds, te_y, te_c, ppc,
                                tags={"protocol": "segmentation", **(tags or {})})


# ---------------------------------------------------------------------------
# Transformation ablation harness
# ---------------------------------------------------------------------------

def ablate_transforms(train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig,
                      transform_names) -> list:
    """Pretrain + probe once per transform with a fixed seed; rows sorted by
    overall accuracy, descending."""
    transform_names = list(transform_names)
    if not transform_names:
        raise ValueError("transform list must be non-empty")
    rows = []
    for name in transform_names:
        parse_transform(name)  # validate before the run
        run_cfg = copy.deepcopy(cfg)
        run_cfg.transform = name
        model, _ = pretrain(train_ds, run_cfg, objective="cls")
        m, _, _ = linear_probe_eval(model, train_ds, test_ds,
                                    points_per_cloud=cfg.points_per_cloud,
                                    seed=cfg.seed)
        rows.append({"transform": name,
                     "mean_class_accuracy": m.mean_class_accuracy,
                     "overall_accuracy": m.overall_accuracy})
    rows.sort(key=lambda r: -r["overall_accuracy"])
    return rows


def write_report_csv(rows, path):
    if not rows:
        return
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=keys)
        w.writeheader()
        for r in rows:
            w.writerow(r)


def format_report(rows) -> str:
    """Aligned-text table for terminal output."""
    if not rows:
        return "(empty report)\n"
    keys = list(rows[0].keys())
    cells = [[str(k) for k in keys]]
    for r in rows:
        cells.append([f"{v:.4f}" if isinstance(v, float) else str(v)
                      for v in (r.get(k, "") for k in keys)])
    widths = [max(len(row[i]) for row in cells) for i in range(len(keys))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
