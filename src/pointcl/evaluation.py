"""Evaluation protocols: frozen linear probe, pretraining (finetune)
evaluation, part-segmentation metrics, and the transformation ablation
harness. Cross-dataset validation is pretraining on one set and probing
on another."""

from __future__ import annotations

import copy
import csv
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from . import models, tensor as T
from .models import DenseLayer, ModelParams
from .pointcloud import Dataset, sample_stack
from .training import AdamState, TrainConfig, _pin_heap, adam_step, pretrain
from .transforms import parse_transform, transform_stack

__all__ = [
    "Metrics",
    "PROBE_EPOCHS",
    "PROBE_LR",
    "FINETUNE_EPOCHS",
    "feature_sources",
    "extract_features",
    "fit_probe",
    "linear_probe_eval",
    "instance_retrieval",
    "pretrain_finetune_eval",
    "segmentation_eval",
    "check_segmentation_sets",
    "shape_miou",
    "ablate_transforms",
    "TABLE4_SUITE",
    "TABLE5_SUITE",
]

PROBE_EPOCHS = 100     # full-batch Adam epochs of the linear probe
PROBE_LR = 0.001       # the linear probe's Adam learning rate
FINETUNE_EPOCHS = 20   # epochs of supervised finetuning
_RIDGE = 1e-3          # the per-point probe's ridge penalty λ, per training row

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
    accs = [float((pred[gt == c] == c).mean()) for c in range(num_classes)
            if (gt == c).any()]
    return Metrics(overall_accuracy=overall,
                   mean_class_accuracy=float(np.mean(accs)) if accs else 0.0,
                   tags=tags or {})


# ---------------------------------------------------------------------------
# Feature extraction and the linear probe
# ---------------------------------------------------------------------------

_EVAL_BATCH = 32  # clouds per models.encode call when extracting features


def _check_epochs(kind, epochs):
    if epochs < 0:
        raise ValueError(f"{kind}_epochs must be >= 0, got {epochs}")


def _check_nonempty(*sets: Dataset):
    for ds in sets:
        if len(ds) == 0:
            raise ValueError(f"the {ds.split} set has no clouds")


def _check_classes(train_ds: Dataset, test_ds: Dataset):
    """Raise ValueError unless both sets have clouds over the same class
    count, of at least the 2 classes a classifier needs."""
    _check_nonempty(train_ds, test_ds)
    for ds in (train_ds, test_ds):
        if ds.num_classes < 2:
            raise ValueError(f"the {ds.split} set has a class count of {ds.num_classes}; "
                             "classifying needs at least 2")
    if train_ds.num_classes != test_ds.num_classes:
        raise ValueError(
            f"class-count mismatch: {train_ds.num_classes} vs {test_ds.num_classes}")


def _stack(ds: Dataset, points_per_cloud, seed: int):
    """The clouds of ds by sample_stack under default_rng(seed): (points
    [S, N, 3], point labels [S, N] or None unless every cloud has them)."""
    _check_nonempty(ds)
    return sample_stack(ds.samples, points_per_cloud, np.random.default_rng(seed))


def _class_labels(ds: Dataset):
    return np.array([p.class_label for p in ds.samples])


def _batches(rows, fn):
    """fn's result over _EVAL_BATCH rows at a time, one batch after another,
    as an array of that batch's rows. The last batch is filled up with the
    first rows and only its own rows are kept: every call has one shape, so
    a row's result does not depend on how many rows there are (BLAS rounds
    a product by its row count)."""
    S = len(rows)
    for i in range(0, S, _EVAL_BATCH):
        yield fn(rows[np.arange(i, i + _EVAL_BATCH) % S]).data[:S - i]


def _in_batches(rows, fn):
    """_batches(rows, fn), each batch's result written into one array."""
    S, out = len(rows), None
    for i, f in zip(range(0, S, _EVAL_BATCH), _batches(rows, fn)):
        if out is None:
            out = np.empty((S,) + f.shape[1:], dtype=f.dtype)
        out[i:i + len(f)] = f
    return out


# id(encoder) -> {digest: global features}, for the encoder object's latest
# sets, oldest first; an entry goes with its encoder (weakref.finalize).
_MEMO: dict = {}
_MEMO_SETS = 2  # a protocol asks for its train set, then its test set


def _digest(points, enc):
    """SHA-256 of the stack and of every array an eval-mode encode reads,
    each with its dtype and shape, so an encoder trained or edited in place
    gives another digest. hashlib is imported here, so a process that never
    digests does not load its crypto library."""
    import hashlib

    arrays = [points]
    for l in enc.layers:
        arrays += [l.w.data, l.bn.gamma.data, l.bn.beta.data, l.bn.running_mean,
                   l.bn.running_var]
    h = hashlib.sha256()
    for a in map(np.ascontiguousarray, arrays):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a)
    return h.digest()


def _global_features(model: ModelParams, ds: Dataset, points_per_cloud, seed: int):
    """Eval-mode global features g [S, D_g], read-only, and class labels
    [S] of ds's clouds under seed (see _stack), encoded in _in_batches. The
    encoder object keeps g for its _MEMO_SETS latest sets, keyed by _digest,
    so the feature sources of one set share one encode pass."""
    points, _ = _stack(ds, points_per_cloud, seed)
    enc = model.encoder
    memo = _MEMO.get(id(enc))
    if memo is None:
        memo = _MEMO[id(enc)] = {}
        weakref.finalize(enc, _MEMO.pop, id(enc), None)
    key = _digest(points, enc)
    g = memo.pop(key, None)
    if g is None:
        g = _in_batches(points, lambda b: models.encode(b, enc, training=False)[0])
        g.flags.writeable = False
    memo[key] = g
    if len(memo) > _MEMO_SETS:
        del memo[next(iter(memo))]
    return g, _class_labels(ds)


def feature_sources(name: str) -> list:
    """The feature sources name selects: 'encoder' (the pooled global
    feature), 'head' (the projection-head output) or 'both'."""
    if name == "both":
        return ["encoder", "head"]
    if name not in ("encoder", "head"):
        raise ValueError(f"features must be 'encoder', 'head' or 'both', got {name!r}")
    return [name]


def extract_features(model: ModelParams, ds: Dataset, points_per_cloud: int,
                     seed: int = 0, source: str = "encoder"):
    """Eval-mode features for every sample from one feature source (see
    feature_sources), of the clouds sample_stack gives under seed. Returns
    (features [S, D], labels [S]). The encoder features are the read-only
    array _global_features keeps; the head features project it over the
    same filled batches."""
    if feature_sources(source) != [source]:
        raise ValueError(f"extract_features takes one feature source, got {source!r}")
    g, labels = _global_features(model, ds, points_per_cloud, seed)
    if source == "head":
        g = _in_batches(g, lambda b: models.project(T.Tensor(b), model.head, training=False))
    return g, labels


def _check_finite(blocks):
    """Each block of the probe's feature rows, [rows, D] arrays, passed on as
    it arrives. After the last block it raises FloatingPointError, naming
    the row count and the first bad row over all blocks, if a row held a
    nan or inf."""
    rows, bad, first = 0, 0, 0
    for x in blocks:
        # A nan reaches max and min too, and neither forms a [rows, D] mask.
        if len(x) and not (np.isfinite(x.max()) and np.isfinite(x.min())):
            idx = np.flatnonzero(~np.isfinite(x).all(axis=1))
            first = first if bad else rows + idx[0]
            bad += len(idx)
        rows += len(x)
        yield x
    if bad:
        raise FloatingPointError(
            f"the probe's features are not finite: {bad} of {rows} rows "
            f"hold a nan or inf, the first is row {first}")


def fit_probe(train_feats, train_labels, num_classes,
              epochs=PROBE_EPOCHS) -> tuple[DenseLayer, float, float]:
    """Full-batch Adam fit of a single affine classifier on cached features,
    from zero weights. Returns (probe, loss, accuracy): the last epoch's mean
    cross-entropy, taken before its Adam step, and the returned probe's
    accuracy on the training features; both are nan after zero epochs.
    Shapes, features and labels are checked once, before any epoch; a nan
    or inf feature raises FloatingPointError, as a non-finite gradient
    does. w's rows, then b, are one [D + 1, K] Adam parameter whose grad
    each epoch sets from tensor._SoftmaxCE, linear_cross_entropy's kernel,
    recording nothing on the tape; the probe's w and b, tensors that take no
    gradient, are views of the final array. Features that are not float32
    or float64 are cast to float32, as Tensor casts its data."""
    _check_epochs("probe", epochs)
    x = np.asarray(train_feats)
    if x.dtype not in (np.float32, np.float64):  # as Tensor casts its data
        x = x.astype(np.float32)
    if x.ndim != 2:
        raise T.ShapeError(f"fit_probe: features of shape {x.shape} are not [rows, D]")
    x, = _check_finite([x])  # an empty x is left to the kernel's empty-batch error
    objective = T._SoftmaxCE(x, train_labels, num_classes, "fit_probe")
    wb = T.Tensor(np.zeros((x.shape[1] + 1, num_classes), dtype=x.dtype))
    opt = AdamState([wb])
    loss = None
    for epoch in range(epochs):
        wb.grad, loss = objective.grads(wb.data[:-1], wb.data[-1],
                                        with_loss=epoch == epochs - 1)
        adam_step([wb], opt, PROBE_LR)
    probe = DenseLayer(w=T.Tensor(wb.data[:-1]), b=T.Tensor(wb.data[-1]))
    if loss is None:
        return probe, float("nan"), float("nan")
    return probe, loss, objective.accuracy(probe.w.data, probe.b.data)


def linear_probe_eval(model: ModelParams, train_ds: Dataset, test_ds: Dataset,
                      points_per_cloud: int = TrainConfig.points_per_cloud,
                      source: str = "encoder", probe_epochs: int = PROBE_EPOCHS,
                      seed: int = 0):
    """Frozen-feature linear classification evaluation. The train set's
    clouds are sampled (see sample_stack) under seed, the test set's under
    seed + 1."""
    _check_epochs("probe", probe_epochs)
    _check_classes(train_ds, test_ds)
    tr_f, tr_y = extract_features(model, train_ds, points_per_cloud, seed, source)
    te_f, te_y = extract_features(model, test_ds, points_per_cloud, seed + 1, source)
    probe, loss, acc = fit_probe(tr_f, tr_y, train_ds.num_classes, epochs=probe_epochs)
    logits = T.linear_forward(T.Tensor(te_f, dtype=probe.w.dtype), probe.w, probe.b)
    pred = logits.data.argmax(axis=1)
    t = {"protocol": "linear_probe", "features": source,
         "probe_train_loss": loss, "probe_train_accuracy": acc}
    m = classification_metrics(pred, te_y, test_ds.num_classes, tags=t)
    return m, pred, te_y


def instance_retrieval(model: ModelParams, ds: Dataset, transform: str,
                       points_per_cloud: int = TrainConfig.points_per_cloud,
                       seed: int = 0) -> float:
    """Held-out instance retrieval, after instance discrimination (Wu et al.
    2018): each of ds's clouds, sampled (see sample_stack) under seed, and
    its copy under transform, drawn from default_rng(seed + 1), are embedded
    by the head in eval mode, the originals through extract_features (so a
    probe's encode of the set is reused). Returns the fraction of copies
    whose nearest original by cosine is their own: near 1 for an encoder
    trained on the transform's pairs, near 1/len(ds) for one trained on
    wrong pairs."""
    points, _ = _stack(ds, points_per_cloud, seed)
    copies, _ = transform_stack(points, parse_transform(transform),
                                np.random.default_rng(seed + 1))
    z, _ = extract_features(model, ds, points_per_cloud, seed, source="head")
    zc = _in_batches(copies, lambda b: models.project(
        models.encode(b, model.encoder, training=False)[0], model.head, training=False))
    # the head's rows have unit norm, so a dot product is a cosine
    return float(np.mean((zc @ z.T).argmax(axis=1) == np.arange(len(z))))


# ---------------------------------------------------------------------------
# Pretraining (finetune) evaluation
# ---------------------------------------------------------------------------

def pretrain_finetune_eval(pretrained: ModelParams, train_ds: Dataset, test_ds: Dataset,
                           cfg: TrainConfig, finetune_epochs: int = FINETUNE_EPOCHS,
                           init_head: bool = False):
    """Initialize a supervised classifier's encoder (and optionally its MLP
    branch) from a copy of an unsupervised model, train it, report test
    metrics; pretrained is left unchanged. Training draws from cfg.seed; the
    test set's clouds are sampled (see sample_stack) under cfg.seed + 1, as
    the probes sample theirs."""
    _check_epochs("finetune", finetune_epochs)
    _check_classes(train_ds, test_ds)
    rng = np.random.default_rng(cfg.seed)
    # the head's last layer gives the class logits
    sup = models.ModelParams.create(
        rng, encoder_widths=pretrained.encoder.widths,
        head_widths=pretrained.head.widths[:-1] + [train_ds.num_classes],
        dropout_rate=cfg.dropout_rate)
    sup.encoder = copy.deepcopy(pretrained.encoder)  # weights and batch-norm statistics
    if init_head:  # all head layers but the final class-count affine
        sup.head.layers[:-1] = copy.deepcopy(pretrained.head.layers[:-1])
    return _supervised_fit_eval(sup, train_ds, test_ds, cfg, finetune_epochs,
                                rng, tags={"protocol": "finetune", "head_init": init_head})


def _supervised_fit_eval(sup, train_ds, test_ds, cfg, epochs, rng, tags):
    """Train encoder and head (its unnormalized output is the logits) under
    rng, then classify test_ds sampled under cfg.seed + 1."""
    _pin_heap()
    params = sup.params()
    *hidden, last = sup.head.layers
    opt = AdamState(params)
    bs = 2 * cfg.pairs_per_batch
    labels_all = _class_labels(train_ds)
    for _ in range(epochs * max(len(train_ds) // bs, 1)):
        idx = rng.choice(len(train_ds), size=min(bs, len(train_ds)), replace=False)
        batch, _ = sample_stack([train_ds[int(i)] for i in idx], cfg.points_per_cloud, rng)
        g, _ = models.encode(batch, sup.encoder, training=True)
        h = models._hidden(g, hidden, sup.head.dropout_rate, rng)
        T.backward(T.linear_cross_entropy(h, last.w, last.b, labels_all[idx]))
        del g, h  # frees the step's tape before the update and the next batch
        adam_step(params, opt, cfg.lr_init)
    g, gts = _global_features(sup, test_ds, cfg.points_per_cloud, cfg.seed + 1)
    logits = _in_batches(g, lambda b: models.project(T.Tensor(b), sup.head, False,
                                                     normalize=False))
    return classification_metrics(logits.argmax(axis=1), gts, test_ds.num_classes,
                                  tags=tags)


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
    """Instance mIoU (mean over shapes) and class mIoU (mean over categories),
    plus overall point accuracy and the mean per-part point accuracy (mAcc)
    over all test points."""
    shape_ious = []
    per_class_ious: dict = {}
    for pred, gt, cls in zip(preds, gts, classes):
        iou = shape_miou(pred, gt, parts_per_class[cls])
        shape_ious.append(iou)
        per_class_ious.setdefault(cls, []).append(iou)
    labels = np.concatenate(gts)
    points = classification_metrics(np.concatenate(preds), labels, int(labels.max()) + 1)
    class_miou = float(np.mean([np.mean(v) for v in per_class_ious.values()]))
    return replace(points, instance_miou=float(np.mean(shape_ious)),
                   class_miou=class_miou, tags=tags or {})


def _point_embed(model: ModelParams):
    """The eval-mode per-point embedding of a batch of clouds [B, N, 3]."""
    def embed(batch):
        g, pp = models.encode(batch, model.encoder, training=False)
        return models.segment_embed(pp, g, model.seg, training=False)

    return embed


def extract_point_features(model: ModelParams, ds: Dataset, points_per_cloud,
                           seed=0):
    """Eval-mode per-point embeddings [S, N, D], point labels [S, N] (None
    unless every sample has them) and class labels [S], of the clouds
    sample_stack gives under seed."""
    points, labels = _stack(ds, points_per_cloud, seed)
    return _in_batches(points, _point_embed(model)), labels, _class_labels(ds)


def check_segmentation_sets(train_ds: Dataset, test_ds: Dataset) -> None:
    """Raise ValueError unless both sets have clouds, all with point labels
    over as many parts."""
    _check_nonempty(train_ds, test_ds)
    for role, ds in (("training", train_ds), ("test", test_ds)):
        if ds.num_parts == 0 or any(p.point_labels is None for p in ds.samples):
            raise ValueError(
                f"segmentation evaluation needs point labels; the {role} set has none")
    if train_ds.num_parts != test_ds.num_parts:
        raise ValueError(
            f"part-count mismatch: {train_ds.num_parts} vs {test_ds.num_parts}")


def _moments(blocks, labels, num_classes):
    """Bᵀ B in float64 for B = [1, A, Y]: A the feature rows of blocks,
    [rows, D] arrays taken in order, and Y the one-hot of labels over
    num_classes, one label per row (labels [S, N] for per-point rows). So
    one [1 + D + K]² array holds the row count, the column sums, the class
    counts, AᵀA and AᵀY. Each block is cast to float64 alone, added in and
    dropped, so a stream of blocks (segmentation_eval passes one per encode
    batch) is never held whole, in either precision."""
    y, m, i = labels.reshape(-1), None, 0
    for a in blocks:
        D = a.shape[1]
        if m is None:
            m = np.zeros((1 + D + num_classes,) * 2)
        b = np.empty((len(a), len(m)))
        b[:, 0] = 1.0
        b[:, 1:1 + D] = a
        b[:, 1 + D:] = y[i:i + len(a), None] == np.arange(num_classes)
        m += b.T @ b
        i += len(a)
    return m


def _ridge_fit(m, num_classes):
    """The per-point probe as a ridge least-squares classifier on one-hot
    targets (Rifkin et al. 2003), from the moments m of its training rows
    (_moments). With Z the features standardized by their training mean μ
    and std σ, W [D, K] solves (ZᵀZ + λR·I) W = Zᵀ(Y − ȳ), for R rows and
    λ = _RIDGE; the intercept ȳ, the class frequencies, is not penalized.
    A column whose std is below 1e-6 of its root mean square (a constant
    one, say) takes σ = 1 and its centred column is zero, so its weight is
    0. Returns (W, μ, σ, ȳ, mse), all float64: mse is the fit's training
    mean squared error ‖(Y − ȳ) − ZW‖²/R, summed over the K targets. All
    of it is read off m: nothing passes over the features again."""
    D = len(m) - 1 - num_classes
    R, s = m[0, 0], m[0, 1:]
    c = m[1:, 1:] - np.outer(s, s) / R  # Σ (b − b̄)(b − b̄)ᵀ over [A, Y]
    var = np.diag(c)[:D] / R
    dead = var <= 1e-12 * np.diag(m)[1:1 + D] / R
    idx = np.flatnonzero(dead)
    c[idx] = c[:, idx] = 0.0
    sigma = np.sqrt(np.where(dead, 1.0, var))
    zz = c[:D, :D] / np.outer(sigma, sigma)
    zy = c[:D, D:] / sigma[:, None]
    W = np.linalg.solve(zz + _RIDGE * R * np.eye(D), zy)
    mse = (np.trace(c[D:, D:]) - 2 * np.sum(W * zy) + np.sum(W * (zz @ W))) / R
    return W, s[:D] / R, sigma, s[D:] / R, float(mse)


def _ridge_probe(m, num_classes) -> tuple[DenseLayer, float]:
    """_ridge_fit's classifier with its standardization folded in, the
    float32 layer x @ (W/σ) + (ȳ − μ·W/σ) that segmentation_eval applies to
    the raw features, and the fit's training mse."""
    W, mu, sigma, ybar, mse = _ridge_fit(m, num_classes)
    w = W / sigma[:, None]
    return DenseLayer(w=T.Tensor(w.astype(np.float32)),
                      b=T.Tensor((ybar - mu @ w).astype(np.float32))), mse


def segmentation_eval(model: ModelParams, train_ds: Dataset, test_ds: Dataset,
                      points_per_cloud: int = TrainConfig.points_per_cloud,
                      probe_epochs: int = PROBE_EPOCHS, seed: int = 0) -> Metrics:
    """Fit a per-point linear probe on frozen point embeddings in closed form
    (_ridge_probe); report mIoU and the fit's training mse (probe_train_mse,
    see _ridge_fit). The train set's clouds are sampled (see sample_stack)
    under seed, the test set's under seed + 1. probe_epochs is checked (>=
    0) but not read: the fit has no epochs.

    The train set's embeddings are never held whole: each encode batch of
    _EVAL_BATCH clouds is checked for non-finite rows (_check_finite) and
    summed into the fit's moments (_moments), then dropped. So the train
    side holds one batch, the moments and the sampled clouds; the test set
    is embedded whole by extract_point_features, after the fit."""
    _check_epochs("probe", probe_epochs)
    check_segmentation_sets(train_ds, test_ds)
    if model.seg is None:
        raise ValueError("model has no segmentation branch")
    points, labels = _stack(train_ds, points_per_cloud, seed)
    rows = (f.reshape(-1, f.shape[-1]) for f in _batches(points, _point_embed(model)))
    m = _moments(_check_finite(rows), labels, train_ds.num_parts)
    del points, labels, rows  # not kept beside the test set's features
    probe, mse = _ridge_probe(m, train_ds.num_parts)
    te_f, te_y, te_c = extract_point_features(model, test_ds, points_per_cloud, seed + 1)
    # One predict per cloud: BLAS rounds a [S*N, D] product differently for
    # many feature and part counts, and that can move a tied argmax.
    preds = [T.linear_forward(T.Tensor(f, dtype=probe.w.dtype), probe.w, probe.b)
             .data.argmax(axis=1) for f in te_f]
    ppc = test_ds.parts_per_class or {
        c: list(range(test_ds.num_parts)) for c in set(te_c)}
    return segmentation_metrics(preds, te_y, te_c.tolist(), ppc,
                                tags={"protocol": "segmentation",
                                      "probe_train_mse": mse})


# ---------------------------------------------------------------------------
# Transformation ablation harness
# ---------------------------------------------------------------------------

def ablate_transforms(train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig,
                      transform_names, *, probe_epochs: int = PROBE_EPOCHS) -> list:
    """Pretrain + probe once per transform with a fixed seed; rows sorted by
    overall accuracy, descending."""
    _check_epochs("probe", probe_epochs)
    _check_classes(train_ds, test_ds)
    # every config, and so every transform, is checked before the first run
    configs = [replace(cfg, transform=name) for name in transform_names]
    if not configs:
        raise ValueError("transform list must be non-empty")
    rows = []
    for run_cfg in configs:
        model, _ = pretrain(train_ds, run_cfg, objective="cls")
        m, _, _ = linear_probe_eval(model, train_ds, test_ds,
                                    points_per_cloud=cfg.points_per_cloud,
                                    probe_epochs=probe_epochs, seed=cfg.seed)
        rows.append({"transform": run_cfg.transform,
                     "mean_class_accuracy": m.mean_class_accuracy,
                     "overall_accuracy": m.overall_accuracy})
    rows.sort(key=lambda r: -r["overall_accuracy"])
    return rows


def write_report_csv(rows, path):
    if not rows:
        return
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


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
