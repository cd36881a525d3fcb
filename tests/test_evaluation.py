import copy
import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from pointcl import evaluation, models, tensor as T, training
from pointcl.evaluation import (Metrics, ablate_transforms,
                                classification_metrics, format_report,
                                linear_probe_eval, pretrain_finetune_eval,
                                segmentation_eval, segmentation_metrics, shape_miou)
from pointcl.pointcloud import (Dataset, SyntheticSpec, generate_synthetic_dataset,
                                load_dataset, sample_points, sample_stack,
                                save_dataset)
from pointcl.losses import LossConfig
from pointcl.training import TrainConfig, pretrain

from oracles import (brute_force_iou, finite_difference_grads, max_rel_error, mul,
                     reference_adam_step, reference_cross_entropy, reference_probe_fit,
                     reference_sample_stack, tsum)


def tiny_cfg(**kw):
    defaults = dict(pairs_per_batch=4, epochs=2, points_per_cloud=32,
                    encoder_widths=[8, 16], head_widths=[8, 4],
                    seg_widths=[8, 4], seed=7, dropout_rate=0.0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_classification_metrics_exact():
    m = classification_metrics([0, 1, 1, 0], [0, 1, 0, 0], num_classes=2)
    assert m.overall_accuracy == 0.75
    assert abs(m.mean_class_accuracy - (2 / 3 + 1) / 2) < 1e-12


def test_probe_one_hot_features_perfect():
    feats = np.eye(4, dtype=np.float32)[np.tile(np.arange(4), 10)]
    labels = np.tile(np.arange(4), 10)
    probe, _, _ = evaluation.fit_probe(feats, labels, 4, epochs=200)
    pred = evaluation.probe_predict(probe, feats)
    assert (pred == labels).all()


def test_fit_probe_matches_float64_adam(rng):
    feats = rng.normal(size=(300, 6)).astype(np.float32)
    labels = rng.integers(0, 5, size=300)
    probe, _, _ = evaluation.fit_probe(feats, labels, 5, epochs=5)
    w, b = reference_probe_fit(feats, labels, 5, epochs=5, lr=evaluation.PROBE_LR)
    assert probe.w.dtype == np.float32
    assert np.allclose(probe.w.data, w, rtol=1e-5, atol=1e-6)
    assert np.allclose(probe.b.data, b, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("R, D, K", [(40, 6, 3), (5000, 16, 9)])
def test_fit_probe_steps_w_and_b_as_one_array_with_their_bits(rng, R, D, K):
    """The probe's one [D + 1, K] Adam parameter gives the bits of stepping
    w and b as two: its weights, bias, loss and accuracy are equal to a fit
    that hands the kernel's w and b rows to the reference Adam update as
    two parameters, at a row count below and one above the kernel's row
    block."""
    x = rng.normal(size=(R, D)).astype(np.float32)
    labels = rng.integers(0, K, size=R)
    probe, loss, acc = evaluation.fit_probe(x, labels, K)
    kernel = T._SoftmaxCE(x, labels, K, "fit_probe")
    w, b = T.Tensor(np.zeros((D, K), np.float32)), T.Tensor(np.zeros(K, np.float32))
    opt = training.AdamState([w, b])
    epochs = evaluation.PROBE_EPOCHS
    for epoch in range(epochs):
        g, want_loss = kernel.grads(w.data, b.data, with_loss=epoch == epochs - 1)
        w.grad, b.grad = g[:-1], g[-1]
        reference_adam_step([w, b], opt, evaluation.PROBE_LR)
    assert np.array_equal(probe.w.data, w.data) and np.array_equal(probe.b.data, b.data)
    assert loss == want_loss
    assert acc == kernel.accuracy(w.data, b.data)


@pytest.mark.parametrize("epochs", [1, 7])
def test_fit_probe_reports_last_epoch_loss_and_accuracy(rng, epochs):
    """The reported loss is the float64 cross-entropy at the weights the last
    epoch started from (the probe one epoch shorter), and the accuracy is the
    returned probe's on the training features."""
    feats = rng.normal(size=(90, 6))
    labels = rng.integers(0, 4, size=90)
    probe, loss, acc = evaluation.fit_probe(feats, labels, 4, epochs=epochs)
    before, _, _ = evaluation.fit_probe(feats, labels, 4, epochs=epochs - 1)
    want, _ = reference_cross_entropy(feats @ before.w.data + before.b.data, labels)
    assert abs(loss - want) <= 1e-12 * want
    logits = feats @ probe.w.data + probe.b.data
    assert acc == np.count_nonzero(logits.argmax(axis=1) == labels) / len(labels)


def test_fit_probe_zero_epochs_reports_nan(rng):
    _, loss, acc = evaluation.fit_probe(rng.normal(size=(5, 3)), [0, 1, 0, 1, 1], 2,
                                        epochs=0)
    assert np.isnan(loss) and np.isnan(acc)


def test_probe_protocols_tag_fit_loss_and_accuracy(monkeypatch, seg_dataset):
    """linear_probe_eval reports the loss and accuracy its fit_probe call
    returned. segmentation_eval does not call fit_probe: it reports no
    cross-entropy, and its one tag besides the protocol is the training mse
    its _ridge_probe call returned, which lies below the mse of predicting
    the class frequencies, 1 − Σ ȳ²."""
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)
    fits, probes = [], []
    fit, ridge = evaluation.fit_probe, evaluation._ridge_probe

    def spy(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    def ridge_spy(*args):
        probes.append((ridge(*args), args))
        return probes[-1][0]

    monkeypatch.setattr(evaluation, "fit_probe", spy)
    monkeypatch.setattr(evaluation, "_ridge_probe", ridge_spy)
    m, _, _ = linear_probe_eval(model, seg_dataset, seg_dataset, points_per_cloud=32,
                                probe_epochs=20)
    m_seg = segmentation_eval(model, seg_dataset, seg_dataset, points_per_cloud=32,
                              probe_epochs=20)
    assert len(fits) == 1 and len(probes) == 1
    (_, loss, acc), = fits
    assert m.tags["probe_train_loss"] == loss
    assert m.tags["probe_train_accuracy"] == acc
    assert 0 < loss < np.log(seg_dataset.num_parts) and 0 <= acc <= 1
    ((_, mse), (moments, K)), = probes
    assert m_seg.tags == {"protocol": "segmentation", "probe_train_mse": mse}
    ybar = moments[0, -K:] / moments[0, 0]
    assert 0 < mse < 1 - np.sum(ybar ** 2)


def test_fit_probe_allocates_under_two_logit_arrays(rng):
    """The probe's epoch keeps one class-major [K, R] array: the traced peak
    of a fit stays within two float32 [R, K] arrays. A path that forms the
    row-major logits and their gradient as separate arrays peaks at six."""
    R, K = 20000, 9
    feats = rng.normal(size=(R, 32)).astype(np.float32)
    labels = rng.integers(0, K, size=R)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluation.fit_probe(feats, labels, K, epochs=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * R * K * 4, peak / (R * K * 4)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_, np.float16])
def test_fit_probe_casts_other_features_to_float32(dtype):
    """Features that are not float32 or float64 are cast to float32, as
    Tensor casts its data: the probe's weights, bias, loss and accuracy are
    the bits of a fit on the float32 cast."""
    feats = np.eye(4, dtype=dtype)[[0, 1, 2, 3, 0]]
    labels = [0, 1, 2, 3, 0]
    probe, loss, acc = evaluation.fit_probe(feats, labels, 4, epochs=3)
    want, want_loss, want_acc = evaluation.fit_probe(feats.astype(np.float32), labels, 4,
                                                     epochs=3)
    assert probe.w.dtype == np.float32
    assert np.array_equal(probe.w.data, want.w.data)
    assert np.array_equal(probe.b.data, want.b.data)
    assert (loss, acc) == (want_loss, want_acc)


def test_fit_probe_empty_features():
    with pytest.raises(T.ShapeError, match="empty batch"):
        evaluation.fit_probe(np.zeros((0, 4), np.float32), np.zeros(0, int), 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_probe_rejects_non_finite_features(rng, monkeypatch, bad):
    """Features from a broken encoder are named, with their row count and
    first row, before the first epoch: not reported as a non-finite
    gradient in the probe's weight."""
    feats = rng.normal(size=(40, 6)).astype(np.float32)
    feats[[7, 20], 2] = bad
    monkeypatch.setattr(evaluation, "adam_step", None)  # an epoch would fail on it
    with pytest.raises(FloatingPointError,
                       match=r"^the probe's features are not finite: 2 of 40 "
                             r"rows hold a nan or inf, the first is row 7$"):
        evaluation.fit_probe(feats, rng.integers(0, 3, size=40), 3)


def test_probe_loss_matches_float64_finite_differences(rng):
    """The probe's per-epoch loss and gradients at random float64 weights,
    on features with a saturated row and labels that leave class 4 without
    rows, against the float64 cross-entropy and its central differences.
    Adam's update cancels a constant factor in a gradient, so only this
    check sees a gradient that misses its 1/R or its class-sum term."""
    R, D, K = 30, 5, 5
    x = rng.normal(size=(R, D))
    x[3] *= 30.0  # saturated: its largest softmax entry rounds to 1.0 in float64
    labels = rng.integers(0, K - 1, size=R)
    w, b = T.Tensor(rng.normal(size=(D, K))), T.Tensor(rng.normal(size=K))

    def reference():
        return reference_cross_entropy(x @ w.data + b.data, labels)[0]

    objective = T._SoftmaxCE(x, labels, K, "fit_probe")
    g, loss = objective.grads(w.data, b.data, with_loss=True)
    assert abs(loss - reference()) <= 1e-12 * reference()
    fd = finite_difference_grads(reference, [w, b], h=1e-6)
    assert max_rel_error([g[:-1], g[-1]], fd) < 1e-6


def test_probe_records_nothing_on_the_tape(rng, monkeypatch):
    """The fit and the predict run with the tape's node maker raising: the
    probe's tensors take no gradient, and probe_predict forms x @ w + b
    from the arrays."""
    feats = rng.normal(size=(40, 6)).astype(np.float32)

    def recorded(*args):
        raise AssertionError("a probe call recorded a tape node")

    monkeypatch.setattr(T, "_result", recorded)
    probe, _, _ = evaluation.fit_probe(feats, rng.integers(0, 3, size=40), 3, epochs=5)
    assert not probe.w.requires_grad and not probe.b.requires_grad
    want = (feats @ probe.w.data + probe.b.data).argmax(axis=1)
    assert np.array_equal(evaluation.probe_predict(probe, feats), want)


def test_random_classifier_chance_level(rng):
    # uniform-random predictions over K balanced classes -> 1/K at 3 sigma
    K, n = 4, 20_000
    gt = np.tile(np.arange(K), n // K)
    pred = rng.integers(0, K, size=n)
    m = classification_metrics(pred, gt, K)
    sigma = np.sqrt((1 / K) * (1 - 1 / K) / n)
    assert abs(m.overall_accuracy - 1 / K) < 3 * sigma


def test_linear_probe_improves_over_random(small_dataset):
    cfg = tiny_cfg(epochs=15, pairs_per_batch=8)
    model, _ = pretrain(small_dataset, cfg)
    m, _, _ = linear_probe_eval(model, small_dataset, small_dataset,
                                points_per_cloud=32, probe_epochs=100)
    rand = models.ModelParams.create(np.random.default_rng(1),
                                     encoder_widths=[8, 16], head_widths=[8, 4])
    m0, _, _ = linear_probe_eval(rand, small_dataset, small_dataset,
                                 points_per_cloud=32, probe_epochs=100)
    assert m.overall_accuracy >= m0.overall_accuracy


def test_probe_never_mutates_encoder(small_dataset):
    model, _ = pretrain(small_dataset, tiny_cfg(epochs=1))
    before = [p.data.copy() for p in model.params()]
    linear_probe_eval(model, small_dataset, small_dataset, points_per_cloud=32,
                      probe_epochs=5)
    for a, b in zip(before, model.params()):
        assert (a == b.data).all()


def test_probe_head_source_tagged(small_dataset):
    model, _ = pretrain(small_dataset, tiny_cfg(epochs=1))
    m_enc, _, _ = linear_probe_eval(model, small_dataset, small_dataset,
                                    points_per_cloud=32, probe_epochs=5,
                                    source="encoder")
    m_head, _, _ = linear_probe_eval(model, small_dataset, small_dataset,
                                     points_per_cloud=32, probe_epochs=5,
                                     source="head")
    assert m_enc.tags["features"] == "encoder"
    assert m_head.tags["features"] == "head"


@pytest.mark.parametrize("protocol", ["probe", "finetune", "ablate"])
def test_probe_class_count_mismatch(monkeypatch, small_dataset, seg_dataset, protocol):
    """A 2-class training set and a 4-class test set are an error, raised
    before any checkpoint is read or model pretrained: a classifier over 2
    classes cannot be scored on 4."""
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4])

    def called(*args, **kwargs):
        raise AssertionError("called before the class-count check")

    for module, name in ((models, "load_checkpoint"), (evaluation, "pretrain")):
        monkeypatch.setattr(module, name, called)
    assert (seg_dataset.num_classes, small_dataset.num_classes) == (2, 4)
    with pytest.raises(ValueError, match="^class-count mismatch: 2 vs 4$"):
        if protocol == "probe":
            linear_probe_eval(model, seg_dataset, small_dataset, points_per_cloud=32,
                              probe_epochs=5)
        elif protocol == "finetune":
            pretrain_finetune_eval(model, seg_dataset, small_dataset, tiny_cfg(),
                                   finetune_epochs=1)
        else:
            ablate_transforms(seg_dataset, small_dataset, tiny_cfg(), ["rotate:y:180"])


def test_finetune_samples_its_test_set_at_seed_plus_one(monkeypatch, seg_dataset):
    """The test set's clouds are sampled under default_rng(cfg.seed + 1), as
    the probes sample theirs, not from the rng that finetuning trained with:
    a test cloud of another size is resampled the same way whatever the
    training drew."""
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4])
    odd = sample_points(seg_dataset[0], 40, np.random.default_rng(0))
    test = replace(seg_dataset, samples=[odd] + seg_dataset.samples[1:], split="test")
    states = []

    def spy(clouds, n_out, rng):
        if clouds is test.samples:
            states.append(rng.bit_generator.state)
        return sample_stack(clouds, n_out, rng)

    monkeypatch.setattr(evaluation, "sample_stack", spy)
    cfg = tiny_cfg(seed=3, points_per_cloud=64)
    pretrain_finetune_eval(model, seg_dataset, test, cfg, finetune_epochs=2)
    assert states == [np.random.default_rng(cfg.seed + 1).bit_generator.state]


def test_finetune_head_init_pair(small_dataset):
    cfg = tiny_cfg(epochs=1)
    model, _ = pretrain(small_dataset, cfg)
    m_off = pretrain_finetune_eval(model, small_dataset, small_dataset, cfg,
                                   finetune_epochs=1, init_head=False)
    m_on = pretrain_finetune_eval(model, small_dataset, small_dataset, cfg,
                                  finetune_epochs=1, init_head=True)
    assert m_off.tags["head_init"] is False
    assert m_on.tags["head_init"] is True


def test_finetune_zero_epochs_chance(small_dataset):
    cfg = tiny_cfg(epochs=1)
    model, _ = pretrain(small_dataset, cfg)
    m = pretrain_finetune_eval(model, small_dataset, small_dataset, cfg, finetune_epochs=0)
    assert 0.0 <= m.overall_accuracy <= 0.6  # untrained head, near chance


def test_finetune_step_matches_reference_cross_entropy(small_dataset, monkeypatch):
    """One supervised step of a float64 model with dropout 0.5: its loss and
    parameter gradients equal the float64 oracle's cross-entropy of
    project()'s training-mode logits, chained back through the model. Those
    logits equal a plain numpy forward with the same dropout masks."""
    cfg = tiny_cfg(dropout_rate=0.5)
    sup = models.ModelParams.create(np.random.default_rng(3), encoder_widths=[8, 16],
                                    head_widths=[8, 6, 4], dropout_rate=0.5,
                                    dtype=np.float64)
    params = sup.params()
    seen = {}

    class FirstStep(Exception):
        pass

    def stop(ps, opt, lr):
        seen["grads"] = [p.grad.copy() for p in ps]
        raise FirstStep

    ce = T.linear_cross_entropy
    monkeypatch.setattr(T, "linear_cross_entropy",
                        lambda *a: seen.setdefault("loss", ce(*a)))
    monkeypatch.setattr(evaluation, "adam_step", stop)
    with pytest.raises(FirstStep):
        evaluation._supervised_fit_eval(sup, small_dataset, small_dataset, cfg, 1,
                                        np.random.default_rng(5), tags={})

    # Replay the step's draws: the batch, its points, then the dropout masks.
    rng = np.random.default_rng(5)
    idx = rng.choice(len(small_dataset), size=2 * cfg.pairs_per_batch, replace=False)
    clouds = [small_dataset[int(i)] for i in idx]
    batch, _ = sample_stack(clouds, cfg.points_per_cloud, rng)
    mask_rng = copy.deepcopy(rng)
    for p in params:
        p.grad = None
    g, _ = models.encode(batch, sup.encoder, training=True)
    logits = models.project(g, sup.head, True, rng, normalize=False)
    loss, dlogits = reference_cross_entropy(logits.data, [c.class_label for c in clouds])
    T.backward(tsum(mul(logits, T.Tensor(dlogits))))
    assert np.isclose(seen["loss"].item(), loss, rtol=1e-12)
    for got, p in zip(seen["grads"], params):
        np.testing.assert_allclose(got, p.grad, rtol=1e-9, atol=1e-12)

    *hidden, last = sup.head.layers
    h = g.data
    for layer in hidden:
        keep = T.dropout(T.Tensor(np.ones((len(h), layer.w.shape[1]))), 0.5,
                         mask_rng).data  # 0 or 1 / (1 - rate)
        h = np.maximum(h @ layer.w.data + layer.b.data, 0) * keep
    np.testing.assert_allclose(logits.data, h @ last.w.data + last.b.data, rtol=1e-12)


def test_linear_probe_eval_empty_set(small_dataset):
    """An empty training or test set is an error that names its split."""
    model = models.ModelParams.create(np.random.default_rng(0), encoder_widths=[8, 16],
                                      head_widths=[8, 4])
    empty = Dataset(samples=[], split="probe", num_classes=small_dataset.num_classes)
    for train, test in ((empty, small_dataset), (small_dataset, empty)):
        with pytest.raises(ValueError, match="the probe set has no clouds"):
            linear_probe_eval(model, train, test, points_per_cloud=32, probe_epochs=5)


@pytest.mark.parametrize("protocol", ["probe", "segmentation"])
@pytest.mark.parametrize("empty_first", [True, False], ids=["train", "test"])
def test_protocols_report_a_bare_empty_set(seg_dataset, protocol, empty_first):
    """A bare Dataset([]) has no clouds, classes or parts; it is reported as
    empty, not as a class-count mismatch or a set without point labels."""
    model = models.ModelParams.create(np.random.default_rng(0), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)
    sets = (Dataset([]), seg_dataset) if empty_first else (seg_dataset, Dataset([]))
    run = linear_probe_eval if protocol == "probe" else segmentation_eval
    with pytest.raises(ValueError, match="^the train set has no clouds$"):
        run(model, *sets, points_per_cloud=32, probe_epochs=5)


@pytest.mark.parametrize("protocol", ["probe", "segmentation", "finetune"])
def test_protocols_reject_negative_epochs(monkeypatch, seg_dataset, protocol):
    """A negative epoch count is an error that names it, not an untrained
    probe or classifier reported as a result. It is raised before any
    checkpoint is read or any cloud sampled or encoded."""
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)

    def called(*args, **kwargs):
        raise AssertionError("called before the epoch check")

    for module, name in ((models, "encode"), (models, "load_checkpoint"),
                         (evaluation, "sample_stack")):
        monkeypatch.setattr(module, name, called)
    with pytest.raises(ValueError, match="epochs must be >= 0, got -3"):
        if protocol == "probe":
            linear_probe_eval(model, seg_dataset, seg_dataset, points_per_cloud=32,
                              probe_epochs=-3)
        elif protocol == "segmentation":
            segmentation_eval(model, seg_dataset, seg_dataset, points_per_cloud=32,
                              probe_epochs=-3)
        else:
            pretrain_finetune_eval(model, seg_dataset, seg_dataset, tiny_cfg(),
                                   finetune_epochs=-3)


@pytest.mark.parametrize("protocol", ["probe", "finetune", "ablate"])
@pytest.mark.parametrize("few", [0, 1])
def test_classifying_protocols_need_two_classes(monkeypatch, small_dataset, protocol, few):
    """A set that declares fewer than 2 classes is an error that names its
    split and count, raised before any checkpoint is read, cloud encoded or
    model pretrained."""
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4])

    def called(*args, **kwargs):
        raise AssertionError("called before the class-count check")

    for module, name in ((models, "encode"), (models, "load_checkpoint"),
                         (evaluation, "pretrain")):
        monkeypatch.setattr(module, name, called)
    test = replace(small_dataset, split="test", num_classes=few)
    with pytest.raises(ValueError, match=f"^the test set has a class count of {few};"):
        if protocol == "probe":
            linear_probe_eval(model, small_dataset, test, points_per_cloud=32,
                              probe_epochs=5)
        elif protocol == "finetune":
            pretrain_finetune_eval(model, small_dataset, test, tiny_cfg(),
                                   finetune_epochs=1)
        else:
            ablate_transforms(small_dataset, test, tiny_cfg(), ["rotate:y:180"])


def test_shape_miou_perfect():
    assert shape_miou([0, 1, 2], [0, 1, 2], [0, 1, 2]) == 1.0


def test_shape_miou_hand_case():
    # IoU0 = 1/2, IoU1 = 2/3, mean = 7/12
    assert abs(shape_miou([0, 0, 1, 1], [0, 1, 1, 1], [0, 1]) - 7 / 12) < 1e-12


def test_shape_miou_absent_part_counts_one():
    assert shape_miou([0, 0], [0, 0], [0, 1]) == 1.0


def test_miou_matches_brute_force(rng):
    for _ in range(200):
        n = int(rng.integers(2, 12))
        parts = list(range(int(rng.integers(1, 5))))
        pred = rng.integers(0, len(parts) + 1, size=n)
        gt = rng.integers(0, len(parts) + 1, size=n)
        assert abs(shape_miou(pred, gt, parts)
                   - brute_force_iou(pred, gt, parts)) < 1e-9


def test_segmentation_metrics_aggregation():
    preds = [np.array([0, 0, 1, 1]), np.array([2, 2, 2, 2])]
    gts = [np.array([0, 1, 1, 1]), np.array([2, 2, 2, 3])]
    m = segmentation_metrics(preds, gts, classes=[0, 1],
                             parts_per_class={0: [0, 1], 1: [2, 3]})
    expected_0 = 7 / 12
    expected_1 = (3 / 4 + 0.0) / 2
    assert abs(m.instance_miou - (expected_0 + expected_1) / 2) < 1e-12
    assert abs(m.class_miou - (expected_0 + expected_1) / 2) < 1e-12  # 0.479
    assert m.overall_accuracy == 6 / 8
    # mAcc: each part's point accuracy over all shapes, then their mean
    assert abs(m.mean_class_accuracy - (1 + 2 / 3 + 1 + 0) / 4) < 1e-12


def test_segmentation_eval_runs(seg_dataset):
    model, _ = pretrain(seg_dataset, tiny_cfg(epochs=1, pairs_per_batch=2),
                        objective="seg")
    m = segmentation_eval(model, seg_dataset, seg_dataset,
                          points_per_cloud=32, probe_epochs=20)
    assert m.instance_miou is not None
    assert 0.0 <= m.instance_miou <= 1.0


def test_point_features_batched_match_per_cloud_loop():
    """40 clouds: one full batch of encode calls and one partial."""
    spec = SyntheticSpec(classes=["cylinder", "cube"], per_class=20,
                         points_per_cloud=48, with_parts=True)
    ds = generate_synthetic_dataset(spec, np.random.default_rng(4))
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4],
                                      with_seg=True)
    feats, labels, classes = evaluation.extract_point_features(model, ds, 32, seed=9)
    rng = np.random.default_rng(9)
    assert len(feats) == len(ds)
    assert (feats.shape, labels.shape, classes.shape) == ((40, 32, 4), (40, 32), (40,))
    for p, f, y, c in zip(ds.samples, feats, labels, classes):
        q = sample_points(p, 32, rng)
        g, pp = models.encode(q.points[None], model.encoder, training=False)
        z = models.segment_embed(pp, g, model.seg, training=False).data[0]
        assert f.shape == z.shape
        assert np.allclose(f, z, rtol=0, atol=1e-6)
        assert np.array_equal(y, q.point_labels)
        assert c == q.class_label


@pytest.mark.parametrize("protocol", ["probe", "segmentation", "supervised"])
def test_evaluation_equals_per_cloud_sampler(monkeypatch, seg_dataset, protocol):
    """Each protocol gives the metrics (and probe predictions) it gave when
    every cloud was resampled on its own and stacked. The supervised case
    finetunes from the model."""
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)

    def run():
        if protocol == "probe":
            m, pred, gt = linear_probe_eval(model, seg_dataset, seg_dataset,
                                            points_per_cloud=32, probe_epochs=20, seed=2)
            return m, pred.tolist(), gt.tolist()
        if protocol == "segmentation":
            return segmentation_eval(model, seg_dataset, seg_dataset,
                                     points_per_cloud=32, probe_epochs=20, seed=2)
        return pretrain_finetune_eval(model, seg_dataset, seg_dataset,
                                      tiny_cfg(seed=3), finetune_epochs=2)

    stacked = run()
    monkeypatch.setattr(evaluation, "sample_stack", reference_sample_stack)
    assert run() == stacked


def _eval_batches(model, points, embed):
    """embed(global, per_point) of an eval-mode encode over each
    _EVAL_BATCH chunk of points, the last filled up with the first clouds
    and cut back to its own rows, concatenated: _features' encode."""
    S, out = len(points), []
    for i in range(0, S, evaluation._EVAL_BATCH):
        g, pp = models.encode(points[np.arange(i, i + evaluation._EVAL_BATCH) % S],
                              model.encoder, training=False)
        out.append(embed(g, pp).data[:S - i])
    return np.concatenate(out)


def test_protocols_read_equal_size_clouds_as_stored(monkeypatch, seg_dataset):
    """Every cloud has points_per_cloud points: no protocol draws from the
    rng it samples the clouds under."""
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)
    calls = []

    def no_draw(clouds, n_out, rng):
        before = rng.bit_generator.state
        out = sample_stack(clouds, n_out, rng)
        assert rng.bit_generator.state == before, "a draw on equal-size clouds"
        calls.append(len(clouds))
        return out

    monkeypatch.setattr(evaluation, "sample_stack", no_draw)
    assert {p.n for p in seg_dataset.samples} == {64}
    linear_probe_eval(model, seg_dataset, seg_dataset, points_per_cloud=64, probe_epochs=5,
                      source="head")
    segmentation_eval(model, seg_dataset, seg_dataset, points_per_cloud=64, probe_epochs=5)
    feats, labels = evaluation.extract_features(model, seg_dataset, 64, seed=3)
    assert calls == [len(seg_dataset)] * 5
    assert feats.shape == (len(seg_dataset), 16)
    assert labels.tolist() == [p.class_label for p in seg_dataset.samples]


@pytest.mark.parametrize("widths", [[32, 64, 128], [64, 64, 64, 128, 1024]],
                         ids=["desk", "full"])
def test_stored_clouds_give_the_sampled_features(widths):
    """40 clouds of 64 points, one full encode batch and one partial. The
    encoder max-pools over points, so the stored clouds give the encoder
    and head features of the same clouds with their points permuted, bit
    for bit. The per-point embeddings follow the stored point order: each
    cloud's equals a one-cloud encode of the stored cloud, within the
    float32 rounding that BLAS gives a different row count."""
    spec = SyntheticSpec(classes=["cylinder", "cube"], per_class=20, points_per_cloud=64,
                         with_parts=True)
    ds = generate_synthetic_dataset(spec, np.random.default_rng(4))
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=widths,
                                      head_widths=[32, 16], seg_widths=[16, 8],
                                      with_seg=True)
    perm = np.random.default_rng(9)
    permuted = np.stack([p.points[perm.permutation(64)] for p in ds.samples])
    for source in ("encoder", "head"):
        feats, labels = evaluation.extract_features(model, ds, 64, seed=9, source=source)
        want = _eval_batches(model, permuted, lambda g, pp: (
            models.project(g, model.head, training=False) if source == "head" else g))
        assert feats.dtype == want.dtype == np.float32
        assert np.array_equal(feats, want)
        assert labels.tolist() == [p.class_label for p in ds.samples]
    feats, labels, classes = evaluation.extract_point_features(model, ds, 64, seed=9)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, np.stack([p.point_labels for p in ds.samples]))
    assert classes.tolist() == [p.class_label for p in ds.samples]
    for p, f in zip(ds.samples, feats):
        g, pp = models.encode(p.points[None], model.encoder, training=False)
        z = models.segment_embed(pp, g, model.seg, training=False).data[0]
        assert np.allclose(f, z, rtol=0, atol=1e-6)


def test_one_cloud_of_another_size_resamples_only_that_cloud(seg_dataset):
    """One 50-point cloud among 64-point ones, evaluated at 64 points: only
    that cloud is resampled, by the draws default_rng(seed) gives it first.
    The other clouds' features are those of the same set without it."""
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)
    odd = seg_dataset[3]
    odd = replace(odd, points=odd.points[:50], point_labels=odd.point_labels[:50])
    rest = seg_dataset.samples[:3] + seg_dataset.samples[4:]
    ds = replace(seg_dataset, samples=rest[:3] + [odd] + rest[3:])
    without = replace(seg_dataset, samples=rest)
    idx = np.random.default_rng(11).choice(50, size=64, replace=True)

    def seg(g, pp):
        return models.segment_embed(pp, g, model.seg, training=False)

    feats, _ = evaluation.extract_features(model, ds, 64, seed=11)
    point_feats, point_labels, _ = evaluation.extract_point_features(model, ds, 64, seed=11)
    points = np.stack([p.points for p in rest[:3]] + [odd.points[idx]]
                      + [p.points for p in rest[3:]])
    assert np.array_equal(feats, _eval_batches(model, points, lambda g, pp: g))
    assert np.array_equal(point_feats, _eval_batches(model, points, seg))
    assert np.array_equal(point_labels[3], odd.point_labels[idx])
    others = [i for i in range(len(ds)) if i != 3]
    want, _ = evaluation.extract_features(model, without, 64, seed=11)
    assert np.array_equal(feats[others], want)
    want, want_labels, _ = evaluation.extract_point_features(model, without, 64, seed=11)
    assert np.array_equal(point_feats[others], want)
    assert np.array_equal(point_labels[others], want_labels)


@pytest.mark.parametrize("widths", [[32, 64, 128], [64, 64, 64, 128, 1024]],
                         ids=["desk", "full"])
def test_features_do_not_depend_on_the_set_size(widths):
    """Cloud 32 alone in its encode call (a 33-cloud set), beside 7 others
    (40) and beside 31 (64): the same encoder, head and per-point features.
    A 3-cloud set gives the first 3 rows of a 35-cloud set."""
    spec = SyntheticSpec(classes=["cylinder", "cube"], per_class=32, points_per_cloud=64,
                         with_parts=True)
    ds = generate_synthetic_dataset(spec, np.random.default_rng(4))
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=widths,
                                      head_widths=[32, 16], seg_widths=[16, 8],
                                      with_seg=True)

    def features(size):
        sub = replace(ds, samples=ds.samples[:size])
        return [evaluation.extract_features(model, sub, 64, source=s)[0]
                for s in ("encoder", "head")] + [
                    evaluation.extract_point_features(model, sub, 64)[0]]

    ref = features(33)
    for size in (40, 64):
        for got, want in zip(features(size), ref):
            assert np.array_equal(got[32], want[32])
    for got, want in zip(features(3), features(35)):
        assert np.array_equal(got, want[:3])


def _count_encodes(monkeypatch):
    """A list that grows by one per models.encode call from now on."""
    calls, encode = [], models.encode

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return encode(*args, **kwargs)

    monkeypatch.setattr(models, "encode", spy)
    return calls


def _forty_clouds():
    spec = SyntheticSpec(classes=["cylinder", "cube"], per_class=20, points_per_cloud=64,
                         with_parts=True)
    return generate_synthetic_dataset(spec, np.random.default_rng(4))


@pytest.mark.parametrize("widths", [[32, 64, 128], [64, 64, 64, 128, 1024]],
                         ids=["desk", "full"])
def test_feature_sources_share_one_encode_pass(monkeypatch, widths):
    """The encoder and head features of one set come from one encode pass
    (40 clouds: 2 calls), and equal a cold call's bit for bit; a cold call
    is one on a copy of the model, which shares no stored features. The
    encoder features are read-only."""
    ds = _forty_clouds()
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=widths,
                                      head_widths=[32, 16])
    calls = _count_encodes(monkeypatch)
    got = {s: evaluation.extract_features(model, ds, 64, seed=9, source=s)[0]
           for s in ("encoder", "head")}
    again, _ = evaluation.extract_features(model, ds, 64, seed=9)
    assert calls == [evaluation._EVAL_BATCH] * 2
    assert again is got["encoder"]
    assert not again.flags.writeable
    for source, feats in got.items():
        cold, _ = evaluation.extract_features(copy.deepcopy(model), ds, 64, seed=9,
                                              source=source)
        assert feats.dtype == cold.dtype == np.float32
        assert np.array_equal(feats, cold)


@pytest.mark.parametrize("edit", ["running_var", "weight"])
def test_an_encoder_edited_in_place_is_encoded_again(monkeypatch, edit):
    """One running-variance entry or one weight set in place after a call:
    the next call encodes again and gives a cold call's features."""
    ds = _forty_clouds()
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[32, 64, 128],
                                      head_widths=[32, 16])
    before, _ = evaluation.extract_features(model, ds, 64, seed=9)
    layer = model.encoder.layers[1]
    if edit == "running_var":
        layer.bn.running_var[3] = 4.0
    else:
        layer.w.data[2, 5] = 0.5
    calls = _count_encodes(monkeypatch)
    after, _ = evaluation.extract_features(model, ds, 64, seed=9)
    assert len(calls) == 2
    cold, _ = evaluation.extract_features(copy.deepcopy(model), ds, 64, seed=9)
    assert np.array_equal(after, cold)
    assert not np.array_equal(after, before)


def test_stored_features_go_with_the_model(monkeypatch):
    """An encoder keeps the features of its two latest sets only, and none
    once the model is gone."""
    ds = _forty_clouds()
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4])
    key = id(model.encoder)
    for seed in (1, 2, 3):
        evaluation.extract_features(model, ds, 50, seed=seed)
    assert len(evaluation._MEMO[key]) == 2
    calls = _count_encodes(monkeypatch)
    evaluation.extract_features(model, ds, 50, seed=3)
    assert calls == []
    evaluation.extract_features(model, ds, 50, seed=1)
    assert len(calls) == 2
    del model
    gc.collect()
    assert key not in evaluation._MEMO


def test_point_features_never_read_the_stored_features(monkeypatch):
    """extract_point_features encodes its set on every call and neither
    reads nor fills what extract_features stores."""
    ds = _forty_clouds()
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)

    def called(*args, **kwargs):
        raise AssertionError("the per-point path read the stored features")

    calls = _count_encodes(monkeypatch)
    for name in ("_global_features", "_digest"):
        monkeypatch.setattr(evaluation, name, called)
    first = evaluation.extract_point_features(model, ds, 64, seed=9)[0]
    second = evaluation.extract_point_features(model, ds, 64, seed=9)[0]
    assert len(calls) == 4
    assert np.array_equal(first, second)
    assert id(model.encoder) not in evaluation._MEMO


def test_segmentation_eval_frees_train_features_before_the_test_set(monkeypatch):
    """segmentation_eval fits its probe on the train set's per-point
    features, one encode batch at a time (40 clouds: 2 batches), then drops
    them, the sampled clouds and their point labels: a weakref to each
    batch's features, to the clouds and to the labels is dead when the test
    set's extract_point_features call starts, the only such call."""
    ds = _forty_clouds()
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)
    stack, embed = evaluation._stack, models.segment_embed
    extract, refs, alive = evaluation.extract_point_features, [], []

    def tracked_stack(*args, **kwargs):
        out = stack(*args, **kwargs)
        if not alive:  # the training set's clouds and labels
            refs.extend(weakref.ref(a) for a in out)
        return out

    def tracked_embed(*args, **kwargs):
        out = embed(*args, **kwargs)
        if not alive:  # a training batch's features
            refs.append(weakref.ref(out.data))
        return out

    def tracked_extract(*args, **kwargs):
        alive.append([r() is not None for r in refs])
        return extract(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_stack", tracked_stack)
    monkeypatch.setattr(models, "segment_embed", tracked_embed)
    monkeypatch.setattr(evaluation, "extract_point_features", tracked_extract)
    segmentation_eval(model, ds, ds, points_per_cloud=32, probe_epochs=5)
    assert alive == [[False] * 4]


def test_finetune_leaves_the_model_unchanged(small_dataset):
    """Finetuning trains copies of the pretrained encoder and head layers:
    the model passed in keeps every array, batch-norm statistics included."""
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4])
    arrays = [p.data for p in model.params()] + [
        a for l in model.encoder.layers for a in (l.bn.running_mean, l.bn.running_var)]
    kept = [a.copy() for a in arrays]
    pretrain_finetune_eval(model, small_dataset, small_dataset, tiny_cfg(),
                           finetune_epochs=1, init_head=True)
    after = [p.data for p in model.params()] + [
        a for l in model.encoder.layers for a in (l.bn.running_mean, l.bn.running_var)]
    assert all(np.array_equal(a, b) for a, b in zip(after, kept))


def test_segmentation_eval_needs_labels(small_dataset, seg_dataset):
    model, _ = pretrain(seg_dataset, tiny_cfg(epochs=1, pairs_per_batch=2),
                        objective="seg")
    with pytest.raises(ValueError):
        segmentation_eval(model, small_dataset, small_dataset)


def test_segmentation_eval_checks_test_set(small_dataset, seg_dataset):
    model = models.ModelParams.create(np.random.default_rng(0), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)
    with pytest.raises(ValueError, match="the test set has none"):
        segmentation_eval(model, seg_dataset, small_dataset)
    spec = SyntheticSpec(classes=["cylinder", "cube", "sphere"], per_class=2,
                         points_per_cloud=32, with_parts=True)
    test = generate_synthetic_dataset(spec, np.random.default_rng(2))
    assert (seg_dataset.num_parts, test.num_parts) == (5, 7)
    with pytest.raises(ValueError, match="part-count mismatch: 5 vs 7"):
        segmentation_eval(model, seg_dataset, test)


def test_ablate_single_entry(small_dataset):
    rows = ablate_transforms(small_dataset, small_dataset,
                             tiny_cfg(epochs=1), ["rotate:y:180"])
    assert len(rows) == 1
    assert set(rows[0]) == {"transform", "mean_class_accuracy", "overall_accuracy"}


def test_ablate_sorted_by_overall(small_dataset):
    rows = ablate_transforms(small_dataset, small_dataset, tiny_cfg(epochs=1),
                             ["rotate:y:180", "jitter", "scale"])
    accs = [r["overall_accuracy"] for r in rows]
    assert accs == sorted(accs, reverse=True)


def test_ablate_identity_pretrains_without_scaling(small_dataset, monkeypatch):
    seen = []

    def spy(ds, cfg, **kw):
        seen.append(cfg.transform_spec)
        return pretrain(ds, cfg, **kw)

    monkeypatch.setattr(evaluation, "pretrain", spy)
    rows = ablate_transforms(small_dataset, small_dataset, tiny_cfg(epochs=1),
                             ["identity"])
    assert [r["transform"] for r in rows] == ["identity"]
    assert [(s.kind, s.scale_range) for s in seen] == [("scale", (1.0, 1.0))]


def test_ablate_checks_every_name_before_pretraining(small_dataset, monkeypatch):
    """A bad name later in the list fails before the first, costly run."""
    calls = []
    monkeypatch.setattr(evaluation, "pretrain", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="bogus"):
        ablate_transforms(small_dataset, small_dataset, tiny_cfg(), ["rotate:y:180", "bogus"])
    assert calls == []


def test_ablate_empty_list_rejected(small_dataset):
    with pytest.raises(ValueError):
        ablate_transforms(small_dataset, small_dataset, tiny_cfg(), [])


def test_metrics_recompute_from_predictions(small_dataset):
    model, _ = pretrain(small_dataset, tiny_cfg(epochs=1))
    m, pred, gt = linear_probe_eval(model, small_dataset, small_dataset,
                                    points_per_cloud=32, probe_epochs=5)
    again = classification_metrics(pred, gt, small_dataset.num_classes)
    assert again.overall_accuracy == m.overall_accuracy
    assert again.mean_class_accuracy == m.mean_class_accuracy


def test_format_report_aligned():
    text = format_report([{"name": "a", "overall_accuracy": 0.5}])
    lines = text.splitlines()
    assert len(lines) == 3
    assert "overall_accuracy" in lines[0]


def test_segmentation_eval_same_on_data_read_back(tmp_path, seg_dataset):
    model, _ = pretrain(seg_dataset, tiny_cfg(epochs=1, pairs_per_batch=2),
                        objective="seg")
    save_dataset(seg_dataset, tmp_path / "seg.pcds")
    back = load_dataset(tmp_path / "seg.pcds")
    runs = [segmentation_eval(model, ds, ds, points_per_cloud=32, probe_epochs=20)
            for ds in (seg_dataset, back, replace(back, parts_per_class=None))]
    assert runs[1].instance_miou == runs[0].instance_miou
    assert runs[1].class_miou == runs[0].class_miou
    # without the map, parts a shape cannot have count as IoU 1
    assert runs[2].instance_miou > runs[0].instance_miou


# ---------------------------------------------------------------------------
# The per-point probe's ridge fit and the instance retrieval check
# ---------------------------------------------------------------------------

def _held_moments(feats, labels, K):
    """_moments of a held feature array [S, N, D], in the blocks of
    _EVAL_BATCH clouds that segmentation_eval streams."""
    blocks = np.split(feats, range(evaluation._EVAL_BATCH, len(feats), evaluation._EVAL_BATCH))
    return evaluation._moments([f.reshape(-1, f.shape[-1]) for f in blocks], labels, K)


def _point_rows(rng, S=40, N=16, D=6, K=4):
    """Per-point features [S, N, D] (more clouds than one _EVAL_BATCH block)
    over shifted, scaled columns, and labels [S, N] that leave class K - 1
    without points."""
    feats = (rng.normal(size=(S, N, D)) * rng.uniform(0.5, 3, size=D)
             + rng.normal(size=D)).astype(np.float32)
    return feats, rng.integers(0, K - 1, size=(S, N)), K


def test_blocked_moments_equal_concatenated_float64(rng):
    feats, labels, K = _point_rows(rng)
    D = feats.shape[-1]
    a = feats.reshape(-1, D).astype(np.float64)
    b = np.hstack([np.ones((len(a), 1)), a, np.eye(K)[labels.reshape(-1)]])
    m = _held_moments(feats, labels, K)
    assert m.dtype == np.float64 and m.shape == (1 + D + K,) * 2
    assert np.allclose(m, b.T @ b, rtol=1e-13, atol=0)
    assert m[0, 0] == len(a)  # the row count and the class counts are exact
    assert m[0, 1 + D:].tolist() == np.bincount(labels.reshape(-1), minlength=K).tolist()


def test_ridge_weights_equal_augmented_lstsq(rng):
    """W equals np.linalg.lstsq on [Z; √(λR)·I] W = [Y − ȳ; 0] in float64,
    for Z the features standardized by their float64 mean and std: the
    normal equations of that system are (ZᵀZ + λR·I) W = Zᵀ(Y − ȳ)."""
    feats, labels, K = _point_rows(rng)
    a = feats.reshape(-1, feats.shape[-1]).astype(np.float64)
    R, D = a.shape
    y = np.eye(K)[labels.reshape(-1)]
    z = (a - a.mean(axis=0)) / a.std(axis=0)
    want = np.linalg.lstsq(np.vstack([z, np.sqrt(evaluation._RIDGE * R) * np.eye(D)]),
                           np.vstack([y - y.mean(axis=0), np.zeros((D, K))]),
                           rcond=None)[0]
    W, mu, sigma, ybar, _ = evaluation._ridge_fit(_held_moments(feats, labels, K), K)
    assert np.allclose(W, want, rtol=1e-9, atol=1e-12)
    assert np.allclose(mu, a.mean(axis=0), rtol=1e-12)
    assert np.allclose(sigma, a.std(axis=0), rtol=1e-10)
    assert np.array_equal(ybar, y.mean(axis=0))
    assert not W[:, -1].any()  # no point has class K - 1


def test_folded_probe_logits_equal_standardized_model(rng):
    """The float32 probe applies the fit's standardization folded in: its
    logits on the raw features are ((x − μ)/σ) W + ȳ, to float32 rounding,
    and its predictions are probe_predict's argmax of them."""
    feats, labels, K = _point_rows(rng)
    m = _held_moments(feats, labels, K)
    probe, _ = evaluation._ridge_probe(m, K)
    W, mu, sigma, ybar, _ = evaluation._ridge_fit(m, K)
    x = feats.reshape(-1, feats.shape[-1])
    want = (x.astype(np.float64) - mu) / sigma @ W + ybar
    got = x @ probe.w.data + probe.b.data
    assert probe.w.dtype == probe.b.dtype == np.float32
    assert not probe.w.requires_grad and not probe.b.requires_grad
    assert np.allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())
    assert np.array_equal(evaluation.probe_predict(probe, x), got.argmax(axis=1))


def test_constant_feature_columns_get_zero_weight(rng):
    """A constant column and an all-zero one (a dead channel) take σ = 1:
    their centred columns are zero, so their weights are 0, with no
    divide or invalid operation on the way. The live columns get the fit
    they get without them."""
    feats, labels, K = _point_rows(rng)
    dead = np.concatenate([feats, np.full(feats.shape[:2] + (1,), 3.7, np.float32),
                           np.zeros(feats.shape[:2] + (1,), np.float32)], axis=2)
    m = _held_moments(dead, labels, K)
    with np.errstate(divide="raise", invalid="raise"):
        W, _, sigma, _, _ = evaluation._ridge_fit(m, K)
        probe, _ = evaluation._ridge_probe(m, K)
    live, _, _, _, _ = evaluation._ridge_fit(_held_moments(feats, labels, K), K)
    assert sigma[-2:].tolist() == [1.0, 1.0]
    assert not W[-2:].any() and not probe.w.data[-2:].any()
    assert np.allclose(W[:-2], live, rtol=1e-9, atol=1e-12)


def _reject_non_finite(monkeypatch, bad, count):
    """segmentation_eval on 40 clouds of 32 points, so 2 streamed batches,
    with a nan at each (batch, cloud, point) of bad in the batch's
    segment_embed output, raises the probe's non-finite error naming count
    bad rows of 1280 and row 35 as the first, before the fit and before the
    test set is embedded."""
    ds = _forty_clouds()
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 4], with_seg=True)
    embed, calls = models.segment_embed, []

    def broken(*args, **kwargs):
        out = embed(*args, **kwargs)
        for batch, cloud, point in bad:
            if batch == len(calls):
                out.data[cloud, point, 2] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(models, "segment_embed", broken)
    monkeypatch.setattr(evaluation, "_ridge_probe", None)  # the fit would fail on it
    monkeypatch.setattr(evaluation, "extract_point_features", None)  # so would the test set
    rows = len(ds) * 32
    with pytest.raises(FloatingPointError,
                       match=rf"^the probe's features are not finite: {count} of {rows} "
                             rf"rows hold a nan or inf, the first is row {32 + 3}$"):
        segmentation_eval(model, ds, ds, points_per_cloud=32)
    assert len(calls) == 2


def test_segmentation_eval_rejects_non_finite_features(monkeypatch):
    """A nan per-point training feature raises the probe's non-finite
    error, with the row count and the first bad row, before the fit."""
    _reject_non_finite(monkeypatch, [(0, 1, 3)], 1)


def test_non_finite_rows_are_counted_over_every_batch(monkeypatch):
    """Bad rows in both streamed batches, listed out of row order: the
    error counts all three and names row 35, the set's first."""
    _reject_non_finite(monkeypatch, [(1, 0, 5), (0, 1, 3), (1, 2, 0)], 3)


def test_segmentation_eval_is_deterministic_and_reads_no_epochs(seg_dataset):
    """Fixed-seed segmentation_eval gives one report, whatever probe_epochs
    says (it is checked, not read), on the model and on a copy of it."""
    model, _ = pretrain(seg_dataset, tiny_cfg(epochs=1, pairs_per_batch=2),
                        objective="seg")
    runs = [segmentation_eval(m, seg_dataset, seg_dataset, points_per_cloud=32,
                              probe_epochs=epochs, seed=4)
            for m, epochs in ((model, 5), (model, 50), (copy.deepcopy(model), 0))]
    assert runs[0].row() == runs[1].row() == runs[2].row()
    assert set(runs[0].tags) == {"protocol", "probe_train_mse"}


def _streamed_fit(monkeypatch, model, ds):
    """segmentation_eval on ds at 32 points, seed 3, and the moments and the
    (probe, mse) of its one _ridge_probe call."""
    ridge, seen = evaluation._ridge_probe, []

    def spy(m, K):
        seen.append((m, ridge(m, K)))
        return seen[-1][1]

    monkeypatch.setattr(evaluation, "_ridge_probe", spy)
    metrics = segmentation_eval(model, ds, ds, points_per_cloud=32, seed=3)
    (m, fit), = seen
    return metrics, m, fit


def test_streamed_moments_equal_the_held_arrays(monkeypatch):
    """The moments segmentation_eval sums from its streamed batches (40
    clouds: a full and a filled one) equal _moments of the held
    extract_point_features array bit for bit, and so the probe's w and b
    equal the held fit's."""
    ds = _forty_clouds()
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 6], with_seg=True)
    _, m, (probe, _) = _streamed_fit(monkeypatch, model, ds)
    feats, labels, _ = evaluation.extract_point_features(model, ds, 32, seed=3)
    held = _held_moments(feats, labels, ds.num_parts)
    assert np.array_equal(m, held)
    want, _ = evaluation._ridge_probe(held, ds.num_parts)
    assert np.array_equal(probe.w.data, want.w.data)
    assert np.array_equal(probe.b.data, want.b.data)


def test_probe_train_mse_equals_the_held_residual(monkeypatch):
    """probe_train_mse, read off the moments, equals ‖(Y − ȳ) − ZW‖²/R
    formed in float64 on the held training features, Z = (x − μ)/σ."""
    ds = _forty_clouds()
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 6], with_seg=True)
    metrics, m, (_, mse) = _streamed_fit(monkeypatch, model, ds)
    feats, labels, _ = evaluation.extract_point_features(model, ds, 32, seed=3)
    W, mu, sigma, ybar, _ = evaluation._ridge_fit(m, ds.num_parts)
    x = feats.reshape(-1, feats.shape[-1]).astype(np.float64)
    y = np.eye(ds.num_parts)[labels.reshape(-1)]
    want = np.sum(((y - ybar) - (x - mu) / sigma @ W) ** 2) / len(x)
    assert metrics.tags["probe_train_mse"] == mse
    assert np.isclose(mse, want, rtol=1e-9, atol=0)


def test_segmentation_eval_never_holds_the_train_features():
    """The traced peak of segmentation_eval above its start, on 320
    training clouds of 32 points with 32-wide embeddings (1.25 MiB as one
    float32 array) and 8 test clouds, stays under 1.6 MiB. Streamed, it
    reads 1.06 MiB; a copy that holds the training array reads 2.00 MiB."""
    classes = ["cylinder", "cube", "sphere", "torus"]
    train = generate_synthetic_dataset(
        SyntheticSpec(classes, per_class=80, points_per_cloud=32, with_parts=True),
        np.random.default_rng(4))
    test = generate_synthetic_dataset(
        SyntheticSpec(classes, per_class=2, points_per_cloud=32, with_parts=True,
                      split="test"), np.random.default_rng(5))
    model = models.ModelParams.create(np.random.default_rng(5), encoder_widths=[8, 16],
                                      head_widths=[8, 4], seg_widths=[8, 32], with_seg=True)
    segmentation_eval(model, train, test, points_per_cloud=32)  # warm-up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        segmentation_eval(model, train, test, points_per_cloud=32)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("pairs, passes", [("rolled", False), ("permuted", True)])
def test_instance_retrieval_fails_wrong_pairs(monkeypatch, pairs, passes):
    """An encoder pretrained on pairs whose transformed half is rolled by one
    cloud, so that no cloud meets its own copy, retrieves under half of the
    held-out copies; one whose transformed clouds have their points
    permuted, which max pooling ignores, retrieves at least half. 0.5 is
    criterion 6's bound."""
    rng = np.random.default_rng(0)
    classes = ["sphere", "cube", "cylinder", "torus"]
    train = generate_synthetic_dataset(SyntheticSpec(classes, 16, 32), rng)
    test = generate_synthetic_dataset(SyntheticSpec(classes, 5, 32, split="test"), rng)
    build, shuffle = training.build_batch, np.random.default_rng(99)

    def wrong(ds, cfg, rng):
        orig, trans = build(ds, cfg, rng)
        if pairs == "rolled":
            return orig, np.roll(trans, 1, axis=0)
        return orig, np.stack([c[shuffle.permutation(len(c))] for c in trans])

    monkeypatch.setattr(training, "build_batch", wrong)
    cfg = TrainConfig(pairs_per_batch=8, epochs=30, points_per_cloud=32, seed=0,
                      loss=LossConfig(tau=0.1), dropout_rate=0.0)
    model, _ = pretrain(train, cfg, objective="cls")
    top1 = evaluation.instance_retrieval(model, test, cfg.transform, 32, seed=5)
    assert (top1 >= 0.5) == passes, top1
