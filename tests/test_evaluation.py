from dataclasses import replace

import numpy as np
import pytest

from pointcl import evaluation, models, tensor as T, training
from pointcl.evaluation import (Metrics, ablate_transforms,
                                classification_metrics, cross_validate,
                                format_report, linear_probe_eval,
                                pretrain_finetune_eval, segmentation_eval,
                                segmentation_metrics, shape_miou,
                                supervised_baseline_eval)
from pointcl.pointcloud import (SyntheticSpec, generate_synthetic_dataset,
                                load_dataset, sample_points, save_dataset)
from pointcl.training import TrainConfig, pretrain

from oracles import brute_force_iou, reference_probe_fit


def tiny_cfg(**kw):
    defaults = dict(pairs_per_batch=4, epochs=2, points_per_cloud=32,
                    encoder_widths=[8, 16], head_widths=[8, 4],
                    seg_widths=[8, 4], seed=7, dropout_rate=0.0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_classification_metrics_exact():
    m = classification_metrics([0, 1, 1, 0], [0, 1, 0, 0], num_classes=2)
    assert m.overall_accuracy == 0.75
    assert m.per_class[0] == 2 / 3
    assert m.per_class[1] == 1.0
    assert abs(m.mean_class_accuracy - (2 / 3 + 1) / 2) < 1e-12


def test_probe_one_hot_features_perfect():
    feats = np.eye(4, dtype=np.float32)[np.tile(np.arange(4), 10)]
    labels = np.tile(np.arange(4), 10)
    probe = evaluation.fit_probe(feats, labels, 4, epochs=200)
    pred = evaluation.probe_predict(probe, feats)
    assert (pred == labels).all()


def test_fit_probe_matches_float64_adam(rng):
    feats = rng.normal(size=(300, 6)).astype(np.float32)
    labels = rng.integers(0, 5, size=300)
    probe = evaluation.fit_probe(feats, labels, 5, epochs=5, lr=0.01)
    w, b = reference_probe_fit(feats, labels, 5, epochs=5, lr=0.01)
    assert probe.w.dtype == np.float32
    assert np.allclose(probe.w.data, w, rtol=1e-5, atol=1e-6)
    assert np.allclose(probe.b.data, b, rtol=1e-5, atol=1e-6)


def test_fit_probe_empty_features():
    with pytest.raises(T.ShapeError, match="empty batch"):
        evaluation.fit_probe(np.zeros((0, 4), np.float32), np.zeros(0, int), 3)


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


def test_probe_class_count_mismatch(small_dataset, seg_dataset):
    model, _ = pretrain(small_dataset, tiny_cfg(epochs=1))
    with pytest.raises(ValueError):
        linear_probe_eval(model, small_dataset, seg_dataset)


def test_finetune_head_init_pair(tmp_path, small_dataset):
    cfg = tiny_cfg(epochs=1)
    pretrain(small_dataset, cfg, out_dir=str(tmp_path))
    ckpt = str(tmp_path / "checkpoint_final.pclm")
    m_off = pretrain_finetune_eval(ckpt, small_dataset, small_dataset, cfg,
                                   finetune_epochs=1, init_head=False)
    m_on = pretrain_finetune_eval(ckpt, small_dataset, small_dataset, cfg,
                                  finetune_epochs=1, init_head=True)
    assert m_off.tags["head_init"] is False
    assert m_on.tags["head_init"] is True


def test_finetune_zero_epochs_chance(tmp_path, small_dataset):
    cfg = tiny_cfg(epochs=1)
    pretrain(small_dataset, cfg, out_dir=str(tmp_path))
    m = pretrain_finetune_eval(str(tmp_path / "checkpoint_final.pclm"),
                               small_dataset, small_dataset, cfg,
                               finetune_epochs=0)
    assert 0.0 <= m.overall_accuracy <= 0.6  # untrained head, near chance


def test_supervised_baseline_runs(small_dataset):
    m = supervised_baseline_eval(small_dataset, small_dataset, tiny_cfg(),
                                 epochs=1)
    assert m.tags["protocol"] == "supervised_random_init"


def test_cross_validate_tags(small_dataset):
    cfg = tiny_cfg(epochs=1)
    m = cross_validate(small_dataset, small_dataset, small_dataset, cfg)
    assert "unsup_dataset" in m.tags and "probe_dataset" in m.tags


def test_cross_validate_empty_probe_set(small_dataset):
    from pointcl.pointcloud import Dataset
    empty = Dataset(samples=[], num_classes=4)
    with pytest.raises(ValueError):
        cross_validate(small_dataset, empty, empty, tiny_cfg(epochs=1))


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
    assert m.overall_accuracy == 6 / 8


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
    for p, f, y, c in zip(ds.samples, feats, labels, classes):
        q = sample_points(p, 32, rng)
        g, pp = models.encode(q.points[None], model.encoder, training=False)
        z = models.segment_embed(pp, g, model.seg, training=False).data[0]
        assert f.shape == z.shape
        assert np.allclose(f, z, rtol=0, atol=1e-6)
        assert np.array_equal(y, q.point_labels)
        assert c == q.class_label


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
        seen.append(cfg.transform_spec())
        return pretrain(ds, cfg, **kw)

    monkeypatch.setattr(evaluation, "pretrain", spy)
    rows = ablate_transforms(small_dataset, small_dataset, tiny_cfg(epochs=1),
                             ["identity"])
    assert [r["transform"] for r in rows] == ["identity"]
    assert [(s.kind, s.scale_range) for s in seen] == [("scale", (1.0, 1.0))]


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
