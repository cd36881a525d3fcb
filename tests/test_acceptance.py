"""Acceptance suite. Each test covers one numbered criterion and prints a
pass/fail line (run with `pytest tests/test_acceptance.py -s` to see them).
"""

import time

import numpy as np
import pytest

from pointcl import evaluation, models, tensor as T, training
from pointcl.cli import main as cli_main
from pointcl.losses import LossConfig, contrastive_loss_cls, contrastive_loss_seg
from pointcl.pointcloud import (PointCloud, SyntheticSpec,
                                generate_synthetic_dataset, save_dataset)
from pointcl.tensor import Tensor
from pointcl.training import TrainConfig, _forward_loss, pretrain
from pointcl.transforms import TransformSpec, apply_transform

from oracles import (brute_force_infonce, brute_force_iou,
                     brute_force_pointwise, finite_difference_grads,
                     max_rel_error)

CLASSES = ["sphere", "cube", "cylinder", "torus"]


def report(num, ok, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def unit_rows(a):
    a = np.asarray(a, dtype=np.float64)
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def e2e_datasets():
    rng = np.random.default_rng(0)
    train = generate_synthetic_dataset(
        SyntheticSpec(classes=CLASSES, per_class=200, points_per_cloud=128,
                      split="train"), rng)
    test = generate_synthetic_dataset(
        SyntheticSpec(classes=CLASSES, per_class=50, points_per_cloud=128,
                      split="test"), rng)
    return train, test


def test_criterion_1_gradient_oracle():
    """Analytic grads of both losses vs central finite differences, 64-bit."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    model = models.ModelParams.create(rng, encoder_widths=[16, 32],
                                      head_widths=[16, 8], seg_widths=[16, 8],
                                      with_seg=True, dropout_rate=0.0,
                                      dtype=np.float64)
    cfg = TrainConfig(pairs_per_batch=4, points_per_cloud=8,
                      encoder_widths=[16, 32], head_widths=[16, 8],
                      seg_widths=[16, 8], dropout_rate=0.0)
    orig = rng.normal(size=(4, 8, 3))
    trans = rng.normal(size=(4, 8, 3))
    worst = 0.0
    for objective in ("cls", "seg"):
        def forward():
            return _forward_loss(model, orig, trans, cfg,
                                 np.random.default_rng(7), objective,
                                 bn_momentum=0.9).item()

        loss = _forward_loss(model, orig, trans, cfg, np.random.default_rng(7),
                             objective, bn_momentum=0.9)
        T.backward(loss)
        params = [p for p in model.params() if p.grad is not None]
        grads = [p.grad.copy() for p in params]
        for p in model.params():
            p.grad = None
        fd = finite_difference_grads(forward, params, h=1e-4)
        worst = max(worst, max_rel_error(grads, fd))
    elapsed = time.time() - t0
    report(1, worst < 1e-4 and elapsed < 30,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_loss_equivalence_oracle():
    rng = np.random.default_rng(2)
    z_o = unit_rows(rng.normal(size=(16, 8)))
    z_t = unit_rows(rng.normal(size=(16, 8)))
    cls_ours = contrastive_loss_cls(Tensor(z_o), Tensor(z_t),
                                    LossConfig(tau=0.1)).item()
    cls_oracle = brute_force_infonce(z_o, z_t, 0.1)
    Z_o = unit_rows(rng.normal(size=(2, 32, 8)))
    Z_t = unit_rows(rng.normal(size=(2, 32, 8)))
    seg_ours = contrastive_loss_seg(Tensor(Z_o), Tensor(Z_t),
                                    LossConfig(tau=0.1)).item()
    seg_oracle = brute_force_pointwise(Z_o, Z_t, 0.1)
    ok = abs(cls_ours - cls_oracle) < 1e-6 and abs(seg_ours - seg_oracle) < 1e-6
    report(2, ok, f"cls diff {abs(cls_ours - cls_oracle):.2e}, "
                  f"seg diff {abs(seg_ours - seg_oracle):.2e}")


def test_criterion_3_uniform_embedding_identities():
    z = np.tile(unit_rows([[1.0, 0.0, 0.0]]), (16, 1))
    cls_loss = contrastive_loss_cls(Tensor(z), Tensor(z.copy()),
                                    LossConfig(tau=0.1)).item()
    Z = np.tile(unit_rows([[[1.0, 1.0, 0.0]]]), (2, 32, 1))
    seg_loss = contrastive_loss_seg(Tensor(Z), Tensor(Z.copy()),
                                    LossConfig(tau=0.1)).item()
    ok = abs(cls_loss - np.log(16)) < 1e-6 and abs(seg_loss - np.log(32)) < 1e-6
    report(3, ok, f"cls {cls_loss:.6f} vs ln16 {np.log(16):.6f}, "
                  f"seg {seg_loss:.6f} vs ln32 {np.log(32):.6f}")


def test_criterion_4_encoder_permutation_invariance():
    rng = np.random.default_rng(4)
    model = models.ModelParams.create(rng, encoder_widths=[16, 32],
                                      head_widths=[16, 8])
    ok = True
    for _ in range(100):
        pts = rng.normal(size=(1, 24, 3)).astype(np.float32)
        perm = rng.permutation(24)
        g1, _ = models.encode(pts, model.encoder, training=False)
        g2, _ = models.encode(pts[:, perm], model.encoder, training=False)
        ok = ok and (g1.data == g2.data).all()
    report(4, ok, "100 clouds, bit-identical global features")


def test_criterion_5_rigid_rotations():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        p = PointCloud(points=rng.normal(size=(32, 3)))
        for axis, angle in [("y", 180), ("y", 90), ("y", 45),
                            ("x", 180), ("x", 90), ("x", 45)]:
            out = apply_transform(
                p, TransformSpec(kind="rotate", axis=axis, angle_deg=angle), rng)
            d_in = np.linalg.norm(p.points[:, None] - p.points[None], axis=2)
            d_out = np.linalg.norm(out.points[:, None] - out.points[None], axis=2)
            worst = max(worst, float(np.abs(d_in - d_out).max()))
    p = PointCloud(points=[[1.0, 2.0, 3.0]])
    y180 = apply_transform(p, TransformSpec(kind="rotate", axis="y",
                                            angle_deg=180),
                           np.random.default_rng(0))
    exact = (y180.points == np.array([[-1.0, 2.0, -3.0]], dtype=np.float32)).all()
    report(5, worst < 1e-6 and exact,
           f"max distance drift {worst:.2e}, Y-180 exact: {exact}")


def test_criterion_6_desk_scale_end_to_end(e2e_datasets):
    """Pretrain 30 epochs; loss below chance after the first epoch and
    trending down; frozen probe beats a random-encoder probe by >= 10 pp;
    the head retrieves at least half of the held-out clouds' rotated copies
    (an encoder pretrained on wrong pairs retrieves few, and so does a
    random one: the probe gap alone passes both).

    Thresholds ratified on the baseline run: dropout disabled at desk scale
    (the full-scale 0.7 rate drowns the contrastive signal in a 64-wide
    head) and moving-average monotonicity checked with 0.01 tolerance
    (plateau noise of the converged loss).
    """
    t0 = time.time()
    train, test = e2e_datasets
    cfg = TrainConfig(pairs_per_batch=16, epochs=30, points_per_cloud=128,
                      seed=3, transform="rotate:y:180",
                      loss=LossConfig(tau=0.1), dropout_rate=0.0)
    model, records = pretrain(train, cfg, objective="cls")
    spe = len(train) // cfg.pairs_per_batch
    losses = [r.loss for r in records]
    ep = [float(np.mean(losses[i * spe:(i + 1) * spe])) for i in range(cfg.epochs)]
    below_chance = ep[1] < np.log(16)
    ma = [float(np.mean(ep[i - 4:i + 1])) for i in range(4, cfg.epochs)]
    monotone = all(b <= a + 0.01 for a, b in zip(ma, ma[1:]))

    m_pre, _, _ = evaluation.linear_probe_eval(model, train, test,
                                               points_per_cloud=128, seed=0)
    rand = models.ModelParams.create(np.random.default_rng(3))
    m_rand, _, _ = evaluation.linear_probe_eval(rand, train, test,
                                                points_per_cloud=128, seed=0)
    gap = m_pre.overall_accuracy - m_rand.overall_accuracy
    top1 = evaluation.instance_retrieval(model, test, cfg.transform,
                                         points_per_cloud=128, seed=5)
    elapsed = time.time() - t0
    ok = below_chance and monotone and gap >= 0.10 and top1 >= 0.5 and elapsed < 600
    report(6, ok, f"epoch-2 loss {ep[1]:.3f} < ln16 {np.log(16):.3f}: "
                  f"{below_chance}; monotone MA: {monotone}; "
                  f"probe {m_pre.overall_accuracy:.3f} vs random "
                  f"{m_rand.overall_accuracy:.3f} (gap {gap * 100:.1f} pp); "
                  f"instance retrieval {top1:.3f} >= 0.5; {elapsed:.0f}s")


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    train = generate_synthetic_dataset(
        SyntheticSpec(classes=CLASSES, per_class=10, points_per_cloud=32), rng)
    test = generate_synthetic_dataset(
        SyntheticSpec(classes=CLASSES, per_class=5, points_per_cloud=32,
                      split="test"), rng)
    tr_path, te_path = base / "train.pcds", base / "test.pcds"
    save_dataset(train, tr_path)
    save_dataset(test, te_path)
    return base, tr_path, te_path


_DESK_FLAGS = ["--pairs", "4", "--epochs", "1", "--points", "32",
               "--probe-epochs", "10", "--encoder-widths", "8,16",
               "--head-widths", "8,4", "--dropout", "0"]


def test_criterion_7_ablation_harness(cli_data):
    base, tr, te = cli_data
    counts = {}
    for suite, expected in (("table4", 11), ("table5", 5)):
        out = base / f"abl_{suite}"
        rc = cli_main(["ablate", "--suite", suite, "--data", str(tr),
                       "--test-data", str(te), "--out", str(out)] + _DESK_FLAGS)
        rows = (out / f"ablation_{suite}.csv").read_text().splitlines()
        counts[suite] = (rc, len(rows) - 1, expected)
    ok = all(rc == 0 and got == want for rc, got, want in counts.values())
    report(7, ok, f"table4 rows {counts['table4'][1]}/11, "
                  f"table5 rows {counts['table5'][1]}/5")


def test_criterion_8_protocol_ablation_parity(cli_data):
    base, tr, te = cli_data
    run = base / "pre"
    rc = cli_main(["pretrain", "--data", str(tr), "--out", str(run)]
                  + _DESK_FLAGS)
    assert rc == 0
    ckpt = str(run / "checkpoint_final.pclm")

    probe_out = base / "probe_both"
    rc1 = cli_main(["probe", "--train-data", str(tr), "--test-data", str(te),
                    "--checkpoint", ckpt, "--out", str(probe_out),
                    "--features", "both"] + _DESK_FLAGS)
    probe_rows = (probe_out / "probe_metrics.csv").read_text().splitlines()

    ft_out = base / "ft_both"
    rc2 = cli_main(["finetune", "--train-data", str(tr), "--test-data", str(te),
                    "--checkpoint", ckpt, "--out", str(ft_out),
                    "--finetune-epochs", "1", "--init-head"] + _DESK_FLAGS)
    ft_rows = (ft_out / "finetune_metrics.csv").read_text().splitlines()

    ok = (rc1 == 0 and rc2 == 0 and len(probe_rows) == 3 and len(ft_rows) == 3
          and "encoder" in probe_rows[1] + probe_rows[2]
          and "head" in probe_rows[1] + probe_rows[2])
    report(8, ok, f"probe rows {len(probe_rows) - 1}/2 (encoder+head), "
                  f"finetune rows {len(ft_rows) - 1}/2 (head-init off/on)")


def test_criterion_9_miou_oracle():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        parts = list(range(int(rng.integers(1, 6))))
        pred = rng.integers(0, len(parts) + 1, size=n)
        gt = rng.integers(0, len(parts) + 1, size=n)
        worst = max(worst, abs(evaluation.shape_miou(pred, gt, parts)
                               - brute_force_iou(pred, gt, parts)))
    hand = evaluation.shape_miou([0, 0, 1, 1], [0, 1, 1, 1], [0, 1])
    ok = worst < 1e-9 and abs(hand - 7 / 12) < 1e-12
    report(9, ok, f"max oracle diff {worst:.2e}, hand case {hand:.6f} = 7/12")


def test_criterion_10_determinism_and_persistence(tmp_path, small_dataset):
    cfg = TrainConfig(pairs_per_batch=4, epochs=4, points_per_cloud=32,
                      encoder_widths=[8, 16], head_widths=[8, 4], seed=11,
                      dropout_rate=0.0)
    m1, r1 = pretrain(small_dataset, cfg)
    m2, r2 = pretrain(small_dataset, cfg)
    curves_identical = [r.loss for r in r1] == [r.loss for r in r2]

    path = tmp_path / "m.pclm"
    models.save_checkpoint(m1, path)
    back, _ = models.load_checkpoint(path)
    round_trip = all((a.data == b.data).all()
                     for a, b in zip(m1.params(), back.params()))

    spe = len(small_dataset) // cfg.pairs_per_batch
    cfg_half = TrainConfig(pairs_per_batch=4, epochs=2, points_per_cloud=32,
                           encoder_widths=[8, 16], head_widths=[8, 4], seed=11,
                           dropout_rate=0.0, checkpoint_every=2 * spe)
    pretrain(small_dataset, cfg_half, out_dir=str(tmp_path))
    ckpt = tmp_path / f"checkpoint_{2 * spe:06d}.pclm"
    m3, r3 = pretrain(small_dataset, cfg, resume=str(ckpt))
    resumed_matches = (all((a.data == b.data).all()
                           for a, b in zip(m1.params(), m3.params()))
                       and [r.loss for r in r1[2 * spe:]] == [r.loss for r in r3])
    ok = curves_identical and round_trip and resumed_matches
    report(10, ok, f"rerun curve identical: {curves_identical}; checkpoint "
                   f"bit-exact: {round_trip}; resume matches: {resumed_matches}")
