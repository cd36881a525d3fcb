import copy
import json
import os
import re
import struct
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from pointcl import models, tensor as T, training
from pointcl.losses import contrastive_loss_seg
from pointcl.tensor import Tensor
from pointcl.training import (AdamState, TrainConfig, adam_step, bn_schedule,
                              build_batch, load_train_checkpoint, lr_schedule,
                              pretrain, save_train_checkpoint)
from pointcl.transforms import parse_transform, transform_stack

from oracles import (finite_difference_grads, max_rel_error, reference_adam_step,
                     reference_sample_stack, reference_shared_mlp_max_pool)


def tiny_cfg(**kw):
    defaults = dict(pairs_per_batch=4, epochs=2, points_per_cloud=32,
                    encoder_widths=[8, 16], head_widths=[8, 4],
                    seg_widths=[8, 4], seed=7, dropout_rate=0.0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_adam_zero_grads_no_change():
    p = Tensor(np.ones(3), requires_grad=True)
    p.grad = np.zeros(3)
    st = AdamState([p])
    adam_step([p], st, 0.001)
    assert (p.data == 1.0).all()
    assert st.step_count == 1


def test_adam_first_step_magnitude():
    p = Tensor(np.zeros(1), requires_grad=True)
    p.grad = np.ones(1)
    st = AdamState([p])
    adam_step([p], st, 0.001)
    # bias-corrected first step: -lr * 1 / (1 + eps)
    assert abs(p.data[0] + 0.001) < 1e-9


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
        st = AdamState([p])
        for i in range(10):
            p.grad = rng.normal(size=(4, 4)).astype(np.float32)
            adam_step([p], st, 0.01)
        return p.data.copy()

    assert (run() == run()).all()


def test_adam_nan_grad_aborts():
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.array([np.nan, 0.0], dtype=np.float32)
    with pytest.raises(FloatingPointError):
        adam_step([p], AdamState([p]), 0.001)


@pytest.mark.parametrize("objective, pairs, epochs", [("cls", 8, 5), ("seg", 4, 10)])
def test_adam_in_place_matches_reference_bytes(tmp_path, monkeypatch, small_dataset,
                                               seg_dataset, objective, pairs, epochs):
    """A fixed-seed 50-step pretrain writes the same checkpoint bytes with
    the in-place update as with the reference update."""
    ds = small_dataset if objective == "cls" else seg_dataset
    cfg = tiny_cfg(pairs_per_batch=pairs, epochs=epochs, dropout_rate=0.5)
    _, records = pretrain(ds, cfg, objective, out_dir=str(tmp_path / "in_place"))
    assert len(records) == 50
    monkeypatch.setattr(training, "adam_step", reference_adam_step)
    pretrain(ds, cfg, objective, out_dir=str(tmp_path / "reference"))
    for name in ("checkpoint_final.pclm", "loss_curve.csv"):
        assert ((tmp_path / "in_place" / name).read_bytes()
                == (tmp_path / "reference" / name).read_bytes()), name


@pytest.mark.parametrize("objective, transform, pairs, epochs", [
    ("cls", "rotate:y:180", 8, 5), ("seg", "smooth", 4, 10), ("cls", "crop", 8, 5),
], ids=["cls", "seg-smooth", "cls-crop"])
def test_pooled_layer_matches_dense_reference_float64(monkeypatch, small_dataset,
                                                      seg_dataset, objective, transform,
                                                      pairs, epochs):
    """A fixed-seed 50-step pretrain of a float64 desk encoder gives the same
    loss curve and final parameters, to 1e-12 relative, when the last layer
    pools before its affine as with the dense reference layer."""
    ds = small_dataset if objective == "cls" else seg_dataset
    cfg = tiny_cfg(pairs_per_batch=pairs, epochs=epochs, dropout_rate=0.5,
                   encoder_widths=[32, 64, 128], transform=transform)

    def run():
        model = models.ModelParams.create(
            np.random.default_rng(cfg.seed), encoder_widths=cfg.encoder_widths,
            head_widths=cfg.head_widths, seg_widths=cfg.seg_widths,
            dropout_rate=cfg.dropout_rate, with_seg=objective == "seg", dtype=np.float64)
        model, records = pretrain(ds, cfg, objective, model=model)
        return [r.loss for r in records], [p.data for p in model.params()]

    losses, params = run()
    assert len(losses) == 50
    monkeypatch.setattr(T, "shared_mlp_max_pool", reference_shared_mlp_max_pool)
    want_losses, want_params = run()
    np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0)
    for got, want in zip(params, want_params):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("objective, transform, pairs, epochs", [
    ("cls", "rotate:y:180", 8, 1), ("seg", "smooth", 4, 2), ("cls", "crop", 8, 1),
], ids=["cls", "seg-smooth", "cls-crop"])
def test_pooled_calls_match_dense_reference_every_seed(monkeypatch, small_dataset,
                                                       seg_dataset, objective, transform,
                                                       pairs, epochs):
    """Every shared_mlp_max_pool call of a 10-step float64 pretrain, over
    model seeds 0-23, equals the dense reference run on the same inputs to
    1e-12 relative to each array's largest entry: the pooled values, the
    running statistics it leaves, and the gradients its backward adds to x,
    w, gamma and beta from the same upstream gradient. Unlike the trajectory
    test above, this does not depend on how rounding grows over the steps."""
    ds = small_dataset if objective == "cls" else seg_dataset
    cfg = tiny_cfg(pairs_per_batch=pairs, epochs=epochs, dropout_rate=0.5,
                   encoder_widths=[32, 64, 128], transform=transform)
    pooled = T.shared_mlp_max_pool
    calls, worst = [], {}

    def gap(name, got, want):
        top = np.abs(want).max()
        err = float(np.abs(got - want).max() / top) if top > 0 else float(np.abs(got).max())
        worst[name] = max(worst.get(name, 0.0), err)

    def checked(x, w, bn, momentum, training, n_points):
        xr, wr = Tensor(x.data, requires_grad=x.requires_grad), Tensor(w.data, requires_grad=True)
        bnr = copy.copy(bn)
        bnr.gamma = Tensor(bn.gamma.data, requires_grad=True)
        bnr.beta = Tensor(bn.beta.data, requires_grad=True)
        bnr.running_mean, bnr.running_var = bn.running_mean.copy(), bn.running_var.copy()
        out = pooled(x, w, bn, momentum, training, n_points)
        ref = reference_shared_mlp_max_pool(xr, wr, bnr, momentum, training, n_points)
        calls.append(training)
        gap("values", out.data, ref.data)
        gap("running_mean", bn.running_mean, bnr.running_mean)
        gap("running_var", bn.running_var, bnr.running_var)
        backward = out._backward

        def both(g):
            # Take this call's gradients alone, then add them to what the
            # other consumers of x left, as _accum would have.
            ts = (x, w, bn.gamma, bn.beta)
            before = [t.grad for t in ts]
            for t in ts:
                t.grad = None
            backward(g)
            ref._backward(g)
            for name, t, tr, b0 in zip(("dx", "dw", "dgamma", "dbeta"), ts,
                                       (xr, wr, bnr.gamma, bnr.beta), before):
                if t.requires_grad:
                    gap(name, t.grad, tr.grad)
                    got, t.grad = t.grad, b0
                    T._accum(t, got)

        out._backward = both
        return out

    monkeypatch.setattr(T, "shared_mlp_max_pool", checked)
    parted = []
    for seed in range(24):
        calls.clear()
        worst.clear()
        model = models.ModelParams.create(
            np.random.default_rng(seed), encoder_widths=cfg.encoder_widths,
            head_widths=cfg.head_widths, seg_widths=cfg.seg_widths,
            dropout_rate=cfg.dropout_rate, with_seg=objective == "seg", dtype=np.float64)
        _, records = pretrain(ds, cfg, objective, model=model)
        assert len(records) == 10 and calls == [True] * 10
        assert set(worst) == {"values", "running_mean", "running_var",
                              "dx", "dw", "dgamma", "dbeta"}
        parted += [(seed, name, err) for name, err in worst.items() if err > 1e-12]
    assert not parted, parted


def test_lr_schedule_endpoints():
    cfg = tiny_cfg()
    assert lr_schedule(0, cfg, period=100) == 0.001
    assert lr_schedule(10_000_000, cfg, period=100) == 1e-5


def test_bn_schedule_endpoints():
    cfg = tiny_cfg()
    assert bn_schedule(0, cfg, period=100) == 0.5
    assert bn_schedule(10_000_000, cfg, period=100) == 0.99


def test_schedules_after_one_period():
    cfg = tiny_cfg()
    assert abs(lr_schedule(100, cfg, period=100) - 0.0007) < 1e-12
    assert abs(bn_schedule(100, cfg, period=100) - 0.75) < 1e-12


def test_schedules_monotone():
    cfg = tiny_cfg()
    lrs = [lr_schedule(s, cfg, period=10) for s in range(0, 500, 7)]
    bns = [bn_schedule(s, cfg, period=10) for s in range(0, 500, 7)]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    assert all(b >= a for a, b in zip(bns, bns[1:]))


def test_build_batch_contract(small_dataset):
    cfg = tiny_cfg(pairs_per_batch=16, points_per_cloud=48)
    orig, trans = build_batch(small_dataset, cfg, np.random.default_rng(0))
    assert orig.shape == (16, 48, 3)
    assert trans.shape == (16, 48, 3)


def test_build_batch_identity_transform(small_dataset):
    cfg = tiny_cfg(transform="identity")
    orig, trans = build_batch(small_dataset, cfg, np.random.default_rng(0))
    assert np.allclose(orig, trans, atol=1e-7)


def test_build_batch_seeded_reproducible(small_dataset):
    cfg = tiny_cfg()
    a = build_batch(small_dataset, cfg, np.random.default_rng(5))
    b = build_batch(small_dataset, cfg, np.random.default_rng(5))
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()


def test_build_batch_too_small_dataset(small_dataset):
    cfg = tiny_cfg(pairs_per_batch=len(small_dataset) + 1)
    with pytest.raises(ValueError):
        build_batch(small_dataset, cfg, np.random.default_rng(0))


def test_pretrain_zero_epochs(small_dataset):
    model, records = pretrain(small_dataset, tiny_cfg(epochs=0))
    assert records == []
    assert model is not None


def test_pretrain_loss_decreases(small_dataset):
    model, records = pretrain(small_dataset, tiny_cfg(epochs=6))
    first = np.mean([r.loss for r in records[:5]])
    last = np.mean([r.loss for r in records[-5:]])
    assert last < first


def test_pretrain_deterministic(small_dataset):
    _, r1 = pretrain(small_dataset, tiny_cfg(epochs=2))
    _, r2 = pretrain(small_dataset, tiny_cfg(epochs=2))
    assert [r.loss for r in r1] == [r.loss for r in r2]


def test_pretrain_seg_objective(seg_dataset):
    model, records = pretrain(seg_dataset, tiny_cfg(epochs=1, pairs_per_batch=2),
                              objective="seg")
    assert model.seg is not None
    assert all(np.isfinite(r.loss) for r in records)


def test_pretrain_writes_outputs(tmp_path, small_dataset):
    out = tmp_path / "run"
    pretrain(small_dataset, tiny_cfg(epochs=1), out_dir=str(out))
    assert (out / "checkpoint_final.pclm").exists()
    curve = (out / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "step,epoch,lr,bn_momentum,loss"
    assert len(curve) > 1


def test_checkpoint_resume_matches_uninterrupted(tmp_path, small_dataset):
    cfg = tiny_cfg(epochs=4)
    full_model, full_records = pretrain(small_dataset, cfg)

    # same run interrupted after 2 epochs, checkpointed, then resumed
    steps_per_epoch = len(small_dataset) // cfg.pairs_per_batch
    cfg_ck = tiny_cfg(epochs=2, checkpoint_every=2 * steps_per_epoch)
    pretrain(small_dataset, cfg_ck, out_dir=str(tmp_path))
    ckpt = tmp_path / f"checkpoint_{2 * steps_per_epoch:06d}.pclm"
    resumed_model, resumed_records = pretrain(small_dataset, cfg,
                                              resume=str(ckpt))
    for a, b in zip(full_model.params(), resumed_model.params()):
        assert (a.data == b.data).all()
    assert ([r.loss for r in full_records[2 * steps_per_epoch:]]
            == [r.loss for r in resumed_records])


@pytest.mark.parametrize("resume_epochs", [1, 3])
def test_resume_at_or_past_the_runs_end_writes_nothing(tmp_path, small_dataset,
                                                       resume_epochs):
    """Resuming a 12-step run's final checkpoint into a run of 4 or 12 steps
    raises, naming both step counts, and leaves the checkpoint and the loss
    curve byte for byte as they were."""
    out = tmp_path / "run"
    pretrain(small_dataset, tiny_cfg(pairs_per_batch=20, epochs=3), out_dir=str(out))
    files = [out / "checkpoint_final.pclm", out / "loss_curve.csv"]
    before = [f.read_bytes() for f in files]
    with pytest.raises(ValueError, match=rf"at step 12, and the run has {4 * resume_epochs} "):
        pretrain(small_dataset, tiny_cfg(pairs_per_batch=20, epochs=resume_epochs),
                 out_dir=str(out), resume=str(files[0]))
    assert [f.read_bytes() for f in files] == before
    assert sorted(os.listdir(out)) == ["checkpoint_final.pclm", "loss_curve.csv"]


def test_train_checkpoint_round_trip(tmp_path, small_dataset):
    cfg = tiny_cfg(epochs=1)
    model, _ = pretrain(small_dataset, cfg)
    rng = np.random.default_rng(3)
    opt = AdamState(model.params())
    path = tmp_path / "t.pclm"
    save_train_checkpoint(model, opt, rng, 17, path)
    m2, opt2, rng2, step = load_train_checkpoint(path)
    assert step == 17
    for a, b in zip(model.params(), m2.params()):
        assert (a.data == b.data).all()
    assert rng2.random() == np.random.default_rng(3).random()


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(pairs_per_batch=1)
    with pytest.raises(ValueError):
        TrainConfig(lr_init=1e-6, lr_floor=1e-3)
    with pytest.raises(ValueError):
        TrainConfig(bn_cap=0.2)
    # each of these used to fail late or write a checkpoint that cannot be loaded
    for field, value in [("epochs", -2), ("checkpoint_every", -1), ("decay_period_steps", -5),
                         ("points_per_cloud", 0), ("dropout_rate", 1.5), ("dropout_rate", -0.1),
                         ("dropout_rate", 1), ("seed", -1)]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})


def test_config_parses_its_transform_when_built():
    """A bad transform fails when the config is built, not when pretrain
    starts. The parsed spec follows transform through replace and is not a
    setting: no keyword, repr or equality reads it, and a built config's
    transform cannot be reassigned past it."""
    with pytest.raises(ValueError, match="'spin:z:10'"):
        TrainConfig(transform="spin:z:10")
    cfg = TrainConfig(transform="rotate:x:90")
    assert cfg.transform_spec == parse_transform("rotate:x:90")
    assert replace(cfg, transform="cutout").transform_spec == parse_transform("cutout")
    assert "transform_spec" not in repr(cfg)
    with pytest.raises(TypeError):
        TrainConfig(transform_spec=parse_transform("cutout"))
    with pytest.raises(FrozenInstanceError):
        cfg.transform = "cutout"


_TRAINS_WRONGLY = {  # field: (settings rejected, settings accepted at the range's ends)
    "lr_init": ([dict(lr_init=v, lr_floor=-0.01) for v in (-0.001, np.nan, np.inf)],
                [dict(lr_init=0.0, lr_floor=0.0)]),
    "lr_floor": ([dict(lr_floor=v) for v in (-1e-5, np.nan, np.inf)], [dict(lr_floor=0.0)]),
    "lr_decay_gamma": ([dict(lr_decay_gamma=v) for v in (2.0, 1.0001, 0.0, -0.5)],
                       [dict(lr_decay_gamma=1.0)]),
    "bn_init": ([dict(bn_init=v) for v in (3.0, 1.01, -0.1)],
                [dict(bn_init=v) for v in (0.0, 1.0)]),
}


@pytest.mark.parametrize("field", list(_TRAINS_WRONGLY))
def test_config_rejects_settings_that_train_wrongly(field):
    """A negative lr makes Adam climb the loss, a nan lr trains at the floor,
    a gamma above 1 grows the lr and a bn_init outside [0, 1] gives a
    momentum outside [0, 1]."""
    bad, good = _TRAINS_WRONGLY[field]
    for kw in bad:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**kw)
    for kw in good:
        TrainConfig(**kw)


def test_pretrain_creates_missing_out_dir(tmp_path, small_dataset):
    out = tmp_path / "fresh" / "run"
    pretrain(small_dataset, tiny_cfg(epochs=1, checkpoint_every=2), out_dir=str(out))
    assert (out / "checkpoint_000002.pclm").exists()
    assert (out / "checkpoint_final.pclm").exists()


def _with_overflow(ds, which):
    """PointCloud rejects NaN coordinates, so poison clouds with float32 max:
    the encoder's batch norm turns them into a NaN loss."""
    ds = copy.deepcopy(ds)
    for i in which:
        ds.samples[i].points[:] = np.finfo(np.float32).max
    return ds


def test_nonfinite_loss_without_checkpoint(tmp_path, small_dataset):
    ds = _with_overflow(small_dataset, range(len(small_dataset)))
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match="at step 0; no checkpoint was written"):
        pretrain(ds, tiny_cfg(), out_dir=str(tmp_path))


def test_nonfinite_loss_names_last_checkpoint(tmp_path, small_dataset):
    ds = _with_overflow(small_dataset, [0])
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as err:
        pretrain(ds, tiny_cfg(checkpoint_every=1), out_dir=str(tmp_path))
    written = sorted(tmp_path.glob("checkpoint_*.pclm"))
    assert written, "the poisoned sample should not be drawn in the first step"
    assert f"at step {len(written)};" in str(err.value)
    assert f"last checkpoint written: {written[-1]}" in str(err.value)
    assert load_train_checkpoint(written[-1])[3] == len(written)


@pytest.fixture
def train_ckpt(tmp_path, small_dataset):
    out = tmp_path / "run"
    pretrain(small_dataset, tiny_cfg(epochs=1), out_dir=str(out))
    return out / "checkpoint_final.pclm"


def _tensor_bytes(arrays):
    return sum(1 + 4 * a.ndim + 4 * a.size for a in arrays)


def test_train_checkpoint_moments_are_binary(tmp_path, train_ckpt):
    model, opt, _, _ = load_train_checkpoint(train_ckpt)
    model_only = tmp_path / "model.pclm"
    models.save_checkpoint(model, model_only)
    data = train_ckpt.read_bytes()
    (hlen,) = struct.unpack("<I", data[6:10])
    header = json.loads(data[10:10 + hlen])
    assert set(header["extra"]["adam"]) == {"step_count"}
    (mlen,) = struct.unpack("<I", model_only.read_bytes()[6:10])
    assert (len(data) - 10 - hlen
            == model_only.stat().st_size - 10 - mlen + _tensor_bytes(opt.m + opt.v))


def _edit_extra(src, dst, edit):
    """Write src to dst with edit applied to its header's extra dict."""
    data = src.read_bytes()
    (hlen,) = struct.unpack("<I", data[6:10])
    header = json.loads(data[10:10 + hlen])
    edit(header["extra"])
    blob = json.dumps(header).encode()
    dst.write_bytes(data[:6] + struct.pack("<I", len(blob)) + blob + data[10 + hlen:])
    return dst


@pytest.mark.parametrize("edit", [lambda e: e.pop("adam"),
                                  lambda e: e["adam"].pop("step_count"),
                                  lambda e: e.update(adam=[3])],
                         ids=["missing", "no-step-count", "not-a-dict"])
def test_train_checkpoint_bad_adam_names_the_field(tmp_path, train_ckpt, edit):
    bad = _edit_extra(train_ckpt, tmp_path / "bad.pclm", edit)
    with pytest.raises(models.CheckpointError,
                       match=re.escape(f"{bad}: bad header: 'adam'")):
        load_train_checkpoint(bad)


@pytest.mark.parametrize("edit", [lambda e: e.pop("rng_state"),
                                  lambda e: e.update(rng_state="PCG64"),
                                  lambda e: e["rng_state"].update(bit_generator="MT19937"),
                                  lambda e: e["rng_state"].pop("state")],
                         ids=["missing", "not-a-dict", "other-generator", "no-state"])
def test_train_checkpoint_bad_rng_state_names_the_field(tmp_path, train_ckpt, edit):
    bad = _edit_extra(train_ckpt, tmp_path / "bad.pclm", edit)
    with pytest.raises(models.CheckpointError,
                       match=re.escape(f"{bad}: bad header: 'rng_state'")):
        load_train_checkpoint(bad)


@pytest.mark.parametrize("step", [None, "1", 1.0])
def test_train_checkpoint_bad_step_names_the_field(tmp_path, train_ckpt, step):
    bad = _edit_extra(train_ckpt, tmp_path / "bad.pclm", lambda e: e.update(step=step))
    with pytest.raises(models.CheckpointError,
                       match=re.escape(f"{bad}: not a training checkpoint ('step')")):
        load_train_checkpoint(bad)


def test_checkpoint_extra_may_not_hold_tensors(tmp_path, train_ckpt):
    """load_checkpoint returns the caller's tensors as extra["tensors"], so
    save_checkpoint refuses an extra with that key and writes no file, and
    a header whose extra holds one raises CheckpointError naming the key in
    both loaders, for a file without caller tensors and one with them."""
    model, _ = models.load_checkpoint(train_ckpt)
    refused = tmp_path / "refused.pclm"
    with pytest.raises(ValueError, match="'tensors' key"):
        models.save_checkpoint(model, refused, extra={"step": 3, "tensors": [1, 2]})
    assert not refused.exists()
    plain = tmp_path / "plain.pclm"
    models.save_checkpoint(model, plain, extra={"step": 3})
    for src in (plain, train_ckpt):
        bad = _edit_extra(src, tmp_path / "bad.pclm", lambda e: e.update(tensors=[1, 2]))
        for load in (models.load_checkpoint, load_train_checkpoint):
            with pytest.raises(models.CheckpointError, match=re.escape(
                    f"{bad}: bad header: 'extra' holds a 'tensors' key")):
                load(bad)


def test_train_checkpoint_with_adam_constants_still_loads(tmp_path, train_ckpt):
    """Files written when the header also stored beta1, beta2 and eps."""
    old = _edit_extra(train_ckpt, tmp_path / "old.pclm",
                      lambda e: e["adam"].update(beta1=0.9, beta2=0.999, eps=1e-8))
    _, opt, rng, step = load_train_checkpoint(old)
    _, want_opt, want_rng, want_step = load_train_checkpoint(train_ckpt)
    assert (opt.step_count, step) == (want_opt.step_count, want_step)
    assert rng.bit_generator.state == want_rng.bit_generator.state
    assert (opt.beta1, opt.beta2, opt.eps) == (0.9, 0.999, 1e-8)


def test_truncated_train_checkpoint_raises(tmp_path, train_ckpt):
    data = train_ckpt.read_bytes()
    (hlen,) = struct.unpack("<I", data[6:10])
    _, opt, _, _ = load_train_checkpoint(train_ckpt)
    moments_at = len(data) - _tensor_bytes(opt.m + opt.v)
    cuts = (set(range(0, 12)) | set(range(10 + hlen - 2, 10 + hlen + 12))
            | set(np.linspace(10 + hlen, moments_at, 40, dtype=int))
            | set(range(moments_at - 2, moments_at + 12))
            | set(np.linspace(moments_at, len(data) - 1, 40, dtype=int)))
    bad = tmp_path / "bad.pclm"
    for cut in sorted(cuts):
        bad.write_bytes(data[:cut])
        with pytest.raises(models.CheckpointError, match="truncated"):
            load_train_checkpoint(bad)
    bad.write_bytes(data + b"\0")
    with pytest.raises(models.CheckpointError):
        load_train_checkpoint(bad)


def test_failed_save_keeps_previous_checkpoint(tmp_path, small_dataset):
    model, _ = pretrain(small_dataset, tiny_cfg(epochs=1))
    opt = AdamState(model.params())
    path = tmp_path / "t.pclm"
    save_train_checkpoint(model, opt, np.random.default_rng(0), 5, path)
    before = path.read_bytes()
    opt.v[-1] = np.array(["not a number"])  # fails after the other tensors are written
    with pytest.raises(ValueError):
        save_train_checkpoint(model, opt, np.random.default_rng(0), 6, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.pclm"]
    assert load_train_checkpoint(path)[3] == 5


@pytest.mark.parametrize("train_mode", [True, False])
def test_seg_loss_gradients_through_fused_encoder(train_mode):
    """float64 finite differences of the seg loss.

    Training mode runs _forward_loss: with three encoder layers the seg
    branch reads the middle one, a fused layer whose input requires grad and
    whose output feeds two consumers. An eval-mode encoder is inference: the
    seg branch's inputs take no gradient, every encoder parameter's stays
    None, and the seg branch's still match.
    """
    rng = np.random.default_rng(11)
    cfg = tiny_cfg(pairs_per_batch=3, points_per_cloud=6,
                   encoder_widths=[6, 8, 10], head_widths=[6, 4], seg_widths=[6, 4])
    model = models.ModelParams.create(rng, encoder_widths=cfg.encoder_widths,
                                      head_widths=cfg.head_widths,
                                      seg_widths=cfg.seg_widths, with_seg=True,
                                      dropout_rate=0.0, dtype=np.float64)
    for layer in model.encoder.layers:
        layer.bn.running_mean = rng.normal(size=layer.bn.dim)
        layer.bn.running_var = rng.uniform(0.5, 2.0, size=layer.bn.dim)
    # Non-zero biases: with zero ones a point whose seg hidden units are all
    # off embeds to the zero vector, where row normalization jumps.
    for layer in model.seg.layers:
        layer.b.data = rng.normal(scale=0.5, size=layer.b.shape)
    orig = rng.normal(size=(3, 6, 3))
    trans = rng.normal(size=(3, 6, 3))

    def forward():
        if train_mode:
            return training._forward_loss(model, orig, trans, cfg, np.random.default_rng(7),
                                          "seg", bn_momentum=0.9)
        g, per_point = models.encode(np.concatenate([orig, trans]), model.encoder, False)
        z = models.segment_embed(per_point, g, model.seg, True)
        return contrastive_loss_seg(T.index(z, slice(0, 3)), T.index(z, slice(3, 6)), cfg.loss)

    T.backward(forward())
    assert [p.grad is None for p in model.encoder.params()] == [not train_mode] * 9
    assert all(p.grad is not None for p in model.seg.params())
    params = [p for p in model.params() if p.grad is not None]
    grads = [p.grad.copy() for p in params]
    fd = finite_difference_grads(lambda: forward().item(), params, h=1e-5)
    assert max_rel_error(grads, fd) < 1e-5


def test_loss_curve_written_when_a_step_fails(tmp_path, small_dataset):
    ds = _with_overflow(small_dataset, [0])
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
        pretrain(ds, tiny_cfg(checkpoint_every=1), out_dir=str(tmp_path))
    written = sorted(tmp_path.glob("checkpoint_*.pclm"))
    rows = (tmp_path / "loss_curve.csv").read_text().splitlines()
    assert written
    assert rows[0] == "step,epoch,lr,bn_momentum,loss"
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(len(written)))


def test_run_failing_at_first_step_keeps_earlier_curve(tmp_path, small_dataset):
    pretrain(small_dataset, tiny_cfg(epochs=1), out_dir=str(tmp_path))
    before = (tmp_path / "loss_curve.csv").read_bytes()
    ds = _with_overflow(small_dataset, range(len(small_dataset)))
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="at step 0"):
        pretrain(ds, tiny_cfg(), out_dir=str(tmp_path))
    assert (tmp_path / "loss_curve.csv").read_bytes() == before


@pytest.mark.parametrize("jitter", [False, True])
def test_build_batch_equals_per_cloud_sampler(monkeypatch, seg_dataset, jitter):
    """The batch bytes and the rng state after it, against every cloud
    resampled on its own and stacked."""
    cfg = tiny_cfg(jitter_augment=jitter, transform="crop")
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    batch = build_batch(seg_dataset, cfg, rng)
    monkeypatch.setattr(training, "sample_stack", reference_sample_stack)
    ref = build_batch(seg_dataset, cfg, ref_rng)
    assert [a.tobytes() for a in batch] == [a.tobytes() for a in ref]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_build_batch_reads_equal_size_clouds_as_stored(seg_dataset):
    """Every cloud has points_per_cloud points: the original half is the
    stored clouds at the drawn indices, and the rng ends where drawing only
    the indices and the transform leaves it."""
    cfg = tiny_cfg(points_per_cloud=64)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    orig, trans = build_batch(seg_dataset, cfg, rng)
    idx = ref_rng.choice(len(seg_dataset), size=cfg.pairs_per_batch, replace=False)
    stored = np.stack([seg_dataset[int(i)].points for i in idx])
    ref_trans, _ = transform_stack(stored, cfg.transform_spec, ref_rng)
    assert orig.tobytes() == stored.tobytes()
    assert trans.tobytes() == ref_trans.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_train_checkpoint_tensor_order(tmp_path, seg_dataset):
    """The file holds encoder (w, gamma, beta) per layer, head (w, b), seg
    (w, b), each encoder layer's (running_mean, running_var), then Adam m and
    v; read here without models.load_checkpoint, which shares the order."""
    model, _ = pretrain(seg_dataset, tiny_cfg(epochs=1), objective="seg",
                        out_dir=str(tmp_path))
    data = (tmp_path / "checkpoint_final.pclm").read_bytes()
    (hlen,) = struct.unpack("<I", data[6:10])
    pos, arrays = 10 + hlen, []
    while pos < len(data):
        ndim = data[pos]
        dims = struct.unpack(f"<{ndim}I", data[pos + 1:pos + 1 + 4 * ndim])
        pos += 1 + 4 * ndim
        n = int(np.prod(dims))
        arrays.append(np.frombuffer(data, "<f4", n, pos).reshape(dims))
        pos += 4 * n
    enc = [(3, 8), (8,), (8,), (8, 16), (16,), (16,)]
    dense = [(16, 8), (8,), (8, 4), (4,)] + [(24, 8), (8,), (8, 4), (4,)]
    running = [(8,), (8,), (16,), (16,)]
    assert [a.shape for a in arrays] == enc + dense + running + 2 * (enc + dense)
    layers = model.encoder.layers
    named = ([t.data for l in layers for t in (l.w, l.bn.gamma, l.bn.beta)]
             + [t.data for l in model.head.layers + model.seg.layers for t in (l.w, l.b)]
             + [a for l in layers for a in (l.bn.running_mean, l.bn.running_var)])
    for got, want in zip(arrays, named):
        np.testing.assert_array_equal(got, want)
    m, v = arrays[len(named):len(named) + 14], arrays[len(named) + 14:]
    assert min(a.min() for a in m) < 0 <= min(a.min() for a in v)


@pytest.mark.parametrize("objective", ["cls", "seg"])
def test_pretrain_frees_each_steps_tape_before_the_next_batch(monkeypatch, small_dataset,
                                                              seg_dataset, objective):
    """No activation or interior gradient of a step outlives it: when
    build_batch starts the next step, every interior node's data and grad
    from the last backward is gone."""
    refs, live = [], []
    backward, build_batch = T.backward, training.build_batch

    def tracked_backward(loss):
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        backward(loss)
        refs.extend(weakref.ref(a) for n in nodes.values() if n._backward is not None
                    for a in (n.data, n.grad) if a is not None)

    def checked_build_batch(*args, **kwargs):
        live.append(sum(r() is not None for r in refs))
        refs.clear()
        return build_batch(*args, **kwargs)

    monkeypatch.setattr(T, "backward", tracked_backward)
    monkeypatch.setattr(training, "build_batch", checked_build_batch)
    ds = small_dataset if objective == "cls" else seg_dataset
    _, recs = pretrain(ds, tiny_cfg(epochs=1), objective)
    assert len(live) == len(recs) >= 3 and refs
    assert live == [0] * len(recs)


class _FakeLibc:
    def __init__(self):
        self.calls = []
        self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


@pytest.mark.parametrize("var", [None, "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"])
def test_pin_heap_sets_both_thresholds_unless_the_environment_does(monkeypatch, var):
    """_pin_heap sets glibc's trim and mmap thresholds, and leaves them to
    glibc where either of its environment variables is set."""
    libc = _FakeLibc()
    monkeypatch.setattr(training, "_libc", lambda: libc)
    for name in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"):
        monkeypatch.delenv(name, raising=False)
    if var:
        monkeypatch.setenv(var, "1048576")
    training._pin_heap()
    assert libc.calls == ([] if var else [(-1, training._TRIM_THRESHOLD),
                                          (-3, training._MMAP_THRESHOLD)])


@pytest.mark.parametrize("libc", [None, object()], ids=["no-libc", "no-mallopt"])
def test_pin_heap_skips_a_libc_without_mallopt(monkeypatch, libc):
    monkeypatch.setattr(training, "_libc", lambda: libc)
    for name in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"):
        monkeypatch.delenv(name, raising=False)
    training._pin_heap()
