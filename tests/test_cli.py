import inspect
import os
import struct
from operator import attrgetter

import numpy as np
import pytest

from pointcl import cli, evaluation, models, training
from pointcl.cli import main
from pointcl.pointcloud import Dataset, load_dataset, save_dataset
from pointcl.training import TrainConfig


def run(args):
    return main(args)


@pytest.fixture
def data_files(tmp_path):
    train = tmp_path / "train.pcds"
    test = tmp_path / "test.pcds"
    assert run(["gen-data", "--classes", "sphere,cube,cylinder,torus",
                "--per-class", "10", "--points", "32", "--seed", "1",
                "--out", str(train)]) == 0
    assert run(["gen-data", "--classes", "sphere,cube,cylinder,torus",
                "--per-class", "5", "--points", "32", "--seed", "2",
                "--split", "test", "--out", str(test)]) == 0
    return train, test


def test_gen_data_counts(tmp_path):
    out = tmp_path / "ds.pcds"
    assert run(["gen-data", "--classes", "sphere,cube", "--per-class", "50",
                "--points", "128", "--seed", "1", "--split", "val",
                "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert len(ds) == 100
    assert ds.split == "val"
    manifest = (out.parent / (out.name + ".manifest.txt")).read_text().splitlines()
    assert "split = val" in manifest


def test_gen_data_split_reads_back(data_files):
    train, test = data_files
    assert load_dataset(train).split == "train"
    assert load_dataset(test).split == "test"


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a.pcds", tmp_path / "b.pcds"
    cmd = ["gen-data", "--classes", "sphere,cube", "--per-class", "10",
           "--points", "64", "--seed", "3"]
    assert run(cmd + ["--out", str(a)]) == 0
    assert run(cmd + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_unknown_class(tmp_path, capsys):
    rc = run(["gen-data", "--classes", "dodecahedron", "--out",
              str(tmp_path / "x.pcds")])
    assert rc == 2


@pytest.mark.parametrize("flags", [["--per-class", "0"], ["--per-class", "-1"],
                                   ["--points", "0"], ["--classes", ""]],
                         ids=["zero-per-class", "negative-per-class", "zero-points",
                              "no-classes"])
def test_gen_data_empty_spec_exit_2_writes_no_file(tmp_path, flags):
    assert run(["gen-data", *flags, "--out", str(tmp_path / "x.pcds")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_pretrain_and_probe(tmp_path, data_files):
    train, test = data_files
    out = tmp_path / "run"
    rc = run(["pretrain", "--data", str(train), "--out", str(out),
              "--pairs", "4", "--epochs", "2", "--points", "32",
              "--encoder-widths", "8,16", "--head-widths", "8,4",
              "--dropout", "0"])
    assert rc == 0
    assert (out / "checkpoint_final.pclm").exists()
    assert (out / "loss_curve.csv").exists()
    assert (out / "resolved_config.txt").exists()

    probe_out = tmp_path / "probe"
    rc = run(["probe", "--train-data", str(train), "--test-data", str(test),
              "--checkpoint", str(out / "checkpoint_final.pclm"),
              "--out", str(probe_out), "--points", "32",
              "--probe-epochs", "20", "--features", "both",
              "--encoder-widths", "8,16", "--head-widths", "8,4"])
    assert rc == 0
    csv = (probe_out / "probe_metrics.csv").read_text().splitlines()
    assert len(csv) == 3  # header + encoder row + head row
    assert (probe_out / "predictions_encoder.csv").exists()
    assert (probe_out / "predictions_head.csv").exists()


def test_finetune_head_init_pair(tmp_path, data_files):
    train, test = data_files
    out = tmp_path / "run"
    run(["pretrain", "--data", str(train), "--out", str(out),
         "--pairs", "4", "--epochs", "1", "--points", "32",
         "--encoder-widths", "8,16", "--head-widths", "8,4", "--dropout", "0"])
    ft = tmp_path / "ft"
    rc = run(["finetune", "--train-data", str(train), "--test-data", str(test),
              "--checkpoint", str(out / "checkpoint_final.pclm"),
              "--out", str(ft), "--points", "32", "--pairs", "4",
              "--finetune-epochs", "1", "--init-head",
              "--encoder-widths", "8,16", "--head-widths", "8,4"])
    assert rc == 0
    rows = (ft / "finetune_metrics.csv").read_text().splitlines()
    assert len(rows) == 3  # header + head-init off + on


def test_config_file_and_override(tmp_path, data_files):
    train, _ = data_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text('transform = "rotate:y:180"\npairs = 4\nepochs = 1\n'
                   "points = 32\ndropout = 0\n"
                   "encoder_widths = 8,16\nhead_widths = 8,4\n")
    out = tmp_path / "run"
    rc = run(["pretrain", "--data", str(train), "--config", str(cfg),
              "--out", str(out), "--epochs", "2"])
    assert rc == 0
    resolved = (out / "resolved_config.txt").read_text()
    assert "epochs = 2" in resolved  # flag overrides file
    assert "transform = rotate:y:180" in resolved


def test_unknown_config_key(tmp_path, data_files):
    train, _ = data_files
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_factor = 9\n")
    rc = run(["pretrain", "--data", str(train), "--config", str(cfg),
              "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bad_transform_exit_2(tmp_path, data_files):
    train, _ = data_files
    rc = run(["pretrain", "--data", str(train), "--out", str(tmp_path / "o"),
              "--transform", "spin:z:10"])
    assert rc == 2


def test_invalid_train_config_exit_2_writes_no_checkpoint(tmp_path, data_files, capsys):
    """A dropout rate or widths that load_checkpoint would reject fail before
    any step, in a message that names the field."""
    train, _ = data_files
    for command, flag, value, message in [
            ("pretrain", "--dropout", "1.5", "dropout_rate must be in [0, 1), got 1.5"),
            ("pretrain", "--head-widths", "0,32", "head_widths must be"),
            ("segment", "--seg-widths", "0,4", "seg_widths must be")]:
        out = tmp_path / flag
        rc = run([command, "--data", str(train), "--out", str(out), flag, value,
                  "--epochs", "1", "--pairs", "4", "--points", "32"])
        assert rc == 2, flag
        assert message in capsys.readouterr().err
        assert not list(out.glob("*.pclm"))


@pytest.mark.parametrize("command, flag, value", [
    ("pretrain", "--lr-init", "nan"),
    ("probe", "--probe-epochs", "-1"),
    ("finetune", "--finetune-epochs", "-1"),
    ("probe", "--seed", "-1")])
def test_bad_rate_or_protocol_epochs_exit_2_writes_nothing(tmp_path, data_files, capsys,
                                                           command, flag, value):
    """Caught before any file is read: a nan lr trained at the floor,
    negative protocol epochs reported an untrained probe or classifier, and
    a negative seed failed in numpy without naming its key."""
    train, test = data_files
    ckpt = tmp_path / "run" / "checkpoint_final.pclm"
    assert run(["pretrain", "--data", str(train), "--out", str(ckpt.parent), "--pairs", "4",
                "--epochs", "1", "--points", "32", "--encoder-widths", "8,16"]) == 0
    data = (["--data", str(train)] if command == "pretrain" else
            ["--train-data", str(train), "--test-data", str(test), "--checkpoint", str(ckpt)])
    out = tmp_path / "bad"
    rc = run([command, *data, "--out", str(out), "--points", "32", flag, value])
    assert rc == 2
    assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
    assert not list(out.glob("*.pclm")) and not list(out.glob("*_metrics.*"))


def test_probe_empty_train_set_exit_2_writes_no_report(tmp_path, data_files, capsys):
    """An empty probe training file is a configuration error that names its
    split, not a numpy concatenate failure."""
    train, test = data_files
    ckpt = tmp_path / "run" / "checkpoint_final.pclm"
    assert run(["pretrain", "--data", str(train), "--out", str(ckpt.parent), "--pairs", "4",
                "--epochs", "1", "--points", "32", "--encoder-widths", "8,16"]) == 0
    empty = tmp_path / "empty.pcds"
    save_dataset(Dataset([], num_classes=load_dataset(train).num_classes), empty)
    out = tmp_path / "probe"
    rc = run(["probe", "--train-data", str(empty), "--test-data", str(test),
              "--checkpoint", str(ckpt), "--out", str(out), "--points", "32"])
    assert rc == 2
    assert "the train set has no clouds" in capsys.readouterr().err
    assert not (out / "probe_metrics.csv").exists()


@pytest.mark.parametrize("command", ["probe", "finetune", "ablate"])
def test_classifying_without_classes_exit_2_writes_no_report(tmp_path, data_files, capsys,
                                                             command):
    """A training file saved with num_classes 0 loads, but no classifier can
    be fit on it: a configuration error naming the split, not a traceback."""
    train, test = data_files
    ckpt = tmp_path / "run" / "checkpoint_final.pclm"
    assert run(["pretrain", "--data", str(train), "--out", str(ckpt.parent), "--pairs", "4",
                "--epochs", "1", "--points", "32", "--encoder-widths", "8,16"]) == 0
    classless = tmp_path / "classless.pcds"
    ds = load_dataset(train)
    ds.num_classes = 0
    save_dataset(ds, classless)
    data = (["--data", str(classless)] if command == "ablate" else
            ["--train-data", str(classless), "--checkpoint", str(ckpt)])
    out = tmp_path / command
    rc = run([command, *data, "--test-data", str(test), "--out", str(out),
              "--points", "32", "--pairs", "4", "--epochs", "1"])
    assert rc == 2
    assert "the train set has a class count of 0" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["probe", "finetune"])
def test_class_count_mismatch_exit_2_reads_no_checkpoint(tmp_path, data_files, capsys,
                                                         monkeypatch, command):
    """A 2-class test file against a 4-class training file is a configuration
    error found before the checkpoint is read."""
    train, _ = data_files
    test = tmp_path / "test_2cls.pcds"
    assert run(["gen-data", "--classes", "sphere,cube", "--per-class", "3", "--points", "32",
                "--split", "test", "--out", str(test)]) == 0

    def called(*args, **kwargs):
        raise AssertionError("checkpoint read before the class-count check")

    monkeypatch.setattr(models, "load_checkpoint", called)
    out = tmp_path / command
    rc = run([command, "--train-data", str(train), "--test-data", str(test),
              "--checkpoint", str(tmp_path / "none.pclm"), "--out", str(out), "--points", "32"])
    assert rc == 2
    assert "class-count mismatch: 4 vs 2" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_probe_nan_checkpoint_exit_1_writes_no_report(tmp_path, data_files, capsys):
    """An encoder with one nan weight gives nan features; the probe names
    them before its first epoch, not as a non-finite gradient in a
    parameter of the probe. The file is broken, not the configuration: a
    runtime failure (exit 1) with a .failed marker."""
    train, test = data_files
    ckpt = tmp_path / "run" / "checkpoint_final.pclm"
    assert run(["pretrain", "--data", str(train), "--out", str(ckpt.parent), "--pairs", "4",
                "--epochs", "1", "--points", "32", "--encoder-widths", "8,16"]) == 0
    model, _ = models.load_checkpoint(ckpt)
    model.encoder.layers[0].w.data[0, 0] = np.nan
    bad = tmp_path / "nan.pclm"
    models.save_checkpoint(model, bad)
    out = tmp_path / "probe"
    rc = run(["probe", "--train-data", str(train), "--test-data", str(test),
              "--checkpoint", str(bad), "--out", str(out), "--points", "32",
              "--probe-epochs", "5"])
    assert rc == 1
    assert ("runtime failure: the probe's features are not finite: 40 of 40 rows"
            in capsys.readouterr().err)
    assert (out / ".failed").read_text().startswith(
        "FloatingPointError: the probe's features are not finite: ")
    assert not (out / "probe_metrics.csv").exists()


@pytest.fixture
def ci_files(tmp_path):
    """The CI's sets, 24 training and 12 test clouds of 32 points, and a
    checkpoint pretrained on the training set."""
    train, test, run_dir = tmp_path / "train.pcds", tmp_path / "test.pcds", tmp_path / "run"
    assert run(["gen-data", "--per-class", "6", "--points", "32", "--out", str(train)]) == 0
    assert run(["gen-data", "--per-class", "3", "--points", "32", "--seed", "1",
                "--split", "test", "--out", str(test)]) == 0
    assert run(["pretrain", "--data", str(train), "--out", str(run_dir), "--pairs", "4",
                "--epochs", "1", "--points", "32", "--encoder-widths", "8,16",
                "--head-widths", "8,4"]) == 0
    return train, test, run_dir / "checkpoint_final.pclm"


def _count_calls(monkeypatch, module, name):
    calls, fn = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_probe_both_sources_encode_each_set_once(tmp_path, ci_files, monkeypatch):
    """probe --features both encodes the training set and the test set once
    each, and export-features --features both its one set once: the head
    source reads the encoder source's features. The probe's instance
    retrieval reads the test set's features too, and encodes only the
    test set's transformed copies."""
    train, test, ckpt = ci_files
    calls = _count_calls(monkeypatch, models, "encode")
    assert run(["probe", "--train-data", str(train), "--test-data", str(test),
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "probe"),
                "--points", "32", "--probe-epochs", "5", "--features", "both"]) == 0
    assert len(calls) == 3
    del calls[:]
    assert run(["export-features", "--data", str(test), "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "features"), "--points", "32",
                "--features", "both"]) == 0
    assert len(calls) == 1
    for source in ("encoder", "head"):
        assert (tmp_path / "features" / f"features_{source}.csv").exists()


def test_finetune_init_head_reads_the_checkpoint_once(tmp_path, ci_files, monkeypatch):
    """finetune --init-head reports two rows from one read of the checkpoint."""
    train, test, ckpt = ci_files
    calls = _count_calls(monkeypatch, models, "load_checkpoint")
    assert run(["finetune", "--train-data", str(train), "--test-data", str(test),
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "finetune"),
                "--points", "32", "--pairs", "4", "--finetune-epochs", "1",
                "--init-head"]) == 0
    assert len(calls) == 1
    rows = (tmp_path / "finetune" / "finetune_metrics.csv").read_text().splitlines()
    assert len(rows) == 3


def test_missing_data_runtime_failure(tmp_path):
    rc = run(["pretrain", "--data", str(tmp_path / "nope.pcds"),
              "--out", str(tmp_path / "o"), "--epochs", "1"])
    assert rc == 1
    assert (tmp_path / "o" / ".failed").exists()


def test_export_features(tmp_path, data_files):
    train, _ = data_files
    out = tmp_path / "run"
    run(["pretrain", "--data", str(train), "--out", str(out),
         "--pairs", "4", "--epochs", "1", "--points", "32",
         "--encoder-widths", "8,16", "--head-widths", "8,4", "--dropout", "0"])
    feat_out = tmp_path / "feats"
    rc = run(["export-features", "--data", str(train),
              "--checkpoint", str(out / "checkpoint_final.pclm"),
              "--out", str(feat_out), "--points", "32"])
    assert rc == 0
    lines = (feat_out / "features_encoder.csv").read_text().splitlines()
    assert len(lines) == 41  # header + 40 samples
    assert lines[0].startswith("id,label,f0")


def test_segment_command(tmp_path):
    train = tmp_path / "seg.pcds"
    run(["gen-data", "--classes", "cylinder,cube", "--per-class", "5",
         "--points", "32", "--seed", "4", "--with-parts", "--out", str(train)])
    out = tmp_path / "segrun"
    rc = run(["segment", "--data", str(train), "--test-data", str(train),
              "--out", str(out), "--pairs", "2", "--epochs", "1",
              "--points", "32", "--probe-epochs", "10",
              "--encoder-widths", "8,16", "--head-widths", "8,4",
              "--seg-widths", "8,4", "--dropout", "0"])
    assert rc == 0
    assert (out / "segmentation_metrics.csv").exists()


@pytest.mark.parametrize("test_args, message", [
    (["--classes", "cylinder,cube"], "the test set has none"),
    (["--classes", "cylinder,cube,sphere", "--with-parts"], "part-count mismatch: 5 vs 7"),
], ids=["no-point-labels", "7-parts-vs-5"])
def test_segment_bad_test_set_exit_2(tmp_path, capsys, test_args, message):
    train, test = tmp_path / "seg.pcds", tmp_path / "test.pcds"
    run(["gen-data", "--classes", "cylinder,cube", "--per-class", "2",
         "--points", "32", "--seed", "4", "--with-parts", "--out", str(train)])
    run(["gen-data", *test_args, "--per-class", "2", "--points", "32",
         "--seed", "5", "--out", str(test)])
    rc = run(["segment", "--data", str(train), "--test-data", str(test),
              "--out", str(tmp_path / "segrun"), "--pairs", "2", "--epochs", "1",
              "--points", "32", "--encoder-widths", "8,16", "--head-widths", "8,4",
              "--seg-widths", "8,4", "--dropout", "0"])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not list((tmp_path / "segrun").glob("*.pclm"))  # failed before pretraining


def test_ablate_suites_shape(tmp_path, data_files):
    train, test = data_files
    for suite, expected_rows in (("table4", 11), ("table5", 5)):
        out = tmp_path / f"ablate_{suite}"
        rc = run(["ablate", "--suite", suite, "--data", str(train),
                  "--test-data", str(test), "--out", str(out),
                  "--pairs", "4", "--epochs", "1", "--points", "32",
                  "--probe-epochs", "10",
                  "--encoder-widths", "8,16", "--head-widths", "8,4",
                  "--dropout", "0"])
        assert rc == 0
        rows = (out / f"ablation_{suite}.csv").read_text().splitlines()
        assert len(rows) == expected_rows + 1


def test_ablate_has_no_train_data_flag(tmp_path, data_files, capsys):
    """ablate pretrains and probes on --data; a --train-data flag would be
    read by nothing, so argparse rejects it."""
    train, test = data_files
    with pytest.raises(SystemExit) as info:
        run(["ablate", "--data", str(train), "--train-data", str(train),
             "--test-data", str(test), "--out", str(tmp_path / "abl")])
    assert info.value.code == 2
    assert "--train-data" in capsys.readouterr().err


def test_segment_train_data_needs_test_data(tmp_path, capsys):
    train = tmp_path / "seg.pcds"
    run(["gen-data", "--classes", "cylinder,cube", "--per-class", "2",
         "--points", "32", "--seed", "4", "--with-parts", "--out", str(train)])
    rc = run(["segment", "--data", str(train), "--train-data", str(train),
              "--out", str(tmp_path / "segrun"), "--pairs", "2", "--epochs", "1",
              "--points", "32", "--encoder-widths", "8,16", "--head-widths", "8,4",
              "--seg-widths", "8,4", "--dropout", "0"])
    assert rc == 2
    assert "needs --test-data" in capsys.readouterr().err
    assert not list((tmp_path / "segrun").glob("*.pclm"))  # failed before pretraining


def test_defaults_agree():
    """TrainConfig, the model constructors and the CLI name the same shape."""
    from pointcl import models
    from pointcl.cli import build_parser, resolve_config
    from pointcl.training import TrainConfig
    cfg = resolve_config(build_parser().parse_args(["pretrain", "--data", "d", "--out", "o"]))
    tc = TrainConfig()
    m = models.ModelParams.create(np.random.default_rng(0), with_seg=True)
    assert cfg["encoder_widths"] == tc.encoder_widths == m.encoder.widths
    assert cfg["head_widths"] == tc.head_widths == m.head.widths
    assert cfg["seg_widths"] == tc.seg_widths == m.seg.widths
    assert cfg["dropout"] == tc.dropout_rate == m.head.dropout_rate
    # the one CLI default that is not the library's: periodic checkpoints
    assert cli._TRAIN_DEFAULTS == TrainConfig(checkpoint_every=100) != tc
    assert cfg["checkpoint_every"] == 100


# Every CLI key -> (a non-default flag value, where the value lands): a
# TrainConfig attribute, or the (command, evaluation function, keyword) that
# each command passes it to.
_KEY_TARGETS = {
    "transform": ("cutout", "transform"),
    "pairs": ("3", "pairs_per_batch"),
    "epochs": ("2", "epochs"),
    "points": ("64", "points_per_cloud"),
    "tau": ("0.5", "loss.tau"),
    "symmetric": ("true", "loss.symmetric"),
    "normalize": ("false", "loss.normalize"),
    "exclude_positive": ("true", "loss.exclude_positive"),
    "lr_init": ("0.01", "lr_init"),
    "lr_floor": ("0.0001", "lr_floor"),
    "lr_decay_gamma": ("0.5", "lr_decay_gamma"),
    "decay_period_steps": ("7", "decay_period_steps"),
    "bn_init": ("0.25", "bn_init"),
    "bn_cap": ("0.9", "bn_cap"),
    "seed": ("5", "seed"),
    "jitter_augment": ("true", "jitter_augment"),
    "encoder_widths": ("4,8", "encoder_widths"),
    "head_widths": ("6,3", "head_widths"),
    "seg_widths": ("6,3", "seg_widths"),
    "dropout": ("0.25", "dropout_rate"),
    "checkpoint_every": ("7", "checkpoint_every"),
    "probe_epochs": ("7", [("probe", "linear_probe_eval", "probe_epochs"),
                           ("segment", "segmentation_eval", "probe_epochs"),
                           ("ablate", "ablate_transforms", "probe_epochs")]),
    "finetune_epochs": ("3", [("finetune", "pretrain_finetune_eval", "finetune_epochs")]),
    "features": ("head", [("probe", "linear_probe_eval", "source"),
                          ("export-features", "extract_features", "source")]),
}

_COMMAND_ARGS = {
    "probe": ["--train-data", "a", "--test-data", "b", "--checkpoint", "c"],
    "finetune": ["--train-data", "a", "--test-data", "b", "--checkpoint", "c"],
    "segment": ["--data", "a", "--test-data", "b"],
    "ablate": ["--data", "a", "--test-data", "b"],
    "export-features": ["--data", "a", "--checkpoint", "c"],
}


class _Reached(Exception):
    pass


def test_every_key_has_a_target():
    assert list(_KEY_TARGETS) == list(cli._SCHEMA)


@pytest.mark.parametrize("key", list(_KEY_TARGETS))
def test_key_default_and_flag_reach_the_library(key, tmp_path, monkeypatch):
    """Each key's default is the library default it maps to (for a
    training key, cli._TRAIN_DEFAULTS's field; test_defaults_agree pins
    how that differs from TrainConfig()), and a non-default flag reaches
    that TrainConfig field or protocol keyword."""
    value, target = _KEY_TARGETS[key]
    parser, default = cli._SCHEMA[key]
    assert parser(value) != default
    flag = [f"--{key.replace('_', '-')}", value]
    if isinstance(target, str):
        assert default == attrgetter(target)(cli._TRAIN_DEFAULTS)
        args = cli.build_parser().parse_args(["pretrain", "--data", "d", "--out", "o"] + flag)
        tc = cli.make_train_config(cli.resolve_config(args))
        assert attrgetter(target)(tc) == parser(value)
        return
    monkeypatch.setattr(cli, "load_dataset", lambda path: None)
    monkeypatch.setattr(models, "load_checkpoint", lambda path: (None, {}))
    monkeypatch.setattr(cli, "pretrain", lambda *a, **k: (None, []))
    monkeypatch.setattr(evaluation, "check_segmentation_sets", lambda *a: None)
    monkeypatch.setattr(evaluation, "_check_classes", lambda *a: None)
    for command, fn, keyword in target:
        assert default == inspect.signature(getattr(evaluation, fn)).parameters[keyword].default
        seen = {}

        def stub(*a, **k):
            seen.update(k)
            raise _Reached

        monkeypatch.setattr(evaluation, fn, stub)
        args = cli.build_parser().parse_args(
            [command, *_COMMAND_ARGS[command], "--out", str(tmp_path)] + flag)
        with pytest.raises(_Reached):
            cli._COMMANDS[command](args, cli.resolve_config(args))
        assert seen[keyword] == parser(value)


@pytest.mark.parametrize("suffix", ["pclm", "pcds"])
def test_truncated_checkpoint_runtime_failure(tmp_path, data_files, capsys, suffix):
    """A truncated checkpoint or dataset file is a runtime failure, not a
    configuration error: exit 1 and a .failed marker naming the file."""
    train, test = data_files
    cut = tmp_path / f"cut.{suffix}"
    out = tmp_path / "out"
    if suffix == "pclm":
        run(["pretrain", "--data", str(train), "--out", str(tmp_path / "run"),
             "--pairs", "4", "--epochs", "1", "--points", "32",
             "--encoder-widths", "8,16", "--head-widths", "8,4", "--dropout", "0"])
        cut.write_bytes((tmp_path / "run" / "checkpoint_final.pclm").read_bytes()[:300])
        rc = run(["probe", "--train-data", str(train), "--test-data", str(test),
                  "--checkpoint", str(cut), "--out", str(out)])
        error, message = "CheckpointError", f"{cut}: truncated at byte 300"
    else:
        cut.write_bytes(train.read_bytes()[:300])
        rc = run(["pretrain", "--data", str(cut), "--out", str(out)])
        error, message = "ParseError", f"{cut}: truncated file reading"
    assert rc == 1
    assert "runtime failure" in capsys.readouterr().err
    failed = (out / ".failed").read_text()
    assert failed.startswith(f"{error}: ")
    assert message in failed


def test_non_finite_dataset_runtime_failure(tmp_path, capsys):
    """A dataset with a NaN coordinate is a corrupt file: exit 1 and a
    .failed marker naming the file, not a configuration error."""
    bad = tmp_path / "nan.pcds"
    bad.write_bytes(b"PCDS" + struct.pack("<HIHHHH", 3, 1, 1, 0, 0, 0)
                    + struct.pack("<IHI", 4, 0, 1) + np.float32([0, np.nan, 0]).tobytes())
    out = tmp_path / "out"
    assert run(["pretrain", "--data", str(bad), "--out", str(out)]) == 1
    assert "runtime failure" in capsys.readouterr().err
    assert (out / ".failed").read_text().startswith(f"ParseError: {bad}: sample 4: ")


@pytest.mark.parametrize("header", [b"{}", b"[1, 2]", b'{"encoder_widths": [0]}'],
                         ids=["empty", "list", "zero-width"])
def test_malformed_checkpoint_header_runtime_failure(tmp_path, data_files, capsys, header):
    """A checkpoint whose header is valid JSON but no model config is a
    runtime failure naming the file, not a configuration error."""
    train, test = data_files
    bad = tmp_path / "bad.pclm"
    bad.write_bytes(b"PCLM" + struct.pack("<HI", models._CKPT_VERSION, len(header)) + header)
    out = tmp_path / "out"
    rc = run(["probe", "--train-data", str(train), "--test-data", str(test),
              "--checkpoint", str(bad), "--out", str(out)])
    assert rc == 1
    assert "runtime failure" in capsys.readouterr().err
    failed = (out / ".failed").read_text()
    assert failed.startswith(f"CheckpointError: {bad}: bad header: ")


def _pretrain_args(data, out, *flags):
    """A 10-step desk pretrain of data_files' 40 training clouds that
    checkpoints every 2 steps."""
    return ["pretrain", "--data", str(data), "--out", str(out), "--pairs", "4",
            "--epochs", "1", "--points", "32", "--encoder-widths", "8,16",
            "--head-widths", "8,4", "--checkpoint-every", "2", *flags]


def test_killed_pretrain_resumes_to_the_uninterrupted_files(tmp_path, data_files,
                                                            monkeypatch):
    """A pretrain stopped by an error in its 6th update, after its second
    periodic checkpoint (step 4), exits 1 with a 5-row loss curve. Resumed
    from that checkpoint with --resume into the same directory, it keeps
    the curve's rows below step 4 and appends the rest: the directory then
    holds the uninterrupted run's files, byte for byte, and no .failed."""
    train, _ = data_files
    whole, out = tmp_path / "whole", tmp_path / "killed"
    assert run(_pretrain_args(train, whole)) == 0
    step, calls = training.adam_step, []

    def killed(*args, **kwargs):
        calls.append(1)
        if len(calls) == 6:
            raise RuntimeError("killed")
        return step(*args, **kwargs)

    monkeypatch.setattr(training, "adam_step", killed)
    assert run(_pretrain_args(train, out)) == 1
    monkeypatch.setattr(training, "adam_step", step)
    assert len((out / "loss_curve.csv").read_text().splitlines()) == 1 + 5
    assert sorted(p.name for p in out.glob("checkpoint_*")) == [
        "checkpoint_000002.pclm", "checkpoint_000004.pclm"]
    assert run(_pretrain_args(train, out, "--resume",
                              str(out / "checkpoint_000004.pclm"))) == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(whole))
    assert {"checkpoint_final.pclm", "loss_curve.csv"} < set(os.listdir(out))
    for name in os.listdir(whole):
        assert (out / name).read_bytes() == (whole / name).read_bytes(), name


@pytest.mark.parametrize("flags, field", [
    (["--encoder-widths", "8,32"], "encoder_widths"),
    (["--head-widths", "8,6"], "head_widths"),
    (["--dropout", "0.25"], "dropout_rate"),
    ([], "seg_widths"),
], ids=["encoder", "head", "dropout", "seg-checkpoint"])
def test_mismatched_resume_exit_2_writes_nothing(tmp_path, data_files, capsys, flags,
                                                 field):
    """--resume with a checkpoint whose model config differs from the
    resolved one (or a segment run's, which has a seg branch) exits 2,
    naming the first differing field, before the output directory is made."""
    train, _ = data_files
    source = tmp_path / "source"
    if field == "seg_widths":
        assert run(["gen-data", "--per-class", "5", "--points", "32", "--with-parts",
                    "--out", str(tmp_path / "parts.pcds")]) == 0
        assert run(["segment", "--data", str(tmp_path / "parts.pcds"), "--out",
                    str(source), "--pairs", "4", "--epochs", "1", "--points", "32",
                    "--encoder-widths", "8,16", "--head-widths", "8,4"]) == 0
    else:
        assert run(_pretrain_args(train, source)) == 0
    capsys.readouterr()
    out = tmp_path / "resumed"
    assert run(_pretrain_args(train, out, "--resume",
                              str(source / "checkpoint_final.pclm"), *flags)) == 2
    assert f"the checkpoint's {field} is" in capsys.readouterr().err
    assert not out.exists()
