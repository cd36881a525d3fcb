"""Command-line surface: gen-data, pretrain, probe, finetune, segment,
ablate, export-features.

Each command reads an optional `key = value` configuration file, applies
flag overrides, validates everything against the schema up front, then
writes its artifacts under --out together with the resolved configuration.
Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from operator import attrgetter

import numpy as np

from . import evaluation, models
from .losses import LossConfig
from .pointcloud import (ParseError, SyntheticSpec, generate_synthetic_dataset,
                         load_dataset, save_dataset)
from .training import TrainConfig, pretrain


class ConfigError(ValueError):
    pass


def _parse_bool(s):
    if isinstance(s, bool):
        return s
    if str(s).lower() in ("true", "1", "yes", "on"):
        return True
    if str(s).lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_widths(s):
    return [int(t) for t in str(s).split(",")]


# Training key -> (parser, TrainConfig field); "loss.<name>" is a LossConfig field.
_TRAIN_KEYS = {
    "transform": (str, "transform"),
    "pairs": (int, "pairs_per_batch"),
    "epochs": (int, "epochs"),
    "points": (int, "points_per_cloud"),
    "tau": (float, "loss.tau"),
    "symmetric": (_parse_bool, "loss.symmetric"),
    "normalize": (_parse_bool, "loss.normalize"),
    "exclude_positive": (_parse_bool, "loss.exclude_positive"),
    "lr_init": (float, "lr_init"),
    "lr_floor": (float, "lr_floor"),
    "lr_decay_gamma": (float, "lr_decay_gamma"),
    "decay_period_steps": (int, "decay_period_steps"),
    "bn_init": (float, "bn_init"),
    "bn_cap": (float, "bn_cap"),
    "seed": (int, "seed"),
    "jitter_augment": (_parse_bool, "jitter_augment"),
    "encoder_widths": (_parse_widths, "encoder_widths"),
    "head_widths": (_parse_widths, "head_widths"),
    "seg_widths": (_parse_widths, "seg_widths"),
    "dropout": (float, "dropout_rate"),
}

_TRAIN_DEFAULTS = TrainConfig()

# key -> (parser, default); the single source of truth for the CLI's keys.
_SCHEMA = {
    **{key: (parser, attrgetter(name)(_TRAIN_DEFAULTS))
       for key, (parser, name) in _TRAIN_KEYS.items()},
    "probe_epochs": (int, evaluation.PROBE_EPOCHS),
    "finetune_epochs": (int, evaluation.FINETUNE_EPOCHS),
    "features": (str, "encoder"),
}


def read_config_file(path) -> dict:
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = s.partition("=")
            key, val = key.strip(), val.strip().strip('"')
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            parser, _ = _SCHEMA[key]
            try:
                out[key] = parser(val)
            except (ValueError, TypeError) as e:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}")
    return out


def resolve_config(args) -> dict:
    cfg = {k: d for k, (_, d) in _SCHEMA.items()}
    if getattr(args, "config", None):
        cfg.update(read_config_file(args.config))
    for key, (parser, _) in _SCHEMA.items():
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = parser(flag) if isinstance(flag, str) else flag
    # validate every key before any work, whichever keys the command reads
    evaluation.feature_sources(cfg["features"])
    make_train_config(cfg)
    for kind in ("probe", "finetune"):
        evaluation._check_epochs(kind, cfg[f"{kind}_epochs"])
    return cfg


def make_train_config(cfg) -> TrainConfig:
    fields = {name: cfg[key] for key, (_, name) in _TRAIN_KEYS.items()}
    loss = {n.removeprefix("loss."): fields.pop(n)
            for n in list(fields) if n.startswith("loss.")}
    return TrainConfig(loss=LossConfig(**loss), **fields)


def write_resolved_config(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.txt"), "w") as f:
        for k in sorted(cfg):
            v = cfg[k]
            if isinstance(v, list):
                v = ",".join(str(x) for x in v)
            f.write(f"{k} = {v}\n")


_HELP = {
    "probe_epochs": "Adam epochs of the classification probe; the segmentation probe "
                    "is fit in closed form and does not read it",
}


def _add_common(sp):
    sp.add_argument("--config", help="key = value configuration file")
    sp.add_argument("--out", required=True, help="output directory")
    for key in _SCHEMA:
        sp.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                        help=_HELP.get(key))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pointcl",
        description="Unsupervised contrastive representation learning for point clouds")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--classes", default="sphere,cube,cylinder,torus")
    g.add_argument("--per-class", type=int, default=SyntheticSpec.per_class)
    g.add_argument("--points", type=int, default=SyntheticSpec.points_per_cloud)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--with-parts", action="store_true")
    g.add_argument("--split", default="train")
    g.add_argument("--out", required=True)

    for name, helptext in [
        ("pretrain", "unsupervised contrastive pretraining"),
        ("probe", "frozen linear-probe evaluation"),
        ("finetune", "pretraining evaluation (supervised finetune)"),
        ("segment", "point-wise pretraining / segmentation evaluation"),
        ("ablate", "transformation ablation sweeps"),
        ("export-features", "dump frozen features for every sample"),
    ]:
        sp = sub.add_parser(name, help=helptext)
        _add_common(sp)
        if name in ("pretrain", "segment"):
            sp.add_argument("--data", required=True, help="training dataset file")
        if name in ("probe", "finetune", "segment"):
            sp.add_argument("--train-data", required=name != "segment")
        if name in ("probe", "finetune", "segment", "ablate"):
            sp.add_argument("--test-data", required=name != "segment")
        if name in ("probe", "finetune", "export-features"):
            sp.add_argument("--checkpoint", required=True)
        if name == "export-features":
            sp.add_argument("--data", required=True)
        if name == "ablate":
            sp.add_argument("--suite", choices=["table4", "table5"], default="table4")
            sp.add_argument("--data", required=True)
        if name == "finetune":
            sp.add_argument("--init-head", action="store_true")
    return ap


def cmd_gen_data(args):
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    spec = SyntheticSpec(classes=classes, per_class=args.per_class,
                         points_per_cloud=args.points, with_parts=args.with_parts,
                         split=args.split)
    ds = generate_synthetic_dataset(spec, np.random.default_rng(args.seed))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    save_dataset(ds, args.out)
    manifest = args.out + ".manifest.txt"
    with open(manifest, "w") as f:
        f.write(f"samples = {len(ds)}\nclasses = {','.join(classes)}\n"
                f"per_class = {args.per_class}\npoints = {args.points}\n"
                f"num_parts = {ds.num_parts}\nseed = {args.seed}\n"
                f"split = {args.split}\n")
    print(f"wrote {len(ds)} samples to {args.out}")


def cmd_pretrain(args, cfg):
    ds = load_dataset(args.data)
    tc = make_train_config(cfg)
    model, records = pretrain(ds, tc, objective="cls", out_dir=args.out)
    print(f"pretrained {len(records)} steps; final loss "
          f"{records[-1].loss:.4f}" if records else "no steps run")
    print(f"checkpoint: {os.path.join(args.out, 'checkpoint_final.pclm')}")


def cmd_probe(args, cfg):
    train_ds, test_ds = load_dataset(args.train_data), load_dataset(args.test_data)
    evaluation._check_classes(train_ds, test_ds)  # before the checkpoint is read
    model, _ = models.load_checkpoint(args.checkpoint)
    rows = []
    for source in evaluation.feature_sources(cfg["features"]):
        m, pred, gt = evaluation.linear_probe_eval(
            model, train_ds, test_ds, points_per_cloud=cfg["points"],
            source=source, probe_epochs=cfg["probe_epochs"], seed=cfg["seed"])
        rows.append(m.row())
        _dump_predictions(pred, gt, test_ds,
                          os.path.join(args.out, f"predictions_{source}.csv"))
    # the test set the probes read (seed + 1), so its encode is reused
    top1 = evaluation.instance_retrieval(model, test_ds, cfg["transform"],
                                         points_per_cloud=cfg["points"],
                                         seed=cfg["seed"] + 1)
    _emit_report([{**r, "instance_retrieval": top1} for r in rows], args.out,
                 "probe_metrics")


def cmd_finetune(args, cfg):
    train_ds, test_ds = load_dataset(args.train_data), load_dataset(args.test_data)
    evaluation._check_classes(train_ds, test_ds)  # before the checkpoint is read
    tc = make_train_config(cfg)
    model, _ = models.load_checkpoint(args.checkpoint)
    rows = []
    for init_head in ([False, True] if args.init_head else [False]):
        m = evaluation.pretrain_finetune_eval(
            model, train_ds, test_ds, tc,
            finetune_epochs=cfg["finetune_epochs"], init_head=init_head)
        rows.append(m.row())
    _emit_report(rows, args.out, "finetune_metrics")


def cmd_segment(args, cfg):
    if args.train_data and not args.test_data:
        raise ConfigError("--train-data is the segmentation probe's training set; "
                          "it needs --test-data")
    ds = load_dataset(args.data)
    if args.test_data:  # checked before pretraining, which a bad set would waste
        train_ds = load_dataset(args.train_data) if args.train_data else ds
        test_ds = load_dataset(args.test_data)
        evaluation.check_segmentation_sets(train_ds, test_ds)
    tc = make_train_config(cfg)
    model, records = pretrain(ds, tc, objective="seg", out_dir=args.out)
    if args.test_data:
        m = evaluation.segmentation_eval(model, train_ds, test_ds,
                                         points_per_cloud=cfg["points"],
                                         probe_epochs=cfg["probe_epochs"],
                                         seed=cfg["seed"])
        _emit_report([m.row()], args.out, "segmentation_metrics")


def cmd_ablate(args, cfg):
    train_ds, test_ds = load_dataset(args.data), load_dataset(args.test_data)
    tc = make_train_config(cfg)
    suite = (evaluation.TABLE4_SUITE if args.suite == "table4"
             else evaluation.TABLE5_SUITE)
    rows = evaluation.ablate_transforms(train_ds, test_ds, tc, suite,
                                        probe_epochs=cfg["probe_epochs"])
    _emit_report(rows, args.out, f"ablation_{args.suite}")


def cmd_export_features(args, cfg):
    ds = load_dataset(args.data)
    model, _ = models.load_checkpoint(args.checkpoint)
    os.makedirs(args.out, exist_ok=True)
    for source in evaluation.feature_sources(cfg["features"]):
        feats, labels = evaluation.extract_features(
            model, ds, cfg["points"], seed=cfg["seed"], source=source)
        out = os.path.join(args.out, f"features_{source}.csv")
        with open(out, "w") as f:
            f.write("id,label," + ",".join(f"f{i}" for i in range(feats.shape[1])) + "\n")
            for pc, y, row in zip(ds.samples, labels, feats):
                f.write(f"{pc.id},{y}," + ",".join(f"{v:.8g}" for v in row) + "\n")
        print(f"wrote {feats.shape[0]}x{feats.shape[1]} features to {out}")


def _dump_predictions(pred, gt, ds, path):
    with open(path, "w") as f:
        f.write("id,gt,pred\n")
        for pc, g, p in zip(ds.samples, gt, pred):
            f.write(f"{pc.id},{g},{p}\n")


def _emit_report(rows, out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    evaluation.write_report_csv(rows, os.path.join(out_dir, f"{name}.csv"))
    text = evaluation.format_report(rows)
    with open(os.path.join(out_dir, f"{name}.txt"), "w") as f:
        f.write(text)
    print(text, end="")


_COMMANDS = {"pretrain": cmd_pretrain, "probe": cmd_probe, "finetune": cmd_finetune,
             "segment": cmd_segment, "ablate": cmd_ablate,
             "export-features": cmd_export_features}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = getattr(args, "out", None)
    failed_marker = os.path.join(out_dir, ".failed") if out_dir else None
    try:
        if args.command == "gen-data":
            cmd_gen_data(args)
            return 0
        cfg = resolve_config(args)
        if out_dir:
            write_resolved_config(cfg, out_dir)
        _COMMANDS[args.command](args, cfg)
        if failed_marker and os.path.exists(failed_marker):
            os.remove(failed_marker)
        return 0
    except Exception as e:
        # ConfigError is a ValueError; so are CheckpointError and ParseError,
        # but an unreadable file is a runtime failure.
        if (isinstance(e, ValueError)
                and not isinstance(e, (models.CheckpointError, ParseError))):
            print(f"configuration error: {e}", file=sys.stderr)
            return 2
        if failed_marker and os.path.isdir(out_dir):
            with open(failed_marker, "w") as f:
                f.write(f"{type(e).__name__}: {e}\n")
        traceback.print_exc()
        print(f"runtime failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
