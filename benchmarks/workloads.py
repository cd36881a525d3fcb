"""The benchmark's three workloads.

Each run sets up (synthetic data and a fresh model, several times), pretrains
with periodic training checkpoints through ``training.pretrain``, reads the
checkpoints back, runs the workload's evaluation protocol, and then checks
the outputs against the recomputations in ``oracles``.
"""

from __future__ import annotations

import copy
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from pointcl import evaluation, losses, models, pointcloud, training
from pointcl.pointcloud import SyntheticSpec
from pointcl.tensor import Tensor
from pointcl.training import TrainConfig
from pointcl.transforms import parse_transform

import oracles
from instrument import Instrument

CLASSES = ["sphere", "cube", "cylinder", "torus"]


@dataclass(frozen=True)
class Workload:
    name: str
    objective: str           # "cls" or "seg"
    transform: str
    encoder_widths: tuple
    head_widths: tuple
    dropout: float
    # Pretraining steps per second of --seconds: with its checkpoints and
    # evaluations, a run of the code this benchmark was written against
    # lasts about --seconds on a 2-core host.  It fixes the work of a run,
    # so a faster program finishes sooner.
    steps_per_s: float
    # Pretraining runs in this many rounds; each round after the first
    # resumes from the previous round's final checkpoint.  After every round
    # the run reads the checkpoint back and sets up once more, so repeated
    # short events are spread over the run instead of meeting one moment
    # of a host whose speed drifts by 10-40% over seconds.
    rounds: int
    ckpt_every_epochs: float  # periodic training checkpoint interval
    resume_check: bool       # rerun the tail from the last periodic checkpoint
    eval_each_round: bool    # evaluate after every round, or after the last
    probe_features: tuple    # probe feature sources, for the cls workloads


WORKLOADS = {w.name: w for w in (
    Workload("desk-cls-probe", "cls", "rotate:y:180", (32, 64, 128), (64, 32),
             0.0, 20.0, 6, 1.0, False, True, ("encoder", "head")),
    Workload("full-cls-ckpt", "cls", "rotate:y:180",
             tuple(models.FULL_ENCODER_WIDTHS), (512, 256),
             0.7, 1.67, 1, 0.4, True, True, ("encoder",)),
    Workload("desk-seg-smooth", "seg", "smooth", (32, 64, 128), (64, 32),
             0.0, 10.0, 6, 0.5, False, False, ()),
)}


@dataclass(frozen=True)
class Sizes:
    train_per_class: int
    test_per_class: int
    points: int
    pairs: int
    probe_epochs: int
    warmup_steps: int        # first steps of each pretrain call, not timed
    smoke: bool


BENCH = Sizes(200, 50, 128, 16, 100, 3, smoke=False)
SMOKE = Sizes(16, 8, 32, 8, 30, 1, smoke=True)

MIN_PROBE_GAIN = 0.10        # pretrained over random-init encoder probe

# Per-layer metrics of a traced run: (metric, span, phase, unit).  Self time
# is divided by the traced pretraining steps (ms/step), by the evaluation
# passes (ms/eval), by the calls (ms/call) or by the setups (ms/setup).
# The evaluation.* spans report their total time instead: nearly all of it
# is the tensor ops and Adam steps they call, which the metrics otherwise
# count only during pretraining.
OPS = ("add", "scale", "matmul", "transpose", "add_rowvec", "relu", "reshape",
       "concat_last", "broadcast_points", "max_pool_points", "batch_norm",
       "dropout", "softmax_cross_entropy", "l2_normalize_rows", "rows", "slice")
LAYER_METRICS = (
    [(f"tensor.{op}.{d}_ms", f"tensor.{op}.{d}", "pretrain", "ms/step")
     for op in OPS for d in ("fwd", "bwd")]
    + [("tensor.batch_norm_eval.fwd_ms", "tensor.batch_norm_eval.fwd", "eval", "ms/eval")]
    + [(f"{s}_ms", s, "pretrain", "ms/step") for s in (
        "tensor.backward", "losses.cls", "losses.seg", "transforms.rotate",
        "transforms.smooth", "training.build_batch", "training.adam_step",
        "models.encode", "models.project", "models.segment_embed",
        "pointcloud.sample_points")]
    + [(f"{s}_ms", s, None, "ms/call") for s in (
        "training.save_train_checkpoint", "training.load_train_checkpoint",
        "models.save_checkpoint", "models.load_checkpoint")]
    + [("models.encode_eval_ms", "models.encode_eval", "eval", "ms/eval")]
    + [(f"{s}_ms", s, "eval", "ms/eval") for s in (
        "evaluation.extract_features", "evaluation.extract_point_features",
        "evaluation.fit_probe")]
    + [("pointcloud.generate_ms", "pointcloud.generate", "setup", "ms/setup")]
)


def run(name, seed, seconds, trace, sizes, run_dir, t_start):
    """One benchmark run; returns (result line, details for result.json)."""
    inst = Instrument(trace, sizes.warmup_steps)
    try:
        return _run(WORKLOADS[name], seed, seconds, sizes, inst, run_dir, t_start)
    finally:
        inst.restore()


def _setup(w, sizes, seed):
    rng = np.random.default_rng(seed)
    parts = w.objective == "seg"
    train = pointcloud.generate_synthetic_dataset(
        SyntheticSpec(CLASSES, sizes.train_per_class, sizes.points, with_parts=parts), rng)
    test = pointcloud.generate_synthetic_dataset(
        SyntheticSpec(CLASSES, sizes.test_per_class, sizes.points, with_parts=parts,
                      split="test"), rng)
    model = models.ModelParams.create(
        np.random.default_rng(seed + 1), encoder_widths=list(w.encoder_widths),
        head_widths=list(w.head_widths), dropout_rate=w.dropout, with_seg=parts)
    return train, test, model


def _run(w, seed, seconds, sizes, inst, run_dir, t_start):
    ckpt_dir = os.path.join(run_dir, "ckpt")
    final_path = os.path.join(ckpt_dir, "checkpoint_final.pclm")
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    # pretrain() writes periodic checkpoints before it creates out_dir.
    os.makedirs(ckpt_dir)

    with inst.phase("setup"):
        train, test, model = _setup(w, sizes, seed)

    steps_per_epoch = len(train) // sizes.pairs
    per_round = 1 if sizes.smoke else max(
        1, round(seconds * w.steps_per_s / steps_per_epoch / w.rounds))
    epochs = per_round * w.rounds
    every = max(1, int(steps_per_epoch * w.ckpt_every_epochs))
    last_periodic = every * ((epochs * steps_per_epoch - 1) // every)
    plan = [(None if r == 0 else final_path, per_round * (r + 1)) for r in range(w.rounds)]
    if w.resume_check:
        plan.append((os.path.join(ckpt_dir, f"checkpoint_{last_periodic:06d}.pclm"), epochs))
    cfg = TrainConfig(pairs_per_batch=sizes.pairs, epochs=epochs,
                      points_per_cloud=sizes.points, seed=seed, transform=w.transform,
                      encoder_widths=list(w.encoder_widths),
                      head_widths=list(w.head_widths), dropout_rate=w.dropout,
                      checkpoint_every=every)

    rounds, round_trips, evals = [], [], 0
    for r, (resume, end_epoch) in enumerate(plan):
        resume_tail = r >= w.rounds
        first_save = len(inst.saved_paths)
        with inst.phase("pretrain"):
            model, recs = training.pretrain(
                train, replace(cfg, epochs=end_epoch), w.objective, out_dir=ckpt_dir,
                model=model if resume is None else None, resume=resume)
        rounds.append((model, recs))
        saved = inst.last_save
        # Read back every checkpoint a round wrote; the final one must equal
        # the state in memory.  The resumed tail's state is checked against
        # the uninterrupted run instead, which keeps the loads even in number.
        written = [] if resume_tail else sorted(set(inst.saved_paths[first_save:]))
        for path in written:
            with inst.phase("load"):
                loaded = training.load_train_checkpoint(path)
            if path == final_path:
                round_trips.append(_round_trip(saved, loaded))
        if w.eval_each_round or r == len(plan) - 1:
            with inst.phase("eval"):
                if w.objective == "cls":
                    evaluated = _eval_probe(final_path, train, test, sizes, seed,
                                            w.probe_features)
                else:
                    evaluated = _eval_segmentation(model, train, test, sizes, seed)
            evals += 1
        with inst.phase("setup"):
            _setup(w, sizes, seed)

    main_rounds = rounds[:w.rounds]
    records = [rec for _, recs in main_rounds for rec in recs]
    model = main_rounds[-1][0]
    resumed = rounds[-1] if w.resume_check else None
    with inst.phase("check"):
        checks, quality = _checks(w, cfg, sizes, seed, train, test, model, records,
                                  len(round_trips) == w.rounds and all(round_trips),
                                  resumed, evaluated, last_periodic)

    pretrain_steps = sum(len(recs) for _, recs in rounds)
    setups = len(inst.phase_s["setup"])
    attempted = (setups + pretrain_steps + len(inst.save_s) + len(inst.load_s) + evals)
    ckpt_mb = os.path.getsize(final_path) / 1e6
    shutil.rmtree(ckpt_dir)

    if inst.trace:
        metrics = _layer_metrics(inst, evals, setups, pretrain_steps)
        inst.write_spans(os.path.join(run_dir, "spans.jsonl"), t_start)
        with open(os.path.join(run_dir, "layers.txt"), "w") as f:
            f.write(layer_table(inst, evals, setups))
    else:
        step_s = [dt for dt, _ in inst.steps]
        metrics = {
            "setup_s": (statistics.median(inst.phase_s["setup"]), "s"),
            "pretrain_pairs_per_s": (sizes.pairs * pretrain_steps
                                     / sum(inst.phase_s["pretrain"]), "pairs/s"),
            "step_ms_p50": (1e3 * statistics.median(step_s), "ms"),
            "eval_s": (statistics.mean(inst.phase_s["eval"]), "s"),
            "ckpt_mb": (ckpt_mb, "MB"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB"),
            "run_s": (time.perf_counter() - t_start, "s"),
        }
    line = {"correct": all(ok for _, ok, _ in checks), "attempted": attempted,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    details = {"workload": w.name, "seed": seed, "seconds": seconds,
               "trace": inst.trace, "smoke": sizes.smoke, "pretrain_steps": pretrain_steps,
               "timed_steps": len(inst.steps), "checkpoint_every": every,
               "phase_s": dict(inst.phase_s), "save_s": inst.save_s, "load_s": inst.load_s,
               "step_s": [dt for dt, _ in inst.steps],
               "quality": quality,
               "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
               "result": line}
    return line, details


# ---------------------------------------------------------------------------
# Evaluation protocols: the calls `pointcl probe` and `pointcl segment` make
# ---------------------------------------------------------------------------

def _eval_probe(ckpt, train, test, sizes, seed, sources):
    model, _ = models.load_checkpoint(ckpt)
    return {s: evaluation.linear_probe_eval(model, train, test, points_per_cloud=sizes.points,
                                            source=s, probe_epochs=sizes.probe_epochs,
                                            seed=seed)
            for s in sources}


def _eval_segmentation(model, train, test, sizes, seed):
    """segmentation_eval, keeping the per-point predictions it scores."""
    seen = {}
    score = evaluation.segmentation_metrics

    def keep(*args, **kwargs):
        seen["args"] = args
        return score(*args, **kwargs)

    evaluation.segmentation_metrics = keep
    try:
        m = evaluation.segmentation_eval(model, train, test, points_per_cloud=sizes.points,
                                         probe_epochs=sizes.probe_epochs, seed=seed)
    finally:
        evaluation.segmentation_metrics = score
    return m, seen["args"]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _same_state(a, b):
    """Parameters and batch-norm running statistics equal bit for bit."""
    arrays = [(p.data, q.data) for p, q in zip(a.params(), b.params())]
    for la, lb in zip(a.encoder.layers, b.encoder.layers):
        arrays += [(la.bn.running_mean, lb.bn.running_mean),
                   (la.bn.running_var, lb.bn.running_var)]
    return len(a.params()) == len(b.params()) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in arrays)


def _round_trip(saved, loaded):
    """A training checkpoint read back equals the state that was saved."""
    model, opt, rng, step = saved[:4]
    l_model, l_opt, l_rng, l_step = loaded
    return (_same_state(model, l_model) and l_step == step
            and l_opt.step_count == opt.step_count
            and all(np.array_equal(x, y) for x, y in zip(opt.m + opt.v, l_opt.m + l_opt.v))
            and l_rng.bit_generator.state == rng.bit_generator.state)


def _checks(w, cfg, sizes, seed, train, test, model, records, round_trips,
            resumed, evaluated, last_periodic):
    out, quality = [], {}
    tau = cfg.loss.tau

    losses_seen = [r.loss for r in records]
    out.append(("loss finite", all(math.isfinite(v) for v in losses_seen),
                f"{len(losses_seen)} steps, last {losses_seen[-1]:.4f}"))

    out.append(("final checkpoint round-trips bit-exactly after every round", round_trips,
                "params, BN statistics, Adam moments, step, rng state"))

    # A batch from build_batch, embedded by a copy of the trained model in
    # training mode, as in a pretraining step.
    rng = np.random.default_rng(seed + 2)
    orig, trans = training.build_batch(train, cfg, rng)
    n = len(orig)
    m = copy.deepcopy(model)
    g, per_point = models.encode(np.concatenate([orig, trans]), m.encoder, training=True)

    if w.objective == "cls":
        exact = np.array_equal(trans, oracles.rotate_y180(orig))
        out.append(("rotate:y:180 batch equals (-x, y, -z)", exact,
                    f"{n} clouds x {orig.shape[1]} points"))
        z = models.project(g, m.head, training=True, rng=rng,
                           normalize=cfg.loss.normalize).data
        got = losses.contrastive_loss_cls(Tensor(z[:n]), Tensor(z[n:]), cfg.loss).item()
        want = oracles.infonce(z[:n], z[n:], tau)
        out.append(("cloud loss equals float64 InfoNCE", abs(got - want) <= 1e-4,
                    f"{got:.6f} vs {want:.6f}"))
        for source, (metrics, pred, gt) in evaluated.items():
            acc, mca = oracles.accuracy(pred, gt, test.num_classes)
            ok = (acc == metrics.overall_accuracy
                  and abs(mca - metrics.mean_class_accuracy) <= 1e-12)
            out.append((f"{source} probe accuracy equals recount", ok,
                        f"{metrics.overall_accuracy:.4f} vs {acc:.4f}"))
            quality[f"probe_{source}_accuracy"] = metrics.overall_accuracy

    if w.name == "desk-cls-probe":
        spe = len(train) // cfg.pairs_per_batch
        epoch2 = float(np.mean(losses_seen[spe:2 * spe]))
        out.append(("epoch-2 mean loss below ln(pairs)", epoch2 < math.log(cfg.pairs_per_batch),
                    f"{epoch2:.4f} < {math.log(cfg.pairs_per_batch):.4f}"))
        rand = models.ModelParams.create(np.random.default_rng(seed + 3),
                                         encoder_widths=list(w.encoder_widths),
                                         head_widths=list(w.head_widths))
        m_rand, _, _ = evaluation.linear_probe_eval(
            rand, train, test, points_per_cloud=sizes.points,
            probe_epochs=sizes.probe_epochs, seed=seed)
        pre = evaluated["encoder"][0].overall_accuracy
        gain = pre - m_rand.overall_accuracy
        out.append(("pretrained probe beats random-init probe by 10 pp",
                    gain >= MIN_PROBE_GAIN,
                    f"{pre:.4f} vs {m_rand.overall_accuracy:.4f}"))
        quality["probe_random_init_accuracy"] = m_rand.overall_accuracy
        quality["epoch2_mean_loss"] = epoch2

    if w.resume_check:
        r_model, r_records = resumed
        tail = [r.loss for r in records[last_periodic:]]
        ok = _same_state(model, r_model) and tail == [r.loss for r in r_records]
        out.append(("resumed run equals uninterrupted run bit-exactly", ok,
                    f"resumed at step {last_periodic}, {len(r_records)} steps"))

    if w.objective == "seg":
        Z = models.segment_embed(per_point, g, m.seg, training=True,
                                 normalize=cfg.loss.normalize).data
        got = losses.contrastive_loss_seg(Tensor(Z[:n]), Tensor(Z[n:]), cfg.loss).item()
        want = oracles.pointwise_infonce(Z[:n], Z[n:], tau)
        out.append(("point-wise loss equals float64 per-point InfoNCE",
                    abs(got - want) <= 1e-4, f"{got:.6f} vs {want:.6f}"))
        spec = parse_transform(w.transform)
        worst, ties = 0.0, 0
        for p, q in zip(orig, trans):
            want_q, ambiguous = oracles.knn_smooth(p, spec.k, spec.lam)
            worst = max(worst, float(np.abs(q - want_q)[~ambiguous].max()))
            ties += int(ambiguous.sum())
        out.append(("smooth batch equals brute-force k-NN average",
                    worst <= 1e-5 and ties <= orig.shape[1],
                    f"max diff {worst:.2e}, {ties} tied rows skipped"))
        metrics, (preds, gts, classes, ppc) = evaluated
        inst_miou, cls_miou = oracles.miou(preds, gts, classes, ppc)
        ok = (abs(inst_miou - metrics.instance_miou) <= 1e-9
              and abs(cls_miou - metrics.class_miou) <= 1e-9)
        out.append(("instance and class mIoU equal a set-counting recount", ok,
                    f"{metrics.instance_miou:.4f}/{metrics.class_miou:.4f} vs "
                    f"{inst_miou:.4f}/{cls_miou:.4f}"))
        quality["instance_miou"] = metrics.instance_miou
        quality["class_miou"] = metrics.class_miou
    return out, quality


# ---------------------------------------------------------------------------
# Per-layer report of a traced run
# ---------------------------------------------------------------------------

def _layer_metrics(inst, eval_passes, setups, pretrain_steps):
    table = inst.self_times()
    traced = [dt for dt, on in inst.steps if on]
    untraced = [dt for dt, on in inst.steps if not on]
    per_unit = {"pretrain": len(traced), "eval": eval_passes, "setup": setups}
    out = {}
    for metric, span, phase, unit in LAYER_METRICS:
        if phase is None:
            rows = [r for (ph, name), r in table.items() if name == span]
            calls = sum(r[0] for r in rows)
            self_s = sum(r[2] for r in rows)
            out[metric] = (1e3 * self_s / calls if calls else 0.0, unit)
        else:
            column = 1 if span.startswith("evaluation.") else 2
            spent = table[phase, span][column] if (phase, span) in table else 0.0
            out[metric] = (1e3 * spent / per_unit[phase], unit)
    out["tensor.nodes_per_step"] = (inst.counts["pretrain", "tape_nodes"] / len(traced),
                                    "count")
    out["tensor.tape_mb_per_step"] = (inst.counts["pretrain", "tape_bytes"] / len(traced) / 1e6,
                                      "MB")
    out["training.steps"] = (pretrain_steps, "count")
    out["evaluation.fit_probe_rows"] = (inst.counts["eval", "fit_probe_rows"] / eval_passes,
                                        "count")
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0), "%")
    return out


def layer_table(inst, eval_passes, setups):
    """Self time of every span name, per phase, largest first."""
    table = inst.self_times()
    traced = sum(1 for _, on in inst.steps if on)
    units = {"pretrain": (traced, "step"), "eval": (eval_passes, "eval"),
             "setup": (setups, "setup")}
    lines = []
    for phase in ("setup", "pretrain", "load", "eval", "check"):
        rows = sorted(((name, r) for (ph, name), r in table.items() if ph == phase),
                      key=lambda x: -x[1][2])
        if not rows:
            continue
        count, unit = units.get(phase, (1, "run"))
        lines.append(f"\n[{phase}] self time per {unit} over {count} {unit}(s)")
        lines.append(f"{'span':44s} {'calls':>8s} {'total ms':>11s} {'self ms':>11s} "
                     f"{'self ms/' + unit:>14s}")
        for name, (calls, total, self_s) in rows:
            lines.append(f"{name:44s} {calls:8d} {1e3 * total:11.2f} {1e3 * self_s:11.2f} "
                         f"{1e3 * self_s / max(count, 1):14.4f}")
    return "\n".join(lines).lstrip("\n") + "\n"


def write_details(details, run_dir):
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(details, f, indent=1, default=float)
    for c in details["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}",
              file=sys.stderr)
    for k, v in details["quality"].items():
        print(f"  quality {k} = {v:.4f}", file=sys.stderr)
