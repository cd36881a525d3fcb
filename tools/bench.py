"""Paired benchmark runs of two source trees, summarised in BENCH_<pr>.json.

    python3 tools/bench.py --parent ../parent --change . --pr <n> \\
        --workloads desk-cls-probe,full-cls-ckpt --seeds 21,57 --pairs 10

Each run is a fresh process of the tree's own ``benchmarks/run.py`` at
``--trace 0`` and the run length BENCHMARK.json declares (``--smoke`` runs
the tiny sizes instead). For every workload and seed the two trees run in
pairs, and the tree that goes first alternates from pair to pair. Each
child gets glibc's trim and mmap thresholds in its environment, so the
heap layout is fixed before numpy loads.

The result goes to BENCH_<pr>.json beside this tool's BENCHMARK.json. Per
workload, seed and end-to-end metric it holds both medians, the parent's
quartiles, the pairs the change won (ties count for neither side), whether
the median gap in either direction exceeds the parent's quartile spread,
whether a gain is claimed (claim_met: every run of both trees was
correct, the change's runs failed no more operations than the parent's,
the change won at least 9 in 10 of the pairs and its median is better
than the parent's by more than that spread), whether the change's median
is worse than the parent's by more than the metric's bound, and whether
the parent's quartile spread alone exceeds that bound (the metric is
then unresolved). Per workload and seed it counts the pairs whose quality
figures are equal. It also records both trees' resolved paths and
commits, whether the two paths have one length (the length alone moves
peak_rss_mb by about 1 MB, so the tool warns before the runs when they
differ), every run's metrics, quality figures and correct/failed counts,
and the host's CPU count and numpy and BLAS versions. After the last run
it prints each row on stderr as one line: the medians, the parent's
quartiles, the pairs won, claim_met and worse_than_bound. A run that
exits non-zero, or whose last stdout line is not a result object, counts
as failed, with no metrics and no quality. The exit status is 0 when
every run was correct.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAP_ENV = {"MALLOC_TRIM_THRESHOLD_": "268435456", "MALLOC_MMAP_THRESHOLD_": "33554432"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}  # of run.py's last stdout line


def git_state(tree: Path):
    """The tree's HEAD commit and whether its work tree differs from it; both
    None outside a git checkout."""
    def git(*args):
        r = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit is None:
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(git("status", "--porcelain"))}


def paths_equal_length(trees):
    """Whether the trees' paths have one length; a warning on stderr when
    they do not. Identical trees at paths that differ by one character read
    peak_rss_mb about 1 MB apart, as the heap layout follows the path."""
    if len({len(str(tree)) for tree in trees.values()}) == 1:
        return True
    print("warning: the trees' paths differ in length, which alone moves peak_rss_mb: "
          + ", ".join(f"{side} {tree} ({len(str(tree))})" for side, tree in trees.items()),
          file=sys.stderr)
    return False


def run_once(tree: Path, workload, seed, seconds, smoke):
    """One benchmark process; its result line plus the quality figures of
    the result.json it wrote. A run that exits non-zero, or whose last
    stdout line is not a result object, is failed: correct False, with no
    metrics and no quality. The run's result.json is deleted before it
    starts, so an earlier run's file is never read as this one's."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    tag = f"seed{seed}-s{seconds}-trace0" + ("-smoke" if smoke else "")
    result = tree / "bench_out" / workload / tag / "result.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=tree, env={**os.environ, **HEAP_ENV},
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        line = None
    failed = {"exit_status": proc.returncode, "correct": False, "attempted": None,
              "failed": None, "metrics": {}, "quality": None}
    if proc.returncode != 0 or not (isinstance(line, dict) and RESULT_KEYS <= line.keys()):
        return failed
    try:
        quality = json.loads(result.read_text())["quality"]
    except (OSError, ValueError, KeyError):
        quality = None
    return {**failed, "correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()},
            "quality": quality}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(runs, metric):
    """One row from the pairs of one workload and seed: runs is a list of
    (parent run, change run)."""
    pairs = [(p["metrics"].get(metric["name"]), c["metrics"].get(metric["name"]))
             for p, c in runs]
    pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
    if not pairs:
        return None
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    better_by = p_med - c_med if lower else c_med - p_med
    worse_by = -better_by / abs(p_med) if p_med else 0.0
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    won = sum((c < p) if lower else (c > p) for p, c in pairs)
    return {"metric": metric["name"], "unit": metric["unit"], "better": metric["better"],
            "pairs": len(pairs), "parent_median": p_med, "change_median": c_med,
            "parent_q1": q1, "parent_q3": q3, "change_won": won,
            "gap_exceeds_parent_spread": abs(better_by) > q3 - q1,
            "claim_met": 10 * won >= 9 * len(pairs) and better_by > q3 - q1,
            "bound": metric["bound"], "worse_than_bound": worse_by > metric["bound"],
            "parent_spread_exceeds_bound": spread > metric["bound"]}


def row_line(row):
    """One summary row as a line of text: the medians parent -> change, the
    parent's quartiles, the pairs won and the two verdict flags."""
    return (f"{row['workload']} seed {row['seed']} {row['metric']}: "
            f"{row['parent_median']:.4g} -> {row['change_median']:.4g} {row['unit']} "
            f"(parent q1-q3 {row['parent_q1']:.4g}-{row['parent_q3']:.4g}), "
            f"won {row['change_won']}/{row['pairs']}, claim_met={row['claim_met']} "
            f"worse_than_bound={row['worse_than_bound']}")


def runs_clean(paired):
    """Whether every run of both trees was correct and the change's runs
    failed no more operations in all than the parent's; a claim needs it,
    as summarise reads only the pairs whose runs both gave the metric."""
    if not all(p["correct"] and c["correct"] for p, c in paired):
        return False
    return sum(c["failed"] for _, c in paired) <= sum(p["failed"] for p, _ in paired)


def host():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "env": HEAP_ENV}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    ap.add_argument("--change", type=Path, required=True, help="source tree of the change")
    ap.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="comma-separated benchmark seeds")
    ap.add_argument("--pairs", type=int, required=True, help="pairs per workload and seed")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes (run.py --smoke)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in names:
            ap.error(f"unknown workload {w!r}; choose from {names}")
    seeds = [int(s) for s in args.seeds.split(",")]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "benchmarks" / "run.py").is_file():
            ap.error(f"--{side} {tree} has no benchmarks/run.py")
    equal_length = paths_equal_length(trees)
    seconds = spec["run_seconds"]

    runs, rows, quality = [], [], []
    for w in workloads:
        for seed in seeds:
            paired = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    pair[side] = run_once(trees[side], w, seed, seconds, args.smoke)
                    runs.append({"workload": w, "seed": seed, "pair": i, "side": side,
                                 "first": side == order[0], **pair[side]})
                    print(f"{w} seed {seed} pair {i} {side}: correct={pair[side]['correct']} "
                          + " ".join(f"{k}={v:.4g}" for k, v in pair[side]["metrics"].items()),
                          file=sys.stderr)
                paired.append((pair["parent"], pair["change"]))
            quality.append({"workload": w, "seed": seed, "pairs": len(paired),
                            "equal_pairs": sum(p["quality"] is not None
                                               and p["quality"] == c["quality"]
                                               for p, c in paired)})
            clean = runs_clean(paired)
            for metric in spec["end_to_end"]:
                row = summarise(paired, metric)
                if row is not None:
                    row["claim_met"] = row["claim_met"] and clean
                    rows.append({"workload": w, "seed": seed, **row})

    out = {"pr": args.pr, "seconds": seconds, "smoke": args.smoke, "seeds": seeds,
           "pairs": args.pairs, "workloads": workloads,
           "trees": {side: {"path": str(tree), **git_state(tree)}
                     for side, tree in trees.items()},
           "paths_equal_length": equal_length,
           "host": host(), "rows": rows, "quality": quality, "runs": runs}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for row in rows:
        print(row_line(row), file=sys.stderr)
    print(f"wrote {path}", file=sys.stderr)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
