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

Per workload each tree also runs once more, outside the pairs, at the
first seed under tracemalloc (LAUNCHER): traced_peak_mib holds, per
workload and phase, each tree's traced peak above the phase's start. The
figure counts the bytes the program allocates, so unlike peak_rss_mb it
does not move with the heap's layout. It is printed after the rows.

    python3 tools/bench.py --parent ../parent --change . --pr <n> --outputs

--outputs runs no benchmark: it runs one fixed matrix of `pointcl`
commands (output_cases; --smoke runs its small part) on each tree, each
command a fresh process at one BLAS thread under the tree's bench_out/,
and compares the two output trees file by file. The `outputs` section it
writes holds, per file, "equal bytes", the tree a file is missing from,
both sizes of other files that differ, or for a CSV the largest absolute
and relative difference per shared numeric column, the rows whose label
(non-numeric) columns differ and the columns only one tree has. Each
mode keeps the other's keys of a BENCH_<pr>.json already there. The exit
status is 0 when every command of both trees exited 0.
"""

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAP_ENV = {"MALLOC_TRIM_THRESHOLD_": "268435456", "MALLOC_MMAP_THRESHOLD_": "33554432"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}  # of run.py's last stdout line

# run.py under tracemalloc, with the tree as the working directory and
# run.py's arguments after -c: run.py's BLAS variables are set before numpy
# loads, and each phase of the tree's instrument.Instrument resets the
# traced peak as it starts and records it, above its start, as it ends (the
# largest over a phase's entries). The last stdout line is {phase: MiB}.
LAUNCHER = """
import os, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
import contextlib, json, runpy, tracemalloc
tracemalloc.start()
sys.path[:0] = [os.path.abspath("benchmarks"), os.path.abspath("src")]
import instrument
phase, peaks = instrument.Instrument.phase, {}

@contextlib.contextmanager
def traced(self, name):
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    with phase(self, name):
        yield
    peak = (tracemalloc.get_traced_memory()[1] - start) / 2**20
    peaks[name] = max(peaks.get(name, 0.0), peak)

instrument.Instrument.phase = traced
sys.argv = ["benchmarks/run.py"] + sys.argv[1:]
code = 0
try:
    runpy.run_path("benchmarks/run.py", run_name="__main__")
except SystemExit as e:
    code = e.code
print(json.dumps(peaks))
sys.exit(code)
"""


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


def run_child(tree: Path, script, workload, seed, seconds, smoke):
    """One run of the tree's benchmarks/run.py at --trace 0, started by
    script (a path, or ["-c", code]): the process and its last stdout line
    read as JSON, None if it is none."""
    cmd = [sys.executable, *script, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=tree, env={**os.environ, **HEAP_ENV},
                          capture_output=True, text=True)
    try:
        return proc, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return proc, None


def run_once(tree: Path, workload, seed, seconds, smoke):
    """One benchmark process; its result line plus the quality figures of
    the result.json it wrote. A run that exits non-zero, or whose last
    stdout line is not a result object, is failed: correct False, with no
    metrics and no quality. The run's result.json is deleted before it
    starts, so an earlier run's file is never read as this one's."""
    tag = f"seed{seed}-s{seconds}-trace0" + ("-smoke" if smoke else "")
    result = tree / "bench_out" / workload / tag / "result.json"
    result.unlink(missing_ok=True)
    proc, line = run_child(tree, ["benchmarks/run.py"], workload, seed, seconds, smoke)
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


def traced_peaks(tree: Path, workload, seed, seconds, smoke):
    """{phase: MiB} of one run of the tree under LAUNCHER; None when the run
    exits non-zero or prints no table."""
    proc, peaks = run_child(tree, ["-c", LAUNCHER], workload, seed, seconds, smoke)
    return peaks if proc.returncode == 0 and isinstance(peaks, dict) else None


def peak_rows(workload, peaks):
    """traced_peak_mib's rows of one workload from each tree's {phase: MiB}
    (None for a failed run): one per phase either tree recorded, in the
    order the runs entered them."""
    phases = dict.fromkeys(p for side in peaks.values() for p in (side or {}))
    return [{"workload": workload, "phase": p,
             **{side: (table or {}).get(p) for side, table in peaks.items()}} for p in phases]


def peak_line(row):
    return (f"{row['workload']} traced peak {row['phase']}: "
            + " -> ".join("none" if row[side] is None else f"{row[side]:.2f}"
                          for side in ("parent", "change")) + " MiB")


# --outputs: the model widths and point sets of the matrix, by name
WIDTHS = {"w8": ["--encoder-widths", "8,16", "--head-widths", "8,4", "--seg-widths", "8,4"],
          "desk": [],
          "full": ["--encoder-widths", "64,64,64,128,1024", "--head-widths", "512,256"]}
PART_SETS = {"p32": 32, "p40": 40}  # points per stored cloud, read at --points 32


def output_cases(smoke):
    """The --outputs matrix as (case, pointcl arguments), in run order, with
    paths relative to the run's directory: gen-data of 32- and 40-point
    sets with parts and of one without; then, for each width set and part
    set at 32 points (the 40-point set takes the resampling path), and for
    the full widths at 128 points with 4 and 8 pairs, pretrain, probe and
    export-features with --features both, finetune with and without
    --init-head, and segment; then ablate --suite table5. --smoke keeps the
    32-point part sets and, at widths w8, pretrain, probe, export-features,
    finetune --init-head and segment."""
    sets = {"p32": 32} if smoke else PART_SETS
    cases = []
    for name, points in sets.items():
        for split, per_class, seed in (("train", 6, 0), ("test", 3, 1)):
            cases.append((f"data/{name}_{split}", [
                "gen-data", "--per-class", str(per_class), "--points", str(points),
                "--seed", str(seed), "--with-parts", "--split", split,
                "--out", f"data/{name}_{split}.pcds"]))
    if not smoke:
        cases.append(("data/plain_train", ["gen-data", "--per-class", "6", "--points", "32",
                                           "--out", "data/plain_train.pcds"]))
    runs = [(w, s, 32, 4) for w in (["w8"] if smoke else WIDTHS) for s in sets]
    runs += [] if smoke else [("full", "p32", 128, pairs) for pairs in (4, 8)]
    for widths, name, points, pairs in runs:
        case = f"{widths}_{name}_n{points}_b{pairs}"
        train, test = f"data/{name}_train.pcds", f"data/{name}_test.pcds"
        common = ["--points", str(points), "--pairs", str(pairs), *WIDTHS[widths]]
        ckpt = ["--checkpoint", f"{case}/pretrain/checkpoint_final.pclm"]
        cases += [
            (f"{case}/pretrain", ["pretrain", "--data", train, "--epochs", "2", *common]),
            (f"{case}/probe", ["probe", "--train-data", train, "--test-data", test, *ckpt,
                               "--probe-epochs", "20", "--features", "both", *common]),
            (f"{case}/export", ["export-features", "--data", test, *ckpt,
                                "--features", "both", *common])]
        for head in [["--init-head"]] if smoke else [[], ["--init-head"]]:
            cases.append((f"{case}/finetune" + "_head" * bool(head), [
                "finetune", "--train-data", train, "--test-data", test, *ckpt,
                "--finetune-epochs", "1", *head, *common]))
        cases.append((f"{case}/segment", ["segment", "--data", train, "--test-data", test,
                                          "--epochs", "2", *common]))
    if not smoke:
        cases.append(("ablate", ["ablate", "--suite", "table5", "--data", "data/p32_train.pcds",
                                 "--test-data", "data/p32_test.pcds", "--epochs", "1",
                                 "--probe-epochs", "5", "--points", "32", "--pairs", "4",
                                 *WIDTHS["w8"]]))
    # every command but gen-data writes into its case's directory
    return [(case, args if args[0] == "gen-data" else [*args, "--out", case])
            for case, args in cases]


def run_outputs(tree: Path, cases):
    """Every case in its own process of the tree's pointcl at one BLAS
    thread, under a fresh tree/bench_out/outputs; returns that directory
    and the cases that exited non-zero, as {case: exit status}."""
    root = tree / "bench_out" / "outputs"
    shutil.rmtree(root, ignore_errors=True)
    (root / "data").mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    failed = {}
    for case, args in cases:
        proc = subprocess.run([sys.executable, "-m", "pointcl.cli", *args], cwd=root, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            failed[case] = proc.returncode
            print(f"{tree} {case}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    return root, failed


def _number(text):
    """text as a finite float; None for other text (nan and inf too)."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def csv_difference(a: Path, b: Path):
    """How two CSV files differ: both row counts, the columns each has
    alone, the largest absolute and relative difference of each shared
    column whose every value is a finite number in both files, and the
    indices of the rows (both files', up to the shorter) in which a shared
    column of other values differs."""
    def read(path):
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        return (rows[0], rows[1:]) if rows else ([], [])

    (head_a, rows_a), (head_b, rows_b) = read(a), read(b)
    shared = [c for c in head_a if c in head_b]
    pairs = list(zip(rows_a, rows_b))
    numeric, label_rows = {}, set()
    for col in shared:
        i, j = head_a.index(col), head_b.index(col)
        cells = [(r[i] if i < len(r) else "", q[j] if j < len(q) else "") for r, q in pairs]
        values = [(_number(x), _number(y)) for x, y in cells]
        if all(x is not None and y is not None for x, y in values):
            diffs = [abs(x - y) for x, y in values]
            rels = [d / max(abs(x), abs(y)) if d else 0.0 for d, (x, y) in zip(diffs, values)]
            numeric[col] = {"max_abs": max(diffs, default=0.0), "max_rel": max(rels, default=0.0)}
        else:
            label_rows.update(k for k, (x, y) in enumerate(cells) if x != y)
    return {"rows": [len(rows_a), len(rows_b)],
            "parent_only_columns": [c for c in head_a if c not in head_b],
            "change_only_columns": [c for c in head_b if c not in head_a],
            "numeric": numeric, "label_rows": sorted(label_rows)}


def compare_outputs(parent: Path, change: Path):
    """{relative path: "equal bytes" or how the file differs}, for every
    file under either directory, in path order."""
    files = sorted({p.relative_to(root).as_posix() for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    out = {}
    for rel in files:
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            out[rel] = {"only_in": "parent" if a.is_file() else "change"}
        elif a.read_bytes() == b.read_bytes():
            out[rel] = "equal bytes"
        elif rel.endswith(".csv"):
            out[rel] = csv_difference(a, b)
        else:
            out[rel] = {"bytes": [a.stat().st_size, b.stat().st_size]}
    return out


def outputs_section(trees, smoke):
    """Both trees' output matrix, run and compared: the `outputs` section."""
    cases = output_cases(smoke)
    roots, failed = {}, {}
    for side, tree in trees.items():
        roots[side], failed[side] = run_outputs(tree, cases)
    files = compare_outputs(roots["parent"], roots["change"])
    for rel, diff in files.items():
        if diff != "equal bytes":
            print(f"differs: {rel} {json.dumps(diff)}", file=sys.stderr)
    equal = sum(diff == "equal bytes" for diff in files.values())
    print(f"outputs: {equal} of {len(files)} files equal", file=sys.stderr)
    return {"smoke": smoke, "trees": {side: {"path": str(tree), **git_state(tree)}
                                      for side, tree in trees.items()},
            "cases": [[case, *args] for case, args in cases], "failed": failed,
            "equal_files": equal, "files": files}


def write_record(path: Path, out):
    """out's keys written into the JSON record at path, over the keys of a
    record already there, which stay."""
    old = json.loads(path.read_text()) if path.exists() else {}
    path.write_text(json.dumps({**old, **out}, indent=1) + "\n")


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
    ap.add_argument("--workloads", help="comma-separated workload names")
    ap.add_argument("--seeds", help="comma-separated benchmark seeds")
    ap.add_argument("--pairs", type=int, help="pairs per workload and seed")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes (run.py --smoke)")
    ap.add_argument("--outputs", action="store_true",
                    help="compare the CLI outputs of both trees instead of benchmarking")
    args = ap.parse_args(argv)
    path = ROOT / f"BENCH_{args.pr}.json"
    if args.outputs:
        trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        for side, tree in trees.items():
            if not (tree / "src" / "pointcl" / "cli.py").is_file():
                ap.error(f"--{side} {tree} has no src/pointcl/cli.py")
        section = outputs_section(trees, args.smoke)
        write_record(path, {"pr": args.pr, "outputs": section})
        print(f"wrote {path}", file=sys.stderr)
        return 0 if not any(section["failed"].values()) else 1
    if None in (args.workloads, args.seeds, args.pairs):
        ap.error("--workloads, --seeds and --pairs are required without --outputs")
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

    runs, rows, quality, peak_table = [], [], [], []
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
        peak_table += peak_rows(w, {side: traced_peaks(trees[side], w, seeds[0], seconds,
                                                       args.smoke) for side in trees})

    out = {"pr": args.pr, "seconds": seconds, "smoke": args.smoke, "seeds": seeds,
           "pairs": args.pairs, "workloads": workloads,
           "trees": {side: {"path": str(tree), **git_state(tree)}
                     for side, tree in trees.items()},
           "paths_equal_length": equal_length,
           "host": host(), "rows": rows, "quality": quality,
           "traced_peak_mib": peak_table, "runs": runs}
    write_record(path, out)
    for row in rows:
        print(row_line(row), file=sys.stderr)
    for row in peak_table:
        print(peak_line(row), file=sys.stderr)
    print(f"wrote {path}", file=sys.stderr)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
