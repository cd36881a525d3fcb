"""tools/bench.py, the paired-run tool, on two copies of this tree."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", REPO / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", "bench_out")
    for name in ("src", "benchmarks", "tools"):
        shutil.copytree(REPO / name, dest / name, ignore=ignore)
    shutil.copy(REPO / "BENCHMARK.json", dest)
    return dest


def test_smoke_pairs_give_one_row_per_metric(tmp_path):
    """Two pairs of --smoke runs of one workload: four correct runs, two with
    each tree first, and one summary row for every metric they printed."""
    parent, change = _copy_tree(tmp_path / "parent"), _copy_tree(tmp_path / "change")
    proc = subprocess.run(
        [sys.executable, str(parent / "tools" / "bench.py"), "--parent", str(parent),
         "--change", str(change), "--pr", "0", "--workloads", "desk-cls-probe",
         "--seeds", "3", "--pairs", "2", "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads((parent / "BENCH_0.json").read_text())
    runs = out["runs"]
    assert [(r["side"], r["first"]) for r in runs] == [
        ("parent", True), ("change", False), ("change", True), ("parent", False)]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)
    metrics = set(runs[0]["metrics"])
    assert metrics == {m["name"] for m in json.loads(
        (REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    assert sorted(r["metric"] for r in out["rows"]) == sorted(metrics)
    for row in out["rows"]:
        assert (row["workload"], row["seed"], row["pairs"]) == ("desk-cls-probe", 3, 2)
        assert row["parent_q1"] <= row["parent_median"] <= row["parent_q3"]
        assert 0 <= row["change_won"] <= 2
    assert out["quality"] == [{"workload": "desk-cls-probe", "seed": 3, "pairs": 2,
                               "equal_pairs": 2}]
    assert set(out["trees"]) == {"parent", "change"}
    assert set(out["trees"]["parent"]) == {"commit", "dirty"}
    assert out["host"]["nproc"] >= 1 and out["host"]["env"]["MALLOC_TRIM_THRESHOLD_"]


def test_failed_runs_read_no_stale_result(tmp_path):
    """One tree's run.py prints a correct result line but exits 3; the
    other's prints a JSON line that is no result object. Both trees hold a
    stale result.json from an earlier run with equal quality figures.
    Neither run is correct or has quality, the pair is not equal, and the
    tool exits 1."""
    tool = tmp_path / "tool"
    (tool / "tools").mkdir(parents=True)
    shutil.copy(REPO / "tools" / "bench.py", tool / "tools")
    shutil.copy(REPO / "BENCHMARK.json", tool)
    line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {"run_s": {"value": 1.0}}})
    seconds = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
    stubs = {"parent": f"print({line!r}); raise SystemExit(3)", "change": "print('[1]')"}
    for side, body in stubs.items():
        (tmp_path / side / "benchmarks").mkdir(parents=True)
        (tmp_path / side / "benchmarks" / "run.py").write_text(body + "\n")
        stale = tmp_path / side / "bench_out" / "desk-cls-probe" / f"seed3-s{seconds}-trace0"
        stale.mkdir(parents=True)
        (stale / "result.json").write_text(json.dumps({"quality": {"probe": 1.0}}))
    proc = subprocess.run(
        [sys.executable, str(tool / "tools" / "bench.py"), "--parent",
         str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--pr", "0",
         "--workloads", "desk-cls-probe", "--seeds", "3", "--pairs", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    out = json.loads((tool / "BENCH_0.json").read_text())
    assert [(r["side"], r["exit_status"]) for r in out["runs"]] == [("parent", 3),
                                                                     ("change", 0)]
    for r in out["runs"]:
        assert (r["correct"], r["quality"], r["metrics"]) == (False, None, {})
    assert out["quality"][0]["equal_pairs"] == 0
    assert out["rows"] == []


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize("gaps, won, exceeds, claim_met", [
    ([-10.0] * 10, 10, True, True),              # better in every pair, beyond the spread
    ([-10.0] * 9 + [10.0], 9, True, True),       # 9 of 10 is enough
    ([-10.0] * 8 + [10.0] * 2, 8, True, False),  # 8 of 10 is not
    ([-0.5] * 10, 10, False, False),             # every pair, but within the spread
    ([10.0] * 10, 0, True, False),               # as wide a gap, the wrong way
], ids=["all-won", "nine-won", "eight-won", "within-spread", "worse"])
def test_claim_needs_nine_in_ten_and_a_gap_beyond_the_spread(better, gaps, won, exceeds,
                                                             claim_met):
    """Synthetic pairs of one metric, no benchmark run: the parent reads
    10..19 (quartiles 12.25 and 16.75, a spread of 4.5), and each change
    run differs from its pair's parent by the given gap, negative meaning
    better. The median gap is at least 8, or 0.5; the either-way
    gap_exceeds_parent_spread reads true for a worsening too, claim_met
    does not."""
    bench = _bench_module()
    sign = 1.0 if better == "lower" else -1.0
    runs = [({"metrics": {"m": 10.0 + i}}, {"metrics": {"m": 10.0 + i + sign * gap}})
            for i, gap in enumerate(gaps)]
    row = bench.summarise(runs, {"name": "m", "unit": "s", "better": better, "bound": 0.25})
    assert (row["parent_q1"], row["parent_q3"]) == (12.25, 16.75)
    assert row["change_won"] == won
    assert row["gap_exceeds_parent_spread"] is exceeds
    assert row["claim_met"] is claim_met
