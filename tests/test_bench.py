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
    assert set(out["trees"]["parent"]) == {"path", "commit", "dirty"}
    assert out["trees"]["change"]["path"] == str(change.resolve())
    assert out["paths_equal_length"] is True
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


def test_paths_of_unequal_length_warn_and_are_recorded(tmp_path, monkeypatch, capsys):
    """Trees at r38 and r38x, no benchmark run (run_once, git_state and host
    are stubbed): the tool warns on stderr before the runs, records each
    tree's resolved path, and writes paths_equal_length false. Trees at r38
    and r39 write it true, with no warning."""
    bench = _bench_module()
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "git_state", lambda tree: {"commit": None, "dirty": None})
    monkeypatch.setattr(bench, "host", lambda: {})
    runs = []

    def run_once(tree, workload, seed, seconds, smoke):
        runs.append(tree)
        return {"exit_status": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"run_s": 1.0}, "quality": None}

    monkeypatch.setattr(bench, "run_once", run_once)
    for parent, change, equal in (("r38", "r38x", False), ("r38", "r39", True)):
        for name in (parent, change):
            (tmp_path / name / "benchmarks").mkdir(parents=True, exist_ok=True)
            (tmp_path / name / "benchmarks" / "run.py").touch()
        runs.clear()
        assert bench.main(["--parent", str(tmp_path / parent), "--change",
                           str(tmp_path / change), "--pr", "0", "--workloads",
                           "desk-cls-probe", "--seeds", "3", "--pairs", "1"]) == 0
        err = capsys.readouterr().err
        out = json.loads((tmp_path / "BENCH_0.json").read_text())
        assert out["paths_equal_length"] is equal
        assert out["trees"]["parent"]["path"] == str((tmp_path / parent).resolve())
        assert out["trees"]["change"]["path"] == str((tmp_path / change).resolve())
        assert ("paths differ in length" in err) is not equal
        if not equal:
            assert err.index("paths differ in length") < err.index("pair 0")
        assert len(runs) == 2


@pytest.mark.parametrize("change_run, claim_met, status", [
    (lambda i: {}, True, 0),
    (lambda i: {"correct": False, "failed": None, "metrics": {}} if i % 2 else {}, False, 1),
    (lambda i: {"failed": 1}, False, 0),
], ids=["clean", "half-the-runs-failed", "more-failed-operations"])
def test_claim_needs_every_run_correct_and_no_more_failures(tmp_path, monkeypatch,
                                                            change_run, claim_met, status):
    """Ten pairs, no benchmark run (run_once, git_state and host are
    stubbed): the change's run_s is 10 below its pair's parent in every
    pair that has one. The claim is met when every run is correct and
    fails no operation; not when the change's odd-numbered runs fail,
    though it wins every pair left, nor when every change run is correct
    but fails an operation the parent's did not."""
    bench = _bench_module()
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "git_state", lambda tree: {"commit": None, "dirty": None})
    monkeypatch.setattr(bench, "host", lambda: {})
    for side in ("parent", "change"):
        (tmp_path / side / "benchmarks").mkdir(parents=True)
        (tmp_path / side / "benchmarks" / "run.py").touch()
    calls = {"parent": 0, "change": 0}

    def run_once(tree, workload, seed, seconds, smoke):
        side, i = tree.name, calls[tree.name]
        calls[side] += 1
        run = {"exit_status": 0, "correct": True, "attempted": 1, "failed": 0,
               "metrics": {"run_s": 10.0 + i - (10.0 if side == "change" else 0.0)},
               "quality": None}
        return {**run, **change_run(i)} if side == "change" else run

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--pr", "0", "--workloads",
                       "desk-cls-probe", "--seeds", "3", "--pairs", "10"]) == status
    (row,) = json.loads((tmp_path / "BENCH_0.json").read_text())["rows"]
    assert row["metric"] == "run_s" and row["change_won"] == row["pairs"]
    assert row["claim_met"] is claim_met


def test_rows_are_printed_after_the_last_run(tmp_path, monkeypatch, capsys):
    """Two seeds of three pairs, no benchmark run (run_once, git_state and
    host are stubbed): after the last run's line, stderr holds one line per
    workload, seed and metric, with both medians, the parent's quartiles,
    the pairs won and the claim_met and worse_than_bound flags of the row
    written to BENCH_<pr>.json."""
    bench = _bench_module()
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "git_state", lambda tree: {"commit": None, "dirty": None})
    monkeypatch.setattr(bench, "host", lambda: {})
    for side in ("parent", "change"):
        (tmp_path / side / "benchmarks").mkdir(parents=True)
        (tmp_path / side / "benchmarks" / "run.py").touch()
    calls = {"parent": 0, "change": 0}

    def run_once(tree, workload, seed, seconds, smoke):
        i = calls[tree.name] % 3
        calls[tree.name] += 1
        slower = tree.name == "change" and seed == 5
        return {"exit_status": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"run_s": 10.0 + i + (10.0 if slower else 0.0),
                            "peak_rss_mb": 90.0 + i - (5.0 if tree.name == "change" else 0.0)},
                "quality": None}

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--pr", "0", "--workloads",
                       "desk-cls-probe", "--seeds", "3,5", "--pairs", "3"]) == 0
    lines = capsys.readouterr().err.splitlines()
    rows = json.loads((tmp_path / "BENCH_0.json").read_text())["rows"]
    assert len(rows) == 4 and lines[-1].startswith("wrote ")
    printed = lines[-1 - len(rows):-1]
    assert "pair 2" in lines[-2 - len(rows)]
    assert printed == [bench.row_line(row) for row in rows]
    by_key = {(r["seed"], r["metric"]): line for r, line in zip(rows, printed)}
    assert by_key[(3, "peak_rss_mb")] == (
        "desk-cls-probe seed 3 peak_rss_mb: 91 -> 86 MB (parent q1-q3 90.5-91.5), "
        "won 3/3, claim_met=True worse_than_bound=False")
    assert by_key[(5, "run_s")] == (
        "desk-cls-probe seed 5 run_s: 11 -> 21 s (parent q1-q3 10.5-11.5), "
        "won 0/3, claim_met=False worse_than_bound=True")
