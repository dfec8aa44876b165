"""The gathering step of tools/bench_record.py, on fake run results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

FACTS = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas",
         "blas_version": "0.3", "blas_threads": 2, "commit": "abc123", "size": "full"}


END_TO_END = ("jobs_per_s", "wall_s")


def fake_result(workload, jobs_per_s, wall_s=1.0, **facts):
    # The file perfbench/run.py writes, as loaded.
    return json.loads(json.dumps(
        {"correct": True, "attempted": 4, "failed": 0,
         "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
                     "wall_s": {"value": wall_s, "unit": "s"},
                     "harness.self_ms": {"value": 2.0, "unit": "ms"}},
         "facts": {**FACTS, "workload": workload, "seed": 7, **facts}}))


def test_gather_keeps_machine_and_commit_once():
    results = {("protocol", 0): [fake_result("protocol", 35.0)],
               ("many_gaps", 1): [fake_result("many_gaps", 9000.0)]}
    entry = bench_record.gather(results, 3.0, END_TO_END)
    assert entry["commit"] == "abc123"
    assert entry["seconds"] == 3.0
    machine = entry["machine"]
    assert {k: machine[k] for k in ("cpu_count", "numpy", "blas_threads")} == \
        {"cpu_count": 2, "numpy": "2.4.6", "blas_threads": 2}
    assert not set(machine) & {"commit", "workload", "seed", "size"}
    assert set(entry["runs"]) == {"protocol", "many_gaps"}
    [protocol] = entry["runs"]["protocol"]["trace0"]["runs"]
    assert protocol["metrics"]["jobs_per_s"]["value"] == 35.0
    assert (protocol["seed"], protocol["size"], protocol["correct"]) == (7, "full", True)
    assert "facts" not in protocol
    [many_gaps] = entry["runs"]["many_gaps"]["trace1"]["runs"]
    assert many_gaps["metrics"]["jobs_per_s"]["value"] == 9000.0
    json.dumps(entry)  # the entry is written as JSON


def test_gather_keeps_every_run_and_summarizes_end_to_end_metrics():
    runs = [fake_result("protocol", 30.0, 1.2), fake_result("protocol", 36.0, 0.9),
            fake_result("protocol", 33.0, 1.0)]
    entry = bench_record.gather({("protocol", 0): runs}, 3.0, END_TO_END)
    trace0 = entry["runs"]["protocol"]["trace0"]
    assert [r["metrics"]["jobs_per_s"]["value"] for r in trace0["runs"]] == [30.0, 36.0, 33.0]
    assert trace0["summary"] == {"jobs_per_s": {"min": 30.0, "median": 33.0, "max": 36.0},
                                 "wall_s": {"min": 0.9, "median": 1.0, "max": 1.2}}
    assert all("facts" in r for r in runs)  # the caller's results are left as they were


def test_gather_refuses_files_from_two_commits():
    results = {("protocol", 0): [fake_result("protocol", 35.0),
                                 fake_result("protocol", 34.0, commit="def456")]}
    with pytest.raises(ValueError, match="another machine or commit"):
        bench_record.gather(results, 3.0, END_TO_END)


def test_main_runs_the_untraced_pass_three_times(tmp_path, monkeypatch):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "protocol"}],
         "end_to_end": [{"name": name} for name in END_TO_END]}))
    (checkout / "perfbench" / "reference.json").write_text(json.dumps({"protocol": {"seed": 7}}))
    calls = []

    def fake_run(argv, cwd, **kwargs):
        trace = int(argv[argv.index("--trace") + 1])
        calls.append(trace)
        path = bench_record.result_path(Path(cwd), "protocol", 7, trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(fake_result("protocol", float(len(calls)))))
        return subprocess.CompletedProcess(argv, 0, stdout="correct: true\n", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record, "REPO", tmp_path)
    assert bench_record.main(["--checkout", str(checkout), "--seconds", "1"]) == 0
    assert calls == [0] * bench_record.TRACE0_RUNS + [1] and bench_record.TRACE0_RUNS == 3
    runs = json.loads((tmp_path / "BENCH_1.json").read_text())["runs"]["protocol"]
    assert [r["metrics"]["jobs_per_s"]["value"] for r in runs["trace0"]["runs"]] == [1.0, 2.0, 3.0]
    assert runs["trace0"]["summary"]["jobs_per_s"] == {"min": 1.0, "median": 2.0, "max": 3.0}
    assert len(runs["trace1"]["runs"]) == 1


def test_next_bench_path_follows_the_highest(tmp_path):
    assert bench_record.next_bench_path(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert bench_record.next_bench_path(tmp_path).name == "BENCH_4.json"


END_TO_END_DECLARED = [{"name": "jobs_per_s", "better": "higher", "bound": 0.25},
                       {"name": "wall_s", "better": "lower", "bound": 0.25}]


def test_compare_counts_wins_by_direction_and_takes_quartiles():
    higher = bench_record.compare([10.0, 10.0, 10.0, 10.0, 10.0],
                                  [12.0, 11.0, 9.0, 13.0, 10.0], "higher")
    assert higher["ratios"] == [1.2, 1.1, 0.9, 1.3, 1.0]
    assert (higher["won"], higher["pairs"]) == (3, 5)
    assert higher["median_ratio"] == 1.1
    assert higher["ratio_quartiles"] == pytest.approx([1.0, 1.2])
    assert (higher["base_median"], higher["change_median"]) == (10.0, 11.0)
    lower = bench_record.compare([2.0, 2.0], [1.0, 3.0], "lower")
    assert (lower["won"], lower["median_ratio"]) == (1, 1.0)
    assert lower["ratio_quartiles"] == [0.75, 1.25]


def test_gather_ab_refuses_two_machines():
    results = {"base": {"protocol": [fake_result("protocol", 30.0, commit="p", cpu_count=4)]},
               "change": {"protocol": [fake_result("protocol", 31.0, commit="c")]}}
    with pytest.raises(ValueError, match="different machines"):
        bench_record.gather_ab(results, {"protocol": ["base"]}, 3.0, END_TO_END_DECLARED)


def _ab_checkout(root: Path, name: str) -> Path:
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "protocol"}, {"name": "many_gaps"}],
         "end_to_end": END_TO_END_DECLARED}))
    (checkout / "perfbench" / "reference.json").write_text(json.dumps(
        {"protocol": {"seed": 7}, "many_gaps": {"seed": 7}}))
    return checkout


def test_main_ab_alternates_the_order_and_writes_both_sides(tmp_path, monkeypatch):
    base, change = _ab_checkout(tmp_path, "base"), _ab_checkout(tmp_path, "change")
    calls = []

    def fake_run(argv, cwd, **kwargs):
        side, workload = Path(cwd).name, argv[argv.index("--workload") + 1]
        assert argv[argv.index("--trace") + 1] == "0"
        calls.append((workload, side))
        k = sum(1 for w, s in calls if (w, s) == (workload, side))
        rate = 10.0 * k if side == "base" else 10.0 * k + (1.0 if k != 3 else -1.0)
        path = bench_record.result_path(Path(cwd), workload, 7, 0)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(fake_result(workload, rate, 1.0 / rate, commit=side)))
        return subprocess.CompletedProcess(argv, 0, stdout="correct: true\n", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record, "REPO", tmp_path)
    argv = ["--checkout", str(change), "--base", str(base), "--pairs", "4", "--seconds", "1"]
    assert bench_record.main(argv) == 0
    order = ["base", "change", "change", "base"] * 2
    assert calls == [(w, side) for w in ("protocol", "many_gaps")
                     for side in ["base", "change", "change", "base", "base", "change",
                                  "change", "base"]]
    assert [side for _, side in calls][:8] == order
    entry = json.loads((tmp_path / "BENCH_1.json").read_text())
    assert entry["mode"] == "ab" and entry["commits"] == {"base": "base", "change": "change"}
    assert "commit" not in entry["machine"]
    protocol = entry["runs"]["protocol"]
    assert protocol["first"] == ["base", "change", "base", "change"]
    assert [r["metrics"]["jobs_per_s"]["value"] for r in protocol["base"]] == [10, 20, 30, 40]
    assert [r["metrics"]["jobs_per_s"]["value"] for r in protocol["change"]] == [11, 21, 29, 41]
    jobs = protocol["metrics"]["jobs_per_s"]
    assert jobs["ratios"] == pytest.approx([1.1, 1.05, 29 / 30, 1.025])
    assert (jobs["won"], jobs["pairs"]) == (3, 4)
    assert jobs["median_ratio"] == pytest.approx((1.05 + 1.025) / 2)
    assert protocol["metrics"]["wall_s"]["won"] == 3


def test_main_ab_drops_a_failed_pair_and_exits_1(tmp_path, monkeypatch):
    base, change = _ab_checkout(tmp_path, "base"), _ab_checkout(tmp_path, "change")
    runs = []

    def fake_run(argv, cwd, **kwargs):
        runs.append(Path(cwd).name)
        workload = argv[argv.index("--workload") + 1]
        if len(runs) == 3:  # pair 2's first run fails before writing its result
            return subprocess.CompletedProcess(argv, 1, stdout="", stderr="boom")
        path = bench_record.result_path(Path(cwd), workload, 7, 0)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(fake_result(workload, 10.0, commit=Path(cwd).name)))
        return subprocess.CompletedProcess(argv, 0, stdout="correct: true\n", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record, "REPO", tmp_path)
    argv = ["--checkout", str(change), "--base", str(base), "--pairs", "3", "--seconds", "1"]
    assert bench_record.main(argv) == 1
    protocol = json.loads((tmp_path / "BENCH_1.json").read_text())["runs"]["protocol"]
    assert protocol["first"] == ["base", "base"]
    assert len(protocol["base"]) == len(protocol["change"]) == 2
    assert protocol["metrics"]["jobs_per_s"]["pairs"] == 2


def test_ab_needs_two_pairs(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main(["--checkout", str(tmp_path), "--base", str(tmp_path),
                           "--pairs", "1"])


def _compared(base, change, better="higher", bound=0.25):
    c = bench_record.compare(base, change, better)
    return {**c, **bench_record.verdict(c, better, bound)}


def test_compare_gives_each_sides_median_and_quartiles():
    c = bench_record.compare([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0], "higher")
    assert (c["base_median"], c["base_quartiles"]) == (3.0, [2.0, 4.0])
    assert (c["change_median"], c["change_quartiles"]) == (6.0, [4.0, 8.0])


def test_gain_rule_needs_nine_of_ten_pairs_and_a_gap_beyond_the_base_spread():
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    held = _compared(base, [b * 1.2 for b in base])
    assert held["gain"] and held["won"] == 10 and held["within_bound"] == "within"
    # 8 of 10 pairs won is not enough, however large the medians' gap
    assert not _compared(base, [b * 1.2 for b in base[:8]] + base[8:])["gain"]
    # every pair won, but by less than the base's interquartile range
    assert not _compared(base, [b + 0.5 for b in base])["gain"]
    # lower is better: the change must fall
    assert _compared(base, [b * 0.8 for b in base], "lower")["gain"]
    assert not _compared(base, [b * 1.2 for b in base], "lower")["gain"]


def test_bound_check_reads_worse_unresolved_or_within():
    steady = [100.0, 101.0, 99.0, 100.0, 100.0, 101.0, 99.0, 100.0]
    assert _compared(steady, [90.0] * 8)["within_bound"] == "within"
    assert _compared(steady, [70.0] * 8)["within_bound"] == "worse"
    assert _compared(steady, [130.0] * 8, "lower")["within_bound"] == "worse"
    assert _compared(steady, [96.0] * 8, "lower", bound=0.05)["within_bound"] == "within"
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 100.0, 100.0]
    assert _compared(noisy, [100.0] * 8)["within_bound"] == "unresolved"
    # every change run beats every base run: resolved however wide the spread
    assert _compared(noisy, [150.0] * 8)["within_bound"] == "within"
    assert _compared(noisy, [50.0] * 8, "lower")["within_bound"] == "within"


def test_main_ab_records_and_prints_the_verdicts(tmp_path, monkeypatch, capsys):
    base, change = _ab_checkout(tmp_path, "base"), _ab_checkout(tmp_path, "change")

    def fake_run(argv, cwd, **kwargs):
        side, workload = Path(cwd).name, argv[argv.index("--workload") + 1]
        rate = 100.0 if side == "base" else 130.0
        path = bench_record.result_path(Path(cwd), workload, 7, 0)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(fake_result(workload, rate, 1.0 / rate, commit=side)))
        return subprocess.CompletedProcess(argv, 0, stdout="correct: true\n", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record, "REPO", tmp_path)
    argv = ["--checkout", str(change), "--base", str(base), "--pairs", "2", "--seconds", "1"]
    assert bench_record.main(argv) == 0
    jobs = json.loads((tmp_path / "BENCH_1.json").read_text())["runs"]["many_gaps"]["metrics"]
    assert {k: jobs["jobs_per_s"][k] for k in ("gain", "bound", "within_bound")} == \
        {"gain": True, "bound": 0.25, "within_bound": "within"}
    assert jobs["jobs_per_s"]["base_quartiles"] == [100.0, 100.0]
    printed = capsys.readouterr().out
    assert ("many_gaps jobs_per_s: base 100 [100, 100], change 130 [130, 130]; "
            "won 2 of 2") in printed
    assert "gain rule holds; bound 0.25: within" in printed
