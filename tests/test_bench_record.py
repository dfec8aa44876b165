"""tools/bench_record.py on fake run results: gathering, verdicts and the A/B record."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

FACTS = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas",
         "blas_version": "0.3", "blas_threads": 2, "commit": "abc123", "size": "full"}


def fake_result(workload, jobs_per_s, wall_s=1.0, **facts):
    # The file perfbench/run.py writes, as loaded.
    return json.loads(json.dumps(
        {"correct": True, "attempted": 4, "failed": 0,
         "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
                     "wall_s": {"value": wall_s, "unit": "s"},
                     "harness.self_ms": {"value": 2.0, "unit": "ms"}},
         "facts": {**FACTS, "workload": workload, "seed": 7, **facts}}))


def test_gather_keeps_machine_and_commit_once():
    results = {("protocol", 0): [fake_result("protocol", 35.0), fake_result("protocol", 34.0)],
               ("protocol", 1): [fake_result("protocol", 30.0)]}
    side = bench_record.gather(results)
    assert side["commit"] == "abc123"
    machine = side["machine"]
    assert {k: machine[k] for k in ("cpu_count", "numpy", "blas_threads")} == \
        {"cpu_count": 2, "numpy": "2.4.6", "blas_threads": 2}
    assert not set(machine) & {"commit", "workload", "seed", "size"}
    runs = side["runs"]["protocol"]
    assert [r["metrics"]["jobs_per_s"]["value"] for r in runs["trace0"]] == [35.0, 34.0]
    [traced] = runs["trace1"]
    assert (traced["seed"], traced["size"], traced["correct"]) == (7, "full", True)
    assert "facts" not in traced
    assert all("facts" in r for r in results[("protocol", 0)])  # the caller's are left as they were


def test_gather_refuses_files_from_two_commits():
    results = {("protocol", 0): [fake_result("protocol", 35.0),
                                 fake_result("protocol", 34.0, commit="def456")]}
    with pytest.raises(ValueError, match="another machine or commit"):
        bench_record.gather(results)


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
    results = {"base": {("protocol", 0): [fake_result("protocol", 30.0, commit="p", cpu_count=4)]},
               "change": {("protocol", 0): [fake_result("protocol", 31.0, commit="c")]}}
    with pytest.raises(ValueError, match="different machines"):
        bench_record.gather_ab(results, {"protocol": ["base"]}, 3.0, END_TO_END_DECLARED)


def test_gather_ab_refuses_a_traced_result_from_another_commit():
    results = {side: {("protocol", 0): [fake_result("protocol", 30.0, commit=side)],
                      ("protocol", 1): [fake_result("protocol", 30.0, commit=side)]}
               for side in bench_record.SIDES}
    results["change"][("protocol", 1)] = [fake_result("protocol", 30.0, commit="other")]
    with pytest.raises(ValueError, match="protocol trace1 was run on another machine or commit"):
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


def _run_args(argv) -> tuple[str, int]:
    """The workload and the trace of a ``perfbench/run.py`` command line."""
    return argv[argv.index("--workload") + 1], int(argv[argv.index("--trace") + 1])


def _write_result(argv, cwd, result, returncode=0):
    """Write ``result`` where ``perfbench/run.py`` would for ``argv``, as it does."""
    workload, trace = _run_args(argv)
    path = bench_record.result_path(Path(cwd), workload, 7, trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result))
    return subprocess.CompletedProcess(argv, returncode, stdout=f"correct: {result['correct']}\n",
                                       stderr="")


def _ab_main(tmp_path, monkeypatch, fake_run, pairs):
    base, change = _ab_checkout(tmp_path, "base"), _ab_checkout(tmp_path, "change")
    # only the tool's own view of subprocess: platform.platform() runs `uname`
    monkeypatch.setattr(bench_record, "subprocess", SimpleNamespace(run=fake_run))
    monkeypatch.setattr(bench_record, "REPO", tmp_path)
    return bench_record.main(["--checkout", str(change), "--base", str(base),
                              "--pairs", str(pairs), "--seconds", "1"])


def test_main_ab_alternates_the_order_and_writes_both_sides(tmp_path, monkeypatch):
    calls = []

    def fake_run(argv, cwd, **kwargs):
        side, (workload, trace) = Path(cwd).name, _run_args(argv)
        calls.append((workload, side, trace))
        k = calls.count((workload, side, trace))
        rate = 10.0 * k if side == "base" else 10.0 * k + (1.0 if k != 3 else -1.0)
        return _write_result(argv, cwd, fake_result(workload, rate, 1.0 / rate, commit=side))

    assert _ab_main(tmp_path, monkeypatch, fake_run, pairs=4) == 0
    order = ["base", "change", "change", "base"] * 2
    assert [call for call in calls if call[2] == 0] == \
        [(w, side, 0) for w in ("protocol", "many_gaps") for side in order]
    # after each workload's pairs, one traced run per side
    assert calls == [call for w in ("protocol", "many_gaps")
                     for call in [(w, side, 0) for side in order] + [(w, "base", 1), (w, "change", 1)]]
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


def test_main_ab_keeps_each_sides_traced_result_under_per_layer(tmp_path, monkeypatch):
    def fake_run(argv, cwd, **kwargs):
        side, (workload, trace) = Path(cwd).name, _run_args(argv)
        rate = (100.0 if side == "base" else 130.0) + 1000.0 * trace
        return _write_result(argv, cwd, fake_result(workload, rate, commit=side))

    assert _ab_main(tmp_path, monkeypatch, fake_run, pairs=2) == 0
    for doc in json.loads((tmp_path / "BENCH_1.json").read_text())["runs"].values():
        per_layer = doc["per_layer"]
        assert {side: r["metrics"]["jobs_per_s"]["value"] for side, r in per_layer.items()} == \
            {"base": 1100.0, "change": 1130.0}
        assert per_layer["change"]["metrics"]["harness.self_ms"] == {"value": 2.0, "unit": "ms"}
        assert all(r["correct"] and r["seed"] == 7 and "facts" not in r
                   for r in per_layer.values())
        # the pairs hold only the untraced runs
        assert [r["metrics"]["jobs_per_s"]["value"] for r in doc["change"]] == [130.0, 130.0]


def test_main_ab_names_a_failed_traced_run_and_keeps_the_pairs(tmp_path, monkeypatch, capsys):
    def fake_run(argv, cwd, **kwargs):
        side, (workload, trace) = Path(cwd).name, _run_args(argv)
        result = fake_result(workload, 10.0, commit=side)
        if (workload, side, trace) == ("protocol", "change", 1):
            # the traced gate fails: the result is written, the exit is 1
            return _write_result(argv, cwd, {**result, "correct": False}, returncode=1)
        return _write_result(argv, cwd, result)

    assert _ab_main(tmp_path, monkeypatch, fake_run, pairs=2) == 1
    assert "failed runs: protocol change trace1" in capsys.readouterr().out
    runs = json.loads((tmp_path / "BENCH_1.json").read_text())["runs"]
    protocol = runs["protocol"]
    assert len(protocol["base"]) == len(protocol["change"]) == 2
    assert protocol["metrics"]["jobs_per_s"]["pairs"] == 2
    assert set(protocol["per_layer"]) == {"base"}
    assert set(runs["many_gaps"]["per_layer"]) == {"base", "change"}


def test_main_ab_drops_a_failed_pair_and_exits_1(tmp_path, monkeypatch):
    runs = []

    def fake_run(argv, cwd, **kwargs):
        runs.append(Path(cwd).name)
        if len(runs) == 3:  # pair 2's first run fails before writing its result
            return subprocess.CompletedProcess(argv, 1, stdout="", stderr="boom")
        workload, _ = _run_args(argv)
        return _write_result(argv, cwd, fake_result(workload, 10.0, commit=Path(cwd).name))

    assert _ab_main(tmp_path, monkeypatch, fake_run, pairs=3) == 1
    protocol = json.loads((tmp_path / "BENCH_1.json").read_text())["runs"]["protocol"]
    assert protocol["first"] == ["base", "base"]
    assert len(protocol["base"]) == len(protocol["change"]) == 2
    assert protocol["metrics"]["jobs_per_s"]["pairs"] == 2


def test_ab_needs_two_pairs(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main(["--checkout", str(tmp_path), "--base", str(tmp_path),
                           "--pairs", "1"])


def test_base_is_required(tmp_path):
    with pytest.raises(SystemExit) as exited:
        bench_record.main(["--checkout", str(tmp_path)])
    assert exited.value.code == 2


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
    def fake_run(argv, cwd, **kwargs):
        side, (workload, _) = Path(cwd).name, _run_args(argv)
        rate = 100.0 if side == "base" else 130.0
        return _write_result(argv, cwd, fake_result(workload, rate, 1.0 / rate, commit=side))

    assert _ab_main(tmp_path, monkeypatch, fake_run, pairs=2) == 0
    jobs = json.loads((tmp_path / "BENCH_1.json").read_text())["runs"]["many_gaps"]["metrics"]
    assert {k: jobs["jobs_per_s"][k] for k in ("gain", "bound", "within_bound")} == \
        {"gain": True, "bound": 0.25, "within_bound": "within"}
    assert jobs["jobs_per_s"]["base_quartiles"] == [100.0, 100.0]
    printed = capsys.readouterr().out
    assert ("many_gaps jobs_per_s: base 100 [100, 100], change 130 [130, 130]; "
            "won 2 of 2") in printed
    assert "gain rule holds; bound 0.25: within" in printed
