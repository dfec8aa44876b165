"""The gathering step of tools/bench_record.py, on fake result files."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

FACTS = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "openblas",
         "blas_version": "0.3", "blas_threads": 2, "commit": "abc123", "size": "full"}


def fake_result(checkout, workload, trace, jobs_per_s, **facts):
    path = bench_record.result_path(checkout, workload, 7, trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"}},
              "facts": {**FACTS, "workload": workload, "seed": 7, **facts}}
    path.write_text(json.dumps(result), encoding="utf-8")
    return path


def test_gather_keeps_machine_and_commit_once(tmp_path):
    paths = {("protocol", 0): fake_result(tmp_path, "protocol", 0, 35.0),
             ("many_gaps", 1): fake_result(tmp_path, "many_gaps", 1, 9000.0)}
    entry = bench_record.gather(paths, 3.0)
    assert entry["commit"] == "abc123"
    assert entry["seconds"] == 3.0
    machine = entry["machine"]
    assert {k: machine[k] for k in ("cpu_count", "numpy", "blas_threads")} == \
        {"cpu_count": 2, "numpy": "2.4.6", "blas_threads": 2}
    assert not set(machine) & {"commit", "workload", "seed", "size"}
    assert set(entry["runs"]) == {"protocol", "many_gaps"}
    protocol = entry["runs"]["protocol"]["trace0"]
    assert protocol["metrics"]["jobs_per_s"]["value"] == 35.0
    assert (protocol["seed"], protocol["size"], protocol["correct"]) == (7, "full", True)
    assert "facts" not in protocol
    assert entry["runs"]["many_gaps"]["trace1"]["metrics"]["jobs_per_s"]["value"] == 9000.0
    json.dumps(entry)  # the entry is written as JSON


def test_gather_refuses_files_from_two_commits(tmp_path):
    paths = {("protocol", 0): fake_result(tmp_path, "protocol", 0, 35.0),
             ("protocol", 1): fake_result(tmp_path, "protocol", 1, 30.0, commit="def456")}
    with pytest.raises(ValueError, match="another machine or commit"):
        bench_record.gather(paths, 3.0)


def test_next_bench_path_follows_the_highest(tmp_path):
    assert bench_record.next_bench_path(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_3.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert bench_record.next_bench_path(tmp_path).name == "BENCH_4.json"
