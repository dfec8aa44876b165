"""The benchmark's own tests; run with ``python3 -m pytest perfbench/selftest.py``.

They sit outside the repository's test suite (the file name does not match
``test_*.py``) because each case runs the benchmark in a subprocess.  Every
workload runs once per trace mode at the reduced size on a seed other than
the default one.
"""

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checkout import use_checkout_source  # noqa: E402

use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 7
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_at_reduced_size(workload, trace):
    done = run_bench("--workload", workload, "--seed", str(HELD_OUT_SEED),
                     "--seconds", "1", "--trace", str(trace), "--size", "small")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    jobs = workloads.N_GAPS[workload]["small"] * (5 if workload != "many_gaps" else 3)
    assert result["attempted"] >= (3 if trace == 0 else 2) * jobs
    assert result["attempted"] % jobs == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace == 0:
        for entry in declared:
            assert result["metrics"][entry["name"]]["value"] > 0, entry["name"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    done = run_bench("--workload", "protocol", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_uninstall_restores_every_wrapped_name():
    from gapgauge import cli, harness
    from gapgauge.imputers.gbt import RegressionTree
    before = (harness.run_evaluation, cli.main, RegressionTree.fit)
    tracer = tracing.Tracer()
    tracer.install()
    assert harness.run_evaluation is not before[0]
    tracer.uninstall()
    assert (harness.run_evaluation, cli.main, RegressionTree.fit) == before
    assert tracer.missing == []


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()

    def child():
        pass

    def worker():
        traced_child()

    traced_child = tracer.wrap("gaps:child", child)

    def parent():
        traced_child()
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    tracer.wrap("harness:parent", parent)()
    spans = {s.name + str(s.thread != threading.get_ident()): s for s in tracer.spans}
    parent_span = spans["harness:parentFalse"]
    assert spans["gaps:childTrue"].parent == parent_span.sid  # worker thread span
    own = tracing.self_times(tracer.spans)
    children = [s for s in tracer.spans if s.parent == parent_span.sid]
    assert len(children) == 2
    covered = sum(s.end - s.start for s in children)
    assert own[parent_span.sid] == (parent_span.end - parent_span.start) - covered
    assert tracing._covered_ns([(0, 10), (5, 20), (30, 40)], 2, 35) == 23


def test_a_name_that_records_no_span_is_reported():
    assert set(tracing.absent_spans([], "many_gaps")) == \
        set(tracing.EXPECTED_SPANS["many_gaps"]) | {"synth:series"}
