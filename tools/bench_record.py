"""Record one point of the benchmark trajectory as a root ``BENCH_<n>.json``.

Usage (from anywhere)::

    python3 tools/bench_record.py --checkout DIR [--seconds S]

Runs ``perfbench/run.py`` in the checkout ``DIR`` for every workload that
its ``BENCHMARK.json`` declares, ``TRACE0_RUNS`` times at ``--trace 0`` and
once at ``--trace 1``, each at the seed its ``perfbench/reference.json``
records, so the digest gate applies.  Each run writes its result, with the
machine facts and the commit, to ``DIR/perfbench/_out/``; this script only
gathers those results into the next free ``BENCH_<n>.json`` at the root of
the repository that holds it.  Each pass keeps every run's result and the
``{min, median, max}`` of each end-to-end metric over its runs.  ``S`` is
passed through as ``--seconds`` (default 30, as in ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TRACES = (0, 1)
# One run cannot tell a change from machine drift; three show the spread.
TRACE0_RUNS = 3
# Facts that name one run rather than the machine or the commit.
RUN_FACTS = ("workload", "seed", "size")


def result_path(checkout: Path, workload: str, seed: int, trace: int) -> Path:
    return checkout / "perfbench" / "_out" / f"{workload}-seed{seed}-trace{trace}.json"


def summarize(results: list[dict], names) -> dict:
    """``{min, median, max}`` of each named metric over the runs of a pass."""
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if values:
            summary[name] = {"min": min(values), "median": statistics.median(values),
                             "max": max(values)}
    return summary


def gather(results: dict[tuple[str, int], list[dict]], seconds: float,
           end_to_end) -> dict:
    """One trajectory entry from the results of each (workload, trace) pass.

    The machine facts and the commit must be the same in every result; they
    are kept once.  Each pass keeps the rest of every run's result and the
    summary of the ``end_to_end`` metrics over its runs.
    """
    runs: dict[str, dict] = {}
    shared = None
    for (workload, trace), passes in results.items():
        kept = []
        for result in passes:
            result = dict(result)
            facts = result.pop("facts")
            machine = {k: v for k, v in facts.items() if k not in RUN_FACTS}
            if shared is None:
                shared = machine
            elif machine != shared:
                raise ValueError(f"{workload} trace{trace} was run on another machine "
                                 f"or commit: {machine} != {shared}")
            result["seed"], result["size"] = facts["seed"], facts["size"]
            kept.append(result)
        runs.setdefault(workload, {})[f"trace{trace}"] = {
            "runs": kept, "summary": summarize(kept, end_to_end)}
    if shared is None:
        raise ValueError("no result files to gather")
    commit = shared.pop("commit")
    return {"commit": commit, "seconds": seconds,
            "machine": {**shared, "platform": platform.platform()}, "runs": runs}


def next_bench_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    reference = json.loads((checkout / "perfbench" / "reference.json").read_text())
    results, failed = {}, []
    for workload in (w["name"] for w in benchmark["workloads"]):
        seed = reference[workload]["seed"]
        for trace in TRACES:
            for _ in range(TRACE0_RUNS if trace == 0 else 1):
                path = result_path(checkout, workload, seed, trace)
                path.unlink(missing_ok=True)
                done = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(trace)],
                    cwd=checkout, capture_output=True, text=True)
                last = done.stdout.strip().splitlines()[-1:] or [done.stderr.strip()]
                print(f"{workload} trace{trace}: exit {done.returncode} {last[0][:200]}")
                if done.returncode:
                    failed.append(f"{workload} trace{trace}")
                if path.is_file():
                    results.setdefault((workload, trace), []).append(
                        json.loads(path.read_text(encoding="utf-8")))
    entry = gather(results, args.seconds, [m["name"] for m in benchmark["end_to_end"]])
    out = next_bench_path(REPO)
    out.write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}" + (f"; failed runs: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
