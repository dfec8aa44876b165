"""Record one point of the benchmark trajectory as a root ``BENCH_<n>.json``.

Usage (from anywhere)::

    python3 tools/bench_record.py --checkout DIR [--seconds S]

Runs ``perfbench/run.py`` in the checkout ``DIR`` for every workload that
its ``BENCHMARK.json`` declares, once at ``--trace 0`` and once at
``--trace 1``, each at the seed its ``perfbench/reference.json`` records, so
the digest gate applies.  Each run writes its result, with the machine facts
and the commit, to ``DIR/perfbench/_out/``; this script only gathers those
files into the next free ``BENCH_<n>.json`` at the root of the repository
that holds it.  ``S`` is passed through as ``--seconds`` (default 30, as in
``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TRACES = (0, 1)
# Facts that name one run rather than the machine or the commit.
RUN_FACTS = ("workload", "seed", "size")


def result_path(checkout: Path, workload: str, seed: int, trace: int) -> Path:
    return checkout / "perfbench" / "_out" / f"{workload}-seed{seed}-trace{trace}.json"


def gather(paths: dict[tuple[str, int], Path], seconds: float) -> dict:
    """One trajectory entry from the result files of (workload, trace) runs.

    The machine facts and the commit must be the same in every file; they
    are kept once, and each run keeps the rest of its result.
    """
    runs: dict[str, dict] = {}
    shared = None
    for (workload, trace), path in paths.items():
        result = json.loads(path.read_text(encoding="utf-8"))
        facts = result.pop("facts")
        machine = {k: v for k, v in facts.items() if k not in RUN_FACTS}
        if shared is None:
            shared = machine
        elif machine != shared:
            raise ValueError(f"{path} was run on another machine or commit: "
                             f"{machine} != {shared}")
        result["seed"], result["size"] = facts["seed"], facts["size"]
        runs.setdefault(workload, {})[f"trace{trace}"] = result
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
    workloads = [w["name"] for w in
                 json.loads((checkout / "BENCHMARK.json").read_text())["workloads"]]
    reference = json.loads((checkout / "perfbench" / "reference.json").read_text())
    paths, failed = {}, []
    for workload in workloads:
        seed = reference[workload]["seed"]
        for trace in TRACES:
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
                paths[workload, trace] = path
    entry = gather(paths, args.seconds)
    out = next_bench_path(REPO)
    out.write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}" + (f"; failed runs: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
