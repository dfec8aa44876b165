"""Record one point of the benchmark trajectory as a root ``BENCH_<n>.json``.

Usage (from anywhere)::

    python3 tools/bench_record.py --checkout DIR [--seconds S]
    python3 tools/bench_record.py --checkout DIR --base BASE [--pairs K] [--seconds S]

Runs ``perfbench/run.py`` in the checkout ``DIR`` for every workload that
its ``BENCHMARK.json`` declares, each at the seed its
``perfbench/reference.json`` records, so the digest gate applies.  Each run
writes its result, with the machine facts and the commit, to
``DIR/perfbench/_out/``; this script only gathers those results into the
next free ``BENCH_<n>.json`` at the root of the repository that holds it.
``S`` is passed through as ``--seconds`` (default 30, as in
``BENCHMARK.json``).

One-commit mode runs ``TRACE0_RUNS`` times at ``--trace 0`` and once at
``--trace 1``.  Each pass keeps every run's result and the
``{min, median, max}`` of each end-to-end metric over its runs.

A/B mode (``--base``) compares the checkout ``BASE`` (the parent) with
``DIR`` (the change).  For each workload it runs ``K`` pairs (default 10)
at ``--trace 0``, base and change as separate processes one after the
other, the base first in every other pair, so that drift of the machine
falls on both sides alike.  Both sides must share the workloads, the seeds
and the machine.  Per workload and end-to-end metric the entry keeps each
pair's ratio change / base, the number of pairs the change won (by the
metric's ``better`` direction), the median ratio with its quartiles, each
side's median and quartiles, and a verdict printed per (workload, metric):

* ``gain``: the gain rule holds.  The change won at least 9 of every 10
  pairs, and its median beats the base's by more than the distance between
  the base's quartiles.
* ``bound``: ``within`` when the change's median is no worse than the
  base's by more than the metric's ``BENCHMARK.json`` bound (a fraction of
  the base median), ``worse`` when it is, and ``unresolved`` when it is not
  worse but the base's interquartile range is wider than the bound, unless
  every change run beats every base run.
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
AB_PAIRS = 10
# Facts that name one run rather than the machine or the commit.
RUN_FACTS = ("workload", "seed", "size")
SIDES = ("base", "change")


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


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]`` (``statistics.quantiles``, inclusive)."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else list(values) * 3


def compare(base: list[float], change: list[float], better: str) -> dict:
    """Each pair's ratio change / base, the pairs the change won, the median
    ratio with its quartiles, and each side's median and quartiles."""
    ratios = [c / b for b, c in zip(base, change, strict=True)]
    won = sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))
    q1, median, q3 = quartiles(ratios)
    (b1, base_median, b3), (c1, change_median, c3) = quartiles(base), quartiles(change)
    return {"base": base, "change": change, "ratios": ratios, "won": won,
            "pairs": len(ratios), "median_ratio": median, "ratio_quartiles": [q1, q3],
            "base_median": base_median, "base_quartiles": [b1, b3],
            "change_median": change_median, "change_quartiles": [c1, c3]}


def verdict(c: dict, better: str, bound: float) -> dict:
    """The gain rule and the bound check of one :func:`compare` result."""
    higher = better == "higher"
    gained = (c["change_median"] - c["base_median"]) * (1 if higher else -1)
    spread = c["base_quartiles"][1] - c["base_quartiles"][0]
    beats_every_run = (min(c["change"]) > max(c["base"]) if higher
                       else max(c["change"]) < min(c["base"]))
    if gained < -bound * abs(c["base_median"]):
        within = "worse"
    elif spread > bound * abs(c["base_median"]) and not beats_every_run:
        within = "unresolved"
    else:
        within = "within"
    return {"gain": 10 * c["won"] >= 9 * c["pairs"] and gained > spread,
            "bound": bound, "within_bound": within}


def gather_ab(results: dict[str, dict[str, list[dict]]], first: dict[str, list[str]],
              seconds: float, end_to_end: list[dict]) -> dict:
    """One A/B entry from ``results[side][workload]``, the results of the
    pairs in pair order, and ``first[workload]``, the side that ran first
    in each pair.  Each side must come from one commit, both from one
    machine, and every workload must hold as many results on both sides."""
    sides = {side: gather({(w, 0): r for w, r in results[side].items()}, seconds,
                          [m["name"] for m in end_to_end]) for side in SIDES}
    if sides["base"]["machine"] != sides["change"]["machine"]:
        raise ValueError(f"base and change were run on different machines: "
                         f"{sides['base']['machine']} != {sides['change']['machine']}")
    runs = {}
    for workload in results["change"]:
        pair = {side: sides[side]["runs"][workload]["trace0"]["runs"] for side in SIDES}
        metrics = {}
        for metric in end_to_end:
            name = metric["name"]
            base, change = ([r["metrics"][name]["value"] for r in pair[side]] for side in SIDES)
            c = compare(base, change, metric["better"])
            metrics[name] = {**c, **verdict(c, metric["better"], metric["bound"])}
        runs[workload] = {"first": first[workload], **pair, "metrics": metrics}
    return {"mode": "ab", "seconds": seconds, "trace": 0,
            "commits": {side: sides[side]["commit"] for side in SIDES},
            "machine": sides["change"]["machine"], "runs": runs}


def next_bench_path(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
             label: str = "") -> tuple[dict | None, bool]:
    """One ``perfbench/run.py`` process: its result file, if it wrote one,
    and whether it failed."""
    path = result_path(checkout, workload, seed, trace)
    path.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    last = done.stdout.strip().splitlines()[-1:] or [done.stderr.strip()]
    print(f"{label}{workload} trace{trace}: exit {done.returncode} {last[0][:200]}")
    result = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None
    return result, bool(done.returncode) or result is None


def load_declarations(checkout: Path) -> tuple[dict, dict]:
    return (json.loads((checkout / "BENCHMARK.json").read_text()),
            json.loads((checkout / "perfbench" / "reference.json").read_text()))


def record_one(checkout: Path, seconds: float) -> tuple[dict, list[str]]:
    benchmark, reference = load_declarations(checkout)
    results, failed = {}, []
    for workload in (w["name"] for w in benchmark["workloads"]):
        seed = reference[workload]["seed"]
        for trace in TRACES:
            for _ in range(TRACE0_RUNS if trace == 0 else 1):
                result, bad = run_once(checkout, workload, seed, seconds, trace)
                if bad:
                    failed.append(f"{workload} trace{trace}")
                if result is not None:
                    results.setdefault((workload, trace), []).append(result)
    return gather(results, seconds, [m["name"] for m in benchmark["end_to_end"]]), failed


def record_ab(checkouts: dict[str, Path], seconds: float,
              pairs: int) -> tuple[dict, list[str]]:
    declared = {side: load_declarations(checkouts[side]) for side in SIDES}
    (benchmark, reference), (base_benchmark, base_reference) = declared["change"], declared["base"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    if [w["name"] for w in base_benchmark["workloads"]] != workloads:
        raise ValueError("base and change declare different workloads")
    results = {side: {} for side in SIDES}
    first, failed = {}, []
    for workload in workloads:
        seed = reference[workload]["seed"]
        if base_reference[workload]["seed"] != seed:
            raise ValueError(f"{workload}: base and change record different seeds")
        first[workload] = []
        for k in range(pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            ran = {side: run_once(checkouts[side], workload, seed, seconds, 0,
                                  label=f"pair {k + 1} {side}: ") for side in order}
            if any(bad for _, bad in ran.values()):
                failed.append(f"{workload} pair {k + 1}")
                continue
            first[workload].append(order[0])
            for side, (result, _) in ran.items():
                results[side].setdefault(workload, []).append(result)
    return gather_ab(results, first, seconds, benchmark["end_to_end"]), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", required=True, type=Path)
    parser.add_argument("--base", type=Path, default=None,
                        help="the parent's checkout: record an A/B of the two")
    parser.add_argument("--pairs", type=int, default=AB_PAIRS)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.base is None:
        entry, failed = record_one(args.checkout.resolve(), args.seconds)
    else:
        entry, failed = record_ab({"base": args.base.resolve(),
                                   "change": args.checkout.resolve()},
                                  args.seconds, args.pairs)
        for workload, doc in entry["runs"].items():
            for name, c in doc["metrics"].items():
                print(f"{workload} {name}: base {c['base_median']:.6g} "
                      f"[{c['base_quartiles'][0]:.6g}, {c['base_quartiles'][1]:.6g}], "
                      f"change {c['change_median']:.6g} [{c['change_quartiles'][0]:.6g}, "
                      f"{c['change_quartiles'][1]:.6g}]; won {c['won']} of {c['pairs']}, "
                      f"median ratio {c['median_ratio']:.4f} [{c['ratio_quartiles'][0]:.4f}, "
                      f"{c['ratio_quartiles'][1]:.4f}]; gain rule "
                      f"{'holds' if c['gain'] else 'fails'}; bound {c['bound']:g}: "
                      f"{c['within_bound']}")
    out = next_bench_path(REPO)
    out.write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}" + (f"; failed runs: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
