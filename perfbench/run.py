"""gapgauge benchmark: end-to-end throughput and memory, per-layer times.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {protocol,cli_default,many_gaps}
        [--seed N] [--seconds S] [--trace 0|1] [--size full|small]

``--trace 0`` runs reps of the workload for ``--seconds`` (at least three)
with nothing wrapped and reports the ``end_to_end`` metrics declared in
``BENCHMARK.json``: median jobs per second and wall time per rep, set-up time
(median of ``SETUP_PROBES`` fresh-interpreter set-ups), peak resident memory
of this process plus its largest child, and the share of (gap, imputer) jobs
that succeeded.  ``--trace 1`` spends half of ``--seconds`` on untraced reps
and half on traced reps, then runs the kernel micro-benches, and reports the
``per_layer`` metrics; its spans go to ``perfbench/_out/spans-*.jsonl``.

Every rep goes through the correctness gate (``gate.py``); at full size and
the seed recorded in ``reference.json`` the CSV digests must also equal the
recorded ones.  A failed gate makes ``correct`` false, counts the rep's jobs
as failed and exits 1; so does a traced run in which a wrapped name is
missing or records no span.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full result, with the machine facts, goes to
``perfbench/_out/<workload>-seed<seed>-trace<t>.json``.

``selftest.py`` holds the benchmark's own tests; run them with
``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, use_checkout_source

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
WORK = HERE / "_work"
SETUP_PROBES = 15
MIN_REPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("protocol", "cli_default", "many_gaps"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 20210601)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs fewer gaps; used by the self-test")
    return parser.parse_args(argv)


def _blas_threads():
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def machine_facts(args) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
    }


class Runner:
    """Runs reps of one prepared workload and keeps what the gate needs."""

    def __init__(self, prepared):
        self.prepared = prepared
        self.walls: dict[str, list[float]] = {"untraced": [], "traced": []}  # per rep
        self.rates: list[float] = []  # untraced ok jobs per second, per rep
        self.checks = []  # (rep id, RepCheck or None, error text)

    @property
    def jobs(self) -> int:
        return self.prepared.n_gaps * self.prepared.n_imputers

    def reps(self, seconds: float, min_reps: int, tracer=None) -> None:
        started = time.perf_counter()
        count = 0
        # Start another rep only if it would end no more than half a rep
        # past the deadline, on the mean rep time so far.
        while count < min_reps or \
                time.perf_counter() + (time.perf_counter() - started) / count / 2 < started + seconds:
            wall, check = self._rep(tracer)
            if tracer is None:
                self.rates.append((check.ok_jobs if check is not None else 0) / wall)
            count += 1

    def _rep(self, tracer):
        import gate
        import workloads
        mode = "untraced" if tracer is None else "traced"
        rep_id = f"{mode}{len(self.walls[mode])}"
        run = self.prepared.run
        if tracer is not None:
            tracer.rep = rep_id
            run = tracer.wrap("bench:rep", run)
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
        self.walls[mode].append(wall)
        try:
            check = gate.check_rep(*self.prepared.outputs(result),
                                   self.prepared.n_gaps, self.prepared.n_imputers)
        except (workloads.GateError, OSError, KeyError, ValueError) as exc:
            self.checks.append((rep_id, None, f"{type(exc).__name__}: {exc}"))
            return wall, None
        self.checks.append((rep_id, check, ""))
        return wall, check

    def verdict(self, reference: dict | None):
        """(correct, attempted, failed, ok jobs, problems) over every rep run."""
        problems, failed, ok_jobs = [], 0, 0
        first = next((c.digests for _, c, _ in self.checks if c is not None), None)
        for rep_id, check, error in self.checks:
            rep_problems = [error] if check is None else list(check.problems)
            if check is not None and check.digests != first:
                rep_problems.append("output differs from the first rep")
            if check is not None and reference is not None and \
                    list(check.digests) != [reference["records_sha256"],
                                            reference["aggregates_sha256"]]:
                rep_problems.append("digest differs from reference.json")
            problems += [f"{rep_id}: {p}" for p in rep_problems]
            if rep_problems:
                failed += self.jobs
            else:
                failed += check.failed_jobs
                ok_jobs += check.ok_jobs
        attempted = self.jobs * len(self.checks)
        return not problems, attempted, failed, ok_jobs, problems, first


def setup_seconds(args, workdir: Path) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh interpreters, one after another."""
    times = []
    for i in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed),
             args.size, str(workdir / f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def declared_metrics(trace: int) -> list[dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc["per_layer" if trace else "end_to_end"]


def write_spans(spans, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps({
                "span_id": s.sid, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                "parent_id": s.parent, "thread_id": s.thread, "rep": s.rep,
                "failed": s.failed, "extra": s.extra}) + "\n")


def measure_end_to_end(args, runner: Runner, workdir: Path, notes: list[str],
                       errors: list[str]) -> dict:
    runner.reps(args.seconds, MIN_REPS)
    walls, rates = runner.walls["untraced"], runner.rates
    rss = peak_rss_mb()  # before the set-up probes add children
    setups = setup_seconds(args, workdir)
    notes.append(f"medians over {len(walls)} reps; "
                 f"rep walls (s): {', '.join(f'{w:.4f}' for w in walls)}")
    notes.append(f"setup probes (s): {', '.join(f'{t:.4f}' for t in setups)}")
    return {"peak_rss_mb": (rss, "MB"),
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "jobs_per_s": (statistics.median(rates), "1/s")}


def measure_layers(args, runner: Runner, workdir: Path, notes: list[str],
                   errors: list[str]) -> dict:
    import kernels
    import tracing
    import workloads
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.rep = "setup"
        tracer.wrap("bench:setup", workloads.prepare)(
            args.workload, args.seed, args.size, workdir / "traced-setup")
    finally:
        tracer.uninstall()
    runner.reps(args.seconds / 2, 1)
    tracer.install()
    try:
        runner.reps(args.seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    if tracer.missing:
        errors.append(f"not traced, attribute missing: {', '.join(tracer.missing)}")
    absent = tracing.absent_spans(spans, args.workload)
    if absent:
        errors.append(f"not traced, no span recorded: {', '.join(absent)}")
    traced_reps = [f"traced{i}" for i in range(len(runner.walls["traced"]))]
    computed = tracing.layer_metrics(spans, traced_reps)
    computed.update(tracing.setup_metrics(spans))
    computed["trace.overhead_ratio"] = (
        tracing.overhead_ratio(runner.walls["traced"], runner.walls["untraced"]), "ratio")
    computed.update(kernels.run_kernels())
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    write_spans(spans, spans_path)
    notes.append("spans on different threads are summed per layer "
                 f"({computed['trace.threads'][0]:.0f} threads recorded spans); "
                 f"spans written to {spans_path.relative_to(ROOT)}")
    return computed


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    import gate
    import workloads
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    facts = machine_facts(args)
    for key, value in facts.items():
        print(f"fact {key} = {value}")

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(parents=True, exist_ok=True)
    notes, errors = [], []
    try:
        start = time.perf_counter()
        prepared = workloads.prepare(args.workload, args.seed, args.size, workdir / "main")
        print(f"in-process set-up {time.perf_counter() - start:.3f} s; rep = "
              f"{prepared.n_gaps} gaps x {prepared.n_imputers} imputers")
        runner = Runner(prepared)
        measure = measure_layers if args.trace else measure_end_to_end
        computed = measure(args, runner, workdir, notes, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = gate.reference_digests(args.workload)
    if args.size != "full" or reference["seed"] != args.seed:
        reference = None
    correct, attempted, failed, ok_jobs, problems, digests = runner.verdict(reference)
    if errors:
        problems += errors
        correct = False
    computed["job_success_ratio"] = (ok_jobs / attempted, "ratio")
    notes.append(f"job_fail_ratio = {failed / attempted:.6f} ({failed} of {attempted} jobs)")

    metrics, bad = {}, []
    for entry in declared_metrics(args.trace):
        name = entry["name"]
        if name not in computed or computed[name][1] != entry["unit"]:
            bad.append(name)
            continue
        value, unit = computed[name]
        metrics[name] = {"value": value, "unit": unit}
    if bad:
        problems.append(f"declared metrics not produced with their unit: {', '.join(bad)}")
        correct = False

    print(f"digests records/aggregates: {digests}")
    for line in notes + [f"GATE FAILURE {p}" for p in problems]:
        print(line)
    for name, (value, unit) in sorted(computed.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "facts": facts, "digests": digests, "notes": notes,
                    "problems": problems, "rep_walls_s": runner.walls,
                    "all_metrics": {k: {"value": v, "unit": u}
                                    for k, (v, u) in computed.items()}}, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
