"""The three benchmark workloads, each seeded by the benchmark's ``--seed``.

``prepare`` is the set-up (synthesize or write the input, build or load the
config); the returned ``Prepared.run`` is one timed rep, and
``Prepared.outputs`` locates (or, for ``protocol``, writes) the rep's
``records.csv`` and ``aggregates.csv`` outside the timed region.

Every call into gapgauge goes through a module attribute looked up at call
time (``harness.run_evaluation``, ``cli.main``, ``io.emit_report``,
``synth.synthesize_series``) so that the tracer's wrappers, when installed,
are the ones that run.

Why these workloads:

* ``protocol`` is the acceptance-protocol set-up of ``tests/test_acceptance.py``
  at fewer gaps.  Model fitting (gbt, then sarima) dominates it, so GBT and
  ARIMA changes show here and scoring or placement changes should not.
* ``cli_default`` is ``gapgauge run`` with ``configs/default.json``: GBT trains
  on 8760 rows instead of 2000, the threaded executor runs with two workers,
  and the CSV ingest, config load and report emission are on the path.
* ``many_gaps`` runs only the cheap imputers over about a thousand gaps that
  fill about half of a 100k-sample series, so scoring, gap placement,
  per-job harness overhead and emission show and model fitting is absent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gapgauge import cli, harness, io, synth
from gapgauge.harness import EvalConfig
from gapgauge.imputers import ImputerConfig

DEFAULT_SEED = 20210601
ROOT = Path(harness.__file__).resolve().parents[2]

# Series parameters of the acceptance protocol (tests/test_acceptance.py).
PROTOCOL_PARAMS = {"daily_amplitude": 50.0, "weekly_amplitude": 4.0,
                   "yearly_amplitude": 40.0, "harmonic2": 0.30,
                   "harmonic3": 0.08, "noise_sd": 3.0}

# Gaps per rep at each size; "small" is the reduced size of the self-test.
N_GAPS = {"protocol": {"full": 2, "small": 1},
          "cli_default": {"full": 2, "small": 1},
          "many_gaps": {"full": 1000, "small": 100}}
MANY_GAPS_LENGTH = {"full": 100_000, "small": 10_000}
CLI_SERIES_LENGTH = 20_000
CLI_PARALLEL = 2
WORKLOADS = tuple(N_GAPS)


class GateError(Exception):
    """A rep produced output that fails the correctness gate."""


@dataclass
class Prepared:
    n_gaps: int
    n_imputers: int
    run: Callable[[], object]
    outputs: Callable[[object], tuple[Path, Path]]


def protocol_config(seed: int, n_gaps: int) -> EvalConfig:
    return EvalConfig(
        imputers=[
            ImputerConfig("polynomial", {"order": 5, "context": 8}),
            ImputerConfig("seasonal_naive", {"season": 24}),
            ImputerConfig("arima", {"train_span": 1008}),
            ImputerConfig("sarima", {"train_span": 1008}),
            ImputerConfig("gbt", {"train_span": 2000, "trees": 100, "max_depth": 4}),
        ],
        n_gaps=n_gaps, min_len=2, max_len=48, seed=seed)


def many_gaps_config(seed: int, n_gaps: int) -> EvalConfig:
    return EvalConfig(
        imputers=[
            ImputerConfig("polynomial", {"order": 1}),
            ImputerConfig("polynomial", {"order": 3}),
            ImputerConfig("seasonal_naive", {"season": 24}),
        ],
        n_gaps=n_gaps, min_len=2, max_len=48, seed=seed, aggregation="quartile")


def _csv_pair(directory: Path) -> tuple[Path, Path]:
    return directory / "records.csv", directory / "aggregates.csv"


def _protocol(seed: int, size: str, workdir: Path) -> Prepared:
    series = synth.synthesize_series("seasonal", 21_000, PROTOCOL_PARAMS, seed=seed)
    config = protocol_config(seed, N_GAPS["protocol"][size])

    def outputs(report):
        records, aggregates = _csv_pair(workdir)
        io.write_records_csv(report.records, records)
        io.write_aggregates_csv(report.aggregates, aggregates)
        return records, aggregates

    return Prepared(config.n_gaps, len(config.imputers),
                    lambda: harness.run_evaluation(series, config), outputs)


def _cli_default(seed: int, size: str, workdir: Path) -> Prepared:
    input_dir, out_dir = workdir / "input", workdir / "out"
    code = cli.main(["synth", "--length", str(CLI_SERIES_LENGTH), "--seed", str(seed),
                     "--out", str(input_dir), "--quiet"])
    if code != 0:
        raise GateError(f"gapgauge synth exited {code}")
    # configs/default.json with only n_gaps cut down to fit a rep in the run.
    doc = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
    doc["n_gaps"] = N_GAPS["cli_default"][size]
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    config = io.load_config(config_path)
    argv = ["run", "--config", str(config_path), "--series", str(input_dir / "series.csv"),
            "--out", str(out_dir), "--seed", str(seed),
            "--parallel", str(CLI_PARALLEL), "--quiet"]

    def outputs(code):
        if code != 0:
            raise GateError(f"gapgauge run exited {code}")
        return _csv_pair(out_dir)

    return Prepared(config.n_gaps, len(config.imputers), lambda: cli.main(argv), outputs)


def _many_gaps(seed: int, size: str, workdir: Path) -> Prepared:
    series = synth.synthesize_series("seasonal", MANY_GAPS_LENGTH[size],
                                     PROTOCOL_PARAMS, seed=seed)
    config = many_gaps_config(seed, N_GAPS["many_gaps"][size])
    out_dir = workdir / "out"

    def run():
        report = harness.run_evaluation(series, config)
        io.emit_report(report, out_dir)
        return report

    return Prepared(config.n_gaps, len(config.imputers), run,
                    lambda report: _csv_pair(out_dir))


_PREPARE = {"protocol": _protocol, "cli_default": _cli_default, "many_gaps": _many_gaps}


def prepare(workload: str, seed: int, size: str, workdir: Path) -> Prepared:
    workdir.mkdir(parents=True, exist_ok=True)
    return _PREPARE[workload](seed, size, workdir)
