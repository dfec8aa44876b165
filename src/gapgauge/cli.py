"""Command-line surface.

Subcommands: ``ingest`` validates a CSV export, ``synth`` writes a synthetic
series, ``run`` executes the full evaluation, ``agree`` recomputes rank
agreement from a records.csv.  Exit codes: 0 on success (including runs with
recorded per-gap failures), 1 on configuration or ingestion errors, 2 on
run-aborting harness errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import ConfigError, GapgaugeError
from .harness import aggregate, rank_agreement, run_evaluation
from .io import (MISSING_POLICIES, TIMESTAMP_FORMATS, IngestSpec, emit_report, ingest_csv,
                 load_config, read_records_csv, write_json, write_series_csv)
from .series import TimeSeries
from .synth import SERIES_KINDS, synthesize_series

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapgauge",
        description="Evaluate time-series gap imputation with and without ground truth.")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate a CSV series export")
    _series_flags(ingest)

    synth = sub.add_parser("synth", help="write a synthetic series CSV")
    synth.add_argument("--kind", choices=SERIES_KINDS, default="seasonal")
    synth.add_argument("--length", type=int, default=20_000)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--step", type=float)
    synth.add_argument("--start-time", type=float)
    synth.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                       help="kind-specific parameter, repeatable")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--quiet", action="store_true")

    run = sub.add_parser("run", help="run the full evaluation")
    run.add_argument("--config", required=True)
    _series_flags(run)
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="overrides the config seed")
    run.add_argument("--imputers", default=None,
                     help="comma-separated kinds or imputer ids to keep")
    run.add_argument("--bins", type=int, default=None,
                     help="overrides the JSD histogram bin count")
    # still accepted so that existing scripts run; jobs are always sequential
    run.add_argument("--parallel", type=int, default=0, help=argparse.SUPPRESS)
    run.add_argument("--quiet", action="store_true")

    agree = sub.add_parser("agree", help="recompute rank agreement from records.csv")
    agree.add_argument("--records", required=True)
    agree.add_argument("--out", default=None, help="directory for agreement.json")
    agree.add_argument("--quiet", action="store_true")
    return parser


def _series_flags(parser: argparse.ArgumentParser) -> None:
    """The ``IngestSpec`` fields, each under its own name as ``dest``."""
    parser.add_argument("--series", dest="path", metavar="SERIES", required=True,
                        help="input CSV path")
    parser.add_argument("--timestamp-column")
    parser.add_argument("--value-column")
    parser.add_argument("--timestamp-format", choices=TIMESTAMP_FORMATS)
    parser.add_argument("--step", dest="expected_step", metavar="STEP", type=float,
                        help="expected seconds between samples")
    parser.add_argument("--missing-policy", choices=MISSING_POLICIES)


def _given(args, names) -> dict:
    """The given flags among ``names``; the library's defaults apply to the rest."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _ingest_from_args(args) -> TimeSeries:
    names = [field.name for field in dataclasses.fields(IngestSpec)]
    return ingest_csv(IngestSpec(**_given(args, names)))


def _cmd_ingest(args) -> int:
    series = _ingest_from_args(args)
    observed = int(series.observed.sum())
    start = float(series.start_time)
    start_text = str(int(start)) if start.is_integer() else f"{start:.3f}"
    print(f"ok: {len(series)} samples, step {series.step:g}s, "
          f"start {start_text}, observed {observed}, "
          f"missing {len(series) - observed}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    params = {}
    for item in args.param:
        key, _, value = item.partition("=")
        if not _:
            raise GapgaugeError(f"--param needs KEY=VALUE, got {item!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise GapgaugeError(f"--param {key} needs a number, got {value!r}") from None
    series = synthesize_series(args.kind, args.length, params,
                               **_given(args, ("seed", "step", "start_time")))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "series.csv"
    write_series_csv(series, path)
    if not args.quiet:
        seed = "" if args.seed is None else f", seed={args.seed}"
        print(f"wrote {path} ({len(series)} samples, kind={args.kind}{seed})")
    return EXIT_OK


def _cmd_run(args) -> int:
    series = _ingest_from_args(args)
    config = load_config(args.config, step_seconds=series.step)
    config = dataclasses.replace(config, **_given(args, ("seed", "bins")))  # re-validates
    if args.imputers is not None:
        wanted = [w.strip() for w in args.imputers.split(",") if w.strip()]
        kept = [c for c in config.imputers
                if c.kind in wanted or c.imputer_id in wanted]
        known = sorted({c.kind for c in config.imputers}
                       | {c.imputer_id for c in config.imputers})
        missing = [w for w in wanted
                   if not any(c.kind == w or c.imputer_id == w
                              for c in config.imputers)]
        if missing or not kept:
            raise GapgaugeError(f"--imputers selected nothing: {missing or wanted}",
                                available=known)
        config = dataclasses.replace(config, imputers=kept)

    if args.parallel > 1 and not args.quiet:
        print("note: --parallel is ignored; jobs run sequentially", file=sys.stderr)
    try:
        report = run_evaluation(series, config)
        emit_report(report, args.out)
    except ConfigError:
        raise  # a series that fails validation or is too short exits 1
    except GapgaugeError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_RUN

    if not args.quiet:
        failed = len(report.records.errors)
        print(f"evaluated {len(config.imputers)} imputers on "
              f"{config.n_gaps} gaps (seed {config.seed}, "
              f"prng {report.provenance['prng_algorithm']}); "
              f"{failed} job failures")
        if isinstance(report.agreement, dict) and "pooled" in report.agreement:
            for pairing, stats in report.agreement["pooled"].items():
                print(f"  pooled {pairing}: spearman {stats['spearman']:+.3f}, "
                      f"kendall {stats['kendall']:+.3f}")
        print(f"outputs in {args.out}")
    return EXIT_OK


def _cmd_agree(args) -> int:
    records = read_records_csv(args.records)
    try:
        agreement = rank_agreement(aggregate(records, "exact"))
    except GapgaugeError as exc:
        print(f"agree failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "agreement.json", agreement)
        if not args.quiet:
            print(f"wrote {out / 'agreement.json'}")
    if not args.quiet:
        print(json.dumps(agreement, indent=2))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"ingest": _cmd_ingest, "synth": _cmd_synth,
                "run": _cmd_run, "agree": _cmd_agree}
    try:
        return handlers[args.command](args)
    except (GapgaugeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
