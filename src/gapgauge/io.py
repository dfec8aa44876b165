"""Files in, files out: CSV ingestion, run configuration, report emission.

Config files are JSON (``schema_version: 1``) and speak hours for anything
time-like, matching how gap lengths and training spans are usually quoted;
loading converts hours to samples with the series step.  All outputs are
written atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import (CadenceError, ConfigError, DuplicateTimestampError,
                     GapgaugeError, ParseError, SchemaError, ShapeError)
from .harness import AggregateRow, EvalConfig, EvalReport, aggregate
from .imputers import ImputerConfig, kind_spec
from .metrics import METRICS, MetricRecord
from .series import TimeSeries, fits_in_memory

SCHEMA_VERSION = 1

# The CSV columns are the record fields, in declaration order.
RECORD_COLUMNS = tuple(f.name for f in fields(MetricRecord))
AGGREGATE_COLUMNS = tuple(f.name for f in fields(AggregateRow))
TIMESTAMP_FORMATS = ("epoch", "iso8601")
MISSING_POLICIES = ("reject", "mask")

@dataclass
class IngestSpec:
    path: str
    timestamp_column: str = "timestamp"
    value_column: str = "value"
    timestamp_format: str = "epoch"
    expected_step: float = 3600.0
    missing_policy: str = "reject"

    def __post_init__(self):
        if not 0 < self.expected_step < math.inf:
            raise SchemaError("expected_step must be finite and > 0",
                              path="ingest.expected_step")
        for name, choices in (("timestamp_format", TIMESTAMP_FORMATS),
                              ("missing_policy", MISSING_POLICIES)):
            if getattr(self, name) not in choices:
                raise SchemaError(f"{name} must be " + " or ".join(map(repr, choices)),
                                  path=f"ingest.{name}")


def _finite(text: str, what: str, line: int) -> float:
    try:
        number = float(text)
    except ValueError:
        raise ParseError(f"unparseable {what} {text!r}", line=line) from None
    if not math.isfinite(number):
        raise ParseError(f"non-finite {what} {text!r}", line=line)
    return number


def _parse_timestamp(text: str, fmt: str, line: int) -> float:
    if fmt == "epoch":
        return _finite(text, "timestamp", line)
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"unparseable timestamp {text!r}", line=line) from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def ingest_csv(spec: IngestSpec) -> TimeSeries:
    """Read one uniformly sampled series from a CSV export.

    Rows may arrive unsorted.  Timestamps must sit on the expected-step grid
    anchored at the earliest row; with ``missing_policy="mask"`` absent grid
    positions (and blank value cells) become masked samples, with
    ``"reject"`` they raise :class:`CadenceError` naming the line after the
    break.  Of the faulty rows, the earliest in time raises its first fault;
    a missing position is reported only when no row is faulty.
    """
    rows: list[tuple[float, float, int]] = []  # (stamp, value or nan, line)
    with open(spec.path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file has no header row", line=1) from None
        try:
            ts_col = header.index(spec.timestamp_column)
            val_col = header.index(spec.value_column)
        except ValueError as exc:
            raise ParseError(f"column not found in header: {exc}", line=1) from None
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(ts_col, val_col):
                raise ParseError("row has too few columns", line=line)
            stamp = _parse_timestamp(row[ts_col].strip(), spec.timestamp_format, line)
            raw = row[val_col].strip()
            rows.append((stamp, _finite(raw, "value", line) if raw else math.nan, line))
    if not rows:
        raise ParseError("file holds no data rows", line=1)

    table = np.array(rows)
    stamps, values, lines = table[np.argsort(table[:, 0], kind="stable")].T
    start, step = float(stamps[0]), float(spec.expected_step)
    grid = f"(start={start}, step={step})"
    # Grid positions come from the sorted rows alone, so that a rejected
    # file allocates nothing of grid size.
    with np.errstate(over="ignore", invalid="ignore"):
        offset = (stamps - start) / step
        index = np.rint(offset)
        off_grid = np.abs(offset - index) * step > 1e-6 * step
    reject = spec.missing_policy == "reject"
    faults = [  # each row's checks, in the order they apply
        (~np.isfinite(offset), CadenceError,
         f"timestamp is too far from the first row for a finite grid {grid}"),
        (off_grid, CadenceError, f"timestamp is off the uniform grid {grid}"),
        # sorted rows put a duplicate next to its twin
        (np.append(False, index[1:] == index[:-1]), DuplicateTimestampError,
         "two rows share one timestamp"),
        (np.isnan(values) & reject, ParseError, "blank value cell under missing_policy=reject"),
    ]
    faulty = np.array([mask for mask, _, _ in faults])
    if faulty.any():
        row = faulty.any(axis=0).argmax()
        _, error, message = faults[faulty[:, row].argmax()]
        raise error(message, line=int(lines[row]))
    absent = np.diff(index) > 1
    if reject and absent.any():
        row = absent.argmax()
        position = int(index[row]) + 1
        raise CadenceError(f"missing timestamp at grid position {position} "
                           f"(expected {start + position * step})", line=int(lines[row + 1]))

    length = int(index[-1]) + 1
    if not fits_in_memory(length):
        raise CadenceError(f"the grid to the last row has {length} positions, "
                           f"more than fit in memory {grid}", line=int(lines[-1]))
    at, seen = index.astype(np.intp), ~np.isnan(values)
    series = TimeSeries(start, step, np.zeros(length), np.zeros(length, dtype=bool))
    series.values[at[seen]] = values[seen]
    series.observed[at] = seen
    return series


def write_series_csv(series: TimeSeries, path) -> None:
    """Emit a series as an epoch-seconds CSV under ``IngestSpec``'s default
    column names; masked positions get blank cells."""
    stamps = series.start_time + np.arange(len(series), dtype=float) * series.step

    def rows():
        yield (IngestSpec.timestamp_column, IngestSpec.value_column)
        for t, v, seen in zip(stamps.tolist(), series.values.tolist(), series.observed.tolist()):
            yield (repr(int(t)) if t.is_integer() else repr(t), repr(v) if seen else "")

    _write_rows(path, rows())


def _hours_to_samples(hours: float, step_seconds: float, path: str) -> int:
    try:
        samples = hours * 3600.0 / step_seconds
    except OverflowError:  # an integer beyond the float range
        samples = math.inf
    if not math.isfinite(samples):
        raise SchemaError(f"{hours} hours is not a finite number of samples "
                          f"at step {step_seconds}s", path=path)
    rounded = int(round(samples))
    if rounded < 1:
        raise SchemaError(f"{hours} hours is below one sample at step "
                          f"{step_seconds}s", path=path)
    return rounded


def _expect(doc: dict, key: str, kinds, path: str, default=None, required=False):
    if key not in doc:
        if required:
            raise SchemaError("missing required field", path=path)
        return default
    value = doc[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise SchemaError(f"wrong type, expected {kinds}", path=path)
    return value


def load_config(path, step_seconds: float = IngestSpec.expected_step) -> EvalConfig:
    """Load a run configuration, converting hour-form fields to samples.

    A setting the file leaves out, the seed too, takes ``EvalConfig``'s default;
    ``EvalConfig`` checks each one given, and a setting it rejects is named
    as the ``SchemaError`` path.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except ValueError as exc:  # also an integer too long to convert
        raise SchemaError(f"not valid JSON: {exc}", path="$") from None
    if not isinstance(doc, dict):
        raise SchemaError("config root must be an object", path="$")
    version = _expect(doc, "schema_version", int, "schema_version", required=True)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}",
                          path="schema_version")

    gap_hours = _expect(doc, "gap_hours", dict, "gap_hours", required=True)
    min_hours = _expect(gap_hours, "min", (int, float), "gap_hours.min", required=True)
    max_hours = _expect(gap_hours, "max", (int, float), "gap_hours.max", required=True)
    if min_hours > max_hours:
        raise SchemaError("gap_hours.min exceeds gap_hours.max",
                          path="gap_hours.min,gap_hours.max")
    min_len = _hours_to_samples(min_hours, step_seconds, "gap_hours.min")
    max_len = _hours_to_samples(max_hours, step_seconds, "gap_hours.max")

    raw_imputers = _expect(doc, "imputers", list, "imputers", required=True)
    if not raw_imputers:
        raise SchemaError("at least one imputer is required", path="imputers")
    imputers = []
    for i, entry in enumerate(raw_imputers):
        where = f"imputers[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError("imputer entry must be an object", path=where)
        kind = _expect(entry, "kind", str, f"{where}.kind", required=True)
        params = dict(_expect(entry, "params", dict, f"{where}.params", default={}))
        try:
            specs = kind_spec(kind).params
        except ConfigError as exc:
            raise SchemaError(str(exc), path=f"{where}.kind") from None
        for spec in specs:
            hour_key, sample_key = f"{spec.name}_hours", spec.name
            if spec.hours and hour_key in params:
                if sample_key in params:
                    raise SchemaError(
                        f"{sample_key} given twice, in samples and in hours",
                        path=f"{where}.params.{sample_key},{where}.params.{hour_key}")
                hours = params.pop(hour_key)
                if not isinstance(hours, (int, float)) or isinstance(hours, bool):
                    raise SchemaError("hour-form parameter must be a number",
                                      path=f"{where}.params.{hour_key}")
                params[sample_key] = _hours_to_samples(
                    hours, step_seconds, f"{where}.params.{hour_key}")
        try:
            imputers.append(ImputerConfig(kind, params))
        except GapgaugeError as exc:
            raise SchemaError(f"invalid imputer config: {exc}",
                              path=f"{where}.params") from None

    settings = {key: doc[key] for key in ("n_gaps", "seed", "bins", "epsilon", "aggregation")
                if key in doc}
    try:
        return EvalConfig(imputers=imputers, min_len=min_len, max_len=max_len, **settings)
    except GapgaugeError as exc:
        # a rule on one setting names that field; any other rule names the root
        path = next((key for key in exc.context if key in settings), "$")
        raise SchemaError(f"invalid configuration: {exc}", path=path) from None


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _atomic_write(path, fill) -> None:
    """Let ``fill(handle)`` write a temp file beside ``path``, then rename it.

    If ``fill`` raises, the temp file is removed and the error propagates.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
            fill(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(path, rows) -> None:
    _atomic_write(path, lambda handle: csv.writer(
        handle, lineterminator="\n").writerows(rows))


def _write_table(path, columns: tuple[str, ...], items) -> None:
    """One CSV row per item, its ``columns`` attributes as cells, streamed."""
    def rows():
        yield columns
        for item in items:
            yield [_format_cell(getattr(item, name)) for name in columns]

    _write_rows(path, rows())


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON plus a newline, atomically."""
    _atomic_write(path, lambda handle: handle.write(json.dumps(doc, indent=2) + "\n"))


def write_records_csv(records: list[MetricRecord], path) -> None:
    _write_table(path, RECORD_COLUMNS, records)


def read_records_csv(path) -> list[MetricRecord]:
    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != RECORD_COLUMNS:
            raise ParseError(f"unexpected records header {header!r}", line=1)
        for line, row in enumerate(reader, start=2):
            if len(row) != len(RECORD_COLUMNS):
                raise ParseError("wrong column count", line=line)
            cells = dict(zip(RECORD_COLUMNS, row))
            try:
                records.append(MetricRecord(
                    gap_id=cells["gap_id"], imputer_id=cells["imputer_id"],
                    gap_len=int(cells["gap_len"]),
                    **{m: float(cells[m]) if cells[m] else None for m in METRICS},
                    error=cells["error"] or None))
            except (ValueError, ShapeError) as exc:  # ShapeError: a non-finite metric
                raise ParseError(f"unparseable record row: {exc}", line=line) from None
    return records


def write_aggregates_csv(rows: list[AggregateRow], path) -> None:
    _write_table(path, AGGREGATE_COLUMNS, rows)


def _plot_rows(exact: list[AggregateRow], metric: str, imputer_ids: list[str]):
    """Plot-ready wide table: one row per gap size, one column per imputer."""
    table: dict[int, dict[str, float]] = {}
    for row in exact:
        table.setdefault(row.gap_len, {})[row.imputer_id] = getattr(row, f"mean_{metric}")
    yield ("gap_len", *imputer_ids)
    for gap_len in sorted(table):
        cells = [table[gap_len].get(i) for i in imputer_ids]
        yield (str(gap_len), *[_format_cell(c) for c in cells])


def emit_report(report: EvalReport, out_dir) -> list[Path]:
    """Write report.json plus the CSV set; every file lands atomically."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "report.json", out / "records.csv", out / "aggregates.csv"]
    write_json(written[0], report.to_json_dict())
    write_records_csv(report.records, written[1])
    write_aggregates_csv(report.aggregates, written[2])

    imputer_ids = [c["imputer_id"] for c in report.provenance["config"]["imputers"]]
    exact = aggregate(report.records, "exact")
    for metric in METRICS:
        written.append(out / f"plot_{metric}.csv")
        _write_rows(written[-1], _plot_rows(exact, metric, imputer_ids))
    return written
