"""Files in, files out: CSV ingestion, run configuration, report emission.

Config files are JSON (``schema_version: 1``) and speak hours for anything
time-like, matching how gap lengths and training spans are usually quoted;
loading converts hours to samples with the series step.  All outputs are
written atomically (temp file in the target directory, then rename).  Every
CSV is written by one formatter, :func:`_csv_lines`, whose bytes are those
of ``csv.writer`` with a ``"\r\n"`` terminator, less the terminator.
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

from .errors import (CadenceError, ConfigError, DuplicateTimestampError, GapgaugeError,
                     InvalidParameterError, ParseError, SchemaError, ShapeError)
from .gaps import MAX_LEN
from .harness import AggregateRow, EvalConfig, EvalReport, RecordTable, aggregate
from .imputers import ImputerConfig, kind_spec
from .metrics import METRICS, check_scores
from .series import ParamSpec, TimeSeries, fits_in_memory

SCHEMA_VERSION = 1

RECORD_COLUMNS = ("gap_id", "imputer_id", "gap_len", *METRICS, "error")
AGGREGATE_COLUMNS = tuple(f.name for f in fields(AggregateRow))
TIMESTAMP_FORMATS = ("epoch", "iso8601")
MISSING_POLICIES = ("reject", "mask")
# Seconds between samples; a config's hour-form fields convert with it.
EXPECTED_STEP = ParamSpec("expected_step", float, 3600.0, low=0.0, low_open=True)
# A records.csv row's gap length, as gap placement allows it.
GAP_LEN = ParamSpec("gap_len", int, None, low=1, high=MAX_LEN.high)
# What makes a cell quoted: the delimiter, the quote character or a line
# break of either kind, as csv.writer quotes with a "\r\n" terminator, so that
# csv.reader reads every cell back whole.
_QUOTED_CHARS = ',"\r\n'


@dataclass
class IngestSpec:
    """Where a series CSV is and how to read it.  ``expected_step`` is
    stored as its spec normalizes it, a Python ``float``."""

    path: str
    timestamp_column: str = "timestamp"
    value_column: str = "value"
    timestamp_format: str = "epoch"
    expected_step: float = EXPECTED_STEP.default
    missing_policy: str = "reject"

    def __post_init__(self):
        try:
            self.expected_step = EXPECTED_STEP.normalize(self.expected_step)
        except InvalidParameterError as exc:
            raise SchemaError(exc.message, path="ingest.expected_step", **exc.context) from None
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
    _write_columns(path, (IngestSpec.timestamp_column, IngestSpec.value_column), [
        [repr(int(t)) if t.is_integer() else repr(t) for t in stamps.tolist()],
        [repr(v) if seen else "" for v, seen in zip(series.values.tolist(),
                                                    series.observed.tolist())]])


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


def _csv_lines(columns) -> list[str]:
    """The lines, without terminators, that ``csv.writer`` (``QUOTE_MINIMAL``,
    terminator ``"\r\n"``) writes for the rows that ``columns`` (equal-length
    lists) hold.

    Each cell is formatted a column at a time: ``None`` as an empty cell,
    anything else as its ``str`` (a float, numpy's ``float64`` too, as its
    shortest round-trip repr), quoted when it holds a character in
    ``_QUOTED_CHARS``, with its quotes doubled.  A row whose line would be
    empty is written as ``""``.  Columns of unequal length raise ``ValueError``.
    """
    def quoted(text: str) -> bool:
        return any(char in text for char in _QUOTED_CHARS)

    cells = []
    for column in columns:
        text = (["" if cell is None else str(cell) for cell in column] if None in column
                else list(map(str, column)))
        # One substring test per character over the joined column, so a
        # column whose cells need no quotes (every number) costs one pass.
        if quoted("".join(text)):
            text = ['"' + cell.replace('"', '""') + '"' if quoted(cell) else cell
                    for cell in text]
        cells.append(text)
    lines = list(map(",".join, zip(*cells, strict=True)))
    return [line or '""' for line in lines] if len(cells) == 1 else lines


def _write_columns(path, header, columns) -> None:
    """Write the ``header`` row, then the rows ``columns`` hold, as CSV."""
    lines = _csv_lines([[name, *column] for name, column in zip(header, columns, strict=True)])
    _atomic_write(path, lambda handle: handle.write("\n".join(lines) + "\n"))


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON plus a newline, atomically."""
    _atomic_write(path, lambda handle: handle.write(json.dumps(doc, indent=2) + "\n"))


def write_records_csv(table: RecordTable, path) -> None:
    """records.csv from the table's columns; a failed record's metric cells
    are empty."""
    metrics = table.scores.T.tolist()
    errors = [None] * len(table)
    for j, error in table.errors.items():
        errors[j] = error
        for column in metrics:
            column[j] = None
    _write_columns(path, RECORD_COLUMNS, [table.gap_ids, table.imputer_ids,
                                          table.gap_lens.tolist(), *metrics, errors])


def read_records_csv(path) -> RecordTable:
    """The records of a records.csv as a run writes it: one row per (gap_id,
    imputer_id), one ``gap_len`` per gap_id, and no metrics beside an error.
    Any other file raises ``ParseError`` naming its first offending line."""
    gap_ids, imputer_ids, gap_lens, scores, errors = [], [], [], [], {}
    seen, len_of = set(), {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != RECORD_COLUMNS:
            raise ParseError(f"unexpected records header {header!r}", line=1)
        for line, row in enumerate(reader, start=2):
            if len(row) != len(RECORD_COLUMNS):
                raise ParseError("wrong column count", line=line)
            gap_id, imputer_id, gap_len, *metrics, error = row
            try:
                gap_len = GAP_LEN.normalize(int(gap_len))
                values = [float(cell) if cell else None for cell in metrics]
                if not error:
                    check_scores(values)
            except (ValueError, ShapeError, InvalidParameterError) as exc:
                # ShapeError: a non-finite metric; InvalidParameterError: gap_len
                raise ParseError(f"unparseable record row: {exc}", line=line) from None
            key = (gap_id, imputer_id)
            if key in seen:
                raise ParseError(f"record {key!r} given twice", line=line)
            seen.add(key)
            if len_of.setdefault(gap_id, gap_len) != gap_len:
                raise ParseError(f"gap {gap_id!r} given two gap_len values", line=line,
                                 gap_len=(len_of[gap_id], gap_len))
            if error:
                if any(metrics):
                    raise ParseError("a failed record holds no metrics", line=line)
                errors[len(gap_ids)] = error
                values = [math.nan] * len(METRICS)
            gap_ids.append(gap_id)
            imputer_ids.append(imputer_id)
            gap_lens.append(gap_len)
            scores.append(values)
    return RecordTable(gap_ids, imputer_ids, np.array(gap_lens, dtype=np.int64),
                       np.array(scores, dtype=float).reshape(-1, len(METRICS)), errors)


def write_aggregates_csv(rows: list[AggregateRow], path) -> None:
    _write_columns(path, AGGREGATE_COLUMNS,
                   [[getattr(row, name) for row in rows] for name in AGGREGATE_COLUMNS])


def _plot_columns(exact: list[AggregateRow], metric: str, imputer_ids: list[str]):
    """Plot-ready wide table: one row per gap size, one column per imputer."""
    table: dict[int, dict[str, float]] = {}
    for row in exact:
        table.setdefault(row.gap_len, {})[row.imputer_id] = getattr(row, f"mean_{metric}")
    gap_lens = sorted(table)
    return [gap_lens, *[[table[gap_len].get(i) for gap_len in gap_lens] for i in imputer_ids]]


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
        _write_columns(written[-1], ("gap_len", *imputer_ids),
                       _plot_columns(exact, metric, imputer_ids))
    return written
