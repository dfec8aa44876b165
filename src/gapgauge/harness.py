"""End-to-end evaluation protocol.

Generate reproducible artificial gaps in a complete series, run every
configured imputer on every gap, then score every fill with both metric
families (WD/JSD against the pre-gap window, RMSE/MAE against held-out
truth) in one row-batched call per gap length, aggregate per gap size, and
measure rank agreement between the families.  A run's records are one
column table (:class:`RecordTable`); records.csv is written from it and read
back into it.

Each gap is imputed in isolation: the imputer sees the original series with
only that gap masked, so one method's training window is never corrupted by
a different artificial gap.  The gap's held-out values read as NaN and the
series an imputer receives is read-only.  A row kind (``polynomial``,
``seasonal_naive``) fills every gap in one ``impute`` call on the unmasked
series, never reading a gap's own positions, so each fill equals its
one-gap fill.  Every other job is one ``impute`` call on its gap, given the
job's derived seed.  Gap placement reserves the largest head-of-series
history the imputer kinds declare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .errors import (ConfigError, DegenerateError, GapgaugeError,
                     InvalidParameterError, ShapeError)
from .gaps import (MAX_LEN, MIN_LEN, N_GAPS, PRNG_ALGORITHM, SEED, GapSet, GapSpec,
                   apply_gaps, generate_gaps, pre_gap_window)
from .imputers import ImputerConfig, derive_seed, impute, kind_spec
from .metrics import BINS, EPSILON, METRICS, check_scores, jsd, mae, rmse, wasserstein_1d
from .ranking import kendall, spearman
from .series import TimeSeries, fits_in_memory, validate

AGGREGATIONS = ("exact", "quartile")
METRIC_PAIRINGS = (("wd", "rmse"), ("wd", "mae"), ("jsd", "rmse"), ("jsd", "mae"))
# The numeric settings, each checked by the spec of the module that reads it.
_SETTINGS = (N_GAPS, MIN_LEN, MAX_LEN, SEED, BINS, EPSILON)


@dataclass
class EvalConfig:
    """A run's settings.  Each numeric one is stored as its spec normalizes
    it, a Python ``int`` or ``float``; a value the spec rejects raises
    ``ConfigError`` keyed by the field's name.  The rules across fields run
    after every spec."""

    imputers: list[ImputerConfig]
    n_gaps: int = N_GAPS.default
    min_len: int = MIN_LEN.default
    max_len: int = MAX_LEN.default
    seed: int = SEED.default
    bins: int = BINS.default
    epsilon: float = EPSILON.default
    aggregation: str = "exact"

    def __post_init__(self):
        for spec in _SETTINGS:
            value = getattr(self, spec.name)
            try:
                setattr(self, spec.name, spec.normalize(value))
            except InvalidParameterError as exc:
                bounds = {k: v for k, v in exc.context.items() if k != "value"}
                raise ConfigError(exc.message, **{spec.name: value}, **bounds) from None
        if not self.imputers:
            raise ConfigError("need at least one imputer")
        if self.min_len > self.max_len:
            raise ConfigError("need min_len <= max_len",
                              min_len=self.min_len, max_len=self.max_len)
        if not fits_in_memory(self.bins + 1, bytes_each=8):
            raise ConfigError("bins + 1 histogram edges exceed physical memory",
                              bins=self.bins)
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError("unknown aggregation rule",
                              aggregation=self.aggregation, known=AGGREGATIONS)
        ids = [c.imputer_id for c in self.imputers]
        if len(set(ids)) < len(ids):
            # equal ids would merge into one imputer's aggregates
            raise ConfigError("duplicate imputer configurations", imputer_ids=ids)

    def to_json_dict(self) -> dict:
        """Every field in declared order, with the imputers last."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "imputers"}
        doc["imputers"] = [{"kind": c.kind, "params": c.params,
                            "imputer_id": c.imputer_id} for c in self.imputers]
        return doc


@dataclass(frozen=True)
class AggregateRow:
    imputer_id: str
    gap_len: int
    mean_wd: float
    mean_jsd: float
    mean_rmse: float
    mean_mae: float
    n: int
    n_failed: int


@dataclass(frozen=True, eq=False)
class RecordTable:
    """A run's records as columns, in record order (gaps by position, each
    gap's imputers in declared order).

    ``scores`` is a records × ``METRICS`` float array, NaN on a failed
    record's row; ``errors`` maps each failed record's row to its
    ``code: message``.  Every other row passes :func:`metrics.check_scores`.
    Columns of unequal length, or an error on no row, raise ``ShapeError``.
    """

    gap_ids: list[str]
    imputer_ids: list[str]
    gap_lens: np.ndarray
    scores: np.ndarray
    errors: dict[int, str]

    def __post_init__(self):
        rows = len(self.gap_ids)
        shapes = (len(self.imputer_ids), np.shape(self.gap_lens), np.shape(self.scores))
        if shapes != (rows, (rows,), (rows, len(METRICS))):
            raise ShapeError("record columns must hold one entry per record", records=rows,
                             imputer_ids=shapes[0], gap_lens=shapes[1], scores=shapes[2])
        outside = [j for j in self.errors if j not in range(rows)]
        if outside:
            raise ShapeError("an error must name a record's row", records=rows, rows=outside)

    def __len__(self) -> int:
        return len(self.gap_ids)


@dataclass
class EvalReport:
    records: RecordTable
    aggregates: list[AggregateRow]
    agreement: dict | None
    provenance: dict
    gaps: GapSet

    def to_json_dict(self) -> dict:
        """report.json's document; the rows live only in the CSVs."""
        return {
            "provenance": self.provenance,
            "rank_agreement": self.agreement,
            "gaps": self.gaps.to_json_dict(),
        }


def required_history(config: ImputerConfig, max_gap_len: int) -> int:
    """Head-of-series samples an imputer may need before any gap."""
    return kind_spec(config.kind).history(config.params, max_gap_len)


def _single_gap_view(work: TimeSeries, gap: GapSpec) -> None:
    """Mask ``gap`` in the private working copy: its values become NaN, so
    an imputer cannot read the held-out truth."""
    window = slice(gap.start_index, gap.end_index)
    work.observed[window] = False
    work.values[window] = np.nan


def _restore_gap(work: TimeSeries, series: TimeSeries, gap: GapSpec) -> None:
    """Undo :func:`_single_gap_view` from the caller's untouched ``series``."""
    window = slice(gap.start_index, gap.end_index)
    work.values[window] = series.values[window]
    work.observed[window] = series.observed[window]


def _failure(exc: GapgaugeError) -> str:
    return f"{exc.code}: {exc.message}"


def _gather_windows(series: TimeSeries, masked: TimeSeries, gaps) -> dict:
    """Each gap length's gap indices, reference windows (from ``masked``)
    and held-out values (from ``series``), the windows and values as the
    rows of one array each, in gap order."""
    groups: dict[int, list[int]] = {}
    for gi, gap in enumerate(gaps):
        groups.setdefault(gap.length, []).append(gi)
    windows = {}
    for length, members in groups.items():
        group = [gaps[gi] for gi in members]
        starts = np.array([gap.start_index for gap in group], dtype=np.intp)
        windows[length] = (np.array(members), pre_gap_window(masked, group),
                           series.values[starts[:, None] + np.arange(length)])
    return windows


def _score_fills(outcomes, failed, windows, config) -> np.ndarray:
    """Both metric families of every fill, one batch call per gap length.

    ``outcomes`` holds each imputer's job outcomes in gap order: a fill, or
    an error; ``failed`` marks the errors in a gaps × imputers array.
    ``windows`` is :func:`_gather_windows`' map.  The fills of each length
    are stacked into rows beside their gaps' reference windows and held-out
    truths.  Returns a float array of shape gaps × imputers × ``METRICS``,
    NaN for a failed job.
    """
    scores = np.full(failed.shape + (len(METRICS),), np.nan)
    for gis, references, truths in windows.values():
        rows, mis = np.nonzero(~failed[gis])
        if not len(rows):
            continue
        gis = gis[rows]
        filled = np.array([outcomes[mi][gi] for gi, mi in zip(gis.tolist(), mis.tolist())])
        reference, held_out = references[rows], truths[rows]
        # A finite fill can still overflow a metric; the non-finite score
        # becomes a typed failure on its record, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            columns = (wasserstein_1d(filled, reference),
                       jsd(filled, reference, bins=config.bins, epsilon=config.epsilon),
                       rmse(filled, held_out), mae(filled, held_out))
        scores[gis, mis] = np.stack(columns, axis=1)
    return scores


def run_evaluation(series: TimeSeries, config: EvalConfig) -> EvalReport:
    """Run the full protocol; per-(gap, imputer) failures never abort the run.

    Jobs run in record order (gaps by position, imputers in declared order),
    so reruns produce identical reports.
    """
    violations = validate(series)
    if violations:
        raise ConfigError("series failed validation", violations=violations)
    if not series.observed.all():
        raise ConfigError("evaluation needs a fully observed series")

    reserve = max(required_history(c, config.max_len) for c in config.imputers)
    if reserve + 2 * config.max_len >= len(series):
        raise ConfigError("series too short for training spans plus gap packing",
                          reserve=reserve, series_length=len(series))
    gap_set = generate_gaps(len(series), config.n_gaps, config.min_len,
                            config.max_len, config.seed, min_start=reserve)
    masked, _ = apply_gaps(series, gap_set)
    windows = _gather_windows(series, masked, gap_set.gaps)

    # One private working copy, read through read-only views, each call
    # through its own TimeSeries.  Row kinds fill every gap in one call on
    # the unmasked copy; for the rest each gap is masked once, imputed, then
    # restored.  Each imputer's column holds its jobs' outcomes in gap
    # order: a fill, or an error.
    work = series.copy()
    values, observed = work.values.view(), work.observed.view()
    values.flags.writeable = observed.flags.writeable = False
    columns = [impute(TimeSeries(work.start_time, work.step, values, observed),
                      gap_set.gaps, imputer) if kind_spec(imputer.kind).fill_gaps else []
               for imputer in config.imputers]
    per_gap = [(mi, imputer) for mi, imputer in enumerate(config.imputers)
               if not kind_spec(imputer.kind).fill_gaps]
    for gi, gap in enumerate(gap_set.gaps):
        _single_gap_view(work, gap)
        for mi, imputer in per_gap:
            view = TimeSeries(work.start_time, work.step, values, observed)
            try:
                outcome = impute(view, gap, imputer, seed=derive_seed(config.seed, gi, mi))
            except GapgaugeError as exc:
                outcome = exc
            columns[mi].append(outcome)
        _restore_gap(work, series, gap)

    table = _record_table(gap_set.gaps, config, columns, windows)
    aggregates = aggregate(table, config.aggregation)
    try:
        agreement = rank_agreement(aggregates)
    except DegenerateError as exc:
        agreement = {"error": str(exc)}

    provenance = {
        "seed": config.seed,
        "prng_algorithm": PRNG_ALGORITHM,
        "config": config.to_json_dict(),
        "series": {"start_time": series.start_time, "step": series.step,
                   "length": len(series)},
        "history_reserve": reserve,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    return EvalReport(records=table, aggregates=aggregates,
                      agreement=agreement, provenance=provenance, gaps=gap_set)


def _record_table(gaps, config, columns, windows) -> RecordTable:
    """The run's records from each imputer's column of job outcomes.

    A failed job's record carries its error; a fill whose scores are not all
    finite fails by :func:`metrics.check_scores`, with the error it raises.
    """
    n_imputers = len(config.imputers)
    failed = np.array([[isinstance(outcome, GapgaugeError) for outcome in column]
                       for column in columns], dtype=bool).T
    errors = {gi * n_imputers + mi: _failure(columns[mi][gi])
              for gi, mi in np.argwhere(failed).tolist()}
    scores = _score_fills(columns, failed, windows, config).reshape(-1, len(METRICS))
    non_finite = np.flatnonzero(~np.isfinite(scores).all(axis=1) & ~failed.ravel())
    for j in non_finite.tolist():
        try:
            check_scores(scores[j].tolist())
        except ShapeError as exc:
            errors[j] = _failure(exc)
    scores[non_finite] = np.nan
    lengths = np.array([gap.length for gap in gaps], dtype=np.int64)
    return RecordTable([f"gap{gi:03d}" for gi in range(len(gaps)) for _ in range(n_imputers)],
                       [c.imputer_id for c in config.imputers] * len(gaps),
                       np.repeat(lengths, n_imputers), scores, errors)


def aggregate(table: RecordTable, bucketing: str = "exact") -> list[AggregateRow]:
    """Arithmetic means of each metric per (imputer, gap-size bucket) of a
    run's records.

    ``exact`` buckets by gap length in samples; ``quartile`` buckets by
    quartile of the observed gap-length distribution, labelled by each
    bucket's largest length.  Failed records are excluded from means and
    counted in ``n_failed``; buckets with no successes are omitted.  Rows
    come sorted by imputer id, then bucket.
    """
    if not len(table):
        raise InvalidParameterError("no records to aggregate")
    if bucketing not in AGGREGATIONS:
        raise InvalidParameterError("unknown aggregation rule", bucketing=bucketing)

    buckets = table.gap_lens
    if bucketing == "quartile":
        quartile = np.searchsorted(np.quantile(buckets, [0.25, 0.5, 0.75]), buckets,
                                   side="left")
        label = np.zeros(4, dtype=buckets.dtype)  # quartile -> largest gap length it holds
        np.maximum.at(label, quartile, buckets)
        buckets = label[quartile]

    # A stable sort keeps each group's rows in record order.
    names = sorted(set(table.imputer_ids))
    code_of = {name: code for code, name in enumerate(names)}
    codes = np.fromiter(map(code_of.__getitem__, table.imputer_ids), dtype=np.intp,
                        count=len(table))
    order = np.lexsort((buckets, codes))
    codes, buckets = codes[order], buckets[order]
    starts = np.flatnonzero(np.r_[True, (codes[1:] != codes[:-1])
                                  | (buckets[1:] != buckets[:-1])])
    ok = ~np.isnan(table.scores[order, 0])  # only a failed record's row holds NaN
    n_ok = np.add.reduceat(ok, starts, dtype=np.intp)
    sizes = np.diff(np.r_[starts, len(order)])
    # One contiguous row per metric: np.mean sums each group's slice of a
    # row pairwise, the same float operations as over that metric's list
    # of the group alone.
    values = table.scores[order[ok]].T.copy()
    first = np.r_[0, np.cumsum(n_ok)[:-1]]
    rows = []
    for code, bucket, count, size, at in zip(codes[starts].tolist(), buckets[starts].tolist(),
                                             n_ok.tolist(), sizes.tolist(), first.tolist()):
        if count:
            means = np.mean(values[:, at:at + count], axis=1).tolist()
            rows.append(AggregateRow(names[code], bucket, *means, count, size - count))
    return rows


def rank_agreement(aggregates: list[AggregateRow]) -> dict:
    """Spearman and Kendall agreement between metric-family rankings.

    Imputers are ranked (lower is better) by each no-ground-truth metric and
    each ground-truth metric; every pairing is reported per gap size (sizes
    where all imputers have successes) and pooled over all records.
    """
    imputer_ids = list(dict.fromkeys(row.imputer_id for row in aggregates))
    if len(imputer_ids) < 2:
        raise DegenerateError("rank agreement needs at least two imputers",
                              found=len(imputer_ids))

    def pair_block(scores: dict[str, dict[str, float]]) -> dict:
        block = {}
        for no_gt, gt in METRIC_PAIRINGS:
            x = [scores[i][f"mean_{no_gt}"] for i in imputer_ids]
            y = [scores[i][f"mean_{gt}"] for i in imputer_ids]
            try:
                block[f"{no_gt}_vs_{gt}"] = {"spearman": spearman(x, y),
                                             "kendall": kendall(x, y)}
            except ShapeError:
                # all scores tied on one side: the correlation is undefined
                block[f"{no_gt}_vs_{gt}"] = {"spearman": None, "kendall": None}
        return block

    by_size: dict[int, dict[str, dict]] = {}
    for row in aggregates:
        by_size.setdefault(row.gap_len, {})[row.imputer_id] = vars(row)

    per_size = {}
    for size in sorted(by_size):
        if set(by_size[size]) == set(imputer_ids):
            per_size[str(size)] = pair_block(by_size[size])

    pooled_scores = {}
    for imputer_id in imputer_ids:
        rows = [r for r in aggregates if r.imputer_id == imputer_id]
        total = sum(r.n for r in rows)
        pooled_scores[imputer_id] = {
            f"mean_{m}": math.fsum(getattr(r, f"mean_{m}") * r.n for r in rows) / total
            for m in METRICS}
    return {"pooled": pair_block(pooled_scores), "per_gap_len": per_size}
