"""End-to-end evaluation protocol.

Generate reproducible artificial gaps in a complete series, run every
configured imputer on every gap, then score every fill with both metric
families (WD/JSD against the pre-gap window, RMSE/MAE against held-out
truth) in one row-batched call per gap length, aggregate per gap size, and
measure rank agreement between the families.

Each gap is imputed in isolation: the imputer sees the original series with
only that gap masked, so one method's training window is never corrupted by
a different artificial gap.  The gap's held-out values read as NaN and the
series an imputer receives is read-only.  A row kind (``polynomial``) fills
every gap in one ``impute`` call on the unmasked series, never reading a
gap's own positions, so each fill equals its one-gap fill.  Gap placement
reserves the largest head-of-series history the imputer kinds declare.
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
from .metrics import BINS, EPSILON, METRICS, MetricRecord, jsd, mae, rmse, wasserstein_1d
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


@dataclass
class EvalReport:
    records: list[MetricRecord]
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


def _score_fills(jobs, outcomes, references, truth, config) -> list[dict | None]:
    """Both metric families of every fill, one batch call per gap length.

    ``jobs[j]`` is ``(gap index, gap, imputer_id)`` and ``outcomes[j]`` its
    fill, or its error string, which scores ``None``.  The fills of each
    length are stacked into rows beside their reference windows (indexed
    by gap) and held-out truths (keyed by gap).
    """
    by_length: dict[int, list[int]] = {}
    for j, outcome in enumerate(outcomes):
        if not isinstance(outcome, str):
            by_length.setdefault(len(outcome), []).append(j)
    scores: list[dict | None] = [None] * len(outcomes)
    for members in by_length.values():
        filled = np.stack([outcomes[j] for j in members])
        reference = np.stack([references[jobs[j][0]] for j in members])
        held_out = np.stack([truth[jobs[j][1]] for j in members])
        # A finite fill can still overflow a metric; the non-finite score
        # becomes a typed failure on its record, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            columns = (wasserstein_1d(filled, reference),
                       jsd(filled, reference, bins=config.bins, epsilon=config.epsilon),
                       rmse(filled, held_out), mae(filled, held_out))
        for j, values in zip(members, zip(*(c.tolist() for c in columns))):
            scores[j] = dict(zip(METRICS, values))
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
    masked, truth = apply_gaps(series, gap_set)
    references = [pre_gap_window(masked, gap) for gap in gap_set]

    # One private working copy, read through read-only views, each call
    # through its own TimeSeries.  Row kinds fill every gap in one call on
    # the unmasked copy; for the rest each gap is masked once, imputed, then
    # restored.  A job's outcome is its fill or its error string.
    work = series.copy()
    values, observed = work.values.view(), work.observed.view()
    values.flags.writeable = observed.flags.writeable = False
    imputer_ids = [c.imputer_id for c in config.imputers]
    specs = [kind_spec(c.kind) for c in config.imputers]
    rows = {mi: impute(TimeSeries(work.start_time, work.step, values, observed),
                       gap_set.gaps, imputer)
            for mi, imputer in enumerate(config.imputers) if specs[mi].fill_gaps}
    jobs, outcomes = [], []
    for gi, gap in enumerate(gap_set.gaps):
        _single_gap_view(work, gap)
        for mi, imputer in enumerate(config.imputers):
            jobs.append((gi, gap, imputer_ids[mi]))
            if mi in rows:
                outcome = rows[mi][gi]
            else:
                view = TimeSeries(work.start_time, work.step, values, observed)
                seed = derive_seed(config.seed, gi, mi) if specs[mi].reads_seed else 0
                try:
                    outcome = impute(view, gap, imputer, seed=seed)
                except GapgaugeError as exc:
                    outcome = exc
            outcomes.append(_failure(outcome) if isinstance(outcome, GapgaugeError) else outcome)
        _restore_gap(work, series, gap)

    scores = _score_fills(jobs, outcomes, references, truth, config)
    records = []
    for (gi, gap, imputer_id), outcome, score in zip(jobs, outcomes, scores):
        keys = dict(gap_id=f"gap{gi:03d}", imputer_id=imputer_id, gap_len=gap.length)
        if score is None:
            records.append(MetricRecord(**keys, error=outcome))
            continue
        try:
            records.append(MetricRecord(**keys, **score))
        except ShapeError as exc:  # a non-finite metric
            records.append(MetricRecord(**keys, error=_failure(exc)))

    aggregates = aggregate(records, config.aggregation)
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
    return EvalReport(records=records, aggregates=aggregates,
                      agreement=agreement, provenance=provenance, gaps=gap_set)


def aggregate(records: list[MetricRecord], bucketing: str = "exact") -> list[AggregateRow]:
    """Arithmetic means of each metric per (imputer, gap-size bucket).

    ``exact`` buckets by gap length in samples; ``quartile`` buckets by
    quartile of the observed gap-length distribution, labelled by each
    bucket's largest length.  Failed records are excluded from means and
    counted in ``n_failed``; buckets with no successes are omitted.
    """
    if not records:
        raise InvalidParameterError("no records to aggregate")
    if bucketing not in AGGREGATIONS:
        raise InvalidParameterError("unknown aggregation rule", bucketing=bucketing)

    if bucketing == "exact":
        def bucket_of(record):
            return record.gap_len
    else:
        all_lengths = np.array([r.gap_len for r in records])
        edges = np.quantile(all_lengths, [0.25, 0.5, 0.75])
        quartile = {length: int(np.searchsorted(edges, length, side="left"))
                    for length in np.unique(all_lengths)}
        label = {}  # quartile index -> largest gap length it holds
        for length, q in quartile.items():
            label[q] = max(label.get(q, 0), int(length))

        def bucket_of(record):
            return label[quartile[record.gap_len]]

    groups: dict[tuple[str, int], list[MetricRecord]] = {}
    for record in records:
        groups.setdefault((record.imputer_id, bucket_of(record)), []).append(record)

    rows = []
    for imputer_id, bucket in sorted(groups):
        members = groups[(imputer_id, bucket)]
        ok = [r for r in members if not r.failed]
        n_failed = len(members) - len(ok)
        if not ok:
            continue
        rows.append(AggregateRow(
            imputer_id=imputer_id, gap_len=bucket,
            **{f"mean_{m}": float(np.mean([getattr(r, m) for r in ok]))
               for m in METRICS},
            n=len(ok), n_failed=n_failed))
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
