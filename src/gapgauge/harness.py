"""End-to-end evaluation protocol.

Generate reproducible artificial gaps in a complete series, run every
configured imputer on every gap, then score every fill with both metric
families (WD/JSD against the pre-gap window, RMSE/MAE against held-out
truth) in one row-batched call per gap length, aggregate per gap size, and
measure rank agreement between the families.

Each gap is imputed in isolation: the imputer sees the original series with
only that gap masked, so one method's training window is never corrupted by
a different artificial gap.  The gap's held-out values read as NaN and the
series an imputer receives is read-only.  Gap placement reserves the largest
head-of-series history that the configured imputer kinds declare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import (ConfigError, DegenerateError, GapgaugeError,
                     InvalidParameterError, ShapeError)
from .gaps import PRNG_ALGORITHM, GapSet, GapSpec, apply_gaps, generate_gaps, pre_gap_window
from .imputers import ImputerConfig, derive_seed, impute, kind_spec
from .metrics import METRICS, MetricRecord, jsd, mae, rmse, wasserstein_1d
from .ranking import kendall, spearman
from .series import TimeSeries, validate

AGGREGATIONS = ("exact", "quartile")
METRIC_PAIRINGS = (("wd", "rmse"), ("wd", "mae"), ("jsd", "rmse"), ("jsd", "mae"))


@dataclass
class EvalConfig:
    imputers: list[ImputerConfig]
    n_gaps: int = 100
    min_len: int = 2
    max_len: int = 48
    seed: int = 0
    bins: int = 10
    epsilon: float = 1e-6
    aggregation: str = "exact"

    def __post_init__(self):
        if self.n_gaps < 1:
            raise ConfigError("n_gaps must be >= 1", n_gaps=self.n_gaps)
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError("need 1 <= min_len <= max_len",
                              min_len=self.min_len, max_len=self.max_len)
        if not self.imputers:
            raise ConfigError("need at least one imputer")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit an unsigned 64-bit integer",
                              seed=self.seed)
        if self.bins < 2:
            raise ConfigError("bins must be >= 2", bins=self.bins)
        if not self.epsilon > 0:
            raise ConfigError("epsilon must be > 0", epsilon=self.epsilon)
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError("unknown aggregation rule",
                              aggregation=self.aggregation, known=AGGREGATIONS)
        ids = [c.imputer_id for c in self.imputers]
        if len(set(ids)) < len(ids):
            # equal ids would merge into one imputer's aggregates
            raise ConfigError("duplicate imputer configurations", imputer_ids=ids)

    def to_json_dict(self) -> dict:
        return {
            "n_gaps": self.n_gaps,
            "min_len": self.min_len,
            "max_len": self.max_len,
            "seed": self.seed,
            "bins": self.bins,
            "epsilon": self.epsilon,
            "aggregation": self.aggregation,
            "imputers": [{"kind": c.kind, "params": c.params,
                          "imputer_id": c.imputer_id} for c in self.imputers],
        }


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
    gaps: GapSet = field(default=None)

    def to_json_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "records": [vars(r) for r in self.records],
            "aggregates": [vars(a) for a in self.aggregates],
            "rank_agreement": self.agreement,
            "gaps": None if self.gaps is None else self.gaps.to_json_dict(),
        }


def required_history(config: ImputerConfig, max_gap_len: int) -> int:
    """Head-of-series samples an imputer may need before any gap."""
    return kind_spec(config.kind).history(config.params, max_gap_len)


def _single_gap_view(work: TimeSeries, gap: GapSpec) -> TimeSeries:
    """Mask ``gap`` in the working copy in place and hand out a read-only view.

    The gap's values become NaN, so an imputer cannot read the held-out
    truth; both arrays stay read-only until :func:`_restore_gap` runs, so an
    imputer that writes into its input raises instead of leaking into the
    next job.
    """
    window = slice(gap.start_index, gap.end_index)
    work.observed[window] = False
    work.values[window] = np.nan
    work.values.flags.writeable = False
    work.observed.flags.writeable = False
    return TimeSeries(work.start_time, work.step, work.values, work.observed)


def _restore_gap(work: TimeSeries, series: TimeSeries, gap: GapSpec) -> None:
    """Undo :func:`_single_gap_view` from the caller's untouched ``series``."""
    window = slice(gap.start_index, gap.end_index)
    work.values.flags.writeable = True
    work.observed.flags.writeable = True
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
        reference = np.stack([references[jobs[j][0]].values for j in members])
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
    check = validate(series)
    if not check.ok:
        raise ConfigError("series failed validation", violations=check.violations)
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

    # One working copy; each job masks its gap in place and restores it
    # before the next job.  A job's outcome is its fill or its error string;
    # all fills are scored together once every job has run.
    work = series.copy()
    imputer_ids = [c.imputer_id for c in config.imputers]
    reads_seed = [kind_spec(c.kind).reads_seed for c in config.imputers]
    jobs, outcomes = [], []
    for gi, gap in enumerate(gap_set.gaps):
        for mi, imputer in enumerate(config.imputers):
            jobs.append((gi, gap, imputer_ids[mi]))
            try:
                view = _single_gap_view(work, gap)
                seed = derive_seed(config.seed, gi, mi) if reads_seed[mi] else 0
                outcomes.append(impute(view, gap, imputer, seed=seed))
            except GapgaugeError as exc:
                outcomes.append(_failure(exc))
            finally:
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
            f"mean_{m}": sum(getattr(r, f"mean_{m}") * r.n for r in rows) / total
            for m in METRICS}
    return {"pooled": pair_block(pooled_scores), "per_gap_len": per_size}
