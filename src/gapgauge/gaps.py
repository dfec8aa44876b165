"""Reproducible artificial gaps and their pre-gap reference windows.

A gap of length L starting at index i hides positions [i, i+L).  The L
observed values immediately before it, [i-L, i), form the reference window
used by the ground-truth-free metrics, so placement always reserves that
window: every generated gap satisfies ``start_index >= length`` and the
extended intervals gap-plus-window are pairwise disjoint across a GapSet.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, GapConflictError, InvalidParameterError,
                     ReferenceWindowError, TrainingWindowError)
from .series import ParamSpec, TimeSeries, _check_window

# Counter-based generator so gap placement is bit-reproducible across
# platforms; the name is echoed in every report for cross-checking.
PRNG_ALGORITHM = "philox4x64"

# The numbers of a gap request; a run's settings (EvalConfig) check theirs
# through the same specs and take their defaults.
N_GAPS = ParamSpec("n_gaps", int, 100, low=1)
MIN_LEN = ParamSpec("min_len", int, 2, low=1)
MAX_LEN = ParamSpec("max_len", int, 48, low=1)
SEED = ParamSpec("seed", int, 0, low=0, high=2**64 - 1)
_SERIES_LENGTH = ParamSpec("series_length", int, None)
_MIN_START = ParamSpec("min_start", int, 0, low=0)


def philox_generator(seed: int) -> np.random.Generator:
    """The generator behind every seeded draw: gap placement, synthesis, GBT."""
    return np.random.Generator(np.random.Philox(key=np.uint64(SEED.normalize(seed))))


@dataclass(frozen=True)
class GapSpec:
    start_index: int
    length: int

    @property
    def end_index(self) -> int:
        return self.start_index + self.length

    def extended_interval(self) -> tuple[int, int]:
        """Half-open interval covering the gap and its pre-gap window."""
        return self.start_index - self.length, self.end_index


@dataclass(frozen=True)
class GapSet:
    gaps: tuple[GapSpec, ...]
    seed: int
    source_length: int

    def __len__(self):
        return len(self.gaps)

    def __iter__(self):
        return iter(self.gaps)

    def to_json_dict(self) -> dict:
        """Byte-stable field order: seed, source_length, gaps."""
        return {
            "seed": self.seed,
            "source_length": self.source_length,
            "gaps": [{"start": g.start_index, "len": g.length} for g in self.gaps],
        }


def generate_gaps(series_length: int, n_gaps: int, min_len: int, max_len: int,
                  seed: int, min_start: int = _MIN_START.default) -> GapSet:
    """Place ``n_gaps`` disjoint gaps by rejection sampling.

    Lengths are drawn uniformly from [min_len, max_len] and starts uniformly
    among feasible positions (``start >= max(length, min_start)`` and the
    extended gap-plus-window interval free of earlier placements).  The
    result is a pure function of the arguments.  ``min_start`` lets a caller
    reserve head-of-series history, e.g. for model training windows.

    Each count is checked by its ``ParamSpec`` and the seed by
    :func:`philox_generator` (``InvalidParameterError``).  Raises
    :class:`CapacityError` after ``10_000 * n_gaps`` total rejected draws,
    reporting how many gaps were placed, and before any draw when the
    request provably cannot fit.
    """
    series_length, n_gaps, min_len, max_len, min_start = (
        spec.normalize(value) for spec, value in zip(
            (_SERIES_LENGTH, N_GAPS, MIN_LEN, MAX_LEN, _MIN_START),
            (series_length, n_gaps, min_len, max_len, min_start)))
    if min_len > max_len:
        raise InvalidParameterError("need min_len <= max_len",
                                    min_len=min_len, max_len=max_len)
    rng = philox_generator(seed)

    # Every extended interval spans at least 2 * min_len samples and lies in
    # [max(0, min_start - max_len), series_length); disjoint ones that do not
    # fit in that span in total can never all be placed.
    room = series_length - max(0, min_start - max_len)
    if n_gaps * 2 * min_len > room:
        raise CapacityError(
            "gaps with their windows cannot fit in the series",
            placed=0, requested=n_gaps, series_length=series_length,
            min_len=min_len, room=room)

    occupied: list[tuple[int, int]] = []  # accepted extended intervals, sorted
    placed: list[GapSpec] = []
    max_attempts = 10_000 * n_gaps
    attempts = 0
    while len(placed) < n_gaps:
        if attempts >= max_attempts:
            raise CapacityError(
                "could not place all gaps disjointly",
                placed=len(placed), requested=n_gaps,
                series_length=series_length, attempts=attempts)
        attempts += 1
        length = int(rng.integers(min_len, max_len + 1))
        lo = max(length, min_start)
        hi = series_length - length  # inclusive upper bound for start
        if hi < lo:
            continue
        gap = GapSpec(int(rng.integers(lo, hi + 1)), length)
        ext = gap.extended_interval()
        # The accepted intervals are disjoint, so sorted by start they are
        # sorted by end too: only the neighbours of ext's slot can overlap it.
        slot = bisect.bisect_left(occupied, ext)
        if slot > 0 and occupied[slot - 1][1] > ext[0]:
            continue
        if slot < len(occupied) and occupied[slot][0] < ext[1]:
            continue
        occupied.insert(slot, ext)
        placed.append(gap)

    placed.sort(key=lambda g: g.start_index)
    return GapSet(gaps=tuple(placed), seed=int(seed), source_length=series_length)


def apply_gaps(series: TimeSeries, gaps: GapSet) -> tuple[TimeSeries, dict[GapSpec, np.ndarray]]:
    """Mask every gap position; return the masked series and held-out truth.

    Truth values are kept per gap in index order.  A gap not inside the
    series raises ``RangeError``; one touching an already missing position
    raises :class:`GapConflictError` naming the gap.
    """
    masked = series.copy()
    truth: dict[GapSpec, np.ndarray] = {}
    for gap in gaps:
        _check_window(series, gap.start_index, gap.length)
        window = slice(gap.start_index, gap.end_index)
        if not series.observed[window].all():
            raise GapConflictError("gap overlaps an already-missing position",
                                   start=gap.start_index, length=gap.length)
        truth[gap] = series.values[window].copy()
        masked.observed[window] = False
    return masked, truth


def pre_gap_window(series: TimeSeries, gap: GapSpec) -> np.ndarray:
    """The ``gap.length`` values immediately preceding the gap.

    The window must lie inside the series and be fully observed in the
    given (possibly masked) series.
    """
    lo = gap.start_index - gap.length
    if lo < 0:
        raise ReferenceWindowError("pre-gap window underflows the series",
                                   start=gap.start_index, length=gap.length)
    window = slice(lo, gap.start_index)
    if not series.observed[window].all():
        raise ReferenceWindowError("pre-gap window contains unobserved positions",
                                   start=gap.start_index, length=gap.length)
    return series.values[window].copy()


def training_window_start(series: TimeSeries, gap: GapSpec, span: int) -> int:
    """Start of the ``span`` samples immediately preceding the gap.

    The window must lie inside the series and be fully observed, else
    :class:`TrainingWindowError`.
    """
    lo = gap.start_index - span
    if lo < 0:
        raise TrainingWindowError("training window underflows the series",
                                  gap_start=gap.start_index, train_span=span)
    if not series.observed[lo:gap.start_index].all():
        raise TrainingWindowError("training window overlaps missing data",
                                  gap_start=gap.start_index, train_span=span)
    return lo
