"""Reproducible artificial gaps and their pre-gap reference windows.

A gap of length L starting at index i hides positions [i, i+L).  The L
observed values immediately before it, [i-L, i), form the reference window
used by the ground-truth-free metrics, so placement always reserves that
window: every generated gap satisfies ``start_index >= length`` and the
extended intervals gap-plus-window are pairwise disjoint across a GapSet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, GapConflictError, InvalidParameterError,
                     RangeError, ReferenceWindowError)
from .series import EmpiricalSample, TimeSeries

# Counter-based generator so gap placement is bit-reproducible across
# platforms; the name is echoed in every report for cross-checking.
PRNG_ALGORITHM = "philox4x64"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


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


def generate_gaps(series_length: int, n_gaps: int, min_len: int, max_len: int,
                  seed: int, min_start: int = 0) -> GapSet:
    """Place ``n_gaps`` disjoint gaps by rejection sampling.

    Lengths are drawn uniformly from [min_len, max_len] and starts uniformly
    among feasible positions (``start >= max(length, min_start)`` and the
    extended gap-plus-window interval free of earlier placements).  The
    result is a pure function of the arguments.  ``min_start`` lets a caller
    reserve head-of-series history, e.g. for model training windows.

    Raises :class:`CapacityError` after ``10_000 * n_gaps`` total rejected
    draws, reporting how many gaps were placed, and before any draw when the
    request provably cannot fit.
    """
    if not (1 <= min_len <= max_len):
        raise InvalidParameterError("need 1 <= min_len <= max_len",
                                    min_len=min_len, max_len=max_len)
    if n_gaps < 1:
        raise InvalidParameterError("n_gaps must be >= 1", n_gaps=n_gaps)
    if min_start < 0:
        raise InvalidParameterError("min_start must be >= 0", min_start=min_start)
    if not 0 <= seed < 2**64:
        raise InvalidParameterError("seed must fit an unsigned 64-bit integer",
                                    seed=seed)

    # Every extended interval spans at least 2 * min_len samples and lies in
    # [max(0, min_start - max_len), series_length); disjoint ones that do not
    # fit in that span in total can never all be placed.
    room = series_length - max(0, min_start - max_len)
    if n_gaps * 2 * min_len > room:
        raise CapacityError(
            "gaps with their windows cannot fit in the series",
            placed=0, requested=n_gaps, series_length=series_length,
            min_len=min_len, room=room)

    rng = _rng(seed)
    occupied: list[tuple[int, int]] = []  # accepted extended intervals
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
        start = int(rng.integers(lo, hi + 1))
        ext = (start - length, start + length)
        if any(ext[0] < b and a < ext[1] for a, b in occupied):
            continue
        occupied.append(ext)
        placed.append(GapSpec(start, length))

    placed.sort(key=lambda g: g.start_index)
    return GapSet(gaps=tuple(placed), seed=int(seed), source_length=series_length)


def apply_gaps(series: TimeSeries, gaps: GapSet) -> tuple[TimeSeries, dict[GapSpec, np.ndarray]]:
    """Mask every gap position; return the masked series and held-out truth.

    Truth values are kept per gap in index order.  A gap touching an already
    missing position raises :class:`GapConflictError` naming the gap.
    """
    masked = series.copy()
    truth: dict[GapSpec, np.ndarray] = {}
    for gap in gaps:
        if gap.start_index < 0 or gap.length < 1:
            raise RangeError("gap start/length out of range",
                             start=gap.start_index, length=gap.length)
        if gap.end_index > len(series):
            raise RangeError("gap end exceeds series length",
                             end=gap.end_index, series_length=len(series))
        window = slice(gap.start_index, gap.end_index)
        if not series.observed[window].all():
            raise GapConflictError("gap overlaps an already-missing position",
                                   start=gap.start_index, length=gap.length)
        truth[gap] = series.values[window].copy()
        masked.observed[window] = False
    return masked, truth


def pre_gap_window(series: TimeSeries, gap: GapSpec) -> EmpiricalSample:
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
    return EmpiricalSample(series.values[window].copy())


def gap_set_to_json(gap_set: GapSet) -> str:
    """Serialize with byte-stable field order: seed, source_length, gaps."""
    doc = {
        "seed": gap_set.seed,
        "source_length": gap_set.source_length,
        "gaps": [{"start": g.start_index, "len": g.length} for g in gap_set],
    }
    return json.dumps(doc)


def gap_set_from_json(text: str) -> GapSet:
    doc = json.loads(text)
    gaps = tuple(GapSpec(int(g["start"]), int(g["len"])) for g in doc["gaps"])
    return GapSet(gaps=gaps, seed=int(doc["seed"]),
                  source_length=int(doc["source_length"]))
