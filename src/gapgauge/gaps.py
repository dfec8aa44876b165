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
from typing import Sequence

import numpy as np

from .errors import (CapacityError, GapConflictError, InvalidParameterError,
                     ReferenceWindowError, TrainingWindowError)
from .series import ParamSpec, TimeSeries, _check_window

# Counter-based generator so gap placement is bit-reproducible across
# platforms; the name is echoed in every report for cross-checking.
PRNG_ALGORITHM = "philox4x64"
_WORDS_PER_READ = 256  # Philox words a placement reads at a time

# The numbers of a gap request; a run's settings (EvalConfig) check theirs
# through the same specs and take their defaults.
N_GAPS = ParamSpec("n_gaps", int, 100, low=1)
MIN_LEN = ParamSpec("min_len", int, 2, low=1)
MAX_LEN = ParamSpec("max_len", int, 48, low=1, high=2**63 - 1)
SEED = ParamSpec("seed", int, 0, low=0, high=2**64 - 1)
# The largest series and gap lengths whose draws stay within int64.
_SERIES_LENGTH = ParamSpec("series_length", int, None, high=2**63)
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
    reserve head-of-series history, e.g. for model training windows.  Each
    candidate draws its length, then its start, as
    ``Generator.integers(low, high + 1)`` would on the seed's Philox stream
    (see :func:`_bounded_integers`).

    Each count is checked by its ``ParamSpec`` and the seed by
    :func:`philox_generator` (``InvalidParameterError``); ``series_length``
    may be at most 2**63 and ``max_len`` at most 2**63 - 1, so every draw
    stays within int64.  Raises :class:`CapacityError` after
    ``10_000 * n_gaps`` total rejected draws, reporting how many gaps were
    placed, and before any draw when the request provably cannot fit.
    """
    series_length, n_gaps, min_len, max_len, min_start = (
        spec.normalize(value) for spec, value in zip(
            (_SERIES_LENGTH, N_GAPS, MIN_LEN, MAX_LEN, _MIN_START),
            (series_length, n_gaps, min_len, max_len, min_start)))
    if min_len > max_len:
        raise InvalidParameterError("need min_len <= max_len",
                                    min_len=min_len, max_len=max_len)
    draw = _bounded_integers(philox_generator(seed).bit_generator)

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
        length = draw(min_len, max_len)
        lo = max(length, min_start)
        hi = series_length - length  # inclusive upper bound for start
        if hi < lo:
            continue
        start = draw(lo, hi)
        ext = (start - length, start + length)
        # The accepted intervals are disjoint, so sorted by start they are
        # sorted by end too: only the neighbours of ext's slot can overlap it.
        slot = bisect.bisect_left(occupied, ext)
        if slot > 0 and occupied[slot - 1][1] > ext[0]:
            continue
        if slot < len(occupied) and occupied[slot][0] < ext[1]:
            continue
        occupied.insert(slot, ext)
        placed.append(GapSpec(start, length))

    placed.sort(key=lambda g: g.start_index)
    return GapSet(gaps=tuple(placed), seed=int(seed), source_length=series_length)


def _bounded_integers(bit_generator: np.random.BitGenerator):
    """``draw(low, high)``: the value ``Generator.integers(low, high + 1)``
    returns for ``0 <= low <= high < 2**63``, computed in Python ints from
    raw 64-bit words that are read ``_WORDS_PER_READ`` at a time.

    This is numpy's bounded-integer rule, Lemire's multiply-shift with
    rejection (Lemire, "Fast Random Integer Generation in an Interval",
    ACM TOMACS 2019).  A one-value range draws nothing.  A range of at most
    2**32 values multiplies a 32-bit draw: the low half of a word, with the
    high half kept for the next 32-bit draw.  A larger range multiplies a
    whole word.  A product whose low part falls below ``2**k mod range``
    (k = 32 or 64) is drawn again.  Words read past the last draw are left
    unused, so ``bit_generator`` must not serve other draws.
    """
    words: list[int] = []
    at, half = 0, None

    def word() -> int:
        nonlocal words, at
        if at == len(words):
            words, at = bit_generator.random_raw(_WORDS_PER_READ).tolist(), 0
        at += 1
        return words[at - 1]

    def draw(low: int, high: int) -> int:
        nonlocal half
        size = high - low + 1
        if size == 1:
            return low
        if size > 2**32:
            threshold = 2**64 % size
            while True:
                product = word() * size
                if product & (2**64 - 1) >= threshold:
                    return low + (product >> 64)
        threshold = 2**32 % size
        while True:
            if half is None:
                whole = word()
                product, half = (whole & (2**32 - 1)) * size, whole >> 32
            else:
                product, half = half * size, None
            if product & (2**32 - 1) >= threshold:
                return low + (product >> 32)

    return draw


def apply_gaps(series: TimeSeries, gaps: GapSet) -> tuple[TimeSeries, dict[GapSpec, np.ndarray]]:
    """Mask every gap position; return the masked series and held-out truth.

    Truth values are kept per gap in index order; every gap's positions are
    masked, and their values read, through one index array.  A gap not
    inside the series raises ``RangeError`` (a field that is not an integer,
    ``InvalidParameterError``), checked for every gap first; then one
    touching an already missing position raises :class:`GapConflictError`
    naming the first such gap.
    """
    gaps = tuple(gaps)
    for gap in gaps:
        _check_window(series, gap.start_index, gap.length)
    starts = np.array([gap.start_index for gap in gaps], dtype=np.intp)
    lengths = np.array([gap.length for gap in gaps], dtype=np.intp)
    ends = np.cumsum(lengths)  # each gap's end among all gaps' positions
    index = np.arange(ends[-1] if gaps else 0) + np.repeat(starts - ends + lengths, lengths)
    clear = series.observed[index]
    if not clear.all():
        gap = gaps[int(np.searchsorted(ends, np.argmin(clear), side="right"))]
        raise GapConflictError("gap overlaps an already-missing position",
                               start=gap.start_index, length=gap.length)
    masked = series.copy()
    masked.observed[index] = False
    held_out, ends = series.values[index], ends.tolist()
    return masked, {gap: held_out[end - gap.length:end] for gap, end in zip(gaps, ends)}


def pre_gap_window(series: TimeSeries, gap: GapSpec | Sequence[GapSpec]) -> np.ndarray:
    """The ``gap.length`` values immediately preceding the gap, as a float copy.

    The gap must lie inside the series (``RangeError``; a field that is not
    an integer, ``InvalidParameterError``), and its window must lie inside
    the series and be fully observed in the given (possibly masked) series
    (``ReferenceWindowError``).  Given a sequence of gaps of one length,
    returns their windows as the rows of one ``(gaps, length)`` array after
    the same checks, raising the error of the first gap that fails one, so
    each row equals that gap's one-gap call.
    """
    rows = not isinstance(gap, GapSpec)
    gaps = gap if rows else (gap,)
    for each in gaps:
        _check_window(series, each.start_index, each.length)
    lengths = sorted({each.length for each in gaps})
    if len(lengths) != 1:
        raise InvalidParameterError("the row form takes one or more gaps of one length",
                                    lengths=lengths)
    length = int(lengths[0])
    lo = np.array([each.start_index for each in gaps], dtype=np.intp) - length
    index = lo[:, None] + np.arange(length)
    underflow = lo < 0
    failed = underflow | ~series.observed.take(index, mode="clip").all(axis=1)
    if failed.any():
        at = int(np.argmax(failed))
        reason = "underflows the series" if underflow[at] else "contains unobserved positions"
        raise ReferenceWindowError(f"pre-gap window {reason}",
                                   start=gaps[at].start_index, length=length)
    windows = series.values[index]
    return windows if rows else windows[0]


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
