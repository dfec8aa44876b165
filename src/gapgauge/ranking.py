"""Rank correlation between two scorings of the same items.

Used to quantify how closely the ground-truth-free metrics order imputers
the way the ground-truth metrics do.  Ties receive average ranks; Kendall's
coefficient is the tie-corrected tau-b, which reduces to the plain tau when
there are no ties.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSampleError, ShapeError


def average_ranks(scores) -> np.ndarray:
    """Ranks 1..n of the scores in ascending order, ties averaged.

    A score with ``below`` scores under it and ``upto`` scores at most equal
    to it shares the tied positions ``below + 1 .. upto``, whose mean is
    ``(below + upto + 1) / 2``.  A NaN score has no order and raises
    ``InvalidSampleError``; ``-inf`` and ``inf`` rank first and last.
    """
    scores = np.asarray(scores, dtype=float)
    if np.isnan(scores).any():
        raise InvalidSampleError("scores contain NaN")
    ordered = np.sort(scores)
    below = np.searchsorted(ordered, scores, side="left")
    upto = np.searchsorted(ordered, scores, side="right")
    return (below + upto + 1) / 2.0


def spearman(x, y) -> float:
    """Spearman rank correlation: the Pearson correlation of average ranks."""
    return _pearson(*_paired_ranks(x, y))


def kendall(x, y) -> float:
    """Kendall tau-b of two score vectors."""
    rx, ry = _paired_ranks(x, y)
    # Signs over all ordered pairs count each unordered pair twice; doubling
    # every count leaves the float tau-b unchanged.
    a = np.sign(rx[:, None] - rx)
    b = np.sign(ry[:, None] - ry)
    # tau-b divides by the root of (pairs untied in x) * (pairs untied in y)
    denom = np.sqrt(np.count_nonzero(a) * np.count_nonzero(b))
    if denom == 0:
        raise ShapeError("rank correlation undefined: all pairs tied")
    agree = a * b
    return float((np.count_nonzero(agree > 0) - np.count_nonzero(agree < 0)) / denom)


def _paired_ranks(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError("score vectors must be 1-D and equally long",
                         x=len(x), y=len(y))
    if len(x) < 2:
        raise ShapeError("need at least two items to correlate", n=len(x))
    return average_ranks(x), average_ranks(y)


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    if denom == 0:
        raise ShapeError("rank correlation undefined: constant ranks")
    return float(np.sum(a * b) / denom)
