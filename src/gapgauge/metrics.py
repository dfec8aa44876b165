"""Scoring functions for gap fills.

Two families:

* distribution distances needing no ground truth — the 1-D Wasserstein
  distance and the Jensen-Shannon divergence between the imputed values and
  the pre-gap reference window;
* classic position-wise errors against held-out truth — RMSE and MAE.

For both families, lower is better.  JSD uses base-2 logarithms so it lives
in [0, 1]; its histogram discretization (shared bin edges over the pooled
range, additive epsilon smoothing) is a reported parameter of any run.

Each metric scores one pair of 1-D samples, or a batch of pairs given as two
``(rows, samples)`` arrays, row by row.  A 1-D pair runs as the one-row case
of the batched code, so a batch row and the same pair scored alone are the
same float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleError, InvalidSampleError, ShapeError
from .series import ParamSpec

METRICS = ("wd", "jsd", "rmse", "mae")
# JSD's histogram resolution (its bins + 1 edges counted by a signed 64-bit
# integer) and smoothing; a run's settings (EvalConfig) check theirs
# through the same specs and take their defaults.
BINS = ParamSpec("bins", int, 10, low=2, high=2**63 - 1)
EPSILON = ParamSpec("epsilon", float, 1e-6, low=0.0, low_open=True)


def _values(sample) -> np.ndarray:
    """One sample as a 1-D array, or a batch of samples as C-contiguous rows.

    A 2-D array-like is a ``(rows, samples)`` batch; anything else of at
    most one dimension is one sample.
    """
    vals = np.asarray(sample, dtype=float)
    if vals.ndim > 2:
        raise ShapeError("need one sample or a 2-D batch of rows", ndim=vals.ndim)
    return np.ascontiguousarray(vals if vals.ndim == 2 else vals.ravel())


def _sample_values(sample) -> np.ndarray:
    """:func:`_values` of non-empty samples of finite reals."""
    vals = _values(sample)
    if vals.shape[-1] == 0:
        raise EmptySampleError("sample must hold at least one value")
    if not np.all(np.isfinite(vals)):
        raise InvalidSampleError("sample contains non-finite values")
    return vals


def _rows(p: np.ndarray, q: np.ndarray, same_length: bool) -> tuple[np.ndarray, np.ndarray, bool]:
    """Both sides as 2-D rows, and whether they were one 1-D pair.

    Two batches must have equal shapes; a 1-D pair becomes one row each,
    of equal length only if ``same_length``.
    """
    if p.ndim != q.ndim or (p.shape != q.shape and (p.ndim == 2 or same_length)):
        raise ShapeError("need two 1-D samples or two row batches of equal shape",
                         p=p.shape, q=q.shape)
    if p.ndim == 2:
        return p, q, False
    return p[None], q[None], True


def _result(per_row: np.ndarray, one_pair: bool):
    return float(per_row[0]) if one_pair else per_row


def wasserstein_1d(p, q):
    """First Wasserstein distance between two empirical distributions.

    Computed exactly as the integral of the absolute difference of the two
    empirical CDFs over the merged support (equivalently, the integral of
    the quantile-function gap).  When the samples have equal size this
    equals the mean absolute difference of the sorted samples.

    Two 1-D samples give a float; two ``(rows, samples)`` batches of equal
    shape give one float64 per row.  Only a 1-D pair may differ in size.
    """
    pv, qv = _sample_values(p), _sample_values(q)
    if pv.ndim == qv.ndim == 1 and len(pv) != len(qv):
        pv, qv = np.sort(pv), np.sort(qv)
        support = np.sort(np.concatenate([pv, qv]))
        widths = np.diff(support)
        cdf_p = np.searchsorted(pv, support[:-1], side="right") / len(pv)
        cdf_q = np.searchsorted(qv, support[:-1], side="right") / len(qv)
        return float(np.sum(np.abs(cdf_p - cdf_q) * widths))
    prows, qrows, one_pair = _rows(pv, qv, same_length=True)
    return _result(np.mean(np.abs(np.sort(prows) - np.sort(qrows)), axis=-1), one_pair)


@dataclass(frozen=True)
class Histogram:
    """Bin masses over strictly increasing edges; masses sum to one."""

    edges: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        mass = np.asarray(self.mass, dtype=float)
        if len(mass) != len(edges) - 1:
            raise ShapeError("need exactly one more edge than bins",
                             bins=len(mass), edges=len(edges))
        if np.any(np.diff(edges) <= 0):
            raise ShapeError("bin edges must be strictly increasing")
        if np.any(mass < 0) or abs(mass.sum() - 1.0) > 1e-9:
            raise ShapeError("bin masses must be non-negative and sum to 1",
                             total=float(mass.sum()))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "mass", mass)


def _shared_edges(lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    """One row of ``bins + 1`` edges over each pooled range [lo, hi].

    A range too narrow to carve into distinct float bin edges is widened to
    ``max(1, 1e-6 * scale)``, with ``scale = max(1, |lo|, |hi|)``, around its
    middle, offset by half a bin so the cluster sits strictly inside one bin
    rather than straddling an edge.  The widened edges hold every value.
    Each row follows ``np.linspace``'s formula for a nonzero step, which a
    batched ``np.linspace`` would leave for every row if one step were zero.
    """
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    narrow = hi - lo <= scale * 1e-9
    if narrow.any():
        mid = (lo + hi) / 2.0
        width = np.maximum(1.0, 1e-6 * scale)
        offset = 0.5 / bins * width
        lo = np.where(narrow, mid - 0.5 * width + offset, lo)
        hi = np.where(narrow, mid + 0.5 * width + offset, hi)
    edges = lo[:, None] + np.arange(bins + 1) * ((hi - lo) / bins)[:, None]
    edges[:, -1] = hi
    return edges


def _bin_counts(prows: np.ndarray, qrows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.histogram(row, bins=row_edges)`` counts of each p and q row.

    Returns a ``(2, rows, bins)`` array: p's counts, then q's.  Every value
    lies within its row's edges.  A value's bin is guessed from its offset
    in the range, then moved until the value is at or above the bin's left
    edge and below its right edge; the last bin also holds its right edge.
    """
    rows, bins = edges.shape[0], edges.shape[1] - 1
    values = np.concatenate([prows, qrows], axis=-1)
    lo = edges[:, :1]
    guess = (values - lo) * (bins / (edges[:, -1:] - lo))
    k = np.maximum(np.minimum(guess.astype(np.intp), bins - 1), 0)
    row = np.arange(rows)[:, None]
    # flat index of each row's first edge, so that edge k is flat[first + k]
    flat, first = edges.ravel(), row * (bins + 1)
    while (down := (k > 0) & (values < flat[first + k])).any():
        k -= down
    while (up := (k < bins - 1) & (values >= flat[first + k + 1])).any():
        k += up
    side = np.arange(values.shape[-1]) >= prows.shape[-1]
    key = (side * rows + row) * bins + k
    return np.bincount(key.ravel(), minlength=2 * rows * bins).reshape(2, rows, bins)


def _smoothed_mass(counts: np.ndarray, epsilon: float) -> np.ndarray:
    mass = counts / counts.sum(axis=-1, keepdims=True) + epsilon
    return mass / mass.sum(axis=-1, keepdims=True)


def _histogram_rows(prows, qrows, bins: int, epsilon: float):
    """Shared edges of each row pair and its ``(2, rows, bins)`` smoothed masses."""
    lo = np.minimum(prows.min(axis=-1), qrows.min(axis=-1))
    hi = np.maximum(prows.max(axis=-1), qrows.max(axis=-1))
    edges = _shared_edges(lo, hi, bins)
    return edges, _smoothed_mass(_bin_counts(prows, qrows, edges), epsilon)


def _jsd_masses(masses: np.ndarray) -> np.ndarray:
    """Base-2 JSD of each row pair of ``(2, rows, bins)`` masses.

    Empty bins contribute zero.
    """
    mixture = (masses[0] + masses[1]) / 2.0
    ratio = np.divide(masses, mixture, out=np.ones_like(masses), where=masses > 0)
    against_mixture = np.sum(masses * np.log2(ratio), axis=-1)
    return 0.5 * against_mixture[0] + 0.5 * against_mixture[1]


def shared_histogram(p, q, bins: int = BINS.default,
                     epsilon: float = EPSILON.default) -> tuple[Histogram, Histogram]:
    """Histogram two 1-D samples on one set of edges spanning the pooled range.

    A pooled range too narrow to split is widened (see ``jsd``).  Each bin's
    mass gets ``epsilon`` added before renormalization so downstream log
    ratios stay finite.
    """
    bins, epsilon = BINS.normalize(bins), EPSILON.normalize(epsilon)
    pv, qv = _sample_values(p), _sample_values(q)
    if pv.ndim != 1 or qv.ndim != 1:
        raise ShapeError("shared_histogram takes two 1-D samples",
                         p=pv.shape, q=qv.shape)
    edges, masses = _histogram_rows(pv[None], qv[None], bins, epsilon)
    return Histogram(edges[0], masses[0, 0]), Histogram(edges[0], masses[1, 0])


def jsd_histograms(p: Histogram, q: Histogram) -> float:
    """Jensen-Shannon divergence of two histograms on shared edges.

    Averages the base-2 relative entropy (Kullback-Leibler divergence) of
    each input against their even mixture.  Wherever an input has positive
    mass the mixture does too, so no smoothing is needed at this level.
    """
    if len(p.edges) != len(q.edges) or not np.array_equal(p.edges, q.edges):
        raise ShapeError("histograms must share identical edges")
    return float(_jsd_masses(np.stack([p.mass, q.mass])[:, None])[0])


def jsd(p, q, bins: int = BINS.default, epsilon: float = EPSILON.default):
    """Jensen-Shannon divergence between two samples, in [0, 1] (base 2).

    Histograms both samples on ``bins`` shared edges over their pooled
    range, adds ``epsilon`` to each bin's mass before renormalizing, and
    averages the two relative entropies against the even mixture.
    Symmetric in its arguments; 0 for identical samples up to smoothing.
    Equal to ``jsd_histograms(*shared_histogram(p, q, bins, epsilon))``.

    A pooled range narrower than ``1e-9 * max(1, |lo|, |hi|)`` is widened to
    ``max(1, 1e-6 * max(1, |lo|, |hi|))`` so its edges stay distinct and
    hold every value; a range wider than float64 can span scores NaN.

    Two 1-D samples (of any sizes) give a float; two ``(rows, samples)``
    batches of equal shape give one float64 per row.
    """
    bins, epsilon = BINS.normalize(bins), EPSILON.normalize(epsilon)
    prows, qrows, one_pair = _rows(_sample_values(p), _sample_values(q),
                                   same_length=False)
    edges, masses = _histogram_rows(prows, qrows, bins, epsilon)
    divergence = _jsd_masses(masses)
    divergence[~np.isfinite(edges[:, -1] - edges[:, 0])] = np.nan
    return _result(divergence, one_pair)


def rmse(imputed, truth):
    """Root mean squared error between aligned value sequences (or rows)."""
    a, b, one_pair = _aligned(imputed, truth)
    return _result(np.sqrt(np.mean((a - b) ** 2, axis=-1)), one_pair)


def mae(imputed, truth):
    """Mean absolute error between aligned value sequences (or rows)."""
    a, b, one_pair = _aligned(imputed, truth)
    return _result(np.mean(np.abs(a - b), axis=-1), one_pair)


def _aligned(imputed, truth) -> tuple[np.ndarray, np.ndarray, bool]:
    a, b = _values(imputed), _values(truth)
    if a.shape != b.shape:
        raise ShapeError("imputed and truth must align position by position",
                         imputed=a.shape, truth=b.shape)
    if a.shape[-1] == 0:
        raise ShapeError("need at least one position")
    return _rows(a, b, same_length=True)


def check_scores(row) -> None:
    """A success record's rule: each of ``row``'s scores (in ``METRICS``
    order) finite, else ``ShapeError`` naming the first that is not."""
    for name, value in zip(METRICS, row):
        if value is None or not math.isfinite(value):
            raise ShapeError(f"metric {name} must be finite on a success record",
                             value=value)
