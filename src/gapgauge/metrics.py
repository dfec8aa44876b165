"""Scoring functions for gap fills.

Two families:

* distribution distances needing no ground truth — the 1-D Wasserstein
  distance and the Jensen-Shannon divergence between the imputed values and
  the pre-gap reference window;
* classic position-wise errors against held-out truth — RMSE and MAE.

For both families, lower is better.  JSD uses base-2 logarithms so it lives
in [0, 1]; its histogram discretization (shared bin edges over the pooled
range, additive epsilon smoothing) is a reported parameter of any run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleError, InvalidParameterError, InvalidSampleError, ShapeError
from .series import EmpiricalSample

METRICS = ("wd", "jsd", "rmse", "mae")


def _sample_values(sample) -> np.ndarray:
    """Accept an EmpiricalSample or any 1-D array-like of finite reals."""
    if isinstance(sample, EmpiricalSample):
        return sample.values
    vals = np.asarray(sample, dtype=float).ravel()
    if len(vals) == 0:
        raise EmptySampleError("sample must hold at least one value")
    if not np.all(np.isfinite(vals)):
        raise InvalidSampleError("sample contains non-finite values")
    return vals


def wasserstein_1d(p, q) -> float:
    """First Wasserstein distance between two empirical distributions.

    Computed exactly as the integral of the absolute difference of the two
    empirical CDFs over the merged support (equivalently, the integral of
    the quantile-function gap).  When the samples have equal size this
    equals the mean absolute difference of the sorted samples.
    """
    pv = np.sort(_sample_values(p))
    qv = np.sort(_sample_values(q))
    if len(pv) == len(qv):
        return float(np.mean(np.abs(pv - qv)))
    support = np.sort(np.concatenate([pv, qv]))
    widths = np.diff(support)
    cdf_p = np.searchsorted(pv, support[:-1], side="right") / len(pv)
    cdf_q = np.searchsorted(qv, support[:-1], side="right") / len(qv)
    return float(np.sum(np.abs(cdf_p - cdf_q) * widths))


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


def _check_histogram_parameters(bins: int, epsilon: float) -> None:
    if bins < 2:
        raise InvalidParameterError("bins must be >= 2", bins=bins)
    if not epsilon > 0:
        raise InvalidParameterError("epsilon must be > 0", epsilon=epsilon)


def _shared_edges(lo: float, hi: float, bins: int) -> np.ndarray:
    # Widen ranges too narrow to carve into distinct float bin edges,
    # offsetting by half a bin so the cluster sits strictly inside one bin
    # rather than straddling an edge.
    if hi - lo <= max(1.0, abs(lo), abs(hi)) * 1e-9:
        mid = (lo + hi) / 2.0
        half_bin = 0.5 / bins
        lo = mid - 0.5 + half_bin
        hi = mid + 0.5 + half_bin
    return np.linspace(lo, hi, bins + 1)


def _smoothed_mass(counts: np.ndarray, epsilon: float) -> np.ndarray:
    mass = counts / counts.sum() + epsilon
    return mass / mass.sum()


def _sorted_counts(sorted_values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.histogram(values, bins=edges)`` counts of already sorted values.

    The same cumulative search numpy runs for explicit edges: every bin is
    half-open except the last, which also holds its right edge.
    """
    cumulative = np.concatenate((sorted_values.searchsorted(edges[:-1], "left"),
                                 sorted_values.searchsorted(edges[-1:], "right")))
    return np.diff(cumulative)


def _jsd_masses(p_mass: np.ndarray, q_mass: np.ndarray) -> float:
    mixture = (p_mass + q_mass) / 2.0

    def against_mixture(mass):
        support = mass > 0
        return float(np.sum(mass[support] * np.log2(mass[support] / mixture[support])))

    return 0.5 * against_mixture(p_mass) + 0.5 * against_mixture(q_mass)


def shared_histogram(p, q, bins: int = 10, epsilon: float = 1e-6) -> tuple[Histogram, Histogram]:
    """Histogram both samples on one set of edges spanning the pooled range.

    A zero-width pooled range is widened by +-0.5.  Each bin's mass gets
    ``epsilon`` added before renormalization so downstream log ratios stay
    finite.
    """
    _check_histogram_parameters(bins, epsilon)
    pv = _sample_values(p)
    qv = _sample_values(q)
    edges = _shared_edges(min(pv.min(), qv.min()), max(pv.max(), qv.max()), bins)

    def smoothed(values):
        counts, _ = np.histogram(values, bins=edges)
        return Histogram(edges, _smoothed_mass(counts, epsilon))

    return smoothed(pv), smoothed(qv)


def jsd_histograms(p: Histogram, q: Histogram) -> float:
    """Jensen-Shannon divergence of two histograms on shared edges.

    Averages the base-2 relative entropy (Kullback-Leibler divergence) of
    each input against their even mixture.  Wherever an input has positive
    mass the mixture does too, so no smoothing is needed at this level.
    """
    if len(p.edges) != len(q.edges) or not np.array_equal(p.edges, q.edges):
        raise ShapeError("histograms must share identical edges")
    return _jsd_masses(p.mass, q.mass)


def jsd(p, q, bins: int = 10, epsilon: float = 1e-6) -> float:
    """Jensen-Shannon divergence between two samples, in [0, 1] (base 2).

    Builds shared histograms, forms the even mixture of the two, and
    averages the two relative entropies against it.  Symmetric in its
    arguments; 0 for identical samples up to smoothing.  Equal to
    ``jsd_histograms(*shared_histogram(p, q, bins, epsilon))``.
    """
    _check_histogram_parameters(bins, epsilon)
    ps = np.sort(_sample_values(p))
    qs = np.sort(_sample_values(q))
    edges = _shared_edges(min(ps[0], qs[0]), max(ps[-1], qs[-1]), bins)
    return _jsd_masses(_smoothed_mass(_sorted_counts(ps, edges), epsilon),
                       _smoothed_mass(_sorted_counts(qs, edges), epsilon))


def rmse(imputed, truth) -> float:
    """Root mean squared error between aligned value sequences."""
    a, b = _aligned(imputed, truth)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def mae(imputed, truth) -> float:
    """Mean absolute error between aligned value sequences."""
    a, b = _aligned(imputed, truth)
    return float(np.mean(np.abs(a - b)))


def _aligned(imputed, truth) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(imputed, dtype=float).ravel()
    b = np.asarray(truth, dtype=float).ravel()
    if len(a) != len(b):
        raise ShapeError("imputed and truth must align position by position",
                         imputed=len(a), truth=len(b))
    if len(a) == 0:
        raise ShapeError("need at least one position")
    return a, b


@dataclass(frozen=True)
class MetricRecord:
    """One (gap, imputer) scoring, or its recorded failure."""

    gap_id: str
    imputer_id: str
    gap_len: int
    wd: float | None = None
    jsd: float | None = None
    rmse: float | None = None
    mae: float | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def __post_init__(self):
        if self.error is None:
            for name in METRICS:
                value = getattr(self, name)
                if value is None or not np.isfinite(value):
                    raise ShapeError(f"metric {name} must be finite on a success record",
                                     value=value)
