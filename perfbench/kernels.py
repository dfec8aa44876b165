"""Micro-benches of the hot kernels on fixed inputs from the protocol series.

The inputs do not depend on ``--seed``: the series is the protocol series at
the default seed, so a kernel time compares across commits directly.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from gapgauge import gaps, harness, metrics, series, synth
from gapgauge.imputers import arima, gbt

import workloads

SARIMA_BOUNDS = dict(p_max=3, d_max=2, q_max=3, seasonal=(1, 1, 1, 24))


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def run_kernels() -> dict[str, tuple[float, str]]:
    source = synth.synthesize_series("seasonal", 21_000, workloads.PROTOCOL_PARAMS,
                                     seed=workloads.DEFAULT_SEED)

    # 2000 feature rows from a 2001-sample window, the protocol's gbt span
    # (2000 samples) plus the one-sample lag the features need.
    values = source.values[:2001]
    hours = np.array([source.hour_of_day(i) for i in range(len(values))])
    X, y = gbt.causal_features(values, hours, 24, 0.3)
    residuals = y - y.mean()
    tree_ms = _median_ms(lambda: gbt.RegressionTree(max_depth=4).fit(X, residuals), 9)

    train = series.slice_series(source, 0, 1008)
    select_ms = _median_ms(lambda: arima.select_order(train, **SARIMA_BOUNDS), 3)
    n_candidates = len(list(arima._candidate_orders(
        SARIMA_BOUNDS["p_max"], SARIMA_BOUNDS["d_max"], SARIMA_BOUNDS["q_max"],
        SARIMA_BOUNDS["seasonal"])))

    p, q = source.values[1000:1048], source.values[1048:1096]
    batch = 200

    def score_batch():
        for _ in range(batch):
            metrics.wasserstein_1d(p, q)
            metrics.jsd(p, q)

    score_us = _median_ms(score_batch, 7) * 1e3 / batch

    config = workloads.many_gaps_config(workloads.DEFAULT_SEED, workloads.N_GAPS["many_gaps"]["full"])
    reserve = max(harness.required_history(c, config.max_len) for c in config.imputers)
    length = workloads.MANY_GAPS_LENGTH["full"]
    place_ms = _median_ms(lambda: gaps.generate_gaps(length, config.n_gaps, config.min_len,
                                                     config.max_len, config.seed,
                                                     min_start=reserve), 3)
    return {
        "kernel.tree_fit_ms": (tree_ms, "ms"),
        "kernel.sarima_select_ms": (select_ms, "ms"),
        "kernel.sarima_candidates": (float(n_candidates), "count"),
        "kernel.score_us": (score_us, "us"),
        "kernel.generate_gaps_ms": (place_ms, "ms"),
    }
