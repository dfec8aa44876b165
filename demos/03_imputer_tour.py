"""One gap, every imputer.

Each method sees the series with a 36-hour hole and must reconstruct it
from the observed side(s).  Both metric families score the result, without
and with the held-out truth.
"""

from gapgauge import (GapSpec, ImputerConfig, impute, jsd, mae,
                      pre_gap_window, rmse, synthesize_series,
                      wasserstein_1d)

series = synthesize_series(
    "seasonal", 6_000,
    {"daily_amplitude": 50.0, "weekly_amplitude": 4.0, "harmonic2": 0.3,
     "harmonic3": 0.08, "noise_sd": 3.0}, seed=5)

gap = GapSpec(start_index=5_000, length=36)
view = series.copy()
view.observed[gap.start_index:gap.end_index] = False
truth = series.values[gap.start_index:gap.end_index]
reference = pre_gap_window(view, gap)

configs = [
    ImputerConfig("polynomial", {"order": 3}),
    ImputerConfig("seasonal_naive", {"season": 24}),
    ImputerConfig("arima", {"train_span": 1008, "p_max": 2, "d_max": 1, "q_max": 2}),
    ImputerConfig("sarima", {"train_span": 1008, "p_max": 2, "d_max": 1,
                             "q_max": 2, "season": 24}),
    ImputerConfig("gbt", {"train_span": 2000, "trees": 60, "max_depth": 4}),
]

print(f"gap: {gap.length} hours starting at index {gap.start_index}\n")
print(f"{'imputer':16s} {'wd':>8} {'jsd':>8} {'rmse':>8} {'mae':>8}")
for config in configs:
    filled = impute(view, gap, config, seed=1)
    print(f"{config.kind:16s}"
          f" {wasserstein_1d(filled, reference):8.2f}"
          f" {jsd(filled, reference):8.3f}"
          f" {rmse(filled, truth):8.2f}"
          f" {mae(filled, truth):8.2f}")

print("""
Reading the table: the no-ground-truth columns (wd, jsd) are computed only
from the pre-gap window, yet they point at the same winners and losers as
the ground-truth columns (rmse, mae).  The cubic polynomial drifts off the
daily cycle; the seasonality-aware methods stay close.""")
