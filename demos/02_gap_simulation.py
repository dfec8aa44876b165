"""Reproducible artificial gaps and their pre-gap reference windows.

The validation protocol needs gaps whose true values are known: take a
complete series, hide disjoint chunks of it, and keep the hidden values
aside as truth.  Every gap also reserves an equal-length fully observed
window right before it, which later stands in for ground truth when the
distribution metrics score a fill.
"""

import json

import numpy as np

from gapgauge import (apply_gaps, generate_gaps, pre_gap_window,
                      synthesize_series, wasserstein_1d)

series = synthesize_series("seasonal", 5_000, {"noise_sd": 5.0}, seed=42)
print(f"synthetic hourly series: {len(series)} samples, "
      f"mean {series.values.mean():.1f}")

gaps = generate_gaps(len(series), n_gaps=8, min_len=2, max_len=48,
                     seed=7, min_start=200)
print(f"\nplaced {len(gaps)} disjoint gaps (seed {gaps.seed}):")
for gap in gaps:
    print(f"  start {gap.start_index:5d}  length {gap.length:3d}")

print("\nserialized:", json.dumps(gaps.to_json_dict())[:80], "...")

same = generate_gaps(len(series), 8, 2, 48, seed=7, min_start=200)
print("regenerating with the same seed is bit-identical:", same == gaps)

masked, truth = apply_gaps(series, gaps)
print(f"\nmasked series hides {int((~masked.observed).sum())} positions; "
      f"truth kept for {len(truth)} gaps")

gap = gaps.gaps[0]
reference = pre_gap_window(masked, gap)
print(f"\nfirst gap: length {gap.length}")
print("  pre-gap window:", np.round(reference[:6], 1), "...")
print("  held-out truth:", np.round(truth[gap][:6], 1), "...")
print("  W1(pre-gap, truth) =", round(wasserstein_1d(reference, truth[gap]), 3),
      " <- small: the window is a usable reference")
shuffled = np.random.default_rng(0).choice(series.values, size=gap.length)
print("  W1(pre-gap, random global sample) =",
      round(wasserstein_1d(reference, shuffled), 3))
