"""The whole protocol end to end, at demo scale.

Inject 20 gaps into a complete seasonal series, run four imputers on every
gap, aggregate per gap size, and check how strongly the no-ground-truth
ranking agrees with the ground-truth ranking (Spearman rho and Kendall tau
per metric pairing).  Writes the same file set as the CLI `run` command.
"""

import tempfile

import numpy as np

from gapgauge import (EvalConfig, ImputerConfig, emit_report,
                      run_evaluation, synthesize_series)

series = synthesize_series(
    "seasonal", 8_000,
    {"daily_amplitude": 50.0, "weekly_amplitude": 4.0, "harmonic2": 0.3,
     "harmonic3": 0.08, "noise_sd": 3.0}, seed=12)

config = EvalConfig(
    imputers=[
        ImputerConfig("polynomial", {"order": 5, "context": 8}),
        ImputerConfig("seasonal_naive", {"season": 24}),
        ImputerConfig("sarima", {"train_span": 1008, "p_max": 2, "d_max": 1,
                                 "q_max": 2, "season": 24}),
        ImputerConfig("gbt", {"train_span": 1500, "trees": 60, "max_depth": 4}),
    ],
    n_gaps=20, min_len=2, max_len=48, seed=99)

report = run_evaluation(series, config)
records = report.records  # one column per field, one row per (gap, imputer) job
print(f"{len(records)} (gap, imputer) jobs, {len(records.errors)} failures, "
      f"prng {report.provenance['prng_algorithm']}")

print("\npooled means per imputer:")
kinds = {c["imputer_id"]: c["kind"] for c in report.provenance["config"]["imputers"]}
ids = np.array(records.imputer_ids)
succeeded = np.isfinite(records.scores[:, 0])  # a failed job's row holds NaN
print(f"{'imputer':16s} {'wd':>8} {'jsd':>8} {'rmse':>8} {'mae':>8}")
for imputer_id, kind in kinds.items():
    wd, js, rm, ma = records.scores[(ids == imputer_id) & succeeded].T
    print(f"{kind:16s}"
          f" {np.mean(wd):8.2f}"
          f" {np.mean(js):8.3f}"
          f" {np.mean(rm):8.2f}"
          f" {np.mean(ma):8.2f}")

print("\nrank agreement between metric families (pooled):")
for pairing, stats in report.agreement["pooled"].items():
    print(f"  {pairing:12s} spearman {stats['spearman']:+.3f}"
          f"  kendall {stats['kendall']:+.3f}")

with tempfile.TemporaryDirectory(prefix="gapgauge_demo_") as out_dir:
    written = emit_report(report, out_dir)
    print(f"\nreport files written to {out_dir} (removed on exit):")
    for path in written:
        print("  ", path.name)
