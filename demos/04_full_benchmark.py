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
failed = sum(1 for r in report.records if r.failed)
print(f"{len(report.records)} (gap, imputer) jobs, {failed} failures, "
      f"prng {report.provenance['prng_algorithm']}")

print("\npooled means per imputer:")
kinds = {c["imputer_id"]: c["kind"] for c in report.provenance["config"]["imputers"]}
print(f"{'imputer':16s} {'wd':>8} {'jsd':>8} {'rmse':>8} {'mae':>8}")
for imputer_id, kind in kinds.items():
    recs = [r for r in report.records if r.imputer_id == imputer_id and not r.failed]
    print(f"{kind:16s}"
          f" {np.mean([r.wd for r in recs]):8.2f}"
          f" {np.mean([r.jsd for r in recs]):8.3f}"
          f" {np.mean([r.rmse for r in recs]):8.2f}"
          f" {np.mean([r.mae for r in recs]):8.2f}")

print("\nrank agreement between metric families (pooled):")
for pairing, stats in report.agreement["pooled"].items():
    print(f"  {pairing:12s} spearman {stats['spearman']:+.3f}"
          f"  kendall {stats['kendall']:+.3f}")

with tempfile.TemporaryDirectory(prefix="gapgauge_demo_") as out_dir:
    written = emit_report(report, out_dir)
    print(f"\nreport files written to {out_dir} (removed on exit):")
    for path in written:
        print("  ", path.name)
