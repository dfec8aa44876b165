"""gapgauge: score time-series gap imputation with and without ground truth.

The library injects reproducible artificial gaps into complete series, fills
them with several imputers, and scores each fill two ways: distribution
distances (1-D Wasserstein, Jensen-Shannon divergence) against the pre-gap
reference window, which need no ground truth, and classic RMSE/MAE against
the held-out values.  Rank agreement between the two families quantifies how
well the reference-window metrics stand in for the classic ones.
"""

from .errors import GapgaugeError
from .gaps import (PRNG_ALGORITHM, GapSet, GapSpec, apply_gaps,
                   generate_gaps, pre_gap_window)
from .harness import (AggregateRow, EvalConfig, EvalReport, RecordTable, aggregate,
                      rank_agreement, required_history, run_evaluation)
from .imputers import (ArimaOrder, FittedArima, GradientBoostedTrees,
                       ImputerConfig, ParamSpec, RegressionTree, fit_arima,
                       forecast, impute, register_imputer, select_order)
from .io import (IngestSpec, emit_report, ingest_csv, load_config,
                 read_records_csv, write_series_csv)
from .metrics import (Histogram, jsd, jsd_histograms, mae, rmse,
                      shared_histogram, wasserstein_1d)
from .ranking import average_ranks, kendall, spearman
from .series import TimeSeries, slice_series, validate
from .synth import SERIES_KINDS, synthesize_series

__version__ = "0.1.0"

__all__ = [
    "AggregateRow", "ArimaOrder", "EvalConfig",
    "EvalReport", "FittedArima", "GapSet", "GapSpec", "GapgaugeError",
    "GradientBoostedTrees", "Histogram", "ImputerConfig", "IngestSpec",
    "PRNG_ALGORITHM", "ParamSpec", "RecordTable", "RegressionTree",
    "SERIES_KINDS", "TimeSeries", "aggregate", "apply_gaps",
    "average_ranks", "emit_report", "fit_arima", "forecast",
    "generate_gaps", "impute", "ingest_csv", "jsd", "jsd_histograms",
    "kendall", "load_config", "mae", "pre_gap_window", "rank_agreement",
    "read_records_csv", "register_imputer", "required_history", "rmse",
    "run_evaluation", "select_order", "shared_histogram", "slice_series",
    "spearman", "synthesize_series", "validate", "wasserstein_1d",
    "write_series_csv",
]
