"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The protocol-scale
criteria (4-6) share one seeded seasonal series and one full evaluation run,
so the whole module stays within its stated runtime budgets.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gapgauge import (ArimaOrder, EvalConfig, GapSpec, GradientBoostedTrees,
                      ImputerConfig, TimeSeries, aggregate, apply_gaps,
                      fit_arima, forecast, impute, jsd, jsd_histograms, mae,
                      pre_gap_window, rmse, run_evaluation, spearman,
                      synthesize_series, wasserstein_1d)
from gapgauge.cli import main as cli_main
from gapgauge.metrics import Histogram

from _oracles import arima_forecast_by_hand, transport_cost_bruteforce


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


# --- protocol-scale fixtures (criteria 4 and 5) ---------------------------

SERIES_SEED = 20210601
RUN_SEED = 20210601
SERIES_PARAMS = {"daily_amplitude": 50.0, "weekly_amplitude": 4.0,
                 "yearly_amplitude": 40.0, "harmonic2": 0.30,
                 "harmonic3": 0.08, "noise_sd": 3.0}


@pytest.fixture(scope="module")
def seasonal_series():
    return synthesize_series("seasonal", 21_000, SERIES_PARAMS,
                             seed=SERIES_SEED)


@pytest.fixture(scope="module")
def protocol_run(seasonal_series):
    config = EvalConfig(
        imputers=[
            ImputerConfig("polynomial", {"order": 5, "context": 8}),
            ImputerConfig("seasonal_naive", {"season": 24}),
            ImputerConfig("arima", {"train_span": 1008}),
            ImputerConfig("sarima", {"train_span": 1008}),
            ImputerConfig("gbt", {"train_span": 2000, "trees": 100,
                                  "max_depth": 4}),
        ],
        n_gaps=100, min_len=2, max_len=48, seed=RUN_SEED)
    started = time.monotonic()
    report = run_evaluation(seasonal_series, config)
    elapsed = time.monotonic() - started
    return report, config, elapsed


def kind_of(report):
    return {c["imputer_id"]: c["kind"]
            for c in report.provenance["config"]["imputers"]}


# --- criterion 1: metric axioms -------------------------------------------

def test_criterion_1_metric_axioms():
    with criterion(1, "metric axioms on 1000+ randomized sample pairs"):
        started = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(1_000):
            n, m = rng.integers(1, 15, size=2)
            p = rng.normal(loc=rng.uniform(-5, 5),
                           scale=rng.uniform(0.2, 4.0), size=n)
            q = rng.normal(size=m)
            c = float(rng.normal(scale=8.0))

            wd_pq = wasserstein_1d(p, q)
            assert wd_pq >= 0.0
            assert wd_pq == pytest.approx(wasserstein_1d(q, p), abs=1e-12)
            assert wasserstein_1d(p, p + c) == pytest.approx(abs(c), abs=1e-9)

            third = rng.normal(size=int(rng.integers(1, 15)))
            assert wasserstein_1d(p, third) <= \
                wd_pq + wasserstein_1d(q, third) + 1e-9

            js = jsd(p, q)
            assert 0.0 <= js <= 1.0
            assert js == jsd(q, p)
            assert jsd(p, p) <= 1e-6
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


# --- criterion 2: brute-force transport oracle -----------------------------

def test_criterion_2_transport_oracle():
    with criterion(2, "wasserstein_1d equals brute-force coupling, sizes <= 6"):
        started = time.monotonic()
        rng = np.random.default_rng(202)
        checked = 0
        for n, m in itertools.product(range(1, 7), repeat=2):
            for _ in range(6):
                p = np.round(rng.normal(scale=3.0, size=n), 3)
                q = np.round(rng.normal(scale=3.0, size=m), 3)
                assert wasserstein_1d(p, q) == pytest.approx(
                    transport_cost_bruteforce(p, q), abs=1e-9)
                checked += 1
        elapsed = time.monotonic() - started
        assert checked == 216
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"


# --- criterion 3: hand values ----------------------------------------------

def test_criterion_3_hand_values():
    with criterion(3, "frozen hand-computed values"):
        edges = np.array([0.0, 1.0, 2.0])
        value = jsd_histograms(Histogram(edges, np.array([1.0, 0.0])),
                               Histogram(edges, np.array([0.5, 0.5])))
        assert value == pytest.approx(0.3113, abs=1e-4)
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            np.sqrt(12.5), abs=1e-12)
        assert spearman([1, 2, 3, 4], [1, 2, 4, 3]) == 0.8


# --- criterion 4: protocol reproduction at desk scale -----------------------

def test_criterion_4a_rank_agreement(protocol_run):
    report, _, _ = protocol_run
    with criterion(4, "(a) pooled rank agreement >= 0.7 (WD~RMSE, JSD~MAE)"):
        assert not any(r.failed for r in report.records)
        pooled = report.agreement["pooled"]
        assert pooled["wd_vs_rmse"]["spearman"] >= 0.7
        assert pooled["jsd_vs_mae"]["spearman"] >= 0.7


def test_criterion_4b_polynomial_grows_with_gap_size(protocol_run):
    report, config, _ = protocol_run
    with criterion(4, "(b) polynomial RMSE and WD non-decreasing by quartile"):
        poly_id = config.imputers[0].imputer_id
        rows = aggregate([r for r in report.records
                          if r.imputer_id == poly_id], "quartile")
        assert len(rows) == 4
        rmse_means = [r.mean_rmse for r in rows]
        wd_means = [r.mean_wd for r in rows]
        assert all(a <= b for a, b in zip(rmse_means, rmse_means[1:])), rmse_means
        assert all(a <= b for a, b in zip(wd_means, wd_means[1:])), wd_means


def test_criterion_4c_sarima_beats_arima_on_long_gaps(protocol_run):
    report, config, _ = protocol_run
    with criterion(4, "(c) SARIMA mean RMSE < ARIMA on gaps >= 24"):
        kinds = kind_of(report)
        means = {}
        for kind in ("arima", "sarima"):
            values = [r.rmse for r in report.records
                      if kinds[r.imputer_id] == kind
                      and r.gap_len >= 24 and not r.failed]
            assert values
            means[kind] = float(np.mean(values))
        assert means["sarima"] < means["arima"], means


def test_criterion_4_runtime(protocol_run):
    _, _, elapsed = protocol_run
    with criterion(4, "runtime under 10 minutes"):
        assert elapsed < 600.0, f"protocol run took {elapsed:.0f}s"


# --- criterion 5: pre-gap proxy validity ------------------------------------

def test_criterion_5_pre_gap_proxy_validity(seasonal_series, protocol_run):
    report, _, _ = protocol_run
    with criterion(5, "pre-gap window closer to truth than shuffled sample"):
        masked, truth = apply_gaps(seasonal_series, report.gaps)
        rng = np.random.default_rng(777)
        differences = []
        for gap in report.gaps:
            reference = pre_gap_window(masked, gap)
            to_truth = wasserstein_1d(reference, truth[gap])
            shuffled = rng.choice(seasonal_series.values, size=gap.length,
                                  replace=False)
            differences.append(wasserstein_1d(reference, shuffled) - to_truth)
        differences = np.array(differences)
        assert len(differences) == 100
        margin = differences.mean()
        stderr = differences.std(ddof=1) / np.sqrt(len(differences))
        assert margin > 3.0 * stderr, (margin, stderr)


# --- criterion 6: determinism ------------------------------------------------

def test_criterion_6_determinism(tmp_path):
    with criterion(6, "byte-identical reruns; parallel equals sequential"):
        series_dir = tmp_path / "series"
        assert cli_main(["synth", "--kind", "seasonal", "--length", "6000",
                         "--seed", "11", "--out", str(series_dir),
                         "--quiet", "--param", "noise_sd=4"]) == 0
        series_csv = series_dir / "series.csv"

        config = {
            "schema_version": 1, "seed": 5, "n_gaps": 10,
            "gap_hours": {"min": 2, "max": 24},
            "imputers": [
                {"kind": "polynomial", "params": {"order": 3, "context_hours": 8}},
                {"kind": "seasonal_naive", "params": {"season_hours": 24}},
                {"kind": "arima", "params": {"train_span_hours": 504,
                                             "p_max": 2, "d_max": 1, "q_max": 2}},
                {"kind": "sarima", "params": {"train_span_hours": 504,
                                              "p_max": 1, "d_max": 1, "q_max": 1,
                                              "season_hours": 24}},
                {"kind": "gbt", "params": {"train_span_hours": 1000,
                                           "trees": 30, "max_depth": 3}},
            ],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))

        outs = [tmp_path / name for name in ("a", "b", "parallel")]
        for out, extra in zip(outs, ([], [], ["--parallel", "4"])):
            code = cli_main(["run", "--config", str(config_path),
                             "--series", str(series_csv), "--out", str(out),
                             "--quiet", *extra])
            assert code == 0
        for name in ("records.csv", "aggregates.csv"):
            first = (outs[0] / name).read_bytes()
            assert first == (outs[1] / name).read_bytes(), f"{name} rerun differs"
            assert first == (outs[2] / name).read_bytes(), f"{name} parallel differs"


# --- criterion 7: imputer micro-oracles --------------------------------------

def test_criterion_7_imputer_micro_oracles():
    with criterion(7, "imputer micro-oracles"):
        # polynomial order 2 exact on quadratics
        gap = GapSpec(20, 5)
        quadratic = 0.3 * np.arange(60.0) ** 2 - 4.0 * np.arange(60.0) + 7.0
        series = TimeSeries.fully_observed(0.0, 3600.0, quadratic)
        series.observed[20:25] = False
        fill = impute(series, gap, ImputerConfig("polynomial", {"order": 2, "context": 8}))
        assert np.max(np.abs(fill - quadratic[20:25])) < 1e-9

        # seasonal naive exact on periodic signals
        periodic = np.tile(np.sin(np.arange(24.0)), 20)
        series = TimeSeries.fully_observed(0.0, 3600.0, periodic)
        gap = GapSpec(300, 30)
        series.observed[300:330] = False
        fill = impute(series, gap, ImputerConfig("seasonal_naive", {"season": 24}))
        assert np.array_equal(fill, periodic[300:330])

        # AR(1) coefficient recovery on 1000 simulated points
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        noise = rng.standard_normal(1_200)
        values = np.zeros(1_200)
        for t in range(1, 1_200):
            values[t] = 0.8 * values[t - 1] + noise[t]
        train = TimeSeries.fully_observed(0.0, 3600.0, values[200:])
        fitted = fit_arima(train, ArimaOrder(1, 0, 0))
        assert abs(fitted.ar[0] - 0.8) < 0.1

        # GBT training MSE non-increasing in tree count
        x = rng.normal(size=(400, 3))
        y = np.sin(x[:, 0]) + 0.3 * x[:, 1] + 0.1 * rng.standard_normal(400)
        model = GradientBoostedTrees(trees=50, max_depth=3,
                                     learning_rate=0.2).fit(x, y)
        assert np.all(np.diff(model.training_mse) <= 1e-12)

        # ARIMA forecast recursion matches the hand-rolled oracle
        seasonal = synthesize_series("seasonal", 1_500, {"noise_sd": 5.0},
                                     seed=10)
        fitted = fit_arima(seasonal, ArimaOrder(1, 1, 1, 1, 1, 1, 24))
        assert np.max(np.abs(forecast(fitted, 48)
                             - arima_forecast_by_hand(fitted, 48))) < 1e-9
