import json
import warnings

import numpy as np
import pytest

from gapgauge import (EvalConfig, GapSpec, ImputerConfig, MetricRecord,
                      aggregate, emit_report, impute, imputers, jsd, pre_gap_window,
                      rank_agreement, register_imputer, required_history,
                      run_evaluation, synthesize_series, wasserstein_1d)
from gapgauge import harness
from gapgauge.errors import (ConfigError, ContextError, DegenerateError, GapgaugeError,
                             InvalidParameterError, NumericalError)
from gapgauge.gaps import GapSet, apply_gaps
from gapgauge.harness import AggregateRow
from gapgauge.imputers import _REGISTRY, KindSpec, derive_seed, kind_spec

from _oracles import jsd_pair, mae_pair, rmse_pair, wasserstein_pair


def small_imputers():
    return [ImputerConfig("polynomial", {"order": 2, "context": 8}),
            ImputerConfig("seasonal_naive", {"season": 24})]


def record(imputer_id, gap_len, wd=1.0, js=0.1, rm=2.0, ma=1.5,
           gap_id="g0", error=None):
    if error is not None:
        return MetricRecord(gap_id=gap_id, imputer_id=imputer_id,
                            gap_len=gap_len, error=error)
    return MetricRecord(gap_id=gap_id, imputer_id=imputer_id, gap_len=gap_len,
                        wd=wd, jsd=js, rmse=rm, mae=ma)


class TestAggregate:
    def test_single_record_per_bucket(self):
        rows = aggregate([record("a", 4, wd=2.0), record("a", 8, wd=6.0)])
        assert [(r.gap_len, r.mean_wd) for r in rows] == [(4, 2.0), (8, 6.0)]

    def test_means_within_bucket(self):
        rows = aggregate([record("a", 4, wd=1.0, gap_id="g0"),
                          record("a", 4, wd=3.0, gap_id="g1")])
        assert rows[0].mean_wd == 2.0 and rows[0].n == 2

    def test_error_records_counted_not_averaged(self):
        rows = aggregate([record("a", 4, wd=1.0, gap_id="g0"),
                          record("a", 4, gap_id="g1", error="context: x")])
        assert rows[0].n == 1 and rows[0].n_failed == 1
        assert rows[0].mean_wd == 1.0

    def test_all_failed_bucket_omitted(self):
        rows = aggregate([record("a", 4, error="x"), record("a", 8, wd=1.0)])
        assert [r.gap_len for r in rows] == [8]

    def test_quartile_bucketing_labels_by_max_length(self):
        records = [record("a", length, wd=float(length), gap_id=f"g{length}")
                   for length in range(2, 50)]
        rows = aggregate(records, "quartile")
        assert len(rows) == 4
        assert [r.gap_len for r in rows][-1] == 49
        assert sum(r.n for r in rows) == len(records)

    def test_empty_records_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate([])


class TestRankAgreement:
    def rows(self, scores):
        # scores: {imputer: (wd, jsd, rmse, mae)} for one shared gap size
        out = []
        for imputer, (wd, js, rm, ma) in scores.items():
            out.append(aggregate([record(imputer, 4, wd=wd, js=js,
                                         rm=rm, ma=ma)])[0])
        return out

    def test_identical_rankings(self):
        block = rank_agreement(self.rows({
            "a": (1.0, 0.1, 1.0, 0.9), "b": (2.0, 0.2, 2.0, 1.9),
            "c": (3.0, 0.3, 3.0, 2.9)}))
        assert block["pooled"]["wd_vs_rmse"] == {"spearman": 1.0, "kendall": 1.0}
        assert block["per_gap_len"]["4"]["jsd_vs_mae"]["spearman"] == 1.0

    def test_reversed_rankings(self):
        block = rank_agreement(self.rows({
            "a": (1.0, 0.1, 3.0, 2.9), "b": (2.0, 0.2, 2.0, 1.9),
            "c": (3.0, 0.3, 1.0, 0.9)}))
        assert block["pooled"]["wd_vs_rmse"] == {"spearman": -1.0, "kendall": -1.0}

    def test_single_swap_gives_point_eight(self):
        block = rank_agreement(self.rows({
            "a": (1.0, 0.1, 1.0, 1.0), "b": (2.0, 0.2, 2.0, 2.0),
            "c": (3.0, 0.3, 4.0, 4.0), "d": (4.0, 0.4, 3.0, 3.0)}))
        assert block["pooled"]["wd_vs_rmse"]["spearman"] == 0.8

    def test_fewer_than_two_imputers_degenerate(self):
        with pytest.raises(DegenerateError):
            rank_agreement(self.rows({"a": (1.0, 0.1, 1.0, 0.9)}))

    def test_sizes_missing_an_imputer_are_skipped(self):
        rows = aggregate([record("a", 4), record("b", 4, wd=2.0, rm=3.0, ma=2.5),
                          record("a", 8)])
        block = rank_agreement(rows)
        assert "8" not in block["per_gap_len"]
        assert "4" in block["per_gap_len"]

    def test_pooled_means_do_not_depend_on_summation_order(self):
        # a's pooled WD is exactly 1/3, above b's 0.2, while a has the lower
        # RMSE; summing 1e16 + 1.0 - 1e16 left to right would give a 0.
        rows = [AggregateRow("a", gap_len, wd, 0.1, 1.0, 1.0, 1, 0)
                for gap_len, wd in ((2, 1e16), (3, 1.0), (4, -1e16))]
        rows += [AggregateRow("b", gap_len, 0.2, 0.2, 2.0, 2.0, 1, 0)
                 for gap_len in (2, 3, 4)]
        block = rank_agreement(rows)
        assert block["pooled"]["wd_vs_rmse"] == {"spearman": -1.0, "kendall": -1.0}

    def test_tied_scores_reported_as_undefined(self):
        rows = aggregate([record("a", 4), record("b", 4)])  # identical scores
        block = rank_agreement(rows)
        assert block["pooled"]["wd_vs_rmse"] == {"spearman": None, "kendall": None}


class TestRequiredHistory:
    def test_training_kinds_reserve_their_span(self):
        assert required_history(ImputerConfig("arima", {"train_span": 500}), 48) == 500
        assert required_history(ImputerConfig("gbt", {"train_span": 700}), 48) == 700

    def test_polynomial_reserves_context(self):
        assert required_history(ImputerConfig("polynomial", {"context": 9}), 48) == 9
        assert required_history(ImputerConfig("polynomial", {}), 48) == 96

    def test_seasonal_reserves_enough_for_longest_gap(self):
        need = required_history(ImputerConfig("seasonal_naive", {"season": 24}), 48)
        assert need >= 48 + 24


class TestRunEvaluation:
    def test_oracle_imputer_dominates(self):
        series = synthesize_series("seasonal", 4000, {"noise_sd": 6.0}, seed=3)

        def oracle_fill(masked, gap, params, seed):
            return series.values[gap.start_index:gap.end_index].copy()

        register_imputer("oracle", oracle_fill)
        try:
            config = EvalConfig(
                imputers=[ImputerConfig("oracle", {}), *small_imputers()],
                n_gaps=10, min_len=4, max_len=24, seed=5)
            report = run_evaluation(series, config)
        finally:
            _REGISTRY.pop("oracle")

        oracle_id = config.imputers[0].imputer_id
        oracle_records = [r for r in report.records if r.imputer_id == oracle_id]
        assert len(oracle_records) == 10
        masked, truth = apply_gaps(series, report.gaps)
        for rec, gap in zip(oracle_records, report.gaps):
            assert rec.rmse == 0.0 and rec.mae == 0.0
            reference = pre_gap_window(masked, gap)
            assert rec.wd == pytest.approx(
                wasserstein_1d(truth[gap], reference), abs=1e-12)
            assert rec.jsd == pytest.approx(
                jsd(truth[gap], reference, bins=config.bins,
                    epsilon=config.epsilon), abs=1e-12)
        # Never ranked worse than a real imputer under ground-truth metrics.
        pooled_rmse = {}
        for imputer in config.imputers:
            recs = [r for r in report.records
                    if r.imputer_id == imputer.imputer_id and not r.failed]
            pooled_rmse[imputer.imputer_id] = np.mean([r.rmse for r in recs])
        assert pooled_rmse[oracle_id] == min(pooled_rmse.values())

    def test_constant_series_all_metrics_near_zero(self):
        series = synthesize_series("constant", 3000, {"value": 6.0}, seed=0)
        config = EvalConfig(
            imputers=[ImputerConfig("polynomial", {"order": 1, "context": 8}),
                      ImputerConfig("seasonal_naive", {"season": 24}),
                      ImputerConfig("arima", {"train_span": 200, "p_max": 1,
                                              "d_max": 1, "q_max": 1}),
                      ImputerConfig("gbt", {"train_span": 200, "trees": 10})],
            n_gaps=6, min_len=2, max_len=12, seed=2)
        report = run_evaluation(series, config)
        for rec in report.records:
            assert not rec.failed
            assert rec.rmse < 1e-6 and rec.mae < 1e-6 and rec.wd < 1e-6
            assert rec.jsd < 1e-5

    def test_per_job_failures_recorded_not_raised(self):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        values, observed = series.values.tobytes(), series.observed.tobytes()

        def broken_fill(masked, gap, params, seed):
            raise InvalidParameterError("always broken")

        register_imputer("broken", broken_fill)
        try:
            config = EvalConfig(
                imputers=[ImputerConfig("broken", {}), *small_imputers()],
                n_gaps=5, min_len=2, max_len=10, seed=4)
            report = run_evaluation(series, config)
        finally:
            _REGISTRY.pop("broken")
        broken_id = config.imputers[0].imputer_id
        failures = [r for r in report.records if r.imputer_id == broken_id]
        assert len(failures) == 5
        assert all(r.failed and r.error.startswith("invalid-parameter")
                   for r in failures)
        assert all(not r.failed for r in report.records
                   if r.imputer_id != broken_id)
        assert series.values.tobytes() == values
        assert series.observed.tobytes() == observed
        assert series.values.flags.writeable and series.observed.flags.writeable

    def test_every_pair_appears_exactly_once(self):
        series = synthesize_series("seasonal", 4000, {}, seed=6)
        config = EvalConfig(imputers=small_imputers(), n_gaps=8,
                            min_len=2, max_len=24, seed=9)
        report = run_evaluation(series, config)
        keys = {(r.gap_id, r.imputer_id) for r in report.records}
        assert len(keys) == len(report.records) == 16

    def test_deterministic_reruns(self):
        series = synthesize_series("seasonal", 4000, {"noise_sd": 5.0}, seed=8)
        config = EvalConfig(imputers=small_imputers(), n_gaps=8,
                            min_len=2, max_len=24, seed=1)
        first = run_evaluation(series, config)
        again = run_evaluation(series, config)
        assert first.records == again.records
        assert first.aggregates == again.aggregates

    @pytest.mark.parametrize("seed", [0, 4])
    def test_each_job_sees_only_its_gap_hidden(self, seed):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        hidden = []

        def peeking_fill(masked, gap, params, seed):
            hidden.append((gap, np.flatnonzero(~masked.observed).tolist(),
                           np.flatnonzero(np.isnan(masked.values)).tolist()))
            return masked.values[gap.start_index:gap.end_index]

        register_imputer("peeking", peeking_fill)
        try:
            config = EvalConfig(
                imputers=[*small_imputers(), ImputerConfig("peeking", {})],
                n_gaps=12, min_len=2, max_len=10, seed=seed)
            report = run_evaluation(series, config)
        finally:
            _REGISTRY.pop("peeking")
        assert len(hidden) == 12
        for gap, unobserved, nan in hidden:
            assert unobserved == nan == list(range(gap.start_index, gap.end_index))
        peeking = [r for r in report.records if r.imputer_id.startswith("peeking")]
        assert len(peeking) == 12
        assert all(r.error == "shape: fill contains non-finite values"
                   for r in peeking)
        assert not any(r.failed for r in report.records
                       if not r.imputer_id.startswith("peeking"))

    def test_rebinding_the_view_does_not_reach_the_next_job(self):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        seen = []

        def rebinding_fill(masked, gap, params, seed):
            seen.append(masked.observed[gap.start_index:gap.end_index].any())
            masked.values = np.zeros(len(masked))
            masked.observed = np.ones(len(masked), dtype=bool)
            return np.zeros(gap.length)

        for kind in ("rebinding_a", "rebinding_b"):
            register_imputer(kind, rebinding_fill)
        try:
            config = EvalConfig(imputers=[ImputerConfig("rebinding_a", {}),
                                          ImputerConfig("rebinding_b", {})],
                                n_gaps=4, min_len=2, max_len=10, seed=4)
            run_evaluation(series, config)
        finally:
            _REGISTRY.pop("rebinding_a")
            _REGISTRY.pop("rebinding_b")
        assert seen == [False] * 8

    @pytest.mark.parametrize("field", ["values", "observed"])
    def test_writing_into_the_view_raises(self, field):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        values, observed = series.values.tobytes(), series.observed.tobytes()

        def writing_fill(masked, gap, params, seed):
            getattr(masked, field)[0] = 0
            return np.zeros(gap.length)

        register_imputer("writing", writing_fill)
        try:
            config = EvalConfig(imputers=[*small_imputers(),
                                          ImputerConfig("writing", {})],
                                n_gaps=4, min_len=2, max_len=10, seed=4)
            with pytest.raises(ValueError, match="read-only"):
                run_evaluation(series, config)
        finally:
            _REGISTRY.pop("writing")
        assert series.values.tobytes() == values
        assert series.observed.tobytes() == observed

    def test_gap_starts_clear_training_reserve(self):
        series = synthesize_series("seasonal", 4000, {}, seed=2)
        config = EvalConfig(
            imputers=[ImputerConfig("arima", {"train_span": 800, "p_max": 1,
                                              "d_max": 1, "q_max": 1})],
            n_gaps=5, min_len=2, max_len=12, seed=3)
        report = run_evaluation(series, config)
        assert all(g.start_index >= 800 for g in report.gaps)
        assert not any(r.failed for r in report.records)

    def test_provenance_block(self):
        series = synthesize_series("seasonal", 3000, {}, seed=2)
        config = EvalConfig(imputers=small_imputers(), n_gaps=4,
                            min_len=2, max_len=10, seed=77)
        report = run_evaluation(series, config)
        assert report.provenance["seed"] == 77
        assert report.provenance["prng_algorithm"] == "philox4x64"
        assert report.provenance["config"]["n_gaps"] == 4
        assert "created_utc" in report.provenance

    def test_partially_observed_series_rejected(self):
        series = synthesize_series("seasonal", 3000, {}, seed=2)
        series.observed[100] = False
        with pytest.raises(ConfigError):
            run_evaluation(series, EvalConfig(imputers=small_imputers(),
                                              n_gaps=4, min_len=2,
                                              max_len=10, seed=0))

    def test_series_too_short_rejected(self):
        series = synthesize_series("seasonal", 850, {}, seed=2)
        config = EvalConfig(
            imputers=[ImputerConfig("arima", {"train_span": 800})],
            n_gaps=2, min_len=2, max_len=48, seed=0)
        with pytest.raises(ConfigError):
            run_evaluation(series, config)


class TestImputerBoundary:
    """Fault-injection kinds registered through ``register_imputer``."""

    @pytest.fixture(autouse=True)
    def faulty_kinds(self, monkeypatch):
        monkeypatch.setattr(imputers, "_REGISTRY", dict(imputers._REGISTRY))

        def overflowing(masked, gap, params, seed):
            with np.errstate(over="raise"):
                return np.full(gap.length, np.float64(1e308) * 10.0)

        def buggy(masked, gap, params, seed):
            raise TypeError("bug in a fill")

        register_imputer("nan", lambda masked, gap, params, seed:
                         np.full(gap.length, np.nan))
        register_imputer("short", lambda masked, gap, params, seed:
                         np.zeros(gap.length - 1))
        register_imputer("singular", lambda masked, gap, params, seed:
                         np.linalg.inv(np.zeros((2, 2))))
        register_imputer("overflowing", overflowing)
        register_imputer("buggy", buggy)
        # finite values whose distances to any ordinary series overflow
        register_imputer("huge", lambda masked, gap, params, seed:
                         np.resize([-1e308, 1e308], gap.length))
        register_imputer("column", lambda masked, gap, params, seed:
                         np.zeros((gap.length, 1)))
        register_imputer("scalar_on_one", lambda masked, gap, params, seed:
                         0.0 if gap.length == 1 else np.zeros(gap.length))

    def test_failures_recorded_by_code(self):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        kinds = ("nan", "short", "singular", "overflowing")
        config = EvalConfig(
            imputers=[*(ImputerConfig(kind, {}) for kind in kinds), *small_imputers()],
            n_gaps=4, min_len=2, max_len=10, seed=4)
        report = run_evaluation(series, config)
        codes = {}
        for imputer in config.imputers:
            codes[imputer.kind] = {r.error.split(":")[0] if r.failed else None
                                   for r in report.records
                                   if r.imputer_id == imputer.imputer_id}
        assert codes == {"nan": {"shape"}, "short": {"shape"},
                         "singular": {"numerical"}, "overflowing": {"numerical"},
                         "polynomial": {None}, "seasonal_naive": {None}}

    def test_column_fill_beside_polynomial_recorded_as_shape_failure(self):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        config = EvalConfig(imputers=[*small_imputers(), ImputerConfig("column", {})],
                            n_gaps=4, min_len=2, max_len=10, seed=4)
        report = run_evaluation(series, config)
        errors = [r.error for r in report.records if r.imputer_id.startswith("column")]
        assert errors == ["shape: fill must be a 1-D array of gap.length values"] * 4
        assert not any(r.failed for r in report.records
                       if not r.imputer_id.startswith("column"))

    def test_scalar_fill_of_a_one_sample_gap_recorded_as_shape_failure(self):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        config = EvalConfig(imputers=[*small_imputers(), ImputerConfig("scalar_on_one", {})],
                            n_gaps=12, min_len=1, max_len=3, seed=4)
        report = run_evaluation(series, config)
        records = [r for r in report.records if r.imputer_id.startswith("scalar_on_one")]
        assert any(r.gap_len == 1 for r in records) and any(r.gap_len > 1 for r in records)
        for r in records:
            assert r.failed == (r.gap_len == 1)
            if r.failed:
                assert r.error == "shape: fill must be a 1-D array of gap.length values"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_batched_scores_equal_per_fill_oracle_scores(self):
        series = synthesize_series("seasonal", 3000, {"noise_sd": 3.0}, seed=2)
        config = EvalConfig(
            imputers=[*small_imputers(), ImputerConfig("singular", {}),
                      ImputerConfig("huge", {}),
                      ImputerConfig("polynomial", {"order": 1, "context": 4})],
            n_gaps=12, min_len=1, max_len=10, seed=7)
        report = run_evaluation(series, config)

        expected = []
        for gi, gap in enumerate(report.gaps):
            window = slice(gap.start_index, gap.end_index)
            masked = series.copy()
            masked.values[window] = np.nan
            masked.observed[window] = False
            reference = pre_gap_window(masked, gap)
            truth = series.values[window]
            for mi, imputer in enumerate(config.imputers):
                keys = dict(gap_id=f"gap{gi:03d}", imputer_id=imputer.imputer_id,
                            gap_len=gap.length)
                try:
                    filled = impute(masked, gap, imputer,
                                    seed=derive_seed(config.seed, gi, mi))
                    expected.append(MetricRecord(
                        **keys, wd=wasserstein_pair(filled, reference),
                        jsd=jsd_pair(filled, reference, config.bins, config.epsilon),
                        rmse=rmse_pair(filled, truth), mae=mae_pair(filled, truth)))
                except GapgaugeError as exc:
                    expected.append(MetricRecord(**keys, error=f"{exc.code}: {exc.message}"))
        assert report.records == expected
        errors = {r.error for r in report.records if r.failed}
        assert errors >= {"numerical: LinAlgError: Singular matrix",
                          "shape: metric wd must be finite on a success record"}
        assert all(r.failed for r in report.records if r.imputer_id.startswith("huge"))
        assert len({r.gap_len for r in report.records}) > 1

    def test_overflowing_scores_fail_without_warnings(self):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        config = EvalConfig(imputers=[*small_imputers(), ImputerConfig("huge", {})],
                            n_gaps=4, min_len=2, max_len=10, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_evaluation(series, config)
        errors = [r.error for r in report.records if r.imputer_id.startswith("huge")]
        assert errors == ["shape: metric wd must be finite on a success record"] * 4
        assert not any(r.failed for r in report.records
                       if not r.imputer_id.startswith("huge"))

    def test_registered_kinds_receive_the_derived_seed(self):
        seeds = []

        def seed_reader(masked, gap, params, seed):
            seeds.append(seed)
            return np.zeros(gap.length)

        register_imputer("seed_reader", seed_reader)
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        config = EvalConfig(imputers=[*small_imputers(), ImputerConfig("seed_reader", {})],
                            n_gaps=5, min_len=2, max_len=10, seed=11)
        run_evaluation(series, config)
        assert seeds == [derive_seed(11, gi, 2) for gi in range(5)]
        assert kind_spec("seed_reader").reads_seed
        assert kind_spec("gbt").reads_seed
        assert not any(kind_spec(kind).reads_seed for kind in
                       ("polynomial", "seasonal_naive", "arima", "sarima"))

    def test_numerical_error_keeps_its_cause(self):
        series = synthesize_series("seasonal", 300, {}, seed=1)
        with pytest.raises(NumericalError, match="LinAlgError") as err:
            impute(series, GapSpec(200, 5), ImputerConfig("singular", {}))
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
        assert err.value.code == "numerical"

    def test_other_exceptions_propagate(self):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        config = EvalConfig(imputers=[ImputerConfig("buggy", {}), *small_imputers()],
                            n_gaps=4, min_len=2, max_len=10, seed=4)
        with pytest.raises(TypeError, match="bug in a fill"):
            run_evaluation(series, config)


class TestRowForm:
    """Kinds with a row form fill every gap of a run in one ``impute`` call."""

    def test_row_outcomes_land_in_their_record_slots(self, monkeypatch):
        monkeypatch.setattr(imputers, "_REGISTRY", dict(imputers._REGISTRY))
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        calls = []

        def per_gap(masked, gap, params, seed):
            raise AssertionError("a row kind is not filled gap by gap")

        def rows(masked, gaps, params):
            calls.append((masked.values.flags.writeable, masked.observed.flags.writeable,
                          masked.values.tobytes() == series.values.tobytes(),
                          bool(masked.observed.all()), len(gaps)))
            outcomes = []
            for gi, gap in enumerate(gaps):
                window = slice(gap.start_index, gap.end_index)
                outcomes.append([ContextError("no context", found=gi),
                                 np.zeros((gap.length, 1)),
                                 np.linalg.LinAlgError("Singular matrix"),
                                 masked.values[window] + 1.0][gi % 4])
            return outcomes

        imputers._REGISTRY["rows"] = KindSpec(per_gap, reads_seed=False, fill_gaps=rows)
        config = EvalConfig(imputers=[ImputerConfig("rows", {}), *small_imputers()],
                            n_gaps=8, min_len=2, max_len=10, seed=4)
        report = run_evaluation(series, config)
        assert calls == [(False, False, True, True, 8)]
        errors = [r.error for r in report.records if r.imputer_id.startswith("rows")]
        assert errors == ["context: no context",
                          "shape: fill must be a 1-D array of gap.length values",
                          "numerical: LinAlgError: Singular matrix", None] * 2
        ok = [r for r in report.records if r.imputer_id.startswith("rows") and not r.failed]
        assert all(r.rmse == pytest.approx(1.0) and r.mae == pytest.approx(1.0) for r in ok)
        assert not any(r.failed for r in report.records if not r.imputer_id.startswith("rows"))

    def test_polynomial_imputed_once_per_imputer(self, monkeypatch):
        calls = []

        def counting(masked, gap, config, seed=0):
            calls.append((config.kind, isinstance(gap, GapSpec)))
            return impute(masked, gap, config, seed)

        monkeypatch.setattr(harness, "impute", counting)
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        config = EvalConfig(imputers=[*small_imputers(),
                                      ImputerConfig("polynomial", {"order": 1})],
                            n_gaps=6, min_len=2, max_len=10, seed=4)
        report = run_evaluation(series, config)
        assert sorted(calls) == sorted([("polynomial", False)] * 2 +
                                       [("seasonal_naive", True)] * 6)
        assert not any(r.failed for r in report.records)


class TestEvalConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EvalConfig(imputers=[], n_gaps=10)
        with pytest.raises(ConfigError):
            EvalConfig(imputers=small_imputers(), min_len=10, max_len=2)
        with pytest.raises(ConfigError):
            EvalConfig(imputers=small_imputers(), n_gaps=0)
        with pytest.raises(ConfigError):
            EvalConfig(imputers=small_imputers(), bins=1)
        with pytest.raises(ConfigError):
            EvalConfig(imputers=small_imputers(), aggregation="decile")
        for epsilon in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="epsilon"):
                EvalConfig(imputers=small_imputers(), epsilon=epsilon)

    @pytest.mark.parametrize("field,value", [
        ("n_gaps", 3.5), ("n_gaps", True), ("min_len", 2.5), ("max_len", 48.0),
        ("seed", 1.5), ("seed", True), ("bins", 10.5), ("bins", np.float64(10))])
    def test_count_or_seed_that_is_not_an_integer_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer") as err:
            EvalConfig(imputers=small_imputers(), **{field: value})
        assert err.value.context == {field: value}

    @pytest.mark.parametrize("epsilon", [True, False])
    def test_bool_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon"):
            EvalConfig(imputers=small_imputers(), epsilon=epsilon)

    def test_numpy_integers_accepted(self):
        config = EvalConfig(imputers=small_imputers(), n_gaps=np.int64(5),
                            seed=np.uint64(2**64 - 1), bins=np.int32(12))
        assert config.n_gaps == 5 and config.bins == 12

    @pytest.mark.parametrize("epsilon", ["x", None, np.True_, 10**400])
    def test_epsilon_that_is_not_a_finite_number_rejected(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon must be a finite number") as err:
            EvalConfig(imputers=small_imputers(), epsilon=epsilon)
        assert err.value.context == {"epsilon": epsilon}

    def test_numpy_settings_stored_as_python_numbers(self):
        config = EvalConfig(imputers=small_imputers(), n_gaps=np.int64(5), min_len=np.int8(2),
                            max_len=np.uint16(9), seed=np.uint64(2**64 - 1),
                            bins=np.int32(12), epsilon=np.float32(0.25))
        names = ("n_gaps", "min_len", "max_len", "seed", "bins", "epsilon")
        assert [type(getattr(config, name)) for name in names] == [int] * 5 + [float]
        assert config == EvalConfig(imputers=small_imputers(), n_gaps=5, min_len=2, max_len=9,
                                    seed=2**64 - 1, bins=12, epsilon=0.25)

    @pytest.mark.parametrize("numpy_settings", [
        {"seed": np.int64(3)}, {"n_gaps": np.int64(6)}, {"bins": np.int64(12)},
        {"seed": np.uint64(3), "n_gaps": np.int32(6), "bins": np.int16(12)}])
    def test_numpy_settings_emit_the_python_run_report(self, tmp_path, numpy_settings):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        python = dict(seed=3, n_gaps=6, bins=12)
        outputs = []
        for name, settings in (("python", python), ("numpy", {**python, **numpy_settings})):
            config = EvalConfig(imputers=small_imputers(), max_len=12, **settings)
            emit_report(run_evaluation(series, config), tmp_path / name)
            doc = json.loads((tmp_path / name / "report.json").read_text())
            del doc["provenance"]["created_utc"]
            outputs.append([doc] + [(tmp_path / name / f).read_bytes()
                                    for f in ("records.csv", "aggregates.csv")])
        assert outputs[0] == outputs[1]

    def test_json_document_pinned(self):
        config = EvalConfig(imputers=small_imputers(), n_gaps=7, seed=2**64 - 1,
                            epsilon=0.25)
        assert json.dumps(config.to_json_dict()) == (
            '{"n_gaps": 7, "min_len": 2, "max_len": 48, "seed": 18446744073709551615, '
            '"bins": 10, "epsilon": 0.25, "aggregation": "exact", "imputers": ['
            '{"kind": "polynomial", "params": {"order": 2, "context": 8}, '
            '"imputer_id": "polynomial-69326f52"}, '
            '{"kind": "seasonal_naive", "params": {"season": 24}, '
            '"imputer_id": "seasonal_naive-2bcdc8c9"}]}')

    def test_duplicate_imputers_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            EvalConfig(imputers=[*small_imputers(),
                                 ImputerConfig("seasonal_naive", {})])
