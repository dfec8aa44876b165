import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapgauge import (EvalConfig, ImputerConfig, IngestSpec, MetricRecord,
                      ParamSpec, TimeSeries, emit_report,
                      ingest_csv, load_config, read_records_csv,
                      register_imputer, run_evaluation, synthesize_series,
                      write_series_csv)
from gapgauge.errors import (CadenceError, ConfigError,
                             DuplicateTimestampError, ParseError, SchemaError)
from gapgauge.imputers import _REGISTRY
from gapgauge.io import write_records_csv

REPO_DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def write_csv(path, rows, header="timestamp,value"):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return str(path)


class TestIngest:
    def test_three_hourly_rows(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", ["0,1", "3600,2", "7200,3"])
        series = ingest_csv(IngestSpec(path=path))
        assert len(series) == 3
        assert series.observed.all()
        assert np.array_equal(series.values, [1.0, 2.0, 3.0])
        assert series.start_time == 0.0 and series.step == 3600.0

    def test_leading_byte_order_mark_ignored(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with a byte-order mark.
        path = write_csv(tmp_path / "s.csv", ["0,1", "3600,2"],
                         header="\ufefftimestamp,value")
        assert Path(path).read_bytes().startswith(b"\xef\xbb\xbftimestamp,")
        series = ingest_csv(IngestSpec(path=path))
        assert np.array_equal(series.values, [1.0, 2.0])

    def test_missing_hour_masked_under_mask_policy(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", ["0,1", "7200,3"])
        series = ingest_csv(IngestSpec(path=path, missing_policy="mask"))
        assert len(series) == 3
        assert np.array_equal(series.observed, [True, False, True])

    def test_missing_hour_rejected_with_line(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", ["0,1", "7200,3"])
        with pytest.raises(CadenceError) as err:
            ingest_csv(IngestSpec(path=path, missing_policy="reject"))
        assert err.value.line == 3  # detected at the row after the break

    def test_unsorted_rows_accepted(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", ["7200,3", "0,1", "3600,2"])
        series = ingest_csv(IngestSpec(path=path))
        assert np.array_equal(series.values, [1.0, 2.0, 3.0])

    def test_duplicate_timestamp(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", ["0,1", "3600,2", "3600,5"])
        with pytest.raises(DuplicateTimestampError):
            ingest_csv(IngestSpec(path=path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_names_line(self, tmp_path, cell):
        path = write_csv(tmp_path / "s.csv", ["0,1", f"{cell},2"])
        with pytest.raises(ParseError, match="non-finite timestamp") as err:
            ingest_csv(IngestSpec(path=path))
        assert err.value.line == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, cell):
        path = write_csv(tmp_path / "s.csv", ["0,1", f"3600,{cell}"])
        with pytest.raises(ParseError, match="non-finite value") as err:
            ingest_csv(IngestSpec(path=path))
        assert err.value.line == 3

    def test_off_grid_timestamp(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", ["0,1", "3700,2"])
        with pytest.raises(CadenceError) as err:
            ingest_csv(IngestSpec(path=path))
        assert err.value.line == 3

    def test_malformed_value_names_line(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", ["0,1", "3600,abc"])
        with pytest.raises(ParseError) as err:
            ingest_csv(IngestSpec(path=path))
        assert err.value.line == 3

    def test_blank_value_cell_masks(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", ["0,1", "3600,", "7200,3"])
        series = ingest_csv(IngestSpec(path=path, missing_policy="mask"))
        assert np.array_equal(series.observed, [True, False, True])

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", ["0,1"], header="time,value")
        with pytest.raises(ParseError) as err:
            ingest_csv(IngestSpec(path=path))
        assert err.value.line == 1

    def test_iso8601_timestamps(self, tmp_path):
        path = write_csv(tmp_path / "s.csv",
                         ["2021-01-01T00:00:00Z,1",
                          "2021-01-01T01:00:00Z,2"])
        series = ingest_csv(IngestSpec(path=path, timestamp_format="iso8601"))
        assert series.start_time == 1_609_459_200.0
        assert len(series) == 2

    def test_custom_columns(self, tmp_path):
        path = write_csv(tmp_path / "s.csv", ["5,0,99", "5,3600,98"],
                         header="segment,when,count")
        series = ingest_csv(IngestSpec(path=path, timestamp_column="when",
                                       value_column="count"))
        assert np.array_equal(series.values, [99.0, 98.0])

    def test_ingest_emit_round_trip(self, tmp_path):
        original = synthesize_series("seasonal", 300, {"noise_sd": 5.0}, seed=9)
        path = tmp_path / "round.csv"
        write_series_csv(original, path)
        back = ingest_csv(IngestSpec(path=str(path)))
        assert back.start_time == original.start_time
        assert back.step == original.step
        assert np.array_equal(back.values, original.values)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.0, 2e9), st.floats(1.0, 86_400.0),
           st.lists(st.tuples(st.floats(-1e12, 1e12, allow_nan=False,
                                        allow_infinity=False), st.booleans()),
                    min_size=1, max_size=40))
    def test_write_ingest_round_trip(self, start, step, samples):
        values = np.array([value for value, _ in samples])
        observed = np.array([seen for _, seen in samples])
        series = TimeSeries(start_time=start, step=step, values=values,
                            observed=observed)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "s.csv")
            write_series_csv(series, path)
            back = ingest_csv(IngestSpec(path=path, expected_step=step,
                                         missing_policy="mask"))
        assert (back.start_time, back.step) == (start, step)
        assert np.array_equal(back.observed, observed)
        assert back.values[observed].tobytes() == values[observed].tobytes()

    def test_round_trip_preserves_mask(self, tmp_path):
        original = synthesize_series("seasonal", 100, {}, seed=1)
        original.observed[40:44] = False
        path = tmp_path / "masked.csv"
        write_series_csv(original, path)
        back = ingest_csv(IngestSpec(path=str(path), missing_policy="mask"))
        assert np.array_equal(back.observed, original.observed)


class TestConfig:
    def test_repo_default_config(self):
        config = load_config(REPO_DEFAULT_CONFIG, step_seconds=3600.0)
        assert config.n_gaps == 100
        assert config.min_len == 2
        assert config.max_len == 48
        assert [c.kind for c in config.imputers] == \
            ["polynomial", "seasonal_naive", "arima", "sarima", "gbt"]
        assert [c.imputer_id for c in config.imputers] == [
            "polynomial-2e5479fc", "seasonal_naive-2bcdc8c9", "arima-d3e7b32f",
            "sarima-dbfc0f22", "gbt-ada7b7b9"]

    def test_hours_convert_with_step(self):
        config = load_config(REPO_DEFAULT_CONFIG, step_seconds=900.0)
        assert config.min_len == 8
        assert config.max_len == 192
        seasonal = [c for c in config.imputers if c.kind == "seasonal_naive"][0]
        assert seasonal.params["season"] == 96

    def test_min_above_max_names_both_fields(self, tmp_path):
        doc = {"schema_version": 1, "gap_hours": {"min": 5, "max": 2},
               "imputers": [{"kind": "polynomial"}]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as err:
            load_config(path)
        assert "gap_hours.min" in str(err.value)
        assert "gap_hours.max" in str(err.value)

    def test_schema_violations_name_field_paths(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 1}))
        with pytest.raises(SchemaError) as err:
            load_config(path)
        assert err.value.path == "gap_hours"

        path.write_text(json.dumps({
            "schema_version": 1, "gap_hours": {"min": 2, "max": 8},
            "imputers": [{"kind": "gbt", "params": {"trees": -2}}]}))
        with pytest.raises(SchemaError) as err:
            load_config(path)
        assert "imputers[0].params" in str(err.value)

    def test_param_given_in_samples_and_hours_names_both(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema_version": 1, "gap_hours": {"min": 2, "max": 8},
            "imputers": [{"kind": "polynomial"},
                         {"kind": "gbt", "params": {"train_span": 500,
                                                    "train_span_hours": 100}}]}))
        with pytest.raises(SchemaError) as err:
            load_config(path)
        assert err.value.path == \
            "imputers[1].params.train_span,imputers[1].params.train_span_hours"

    def test_duplicate_imputers_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema_version": 1, "gap_hours": {"min": 2, "max": 8},
            "imputers": [{"kind": "polynomial"},
                         {"kind": "polynomial", "params": {"order": 3}}]}))
        with pytest.raises(SchemaError, match="duplicate"):
            load_config(path)

    def test_program_errors_are_not_schema_errors(self, tmp_path):
        # a bound of the wrong type is a fault in the kind's declaration
        register_imputer("miswired", lambda masked, gap, params, seed: None,
                         params=(ParamSpec("width", int, 3, low="1"),))
        try:
            path = tmp_path / "c.json"
            path.write_text(json.dumps({
                "schema_version": 1, "gap_hours": {"min": 2, "max": 8},
                "imputers": [{"kind": "miswired"}]}))
            with pytest.raises(TypeError):
                load_config(path)
        finally:
            _REGISTRY.pop("miswired")

    def test_plugin_hours_and_history(self, tmp_path):
        def lagged_fill(masked, gap, params, seed):
            return np.full(gap.length, masked.values[gap.start_index - params["lag"]])

        register_imputer("lagged", lagged_fill,
                         params=(ParamSpec("lag", int, 1, low=1, hours=True),),
                         history=lambda params, max_gap_len: 50 * params["lag"])
        try:
            with pytest.raises(ConfigError):
                ImputerConfig("lagged", {"required_history": 10})
            path = tmp_path / "c.json"
            path.write_text(json.dumps({
                "schema_version": 1, "seed": 4, "n_gaps": 10,
                "gap_hours": {"min": 2, "max": 6},
                "imputers": [{"kind": "lagged", "params": {"lag_hours": 6}}]}))
            config = load_config(path, step_seconds=900.0)
            assert config.imputers[0].params == {"lag": 24}
            series = synthesize_series("seasonal", 4000, {}, seed=1)
            report = run_evaluation(series, config)
        finally:
            _REGISTRY.pop("lagged")
        assert report.provenance["history_reserve"] == 1200
        assert all(g.start_index >= 1200 for g in report.gaps)
        assert not any(r.failed for r in report.records)

    def test_unsupported_schema_version(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 2}))
        with pytest.raises(SchemaError):
            load_config(path)

    def test_seed_priority(self, tmp_path, monkeypatch):
        doc = {"schema_version": 1, "gap_hours": {"min": 2, "max": 8},
               "imputers": [{"kind": "polynomial"}]}
        path = tmp_path / "c.json"

        monkeypatch.setenv("GAPGAUGE_SEED", "111")
        path.write_text(json.dumps(doc))
        assert load_config(path).seed == 111  # env when file has none

        doc["seed"] = 222
        path.write_text(json.dumps(doc))
        assert load_config(path).seed == 222  # file beats env
        assert load_config(path, seed_override=333).seed == 333  # flag beats file

        monkeypatch.delenv("GAPGAUGE_SEED")
        del doc["seed"]
        path.write_text(json.dumps(doc))
        assert load_config(path).seed == 0

    def test_dump_load_round_trip(self, tmp_path):
        config = EvalConfig(
            imputers=[ImputerConfig("seasonal_naive", {"season": 96}),
                      ImputerConfig("gbt", {"train_span": 800, "trees": 30})],
            n_gaps=7, min_len=8, max_len=192, seed=5, bins=12,
            epsilon=1e-7, aggregation="quartile")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema_version": 1, "seed": 5, "n_gaps": 7,
            "gap_hours": {"min": 2.0, "max": 48.0}, "bins": 12,
            "epsilon": 1e-7, "aggregation": "quartile",
            "imputers": [
                {"kind": "seasonal_naive", "params": {"season_hours": 24.0}},
                {"kind": "gbt", "params": {"train_span_hours": 200.0,
                                           "trees": 30}}]}))
        assert load_config(path, step_seconds=900.0) == config


class TestReportFiles:
    def make_report(self):
        series = synthesize_series("seasonal", 3000, {"noise_sd": 5.0}, seed=4)
        config = EvalConfig(
            imputers=[ImputerConfig("polynomial", {"order": 2, "context": 8}),
                      ImputerConfig("seasonal_naive", {"season": 24})],
            n_gaps=6, min_len=2, max_len=12, seed=3)
        return run_evaluation(series, config)

    def test_emit_writes_expected_file_set(self, tmp_path):
        report = self.make_report()
        written = emit_report(report, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["aggregates.csv", "plot_jsd.csv", "plot_mae.csv",
                         "plot_rmse.csv", "plot_wd.csv", "records.csv",
                         "report.json"]
        assert not list((tmp_path / "out").glob("*.tmp*"))
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == names

    def test_csv_headers(self, tmp_path):
        emit_report(self.make_report(), tmp_path)
        assert (tmp_path / "records.csv").read_text().splitlines()[0] == \
            "gap_id,imputer_id,gap_len,wd,jsd,rmse,mae,error"
        assert (tmp_path / "aggregates.csv").read_text().splitlines()[0] == \
            "imputer_id,gap_len,mean_wd,mean_jsd,mean_rmse,mean_mae,n,n_failed"

    def test_records_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "records.csv"
        write_records_csv(report.records, path)
        assert read_records_csv(path) == report.records

    def test_records_round_trip_with_errors(self, tmp_path):
        records = [MetricRecord(gap_id="g0", imputer_id="m", gap_len=3,
                                wd=1.5, jsd=0.25, rmse=2.0, mae=1.0),
                   MetricRecord(gap_id="g1", imputer_id="m", gap_len=4,
                                error="context: needed 3, found 1")]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        record = MetricRecord(gap_id="g0", imputer_id="m", gap_len=3,
                              wd=1.5, jsd=0.25, rmse=2.0, mae=1.0)
        with pytest.raises(AttributeError):
            write_records_csv([record, object()], tmp_path / "records.csv")
        assert list(tmp_path.iterdir()) == []

    def test_report_json_is_valid_and_carries_provenance(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["provenance"]["prng_algorithm"] == "philox4x64"
        assert doc["provenance"]["config"]["n_gaps"] == 6
        assert len(doc["records"]) == 12
        assert doc["gaps"]["seed"] == 3
        assert list(doc["gaps"]) == ["seed", "source_length", "gaps"]
        assert doc["gaps"] == report.gaps.to_json_dict()

    def test_plot_csv_shape(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        lines = (tmp_path / "plot_wd.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "gap_len"
        assert len(header) == 3  # one column per imputer
        assert len(lines) > 1
