import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapgauge import (EvalConfig, ImputerConfig, IngestSpec, ParamSpec, TimeSeries, aggregate, emit_report,
                      ingest_csv, load_config, read_records_csv,
                      register_imputer, run_evaluation, synthesize_series,
                      write_series_csv)
from gapgauge.errors import (CadenceError, ConfigError,
                             DuplicateTimestampError, ParseError, SchemaError)
from gapgauge.imputers import _REGISTRY
from gapgauge.harness import AggregateRow, RecordTable
from gapgauge.io import (GAP_LEN, RECORD_COLUMNS, _csv_lines, write_aggregates_csv,
                         write_records_csv)

from _oracles import assert_same_records, record_table

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

    @pytest.mark.parametrize("rows, step, match, line", [
        # 3.6e13 s is a 1e10-sample hourly grid, 75 GiB as floats
        (["0,1", "3600,2", "7200,3", "36000000000000,4"], 3600.0, "grid position 3", 5),
        (["1e308,2", "-1e308,1"], 3600.0, "finite grid", 2),
        (["0,1", "3600,2"], 1e-300, "grid position 1", 3),
    ], ids=["millisecond-typo", "beyond-float-range", "tiny-step"])
    def test_huge_span_rejected_without_allocating_its_grid(self, tmp_path, rows, step,
                                                            match, line):
        path = write_csv(tmp_path / "s.csv", rows)
        with pytest.raises(CadenceError, match=match) as err:
            ingest_csv(IngestSpec(path=path, expected_step=step))
        assert err.value.line == line

    def test_huge_span_under_mask_policy_rejected_without_allocating(self, tmp_path):
        # An epoch-milliseconds typo: 1e10 hourly positions, 75 GiB as floats
        path = write_csv(tmp_path / "s.csv",
                         ["0,1", "3600,2", "7200,3", "36000000000000,4"])
        with pytest.raises(CadenceError, match="fit in memory") as err:
            ingest_csv(IngestSpec(path=path, missing_policy="mask"))
        assert err.value.line == 5

    @pytest.mark.parametrize("rows, error, match, line", [
        (["7200,", "0,1", "3700,2"], CadenceError, "off the uniform grid", 4),
        (["0,1", "3600,2", "3600,"], DuplicateTimestampError, "share one timestamp", 4),
        (["0,1", "7200,3", "10900,4"], CadenceError, "off the uniform grid", 4),
    ], ids=["earliest-in-time-beats-earlier-line", "duplicate-before-blank",
            "row-fault-before-missing-position"])
    def test_fault_precedence_under_reject(self, tmp_path, rows, error, match, line):
        # The earliest faulty row in time order raises its first fault, and
        # only a file with no faulty row reports a missing position.
        path = write_csv(tmp_path / "s.csv", rows)
        with pytest.raises(error, match=match) as err:
            ingest_csv(IngestSpec(path=path))
        assert err.value.line == line

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

    @pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
    def test_expected_step_must_be_finite_and_positive(self, step):
        with pytest.raises(SchemaError) as err:
            IngestSpec(path="s.csv", expected_step=step)
        assert err.value.path == "ingest.expected_step"

    @pytest.mark.parametrize("step", ["3600", None, True, np.bool_(True), [3600.0]])
    def test_expected_step_that_is_not_a_number_rejected(self, step):
        # "3600" and None raised a bare TypeError; True ran as a 1-second step
        with pytest.raises(SchemaError, match="expected_step must be a finite number") as err:
            IngestSpec(path="s.csv", expected_step=step)
        assert err.value.path == "ingest.expected_step"

    @pytest.mark.parametrize("step", [900, np.int64(60), np.float32(0.5), 3600.0])
    def test_expected_step_stored_as_a_python_float(self, step):
        spec = IngestSpec(path="s.csv", expected_step=step)
        assert type(spec.expected_step) is float and spec.expected_step == step

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

    def test_series_csv_bytes(self, tmp_path):
        # Stamps 0, 1800.5 and 3601: integral stamps print as integers.
        series = TimeSeries(start_time=0.0, step=1800.5, values=[0.1, 2.0, -3.25],
                            observed=[True, False, True])
        path = tmp_path / "s.csv"
        write_series_csv(series, path)
        assert path.read_bytes() == b"timestamp,value\n0,0.1\n1800.5,\n3601,-3.25\n"

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

    @pytest.mark.parametrize("field, gap_hours, params", [
        ("gap_hours.min", {"min": float("nan"), "max": 8}, {}),
        ("gap_hours.max", {"min": 2, "max": float("inf")}, {}),
        ("gap_hours.max", {"min": 2, "max": 1e308}, {}),
        ("imputers[0].params.season_hours", {"min": 2, "max": 8},
         {"season_hours": float("nan")}),
    ])
    def test_non_finite_hours_name_field(self, tmp_path, field, gap_hours, params):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema_version": 1, "gap_hours": gap_hours,
            "imputers": [{"kind": "seasonal_naive", "params": params}]}))
        with pytest.raises(SchemaError, match="finite") as err:
            load_config(path)
        assert err.value.path == field

    def test_non_finite_epsilon_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "schema_version": 1, "gap_hours": {"min": 2, "max": 8},
            "epsilon": float("inf"), "imputers": [{"kind": "polynomial"}]}))
        with pytest.raises(SchemaError, match="epsilon"):
            load_config(path)

    @pytest.mark.parametrize("field,value", [
        ("n_gaps", "ten"), ("n_gaps", 2.5), ("n_gaps", True), ("n_gaps", None), ("n_gaps", 0),
        ("seed", "1"), ("seed", 1.5), ("seed", False), ("seed", -1), ("seed", 2**64),
        ("bins", [10]), ("bins", 10.0), ("bins", 1), ("bins", 2**63), ("bins", 2**62),
        ("epsilon", "1e-6"), ("epsilon", None), ("epsilon", True), ("epsilon", 0),
        ("epsilon", -1e-6), ("epsilon", 10**400), ("epsilon", float("nan")),
        ("aggregation", 3), ("aggregation", None), ("aggregation", "median")])
    def test_bad_setting_names_its_path(self, tmp_path, field, value):
        path = tmp_path / "c.json"
        path.write_text(config_text(**{field: value}))
        with pytest.raises(SchemaError, match=field) as err:
            load_config(path)
        assert err.value.path == field

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
        assert not report.records.errors

    def test_unsupported_schema_version(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema_version": 2}))
        with pytest.raises(SchemaError):
            load_config(path)

    def test_seed_priority(self, tmp_path):
        doc = {"schema_version": 1, "gap_hours": {"min": 2, "max": 8},
               "imputers": [{"kind": "polynomial"}]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert load_config(path).seed == 0  # the default

        doc["seed"] = 222
        path.write_text(json.dumps(doc))
        assert load_config(path).seed == 222  # the file's seed

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


RECORDS_HEADER = "gap_id,imputer_id,gap_len,wd,jsd,rmse,mae,error\n"
RECORD_ROW = "g0,m,4,1.0,0.1,2.0,1.5,\n"
HUGE = 10 ** 400  # beyond the float range


def ingest_with(**spec):
    return lambda path: ingest_csv(IngestSpec(path=path, **spec))


def config_text(**fields):
    doc = {"schema_version": 1, "gap_hours": {"min": 2, "max": 8},
           "imputers": [{"kind": "polynomial"}]}
    return json.dumps({**doc, **fields})


def polynomial_params(**params):
    return config_text(imputers=[{"kind": "polynomial", "params": params}])


# (reader, file text, error class, attribute naming the fault, its value)
IO_ERRORS = {
    "ingest-timestamp-format": (ingest_with(timestamp_format="unix"), "",
                                SchemaError, "path", "ingest.timestamp_format"),
    "ingest-missing-policy": (ingest_with(missing_policy="drop"), "",
                              SchemaError, "path", "ingest.missing_policy"),
    "ingest-no-header": (ingest_with(), "", ParseError, "line", 1),
    "ingest-short-row": (ingest_with(), "timestamp,value\n0,1\n3600\n",
                         ParseError, "line", 3),
    "ingest-no-data-rows": (ingest_with(), "timestamp,value\n\n", ParseError, "line", 1),
    "ingest-blank-cell-rejected": (ingest_with(), "timestamp,value\n0,1\n3600,\n",
                                   ParseError, "line", 3),
    "config-hours-below-one-sample": (load_config, config_text(gap_hours={"min": 0.1, "max": 8}),
                                      SchemaError, "path", "gap_hours.min"),
    "config-wrong-type": (load_config, config_text(n_gaps="ten"), SchemaError, "path", "n_gaps"),
    "config-invalid-json": (load_config, "{", SchemaError, "path", "$"),
    "config-non-object-root": (load_config, "[]", SchemaError, "path", "$"),
    "config-no-imputers": (load_config, config_text(imputers=[]),
                           SchemaError, "path", "imputers"),
    "config-non-object-imputer": (load_config, config_text(imputers=["polynomial"]),
                                  SchemaError, "path", "imputers[0]"),
    "config-unknown-kind": (load_config, config_text(imputers=[{"kind": "lstm"}]),
                            SchemaError, "path", "imputers[0].kind"),
    "config-non-number-hours": (load_config, polynomial_params(context_hours="8"),
                                SchemaError, "path", "imputers[0].params.context_hours"),
    "config-huge-gap-hours": (load_config, config_text(gap_hours={"min": 2, "max": HUGE}),
                              SchemaError, "path", "gap_hours.max"),
    "config-huge-param-hours": (load_config, polynomial_params(context_hours=HUGE),
                                SchemaError, "path", "imputers[0].params.context_hours"),
    "config-huge-float-param": (load_config,
                                config_text(imputers=[{"kind": "gbt",
                                                       "params": {"learning_rate": HUGE}}]),
                                SchemaError, "path", "imputers[0].params"),
    "config-huge-epsilon": (load_config, config_text(epsilon=HUGE), SchemaError, "path", "epsilon"),
    "config-huge-bins": (load_config, config_text(bins=HUGE), SchemaError, "path", "bins"),
    "config-one-bin": (load_config, config_text(bins=1), SchemaError, "path", "bins"),
    "config-memory-bins": (load_config, config_text(bins=2**62), SchemaError, "path", "bins"),
    "config-huge-seed": (load_config, config_text(seed=2**64), SchemaError, "path", "seed"),
    "config-nan-epsilon": (load_config, config_text(epsilon=float("nan")),
                           SchemaError, "path", "epsilon"),
    "config-unknown-aggregation": (load_config, config_text(aggregation="median"),
                                   SchemaError, "path", "aggregation"),
    "config-duplicate-imputers": (load_config, config_text(imputers=[{"kind": "polynomial"}] * 2),
                                  SchemaError, "path", "$"),
    "config-overlong-integer": (load_config, config_text()[:-1] + ', "seed": ' + "1" * 5000 + "}",
                                SchemaError, "path", "$"),
    "records-bad-header": (read_records_csv, "gap_id,imputer_id\n", ParseError, "line", 1),
    "records-column-count": (read_records_csv, RECORDS_HEADER + "g0,m,4,1.0\n",
                             ParseError, "line", 2),
    "records-unparseable": (read_records_csv, RECORDS_HEADER + "g0,m,four,1,1,1,1,\n",
                            ParseError, "line", 2),
    "records-nan-metric": (read_records_csv, RECORDS_HEADER + RECORD_ROW + "g1,m,4,nan,1,1,1,\n",
                           ParseError, "line", 3),
    "records-inf-metric": (read_records_csv, RECORDS_HEADER + RECORD_ROW + "g1,m,4,1,inf,1,1,\n",
                           ParseError, "line", 3),
    "records-blank-metric": (read_records_csv, RECORDS_HEADER + RECORD_ROW + "g1,m,4,1,1,,1,\n",
                             ParseError, "line", 3),
    # files no run writes
    "records-repeated-row": (read_records_csv, RECORDS_HEADER + RECORD_ROW * 6,
                             ParseError, "line", 3),
    "records-two-gap-lens": (read_records_csv, RECORDS_HEADER + RECORD_ROW + "g0,n,5,1,1,1,1,\n",
                             ParseError, "line", 3),
    "records-zero-gap-len": (read_records_csv, RECORDS_HEADER + "g0,m,0,1,1,1,1,\n",
                             ParseError, "line", 2),
    "records-negative-gap-len": (read_records_csv,
                                 RECORDS_HEADER + RECORD_ROW + "g1,m,-3,1,1,1,1,\n",
                                 ParseError, "line", 3),
    "records-failed-with-metrics": (read_records_csv,
                                    RECORDS_HEADER + "g0,m,4,1,1,1,1,context: x\n",
                                    ParseError, "line", 2),
}


@pytest.mark.parametrize("case", list(IO_ERRORS))
def test_io_error_names_its_field_or_line(tmp_path, case):
    read, text, error, attribute, expected = IO_ERRORS[case]
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as err:
        read(str(path))
    assert getattr(err.value, attribute) == expected


class TestReportFiles:
    def make_report(self, aggregation="exact"):
        series = synthesize_series("seasonal", 3000, {"noise_sd": 5.0}, seed=4)
        config = EvalConfig(
            imputers=[ImputerConfig("polynomial", {"order": 2, "context": 8}),
                      ImputerConfig("seasonal_naive", {"season": 24})],
            n_gaps=6, min_len=2, max_len=12, seed=3, aggregation=aggregation)
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
        assert_same_records(read_records_csv(path), report.records)

    def test_records_round_trip_with_errors(self, tmp_path):
        table = record_table([("g0", "m", 3, (1.5, 0.25, 2.0, 1.0), None),
                              ("g1", "m", 4, None, "context: needed 3, found 1")])
        path = tmp_path / "records.csv"
        write_records_csv(table, path)
        assert_same_records(read_records_csv(path), table)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
                           min_size=1, max_size=5))
    def test_numpy_float_metrics_write_the_bytes_of_python_floats(self, values):
        # csv writes each float by str(), which for numpy's float64 is the
        # same shortest repr; its repr() would be "np.float64(...)"
        def write(kind):
            table = record_table((f"g{i}", "m", 3, tuple(map(kind, row)), None)
                                 for i, row in enumerate(values))
            rows = [AggregateRow("m", 3, *map(kind, row), 1, 0) for row in values]
            with tempfile.TemporaryDirectory() as tmp:
                write_records_csv(table, Path(tmp) / "r.csv")
                write_aggregates_csv(rows, Path(tmp) / "a.csv")
                return (Path(tmp) / "r.csv").read_bytes(), (Path(tmp) / "a.csv").read_bytes()

        python, numpy = write(float), write(np.float64)
        assert python == numpy
        assert python[0].decode().splitlines()[1:] == [
            f"g{i},m,3," + ",".join(map(repr, row)) + "," for i, row in enumerate(values)]

    def test_records_of_a_failing_run_round_trip_through_the_table(self, tmp_path):
        rows = [("g0", "m", 3, (1.5, 0.25, 2.0, 1.0), None),
                ("g0", "n", 3, None, 'context: "a, b"\nline two'),
                ("g1", "m", 5, (np.float64(0.1), -0.0, 3e300, 5e-324), None),
                ("g1", "n", 5, None, "shape: metric rmse must be finite")]
        table = record_table(rows)
        write_records_csv(table, tmp_path / "records.csv")
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            [("gap_id", "imputer_id", "gap_len", "wd", "jsd", "rmse", "mae", "error")]
            + [(gap_id, imputer_id, gap_len, *(scores or [None] * 4), error)
               for gap_id, imputer_id, gap_len, scores, error in rows])
        assert (tmp_path / "records.csv").read_text(encoding="utf-8") == expected.getvalue()
        assert_same_records(read_records_csv(tmp_path / "records.csv"), table)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # a lone surrogate cannot be encoded, so the write fails mid-file
        table = record_table([("g0", "m", 3, (1.5, 0.25, 2.0, 1.0), None),
                              ("g1", "m", 3, None, "context: \ud800")])
        with pytest.raises(UnicodeEncodeError):
            write_records_csv(table, tmp_path / "records.csv")
        assert list(tmp_path.iterdir()) == []

    def test_report_json_is_valid_and_carries_provenance(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["provenance"]["prng_algorithm"] == "philox4x64"
        assert doc["provenance"]["config"]["n_gaps"] == 6
        assert list(doc) == ["provenance", "rank_agreement", "gaps"]
        assert doc["gaps"]["seed"] == 3
        assert list(doc["gaps"]) == ["seed", "source_length", "gaps"]
        assert doc["gaps"] == report.gaps.to_json_dict()

    @pytest.mark.parametrize("aggregation", ["exact", "quartile"])
    def test_plot_csvs_hold_the_exact_gap_length_means(self, tmp_path, aggregation):
        report = self.make_report(aggregation)
        exact = aggregate(report.records, "exact")
        assert (report.aggregates == exact) == (aggregation == "exact")
        emit_report(report, tmp_path)
        ids = [c["imputer_id"] for c in report.provenance["config"]["imputers"]]
        assert len(ids) == 2 and {row.imputer_id for row in exact} == set(ids)
        for metric in ("wd", "jsd", "rmse", "mae"):
            lines = ["gap_len," + ",".join(ids)]
            for gap_len in sorted({row.gap_len for row in exact}):
                cells = {row.imputer_id: repr(getattr(row, f"mean_{metric}"))
                         for row in exact if row.gap_len == gap_len}
                lines.append(",".join([str(gap_len)] + [cells.get(i, "") for i in ids]))
            assert (tmp_path / f"plot_{metric}.csv").read_bytes() == \
                ("\n".join(lines) + "\n").encode()

    def test_plot_csv_shape(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path)
        lines = (tmp_path / "plot_wd.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "gap_len"
        assert len(header) == 3  # one column per imputer
        assert len(lines) > 1


_CELLS = st.one_of(
    st.none(),
    st.text(alphabet=st.sampled_from(',"\n\r ab\x00é'), max_size=6),
    st.text(max_size=4),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, np.float64(-0.0), 5e-324, 1e300]),
    st.integers(-10**20, 10**20))


class TestCsvLines:
    """The one CSV formatter against the csv module it replaces, writing
    with a "\r\n" terminator: that writer quotes a cell holding ``,"\r\n``
    on every Python version, as the formatter does."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), width=st.integers(1, 5), height=st.integers(1, 6))
    def test_bytes_equal_csv_writer(self, data, width, height):
        rows = [data.draw(st.lists(_CELLS, min_size=width, max_size=width))
                for _ in range(height)]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\r\n").writerows(rows)
        columns = [list(column) for column in zip(*rows)]
        assert "".join(line + "\r\n" for line in _csv_lines(columns)) == expected.getvalue()

    @pytest.mark.parametrize("row", [[""], [None], ["a\rb", ""], ["\r"], ['"', ","], ["", ""]])
    def test_edge_rows(self, row):
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\r\n").writerow(row)
        assert _csv_lines([[cell] for cell in row]) == [expected.getvalue()[:-2]]

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            _csv_lines([["g0", "g1", "g2"], ["m", "m"]])


# Ids and failure messages: the characters that make a cell quoted, and others.
_RECORD_TEXT = st.text(max_size=5) | st.text(alphabet=st.sampled_from(',"\n\r ab\x00'),
                                             max_size=6)
_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64))


@st.composite
def record_tables(draw) -> RecordTable:
    """A table as a run writes it: one gap_len per gap id, each (gap_id,
    imputer_id) at most once, a failed record's scores NaN."""
    gap_lens = draw(st.dictionaries(_RECORD_TEXT, st.integers(1, GAP_LEN.high), max_size=5))
    imputer_ids = draw(st.lists(_RECORD_TEXT, max_size=4, unique=True))
    keys = draw(st.permutations([(g, m) for g in gap_lens for m in imputer_ids]))
    keys = keys[:draw(st.integers(0, len(keys)))]
    errors = {j: error for j in range(len(keys))
              if (error := draw(st.none() | _RECORD_TEXT.filter(bool))) is not None}
    scores = np.full((len(keys), 4), np.nan)
    for j in range(len(keys)):
        if j not in errors:
            scores[j] = draw(st.lists(_SCORES, min_size=4, max_size=4))
    return RecordTable([g for g, _ in keys], [m for _, m in keys],
                       np.array([gap_lens[g] for g, _ in keys], dtype=np.int64), scores, errors)


class TestRecordsCsv:
    @settings(max_examples=300, deadline=None)
    @given(table=record_tables())
    def test_round_trip_column_by_column(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("records") / "records.csv"
        write_records_csv(table, path)
        read = read_records_csv(path)
        assert read.gap_ids == table.gap_ids
        assert read.imputer_ids == table.imputer_ids
        assert read.gap_lens.dtype == table.gap_lens.dtype
        assert read.gap_lens.tolist() == table.gap_lens.tolist()
        assert read.scores.tobytes() == table.scores.tobytes()
        assert read.errors == table.errors

    def test_header_is_the_record_columns(self, tmp_path):
        write_records_csv(record_table([]), tmp_path / "records.csv")
        assert RECORD_COLUMNS == ("gap_id", "imputer_id", "gap_len", "wd", "jsd", "rmse",
                                  "mae", "error")
        assert (tmp_path / "records.csv").read_text() == ",".join(RECORD_COLUMNS) + "\n"
        assert len(read_records_csv(tmp_path / "records.csv")) == 0
