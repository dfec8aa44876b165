import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapgauge
from gapgauge import (EvalConfig, ImputerConfig, cli, emit_report, imputers, read_records_csv,
                      register_imputer, run_evaluation)
from gapgauge.cli import main
from gapgauge.errors import ContextError
from gapgauge.io import IngestSpec, ingest_csv, write_series_csv
from gapgauge.synth import synthesize_series


@pytest.fixture()
def synth_series(tmp_path):
    out = tmp_path / "series"
    code = main(["synth", "--kind", "seasonal", "--length", "4000",
                 "--seed", "3", "--out", str(out), "--quiet",
                 "--param", "noise_sd=5"])
    assert code == 0
    return out / "series.csv"


@pytest.fixture()
def small_config(tmp_path):
    doc = {
        "schema_version": 1,
        "seed": 9,
        "n_gaps": 6,
        "gap_hours": {"min": 2, "max": 12},
        "bins": 10,
        "epsilon": 1e-6,
        "imputers": [
            {"kind": "polynomial", "params": {"order": 2, "context_hours": 8}},
            {"kind": "seasonal_naive", "params": {"season_hours": 24}},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestSynthAndIngest:
    def test_synth_then_ingest_ok(self, synth_series, capsys):
        code = main(["ingest", "--series", str(synth_series)])
        assert code == 0
        out = capsys.readouterr().out
        assert "4000 samples" in out and "missing 0" in out

    def test_ingest_missing_file_exits_one(self, tmp_path):
        assert main(["ingest", "--series", str(tmp_path / "nope.csv")]) == 1

    def test_ingest_bad_cadence_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n0,1\n7200,2\n")
        assert main(["ingest", "--series", str(path)]) == 1
        assert "cadence" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_ingest_non_finite_timestamp_exits_one(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"timestamp,value\n0,1\n{cell},2\n")
        assert main(["ingest", "--series", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite timestamp" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_ingest_non_finite_step_exits_one(self, synth_series, capsys, step):
        assert main(["ingest", "--series", str(synth_series), "--step", step]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "expected_step" in err

    def test_synth_without_seed_or_step_uses_the_library_defaults(self, tmp_path, capsys):
        assert main(["synth", "--length", "500", "--out", str(tmp_path / "cli")]) == 0
        assert "seed=" not in capsys.readouterr().out
        write_series_csv(synthesize_series("seasonal", 500), tmp_path / "library.csv")
        written = (tmp_path / "cli" / "series.csv").read_bytes()
        assert written == (tmp_path / "library.csv").read_bytes()
        assert main(["synth", "--length", "500", "--seed", "4",
                     "--out", str(tmp_path / "seeded")]) == 0
        assert "seed=4" in capsys.readouterr().out

    def test_ingest_without_optional_flags_uses_the_library_defaults(
            self, synth_series, monkeypatch):
        read = []

        def recording_ingest(spec):
            read.append((spec, ingest_csv(spec)))
            return read[-1][1]

        monkeypatch.setattr(cli, "ingest_csv", recording_ingest)
        assert main(["ingest", "--series", str(synth_series)]) == 0
        [(spec, series)] = read
        expected = ingest_csv(IngestSpec(path=str(synth_series)))
        assert spec == IngestSpec(path=str(synth_series))
        assert (series.start_time, series.step) == (expected.start_time, expected.step)
        assert series.values.tobytes() == expected.values.tobytes()
        assert series.observed.tobytes() == expected.observed.tobytes()

    def test_synth_unknown_kind_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["synth", "--kind", "fractal", "--out", str(tmp_path)])

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_synth_seed_outside_64_unsigned_bits_exits_one(self, tmp_path, capsys, seed):
        assert main(["synth", "--length", "100", "--out", str(tmp_path),
                     "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [invalid-parameter] seed out of range")
        assert "Traceback" not in err
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_synth_bad_param_exits_one(self, tmp_path, capsys, value):
        assert main(["synth", "--length", "100", "--out", str(tmp_path),
                     "--param", f"daily_amplitude={value}"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "series.csv").exists()


class TestRun:
    def test_full_run_writes_outputs_and_exits_zero(self, synth_series,
                                                    small_config, tmp_path,
                                                    capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(small_config),
                     "--series", str(synth_series), "--out", str(out)])
        assert code == 0
        for name in ("report.json", "records.csv", "aggregates.csv",
                     "plot_wd.csv", "plot_jsd.csv", "plot_rmse.csv",
                     "plot_mae.csv"):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "2 imputers" in stdout and "6 gaps" in stdout

    def test_determinism_byte_identical_csvs(self, synth_series, small_config,
                                             tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(small_config), "--series",
                     str(synth_series), "--out", str(out_a), "--quiet"]) == 0
        assert main(["run", "--config", str(small_config), "--series",
                     str(synth_series), "--out", str(out_b), "--quiet"]) == 0
        for name in ("records.csv", "aggregates.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_flag_overrides_config(self, synth_series, small_config,
                                        tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(small_config), "--series",
              str(synth_series), "--out", str(out_a), "--quiet"])
        main(["run", "--config", str(small_config), "--series",
              str(synth_series), "--out", str(out_b), "--seed", "123",
              "--quiet"])
        assert (out_a / "records.csv").read_bytes() != \
            (out_b / "records.csv").read_bytes()
        doc = json.loads((out_b / "report.json").read_text())
        assert doc["provenance"]["seed"] == 123

    def test_imputer_filter(self, synth_series, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--series",
                     str(synth_series), "--out", str(out), "--quiet",
                     "--imputers", "seasonal_naive"]) == 0
        header = (out / "plot_wd.csv").read_text().splitlines()[0]
        assert header.count("seasonal_naive") == 1
        assert "polynomial" not in header

    def test_unknown_imputer_filter_exits_one(self, synth_series,
                                              small_config, tmp_path):
        assert main(["run", "--config", str(small_config), "--series",
                     str(synth_series), "--out", str(tmp_path / "x"),
                     "--imputers", "lstm", "--quiet"]) == 1

    def test_bad_config_exits_one(self, synth_series, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["run", "--config", str(bad), "--series",
                     str(synth_series), "--out", str(tmp_path / "x")]) == 1

    def test_bins_override_is_validated(self, synth_series, small_config,
                                        tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["run", "--config", str(small_config), "--series",
                     str(synth_series), "--out", str(out),
                     "--bins", "1", "--quiet"]) == 1
        assert "error: [config] bins out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_bins_exits_one(self, synth_series, small_config,
                                         tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["run", "--config", str(small_config), "--series",
                     str(synth_series), "--out", str(out),
                     "--bins", "9" * 400, "--quiet"]) == 1
        assert "error: [config] bins out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_bins_beyond_memory_exits_one_before_any_imputer(
            self, synth_series, small_config, tmp_path, capsys, monkeypatch):
        # 2**62 + 1 float64 edges would take 32 EiB once every imputer had run.
        def no_run(*args, **kwargs):
            pytest.fail("the run started with an unusable bins")

        monkeypatch.setattr("gapgauge.cli.run_evaluation", no_run)
        out = tmp_path / "x"
        assert main(["run", "--config", str(small_config), "--series",
                     str(synth_series), "--out", str(out),
                     "--bins", str(2**62), "--quiet"]) == 1
        assert "error: [config] bins" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_seed_exits_one(self, synth_series, small_config,
                                         tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["run", "--config", str(small_config), "--series",
                     str(synth_series), "--out", str(out),
                     "--seed", str(2**64), "--quiet"]) == 1
        assert "error: [config] seed out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_capacity_abort_exits_two(self, synth_series, tmp_path, capsys):
        doc = {"schema_version": 1, "n_gaps": 500,
               "gap_hours": {"min": 40, "max": 48},
               "imputers": [{"kind": "seasonal_naive"}]}
        config = tmp_path / "over.json"
        config.write_text(json.dumps(doc))
        code = main(["run", "--config", str(config), "--series",
                     str(synth_series), "--out", str(tmp_path / "x"),
                     "--quiet"])
        assert code == 2
        assert "aborted" in capsys.readouterr().err

    def test_parallel_run_matches_sequential(self, synth_series, small_config,
                                             tmp_path, capsys):
        out_seq, out_par = tmp_path / "seq", tmp_path / "par"
        assert main(["run", "--config", str(small_config), "--series",
                     str(synth_series), "--out", str(out_seq)]) == 0
        assert "--parallel" not in capsys.readouterr().err
        assert main(["run", "--config", str(small_config), "--series",
                     str(synth_series), "--out", str(out_par),
                     "--parallel", "4"]) == 0
        assert "note: --parallel is ignored; jobs run sequentially" in \
            capsys.readouterr().err
        for name in ("records.csv", "aggregates.csv"):
            assert (out_seq / name).read_bytes() == (out_par / name).read_bytes()


class TestAgree:
    def test_agree_recomputes_from_records(self, synth_series, small_config,
                                           tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config), "--series",
              str(synth_series), "--out", str(out), "--quiet"])
        report = json.loads((out / "report.json").read_text())
        code = main(["agree", "--records", str(out / "records.csv"),
                     "--out", str(out)])
        assert code == 0
        recomputed = json.loads((out / "agreement.json").read_text())
        assert recomputed == report["rank_agreement"]
        assert not [p for p in out.iterdir() if ".tmp-" in p.name]

    def test_agree_reads_a_failure_message_with_a_bare_carriage_return(self, tmp_path,
                                                                       monkeypatch, capsys):
        monkeypatch.setattr(imputers, "_REGISTRY", dict(imputers._REGISTRY))

        def split_line(masked, gap, params, seed):
            raise ContextError("line one\rline two")

        register_imputer("split_line", split_line)
        config = EvalConfig(imputers=[ImputerConfig("split_line"),
                                      ImputerConfig("polynomial", {"order": 1}),
                                      ImputerConfig("seasonal_naive", {"season": 24})],
                            n_gaps=4, min_len=2, max_len=8, seed=1)
        report = run_evaluation(synthesize_series("seasonal", 3000, {}, seed=2), config)
        emit_report(report, tmp_path)
        assert list(report.records.errors.values()) == ["context: line one\rline two"] * 4
        assert main(["agree", "--records", str(tmp_path / "records.csv"),
                     "--out", str(tmp_path / "agree")]) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "agree" / "agreement.json").read_text()) == \
            json.loads((tmp_path / "report.json").read_text())["rank_agreement"]
        assert read_records_csv(tmp_path / "records.csv").errors == report.records.errors

    def test_agree_single_imputer_exits_two(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text(
            "gap_id,imputer_id,gap_len,wd,jsd,rmse,mae,error\n"
            "g0,only,4,1.0,0.1,2.0,1.5,\n")
        assert main(["agree", "--records", str(records), "--quiet"]) == 2

    @pytest.mark.parametrize("rows, line", [
        (["g0,m,4,1.0,0.1,2.0,1.5,"] * 6, 3),  # one record repeated
        (["g0,m,4,1.0,0.1,2.0,1.5,", "g0,n,5,1.0,0.2,2.0,1.5,"], 3),  # two gap_len values
        (["g0,m,0,1.0,0.1,2.0,1.5,"], 2),
        (["g0,m,4,1.0,0.1,2.0,1.5,", "g1,m,-3,1.0,0.1,2.0,1.5,"], 3)])
    def test_agree_rejects_records_no_run_writes(self, tmp_path, capsys, rows, line):
        records = tmp_path / "records.csv"
        records.write_text("gap_id,imputer_id,gap_len,wd,jsd,rmse,mae,error\n"
                           + "".join(row + "\n" for row in rows))
        assert main(["agree", "--records", str(records), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [parse]") and f"line={line}" in err


def test_module_entry_point_reports_errors(tmp_path):
    src = str(Path(gapgauge.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "gapgauge", "agree", "--records",
         str(tmp_path / "missing.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
