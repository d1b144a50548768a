"""Configuration loading, round-trip, CSV schema and CLI behavior."""

import json
import math

import numpy as np
import pytest

from spinhall import (ParseError, RunConfig, ScanContext, ValidationError,
                      load_config, max_shift_vs_detuning, write_config)
import spinhall.cli as cli
import spinhall.config as config_module
from spinhall.cli import RECIPES, main, recipe_table
from spinhall.config import (OutputConfig, RunManifest, SweepConfig,
                             config_from_dict)
from spinhall.sweep import COLUMNS, SweepTable

GOLDEN_HEADER = ("theta_deg,detuning,eta,chi1,chi2,abs_rp,abs_rs,ratio_sp,"
                 "delta_plus_lambda,theta_minus,flags")


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == RunConfig()
        assert cfg.medium.amplitudes == (1.5, 3.0, 2.5, 0.9)
        assert cfg.stack.lam == pytest.approx(780e-9)
        assert cfg.beam.w0_lambdas == 50.0

    def test_negative_eta_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"medium": {"eta": -0.1}}))
        with pytest.raises(ValidationError, match="eta"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"medium": {"etaa": 0.1}}))
        with pytest.raises(ValidationError, match="etaa"):
            load_config(path)

    def test_malformed_json_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"medium": {')
        with pytest.raises(ParseError, match="line"):
            load_config(path)

    def test_lambda_preset_values(self):
        cfg = load_config(preset="fig3-lambda")
        assert cfg.medium.amplitudes == (0.5, 0.5, 0.7, 0.7)
        assert cfg.medium.phases[0] == pytest.approx(math.pi)
        assert cfg.medium.eta == 0.1
        medium, _, _ = cfg.build()
        assert abs(medium.couplings.alpha) < 1e-15
        assert medium.couplings.beta.real == pytest.approx(-0.7 / math.sqrt(0.98))

    def test_file_leaves_the_preset_unchanged(self, tmp_path):
        path = tmp_path / "override.json"
        path.write_text(json.dumps({"medium": {"eta": 0.01}}))
        load_config(path, preset="fig4-ntype")
        assert load_config(preset="fig4-ntype").medium.eta == 0.1

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match="unknown preset"):
            load_config(preset="fig9-zeta")

    def test_file_overrides_preset(self, tmp_path):
        path = tmp_path / "override.json"
        path.write_text(json.dumps({"medium": {"eta": 0.01}}))
        cfg = load_config(path, preset="fig3-lambda")
        assert cfg.medium.eta == 0.01
        assert cfg.medium.amplitudes == (0.5, 0.5, 0.7, 0.7)

    def test_round_trip(self, tmp_path):
        cfg = config_from_dict({
            "medium": {"eta": 0.05, "amplitudes": [1.0, 2.0, 0.5, 0.5]},
            "sweep": {"theta_deg": [31.0, 35.0, 11], "eta_list": [0.01, 0.1]},
            "output": {"out": "custom.csv", "manifest_header": True},
        })
        path = tmp_path / "cfg.json"
        write_config(cfg, path)
        assert load_config(path) == cfg

    def test_direct_couplings_route(self):
        cfg = config_from_dict({
            "medium": {"alpha": [0.8, 0.0], "beta": [0.0, 0.0], "omega_total": 0.0}})
        medium, _, _ = cfg.build()
        assert medium.couplings.alpha == 0.8
        assert medium.couplings.omega_total == 0.0

    def test_direct_couplings_must_be_complete(self):
        with pytest.raises(ValidationError, match="direct couplings"):
            config_from_dict({"medium": {"alpha": [0.8, 0.0]}}).build()


def run_cli(args, tmp_path, out="out.csv"):
    out_path = tmp_path / out
    code = main(list(args) + ["--out", str(out_path)])
    return code, out_path


class TestCli:
    def test_shift_single_row_positive(self, tmp_path, capsys):
        code, out = run_cli(["shift", "--preset", "fig2-ctl", "--theta", "30",
                             "--detuning", "0"], tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == GOLDEN_HEADER
        assert len(lines) == 2
        row = dict(zip(COLUMNS, lines[1].split(",")))
        assert float(row["delta_plus_lambda"]) > 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["row_count"] == 1
        assert manifest["flagged_count"] == 0
        assert manifest["tool"] == "spinhall"

    def test_brewster_command(self, tmp_path, capsys):
        code, _ = run_cli(["brewster", "--preset", "fig2-ctl", "--detuning", "0"],
                          tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        value = float(printed.split("=")[1].split("deg")[0])
        assert value == pytest.approx(33.69, abs=0.05)

    def test_windows_command(self, tmp_path, capsys):
        code, _ = run_cli(["windows", "--preset", "fig2-ctl"], tmp_path)
        assert code == 0
        assert "+0.0000" in capsys.readouterr().out

    def test_oracle_command(self, tmp_path, capsys):
        code, out = run_cli(["oracle", "--preset", "fig2-ctl", "--theta", "30"],
                            tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("theta_deg,detuning,delta_closed_lambda")
        rel = float(lines[1].split(",")[-1])
        assert rel < 0.05

    def test_sweep_with_config_and_threads(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "sweep": {"theta_deg": [33.0, 34.0, 5], "detuning": [-1.0, 1.0, 3]}}))
        code, out = run_cli(["sweep", "--preset", "fig3-lambda", "--config",
                             str(cfg_path), "--threads", "2"], tmp_path)
        assert code == 0
        assert len(out.read_text().splitlines()) == 16

    def test_grid_flag_overrides(self, tmp_path):
        code, out = run_cli(["shift", "--preset", "fig2-ctl", "--detuning", "0",
                             "--grid", "33,34,3"], tmp_path)
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"medium": {"eta": -1.0}}))
        code = main(["shift", "--config", str(cfg_path)])
        assert code == 2
        assert "eta" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["shift", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["shift", "--theta", "0"],
        ["sweep", "--grid", "0,10,3"],
        ["shift", "--theta", "95"],
        ["oracle", "--theta", "95"],
        ["oracle", "--theta", "0"],
        ["oracle", "--theta", "nan"],
    ])
    def test_angle_outside_domain_exits_2(self, args, tmp_path, capsys):
        code, out = run_cli(args + ["--preset", "fig2-ctl"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "(0, 90) degrees" in err
        assert list(tmp_path.iterdir()) == []  # no data file, no manifest

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_data_write_leaves_files_as_they_were(self, fmt, tmp_path,
                                                         monkeypatch, capsys):
        blocks = cli._blocks

        def fail_after_first(*args):
            yield next(blocks(*args))
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "WRITE_ROWS", 3)
        monkeypatch.setattr(cli, "_blocks", fail_after_first)
        args = ["shift", "--preset", "fig2-ctl", "--grid", "33,34,7",
                "--format", fmt]
        code, _ = run_cli(args, tmp_path)
        assert code == 2 and "No space left" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        previous = tmp_path / "out.csv"
        previous.write_text("previous\n")
        code, _ = run_cli(args, tmp_path)
        assert code == 2
        assert list(tmp_path.iterdir()) == [previous]
        assert previous.read_text() == "previous\n"

    @pytest.mark.parametrize("args", [["shift", "--theta", "30"],
                                      ["oracle", "--theta", "30"]])
    def test_failed_manifest_write_removes_data_file(self, args, tmp_path,
                                                     monkeypatch, capsys):
        def fail(self, data_path):
            raise OSError("Read-only file system")

        monkeypatch.setattr(RunManifest, "write", fail)
        code, _ = run_cli(args + ["--preset", "fig2-ctl"], tmp_path)
        assert code == 2 and "Read-only" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["shift", "--grid", "a,b,c"],
        ["sweep", "--grid", "33,34,1"],
        ["sweep", "--grid", "34,33,5"],
        ["shift", "--threads", "0"],
        ["shift", "--eta", "-1"],
        ["windows", "--eta", "nan"],
        ["shift", "--detuning", "nan"],
        ["brewster", "--detuning", "inf"],
    ])
    def test_malformed_input_exits_2(self, args, tmp_path, capsys):
        code, out = run_cli(args + ["--preset", "fig2-ctl"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["shift", "--theta", "30"],
        ["sweep", "--grid", "33,34,2"],
    ])
    def test_eta_zero_is_honoured(self, args, tmp_path):
        code, out = run_cli(args + ["--preset", "fig2-ctl", "--eta", "0"], tmp_path)
        assert code == 0
        rows = [dict(zip(COLUMNS, line.split(",")))
                for line in out.read_text().splitlines()[1:]]
        assert rows
        for row in rows:
            assert float(row["eta"]) == 0.0
            assert float(row["chi1"]) == 0.0 and float(row["chi2"]) == 0.0

    @pytest.mark.parametrize("text", [
        '{"medium": {"eta": true}}',
        '{"medium": {"eta": "0.1"}}',
        '{"medium": {"eta": null}}',
        '{"medium": {"eta": 1e400}}',
        '{"medium": {"gamma_b": NaN}}',
        '{"medium": {"amplitudes": [1.5, 3.0, Infinity, 0.9]}}',
        '{"medium": 0.1}',
        '{"stack": {"thickness_d": NaN}}',
        '{"beam": {"w0_lambdas": Infinity}}',
        '{"sweep": {"eta_list": [-1.0]}}',
        '{"sweep": {"eta_list": [0.1, false]}}',
        '{"sweep": {"theta_deg": [30, 38, 2.5]}}',
        '{"sweep": {"detuning": [-6, 6, true]}}',
        '{"output": {"manifest_header": "no"}}',
        '{"output": {"out": 5}}',
    ])
    def test_config_value_of_wrong_kind_exits_2(self, text, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _ = run_cli(["sweep", "--preset", "fig2-ctl", "--config",
                           str(cfg_path), "--grid", "33,34,2"], out_dir)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("args, config", [
        (["shift", "--grid", "30,38,1000000000"], None),
        (["sweep", "--grid", "30,38,10000"], None),  # x 601 detunings
        (["sweep"], {"theta_deg": [30, 38, 1000000000]}),
        (["susceptibility"], {"detuning": [-6, 6, 1000000000]}),
        (["sweep"], {"theta_deg": [30, 38, 3000], "detuning": [-6, 6, 1000],
                     "eta_list": [0.1, 0.2]}),
    ])
    def test_table_over_the_limit_exits_2(self, args, config, tmp_path,
                                          monkeypatch, capsys):
        def refuse(n):
            raise AssertionError(f"allocated an axis or table of {n} points")

        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", lambda lo, hi, n=50, **kw: (
            refuse(n) if n > 10**6 else linspace(lo, hi, n, **kw)))
        monkeypatch.setattr(SweepTable, "empty", classmethod(lambda cls, n: refuse(n)))
        if config is not None:
            (tmp_path / "big.json").write_text(json.dumps({"sweep": config}))
            args = args + ["--config", str(tmp_path / "big.json")]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _ = run_cli(args + ["--preset", "fig2-ctl"], out_dir)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exceeds the limit of 5000000" in err
        assert list(out_dir.iterdir()) == []

    def test_table_at_the_limit_is_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(config_module, "MAX_TABLE_POINTS", 12)
        small = tmp_path / "small.json"
        small.write_text(json.dumps({"sweep": {"theta_deg": [30, 38, 2],
                                               "detuning": [-1, 1, 2]}}))
        base = ["sweep", "--preset", "fig2-ctl", "--config", str(small), "--grid"]
        code, out = run_cli(base + ["33,34,6"], tmp_path)  # 6 angles x 2 detunings
        assert code == 0 and len(out.read_text().splitlines()) == 13
        code, _ = run_cli(base + ["33,34,7"], tmp_path)
        assert code == 2

    def test_flag_fraction_exits_3(self, tmp_path):
        # two theta points straddling the exact Brewster zero within float
        # resolution: both rows at detuning 0 are flagged, half of all rows
        theta_b = math.degrees(math.atan(1 / 1.5))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "sweep": {"theta_deg": [theta_b, theta_b + 1e-12, 2],
                      "detuning": [0.0, 1.0, 2]}}))
        code, out = run_cli(["sweep", "--preset", "fig2-ctl", "--config",
                             str(cfg_path)], tmp_path)
        assert code == 3
        text = out.read_text()
        assert "brewster_singularity" in text

    def test_manifest_header_option(self, tmp_path):
        code, out = run_cli(["shift", "--preset", "fig2-ctl", "--theta", "30",
                             "--detuning", "0", "--manifest-header"], tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == GOLDEN_HEADER

    def test_json_format(self, tmp_path):
        code, out = run_cli(["shift", "--preset", "fig2-ctl", "--theta", "30",
                             "--detuning", "0", "--format", "json"], tmp_path,
                            out="out.json")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == list(COLUMNS)
        assert len(payload["rows"]) == 1
        assert payload["manifest"]["row_count"] == 1

    def test_reproduce_fig4c(self, tmp_path):
        code, out = run_cli(["reproduce", "fig4c"], tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == GOLDEN_HEADER
        assert len(lines) == 101  # 2 angles x 50 densities

    def test_calls_in_one_process_share_no_state(self, tmp_path, monkeypatch,
                                                 capsys):
        # the parser is built once per process; each call parses afresh
        monkeypatch.chdir(tmp_path)
        assert cli.build_parser() is cli.build_parser()
        assert main(["reproduce", "fig4c"]) == 0
        assert main(["shift", "--preset", "fig2-ctl", "--theta", "30"]) == 0
        default = tmp_path / OutputConfig().out
        assert len((tmp_path / "fig4c.csv").read_text().splitlines()) == 101
        assert len(default.read_text().splitlines()) == 2
        with pytest.raises(SystemExit) as rejected:
            main(["shift", "--theta", "not-a-number"])
        assert rejected.value.code == 2
        with pytest.raises(SystemExit):
            main(["reproduce"])  # no target
        capsys.readouterr()
        assert main(["shift", "--preset", "fig3-lambda", "--out", "after.csv"]) == 0
        assert "delta_plus" in capsys.readouterr().out
        row = dict(zip(COLUMNS, (tmp_path / "after.csv").read_text()
                       .splitlines()[1].split(",")))
        assert float(row["theta_deg"]) == 33.69 and float(row["detuning"]) == 0.0
        assert float(row["eta"]) == load_config(preset="fig3-lambda").medium.eta

    def test_reproduce_unknown_target(self, tmp_path, capsys):
        code = main(["reproduce", "fig99x", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_reproduce_reflection_profile(self, tmp_path):
        code, out = run_cli(["reproduce", "fig2b"], tmp_path)
        assert code == 0
        assert len(out.read_text().splitlines()) == 802

    def test_reproduce_angular_maximum_curve(self, tmp_path):
        code, out = run_cli(["reproduce", "fig5b"], tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 42
        tilt = [float(l.split(",")[-2]) for l in lines[1:]]
        assert all(t > 0 for t in tilt)

    @pytest.mark.parametrize("target, rows", [("fig5b", 41), ("fig5d", 81)])
    def test_angular_maximum_rows_are_real(self, target, rows):
        preset, _, detunings, _ = RECIPES[target]
        cfg = load_config(preset=preset)
        table = recipe_table(target, cfg)
        assert len(table) == rows
        for col in COLUMNS[:-1]:
            assert not np.any(np.isnan(table.column(col))), col
        assert table.flagged_count == 0
        medium, stack, beam = cfg.build()
        _, curve = max_shift_vs_detuning("angular", detunings,
                                         ScanContext(medium, stack, beam))
        np.testing.assert_allclose(table.theta_minus, curve, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(table.detuning, detunings)
        assert np.all((table.theta_deg >= 30.0) & (table.theta_deg <= 38.0))

    def test_angular_subcommand(self, tmp_path):
        code, out = run_cli(["angular", "--preset", "fig3-lambda", "--theta", "34",
                             "--detuning", "0.1"], tmp_path)
        assert code == 0
        row = dict(zip(COLUMNS, out.read_text().splitlines()[1].split(",")))
        assert float(row["theta_minus"]) != 0.0

    def test_susceptibility_eta_override(self, tmp_path, capsys):
        code, _ = run_cli(["susceptibility", "--preset", "fig4-ntype",
                           "--eta", "0.2"], tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        chi_im = float(printed.splitlines()[0].split()[-1].rstrip("i"))
        assert chi_im == pytest.approx(0.2 * 49 / 37, rel=1e-6)

    def test_numeric_format_nine_digits_lowercase(self, tmp_path):
        _, out = run_cli(["shift", "--preset", "fig2-ctl", "--theta", "30",
                          "--detuning", "0"], tmp_path)
        row = out.read_text().splitlines()[1]
        first = row.split(",")[0]
        assert first == "3.00000000e+01"
        assert "E" not in row
