"""Configuration loading, round-trip, CSV schema and CLI behavior."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spinhall import (LayerStack, ParseError, RunConfig, ScanContext,
                      ValidationError, effective_couplings, extremal_angles,
                      find_brewster, load_config)
import spinhall.cli as cli
import spinhall.config as config_module
import spinhall.multilayer as multilayer
import spinhall.sweep as sweep_module
from spinhall.cli import RECIPES, main, recipe_table
from spinhall.config import (OutputConfig, RunManifest, SweepConfig,
                             config_from_dict)
from spinhall.sweep import COLUMNS, SweepTable

GOLDEN_HEADER = ("theta_deg,detuning,eta,chi1,chi2,abs_rp,abs_rs,ratio_sp,"
                 "delta_plus_lambda,theta_minus,flags")
# preset, then the oracle's data row: 3 presets x 3 angles away from the
# Brewster dip at detuning 0.5
GOLDEN_ORACLE = Path(__file__).with_name("golden_oracle.csv")

# positive finite values from 1e-300 to 1e300, their decades drawn often
FINITE_EXTREMES = (st.sampled_from([1e-300, 1e-150, 1e-20, 1e20, 1e150, 1e300])
                   | st.floats(1e-300, 1e300))


@st.composite
def config_dicts(draw):
    """A config object whose wavelength, waist, thickness, outer
    permittivities, density, decay rates and field amplitudes are each
    drawn from FINITE_EXTREMES or left to their defaults, over a 3 x 3
    sweep."""
    def maybe(block, key, strategy):
        if draw(st.booleans(), label=f"{block}.{key} set"):
            data[block][key] = draw(strategy, label=f"{block}.{key}")

    data = {"medium": {}, "stack": {}, "beam": {},
            "sweep": {"theta_deg": [30.0, 38.0, 3], "detuning": [-1.0, 1.0, 3]}}
    maybe("stack", "lam", FINITE_EXTREMES)
    maybe("stack", "thickness_d", FINITE_EXTREMES)
    for key in ("eps1", "eps3"):
        maybe("stack", key, st.tuples(FINITE_EXTREMES, st.just(0.0)).map(list))
    maybe("beam", "w0_lambdas", FINITE_EXTREMES)
    for key in ("eta", "gamma_b", "gamma_e"):
        maybe("medium", key, FINITE_EXTREMES)
    maybe("medium", "amplitudes", st.lists(FINITE_EXTREMES, min_size=4, max_size=4))
    return data


# the numeric flags each command reads; given a flag it does not read, a
# command exits 2
READ_FLAGS = {"susceptibility": ("theta", "detuning", "eta"),
              "shift": ("theta", "detuning", "eta", "grid"),
              "sweep": ("eta", "grid"),
              "brewster": ("detuning", "eta", "grid"),
              "windows": ("theta", "eta"),
              "oracle": ("theta", "detuning", "eta"),
              "reproduce": ()}
# not drawn: three unread flags that the benchmark's point queries pass,
# and that stay accepted and ignored until the benchmark drops them
# (brewster --theta, windows --detuning, and shift --grid --theta), and
# --threads, which has no effect and prints a note
IGNORED_FLAGS = {"brewster": ("theta",), "windows": ("detuning",)}
# a numeric flag value as a user types it: in range, or an extreme
FLAG_EXTREMES = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e300", "-1e300",
                                 "1e-300", "-1e-300", "0", "-1e-3", "-2.5E-1"])
FLAG_VALUES = {"theta": st.floats(0.5, 89.5).map(repr) | FLAG_EXTREMES,
               "detuning": st.floats(-6.0, 6.0).map(repr) | FLAG_EXTREMES,
               "eta": st.floats(0.0, 0.3).map(repr) | FLAG_EXTREMES}


@st.composite
def command_lines(draw):
    """(argv without --out, unread flags given): a command with numeric
    flags, each read or unread, and a grid of 2 to 4 angles in [0, 95]."""
    command = draw(st.sampled_from(sorted(READ_FLAGS)))
    flags = {}
    if draw(st.booleans(), label="grid"):
        lo, hi = sorted(draw(st.lists(st.floats(0.0, 95.0), min_size=2,
                                      max_size=2, unique=True)))
        flags["grid"] = f"{lo!r},{hi!r},{draw(st.integers(2, 4))}"
    skipped = IGNORED_FLAGS.get(command, ()) + (("theta",) if command == "shift"
                                                and flags else ())
    for flag in ("theta", "detuning", "eta"):
        if flag not in skipped and draw(st.booleans(), label=flag):
            flags[flag] = draw(FLAG_VALUES[flag], label=flag)
    argv = [command, *(["fig4c"] if command == "reproduce" else []), "--preset",
            draw(st.sampled_from(["fig2-ctl", "fig3-lambda", "fig4-ntype"])),
            "--format", draw(st.sampled_from(["csv", "json"]))]
    for flag, value in flags.items():
        argv += [f"--{flag}", value]
    return argv, [flag for flag in flags if flag not in READ_FLAGS[command]]


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

    @settings(max_examples=150, deadline=None)
    @given(data=config_dicts(), extra=st.data())
    def test_round_trip(self, data, extra, tmp_path_factory):
        """``load_config`` reads back the config echo of a run manifest as
        the same config, for any config that validates, every field drawn
        or left to its default."""
        draw = extra.draw
        axis = st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2,
                        unique=True).map(sorted)
        for name in ("theta_deg", "detuning"):
            if draw(st.booleans(), label=name):
                lo, hi = draw(axis, label=name)
                data["sweep"][name] = [lo, hi, draw(st.integers(2, 50))]
        data["sweep"]["eta_list"] = draw(st.none() | st.lists(
            FINITE_EXTREMES, min_size=1, max_size=3), label="eta_list")
        data["medium"]["phases"] = draw(st.lists(
            st.floats(-1e300, 1e300), min_size=4, max_size=4), label="phases")
        if draw(st.booleans(), label="direct couplings"):
            pair = st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=2)
            data["medium"].update(alpha=draw(pair), beta=draw(pair),
                                  omega_total=draw(st.floats(0.0, 1e150)))
        data["stack"]["eps1"] = draw(st.lists(FINITE_EXTREMES, min_size=2,
                                              max_size=2), label="eps1")
        # any text, made a file name: a NUL byte or a path that names no
        # file is refused at load
        out = st.text().map(lambda text: text.replace("\0", "") + ".csv")
        data["output"] = {"out": draw(out, label="out"),
                          "format": draw(st.sampled_from(["csv", "json"])),
                          "manifest_header": draw(st.booleans())}
        try:
            cfg = config_from_dict(data)
        except ValidationError:
            assume(False)
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        echo = json.loads(RunManifest.for_run(["shift"], cfg, 0, 0).to_json())["config"]
        path.write_text(json.dumps(echo), encoding="utf-8")
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
        text = (tmp_path / "out.csv.manifest.json").read_text()
        manifest = json.loads(text)
        assert manifest["row_count"] == 1
        assert manifest["flagged_count"] == 0
        assert manifest["flag_counts"] == {"brewster_singularity": 0,
                                           "resonant_denominator": 0}
        assert manifest["tool"] == "spinhall"
        # every field, serialised as dataclasses.asdict would give it
        assert text == json.dumps(dataclasses.asdict(RunManifest(**manifest)),
                                  indent=2, sort_keys=True) + "\n"

    def test_brewster_command(self, tmp_path, capsys):
        code, _ = run_cli(["brewster", "--preset", "fig2-ctl", "--detuning", "0"],
                          tmp_path)
        assert code == 0
        printed = capsys.readouterr().out
        value = float(printed.split("=")[1].split("deg")[0])
        assert value == pytest.approx(33.69, abs=0.05)

    def test_windows_command(self, tmp_path, capsys):
        # a config range whose squared ends overflow finds the default windows
        cfg_path = tmp_path / "range.json"
        cfg_path.write_text(json.dumps({"sweep": {"detuning": [-1e300, 1e300, 601]}}))
        for extra in ([], ["--config", str(cfg_path)]):
            code, _ = run_cli(["windows", "--preset", "fig2-ctl", *extra], tmp_path)
            assert code == 0
            assert ("transparency windows (gamma): -2.6423 +0.0000 +2.6423\n"
                    in capsys.readouterr().out)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_window_writes_a_header_only_table(self, fmt, tmp_path, capsys):
        # with no window found there is no row: none at detuning 0, which
        # would read as a window at resonance
        code, out = run_cli(["windows", "--preset", "fig2-ctl", "--eta", "0",
                             "--format", fmt], tmp_path, out=f"out.{fmt}")
        assert code == 0
        assert "transparency windows (gamma): none" in capsys.readouterr().out
        if fmt == "csv":
            assert out.read_text() == GOLDEN_HEADER + "\n"
        else:
            payload = json.loads(out.read_text())
            assert payload["rows"] == [] and payload["manifest"]["row_count"] == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["row_count"] == 0 and manifest["flagged_count"] == 0

    def test_windows_loads_no_numpy_polynomial(self, tmp_path):
        # the window finder uses the np.roots family numpy already loads;
        # numpy.polynomial would add milliseconds to every fresh process,
        # and a CSV-only run never compiles the JSON number tables
        out = str(tmp_path / "w.csv")
        script = ("import sys; from spinhall.cli import main; "
                  f"main(['windows', '--preset', 'fig4-ntype', '--out', {out!r}]); "
                  "print('numpy.polynomial' in sys.modules, "
                  "'spinhall.jsontext' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "False False"

    def test_oracle_command(self, tmp_path, capsys):
        code, out = run_cli(["oracle", "--preset", "fig2-ctl", "--theta", "30"],
                            tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("theta_deg,detuning,delta_closed_lambda")
        rel = float(lines[1].split(",")[-1])
        assert rel < 0.05
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["flagged_count"] == 0
        assert manifest["flag_counts"] == {"brewster_singularity": 0,
                                           "resonant_denominator": 0}

    @pytest.mark.parametrize("line", GOLDEN_ORACLE.read_text().splitlines())
    def test_oracle_rows_match_golden(self, line, tmp_path, capsys):
        preset, row = line.split(",", 1)
        theta, detuning = row.split(",")[:2]
        code, out = run_cli(["oracle", "--preset", preset, "--theta",
                             repr(float(theta)), "--detuning",
                             repr(float(detuning))], tmp_path)
        assert code == 0
        assert out.read_text().splitlines()[1:] == [row]

    def test_oracle_below_the_brewster_floor(self, tmp_path, capsys):
        # |rp| = 9.3e-13 at the Brewster angle of the resonant (eps2 = 1)
        # cavity: the truncated shift is NaN, the full first order finite;
        # the row is flagged as a table row is, and exits 3 as `shift` does
        code, out = run_cli(["oracle", "--preset", "fig2-ctl", "--theta",
                             "33.690067526"], tmp_path)
        assert code == 3
        assert out.read_text().splitlines()[1:] == [
            "3.36900675e+01,0.00000000e+00,nan,-2.72888238e-09,2.72888238e-09,nan"]
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["flagged_count"] == 1
        assert manifest["flag_counts"] == {"brewster_singularity": 1,
                                           "resonant_denominator": 0}
        code, _ = run_cli(["shift", "--preset", "fig2-ctl", "--theta",
                           "33.690067526"], tmp_path, out="shift.csv")
        assert code == 3

    def test_brewster_grid_sets_the_coarse_scan(self, tmp_path, capsys):
        medium, stack, beam = load_config(preset="fig2-ctl").build()
        ctx = ScanContext(medium, stack, beam, delta_p=0.0)
        written = []
        for n in (5, 2001):
            code, out = run_cli(["brewster", "--preset", "fig2-ctl", "--grid",
                                 f"30,38,{n}"], tmp_path, out=f"b{n}.csv")
            assert code == 0
            row = dict(zip(COLUMNS, out.read_text().splitlines()[1].split(",")))
            want = find_brewster((30.0, 38.0), ctx, coarse=n)
            assert row["theta_deg"] == cli.CSV_FLOAT % want
            written.append(row["theta_deg"])
        assert written[0] != written[1]

    def test_brewster_two_point_grid_exits_2(self, tmp_path, capsys):
        code, out = run_cli(["brewster", "--preset", "fig2-ctl", "--grid",
                             "30,38,2"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "no interior minimum" in err
        assert not out.exists()

    def test_sweep_with_config_and_threads(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "sweep": {"theta_deg": [33.0, 34.0, 5], "detuning": [-1.0, 1.0, 3]}}))
        args = ["sweep", "--preset", "fig3-lambda", "--config", str(cfg_path)]
        code, out = run_cli(args + ["--threads", "2"], tmp_path)
        assert code == 0
        assert capsys.readouterr().err == (
            "note: --threads has no effect; tables are evaluated on one thread\n")
        assert len(out.read_text().splitlines()) == 16
        code, plain = run_cli(args, tmp_path, "plain.csv")
        assert code == 0 and capsys.readouterr().err == ""
        assert out.read_bytes() == plain.read_bytes()

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
        ["windows", "--theta", "nan"],
        ["shift", "--theta", "-1e1"],
        ["brewster", "--grid", "0,67,3"],
        ["brewster", "--grid", "30,90,5"],
    ])
    def test_angle_outside_domain_exits_2(self, args, tmp_path, capsys):
        code, out = run_cli(args + ["--preset", "fig2-ctl"], tmp_path)
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "(0, 90) degrees" in err
        assert captured.out == ""  # checked before any command prints
        assert list(tmp_path.iterdir()) == []  # no data file, no manifest

    def test_oracle_evaluates_the_stack_once(self, tmp_path, monkeypatch, capsys):
        # the closed form and the moment share one (rp, rs) and one rp'
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for module in (multilayer, sweep_module):
            monkeypatch.setattr(module, "_amplitudes",
                                counted("amplitudes", module._amplitudes))
        monkeypatch.setattr(multilayer, "stack_reflection_derivative",
                            counted("derivative",
                                    multilayer.stack_reflection_derivative))
        code, _ = run_cli(["oracle", "--preset", "fig2-ctl", "--theta", "30"],
                          tmp_path)
        assert code == 0
        assert sorted(calls) == ["amplitudes", "derivative"]

    def test_oracle_on_a_resonant_stack_exits_2(self, tmp_path, monkeypatch, capsys):
        # layer 2 of vanishing gain matched to layer 3: rp, rs not finite
        monkeypatch.setattr(ScanContext, "stack_at", lambda self: LayerStack(
            eps2=1 - 5e-324j, eps3=1 + 0j))
        code, _ = run_cli(["oracle", "--preset", "fig2-ctl"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("line", GOLDEN_ORACLE.read_text().splitlines())
    def test_oracle_closed_form_is_the_table_value(self, line, tmp_path, capsys):
        preset, theta, detuning = line.split(",")[:3]
        point = ["--preset", preset, "--theta", repr(float(theta)),
                 "--detuning", repr(float(detuning))]
        code, oracle = run_cli(["oracle", *point], tmp_path, "oracle.csv")
        assert code == 0
        code, shift = run_cli(["shift", *point], tmp_path, "shift.csv")
        assert code == 0
        row = dict(zip(COLUMNS, shift.read_text().splitlines()[1].split(",")))
        closed = dict(zip(cli.ORACLE_COLUMNS,
                          oracle.read_text().splitlines()[1].split(",")))
        assert closed["delta_closed_lambda"] == row["delta_plus_lambda"]

    @pytest.mark.parametrize("theta", ["8e-17", "1e-12", "1e-323"])
    def test_near_normal_incidence_shifts_vanish(self, theta, tmp_path, capsys):
        # 1 + rs/rp is rounding only here, and 1e-323 degrees is 0.0 in
        # radians: both commands exit 0 with shifts of at most 1e-6 lambda
        code, shift = run_cli(["shift", "--preset", "fig2-ctl", "--theta", theta],
                              tmp_path, "shift.csv")
        assert code == 0
        row = dict(zip(COLUMNS, shift.read_text().splitlines()[1].split(",")))
        code, oracle = run_cli(["oracle", "--preset", "fig2-ctl", "--theta", theta],
                               tmp_path, "oracle.csv")
        assert code == 0
        values = oracle.read_text().splitlines()[1].split(",")[2:5]
        for value in [row["delta_plus_lambda"], *values]:
            assert abs(float(value)) < 1e-6
        if theta == "1e-323":
            assert [float(v) for v in values] == [0.0, 0.0, 0.0]

    def test_small_angle_shift_is_kept(self, tmp_path, capsys):
        # at 1e-3 degrees 1 + rs/rp is far above its rounding
        code, shift = run_cli(["shift", "--preset", "fig2-ctl", "--theta", "1e-3"],
                              tmp_path)
        assert code == 0
        assert "delta_plus = 6.011759e-06 lambda" in capsys.readouterr().out
        row = dict(zip(COLUMNS, shift.read_text().splitlines()[1].split(",")))
        assert row["delta_plus_lambda"] == "6.01175916e-06"

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
        ["brewster", "--detuning", "-inf"],
        ["shift", "--eta", "-1e-3"],
        # the coherence ratio overflows
        ["shift", "--detuning", "1e300"],
        ["oracle", "--detuning", "1e150"],
        ["susceptibility", "--detuning", "-1e300"],
        # flags the command does not read
        ["reproduce", "fig2a", "--eta", "0.5"],
        ["reproduce", "fig2a", "--grid", "30,31,3"],
        ["susceptibility", "--grid", "30,31,3"],
        ["windows", "--grid", "30,31,5"],
        ["oracle", "--grid", "1,2,3"],
        ["reproduce", "fig2a", "--theta", "40"],
        ["reproduce", "fig2a", "--detuning", "3"],
        ["sweep", "--theta", "40"],
        ["sweep", "--detuning", "0.5"],
    ])
    def test_malformed_input_exits_2(self, args, tmp_path, capsys):
        code, out = run_cli(args + ["--preset", "fig2-ctl"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E-1"])
    def test_negative_value_in_scientific_notation_after_a_space(self, value,
                                                                 tmp_path):
        # argparse on its own takes "-1e-3" after a space for an option
        args = ["shift", "--preset", "fig2-ctl"]
        code, spaced = run_cli(args + ["--detuning", value], tmp_path, "spaced.csv")
        assert code == 0
        code, joined = run_cli(args + [f"--detuning={value}"], tmp_path, "joined.csv")
        assert code == 0
        assert spaced.read_bytes() == joined.read_bytes()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_window_polynomial_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps({"medium": {"amplitudes": [1e150] * 4}}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _ = run_cli(["windows", "--config", str(cfg_path)], out_dir)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "overflows" in captured.err
        assert list(out_dir.iterdir()) == []

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
        '{"medium": {"amplitudes": [1.5, -0.1, 2.5, 0.9]}}',
        '{"medium": {"amplitudes": [NaN, 3.0, 2.5, 0.9]}}',
        '{"medium": {"phases": [0.0, NaN, 0.0, 0.0]}}',
        '{"medium": {"phases": [0.0, 0.0, -Infinity, 0.0]}}',
        '{"medium": {"phases": [0.0, 0.0, 1e400, 0.0]}}',
        '{"medium": 0.1}',
        '{"stack": {"thickness_d": NaN}}',
        '{"beam": {"w0_lambdas": Infinity}}',
        '{"sweep": {"eta_list": [-1.0]}}',
        '{"sweep": {"eta_list": [0.1, false]}}',
        '{"sweep": {"eta_list": []}}',
        '{"sweep": {"theta_deg": [30, 38, 2.5]}}',
        '{"sweep": {"detuning": [-6, 6, true]}}',
        '{"output": {"manifest_header": "no"}}',
        '{"output": {"out": 5}}',
        '{"output": {"out": ""}}',
        '{"output": {"out": "."}}',
        '{"output": {"out": "a\\u0000b.csv"}}',
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

    @pytest.mark.parametrize("key", ["theta_deg", "detuning"])
    def test_range_of_infinite_span_exits_2(self, key, tmp_path, capsys):
        # both ends are finite, but max - min overflows: np.linspace would
        # make NaN axis values of it
        assert config_from_dict({"sweep": {key: [-8e307, 8e307, 3]}})
        cfg_path = tmp_path / "span.json"
        cfg_path.write_text(json.dumps({"sweep": {key: [-1e308, 1e308, 3]}}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _ = run_cli(["sweep", "--config", str(cfg_path)], out_dir)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and f"sweep.{key}" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", [["shift"], ["windows"], ["oracle"],
                                         ["susceptibility"], ["reproduce", "fig4c"]])
    @pytest.mark.parametrize("config", [
        {"stack": {"lam": 1e-300}},  # k0 squared overflows
        {"stack": {"lam": 1e300}},  # so does w0 = 50 lam
        {"beam": {"w0_lambdas": 1e300}},
        {"beam": {"w0_lambdas": 1e160}},  # (k1 w0) squared
        {"medium": {"amplitudes": [1.0, 1.0, 1e300, 1.0]}},  # Omega squared
        {"medium": {"alpha": [1e300, 0.0], "beta": [0.0, 0.0], "omega_total": 1.0}},
        {"stack": {"eps1": [1e300, 0.0]}},  # k0^2 eps1
        {"stack": {"eps3": [1e300, 0.0]}},  # k0^2 eps3
        {"stack": {"eps3": [2.25, 1e300]}},
    ])
    def test_config_value_whose_square_overflows_exits_2(self, command, config,
                                                         tmp_path, capsys):
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _ = run_cli(command + ["--config", str(cfg_path)], out_dir)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", [["shift"], ["sweep"], ["susceptibility"]])
    def test_overflowing_susceptibility_exits_2(self, command, tmp_path, capsys):
        # at resonance chi = eta * 2i/gamma_b = 2e320i: not a flagged row
        cfg_path = tmp_path / "dense.json"
        cfg_path.write_text(json.dumps({"medium": {
            "eta": 1e20, "gamma_b": 1e-300, "amplitudes": [1e-300] * 4}}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _ = run_cli(command + ["--config", str(cfg_path)], out_dir)
        assert code == 2
        assert capsys.readouterr().err == "error: susceptibility is not finite at delta_p=0.0\n"
        assert list(out_dir.iterdir()) == []

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_bytes(b"\xff\xfe{}")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _ = run_cli(["shift", "--config", str(cfg_path)], out_dir)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {cfg_path}: not UTF-8")
        assert list(out_dir.iterdir()) == []

    def test_unknown_preset_exits_2_with_its_message(self, tmp_path, capsys):
        code, out = run_cli(["shift", "--preset", "nope"], tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "error: unknown preset 'nope'; available: "
            "['fig2-ctl', 'fig3-lambda', 'fig4-ntype']\n")

    @settings(max_examples=200, deadline=None)
    @given(data=config_dicts(), fmt=st.sampled_from(["csv", "json"]),
           command=st.sampled_from([["susceptibility"], ["shift"], ["sweep"],
                                    ["brewster"], ["windows"], ["oracle"],
                                    ["reproduce", "fig4c"], ["reproduce", "fig5b"]]))
    # k0^2 eps1 and k0^2 eps3 overflow
    @example(data={"stack": {"eps1": [1e300, 0.0]}}, fmt="csv", command=["shift"])
    @example(data={"stack": {"eps3": [1e300, 0.0]}}, fmt="csv", command=["shift"])
    # eta times the resonant ratio 2i/gamma_b overflows
    @example(data={"medium": {"eta": 1e20, "gamma_b": 1e-300, "amplitudes": [1e-300] * 4},
                   "sweep": {"theta_deg": [30.0, 38.0, 3], "detuning": [-1.0, 1.0, 3]}},
             fmt="csv", command=["susceptibility"])
    def test_any_config_exits_with_both_files_or_neither(self, data, fmt, command,
                                                         tmp_path_factory):
        """Every command under any config with finite values raises nothing
        and warns nothing: it exits 0 or 3 with the data file and its
        manifest, or 2 with neither."""
        out_dir = tmp_path_factory.mktemp("run")
        cfg_path = out_dir / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        out = out_dir / f"out.{fmt}"
        code = main(command + ["--config", str(cfg_path), "--format", fmt,
                               "--out", str(out)])
        written = {out.exists(), Path(f"{out}.manifest.json").exists()}
        assert (code, written) in [(0, {True}), (3, {True}), (2, {False})]

    @settings(max_examples=100, deadline=None)
    @given(line=command_lines())
    # toward normal incidence the shifts overflowed on their way to 0
    @example(line=(["shift", "--preset", "fig2-ctl", "--theta", "1e-200"], []))
    @example(line=(["oracle", "--preset", "fig2-ctl", "--theta", "1e-200"], []))
    # 0.0 in radians, a positive angle in degrees
    @example(line=(["oracle", "--preset", "fig2-ctl", "--theta", "1e-323"], []))
    # a grid from 0 degrees
    @example(line=(["brewster", "--preset", "fig2-ctl", "--grid", "0,67,3"], []))
    def test_any_flags_exit_with_both_files_or_one_error_line(self, line,
                                                             tmp_path_factory):
        """Every command under any numeric flag values exits 0 or 3 with
        the data file and its manifest and nothing on stderr, or 2 with one
        error line, nothing on stdout and no file; a flag the command does
        not read exits 2.  No numpy warning is raised."""
        argv, unread = line
        out_dir = tmp_path_factory.mktemp("flags")
        out = out_dir / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv + ["--out", str(out)])
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
        err = stderr.getvalue()
        files = sorted(p.name for p in out_dir.iterdir())
        if code in (0, 3) and not unread:
            assert files == ["out", "out.manifest.json"] and err == ""
        else:
            assert code == 2, err
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert stdout.getvalue() == "" and files == []

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
        monkeypatch.setattr(SweepTable, "empty",
                            classmethod(lambda cls, n, *axes: refuse(n)))
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

    @pytest.mark.parametrize("args, config", [
        (["--format", "json", "--manifest-header"], None),
        (["--format", "json"], {"output": {"manifest_header": True}}),
        (["--manifest-header"], {"output": {"format": "json"}}),
        ([], {"output": {"format": "json", "manifest_header": True}}),
    ])
    def test_manifest_header_with_json_exits_2(self, args, config, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            args = args + ["--config", "run.json"]
        monkeypatch.setattr(cli, "evaluate", None)  # checked before evaluation
        assert main(["reproduce", "fig2d", "--out", "out.json"] + args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "--manifest-header" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["run.json"] if config else [])

    @pytest.mark.parametrize("args, config, name", [
        ([], None, "fig4c.csv"),
        (["--format", "json"], None, "fig4c.json"),
        (["--format", "csv"], {"output": {"format": "json"}}, "fig4c.csv"),
        ([], {"output": {"format": "json"}}, "fig4c.json"),
    ])
    def test_reproduce_default_name_follows_format(self, args, config, name,
                                                   tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            args = args + ["--config", "run.json"]
        assert main(["reproduce", "fig4c"] + args) == 0
        data = (tmp_path / name).read_text()
        assert data.startswith("{") == name.endswith(".json")
        assert (tmp_path / f"{name}.manifest.json").exists()
        written = {p.name for p in tmp_path.iterdir()} - {"run.json"}
        assert written == {name, f"{name}.manifest.json"}

    @pytest.mark.parametrize("preset", [None, "fig3-lambda"])
    def test_reproduce_config_layers_over_the_preset(self, preset, tmp_path):
        # defaults < preset < file, the preset the target's unless --preset
        cfg_path = tmp_path / "eta.json"
        cfg_path.write_text(json.dumps({"medium": {"eta": 0.05}}))
        args = ["reproduce", "fig4a", "--config", str(cfg_path)]
        code, out = run_cli(args + ([] if preset is None else ["--preset", preset]),
                            tmp_path)
        assert code == 0
        medium = json.loads(Path(f"{out}.manifest.json").read_text())["config"]["medium"]
        want = load_config(preset=preset or "fig4-ntype").medium
        assert medium["amplitudes"] == list(want.amplitudes)
        assert medium["phases"] == list(want.phases) and medium["eta"] == 0.05
        etas = {line.split(",")[COLUMNS.index("eta")]
                for line in out.read_text().splitlines()[1:]}
        assert etas == {"5.00000000e-02"}

    @pytest.mark.parametrize("command", [["shift"], ["reproduce", "fig4c"]])
    @pytest.mark.parametrize("out, config", [
        (".", None), ("", None), ("..", None), ("sub/..", None), ("sub/", None),
        ("a\0b.csv", None),
        (None, {"out": ""}), (None, {"out": "."}), (None, {"out": "a\0b.csv"}),
    ])
    def test_output_path_naming_no_file_exits_2(self, command, out, config,
                                                tmp_path, monkeypatch, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        monkeypatch.setattr(cli, "evaluate", None)  # checked before evaluation
        argv = command if out is None else command + ["--out", out]
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps({"output": config}))
            argv = argv + ["--config", str(tmp_path / "run.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "must name a file" in err
        assert list(run_dir.iterdir()) == []

    def test_reproduce_fig4c(self, tmp_path):
        code, out = run_cli(["reproduce", "fig4c"], tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == GOLDEN_HEADER
        assert len(lines) == 101  # 2 angles x 50 densities

    def test_reproduce_fig4c_fills_one_chunk(self, tmp_path, monkeypatch):
        # its 50 etas x 1 detuning x 2 angles are one chunk of the flat
        # (eta, detuning) axis, not one chunk per eta
        fill, blocks = sweep_module._fill_block, []

        def spy(table, start, thetas_deg, detunings, *rest):
            blocks.append(len(detunings))
            fill(table, start, thetas_deg, detunings, *rest)

        monkeypatch.setattr(sweep_module, "_fill_block", spy)
        code, _ = run_cli(["reproduce", "fig4c"], tmp_path)
        assert code == 0 and blocks == [50]

    def test_reproduce_fig4c_forms_chi_in_one_call(self, tmp_path, monkeypatch):
        # one susceptibility call for the chunk's 50 densities, not one per eta
        susceptibility, calls = sweep_module.susceptibility, []

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return susceptibility(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "susceptibility", spy)
        code, _ = run_cli(["reproduce", "fig4c"], tmp_path)
        assert code == 0 and calls == [50]

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
        curve = extremal_angles("angular", detunings, ScanContext(medium, stack, beam))[1]
        np.testing.assert_allclose(table.theta_minus, curve, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(table.detuning, detunings)
        assert np.all((table.theta_deg >= 30.0) & (table.theta_deg <= 38.0))

    def test_angular_subcommand(self, tmp_path):
        # the angular tilt is the theta_minus column of `shift`; there is
        # no separate `angular` command
        code, out = run_cli(["shift", "--preset", "fig3-lambda", "--theta", "34",
                             "--detuning", "0.1"], tmp_path)
        assert code == 0
        row = dict(zip(COLUMNS, out.read_text().splitlines()[1].split(",")))
        assert float(row["theta_minus"]) != 0.0
        with pytest.raises(SystemExit) as rejected:
            main(["angular", "--theta", "34"])
        assert rejected.value.code == 2

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


class TestOneProcess:
    """A process keeps each validated config, its built domain objects and
    its manifest echo, keyed by preset and file text.  None of that reuse
    may show in what a command reads, refuses or writes."""

    SHIFT = ["shift", "--preset", "fig3-lambda", "--theta", "34", "--detuning", "0.3"]

    def test_load_and_build_return_the_kept_objects(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"medium": {"eta": 0.07}}))
        cfg = load_config(path, preset="fig2-ctl")
        assert load_config(path, preset="fig2-ctl") is cfg
        assert load_config(preset="fig2-ctl") is not cfg
        assert cfg.build() is cfg.build()
        echo = cfg.to_dict()
        assert echo == dataclasses.asdict(cfg) and echo is not cfg.to_dict()
        echo["medium"]["eta"] = 1.0  # a caller's copy, not the kept one
        assert cfg.to_dict()["medium"]["eta"] == 0.07

    def test_rewritten_config_is_read_again(self, tmp_path):
        path = tmp_path / "cfg.json"
        rows, echoes = [], []
        for eta in (0.05, 0.2):
            path.write_text(json.dumps({"medium": {"eta": eta}}))
            code, out = run_cli(["shift", "--preset", "fig2-ctl", "--detuning",
                                 "0.5", "--config", str(path)], tmp_path)
            assert code == 0
            rows.append(dict(zip(COLUMNS, out.read_text().splitlines()[1].split(","))))
            echoes.append(json.loads(Path(f"{out}.manifest.json").read_text())["config"])
        assert [float(row["eta"]) for row in rows] == [0.05, 0.2]
        assert rows[0]["chi2"] != rows[1]["chi2"]
        assert rows[0]["delta_plus_lambda"] != rows[1]["delta_plus_lambda"]
        assert [echo["medium"]["eta"] for echo in echoes] == [0.05, 0.2]

    def test_refused_config_is_refused_again(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"medium": {"eta": -1.0}}))
        broken = [tmp_path / "broken1.json", tmp_path / "broken2.json"]
        for path in broken:
            path.write_text('{"medium": {')
        for path in (bad, bad, *broken, *broken):
            code, out = run_cli(["shift", "--config", str(path)], tmp_path)
            assert code == 2 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 6 and err[0] == err[1] and "eta" in err[0]
        # the key is the file text, but a message names the file it read
        assert [line.split(":")[1].strip() for line in err[2:]] == [
            str(path) for path in broken * 2]
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"medium": {"eta": 0.05}}))
        code, out = run_cli(["shift", "--config", str(good)], tmp_path)
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_command_writes_the_same_bytes(self, fmt, tmp_path):
        runs = []
        for _ in range(2):
            code, out = run_cli(self.SHIFT + ["--format", fmt], tmp_path,
                                out=f"out.{fmt}")
            assert code == 0
            data = out.read_bytes()
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            if fmt == "json":  # the file carries its manifest, timestamp included
                assert json.loads(data)["manifest"] == manifest
                data = data[:data.rfind(b',\n  "manifest": ')]
            manifest.pop("timestamp_utc")
            runs.append((data, manifest))
        assert runs[0] == runs[1]

    def test_one_couplings_solve_per_config(self, tmp_path, monkeypatch):
        config_module._config_of.cache_clear()
        solved = []

        def spy(amplitudes, phases):
            solved.append((amplitudes, phases))
            return effective_couplings(amplitudes, phases)

        monkeypatch.setattr(config_module, "effective_couplings", spy)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"medium": {"amplitudes": [1.0, 2.0, 2.0, 1.0]}}))
        commands = [
            ["shift", "--preset", "fig2-ctl", "--theta", "31"],
            ["shift", "--preset", "fig2-ctl", "--theta", "36", "--eta", "0.2"],
            ["windows", "--preset", "fig2-ctl"],
            ["oracle", "--preset", "fig2-ctl", "--detuning", "0.5"],
            ["brewster", "--preset", "fig3-lambda", "--detuning", "0.3"],
            ["susceptibility", "--preset", "fig3-lambda", "--detuning", "0.3"],
            ["shift", "--config", str(path)],
            ["sweep", "--config", str(path), "--grid", "33,34,3"],
            ["reproduce", "fig4c"],  # fig4-ntype
            ["reproduce", "fig5b"],  # fig3-lambda
        ]
        for argv in commands * 2:
            assert main(argv + ["--out", "out.csv"]) == 0
        # fig2-ctl, fig3-lambda, the file, fig4-ntype
        assert len(solved) == 4
