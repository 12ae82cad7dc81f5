import csv
import json

import pytest

from nemsim import amp, cli, mech
from nemsim.cli import main
from nemsim.scenario import parse_scenario
from test_scenario import CUSTOM_HIGH_GAIN

REFERENCE_SETUP = """\
device.preset = "large"
amp.vdc_V = 10
amp.fclk_hz = 100e3
stimulus.kind = dc
stimulus.amplitude_V = 10e-3
run.n_periods = 6
"""


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    return json.loads(path.read_text())


class TestDeviceReport:
    def test_large_passes_reference(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["device-report", "--preset", "large", "--out-dir", str(tmp_path)], capsys)
        assert code == 0 and err == ""
        doc = read_json(tmp_path / "summary.json")
        assert doc["reference_pass"] is True
        assert abs(doc["max_gain"] - 39.0) < 1e-6

    def test_lv_low_gain(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["device-report", "--preset", "lv-low-gain", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        doc = read_json(tmp_path / "summary.json")
        assert abs(doc["max_gain"] - 20.0) < 1e-6
        assert doc["reference_pass"] is True

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["device-report", "--preset", "huge", "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "config-error"
        assert list(tmp_path.iterdir()) == []

    def test_missing_device_section(self, tmp_path, capsys):
        code, _, err = run_cli(["device-report", "--out-dir", str(tmp_path)], capsys)
        assert code == 1 and "missing device section" in err


class TestAmplify:
    def test_reference_gain(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(REFERENCE_SETUP)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            ["amplify", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 0
        doc = read_json(out_dir / "summary.json")
        assert abs(doc["gain_dc"] - 38.99) / 38.99 < 5e-3
        assert (out_dir / "waveforms.csv").read_text().startswith("t_s,phase,vA_V,vB_V")

    def test_islands_flag(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(REFERENCE_SETUP)
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            ["amplify", "--config", str(cfg), "--out-dir", str(out_dir), "--islands"],
            capsys)
        assert code == 0
        assert (out_dir / "islands.csv").read_text().startswith("t_s,island_id,q_C,v_V")

    def test_solver_error_leaves_no_files(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text('device.preset = "large"\namp.vdc_V = 12\n'
                       "stimulus.amplitude_V = 0.7\n")
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            ["amplify", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "solver-error"
        assert not out_dir.exists()

    def test_sine_beyond_dc_range_reports_no_reference(self, tmp_path, capsys):
        # 0.8 V peaks exceed the large preset's 0.63 V release clamp
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text('device.preset = "large"\nstimulus.kind = sine\n'
                       "stimulus.amplitude_V = 0.8\nstimulus.freq_hz = 10e3\nrun.n_periods = 1\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["amplify", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 0 and err == ""
        doc = read_json(out_dir / "summary.json")
        assert doc["gain_dc"] is None and doc["vout_V"] is None
        assert json.loads(out) == doc
        assert len((out_dir / "waveforms.csv").read_text().splitlines()) == 1 + 2 * 40
        code, out, _ = run_cli(["amplify", "--config", str(cfg), "--out-dir", str(out_dir),
                                "--format", "csv"], capsys)
        assert code == 0
        assert {"gain_dc,", "vout_V,"} <= set(out.splitlines())

    def test_parse_error_carries_line(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text('device.preset = "large"\namp.bogus = 1\n')
        code, _, err = run_cli(["amplify", "--config", str(cfg)], capsys)
        assert code == 1
        assert json.loads(err)["error"]["line"] == 2

    @pytest.mark.parametrize("line", ["run.n_periods = inf", "run.n_periods = nan",
                                      "stimulus.amplitude_V = nan"])
    def test_non_finite_value_is_config_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f'device.preset = "large"\n{line}\n')
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["amplify", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 1 and out == ""
        doc = json.loads(err)["error"]
        assert doc["kind"] == "syntax-error" and doc["line"] == 2
        assert not out_dir.exists()

    def test_phase_count_beyond_bound_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text('device.preset = "large"\nrun.n_periods = 1e300\n')
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["amplify", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 1 and out == ""
        doc = json.loads(err)["error"]
        assert doc["kind"] == "config-error" and "more than 1000000 phases" in doc["message"]
        assert not out_dir.exists()

    def test_sine_window_of_partial_clock_periods_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text('device.preset = "large"\nstimulus.kind = sine\n'
                       "stimulus.freq_hz = 30e3\nrun.n_periods = 1\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["amplify", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
        assert code == 1 and out == ""
        doc = json.loads(err)["error"]
        assert doc["kind"] == "config-error" and "whole number" in doc["message"]
        assert not out_dir.exists()

    def test_config_and_preset_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(REFERENCE_SETUP)
        code, _, _ = run_cli(
            ["amplify", "--config", str(cfg), "--preset", "large"], capsys)
        assert code == 1


class TestCvSweepCommand:
    def test_transitions(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["cv-sweep", "--preset", "large", "--out-dir", str(tmp_path),
             "--n-points", "1201"], capsys)
        assert code == 0
        doc = read_json(tmp_path / "summary.json")
        assert abs(doc["up_transition_V"] - 9.6) <= 0.011
        assert abs(doc["down_transition_V"] - 6.2) <= 0.011
        assert (tmp_path / "cv.csv").read_text().startswith("v_V,c_F,branch")

    def test_points_beyond_bound_is_config_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(mech, "MAX_SWEEP_SIZE", 40)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["cv-sweep", "--preset", "large", "--n-points", "41", "--out-dir", str(out_dir)],
            capsys)
        assert code == 1 and out == ""
        doc = json.loads(err)["error"]
        assert doc["kind"] == "config-error" and "41 points, more than 40" in doc["message"]
        assert not out_dir.exists()
        code, _, _ = run_cli(
            ["cv-sweep", "--preset", "large", "--n-points", "40", "--out-dir", str(out_dir)],
            capsys)
        assert code == 0


class TestTransientCommand:
    def test_step_pullin(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["transient", "--preset", "large", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        doc = read_json(tmp_path / "summary.json")
        assert doc["final_latched"] is True
        assert len(doc["contact_times_s"]) == 1
        assert (tmp_path / "transient.csv").read_text().startswith("t_s,x_m,v_mps,c_F,latched")

    @pytest.mark.parametrize("t_end", ["0", "-1"])
    def test_non_positive_end_time_names_the_option(self, t_end, tmp_path, capsys):
        code, out, err = run_cli(
            ["transient", "--preset", "large", "--t-end-s", t_end,
             "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1 and out == ""
        doc = json.loads(err)["error"]
        assert doc["kind"] == "config-error"
        assert "--t-end-s (t_end) must be positive" in doc["message"]
        assert "integration_dt_max" not in doc["message"]
        assert not (tmp_path / "out").exists()


class TestCustomGeometry:
    """transient and cv-sweep on a drawn geometry read the contact stop and
    the switching thresholds of the scenario's calibrated DeviceParams."""

    TEXT = CUSTOM_HIGH_GAIN + "amp.vdc_V = 5\n"

    def _run(self, command, tmp_path, capsys):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(self.TEXT)
        code, _, _ = run_cli([command, "--config", str(cfg), "--out-dir", str(tmp_path)],
                             capsys)
        return code, read_json(tmp_path / "summary.json")

    def test_transient_latches_at_c_on(self, tmp_path, capsys):
        code, doc = self._run("transient", tmp_path, capsys)
        assert code == 0 and len(doc["contact_times_s"]) == 1
        c_on = parse_scenario(self.TEXT).device_params().c_on
        with open(tmp_path / "transient.csv", newline="") as f:
            latched = [float(row["c_F"]) for row in csv.DictReader(f) if row["latched"] == "1"]
        assert latched
        assert all(abs(c - c_on) <= 1e-11 * c_on for c in latched)

    def test_cv_transitions_at_calibrated_thresholds(self, tmp_path, capsys):
        code, doc = self._run("cv-sweep", tmp_path, capsys)
        dev = parse_scenario(self.TEXT).device_params()
        assert code == 0
        assert abs(doc["up_transition_V"] - dev.v_pi) <= 0.01 * dev.v_pi
        assert abs(doc["down_transition_V"] - dev.v_po) <= 0.01 * dev.v_po


class TestGainSweepCommand:
    def test_small_sweep(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["gain-sweep", "--preset", "large", "--out-dir", str(tmp_path),
             "--n-points", "4"], capsys)
        assert code == 0
        doc = read_json(tmp_path / "summary.json")
        assert 0.06 <= doc["gain_drop_frac"] <= 0.09
        lines = (tmp_path / "gain_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "vin_V,vout_V,gain,x_m,released"
        assert len(lines) == 5

    def test_empty_amplitudes_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["gain-sweep", "--preset", "large", "--out-dir", str(tmp_path),
             "--amplitudes", ""], capsys)
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "config-error"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("amplitudes", ["0.01,abc", "0.01,inf"])
    def test_bad_amplitude_token_config_error(self, amplitudes, tmp_path, capsys):
        code, _, err = run_cli(
            ["gain-sweep", "--preset", "large", "--out-dir", str(tmp_path),
             "--amplitudes", amplitudes], capsys)
        assert code == 1
        doc = json.loads(err)["error"]
        assert doc["kind"] == "config-error" and amplitudes[5:] in doc["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, value", [
        ("--n-points", "4"), ("--amplitudes", "1e-3,2e-3,3e-3,4e-3")])
    def test_sweep_beyond_bound_is_config_error(self, option, value, monkeypatch,
                                                tmp_path, capsys):
        # 4 amplitudes x 4 phases x 10 periods = 160 phases
        monkeypatch.setattr(mech, "MAX_SWEEP_SIZE", 159)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            ["gain-sweep", "--preset", "large", option, value, "--out-dir", str(out_dir)],
            capsys)
        assert code == 1 and out == ""
        doc = json.loads(err)["error"]
        assert doc["kind"] == "config-error" and "160 phases, more than 159" in doc["message"]
        assert not out_dir.exists()

    def test_explicit_amplitudes(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["gain-sweep", "--preset", "large", "--out-dir", str(tmp_path),
             "--amplitudes", "1e-3,0.175"], capsys)
        assert code == 0
        doc = read_json(tmp_path / "summary.json")
        assert doc["n_amplitudes"] == 2


class TestPowerCommand:
    def test_reference_point(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text('device.preset = "large"\namp.topology = modified\namp.m = 10\n')
        code, _, _ = run_cli(
            ["power", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        doc = read_json(tmp_path / "summary.json")
        assert abs(doc["power_W"] - 6.3e-6) / 6.3e-6 < 2e-3  # C_on = 31.50 fF exactly


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["amplify"],
        ["cv-sweep", "--n-points", "301"],
        ["gain-sweep", "--n-points", "3"],
    ])
    def test_byte_identical_reruns(self, argv, tmp_path, capsys):
        outs = []
        for sub in ("one", "two"):
            out_dir = tmp_path / sub
            code, _, _ = run_cli(argv + ["--preset", "large", "--out-dir", str(out_dir)],
                                 capsys)
            assert code == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert outs[0] == outs[1]


class TestUsageErrors:
    """argparse usage errors exit 1 with JSON on stderr; exit 2 means a solver error."""

    @pytest.mark.parametrize("argv", [
        ["power", "--preset", "large", "--jobs", "2"],
        ["cv-sweep", "--preset", "large", "--n-points", "abc"],
        ["gain-sweep", "--preset", "large", "--n-points", "abc"],
        [],
    ])
    def test_usage_error_is_config_error(self, argv, tmp_path, capsys):
        code, out, err = run_cli(argv + ["--out-dir", str(tmp_path)] if argv else argv,
                                 capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["kind"] == "config-error"
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """main builds the argparse parser once per process and reuses it."""

    def test_built_once_across_calls(self, monkeypatch, tmp_path, capsys):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for argv in (["power", "--preset", "large"], ["device-report", "--preset", "large"],
                         ["power", "--preset", "lv-high-gain"]):
                code, _, _ = run_cli(argv + ["--out-dir", str(tmp_path)], capsys)
                assert code == 0
        finally:
            cli._parser.cache_clear()  # later tests build from the real function
        assert built == [1]

    def test_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        code, out, err = run_cli(["power", "--jobs", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["kind"] == "config-error"
        code, out, err = run_cli(["power", "--preset", "large", "--out-dir", str(tmp_path)],
                                 capsys)
        assert code == 0 and err == ""
        assert read_json(tmp_path / "summary.json")["m"] == 1


class TestBankBound:
    def test_bank_beyond_bound_is_config_error_before_any_network(self, monkeypatch,
                                                                  tmp_path, capsys):
        monkeypatch.setattr(amp, "MAX_BANK", 4)
        monkeypatch.setattr(amp, "_make_network", lambda *args: pytest.fail("network built"))
        cfg = tmp_path / "bank.cfg"
        cfg.write_text('device.preset = "large"\namp.topology = modified\namp.m = 5\n')
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["amplify", "--config", str(cfg), "--out-dir", str(out_dir)],
                                 capsys)
        assert code == 1 and out == ""
        assert "exceeds the largest bank" in json.loads(err)["error"]["message"]
        assert not out_dir.exists()


class TestNonFiniteFloatOptions:
    """nan and +-inf in a float option are usage errors, rejected before any compute."""

    @pytest.mark.parametrize("command, option, value", [
        ("cv-sweep", "--v-end", "nan"),
        ("cv-sweep", "--v-start", "-inf"),
        ("transient", "--level-V", "inf"),
        ("transient", "--t-end-s", "nan"),
        ("gain-sweep", "--vin-min", "nan"),
        ("gain-sweep", "--vin-max", "inf"),
    ])
    def test_config_error(self, command, option, value, tmp_path, capsys):
        code, out, err = run_cli(
            [command, f"{option}={value}", "--preset", "large", "--out-dir", str(tmp_path)],
            capsys)
        assert code == 1 and out == ""
        doc = json.loads(err)["error"]
        assert doc["kind"] == "config-error"
        assert f"argument {option}: {value!r} is not finite" in doc["message"]
        assert list(tmp_path.iterdir()) == []


class TestIoError:
    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out_dir = blocker / "sub"
        code, _, err = run_cli(
            ["power", "--preset", "large", "--out-dir", str(out_dir)], capsys)
        assert code == 3
        assert json.loads(err)["error"]["kind"] == "io-error"


class TestStdoutFormats:
    def test_csv_format(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["power", "--preset", "large", "--out-dir", str(tmp_path),
             "--format", "csv"], capsys)
        assert code == 0
        assert any(line.startswith("power_W,") for line in out.splitlines())

    def test_json_format(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["power", "--preset", "large", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["device"] == "large"
