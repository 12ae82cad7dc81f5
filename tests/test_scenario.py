import pytest

from nemsim.errors import ScenarioError
from nemsim.scenario import parse_scenario


def rel(a, b):
    return abs(a - b) / abs(b)


REFERENCE_SETUP = """\
# reference operating point
device.preset = "large"
amp.vdc_V = 10
amp.fclk_hz = 100e3
stimulus.kind = dc
stimulus.amplitude_V = 10e-3
"""

CUSTOM_HIGH_GAIN = """\
device.L_um = 5
device.W_um = 1
device.t_nm = 75
device.Le_um = 4
device.g0_nm = 50
device.td_nm = 10
device.eps_d = 7.6
device.vpi_V = 3.8
device.vpo_V = 2.4
"""


class TestParse:
    def test_reference_setup(self):
        scn = parse_scenario(REFERENCE_SETUP)
        assert scn.device_preset == "large"
        assert scn.v_dc == 10.0
        assert scn.f_clk == 100e3
        assert scn.stimulus_kind == "dc"
        assert scn.amplitude == 10e-3
        # defaults fill the rest
        assert scn.topology == "basic" and scn.m == 1 and scn.n_periods == 10

    def test_custom_device_capacitance(self):
        scn = parse_scenario(CUSTOM_HIGH_GAIN)
        dev = scn.device_params()
        assert rel(dev.c_on, 26.9e-15) < 5e-3
        assert scn.device_name() == "custom"

    def test_empty_file(self):
        with pytest.raises(ScenarioError, match="missing device section") as exc:
            parse_scenario("")
        assert exc.value.kind == "syntax-error"

    def test_comments_and_blanks(self):
        text = "\n# top comment\n\ndevice.preset = \"large\"  # trailing\n\n"
        assert parse_scenario(text).device_preset == "large"

    def test_unknown_key_with_line(self):
        for line in ("amp.gain = 40", "run.deterministic = on"):
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(f'device.preset = "large"\n{line}\n')
            assert exc.value.kind == "unknown-key"
            assert exc.value.line == 2

    @pytest.mark.parametrize("line", ["run.n_periods = inf", "run.n_periods = nan",
                                      "stimulus.amplitude_V = nan", "amp.vdc_V = -inf"])
    def test_non_finite_number_with_line(self, line):
        with pytest.raises(ScenarioError, match="finite") as exc:
            parse_scenario(f'device.preset = "large"\n{line}\n')
        assert exc.value.kind == "syntax-error"
        assert exc.value.line == 2

    def test_unknown_section(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('device.preset = "large"\nnoise.kind = thermal\n')
        assert exc.value.kind == "unknown-key"

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('device.preset = "large"\ndevice.preset = "large"\n')
        assert exc.value.kind == "syntax-error"

    def test_garbage_line(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('device.preset "large"\n')
        assert exc.value.kind == "syntax-error" and exc.value.line == 1

    def test_zero_dielectric_is_unit_violation(self):
        bad = CUSTOM_HIGH_GAIN.replace("device.td_nm = 10", "device.td_nm = 0")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert exc.value.kind == "unit-violation"

    def test_dielectric_beyond_float_range_is_constraint(self):
        bad = CUSTOM_HIGH_GAIN.replace("device.td_nm = 10", "device.td_nm = 4.3e112")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert exc.value.kind == "constraint-violation"

    def test_vdc_below_pullin_is_constraint(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('device.preset = "large"\namp.vdc_V = 5\n')
        assert exc.value.kind == "constraint-violation"

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('device.preset = "huge"\n')
        assert exc.value.kind == "constraint-violation"

    def test_preset_excludes_custom_keys(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('device.preset = "large"\ndevice.td_nm = 27\n')
        assert exc.value.kind == "constraint-violation"

    def test_incomplete_custom_device(self):
        with pytest.raises(ScenarioError, match="vpo_V") as exc:
            parse_scenario(CUSTOM_HIGH_GAIN.replace("device.vpo_V = 2.4\n", ""))
        assert exc.value.kind == "constraint-violation"

    def test_swapped_thresholds_infeasible(self):
        bad = CUSTOM_HIGH_GAIN.replace("device.vpi_V = 3.8", "device.vpi_V = 2.0")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert exc.value.kind == "constraint-violation"

    def test_bad_enum_token(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('device.preset = "large"\namp.topology = fancy\n')
        assert exc.value.kind == "syntax-error"

    def test_non_integer_m(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario('device.preset = "large"\namp.topology = modified\namp.m = 2.5\n')
        assert exc.value.kind == "syntax-error"


class TestRoundTrip:
    def test_preset_scenario(self):
        scn = parse_scenario(REFERENCE_SETUP)
        assert parse_scenario(scn.to_text()) == scn

    def test_custom_scenario(self):
        text = CUSTOM_HIGH_GAIN + (
            "amp.topology = modified\namp.m = 10\namp.vdc_V = 9.125\n"
            "amp.parasitics = on\namp.cgb_fF = 0.735\namp.cgc_fF = 0.735\n"
            "amp.drive_terminal = body\nstimulus.kind = sine\n"
            "stimulus.amplitude_V = 0.0135\nstimulus.freq_hz = 12345.6\n"
            "run.n_periods = 7\nrun.out_dir = \"results\"\n")
        scn = parse_scenario(text)
        assert parse_scenario(scn.to_text()) == scn
        # and serialization is stable
        assert parse_scenario(scn.to_text()).to_text() == scn.to_text()
