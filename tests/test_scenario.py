import dataclasses
import hashlib
import random
import re
from pathlib import Path

import pytest

from nemsim.amp import AmpConfig
from nemsim.errors import ScenarioError
from nemsim.scenario import _KEYS, Scenario, parse_scenario


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


# --------------------------------------------------------------------------
# outcome identity over a seeded corpus

# key -> values the parser accepts on their own
_VALID = {
    "device.preset": ['"large"', '"lv-high-gain"', '"lv-low-gain"', "large"],
    "device.L_um": ["5", "8.5", "6"], "device.W_um": ["1", "1.6"],
    "device.t_nm": ["75", "100"], "device.Le_um": ["4", "7.9", "3"],
    "device.g0_nm": ["50", "135", "60"], "device.td_nm": ["10", "27"],
    "device.eps_d": ["7.6", "3.9"], "device.vpi_V": ["3.8", "9.6", "4"],
    "device.vpo_V": ["2.4", "6.2", "2.7"],
    "amp.topology": ["basic", "modified", '"modified"'], "amp.m": ["1", "10", "100", "2e1"],
    "amp.vdc_V": ["10", "12", "9.125", "5", "4.5"], "amp.fclk_hz": ["100e3", "1e6", "250.5"],
    "amp.nonoverlap_frac": ["0.01", "0", "0.49", "0.25"], "amp.parasitics": ["on", "off"],
    "amp.cgb_fF": ["1", "0", "0.735"], "amp.cgc_fF": ["1", "0", "2.5"],
    "amp.drive_terminal": ["gate", "body"], "stimulus.kind": ["dc", "sine"],
    "stimulus.amplitude_V": ["10e-3", "-0.05", "0", "0.3"],
    "stimulus.freq_hz": ["10e3", "100", "12345.6"],
    "run.n_periods": ["10", "1", "7.0"], "run.out_dir": ['"out"', '"a b"', "plain", '""'],
}
_HOSTILE = ["nan", "inf", "-inf", "0", "-1", "-2.5", "-1e-300", "2.5", "0.5", "1e400",
            "1e-320", "-0.0", "fancy", '"huge"', "on", "gate", '"', "0x10", "1_000", "# gone",
            '"#"', ""]
_STRAY = ["amp.gain = 40", "run.deterministic = on", "device.foo = 1", "noise.kind = thermal",
          "Amp.m = 1", "amp.m", "= 3", "a.b =", 'device.preset "large"', "# comment", "",
          "   "]


def _corpus_text(rng):
    device = [k for k in _VALID if k.startswith("device.")]
    keys = device[:1] if rng.random() < 0.5 else device[1:]
    if rng.random() < 0.15:  # a preset mixed with custom keys, or a partial device
        keys = rng.sample(device, rng.randint(1, len(device)))
    keys += [k for k in _VALID if not k.startswith("device.") and rng.random() < 0.5]
    lines = []
    for key in keys:
        pool = _HOSTILE if rng.random() < 0.03 else _VALID[key]
        lines.append(f"{key} = {rng.choice(pool)}")
    if rng.random() < 0.2:
        lines.append(rng.choice(_STRAY))
    if lines and rng.random() < 0.1:
        lines.append(rng.choice(lines))
    if lines and rng.random() < 0.15:
        del lines[rng.randrange(len(lines))]
    if rng.random() < 0.6:
        rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def _outcome(text):
    try:
        scn = parse_scenario(text)
    except Exception as exc:
        return (f"{type(exc).__name__}|{getattr(exc, 'kind', None)}|"
                f"{getattr(exc, 'line', None)}|{exc}")
    return repr(scn) + "\n" + scn.to_text()


def test_seeded_corpus_outcomes_are_pinned():
    """Each text's outcome (an accepted scenario's repr and canonical text, a
    rejected one's error type, kind, line and message) hashes to the value
    recorded before the parser was rewritten as one key table."""
    rng = random.Random(20261019)
    outcomes = [_outcome(_corpus_text(rng)) for _ in range(4000)]
    accepted = sum(o.startswith("Scenario(") for o in outcomes)
    digest = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
    assert (accepted, digest) == (
        1339, "ec1bdce342a2c666bb7086f5dd4bef584c3144b8a23847beeae07cf8a7b53cf5")


def test_scenario_amp_defaults_match_amp_config():
    """Scenario repeats AmpConfig's defaults for the keys a scenario leaves out."""
    names = ("topology", "m", "v_dc", "f_clk", "nonoverlap_frac", "parasitics",
             "c_gb", "c_gc", "drive_terminal")
    amp_defaults = {f.name: f.default for f in dataclasses.fields(AmpConfig)}
    defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
    assert {n: defaults[n] for n in names} == {n: amp_defaults[n] for n in names}


@pytest.mark.parametrize("device", [{}, {"device_preset": ""}, "both"])
def test_scenario_needs_exactly_one_device(device):
    if device == "both":
        device = {"device_preset": "large",
                  "device_geometry": parse_scenario(CUSTOM_HIGH_GAIN).device_geometry}
    with pytest.raises(ScenarioError, match="^constraint-violation: a scenario needs one of"):
        Scenario(**device)


def test_readme_scenario_block_names_every_key():
    """The README's ini block is a valid scenario, with the custom device
    lines commented out, and names every key of the scenario format."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert set(re.findall(r"^[# ]*([a-z_]+\.[A-Za-z_0-9]+) *=", block, re.M)) == set(_KEYS)
    assert parse_scenario(block).device_preset == "large"
    custom = re.sub(r"^device\.preset", "# device.preset",
                    re.sub(r"^# (device\.)", r"\1", block, flags=re.M), flags=re.M)
    assert parse_scenario(custom).device_name() == "custom"
