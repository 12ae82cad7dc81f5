"""Property tests of the phase engine over generated networks.

Hypothesis runs a fixed, derandomized set of examples so the suite stays
deterministic.
"""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nemsim.amp import AmpConfig, build_amp, dynamic_range, run_dc
from nemsim.device import PRESETS, get_preset
from nemsim.errors import ScenarioError
from nemsim.scenario import parse_scenario
from nemsim.scnet import ClockSchedule, PhaseSolution, build_network, simulate, solve_phase

SCHEDULE = ClockSchedule(100e3)
CHARGE = st.floats(-1e-15, 1e-15)
VOLTAGE = st.floats(-3.0, 3.0)


@st.composite
def networks(draw):
    """A build_network graph of linear and NEMS caps, clocked switches and at
    most one DC source.

    Every node hangs off a capacitor tree rooted at ground, so chains of
    floating nodes joined only by capacitors occur. Switches join non-ground
    nodes only, so no switch can short the source to ground (a pin conflict).
    """
    n = draw(st.integers(2, 6))
    nodes = ["gnd", *(f"n{i}" for i in range(n))]
    elements, charges = [], {}

    def cap(name, a, b):
        if draw(st.integers(0, 3)) == 0:
            elements.append({"type": "nems_cap", "name": name, "top": a, "bottom": b,
                             "preset": "large"})
        else:
            elements.append({"type": "linear_cap", "name": name, "a": a, "b": b,
                             "value": draw(st.floats(0.5e-15, 5e-15))})
            charges[name] = draw(CHARGE)

    for i, node in enumerate(nodes[1:], start=1):
        cap(f"t{i}", node, nodes[draw(st.integers(0, i - 1))])
    for i, (a, b) in enumerate(draw(st.lists(st.tuples(st.sampled_from(nodes),
                                                         st.sampled_from(nodes)),
                                               max_size=3))):
        if a != b:
            cap(f"x{i}", a, b)
    if draw(st.booleans()):
        elements.append({"type": "source", "name": "v0", "node": "n0",
                         "wave": {"kind": "dc", "value": draw(VOLTAGE)}})
    non_ground = nodes[1:]
    for i, (a, b) in enumerate(draw(st.lists(st.tuples(st.sampled_from(non_ground),
                                                         st.sampled_from(non_ground)),
                                               max_size=3))):
        if a != b:
            elements.append({"type": "switch", "name": f"s{i}", "a": a, "b": b,
                             "drive": {"kind": "clock",
                                       "phase": draw(st.sampled_from(["clk", "clkb"])),
                                       "high": 10.0},
                             "v_pi": 9.6, "v_po": 6.2})
    return {"nodes": nodes, "elements": elements}, charges


def _build(description, charges):
    net = build_network(description)
    for c in net.linear_caps:
        c.q = charges[c.name]
    return net


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(networks())
def test_floating_charge_conserved_and_reruns_byte_identical(case):
    description, charges = case
    net = _build(description, charges)
    first = simulate(net, SCHEDULE, 2 * SCHEDULE.period)
    assert first.max_conservation_error() <= 1e-15
    again = simulate(_build(description, charges), SCHEDULE, 2 * SCHEDULE.period)
    assert again.waveform_csv() == first.waveform_csv()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(networks())
def test_simulate_matches_the_plain_network_path(case):
    """simulate (columns and transition memo) against solve_phase chained over
    a plain Network, which compiles per call and never reuses a solution."""
    description, charges = case
    run = simulate(_build(description, charges), SCHEDULE, 2 * SCHEDULE.period)
    net = _build(description, charges)
    prior = None
    for got, phase in zip(run.solutions, SCHEDULE.phases(2 * SCHEDULE.period), strict=True):
        prior = solve_phase(net, phase, prior)
        for name in PhaseSolution.FIELDS:
            assert getattr(got, name) == getattr(prior, name), name
        assert repr(got) == repr(prior)


DEV = get_preset("large").params()
VDC_REF = 10.0


@st.composite
def dc_operating_points(draw):
    """(vin, V_DC) with V_DC above pull-in and |vin| inside the dynamic range
    at both V_DC and the reference V_DC."""
    v_dc = draw(st.floats(DEV.v_pi + 0.05, 3.0 * DEV.v_pi))
    top = min(dynamic_range(build_amp(AmpConfig(device=DEV, v_dc=v)))[1]
              for v in (v_dc, VDC_REF))
    return draw(st.floats(1e-4, 0.95 * top)), v_dc


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(dc_operating_points())
def test_dc_output_is_bitwise_odd_and_free_of_vdc(point):
    """Criteria 7 (V_DC invariance, 1e-9) and the odd symmetry of the output,
    over generated operating points rather than hand-picked ones."""
    vin, v_dc = point
    amp = build_amp(AmpConfig(device=DEV, v_dc=v_dc))
    up, down = run_dc(amp, vin), run_dc(amp, -vin)
    assert down.vout == -up.vout
    assert down.displacement == up.displacement
    reference = run_dc(build_amp(AmpConfig(device=DEV, v_dc=VDC_REF)), vin).vout
    assert abs(up.vout - reference) <= 1e-9 * abs(reference)


# a valid custom device and operating point; the fuzzer gives one or two of
# its lines hostile values and, in half the texts, drops a line or adds
# hostile ones, so the text reaches every stage of the parse (lines, keys,
# values, device calibration, the V_DC check)
_CUSTOM = {"device.L_um": "5", "device.W_um": "1", "device.t_nm": "75", "device.Le_um": "4",
           "device.g0_nm": "50", "device.td_nm": "10", "device.eps_d": "7.6",
           "device.vpi_V": "3.8", "device.vpo_V": "2.4", "amp.vdc_V": "10",
           "amp.m": "3", "amp.topology": "modified", "stimulus.kind": "sine"}
_KEYS = [*_CUSTOM, "device.preset", "amp.fclk_hz", "amp.nonoverlap_frac", "amp.parasitics",
         "amp.cgb_fF", "amp.cgc_fF", "amp.drive_terminal", "stimulus.amplitude_V",
         "stimulus.freq_hz", "run.n_periods", "run.out_dir", "device.bogus", "amp.", "x.y"]
_EXTREMES = st.sampled_from(["1e300", "1e200", "1e-200", "1e-300", "1e-320", "1e309",
                             "-0.0", "0", "-1", "nan", "inf", "-inf"])
_VALUES = st.one_of(
    _EXTREMES,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(['"large"', '"lv-high-gain"', "large", '"huge"', "basic", "modified",
                     "on", "off", "gate", "body", "dc", "sine", '""', '"', "#", "0x10",
                     "1_000", " "]),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_KEYS), _VALUES),
    st.builds("{}={}".format, st.sampled_from(_KEYS), _VALUES),
    st.text(max_size=30),
    st.sampled_from(["", "# comment", 'device.preset = "large"', "   ", "=", "a.b ="]),
)


@st.composite
def scenario_texts(draw):
    keys = list(_CUSTOM)
    lines = [f"{key} = {value}" for key, value in _CUSTOM.items()]
    for _ in range(draw(st.integers(1, 2))):  # hostile values for one or two keys
        i = draw(st.integers(0, len(keys) - 1))
        lines[i] = f"{keys[i]} = {draw(st.one_of(_EXTREMES, _VALUES))}"
    if draw(st.booleans()):  # and, in half the texts, damage to the lines
        if draw(st.booleans()):
            del lines[draw(st.integers(0, len(lines) - 1))]
        lines += draw(st.lists(_LINES, min_size=1, max_size=2))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(scenario_texts())
def test_fuzzed_scenario_text_raises_only_scenario_errors(text):
    """Hostile scenario text is rejected at the parse boundary with a
    ScenarioError, never another exception."""
    try:
        parse_scenario(text)
    except ScenarioError:
        pass


def _decimal(lo, hi, places=3):
    return st.decimals(lo, hi, places=places).map(str)


# the nine custom device keys; V_PI stays below the lowest generated V_DC
_DEVICE_KEYS = {"device.L_um": _decimal(3, 10), "device.W_um": _decimal("0.5", 2),
                "device.t_nm": _decimal(50, 150, 1), "device.Le_um": _decimal(1, 3),
                "device.g0_nm": _decimal(30, 150, 1), "device.td_nm": _decimal(5, 30, 1),
                "device.eps_d": _decimal(2, 10, 2), "device.vpi_V": _decimal(2, "9.9", 2),
                "device.vpo_V": _decimal(1, 6, 2)}
_RUN_KEYS = {"amp.topology": st.sampled_from(["basic", "modified"]),
             "amp.m": st.integers(1, 200).map(str),
             "amp.vdc_V": _decimal(10, 30),
             "amp.fclk_hz": _decimal(1000, 1000000, 1),
             "amp.nonoverlap_frac": _decimal(0, "0.49", 4),
             "amp.parasitics": st.sampled_from(["on", "off"]),
             "amp.cgb_fF": _decimal(0, 10), "amp.cgc_fF": _decimal(0, 10),
             "amp.drive_terminal": st.sampled_from(["gate", "body"]),
             "stimulus.kind": st.sampled_from(["dc", "sine"]),
             "stimulus.amplitude_V": _decimal(-1, 1, 5),
             "stimulus.freq_hz": _decimal(1, 100000, 2),
             "run.n_periods": st.integers(1, 100).map(str),
             "run.out_dir": st.text("abc_-./0123", min_size=1, max_size=8).map('"{}"'.format)}


@st.composite
def valid_scenario_texts(draw):
    """A preset or the nine custom device keys, plus any subset of the amp,
    stimulus and run keys, every number written as a decimal."""
    if draw(st.booleans()):
        lines = [f'device.preset = "{draw(st.sampled_from(sorted(PRESETS)))}"']
    else:
        lines = [f"{key} = {draw(value)}" for key, value in _DEVICE_KEYS.items()]
    for key, value in _RUN_KEYS.items():
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(value)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(valid_scenario_texts())
def test_parsed_scenario_round_trips_through_its_text(text):
    try:
        scn = parse_scenario(text)
    except ScenarioError:
        reject()  # an infeasible custom device
    assert parse_scenario(scn.to_text()) == scn
