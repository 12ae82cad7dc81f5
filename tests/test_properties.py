"""Property tests over generated inputs: networks and operating points of the
phase engine, scenario text, and the beam's voltage law and its core.

Hypothesis runs a fixed, derandomized set of examples so the suite stays
deterministic.
"""

import math
import re
import struct
import sys
import warnings
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from nemsim import mech, scnet
from nemsim.amp import AmpConfig, _make_network, build_amp, dynamic_range, run_dc
from nemsim.device import EPS0, PRESETS, DeviceGeometry, DeviceParams, get_preset
from nemsim.errors import ConvergenceError, InvalidGeometryError, ScenarioError
from nemsim.mech import BeamState, static_equilibrium_voltage
from nemsim.scenario import parse_scenario
from nemsim.scnet import (ClockSchedule, Clock, CompiledNetwork, Dc, LinearCap, NemsCap,
                          Network, OhmicSwitch, OhmicSwitchState, PhaseSolution, Sine,
                          VSource, build_network, islands, simulate, solve_phase)

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
@given(networks(), st.integers(2, 12))
def test_simulate_matches_the_plain_network_path(case, periods):
    """simulate (one set of columns and, once a DC run turns periodic, the
    bulk fill) against solve_phase chained over a plain Network, which
    compiles per call and never reuses a solution."""
    description, charges = case
    t_end = periods * SCHEDULE.period
    run = simulate(_build(description, charges), SCHEDULE, t_end)
    net = _build(description, charges)
    prior = None
    for got, phase in zip(run.solutions, SCHEDULE.phases(t_end), strict=True):
        prior = solve_phase(net, phase, prior)
        for name in PhaseSolution.FIELDS:
            assert getattr(got, name) == getattr(prior, name), name
        assert repr(got) == repr(prior)


@st.composite
def amplifier_runs(draw):
    """An amplifier run: config, input, input frequency (None for DC),
    period count and relay R_on. A clock rail below pull-in never closes a
    relay (the no-latch path); an R_on of 1e9 ohm makes every closed relay
    violate the settling check."""
    topology = draw(st.sampled_from(["basic", "modified"]))
    config = AmpConfig(
        device=DEV, topology=topology, m=1 if topology == "basic" else draw(st.integers(1, 12)),
        nonoverlap_frac=draw(st.sampled_from([0.0, 1e-16, 1e-15, 1e-14, 0.01, 0.2])),
        parasitics=draw(st.booleans()), drive_terminal=draw(st.sampled_from(["gate", "body"])),
        clock_high=draw(st.one_of(st.none(), st.floats(1.0, DEV.v_pi, exclude_max=True))))
    vin = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5)))
    f_in = draw(st.one_of(st.none(), st.sampled_from([1e3, 10e3, 33e3])))
    return config, vin, f_in, draw(st.integers(2, 30)), draw(st.sampled_from([1e3, 1e9]))


def _one_run(solutions):
    """Chained solutions, each in the columns of its own call, as one run."""
    out = scnet.PhaseColumns(*solutions[0]._columns._layout())
    for sol in solutions:
        sol._columns._copy(sol._row, out)
    return scnet.SimResult(out)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(amplifier_runs())
def test_dc_amplifier_run_matches_the_plain_network_path(case):
    """An amplifier run through simulate against solve_phase chained over a
    plain Network: every field and repr, the waveform CSV, and the settling
    warnings in order. simulate reads each phase's relay row, carries the
    last row's lists into the next phase and, once a DC run's state turns
    periodic, fills its rows in bulk; the chain steps the relays phase by
    phase. A sine run solves every phase. Tiny non-overlap fractions drop
    dead phases from some periods."""
    config, vin, f_in, periods, r_on = case
    schedule = build_amp(config).schedule

    def make():
        net = _make_network(config, vin, f_in)
        for sw in net.switches:
            sw.r_on = r_on
        return net

    t_end = periods * schedule.period
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        want, prior = [], None
        for phase in schedule.phases(t_end):
            prior = solve_phase(make(), phase, prior)
            want.append(prior)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        run = simulate(make(), schedule, t_end)
    for got, ref in zip(run.solutions, want, strict=True):
        for name in PhaseSolution.FIELDS:
            assert getattr(got, name) == getattr(ref, name), name
        assert repr(got) == repr(ref)
    assert run.waveform_csv() == _one_run(want).waveform_csv()
    assert [(w.category, str(w.message)) for w in warned] == [
        (w.category, str(w.message)) for w in want_warned]


@st.composite
def coupled_networks(draw):
    """2-6 floating nodes joined by linear capacitors of 0.1-10 fF, with
    initial charges, and no switch, so each node is its own island: f0 hangs
    off ground or a DC rail, every other floating node off an earlier one
    (so at least one capacitor joins two floating islands), plus up to four
    extra capacitors."""
    floating = [f"f{i}" for i in range(draw(st.integers(2, 6)))]
    pinned = ["gnd", "s"]
    pairs = [(floating[0], draw(st.sampled_from(pinned)))]
    pairs += [(f, draw(st.sampled_from(floating[:i]))) for i, f in enumerate(floating) if i]
    pairs += [(a, b) for a, b in draw(st.lists(st.tuples(st.sampled_from(floating),
                                                         st.sampled_from(floating + pinned)),
                                               max_size=4)) if a != b]
    net = Network()
    for node in pinned + floating:
        net.add_node(node)
    net.sources.append(VSource("vs", "s", Dc(draw(VOLTAGE))))
    net.linear_caps += [LinearCap(f"c{k}", a, b, draw(st.floats(0.1e-15, 10e-15)),
                                  q=draw(CHARGE))
                        for k, (a, b) in enumerate(pairs)]
    return net


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(coupled_networks())
def test_coupled_solve_matches_numpy_and_conserves(net):
    """The in-repo elimination against numpy's LU on the same capacitance
    system, built here from the plates rather than the partition's stencil."""
    phase = SCHEDULE.phases(SCHEDULE.period)[0]
    part = CompiledNetwork(net).partition(b"", phase)
    assert part.f_links
    caps = [cap.value for cap in net.linear_caps]
    volts = [0.0 if isl.floating else isl.pinned_voltage for isl in islands(net, phase, [])]
    q_before, _ = scnet._floating_charge(part, [cap.q for cap in net.linear_caps])
    n = len(part.f_islands)
    mat, rhs = np.zeros((n, n)), np.array(q_before)
    for c, ia, ib in zip(caps, part.plate_a, part.plate_b):
        for me, other in ((ia, ib), (ib, ia)):
            f, g = part.f_index[me], part.f_index[other]
            if f >= 0:
                mat[f, f] += c
                if g >= 0:
                    mat[f, g] -= c
                else:
                    rhs[f] += c * volts[other]
    want = np.linalg.solve(mat, rhs)
    scnet._solve_floating(part, caps, volts, q_before)
    got = np.array([volts[k] for k in part.f_islands])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert simulate(net, SCHEDULE, 2 * SCHEDULE.period).max_conservation_error() <= 1e-15


DEV = get_preset("large").params()
VDC_REF = 10.0


@st.composite
def like_islands(draw):
    """One floating island f of n like beams to a rail r (n = 1-6 or 100),
    each beam's top plate on either side, entering with one displacement and
    any latch flags, holding an island charge Q from 0 to 1.5 times the
    latching charge n*q_clamp (less a 1e-9 band around it); and the same
    island made ineligible for the
    closed form: beam 0's far plate on a second rail r2 at r's voltage, and
    for n = 1 also an isolated, charge-free floating node g on a 1 fF
    capacitor to ground."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 100]))
    tops = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    x0 = draw(st.sampled_from([0.0, 0.2 * DEV.g_eff / 3, DEV.g0]))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # within rounding of the latching charge the two solves may fall on
    # either side: the closed form reads Q/n, the fixed point a plate charge
    # rebuilt from the island voltage
    frac = draw(st.one_of(st.floats(0.0, 1.0 - 1e-9), st.floats(1.0 + 1e-9, 1.5)))
    charge = frac * n * DEV.q_clamp * draw(st.sampled_from([1.0, -1.0]))
    rail = draw(st.floats(-20.0, 20.0))

    def network(oracle):
        net = Network()
        for node in ("gnd", "r", "f", *(("r2",) if oracle else ()),
                     *(("g",) if oracle and n == 1 else ())):
            net.add_node(node)
        net.sources.append(VSource("vr", "r", Dc(rail)))
        for j, top in enumerate(tops):
            far = "r2" if oracle and j == 0 else "r"
            # the island's charge sits on beam 0's island-side plate
            q = (charge if top else -charge) if j == 0 else 0.0
            net.nems_caps.append(NemsCap(f"c{j}", *(("f", far) if top else (far, "f")), DEV,
                                         BeamState(x0, 0.0, flags[j]), q))
        if oracle:
            net.sources.append(VSource("vr2", "r2", Dc(rail)))
            if n == 1:
                net.linear_caps.append(LinearCap("cg", "g", "gnd", 1e-15))
        return net

    return network(False), network(True)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(like_islands())
def test_like_island_closed_form_matches_the_fixed_point(case):
    """solve_phase's closed form for n like beams to one pinned island against
    its fixed point on the same island made ineligible: island voltage and
    beam displacements within the solver tolerance, latch flags and notes
    equal, and the island's charge conserved on both sides to the library
    metric. Neither side conserves it bit for bit in every case: the
    corrector plate takes Q less the rounded sum of the others, which is
    not always exact (the fixed point can leave an island that entered with
    Q = 0 at ~1e-47 C, and the closed form one ulp off Q)."""
    net, oracle = case
    phase = SCHEDULE.phases(SCHEDULE.period)[1]
    closed, iterated = solve_phase(net, phase), solve_phase(oracle, phase)
    assert closed.iterations == 1 and iterated.iterations >= 2
    v, want = closed.node_voltages["f"], iterated.node_voltages["f"]
    assert abs(v - want) <= scnet._SOLVER_TOL * max(abs(want), 1.0)
    for name, beam in closed.beam_states.items():
        other = iterated.beam_states[name]
        assert abs(beam.displacement - other.displacement) <= scnet._SOLVER_TOL * DEV.g0
        assert beam.latched == other.latched
    assert closed.warnings == iterated.warnings
    for sol in (closed, iterated):
        assert scnet.SimResult(sol._columns).max_conservation_error() <= 1e-15


def _relay_step(switch, conducting, last_transition_time, switching_delay, v_gb, t):
    """The relay rule for one relay and one phase, in scalar form:
    (conducting, last_transition_time) after the gate-body voltage v_gb at
    time t. The oracle for scnet._relay_rows, which steps every relay
    through a whole phase sequence."""
    last_cross = last_transition_time - switching_delay
    if t < last_cross and math.isfinite(last_cross):
        raise InvalidGeometryError(
            f"switch {switch.name}: non-monotone time {t} < {last_cross}")
    if conducting:
        if abs(v_gb) < switch.v_po:
            return False, t + switching_delay
    elif abs(v_gb) > switch.v_pi:
        return True, t + switching_delay
    return conducting, last_transition_time


# drive levels below V_PO, in the hysteresis band, above V_PI, and NaN
_RELAY_LEVELS = st.one_of(st.floats(-DEV.v_po, DEV.v_po, exclude_min=True, exclude_max=True),
                          st.floats(DEV.v_po, DEV.v_pi), st.floats(DEV.v_pi, 3 * DEV.v_pi),
                          st.just(math.nan))


@st.composite
def relay_cases(draw):
    """1-3 relays (Dc, Clock or Sine drives, delays 1e-9 to 1e11 s,
    entering times -inf, finite or +inf) and a run of a schedule, from any
    phase on."""
    sched = ClockSchedule(draw(st.sampled_from([100e3, 1e6])),
                          draw(st.sampled_from([0.0, 1e-16, 1e-15, 1e-14, 0.01, 0.2])))
    phases = sched.phases(draw(st.integers(1, 12)) * sched.period)
    phases = phases[draw(st.integers(0, len(phases) - 1)):]
    relays, states = [], []
    for s in range(draw(st.integers(1, 3))):
        level = draw(_RELAY_LEVELS)
        drive = draw(st.sampled_from([Dc(level), Clock("clk", level), Clock("clkb", level),
                                      Sine(level, draw(st.sampled_from([1e3, 30e3, 1e6])),
                                           draw(st.sampled_from([0.0, DEV.v_po])))]))
        delay = 10.0 ** draw(st.floats(-9.0, 11.0))
        when = draw(st.one_of(st.sampled_from([-math.inf, math.inf]),
                              st.floats(-2 * phases[-1].t_end, 2 * phases[-1].t_end)))
        sw = OhmicSwitch(f"s{s}", "a", "b", drive, v_pi=DEV.v_pi, v_po=DEV.v_po,
                         state=OhmicSwitchState(draw(st.booleans()), when, delay))
        # as CompiledNetwork.relays holds them
        relays.append((sw, drive.at, delay, 1e-6 * delay))
        states.append(sw.state)
    return relays, states, phases


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(relay_cases())
def test_relay_rows_step_as_the_scalar_relay_rule(case):
    """_relay_rows over a phase sequence against the scalar rule stepped
    phase by phase: the same flags and phase-end masks, transition times
    equal bit for bit, the same stop phase, and the scalar rule's message
    when the rows are asked about their stop phase as their first."""
    relays, states, phases = case
    flags, times, masks, stop, raised = [], [], [], len(phases), None
    entering = [(state.conducting, state.last_transition_time) for state in states]
    for k, ph in enumerate(phases):
        try:
            stepped = [_relay_step(sw, c, when, delay, drive(ph.t_start, ph), ph.t_start)
                       for (sw, drive, delay, _), (c, when) in zip(relays, entering)]
        except InvalidGeometryError as exc:
            stop, raised = k, str(exc)
            break
        for (_, _, _, slack), (c, when) in zip(relays, stepped):
            flags.append(c)
            times.append(when)
            masks.append(c if ph.t_end >= when - slack else not c)
        entering = stepped
    if stop == 0:
        with pytest.raises(InvalidGeometryError, match=re.escape(raised)):
            scnet._relay_rows(relays, phases, states)
        return
    rows = scnet._relay_rows(relays, phases, states)
    assert rows.stop == stop and rows.phases is phases
    assert rows.conducting == bytes(flags) and rows.mask == bytes(masks)
    assert rows.transition_time.tobytes() == array("d", times).tobytes()
    if raised is not None:
        ns = len(relays)
        last = [OhmicSwitchState(bool(c), when, delay) for c, when, (_, _, delay, _) in zip(
            rows.conducting[-ns:], rows.transition_time[-ns:], relays)]
        with pytest.raises(InvalidGeometryError, match=f"^{re.escape(raised)}$"):
            scnet._relay_rows(relays, phases[stop:], last)


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


def _bisect_voltage_law(dev, rhs: float) -> tuple[float, float]:
    """Adjacent floats around the root of k*x*(g_eff - x)^2 = rhs on [0, g_eff/3],
    by bisection with each sign taken in exact rational arithmetic."""
    k, g_eff, target = Fraction(dev.k), Fraction(dev.g_eff), Fraction(rhs)
    lo, hi = 0.0, dev.g_eff / 3.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        x = Fraction(mid)
        if k * x * (g_eff - x) ** 2 < target:
            lo = mid
        else:
            hi = mid


# |v| / V_PI in (0, 1), half of the draws within 1e-2 of the fold
_VOLTAGE_RATIOS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(2.0, 17.0).map(lambda e: 1.0 - 10.0 ** -e).filter(lambda r: r < 1.0))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), _VOLTAGE_RATIOS, st.booleans())
def test_voltage_law_is_the_stable_root_of_its_cubic(preset, ratio, negative):
    """|v| = ratio * V_PI in (0, V_PI): the law is even in v, stays on the stable
    branch [0, g_eff/3], and is the root of its cubic to 1e-13. Within 1e-5 of
    V_PI the root's condition number grows as (1 - |v|/V_PI)^(-1/2), so there
    the residual is held to a few rounding errors instead."""
    dev = get_preset(preset).params()
    v = -ratio * dev.v_pi if negative else ratio * dev.v_pi
    state = static_equilibrium_voltage(dev, v)
    assert static_equilibrium_voltage(dev, -v) == state
    if state.latched:  # numerically at the fold
        assert ratio >= 1.0 - 1e-12
        return
    x = state.displacement
    assert 0.0 <= x <= dev.g_eff / 3.0
    rhs = EPS0 * dev.area * v * v / 2.0
    if ratio <= 1.0 - 1e-5:
        lo, hi = _bisect_voltage_law(dev, rhs)
        assert min(abs(x - lo), abs(x - hi)) <= 1e-13 * hi
    else:
        residual = Fraction(dev.k) * Fraction(x) * (Fraction(dev.g_eff) - Fraction(x)) ** 2
        assert abs(residual - Fraction(rhs)) <= 4 * sys.float_info.epsilon * Fraction(rhs)


def _voltage_law_oracle(dev, v):
    """static_equilibrium_voltage as it read before the law had a core, as
    (displacement, latched): the reference the core must match bit for bit."""
    area, g_eff, g0, k = dev.area, dev.g_eff, dev.g0, dev.k
    v_pi = math.sqrt(8.0 * k * g_eff ** 3 / (27.0 * EPS0 * area))
    if abs(v) >= v_pi:
        return g0, True
    if v == 0.0:
        return 0.0, False
    rhs = EPS0 * area * v * v / 2.0
    fold = 13.5 * rhs / (k * g_eff ** 3) - 1.0
    if fold >= 1.0:
        return g0, True
    if math.isnan(fold):
        raise ConvergenceError(f"voltage equilibrium undefined at v = {v}")
    x = g_eff * (2.0 / 3.0) * (1.0 + math.cos(math.acos(fold) / 3.0 + 2.0 * math.pi / 3.0))
    gap = g_eff - x
    slope = k * gap * (g_eff - 3.0 * x)
    if slope > 0.0:
        x -= (k * x * gap * gap - rhs) / slope
    return min(max(x, 0.0), g_eff / 3.0, g0), False


# the three presets and the custom geometry of the CLI smoke runs
_LAW_DEVICES = [*(get_preset(name).params() for name in sorted(PRESETS)),
                DeviceParams.from_geometry(DeviceGeometry(5e-6, 1e-6, 75e-9, 4e-6, 50e-9,
                                                          10e-9, 7.6), 3.8, 2.4)]


@st.composite
def law_points(draw):
    """A device and a voltage over +-2*V_PI, with the signed zeros, +-V_PI
    (the calibrated one and the law's own), the float just below each,
    subnormals and NaN drawn often."""
    dev = draw(st.sampled_from(_LAW_DEVICES))
    edges = []
    for v_pi in (dev.v_pi, mech._voltage_law(dev)[0]):  # [0]: the law's own V_PI
        edges += [v_pi, math.nextafter(v_pi, 0.0)]
    edges += [-v for v in edges]
    v = draw(st.one_of(
        st.floats(-2.0 * dev.v_pi, 2.0 * dev.v_pi),
        st.sampled_from([0.0, -0.0, *edges, math.nan, -math.nan]),
        st.floats(-sys.float_info.min, sys.float_info.min, allow_subnormal=True)))
    return dev, v


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(law_points())
def test_voltage_law_core_matches_the_pre_core_law_bit_for_bit(point):
    """_voltage_equilibrium, and static_equilibrium_voltage over it, give the
    old law's displacement (as bits) and latched flag; at NaN all three raise
    ConvergenceError."""
    dev, v = point
    law = mech._voltage_law(dev)
    if math.isnan(v):
        for solve in (lambda: _voltage_law_oracle(dev, v),
                      lambda: mech._voltage_equilibrium(law, v),
                      lambda: static_equilibrium_voltage(dev, v)):
            with pytest.raises(ConvergenceError):
                solve()
        return
    x, latched = _voltage_law_oracle(dev, v)
    core = mech._voltage_equilibrium(law, v)
    assert (_bits(core[0]), core[1]) == (_bits(x), latched)
    state = static_equilibrium_voltage(dev, v)
    assert (_bits(state.displacement), state.velocity, state.latched) == (_bits(x), 0.0, latched)
