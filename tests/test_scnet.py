import inspect
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nemsim import scnet
from nemsim.device import EPS0, get_preset
from nemsim.errors import ConfigError, ConvergenceError, InvalidGeometryError, NetworkError
from nemsim.ioutil import FLOAT_FORMAT, format_float
from nemsim.mech import BeamState, static_equilibrium_charge, static_equilibrium_voltage
from nemsim.scnet import (Clock, ClockSchedule, CompiledNetwork, Dc, LinearCap,
                          Network, NemsCap, OhmicSwitch, OhmicSwitchState, Phase,
                          SettlingWarning, SimResult, Sine, VSource, apply_parasitics,
                          build_network, islands, simulate, solve_phase)

DEV = get_preset("large").params()
VDC = 10.0


def fig6_network(vin=0.01, freq=None):
    """Basic amplifier wiring: stacked rails at vin +- V_DC, grounded bottoms."""
    net = Network()
    for n in ("gnd", "sp", "sm", "a", "b"):
        net.add_node(n)
    if freq is None:
        net.sources.append(VSource("src_p", "sp", Dc(VDC + vin)))
        net.sources.append(VSource("src_m", "sm", Dc(vin - VDC)))
    else:
        net.sources.append(VSource("src_p", "sp", Sine(vin, freq, offset=VDC)))
        net.sources.append(VSource("src_m", "sm", Sine(vin, freq, offset=-VDC)))
    for name, a, b, ph in (("s_in_a", "sp", "a", "clk"), ("s_in_b", "sm", "b", "clk"),
                           ("s_hold", "a", "b", "clkb")):
        net.switches.append(OhmicSwitch(name, a, b, Clock(ph, VDC),
                                        v_pi=DEV.v_pi, v_po=DEV.v_po))
    net.nems_caps.append(NemsCap("ca", "a", "gnd", DEV))
    net.nems_caps.append(NemsCap("cb", "b", "gnd", DEV))
    return net


def bank_network(m, device_of=lambda: DEV, vin=0.01, drive="gate"):
    """The amplifier with m devices per bank and parasitics on the given drive
    terminal; device_of() gives each beam its device."""
    net = fig6_network(vin=vin)
    net.nems_caps = [NemsCap(f"c{node}_{i}", node, "gnd", device_of())
                     for i in range(m) for node in ("a", "b")]
    return apply_parasitics(net, 1e-15, 1e-15, drive)


def chained(network, phases):
    """solve_phase over the phases, each starting from the previous solution."""
    sols = []
    for ph in phases:
        sols.append(solve_phase(network, ph, sols[-1] if sols else None))
    return sols


class TestClockSchedule:
    def test_phase_layout(self):
        sched = ClockSchedule(100e3, 0.01)
        phases = sched.phases(2 * sched.period)
        assert [p.kind for p in phases[:4]] == ["sample", "dead", "hold", "dead"]
        assert len(phases) == 8
        assert phases[0].clk_on and not phases[0].clkb_on
        assert phases[2].clkb_on and not phases[2].clk_on
        assert math.isclose(phases[0].duration, 4.9e-6)
        assert math.isclose(phases[-1].t_end, 2 * sched.period)

    def test_phase_is_a_named_tuple_with_the_record_repr(self):
        first = ClockSchedule(100e3).phases(1e-5)[0]
        assert repr(first) == ("Phase(index=0, kind='sample', t_start=0.0, "
                               "t_end=4.9000000000000005e-06, clk_on=True, clkb_on=False)")
        assert first == Phase(0, "sample", 0.0, 4.9000000000000005e-06, True, False)
        assert first.duration == first.t_end

    def test_zero_nonoverlap_drops_dead_phases(self):
        phases = ClockSchedule(100e3, 0.0).phases(1e-5)
        assert [p.kind for p in phases] == ["sample", "hold"]

    def test_too_short(self):
        with pytest.raises(InvalidGeometryError):
            ClockSchedule(100e3).phases(5e-6)
        with pytest.raises(InvalidGeometryError):
            ClockSchedule(100e3).phases(0.0)

    def test_phase_count_bounded_before_allocation(self, monkeypatch):
        sched = ClockSchedule(100e3)
        for t_end in (1e300, math.inf):
            with pytest.raises(ConfigError, match="more than 1000000 phases"):
                sched.phases(t_end)
        monkeypatch.setattr(scnet, "MAX_PHASES", 8)
        assert len(sched.phases(2 * sched.period)) == 8
        with pytest.raises(ConfigError):
            sched.phases(3 * sched.period)
        assert len(ClockSchedule(100e3, 0.0).phases(4 * sched.period)) == 8

    def test_phase_sequence_is_one_shared_tuple(self):
        # a gain sweep asks for the same sequence once per amplitude
        sched = ClockSchedule(100e3)
        phases = sched.phases(10 * sched.period)
        assert isinstance(phases, tuple) and len(phases) == 40
        assert sched.phases(10 * sched.period) is phases
        assert ClockSchedule(100e3).phases(10 * sched.period) is phases
        assert ClockSchedule(100e3, 0.02).phases(10 * sched.period) != phases

    def test_bad_params(self):
        with pytest.raises(InvalidGeometryError):
            ClockSchedule(0.0)
        with pytest.raises(InvalidGeometryError):
            ClockSchedule(100e3, 0.5)


class TestBuildNetwork:
    def test_fig6_counts(self):
        desc = {
            "nodes": ["gnd", "sp", "sm", "a", "b"],
            "elements": [
                {"type": "source", "name": "src_p", "node": "sp",
                 "wave": {"kind": "dc", "value": 10.01}},
                {"type": "source", "name": "src_m", "node": "sm",
                 "wave": {"kind": "dc", "value": -9.99}},
                {"type": "switch", "name": "s_in_a", "a": "sp", "b": "a",
                 "drive": {"kind": "clock", "phase": "clk", "high": 10.0},
                 "v_pi": 9.6, "v_po": 6.2},
                {"type": "switch", "name": "s_in_b", "a": "sm", "b": "b",
                 "drive": {"kind": "clock", "phase": "clk", "high": 10.0},
                 "v_pi": 9.6, "v_po": 6.2},
                {"type": "switch", "name": "s_hold", "a": "a", "b": "b",
                 "drive": {"kind": "clock", "phase": "clkb", "high": 10.0},
                 "v_pi": 9.6, "v_po": 6.2},
                {"type": "nems_cap", "name": "ca", "top": "a", "bottom": "gnd",
                 "preset": "large"},
                {"type": "nems_cap", "name": "cb", "top": "b", "bottom": "gnd",
                 "preset": "large"},
            ],
        }
        net = build_network(desc)
        assert len(net.nems_caps) == 2
        assert len(net.switches) == 3
        assert len(net.sources) == 2

    def test_parallel_bank_counts(self):
        elements = [{"type": "source", "name": "s", "node": "sp",
                     "wave": {"kind": "dc", "value": 1.0}}]
        for i in range(10):
            elements.append({"type": "nems_cap", "name": f"ca{i}", "top": "sp",
                             "bottom": "gnd", "preset": "large"})
            elements.append({"type": "nems_cap", "name": f"cb{i}", "top": "sp",
                             "bottom": "gnd", "preset": "large"})
        net = build_network({"nodes": ["gnd", "sp"], "elements": elements})
        assert len(net.nems_caps) == 20

    def test_empty_description_is_no_ground(self):
        with pytest.raises(NetworkError, match="no-ground"):
            build_network({})

    def test_unknown_node(self):
        with pytest.raises(NetworkError, match="unknown-node"):
            build_network({
                "nodes": ["gnd", "n1"],
                "elements": [{"type": "linear_cap", "name": "c1", "a": "n1",
                              "b": "nope", "value": 1e-15}],
            })

    def test_unknown_node_in_a_network_built_by_hand(self):
        net = Network()
        net.add_node("gnd")
        net.linear_caps.append(LinearCap("c1", "gnd", "n1", 1e-15))
        with pytest.raises(NetworkError, match="^unknown-node: element 'c1' references 'n1'"):
            net.validate()

    def test_dangling_node(self):
        with pytest.raises(NetworkError, match="dangling"):
            build_network({
                "nodes": ["gnd", "n1", "orphan"],
                "elements": [{"type": "linear_cap", "name": "c1", "a": "n1",
                              "b": "gnd", "value": 1e-15}],
            })

    def test_self_loop(self):
        with pytest.raises(NetworkError, match="dangling-element"):
            build_network({
                "nodes": ["gnd", "n1"],
                "elements": [{"type": "linear_cap", "name": "c1", "a": "n1",
                              "b": "n1", "value": 1e-15}],
            })


    def test_duplicate_names_rejected(self):
        # charges are keyed by name: the 1 fC on the first "c" would vanish
        net = Network()
        for n in ("gnd", "a", "b"):
            net.add_node(n)
        net.linear_caps += [LinearCap("c", "a", "gnd", 1e-15, q=1e-15),
                            LinearCap("c", "b", "gnd", 1e-15)]
        with pytest.raises(NetworkError, match="duplicate-name: element name 'c'"):
            simulate(net, ClockSchedule(100e3), 1e-5)

    def test_duplicate_names_across_element_kinds(self):
        with pytest.raises(NetworkError, match="duplicate-name: element name 'x'"):
            build_network({
                "nodes": ["gnd", "n1"],
                "elements": [
                    {"type": "source", "name": "x", "node": "n1",
                     "wave": {"kind": "dc", "value": 1.0}},
                    {"type": "switch", "name": "x", "a": "n1", "b": "gnd",
                     "drive": {"kind": "clock", "phase": "clk", "high": 10.0},
                     "v_pi": 9.6, "v_po": 6.2}],
            })


def _small_description():
    """A valid build_network description using every element type and
    waveform kind."""
    return {
        "nodes": ["gnd", "a", "b", "d"],
        "elements": [
            {"type": "source", "name": "v", "node": "a", "wave": {"kind": "dc", "value": 1.0}},
            {"type": "source", "name": "w", "node": "d",
             "wave": {"kind": "sine", "amplitude": 0.1, "freq_hz": 1e3}},
            {"type": "switch", "name": "s", "a": "a", "b": "b",
             "drive": {"kind": "clock", "phase": "clk", "high": 10.0},
             "v_pi": 9.6, "v_po": 6.2},
            {"type": "linear_cap", "name": "c", "a": "b", "b": "gnd", "value": 1e-15},
            {"type": "nems_cap", "name": "n", "top": "b", "bottom": "gnd", "preset": "large"},
        ],
    }


def _top(key, value):
    return lambda d: d.__setitem__(key, value)


def _element(index, key, value, wave=None):
    """Set key on element index, or on its waveform entry wave."""
    def edit(d):
        entry = d["elements"][index]
        (entry[wave] if wave else entry)[key] = value
    return edit


def _inline_device(device):
    """Give the nems_cap an inline device in place of its preset."""
    def edit(d):
        entry = d["elements"][4]
        del entry["preset"]
        entry["device"] = device
    return edit


class TestBuildNetworkBoundary:
    """build_network reads only the keys it knows and only finite numbers;
    every other input is a NetworkError before a network is returned."""

    def test_the_base_description_builds(self):
        net = build_network(_small_description())
        assert [sw.drive for sw in net.switches] == [Clock("clk", 10.0)]
        desc = _small_description()
        _inline_device(DEV)(desc)
        assert build_network(desc).nems_caps[0].device is DEV

    @pytest.mark.parametrize("edit, match", [
        (_top("solver_tl", 1e-12), "unknown-key: description does not read 'solver_tl'"),
        (_top("solver_tol", 1e-12), "unknown-key: description does not read 'solver_tol'"),
        (_top("ground", "gnd"), "unknown-key: description does not read 'ground'"),
        (_element(3, "valu", 1e-15), "unknown-key: linear_cap 'c' does not read 'valu'"),
        (_element(2, "low", 0.0, "drive"), "unknown-key: switch 's' clock waveform does not read 'low'"),
        (_element(4, "device", DEV), "nems_cap 'n': give one of 'preset' or 'device'"),
        (lambda d: d["elements"][3].pop("value"), "missing-key: linear_cap 'c' needs 'value'"),
        (_inline_device({"area": 1e-12}), "nems_cap 'n': device must be a DeviceParams"),
        (_element(0, "value", math.nan, "wave"), r"value = nan is not finite"),
        (_element(0, "value", math.inf, "wave"), r"value = inf is not finite"),
        (_element(0, "value", "one", "wave"), r"value = 'one' is not a number"),
        (_element(1, "offset", -math.inf, "wave"), r"offset = -inf is not finite"),
        (_element(1, "freq_hz", math.nan, "wave"), r"freq_hz = nan is not finite"),
        (_element(2, "high", math.inf, "drive"), r"high = inf is not finite"),
        (_element(2, "v_pi", math.nan), r"switch 's': v_pi = nan is not finite"),
        (_element(2, "r_on", math.inf), r"r_on = inf is not finite"),
        (_element(2, "t_sw", math.nan), r"t_sw = nan is not finite"),
        (_element(3, "value", math.inf), r"linear_cap 'c': value = inf is not finite"),
        (_element(3, "value", 0.0), r"^bad-value: 'c' value = 0.0 must be finite and > 0"),
        (_element(3, "value", -0.0), r"^bad-value: 'c' value = -0.0 must be"),
        (_element(3, "value", -1e-15), r"^bad-value: 'c' value = -1e-15 must be"),
        (_element(2, "r_on", -1), r"^bad-value: switch 's' needs .*, got .*r_on = -1.0,"),
        (_element(2, "r_on", 0), r"^bad-value: switch 's' needs .*r_on = 0.0,"),
        (_element(2, "t_sw", -1), r"^bad-value: switch 's' needs .*switching delay = -1.0"),
        (lambda d: d["elements"][2].update(v_pi=1, v_po=2),
         r"^bad-value: switch 's' needs .*v_pi = 1.0, v_po = 2.0,"),
        (lambda d: d["elements"].append("x"),
         r"^not-a-mapping: element must be a mapping, got 'x'"),
        (_element(2, "drive", "5"),
         r"^not-a-mapping: switch 's' waveform must be a mapping, got '5'"),
        (_element(0, "wave", 5.0),
         r"^not-a-mapping: source 'v' waveform must be a mapping, got 5.0"),
        (_element(0, "kind", "square", "wave"), r"^unknown waveform kind 'square'"),
        (_element(3, "type", "inductor"), r"^unknown element type 'inductor'"),
    ])
    def test_rejected(self, edit, match):
        desc = _small_description()
        edit(desc)
        with pytest.raises(NetworkError, match=match):
            build_network(desc)

    def test_description_that_is_not_a_mapping(self):
        with pytest.raises(NetworkError, match=r"^not-a-mapping: description must be a "):
            build_network(["gnd"])


def _chain(c1, c12, c2, switch=None):
    """gnd - c1 - f1 - c12 - f2 - c2 - gnd, with an optional switch from f1 to
    gnd."""
    net = Network()
    for n in ("gnd", "f1", "f2"):
        net.add_node(n)
    net.linear_caps += [LinearCap("c1", "f1", "gnd", c1, q=1e-15),
                        LinearCap("c12", "f1", "f2", c12),
                        LinearCap("c2", "f2", "gnd", c2)]
    if switch is not None:
        net.switches.append(switch)
    return net


def _switch(**values):
    return OhmicSwitch("s", "f1", "gnd", Clock("clk", 10.0),
                       **{"v_pi": 9.6, "v_po": 6.2, **values})


class TestValueBoundary:
    """Network.validate rejects capacitor, relay and waveform values out of
    range, so hand-built networks fail before any phase is solved (the
    described ones are in TestBuildNetworkBoundary)."""

    @pytest.fixture
    def no_phase_solved(self, monkeypatch):
        def solve(*args):
            raise AssertionError("a phase was solved")

        monkeypatch.setattr(scnet, "solve_phase", solve)

    @pytest.mark.parametrize("values, match", [
        ((0.0, 1e-15, 0.0), r"'c1' value = 0.0 must be finite and > 0"),
        ((-1e-15, 1e-15, 2e-15), r"'c1' value = -1e-15 must be finite and > 0"),
        ((1e-15, 1e-15, 0.0), r"'c2' value = 0.0 must be finite and > 0"),
        ((1e-15, -1e-15, 1e-15), r"'c12' value = -1e-15 must be finite and > 0"),
        ((1e-15, math.nan, 1e-15), r"'c12' value = nan must be finite and > 0"),
        ((math.inf, 1e-15, 1e-15), r"'c1' value = inf must be finite and > 0"),
    ])
    def test_linear_cap_through_simulate(self, no_phase_solved, values, match):
        sched = ClockSchedule(100e3)
        with pytest.raises(NetworkError, match="^bad-value: " + match):
            simulate(_chain(*values), sched, sched.period)

    @pytest.mark.parametrize("values, got", [
        ({"r_on": -1.0}, "v_pi = 9.6, v_po = 6.2, r_on = -1.0, switching delay = 1e-07"),
        ({"r_on": 0.0}, "r_on = 0.0,"),
        ({"r_on": math.nan}, "r_on = nan,"),
        ({"state": OhmicSwitchState(switching_delay=-1.0)}, "switching delay = -1.0"),
        ({"v_pi": 1.0, "v_po": 2.0}, "v_pi = 1.0, v_po = 2.0,"),
        ({"v_po": 9.6}, "v_pi = 9.6, v_po = 9.6,"),
        ({"v_po": 0.0}, "v_pi = 9.6, v_po = 0.0,"),
        ({"v_pi": math.inf}, "v_pi = inf, v_po = 6.2,"),
    ])
    def test_relay_through_simulate(self, no_phase_solved, values, got):
        sched = ClockSchedule(100e3)
        net = _chain(1e-15, 1e-15, 1e-15, _switch(**values))
        with pytest.raises(NetworkError, match=r"^bad-value: switch 's' needs finite values "
                                               r"with 0 < v_po < v_pi, r_on > 0 and switching "
                                               r"delay >= 0, got .*" + re.escape(got)):
            simulate(net, sched, sched.period)

    @pytest.mark.parametrize("wave, got", [
        (Dc(math.nan), "Dc.value = nan"),
        (Sine(math.inf, 1e3), "Sine.amplitude = inf"),
        (Sine(1.0, math.inf), "Sine.freq_hz = inf"),
        (Sine(1.0, 1e3, -math.inf), "Sine.offset = -inf"),
        (Clock("clk", math.nan), "Clock.high = nan"),
    ])
    @pytest.mark.parametrize("holder", ["source", "relay"])
    def test_non_finite_waveform_through_simulate(self, no_phase_solved, wave, got, holder):
        sched = ClockSchedule(100e3)
        if holder == "source":
            net, name = _chain(1e-15, 1e-15, 1e-15), "v"
            net.sources.append(VSource(name, "f1", wave))
        else:
            net, name = _chain(1e-15, 1e-15, 1e-15, OhmicSwitch(
                "s", "f1", "gnd", wave, v_pi=9.6, v_po=6.2)), "s"
        with pytest.raises(NetworkError, match=f"^bad-value: '{name}' {re.escape(got)} "
                                               "must be finite$"):
            simulate(net, sched, sched.period)

    def test_the_accepted_extremes(self):
        sched = ClockSchedule(100e3)
        net = _chain(1e-15, 1e-15, 1e-15, _switch(v_po=1e-3, state=OhmicSwitchState(
            switching_delay=0.0)))
        assert len(simulate(net, sched, sched.period).solutions) == 4


class TestClock:
    def test_rail_is_zero_while_its_phase_is_off(self):
        clk, clkb = Clock("clk", 10.0), Clock("clkb", 10.0)
        volts = [(clk.at(ph.t_end, ph), clkb.at(ph.t_end, ph))
                 for ph in ClockSchedule(100e3).phases(1e-5)]
        assert volts == [(10.0, 0.0), (0.0, 0.0), (0.0, 10.0), (0.0, 0.0)]

    def test_unknown_phase_rejected(self):
        with pytest.raises(NetworkError, match="unknown clock phase 'clk2'"):
            Clock("clk2", 10.0)
        desc = _small_description()
        desc["elements"][2]["drive"]["phase"] = "clk2"
        with pytest.raises(NetworkError, match="unknown clock phase 'clk2'"):
            build_network(desc)


def relay_network(v_gb, state=OhmicSwitchState()):
    """One relay at a DC gate-body voltage, from a 1 V source to a capacitor
    to ground, starting from the given state."""
    net = Network()
    for n in ("gnd", "x", "y"):
        net.add_node(n)
    net.sources.append(VSource("v", "x", Dc(1.0)))
    net.linear_caps.append(LinearCap("c", "y", "gnd", 1e-15))
    net.switches.append(OhmicSwitch("s", "x", "y", Dc(v_gb), v_pi=9.6, v_po=6.2, state=state))
    return net


def relay_phase(t0, t1, index=0):
    return Phase(index, "hold", t0, t1, False, False)


def closes(sol):
    """Whether the relay conducts at the end of sol's phase."""
    return "x+y" in [isl.id for isl in sol.islands]


class TestRelayStateMachine:
    """The relay rules, read back from solve_phase: switch_states holds the
    stepped state, islands the conduction at phase end."""

    def test_off_at_zero(self):
        sol = solve_phase(relay_network(0.0), relay_phase(0.0, 1e-6))
        assert sol.switch_states["s"] == OhmicSwitchState()
        assert not closes(sol)

    def test_turn_on_after_delay(self):
        t0, delay = 1e-6, 100e-9
        for t1, closed in ((t0 + 0.5 * delay, False), (t0 + delay, True)):
            sol = solve_phase(relay_network(10.0), relay_phase(t0, t1))
            assert sol.switch_states["s"] == OhmicSwitchState(True, t0 + delay, delay)
            assert closes(sol) == closed

    @pytest.mark.parametrize("was_on, v_gb, on", [
        (False, 9.6, False), (False, 9.7, True), (False, 7.0, False),
        (True, 6.2, True), (True, 6.1, False), (True, 7.0, True)])
    def test_hysteresis_window(self, was_on, v_gb, on):
        # a toggle needs |v_gb| strictly past v_pi (off) or below v_po (on)
        sol = solve_phase(relay_network(v_gb, OhmicSwitchState(conducting=was_on)),
                          relay_phase(0.0, 1e-6))
        assert sol.switch_states["s"].conducting == on
        assert closes(sol) == on

    def test_turn_off_below_pullout(self):
        on = solve_phase(relay_network(10.0), relay_phase(0.0, 1e-6))
        off = solve_phase(relay_network(5.0), relay_phase(1e-6, 2e-6, 1), on)
        assert closes(on) and not closes(off)
        assert off.switch_states["s"] == OhmicSwitchState(False, 1e-6 + 100e-9, 100e-9)

    def test_negative_gate_voltage_counts(self):
        sol = solve_phase(relay_network(-10.0), relay_phase(0.0, 1e-6))
        assert sol.switch_states["s"].conducting and closes(sol)

    def test_monotone_time_required(self):
        on = solve_phase(relay_network(10.0), relay_phase(1e-6, 2e-6))
        with pytest.raises(InvalidGeometryError, match="switch s: non-monotone time"):
            solve_phase(relay_network(0.0), relay_phase(0.5e-6, 1e-6, 1), on)


class TestRelayColumns:
    """Relay state lives in the run's columns: a conducting flag and a
    transition time per switch, the switching delays per run."""

    def test_switch_states_read_back_as_records(self):
        net = fig6_network()
        sols = chained(CompiledNetwork(net), ClockSchedule(100e3).phases(1e-5))
        sample, hold = sols[0], sols[2]
        assert sample.switch_states["s_in_a"] == OhmicSwitchState(True, 1e-7, 100e-9)
        assert sample.switch_states["s_hold"] == OhmicSwitchState()
        assert hold.switch_states["s_hold"] == OhmicSwitchState(
            True, sols[2].phase.t_start + 100e-9, 100e-9)
        assert not hold.switch_states["s_in_a"].conducting

    def test_prior_with_other_switching_delays_is_rejected(self):
        def net_with(t_sw):
            return build_network({"elements": [
                {"type": "linear_cap", "name": "c", "a": "x", "b": "gnd", "value": 1e-15},
                {"type": "source", "name": "v", "node": "y", "wave": {"kind": "dc", "value": 1.0}},
                {"type": "switch", "name": "s", "a": "x", "b": "y", "t_sw": t_sw,
                 "drive": {"kind": "clock", "phase": "clk", "high": 10.0},
                 "v_pi": 9.6, "v_po": 6.2}]})

        first, second = ClockSchedule(100e3).phases(1e-5)[:2]
        prior = solve_phase(net_with(100e-9), first)
        same = solve_phase(net_with(100e-9), second, prior).switch_states["s"]
        assert same == OhmicSwitchState(False, second.t_start + 100e-9, 100e-9)
        with pytest.raises(NetworkError, match="other nodes, elements or switches"):
            solve_phase(net_with(50e-9), second, prior)


    @pytest.mark.parametrize("row", [4, -5, 100])
    def test_row_out_of_range(self, row):
        rows = simulate(fig6_network(), ClockSchedule(100e3), 1e-5).solutions
        assert len(rows) == 4 and rows[-4].phase == rows[0].phase
        with pytest.raises(IndexError, match="phase row out of range"):
            rows[row]


class TestIslands:
    def test_sample_phase(self):
        net = fig6_network()
        phases = ClockSchedule(100e3).phases(1e-5)
        isles = {i.id: i for i in islands(net, phases[0], (True, True, False))}
        assert "a+sp" in isles and not isles["a+sp"].floating
        assert math.isclose(isles["a+sp"].pinned_voltage, 10.01)
        assert "b+sm" in isles

    def test_hold_phase(self):
        net = fig6_network()
        phases = ClockSchedule(100e3).phases(1e-5)
        isles = {i.id: i for i in islands(net, phases[2], (False, False, True))}
        assert "a+b" in isles and isles["a+b"].floating

    def test_dead_phase_every_node_alone(self):
        net = fig6_network()
        phases = ClockSchedule(100e3).phases(1e-5)
        isles = islands(net, phases[1], (False, False, False))
        assert sorted(i.id for i in isles) == ["a", "b", "gnd", "sm", "sp"]

    def test_pin_conflict(self):
        net = Network()
        for n in ("gnd", "x", "y"):
            net.add_node(n)
        net.sources.append(VSource("s1", "x", Dc(1.0)))
        net.sources.append(VSource("s2", "y", Dc(2.0)))
        net.switches.append(OhmicSwitch("sw", "x", "y", Dc(10.0), v_pi=9.6, v_po=6.2))
        net.linear_caps.append(LinearCap("c", "x", "gnd", 1e-15))
        phase = Phase(0, "sample", 0.0, 1e-6, True, False)
        with pytest.raises(NetworkError, match="pin conflict"):
            islands(net, phase, (True,))

    def test_one_flag_per_switch(self):
        net = fig6_network()
        phase = ClockSchedule(100e3).phases(1e-5)[0]
        with pytest.raises(NetworkError, match="needs 3 conduction flags, one per switch, got 2"):
            islands(net, phase, (True, True))


def float_phase(t0=0.0, t1=1e-6):
    """A phase with no clocks on: everything not source-pinned floats."""
    return Phase(0, "hold", t0, t1, False, False)


class TestSolvePhase:
    def test_two_cap_charge_sharing(self):
        net = Network()
        for n in ("gnd", "n1"):
            net.add_node(n)
        c = 1e-15
        net.linear_caps.append(LinearCap("c1", "n1", "gnd", c, q=3e-15))
        net.linear_caps.append(LinearCap("c2", "n1", "gnd", c, q=1e-15))
        sol = solve_phase(net, float_phase())
        assert math.isclose(sol.node_voltages["n1"], (3e-15 + 1e-15) / (2 * c), rel_tol=1e-14)

    def test_fig7_sequence_gain(self):
        net = fig6_network(vin=0.01)
        sched = ClockSchedule(100e3)
        res = simulate(net, sched, 2 * sched.period)
        hold = res.phases_of_kind("hold")[-1]
        assert abs(hold.node_voltages["a"] - 0.3899) / 0.3899 < 5e-3
        assert hold.node_voltages["a"] == hold.node_voltages["b"]
        # beams latched in sample, released in hold
        sample = res.phases_of_kind("sample")[-1]
        assert sample.beam_states["ca"].latched and sample.beam_states["cb"].latched
        assert not hold.beam_states["ca"].latched

    def test_zero_input_cancels_exactly(self):
        net = fig6_network(vin=0.0)
        sched = ClockSchedule(100e3)
        res = simulate(net, sched, sched.period)
        assert res.phases_of_kind("hold")[-1].node_voltages["a"] == 0.0

    def test_charge_conservation_audit(self):
        net = fig6_network(vin=0.01, freq=1e3)
        sched = ClockSchedule(100e3)
        res = simulate(net, sched, 10 * sched.period)
        assert res.conservation_violations(1e-15) == 0
        assert res.max_conservation_error() == 0.0

    def test_superposition_on_linear_network(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            def build(v1, v2, charges):
                net = Network()
                for n in ("gnd", "p1", "p2", "f1", "f2", "f3"):
                    net.add_node(n)
                net.sources.append(VSource("s1", "p1", Dc(v1)))
                net.sources.append(VSource("s2", "p2", Dc(v2)))
                pairs = [("f1", "p1"), ("f1", "gnd"), ("f2", "p2"), ("f2", "f1"),
                         ("f3", "gnd"), ("f3", "f2"), ("f3", "p1")]
                for i, (a, b) in enumerate(pairs):
                    net.linear_caps.append(
                        LinearCap(f"c{i}", a, b, caps[i], q=charges[i]))
                return net

            caps = rng.uniform(0.5, 5.0, 7) * 1e-15
            q0 = rng.uniform(-1.0, 1.0, 7) * 1e-15
            va, vb = rng.uniform(-5, 5, 2)

            def voltages(v1, v2, charges):
                sol = solve_phase(build(v1, v2, charges), float_phase())
                return np.array([sol.node_voltages[n] for n in ("f1", "f2", "f3")])

            lhs = voltages(2 * va, 2 * vb, 2 * q0)
            rhs = 2 * voltages(va, vb, q0)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
            both = voltages(va, vb, q0) + voltages(vb, va, q0)
            mixed = voltages(va + vb, va + vb, 2 * q0)
            assert np.allclose(both, mixed, rtol=1e-12, atol=1e-12)

    def test_determinism_bit_identical(self):
        def run():
            net = fig6_network(vin=0.01, freq=10e3)
            sched = ClockSchedule(100e3)
            return simulate(net, sched, 5 * sched.period)

        r1, r2 = run(), run()
        for s1, s2 in zip(r1.solutions, r2.solutions):
            assert s1.node_voltages == s2.node_voltages
            assert s1.charges == s2.charges
        assert r1.waveform_csv() == r2.waveform_csv()

    def test_settling_warning(self):
        net = fig6_network()
        for sw in net.switches:
            sw.r_on = 1e12  # absurd on-resistance
        sched = ClockSchedule(100e3)
        with pytest.warns(SettlingWarning):
            res = simulate(net, sched, sched.period)
        assert any("settling-violation" in w for w in res.warnings)

    def test_kvl_element_voltage_is_node_difference(self):
        net = fig6_network(vin=0.01)
        sched = ClockSchedule(100e3)
        res = simulate(net, sched, sched.period)
        for sol in res.solutions:
            for cap in net.nems_caps:
                dv = sol.node_voltages[cap.top] - sol.node_voltages[cap.bottom]
                c = 3.15025443721785e-14 if sol.beam_states[cap.name].latched else None
                qc = sol.charges[cap.name]
                if c is not None:
                    assert math.isclose(qc, c * dv, rel_tol=1e-9)


class TestConservationScale:
    @pytest.mark.parametrize("q_enter", [1e-22, 2.2e-309])
    def test_scaled_by_leaving_plate_charges_too(self, q_enter):
        # island f enters with almost no charge and leaves with ~0.75 fC of
        # cancelling plate charges, whose rounding grid cannot hold q_enter
        net = Network()
        for n in ("gnd", "s", "f"):
            net.add_node(n)
        net.sources.append(VSource("vs", "s", Dc(1.0)))
        net.linear_caps += [LinearCap("c1", "f", "gnd", 1e-15, q=q_enter),
                            LinearCap("c2", "f", "s", 3e-15)]
        res = simulate(net, ClockSchedule(100e3), 1e-5)
        rec = res.solutions[0].conservation[0]
        assert rec.q_before == rec.q_scale == q_enter  # the entering scale alone
        assert abs(rec.q_after - rec.q_before) > 1e-15 * rec.q_scale
        assert res.conservation_violations(1e-15) == 0
        assert res.max_conservation_error() <= 1e-15


class TestNetworkIsReadOnly:
    """The engine threads state through the PhaseSolution chain; the network
    only supplies initial conditions."""

    def test_simulate_twice_on_one_network(self):
        net = fig6_network(vin=0.01, freq=10e3)
        sched = ClockSchedule(100e3)
        first = simulate(net, sched, 3 * sched.period)
        second = simulate(net, sched, 3 * sched.period)
        assert first.waveform_csv() == second.waveform_csv()

    def test_islands_unchanged_by_a_run(self):
        net = fig6_network()
        sched = ClockSchedule(100e3)
        phases = sched.phases(sched.period)
        flags = {"sample": (True, True, False), "hold": (False, False, True),
                 "dead": (False, False, False)}
        before = [islands(net, ph, flags[ph.kind]) for ph in phases]
        simulate(net, sched, 2 * sched.period)
        assert [islands(net, ph, flags[ph.kind]) for ph in phases] == before

    def test_solve_phase_leaves_elements_unchanged(self):
        net = apply_parasitics(fig6_network(), 1e-15, 1e-15, "gate")

        def snapshot():
            return ([(c.q, c.state) for c in net.nems_caps],
                    [c.q for c in net.linear_caps],
                    [sw.state for sw in net.switches])

        before = snapshot()
        sols = []
        for ph in ClockSchedule(100e3).phases(2e-5):
            sols.append(solve_phase(net, ph, sols[-1] if sols else None))
        assert snapshot() == before
        sample, hold = sols[4], sols[6]
        assert sample.switch_states["s_in_a"].conducting
        assert not sample.switch_states["s_hold"].conducting
        assert hold.switch_states["s_hold"].conducting
        assert sample.beam_states["ca"].latched and sample.charges["ca"] != 0.0


class TestConvergenceError:
    def test_names_the_phase_once(self, monkeypatch):
        monkeypatch.setattr(scnet, "_MAX_FIXED_POINT", 1)
        # with parasitics the islands keep the fixed point (no closed form)
        net = apply_parasitics(fig6_network(), 1e-15, 1e-15, "body")
        sched = ClockSchedule(100e3)
        with pytest.raises(ConvergenceError) as exc:
            simulate(net, sched, sched.period)
        msg = str(exc.value)
        assert msg.startswith("phase 1 (dead, t = 4.900000e-06 s): island a ")
        assert msg.count("phase") == 1
        assert exc.value.residual is not None and math.isfinite(exc.value.residual)
        assert exc.value.tolerance == scnet._SOLVER_TOL


class TestUndampedFixedPoint:
    @pytest.mark.parametrize("rail, q_frac, max_iterations", [(-10.0, 0.5, 26),
                                                               (-20.0, 0.2, 10)])
    def test_each_iterate_is_the_plain_solve(self, monkeypatch, rail, q_frac, max_iterations):
        log = []  # (iterate passed in, solve result) per fixed-point iteration
        real = scnet._solve_floating

        def record(part, caps, volts, q_before):
            guess = [volts[k] for k in part.f_islands]
            step = real(part, caps, volts, q_before)
            log.append((guess, [volts[k] for k in part.f_islands]))
            return step

        monkeypatch.setattr(scnet, "_solve_floating", record)
        # island f: a beam to ground holding part of the clamp charge and a
        # released beam to a negative rail, which pulls in as the charge moves
        net = Network()
        for n in ("gnd", "s", "f"):
            net.add_node(n)
        net.sources.append(VSource("vs", "s", Dc(rail)))
        net.nems_caps += [NemsCap("n1", "f", "gnd", DEV, q=q_frac * DEV.q_clamp),
                          NemsCap("n2", "f", "s", DEV)]
        sol = solve_phase(net, ClockSchedule(100e3).phases(1e-5)[0])

        for (_, out), (nxt, _) in zip(log, log[1:]):
            assert nxt == out
        assert 2 < sol.iterations == len(log) <= max_iterations
        rec, = sol.conservation
        if rail == -10.0:
            assert abs(rec.q_after - rec.q_before) <= 1e-15 * max(abs(rec.q_before),
                                                                  rec.q_scale)
        else:
            # the leaving plates, ~3.2e-13 C, cancel to a 4.0e-15 C island sum
            # and round at their own size (3.8e-15 of the entering scale), so
            # this case takes the library metric, whose scale includes them
            assert SimResult(sol._columns).max_conservation_error() <= 1e-15


class TestClosedForm:
    """solve_phase solves a partition whose floating islands are each n like
    beams to one pinned island in closed form, when the beams enter alike."""

    @staticmethod
    def island(displacements):
        """Floating node f on like beams to the 5 V rail r, holding half the
        latching charge per beam; beam j enters at displacements[j]."""
        net = Network()
        for n in ("gnd", "r", "f"):
            net.add_node(n)
        net.sources.append(VSource("vr", "r", Dc(5.0)))
        charge = 0.5 * DEV.q_clamp * len(displacements)  # all on beam 0's plate
        net.nems_caps += [NemsCap(f"c{j}", "f", "r", DEV, BeamState(x, 0.0, False),
                                  0.0 if j else charge)
                          for j, x in enumerate(displacements)]
        return net

    def test_like_beams_entering_alike_take_one_law_call(self, monkeypatch):
        calls = []
        law = scnet.static_equilibrium_charge
        monkeypatch.setattr(scnet, "static_equilibrium_charge",
                            lambda dev, q: calls.append(q) or law(dev, q))
        sol = solve_phase(self.island([0.0, 0.0, 0.0]), ClockSchedule(100e3).phases(1e-5)[1])
        assert sol.iterations == 1
        assert calls == [1.5 * DEV.q_clamp / 3]
        assert len(set(sol.beam_states.values())) == 1

    def test_islands_alike_share_one_law_call(self, monkeypatch):
        """After a hold, the two dead islands of the basic amplifier carry
        equal charges: one charge-law call serves both."""
        calls = []
        law = scnet.static_equilibrium_charge
        monkeypatch.setattr(scnet, "static_equilibrium_charge",
                            lambda dev, q: calls.append(q) or law(dev, q))
        sched = ClockSchedule(100e3)
        topo, prior, per_phase = CompiledNetwork(fig6_network()), None, []
        for ph in sched.phases(2 * sched.period):
            calls.clear()
            prior = solve_phase(topo, ph, prior)
            per_phase.append(len(calls))
        assert per_phase == [0, 2, 1, 1] * 2

    def test_like_beams_entering_unequal_still_iterate(self):
        phase = ClockSchedule(100e3).phases(1e-5)[1]
        alike = solve_phase(self.island([0.0, 0.0]), phase)
        unequal = solve_phase(self.island([0.0, 0.5 * DEV.g_eff / 3]), phase)
        assert alike.iterations == 1
        assert unequal.iterations > 1
        assert math.isclose(unequal.node_voltages["f"], alike.node_voltages["f"],
                            rel_tol=1e-12)

    @pytest.mark.parametrize("charge", [math.inf, math.nan])
    def test_a_non_finite_charge_takes_the_fixed_point(self, monkeypatch, charge):
        monkeypatch.setattr(scnet, "_MAX_FIXED_POINT", 5)
        net = self.island([0.0, 0.0])
        net.nems_caps[0].q = charge
        with pytest.raises(ConvergenceError, match="island f did not converge after 5 "):
            solve_phase(net, ClockSchedule(100e3).phases(1e-5)[1])

    def test_iterations_count_what_was_solved(self):
        """The basic amplifier: 0 iterations where nothing floats (sample),
        1 for the closed-form dead and hold phases; with parasitics the
        islands iterate."""
        sched = ClockSchedule(100e3)
        free = simulate(fig6_network(), sched, 2 * sched.period).solutions
        assert {(ph.kind, it) for ph, it in zip(free.phases, free.iterations)} == {
            ("sample", 0), ("dead", 1), ("hold", 1)}
        loaded = simulate(apply_parasitics(fig6_network(), 1e-15, 1e-15, "gate"), sched,
                          2 * sched.period).solutions
        assert all(it >= 2 for ph, it in zip(loaded.phases, loaded.iterations)
                   if ph.kind != "sample")

    @pytest.mark.parametrize("make, like", [
        (lambda: fig6_network(), True),
        (lambda: bank_network(3), False),  # parasitic capacitors on the islands
    ])
    def test_like_beams_per_partition(self, make, like):
        topo = CompiledNetwork(make())
        sched = ClockSchedule(100e3)
        prior = None
        for ph in sched.phases(sched.period):
            prior = solve_phase(topo, ph, prior)
        for part in topo.columns.partitions:
            assert bool(part.like_beams) == (like and bool(part.f_islands))


class TestSettlingBound:
    """Each compiled network bounds R_on*C once per conduction mask, every
    beam at contact; a phase builds its R_on*C products only above it."""

    def test_no_phase_exceeds_its_bound(self):
        net = fig6_network(vin=0.05, freq=7e3)
        sched = ClockSchedule(100e3)
        topo = CompiledNetwork(net)
        prior = None
        for ph in sched.phases(8 * sched.period):
            prior = solve_phase(topo, ph, prior)
        cols, ns = topo.columns, len(net.switches)
        mask_of = {part: mask for mask, part in topo._by_mask.items()}
        for r, part in enumerate(cols.partition):
            caps = scnet._capacitances(topo, cols.beam_row(r)[0])
            for _, rc in scnet._settling_products(net, part, caps):
                assert rc <= topo.settling_bound[mask_of[part]]
        assert ns and max(topo.settling_bound.values()) > 0.0

    def test_products_only_above_the_bound(self, monkeypatch):
        calls = []
        products = scnet._settling_products
        monkeypatch.setattr(scnet, "_settling_products",
                            lambda *args: calls.append(args) or products(*args))
        sched = ClockSchedule(100e3)
        simulate(fig6_network(freq=7e3), sched, 4 * sched.period)
        assert len(calls) == 3  # one bound per mask: sample, dead, hold
        net = fig6_network(freq=7e3)
        net.switches[2].r_on = 1e9  # the hold switch's bound exceeds 1% of a phase
        calls.clear()
        with pytest.warns(SettlingWarning):
            simulate(net, sched, 4 * sched.period)
        assert len(calls) == 3 + 4  # and each hold phase builds its products

    def test_a_device_with_no_contact_gap_is_unbounded(self):
        """g_eff - g0 rounds to 0 when eps0*A/C_on is below half an ulp of
        g_eff: the bound is infinite, not a ZeroDivisionError."""
        dev = replace(DEV, c_on=1e10)
        assert dev.g_eff - dev.g0 == 0.0
        net = Network()
        for n in ("gnd", "s", "a"):
            net.add_node(n)
        net.sources.append(VSource("vs", "s", Dc(1.0)))
        net.switches.append(OhmicSwitch("sw", "s", "a", Dc(10.0), v_pi=DEV.v_pi, v_po=DEV.v_po))
        net.nems_caps.append(NemsCap("c", "a", "gnd", dev))
        topo = CompiledNetwork(net)
        sched = ClockSchedule(100e3)
        sol = solve_phase(topo, sched.phases(sched.period)[0])
        assert topo.settling_bound == {b"\x01": math.inf}
        assert sol.warnings == () and not sol.beam_states["c"].latched


class TestSineRange:
    def test_overflowing_phase_argument_names_the_source(self, monkeypatch):
        """2*pi*f*t overflows within the run: NetworkError before the first
        phase, not math.sin's bare ValueError mid-run."""
        def solve(*args):
            raise AssertionError("a phase was solved")

        monkeypatch.setattr(scnet, "solve_phase", solve)
        net = build_network({"elements": [
            {"type": "linear_cap", "name": "c", "a": "n", "b": "gnd", "value": 1e-15},
            {"type": "source", "name": "vs", "node": "n",
             "wave": {"kind": "sine", "amplitude": 1.0, "freq_hz": 1e308}}]})
        with pytest.raises(NetworkError, match="^bad-value: source 'vs': 2\\*pi\\*f\\*t overflows"):
            simulate(net, ClockSchedule(100e3), 1e-5)

    def test_overflowing_relay_drive_names_the_switch(self, monkeypatch):
        """A relay's Sine drive reads at phase starts, so its overflow shows
        while the run's relay rows are built: NetworkError before the first
        phase, not math.sin's bare ValueError."""
        def solve(*args):
            raise AssertionError("a phase was solved")

        monkeypatch.setattr(scnet, "solve_phase", solve)
        net = build_network({"elements": [
            {"type": "linear_cap", "name": "c", "a": "n", "b": "gnd", "value": 1e-15},
            {"type": "source", "name": "vs", "node": "s", "wave": {"kind": "dc", "value": 1.0}},
            {"type": "switch", "name": "sw", "a": "s", "b": "n", "v_pi": 9.6, "v_po": 6.2,
             "drive": {"kind": "sine", "amplitude": 20.0, "freq_hz": 1e308}}]})
        with pytest.raises(NetworkError, match="^bad-value: switch 'sw': its drive's "
                                               "2\\*pi\\*f\\*t overflows"):
            simulate(net, ClockSchedule(100e3), 1e-5)

    def test_a_high_finite_argument_runs(self):
        net = build_network({"elements": [
            {"type": "linear_cap", "name": "c", "a": "n", "b": "gnd", "value": 1e-15},
            {"type": "source", "name": "vs", "node": "n",
             "wave": {"kind": "sine", "amplitude": 1.0, "freq_hz": 1e300}}]})
        assert len(simulate(net, ClockSchedule(100e3), 1e-5).solutions) == 4


class TestBeamLawMemo:
    """Within a phase each beam law runs once per distinct (device class,
    drive) key; beams with equal keys share the resulting state."""

    def test_equal_device_objects_give_the_same_solutions(self):
        sched = ClockSchedule(100e3)
        shared = bank_network(10)
        copies = bank_network(10, lambda: replace(DEV))
        assert len({id(cap.device) for cap in copies.nems_caps}) == 20
        assert CompiledNetwork(copies).device_class == (0,) * 20
        want = simulate(shared, sched, 4 * sched.period).solutions
        assert simulate(copies, sched, 4 * sched.period).solutions == want

    def test_law_calls_bounded_by_distinct_keys(self, monkeypatch):
        calls = []
        for name in ("static_equilibrium_charge", "static_equilibrium_voltage"):
            law = getattr(scnet, name)
            monkeypatch.setattr(scnet, name,
                                lambda dev, drive, _law=law, _name=name:
                                calls.append((_name, dev, drive)) or _law(dev, drive))
        sched = ClockSchedule(100e3)
        topo = CompiledNetwork(bank_network(10))
        prior, total = None, 0
        for ph in sched.phases(4 * sched.period):
            calls.clear()
            prior = solve_phase(topo, ph, prior)
            charge = [c for c in calls if c[0] == "static_equilibrium_charge"]
            # each (device, charge) key is seated once; the two banks give
            # at most two keys per iteration, not twenty
            assert len(set(charge)) == len(charge) <= 2 * prior.iterations
            assert len(calls) - len(charge) <= 2  # one voltage per bank
            total += len(calls)
        assert total > 0

    @pytest.mark.parametrize("held_first", [True, False])
    def test_beams_with_different_latch_states_are_not_merged(self, held_first):
        net = Network()
        for n in ("gnd", "s"):
            net.add_node(n)
        # inside the hysteresis window: the latched beam holds, the free one stays free
        net.sources.append(VSource("vs", "s", Dc(0.5 * (DEV.v_pi + DEV.v_po))))
        held = NemsCap("held", "s", "gnd", DEV, state=BeamState(DEV.g0, 0.0, True))
        free = NemsCap("free", "s", "gnd", DEV)
        net.nems_caps += [held, free] if held_first else [free, held]
        sol = solve_phase(net, ClockSchedule(100e3).phases(1e-5)[0])
        assert sol.beam_states["held"] == BeamState(DEV.g0, 0.0, True)
        assert not sol.beam_states["free"].latched

    @pytest.mark.parametrize("minus_first", [True, False])
    def test_signed_zero_drives_give_each_beams_own_state(self, minus_first):
        net = Network()
        for n in ("gnd", "m", "p", "f"):
            net.add_node(n)
        net.sources += [VSource("v_m", "m", Dc(-0.0)), VSource("v_p", "p", Dc(0.0))]
        # vm/vp: voltage-driven at -0.0/+0.0 V; qm/qp: charge-driven at -0.0/+0.0 C
        pairs = [[NemsCap("vm", "m", "gnd", DEV), NemsCap("vp", "p", "gnd", DEV)],
                 [NemsCap("qm", "m", "f", DEV), NemsCap("qp", "f", "gnd", DEV)]]
        for pair in pairs:
            net.nems_caps += pair if minus_first else pair[::-1]
        sol = solve_phase(net, ClockSchedule(100e3).phases(1e-5)[0])
        v = sol.node_voltages
        drives = {"vm": v["m"] - v["gnd"], "vp": v["p"] - v["gnd"],
                  "qm": sol.charges["qm"], "qp": sol.charges["qp"]}
        assert [math.copysign(1.0, d) for d in drives.values()] == [-1.0, 1.0, -1.0, 1.0]
        for name, drive in drives.items():
            law = static_equilibrium_voltage if name[0] == "v" else static_equilibrium_charge
            assert repr(sol.beam_states[name]) == repr(law(DEV, drive))


class TestCompiledNetwork:
    """solve_phase chained over one CompiledNetwork, whose columns hold the
    whole run, against the chain over a plain Network, which is compiled
    per call: every row is the same."""

    SCHED = ClockSchedule(100e3)

    @pytest.mark.parametrize("make, periods", [
        (lambda: fig6_network(vin=0.01), 4),
        (lambda: fig6_network(vin=0.02, freq=10e3), 3),
        (lambda: bank_network(10, vin=0.007), 4),
        (lambda: bank_network(10, vin=-0.012, drive="body"), 4),
    ], ids=["basic-dc", "basic-sine", "gate-bank-m10", "body-bank-m10"])
    def test_matches_the_plain_network_path(self, make, periods):
        phases = self.SCHED.phases(periods * self.SCHED.period)
        want = chained(make(), phases)
        got = chained(CompiledNetwork(make()), phases)
        for g, w in zip(got, want):
            assert g == w
            assert repr(g) == repr(w)
        assert tuple(simulate(make(), self.SCHED, periods * self.SCHED.period).solutions) == tuple(got)

    def test_settling_violations_name_their_own_phase(self):
        net = fig6_network()
        hold_switch, = [sw for sw in net.switches if sw.name == "s_hold"]
        hold_switch.r_on = 1e9  # R_on*C ~ 1e-5 s against 1% of a 4.9 us phase
        phases = self.SCHED.phases(4 * self.SCHED.period)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = chained(net, phases)
        assert len(caught) == 4
        topo = CompiledNetwork(net)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = chained(topo, phases)
        holds = [sol.phase.index for sol in got if sol.phase.kind == "hold"]
        assert [w.category for w in caught] == [SettlingWarning] * len(holds)
        assert [str(w.message) for w in caught] == [
            note for sol in got for note in sol.warnings]
        for sol, ref in zip(got, want):
            assert sol.warnings == ref.warnings
            if sol.phase.kind == "hold":
                note, = sol.warnings
                assert note.startswith("settling-violation: switch s_hold ")
                assert note.endswith(f"exceeds 1% of phase {sol.phase.index}")
            else:
                assert sol.warnings == ()

    def test_replace_copies_the_whole_row(self):
        net = fig6_network()
        net.switches[2].r_on = 1e9  # the hold phase carries a settling note
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SettlingWarning)
            hold = chained(net, self.SCHED.phases(self.SCHED.period))[2]
        assert hold.phase.kind == "hold" and hold.warnings
        assert hold.switch_states["s_hold"].last_transition_time > 0.0
        same = hold.replace()
        assert same == hold and repr(same) == repr(hold)
        moved = hold.replace(charges={"ca": 1e-15})
        assert moved.charges == {**hold.charges, "ca": 1e-15}
        for field in ("phase", "node_voltages", "beam_states", "switch_states",
                      "iterations", "warnings"):
            assert getattr(moved, field) == getattr(hold, field)

    @staticmethod
    def beam_on_a_floating_node():
        """A beam and a charged linear capacitor from one floating node to ground."""
        net = Network()
        for n in ("gnd", "f"):
            net.add_node(n)
        net.linear_caps.append(LinearCap("c", "f", "gnd", 1e-15, q=1e-15))
        net.nems_caps.append(NemsCap("n", "f", "gnd", DEV))
        return net

    @pytest.mark.parametrize("reverse", [False, True])
    def test_signed_zeros_do_not_share_an_entry(self, reverse):
        net = self.beam_on_a_floating_node()
        first, second = self.SCHED.phases(self.SCHED.period)[:2]
        topo = CompiledNetwork(net)
        start = solve_phase(topo, first)
        # the charge of c entering the second phase
        variants = [0.0, -0.0]
        for q in variants[::-1] if reverse else variants:
            prior = start.replace(charges={"n": start.charges["n"], "c": q})
            assert repr(solve_phase(topo, second, prior)) == repr(
                solve_phase(net, second, prior))

    def test_a_failed_solve_leaves_its_prior_intact(self, monkeypatch):
        """The next phase takes over the last row's lists and rewrites them:
        a solve that raises part way must not leave them to the next try.
        The clock rail drops at the second phase, so its beam moves."""
        net = self.beam_on_a_floating_node()
        net.add_node("clk")
        net.sources.append(VSource("v_clk", "clk", Clock("clk", 5.0)))
        net.linear_caps.append(LinearCap("cc", "clk", "f", 1e-15))
        first, second = self.SCHED.phases(self.SCHED.period)[:2]
        topo = CompiledNetwork(net)
        start = solve_phase(topo, first)
        with monkeypatch.context() as patch:
            patch.setattr(scnet, "_MAX_FIXED_POINT", 1)
            with pytest.raises(ConvergenceError):
                solve_phase(topo, second, start)
        want = solve_phase(net, second, solve_phase(net, first))
        assert repr(solve_phase(topo, second, start)) == repr(want)
        assert repr(solve_phase(topo, second, start)) == repr(want)

    def test_beam_velocity_is_not_state(self):
        net = self.beam_on_a_floating_node()
        first, second = self.SCHED.phases(self.SCHED.period)[:2]
        topo = CompiledNetwork(net)
        start = solve_phase(topo, first)
        beam = start.beam_states["n"]
        assert beam.velocity == 0.0
        priors = [start.replace(beam_states={
            "n": BeamState(beam.displacement, velocity, beam.latched)}) for velocity in (0.0, 3.0)]
        assert priors[0] == priors[1]
        sols = [solve_phase(topo, second, prior) for prior in priors]
        assert sols[0] == sols[1] and repr(sols[0]) == repr(sols[1])


class TestRelayRows:
    """simulate computes its relays' rows once for the run; solve_phase reads
    a row only for the run's next phase."""

    SCHED = ClockSchedule(100e3)

    def test_rows_serve_only_the_runs_next_phase(self):
        net = fig6_network()
        phases = self.SCHED.phases(self.SCHED.period)
        topo = CompiledNetwork(net)
        topo.relay_rows = scnet._relay_rows(topo.relays, phases, [sw.state for sw in net.switches])
        first, plain = solve_phase(topo, phases[0]), solve_phase(net, phases[0])
        want = repr(solve_phase(net, phases[2], plain))
        # from the last row to a phase past the next; then to the next
        # phase, whose row steps the relays through phase 1, from an earlier row
        assert repr(solve_phase(topo, phases[2], first)) == want
        assert len(topo.columns) == 2
        assert repr(solve_phase(topo, phases[2], first)) == want

    def test_runs_apart_in_a_signed_zero_share_no_rows(self):
        """A relay that never toggles keeps its entering transition time in
        every row, sign of zero included."""
        def make(when):
            net = fig6_network()
            net.add_node("x")
            net.linear_caps.append(LinearCap("cx", "x", "gnd", 1e-15))
            net.switches.append(OhmicSwitch("s_dc", "x", "gnd", Dc(VDC), v_pi=DEV.v_pi,
                                            v_po=DEV.v_po, state=OhmicSwitchState(True, when)))
            return net

        phases = self.SCHED.phases(3 * self.SCHED.period)
        for when in (0.0, -0.0):
            got = simulate(make(when), self.SCHED, 3 * self.SCHED.period).solutions
            assert {math.copysign(1.0, sol.switch_states["s_dc"].last_transition_time)
                    for sol in got} == {math.copysign(1.0, when)}
            for g, w in zip(got, chained(make(when), phases), strict=True):
                assert repr(g) == repr(w)


class TestPeriodicFill:
    """simulate writes the periodic steady state of a DC run in bulk once a
    clock period leaves the state the one before left."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        solve = scnet.solve_phase
        monkeypatch.setattr(scnet, "solve_phase",
                            lambda *args: calls.append(args[1]) or solve(*args))
        return calls

    def test_a_dc_bank_solves_its_first_periods_only(self, monkeypatch):
        sched = ClockSchedule(100e3)
        calls = self.counted(monkeypatch)
        run = simulate(bank_network(100), sched, 50 * sched.period)
        assert len(run.solutions) == 200
        assert len(calls) <= 8

    def test_a_sine_run_solves_every_phase(self, monkeypatch):
        sched = ClockSchedule(100e3)
        calls = self.counted(monkeypatch)
        run = simulate(fig6_network(freq=10e3), sched, 10 * sched.period)
        assert calls == list(sched.phases(10 * sched.period)) == list(run.solutions.phases)

    @pytest.mark.parametrize("sched, t_sw", [
        (ClockSchedule(100e3, 0.01), None),
        (ClockSchedule(100e3, 0.2), None),
        (ClockSchedule(1e6, 0.05), None),
        (ClockSchedule(100e3, 0.01), 2e-7),
    ], ids=["dead-1pct", "dead-20pct", "1MHz-dead-5pct", "delay-past-the-dead-phase"])
    def test_matches_the_plain_network_path(self, monkeypatch, sched, t_sw):
        """A switching delay equal to the non-overlap interval lands each
        toggle on a phase boundary (the conduction test's slack); a longer
        one leaves the sampling relays conducting through the dead phase."""
        def make():
            net = bank_network(3, vin=-0.011)
            for sw in net.switches:
                sw.state = OhmicSwitchState(
                    switching_delay=sched.nonoverlap_frac * sched.period if t_sw is None else t_sw)
            return net

        phases = sched.phases(12 * sched.period)
        want = chained(make(), phases)
        calls = self.counted(monkeypatch)
        got = simulate(make(), sched, 12 * sched.period).solutions
        assert len(calls) < len(phases)
        for g, w in zip(got, want, strict=True):
            assert g == w
            assert repr(g) == repr(w)

    def test_a_relay_that_closes_after_the_state_repeats(self, monkeypatch):
        """A DC-driven relay closes at phase 0 and conducts from 7.3 periods
        on, at the end of phase 28, long after the run turned periodic: the
        fill stops there, and again once the new state repeats."""
        def make():
            net = fig6_network()
            net.add_node("x")
            net.linear_caps.append(LinearCap("cx", "x", "gnd", 1e-15))
            net.switches.append(OhmicSwitch(
                "s_late", "a", "x", Dc(VDC), v_pi=DEV.v_pi, v_po=DEV.v_po,
                state=OhmicSwitchState(switching_delay=7.3 * sched.period)))
            return net

        sched = ClockSchedule(100e3)
        phases = sched.phases(12 * sched.period)
        want = chained(make(), phases)
        calls = self.counted(monkeypatch)
        got = simulate(make(), sched, 12 * sched.period).solutions
        assert [ph.index for ph in calls] == [0, 1, 2, 3, 4, 28, 29, 30, 31, 32]
        for g, w in zip(got, want, strict=True):
            assert repr(g) == repr(w)

    def test_a_sine_driven_relay_commanded_long_before_it_conducts(self, monkeypatch):
        """A relay on a slow sine is commanded to close at ~4.9 periods and
        conducts 3 periods later: its flag changes while its mask does not,
        so the fill stops at the command and again at the conduction."""
        def make():
            net = fig6_network()
            net.add_node("x")
            net.linear_caps.append(LinearCap("cx", "x", "gnd", 1e-15))
            net.switches.append(OhmicSwitch(
                "s_sine", "a", "x", Sine(10.0, sched.f_clk / 24), v_pi=DEV.v_pi, v_po=DEV.v_po,
                state=OhmicSwitchState(switching_delay=3 * sched.period)))
            return net

        sched = ClockSchedule(100e3)
        phases = sched.phases(12 * sched.period)
        want = chained(make(), phases)
        calls = self.counted(monkeypatch)
        got = simulate(make(), sched, 12 * sched.period).solutions
        flags = [sol.switch_states["s_sine"].conducting for sol in got]
        commanded = flags.index(True)
        conducting = next(r for r, sol in enumerate(got)
                          if any({"a", "x"} <= set(isl.id.split("+")) for isl in sol.islands))
        assert 18 <= commanded < conducting - 8
        assert phases[commanded] in calls and len(calls) < len(phases) // 2
        for g, w in zip(got, want, strict=True):
            assert repr(g) == repr(w)

    def test_a_late_non_monotone_time_is_raised(self, monkeypatch):
        """With a 1e11 s switching delay, t + delay - delay rounds to a
        multiple of 2**-16 s, so a relay's last crossing can read later than
        the next phase's start: the first time that happens is phase 33,
        well inside the periodic state, and simulate raises there as the
        plain chain does."""
        def make():
            net = Network()
            for n in ("gnd", "s", "f"):
                net.add_node(n)
            net.sources.append(VSource("v", "s", Dc(1.0)))
            net.linear_caps.append(LinearCap("c", "f", "gnd", 1e-15))
            net.switches.append(OhmicSwitch("sw", "s", "f", Clock("clk", 10.0), v_pi=9.6,
                                            v_po=6.2, state=OhmicSwitchState(switching_delay=1e11)))
            return net

        sched = ClockSchedule(1e6)
        phases = sched.phases(40 * sched.period)
        with pytest.raises(InvalidGeometryError, match="non-monotone time") as want:
            chained(make(), phases)
        calls = self.counted(monkeypatch)
        with pytest.raises(InvalidGeometryError, match=re.escape(str(want.value))):
            simulate(make(), sched, 40 * sched.period)
        assert calls[-1] is phases[33] and len(calls) < 20

    def test_settling_warnings_of_filled_phases(self):
        def make():
            net = fig6_network()
            net.switches[2].r_on = 1e9  # s_hold violates in every hold phase
            return net

        sched = ClockSchedule(100e3)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            chained(make(), sched.phases(10 * sched.period))
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            simulate(make(), sched, 10 * sched.period)
        assert len(want) == 10
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        # attributed to a line of simulate, as when solve_phase warns from it
        lines, first = inspect.getsourcelines(scnet.simulate)
        assert {w.filename for w in got} == {scnet.__file__}
        assert all(first <= w.lineno < first + len(lines) for w in got)

    def test_settling_on_repeats_at_bank_scale(self, monkeypatch):
        """Every closed switch of an m = 10 bank violates the settling check
        in every phase: each filled phase warns once per closed switch, in
        phase order, with its own phase index."""
        def make():
            net = bank_network(10)
            for sw in net.switches:
                sw.r_on = 1e9
            return net

        sched = ClockSchedule(100e3)
        phases = sched.phases(12 * sched.period)
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = chained(make(), phases)
        net = make()
        calls = self.counted(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = simulate(net, sched, 12 * sched.period).solutions
        assert [ph.index for ph in calls] == [0, 1, 2, 3, 4]
        # two sampling relays and one hold relay closed per period
        assert [w.category for w in caught] == [SettlingWarning] * 36
        assert [str(w.message) for w in caught] == [str(w.message) for w in want_warned]
        assert [str(w.message) for w in caught] == [note for sol in got for note in sol.warnings]
        closed = {"sample": ["s_in_a", "s_in_b"], "dead": [], "hold": ["s_hold"]}
        for sol, ref in zip(got, want, strict=True):
            assert repr(sol) == repr(ref)
            assert [re.match(r"settling-violation: switch (\w+) ", note)[1]
                    for note in sol.warnings] == closed[sol.phase.kind]
            for note in sol.warnings:
                assert note.endswith(f"exceeds 1% of phase {sol.phase.index}")
                sw, = [sw for sw in net.switches if f" {sw.name} " in note]
                rc = float(re.search(r"R_on\*C = (\S+) s", note)[1])
                c = self.island_capacitance(net, sol, {sw.a, sw.b})
                assert math.isclose(rc, sw.r_on * c, rel_tol=1e-3)

    @staticmethod
    def island_capacitance(net, sol, nodes):
        """Capacitance on an island, once per plate on it, with the beams at
        sol's displacements."""
        c = 0.0
        for cap in net.nems_caps:
            x = sol.beam_states[cap.name].displacement
            plates = (cap.top in nodes) + (cap.bottom in nodes)
            c += plates * EPS0 * cap.device.area / (cap.device.g_eff - x)
        for cap in net.linear_caps:
            c += ((cap.a in nodes) + (cap.b in nodes)) * cap.value
        return c


class TestFloatingGroup:
    def test_group_without_path_to_a_pinned_island(self):
        net = Network()
        for n in ("gnd", "f1", "f2"):
            net.add_node(n)
        net.linear_caps.append(LinearCap("c", "f1", "f2", 1e-15))
        sched = ClockSchedule(100e3)
        with pytest.raises(NetworkError, match="^floating-group: islands f1, f2 "):
            simulate(net, sched, sched.period)
        with pytest.raises(NetworkError, match="floating-group"):
            solve_phase(net, sched.phases(sched.period)[0])

    def test_coupling_that_rounds_the_path_to_ground_away(self):
        # c12 + c1 == c12 in floating point, so the second pivot is zero
        net = _chain(1e-30, 1e-12, 1e-30)
        sched = ClockSchedule(100e3)
        with pytest.raises(NetworkError, match="^floating-group: the charge balance of "
                                               "island f2 is singular in floating point"):
            simulate(net, sched, sched.period)

    def test_isolated_island_keeps_its_guess(self):
        # y touches only an open switch; f1 and f2 are coupled to ground
        net = Network()
        for n in ("gnd", "f1", "f2", "y"):
            net.add_node(n)
        net.linear_caps += [LinearCap("c1", "f1", "gnd", 2e-15, q=1e-15),
                            LinearCap("c12", "f1", "f2", 1e-15),
                            LinearCap("c2", "f2", "gnd", 3e-15)]
        net.switches.append(OhmicSwitch("sw", "f1", "y", Dc(0.0), v_pi=9.6, v_po=6.2))
        sched = ClockSchedule(100e3)
        res = simulate(net, sched, sched.period)
        for sol in res.solutions:
            assert sol.node_voltages["y"] == 0.0
            assert sol.node_voltages["f1"] > sol.node_voltages["f2"] > 0.0
        assert res.max_conservation_error() <= 1e-15


class TestPartitionCache:
    """Partitions are built once per switch-conduction mask; values that vary
    phase to phase (source voltages, pin conflicts) are still evaluated per
    phase."""

    def test_islands_match_islands_function_every_phase(self):
        net = apply_parasitics(fig6_network(vin=0.02, freq=7e3), 1e-15, 1e-15, "gate")
        sched = ClockSchedule(100e3)
        topo = CompiledNetwork(net)
        sols = chained(topo, sched.phases(6 * sched.period))
        assert len({tuple(i.id for i in sol.islands) for sol in sols}) == 3
        mask_of = {part: mask for mask, part in topo._by_mask.items()}
        for r, sol in enumerate(sols):
            expected = islands(net, sol.phase, mask_of[topo.columns.partition[r]])
            assert [i.id for i in sol.islands] == [i.id for i in expected]
            for got, want in zip(sol.islands, expected):
                assert got.floating == want.floating
                if not want.floating:
                    assert got.voltage == want.pinned_voltage

    def test_pin_conflict_in_a_later_phase_with_a_cached_mask(self):
        phases = ClockSchedule(100e3).phases(1e-5)
        sine = Sine(0.5, 1e3, offset=1.0)
        net = Network()
        for n in ("gnd", "x", "y"):
            net.add_node(n)
        net.sources.append(VSource("s_sine", "x", sine))
        # equal to the sine at the end of phase 0 only
        net.sources.append(VSource("s_dc", "y", Dc(sine.at(phases[0].t_end, phases[0]))))
        net.switches.append(OhmicSwitch("sw", "x", "y", Dc(10.0), v_pi=9.6, v_po=6.2))
        net.linear_caps.append(LinearCap("c", "x", "gnd", 1e-15))
        topo = CompiledNetwork(net)
        first = solve_phase(topo, phases[0])
        assert first.switch_states["sw"].conducting
        with pytest.raises(NetworkError, match=r"pin conflict in island x\+y"):
            solve_phase(topo, phases[1], first)
        with pytest.raises(NetworkError, match="pin conflict"):
            simulate(net, ClockSchedule(100e3), 1e-5)

    def test_pin_conflict_on_a_shape_compiled_without_one(self, monkeypatch):
        def shorted(v_y):
            net = Network()
            for n in ("gnd", "x", "y"):
                net.add_node(n)
            net.sources += [VSource("s_x", "x", Dc(1.0)), VSource("s_y", "y", Dc(v_y))]
            net.switches.append(OhmicSwitch("sw", "x", "y", Dc(10.0), v_pi=9.6, v_po=6.2))
            net.linear_caps.append(LinearCap("c", "x", "gnd", 1e-15))
            return net

        first = ClockSchedule(100e3).phases(1e-5)[0]
        monkeypatch.setattr(scnet, "_PARTITIONS", {})
        with pytest.raises(NetworkError) as fresh:
            solve_phase(shorted(2.0), first)
        assert not scnet._PARTITIONS
        solve_phase(shorted(1.0), first)  # the same shape, both sources at 1 V
        assert len(scnet._PARTITIONS) == 1
        # a source name is part of the shape: it names the conflict
        renamed = shorted(2.0)
        renamed.sources[1].name = "s_z"
        with pytest.raises(NetworkError, match=r"^pin conflict in island x\+y: s_x=1.0, s_z=2.0$"):
            solve_phase(renamed, first)
        monkeypatch.setattr(scnet, "islands", lambda *args: pytest.fail("partition rebuilt"))
        with pytest.raises(NetworkError) as reused:
            solve_phase(shorted(2.0), first)
        assert str(fresh.value) == "pin conflict in island x+y: s_x=1.0, s_y=2.0"
        assert str(reused.value) == str(fresh.value)

    @staticmethod
    def _reshaped(change):
        """fig6_network with one part of its shape changed."""
        net = fig6_network()
        if change == "node order":
            net.nodes.reverse()
        elif change == "plates":
            net.nems_caps[0] = NemsCap("ca", "gnd", "a", DEV)
        elif change == "device class":
            net.nems_caps[1] = NemsCap("cb", "b", "gnd", replace(DEV, k=1.5 * DEV.k))
        elif change == "switch terminals":
            net.switches[2] = replace(net.switches[2], b="gnd")
        elif change == "source nodes":
            net.sources = [replace(src, node=node)
                           for src, node in zip(net.sources, ("sm", "sp"))]
        return net

    @pytest.mark.parametrize("change", ["node order", "plates", "device class",
                                        "switch terminals", "source nodes"])
    def test_each_part_of_the_shape_keys_the_partitions(self, monkeypatch, change):
        sched = ClockSchedule(100e3)
        monkeypatch.setattr(scnet, "_PARTITIONS", {})
        simulate(fig6_network(), sched, 2 * sched.period)
        after_other_shape = simulate(self._reshaped(change), sched, 2 * sched.period)
        monkeypatch.setattr(scnet, "_PARTITIONS", {})
        fresh = simulate(self._reshaped(change), sched, 2 * sched.period)
        assert [repr(s) for s in after_other_shape.solutions] == [
            repr(s) for s in fresh.solutions]
        assert after_other_shape.waveform_csv() == fresh.waveform_csv()

    def test_shapes_share_partitions_up_to_a_bound(self, monkeypatch):
        monkeypatch.setattr(scnet, "_PARTITIONS", {})
        monkeypatch.setattr(scnet, "_MAX_PARTITIONS", 4)
        sched = ClockSchedule(100e3)
        for m in (1, 2, 3):  # three shapes, three masks each
            simulate(bank_network(m), sched, sched.period)
            assert len(scnet._PARTITIONS) == min(3 * m, 4)
        # the newest shape's partitions are kept, so a run of it builds none
        built = len(scnet._PARTITIONS)
        sols = simulate(bank_network(3, vin=0.05), sched, sched.period).solutions
        assert len(scnet._PARTITIONS) == built and len(sols.partitions) == 3
        assert all(part in scnet._PARTITIONS.values() for part in sols.partitions)

    def test_coupled_floating_chain_solves_the_full_system(self):
        c1, c12, c2 = 2e-15, 1e-15, 3e-15
        q1, q12, q2 = 1.5e-15, -0.4e-15, 0.7e-15
        net = Network()
        for n in ("gnd", "f1", "f2"):
            net.add_node(n)
        net.linear_caps += [LinearCap("c1", "f1", "gnd", c1, q=q1),
                            LinearCap("c12", "f1", "f2", c12, q=q12),
                            LinearCap("c2", "f2", "gnd", c2, q=q2)]
        sched = ClockSchedule(100e3)
        res = simulate(net, sched, sched.period)
        # one partition, whose one floating-floating link is c12 (capacitor 1)
        # between f1 and f2 (floating indices 0 and 1)
        assert [part.f_links for part in res.solutions.partitions] == [((1, 0, 1),)]
        # closed-form charge sharing of the two island charges
        qa, qb = q1 + q12, q2 - q12
        det = (c1 + c12) * (c2 + c12) - c12 * c12
        v1 = (qa * (c2 + c12) + c12 * qb) / det
        v2 = (qb * (c1 + c12) + c12 * qa) / det
        for sol in res.solutions:
            assert math.isclose(sol.node_voltages["f1"], v1, rel_tol=1e-12)
            assert math.isclose(sol.node_voltages["f2"], v2, rel_tol=1e-12)
        assert res.max_conservation_error() <= 1e-15

    def test_uncoupled_islands_solve_by_division(self):
        sched = ClockSchedule(100e3)
        res = simulate(apply_parasitics(fig6_network(), 1e-15, 1e-15, "gate"), sched,
                       2 * sched.period)
        partitions = res.solutions.partitions
        assert len(partitions) == 3 and not any(part.f_links for part in partitions)
        assert res.max_conservation_error() == 0.0


class TestWaveformOutputs:
    def test_waveform_csv_header_and_zoh(self):
        net = fig6_network()
        sched = ClockSchedule(100e3)
        res = simulate(net, sched, sched.period)
        lines = res.waveform_csv().strip().split("\n")
        assert lines[0].startswith("t_s,phase,vA_V,vB_V")
        assert len(lines) == 1 + 2 * len(res.solutions)

    def test_waveform_csv_is_the_per_value_formatting(self):
        net = apply_parasitics(fig6_network(vin=0.02, freq=7e3), 1e-15, 1e-15, "gate")
        sched = ClockSchedule(100e3)
        res = simulate(net, sched, 3 * sched.period)
        names = ["a", "b", *sorted(n for n in net.nodes if n not in ("a", "b"))]
        want = ["t_s,phase," + ",".join(f"v{n.upper()}_V" for n in names)]
        for sol in res.solutions:
            values = "".join(f",{format_float(sol.node_voltages[n])}" for n in names)
            for t in (sol.phase.t_start, sol.phase.t_end):
                want.append(f"{format_float(t)},{sol.phase.kind}{values}")
        assert res.waveform_csv() == "\n".join(want) + "\n"
        for x in (0.0, -0.0, 5e-324, -1.5e-300, 1e308, math.inf, -math.inf, math.nan, 1 / 3):
            assert FLOAT_FORMAT % x == format_float(x)

    def test_islands_csv(self):
        net = fig6_network()
        sched = ClockSchedule(100e3)
        res = simulate(net, sched, sched.period)
        lines = res.islands_csv().strip().split("\n")
        assert lines[0] == "t_s,island_id,q_C,v_V"
        assert any(",a+b," in ln for ln in lines)


class TestParasitics:
    def test_zero_values_identical(self):
        net = fig6_network()
        before = len(net.linear_caps)
        apply_parasitics(net, 0.0, 0.0, "gate")
        assert len(net.linear_caps) == before

    def test_gate_driven_adds_rails_and_caps(self):
        net = fig6_network()
        apply_parasitics(net, 1e-15, 1e-15, "gate")
        assert "clk" in net.nodes and "clkb" in net.nodes
        # 2 c_gc per switch + 1 c_gb per switch
        assert len(net.linear_caps) == 9

    def test_gate_driven_lowers_hold_gain(self):
        ideal = fig6_network(vin=0.01)
        sched = ClockSchedule(100e3)
        v_ideal = simulate(ideal, sched, 2 * sched.period).phases_of_kind("hold")[-1]
        noisy = apply_parasitics(fig6_network(vin=0.01), 1e-15, 1e-15, "gate")
        v_noisy = simulate(noisy, sched, 2 * sched.period).phases_of_kind("hold")[-1]
        assert v_noisy.node_voltages["a"] < v_ideal.node_voltages["a"]

    def test_body_driven_caps_go_to_ground(self):
        net = fig6_network()
        apply_parasitics(net, 0.0, 1e-15, "body")
        assert all(c.a == "gnd" for c in net.linear_caps if c.name.startswith("cgc"))

    def test_negative_rejected(self):
        with pytest.raises(NetworkError):
            apply_parasitics(fig6_network(), -1e-15, 0.0, "gate")

    @pytest.mark.parametrize("edit, terminal, match", [
        (lambda net: None, "drain", "unknown drive terminal 'drain'"),
        (lambda net: setattr(net.switches[2], "drive", Dc(VDC)), "gate",
         "parasitics need clock-driven switches"),
    ], ids=["unknown-terminal", "dc-driven-switch"])
    def test_rejected(self, edit, terminal, match):
        net = fig6_network()
        edit(net)
        with pytest.raises(NetworkError, match=match):
            apply_parasitics(net, 1e-15, 1e-15, terminal)
