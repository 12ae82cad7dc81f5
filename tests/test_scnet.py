import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nemsim import scnet
from nemsim.device import get_preset
from nemsim.errors import ConfigError, ConvergenceError, InvalidGeometryError, NetworkError
from nemsim.ioutil import FLOAT_FORMAT, format_float
from nemsim.mech import BeamState, static_equilibrium_charge, static_equilibrium_voltage
from nemsim.scnet import (Clock, ClockSchedule, CompiledNetwork, Dc, LinearCap,
                          Network, NemsCap, OhmicSwitch, OhmicSwitchState, Phase,
                          SettlingWarning, Sine, VSource, apply_parasitics,
                          build_network, islands, simulate, solve_phase,
                          step_switch, switch_is_conducting)

DEV = get_preset("large").params()
VDC = 10.0


def fig6_network(vin=0.01, freq=None, solver_tol=1e-12):
    """Basic amplifier wiring: stacked rails at vin +- V_DC, grounded bottoms."""
    net = Network(solver_tol=solver_tol)
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


class TestStepSwitch:
    def test_off_at_zero(self):
        sw = OhmicSwitch("s", "a", "b", Dc(0.0), v_pi=9.6, v_po=6.2)
        st = step_switch(sw, 0.0, 0.0)
        assert not st.conducting

    def test_turn_on_after_delay(self):
        sw = OhmicSwitch("s", "a", "b", Dc(0.0), v_pi=9.6, v_po=6.2)
        st = step_switch(sw, 10.0, 1e-6)
        assert st.conducting
        assert not switch_is_conducting(st, 1e-6 + 0.5 * st.switching_delay)
        assert switch_is_conducting(st, 1e-6 + st.switching_delay)

    def test_hysteresis_window(self):
        sw = OhmicSwitch("s", "a", "b", Dc(0.0), v_pi=9.6, v_po=6.2)
        sw.state = step_switch(sw, 10.0, 0.0)
        # between thresholds: no toggle either way
        assert step_switch(sw, 7.0, 1e-6).conducting
        sw.state = OhmicSwitchState(conducting=False)
        assert not step_switch(sw, 7.0, 2e-6).conducting

    def test_turn_off_below_pullout(self):
        sw = OhmicSwitch("s", "a", "b", Dc(0.0), v_pi=9.6, v_po=6.2)
        sw.state = step_switch(sw, 10.0, 0.0)
        st = step_switch(sw, 5.0, 1e-6)
        assert not st.conducting

    def test_negative_gate_voltage_counts(self):
        sw = OhmicSwitch("s", "a", "b", Dc(0.0), v_pi=9.6, v_po=6.2)
        assert step_switch(sw, -10.0, 0.0).conducting

    def test_monotone_time_required(self):
        sw = OhmicSwitch("s", "a", "b", Dc(0.0), v_pi=9.6, v_po=6.2)
        sw.state = step_switch(sw, 10.0, 1e-6)
        with pytest.raises(InvalidGeometryError):
            step_switch(sw, 0.0, 0.5e-6)


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


class TestIslands:
    def test_sample_phase(self):
        net = fig6_network()
        phases = ClockSchedule(100e3).phases(1e-5)
        isles = {i.id: i for i in islands(net, phases[0])}
        assert "a+sp" in isles and not isles["a+sp"].floating
        assert math.isclose(isles["a+sp"].pinned_voltage, 10.01)
        assert "b+sm" in isles

    def test_hold_phase(self):
        net = fig6_network()
        phases = ClockSchedule(100e3).phases(1e-5)
        isles = {i.id: i for i in islands(net, phases[2])}
        assert "a+b" in isles and isles["a+b"].floating

    def test_dead_phase_every_node_alone(self):
        net = fig6_network()
        phases = ClockSchedule(100e3).phases(1e-5)
        isles = islands(net, phases[1])
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
            islands(net, phase)


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
        before = [islands(net, ph) for ph in phases]
        simulate(net, sched, 2 * sched.period)
        assert [islands(net, ph) for ph in phases] == before

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
        net = fig6_network()
        sched = ClockSchedule(100e3)
        with pytest.raises(ConvergenceError) as exc:
            simulate(net, sched, sched.period)
        msg = str(exc.value)
        assert msg.startswith("phase 1 (dead, t = 4.900000e-06 s): island a ")
        assert msg.count("phase") == 1
        assert exc.value.residual is not None and math.isfinite(exc.value.residual)
        assert exc.value.tolerance == net.solver_tol


class TestDampedFixedPoint:
    def test_damped_iteration_converges_and_conserves(self, monkeypatch):
        log = []  # (iterate passed in, solve result) per fixed-point iteration
        real = scnet._solve_floating

        def record(part, caps, volts, q_before, guess):
            out = real(part, caps, volts, q_before, guess)
            log.append((list(guess), out))
            return out

        monkeypatch.setattr(scnet, "_solve_floating", record)
        # island f: a beam to ground holding half the clamp charge and a
        # released beam to a -10 V rail, which pulls in as the charge moves
        net = Network()
        for n in ("gnd", "s", "f"):
            net.add_node(n)
        net.sources.append(VSource("vs", "s", Dc(-10.0)))
        net.nems_caps += [NemsCap("n1", "f", "gnd", DEV, q=0.5 * DEV.q_clamp),
                          NemsCap("n2", "f", "s", DEV)]
        sol = solve_phase(net, ClockSchedule(100e3).phases(1e-5)[0])

        steps = [abs(out[0] - guess[0]) for guess, out in log]
        assert steps[1] >= steps[0]  # the undamped iteration stopped contracting
        assert log[1][0] == log[0][1] and log[2][0] == log[1][1]
        # from the third iteration on, each iterate is the mean of the solve
        # and the previous iterate
        for (guess, out), (nxt, _) in zip(log[2:], log[3:]):
            assert nxt == [0.5 * (a + b) for a, b in zip(out, guess)]
        assert sol.iterations == len(log) > 3
        rec, = sol.conservation
        assert abs(rec.q_after - rec.q_before) <= 1e-15 * max(abs(rec.q_before), rec.q_scale)


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


class TestTransitionMemo:
    """A CompiledNetwork solves each distinct transition once per run; a plain
    Network is compiled per call, so the chained plain-Network path never
    reuses a solution and is the reference."""

    SCHED = ClockSchedule(100e3)

    @pytest.mark.parametrize("make, periods, repeats", [
        (lambda: fig6_network(vin=0.01), 4, True),
        (lambda: fig6_network(vin=0.02, freq=10e3), 3, False),
        (lambda: bank_network(10, vin=0.007), 4, True),
        (lambda: bank_network(10, vin=-0.012, drive="body"), 4, True),
    ], ids=["basic-dc", "basic-sine", "gate-bank-m10", "body-bank-m10"])
    def test_matches_the_plain_network_path(self, make, periods, repeats):
        phases = self.SCHED.phases(periods * self.SCHED.period)
        want = chained(make(), phases)
        topo = CompiledNetwork(make())
        got = chained(topo, phases)
        assert (len(topo.transitions) < len(phases)) == repeats
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
        assert len(topo.transitions) < len(phases)
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

    @pytest.mark.parametrize("reverse", [False, True])
    def test_signed_zeros_do_not_share_an_entry(self, reverse):
        net = Network()
        for n in ("gnd", "f"):
            net.add_node(n)
        net.linear_caps.append(LinearCap("c", "f", "gnd", 1e-15, q=1e-15))
        net.nems_caps.append(NemsCap("n", "f", "gnd", DEV))
        first, second = self.SCHED.phases(self.SCHED.period)[:2]
        topo = CompiledNetwork(net)
        start = solve_phase(topo, first)
        beam = start.beam_states["n"]
        # (charge of c, velocity of n) entering the second phase
        variants = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]
        for q, velocity in variants[::-1] if reverse else variants:
            prior = start.replace(charges={"n": start.charges["n"], "c": q},
                                  beam_states={"n": BeamState(beam.displacement, velocity,
                                                              beam.latched)})
            assert repr(solve_phase(topo, second, prior)) == repr(
                solve_phase(net, second, prior))
        assert len(topo.transitions) == 1 + len(variants)

    def test_no_beam_law_runs_once_the_dc_state_repeats(self, monkeypatch):
        calls = []
        for name in ("static_equilibrium_charge", "static_equilibrium_voltage",
                     "release_holds"):
            law = getattr(scnet, name)
            monkeypatch.setattr(scnet, name,
                                lambda *args, _law=law: calls.append(args) or _law(*args))
        topo = CompiledNetwork(bank_network(10))
        prior, per_phase = None, []
        for ph in self.SCHED.phases(5 * self.SCHED.period):
            calls.clear()
            prior = solve_phase(topo, ph, prior)
            per_phase.append(len(calls))
        # the state leaving phase i equals the one leaving phase i - 4 from
        # i = 4 on, so phase 5 enters the transition phase 1 entered
        assert all(per_phase[:5]) and not any(per_phase[5:])
        assert len(topo.transitions) == 5


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
        res = simulate(net, sched, 6 * sched.period)
        assert len({tuple(i.id for i in sol.islands) for sol in res.solutions}) == 3
        for sol in res.solutions:
            expected = islands(net, sol.phase, sol.switch_states)
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

    def test_coupled_floating_chain_solves_the_full_system(self, monkeypatch):
        shapes = []
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: shapes.append(a.shape) or real_solve(a, b))
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
        assert shapes and set(shapes) == {(2, 2)}
        # closed-form charge sharing of the two island charges
        qa, qb = q1 + q12, q2 - q12
        det = (c1 + c12) * (c2 + c12) - c12 * c12
        v1 = (qa * (c2 + c12) + c12 * qb) / det
        v2 = (qb * (c1 + c12) + c12 * qa) / det
        for sol in res.solutions:
            assert math.isclose(sol.node_voltages["f1"], v1, rel_tol=1e-12)
            assert math.isclose(sol.node_voltages["f2"], v2, rel_tol=1e-12)
        assert res.max_conservation_error() <= 1e-15

    def test_uncoupled_islands_solve_by_division(self, monkeypatch):
        def no_solve(a, b):
            raise AssertionError("np.linalg.solve called for uncoupled islands")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        sched = ClockSchedule(100e3)
        res = simulate(apply_parasitics(fig6_network(), 1e-15, 1e-15, "gate"), sched,
                       2 * sched.period)
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
