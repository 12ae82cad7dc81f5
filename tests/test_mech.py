import ast
import math
import os
import random
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nemsim import mech
from nemsim.device import EPS0, PRESETS, c_off, c_on, get_preset
from nemsim.errors import (ConfigError, ConvergenceError, DisplacementRangeError,
                           InvalidGeometryError, StiffnessError)
from nemsim.ioutil import format_float
from nemsim.mech import (BeamState, DynamicsParams, capacitance_at,
                         coenergy_voltage, cv_sweep, energy_charge,
                         force_charge_controlled, force_voltage_controlled,
                         mechanical_energy, static_equilibrium_charge,
                         static_equilibrium_voltage, transient,
                         update_beam_voltage)

LARGE = PRESETS["large"].geometry
DEV = get_preset("large").params()
K = DEV.k
AREA, G_EFF, G0 = DEV.area, DEV.g_eff, DEV.g0


def rel(a, b):
    return abs(a - b) / abs(b)


class TestCapacitance:
    def test_endpoint_identities(self):
        assert rel(capacitance_at(DEV, 0.0), c_off(LARGE)) < 1e-12
        assert rel(capacitance_at(DEV, G0), c_on(LARGE)) < 1e-12

    def test_inverse_gap_relation(self):
        td_air = G_EFF - G0
        x = G_EFF - 2.0 * td_air
        assert rel(capacitance_at(DEV, x), c_on(LARGE) / 2.0) < 1e-9

    def test_out_of_range(self):
        with pytest.raises(DisplacementRangeError):
            capacitance_at(DEV, -1e-12)
        with pytest.raises(DisplacementRangeError):
            capacitance_at(DEV, G0 * 1.01)


class TestForces:
    def test_zero_voltage(self):
        assert force_voltage_controlled(DEV, 10e-9, 0.0) == 0.0
        assert force_charge_controlled(DEV, 0.0) == 0.0

    def test_even_in_sign(self):
        assert force_voltage_controlled(DEV, 5e-9, 9.6) == \
            force_voltage_controlled(DEV, 5e-9, -9.6)
        assert force_charge_controlled(DEV, 1e-15) == force_charge_controlled(DEV, -1e-15)

    def test_voltage_force_value(self):
        assert rel(force_voltage_controlled(DEV, 0.0, 9.6), 2.686449718628554e-07) < 1e-12

    def test_charge_force_value(self):
        q = c_on(LARGE) * 0.175
        assert rel(force_charge_controlled(DEV, q), 1.3578180004860273e-07) < 1e-12

    def test_charge_force_quadratic(self):
        assert rel(force_charge_controlled(DEV, 2e-15),
                   4.0 * force_charge_controlled(DEV, 1e-15)) < 1e-12

    @pytest.mark.parametrize("x", [0.0, 10e-9, 40e-9, 100e-9])
    def test_forces_match_energy_gradient(self, x):
        # central finite differences of the potential functions
        h = 1e-13
        v, q = 7.0, 2e-15
        fd_v = -(coenergy_voltage(DEV, x + h, v) - coenergy_voltage(DEV, x - h, v)) / (2 * h)
        assert rel(force_voltage_controlled(DEV, x, v), fd_v) < 1e-6
        fd_q = -(energy_charge(DEV, x + h, q) - energy_charge(DEV, x - h, q)) / (2 * h)
        assert rel(force_charge_controlled(DEV, q), fd_q) < 1e-6


class TestVoltageEquilibrium:
    def test_zero(self):
        st = static_equilibrium_voltage(DEV, 0.0)
        assert st.displacement == 0.0 and not st.latched

    def test_against_grid_scan(self):
        # brute-force sign scan of k*x*(g_eff-x)^2 - eps0*A*V^2/2 on 1e6 points
        for v in (2.0, 5.0, 0.999 * DEV.v_pi):
            xs = np.linspace(0.0, G_EFF / 3.0, 10 ** 6)
            h = K * xs * (G_EFF - xs) ** 2 - EPS0 * AREA * v * v / 2.0
            idx = np.where(np.diff(np.sign(h)) != 0)[0][0]
            scanned = 0.5 * (xs[idx] + xs[idx + 1])
            st = static_equilibrium_voltage(DEV, v)
            assert abs(st.displacement - scanned) < 2.0 * (xs[1] - xs[0])

    def test_near_fold_displacement(self):
        st = static_equilibrium_voltage(DEV, DEV.v_pi * (1.0 - 1e-9))
        assert rel(st.displacement, G_EFF / 3.0) < 1e-3
        assert not st.latched

    def test_latched_at_and_beyond_pullin(self):
        for v in (9.6, -9.6, 12.0):
            st = static_equilibrium_voltage(DEV, v)
            assert st.latched and st.displacement == G0

    def test_nan_voltage_raises(self):
        with pytest.raises(ConvergenceError, match="undefined at v = nan"):
            static_equilibrium_voltage(DEV, math.nan)

    def test_fold_matches_pullin_voltage(self):
        # bisect the largest voltage with a stable (non-latched) solution
        lo, hi = 1.0, 20.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if static_equilibrium_voltage(DEV, mid).latched:
                hi = mid
            else:
                lo = mid
        assert rel(lo, DEV.v_pi) < 1e-3
        assert rel(static_equilibrium_voltage(DEV, lo).displacement, G_EFF / 3.0) < 5e-3


class TestChargeEquilibrium:
    def test_zero(self):
        assert static_equilibrium_charge(DEV, 0.0).displacement == 0.0

    def test_energy_scan_oracle(self):
        q = c_on(LARGE) * 0.175
        xs = np.linspace(0.0, G0, 10 ** 6)
        u = 0.5 * K * xs * xs + q * q * (G_EFF - xs) / (2.0 * EPS0 * AREA)
        scanned = xs[np.argmin(u)]
        st = static_equilibrium_charge(DEV, q)
        assert rel(st.displacement, 1.0374659488075666e-08) < 1e-12
        assert abs(st.displacement - scanned) < 2.0 * (xs[1] - xs[0])
        assert rel(st.displacement / G_EFF, 0.0749) < 2e-3

    def test_clamp_threshold(self):
        q_clamp = math.sqrt(2.0 * EPS0 * AREA * K * G0)
        assert rel(q_clamp, 1.988674198667948e-14) < 1e-12
        # sqrt/square round trip sits within an ulp of the boundary
        assert static_equilibrium_charge(DEV, q_clamp * (1 + 1e-9)).latched
        below = static_equilibrium_charge(DEV, 0.999 * q_clamp)
        assert not below.latched and below.displacement < G0

    def test_no_fold_monotone_in_q_squared(self):
        qs = np.linspace(0.0, 0.999 * DEV.q_clamp, 200)
        xs = [static_equilibrium_charge(DEV, q).displacement for q in qs]
        assert all(b >= a for a, b in zip(xs, xs[1:]))
        # continuous: no jump bigger than the parabola's own increments
        diffs = np.diff(xs)
        assert diffs.max() < 2.0 * G0 / len(qs) * 3


class TestCvSweep:
    def test_large_hysteresis(self):
        curve = cv_sweep(DEV, 0.0, 12.0, 1201, "both")
        up = [(v, c) for v, c, b in zip(curve.voltages, curve.capacitances, curve.branches)
              if b == "up"]
        down = [(v, c) for v, c, b in zip(curve.voltages, curve.capacitances, curve.branches)
                if b == "down"]
        c_mid = 0.5 * (c_on(LARGE) + c_off(LARGE))
        v_up = next(v for v, c in up if c > c_mid)
        v_down = next(v for v, c in down if c < c_mid)
        assert abs(v_up - 9.6) <= 0.011
        assert abs(v_down - 6.2) <= 0.011
        assert rel(max(c for _, c in up), c_on(LARGE)) < 1e-12

    def test_lv_low_gain_thresholds(self):
        dev = get_preset("lv-low-gain").params()
        curve = cv_sweep(dev, 0.0, 6.0, 1201, "both")
        c_mid = 0.5 * (dev.c_on + dev.c_off)
        v_up = next(v for v, c, b in zip(curve.voltages, curve.capacitances, curve.branches)
                    if b == "up" and c > c_mid)
        v_down = next(v for v, c, b in zip(curve.voltages, curve.capacitances, curve.branches)
                      if b == "down" and c < c_mid)
        assert abs(v_up - 4.0) <= 0.006
        assert abs(v_down - 2.7) <= 0.006

    def test_no_hysteresis_below_pullout(self):
        curve = cv_sweep(DEV, 0.0, 5.0, 301, "both")
        ups = {round(v, 9): c for v, c, b in
               zip(curve.voltages, curve.capacitances, curve.branches) if b == "up"}
        for v, c, b in zip(curve.voltages, curve.capacitances, curve.branches):
            if b == "down":
                assert c == ups[round(v, 9)]

    def test_branches_differ_only_inside_window(self):
        curve = cv_sweep(DEV, 0.0, 12.0, 601, "both")
        step = 12.0 / 600
        ups = {round(v, 9): c for v, c, b in
               zip(curve.voltages, curve.capacitances, curve.branches) if b == "up"}
        for v, c, b in zip(curve.voltages, curve.capacitances, curve.branches):
            if b == "down" and not (6.2 - step <= v <= 9.6 + step):
                assert c == ups[round(v, 9)]

    def test_bad_args(self):
        with pytest.raises(InvalidGeometryError):
            cv_sweep(DEV, 0.0, 12.0, 1)
        with pytest.raises(InvalidGeometryError):
            cv_sweep(DEV, 0.0, 12.0, 10, "sideways")

    def test_csv_shape(self):
        text = cv_sweep(DEV, 0.0, 12.0, 11, "up").to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "v_V,c_F,branch"
        assert len(lines) == 12 and lines[1].endswith(",up")


def _chained_sweep(dev, v_start, v_end, n, direction):
    """Reference C-V sweep: one update_beam_voltage call per sample, no memo."""
    grid = np.linspace(v_start, v_end, n)
    legs = [("up", grid)] if direction in ("up", "both") else []
    if direction in ("down", "both"):
        legs.append(("down", grid[::-1]))
    state = BeamState(dev.g0, 0.0, True) if direction == "down" else BeamState(0.0, 0.0, False)
    volts, caps, tags = [], [], []
    for tag, leg in legs:
        for v in leg:
            state = update_beam_voltage(dev, state, float(v))
            volts.append(float(v))
            caps.append(capacitance_at(dev, state.displacement))
            tags.append(tag)
    return np.asarray(volts), np.asarray(caps), tuple(tags)


class TestCvSweepSolvesEachVoltageOnce:
    @pytest.mark.parametrize("dev", [DEV, get_preset("lv-low-gain").params()],
                             ids=["params", "lv-low-gain"])
    @pytest.mark.parametrize("v_start, v_end, n", [
        (0.0, 12.0, 601),     # through pull-in and release
        (-12.0, 12.0, 97),    # symmetric: holds -v, +v and 0.0 exactly
        (12.0, -12.0, 241),   # descending grid
        (7.0, 7.0, 9),        # v_start == v_end inside the hysteresis window
        (11.0, 11.0, 5),      # v_start == v_end beyond pull-in
        (0.0, 5.0, 101),      # never pulls in
    ])
    @pytest.mark.parametrize("direction", ["up", "down", "both"])
    def test_equals_chained_updates_bit_for_bit(self, dev, v_start, v_end, n, direction):
        curve = cv_sweep(dev, v_start, v_end, n, direction)
        volts, caps, tags = _chained_sweep(dev, v_start, v_end, n, direction)
        assert curve.voltages.tobytes() == volts.tobytes()
        assert curve.capacitances.tobytes() == caps.tobytes()
        assert curve.branches == tags

    def test_symmetric_grid_holds_both_signs_and_zero(self):
        grid = np.linspace(-12.0, 12.0, 97).tolist()
        assert 0.0 in grid and all(-v in grid for v in grid)

    @pytest.mark.parametrize("v_start, v_end, n", [(0.0, 12.0, 601), (-12.0, 12.0, 97)])
    def test_voltage_law_runs_once_per_released_voltage(self, monkeypatch, v_start, v_end, n):
        calls = Counter()
        law = mech.static_equilibrium_voltage

        def counted(dev, v):
            calls[v] += 1
            return law(dev, v)

        monkeypatch.setattr(mech, "static_equilibrium_voltage", counted)
        _chained_sweep(DEV, v_start, v_end, n, "both")
        chained = Counter(calls)
        calls.clear()
        cv_sweep(DEV, v_start, v_end, n, "both")
        assert sum(chained.values()) > len(chained)  # the chain repeats voltages
        assert calls == Counter(dict.fromkeys(chained, 1))

    def test_size_bound(self, monkeypatch):
        monkeypatch.setattr(mech, "MAX_SWEEP_SIZE", 50)
        assert len(cv_sweep(DEV, 0.0, 12.0, 50, "up").voltages) == 50
        with pytest.raises(ConfigError, match="51 points, more than 50"):
            cv_sweep(DEV, 0.0, 12.0, 51, "up")


def _per_scalar_cv_csv(curve):
    """The element-by-element formatting the columnar to_csv must reproduce."""
    lines = ["v_V,c_F,branch"]
    for v, c, b in zip(curve.voltages, curve.capacitances, curve.branches):
        lines.append(f"{format_float(v)},{format_float(c)},{b}")
    return "\n".join(lines) + "\n"


def _per_scalar_transient_csv(tr):
    lines = ["t_s,x_m,v_mps,c_F,latched"]
    for i in range(len(tr.t)):
        lines.append(",".join([
            format_float(tr.t[i]), format_float(tr.x[i]), format_float(tr.v[i]),
            format_float(tr.c[i]), "1" if tr.latched[i] else "0"]))
    return "\n".join(lines) + "\n"


class TestColumnarCsv:
    @pytest.mark.parametrize("v_start, v_end, n, direction", [
        (0.0, 12.0, 1001, "both"), (-12.0, 12.0, 301, "down"), (7.0, 7.0, 3, "up")])
    def test_cv_csv_matches_per_scalar_formatting(self, v_start, v_end, n, direction):
        curve = cv_sweep(DEV, v_start, v_end, n, direction)
        assert curve.to_csv() == _per_scalar_cv_csv(curve)

    def test_step_transient_csv_matches_per_scalar_formatting(self):
        tr = transient(DEV, _dyn(2e-6), lambda t: 1.2 * DEV.v_pi, 2e-6, d_c=DEV.d_c)
        assert tr.contact_times
        assert tr.to_csv() == _per_scalar_transient_csv(tr)

    def test_sine_transient_csv_matches_per_scalar_formatting(self):
        t_end = 4e-6
        level, freq = 1.2 * DEV.v_pi, 0.5e6

        def drive(t):
            return level * math.sin(2.0 * math.pi * freq * t)

        tr = transient(DEV, _dyn(t_end), drive, t_end)
        assert len(tr.contact_times) >= 2 and len(tr.release_times) >= 2
        latched = np.frombuffer(tr.latched, bool)
        assert latched.any() and not latched.all()
        assert tr.to_csv() == _per_scalar_transient_csv(tr)


def _bits(values) -> bytes:
    return array("d", values).tobytes()


class TestGridsMatchNumpy:
    def test_linspace(self):
        rng = random.Random(16)
        cases = [(7.0, 7.0, 9), (0.0, 12.0, 2), (-12.0, 12.0, 97), (12.0, -12.0, 241),
                 (0.0, 5e-324, 7),  # the step underflows to zero
                 (-1e-300, 1e-300, 1001)]
        for _ in range(2000):
            scale = 10.0 ** rng.randint(-12, 3)
            cases.append((rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale,
                          rng.randint(2, 300)))
        for start, stop, n in cases:
            assert _bits(mech._linspace(start, stop, n)) == np.linspace(start, stop, n).tobytes()

    def test_arange(self):
        rng = random.Random(16)
        cases = [(6.768485398499745e-06, 7.054302001721229e-06, 9.527220107382817e-08),
                 (1.0, 1.3, 0.1),  # the last point overshoots stop
                 (0.0, 1e-9, 1e-8),  # one point
                 (0.0, 2e-8, 1e-8)]  # two points
        assert np.arange(*cases[0])[-1] == cases[0][1]  # the last point is stop
        for _ in range(1000):
            start = rng.choice([0.0, rng.uniform(0.0, 1e-5)])
            dt = rng.uniform(1e-9, 1e-7)
            cases.append((start, start + dt * rng.uniform(0.5, 50.0), dt))
        for start, stop, dt in cases:
            assert _bits(mech._arange(start, stop, dt)) == np.arange(start, stop, dt).tobytes()


def _dyn(t_end):
    return DynamicsParams.for_device(LARGE, K, t_end / 1000.0)


def _rk4_pullin_time(v_step, dt):
    """Independent fixed-step RK4 reference for the pull-in transient."""
    dyn = _dyn(1.0)  # mass/damping only
    m, b = dyn.effective_mass, dyn.damping_b

    def deriv(y):
        x, vel = y
        f = EPS0 * AREA * v_step * v_step / (2.0 * (G_EFF - x) ** 2)
        return np.array([vel, (f - b * vel - K * x) / m])

    y = np.array([0.0, 0.0])
    t = 0.0
    for _ in range(10 ** 7):
        k1 = deriv(y)
        k2 = deriv(y + dt / 2 * k1)
        k3 = deriv(y + dt / 2 * k2)
        k4 = deriv(y + dt * k3)
        y_new = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if y_new[0] >= G0:
            return t + dt * (G0 - y[0]) / (y_new[0] - y[0])
        y, t = y_new, t + dt
    raise AssertionError("no pull-in")


class TestTransient:
    def test_zero_drive_stays_at_rest(self):
        tr = transient(DEV, _dyn(1e-6), lambda t: 0.0, 1e-6)
        assert np.all(np.asarray(tr.x) == 0.0) and np.all(~np.frombuffer(tr.latched, bool))

    def test_step_overdrive_pulls_in(self):
        v = 1.2 * DEV.v_pi
        tr = transient(DEV, _dyn(2e-6), lambda t: v, 2e-6, d_c=DEV.d_c)
        assert len(tr.contact_times) == 1
        assert tr.latched[-1] and tr.x[-1] == G0
        before = np.asarray(tr.x)[np.asarray(tr.t) <= tr.contact_times[0]]
        assert np.all(np.diff(before) >= -1e-15)  # monotone approach

    def test_pullin_time_matches_rk4_reference(self):
        v = 1.2 * DEV.v_pi
        dyn = _dyn(2e-6)
        tr = transient(DEV, dyn, lambda t: v, 2e-6, d_c=DEV.d_c)
        t_ref = _rk4_pullin_time(v, dyn.integration_dt_max / 10.0)
        assert rel(tr.contact_times[0], t_ref) < 0.01

    def test_pullin_time_decreases_with_overdrive(self):
        times = []
        for factor in (1.1, 1.3, 1.6, 2.0):
            tr = transient(DEV, _dyn(4e-6), lambda t, f=factor: f * DEV.v_pi,
                           4e-6, d_c=DEV.d_c)
            times.append(tr.contact_times[0])
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_release_and_ringdown(self):
        v = 1.2 * DEV.v_pi
        t_off = 1e-6

        def drive(t):
            return v if t < t_off else 0.0

        tr = transient(DEV, _dyn(4e-6), drive, 4e-6, d_c=DEV.d_c)
        assert len(tr.release_times) == 1 and tr.release_times[0] >= t_off
        assert not tr.latched[-1]
        assert tr.x[-1] < 1e-3 * G0  # rang down to rest

    def test_energy_non_increasing_between_events(self):
        v = 1.2 * DEV.v_pi
        dyn = _dyn(2e-6)
        tr = transient(DEV, dyn, lambda t: v, 2e-6, d_c=DEV.d_c)
        mask = np.asarray(tr.t) < tr.contact_times[0]
        energies = [mechanical_energy(DEV, dyn, x, vel, v)
                    for x, vel in zip(np.asarray(tr.x)[mask], np.asarray(tr.v)[mask])]
        scale = abs(energies[0]) + abs(energies[-1])
        assert all(b - a <= 1e-6 * scale for a, b in zip(energies, energies[1:]))

    def test_charge_drive_settles_to_equilibrium(self):
        q = 0.5 * DEV.q_clamp
        tr = transient(DEV, _dyn(4e-6), lambda t: q, 4e-6, mode="charge")
        expected = static_equilibrium_charge(DEV, q).displacement
        assert rel(tr.x[-1], expected) < 1e-3

    def test_output_sampling_respects_dt_max(self):
        dyn = _dyn(1e-6)
        tr = transient(DEV, dyn, lambda t: 5.0, 1e-6)
        assert np.max(np.diff(tr.t)) <= dyn.integration_dt_max * (1 + 1e-9)

    def test_sample_times_strictly_increase(self):
        # the CLI's default sine run on lv-high-gain: a free-flight segment
        # whose grid ends on its stop time has a duplicate inside the segment
        preset = PRESETS["lv-high-gain"]
        dev = preset.params()
        dyn = DynamicsParams.for_device(preset.geometry, dev.k, 1.0)
        t_end = 200.0 * math.sqrt(dyn.effective_mass / dev.k)
        dyn = DynamicsParams(dyn.effective_mass, dyn.damping_b, t_end / 2000.0)
        level = 1.2 * dev.v_pi
        tr = transient(dev, dyn, lambda t: level * math.sin(2.0 * math.pi * 10e3 * t),
                       t_end, d_c=dev.d_c)
        assert all(a < b for a, b in zip(tr.t, tr.t[1:]))
        assert len(tr.t) == len(tr.x) == len(tr.v) == len(tr.c) == len(tr.latched)

    @pytest.mark.parametrize("call, match", [
        (lambda: DynamicsParams(0.0, 1e-9, 1e-9), "effective_mass must be strictly positive"),
        (lambda: DynamicsParams(1e-15, -1e-9, 1e-9), "damping_b must be strictly positive"),
        (lambda: DynamicsParams(1e-15, 1e-9, math.nan),
         "integration_dt_max must be strictly positive"),
        (lambda: transient(DEV, _dyn(1e-7), lambda t: 0.0, 1e-7, mode="current"),
         "unknown drive mode 'current'"),
        (lambda: transient(DEV, _dyn(1e-7), lambda t: 0.0, 0.0), "t_end must be positive"),
        (lambda: transient(DEV, _dyn(1e-7), lambda t: 0.0, -1e-7), "t_end must be positive"),
    ], ids=["mass", "damping", "dt_max", "mode", "t_end-zero", "t_end-negative"])
    def test_rejected(self, call, match):
        with pytest.raises(InvalidGeometryError, match=match):
            call()

    def test_csv_header(self):
        tr = transient(DEV, _dyn(1e-7), lambda t: 0.0, 1e-7)
        assert tr.to_csv().startswith("t_s,x_m,v_mps,c_F,latched\n")

    def test_nan_drive_fails_the_first_step(self):
        with pytest.raises(StiffnessError, match=r"^integration step failed at t = 0") as exc:
            transient(DEV, _dyn(2e-6), lambda t: math.nan, 2e-6)
        assert exc.value.t == 0.0

    def test_event_chatter_beyond_the_segment_bound(self, monkeypatch):
        # a 1 MHz square drive: free flight to contact, then the latched march
        # to the release at 0.5 us, then no segment left
        monkeypatch.setattr(mech, "_MAX_SEGMENTS", 2)
        level = 1.2 * DEV.v_pi

        def square(t):
            return level if (t * 1e6) % 1.0 < 0.5 else 0.0

        with pytest.raises(StiffnessError, match=r"^event chatter: more than 2 segments") as exc:
            transient(DEV, _dyn(4e-6), square, 4e-6, d_c=DEV.d_c)
        assert exc.value.t == 5e-7


def _charge_step_response(q, t):
    """Closed-form (x, v) of m*x'' + b*x' + k*x = q^2/(2*eps0*A) from rest, for
    the underdamped beam of _dyn."""
    dyn = _dyn(1.0)
    m, b = dyn.effective_mass, dyn.damping_b
    x_f = force_charge_controlled(DEV, q) / K
    omega0 = math.sqrt(K / m)
    zeta = b / (2.0 * math.sqrt(K * m))
    omega_d = omega0 * math.sqrt(1.0 - zeta * zeta)
    decay = np.exp(-zeta * omega0 * t)
    x = x_f * (1.0 - decay * (np.cos(omega_d * t)
                              + zeta / math.sqrt(1.0 - zeta * zeta) * np.sin(omega_d * t)))
    v = x_f * decay * omega0 * omega0 / omega_d * np.sin(omega_d * t)
    return x, v


def _recording_solver(monkeypatch) -> list:
    """Route transient's solve_ivp calls through a wrapper that keeps each result."""
    runs = []
    solve = mech.solve_ivp

    def recording(*args, **kwargs):
        runs.append(solve(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(mech, "solve_ivp", recording)
    return runs


class TestIntegrator:
    def test_charge_step_follows_the_closed_form_response(self):
        # under a fixed charge the force does not depend on x: the beam equation
        # is linear, and at q = q_clamp/2 the overshoot stays below contact
        q, t_end = 0.5 * DEV.q_clamp, 4e-6
        tr = transient(DEV, _dyn(t_end), lambda t: q, t_end, mode="charge")
        x, v = _charge_step_response(q, np.asarray(tr.t))
        x_f = force_charge_controlled(DEV, q) / K
        assert not tr.contact_times and len(tr.t) == 1001
        assert np.max(np.abs(np.asarray(tr.x) - x)) <= 1e-6 * x_f
        assert (np.max(np.abs(np.asarray(tr.v) - v))
                <= 1e-6 * x_f * math.sqrt(K / _dyn(1.0).effective_mass))

    def test_charge_overshoot_contact_time_matches_the_closed_form(self, monkeypatch):
        # at 0.9 q_clamp the overshoot reaches g0 once; the beam then releases
        # at once (the hold force is below k*g0) and rings below contact
        q, t_end = 0.9 * DEV.q_clamp, 4e-6
        runs = _recording_solver(monkeypatch)
        tr = transient(DEV, _dyn(t_end), lambda t: q, t_end, mode="charge")
        assert len(tr.contact_times) == 1 and len(runs) == 2
        t_c = tr.contact_times[0]
        t = np.asarray(tr.t)
        before = t < t_c
        x, _ = _charge_step_response(q, t[before])
        assert np.max(np.abs(np.asarray(tr.x)[before] - x)) <= 1e-6 * G0
        lo, hi = t[before][-1], t_c  # the closed form crosses g0 in here
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _charge_step_response(q, mid)[0] < G0:
                lo = mid
            else:
                hi = mid
        assert rel(t_c, hi) < 1e-6

    @pytest.mark.parametrize("mode, level, freq", [
        ("charge", 0.9 * DEV.q_clamp, 0.0),   # one overshoot contact
        ("voltage", 1.2 * DEV.v_pi, 0.5e6)])  # a contact in each half period
    def test_contact_times_are_roots_of_the_dense_output(self, monkeypatch, mode, level, freq):
        t_end = 4e-6
        runs = _recording_solver(monkeypatch)
        tr = transient(DEV, _dyn(t_end),
                       lambda t: level * math.cos(2.0 * math.pi * freq * t), t_end, mode=mode)
        stopped = [sol for sol in runs if sol.event == 0]
        assert tr.contact_times and [sol.t for sol in stopped] == list(tr.contact_times)
        for sol in stopped:
            assert abs(sol(sol.t)[0] - G0) <= 1e-12 * G0

    def test_step_size_underflow_fails(self):
        # the derivative jumps by 1e200 just past t0: every step is rejected
        # until the step is ten float spacings of t0
        def jump(t, x, v):
            return v, (0.0 if t <= 1.0 else 1e200)

        with pytest.raises(StiffnessError, match=r"^integration step failed at t = 1\.0+e\+00 s: "
                                                 r"step size") as exc:
            mech.solve_ivp(jump, 1.0, 2.0, (0.0, 0.0), max_step=0.1, rtol=1e-9,
                           atol=(1e-9, 1e-9), events=())
        assert exc.value.t == 1.0


class TestImports:
    def test_cli_import_loads_no_scipy_integrate(self):
        src = str(Path(mech.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, nemsim.cli; print(sorted(m for m in sys.modules"
             " if m.startswith('scipy.integrate')))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_only_third_party_import_is_brentq_in_mech(self):
        # every import of every nemsim module is standard library, nemsim
        # itself, or scipy's brentq in mech
        package = Path(mech.__file__).parent
        third_party = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    found = [(alias.name, None) for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found = [(node.module, alias.name) for alias in node.names]
                else:
                    continue
                third_party |= {(path.name, module, name) for module, name in found
                                if module.split(".")[0] not in sys.stdlib_module_names
                                and module.split(".")[0] != "nemsim"}
        assert len(list(package.glob("*.py"))) >= 9
        assert third_party == {("mech.py", "scipy.optimize", "brentq")}


class TestHystereticUpdate:
    def test_latched_persists_between_thresholds(self):
        latched = BeamState(G0, 0.0, True)
        st = update_beam_voltage(DEV, latched, 7.0)  # V_PO < 7 < V_PI
        assert st.latched
        st = update_beam_voltage(DEV, latched, 6.1)  # below V_PO
        assert not st.latched

    def test_released_needs_pullin(self):
        free = BeamState(0.0, 0.0, False)
        assert not update_beam_voltage(DEV, free, 7.0).latched
        assert update_beam_voltage(DEV, free, 9.6).latched
