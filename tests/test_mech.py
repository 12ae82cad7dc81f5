import math
from collections import Counter

import numpy as np
import pytest

from nemsim import mech
from nemsim.device import EPS0, PRESETS, c_off, c_on, get_preset
from nemsim.errors import ConfigError, DisplacementRangeError, InvalidGeometryError
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
        assert tr.latched.any() and not tr.latched.all()
        assert tr.to_csv() == _per_scalar_transient_csv(tr)


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
        assert np.all(tr.x == 0.0) and np.all(~tr.latched)

    def test_step_overdrive_pulls_in(self):
        v = 1.2 * DEV.v_pi
        tr = transient(DEV, _dyn(2e-6), lambda t: v, 2e-6, d_c=DEV.d_c)
        assert len(tr.contact_times) == 1
        assert tr.latched[-1] and tr.x[-1] == G0
        before = tr.x[tr.t <= tr.contact_times[0]]
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
        mask = tr.t < tr.contact_times[0]
        energies = [mechanical_energy(DEV, dyn, x, vel, v)
                    for x, vel in zip(tr.x[mask], tr.v[mask])]
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

    def test_csv_header(self):
        tr = transient(DEV, _dyn(1e-7), lambda t: 0.0, 1e-7)
        assert tr.to_csv().startswith("t_s,x_m,v_mps,c_F,latched\n")


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
