from dataclasses import replace

import numpy as np
import pytest

from nemsim.device import (EPS0, DeviceGeometry, DeviceParams, MaterialProps,
                           PRESETS, c_off, c_on, compare_to_reference,
                           contact_gap_from_pullout, derive_geometry_constants,
                           get_preset, max_gain, pullin_voltage,
                           pullout_voltage_from_gap, spring_from_beam,
                           spring_from_pullin)
from nemsim.errors import CalibrationError, InvalidGeometryError

LARGE = PRESETS["large"].geometry
LV_HIGH = PRESETS["lv-high-gain"].geometry
LV_LOW = PRESETS["lv-low-gain"].geometry


def rel(a, b):
    return abs(a - b) / abs(b)


class TestGeometryConstants:
    def test_large_device(self):
        area, g_eff = derive_geometry_constants(LARGE)
        assert rel(area, 12.64e-12) < 1e-12
        assert rel(g_eff, 138.553e-9) < 1e-4

    def test_scaled_device(self):
        area, g_eff = derive_geometry_constants(LV_HIGH)
        assert rel(area, 4.0e-12) < 1e-12
        assert rel(g_eff, 51.32e-9) < 1e-4

    def test_degenerate_dielectric(self):
        # g_eff -> g0 as td -> 0
        geom = DeviceGeometry(8.5e-6, 1.6e-6, 100e-9, 7.9e-6, 135e-9, 1e-18, 7.6)
        _, g_eff = derive_geometry_constants(geom)
        assert rel(g_eff, geom.air_gap) < 1e-9

    def test_invariants_enforced(self):
        with pytest.raises(InvalidGeometryError):
            DeviceGeometry(8.5e-6, 1.6e-6, 100e-9, 7.9e-6, -1e-9, 27e-9, 7.6)
        with pytest.raises(InvalidGeometryError):
            DeviceGeometry(8.5e-6, 1.6e-6, 100e-9, 7.9e-6, 135e-9, 27e-9, 0.9)
        with pytest.raises(InvalidGeometryError):
            # electrode longer than the beam
            DeviceGeometry(5e-6, 1.6e-6, 100e-9, 7.9e-6, 135e-9, 27e-9, 7.6)


class TestCapacitances:
    # published values rounded to 0.1 fF; lv-low C_off computes to 0.673 fF
    @pytest.mark.parametrize("geom,con_fF,coff_fF", [
        (LARGE, 31.5, 0.81),
        (LV_HIGH, 26.9, 0.69),
        (LV_LOW, 13.5, 0.67),
    ])
    def test_values(self, geom, con_fF, coff_fF):
        assert rel(c_on(geom), con_fF * 1e-15) < 5e-3
        assert rel(c_off(geom), coff_fF * 1e-15) < 5e-3

    def test_c_off_below_c_on(self):
        for preset in PRESETS.values():
            assert c_off(preset.geometry) < c_on(preset.geometry)

    @pytest.mark.parametrize("geom,gain", [(LARGE, 39.0), (LV_HIGH, 39.0), (LV_LOW, 20.0)])
    def test_max_gain(self, geom, gain):
        assert rel(max_gain(geom), gain) < 1e-9  # geometries chosen for integer gains

    def test_max_gain_is_ratio_bitwise(self):
        for preset in PRESETS.values():
            g = preset.geometry
            assert max_gain(g) == c_on(g) / c_off(g)

    def test_hypothetical_gain_two(self):
        # td/eps_d = g_eff/2 <=> td/eps_d = g0, so gain = 2 by construction
        geom = DeviceGeometry(8.5e-6, 1.6e-6, 100e-9, 7.9e-6, 135e-9, 135e-9 * 7.6, 7.6)
        assert rel(max_gain(geom), 2.0) < 1e-12

    def test_reference_comparison_passes(self):
        # 2% relative or half the printed 0.1 fF quantum, whichever is looser
        for name in PRESETS:
            assert all(row["passed"] for row in compare_to_reference(name)), name

    def test_monotonicity(self):
        # c_on strictly decreasing in td; c_off strictly decreasing in g0
        cons = [c_on(DeviceGeometry(8.5e-6, 1.6e-6, 100e-9, 7.9e-6, 135e-9, td, 7.6))
                for td in np.linspace(10e-9, 60e-9, 25)]
        assert all(a > b for a, b in zip(cons, cons[1:]))
        coffs = [c_off(DeviceGeometry(8.5e-6, 1.6e-6, 100e-9, 7.9e-6, g0, 27e-9, 7.6))
                 for g0 in np.linspace(80e-9, 300e-9, 25)]
        assert all(a > b for a, b in zip(coffs, coffs[1:]))


class TestSpring:
    def test_large_calibration(self):
        k = spring_from_pullin(LARGE, 9.6)
        assert rel(k, 13.087831962549364) < 1e-12

    def test_scaled_calibration(self):
        assert rel(spring_from_pullin(LV_HIGH, 3.8), 12.8) < 3e-3

    def test_quadratic_scaling(self):
        k1 = spring_from_pullin(LARGE, 9.6)
        k2 = spring_from_pullin(LARGE, 19.2)
        assert rel(k2, 4.0 * k1) < 1e-12

    def test_fold_point_oracle(self):
        # independent check: bisect for the largest voltage that still admits
        # a root of k*x*(g_eff - x)^2 = eps0*A*V^2/2 below g_eff/3
        area, g_eff = derive_geometry_constants(LARGE)
        k = spring_from_pullin(LARGE, 9.6)

        def has_root(v):
            hi = g_eff / 3.0
            return k * hi * (g_eff - hi) ** 2 - EPS0 * area * v * v / 2.0 > 0.0

        lo, hi = 1.0, 20.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if has_root(mid):
                lo = mid
            else:
                hi = mid
        assert rel(lo, 9.6) < 1e-9

    def test_pullin_round_trip(self):
        for v in (0.5, 3.8, 9.6, 40.0):
            k = spring_from_pullin(LARGE, v)
            assert rel(pullin_voltage(LARGE, k), v) <= 1e-12

    def test_beam_formula_cross_check(self):
        # fitted modulus makes the two spring paths agree on the large device
        k_beam = spring_from_beam(LARGE, MaterialProps(youngs_modulus=157e9))
        assert rel(pullin_voltage(LARGE, k_beam), 9.6) < 1e-3

    @pytest.mark.parametrize("call, error, match", [
        (lambda: MaterialProps(youngs_modulus=0.0), InvalidGeometryError,
         "material constants must be strictly positive"),
        (lambda: MaterialProps(density=-1.0), InvalidGeometryError,
         "material constants must be strictly positive"),
        (lambda: spring_from_pullin(LARGE, 0.0), CalibrationError,
         "pull-in voltage must be positive, got 0.0"),
        (lambda: spring_from_pullin(LARGE, -9.6), CalibrationError,
         "pull-in voltage must be positive, got -9.6"),
    ], ids=["youngs-modulus", "density", "v_pi-zero", "v_pi-negative"])
    def test_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_v_increasing_in_gap_at_fixed_k(self):
        k = spring_from_pullin(LARGE, 9.6)
        vs = [pullin_voltage(
            DeviceGeometry(8.5e-6, 1.6e-6, 100e-9, 7.9e-6, g0, 27e-9, 7.6), k)
            for g0 in np.linspace(100e-9, 300e-9, 25)]
        assert all(a < b for a, b in zip(vs, vs[1:]))


class TestContactGap:
    def test_large_value(self):
        k = spring_from_pullin(LARGE, 9.6)
        d_c = contact_gap_from_pullout(LARGE, k, 6.2)
        assert rel(d_c, 3.489183854139043e-08) < 1e-12

    def test_force_balance_oracle(self):
        # at the calibrated separation the release condition balances exactly
        area, _ = derive_geometry_constants(LARGE)
        k = spring_from_pullin(LARGE, 9.6)
        d_c = contact_gap_from_pullout(LARGE, k, 6.2)
        f_es = EPS0 * area * 6.2 ** 2 / (2.0 * d_c ** 2)
        assert rel(f_es, k * LARGE.air_gap) < 1e-12

    def test_linear_in_vpo(self):
        k = spring_from_pullin(LARGE, 9.6)
        assert rel(contact_gap_from_pullout(LARGE, k, 6.2),
                   contact_gap_from_pullout(LARGE, k, 3.1) * 2.0) < 1e-12

    def test_scaled_device_feasible(self):
        k = spring_from_pullin(LV_HIGH, 3.8)
        d_c = contact_gap_from_pullout(LV_HIGH, k, 2.4)
        assert d_c >= LV_HIGH.dielectric_thickness / LV_HIGH.dielectric_constant

    def test_infeasible_pullout(self):
        # V_PO = 0.5 V would need a contact separation below the dielectric floor
        k = spring_from_pullin(LARGE, 9.6)
        with pytest.raises(CalibrationError):
            contact_gap_from_pullout(LARGE, k, 0.5)

    def test_pullout_round_trip(self):
        k = spring_from_pullin(LARGE, 9.6)
        d_c = contact_gap_from_pullout(LARGE, k, 6.2)
        assert rel(pullout_voltage_from_gap(LARGE, k, d_c), 6.2) <= 1e-9


class TestDeviceParams:
    def test_bundle(self):
        dev = get_preset("large").params()
        assert rel(dev.g0, LARGE.air_gap) < 1e-12
        assert rel(dev.q_clamp, 1.988674198667948e-14) < 1e-12
        assert 0 < dev.v_po < dev.v_pi
        assert dev.gain_max == dev.c_on / dev.c_off

    def test_hysteresis_window_required(self):
        with pytest.raises(CalibrationError):
            DeviceParams.from_geometry(LARGE, 6.2, 9.6)  # swapped

    @pytest.mark.parametrize("change, match", [
        (lambda dev: {"v_po": dev.v_pi, "v_pi": dev.v_po}, "hysteresis window requires"),
        (lambda dev: {"v_po": 0.0}, "hysteresis window requires"),
        (lambda dev: {"c_off": dev.c_on}, "C_off must be below C_on"),
        (lambda dev: {"c_off": 2.0 * dev.c_on}, "C_off must be below C_on"),
    ], ids=["window-reversed", "v_po-zero", "c_off-equal", "c_off-above"])
    def test_constructed_params_rejected(self, change, match):
        dev = get_preset("large").params()
        with pytest.raises(CalibrationError, match=match):
            replace(dev, **change(dev))

    @pytest.mark.parametrize("gap", [4.3e103, 1e-120])
    def test_gap_beyond_float_range_is_calibration_error(self, gap):
        # g_eff**3 overflows (OverflowError) or underflows to a zero divisor
        geom = DeviceGeometry(8.5e-6, 1.6e-6, 100e-9, 7.9e-6, gap, gap, 7.6)
        with pytest.raises(CalibrationError, match="out of float range"):
            DeviceParams.from_geometry(geom, 9.6, 6.2)

    def test_unknown_preset(self):
        with pytest.raises(InvalidGeometryError):
            get_preset("medium")
