"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np

from nemsim.amp import (AmpConfig, build_amp, gain_oracle, gain_sweep,
                        parasitic_study, power_estimate, run_dc, run_sine)
from nemsim.cli import main as cli_main
from nemsim.device import EPS0, PRESETS, c_off, c_on, get_preset, max_gain
from nemsim.mech import DynamicsParams, cv_sweep, static_equilibrium_voltage, transient

LARGE = get_preset("large").params()

# published reference values: (C_on fF, C_off fF, gain), printed to 0.1 fF / integers
TABLE = {
    "large": (31.5, 0.8, 39.0),
    "lv-high-gain": (26.9, 0.7, 39.0),
    "lv-low-gain": (13.5, 0.7, 20.0),
}


def _criterion(num, desc, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{detail}")
    assert ok, f"criterion {num} failed: {desc}{detail}"


def _amp(**kw):
    return build_amp(AmpConfig(device=LARGE, device_name="large", **kw))


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    ok = True
    for name, (ref_on, ref_off, ref_gain) in TABLE.items():
        geom = PRESETS[name].geometry
        for computed, ref, quantum in (
                (c_on(geom) * 1e15, ref_on, 0.1),
                (c_off(geom) * 1e15, ref_off, 0.1),
                (max_gain(geom), ref_gain, 1.0)):
            # 2% of the printed value, or half its print quantum if looser
            ok = ok and abs(computed - ref) <= max(0.02 * ref, 0.5 * quantum)
    elapsed = time.perf_counter() - t0
    _criterion(1, "Table reproduction within 2% (print quantum aware)",
               ok and elapsed < 1.0, f" [{elapsed:.3f} s]")


def test_criterion_2_dc_gain():
    t0 = time.perf_counter()
    run = run_dc(_amp(v_dc=10.0, f_clk=100e3), 0.01)
    elapsed = time.perf_counter() - t0
    ok = abs(run.vout - 0.3899) / 0.3899 <= 5e-3
    _criterion(2, "DC gain 38.99 (hold output 389.9 mV +- 0.5%)",
               ok and elapsed < 5.0,
               f" [vout = {run.vout * 1e3:.3f} mV, {elapsed:.3f} s]")


def test_criterion_3_power():
    p = power_estimate(10, 31.5e-15, 100e3, 10.0)
    _criterion(3, "power estimate 6.3 uW exact",
               abs(p - 6.3e-6) / 6.3e-6 < 1e-12, f" [{p:.6e} W]")


def test_criterion_4_nonlinearity():
    t0 = time.perf_counter()
    amp = _amp()
    amplitudes = list(np.geomspace(1e-3, 0.175, 50))
    report = gain_sweep(amp, amplitudes, n_periods=4)
    worst = max(abs(e.gain - gain_oracle(LARGE, e.vin)) / gain_oracle(LARGE, e.vin)
                for e in report.entries)
    drop = 1.0 - report.entries[-1].gain / report.entries[0].gain
    elapsed = time.perf_counter() - t0
    ok = 0.06 <= drop <= 0.09 and worst <= 1e-3 and all(e.released for e in report.entries)
    _criterion(4, "gain drop 6-9% over 175x input, oracle agreement 0.1%",
               ok and elapsed < 30.0,
               f" [drop = {drop * 100:.2f}%, worst oracle dev = {worst:.2e}, {elapsed:.2f} s]")


def test_criterion_5_cv_hysteresis():
    ok = True
    details = []
    for name in TABLE:
        dev = get_preset(name).params()
        curve = cv_sweep(dev, 0.0, 1.25 * dev.v_pi, 1001, "both")
        c_mid = 0.5 * (dev.c_on + dev.c_off)
        v_up = next(v for v, c, b in zip(curve.voltages, curve.capacitances,
                                         curve.branches) if b == "up" and c > c_mid)
        v_down = next(v for v, c, b in zip(curve.voltages, curve.capacitances,
                                           curve.branches) if b == "down" and c < c_mid)
        ok = ok and abs(v_up - dev.v_pi) <= 0.01 * dev.v_pi
        ok = ok and abs(v_down - dev.v_po) <= 0.01 * dev.v_po
        details.append(f"{name}: {v_up:.3f}/{v_down:.3f} V")
    # fold displacement: bisect the last stable voltage, check x there
    lo, hi = 1.0, 2.0 * LARGE.v_pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if static_equilibrium_voltage(LARGE, mid).latched:
            hi = mid
        else:
            lo = mid
    x_fold = static_equilibrium_voltage(LARGE, lo).displacement
    ok = ok and abs(lo - LARGE.v_pi) <= 1e-3 * LARGE.v_pi
    ok = ok and abs(x_fold - LARGE.g_eff / 3.0) <= 5e-3 * (LARGE.g_eff / 3.0)
    _criterion(5, "C-V transitions within 1%, fold displacement g_eff/3 within 0.5%",
               ok, " [" + "; ".join(details) + f"; x_fold/g_eff = {x_fold / LARGE.g_eff:.5f}]")


def test_criterion_6_charge_conservation():
    # 100 clock periods of sample-and-hold on a sinusoid
    run = run_sine(_amp(), 0.01, 1e3, n_periods=1)
    transitions = sum(len(s.conservation) for s in run.sim.solutions)
    violations = run.sim.conservation_violations(1e-15)
    ok = violations == 0 and transitions > 100
    _criterion(6, "charge conserved to 1e-15 over 100-period sine",
               ok, f" [{transitions} island transitions, {violations} violations]")


def test_criterion_7_vdc_invariance():
    outs = [run_dc(_amp(v_dc=v), 0.01, n_periods=4).vout for v in (10.0, 10.5, 11.0)]
    spread = (max(outs) - min(outs)) / abs(outs[0])
    ok = spread <= 1e-9
    _criterion(7, "hold output invariant across V_DC in {10, 10.5, 11} V",
               ok, f" [relative spread = {spread:.2e}]")


def test_criterion_8_parasitic_direction_and_calibration():
    study = parasitic_study(_amp(), 1e-15, 1e-15, [1, 10], n_periods=3)
    g1, g10 = study.rows[0].gain, study.rows[1].gain
    target = 0.85 * LARGE.gain_max
    ok = g10 > g1 and abs(study.calibrated_gain - target) / target < 1e-6
    _criterion(8, "gain(m=10) > gain(m=1); calibrated C_p reproduces the 15% drop",
               ok, f" [g(1) = {g1:.2f}, g(10) = {g10:.2f}, "
                   f"C_p = {study.calibrated_c_p * 1e15:.4f} fF (calibration target)]")


def test_criterion_9_transient_properties():
    geom = PRESETS["large"].geometry
    k = LARGE.k
    dyn = DynamicsParams.for_device(geom, k, 2e-9)
    times = []
    for factor in (1.1, 1.3, 1.6, 2.0):
        tr = transient(LARGE, dyn, lambda t, f=factor: f * LARGE.v_pi, 2e-6,
                       d_c=LARGE.d_c)
        assert tr.contact_times, "no pull-in under overdrive"
        times.append(tr.contact_times[0])
    monotone = all(a > b for a, b in zip(times, times[1:]))

    # independent fixed-step RK4 at 10x smaller step
    v = 1.2 * LARGE.v_pi
    m, b = dyn.effective_mass, dyn.damping_b
    area, g_eff, g0 = LARGE.area, LARGE.g_eff, LARGE.g0

    def deriv(y):
        f = EPS0 * area * v * v / (2.0 * (g_eff - y[0]) ** 2)
        return np.array([y[1], (f - b * y[1] - k * y[0]) / m])

    dt = dyn.integration_dt_max / 10.0
    y, t_ref = np.array([0.0, 0.0]), 0.0
    while y[0] < g0:
        k1 = deriv(y)
        k2 = deriv(y + dt / 2 * k1)
        k3 = deriv(y + dt / 2 * k2)
        k4 = deriv(y + dt * k3)
        y_new = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if y_new[0] >= g0:
            t_ref += dt * (g0 - y[0]) / (y_new[0] - y[0])
            break
        y, t_ref = y_new, t_ref + dt
    tr = transient(LARGE, dyn, lambda t: v, 2e-6, d_c=LARGE.d_c)
    agreement = abs(tr.contact_times[0] - t_ref) / t_ref
    ok = monotone and agreement <= 0.01
    _criterion(9, "finite pull-in, monotone in overdrive, RK4 agreement within 1%",
               ok, f" [t_pi = {tr.contact_times[0]:.3e} s, ref dev = {agreement:.2e}]")


def test_criterion_10_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        for argv in (["amplify", "--preset", "large", "--out-dir", str(root / "amp")],
                     ["gain-sweep", "--preset", "large", "--n-points", "3",
                      "--out-dir", str(root / "sweep")]):
            assert cli_main(argv) == 0
        files = {}
        for sub in ("amp", "sweep"):
            for p in sorted((root / sub).iterdir()):
                files[f"{sub}/{p.name}"] = p.read_bytes()
        outputs.append(files)
    capsys.readouterr()  # swallow CLI stdout
    ok = outputs[0] == outputs[1] and len(outputs[0]) == 4
    _criterion(10, "byte-identical CSV/JSON artifacts across reruns",
               ok, f" [{len(outputs[0])} files compared]")
