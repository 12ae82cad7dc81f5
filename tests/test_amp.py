import gc
import math
import tracemalloc

import pytest

from nemsim import amp as amp_mod
from nemsim import cli, mech, scnet
from nemsim.amp import (AmpConfig, build_amp, dynamic_range, gain_oracle,
                        gain_sweep, parasitic_study, power_estimate, run_dc,
                        run_sine, summary, _make_network)
from nemsim.device import PRESETS, get_preset
from nemsim.errors import ConfigError, NoLatchError, NoReleaseError
from nemsim.scnet import Network

DEV = get_preset("large").params()


def rel(a, b):
    return abs(a - b) / abs(b)


def large_amp(**overrides):
    cfg = AmpConfig(device=DEV, device_name="large", **overrides)
    return build_amp(cfg)


class TestConfig:
    def test_vdc_must_exceed_pullin(self):
        with pytest.raises(ConfigError):
            AmpConfig(device=DEV, v_dc=5.0)
        with pytest.raises(ConfigError):
            AmpConfig(device=DEV, v_dc=DEV.v_pi)

    def test_device_must_be_device_params(self):
        # a Preset has a v_pi too, so only a type check stops it before a run
        # reads its missing area
        with pytest.raises(ConfigError, match="device must be a DeviceParams, got a Preset"):
            run_dc(build_amp(AmpConfig(PRESETS["large"])), 0.1)

    def test_basic_single_device(self):
        with pytest.raises(ConfigError):
            AmpConfig(device=DEV, topology="basic", m=2)
        with pytest.raises(ConfigError):
            AmpConfig(device=DEV, m=0, topology="modified")

    def test_modified_bank_size(self):
        net = _make_network(AmpConfig(device=DEV, topology="modified", m=10), 0.01, None)
        assert len(net.nems_caps) == 20
        assert len(net.switches) == 3

    def test_bank_size_bounded_before_any_network(self, monkeypatch):
        monkeypatch.setattr(amp_mod, "MAX_BANK", 4)

        def no_network(*args):
            raise AssertionError("network built for an out-of-bound bank")

        monkeypatch.setattr(amp_mod, "_make_network", no_network)
        assert AmpConfig(device=DEV, topology="modified", m=4).m == 4
        with pytest.raises(ConfigError, match="m = 5 exceeds the largest bank, 4 devices"):
            AmpConfig(device=DEV, topology="modified", m=5)

    @pytest.mark.parametrize("overrides, match", [
        ({"topology": "folded"}, "unknown topology 'folded'"),
        ({"drive_terminal": "drain"}, "unknown drive terminal 'drain'"),
        ({"parasitics": True, "c_gb": -1e-15}, "parasitic capacitances must be non-negative"),
        ({"parasitics": True, "c_gc": -1e-15}, "parasitic capacitances must be non-negative"),
    ])
    def test_rejected(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            AmpConfig(device=DEV, **overrides)

    def test_basic_network_shape(self):
        net = _make_network(AmpConfig(device=DEV), 0.01, None)
        assert len(net.nems_caps) == 2
        assert len(net.switches) == 3
        assert len(net.sources) == 2


class TestRunDc:
    def test_reference_gain(self):
        run = run_dc(large_amp(), 0.01)
        assert rel(run.vout, 0.3899) < 5e-3
        assert rel(run.gain, 38.99) < 5e-3
        assert run.sampled_latched and run.hold_released

    def test_zero_input(self):
        assert run_dc(large_amp(), 0.0).vout == 0.0

    def test_odd_symmetry(self):
        pos = run_dc(large_amp(), 0.01)
        neg = run_dc(large_amp(), -0.01)
        assert rel(neg.vout, -pos.vout) < 1e-12

    def test_steady_after_first_period(self):
        run = run_dc(large_amp(), 0.01, n_periods=10)
        holds = run.sim.phases_of_kind("hold")
        first = holds[0].node_voltages["a"]
        for h in holds[1:]:
            assert math.isclose(h.node_voltages["a"], first, rel_tol=1e-13)

    def test_no_release_beyond_clamp(self):
        amp = large_amp(v_dc=12.0)  # headroom so sampling itself succeeds
        with pytest.raises(NoReleaseError):
            run_dc(amp, 0.7)

    def test_no_latch_with_weak_clock(self):
        amp = large_amp(clock_high=5.0)  # relays never close
        with pytest.raises(NoLatchError):
            run_dc(amp, 0.01)

    @pytest.mark.parametrize("overrides, checks", [
        ({}, 1),
        ({"topology": "modified", "m": 2, "parasitics": True}, 2)])
    def test_network_validated_once_per_builder(self, monkeypatch, overrides, checks):
        # simulate's CompiledNetwork checks the network; apply_parasitics,
        # public, checks what it returns
        calls = []
        validate = Network.validate
        monkeypatch.setattr(Network, "validate", lambda net: calls.append(net) or validate(net))
        run_dc(large_amp(**overrides), 0.01, n_periods=2)
        assert len(calls) == checks


class TestRunSine:
    def test_reference_staircase(self):
        run = run_sine(large_amp(), 0.01, 10e3, n_periods=1)
        dc_gain = run_dc(large_amp(), 0.01).gain
        assert len(run.samples) == 10  # f_clk / f_in holds per input period
        for s in run.samples:
            if abs(s.vin_sampled) > 1e-3:
                assert rel(s.gain, dc_gain) < 0.01
                assert s.sampled_latched and s.hold_released

    def test_zero_amplitude_flat(self):
        run = run_sine(large_amp(), 0.0, 10e3)
        assert all(s.vout == 0.0 for s in run.samples)

    def test_per_sample_gain_matches_dc_at_instantaneous_amplitude(self):
        # amplitude large enough that gain varies visibly across the cycle
        amp = large_amp(v_dc=12.0)
        run = run_sine(amp, 0.3, 10e3, n_periods=1)
        for s in run.samples:
            if abs(s.vin_sampled) > 0.03:
                dc = run_dc(amp, s.vin_sampled, n_periods=4)
                assert rel(s.gain, dc.gain) < 0.01

    def test_sample_count_at_low_frequency(self):
        run = run_sine(large_amp(), 5e-3, 1e3, n_periods=1)
        assert len(run.samples) == 100

    def test_nyquist_guard(self):
        with pytest.raises(ConfigError):
            run_sine(large_amp(), 0.01, 60e3)

    def test_window_of_whole_clock_periods(self, monkeypatch):
        # three 30 kHz periods span ten clock periods
        assert len(run_sine(large_amp(), 0.01, 30e3, n_periods=3).sim.solutions) == 40

        def no_simulate(*args):
            raise AssertionError("simulate called on a partial clock period")

        monkeypatch.setattr(amp_mod, "simulate", no_simulate)
        # one 30 kHz period is 3.33 clock periods, which the schedule would cut to 3
        with pytest.raises(ConfigError, match="must span a whole number of them"):
            run_sine(large_amp(), 0.01, 30e3, n_periods=1)

    def test_differential_trace(self):
        run = run_sine(large_amp(), 0.01, 10e3)
        text = run.differential_csv()
        assert text.startswith("t_s,vin_V,vdiff_V\n")
        # hold rows carry twice the single-ended output
        hold = next(s for s in run.sim.solutions if s.phase.kind == "hold")
        va, vb = hold.node_voltages["a"], hold.node_voltages["b"]
        assert math.isclose(va + vb, 2 * va, rel_tol=1e-12)


class TestSolutionStorage:
    def test_solution_maps_are_read_only(self):
        # phases 5, 9 and 13 enter the same transition, so the run solves it once
        sim = run_dc(large_amp(), 0.01, 4).sim
        solved = [sim.solutions[i].node_voltages["a"] for i in (5, 9, 13)]
        assert solved[0] == solved[1] == solved[2] != 99.0
        sol = sim.solutions[5]
        with pytest.raises(TypeError):
            sol.node_voltages["a"] = 99.0
        for field in ("charges", "beam_states", "switch_states"):
            with pytest.raises(TypeError):
                getattr(sol, field)["ca"] = None
        assert [sim.solutions[i].node_voltages["a"] for i in (5, 9, 13)] == solved

    def test_sine_run_retains_at_most_1_kib_per_phase(self):
        # per-phase state lives in the run's columns, not in per-phase objects
        amp = large_amp()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run = run_sine(amp, 0.05, 100.0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(run.sim.solutions) == 4000
        assert retained <= 1024 * len(run.sim.solutions)


class TestGainSweep:
    def test_matches_oracle(self):
        amps = [1e-3, 5e-3, 0.02, 0.05, 0.1, 0.175]
        report = gain_sweep(large_amp(), amps, n_periods=4)
        for e in report.entries:
            assert e.released
            assert rel(e.gain, gain_oracle(DEV, e.vin)) < 1e-3

    def test_matches_oracle_over_full_released_range(self):
        # toward the clamp the beams ride close to contact and the gain
        # collapses from ~39 to ~1; the engine must track the closed form
        amp = large_amp(v_dc=12.0)
        report = gain_sweep(amp, [0.3, 0.5, 0.6, 0.625], n_periods=4)
        for e in report.entries:
            assert e.released
            assert rel(e.gain, gain_oracle(DEV, e.vin)) < 1e-3
        assert report.entries[-1].gain < 2.0

    def test_nonlinearity_drop(self):
        report = gain_sweep(large_amp(), [1e-3, 0.175], n_periods=4)
        drop = 1.0 - report.entries[1].gain / report.entries[0].gain
        assert 0.06 <= drop <= 0.09

    def test_gain_decreasing_in_amplitude(self):
        report = gain_sweep(large_amp(), [1e-3, 0.05, 0.1, 0.175], n_periods=4)
        gains = [e.gain for e in report.entries]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_even_in_sign(self):
        assert rel(run_dc(large_amp(), 0.1).gain, run_dc(large_amp(), -0.1).gain) < 1e-12

    def test_beyond_clamp_flagged(self):
        amp = large_amp(v_dc=12.0)
        report = gain_sweep(amp, [0.5, 0.64], n_periods=4)
        assert report.entries[0].released
        assert not report.entries[1].released
        # the closed form has no gain once the clamp latches
        assert math.isnan(gain_oracle(DEV, 1.01 * DEV.q_clamp / DEV.c_on))
        assert not math.isnan(gain_oracle(DEV, 0.99 * DEV.q_clamp / DEV.c_on))

    def test_bad_amplitudes(self):
        with pytest.raises(ConfigError):
            gain_sweep(large_amp(), [])
        with pytest.raises(ConfigError):
            gain_sweep(large_amp(), [0.01, 0.01])
        with pytest.raises(ConfigError):
            gain_sweep(large_amp(), [-0.01, 0.01])

    def test_phase_bound_before_compute(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated")

        amps = [0.01, 0.02, 0.03, 0.04]
        monkeypatch.setattr(amp_mod, "simulate", no_run)
        monkeypatch.setattr(mech, "MAX_SWEEP_SIZE", 63)
        with pytest.raises(ConfigError, match="4 amplitudes x 4 periods spans 64 phases, more than 63"):
            gain_sweep(large_amp(), amps, n_periods=4)
        monkeypatch.setattr(mech, "MAX_SWEEP_SIZE", 64)
        with pytest.raises(AssertionError, match="simulated"):  # at the bound it runs
            gain_sweep(large_amp(), amps, n_periods=4)

    def test_islands_run_once_per_mask_across_a_sweep(self, monkeypatch):
        calls = []
        real = scnet.islands
        monkeypatch.setattr(scnet, "islands", lambda *args: calls.append(args[2]) or real(*args))
        monkeypatch.setattr(scnet, "_PARTITIONS", {})
        gain_sweep(large_amp(), [0.001 * 1.5 ** i for i in range(10)], n_periods=4)
        # sample, dead and hold: one partition each, built in the first run
        assert len(calls) == len(set(calls)) == 3

    def test_entry_equals_its_own_one_amplitude_sweep(self):
        amps = [0.002, 0.01, 0.03, 0.07, 0.15]
        five = gain_sweep(large_amp(), amps, n_periods=4)
        for k in (0, 3):
            one = gain_sweep(large_amp(), [amps[k]], n_periods=4)
            assert one.entries == (five.entries[k],)
            assert one.to_csv().splitlines()[1] == five.to_csv().splitlines()[k + 1]

    def test_csv(self):
        report = gain_sweep(large_amp(), [1e-3], n_periods=2)
        assert report.to_csv().startswith("vin_V,vout_V,gain,x_m,released\n")


class TestSharedRelayRows:
    """Consecutive runs with the same phase sequence and relays share their
    relay rows: a gain sweep steps its relays once, not once per amplitude."""

    @staticmethod
    def counted(monkeypatch):
        """The phase count of each relay-row computation, from an empty cache."""
        calls = []
        real = scnet._relay_rows
        monkeypatch.setattr(scnet, "_relay_rows", lambda relays, phases, entering:
                            calls.append(len(phases)) or real(relays, phases, entering))
        monkeypatch.setattr(scnet, "_RUN_RELAYS", [None, None, None])
        return calls

    def test_a_gain_sweep_computes_them_once(self, monkeypatch, tmp_path, capsys):
        calls = self.counted(monkeypatch)
        assert cli.main(["gain-sweep", "--preset", "large", "--n-points", "5",
                         "--out-dir", str(tmp_path)]) == 0
        assert len((tmp_path / "gain_sweep.csv").read_text().splitlines()) == 1 + 5
        assert calls == [40]

    def test_a_sine_amplify_computes_them_for_each_run(self, monkeypatch, tmp_path, capsys):
        """Once for the sine run and once for its DC reference, whose phase
        sequence is another."""
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text('device.preset = "large"\nstimulus.kind = sine\n'
                       "stimulus.amplitude_V = 0.05\nstimulus.freq_hz = 10000\n")
        calls = self.counted(monkeypatch)
        assert cli.main(["amplify", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert calls == [400, 40]

    def test_other_relays_recompute_them(self, monkeypatch):
        calls = self.counted(monkeypatch)
        want = run_dc(large_amp(), 0.05)
        assert run_dc(large_amp(), 0.02).gain != want.gain
        assert calls == [40]
        # a clock rail below pull-in: the relays never close
        with pytest.raises(NoLatchError):
            run_dc(large_amp(clock_high=5.0), 0.05)
        assert calls == [40, 40]
        again = run_dc(large_amp(), 0.05)
        assert calls == [40, 40, 40]
        assert repr(again.sim.solutions[:]) == repr(want.sim.solutions[:])


class TestSharedPartitions:
    """Runs of one network shape share its partitions within a process; a
    run must not depend on what earlier runs built."""

    @pytest.mark.parametrize("overrides", [{}, {"topology": "modified", "m": 3,
                                                "parasitics": True}])
    def test_run_after_runs_of_its_shape_equals_a_fresh_one(self, monkeypatch, overrides):
        amp = large_amp(**overrides)
        run_sine(amp, 0.02, 10e3, n_periods=1)
        run_dc(amp, 0.004)
        with monkeypatch.context() as patch:
            patch.setattr(scnet, "islands", lambda *args: pytest.fail("partition rebuilt"))
            reused = run_dc(amp, 0.09).sim
        monkeypatch.setattr(scnet, "_PARTITIONS", {})
        fresh = run_dc(amp, 0.09).sim
        assert [repr(s) for s in reused.solutions] == [repr(s) for s in fresh.solutions]
        assert reused.waveform_csv() == fresh.waveform_csv()


class TestNonFiniteInputs:
    """Library entry points reject nan and +-inf before simulating anything."""

    @pytest.mark.parametrize("call, name", [
        (lambda amp: run_dc(amp, math.inf), "vin"),
        (lambda amp: run_dc(amp, math.nan), "vin"),
        (lambda amp: run_sine(amp, math.inf, 1e3), "amplitude"),
        (lambda amp: run_sine(amp, 0.01, math.nan), "f_in"),
        (lambda amp: gain_sweep(amp, [0.01, math.inf]), r"amplitudes\[1\]"),
        (lambda amp: gain_sweep(amp, [0.01, math.nan, 0.02]), r"amplitudes\[1\]"),
    ])
    def test_config_error_before_compute(self, call, name, monkeypatch):
        def no_simulate(*args):
            raise AssertionError("simulate called on a non-finite input")

        monkeypatch.setattr(amp_mod, "simulate", no_simulate)
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            call(large_amp())


class TestRejectedBeforeCompute:
    """Out-of-range run arguments are a ConfigError before any network is simulated."""

    @pytest.mark.parametrize("call, match", [
        (lambda amp: run_dc(amp, 0.01, n_periods=1), "at least 2 periods"),
        (lambda amp: run_sine(amp, -0.01, 10e3), "amplitude must be non-negative"),
        (lambda amp: parasitic_study(amp, -1e-15, 0.0, [1]),
         "parasitic capacitances must be non-negative"),
        (lambda amp: parasitic_study(amp, 0.0, -1e-15, [1]),
         "parasitic capacitances must be non-negative"),
    ], ids=["run_dc-one-period", "run_sine-negative-amplitude", "study-negative-c_gb",
            "study-negative-c_gc"])
    def test_config_error(self, call, match, monkeypatch):
        def no_simulate(*args):
            raise AssertionError("simulate called on a rejected input")

        monkeypatch.setattr(amp_mod, "simulate", no_simulate)
        with pytest.raises(ConfigError, match=match):
            call(large_amp())


class TestPower:
    def test_reference_point(self):
        assert rel(power_estimate(10, 31.5e-15, 100e3, 10.0), 6.3e-6) < 1e-15

    def test_single_device(self):
        assert rel(power_estimate(1, 31.5e-15, 100e3, 10.0), 0.63e-6) < 1e-15

    def test_scaling_properties(self):
        import random
        rng = random.Random(7)
        for _ in range(20):
            m = rng.randrange(1, 40)
            c = rng.uniform(1e-15, 1e-13)
            f = rng.uniform(1e4, 1e7)
            v = rng.uniform(1.0, 20.0)
            p = power_estimate(m, c, f, v)
            assert power_estimate(2 * m, c, f, v) == 2 * p
            assert power_estimate(m, c, 2 * f, v) == 2 * p
            assert rel(power_estimate(m, c, f, 2 * v), 4 * p) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            power_estimate(0, 31.5e-15, 100e3, 10.0)


class TestDynamicRange:
    def test_headroom_limited(self):
        lo, hi = dynamic_range(large_amp())
        assert lo == 0.0
        bounds = (10.0 - DEV.v_pi, DEV.v_po, DEV.q_clamp / DEV.c_on)
        assert rel(hi, min(bounds)) < 1e-12
        assert rel(hi, 0.4) < 1e-9

    def test_clamp_limited(self):
        _, hi = dynamic_range(large_amp(v_dc=12.0))
        assert rel(hi, DEV.q_clamp / DEV.c_on) < 1e-12
        assert rel(hi, 0.63) < 3e-3

    def test_shrinks_to_zero_at_pullin(self):
        _, hi = dynamic_range(large_amp(v_dc=DEV.v_pi + 1e-6))
        assert hi == pytest.approx(1e-6, rel=1e-6)


class TestVdcInvariance:
    def test_hold_output_independent_of_vdc(self):
        outs = [run_dc(large_amp(v_dc=v), 0.01).vout for v in (10.0, 10.5, 11.0)]
        for v in outs[1:]:
            assert rel(v, outs[0]) < 1e-9


class TestParasiticStudy:
    def test_zero_parasitics_equal_ideal(self):
        study = parasitic_study(large_amp(), 0.0, 0.0, [1, 10], n_periods=3)
        ideal = run_dc(large_amp(), 1e-3, n_periods=3).gain
        for row in study.rows:
            assert rel(row.gain, ideal) < 1e-9

    def test_gain_grows_with_m(self):
        study = parasitic_study(large_amp(), 1e-15, 1e-15, [1, 2, 5, 10], n_periods=3)
        gains = [r.gain for r in study.rows]
        assert all(a < b for a, b in zip(gains, gains[1:]))
        assert gains[-1] < DEV.gain_max

    def test_calibration_hits_target(self):
        study = parasitic_study(large_amp(), 1e-15, 1e-15, [10], n_periods=3)
        target = 0.85 * DEV.gain_max
        assert rel(study.calibrated_gain, target) < 1e-6
        assert rel(study.calibrated_c_p, 0.7349e-15) < 1e-2
        assert study.calibration_m == 10


    def test_calibration_root_is_found_by_mech_brentq(self, monkeypatch):
        # amp reaches the root-finder through mech at call time
        calls = []
        brentq = mech.brentq

        def recording(*args, **kwargs):
            calls.append(brentq(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(mech, "brentq", recording)
        study = parasitic_study(large_amp(), 1e-15, 1e-15, [], n_periods=3)
        assert len(calls) == 1 and study.calibrated_c_p == calls[0] * 1e-15

class TestSummary:
    def test_keys_and_values(self):
        amp = large_amp()
        doc = summary(amp, 38.99)
        assert set(doc) == {"device", "topology", "m", "vdc_V", "fclk_hz",
                            "gain_dc", "vin_max_V", "power_W"}
        assert doc["device"] == "large"
        assert rel(doc["power_W"], 2 * DEV.c_on * 100e3 * 100.0) < 1e-12
