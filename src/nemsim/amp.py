"""Builders and experiment runners for the switched-capacitor beam amplifier.

Topology: two banks of m electromechanical capacitors (node a, node b to
ground), charged through sampling relays to vin + V_DC and vin - V_DC, then
shorted together in the hold phase. The DC bias charge cancels in the
floating island, the beams release, and the conserved signal charge re-reads
across the small released capacitance, amplified by about C_on/C_off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from . import mech
from .device import EPS0, DeviceParams
from .errors import ConfigError, NoLatchError, NoReleaseError
from .ioutil import format_float
from .scnet import (Clock, ClockSchedule, Dc, Network, NemsCap, OhmicSwitch,
                    SimResult, Sine, VSource, apply_parasitics, simulate)


# largest bank: 100x the m = 100 bank, checked before any network is built
MAX_BANK = 10_000


@dataclass(frozen=True)
class AmpConfig:
    device: DeviceParams
    topology: str = "basic"       # basic | modified
    m: int = 1                    # parallel devices per bank
    v_dc: float = 10.0
    f_clk: float = 100e3
    nonoverlap_frac: float = 0.01
    parasitics: bool = False
    c_gb: float = 1e-15
    c_gc: float = 1e-15
    drive_terminal: str = "gate"  # gate | body
    clock_high: float | None = None  # None: reuse v_dc
    device_name: str = "custom"

    def __post_init__(self):
        if not isinstance(self.device, DeviceParams):
            raise ConfigError(
                f"device must be a DeviceParams, got a {type(self.device).__name__}")
        if self.topology not in ("basic", "modified"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.drive_terminal not in ("gate", "body"):
            raise ConfigError(f"unknown drive terminal {self.drive_terminal!r}")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.m > MAX_BANK:
            raise ConfigError(f"m = {self.m} exceeds the largest bank, {MAX_BANK} devices")
        if self.topology == "basic" and self.m != 1:
            raise ConfigError("basic topology uses exactly one device per bank")
        if not (self.v_dc > self.device.v_pi):
            raise ConfigError(
                f"invalid-config: V_DC = {self.v_dc} V must exceed the device "
                f"pull-in voltage {self.device.v_pi} V")
        if self.parasitics and (self.c_gb < 0 or self.c_gc < 0):
            raise ConfigError("parasitic capacitances must be non-negative")

    @property
    def clock_level(self) -> float:
        return self.v_dc if self.clock_high is None else self.clock_high


@dataclass(frozen=True)
class Amp:
    config: AmpConfig
    schedule: ClockSchedule


def build_amp(config: AmpConfig) -> Amp:
    """Validated amplifier handle; each run builds its own network."""
    return Amp(config, ClockSchedule(config.f_clk, config.nonoverlap_frac))


def _make_network(config: AmpConfig, stim_amplitude: float, stim_freq: float | None) -> Network:
    """Amplifier core: stacked drive rails at vin +- V_DC, grounded bottom
    plates, three shared relays (in-a, in-b on CLK; hold a-b on CLKB) with the
    device's thresholds and OhmicSwitch's default R_on. simulate validates
    it, once, before the first phase."""
    dev = config.device
    net = Network()
    for n in ("gnd", "sp", "sm", "a", "b"):
        net.add_node(n)
    if stim_freq is None:
        net.sources.append(VSource("src_p", "sp", Dc(config.v_dc + stim_amplitude)))
        net.sources.append(VSource("src_m", "sm", Dc(stim_amplitude - config.v_dc)))
    else:
        net.sources.append(VSource("src_p", "sp",
                                   Sine(stim_amplitude, stim_freq, offset=config.v_dc)))
        net.sources.append(VSource("src_m", "sm",
                                   Sine(stim_amplitude, stim_freq, offset=-config.v_dc)))
    for name, a, b, phase in (("s_in_a", "sp", "a", "clk"),
                              ("s_in_b", "sm", "b", "clk"),
                              ("s_hold", "a", "b", "clkb")):
        net.switches.append(OhmicSwitch(
            name, a, b, Clock(phase, config.clock_level),
            v_pi=dev.v_pi, v_po=dev.v_po))
    for i in range(config.m):
        suffix = "" if config.m == 1 else f"_{i}"
        net.nems_caps.append(NemsCap(f"ca{suffix}", "a", "gnd", dev))
        net.nems_caps.append(NemsCap(f"cb{suffix}", "b", "gnd", dev))
    if config.parasitics:
        apply_parasitics(net, config.c_gb, config.c_gc, config.drive_terminal)
    return net


@dataclass(frozen=True)
class DcRun:
    vin: float
    vout: float
    gain: float              # nan at vin = 0
    displacement: float      # hold-phase beam displacement (m)
    sampled_latched: bool
    hold_released: bool
    sim: SimResult


def _require_finite(**values: float) -> None:
    """ConfigError naming the first non-finite value, before any compute."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


def _dc_detail(amp: Amp, vin: float, n_periods: int) -> DcRun:
    _require_finite(vin=vin, n_periods=n_periods)
    if n_periods < 2:
        raise ConfigError("DC runs need at least 2 periods to reach steady state")
    net = _make_network(amp.config, vin, None)
    sim = simulate(net, amp.schedule, n_periods * amp.schedule.period)
    rows = sim.solutions
    last = {ph.kind: r for r, ph in enumerate(rows.phases)}  # last row of each kind
    sample, hold = last["sample"], last["hold"]
    # two rows, not the whole run's latched_beams() (~2 ms on an m = 100 bank)
    _, sampled = rows.beam_row(sample)
    x_hold, held = rows.beam_row(hold)
    vout = rows.node_voltage("a")[hold]
    gain = vout / vin if vin != 0.0 else math.nan
    return DcRun(vin, vout, gain, max(x_hold), sampled.count(1) == rows.n_beams,
                 held.count(1) == 0, sim)


def run_dc(amp: Amp, vin: float, n_periods: int = 10) -> DcRun:
    """Steady-state hold voltage and gain for a DC input.

    Raises NoLatchError when sampling fails (|vin +- V_DC| never crossed
    pull-in) and NoReleaseError when the input exceeds the charge-control
    clamp so the beams stay latched through the hold phase.
    """
    run = _dc_detail(amp, vin, n_periods)
    dev = amp.config.device
    if not run.sampled_latched:
        raise NoLatchError(
            f"sampling failed at vin = {vin} V: need V_DC - |vin| = "
            f"{amp.config.v_dc - abs(vin):.4g} V above pull-in {dev.v_pi} V")
    if not run.hold_released:
        raise NoReleaseError(
            f"input out of dynamic range at vin = {vin} V: hold charge "
            f"{dev.c_on * abs(vin):.4g} C at or above the release clamp "
            f"{dev.q_clamp:.4g} C (vin_max = {dev.q_clamp / dev.c_on:.4g} V)")
    return run


@dataclass(frozen=True)
class SineSample:
    t_sample: float     # switch-opening instant
    t_hold: float
    vin_sampled: float
    vout: float         # hold single-ended node voltage
    gain: float         # nan where vin_sampled == 0
    sampled_latched: bool
    hold_released: bool


@dataclass(frozen=True)
class SineRun:
    amplitude: float
    f_in: float
    samples: tuple[SineSample, ...]
    sim: SimResult

    def differential_csv(self) -> str:
        """t_s,vin_V,vdiff_V rows at phase boundaries (zero-order hold)."""
        lines = ["t_s,vin_V,vdiff_V"]
        rows = self.sim.solutions
        for ph, va, vb in zip(rows.phases, rows.node_voltage("a"), rows.node_voltage("b")):
            for t in (ph.t_start, ph.t_end):
                vin = self.amplitude * math.sin(2.0 * math.pi * self.f_in * t)
                vdiff = va + vb
                lines.append(f"{format_float(t)},{format_float(vin)},{format_float(vdiff)}")
        return "\n".join(lines) + "\n"


def run_sine(amp: Amp, amplitude: float, f_in: float, n_periods: int = 1) -> SineRun:
    """Sample-and-hold amplification of a sinusoid; one entry per hold phase.

    Out-of-range excursions are flagged per sample rather than raised. The
    differential output is v_a - (-v_b); with the symmetric drive it reads
    2*vin during sample phases and 2*vout during holds. The window,
    n_periods input periods, must span a whole number of clock periods
    (to 1e-9 relative); otherwise ConfigError, before simulating.
    """
    _require_finite(amplitude=amplitude, f_in=f_in, n_periods=n_periods)
    if amplitude < 0:
        raise ConfigError("amplitude must be non-negative")
    if not (f_in > 0) or not (f_in < amp.config.f_clk / 2):
        raise ConfigError(
            f"input frequency {f_in} Hz must lie in (0, f_CLK/2 = {amp.config.f_clk / 2} Hz)")
    t_end = n_periods / f_in
    clock_periods = t_end / amp.schedule.period
    if abs(clock_periods - round(clock_periods)) > 1e-9 * clock_periods:
        raise ConfigError(
            f"window n_periods / f_in = {t_end!r} s spans {clock_periods!r} clock periods; "
            "it must span a whole number of them")
    net = _make_network(amp.config, amplitude, f_in)
    sim = simulate(net, amp.schedule, t_end)
    rows = sim.solutions
    va, latched, n_beams = rows.node_voltage("a"), rows.latched_beams(), rows.n_beams
    samples: list[SineSample] = []
    pending: int | None = None  # row of the last sample phase
    for r, ph in enumerate(rows.phases):
        if ph.kind == "sample":
            pending = r
        elif ph.kind == "hold" and pending is not None:
            t_s = rows.phases[pending].t_end
            vin = amplitude * math.sin(2.0 * math.pi * f_in * t_s)
            vout = va[r]
            samples.append(SineSample(
                t_sample=t_s, t_hold=ph.t_end, vin_sampled=vin, vout=vout,
                gain=vout / vin if vin != 0.0 else math.nan,
                sampled_latched=latched[pending] == n_beams,
                hold_released=latched[r] == 0))
    return SineRun(amplitude, f_in, tuple(samples), sim)


@dataclass(frozen=True)
class GainEntry:
    vin: float
    vout: float
    gain: float
    displacement: float
    released: bool


@dataclass(frozen=True)
class GainReport:
    entries: tuple[GainEntry, ...]

    def to_csv(self) -> str:
        lines = ["vin_V,vout_V,gain,x_m,released"]
        for e in self.entries:
            lines.append(",".join([
                format_float(e.vin), format_float(e.vout), format_float(e.gain),
                format_float(e.displacement), "1" if e.released else "0"]))
        return "\n".join(lines) + "\n"


def require_sweep_size(n_amplitudes: int, n_periods: int) -> None:
    """ConfigError if a gain sweep of n_amplitudes DC runs of n_periods clock
    periods would simulate more than mech.MAX_SWEEP_SIZE phases (4 per period)."""
    phases = n_amplitudes * 4 * n_periods
    if phases > mech.MAX_SWEEP_SIZE:
        raise ConfigError(
            f"gain sweep of {n_amplitudes} amplitudes x {n_periods} periods spans "
            f"{phases} phases, more than {mech.MAX_SWEEP_SIZE}")


def gain_sweep(amp: Amp, amplitudes: Sequence[float], n_periods: int = 10) -> GainReport:
    """Full-simulation gain at each amplitude, in input order; out-of-range
    entries flagged."""
    amps = list(amplitudes)
    if not amps:
        raise ConfigError("amplitude list must not be empty")
    require_sweep_size(len(amps), n_periods)
    _require_finite(**{f"amplitudes[{i}]": a for i, a in enumerate(amps)}, n_periods=n_periods)
    if any(a <= 0 for a in amps) or any(b <= a for a, b in zip(amps, amps[1:])):
        raise ConfigError("amplitudes must be positive and strictly ascending")
    entries = []
    for vin in amps:
        run = _dc_detail(amp, vin, n_periods)
        entries.append(GainEntry(vin, run.vout, run.gain, run.displacement,
                                 run.sampled_latched and run.hold_released))
    return GainReport(tuple(entries))


def gain_oracle(device: DeviceParams, vin: float) -> float:
    """Closed-form charge-control gain: (C_on*g_eff/(eps0*A)) * (1 - x(q)/g_eff)
    with q = C_on*vin. Independent of the phase-stepping engine; nan once the
    clamp latches."""
    q = device.c_on * vin
    x = q * q / (2.0 * EPS0 * device.area * device.k)
    if x >= device.g0:
        return math.nan
    return device.c_on * device.g_eff / (EPS0 * device.area) * (1.0 - x / device.g_eff)


def power_estimate(m: int, c_a: float, f_clk: float, v_dc: float) -> float:
    """Dynamic power of the clocked banks: 2 * m * C_A * f_CLK * V_DC^2 (W)."""
    if m < 1 or c_a <= 0 or f_clk <= 0 or v_dc <= 0:
        raise ConfigError("power estimate needs positive m, C_A, f_CLK, V_DC")
    return 2.0 * m * c_a * f_clk * v_dc ** 2


def dynamic_range(amp: Amp) -> tuple[float, float]:
    """(vin_min, vin_max): the max is the tightest of headroom above pull-in,
    the pull-out bound, and the charge-control clamp."""
    dev = amp.config.device
    vin_max = min(amp.config.v_dc - dev.v_pi, dev.v_po, dev.q_clamp / dev.c_on)
    return 0.0, vin_max


@dataclass(frozen=True)
class ParasiticRow:
    m: int
    gain: float


@dataclass(frozen=True)
class ParasiticStudy:
    rows: tuple[ParasiticRow, ...]
    c_gb: float
    c_gc: float
    calibrated_c_p: float     # value reproducing the target drop at m = calibration_m
    calibrated_gain: float
    calibration_m: int
    note: str = "calibration target, not a prediction"


# the parasitic study's DC input, and its calibration: the published 15% gain
# drop at m = 10
_STUDY_VIN = 1e-3
_DROP_TARGET = 0.15
_CALIBRATION_M = 10


def _study_gain(base: AmpConfig, m: int, c_gb: float, c_gc: float, n_periods: int) -> float:
    cfg = replace(base, topology="modified", m=m, parasitics=True,
                  c_gb=c_gb, c_gc=c_gc)
    return _dc_detail(build_amp(cfg), _STUDY_VIN, n_periods).gain


def parasitic_study(amp: Amp, c_gb: float, c_gc: float, m_values: Sequence[int],
                    n_periods: int = 4) -> ParasiticStudy:
    """Gain at a 1 mV DC input versus parallel-device count at fixed
    parasitics, plus the C_p calibrated to reproduce the published 15% gain
    drop at m = 10.

    The published drop is treated as a calibration target because no
    parasitic values are published.
    """
    if c_gb < 0 or c_gc < 0:
        raise ConfigError("parasitic capacitances must be non-negative")
    base = amp.config
    rows = tuple(ParasiticRow(m, _study_gain(base, m, c_gb, c_gc, n_periods))
                 for m in m_values)
    target = (1.0 - _DROP_TARGET) * base.device.gain_max

    def miss(c_p_fF: float) -> float:
        c_p = c_p_fF * 1e-15
        return _study_gain(base, _CALIBRATION_M, c_p, c_p, n_periods) - target

    # solve in fF so brentq's absolute xtol is meaningful at this scale
    c_cal = mech.brentq(miss, 1e-4, 1e3, rtol=1e-12) * 1e-15
    g_cal = _study_gain(base, _CALIBRATION_M, c_cal, c_cal, n_periods)
    return ParasiticStudy(rows, c_gb, c_gc, c_cal, g_cal, _CALIBRATION_M)


def summary(amp: Amp, gain_dc: float | None) -> dict:
    """Structured experiment summary for the JSON artifact."""
    cfg = amp.config
    return {
        "device": cfg.device_name,
        "topology": cfg.topology,
        "m": cfg.m,
        "vdc_V": cfg.v_dc,
        "fclk_hz": cfg.f_clk,
        "gain_dc": gain_dc,
        "vin_max_V": dynamic_range(amp)[1],
        "power_W": power_estimate(cfg.m, cfg.device.c_on, cfg.f_clk, cfg.v_dc),
    }
