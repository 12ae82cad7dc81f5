"""Command-line front end: scenario in, CSV/JSON artifacts out.

Commands: device-report, cv-sweep, transient, amplify, gain-sweep, power.
Artifacts are computed fully before anything is written, and each file is
written atomically, so a failing run leaves no partial output. Exit codes:
0 success, 1 configuration, 2 solver, 3 I/O.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import amp as amp_mod
from .amp import AmpConfig, build_amp, dynamic_range, gain_sweep, power_estimate
from .device import compare_to_reference, PRESETS
from .errors import (CalibrationError, ConfigError, ConvergenceError,
                     DisplacementRangeError, InvalidGeometryError, NemsimError,
                     NetworkError, NoLatchError, NoReleaseError, ScenarioError,
                     StiffnessError)
from .ioutil import atomic_write_text, dump_json, format_float
from .mech import DynamicsParams, cv_sweep, transient
from .scenario import Scenario, parse_scenario

EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3

_CONFIG_ERRORS = (ScenarioError, ConfigError, InvalidGeometryError,
                  CalibrationError, NetworkError)
_SOLVER_ERRORS = (ConvergenceError, NoLatchError, NoReleaseError,
                  StiffnessError, DisplacementRangeError)


def _json_safe(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit_error(kind: str, exc: Exception) -> None:
    payload = {"error": {"kind": kind, "message": str(exc)}}
    if isinstance(exc, ScenarioError):
        payload["error"]["kind"] = exc.kind
        if exc.line is not None:
            payload["error"]["line"] = exc.line
    sys.stderr.write(dump_json(payload))


def _print_csv_summary(summary: dict) -> None:
    for key in sorted(summary):
        value = summary[key]
        if value is None:
            value = ""
        elif isinstance(value, float):
            value = format_float(value) if math.isfinite(value) else ""
        sys.stdout.write(f"{key},{value}\n")


def _load_scenario(args) -> Scenario:
    if args.config and args.preset:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        return parse_scenario(text)
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; known: {', '.join(sorted(PRESETS))}")
        return Scenario(device_preset=args.preset)
    raise ConfigError("missing device section: pass --config or --preset")


def _amp_for(scn: Scenario):
    cfg = AmpConfig(
        device=scn.device_params(), topology=scn.topology, m=scn.m,
        v_dc=scn.v_dc, f_clk=scn.f_clk, nonoverlap_frac=scn.nonoverlap_frac,
        parasitics=scn.parasitics, c_gb=scn.c_gb, c_gc=scn.c_gc,
        drive_terminal=scn.drive_terminal, device_name=scn.device_name())
    return build_amp(cfg)


# --------------------------------------------------------------------------
# command handlers: return (summary, artifacts); main adds summary.json

def _cmd_device_report(scn: Scenario, args):
    dev = scn.device_params()
    summary = {
        "device": scn.device_name(),
        "A_m2": dev.area, "g_eff_m": dev.g_eff, "k_N_per_m": dev.k,
        "V_PI_V": dev.v_pi, "V_PO_V": dev.v_po, "d_c_m": dev.d_c,
        "C_on_F": dev.c_on, "C_off_F": dev.c_off, "max_gain": dev.gain_max,
    }
    if scn.device_preset:
        checks = compare_to_reference(scn.device_preset)
        summary["reference_check"] = checks
        summary["reference_pass"] = all(c["passed"] for c in checks)
    return summary, {}


def _transition_voltages(curve) -> tuple[float | None, float | None]:
    mid = 0.5 * (min(curve.capacitances) + max(curve.capacitances))
    up = down = None
    for v, c, b in zip(curve.voltages, curve.capacitances, curve.branches):
        if b == "up" and up is None and c > mid:
            up = v
        if b == "down" and down is None and c < mid:
            down = v
    return up, down


def _cmd_cv_sweep(scn: Scenario, args):
    dev = scn.device_params()
    v_end = args.v_end if args.v_end is not None else 1.25 * dev.v_pi
    curve = cv_sweep(dev, args.v_start, v_end, args.n_points, args.direction)
    up, down = _transition_voltages(curve)
    summary = {
        "device": scn.device_name(), "v_pi_V": dev.v_pi, "v_po_V": dev.v_po,
        "v_start_V": args.v_start, "v_end_V": v_end, "n_points": args.n_points,
        "direction": args.direction,
        "up_transition_V": up, "down_transition_V": down,
    }
    return summary, {"cv.csv": curve.to_csv()}


def _cmd_transient(scn: Scenario, args):
    dev = scn.device_params()
    geom = scn.geometry()  # the beam mass needs its length, width and thickness
    level = args.level_V if args.level_V is not None else 1.2 * dev.v_pi
    dyn = DynamicsParams.for_device(geom, dev.k, 1.0)
    t_end = args.t_end_s if args.t_end_s is not None \
        else 200.0 * math.sqrt(dyn.effective_mass / dev.k)
    if not (t_end > 0):
        raise ConfigError(f"--t-end-s (t_end) must be positive, got {t_end!r}")
    dyn = replace(dyn, integration_dt_max=t_end / 2000.0)
    if args.drive == "step":
        drive = lambda t: level
    else:
        freq = scn.freq
        drive = lambda t: level * math.sin(2.0 * math.pi * freq * t)
    trace = transient(dev, dyn, drive, t_end, d_c=dev.d_c)
    summary = {
        "device": scn.device_name(), "drive": args.drive, "level_V": level,
        "t_end_s": t_end, "dt_max_s": dyn.integration_dt_max,
        "contact_times_s": list(trace.contact_times),
        "release_times_s": list(trace.release_times),
        "final_x_m": trace.x[-1], "final_latched": bool(trace.latched[-1]),
    }
    return summary, {"transient.csv": trace.to_csv()}


def _cmd_amplify(scn: Scenario, args):
    amp = _amp_for(scn)
    if scn.stimulus_kind == "dc":
        run = amp_mod.run_dc(amp, scn.amplitude, scn.n_periods)
        sim, gain_dc, vout = run.sim, run.gain, run.vout
    else:
        sine = amp_mod.run_sine(amp, scn.amplitude, scn.freq, scn.n_periods)
        sim = sine.sim
        try:
            dc_ref = amp_mod.run_dc(amp, scn.amplitude)
        except (NoLatchError, NoReleaseError):
            # the peak is out of range: the sine run flags each such sample,
            # and the DC reference is absent (null in summary.json)
            gain_dc = vout = None
        else:
            gain_dc, vout = dc_ref.gain, dc_ref.vout
    summary = amp_mod.summary(amp, gain_dc)
    summary["vout_V"] = vout
    summary["stimulus"] = scn.stimulus_kind
    summary["amplitude_V"] = scn.amplitude
    artifacts = {"waveforms.csv": sim.waveform_csv()}
    if args.islands:
        artifacts["islands.csv"] = sim.islands_csv()
    return summary, artifacts


def _sweep_amplitudes(scn: Scenario, args, amp) -> list[float]:
    if args.amplitudes is not None:
        # bound the token count before splitting the list
        amp_mod.require_sweep_size(args.amplitudes.count(",") + 1, scn.n_periods)
        amplitudes = []
        for tok in args.amplitudes.split(","):
            if not tok.strip():
                continue
            try:
                amplitudes.append(_finite_float(tok.strip()))
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"--amplitudes: {exc}") from None
        return amplitudes
    lo = args.vin_min
    hi = args.vin_max if args.vin_max is not None \
        else min(0.175, 0.999 * dynamic_range(amp)[1])
    n = args.n_points
    if n < 2 or not (0 < lo < hi):
        raise ConfigError(f"bad sweep range [{lo}, {hi}] with {n} points")
    amp_mod.require_sweep_size(n, scn.n_periods)
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio ** i for i in range(n)]


def _cmd_gain_sweep(scn: Scenario, args):
    amp = _amp_for(scn)
    amplitudes = _sweep_amplitudes(scn, args, amp)
    report = gain_sweep(amp, amplitudes, n_periods=scn.n_periods)
    valid = [e for e in report.entries if e.released]
    summary = amp_mod.summary(amp, valid[0].gain if valid else math.nan)
    summary["n_amplitudes"] = len(report.entries)
    summary["gain_first"] = valid[0].gain if valid else None
    summary["gain_last"] = valid[-1].gain if valid else None
    if len(valid) >= 2:
        summary["gain_drop_frac"] = 1.0 - valid[-1].gain / valid[0].gain
    return summary, {"gain_sweep.csv": report.to_csv()}


def _cmd_power(scn: Scenario, args):
    dev = scn.device_params()
    p = power_estimate(scn.m, dev.c_on, scn.f_clk, scn.v_dc)
    summary = {
        "device": scn.device_name(), "m": scn.m, "c_A_F": dev.c_on,
        "fclk_hz": scn.f_clk, "vdc_V": scn.v_dc, "power_W": p,
    }
    return summary, {}


_COMMANDS = {
    "device-report": _cmd_device_report,
    "cv-sweep": _cmd_cv_sweep,
    "transient": _cmd_transient,
    "amplify": _cmd_amplify,
    "gain-sweep": _cmd_gain_sweep,
    "power": _cmd_power,
}


def _finite_float(text: str) -> float:
    """argparse type for float options: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1, JSON on stderr), not
    argparse's exit 2, which this CLI reserves for solver errors."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nemsim",
        description="NEMS switch and switched-capacitor amplifier simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario file (section.key = value)")
        p.add_argument("--preset", help="device preset shortcut (large, lv-high-gain, lv-low-gain)")
        p.add_argument("--out-dir", help="output directory (overrides run.out_dir)")
        p.add_argument("--format", choices=("csv", "json"), default="json",
                       help="stdout summary format")

    common(sub.add_parser("device-report", help="derived device constants + reference check"))

    p = sub.add_parser("cv-sweep", help="hysteretic C-V curve")
    common(p)
    p.add_argument("--v-start", type=_finite_float, default=0.0)
    p.add_argument("--v-end", type=_finite_float, default=None, help="default 1.25 * V_PI")
    p.add_argument("--n-points", type=int, default=601)
    p.add_argument("--direction", choices=("up", "down", "both"), default="both")

    p = sub.add_parser("transient", help="beam trajectory under a drive")
    common(p)
    p.add_argument("--drive", choices=("step", "sine"), default="step")
    p.add_argument("--level-V", type=_finite_float, default=None, help="default 1.2 * V_PI")
    p.add_argument("--t-end-s", type=_finite_float, default=None,
                   help="default 200 * sqrt(m_eff / k), for either drive")

    p = sub.add_parser("amplify", help="run the discrete-time amplifier")
    common(p)
    p.add_argument("--islands", action="store_true", help="also write islands.csv")

    p = sub.add_parser("gain-sweep", help="gain versus input amplitude")
    common(p)
    p.add_argument("--amplitudes", help="comma-separated vin list (V)")
    p.add_argument("--n-points", type=int, default=50)
    p.add_argument("--vin-min", type=_finite_float, default=1e-3)
    p.add_argument("--vin-max", type=_finite_float, default=None)

    common(sub.add_parser("power", help="dynamic power estimate"))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged, and
    a device-char run calls main nine times."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        scn = _load_scenario(args)
        summary, artifacts = _COMMANDS[args.command](scn, args)
        artifacts["summary.json"] = dump_json(_json_safe(summary))
    except _CONFIG_ERRORS as exc:
        _emit_error("config-error", exc)
        return EXIT_CONFIG
    except _SOLVER_ERRORS as exc:
        _emit_error("solver-error", exc)
        return EXIT_SOLVER
    except NemsimError as exc:
        _emit_error("config-error", exc)
        return EXIT_CONFIG
    try:
        out = Path(args.out_dir or scn.out_dir)
        for name, text in artifacts.items():
            atomic_write_text(out / name, text)
    except OSError as exc:
        _emit_error("io-error", exc)
        return EXIT_IO
    if args.format == "json":
        sys.stdout.write(artifacts["summary.json"])
    else:
        _print_csv_summary(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
