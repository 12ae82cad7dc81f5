"""Output checks on the CLI artifacts of one call.

Each check returns ``(errors, deviation)``: a list of failure messages (empty
when the output is correct) and the largest relative deviation of a checked
output from its closed-form reference, or None where there is no reference.
The references are ``nemsim.amp.gain_oracle`` (closed-form charge-control
gain, independent of the phase-stepping engine) and the published switch
thresholds in ``workloads.THRESHOLDS``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SINE_TOL = 1e-6     # of full-scale output; one phase of input lag is ~6e-3
SWEEP_TOL = 1e-3    # acceptance criterion 4
BANK_MAX_LOSS = 0.05
CV_TOL = 0.01       # acceptance criterion 5


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def _oracle(preset: str):
    from nemsim.amp import gain_oracle
    from nemsim.device import get_preset
    dev = get_preset(preset).params()
    return lambda vin: gain_oracle(dev, vin)


def check_sine(p: dict, out: Path) -> tuple[list[str], float | None]:
    """Every hold sample equals gain_oracle x the input sampled at the end of
    the preceding sample phase; one waveform row pair per simulated phase."""
    gain = _oracle(p["preset"])
    amplitude, freq = p["amplitude"], p["freq"]
    full_scale = gain(amplitude) * amplitude
    rows = _rows(out / "waveforms.csv")
    errors = []
    if len(rows) != 2 * p["phases"]:
        errors.append(f"waveforms.csv has {len(rows)} rows, expected {2 * p['phases']}")
    worst, holds, t_sample = 0.0, 0, None
    for start, end in zip(rows[::2], rows[1::2]):
        if end["phase"] == "sample":
            t_sample = float(end["t_s"])
        elif end["phase"] == "hold" and t_sample is not None:
            vin = amplitude * math.sin(2.0 * math.pi * freq * t_sample)
            worst = max(worst, abs(float(end["vA_V"]) - gain(vin) * vin) / full_scale)
            holds += 1
    if holds != p["phases"] // 4:
        errors.append(f"{holds} hold samples, expected {p['phases'] // 4}")
    if worst > SINE_TOL:
        errors.append(f"hold output deviates from the oracle by {worst:.3e} of full scale")
    ref = gain(amplitude)
    dc_dev = abs(_summary(out)["gain_dc"] - ref) / ref
    if dc_dev > SINE_TOL:
        errors.append(f"reference gain_dc deviates from the oracle by {dc_dev:.3e}")
    return errors, max(worst, dc_dev)


def check_sweep(p: dict, out: Path) -> tuple[list[str], float | None]:
    """One released row per requested amplitude, each within 1e-3 of the oracle."""
    gain = _oracle(p["preset"])
    rows = _rows(out / "gain_sweep.csv")
    amplitudes = p["amplitudes"]
    if len(rows) != len(amplitudes):
        return [f"gain_sweep.csv has {len(rows)} rows, expected {len(amplitudes)}"], None
    errors, worst = [], 0.0
    for row, vin in zip(rows, amplitudes):
        if float(row["vin_V"]) != float(f"{vin:.11e}"):
            errors.append(f"row vin {row['vin_V']} is not the requested {vin!r}")
        if row["released"] != "1":
            errors.append(f"vin = {vin!r} did not release")
        worst = max(worst, abs(float(row["gain"]) - gain(vin)) / gain(vin))
    if worst > SWEEP_TOL:
        errors.append(f"sweep gain deviates from the oracle by {worst:.3e}")
    return errors, worst


def check_bank(p: dict, out: Path) -> tuple[list[str], float | None]:
    """Parasitic charge sharing lowers the gain below the parasitic-free
    oracle, by at most 5%; the deviation reported is that gain loss."""
    ref = _oracle(p["preset"])(p["amplitude"])
    loss = (ref - _summary(out)["gain_dc"]) / ref
    errors = []
    if not 0.0 < loss <= BANK_MAX_LOSS:
        errors.append(f"gain loss {loss:.4%} against the parasitic-free oracle "
                      f"is outside (0, {BANK_MAX_LOSS:.0%}]")
    n_rows = len(_rows(out / "waveforms.csv"))
    if n_rows != 2 * p["phases"]:
        errors.append(f"waveforms.csv has {n_rows} rows, expected {2 * p['phases']}")
    return errors, loss


def check_cv(p: dict, out: Path) -> tuple[list[str], float | None]:
    """Up and down transitions of the C-V sweep within 1% of V_PI and V_PO."""
    s = _summary(out)
    up, down = s["up_transition_V"], s["down_transition_V"]
    if up is None or down is None:
        return [f"missing transition: up {up}, down {down}"], None
    dev = max(abs(up - p["v_pi"]) / p["v_pi"], abs(down - p["v_po"]) / p["v_po"])
    errors = [f"C-V transitions {up}/{down} V deviate by {dev:.3e}"] if dev > CV_TOL else []
    if len(_rows(out / "cv.csv")) < 2:
        errors.append("cv.csv has no samples")
    return errors, dev


def check_transient(p: dict, out: Path) -> tuple[list[str], float | None]:
    """An overdriven step pulls the beam in: at least one contact."""
    s = _summary(out)
    errors = []
    if not s["contact_times_s"]:
        errors.append(f"no contact at {s['level_V']} V overdrive")
    if s["level_V"] != p["level"]:
        errors.append(f"drive level {s['level_V']} is not the requested {p['level']!r}")
    if len(_rows(out / "transient.csv")) < 2:
        errors.append("transient.csv has no samples")
    return errors, None


def check_report(p: dict, out: Path) -> tuple[list[str], float | None]:
    """The preset's derived constants match its published values."""
    return ([] if _summary(out)["reference_pass"] is True
            else ["device-report reference_pass is not true"]), None


CHECKS = {"sine": check_sine, "sweep": check_sweep, "bank": check_bank,
          "cv": check_cv, "transient": check_transient, "report": check_report}


def check(spec: dict, root: Path) -> tuple[list[str], float | None]:
    """Apply one call's check to its artifacts under ``root``; a missing or
    malformed artifact is a failure, not a crash."""
    try:
        return CHECKS[spec["kind"]](spec, root / spec["out"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"], None
