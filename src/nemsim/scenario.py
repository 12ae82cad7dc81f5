"""Line-based experiment configuration: ``section.key = value``.

Keys carry their unit in the suffix (human units of the device tables:
micrometres, nanometres, volts, femtofarads); values are converted to SI
right here at the parse boundary. Comments start with ``#``; unknown keys
are rejected with the offending line number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

from .device import DeviceGeometry, DeviceParams, PRESETS, get_preset
from .errors import InvalidGeometryError, CalibrationError, ScenarioError

_LINE = re.compile(r"^(?P<section>[a-z_]+)\.(?P<key>[A-Za-z_0-9]+)\s*=\s*(?P<value>.+)$")

_GEOMETRY_KEYS = {
    # key -> (geometry field, scale to SI)
    "L_um": ("beam_length", 1e-6),
    "W_um": ("beam_width", 1e-6),
    "t_nm": ("beam_thickness", 1e-9),
    "Le_um": ("electrode_length", 1e-6),
    "g0_nm": ("air_gap", 1e-9),
    "td_nm": ("dielectric_thickness", 1e-9),
    "eps_d": ("dielectric_constant", 1.0),
}


@dataclass(frozen=True)
class Scenario:
    """Parsed experiment description, all values SI."""

    device_preset: str | None = None
    device_geometry: DeviceGeometry | None = None
    device_v_pi: float | None = None
    device_v_po: float | None = None
    topology: str = "basic"
    m: int = 1
    v_dc: float = 10.0
    f_clk: float = 100e3
    nonoverlap_frac: float = 0.01
    parasitics: bool = False
    c_gb: float = 1e-15
    c_gc: float = 1e-15
    drive_terminal: str = "gate"
    stimulus_kind: str = "dc"
    amplitude: float = 0.01
    freq: float = 10e3
    n_periods: int = 10
    out_dir: str = "out"

    def device_name(self) -> str:
        return self.device_preset if self.device_preset else "custom"

    def device_params(self) -> DeviceParams:
        if self.device_preset:
            return get_preset(self.device_preset).params()
        return DeviceParams.from_geometry(self.device_geometry,
                                          self.device_v_pi, self.device_v_po)

    def geometry(self) -> DeviceGeometry:
        if self.device_preset:
            return get_preset(self.device_preset).geometry
        return self.device_geometry

    def to_text(self) -> str:
        """Canonical serialization; parse_scenario(to_text()) returns an equal Scenario."""
        lines = []
        if self.device_preset:
            lines.append(f'device.preset = "{self.device_preset}"')
        else:
            g = self.device_geometry
            lines += [
                f"device.L_um = {g.beam_length / 1e-6!r}",
                f"device.W_um = {g.beam_width / 1e-6!r}",
                f"device.t_nm = {g.beam_thickness / 1e-9!r}",
                f"device.Le_um = {g.electrode_length / 1e-6!r}",
                f"device.g0_nm = {g.air_gap / 1e-9!r}",
                f"device.td_nm = {g.dielectric_thickness / 1e-9!r}",
                f"device.eps_d = {g.dielectric_constant!r}",
                f"device.vpi_V = {self.device_v_pi!r}",
                f"device.vpo_V = {self.device_v_po!r}",
            ]
        lines += [
            f"amp.topology = {self.topology}",
            f"amp.m = {self.m}",
            f"amp.vdc_V = {self.v_dc!r}",
            f"amp.fclk_hz = {self.f_clk!r}",
            f"amp.nonoverlap_frac = {self.nonoverlap_frac!r}",
            f"amp.parasitics = {'on' if self.parasitics else 'off'}",
            f"amp.cgb_fF = {self.c_gb / 1e-15!r}",
            f"amp.cgc_fF = {self.c_gc / 1e-15!r}",
            f"amp.drive_terminal = {self.drive_terminal}",
            f"stimulus.kind = {self.stimulus_kind}",
            f"stimulus.amplitude_V = {self.amplitude!r}",
            f"stimulus.freq_hz = {self.freq!r}",
            f"run.n_periods = {self.n_periods}",
            f"run.out_dir = \"{self.out_dir}\"",
        ]
        return "\n".join(lines) + "\n"


def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out).strip()


def _number(raw: str, lineno: int) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ScenarioError("syntax-error", f"expected a number, got {raw!r}", lineno) from None
    if not math.isfinite(val):
        raise ScenarioError("syntax-error", f"expected a finite number, got {raw!r}", lineno)
    return val


def _integer(raw: str, lineno: int) -> int:
    val = _number(raw, lineno)
    if val != int(val):
        raise ScenarioError("syntax-error", f"expected an integer, got {raw!r}", lineno)
    return int(val)


def _token(raw: str, allowed: tuple[str, ...], lineno: int) -> str:
    tok = raw.strip('"')
    if tok not in allowed:
        raise ScenarioError("syntax-error",
                            f"expected one of {'|'.join(allowed)}, got {raw!r}", lineno)
    return tok


def _string(raw: str) -> str:
    return raw.strip('"')


def parse_scenario(text: str) -> Scenario:
    """Parse UTF-8 scenario text; errors carry their line number."""
    values: dict[tuple[str, str], tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        m = _LINE.match(line)
        if not m:
            raise ScenarioError("syntax-error", f"cannot parse line {raw!r}", lineno)
        key = (m.group("section"), m.group("key"))
        if key in values:
            raise ScenarioError("syntax-error",
                                f"duplicate key {key[0]}.{key[1]}", lineno)
        values[key] = (m.group("value").strip(), lineno)

    if not any(section == "device" for section, _ in values):
        raise ScenarioError("syntax-error", "missing device section")

    scn = Scenario(device_preset=None)
    geometry_raw: dict[str, float] = {}
    v_pi = v_po = None
    preset = None

    for (section, key), (raw, lineno) in values.items():
        if section == "device":
            if key == "preset":
                preset = _string(raw)
                if preset not in PRESETS:
                    raise ScenarioError("constraint-violation",
                                        f"unknown preset {preset!r}", lineno)
            elif key in _GEOMETRY_KEYS:
                fieldname, scale = _GEOMETRY_KEYS[key]
                val = _number(raw, lineno)
                if val <= 0:
                    raise ScenarioError("unit-violation",
                                        f"device.{key} must be strictly positive, got {raw}",
                                        lineno)
                geometry_raw[fieldname] = val * scale
            elif key == "vpi_V":
                v_pi = _number(raw, lineno)
                if v_pi <= 0:
                    raise ScenarioError("unit-violation", "device.vpi_V must be positive", lineno)
            elif key == "vpo_V":
                v_po = _number(raw, lineno)
                if v_po <= 0:
                    raise ScenarioError("unit-violation", "device.vpo_V must be positive", lineno)
            else:
                raise ScenarioError("unknown-key", f"device.{key}", lineno)
        elif section == "amp":
            if key == "topology":
                scn = replace(scn, topology=_token(raw, ("basic", "modified"), lineno))
            elif key == "m":
                val = _integer(raw, lineno)
                if val < 1:
                    raise ScenarioError("constraint-violation", "amp.m must be >= 1", lineno)
                scn = replace(scn, m=val)
            elif key == "vdc_V":
                scn = replace(scn, v_dc=_number(raw, lineno))
            elif key == "fclk_hz":
                val = _number(raw, lineno)
                if val <= 0:
                    raise ScenarioError("unit-violation", "amp.fclk_hz must be positive", lineno)
                scn = replace(scn, f_clk=val)
            elif key == "nonoverlap_frac":
                val = _number(raw, lineno)
                if not (0.0 <= val < 0.5):
                    raise ScenarioError("constraint-violation",
                                        "amp.nonoverlap_frac must lie in [0, 0.5)", lineno)
                scn = replace(scn, nonoverlap_frac=val)
            elif key == "parasitics":
                scn = replace(scn, parasitics=_token(raw, ("on", "off"), lineno) == "on")
            elif key == "cgb_fF":
                val = _number(raw, lineno)
                if val < 0:
                    raise ScenarioError("unit-violation", "amp.cgb_fF must be >= 0", lineno)
                scn = replace(scn, c_gb=val * 1e-15)
            elif key == "cgc_fF":
                val = _number(raw, lineno)
                if val < 0:
                    raise ScenarioError("unit-violation", "amp.cgc_fF must be >= 0", lineno)
                scn = replace(scn, c_gc=val * 1e-15)
            elif key == "drive_terminal":
                scn = replace(scn, drive_terminal=_token(raw, ("gate", "body"), lineno))
            else:
                raise ScenarioError("unknown-key", f"amp.{key}", lineno)
        elif section == "stimulus":
            if key == "kind":
                scn = replace(scn, stimulus_kind=_token(raw, ("dc", "sine"), lineno))
            elif key == "amplitude_V":
                scn = replace(scn, amplitude=_number(raw, lineno))
            elif key == "freq_hz":
                val = _number(raw, lineno)
                if val <= 0:
                    raise ScenarioError("unit-violation", "stimulus.freq_hz must be positive",
                                        lineno)
                scn = replace(scn, freq=val)
            else:
                raise ScenarioError("unknown-key", f"stimulus.{key}", lineno)
        elif section == "run":
            if key == "n_periods":
                val = _integer(raw, lineno)
                if val < 1:
                    raise ScenarioError("constraint-violation", "run.n_periods must be >= 1",
                                        lineno)
                scn = replace(scn, n_periods=val)
            elif key == "out_dir":
                scn = replace(scn, out_dir=_string(raw))
            else:
                raise ScenarioError("unknown-key", f"run.{key}", lineno)
        else:
            raise ScenarioError("unknown-key", f"unknown section {section!r}", lineno)

    # resolve the device
    if preset is not None:
        if geometry_raw or v_pi is not None or v_po is not None:
            raise ScenarioError("constraint-violation",
                                "device.preset excludes custom geometry keys")
        scn = replace(scn, device_preset=preset)
    else:
        missing = [k for k, (f, _) in _GEOMETRY_KEYS.items() if f not in geometry_raw]
        if missing or v_pi is None or v_po is None:
            need = missing + (["vpi_V"] if v_pi is None else []) \
                + (["vpo_V"] if v_po is None else [])
            raise ScenarioError("constraint-violation",
                                f"custom device incomplete, missing: {', '.join(need)}")
        try:
            geom = DeviceGeometry(**geometry_raw)
            DeviceParams.from_geometry(geom, v_pi, v_po)  # feasibility check
        except (InvalidGeometryError, CalibrationError) as exc:
            raise ScenarioError("constraint-violation", str(exc)) from exc
        scn = replace(scn, device_geometry=geom, device_v_pi=v_pi, device_v_po=v_po)

    if not (scn.v_dc > scn.device_params().v_pi):
        raise ScenarioError(
            "constraint-violation",
            f"amp.vdc_V = {scn.v_dc} must exceed the device pull-in voltage "
            f"{scn.device_params().v_pi} V")
    return scn
