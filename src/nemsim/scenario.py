"""Line-based experiment configuration: ``section.key = value``.

Keys carry their unit in the suffix (human units of the device tables:
micrometres, nanometres, volts, femtofarads); values are converted to SI
right here at the parse boundary. Comments start with ``#``; unknown keys
are rejected with the offending line number. Each key is one row of
``_KEYS``, which both ``parse_scenario`` and ``Scenario.to_text`` read.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, fields

from .device import DeviceGeometry, DeviceParams, PRESETS, get_preset
from .errors import InvalidGeometryError, CalibrationError, ScenarioError

_LINE = re.compile(r"^(?P<section>[a-z_]+)\.(?P<key>[A-Za-z_0-9]+)\s*=\s*(?P<value>.+)$")


@dataclass(frozen=True)
class Scenario:
    """Parsed experiment description, all values SI. The device is one of
    a preset name or a geometry (with device_v_pi and device_v_po); none or
    both is a ScenarioError."""

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

    def __post_init__(self):
        if bool(self.device_preset) == (self.device_geometry is not None):
            raise ScenarioError("constraint-violation",
                                "a scenario needs one of a device preset or a device geometry")

    def device_name(self) -> str:
        return self.device_preset if self.device_preset else "custom"

    def device_params(self) -> DeviceParams:
        """The calibrated device, derived once per scenario."""
        return self._device

    @functools.cached_property
    def _device(self) -> DeviceParams:
        if self.device_preset:
            return get_preset(self.device_preset).params()
        return DeviceParams.from_geometry(self.device_geometry,
                                          self.device_v_pi, self.device_v_po)

    def geometry(self) -> DeviceGeometry:
        if self.device_preset:
            return get_preset(self.device_preset).geometry
        return self.device_geometry

    def to_text(self) -> str:
        """Canonical serialization. For a scenario parsed from text,
        parse_scenario(to_text()) returns an equal Scenario; an SI value set
        through the library may not survive the unit round trip (x / 1e-6 * 1e-6)."""
        lines, preset = [], bool(self.device_preset)
        for name, (field, kind, scale, _) in _KEYS.items():
            if name.startswith("device.") and (field == "device_preset") != preset:
                continue  # the preset, or else the custom device keys
            value = getattr(self.device_geometry if field in _GEOMETRY else self, field)
            if kind is bool:
                value = "on" if value else "off"
            elif kind is str:
                value = f'"{value}"'
            elif scale != 1.0:
                value = value / scale
            lines.append(f"{name} = {value}")
        return "\n".join(lines) + "\n"


_POSITIVE = ("unit-violation", "{key} must be positive", lambda v: v > 0)
_DIMENSION = ("unit-violation", "{key} must be strictly positive, got {raw}", lambda v: v > 0)
_AT_LEAST_ONE = ("constraint-violation", "{key} must be >= 1", lambda v: v >= 1)
_NON_NEGATIVE = ("unit-violation", "{key} must be >= 0", lambda v: v >= 0)

# Every scenario key, in to_text's order: section.key -> (Scenario or
# DeviceGeometry field, value kind, scale to SI, range rule). A kind is float,
# int, bool (on/off), str (quotes stripped) or a tuple of tokens. A rule is
# (error kind, message, test); the test sees the value before scaling.
_KEYS = {
    "device.preset": ("device_preset", str, 1.0,
                      ("constraint-violation", "unknown preset {value!r}",
                       lambda v: v in PRESETS)),
    "device.L_um": ("beam_length", float, 1e-6, _DIMENSION),
    "device.W_um": ("beam_width", float, 1e-6, _DIMENSION),
    "device.t_nm": ("beam_thickness", float, 1e-9, _DIMENSION),
    "device.Le_um": ("electrode_length", float, 1e-6, _DIMENSION),
    "device.g0_nm": ("air_gap", float, 1e-9, _DIMENSION),
    "device.td_nm": ("dielectric_thickness", float, 1e-9, _DIMENSION),
    "device.eps_d": ("dielectric_constant", float, 1.0, _DIMENSION),
    "device.vpi_V": ("device_v_pi", float, 1.0, _POSITIVE),
    "device.vpo_V": ("device_v_po", float, 1.0, _POSITIVE),
    "amp.topology": ("topology", ("basic", "modified"), 1.0, None),
    "amp.m": ("m", int, 1.0, _AT_LEAST_ONE),
    "amp.vdc_V": ("v_dc", float, 1.0, None),
    "amp.fclk_hz": ("f_clk", float, 1.0, _POSITIVE),
    "amp.nonoverlap_frac": ("nonoverlap_frac", float, 1.0,
                            ("constraint-violation", "{key} must lie in [0, 0.5)",
                             lambda v: 0.0 <= v < 0.5)),
    "amp.parasitics": ("parasitics", bool, 1.0, None),
    "amp.cgb_fF": ("c_gb", float, 1e-15, _NON_NEGATIVE),
    "amp.cgc_fF": ("c_gc", float, 1e-15, _NON_NEGATIVE),
    "amp.drive_terminal": ("drive_terminal", ("gate", "body"), 1.0, None),
    "stimulus.kind": ("stimulus_kind", ("dc", "sine"), 1.0, None),
    "stimulus.amplitude_V": ("amplitude", float, 1.0, None),
    "stimulus.freq_hz": ("freq", float, 1.0, _POSITIVE),
    "run.n_periods": ("n_periods", int, 1.0, _AT_LEAST_ONE),
    "run.out_dir": ("out_dir", str, 1.0, None),
}
_SECTIONS = {name.partition(".")[0] for name in _KEYS}
_GEOMETRY = {field.name for field in fields(DeviceGeometry)}
# the custom device keys, which a preset excludes: key -> field
_CUSTOM = {name.partition(".")[2]: field for name, (field, *_) in _KEYS.items()
           if name.startswith("device.") and field != "device_preset"}


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


def _read(raw: str, kind, lineno: int):
    """The value of one line as its key's kind: a string, a token, or a
    finite number (an integral one where the kind is int)."""
    if kind is str:
        return raw.strip('"')
    if kind is bool:
        return _read(raw, ("on", "off"), lineno) == "on"
    if isinstance(kind, tuple):
        tok = raw.strip('"')
        if tok not in kind:
            raise ScenarioError("syntax-error",
                                f"expected one of {'|'.join(kind)}, got {raw!r}", lineno)
        return tok
    try:
        val = float(raw)
    except ValueError:
        raise ScenarioError("syntax-error", f"expected a number, got {raw!r}", lineno) from None
    if not math.isfinite(val):
        raise ScenarioError("syntax-error", f"expected a finite number, got {raw!r}", lineno)
    if kind is int:
        if val != int(val):
            raise ScenarioError("syntax-error", f"expected an integer, got {raw!r}", lineno)
        return int(val)
    return val


def parse_scenario(text: str) -> Scenario:
    """Parse UTF-8 scenario text; errors carry their line number."""
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        m = _LINE.match(line)
        if not m:
            raise ScenarioError("syntax-error", f"cannot parse line {raw!r}", lineno)
        name = f"{m.group('section')}.{m.group('key')}"
        if name in values:
            raise ScenarioError("syntax-error", f"duplicate key {name}", lineno)
        values[name] = (m.group("value").strip(), lineno)

    if not any(name.startswith("device.") for name in values):
        raise ScenarioError("syntax-error", "missing device section")

    got: dict[str, object] = {}
    for name, (raw, lineno) in values.items():
        if name not in _KEYS:
            section = name.partition(".")[0]
            raise ScenarioError("unknown-key", name if section in _SECTIONS
                                else f"unknown section {section!r}", lineno)
        field, kind, scale, rule = _KEYS[name]
        value = _read(raw, kind, lineno)
        if rule is not None:
            error, message, test = rule
            if not test(value):
                raise ScenarioError(error, message.format(key=name, raw=raw, value=value),
                                    lineno)
        got[field] = value * scale if kind is float else value

    # resolve the device
    custom = {field: got.pop(field) for field in _CUSTOM.values() if field in got}
    if "device_preset" in got:
        if custom:
            raise ScenarioError("constraint-violation",
                                "device.preset excludes custom geometry keys")
        scn = Scenario(**got)
    else:
        missing = [key for key, field in _CUSTOM.items() if field not in custom]
        if missing:
            raise ScenarioError("constraint-violation",
                                f"custom device incomplete, missing: {', '.join(missing)}")
        v_pi, v_po = custom["device_v_pi"], custom["device_v_po"]
        try:
            geom = DeviceGeometry(**{f: v for f, v in custom.items() if f in _GEOMETRY})
            scn = Scenario(device_geometry=geom, device_v_pi=v_pi, device_v_po=v_po, **got)
            scn.device_params()  # feasibility check; the scenario keeps the calibration
        except (InvalidGeometryError, CalibrationError) as exc:
            raise ScenarioError("constraint-violation", str(exc)) from exc

    v_pi = scn.device_params().v_pi
    if not (scn.v_dc > v_pi):
        raise ScenarioError(
            "constraint-violation",
            f"amp.vdc_V = {scn.v_dc} must exceed the device pull-in voltage {v_pi} V")
    return scn
