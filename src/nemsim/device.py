"""Closed-form characterization of a NEMS capacitive switch.

A fixed-fixed beam over a bottom electrode forms a two-state capacitor:
released (air + dielectric gap, small C) or latched against the dielectric
(large C). Everything here is a pure function of geometry plus the two
calibration voltages (pull-in, pull-out). All quantities SI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import CalibrationError, InvalidGeometryError

# Vacuum permittivity (F/m)
EPS0 = 8.8541878128e-12


@dataclass(frozen=True)
class DeviceGeometry:
    """Drawn geometry and dielectric of one capacitive switch.

    Attributes:
        beam_length: L, clamped-clamped beam length (m)
        beam_width: W (m)
        beam_thickness: t (m)
        electrode_length: Le, bottom electrode length, sets overlap (m)
        air_gap: g0, released beam to dielectric surface (m)
        dielectric_thickness: td (m)
        dielectric_constant: eps_d, relative permittivity (> 1)
    """

    beam_length: float
    beam_width: float
    beam_thickness: float
    electrode_length: float
    air_gap: float
    dielectric_thickness: float
    dielectric_constant: float

    def __post_init__(self):
        lengths = {
            "beam_length": self.beam_length,
            "beam_width": self.beam_width,
            "beam_thickness": self.beam_thickness,
            "electrode_length": self.electrode_length,
            "air_gap": self.air_gap,
            "dielectric_thickness": self.dielectric_thickness,
        }
        for name, value in lengths.items():
            if not (value > 0) or not math.isfinite(value):
                raise InvalidGeometryError(f"{name} must be strictly positive, got {value!r}")
        if not (self.dielectric_constant > 1):
            raise InvalidGeometryError(
                f"dielectric_constant must exceed 1, got {self.dielectric_constant!r}")
        if self.electrode_length > self.beam_length:
            raise InvalidGeometryError(
                f"electrode_length {self.electrode_length} exceeds beam_length {self.beam_length}")


@dataclass(frozen=True)
class MaterialProps:
    """Beam material for the optional beam-formula spring constant and transient mass."""

    youngs_modulus: float = 160e9  # Pa, polysilicon-like default (assumption)
    density: float = 2330.0        # kg/m^3

    def __post_init__(self):
        if not (self.youngs_modulus > 0 and self.density > 0):
            raise InvalidGeometryError("material constants must be strictly positive")


def derive_geometry_constants(geom: DeviceGeometry) -> tuple[float, float]:
    """Overlap area A = Le*W and effective all-air gap g_eff = g0 + td/eps_d.

    The bi-layer (air + dielectric) in series reduces to a single gap of
    g_eff for field and force purposes.
    """
    area = geom.electrode_length * geom.beam_width
    g_eff = geom.air_gap + geom.dielectric_thickness / geom.dielectric_constant
    return area, g_eff


def c_on(geom: DeviceGeometry) -> float:
    """Latched capacitance: beam resting on the dielectric, dielectric-only gap (F)."""
    area, _ = derive_geometry_constants(geom)
    return EPS0 * geom.dielectric_constant * area / geom.dielectric_thickness


def c_off(geom: DeviceGeometry) -> float:
    """Released capacitance: beam at rest across the full effective gap (F)."""
    area, g_eff = derive_geometry_constants(geom)
    return EPS0 * area / g_eff


def max_gain(geom: DeviceGeometry) -> float:
    """On/off capacitance ratio; the amplifier's small-signal gain ceiling."""
    return c_on(geom) / c_off(geom)


def spring_from_pullin(geom: DeviceGeometry, v_pi: float) -> float:
    """Invert the 1-DOF pull-in fold to calibrate the lumped spring constant (N/m).

    k = 27*eps0*A*V_PI^2 / (8*g_eff^3); the fold of k*x = eps0*A*V^2/(2*(g_eff-x)^2)
    sits at x = g_eff/3, which pins this closed form.
    """
    if not (v_pi > 0):
        raise CalibrationError(f"pull-in voltage must be positive, got {v_pi!r}")
    area, g_eff = derive_geometry_constants(geom)
    return 27.0 * EPS0 * area * v_pi ** 2 / (8.0 * g_eff ** 3)


def pullin_voltage(geom: DeviceGeometry, k: float) -> float:
    """Pull-in voltage for a given spring constant (V). Exact inverse of spring_from_pullin."""
    if not (k > 0):
        raise CalibrationError(f"spring constant must be positive, got {k!r}")
    area, g_eff = derive_geometry_constants(geom)
    return math.sqrt(8.0 * k * g_eff ** 3 / (27.0 * EPS0 * area))


def spring_from_beam(geom: DeviceGeometry, material: MaterialProps = MaterialProps()) -> float:
    """Fixed-fixed beam stiffness k = 32*E*W*t^3/L^3 (N/m).

    Validation path only: the calibrated spring_from_pullin value is
    authoritative because the material constants are assumptions.
    """
    return (32.0 * material.youngs_modulus * geom.beam_width
            * geom.beam_thickness ** 3 / geom.beam_length ** 3)


def contact_gap_from_pullout(geom: DeviceGeometry, k: float, v_po: float) -> float:
    """Effective contact separation d_c calibrated so release happens at v_po (m).

    A latched beam releases when the electrostatic force evaluated at
    separation d_c drops below the fully-stretched spring force k*g0:
    d_c = V_PO * sqrt(eps0*A / (2*k*g0)). The naive choice d_c = td/eps_d
    underpredicts pull-out badly, so d_c is treated as a calibration knob.
    """
    area, g_eff = derive_geometry_constants(geom)
    v_pi = pullin_voltage(geom, k)
    if not (0 < v_po < v_pi):
        raise CalibrationError(
            f"pull-out voltage must satisfy 0 < V_PO < V_PI ({v_pi:.4g} V), got {v_po!r}")
    d_c = v_po * math.sqrt(EPS0 * area / (2.0 * k * geom.air_gap))
    floor = geom.dielectric_thickness / geom.dielectric_constant
    if d_c < floor:
        raise CalibrationError(
            f"calibration infeasible: d_c = {d_c:.4g} m below dielectric floor "
            f"td/eps_d = {floor:.4g} m (V_PO = {v_po} V too small for this geometry)")
    if d_c >= g_eff:
        raise CalibrationError(
            f"calibration infeasible: d_c = {d_c:.4g} m not below g_eff = {g_eff:.4g} m")
    return d_c


def pullout_voltage_from_gap(geom: DeviceGeometry, k: float, d_c: float) -> float:
    """Release threshold implied by a contact separation d_c (V); inverse of the calibration."""
    area, _ = derive_geometry_constants(geom)
    return d_c * math.sqrt(2.0 * k * geom.air_gap / (EPS0 * area))


@dataclass(frozen=True)
class DeviceParams:
    """Derived electrical constants of one switch. All SI.

    Attributes:
        area: electrostatic overlap area (m^2)
        g_eff: effective all-air gap (m)
        k: lumped spring constant (N/m)
        v_pi: pull-in voltage (V)
        v_po: pull-out voltage (V)
        d_c: effective contact separation of the release model (m)
        c_on: latched capacitance (F)
        c_off: released capacitance (F)
        gain_max: c_on/c_off
    """

    area: float
    g_eff: float
    k: float
    v_pi: float
    v_po: float
    d_c: float
    c_on: float
    c_off: float
    gain_max: float

    def __post_init__(self):
        if not (0 < self.v_po < self.v_pi):
            raise CalibrationError(
                f"hysteresis window requires 0 < V_PO < V_PI, got {self.v_po}/{self.v_pi}")
        if not (self.c_off < self.c_on):
            raise CalibrationError("C_off must be below C_on")

    @functools.cached_property
    def g0(self) -> float:
        """Rest air gap (m); contact hard stop. g_eff - td/eps_d with td/eps_d = eps0*A/C_on.
        Computed on first read and kept: the beam laws read it on every call."""
        return self.g_eff - EPS0 * self.area / self.c_on

    @property
    def q_clamp(self) -> float:
        """Plate charge beyond which the charge-controlled equilibrium hits contact (C)."""
        return math.sqrt(2.0 * EPS0 * self.area * self.k * self.g0)

    @classmethod
    def from_geometry(cls, geom: DeviceGeometry, v_pi: float, v_po: float) -> "DeviceParams":
        """Calibrate from geometry; CalibrationError also when extreme
        dimensions leave the float range (g_eff**3 overflows, or a divisor
        underflows to zero)."""
        area, g_eff = derive_geometry_constants(geom)
        try:
            k = spring_from_pullin(geom, v_pi)
            d_c = contact_gap_from_pullout(geom, k, v_po)
            return cls(area=area, g_eff=g_eff, k=k, v_pi=v_pi, v_po=v_po, d_c=d_c,
                       c_on=c_on(geom), c_off=c_off(geom), gain_max=max_gain(geom))
        except (OverflowError, ZeroDivisionError) as exc:
            raise CalibrationError(f"calibration out of float range: {exc}") from None


@dataclass(frozen=True)
class Preset:
    """A named device variant with its published reference values."""

    geometry: DeviceGeometry
    v_pi: float
    v_po: float
    ref_c_on: float   # published latched capacitance (F)
    ref_c_off: float  # published released capacitance (F)
    ref_gain: float   # published voltage gain

    def params(self) -> DeviceParams:
        return DeviceParams.from_geometry(self.geometry, self.v_pi, self.v_po)


PRESETS: dict[str, Preset] = {
    "large": Preset(
        geometry=DeviceGeometry(8.5e-6, 1.6e-6, 100e-9, 7.9e-6, 135e-9, 27e-9, 7.6),
        v_pi=9.6, v_po=6.2,
        ref_c_on=31.5e-15, ref_c_off=0.8e-15, ref_gain=39.0),
    "lv-high-gain": Preset(
        geometry=DeviceGeometry(5.0e-6, 1.0e-6, 75e-9, 4.0e-6, 50e-9, 10e-9, 7.6),
        v_pi=3.8, v_po=2.4,
        ref_c_on=26.9e-15, ref_c_off=0.7e-15, ref_gain=39.0),
    "lv-low-gain": Preset(
        geometry=DeviceGeometry(5.0e-6, 1.0e-6, 75e-9, 4.0e-6, 50e-9, 20e-9, 7.6),
        v_pi=4.0, v_po=2.7,
        ref_c_on=13.5e-15, ref_c_off=0.7e-15, ref_gain=20.0),
}

# Published values are rounded for print: capacitances to 0.1 fF, gains to
# integers. A computed value is accepted if it is within 2% of the printed
# number or within half of that print quantum (whichever is looser).
_CAP_QUANTUM = 0.1e-15
_GAIN_QUANTUM = 1.0


def _matches(computed: float, reference: float, quantum: float, rel_tol: float = 0.02) -> bool:
    return abs(computed - reference) <= max(rel_tol * abs(reference), 0.5 * quantum)


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise InvalidGeometryError(
            f"unknown device preset {name!r}; known: {', '.join(sorted(PRESETS))}") from None


def compare_to_reference(name: str) -> list[dict]:
    """Check a preset's computed C_on, C_off and gain against its published values.

    Returns one row per quantity: {quantity, computed, reference, passed}.
    """
    preset = get_preset(name)
    geom = preset.geometry
    rows = [
        ("c_on_F", c_on(geom), preset.ref_c_on, _CAP_QUANTUM),
        ("c_off_F", c_off(geom), preset.ref_c_off, _CAP_QUANTUM),
        ("max_gain", max_gain(geom), preset.ref_gain, _GAIN_QUANTUM),
    ]
    return [
        {"quantity": q, "computed": comp, "reference": ref,
         "passed": _matches(comp, ref, quantum)}
        for q, comp, ref, quantum in rows
    ]
