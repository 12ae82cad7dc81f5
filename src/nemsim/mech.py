"""One-degree-of-freedom electromechanics of the switch beam.

Displacement x runs from 0 (rest) to g0 (contact with the dielectric, a
perfectly inelastic hard stop). Statics come in two flavors: voltage
control (unstable past g_eff/3, the pull-in fold) and charge control
(position-independent force, unconditionally stable below the contact
clamp). The transient integrator handles contact/release events between
free-flight segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .device import EPS0, DeviceGeometry, DeviceParams, MaterialProps
from .errors import (ConfigError, ConvergenceError, DisplacementRangeError,
                     InvalidGeometryError, StiffnessError)
from .ioutil import format_float

# largest sweep one call may ask for: C-V grid points, or the clock phases of
# a gain sweep (amplitudes x 4 phases x periods)
MAX_SWEEP_SIZE = 1_000_000


@dataclass(frozen=True)
class BeamState:
    """Instantaneous mechanical state of one beam.

    latched means mechanically in contact; it holds exactly when
    displacement == g0 of the owning device.
    """

    displacement: float  # m, 0 = rest, g0 = contact
    velocity: float      # m/s
    latched: bool


@dataclass(frozen=True)
class DynamicsParams:
    """Mass, damping and solver controls for transient runs."""

    effective_mass: float      # kg
    damping_b: float           # N*s/m
    integration_dt_max: float  # s, output sampling and max internal step
    solver_tol: float = 1e-9   # relative

    def __post_init__(self):
        for name in ("effective_mass", "damping_b", "integration_dt_max", "solver_tol"):
            if not (getattr(self, name) > 0):
                raise InvalidGeometryError(f"{name} must be strictly positive")
        if self.solver_tol > 1e-6:
            raise InvalidGeometryError("solver_tol must be <= 1e-6")

    @classmethod
    def for_device(cls, geom: DeviceGeometry, k: float, dt_max: float) -> "DynamicsParams":
        """Defaults from the fundamental clamped-clamped mode: m_eff = 0.4*rho*L*W*t
        with the default material's density, b = omega0*m_eff/Q with Q = 2."""
        m_eff = (0.4 * MaterialProps().density
                 * geom.beam_length * geom.beam_width * geom.beam_thickness)
        omega0 = math.sqrt(k / m_eff)
        return cls(effective_mass=m_eff, damping_b=omega0 * m_eff / 2.0,
                   integration_dt_max=dt_max)


def capacitance_at(dev: DeviceParams, x: float) -> float:
    """Capacitance at displacement x: eps0*A/(g_eff - x).

    Exactly c_off at x = 0 and c_on at x = g0 (where the remaining gap is
    the dielectric's equivalent air thickness).
    """
    if not (0.0 <= x <= dev.g0):
        raise DisplacementRangeError(f"displacement {x!r} outside [0, g0 = {dev.g0}]")
    return EPS0 * dev.area / (dev.g_eff - x)


def force_voltage_controlled(dev: DeviceParams, x: float, v: float) -> float:
    """Attractive plate force under fixed voltage: eps0*A*V^2/(2*(g_eff - x)^2). Even in V."""
    return EPS0 * dev.area * v * v / (2.0 * (dev.g_eff - x) ** 2)


def force_charge_controlled(dev: DeviceParams, q: float) -> float:
    """Plate force under fixed charge: q^2/(2*eps0*A), independent of position.

    The position independence is what keeps released beams stable at large
    hold-phase voltages.
    """
    return q * q / (2.0 * EPS0 * dev.area)


def coenergy_voltage(dev: DeviceParams, x: float, v: float) -> float:
    """Potential for the voltage-controlled force: -eps0*A*V^2/(2*(g_eff - x)).

    force_voltage_controlled == -d/dx of this.
    """
    return -EPS0 * dev.area * v * v / (2.0 * (dev.g_eff - x))


def energy_charge(dev: DeviceParams, x: float, q: float) -> float:
    """Field energy at fixed charge: q^2*(g_eff - x)/(2*eps0*A).

    force_charge_controlled == -d/dx of this.
    """
    return q * q * (dev.g_eff - x) / (2.0 * EPS0 * dev.area)


def static_equilibrium_voltage(dev: DeviceParams, v: float) -> BeamState:
    """Stable displacement under a fixed voltage, or the latched state past pull-in.

    For |v| < V_PI the stable root of k*x = F(x, v) lies in [0, g_eff/3);
    at or beyond V_PI the fold has annihilated it and the beam snaps to
    contact.
    """
    area, g_eff, g0, k = dev.area, dev.g_eff, dev.g0, dev.k
    v_pi = math.sqrt(8.0 * k * g_eff ** 3 / (27.0 * EPS0 * area))
    if abs(v) >= v_pi:
        return BeamState(g0, 0.0, True)
    if v == 0.0:
        return BeamState(0.0, 0.0, False)
    rhs = EPS0 * area * v * v / 2.0

    def poly(x: float) -> float:
        return k * x * (g_eff - x) ** 2 - rhs

    hi = g_eff / 3.0
    if poly(hi) <= 0.0:  # numerically at the fold: treat as pulled in
        return BeamState(g0, 0.0, True)
    try:
        x = brentq(poly, 0.0, hi, xtol=1e-30, maxiter=200)
    except (RuntimeError, ValueError) as exc:
        raise ConvergenceError(
            f"voltage equilibrium failed on bracket [0, {hi:.6e}] at v = {v} "
            f"(xtol 1e-30): {exc}") from exc
    return BeamState(min(x, g0), 0.0, False)


def static_equilibrium_charge(dev: DeviceParams, q: float) -> BeamState:
    """Displacement under fixed plate charge: x = q^2/(2*eps0*A*k), clamped at contact."""
    x = q * q / (2.0 * EPS0 * dev.area * dev.k)
    if x >= dev.g0:
        return BeamState(dev.g0, 0.0, True)
    return BeamState(x, 0.0, False)


def release_holds(dev: DeviceParams, v: float) -> bool:
    """True if a latched beam stays latched at voltage v under the d_c release model.

    Latch persists while the electrostatic force at separation d_c meets the
    fully stretched spring force k*g0.
    """
    return EPS0 * dev.area * v * v / (2.0 * dev.d_c * dev.d_c) >= dev.k * dev.g0


def update_beam_voltage(dev: DeviceParams, prior: BeamState, v: float, *,
                        settle: Callable[[float], BeamState] | None = None) -> BeamState:
    """Hysteretic quasi-static update of a voltage-driven beam.

    A beam that is not held latched takes static_equilibrium_voltage at v;
    settle(v), when given, must return that same state (cv_sweep passes its
    per-sweep memo of the law).
    """
    if prior.latched and release_holds(dev, v):
        return BeamState(dev.g0, 0.0, True)
    if settle is not None:
        return settle(v)
    return static_equilibrium_voltage(dev, v)


@dataclass(frozen=True)
class CVCurve:
    """Ordered (voltage, capacitance) samples with their sweep branch tag."""

    voltages: np.ndarray
    capacitances: np.ndarray
    branches: tuple[str, ...]  # "up" | "down" per sample

    def to_csv(self) -> str:
        lines = ["v_V,c_F,branch"]
        for v, c, b in zip(self.voltages.tolist(), self.capacitances.tolist(), self.branches):
            lines.append(f"{format_float(v)},{format_float(c)},{b}")
        return "\n".join(lines) + "\n"


def cv_sweep(dev: DeviceParams, v_start: float, v_end: float, n_points: int,
             direction: str = "both") -> CVCurve:
    """Quasi-static C-V sweep with latched-state memory.

    Each point is treated as fully settled. The up branch latches at the
    first sample at or above V_PI; the down branch releases at the first
    sample where the d_c force balance lets go (below V_PO). The voltage
    law runs once per distinct grid voltage: the down leg reuses the up
    leg's solutions.
    """
    if n_points < 2:
        raise InvalidGeometryError("cv_sweep needs n_points >= 2")
    if n_points > MAX_SWEEP_SIZE:
        raise ConfigError(f"cv_sweep asks for {n_points} points, more than {MAX_SWEEP_SIZE}")
    if direction not in ("up", "down", "both"):
        raise InvalidGeometryError(f"unknown sweep direction {direction!r}")
    grid = np.linspace(v_start, v_end, n_points).tolist()
    legs: list[tuple[str, list[float]]] = []
    if direction in ("up", "both"):
        legs.append(("up", grid))
    if direction in ("down", "both"):
        legs.append(("down", grid[::-1]))

    # v -> (static_equilibrium_voltage at v, its capacitance), for this sweep
    settled: dict[float, tuple[BeamState, float]] = {}

    def settle(v: float) -> BeamState:
        hit = settled.get(v)
        if hit is None:
            law = static_equilibrium_voltage(dev, v)
            hit = settled[v] = (law, capacitance_at(dev, law.displacement))
        return hit[0]

    c_latched = capacitance_at(dev, dev.g0)
    state = BeamState(dev.g0, 0.0, True) if direction == "down" \
        else BeamState(0.0, 0.0, False)
    volts: list[float] = []
    caps: list[float] = []
    tags: list[str] = []
    for tag, leg in legs:
        for v in leg:
            state = update_beam_voltage(dev, state, v, settle=settle)
            # a released state came from settle(v)
            caps.append(c_latched if state.latched else settled[v][1])
        volts += leg
        tags += [tag] * len(leg)
    return CVCurve(np.asarray(volts), np.asarray(caps), tuple(tags))


@dataclass(frozen=True)
class TransientTrace:
    """Sampled beam trajectory with contact/release event times."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    c: np.ndarray
    latched: np.ndarray  # bool
    contact_times: tuple[float, ...]
    release_times: tuple[float, ...]

    def to_csv(self) -> str:
        cols = [map(format_float, a.tolist()) for a in (self.t, self.x, self.v, self.c)]
        flags = ["1" if f else "0" for f in self.latched.tolist()]
        lines = ["t_s,x_m,v_mps,c_F,latched"]
        lines += [",".join(row) for row in zip(*cols, flags)]
        return "\n".join(lines) + "\n"


def mechanical_energy(dev: DeviceParams, dyn: DynamicsParams,
                      x: float, v: float, drive_value: float,
                      mode: str = "voltage") -> float:
    """Kinetic + spring + field potential; decays monotonically between
    contact events when the drive is constant and damping positive."""
    kinetic = 0.5 * dyn.effective_mass * v * v
    spring = 0.5 * dev.k * x * x
    if mode == "voltage":
        field = coenergy_voltage(dev, x, drive_value)
    else:
        field = energy_charge(dev, x, drive_value)
    return kinetic + spring + field


_MAX_SEGMENTS = 100_000


def transient(dev: DeviceParams, dyn: DynamicsParams,
              drive: Callable[[float], float], t_end: float, *,
              mode: str = "voltage", d_c: float | None = None,
              x0: float = 0.0, v0: float = 0.0) -> TransientTrace:
    """Integrate m*x'' + b*x' + k*x = F(x, drive(t)) with hard stops at both ends.

    mode selects the force law: "voltage" (drive is V(t)) or "charge"
    (drive is q(t)). Contact at x = g0 is perfectly inelastic and sets the
    latched flag; a latched beam releases when the d_c force balance turns
    tensile (d_c defaults to the bare dielectric separation td/eps_d). The
    rest position x = 0 is also treated as an inelastic stop so the state
    honors 0 <= x <= g0 throughout.
    """
    if mode not in ("voltage", "charge"):
        raise InvalidGeometryError(f"unknown drive mode {mode!r}")
    if not (t_end > 0):
        raise InvalidGeometryError("t_end must be positive")
    area, g_eff, g0, k = dev.area, dev.g_eff, dev.g0, dev.k
    if not (0.0 <= x0 <= g0):
        raise DisplacementRangeError(f"x0 = {x0!r} outside [0, g0]")
    if d_c is None:
        d_c = g_eff - g0  # bare dielectric equivalent separation td/eps_d
    m = dyn.effective_mass
    b = dyn.damping_b
    dt = dyn.integration_dt_max

    def force(x: float, t: float) -> float:
        u = drive(t)
        if mode == "voltage":
            return EPS0 * area * u * u / (2.0 * (g_eff - x) ** 2)
        return u * u / (2.0 * EPS0 * area)

    def rhs(t, y):
        x, vel = y
        return (vel, (force(min(x, g0), t) - b * vel - k * x) / m)

    def hit_contact(t, y):
        return y[0] - g0
    hit_contact.terminal = True
    hit_contact.direction = 1

    # offset keeps a trajectory resting exactly at x = 0 from re-triggering
    floor_eps = 1e-9 * g0

    def hit_floor(t, y):
        return y[0] + floor_eps
    hit_floor.terminal = True
    hit_floor.direction = -1

    def latched_force_margin(t: float) -> float:
        # > 0: latch holds, < 0: release
        if mode == "voltage":
            u = drive(t)
            hold = EPS0 * area * u * u / (2.0 * d_c * d_c)
        else:
            u = drive(t)
            hold = u * u / (2.0 * EPS0 * area)
        return hold - k * g0

    atol = (dyn.solver_tol * g0, dyn.solver_tol * g0 * math.sqrt(k / m))

    ts: list[np.ndarray] = []
    xs: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    ls: list[np.ndarray] = []
    contacts: list[float] = []
    releases: list[float] = []

    def emit(t_arr, x_arr, v_arr, latched: bool):
        ts.append(np.asarray(t_arr, dtype=float))
        xs.append(np.clip(np.asarray(x_arr, dtype=float), 0.0, g0))
        vs.append(np.asarray(v_arr, dtype=float))
        ls.append(np.full(len(t_arr), latched))

    t_now = 0.0
    state = BeamState(x0, v0, x0 >= g0)
    for _ in range(_MAX_SEGMENTS):
        if t_now >= t_end:
            break
        if state.latched:
            # march until the hold margin goes negative, then bisect the crossing
            t_rel = None
            t_probe = t_now
            prev = t_probe
            while t_probe < t_end:
                t_probe = min(t_probe + dt, t_end)
                if latched_force_margin(t_probe) < 0.0:
                    lo, hi = prev, t_probe
                    for _ in range(60):  # bisection well below 1e-3 of the step
                        mid = 0.5 * (lo + hi)
                        if latched_force_margin(mid) < 0.0:
                            hi = mid
                        else:
                            lo = mid
                    t_rel = hi
                    break
                prev = t_probe
            stop = t_rel if t_rel is not None else t_end
            grid = np.arange(t_now, stop, dt)
            grid = np.append(grid, stop)
            emit(grid, np.full(len(grid), g0), np.zeros(len(grid)), True)
            t_now = stop
            if t_rel is None:
                break
            releases.append(t_rel)
            state = BeamState(g0, 0.0, False)
            continue

        sol = solve_ivp(rhs, (t_now, t_end), (state.displacement, state.velocity),
                        method="RK45", max_step=dt, rtol=dyn.solver_tol, atol=atol,
                        events=(hit_contact, hit_floor), dense_output=True)
        if sol.status == -1:
            raise StiffnessError(
                f"integration step failed at t = {sol.t[-1]:.6e} s: {sol.message}",
                t=float(sol.t[-1]))
        seg_end = float(sol.t[-1])
        grid = np.arange(t_now, seg_end, dt)
        grid = np.append(grid, seg_end)
        y = sol.sol(grid)
        emit(grid, y[0], y[1], False)
        t_now = seg_end
        if sol.status == 1:  # a hard stop fired
            if len(sol.t_events[0]):
                contacts.append(float(sol.t_events[0][0]))
                state = BeamState(g0, 0.0, True)
            else:
                state = BeamState(0.0, 0.0, False)  # inelastic floor stop
        else:
            break
    else:
        raise StiffnessError(
            f"event chatter: more than {_MAX_SEGMENTS} segments before t_end", t=t_now)

    t_all = np.concatenate(ts)
    x_all = np.concatenate(xs)
    v_all = np.concatenate(vs)
    l_all = np.concatenate(ls)
    keep = np.empty(len(t_all), dtype=bool)  # drop duplicated segment joints
    keep[0] = True
    keep[1:] = np.diff(t_all) > 0
    t_all, x_all, v_all, l_all = t_all[keep], x_all[keep], v_all[keep], l_all[keep]
    c_all = EPS0 * area / (g_eff - x_all)
    return TransientTrace(t_all, x_all, v_all, c_all, l_all,
                          tuple(contacts), tuple(releases))
