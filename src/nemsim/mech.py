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
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

# nemsim's one third-party name; amp reaches it as mech.brentq
from scipy.optimize import brentq

from .device import EPS0, DeviceGeometry, DeviceParams, MaterialProps
from .errors import (ConfigError, ConvergenceError, DisplacementRangeError,
                     InvalidGeometryError, StiffnessError)
from .ioutil import FLOAT_FORMAT, format_distinct

# largest sweep one call may ask for: C-V grid points, or the clock phases of
# a gain sweep (amplitudes x 4 phases x periods)
MAX_SWEEP_SIZE = 1_000_000

# transient's relative tolerance, and its absolute one in units of g0 (and
# of g0 * omega0 for the velocity)
_SOLVER_TOL = 1e-9


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
    """Mass, damping and output step for transient runs."""

    effective_mass: float      # kg
    damping_b: float           # N*s/m
    integration_dt_max: float  # s, output sampling and max internal step

    def __post_init__(self):
        for name in ("effective_mass", "damping_b", "integration_dt_max"):
            if not (getattr(self, name) > 0):
                raise InvalidGeometryError(f"{name} must be strictly positive")

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


_TWO_PI_3 = 2.0 * math.pi / 3.0


def _voltage_law(dev: DeviceParams) -> tuple:
    """dev's constants of the voltage law, in _voltage_equilibrium's order:
    V_PI = sqrt(8*k*g_eff^3/(27*eps0*A)), eps0*A, k*g_eff^3, g_eff, 2/3*g_eff,
    g_eff/3 (the top of the stable branch), g0 and k, each by the float
    operations, in the order, that the law would spend on it per call, so
    its results do not change by a bit. Computed on the first law call and
    kept in the instance's __dict__, as functools.cached_property keeps
    DeviceParams.g0."""
    law = dev.__dict__.get("_voltage_law")
    if law is None:
        area, g_eff, k = dev.area, dev.g_eff, dev.k
        law = dev.__dict__["_voltage_law"] = (
            math.sqrt(8.0 * k * g_eff ** 3 / (27.0 * EPS0 * area)), EPS0 * area,
            k * g_eff ** 3, g_eff, g_eff * (2.0 / 3.0), g_eff / 3.0, dev.g0, k)
    return law


def _voltage_equilibrium(law: tuple, v: float) -> tuple[float, bool]:
    """(displacement, latched) of static_equilibrium_voltage at v, from the
    device's law constants (_voltage_law); the one implementation of the law."""
    v_pi, eps_area, k_g3, g_eff, root_scale, fold_x, g0, k = law
    if abs(v) >= v_pi:
        return g0, True
    if v == 0.0:
        return 0.0, False
    rhs = eps_area * v * v / 2.0
    fold = 13.5 * rhs / k_g3 - 1.0  # 27*s/2 - 1, in [-1, 1) below V_PI
    if fold >= 1.0:  # numerically at the fold: treat as pulled in
        return g0, True
    if math.isnan(fold):
        raise ConvergenceError(f"voltage equilibrium undefined at v = {v}")
    x = root_scale * (1.0 + math.cos(math.acos(fold) / 3.0 + _TWO_PI_3))
    gap = g_eff - x
    slope = k * gap * (g_eff - 3.0 * x)  # zero at the fold, where the step is skipped
    if slope > 0.0:
        # the polynomial is concave below g_eff/3: the step lands at or below the root
        x -= (k * x * gap * gap - rhs) / slope
    return min(max(x, 0.0), fold_x, g0), False


def static_equilibrium_voltage(dev: DeviceParams, v: float) -> BeamState:
    """Stable displacement under a fixed voltage, or the latched state past pull-in.

    For |v| < V_PI the stable root of k*x*(g_eff - x)^2 = eps0*A*v^2/2 lies
    in [0, g_eff/3); at or beyond V_PI the fold has annihilated it and the
    beam snaps to contact. With u = x/g_eff and s = eps0*A*v^2/(2*k*g_eff^3)
    the law is the cubic u*(1 - u)^2 = s, whose stable root is the
    trigonometric one, u = 2/3*(1 + cos(acos(27*s/2 - 1)/3 + 2*pi/3))
    (Pelesko & Bernstein, Modeling MEMS and NEMS, 2002). One Newton step on
    the displacement polynomial restores the digits that the cosine loses
    near u = 0. The law itself is _voltage_equilibrium, which cv_sweep calls
    directly.
    """
    x, latched = _voltage_equilibrium(_voltage_law(dev), v)
    return BeamState(x, 0.0, latched)


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


def update_beam_voltage(dev: DeviceParams, prior: BeamState, v: float) -> BeamState:
    """Hysteretic quasi-static update of a voltage-driven beam: a latched
    beam stays latched while release_holds at v; any other beam takes
    static_equilibrium_voltage at v."""
    if prior.latched and release_holds(dev, v):
        return BeamState(dev.g0, 0.0, True)
    return static_equilibrium_voltage(dev, v)


@dataclass(frozen=True)
class CVCurve:
    """Ordered (voltage, capacitance) samples with their sweep branch tag."""

    voltages: array      # 'd'
    capacitances: array  # 'd'
    branches: tuple[str, ...]  # "up" | "down" per sample

    def to_csv(self) -> str:
        """One row per sample; each distinct voltage and capacitance is
        formatted once (the down leg repeats the up leg's voltages, and the
        latched capacitance repeats)."""
        lines = ["v_V,c_F,branch"]
        lines += map(",".join, zip(format_distinct(FLOAT_FORMAT, self.voltages),
                                   format_distinct(FLOAT_FORMAT, self.capacitances),
                                   self.branches))
        return "\n".join(lines) + "\n"


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """np.linspace(start, stop, n) for n >= 2, value for value: i*step + start
    with step = (stop - start)/(n - 1), the last point set to stop, and
    (i/(n - 1))*(stop - start) + start when the step underflows to zero."""
    div = n - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:
        grid = [(i / div) * delta + start for i in range(n)]
    else:
        grid = [i * step + start for i in range(n)]
    grid[-1] = stop
    return grid


def cv_sweep(dev: DeviceParams, v_start: float, v_end: float, n_points: int,
             direction: str = "both") -> CVCurve:
    """Quasi-static C-V sweep with latched-state memory.

    Each point is treated as fully settled. The up branch latches at the
    first sample at or above V_PI; the down branch releases at the first
    sample where the d_c force balance lets go (below V_PO). This is
    update_beam_voltage's step, with the voltage law run once per distinct
    grid voltage: the down leg reuses the up leg's solutions.
    """
    if n_points < 2:
        raise InvalidGeometryError("cv_sweep needs n_points >= 2")
    if n_points > MAX_SWEEP_SIZE:
        raise ConfigError(f"cv_sweep asks for {n_points} points, more than {MAX_SWEEP_SIZE}")
    if direction not in ("up", "down", "both"):
        raise InvalidGeometryError(f"unknown sweep direction {direction!r}")
    grid = _linspace(v_start, v_end, n_points)
    legs: list[tuple[str, list[float]]] = []
    if direction in ("up", "both"):
        legs.append(("up", grid))
    if direction in ("down", "both"):
        legs.append(("down", grid[::-1]))

    # v -> (latched, capacitance) of the voltage law at v, for this sweep
    settled: dict[float, tuple[bool, float]] = {}
    law = _voltage_law(dev)
    c_latched = capacitance_at(dev, dev.g0)
    latched = direction == "down"
    volts: list[float] = []
    caps: list[float] = []
    tags: list[str] = []
    for tag, leg in legs:
        for v in leg:
            if latched and release_holds(dev, v):
                caps.append(c_latched)
                continue
            hit = settled.get(v)
            if hit is None:
                x, latched = _voltage_equilibrium(law, v)
                hit = settled[v] = (latched, capacitance_at(dev, x))
            latched, c = hit
            caps.append(c)
        volts += leg
        tags += [tag] * len(leg)
    return CVCurve(array('d', volts), array('d', caps), tuple(tags))


@dataclass(frozen=True)
class TransientTrace:
    """Sampled beam trajectory with contact/release event times."""

    t: array  # 'd', like x, v and c
    x: array
    v: array
    c: array
    latched: bytes  # 0 or 1 per sample
    contact_times: tuple[float, ...]
    release_times: tuple[float, ...]

    def to_csv(self) -> str:
        """One row per sample: t formatted row by row, and the rest of the row
        once per distinct (x, v, c, latched), which a latched stretch repeats."""
        lines = ["t_s,x_m,v_mps,c_F,latched"]
        tail = format_distinct(f"{FLOAT_FORMAT},{FLOAT_FORMAT},{FLOAT_FORMAT},%d",
                               self.x, self.v, self.c, self.latched)
        lines += map(",".join, zip(map(FLOAT_FORMAT.__mod__, self.t), tail))
        return "\n".join(lines) + "\n"


def mechanical_energy(dev: DeviceParams, dyn: DynamicsParams,
                      x: float, v: float, voltage: float) -> float:
    """Kinetic + spring + voltage co-energy; decays monotonically between
    contact events when the voltage is constant and damping positive."""
    kinetic = 0.5 * dyn.effective_mass * v * v
    spring = 0.5 * dev.k * x * x
    return kinetic + spring + coenergy_voltage(dev, x, voltage)


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 1980): stage
# nodes and rows, the last row being the 5th-order weights at whose result the
# 7th stage is taken (first same as last), and the 5th-minus-4th error weights
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# Shampine's 4th-order dense output: y(t_old + th*h) = y_old + h * sum_j Q_j * th^(j+1)
# with Q_j = sum_i K_i * _DP_P[i][j] over the seven stage derivatives K_i
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# step-size control: safety factor and the bounds of one step's change
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EPS = math.ulp(1.0)


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def _dense_coefficients(kx: list[float], kv: list[float]) -> tuple:
    qx, qv = [], []
    for j in range(4):
        sx = sv = 0.0
        for row, kx_i, kv_i in zip(_DP_P, kx, kv):
            sx += kx_i * row[j]
            sv += kv_i * row[j]
        qx.append(sx)
        qv.append(sv)
    return tuple(qx), tuple(qv)


def _interpolate(step: tuple, t: float) -> tuple[float, float]:
    """(x, v) at t from one step's dense output."""
    t_old, h, x_old, v_old, qx, qv = step
    th = (t - t_old) / h
    th2 = th * th
    th3 = th2 * th
    th4 = th3 * th
    return (x_old + h * (qx[0] * th + qx[1] * th2 + qx[2] * th3 + qx[3] * th4),
            v_old + h * (qv[0] * th + qv[1] * th2 + qv[2] * th3 + qv[3] * th4))


@dataclass(frozen=True)
class IvpSolution:
    """A solve_ivp run: the dense output of its accepted steps, the time it
    stopped at and the index of the terminal event that stopped it (None when
    it reached the end of its span)."""

    steps: tuple   # (t_old, h, x_old, v_old, Q of x, Q of v) per step
    ends: tuple    # where each step's stretch of the solution ends
    t: float
    event: int | None

    def __call__(self, t: float) -> tuple[float, float]:
        """(x, v) at t, from the earlier step at a joint between two."""
        i = min(bisect_left(self.ends, t), len(self.steps) - 1)
        return _interpolate(self.steps[i], t)


def solve_ivp(rhs: Callable[[float, float, float], tuple[float, float]],
              t0: float, t_end: float, y0: tuple[float, float], *,
              max_step: float, rtol: float, atol: tuple[float, float],
              events: tuple) -> IvpSolution:
    """Integrate (x, v)' = rhs(t, x, v) from y0 at t0 towards t_end.

    Dormand-Prince 5(4) with local extrapolation and Shampine's dense
    output (Shampine & Reichelt, SIAM J. Sci. Comput. 1997). The step
    control is that of the usual RK45: the first step from Hairer, Norsett &
    Wanner's estimate, the RMS norm of the error over atol + rtol*max(|y_old|,
    |y_new|), a step grown by 0.9*err^(-1/5) within [0.2, 10] (not grown right
    after a rejection) and never longer than max_step. events are
    (g(t, x, v), direction) pairs, all terminal: the run stops at the first
    zero of a g crossed upward (direction 1) or downward (-1) within a step,
    located by brentq on that step's interpolant to a few float spacings. A
    non-finite error estimate or a step below ten float spacings of t raises
    StiffnessError.
    """
    x, v = y0
    atol_x, atol_v = atol
    fx, fv = rhs(t0, x, v)

    # the first step (Hairer, Norsett & Wanner, Solving ODEs I, II.4)
    interval = t_end - t0
    sx, sv = atol_x + abs(x) * rtol, atol_v + abs(v) * rtol
    d0 = _rms(x / sx, v / sv)
    d1 = _rms(fx / sx, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1x, f1v = rhs(t0 + h0, x + h0 * fx, v + h0 * fv)
    d2 = _rms((f1x - fx) / sx, (f1v - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100.0 * h0, h1, interval, max_step)

    g = [event(t0, x, v) for event, _ in events]
    steps: list[tuple] = []
    ends: list[float] = []
    t = t0
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    f"integration step failed at t = {t:.6e} s: step size {h_abs:.3e} s "
                    f"below ten float spacings of t", t=t)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            kx, kv = [fx], [fv]
            for c, row in zip(_DP_C, _DP_A):
                dx = dv = 0.0
                for a, kx_i, kv_i in zip(row, kx, kv):
                    dx += a * kx_i
                    dv += a * kv_i
                # after the last row: the step's 5th-order solution
                x_new, v_new = x + dx * h, v + dv * h
                stage_x, stage_v = rhs(t + c * h, x_new, v_new)
                kx.append(stage_x)
                kv.append(stage_v)
            ex = ev = 0.0
            for e, kx_i, kv_i in zip(_DP_E, kx, kv):
                ex += e * kx_i
                ev += e * kv_i
            err = _rms(ex * h / (atol_x + max(abs(x), abs(x_new)) * rtol),
                       ev * h / (atol_v + max(abs(v), abs(v_new)) * rtol))
            if not math.isfinite(err):
                raise StiffnessError(
                    f"integration step failed at t = {t:.6e} s: non-finite error "
                    f"estimate", t=t)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR,
                                                          _SAFETY * err ** -0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            rejected = True

        step = (t, h, x, v, *_dense_coefficients(kx, kv))
        steps.append(step)
        ends.append(t_new)
        t, x, v, fx, fv = t_new, x_new, v_new, kx[-1], kv[-1]
        g_new = [event(t, x, v) for event, _ in events]
        hits = []
        for i, ((event, direction), a, b) in enumerate(zip(events, g, g_new)):
            if (a <= 0.0 <= b) if direction > 0 else (a >= 0.0 >= b):
                # tolerances relative to t: an absolute one of a few float
                # spacings of 1 s would be coarse on a microsecond scale
                t_hit = brentq(lambda s, event=event: event(s, *_interpolate(step, s)),
                               step[0], t, xtol=4 * _EPS * t, rtol=4 * _EPS)
                hits.append((t_hit, i))
        if hits:
            t_hit, which = min(hits)
            ends[-1] = t_hit
            return IvpSolution(tuple(steps), tuple(ends), t_hit, which)
        g = g_new
    return IvpSolution(tuple(steps), tuple(ends), t, None)


_MAX_SEGMENTS = 100_000


def _arange(start: float, stop: float, step: float) -> list[float]:
    """np.arange(start, stop, step) for floats, value for value: ceil((stop -
    start)/step) points, start, start + step, then start + i*((start + step) - start)."""
    n = math.ceil((stop - start) / step)
    if n <= 0:
        return []
    second = start + step
    delta = second - start
    return [start, second, *[start + i * delta for i in range(2, n)]][:n]


def transient(dev: DeviceParams, dyn: DynamicsParams,
              drive: Callable[[float], float], t_end: float, *,
              mode: str = "voltage", d_c: float | None = None) -> TransientTrace:
    """Integrate m*x'' + b*x' + k*x = F(x, drive(t)) with hard stops at both
    ends, from rest (x = 0, velocity 0, released) at t = 0.

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
    m = dyn.effective_mass
    b = dyn.damping_b
    dt = dyn.integration_dt_max

    # rhs is (x, v)' in free flight; hold(t) is the force on a latched beam,
    # which stays latched while it meets the fully stretched spring force k*g0
    if mode == "voltage":
        if d_c is None:
            d_c = g_eff - g0  # bare dielectric equivalent separation td/eps_d

        def rhs(t: float, x: float, vel: float) -> tuple[float, float]:
            f = force_voltage_controlled(dev, min(x, g0), drive(t))
            return vel, (f - b * vel - k * x) / m

        def hold(t: float) -> float:
            u = drive(t)
            return EPS0 * area * u * u / (2.0 * d_c * d_c)
    else:
        def rhs(t: float, x: float, vel: float) -> tuple[float, float]:
            return vel, (force_charge_controlled(dev, drive(t)) - b * vel - k * x) / m

        def hold(t: float) -> float:
            return force_charge_controlled(dev, drive(t))

    # offset keeps a trajectory resting exactly at x = 0 from re-triggering
    floor_eps = 1e-9 * g0
    events = ((lambda t, x, vel: x - g0, 1),          # contact
              (lambda t, x, vel: x + floor_eps, -1))  # floor

    atol = (_SOLVER_TOL * g0, _SOLVER_TOL * g0 * math.sqrt(k / m))

    ts: list[float] = []
    xs: list[float] = []
    vs: list[float] = []
    flags = bytearray()
    contacts: list[float] = []
    releases: list[float] = []

    def emit(t_seg: list[float], x_seg, v_seg, latched: bool):
        ts.extend(t_seg)
        # clipped to [0, g0], a non-positive x to +0.0
        xs.extend([(x if x < g0 else g0) if x > 0.0 else 0.0 for x in x_seg])
        vs.extend(v_seg)
        flags.extend(bytes([latched]) * len(t_seg))

    t_now = 0.0
    state = BeamState(0.0, 0.0, False)
    for _ in range(_MAX_SEGMENTS):
        if t_now >= t_end:
            break
        if state.latched:
            # march until the hold force drops below k*g0, then bisect the crossing
            t_rel = None
            t_probe = t_now
            prev = t_probe
            while t_probe < t_end:
                t_probe = min(t_probe + dt, t_end)
                if hold(t_probe) < k * g0:
                    lo, hi = prev, t_probe
                    for _ in range(60):  # bisection well below 1e-3 of the step
                        mid = 0.5 * (lo + hi)
                        if hold(mid) < k * g0:
                            hi = mid
                        else:
                            lo = mid
                    t_rel = hi
                    break
                prev = t_probe
            stop = t_rel if t_rel is not None else t_end
            grid = _arange(t_now, stop, dt)
            grid.append(stop)
            emit(grid, [g0] * len(grid), [0.0] * len(grid), True)
            t_now = stop
            if t_rel is None:
                break
            releases.append(t_rel)
            state = BeamState(g0, 0.0, False)
            continue

        sol = solve_ivp(rhs, t_now, t_end, (state.displacement, state.velocity),
                        max_step=dt, rtol=_SOLVER_TOL, atol=atol, events=events)
        grid = _arange(t_now, sol.t, dt)
        grid.append(sol.t)
        x_seg, v_seg = zip(*map(sol, grid))
        emit(grid, x_seg, v_seg, False)
        t_now = sol.t
        if sol.event == 0:
            contacts.append(sol.t)
            state = BeamState(g0, 0.0, True)
        elif sol.event == 1:
            state = BeamState(0.0, 0.0, False)  # inelastic floor stop
        else:
            break
    else:
        raise StiffnessError(
            f"event chatter: more than {_MAX_SEGMENTS} segments before t_end", t=t_now)

    # drop duplicated segment joints over the whole column: a sample stays
    # only if its t exceeds the t of the sample before it
    for i in reversed([i for i in range(1, len(ts)) if not ts[i] > ts[i - 1]]):
        del ts[i], xs[i], vs[i], flags[i]
    eps_area = EPS0 * area
    return TransientTrace(array('d', ts), array('d', xs), array('d', vs),
                          array('d', [eps_area / (g_eff - x) for x in xs]), bytes(flags),
                          tuple(contacts), tuple(releases))
