"""Event-driven two-phase switched-capacitor network engine.

Phases are long (microseconds) compared with electrical settling through a
closed relay (tens of picoseconds), so each phase is solved at equilibrium:
nodes are partitioned into islands by the closed switches, islands holding
a source take its voltage, and every floating island keeps its total plate
charge while its voltage and the electromechanical capacitances relax to a
joint fixed point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .device import EPS0, DeviceParams, get_preset
from .errors import ConvergenceError, InvalidGeometryError, NetworkError
from .ioutil import format_float
from .mech import (BeamState, release_holds, static_equilibrium_charge,
                   static_equilibrium_voltage)

GROUND = "gnd"


class SettlingWarning(UserWarning):
    """R_on * C_island not negligible against the phase duration."""


# --------------------------------------------------------------------------
# waveforms and clocking

@dataclass(frozen=True)
class Dc:
    value: float

    def at(self, t: float, phase: "Phase") -> float:
        return self.value


@dataclass(frozen=True)
class Sine:
    amplitude: float
    freq_hz: float
    offset: float = 0.0

    def at(self, t: float, phase: "Phase") -> float:
        return self.offset + self.amplitude * math.sin(2.0 * math.pi * self.freq_hz * t)


@dataclass(frozen=True)
class Clock:
    """Two-level rail tied to one of the schedule's phases ("clk" or "clkb")."""

    phase: str
    high: float
    low: float = 0.0

    def at(self, t: float, phase: "Phase") -> float:
        on = phase.clk_on if self.phase == "clk" else phase.clkb_on
        return self.high if on else self.low


Waveform = Dc | Sine | Clock


@dataclass(frozen=True)
class Phase:
    """One quasi-static interval of the two-phase schedule."""

    index: int
    kind: str      # "sample" | "hold" | "dead"
    t_start: float
    t_end: float
    clk_on: bool
    clkb_on: bool

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class ClockSchedule:
    """Two-phase non-overlapping clock: sample on CLK, hold on CLKB."""

    f_clk: float
    nonoverlap_frac: float = 0.01

    def __post_init__(self):
        if not (self.f_clk > 0):
            raise InvalidGeometryError("f_clk must be positive")
        if not (0.0 <= self.nonoverlap_frac < 0.5):
            raise InvalidGeometryError("nonoverlap fraction must lie in [0, 0.5)")

    @property
    def period(self) -> float:
        return 1.0 / self.f_clk

    def phases(self, t_end: float) -> list[Phase]:
        """Phase sequence covering [0, t_end]; t_end must span >= one period."""
        period = self.period
        if not (t_end >= period):
            raise InvalidGeometryError(
                f"schedule needs at least one full period ({period:.3e} s), got t_end = {t_end!r}")
        dead = self.nonoverlap_frac * period
        out: list[Phase] = []
        n_periods = int(round(t_end / period))
        idx = 0
        for p in range(n_periods):
            t0 = p * period
            marks = [
                ("sample", t0, t0 + period / 2 - dead, True, False),
                ("dead", t0 + period / 2 - dead, t0 + period / 2, False, False),
                ("hold", t0 + period / 2, t0 + period - dead, False, True),
                ("dead", t0 + period - dead, t0 + period, False, False),
            ]
            for kind, a, b, clk, clkb in marks:
                if b > a:
                    out.append(Phase(idx, kind, a, b, clk, clkb))
                    idx += 1
        return out


# --------------------------------------------------------------------------
# elements

@dataclass(frozen=True, slots=True)
class OhmicSwitchState:
    """Hysteretic relay state; a commanded toggle takes effect switching_delay
    after the crossing, recorded in last_transition_time."""

    conducting: bool = False
    last_transition_time: float = -math.inf
    switching_delay: float = 100e-9


@dataclass
class NemsCap:
    """Electromechanical capacitor; q is the signed charge on the top plate."""

    name: str
    top: str
    bottom: str
    device: DeviceParams
    state: BeamState = field(default_factory=lambda: BeamState(0.0, 0.0, False))
    q: float = 0.0

    def capacitance(self, beams: Mapping[str, BeamState]) -> float:
        return EPS0 * self.device.area / (self.device.g_eff - beams[self.name].displacement)


@dataclass
class LinearCap:
    name: str
    a: str
    b: str
    value: float  # F
    q: float = 0.0  # charge on plate a

    def capacitance(self, beams: Mapping[str, BeamState]) -> float:
        return self.value


@dataclass
class OhmicSwitch:
    """Clocked NEM relay: ideal short when conducting, ideal open otherwise.

    r_on only feeds the settling-time assertion.
    """

    name: str
    a: str
    b: str
    drive: Waveform
    v_pi: float
    v_po: float
    r_on: float = 1e3
    state: OhmicSwitchState = field(default_factory=OhmicSwitchState)


@dataclass
class VSource:
    name: str
    node: str
    wave: Waveform


def step_switch(switch: OhmicSwitch, v_gb: float, t: float,
                state: OhmicSwitchState | None = None) -> OhmicSwitchState:
    """Advance the relay state machine from state (default: switch.state, the
    initial condition) with the gate-body voltage at time t."""
    st = switch.state if state is None else state
    last_cross = st.last_transition_time - st.switching_delay
    if math.isfinite(last_cross) and t < last_cross:
        raise InvalidGeometryError(
            f"switch {switch.name}: non-monotone time {t} < {last_cross}")
    commanded = st.conducting
    if not st.conducting and abs(v_gb) > switch.v_pi:
        commanded = True
    elif st.conducting and abs(v_gb) < switch.v_po:
        commanded = False
    if commanded == st.conducting:
        return st
    return OhmicSwitchState(conducting=commanded,
                            last_transition_time=t + st.switching_delay,
                            switching_delay=st.switching_delay)


def switch_is_conducting(state: OhmicSwitchState, t: float) -> bool:
    """Effective conduction at time t, honoring the settling delay.

    The slack absorbs float roundoff when the settling instant lands exactly
    on a phase boundary (e.g. t_sw equal to the non-overlap interval).
    """
    if t >= state.last_transition_time - 1e-6 * state.switching_delay:
        return state.conducting
    return not state.conducting


# --------------------------------------------------------------------------
# network

@dataclass
class Network:
    """Nodes, elements and ground: read-only input to the engine.

    Element fields that evolve (capacitor ``q``, beam ``state``, switch
    ``state``) hold the initial conditions; the engine never writes them and
    threads the evolving state through the PhaseSolution chain instead.
    """

    ground: str = GROUND
    solver_tol: float = 1e-12
    nodes: list[str] = field(default_factory=list)
    nems_caps: list[NemsCap] = field(default_factory=list)
    linear_caps: list[LinearCap] = field(default_factory=list)
    switches: list[OhmicSwitch] = field(default_factory=list)
    sources: list[VSource] = field(default_factory=list)

    def add_node(self, name: str) -> str:
        if name not in self.nodes:
            self.nodes.append(name)
        return name

    def caps(self) -> list[NemsCap | LinearCap]:
        return [*self.nems_caps, *self.linear_caps]

    def elements(self):
        return [*self.nems_caps, *self.linear_caps, *self.switches, *self.sources]

    def validate(self) -> None:
        if self.ground not in self.nodes:
            raise NetworkError(f"no-ground: node {self.ground!r} not present")
        known = set(self.nodes)
        touched: set[str] = set()
        for el in self.elements():
            pins = ([el.top, el.bottom] if isinstance(el, NemsCap)
                    else [el.a, el.b] if isinstance(el, (LinearCap, OhmicSwitch))
                    else [el.node])
            for n in pins:
                if n not in known:
                    raise NetworkError(f"unknown-node: element {el.name!r} references {n!r}")
            if len(pins) == 2 and pins[0] == pins[1]:
                raise NetworkError(f"dangling-element: {el.name!r} shorts node {pins[0]!r} to itself")
            touched.update(pins)
        for n in self.nodes:
            if n != self.ground and n not in touched:
                raise NetworkError(f"dangling-element: node {n!r} has no attached element")


def build_network(description: Mapping) -> Network:
    """Validated Network from a plain-dict description.

    Keys: "ground" (default "gnd"), optional "nodes" list, "elements" list of
    typed dicts (nems_cap / linear_cap / switch / source), optional
    "solver_tol". Device references are either {"preset": name} or inline
    DeviceParams fields.
    """
    net = Network(ground=description.get("ground", GROUND),
                  solver_tol=description.get("solver_tol", 1e-12))
    for n in description.get("nodes", []):
        net.add_node(n)
    declared = set(net.nodes)

    def node(name: str) -> str:
        if declared and name not in declared:
            raise NetworkError(f"unknown-node: {name!r} not in declared node list")
        return net.add_node(name)

    def wave_of(entry: Mapping) -> Waveform:
        kind = entry.get("kind")
        if kind == "dc":
            return Dc(float(entry["value"]))
        if kind == "sine":
            return Sine(float(entry["amplitude"]), float(entry["freq_hz"]),
                        float(entry.get("offset", 0.0)))
        if kind == "clock":
            return Clock(entry["phase"], float(entry["high"]), float(entry.get("low", 0.0)))
        raise NetworkError(f"unknown waveform kind {kind!r}")

    for el in description.get("elements", []):
        etype = el.get("type")
        if etype == "nems_cap":
            dev = (get_preset(el["preset"]).params() if "preset" in el
                   else el["device"])
            net.nems_caps.append(NemsCap(el["name"], node(el["top"]), node(el["bottom"]), dev))
        elif etype == "linear_cap":
            net.linear_caps.append(LinearCap(el["name"], node(el["a"]), node(el["b"]),
                                             float(el["value"])))
        elif etype == "switch":
            net.switches.append(OhmicSwitch(
                el["name"], node(el["a"]), node(el["b"]), wave_of(el["drive"]),
                v_pi=float(el["v_pi"]), v_po=float(el["v_po"]),
                r_on=float(el.get("r_on", 1e3)),
                state=OhmicSwitchState(switching_delay=float(el.get("t_sw", 100e-9)))))
        elif etype == "source":
            net.sources.append(VSource(el["name"], node(el["node"]), wave_of(el["wave"])))
        else:
            raise NetworkError(f"unknown element type {etype!r}")
    net.validate()
    return net


# --------------------------------------------------------------------------
# islands

@dataclass(frozen=True)
class Island:
    id: str
    nodes: tuple[str, ...]
    pinned_voltage: float | None  # None = floating

    @property
    def floating(self) -> bool:
        return self.pinned_voltage is None


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {k: k for k in items}

    def find(self, k: str) -> str:
        root = k
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[k] != root:
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a: str, b: str) -> None:
        self.parent[self.find(b)] = self.find(a)


def _phase_switch_states(network: Network, phase: Phase,
                         prior: Mapping[str, OhmicSwitchState] | None = None
                         ) -> dict[str, OhmicSwitchState]:
    """Switch states at phase start, stepped from prior (default: the network's
    initial states)."""
    states = {}
    for sw in network.switches:
        v_gb = sw.drive.at(phase.t_start, phase)
        states[sw.name] = step_switch(sw, v_gb, phase.t_start,
                                      None if prior is None else prior[sw.name])
    return states


def islands(network: Network, phase: Phase,
            switch_states: Mapping[str, OhmicSwitchState] | None = None) -> list[Island]:
    """Partition nodes by closed-switch connectivity; source-holding islands are pinned.

    Raises NetworkError on a pin conflict (two sources at different values
    shorted together).
    """
    if switch_states is None:
        switch_states = _phase_switch_states(network, phase)
    uf = _UnionFind(network.nodes)
    for sw in network.switches:
        if switch_is_conducting(switch_states[sw.name], phase.t_end):
            uf.union(sw.a, sw.b)
    groups: dict[str, list[str]] = {}
    for n in network.nodes:
        groups.setdefault(uf.find(n), []).append(n)

    pins: dict[str, list[tuple[str, float]]] = {}
    for src in network.sources:
        pins.setdefault(uf.find(src.node), []).append(
            (src.name, src.wave.at(phase.t_end, phase)))
    if network.ground in uf.parent:
        pins.setdefault(uf.find(network.ground), []).append(("ground", 0.0))

    out: list[Island] = []
    for root, members in groups.items():
        members = sorted(members)
        pinned = pins.get(root)
        value: float | None = None
        if pinned:
            vals = {v for _, v in pinned}
            if len(vals) > 1:
                raise NetworkError(
                    f"pin conflict in island {'+'.join(members)}: "
                    + ", ".join(f"{n}={v}" for n, v in pinned))
            value = pinned[0][1]
        out.append(Island("+".join(members), tuple(members), value))
    out.sort(key=lambda i: i.id)
    return out


# --------------------------------------------------------------------------
# phase solution

@dataclass(frozen=True)
class IslandSolution:
    id: str
    floating: bool
    voltage: float
    charge: float  # island-side plate charge sum after the solve


@dataclass(frozen=True)
class ConservationRecord:
    island_id: str
    q_before: float
    q_after: float
    q_scale: float  # largest single plate charge entering the transition


@dataclass(frozen=True)
class PhaseSolution:
    phase: Phase
    node_voltages: dict[str, float]
    charges: dict[str, float]          # element name -> plate-a / top-plate charge
    beam_states: dict[str, BeamState]
    switch_states: dict[str, OhmicSwitchState]
    islands: tuple[IslandSolution, ...]
    conservation: tuple[ConservationRecord, ...]
    iterations: int
    warnings: tuple[str, ...]


_MAX_FIXED_POINT = 10_000


def _plate_nodes(cap: NemsCap | LinearCap) -> tuple[str, str]:
    return (cap.top, cap.bottom) if isinstance(cap, NemsCap) else (cap.a, cap.b)


def solve_phase(network: Network, phase: Phase,
                prior: PhaseSolution | None = None) -> PhaseSolution:
    """Solve one phase at equilibrium and return the advanced state.

    The network is read-only input: the phase starts from prior's charges,
    beam and switch states, or from the element fields when prior is None.
    Pinned islands take their source voltage and voltage-driven beams update
    hysteretically. Each floating island keeps its entering plate-charge sum
    while island voltage, per-element charges and charge-driven beam
    positions relax together: distribute charge by capacitance, re-seat
    every beam, recompute capacitances, repeat (damped 0.5 once the
    iteration stops contracting, hard cap 10^4).
    """
    network.validate()
    caps = network.caps()
    if prior is None:
        q = {cap.name: cap.q for cap in caps}
        beams = {cap.name: cap.state for cap in network.nems_caps}
    else:
        q = dict(prior.charges)
        beams = dict(prior.beam_states)
    switch_states = _phase_switch_states(network, phase,
                                         None if prior is None else prior.switch_states)
    isles = islands(network, phase, switch_states)
    by_node = {n: isl for isl in isles for n in isl.nodes}
    links = []  # (cap, island of plate a / top, island of plate b / bottom)
    for cap in caps:
        a, b = _plate_nodes(cap)
        links.append((cap, by_node[a], by_node[b]))
    floating = [isl for isl in isles if isl.floating]
    f_index = {isl.id: i for i, isl in enumerate(floating)}
    notes: list[str] = []

    q_before, q_scale = _floating_charge(links, q, floating)

    # voltage-driven beams: both terminals pinned
    for cap in network.nems_caps:
        a, b = cap.top, cap.bottom
        if not by_node[a].floating and not by_node[b].floating:
            dv = by_node[a].pinned_voltage - by_node[b].pinned_voltage
            dev = cap.device
            if beams[cap.name].latched and release_holds(dev, dev.k, dev.d_c, dv):
                beams[cap.name] = BeamState(dev.g0, 0.0, True)
            else:
                beams[cap.name] = static_equilibrium_voltage(dev, dev.k, dv)

    # fixed point over floating island voltages
    n_f = len(floating)
    v = np.zeros(n_f)
    if prior is not None:
        for isl in floating:
            v[f_index[isl.id]] = prior.node_voltages.get(isl.nodes[0], 0.0)
    iterations = 0
    damped = False
    prev_step = math.inf
    converged = n_f == 0
    for iterations in range(1, _MAX_FIXED_POINT + 1):
        v_new = _solve_linear(links, beams, f_index, floating, q_before, v)
        if damped:
            v_new = 0.5 * (v_new + v)
        step = float(np.max(np.abs(v_new - v))) if n_f else 0.0
        _distribute(links, q, beams, f_index, v_new)
        relatch = _update_charge_beams(network, by_node, q, beams)
        for name in relatch:
            notes.append(f"latch-violation: beam {name} re-latched during redistribution")
        v = v_new
        if iterations >= 2:
            if step <= network.solver_tol * max(1.0, float(np.max(np.abs(v))) if n_f else 1.0):
                converged = True
                break
            if step >= prev_step:
                damped = True
        prev_step = step
    if not converged:
        worst = floating[int(np.argmax(np.abs(v)))].id if n_f else "?"
        raise ConvergenceError(
            f"phase {phase.index} ({phase.kind}): island {worst} did not converge "
            f"after {_MAX_FIXED_POINT} iterations (last step {prev_step:.3e}, "
            f"tol {network.solver_tol})", residual=prev_step, tolerance=network.solver_tol)

    # final assignment with per-island exact remainder so conservation is bitwise
    _distribute(links, q, beams, f_index, v)
    _exact_remainder(links, q, floating, q_before)

    node_voltages: dict[str, float] = {}
    for isl in isles:
        val = isl.pinned_voltage if not isl.floating else float(v[f_index[isl.id]])
        for n in isl.nodes:
            node_voltages[n] = val

    q_after, _ = _floating_charge(links, q, floating)

    # settling assertion: closed switches must settle well inside the phase;
    # pinned-island charge: plates facing other islands
    cap_by_island: dict[str, float] = {}
    q_pinned: dict[str, float] = {}
    for cap, ia, ib in links:
        c = cap.capacitance(beams)
        for isl in (ia, ib):
            cap_by_island[isl.id] = cap_by_island.get(isl.id, 0.0) + c
        if ia is not ib:
            q_pinned[ia.id] = q_pinned.get(ia.id, 0.0) + q[cap.name]
            q_pinned[ib.id] = q_pinned.get(ib.id, 0.0) - q[cap.name]
    for sw in network.switches:
        if switch_is_conducting(switch_states[sw.name], phase.t_end):
            c_isl = cap_by_island.get(by_node[sw.a].id, 0.0)
            if sw.r_on * c_isl > 0.01 * phase.duration:
                msg = (f"settling-violation: switch {sw.name} R_on*C = "
                       f"{sw.r_on * c_isl:.3e} s exceeds 1% of phase {phase.index}")
                notes.append(msg)
                warnings.warn(msg, SettlingWarning, stacklevel=2)

    island_solutions = tuple(
        IslandSolution(isl.id, isl.floating, node_voltages[isl.nodes[0]],
                       q_after[isl.id] if isl.floating else q_pinned.get(isl.id, 0.0))
        for isl in isles)
    conservation = tuple(
        ConservationRecord(isl.id, q_before[isl.id], q_after[isl.id], q_scale[isl.id])
        for isl in floating)
    return PhaseSolution(
        phase=phase,
        node_voltages=node_voltages,
        charges=q,
        beam_states=beams,
        switch_states=switch_states,
        islands=island_solutions,
        conservation=conservation,
        iterations=iterations,
        warnings=tuple(dict.fromkeys(notes)),  # dedupe, keep order
    )


def _floating_charge(links, q, floating) -> tuple[dict[str, float], dict[str, float]]:
    """Per floating island: the exactly-rounded plate-charge sum, and the
    largest single plate charge."""
    terms: dict[str, list[float]] = {isl.id: [] for isl in floating}
    scale = {isl.id: 0.0 for isl in floating}
    for cap, ia, ib in links:
        for isl, sign in ((ia, 1.0), (ib, -1.0)):
            if isl.floating:
                terms[isl.id].append(sign * q[cap.name])
                scale[isl.id] = max(scale[isl.id], abs(q[cap.name]))
    return {iid: math.fsum(t) for iid, t in terms.items()}, scale


def _solve_linear(links, beams, f_index, floating, q_before, v_guess):
    n = len(floating)
    if n == 0:
        return np.zeros(0)
    mat = np.zeros((n, n))
    rhs = np.array([q_before[isl.id] for isl in floating])
    for cap, ia, ib in links:
        if ia is ib:
            continue
        c = cap.capacitance(beams)
        for me, other in ((ia, ib), (ib, ia)):
            if not me.floating:
                continue
            i = f_index[me.id]
            mat[i, i] += c
            if other.floating:
                mat[i, f_index[other.id]] -= c
            else:
                rhs[i] += c * other.pinned_voltage
    # islands with no capacitance keep their guess (isolated, charge-free)
    empty = np.where(np.diag(mat) == 0.0)[0]
    for i in empty:
        mat[i, i] = 1.0
        rhs[i] = v_guess[i]
    return np.linalg.solve(mat, rhs)


def _distribute(links, q, beams, f_index, v) -> None:
    def volt(isl) -> float:
        return isl.pinned_voltage if not isl.floating else float(v[f_index[isl.id]])

    for cap, ia, ib in links:
        if ia.floating or ib.floating:
            q[cap.name] = cap.capacitance(beams) * (volt(ia) - volt(ib))
        else:
            q[cap.name] = cap.capacitance(beams) * (ia.pinned_voltage - ib.pinned_voltage)


def _update_charge_beams(network: Network, by_node, q, beams) -> list[str]:
    """Re-seat every beam with a floating terminal from its plate charge.

    Returns names of beams that re-latched after being released.
    """
    relatched = []
    for cap in network.nems_caps:
        if not (by_node[cap.top].floating or by_node[cap.bottom].floating):
            continue
        was_released = not beams[cap.name].latched
        state = beams[cap.name] = static_equilibrium_charge(cap.device, cap.device.k,
                                                            q[cap.name])
        if was_released and state.latched:
            relatched.append(cap.name)
    return relatched


def _exact_remainder(links, q, floating, q_before) -> None:
    """Rewrite one plate charge per floating island so its sum is bit-exact.

    Preference order: an element whose other terminal is pinned, never one
    already used as another island's corrector. If an island has no free
    corrector (capacitor chains between floating islands) it keeps the
    roundoff-level residual of the plain distribution.
    """
    used: set[str] = set()
    for isl in floating:
        members = []  # (cap, island-side sign, island on the other plate)
        for cap, ia, ib in links:
            if ia is ib:
                continue
            if ia is isl:
                members.append((cap, 1.0, ib))
            elif ib is isl:
                members.append((cap, -1.0, ia))
        candidates = [m for m in members if m[0].name not in used]
        if not candidates:
            continue
        pinned_first = [m for m in candidates if not m[2].floating] or candidates
        corrector, sign, _ = pinned_first[-1]
        used.add(corrector.name)
        others = math.fsum(sign_i * q[cap_i.name] for cap_i, sign_i, _ in members
                           if cap_i.name != corrector.name)
        q[corrector.name] = sign * (q_before[isl.id] - others)


# --------------------------------------------------------------------------
# multi-phase simulation

@dataclass(frozen=True)
class SimResult:
    """Ordered phase solutions plus a zero-order-hold waveform trace."""

    solutions: tuple[PhaseSolution, ...]
    nodes: tuple[str, ...]

    def conservation_violations(self, rel_tol: float = 1e-15) -> int:
        """Count floating-island transitions whose charge sum moved by more
        than rel_tol relative to the larger of the island sum and its largest
        single plate charge."""
        count = 0
        for sol in self.solutions:
            for rec in sol.conservation:
                scale = max(abs(rec.q_before), rec.q_scale)
                if abs(rec.q_after - rec.q_before) > rel_tol * scale:
                    count += 1
        return count

    def max_conservation_error(self) -> float:
        worst = 0.0
        for sol in self.solutions:
            for rec in sol.conservation:
                scale = max(abs(rec.q_before), rec.q_scale)
                if scale > 0.0:
                    worst = max(worst, abs(rec.q_after - rec.q_before) / scale)
        return worst

    def phases_of_kind(self, kind: str) -> list[PhaseSolution]:
        return [s for s in self.solutions if s.phase.kind == kind]

    def waveform_csv(self, lead: Sequence[str] = ("a", "b")) -> str:
        names = [n for n in lead if n in self.nodes]
        names += sorted(n for n in self.nodes if n not in names)
        header = "t_s,phase," + ",".join(f"v{n.upper()}_V" for n in names)
        lines = [header]
        for sol in self.solutions:
            for t in (sol.phase.t_start, sol.phase.t_end):
                row = [format_float(t), sol.phase.kind]
                row += [format_float(sol.node_voltages[n]) for n in names]
                lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def islands_csv(self) -> str:
        lines = ["t_s,island_id,q_C,v_V"]
        for sol in self.solutions:
            for isl in sol.islands:
                lines.append(",".join([
                    format_float(sol.phase.t_end), isl.id,
                    format_float(isl.charge), format_float(isl.voltage)]))
        return "\n".join(lines) + "\n"

    @property
    def warnings(self) -> tuple[str, ...]:
        out: list[str] = []
        for sol in self.solutions:
            out.extend(sol.warnings)
        return tuple(dict.fromkeys(out))


def simulate(network: Network, schedule: ClockSchedule, t_end: float) -> SimResult:
    """Run the phase sequence over [0, t_end], threading state phase to phase."""
    phases = schedule.phases(t_end)
    solutions: list[PhaseSolution] = []
    prior: PhaseSolution | None = None
    for ph in phases:
        try:
            prior = solve_phase(network, ph, prior)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"phase {ph.index} ({ph.kind}, t = {ph.t_start:.6e} s): {exc}",
                residual=exc.residual, tolerance=exc.tolerance) from exc
        solutions.append(prior)
    return SimResult(tuple(solutions), tuple(network.nodes))


def apply_parasitics(network: Network, c_gb: float, c_gc: float,
                     drive_terminal: str = "gate") -> Network:
    """Materialize switch parasitics as linear caps in the charge bookkeeping.

    Gate-driven: the clock rail couples into both channel terminals through
    c_gc (feedthrough plus charge sharing). Body-driven: the gate sits at
    ground, so each channel terminal sees c_gc to ground (charge sharing
    only), while c_gb merely loads the clock rail. Zero values change
    nothing. Modifies and returns the same network.
    """
    if c_gb < 0 or c_gc < 0:
        raise NetworkError("parasitic capacitances must be non-negative")
    if drive_terminal not in ("gate", "body"):
        raise NetworkError(f"unknown drive terminal {drive_terminal!r}")
    if c_gb == 0.0 and c_gc == 0.0:
        return network
    rails: dict[str, str] = {}

    def rail_node(wave: Waveform) -> str:
        if not isinstance(wave, Clock):
            raise NetworkError("parasitics need clock-driven switches")
        name = wave.phase
        if name not in rails:
            rails[name] = network.add_node(name)
            network.sources.append(VSource(f"src_{name}", name, wave))
        return rails[name]

    for sw in network.switches:
        clock_node = rail_node(sw.drive)
        signal_side = clock_node if drive_terminal == "gate" else network.ground
        if c_gc > 0.0:
            for term in (sw.a, sw.b):
                network.linear_caps.append(
                    LinearCap(f"cgc_{sw.name}_{term}", signal_side, term, c_gc))
        if c_gb > 0.0:
            network.linear_caps.append(
                LinearCap(f"cgb_{sw.name}", clock_node, network.ground, c_gb))
    network.validate()
    return network
