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
import struct
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .device import EPS0, DeviceParams, get_preset
from .errors import ConfigError, ConvergenceError, InvalidGeometryError, NetworkError
from .ioutil import format_float
from .mech import (BeamState, release_holds, static_equilibrium_charge,
                   static_equilibrium_voltage)

GROUND = "gnd"
MAX_PHASES = 1_000_000  # longest phase sequence a schedule builds


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
        """Phase sequence covering [0, t_end]; t_end must span >= one period
        and at most MAX_PHASES phases."""
        period = self.period
        if not (t_end >= period):
            raise InvalidGeometryError(
                f"schedule needs at least one full period ({period:.3e} s), got t_end = {t_end!r}")
        dead = self.nonoverlap_frac * period
        per_period = 4 if dead > 0 else 2
        if not (t_end / period <= MAX_PHASES / per_period):
            raise ConfigError(
                f"t_end = {t_end!r} s spans more than {MAX_PHASES} phases "
                f"({per_period} per {period:.3e} s period)")
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


@dataclass
class LinearCap:
    name: str
    a: str
    b: str
    value: float  # F
    q: float = 0.0  # charge on plate a


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
        names: set[str] = set()
        for el in self.elements():
            # charges, beam states and switch states are keyed by element name
            if el.name in names:
                raise NetworkError(f"duplicate-name: element name {el.name!r} used twice")
            names.add(el.name)
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


def _pin_value(members: Sequence[str], pinned: Sequence[tuple[str, float]]) -> float:
    """The value of the sources pinning one island; NetworkError on a pin
    conflict (two sources at different values shorted together)."""
    vals = {v for _, v in pinned}
    if len(vals) > 1:
        raise NetworkError(
            f"pin conflict in island {'+'.join(members)}: "
            + ", ".join(f"{n}={v}" for n, v in pinned))
    return pinned[0][1]


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
        value = _pin_value(members, pinned) if pinned else None
        out.append(Island("+".join(members), tuple(members), value))
    out.sort(key=lambda i: i.id)
    return out


# --------------------------------------------------------------------------
# compiled topology

@dataclass(frozen=True)
class _Partition:
    """Island structure of one switch-conduction mask, in index form.

    Islands are numbered in id order and floating islands 0..n_f-1 in the
    same order; capacitors are numbered as in Network.caps(), beams as in
    Network.nems_caps (so beam j is capacitor j).
    """

    ids: tuple[str, ...]
    nodes: tuple[tuple[str, ...], ...]
    f_islands: tuple[int, ...]                  # island of each floating index
    f_index: tuple[int, ...]                    # floating index of each island, -1 if pinned
    node_islands: tuple[tuple[str, int], ...]   # (node, island) in island order
    # pinned island, its nodes, (source name, index into the phase's source values)
    pins: tuple[tuple[int, tuple[str, ...], tuple[tuple[str, int], ...]], ...]
    plate_a: tuple[int, ...]                    # island of plate a / top, per capacitor
    plate_b: tuple[int, ...]                    # island of plate b / bottom
    # (capacitor, floating index of plate a or -1, of plate b or -1, island a, island b)
    # for every capacitor between two islands, at least one of them floating
    stencil: tuple[tuple[int, int, int, int, int], ...]
    coupled: bool                               # some capacitor joins two floating islands
    voltage_beams: tuple[tuple[int, int, int], ...]   # (beam, island a, island b), both pinned
    charge_beams: tuple[int, ...]               # beams with a floating terminal
    charge_terms: tuple[tuple[tuple[int, float], ...], ...]  # per floating island: (cap, sign)
    # (floating index, corrector cap, its island-side sign, the island's other (cap, sign))
    correctors: tuple[tuple[int, int, float, tuple[tuple[int, float], ...]], ...]
    # (conducting switch, capacitors on the island of its a terminal, once per plate)
    settling: tuple[tuple[int, tuple[int, ...]], ...]
    # transition key: conduction mask and entering latch flags ('?'), then island
    # voltages, plate charges, beam displacements and velocities ('d')
    transition_key: struct.Struct


class CompiledNetwork:
    """A Network validated once and held in index form for the phase engine.

    Holds what depends only on topology: capacitor and beam order, the
    per-beam EPS0*area and g_eff constants, each beam's device class (one
    index per distinct DeviceParams value), and one island partition per
    switch-conduction mask, built by islands() the first time the mask
    occurs. The network must not change while it is compiled.

    It also holds the run's transition memo: each solved phase, keyed by the
    bit patterns of its entering state (see solve_phase).
    """

    def __init__(self, network: Network):
        network.validate()
        self.network = network
        caps = network.caps()
        self.names = tuple(cap.name for cap in caps)
        self.plates = tuple(_plate_nodes(cap) for cap in caps)
        self.devices = tuple(cap.device for cap in network.nems_caps)
        classes: dict[DeviceParams, int] = {}
        self.device_class = tuple(classes.setdefault(dev, len(classes))
                                  for dev in self.devices)
        self.beam_names = self.names[:len(self.devices)]
        self.eps_area = tuple(EPS0 * dev.area for dev in self.devices)
        self.g_eff = tuple(dev.g_eff for dev in self.devices)
        self.linear = tuple(cap.value for cap in network.linear_caps)
        self._partitions: dict[tuple[bool, ...], _Partition] = {}
        self.transitions: dict[bytes, PhaseSolution] = {}

    def partition(self, mask: tuple[bool, ...], phase: Phase,
                  switch_states: Mapping[str, OhmicSwitchState]) -> _Partition:
        part = self._partitions.get(mask)
        if part is None:
            part = self._partitions[mask] = self._build(
                islands(self.network, phase, switch_states), mask)
        return part

    def _build(self, isles: list[Island], mask: tuple[bool, ...]) -> _Partition:
        net = self.network
        island_of = {n: k for k, isl in enumerate(isles) for n in isl.nodes}
        floating = tuple(isl.floating for isl in isles)
        f_islands = tuple(k for k, isl in enumerate(isles) if isl.floating)
        f_index = [-1] * len(isles)
        for f, k in enumerate(f_islands):
            f_index[k] = f

        # sources in network order, then ground, checked in the order islands()
        # meets the islands (by their first node in Network.nodes)
        pins: dict[int, list[tuple[str, int]]] = {}
        for s, src in enumerate(net.sources):
            pins.setdefault(island_of[src.node], []).append((src.name, s))
        pins.setdefault(island_of[net.ground], []).append(("ground", len(net.sources)))
        first_seen = {}
        for n in net.nodes:
            first_seen.setdefault(island_of[n], len(first_seen))
        pin_list = tuple((k, isles[k].nodes, tuple(pins[k]))
                         for k in sorted(pins, key=first_seen.__getitem__))

        plate_a = tuple(island_of[a] for a, _ in self.plates)
        plate_b = tuple(island_of[b] for _, b in self.plates)
        stencil = tuple((k, f_index[ia], f_index[ib], ia, ib)
                        for k, (ia, ib) in enumerate(zip(plate_a, plate_b))
                        if ia != ib and (floating[ia] or floating[ib]))
        n_beams = len(self.devices)
        voltage_beams = tuple((j, plate_a[j], plate_b[j]) for j in range(n_beams)
                              if not floating[plate_a[j]] and not floating[plate_b[j]])
        charge_beams = tuple(j for j in range(n_beams)
                             if floating[plate_a[j]] or floating[plate_b[j]])

        terms: list[list[tuple[int, float]]] = [[] for _ in f_islands]
        touching: list[list[int]] = [[] for _ in isles]
        for k, (ia, ib) in enumerate(zip(plate_a, plate_b)):
            for isl, sign in ((ia, 1.0), (ib, -1.0)):
                touching[isl].append(k)
                if floating[isl]:
                    terms[f_index[isl]].append((k, sign))

        return _Partition(
            ids=tuple(isl.id for isl in isles),
            nodes=tuple(isl.nodes for isl in isles),
            f_islands=f_islands,
            f_index=tuple(f_index),
            node_islands=tuple((n, k) for k, isl in enumerate(isles) for n in isl.nodes),
            pins=pin_list,
            plate_a=plate_a,
            plate_b=plate_b,
            stencil=stencil,
            coupled=any(fa >= 0 and fb >= 0 for _, fa, fb, _, _ in stencil),
            voltage_beams=voltage_beams,
            charge_beams=charge_beams,
            charge_terms=tuple(tuple(t) for t in terms),
            correctors=_correctors(tuple(isl.id for isl in isles), f_islands, f_index,
                                   plate_a, plate_b),
            settling=tuple((s, tuple(touching[island_of[sw.a]]))
                           for s, sw in enumerate(net.switches) if mask[s]),
            transition_key=struct.Struct(f"<{len(mask) + n_beams}?"
                                         f"{len(isles) + len(plate_a) + 2 * n_beams}d"),
        )


def _correctors(ids, f_islands, f_index, plate_a, plate_b):
    """One capacitor per floating island whose plate charge absorbs the
    roundoff of the island sum, in the order the rewrites must run.

    Floating islands are reached level by level from the pinned ones; each
    takes as corrector its last capacitor (in capacitor order) to the
    previous level, so an island with a pinned neighbour always corrects
    through a capacitor to a pinned island. Rewrites run from the farthest
    level inwards: a corrector shared with a floating neighbour is rewritten
    before that neighbour sums it. An island with no capacitor to another
    island keeps its guess and needs no corrector.

    Raises NetworkError (floating-group) for floating islands joined by
    capacitors with no capacitive path to a pinned island: their charges fix
    only the voltage differences between them, so the system is singular.
    """
    links: dict[int, list[tuple[int, float, int]]] = {}  # (cap, island-side sign, other island)
    for k, (ia, ib) in enumerate(zip(plate_a, plate_b)):
        if ia != ib:
            links.setdefault(ia, []).append((k, 1.0, ib))
            links.setdefault(ib, []).append((k, -1.0, ia))
    parent: dict[int, tuple[int, float]] = {}
    order: list[int] = []  # floating islands, level by level
    level = {k for k, f in enumerate(f_index) if f < 0}
    while level:
        reached = []
        for isl in f_islands:
            to_level = [m for m in links.get(isl, ()) if m[2] in level]
            if to_level and isl not in parent:
                parent[isl] = to_level[-1][:2]
                reached.append(isl)
        order.extend(reached)
        level = set(reached)
    stranded = [ids[isl] for isl in f_islands if isl in links and isl not in parent]
    if stranded:
        raise NetworkError(
            f"floating-group: islands {', '.join(stranded)} are joined by capacitors "
            "with no capacitive path to a pinned island")
    out = []
    for isl in reversed(order):
        corrector, sign = parent[isl]
        out.append((f_index[isl], corrector, sign,
                    tuple((k, s) for k, s, _ in links[isl] if k != corrector)))
    return tuple(out)


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


def solve_phase(network: Network | CompiledNetwork, phase: Phase,
                prior: PhaseSolution | None = None) -> PhaseSolution:
    """Solve one phase at equilibrium and return the advanced state.

    The network is read-only input: the phase starts from prior's charges,
    beam and switch states, or from the element fields when prior is None.
    A plain Network is compiled for this one call; simulate compiles once
    and passes the CompiledNetwork. Pinned islands take their source
    voltage and voltage-driven beams update hysteretically. Each floating
    island keeps its entering plate-charge sum while island voltage,
    per-element charges and charge-driven beam positions relax together:
    distribute charge by capacitance, re-seat every beam, recompute
    capacitances, repeat (damped 0.5 once the iteration stops contracting,
    hard cap 10^4).

    Each beam law is a pure function of the device and the drive, so within
    a phase it runs once per distinct (device class, drive) key, plus the
    prior latch state for the voltage law; beams with equal keys share one
    frozen BeamState. +0.0 and -0.0 drives share a key and both laws map
    them to the same state; a NaN drive never matches a key.

    The solve is a deterministic function of the mask and the entering
    state, so a CompiledNetwork solves each distinct transition once per
    run. Its memo is keyed by the bit patterns of the conduction mask, the
    island voltages (pinned values and the fixed-point guess), the entering
    plate charges and beam states; bit patterns keep +0.0 and -0.0 apart.
    A repeated transition returns the stored solution's read-only maps,
    islands, conservation records, iterations and latch-violation notes
    with this phase's phase and switch states; the settling check runs for
    every phase. A failed solve is not stored.
    """
    topo = network if isinstance(network, CompiledNetwork) else CompiledNetwork(network)
    net = topo.network
    if prior is None:
        q = [cap.q for cap in net.caps()]
        beams = [cap.state for cap in net.nems_caps]
        switch_states = _phase_switch_states(net, phase)
    else:
        charges, beam_states = prior.charges, prior.beam_states
        q = [charges[n] for n in topo.names]
        beams = [beam_states[n] for n in topo.beam_names]
        switch_states = _phase_switch_states(net, phase, prior.switch_states)
    t_end = phase.t_end
    mask = tuple(switch_is_conducting(switch_states[sw.name], t_end) for sw in net.switches)
    part = topo.partition(mask, phase, switch_states)

    # island voltages: pinned ones from this phase's source values, floating
    # ones from the fixed-point guess (the prior's node voltages)
    values = [src.wave.at(t_end, phase) for src in net.sources]
    values.append(0.0)  # ground
    volts = [0.0] * len(part.ids)
    for k, members, pinned in part.pins:
        volts[k] = (values[pinned[0][1]] if len(pinned) == 1 else
                    _pin_value(members, [(name, values[i]) for name, i in pinned]))
    f_islands = part.f_islands
    if prior is None:
        v = [0.0] * len(f_islands)
    else:
        guess = prior.node_voltages
        v = [float(guess.get(part.nodes[k][0], 0.0)) for k in f_islands]
    for f, k in enumerate(f_islands):
        volts[k] = v[f]

    transition = part.transition_key.pack(
        *mask, *[b.latched for b in beams], *volts, *q,
        *[b.displacement for b in beams], *[b.velocity for b in beams])
    seen = topo.transitions.get(transition)
    if seen is not None:
        notes = [w for w in seen.warnings if not w.startswith("settling-violation")]
        if part.settling:
            notes += _settling_notes(net, part, _capacitances(topo, seen.beam_states.values()),
                                     phase)
        return replace(seen, phase=phase, switch_states=switch_states, warnings=tuple(notes))
    notes = []

    q_before, scale_before = _floating_charge(part, q)

    # voltage-driven beams: both terminals pinned; one law call per
    # (device class, dv, prior latched) key
    devices, device_class = topo.devices, topo.device_class
    by_voltage: dict[tuple[int, float, bool], BeamState] = {}
    for j, ia, ib in part.voltage_beams:
        dv = volts[ia] - volts[ib]
        latched = beams[j].latched
        key = (device_class[j], dv, latched)
        state = by_voltage.get(key)
        if state is None:
            dev = devices[j]
            if latched and release_holds(dev, dev.k, dev.d_c, dv):
                state = BeamState(dev.g0, 0.0, True)
            else:
                state = static_equilibrium_voltage(dev, dev.k, dv)
            by_voltage[key] = state
        beams[j] = state
    eps_area, g_eff = topo.eps_area, topo.g_eff
    caps = _capacitances(topo, beams)

    # fixed point over floating island voltages
    plate_a, plate_b = part.plate_a, part.plate_b
    tol = net.solver_tol
    iterations = 0
    damped = False
    prev_step = math.inf
    converged = not f_islands
    # (device class, plate charge) -> (beam state, its capacitance), shared by
    # every iteration of this phase
    by_charge: dict[tuple[int, float], tuple[BeamState, float]] = {}
    for iterations in range(1, _MAX_FIXED_POINT + 1):
        v_new = _solve_floating(part, caps, volts, q_before, v)
        if damped:
            v_new = [0.5 * (a + b) for a, b in zip(v_new, v)]
        step = _max_abs([a - b for a, b in zip(v_new, v)])
        for f, k in enumerate(f_islands):
            volts[k] = v_new[f]
        # charge-driven beams re-seat from their plate charge; the plate
        # charges themselves are assigned once, after convergence
        for j in part.charge_beams:
            q_j = caps[j] * (volts[plate_a[j]] - volts[plate_b[j]])
            key = (device_class[j], q_j)
            seated = by_charge.get(key)
            if seated is None:
                dev = devices[j]
                state = static_equilibrium_charge(dev, dev.k, q_j)
                seated = by_charge[key] = (
                    state, eps_area[j] / (g_eff[j] - state.displacement))
            was_released = not beams[j].latched
            state, caps[j] = seated
            beams[j] = state
            if was_released and state.latched:
                notes.append(f"latch-violation: beam {topo.names[j]} re-latched "
                             "during redistribution")
        v = v_new
        if iterations >= 2:
            if step <= tol * max(1.0, _max_abs(v)):
                converged = True
                break
            if step >= prev_step:
                damped = True
        prev_step = step
    if not converged:
        worst = part.ids[f_islands[int(np.argmax(np.abs(v)))]]
        raise ConvergenceError(
            f"phase {phase.index} ({phase.kind}, t = {phase.t_start:.6e} s): island "
            f"{worst} did not converge after {_MAX_FIXED_POINT} iterations (last step "
            f"{prev_step:.3e}, tol {tol})", residual=prev_step, tolerance=tol)

    # final assignment with per-island exact remainder so conservation is bitwise
    q = [c * (volts[ia] - volts[ib]) for c, ia, ib in zip(caps, plate_a, plate_b)]
    for f, corrector, sign, others in part.correctors:
        q[corrector] = sign * (q_before[f] - math.fsum([s * q[k] for k, s in others]))
    q_after, _ = _floating_charge(part, q)

    # pinned-island charge: plates facing other islands
    q_pinned = [0.0] * len(part.ids)
    for qk, ia, ib in zip(q, plate_a, plate_b):
        if ia != ib:
            q_pinned[ia] += qk
            q_pinned[ib] -= qk
    notes += _settling_notes(net, part, caps, phase)

    solution = topo.transitions[transition] = PhaseSolution(
        phase=phase,
        node_voltages={n: volts[k] for n, k in part.node_islands},
        charges=dict(zip(topo.names, q)),
        beam_states=dict(zip(topo.beam_names, beams)),
        switch_states=switch_states,
        islands=tuple(
            IslandSolution(iid, f >= 0, volts[k], q_after[f] if f >= 0 else q_pinned[k])
            for k, (iid, f) in enumerate(zip(part.ids, part.f_index))),
        conservation=tuple(
            ConservationRecord(part.ids[k], q_before[f], q_after[f], scale_before[f])
            for f, k in enumerate(f_islands)),
        iterations=iterations,
        warnings=tuple(dict.fromkeys(notes)),  # dedupe, keep order
    )
    return solution


def _capacitances(topo: CompiledNetwork, beams: Iterable[BeamState]) -> list[float]:
    """Capacitance of every capacitor, in Network.caps() order, with the
    beams in the given states."""
    caps = [ea / (g - b.displacement) for ea, g, b in zip(topo.eps_area, topo.g_eff, beams)]
    caps.extend(topo.linear)
    return caps


def _settling_notes(net: Network, part: _Partition, caps: list[float],
                    phase: Phase) -> list[str]:
    """Settling assertion: each closed switch must settle well inside the
    phase; one note and one SettlingWarning per switch that does not."""
    notes = []
    for s, touching in part.settling:
        c_island = 0.0
        for k in touching:
            c_island += caps[k]
        sw = net.switches[s]
        if sw.r_on * c_island > 0.01 * phase.duration:
            msg = (f"settling-violation: switch {sw.name} R_on*C = "
                   f"{sw.r_on * c_island:.3e} s exceeds 1% of phase {phase.index}")
            notes.append(msg)
            warnings.warn(msg, SettlingWarning, stacklevel=3)
    return notes


def _floating_charge(part: _Partition, q: list[float]) -> tuple[list[float], list[float]]:
    """Per floating island: the exactly-rounded plate-charge sum, and the
    largest single plate charge."""
    sums, scales = [], []
    for terms in part.charge_terms:
        sums.append(math.fsum([sign * q[k] for k, sign in terms]))
        scale = 0.0
        for k, _ in terms:
            scale = max(scale, abs(q[k]))
        scales.append(scale)
    return sums, scales


def _max_abs(values: list[float]) -> float:
    """Largest magnitude (0 for none); NaN propagates as in numpy's max."""
    out = 0.0
    for x in values:
        a = abs(x)
        if a != a:
            return a
        if a > out:
            out = a
    return out


def _solve_floating(part: _Partition, caps: list[float], volts: list[float],
                    q_before: list[float], guess: list[float]) -> list[float]:
    """Floating island voltages from charge conservation at fixed capacitances.

    Islands that touch no capacitance keep their guess (isolated, charge-free).
    Islands not coupled to another floating island solve by division; a
    partition with coupled floating islands solves the full system.
    """
    n = len(guess)
    if not part.coupled:
        diag = [0.0] * n
        rhs = list(q_before)
        for k, fa, fb, ia, ib in part.stencil:
            c = caps[k]
            if fa >= 0:
                diag[fa] += c
                rhs[fa] += c * volts[ib]
            else:
                diag[fb] += c
                rhs[fb] += c * volts[ia]
        return [r / d if d != 0.0 else g for r, d, g in zip(rhs, diag, guess)]
    mat = np.zeros((n, n))
    rhs = np.array(q_before)
    for k, fa, fb, ia, ib in part.stencil:
        c = caps[k]
        for me, other, other_island in ((fa, fb, ib), (fb, fa, ia)):
            if me < 0:
                continue
            mat[me, me] += c
            if other >= 0:
                mat[me, other] -= c
            else:
                rhs[me] += c * volts[other_island]
    for i in np.where(np.diag(mat) == 0.0)[0]:
        mat[i, i] = 1.0
        rhs[i] = guess[i]
    return np.linalg.solve(mat, rhs).tolist()


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
    """Run the phase sequence over [0, t_end], threading state phase to phase
    through one CompiledNetwork."""
    phases = schedule.phases(t_end)
    topo = CompiledNetwork(network)
    solutions: list[PhaseSolution] = []
    prior: PhaseSolution | None = None
    for ph in phases:
        prior = solve_phase(topo, ph, prior)
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
