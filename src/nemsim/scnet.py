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
from array import array
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from operator import add
from typing import NamedTuple

import numpy as np

from .device import EPS0, DeviceParams, get_preset
from .errors import ConfigError, ConvergenceError, InvalidGeometryError, NetworkError
from .ioutil import FLOAT_FORMAT, format_float
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


class Phase(NamedTuple):
    """One quasi-static interval of the two-phase schedule (a named tuple:
    cheap to build once per phase, and it reprs like a dataclass)."""

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
        half = period / 2
        make = Phase._make  # cheaper than the keyword-capable constructor
        for p in range(n_periods):
            t0 = p * period
            mid, end = t0 + half, t0 + period
            for kind, a, b, clk, clkb in (("sample", t0, mid - dead, True, False),
                                          ("dead", mid - dead, mid, False, False),
                                          ("hold", mid, end - dead, False, True),
                                          ("dead", end - dead, end, False, False)):
                if b > a:
                    out.append(make((len(out), kind, a, b, clk, clkb)))
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


def _relay_step(switch: OhmicSwitch, conducting: bool, last_transition_time: float,
                switching_delay: float, v_gb: float, t: float) -> tuple[bool, float]:
    """The relay state machine: (conducting, last_transition_time) after the
    gate-body voltage v_gb at time t, from the given state. A commanded
    toggle takes effect switching_delay after t."""
    last_cross = last_transition_time - switching_delay
    if t < last_cross and math.isfinite(last_cross):
        raise InvalidGeometryError(
            f"switch {switch.name}: non-monotone time {t} < {last_cross}")
    if conducting:
        if abs(v_gb) < switch.v_po:
            return False, t + switching_delay
    elif abs(v_gb) > switch.v_pi:
        return True, t + switching_delay
    return conducting, last_transition_time


def step_switch(switch: OhmicSwitch, v_gb: float, t: float,
                state: OhmicSwitchState | None = None) -> OhmicSwitchState:
    """Advance the relay state machine from state (default: switch.state, the
    initial condition) with the gate-body voltage at time t."""
    st = switch.state if state is None else state
    conducting, when = _relay_step(switch, st.conducting, st.last_transition_time,
                                   st.switching_delay, v_gb, t)
    if conducting == st.conducting:
        return st
    return OhmicSwitchState(conducting, when, st.switching_delay)


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
        t = phase.t_start
        switch_states = {sw.name: step_switch(sw, sw.drive.at(t, phase), t)
                         for sw in network.switches}
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
    same order; nodes are numbered as in Network.nodes, capacitors as in
    Network.caps(), beams as in Network.nems_caps (so beam j is capacitor j).
    """

    index: int                                  # position in CompiledNetwork.partitions
    ids: tuple[str, ...]
    f_islands: tuple[int, ...]                  # island of each floating index
    f_index: tuple[int, ...]                    # floating index of each island, -1 if pinned
    f_first_node: tuple[int, ...]               # first node of each floating island
    node_island: tuple[int, ...]                # island of each node
    first_node: tuple[int, ...]                 # first node of each island
    node_order: tuple[tuple[str, int], ...]     # (name, node) in island order
    # per island, its voltage's index in the phase's values: the source
    # values, then ground, then the fixed-point guess of each floating island;
    # a pinned island takes its first source's value
    island_value: tuple[int, ...]
    # islands pinned by several sources: nodes, (source name, value index) per
    # source
    shared_pins: tuple[tuple[tuple[str, ...], tuple[tuple[str, int], ...]], ...]
    plate_a: tuple[int, ...]                    # island of plate a / top, per capacitor
    plate_b: tuple[int, ...]                    # island of plate b / bottom
    # (capacitor, floating index of plate a or -1, of plate b or -1, island a, island b)
    # for every capacitor between two islands, at least one of them floating
    stencil: tuple[tuple[int, int, int, int, int], ...]
    # the stencil per floating island: (capacitor, the island across it), in
    # capacitor order; solves a partition that is not coupled
    f_stencil: tuple[tuple[tuple[int, int], ...], ...]
    coupled: bool                               # some capacitor joins two floating islands
    # (beam, island a, island b, device class): both terminals pinned, or some floating
    voltage_beams: tuple[tuple[int, int, int, int], ...]
    charge_beams: tuple[tuple[int, int, int, int], ...]
    charge_terms: tuple[tuple[tuple[int, float], ...], ...]  # per floating island: (cap, sign)
    # (floating index, corrector cap, its island-side sign, the island's other (cap, sign))
    correctors: tuple[tuple[int, int, float, tuple[tuple[int, float], ...]], ...]
    # (conducting switch, capacitors on the island of its a terminal, once per plate)
    settling: tuple[tuple[int, tuple[int, ...]], ...]
    # the island voltages (pinned values and the fixed-point guess) in the
    # transition key, after the conduction mask
    island_key: struct.Struct


class CompiledNetwork:
    """A Network validated once and held in index form for the phase engine.

    Holds what depends only on topology: node, capacitor, beam and switch
    order, the per-beam EPS0*area and g_eff constants, each beam's device
    class (one index per distinct DeviceParams value), each relay's drive
    and switching delay (from its initial state), each source's waveform,
    and one island partition per switch-conduction mask, built by islands()
    the first time the mask occurs. The network must not change while it is
    compiled.

    It also holds the run: `columns`, one row per solved phase, and the
    transition memo, which maps the bit patterns of each solved phase's
    entering state to its row (see solve_phase).
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
        self.eps_area = tuple(EPS0 * dev.area for dev in self.devices)
        self.g_eff = tuple(dev.g_eff for dev in self.devices)
        self.linear = tuple(cap.value for cap in network.linear_caps)
        # (switch, its drive, switching delay, the conduction test's slack)
        self.relays = tuple((sw, sw.drive.at, sw.state.switching_delay,
                             1e-6 * sw.state.switching_delay) for sw in network.switches)
        self.source_waves = tuple(src.wave.at for src in network.sources)
        self.partitions: list[_Partition] = []
        self._by_mask: dict[bytes, _Partition] = {}
        self.columns = PhaseColumns(tuple(network.nodes), self.names, len(self.devices),
                                    tuple(sw.name for sw in network.switches),
                                    tuple(relay[2] for relay in self.relays),
                                    self.partitions)
        self.transitions: dict[bytes, int] = {}

    def partition(self, mask: bytes, phase: Phase, conducting: Sequence[bool],
                  transition_times: Sequence[float]) -> _Partition:
        """The partition of a conduction mask (one flag per switch), built
        from the relay states at phase start the first time it occurs."""
        part = self._by_mask.get(mask)
        if part is None:
            states = {name: OhmicSwitchState(bool(on), when, delay) for name, on, when, delay
                      in zip(self.columns.switch_names, conducting, transition_times,
                             self.columns.delays)}
            part = self._by_mask[mask] = self._build(
                islands(self.network, phase, states), mask)
            self.partitions.append(part)
        return part

    def _build(self, isles: list[Island], mask: bytes) -> _Partition:
        net = self.network
        island_of = {n: k for k, isl in enumerate(isles) for n in isl.nodes}
        node_index = {n: i for i, n in enumerate(net.nodes)}
        floating = tuple(isl.floating for isl in isles)
        f_islands = tuple(k for k, isl in enumerate(isles) if isl.floating)
        f_index = [-1] * len(isles)
        for f, k in enumerate(f_islands):
            f_index[k] = f
        first_node = tuple(node_index[isl.nodes[0]] for isl in isles)

        # sources in network order, then ground, checked in the order islands()
        # meets the islands (by their first node in Network.nodes)
        pins: dict[int, list[tuple[str, int]]] = {}
        for s, src in enumerate(net.sources):
            pins.setdefault(island_of[src.node], []).append((src.name, s))
        pins.setdefault(island_of[net.ground], []).append(("ground", len(net.sources)))
        first_seen = {}
        for n in net.nodes:
            first_seen.setdefault(island_of[n], len(first_seen))
        order = sorted(pins, key=first_seen.__getitem__)

        plate_a = tuple(island_of[a] for a, _ in self.plates)
        plate_b = tuple(island_of[b] for _, b in self.plates)
        stencil = tuple((k, f_index[ia], f_index[ib], ia, ib)
                        for k, (ia, ib) in enumerate(zip(plate_a, plate_b))
                        if ia != ib and (floating[ia] or floating[ib]))
        f_stencil: list[list[tuple[int, int]]] = [[] for _ in f_islands]
        for k, fa, fb, ia, ib in stencil:
            if fa >= 0:
                f_stencil[fa].append((k, ib))
            if fb >= 0:
                f_stencil[fb].append((k, ia))
        beams = [(j, plate_a[j], plate_b[j], self.device_class[j])
                 for j in range(len(self.devices))]

        terms: list[list[tuple[int, float]]] = [[] for _ in f_islands]
        touching: list[list[int]] = [[] for _ in isles]
        for k, (ia, ib) in enumerate(zip(plate_a, plate_b)):
            for isl, sign in ((ia, 1.0), (ib, -1.0)):
                touching[isl].append(k)
                if floating[isl]:
                    terms[f_index[isl]].append((k, sign))

        return _Partition(
            index=len(self.partitions),
            ids=tuple(isl.id for isl in isles),
            f_islands=f_islands,
            f_index=tuple(f_index),
            f_first_node=tuple(first_node[k] for k in f_islands),
            node_island=tuple(island_of[n] for n in net.nodes),
            first_node=first_node,
            node_order=tuple((n, node_index[n]) for isl in isles for n in isl.nodes),
            island_value=tuple(pins[k][0][1] if k in pins
                               else len(net.sources) + 1 + f_index[k]
                               for k in range(len(isles))),
            shared_pins=tuple((isles[k].nodes, tuple(pins[k])) for k in order
                              if len(pins[k]) > 1),
            plate_a=plate_a,
            plate_b=plate_b,
            stencil=stencil,
            f_stencil=tuple(tuple(t) for t in f_stencil),
            coupled=any(fa >= 0 and fb >= 0 for _, fa, fb, _, _ in stencil),
            voltage_beams=tuple(b for b in beams if not floating[b[1]] and not floating[b[2]]),
            charge_beams=tuple(b for b in beams if floating[b[1]] or floating[b[2]]),
            charge_terms=tuple(tuple(t) for t in terms),
            correctors=_correctors(tuple(isl.id for isl in isles), f_islands, f_index,
                                   plate_a, plate_b),
            settling=tuple((s, tuple(touching[island_of[sw.a]]))
                           for s, sw in enumerate(net.switches) if mask[s]),
            island_key=struct.Struct(f"<{len(isles)}d"),
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


class _ReadOnlyMap(Mapping):
    """Read-only mapping over a dict built for one read; reprs as the dict."""

    __slots__ = ("_items",)

    def __init__(self, items: dict):
        self._items = items

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return repr(self._items)


class PhaseColumns(Sequence):
    """A run's state, one row per solved phase in solve order, read as a
    sequence of PhaseSolution views.

    Each row holds the phase, the node voltages (Network.nodes order), the
    plate charges (Network.caps() order), the beam displacements, velocities
    and latch flags (Network.nems_caps order), each switch's conducting flag
    and last transition time (Network.switches order; the switching delays
    are per run), the fixed-point iterations, the index of the phase's
    partition, its notes, and for each floating island of that partition
    the entering plate-charge sum and the largest entering plate charge.
    Only solve_phase appends rows.
    """

    def __init__(self, nodes: tuple[str, ...], names: tuple[str, ...], n_beams: int,
                 switch_names: tuple[str, ...], delays: tuple[float, ...],
                 partitions: list[_Partition]):
        self.nodes = nodes
        self.names = names
        self.n_beams = n_beams
        self.switch_names = switch_names
        self.delays = delays
        self.partitions = partitions
        self._widths = (len(nodes), len(names), n_beams, len(switch_names))
        self.phases: list[Phase] = []
        self.volts = array("d")
        self.charges = array("d")
        self.displacement = array("d")
        self.velocity = array("d")
        self.latched = bytearray()
        self.conducting = bytearray()
        self.transition_time = array("d")
        self.iterations = array("l")
        self.partition = array("l")
        self.notes: list[tuple[str, ...]] = []
        self.q_in = array("d")
        self.scale_in = array("d")
        self.f_start = array("l", [0])  # each row's first entry in q_in and scale_in

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self):
        return (PhaseSolution(self, r) for r in range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(PhaseSolution(self, r) for r in range(*index.indices(len(self))))
        n = len(self)
        if not -n <= index < n:
            raise IndexError("phase row out of range")
        return PhaseSolution(self, index % n)

    def __eq__(self, other):
        if not isinstance(other, PhaseColumns):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def node_voltage(self, node: str) -> list[float]:
        """The node's voltage in every row."""
        return self.volts[self.nodes.index(node)::len(self.nodes)].tolist()

    def latched_beams(self) -> list[int]:
        """The number of latched beams in every row."""
        nb, latched = self.n_beams, self.latched
        counts = [0] * len(self)
        for j in range(nb):  # beam by beam, each a strided column
            counts = list(map(add, counts, latched[j::nb]))
        return counts

    def _layout(self) -> tuple:
        return self.nodes, self.names, self.n_beams, self.switch_names, self.delays

    def _state(self, r: int) -> tuple:
        """Copies of row r's plate charges, beam displacements, velocities and
        latch flags, and switch conducting flags and transition times."""
        _, nc, nb, ns = self._widths
        c, b, s = r * nc, r * nb, r * ns
        return (self.charges[c:c + nc], self.displacement[b:b + nb], self.velocity[b:b + nb],
                self.latched[b:b + nb], self.conducting[s:s + ns],
                self.transition_time[s:s + ns])

    def _append(self, phase: Phase, partition: int, iterations: int,
                notes: tuple[str, ...], conducting: Iterable[bool],
                transition_time: list[float], volts: list[float], charges: list[float],
                displacement: list[float], velocity: list[float], latched: Iterable[bool],
                q_in: list[float], scale_in: list[float]) -> int:
        """Append one row; float lists go in by fromlist, which is several
        times cheaper than extend for a short list."""
        self.phases.append(phase)
        self.partition.append(partition)
        self.iterations.append(iterations)
        self.notes.append(notes)
        self.conducting.extend(conducting)
        self.transition_time.fromlist(transition_time)
        self.volts.fromlist(volts)
        self.charges.fromlist(charges)
        self.displacement.fromlist(displacement)
        self.velocity.fromlist(velocity)
        self.latched.extend(latched)
        self.q_in.fromlist(q_in)
        self.scale_in.fromlist(scale_in)
        self.f_start.append(len(self.q_in))
        return len(self.phases) - 1

    def _copy(self, r: int, dest: PhaseColumns, phase: Phase, conducting: list[bool],
              transition_time: list[float], notes: tuple[str, ...], state: tuple) -> int:
        """Append row r to dest with the given phase, switch states and notes,
        and the plate charges and beam states of state (as _state returns
        them: row r's own, or replacements; its switch states are not used)."""
        nn = len(self.nodes)
        charges, displacement, velocity, latched, _, _ = state
        a, b = self.f_start[r], self.f_start[r + 1]
        return dest._append(phase, self.partition[r], self.iterations[r], notes,
                            conducting, transition_time,
                            self.volts[r * nn:(r + 1) * nn].tolist(), charges.tolist(),
                            displacement.tolist(), velocity.tolist(), latched,
                            self.q_in[a:b].tolist(), self.scale_in[a:b].tolist())

    def _charges(self, r: int) -> array:
        nc = len(self.names)
        return self.charges[r * nc:(r + 1) * nc]

    def _islands(self, r: int) -> tuple[IslandSolution, ...]:
        part = self.partitions[self.partition[r]]
        q = self._charges(r)
        q_after, _ = _floating_charge(part, q)
        # pinned-island charge: plates facing other islands
        q_pinned = [0.0] * len(part.ids)
        for qk, ia, ib in zip(q, part.plate_a, part.plate_b):
            if ia != ib:
                q_pinned[ia] += qk
                q_pinned[ib] -= qk
        volts, base = self.volts, r * len(self.nodes)
        return tuple(
            IslandSolution(iid, f >= 0, volts[base + node],
                           q_after[f] if f >= 0 else q_pinned[k])
            for k, (iid, f, node) in enumerate(zip(part.ids, part.f_index, part.first_node)))

    def _conservation(self, r: int) -> tuple[ConservationRecord, ...]:
        part = self.partitions[self.partition[r]]
        q_after, _ = _floating_charge(part, self._charges(r))
        a = self.f_start[r]
        return tuple(
            ConservationRecord(part.ids[k], self.q_in[a + f], q_after[f], self.scale_in[a + f])
            for f, k in enumerate(part.f_islands))

    def _charge_errors(self) -> Iterable[tuple[float, float]]:
        """(|q_after - q_before|, scale) for each floating island of each row;
        the scale is the largest of |q_before| and the island's plate charges
        entering and leaving the transition. Large cancelling plate charges
        on either side bound how exactly the sum can be represented."""
        for r, p in enumerate(self.partition):
            part = self.partitions[p]
            if not part.f_islands:
                continue
            q_after, scale_out = _floating_charge(part, self._charges(r))
            a = self.f_start[r]
            for f, after in enumerate(q_after):
                before = self.q_in[a + f]
                yield abs(after - before), max(abs(before), self.scale_in[a + f], scale_out[f])


class PhaseSolution:
    """Read-only view of one row of a run's PhaseColumns.

    Fields: phase, node_voltages, charges (element name -> plate-a /
    top-plate charge), beam_states, switch_states, islands, conservation,
    iterations and warnings. Each is read from the row when accessed; the
    maps are read-only. Views compare equal when every field does.
    """

    __slots__ = ("_columns", "_row")
    FIELDS = ("phase", "node_voltages", "charges", "beam_states", "switch_states",
              "islands", "conservation", "iterations", "warnings")

    def __init__(self, columns: PhaseColumns, row: int):
        self._columns = columns
        self._row = row

    @property
    def phase(self) -> Phase:
        return self._columns.phases[self._row]

    @property
    def node_voltages(self) -> Mapping[str, float]:
        cols, r = self._columns, self._row
        volts, base = cols.volts, r * len(cols.nodes)
        part = cols.partitions[cols.partition[r]]
        return _ReadOnlyMap({n: volts[base + i] for n, i in part.node_order})

    @property
    def charges(self) -> Mapping[str, float]:
        cols = self._columns
        return _ReadOnlyMap(dict(zip(cols.names, cols._charges(self._row))))

    @property
    def beam_states(self) -> Mapping[str, BeamState]:
        _, disp, vel, latched, _, _ = self._columns._state(self._row)
        return _ReadOnlyMap({n: BeamState(x, u, bool(flag)) for n, x, u, flag
                             in zip(self._columns.names, disp, vel, latched)})

    @property
    def switch_states(self) -> Mapping[str, OhmicSwitchState]:
        cols, r = self._columns, self._row
        ns = len(cols.switch_names)
        return _ReadOnlyMap({
            name: OhmicSwitchState(bool(on), when, delay) for name, on, when, delay in zip(
                cols.switch_names, cols.conducting[r * ns:(r + 1) * ns],
                cols.transition_time[r * ns:(r + 1) * ns], cols.delays)})

    @property
    def islands(self) -> tuple[IslandSolution, ...]:
        return self._columns._islands(self._row)

    @property
    def conservation(self) -> tuple[ConservationRecord, ...]:
        return self._columns._conservation(self._row)

    @property
    def iterations(self) -> int:
        return self._columns.iterations[self._row]

    @property
    def warnings(self) -> tuple[str, ...]:
        return self._columns.notes[self._row]

    def replace(self, *, charges: Mapping[str, float] | None = None,
                beam_states: Mapping[str, BeamState] | None = None) -> PhaseSolution:
        """A one-row copy of this solution with the given plate charges and
        beam states (by element name; the others keep their values), e.g.
        to start solve_phase from a chosen state."""
        cols = self._columns
        q, disp, vel, latched, conducting, transition_time = state = cols._state(self._row)
        index = {n: i for i, n in enumerate(cols.names)}
        for name, value in (charges or {}).items():
            q[index[name]] = value
        for name, beam in (beam_states or {}).items():
            j = index[name]
            if j >= cols.n_beams:
                raise KeyError(name)
            disp[j], vel[j], latched[j] = beam.displacement, beam.velocity, beam.latched
        out = PhaseColumns(*cols._layout(), cols.partitions)
        cols._copy(self._row, out, self.phase, conducting, transition_time.tolist(),
                   self.warnings, state)
        return PhaseSolution(out, 0)

    def __eq__(self, other):
        if not isinstance(other, PhaseSolution):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.FIELDS)

    __hash__ = None

    def __repr__(self) -> str:
        return "PhaseSolution(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.FIELDS) + ")"


_MAX_FIXED_POINT = 10_000


def _plate_nodes(cap: NemsCap | LinearCap) -> tuple[str, str]:
    return (cap.top, cap.bottom) if isinstance(cap, NemsCap) else (cap.a, cap.b)


def solve_phase(network: Network | CompiledNetwork, phase: Phase,
                prior: PhaseSolution | None = None) -> PhaseSolution:
    """Solve one phase at equilibrium and return the advanced state.

    The network is read-only input: the phase starts from prior's charges,
    beam and switch states, or from the element fields when prior is None.
    The solution is a row appended to the compiled network's columns. A
    plain Network is compiled for this one call; simulate compiles once
    and passes the CompiledNetwork. Pinned islands take their source
    voltage and voltage-driven beams update hysteretically. Each floating
    island keeps its entering plate-charge sum while island voltage,
    per-element charges and charge-driven beam positions relax together:
    distribute charge by capacitance, re-seat every beam, recompute
    capacitances, repeat (damped 0.5 once the iteration stops contracting,
    hard cap 10^4).

    Each beam law is a pure function of the device and the drive, so within
    a phase it runs once per distinct (device class, drive) key, plus the
    prior latch state for the voltage law. +0.0 and -0.0 drives share a key
    and both laws map them to the same state; a NaN drive never matches a
    key.

    The solve is a deterministic function of the mask and the entering
    state, so a CompiledNetwork solves each distinct transition once per
    run. Its memo is keyed by the bit patterns of the conduction mask, the
    island voltages (pinned values and the fixed-point guess), the entering
    plate charges and beam states; bit patterns keep +0.0 and -0.0 apart.
    A repeated transition copies the stored row, its iterations and
    latch-violation notes with this phase's phase and switch states; the
    settling check runs for every phase. A failed solve is not stored.
    """
    topo = network if isinstance(network, CompiledNetwork) else CompiledNetwork(network)
    net = topo.network
    cols = topo.columns
    if prior is None:
        q = array("d", [cap.q for cap in net.caps()])
        entering = [cap.state for cap in net.nems_caps]
        disp = array("d", [b.displacement for b in entering])
        vel = array("d", [b.velocity for b in entering])
        latched = bytes([b.latched for b in entering])
        on = [sw.state.conducting for sw in net.switches]
        since = [sw.state.last_transition_time for sw in net.switches]
        guess = None
    else:
        rows, r = prior._columns, prior._row
        if rows is not cols and rows._layout() != cols._layout():
            raise NetworkError("prior solution is of a network with other nodes, "
                               "elements or switches")
        q, disp, vel, latched, on, since = rows._state(r)
        guess, guess_base = rows.volts, r * len(rows.nodes)

    # relays step at phase start; the mask is their conduction at phase end
    t, t_end = phase.t_start, phase.t_end
    conducting, transition_time, mask = [], [], []
    for (sw, drive, delay, slack), c, when in zip(topo.relays, on, since):
        c, when = _relay_step(sw, c, when, delay, drive(t, phase), t)
        conducting.append(c)
        transition_time.append(when)
        # switch_is_conducting's rule, inline: this loop runs every phase
        mask.append(c if t_end >= when - slack else not c)
    mask = bytes(mask)
    part = topo._by_mask.get(mask) or topo.partition(mask, phase, conducting,
                                                     transition_time)

    # island voltages: pinned ones from this phase's source values, floating
    # ones from the fixed-point guess (the prior's node voltages)
    values = [wave(t_end, phase) for wave in topo.source_waves]
    values.append(0.0)  # ground
    for members, pins in part.shared_pins:
        _pin_value(members, [(name, values[i]) for name, i in pins])
    f_islands = part.f_islands
    if guess is None:
        v = [0.0] * len(f_islands)
    else:
        v = [guess[guess_base + node] for node in part.f_first_node]
    values += v
    volts = list(map(values.__getitem__, part.island_value))

    transition = b"".join((mask, part.island_key.pack(*volts), latched, q, disp, vel))
    seen = topo.transitions.get(transition)
    if seen is not None:
        stored = cols._state(seen)
        notes = [w for w in cols.notes[seen] if not w.startswith("settling-violation")]
        if part.settling:
            notes += _settling_notes(net, part, _capacitances(topo, stored[1]), phase)
        return PhaseSolution(cols, cols._copy(seen, cols, phase, conducting, transition_time,
                                              tuple(notes), stored))
    notes = []
    # the beam state is rewritten per beam below: lists index and store
    # several times faster than array and bytearray
    disp, vel, latched = disp.tolist(), vel.tolist(), list(latched)

    q_before, scale_before = _floating_charge(part, q)

    # voltage-driven beams: both terminals pinned; one law call per
    # (device class, dv, prior latched) key
    devices = topo.devices
    by_voltage: dict[tuple[int, float, bool], tuple[float, float, bool]] = {}
    for j, ia, ib, cls in part.voltage_beams:
        dv = volts[ia] - volts[ib]
        was_latched = latched[j]
        key = (cls, dv, was_latched)
        state = by_voltage.get(key)
        if state is None:
            dev = devices[j]
            if was_latched and release_holds(dev, dv):
                state = (dev.g0, 0.0, True)
            else:
                law = static_equilibrium_voltage(dev, dv)
                state = (law.displacement, law.velocity, law.latched)
            by_voltage[key] = state
        disp[j], vel[j], latched[j] = state
    caps = _capacitances(topo, disp)

    # fixed point over floating island voltages
    tol = net.solver_tol
    if not f_islands:
        # nothing floats: the loop below would stop after two empty passes,
        # which is what the row records
        iterations = 2
    else:
        eps_area, g_eff = topo.eps_area, topo.g_eff
        damped = False
        prev_step = math.inf
        converged = False
        # (device class, plate charge) -> (displacement, velocity, latched,
        # capacitance), shared by every iteration of this phase
        by_charge: dict[tuple[int, float], tuple[float, float, bool, float]] = {}
        for iterations in range(1, _MAX_FIXED_POINT + 1):
            v_new = _solve_floating(part, caps, volts, q_before, v)
            if damped:
                v_new = [0.5 * (a + b) for a, b in zip(v_new, v)]
            # largest step (NaN sticks) and largest magnitude of the iterate
            step = size = 0.0
            for k, a, b in zip(f_islands, v_new, v):
                volts[k] = a
                d = abs(a - b)
                if d > step or d != d:
                    step = d
                a = abs(a)
                if a > size:
                    size = a
            # charge-driven beams re-seat from their plate charge; the plate
            # charges themselves are assigned once, after convergence
            for j, ia, ib, cls in part.charge_beams:
                q_j = caps[j] * (volts[ia] - volts[ib])
                key = (cls, q_j)
                seated = by_charge.get(key)
                if seated is None:
                    dev = devices[j]
                    law = static_equilibrium_charge(dev, q_j)
                    seated = by_charge[key] = (law.displacement, law.velocity, law.latched,
                                               eps_area[j] / (g_eff[j] - law.displacement))
                if seated[2] and not latched[j]:
                    notes.append(f"latch-violation: beam {topo.names[j]} re-latched "
                                 "during redistribution")
                disp[j], vel[j], latched[j], caps[j] = seated
            v = v_new
            if iterations >= 2:
                # a NaN iterate makes step NaN, so size's NaN handling is moot
                if step <= tol * (size if size > 1.0 else 1.0):
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
    q = [c * (volts[ia] - volts[ib]) for c, ia, ib in zip(caps, part.plate_a, part.plate_b)]
    for f, corrector, sign, others in part.correctors:
        rest = math.fsum([s * q[k] for k, s in others]) if others else 0.0
        q[corrector] = sign * (q_before[f] - rest)
    if part.settling:
        notes += _settling_notes(net, part, caps, phase)
    notes = tuple(dict.fromkeys(notes)) if notes else ()  # dedupe, keep order

    row = topo.transitions[transition] = cols._append(
        phase, part.index, iterations, notes,
        conducting, transition_time, list(map(volts.__getitem__, part.node_island)),
        q, disp, vel, latched, q_before, scale_before)
    return PhaseSolution(cols, row)


def _capacitances(topo: CompiledNetwork, displacement: Iterable[float]) -> list[float]:
    """Capacitance of every capacitor, in Network.caps() order, with the
    beams at the given displacements."""
    caps = [ea / (g - x) for ea, g, x in zip(topo.eps_area, topo.g_eff, displacement)]
    caps.extend(topo.linear)
    return caps


def _settling_notes(net: Network, part: _Partition, caps: list[float],
                    phase: Phase) -> list[str]:
    """Settling assertion: each closed switch must settle well inside the
    phase; one note and one SettlingWarning per switch that does not."""
    notes = []
    limit = 0.01 * phase.duration
    for s, touching in part.settling:
        c_island = 0.0
        for k in touching:
            c_island += caps[k]
        sw = net.switches[s]
        if sw.r_on * c_island > limit:
            msg = (f"settling-violation: switch {sw.name} R_on*C = "
                   f"{sw.r_on * c_island:.3e} s exceeds 1% of phase {phase.index}")
            notes.append(msg)
            warnings.warn(msg, SettlingWarning, stacklevel=3)
    return notes


def _floating_charge(part: _Partition, q: Sequence[float]) -> tuple[list[float], list[float]]:
    """Per floating island: the exactly-rounded plate-charge sum, and the
    largest single plate charge."""
    sums, scales = [], []
    for terms in part.charge_terms:
        plates = [sign * q[k] for k, sign in terms]
        sums.append(math.fsum(plates))
        scale = 0.0
        for x in plates:
            x = abs(x)
            if x > scale:
                scale = x
        scales.append(scale)
    return sums, scales


def _solve_floating(part: _Partition, caps: list[float], volts: list[float],
                    q_before: list[float], guess: list[float]) -> list[float]:
    """Floating island voltages from charge conservation at fixed capacitances.

    Islands that touch no capacitance keep their guess (isolated, charge-free).
    Islands not coupled to another floating island solve by division; a
    partition with coupled floating islands solves the full system.
    """
    if not part.coupled:
        out = []
        for terms, rhs, g in zip(part.f_stencil, q_before, guess):
            diag = 0.0
            for k, other in terms:
                c = caps[k]
                diag += c
                rhs += c * volts[other]
            out.append(rhs / diag if diag != 0.0 else g)
        return out
    n = len(guess)
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
    """A run's phase solutions, as state columns, plus the node names of its
    zero-order-hold waveform trace."""

    solutions: PhaseColumns
    nodes: tuple[str, ...]

    def conservation_violations(self, rel_tol: float = 1e-15) -> int:
        """Count floating-island transitions whose charge sum moved by more
        than rel_tol relative to the largest of the island sum and its single
        plate charges entering and leaving the phase."""
        return sum(err > rel_tol * scale for err, scale in self.solutions._charge_errors())

    def max_conservation_error(self) -> float:
        """Largest floating-island charge-sum change, relative to the scale
        conservation_violations uses."""
        worst = 0.0
        for err, scale in self.solutions._charge_errors():
            if scale > 0.0:
                worst = max(worst, err / scale)
        return worst

    def phases_of_kind(self, kind: str) -> list[PhaseSolution]:
        return [s for s in self.solutions if s.phase.kind == kind]

    def waveform_csv(self, lead: Sequence[str] = ("a", "b")) -> str:
        names = [n for n in lead if n in self.nodes]
        names += sorted(n for n in self.nodes if n not in names)
        header = "t_s,phase," + ",".join(f"v{n.upper()}_V" for n in names)
        lines = [header]
        cols = self.solutions
        width = len(cols.nodes)
        values_format = ("," + FLOAT_FORMAT) * len(names)
        rows = zip(*[cols.volts[cols.nodes.index(n)::width] for n in names])
        t_prev, t_text = None, ""
        for ph, values in zip(cols.phases, rows):
            # both rows of a phase hold its node voltages, and a phase mostly
            # starts at the instant the previous one ended: format each once
            values = values_format % values
            start = t_text if ph.t_start == t_prev else FLOAT_FORMAT % ph.t_start
            t_prev, t_text = ph.t_end, FLOAT_FORMAT % ph.t_end
            lines.append(f"{start},{ph.kind}{values}")
            lines.append(f"{t_text},{ph.kind}{values}")
        return "\n".join(lines) + "\n"

    def islands_csv(self) -> str:
        lines = ["t_s,island_id,q_C,v_V"]
        cols = self.solutions
        for r, ph in enumerate(cols.phases):
            t = format_float(ph.t_end)
            for isl in cols._islands(r):
                lines.append(",".join([t, isl.id, format_float(isl.charge),
                                       format_float(isl.voltage)]))
        return "\n".join(lines) + "\n"

    @property
    def warnings(self) -> tuple[str, ...]:
        out: list[str] = []
        for notes in self.solutions.notes:
            out.extend(notes)
        return tuple(dict.fromkeys(out))


def simulate(network: Network, schedule: ClockSchedule, t_end: float) -> SimResult:
    """Run the phase sequence over [0, t_end], threading state phase to phase
    through one CompiledNetwork, whose columns become the result's solutions."""
    phases = schedule.phases(t_end)
    topo = CompiledNetwork(network)
    prior: PhaseSolution | None = None
    for ph in phases:
        prior = solve_phase(topo, ph, prior)
    return SimResult(topo.columns, tuple(network.nodes))


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
