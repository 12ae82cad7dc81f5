"""Event-driven two-phase switched-capacitor network engine.

Phases are long (microseconds) compared with electrical settling through a
closed relay (tens of picoseconds), so each phase is solved at equilibrium:
nodes are partitioned into islands by the closed switches, islands holding
a source take its voltage, and every floating island keeps its total plate
charge while its voltage and the electromechanical capacitances settle
together: in closed form where the island is like beams to one pinned
island, else by a joint fixed point.
"""

from __future__ import annotations

import functools
import math
import warnings
from array import array
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, compress, count, cycle, repeat
from operator import add, itemgetter, lt, mul, ne, sub, truediv
from typing import NamedTuple

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
    """Rail tied to one of the schedule's phases ("clk" or "clkb"): high
    while that phase is on, 0 V otherwise."""

    phase: str
    high: float

    def __post_init__(self):
        if self.phase not in ("clk", "clkb"):
            raise NetworkError(f"unknown clock phase {self.phase!r} (clk or clkb)")

    def at(self, t: float, phase: "Phase") -> float:
        on = phase.clk_on if self.phase == "clk" else phase.clkb_on
        return self.high if on else 0.0


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

    @property
    def phases_per_period(self) -> int:
        """4 (sample, dead, hold, dead), or 2 with no non-overlap interval."""
        return 4 if self.nonoverlap_frac * self.period > 0 else 2

    def phases(self, t_end: float) -> tuple[Phase, ...]:
        """Phase sequence covering [0, t_end]; t_end must span >= one period
        and at most MAX_PHASES phases. The tuple is shared by consecutive
        calls with the same period, non-overlap interval and period count,
        so a gain sweep builds it once."""
        period = self.period
        if not (t_end >= period):
            raise InvalidGeometryError(
                f"schedule needs at least one full period ({period:.3e} s), got t_end = {t_end!r}")
        per_period = self.phases_per_period
        if not (t_end / period <= MAX_PHASES / per_period):
            raise ConfigError(
                f"t_end = {t_end!r} s spans more than {MAX_PHASES} phases "
                f"({per_period} per {period:.3e} s period)")
        return _phase_tuple(period, self.nonoverlap_frac * period, int(round(t_end / period)))


@functools.lru_cache(maxsize=1)  # keeps one sequence, however long, past its run
def _phase_tuple(period: float, dead: float, n_periods: int) -> tuple[Phase, ...]:
    out: list[Phase] = []
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
    return tuple(out)


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


class _RelayRows(NamedTuple):
    """The relays over a phase sequence, one row per phase in PhaseColumns'
    row-major layout (Network.switches order within a row)."""

    phases: Sequence[Phase]
    conducting: bytes        # each relay's flag after its step at phase start
    transition_time: array   # and its last transition time
    mask: bytes              # its conduction at phase end
    stop: int                # the rows: the phases before the first that fails the time check


def _relay_rows(relays: Sequence[tuple], phases: Sequence[Phase],
                entering: Iterable[OhmicSwitchState]) -> _RelayRows:
    """The relay state machine, each relay stepped from its entering state
    through the phases.

    At each phase start t a relay reads its drive, the gate-body voltage: a
    conducting relay opens below v_po, an open one closes above v_pi, and
    the toggle takes effect switching_delay after t, its transition time.
    The phase-end mask is the relay's conduction at t_end, less a slack that
    absorbs float roundoff when a transition time lands exactly on a phase
    boundary (t_sw equal to the non-overlap interval). The rows stop before
    the first phase whose start precedes a relay's last crossing (its
    transition time less the delay); when that is the first phase,
    InvalidGeometryError names the first such relay. A drive that cannot be
    read at a phase start (a Sine whose 2*pi*f*t overflows) raises
    NetworkError naming its relay.

    relays are CompiledNetwork.relays. The relays follow their drives, not
    the network's state, so a run's rows are fixed by its phases and its
    relays' initial states.
    """
    ns, stop = len(relays), len(phases)
    conducting, mask = bytearray(ns * stop), bytearray(ns * stop)
    transition_time = array("d", bytes(8 * ns * stop))
    for s, ((sw, drive, delay, slack), state) in enumerate(zip(relays, entering)):
        c, when, v_po, v_pi = state.conducting, state.last_transition_time, sw.v_po, sw.v_pi
        last = when - delay
        try:
            for i, ph in zip(range(s, ns * stop, ns), phases):
                t = ph.t_start
                if t < last < math.inf:
                    if i < ns:  # the first phase
                        raise InvalidGeometryError(
                            f"switch {sw.name}: non-monotone time {t} < {last}")
                    stop = i // ns
                    break
                v = abs(drive(t, ph))
                if v < v_po if c else v > v_pi:
                    c, when = not c, t + delay
                    last = when - delay
                conducting[i], transition_time[i] = c, when
                mask[i] = c if ph.t_end >= when - slack else not c
        except ValueError:  # math.sin of an overflowed Sine argument
            raise NetworkError(f"bad-value: switch {sw.name!r}: its drive's 2*pi*f*t "
                               "overflows within the run") from None
    k = ns * stop
    return _RelayRows(phases, bytes(conducting[:k]), transition_time[:k], bytes(mask[:k]), stop)


# --------------------------------------------------------------------------
# network

@dataclass
class Network:
    """Nodes and elements: read-only input to the engine. The ground node is
    GROUND ("gnd").

    Element fields that evolve (capacitor ``q``, beam ``state``, switch
    ``state``) hold the initial conditions; the engine never writes them and
    threads the evolving state through the PhaseSolution chain instead. A
    beam's velocity is not read (see PhaseColumns).
    """

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
        if GROUND not in self.nodes:
            raise NetworkError(f"no-ground: node {GROUND!r} not present")
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
            _check_values(el)
        for n in self.nodes:
            if n != GROUND and n not in touched:
                raise NetworkError(f"dangling-element: node {n!r} has no attached element")


# the numeric fields of each waveform
_WAVE_FIELDS = {Dc: ("value",), Sine: ("amplitude", "freq_hz", "offset"), Clock: ("high",)}


def _check_values(el: NemsCap | LinearCap | OhmicSwitch | VSource) -> None:
    """NetworkError for a linear capacitor that is not finite and positive
    (the floating-island solve relies on positive capacitances), a relay
    value out of range, or a source or relay waveform with a non-finite
    field."""
    if isinstance(el, LinearCap) and not 0.0 < el.value < math.inf:
        raise NetworkError(f"bad-value: {el.name!r} value = {el.value!r} "
                           "must be finite and > 0")
    if isinstance(el, OhmicSwitch):
        delay = el.state.switching_delay
        if not (0.0 < el.v_po < el.v_pi < math.inf and 0.0 < el.r_on < math.inf
                and 0.0 <= delay < math.inf):
            raise NetworkError(
                f"bad-value: switch {el.name!r} needs finite values with 0 < v_po < v_pi, "
                f"r_on > 0 and switching delay >= 0, got v_pi = {el.v_pi!r}, "
                f"v_po = {el.v_po!r}, r_on = {el.r_on!r}, switching delay = {delay!r}")
    if isinstance(el, (VSource, OhmicSwitch)):
        wave = el.wave if isinstance(el, VSource) else el.drive
        for name in _WAVE_FIELDS.get(type(wave), ()):
            if not math.isfinite(getattr(wave, name)):
                raise NetworkError(f"bad-value: {el.name!r} {type(wave).__name__}.{name} = "
                                   f"{getattr(wave, name)!r} must be finite")


# the keys build_network reads: (required, optional) per element type and
# per waveform kind
_ELEMENT_KEYS = {
    "nems_cap": (("type", "name", "top", "bottom"), ("preset", "device")),
    "linear_cap": (("type", "name", "a", "b", "value"), ()),
    "switch": (("type", "name", "a", "b", "drive", "v_pi", "v_po"), ("r_on", "t_sw")),
    "source": (("type", "name", "node", "wave"), ()),
}
_WAVE_KEYS = {
    "dc": (("kind", "value"), ()),
    "sine": (("kind", "amplitude", "freq_hz"), ("offset",)),
    "clock": (("kind", "phase", "high"), ()),
}


def _check_keys(entry: Mapping, required: Sequence[str], optional: Sequence[str],
                what: str) -> None:
    """NetworkError if entry lacks a required key or has one it is not read for."""
    missing = [k for k in required if k not in entry]
    if missing:
        raise NetworkError(f"missing-key: {what} needs {', '.join(map(repr, missing))}")
    unknown = [k for k in entry if k not in required and k not in optional]
    if unknown:
        raise NetworkError(f"unknown-key: {what} does not read {', '.join(map(repr, unknown))}")


def _mapping(entry: object, what: str) -> None:
    """NetworkError if entry is not a mapping."""
    if not isinstance(entry, Mapping):
        raise NetworkError(f"not-a-mapping: {what} must be a mapping, got {entry!r}")


def _number(entry: Mapping, key: str, what: str, default: float | None = None) -> float:
    """entry[key], or default when it is absent, as a finite float."""
    if key not in entry:
        return default
    try:
        value = float(entry[key])
    except (TypeError, ValueError):
        raise NetworkError(f"{what}: {key} = {entry[key]!r} is not a number") from None
    if not math.isfinite(value):
        raise NetworkError(f"{what}: {key} = {entry[key]!r} is not finite")
    return value


def build_network(description: Mapping) -> Network:
    """Validated Network from a plain-dict description.

    Reads two keys, both optional: "nodes", a list of node names (when
    given, every element pin must be in it), and "elements", a list of
    dicts, each with a "type" and a "name":

    - nems_cap: "top", "bottom", and one of "preset" (a preset name) or
      "device" (a DeviceParams);
    - linear_cap: "a", "b", "value" (F);
    - switch: "a", "b", "drive" (a waveform), "v_pi", "v_po", optional
      "r_on" (ohm, default 1e3) and "t_sw" (s, default 100e-9);
    - source: "node", "wave" (a waveform).

    A waveform is a dict with a "kind": dc ("value"), sine ("amplitude",
    "freq_hz", optional "offset") or clock ("phase", "clk" or "clkb", and
    "high"; the rail is 0 V while its phase is off). The ground node is
    "gnd". A description, element or waveform that is not a mapping, any
    other key, a missing one or a non-finite number raises NetworkError, as
    does every check of Network.validate.
    """
    _mapping(description, "description")
    _check_keys(description, (), ("nodes", "elements"), "description")
    net = Network()
    for n in description.get("nodes", []):
        net.add_node(n)
    declared = set(net.nodes)

    def node(name: str) -> str:
        if declared and name not in declared:
            raise NetworkError(f"unknown-node: {name!r} not in declared node list")
        return net.add_node(name)

    def wave_of(entry: Mapping, what: str) -> Waveform:
        _mapping(entry, f"{what} waveform")
        kind = entry.get("kind")
        if kind not in _WAVE_KEYS:
            raise NetworkError(f"unknown waveform kind {kind!r}")
        what = f"{what} {kind} waveform"
        _check_keys(entry, *_WAVE_KEYS[kind], what)
        if kind == "dc":
            return Dc(_number(entry, "value", what))
        if kind == "sine":
            return Sine(_number(entry, "amplitude", what), _number(entry, "freq_hz", what),
                        _number(entry, "offset", what, 0.0))
        return Clock(entry["phase"], _number(entry, "high", what))

    for el in description.get("elements", []):
        _mapping(el, "element")
        etype = el.get("type")
        if etype not in _ELEMENT_KEYS:
            raise NetworkError(f"unknown element type {etype!r}")
        what = f"{etype} {el.get('name')!r}"
        _check_keys(el, *_ELEMENT_KEYS[etype], what)
        if etype == "nems_cap":
            if ("preset" in el) == ("device" in el):
                raise NetworkError(f"{what}: give one of 'preset' or 'device'")
            dev = get_preset(el["preset"]).params() if "preset" in el else el["device"]
            if not isinstance(dev, DeviceParams):
                raise NetworkError(f"{what}: device must be a DeviceParams")
            net.nems_caps.append(NemsCap(el["name"], node(el["top"]), node(el["bottom"]), dev))
        elif etype == "linear_cap":
            net.linear_caps.append(LinearCap(el["name"], node(el["a"]), node(el["b"]),
                                             _number(el, "value", what)))
        elif etype == "switch":
            net.switches.append(OhmicSwitch(
                el["name"], node(el["a"]), node(el["b"]), wave_of(el["drive"], what),
                v_pi=_number(el, "v_pi", what), v_po=_number(el, "v_po", what),
                r_on=_number(el, "r_on", what, 1e3),
                state=OhmicSwitchState(switching_delay=_number(el, "t_sw", what, 100e-9))))
        else:
            net.sources.append(VSource(el["name"], node(el["node"]), wave_of(el["wave"], what)))
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


def _pin_value(members: Sequence[str], pinned: Sequence[tuple[str, float]]) -> float:
    """The value of the sources pinning one island; NetworkError on a pin
    conflict."""
    vals = {v for _, v in pinned}
    if len(vals) > 1:
        raise NetworkError(
            f"pin conflict in island {'+'.join(members)}: "
            + ", ".join(f"{n}={v}" for n, v in pinned))
    return pinned[0][1]


def islands(network: Network, phase: Phase, conducting: Sequence[bool]) -> list[Island]:
    """Partition nodes by the switches that conduct at phase end, one flag
    per switch in Network.switches order; source-holding islands are pinned
    at their sources' values at phase end.

    Raises NetworkError when the flags do not match the switches, and on a
    pin conflict (two sources at different values shorted together).
    """
    if len(conducting) != len(network.switches):
        raise NetworkError(f"islands needs {len(network.switches)} conduction flags, "
                           f"one per switch, got {len(conducting)}")
    # union-find with path halving
    parent = {n: n for n in network.nodes}

    def find(k: str) -> str:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    for sw, on in zip(network.switches, conducting):
        if on:
            parent[find(sw.b)] = find(sw.a)
    groups: dict[str, list[str]] = {}
    for n in network.nodes:
        groups.setdefault(find(n), []).append(n)

    pins = {}  # root -> [(source, value)]
    for src in network.sources:
        pins.setdefault(find(src.node), []).append(
            (src.name, src.wave.at(phase.t_end, phase)))
    if GROUND in parent:
        pins.setdefault(find(GROUND), []).append(("ground", 0.0))

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

@dataclass(frozen=True, eq=False)
class _Partition:
    """Island structure of one switch-conduction mask, in index form.

    Islands are numbered in id order and floating islands 0..n_f-1 in the
    same order; nodes are numbered as in Network.nodes, capacitors as in
    Network.caps(), beams as in Network.nems_caps (so beam j is capacitor j).

    like_beams marks a partition whose floating islands solve_phase may
    solve in closed form: each is n >= 1 charge-driven beams of one device
    class with their far plates on one pinned island, and no other
    capacitor (no linear one, no link to another floating island). The
    parasitic-free amplifier's dead and hold masks have it; parasitics,
    coupled or mixed islands do not.
    """

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
    # per floating island, in capacitor order: (capacitor, pinned island across it)
    f_stencil: tuple[tuple[tuple[int, int], ...], ...]
    # (capacitor, floating index of plate a, of plate b) for each capacitor
    # joining two floating islands; empty when no floating island is coupled
    f_links: tuple[tuple[int, int, int], ...]
    # (beam, island a, island b, device class): both terminals pinned, or some floating
    voltage_beams: tuple[tuple[int, int, int, int], ...]
    charge_beams: tuple[tuple[int, int, int, int], ...]
    charge_terms: tuple[tuple[tuple[int, float], ...], ...]  # per floating island: (cap, sign)
    # (floating index, corrector cap, its island-side sign, the island's other (cap, sign))
    correctors: tuple[tuple[int, int, float, tuple[tuple[int, float], ...]], ...]
    # (conducting switch, capacitors on the island of its a terminal, once per plate)
    settling: tuple[tuple[int, tuple[int, ...]], ...]
    # per floating island: (the pinned island across its beams, its beams);
    # empty unless every floating island is n >= 1 charge-driven beams of one
    # device class whose far plates sit on one pinned island, touched by no
    # other capacitor, so that each beam carries 1/n of the island's charge
    like_beams: tuple


# the partitions built in this process, by (CompiledNetwork.shape, mask): a
# partition reads no source or element value; the oldest goes first beyond
# _MAX_PARTITIONS
_PARTITIONS: dict[tuple, _Partition] = {}
_MAX_PARTITIONS = 256


class CompiledNetwork:
    """A Network validated once and held in index form for the phase engine.

    Holds what depends only on topology: node, capacitor, beam and switch
    order, the per-beam EPS0*area and g_eff constants, each beam's device
    class (one index per distinct DeviceParams value), each relay's drive
    and switching delay (from its initial state), each source's waveform,
    and one island partition per switch-conduction mask, built by islands()
    once per network shape (_PARTITIONS), with that mask's settling bound
    (partition). The network must not change while it is compiled.

    It also holds the run: `columns`, one row per phase, and `relay_rows`,
    the relays over the run's phase sequence (_relay_rows), which simulate
    sets before the first phase.
    """

    def __init__(self, network: Network):
        network.validate()
        self.network = network
        nodes, caps = tuple(network.nodes), network.caps()
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
        self.shape = (nodes, self.plates, self.device_class,
                      tuple((sw.a, sw.b) for sw in network.switches),
                      tuple((src.name, src.node) for src in network.sources))
        self._by_mask: dict[bytes, _Partition] = {}
        self.settling_bound = {}  # per mask, the largest R_on*C (see partition)
        self.columns = PhaseColumns(nodes, self.names, len(self.devices),
                                    tuple(sw.name for sw in network.switches),
                                    tuple(relay[2] for relay in self.relays))
        self.relay_rows = None

    def partition(self, mask: bytes, phase: Phase) -> _Partition:
        """The partition of a conduction mask (one flag per switch, at phase
        end), and its settling bound: the largest R_on*C of its closed
        switches with every beam at contact. A solved beam sits at or short
        of contact, and float sums, products and divisions are monotone, so
        no phase's R_on*C exceeds the bound."""
        part = self._by_mask.get(mask) or _PARTITIONS.get((self.shape, mask))
        if part is None:
            part = self._build(islands(self.network, phase, mask), mask)
            if len(_PARTITIONS) >= _MAX_PARTITIONS:
                del _PARTITIONS[next(iter(_PARTITIONS))]
            _PARTITIONS[self.shape, mask] = part
        self._by_mask[mask] = part
        try:  # every beam at contact, each capacitance at its largest
            self.settling_bound[mask] = max(map(itemgetter(1), _settling_products(
                self.network, part, _capacitances(self, [dev.g0 for dev in self.devices]))),
                default=0.0)
        except ZeroDivisionError:  # g_eff - g0 rounds to 0: unbounded
            self.settling_bound[mask] = math.inf
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
        pins.setdefault(island_of[GROUND], []).append(("ground", len(net.sources)))
        first_seen = {}
        for n in net.nodes:
            first_seen.setdefault(island_of[n], len(first_seen))
        order = sorted(pins, key=first_seen.__getitem__)

        plate_a = tuple(island_of[a] for a, _ in self.plates)
        plate_b = tuple(island_of[b] for _, b in self.plates)
        f_stencil: list[list[tuple[int, int]]] = [[] for _ in f_islands]
        f_links = []
        for k, (ia, ib) in enumerate(zip(plate_a, plate_b)):
            fa, fb = f_index[ia], f_index[ib]
            if fa >= 0 and fb >= 0:
                if ia != ib:
                    f_links.append((k, fa, fb))
            elif fa >= 0:
                f_stencil[fa].append((k, ib))
            elif fb >= 0:
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

        # (pinned island, beams) per floating island, while each is touched
        # only by beams of one class to one pinned island
        like_beams = ()
        for stencil, island_terms in zip(f_stencil, terms):
            kinds = {(other, self.device_class[k]) if k < len(self.devices) else None
                     for k, other in stencil}
            if len(kinds) != 1 or None in kinds or len(island_terms) != len(stencil):
                like_beams = ()
                break
            like_beams += ((stencil[0][1], next(zip(*stencil))),)

        return _Partition(
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
            f_stencil=tuple(tuple(t) for t in f_stencil),
            f_links=tuple(f_links),
            voltage_beams=tuple(b for b in beams if not floating[b[1]] and not floating[b[2]]),
            charge_beams=tuple(b for b in beams if floating[b[1]] or floating[b[2]]),
            charge_terms=tuple(tuple(t) for t in terms),
            correctors=_correctors(tuple(isl.id for isl in isles), f_islands, f_index,
                                   plate_a, plate_b),
            settling=tuple((s, tuple(touching[island_of[sw.a]]))
                           for s, sw in enumerate(net.switches) if mask[s]),
            like_beams=like_beams,
        )


def _correctors(ids, f_islands, f_index, plate_a, plate_b):
    """One capacitor per floating island whose plate charge absorbs the
    roundoff of the island sum, in the order the rewrites must run.

    Floating islands are reached level by level from the pinned ones; each
    corrects through its last capacitor (in capacitor order) to the previous
    level, so a pinned neighbour is always preferred. Rewrites run from the
    farthest level inwards, so a corrector shared with a floating neighbour
    is rewritten before that neighbour sums it. An island with no capacitor
    to another island needs no corrector.

    NetworkError (floating-group) for floating islands joined by capacitors
    with no capacitive path to a pinned island: their charges fix only their
    voltage differences, so the system is singular.
    """
    links = {}  # island -> [(cap, island-side sign, other island)]
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
    plate charges (Network.caps() order), the beam displacements and latch
    flags (Network.nems_caps order), each switch's conducting flag and last
    transition time (Network.switches order; the switching delays are per
    run), the floating-island solve's iterations, the phase's partition,
    its notes, and for each floating island of that partition the entering
    plate-charge sum and the largest entering plate charge. No velocity is
    stored: every beam is re-seated each phase by a static law, which
    leaves it at rest, so beam_states report velocity 0.0. solve_phase
    appends the rows it solves, and simulate's fill the rows of a periodic
    DC run.

    The last row solve_phase appended is also held as the lists it was
    built from (`held`), so the phase after it enters without copying the
    row out of the columns.
    """

    def __init__(self, nodes: tuple[str, ...], names: tuple[str, ...], n_beams: int,
                 switch_names: tuple[str, ...], delays: tuple[float, ...]):
        self.nodes = nodes
        self.names = names
        self.n_beams = n_beams
        self.switch_names = switch_names
        self.delays = delays
        self._widths = (len(nodes), len(names), n_beams, len(switch_names))
        self.phases: list[Phase] = []
        self.volts = array("d")
        self.charges = array("d")
        self.displacement = array("d")
        self.latched = bytearray()
        self.conducting = bytearray()
        self.transition_time = array("d")
        self.iterations = array("l")
        self.partition: list[_Partition] = []
        self.notes: list[tuple[str, ...]] = []
        self.q_in = array("d")
        self.scale_in = array("d")
        self.f_start = array("l", [0])  # each row's first entry in q_in and scale_in
        # (row, plate charges, beam displacements, latch flags, node voltages)
        self.held = None

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

    def beam_row(self, r: int) -> tuple[array, bytearray]:
        """Copies of row r's beam displacements and latch flags."""
        nb = self.n_beams
        return self.displacement[r * nb:(r + 1) * nb], self.latched[r * nb:(r + 1) * nb]

    @property
    def partitions(self) -> list[_Partition]:
        """The run's partitions, in first-use order."""
        return list(dict.fromkeys(self.partition))

    def _layout(self) -> tuple:
        return self.nodes, self.names, self.n_beams, self.switch_names, self.delays

    def _entering(self, r: int) -> tuple:
        """Row r's plate charges, beam displacements and latch flags as lists
        the caller may rewrite, and its node voltages: the held lists, handed
        over once, when r is the row they hold, else copies."""
        held = self.held
        if held is not None and held[0] == r:
            self.held = None
            return held[1:]
        disp, latched = self.beam_row(r)
        nn = len(self.nodes)
        return (self._charges(r).tolist(), disp.tolist(), list(latched),
                self.volts[r * nn:(r + 1) * nn])

    def _same_state(self, r: int, s: int) -> bool:
        """Whether rows r and s leave the same state bit for bit: node
        voltages, plate charges, beam displacements and latch flags, and
        switch conducting flags (not their transition times)."""
        nn, nc, nb, ns = self._widths
        return (all(col[r * w:(r + 1) * w].tobytes() == col[s * w:(s + 1) * w].tobytes()
                    for col, w in ((self.volts, nn), (self.charges, nc), (self.displacement, nb)))
                and self.latched[r * nb:(r + 1) * nb] == self.latched[s * nb:(s + 1) * nb]
                and self.conducting[r * ns:(r + 1) * ns] == self.conducting[s * ns:(s + 1) * ns])

    def _append(self, phase: Phase, partition: _Partition, iterations: int,
                notes: tuple[str, ...], conducting: bytes, transition_time: array,
                volts: list[float], charges: list[float], displacement: list[float],
                latched: list[bool], q_in: list[float], scale_in: list[float]) -> int:
        """Append one row and hold its lists; fromlist is several times
        cheaper than extend on a short list."""
        row = len(self.phases)
        self.phases.append(phase)
        self.partition.append(partition)
        self.iterations.append(iterations)
        self.notes.append(notes)
        self.conducting += conducting
        self.transition_time += transition_time
        self.volts.fromlist(volts)
        self.charges.fromlist(charges)
        self.displacement.fromlist(displacement)
        self.latched.extend(latched)
        self.q_in.fromlist(q_in)
        self.scale_in.fromlist(scale_in)
        self.f_start.append(len(self.q_in))
        self.held = (row, charges, displacement, latched, volts)
        return row

    def _copy(self, r: int, dest: PhaseColumns) -> None:
        """Append row r to dest by array slices."""
        self._repeat(r, r + 1, 1, dest)
        ns = len(self.switch_names)
        dest.phases.append(self.phases[r])
        dest.transition_time += self.transition_time[r * ns:(r + 1) * ns]
        dest.notes.append(self.notes[r])

    def _repeat(self, first: int, stop: int, n: int, dest: PhaseColumns) -> None:
        """Append to dest n rows that repeat rows first to stop - 1 in turn,
        by array slices: the state columns, iterations and partitions, and
        the entering island charges with their f_start offsets. The caller
        appends the rows' phases, transition times and notes."""
        nn, nc, nb, ns = self._widths
        full, rest = divmod(n, stop - first)
        for name, w in (("volts", nn), ("charges", nc), ("displacement", nb), ("latched", nb),
                        ("conducting", ns), ("iterations", 1), ("partition", 1)):
            block = getattr(self, name)[first * w:stop * w]
            getattr(dest, name).extend(block * full + block[:rest * w])
        f_start = self.f_start
        a, b = f_start[first], f_start[stop]
        for name in ("q_in", "scale_in"):
            block = getattr(self, name)[a:b]
            getattr(dest, name).extend(block * full + block[:f_start[first + rest] - a])
        steps = list(map(sub, f_start[first + 1:stop + 1], f_start[first:stop]))
        ends = accumulate(steps * full + steps[:rest], initial=dest.f_start[-1])
        next(ends)
        dest.f_start.extend(ends)

    def _charges(self, r: int) -> array:
        nc = len(self.names)
        return self.charges[r * nc:(r + 1) * nc]

    def _islands(self, r: int) -> tuple[IslandSolution, ...]:
        part = self.partition[r]
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
        part = self.partition[r]
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
        for r, part in enumerate(self.partition):
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
    iterations and warnings, read from the row when accessed (maps are
    read-only). Views compare equal when every field does.
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
        part = cols.partition[r]
        return _ReadOnlyMap({n: volts[base + i] for n, i in part.node_order})

    @property
    def charges(self) -> Mapping[str, float]:
        cols = self._columns
        return _ReadOnlyMap(dict(zip(cols.names, cols._charges(self._row))))

    @property
    def beam_states(self) -> Mapping[str, BeamState]:
        disp, latched = self._columns.beam_row(self._row)
        return _ReadOnlyMap({n: BeamState(x, 0.0, bool(flag)) for n, x, flag
                             in zip(self._columns.names, disp, latched)})

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
        """Fixed-point iterations of the phase's floating islands: 0 when
        nothing floats, 1 for a closed-form solve (solve_phase)."""
        return self._columns.iterations[self._row]

    @property
    def warnings(self) -> tuple[str, ...]:
        return self._columns.notes[self._row]

    def replace(self, *, charges: Mapping[str, float] | None = None,
                beam_states: Mapping[str, BeamState] | None = None) -> PhaseSolution:
        """A one-row copy of this solution with the given plate charges and
        beam displacements and latch flags (by element name; the others keep
        their values), e.g. to start solve_phase from a chosen state."""
        cols = self._columns
        out = PhaseColumns(*cols._layout())
        cols._copy(self._row, out)
        index = {n: i for i, n in enumerate(cols.names)}
        for name, value in (charges or {}).items():
            out.charges[index[name]] = value
        for name, beam in (beam_states or {}).items():
            j = index[name]
            if j >= cols.n_beams:
                raise KeyError(name)
            out.displacement[j], out.latched[j] = beam.displacement, beam.latched
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
_SOLVER_TOL = 1e-12  # fixed-point step, relative to the iterate's size when above 1 V


def _plate_nodes(cap: NemsCap | LinearCap) -> tuple[str, str]:
    return (cap.top, cap.bottom) if isinstance(cap, NemsCap) else (cap.a, cap.b)


def solve_phase(network: Network | CompiledNetwork, phase: Phase,
                prior: PhaseSolution | None = None) -> PhaseSolution:
    """Solve one phase at equilibrium and return the advanced state.

    The network is read-only input: the phase starts from prior's charges,
    beam and switch states, or from the element fields when prior is None.
    The solution is a row appended to the compiled network's columns. A
    plain Network is compiled for this one call; simulate compiles once
    and passes the CompiledNetwork. Called for the run's next phase (the
    phase of the compiled network's relay rows at the columns' length) with
    the run's last row as prior, or with no prior before the first row, the
    phase reads its relay row; any other call steps the relays over this
    one phase (_relay_rows). A prior that is the last row solve_phase
    appended hands over the lists it was built from.

    Pinned islands take their source voltage and voltage-driven beams
    update hysteretically. Each floating island keeps its entering
    plate-charge sum Q. Where the partition has like_beams (each floating
    island is n like charge-driven beams to one pinned island, and nothing
    else) and each island's beams enter with equal displacements, the
    phase is solved in closed form: each beam carries Q/n, seats once by
    the charge law, and the island sits (Q/n)/c above the far island; one
    iteration is recorded. Otherwise island voltage, per-element charges
    and charge-driven beam positions relax together in a fixed point:
    distribute charge by capacitance, re-seat every beam, recompute
    capacitances, repeat (hard cap 10^4); its iterations are recorded. A
    phase with no floating island records 0.

    Each beam law is a pure function of the device and the drive, so within
    a phase it runs once per distinct (device class, drive) key, plus the
    prior latch state for the voltage law. +0.0 and -0.0 drives share a key
    and both laws map them to the same state; a NaN drive never matches a
    key.

    The solution is a pure function of the conduction mask, the island
    voltages (pinned values and the fixed-point guess) and the entering
    plate charges, beam displacements and latch flags, apart from the
    phase, the relay transition times and the settling notes, which compare
    each closed switch's R_on*C with 1% of this phase's duration; they are
    built only when the mask's static bound (CompiledNetwork.partition)
    exceeds that. simulate relies on that to write a periodic DC run's rows
    in bulk (_fill).
    """
    topo = network if isinstance(network, CompiledNetwork) else CompiledNetwork(network)
    net, cols = topo.network, topo.columns
    n = len(cols)
    # the beam state is rewritten per beam below: lists index and store
    # several times faster than array and bytearray
    if prior is None:
        nxt = not n
        q = [cap.q for cap in net.caps()]
        disp = [cap.state.displacement for cap in net.nems_caps]
        latched = [cap.state.latched for cap in net.nems_caps]
        guess = [0.0] * len(net.nodes)
    else:
        src, r = prior._columns, prior._row
        if src is not cols and src._layout() != cols._layout():
            raise NetworkError("prior solution is of a network with other nodes, "
                               "elements or switches")
        nxt = src is cols and r == n - 1
        q, disp, latched, guess = src._entering(r)

    # the run's next phase reads its relay row; any other phase steps the
    # relays from the prior's row or the elements' states
    rows = topo.relay_rows
    if not (nxt and rows is not None and n < rows.stop and rows.phases[n] is phase):
        rows, n = _relay_rows(topo.relays, (phase,), [sw.state for sw in net.switches]
                              if prior is None else prior.switch_states.values()), 0
    ns = len(topo.relays)
    a, b = n * ns, (n + 1) * ns
    conducting, transition_time, mask = rows.conducting[a:b], rows.transition_time[a:b], rows.mask[a:b]
    part = topo._by_mask.get(mask) or topo.partition(mask, phase)

    # island voltages: pinned ones from this phase's source values, floating
    # ones from the prior's node voltages (the fixed-point guess)
    t_end = phase.t_end
    values = [wave(t_end, phase) for wave in topo.source_waves]
    values.append(0.0)  # ground
    for members, pins in part.shared_pins:
        _pin_value(members, [(name, values[i]) for name, i in pins])
    f_islands = part.f_islands
    values += [guess[node] for node in part.f_first_node]
    volts = list(map(values.__getitem__, part.island_value))

    notes = []
    q_before, scale_before = _floating_charge(part, q)

    # voltage-driven beams: both terminals pinned; one law call per
    # (device class, dv, prior latched) key
    devices = topo.devices
    by_voltage = {}
    for j, ia, ib, cls in part.voltage_beams:
        dv = volts[ia] - volts[ib]
        was_latched = latched[j]
        key = (cls, dv, was_latched)
        state = by_voltage.get(key)
        if state is None:
            dev = devices[j]
            if was_latched and release_holds(dev, dv):
                state = (dev.g0, True)
            else:
                law = static_equilibrium_voltage(dev, dv)
                state = (law.displacement, law.latched)
            by_voltage[key] = state
        disp[j], latched[j] = state
    caps = _capacitances(topo, disp)

    # floating islands: the closed form where it applies, else the fixed point;
    # either memoizes the charge law by (device class, plate charge) in by_charge
    iterations, by_charge = 0, {}  # 0: nothing floats
    # (a non-finite charge sum takes the fixed point, which reports it)
    if part.like_beams and math.isfinite(sum(q_before)) and all(
            disp[b[0]] == disp[j] for _, b in part.like_beams for j in b[1:]):
        # n like beams entering with equal displacements, to one pinned
        # island, share its charge Q: each seats once at q = Q/n, and the
        # island sits q/c above the far one (Seeger & Crary 1997)
        iterations = 1
        for k, (far, beams), q_f in zip(f_islands, part.like_beams, q_before):
            j, q_j = beams[0], q_f / len(beams)
            key = (topo.device_class[j], q_j)
            # islands alike share one law call
            law = by_charge.get(key) or by_charge.setdefault(
                key, static_equilibrium_charge(devices[j], q_j))
            c = topo.eps_area[j] / (topo.g_eff[j] - law.displacement)
            volts[k] = volts[far] + q_j / c
            for j in beams:  # latch-violation notes island by island
                if law.latched and not latched[j]:
                    notes.append(f"latch-violation: beam {topo.names[j]} re-latched "
                                 "during redistribution")
                disp[j], latched[j], caps[j] = law.displacement, law.latched, c
    elif f_islands:
        for iterations in range(1, _MAX_FIXED_POINT + 1):
            step, size = _solve_floating(part, caps, volts, q_before)
            # charge-driven beams re-seat from their plate charge; the plate
            # charges themselves are assigned once, after convergence
            for j, ia, ib, cls in part.charge_beams:
                q_j = caps[j] * (volts[ia] - volts[ib])
                key = (cls, q_j)
                seated = by_charge.get(key)
                if seated is None:
                    law = static_equilibrium_charge(devices[j], q_j)
                    seated = by_charge[key] = (law.displacement, law.latched, topo.eps_area[j]
                                               / (topo.g_eff[j] - law.displacement))
                if seated[1] and not latched[j]:
                    notes.append(f"latch-violation: beam {topo.names[j]} re-latched "
                                 "during redistribution")
                disp[j], latched[j], caps[j] = seated
            # a NaN iterate makes step NaN, so size's NaN handling is moot
            if iterations >= 2 and step <= _SOLVER_TOL * max(size, 1.0):
                break
        else:
            # the first NaN island, else the first of largest |v|
            worst = max(f_islands, key=lambda k: (volts[k] != volts[k], abs(volts[k])))
            raise ConvergenceError(
                f"phase {phase.index} ({phase.kind}, t = {phase.t_start:.6e} s): island "
                f"{part.ids[worst]} did not converge after {_MAX_FIXED_POINT} "
                f"iterations (last step {step:.3e}, tol {_SOLVER_TOL})", residual=step,
                tolerance=_SOLVER_TOL)

    # final assignment: each island's corrector plate takes the exact remainder, so
    # the island's charge is conserved to the rounding of its plate-charge size
    q = [c * (volts[ia] - volts[ib]) for c, ia, ib in zip(caps, part.plate_a, part.plate_b)]
    for f, corrector, sign, others in part.correctors:
        rest = math.fsum([s * q[k] for k, s in others]) if others else 0.0
        q[corrector] = sign * (q_before[f] - rest)
    if topo.settling_bound[mask] > 0.01 * phase.duration:  # else no switch can warn
        notes += _settling_notes(_settling_products(net, part, caps), phase)
    notes = tuple(dict.fromkeys(notes)) if notes else ()  # dedupe, keep order

    row = cols._append(
        phase, part, iterations, notes,
        conducting, transition_time, list(map(volts.__getitem__, part.node_island)),
        q, disp, latched, q_before, scale_before)
    return PhaseSolution(cols, row)


def _capacitances(topo: CompiledNetwork, displacement: Iterable[float]) -> list[float]:
    """Capacitance of every capacitor, in Network.caps() order, with the
    beams at the given displacements."""
    return [*map(truediv, topo.eps_area, map(sub, topo.g_eff, displacement)), *topo.linear]


def _settling_products(net: Network, part: _Partition,
                       caps: list[float]) -> tuple[tuple[str, float], ...]:
    """(switch name, R_on*C) of each closed switch, C being the capacitance
    on the island of its a terminal."""
    # the island sum runs left to right, so it is monotone in each capacitance
    return tuple((net.switches[s].name,
                  net.switches[s].r_on * functools.reduce(add, map(caps.__getitem__, touching), 0.0))
                 for s, touching in part.settling)


def _settling_notes(products: Iterable[tuple[str, float]], phase: Phase) -> tuple[str, ...]:
    """Settling assertion: each closed switch must settle well inside the
    phase; one note and one SettlingWarning per switch that does not."""
    notes = []
    limit = 0.01 * phase.duration
    for name, rc in products:
        if rc > limit:
            msg = (f"settling-violation: switch {name} R_on*C = {rc:.3e} s "
                   f"exceeds 1% of phase {phase.index}")
            notes.append(msg)
            warnings.warn(msg, SettlingWarning, stacklevel=3)
    return tuple(notes)


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
                    q_before: list[float]) -> tuple[float, float]:
    """Floating island voltages from charge conservation at fixed capacitances,
    written over the previous iterate in volts (one entry per island).
    Returns the largest step from the previous iterate (NaN sticks) and the
    largest magnitude of the new one.

    Islands that touch no capacitance keep their voltage (isolated,
    charge-free). Islands not coupled to another floating island solve by
    division. Coupled ones solve the full system by Gaussian elimination
    without pivoting, stable for a diagonally dominant matrix (Golub & Van
    Loan, Matrix Computations, §3.4): capacitances are positive
    (Network.validate) and every coupled group has a capacitive path to a
    pinned island (_correctors), so in exact arithmetic every pivot is
    positive. A pivot that rounds to zero (capacitance to pinned islands
    below the rounding of the coupling) raises NetworkError.
    """
    f_islands = part.f_islands
    step = size = 0.0
    if not part.f_links:
        # one walk: each island's stencil reaches pinned islands only
        for k, terms, rhs in zip(f_islands, part.f_stencil, q_before):
            diag = 0.0
            for j, other in terms:
                c = caps[j]
                diag += c
                rhs += c * volts[other]
            b = volts[k]
            a = volts[k] = rhs / diag if diag != 0.0 else b
            d = abs(a - b)
            if d > step or d != d:
                step = d
            a = abs(a)
            if a > size:
                size = a
        return step, size
    n = len(f_islands)
    # the matrix rows, each with its right-hand side appended
    rows = [[0.0] * n + [q] for q in q_before]
    for f, terms in enumerate(part.f_stencil):
        row = rows[f]
        for k, other in terms:
            c = caps[k]
            row[f] += c
            row[n] += c * volts[other]
    for k, fa, fb in part.f_links:
        c = caps[k]
        rows[fa][fa] += c
        rows[fb][fb] += c
        rows[fa][fb] -= c
        rows[fb][fa] -= c
    for f, row in enumerate(rows):
        if row[f] == 0.0:  # touches no capacitance, so no link either
            row[f], row[n] = 1.0, volts[f_islands[f]]
    for p, pivot_row in enumerate(rows):
        if pivot_row[p] == 0.0:
            raise NetworkError(
                f"floating-group: the charge balance of island {part.ids[f_islands[p]]} "
                "is singular in floating point: its capacitance to pinned islands is "
                "below the rounding of its coupling")
        for row in rows[p + 1:]:
            if row[p] == 0.0:  # not coupled to island p: nothing to eliminate
                continue
            m = row[p] / pivot_row[p]
            for j in range(p, n + 1):
                row[j] -= m * pivot_row[j]
    out = [0.0] * n
    for p in range(n - 1, -1, -1):
        row = rows[p]
        out[p] = (row[n] - sum(row[j] * out[j] for j in range(p + 1, n))) / row[p]
    for k, a in zip(f_islands, out):
        d = abs(a - volts[k])
        volts[k] = a
        if d > step or d != d:
            step = d
        a = abs(a)
        if a > size:
            size = a
    return step, size


# --------------------------------------------------------------------------
# multi-phase simulation

@dataclass(frozen=True)
class SimResult:
    """A run's phase solutions, as state columns."""

    solutions: PhaseColumns

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

    def waveform_csv(self) -> str:
        """Zero-order-hold node voltages, two rows per phase; the columns are
        a and b (where present), then the other nodes by name."""
        cols = self.solutions
        names = [n for n in ("a", "b") if n in cols.nodes]
        names += sorted(n for n in cols.nodes if n not in names)
        header = "t_s,phase," + ",".join(f"v{n.upper()}_V" for n in names)
        lines = [header]
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


# the last run's phase tuple, relay key and relay rows: a run with the same
# phase tuple and relays (the next amplitude of a gain sweep) shares the rows
_RUN_RELAYS: list = [None, None, None]


def simulate(network: Network, schedule: ClockSchedule, t_end: float) -> SimResult:
    """Run the phase sequence over [0, t_end], threading state phase to phase
    through one CompiledNetwork, whose columns become the result's solutions.

    The relays follow their drives, not the network's state, so their rows
    for the whole run (_relay_rows) are computed before the first phase,
    once for consecutive runs with the same phase tuple and relays, and
    each solve_phase reads its phase's row.

    When every source is Dc or Clock, a phase's source values depend only
    on its clock flags, so a run that leaves a clock period in the state it
    left the one before (bit for bit, relay transition times aside) is
    periodic from there on: each later phase with its period position's
    clock flags and relay row enters the state its position entered, and
    solve_phase, a pure function of that state, would solve the same row
    again. _fill then writes those rows in bulk, exactly as solve_phase
    would, up to the first phase that departs from the period; solve_phase
    takes over from that phase.
    """
    phases = schedule.phases(t_end)
    topo = CompiledNetwork(network)
    last = phases[-1]
    for src in network.sources:  # a Sine's 2*pi*f*t is largest at the end
        try:
            src.wave.at(last.t_end, last)
        except ValueError:
            raise NetworkError(f"bad-value: source {src.name!r}: 2*pi*f*t overflows "
                               "within the run") from None
    # relay states compare equal across signed zeros; a transition time's
    # sign is kept in the rows, so it is part of the key
    key = [(sw.drive, sw.v_pi, sw.v_po, sw.state, math.copysign(1.0, sw.state.last_transition_time))
           for sw in network.switches]
    last_phases, last_key, rows = _RUN_RELAYS
    if last_phases is not phases or last_key != key:
        rows = _relay_rows(topo.relays, phases, [sw.state for sw in network.switches])
        _RUN_RELAYS[:] = phases, key, rows
    topo.relay_rows = rows
    periodic = all(type(src.wave) in (Dc, Clock) for src in network.sources)
    cols, lag, r = topo.columns, schedule.phases_per_period, 0
    prior: PhaseSolution | None = None
    while r < len(phases):
        prior = solve_phase(topo, phases[r], prior)
        r += 1
        if periodic and r > lag and cols._same_state(r - 1, r - 1 - lag):
            r += _fill(topo, phases, lag)
            prior = PhaseSolution(cols, r - 1)
    return SimResult(cols)


def _fill(topo: CompiledNetwork, phases: Sequence[Phase], lag: int) -> int:
    """Append the rows of the phases after the last solved one that repeat
    the last `lag` rows (the cycle), and return how many were appended.

    The last row leaves the state that the row `lag` earlier left, so the
    next phase enters the transition that the cycle's first phase entered,
    and so on around the cycle, as long as each phase has its cycle
    position's kind and clock flags and its relay row (topo.relay_rows) has
    that position's conducting flags and phase-end mask. Each row is then
    its position's row with its own phase, relay transition times (from its
    relay row) and notes (the position's notes less its settling ones, plus
    this phase's settling notes, warned in phase order). The checks run a
    whole column at a time (map over lists and bytes), and the rows end
    before the first phase that fails one or where the relay rows stop.
    """
    cols, rows = topo.columns, topo.relay_rows
    start = len(cols)
    first = start - lag
    key = itemgetter(1, 4, 5)  # kind, clk_on, clkb_on
    todo = phases[start:rows.stop]
    n = next(compress(count(), map(ne, map(key, todo), cycle(list(map(key, phases[first:start]))))),
             len(todo))
    ns = len(topo.relays)
    for col in (rows.conducting, rows.mask) if ns else ():
        ahead = col[start * ns:(start + n) * ns]
        n = next(compress(count(), map(ne, ahead, cycle(col[first * ns:start * ns]))),
                 len(ahead)) // ns
    if not n:
        return 0
    todo = todo[:n]
    cols._repeat(first, start, n, cols)
    cols.transition_time += rows.transition_time[start * ns:(start + n) * ns]
    cols.phases += todo

    # per position: its notes less the settling ones, and the R_on*C of each
    # closed switch, from the position's beam displacements
    nb = cols.n_beams
    bases = [tuple(w for w in cols.notes[r] if not w.startswith("settling-violation"))
             for r in range(first, start)]
    products = [_settling_products(topo.network, cols.partition[r],
                                   _capacitances(topo, cols.displacement[r * nb:(r + 1) * nb]))
                for r in range(first, start)]
    notes = (bases * (n // lag + 1))[:n]
    # per position, the largest R_on*C against 1% of each phase's duration
    worst = [max(map(itemgetter(1), prods), default=-math.inf) for prods in products]
    limits = map(mul, repeat(0.01), map(sub, map(itemgetter(3), todo), map(itemgetter(2), todo)))
    for k in compress(count(), map(lt, limits, cycle(worst))):
        notes[k] = bases[k % lag] + _settling_notes(products[k % lag], todo[k])
    cols.notes += notes
    return n


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
        signal_side = clock_node if drive_terminal == "gate" else GROUND
        if c_gc > 0.0:
            for term in (sw.a, sw.b):
                network.linear_caps.append(
                    LinearCap(f"cgc_{sw.name}_{term}", signal_side, term, c_gc))
        if c_gb > 0.0:
            network.linear_caps.append(
                LinearCap(f"cgb_{sw.name}", clock_node, GROUND, c_gb))
    network.validate()
    return network
