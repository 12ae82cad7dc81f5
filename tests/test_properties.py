"""Property tests of the phase engine over generated networks.

Hypothesis runs a fixed, derandomized set of examples so the suite stays
deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from nemsim.scnet import ClockSchedule, PhaseSolution, build_network, simulate, solve_phase

SCHEDULE = ClockSchedule(100e3)
CHARGE = st.floats(-1e-15, 1e-15)
VOLTAGE = st.floats(-3.0, 3.0)


@st.composite
def networks(draw):
    """A build_network graph of linear and NEMS caps, clocked switches and at
    most one DC source.

    Every node hangs off a capacitor tree rooted at ground, so chains of
    floating nodes joined only by capacitors occur. Switches join non-ground
    nodes only, so no switch can short the source to ground (a pin conflict).
    """
    n = draw(st.integers(2, 6))
    nodes = ["gnd", *(f"n{i}" for i in range(n))]
    elements, charges = [], {}

    def cap(name, a, b):
        if draw(st.integers(0, 3)) == 0:
            elements.append({"type": "nems_cap", "name": name, "top": a, "bottom": b,
                             "preset": "large"})
        else:
            elements.append({"type": "linear_cap", "name": name, "a": a, "b": b,
                             "value": draw(st.floats(0.5e-15, 5e-15))})
            charges[name] = draw(CHARGE)

    for i, node in enumerate(nodes[1:], start=1):
        cap(f"t{i}", node, nodes[draw(st.integers(0, i - 1))])
    for i, (a, b) in enumerate(draw(st.lists(st.tuples(st.sampled_from(nodes),
                                                         st.sampled_from(nodes)),
                                               max_size=3))):
        if a != b:
            cap(f"x{i}", a, b)
    if draw(st.booleans()):
        elements.append({"type": "source", "name": "v0", "node": "n0",
                         "wave": {"kind": "dc", "value": draw(VOLTAGE)}})
    non_ground = nodes[1:]
    for i, (a, b) in enumerate(draw(st.lists(st.tuples(st.sampled_from(non_ground),
                                                         st.sampled_from(non_ground)),
                                               max_size=3))):
        if a != b:
            elements.append({"type": "switch", "name": f"s{i}", "a": a, "b": b,
                             "drive": {"kind": "clock",
                                       "phase": draw(st.sampled_from(["clk", "clkb"])),
                                       "high": 10.0},
                             "v_pi": 9.6, "v_po": 6.2})
    return {"nodes": nodes, "elements": elements}, charges


def _build(description, charges):
    net = build_network(description)
    for c in net.linear_caps:
        c.q = charges[c.name]
    return net


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(networks())
def test_floating_charge_conserved_and_reruns_byte_identical(case):
    description, charges = case
    net = _build(description, charges)
    first = simulate(net, SCHEDULE, 2 * SCHEDULE.period)
    assert first.max_conservation_error() <= 1e-15
    again = simulate(_build(description, charges), SCHEDULE, 2 * SCHEDULE.period)
    assert again.waveform_csv() == first.waveform_csv()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(networks())
def test_simulate_matches_the_plain_network_path(case):
    """simulate (columns and transition memo) against solve_phase chained over
    a plain Network, which compiles per call and never reuses a solution."""
    description, charges = case
    run = simulate(_build(description, charges), SCHEDULE, 2 * SCHEDULE.period)
    net = _build(description, charges)
    prior = None
    for got, phase in zip(run.solutions, SCHEDULE.phases(2 * SCHEDULE.period), strict=True):
        prior = solve_phase(net, phase, prior)
        for name in PhaseSolution.FIELDS:
            assert getattr(got, name) == getattr(prior, name), name
        assert repr(got) == repr(prior)
