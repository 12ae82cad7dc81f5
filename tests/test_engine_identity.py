"""Engine identity: SHA-256 of the repr of every PhaseSolution and of the
waveform CSV of four DC library runs. The values were recorded before the
switch states became columns and Phase a named tuple; a rewrite of the
phase engine must leave them unchanged.

A DC result's beam fields, read from two rows, must equal those read
through every row of the run.

The device side has the same check: the CSV of a 1001-point C-V sweep and
of a step-drive transient on each preset, recorded while mech still built
its grids and columns with numpy. The up-only sweeps and the switched
drives on the large preset (contact then release, a charge-mode bounce off
the stop, a charge-mode hold dropped to zero) were recorded while the C-V
sweep stepped through update_beam_voltage and the transient kept its own
copy of the force laws.

DC runs and step drives keep math.sin out, so the values depend only on
IEEE-754 double arithmetic and the engine's operation order.
"""

import hashlib
import math
from dataclasses import replace

import pytest

from nemsim import AmpConfig, PRESETS, build_amp, get_preset, run_dc
from nemsim.amp import _dc_detail
from nemsim.errors import NoLatchError, NoReleaseError
from nemsim.mech import DynamicsParams, cv_sweep, transient

DEV = get_preset("large").params()

# name: (AmpConfig overrides, vin, sha256 of the reprs, sha256 of waveform_csv())
RUNS = {
    "basic-plus-10mV": (
        {}, 0.01,
        "974c72d1ba965386d5fd4a102a245677942ca8bfacb270c4d9a241905770b69e",
        "d74aeeb8c9b0454600887579622418f862af965b769e0afe8abb6f713cfa6072"),
    "basic-minus-30mV": (
        {}, -0.03,
        "efebd4847f06619186350ed28d353b1f282252e465e8b56f3744781255e3a34d",
        "c5eab78a5a55ac1a6e4dde41945e5269630d554123ccc635da42b03623dcf7b2"),
    "gate-bank-m10": (
        {"topology": "modified", "m": 10, "parasitics": True}, 0.007,
        "e0c6ff2dbdfd099b32cf583fc34bf6bdfe01eabca460db22c60d4811dd520359",
        "2adfc5205a4b63724c5fc3ef1a1c56d7e23a3b698c54360fed420f747cbab9ec"),
    "body-bank-m10": (
        {"topology": "modified", "m": 10, "parasitics": True, "drive_terminal": "body"},
        -0.012,
        "9c4f2bc5923b17dc2735c25a54e907d6faf7fffe9551127605486015f7adf5c8",
        "eae2d75a0820483628874447aed9d5cb6c76c5f044be3d97212b69a5a12c53f8"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", RUNS)
def test_solutions_and_waveform_are_unchanged(name):
    overrides, vin, reprs, waveform = RUNS[name]
    sim = run_dc(build_amp(AmpConfig(device=DEV, **overrides)), vin).sim
    assert len(sim.solutions) == 40
    assert sha256("\n".join(repr(s) for s in sim.solutions)) == reprs
    assert sha256(sim.waveform_csv()) == waveform


def whole_run_reads(sim) -> tuple:
    """A DC run's beam results read through every row: the last hold's
    largest beam displacement, whether every beam latched in the last
    sample, and whether none stayed latched in the last hold."""
    rows = sim.solutions
    last = {ph.kind: r for r, ph in enumerate(rows.phases)}
    sample, hold = last["sample"], last["hold"]
    latched = rows.latched_beams()
    return (max(b.displacement for b in rows[hold].beam_states.values()),
            latched[sample] == rows.n_beams, latched[hold] == 0)


def dc_reads(run) -> tuple:
    return run.displacement, run.sampled_latched, run.hold_released


# name: (AmpConfig overrides, vin); the RUNS and an m = 100 bank
DC_READS = {**{name: run[:2] for name, run in RUNS.items()},
            "gate-bank-m100": ({"topology": "modified", "m": 100, "parasitics": True}, 0.0123)}


@pytest.mark.parametrize("name", DC_READS)
def test_dc_result_reads_two_rows_as_the_whole_run_does(name):
    overrides, vin = DC_READS[name]
    run = run_dc(build_amp(AmpConfig(device=DEV, **overrides)), vin)
    assert repr(dc_reads(run)) == repr(whole_run_reads(run.sim))


@pytest.mark.parametrize("overrides, vin, error", [
    ({"v_dc": 12.0}, 0.7, NoReleaseError),      # beams stay latched through the hold
    ({"clock_high": 5.0}, 0.01, NoLatchError),  # relays never close
    ({"topology": "modified", "m": 100, "parasitics": True, "v_dc": 12.0}, 0.7,
     NoReleaseError),
], ids=["no-release", "no-latch", "no-release-bank-m100"])
def test_dc_flags_read_two_rows_and_still_raise(overrides, vin, error):
    amp = build_amp(AmpConfig(device=DEV, **overrides))
    run = _dc_detail(amp, vin, 10)
    assert repr(dc_reads(run)) == repr(whole_run_reads(run.sim))
    assert not (run.sampled_latched and run.hold_released)
    with pytest.raises(error):
        run_dc(amp, vin)


# (preset, direction): sha256 of cv_sweep(0 V to 1.25 V_PI, 1001 points).to_csv()
CV_SWEEPS = {
    ("large", "both"): "9ca56ad3caebe7b165406f77865ef5075bd47b49af425acf0970fa5c8944a09f",
    ("large", "down"): "55b815b4965bbd84758100e5f0c908087150aa26183bacb2a48736e3f0467acf",
    ("lv-high-gain", "both"): "3b43677aef4b2992278ac6adc649fc79423c0255a721f12e81633111843fd9de",
    ("lv-high-gain", "down"): "fe2ba8f1abed03c08fb170625d3edd3c3e971c6f39797527443c301f39dead29",
    ("lv-low-gain", "both"): "2c2c6c7476463d6118c3d9559f4143abcb781a8d2dee0a6145c94d20e63bfec1",
    ("lv-low-gain", "down"): "c639ff1fd6ba26c33f9df8513fbdb0818233d0dd2aa2f7e8140f2c291660e333",
    ("large", "up"): "f2500478f6b7b25bcbba561edd9d3d97375a47e2f087b642f678df427d4beac2",
    ("lv-high-gain", "up"): "6373a1c99c03beb0eca8a31c07fa519628c458e471033896d840d22b5cc23280",
    ("lv-low-gain", "up"): "ba5e67660ffc142ccc449af489bf0349126eb4ef56dc332fb99d0331f7b5e801",
}

# preset: sha256 of the transient CSV under the CLI's default step drive
STEP_TRANSIENTS = {
    "large": "5a9d85d4a1fe55e450f34a795d30c4bc28916aad22362be8cec5c6cada2cd18e",
    "lv-high-gain": "c845282e6098736dec7106bd527dde5e8396bf591eaa53b60b9c3b00ec7862d4",
    "lv-low-gain": "54fc17eb78019e122b22fc539d41ac494a0405f444195ee5a2cbdc2cfe5e95fd",
}


@pytest.mark.parametrize("preset, direction", CV_SWEEPS)
def test_cv_sweep_is_unchanged(preset, direction):
    dev = PRESETS[preset].params()
    curve = cv_sweep(dev, 0.0, 1.25 * dev.v_pi, 1001, direction)
    assert sha256(curve.to_csv()) == CV_SWEEPS[preset, direction]


@pytest.mark.parametrize("preset", STEP_TRANSIENTS)
def test_step_transient_is_unchanged(preset):
    # the transient command's defaults: 1.2 V_PI for 200 sqrt(m_eff/k),
    # sampled at 1/2000 of that
    dev = PRESETS[preset].params()
    dyn = DynamicsParams.for_device(PRESETS[preset].geometry, dev.k, 1.0)
    t_end = 200.0 * math.sqrt(dyn.effective_mass / dev.k)
    dyn = replace(dyn, integration_dt_max=t_end / 2000.0)
    level = 1.2 * dev.v_pi
    trace = transient(dev, dyn, lambda t: level, t_end, d_c=dev.d_c)
    assert sha256(trace.to_csv()) == STEP_TRANSIENTS[preset]


def _switched(level: float, t_off: float):
    """level before t_off, 0 from t_off on."""
    return lambda t: level if t < t_off else 0.0


LARGE = PRESETS["large"]

# name: (drive mode, drive level in units of V_PI or q_clamp, drive off time,
# sha256 of the transient CSV) on the large preset, dt_max = 2 ns, t_end = 2 us
# and transient's default d_c
SWITCHED_TRANSIENTS = {
    "voltage-step-off": (
        "voltage", 1.2, 1e-6,
        "7e769cc0cc9fc4e3bae4846715bcb2d560baf8a18b06199c51fa5d8f90224eba"),
    "charge-below-clamp": (
        "charge", 0.9, math.inf,
        "30b81909a27dbb46b29bb6bae736b2e7d563cc490007590cd91917316d99a33d"),
    "charge-above-clamp-off": (
        "charge", 1.1, 1e-6,
        "3fcbefa8a50bb5b69676b0184c9756b9ff3aa0da90e02456c76649495a76cbc8"),
}


@pytest.mark.parametrize("name", SWITCHED_TRANSIENTS)
def test_switched_transient_is_unchanged(name):
    mode, scale, t_off, digest = SWITCHED_TRANSIENTS[name]
    dev = LARGE.params()
    dyn = DynamicsParams.for_device(LARGE.geometry, dev.k, 2e-9)
    unit = dev.v_pi if mode == "voltage" else dev.q_clamp
    trace = transient(dev, dyn, _switched(scale * unit, t_off), 2e-6, mode=mode)
    assert sha256(trace.to_csv()) == digest
