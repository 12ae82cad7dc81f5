"""Engine identity: SHA-256 of the repr of every PhaseSolution and of the
waveform CSV of four DC library runs. The values were recorded before the
switch states became columns and Phase a named tuple; a rewrite of the
phase engine must leave them unchanged.

DC runs keep math.sin out, so the values depend only on IEEE-754 double
arithmetic and the engine's operation order.
"""

import hashlib

import pytest

from nemsim import AmpConfig, build_amp, get_preset, run_dc

DEV = get_preset("large").params()

# name: (AmpConfig overrides, vin, sha256 of the reprs, sha256 of waveform_csv())
RUNS = {
    "basic-plus-10mV": (
        {}, 0.01,
        "71d5a5ae5b50e232825a98b5fcf2949cc74168d1793fb33dd1a91b8b9a88b30f",
        "d74aeeb8c9b0454600887579622418f862af965b769e0afe8abb6f713cfa6072"),
    "basic-minus-30mV": (
        {}, -0.03,
        "1f592eb315f611fe1f4b4eb02eaf414e6ec64b29c9807990422811d57b9fd9ff",
        "c5eab78a5a55ac1a6e4dde41945e5269630d554123ccc635da42b03623dcf7b2"),
    "gate-bank-m10": (
        {"topology": "modified", "m": 10, "parasitics": True}, 0.007,
        "7c75af78c0c1ac436bda8b784c3068afe046763c7b691866e8e32c15d268a26c",
        "2adfc5205a4b63724c5fc3ef1a1c56d7e23a3b698c54360fed420f747cbab9ec"),
    "body-bank-m10": (
        {"topology": "modified", "m": 10, "parasitics": True, "drive_terminal": "body"},
        -0.012,
        "c9c10da3f63a87d4b7be5d696d6624851835f721c8597bb26b374ae7076c4663",
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
