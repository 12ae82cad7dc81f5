"""Seeded workload generation: a workload seed becomes scenario files and CLI argv.

The program sees only the generated files and arguments. Every workload uses
the CLI's default options apart from its inputs (it never passes ``--jobs``),
so implementation knobs can change without the benchmark changing.

Each call carries the output check that the worker applies to its artifacts
(see ``checks.py``). The seed varies the inputs but not the amount of work:
the phase count of every engine workload is fixed by its name.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

NAMES = ("sine-long", "sweep-50", "bank-m100", "device-char")

# Published switch thresholds (V_PI, V_PO) of the device presets: the
# closed-form references of the C-V transitions and the transient drive base.
THRESHOLDS = {
    "large": (9.6, 6.2),
    "lv-high-gain": (3.8, 2.4),
    "lv-low-gain": (4.0, 2.7),
}

F_CLK = 100e3               # CLI default clock
PHASES_PER_PERIOD = 4       # sample, dead, hold, dead
DC_REFERENCE_PERIODS = 10   # run_dc default behind `amplify` with a sine stimulus
BANK_PERIODS = 50           # bank-m100 period count: ~0.8 s of engine work per run


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    check: dict             # check kind and parameters, JSON-serialisable


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    files: dict             # relative path -> text, written before the first run
    calls: tuple[Call, ...]
    phases: int             # simulated clock phases per repetition

    def to_json(self) -> dict:
        return {"name": self.name, "seed": self.seed, "phases": self.phases,
                "calls": [{"argv": list(c.argv), "check": c.check} for c in self.calls]}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _scenario(**keys) -> str:
    lines = ['device.preset = "large"']
    lines += [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def _sine_long(rng: random.Random, tiny: bool) -> tuple:
    amplitude = _log_uniform(rng, 1e-3, 0.15)
    f_in = 10e3 if tiny else 100.0   # one input period: 10 or 1000 clock periods
    cfg = _scenario(**{"amp.topology": "basic", "stimulus.kind": "sine",
                       "stimulus.amplitude_V": repr(amplitude),
                       "stimulus.freq_hz": repr(f_in), "run.n_periods": 1})
    sine_phases = PHASES_PER_PERIOD * round(F_CLK / f_in)
    check = {"kind": "sine", "preset": "large", "amplitude": amplitude,
             "freq": f_in, "phases": sine_phases, "out": "out"}
    call = Call(("amplify", "--config", "sine.cfg", "--out-dir", "out"), check)
    phases = sine_phases + PHASES_PER_PERIOD * DC_REFERENCE_PERIODS
    return {"sine.cfg": cfg}, (call,), phases


def _sweep_50(rng: random.Random, tiny: bool) -> tuple:
    n = 5 if tiny else 50
    amplitudes = sorted({_log_uniform(rng, 1e-3, 0.175) for _ in range(n)})
    if len(amplitudes) != n:
        raise RuntimeError("seeded amplitudes collided; pick another seed")
    check = {"kind": "sweep", "preset": "large", "amplitudes": amplitudes, "out": "out"}
    argv = ("gain-sweep", "--preset", "large",
            "--amplitudes", ",".join(repr(a) for a in amplitudes), "--out-dir", "out")
    return {}, (Call(argv, check),), n * PHASES_PER_PERIOD * DC_REFERENCE_PERIODS


def _bank_m100(rng: random.Random, tiny: bool) -> tuple:
    # The bank's fixed-point iteration count steps up with the input (110, 130,
    # 150, 170 per 10 periods across 1-150 mV); 6-22 mV stays on the 130 step.
    amplitude = _log_uniform(rng, 6e-3, 22e-3)
    periods = 2 if tiny else BANK_PERIODS
    cfg = _scenario(**{"amp.topology": "modified", "amp.m": 100, "amp.parasitics": "on",
                       "stimulus.kind": "dc", "stimulus.amplitude_V": repr(amplitude),
                       "run.n_periods": periods})
    phases = PHASES_PER_PERIOD * periods
    check = {"kind": "bank", "preset": "large", "amplitude": amplitude,
             "phases": phases, "out": "out"}
    call = Call(("amplify", "--config", "bank.cfg", "--out-dir", "out"), check)
    return {"bank.cfg": cfg}, (call,), phases


def _device_char(rng: random.Random, tiny: bool) -> tuple:
    calls = []
    for preset in (("large",) if tiny else tuple(THRESHOLDS)):
        v_pi, v_po = THRESHOLDS[preset]
        level = rng.uniform(1.1, 2.0) * v_pi
        out = f"out/{preset}"
        calls += [
            Call(("cv-sweep", "--preset", preset, "--n-points", "1001",
                  "--out-dir", f"{out}/cv"),
                 {"kind": "cv", "v_pi": v_pi, "v_po": v_po, "out": f"{out}/cv"}),
            Call(("transient", "--preset", preset, "--level-V", repr(level),
                  "--out-dir", f"{out}/transient"),
                 {"kind": "transient", "level": level, "out": f"{out}/transient"}),
            Call(("device-report", "--preset", preset, "--out-dir", f"{out}/report"),
                 {"kind": "report", "out": f"{out}/report"}),
        ]
    return {}, tuple(calls), 0


_GENERATORS = {"sine-long": _sine_long, "sweep-50": _sweep_50,
             "bank-m100": _bank_m100, "device-char": _device_char}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's inputs for this seed; ``tiny`` shrinks it for the tests."""
    files, calls, phases = _GENERATORS[name](random.Random(f"{name}:{seed}"), tiny)
    return Workload(name, seed, files, calls, phases)
