"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps the program's functions from outside: each target is
patched where it is looked up (``nemsim.scnet.static_equilibrium_charge`` as
well as ``nemsim.mech.static_equilibrium_voltage``), so the program itself
carries no instrumentation. Spans (name, start, end, parent) stay in memory
and are written out when the repetition ends. A target that no longer exists
is listed in ``missing`` and every metric that depends on it reads null.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

# (module, attribute path where the name is looked up, span name). The span
# name's first component is the layer the time is charged to.
TARGETS = (
    ("nemsim.cli", "parse_scenario", "scenario.parse"),
    ("nemsim.device", "DeviceParams.from_geometry", "device.calibrate"),
    ("nemsim.cli", "compare_to_reference", "device.compare"),
    ("nemsim.cli", "build_amp", "amp.build"),
    ("nemsim.cli", "dynamic_range", "amp.dynamic_range"),
    ("nemsim.amp", "run_dc", "amp.run_dc"),
    ("nemsim.amp", "run_sine", "amp.run_sine"),
    ("nemsim.amp", "summary", "amp.summary"),
    ("nemsim.cli", "gain_sweep", "amp.gain_sweep"),
    ("nemsim.amp", "simulate", "scnet.simulate"),
    ("nemsim.scnet", "solve_phase", "scnet.solve_phase"),
    ("nemsim.scnet", "islands", "scnet.islands"),
    ("nemsim.scnet", "Network.validate", "scnet.validate"),
    ("nemsim.scnet", "static_equilibrium_charge", "mech.qeq"),
    ("nemsim.scnet", "static_equilibrium_voltage", "mech.veq"),
    ("nemsim.mech", "static_equilibrium_voltage", "mech.veq"),
    ("nemsim.mech", "brentq", "mech.rootfind"),
    ("nemsim.mech", "solve_ivp", "mech.ivp"),
    ("nemsim.cli", "cv_sweep", "mech.cv_sweep"),
    ("nemsim.cli", "transient", "mech.transient"),
    ("nemsim.scnet", "SimResult.waveform_csv", "ioutil.format"),
    ("nemsim.scnet", "SimResult.islands_csv", "ioutil.format"),
    ("nemsim.mech", "CVCurve.to_csv", "ioutil.format"),
    ("nemsim.mech", "TransientTrace.to_csv", "ioutil.format"),
    ("nemsim.amp", "GainReport.to_csv", "ioutil.format"),
    ("nemsim.cli", "dump_json", "ioutil.format"),
    ("nemsim.cli", "atomic_write_text", "ioutil.write"),
)

IMPORT_MODULES = ("nemsim", "nemsim.errors", "nemsim.ioutil", "nemsim.device",
                  "nemsim.mech", "nemsim.scnet", "nemsim.amp", "nemsim.scenario",
                  "nemsim.cli")
IMPORT_DEPENDENCIES = ("numpy", "scipy", "scipy.integrate", "scipy.optimize")
RUN_START = "nemsim-bench: run start"
RUN_END = "nemsim-bench: run end"

# per-layer metric -> (unit, better); the order is the order of the report
PER_LAYER = {
    "scnet.phases": ("count", "lower"),
    "scnet.phase_s": ("s", "lower"),
    "scnet.phase_us_p50": ("us", "lower"),
    "scnet.phase_us_p99": ("us", "lower"),
    "scnet.fp_iters": ("count", "lower"),
    "scnet.islands_calls": ("count", "lower"),
    "scnet.islands_s": ("s", "lower"),
    "scnet.validate_calls": ("count", "lower"),
    "scnet.validate_s": ("s", "lower"),
    "scnet.partition_reuse": ("ratio", "higher"),
    "scnet.simulate_calls": ("count", "lower"),
    "scnet.conservation_err_max": ("ratio", "lower"),
    "amp.runs": ("count", "lower"),
    "amp.self_s": ("s", "lower"),
    "mech.qeq_calls": ("count", "lower"),
    "mech.qeq_s": ("s", "lower"),
    "mech.veq_calls": ("count", "lower"),
    "mech.veq_s": ("s", "lower"),
    "mech.rootfind_calls": ("count", "lower"),
    "mech.ivp_calls": ("count", "lower"),
    "mech.ivp_s": ("s", "lower"),
    "mech.cv_sweep_s": ("s", "lower"),
    "mech.transient_s": ("s", "lower"),
    "device.calibrate_calls": ("count", "lower"),
    "device.calibrate_s": ("s", "lower"),
    "scenario.parse_s": ("s", "lower"),
    "ioutil.format_s": ("s", "lower"),
    "ioutil.write_s": ("s", "lower"),
    "ioutil.bytes_written": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"{m}.import_s": ("s", "lower") for m in IMPORT_MODULES + IMPORT_DEPENDENCIES},
    **{f"{m}.import_self_s": ("s", "lower") for m in IMPORT_MODULES},
    "run.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "phases_per_s": ("1/s", "higher"),
    "oracle_err_max": ("ratio", "lower"),
}

# counters read from results, with the span whose wrapper feeds them
_SIMULATE = ("scnet.simulate",)
_COUNTER_SOURCES = {"scnet.phases": _SIMULATE, "scnet.fp_iters": _SIMULATE,
                    "scnet.partitions": _SIMULATE, "scnet.conservation_err_max": _SIMULATE,
                    "amp.runs": ("amp.run_dc", "amp.run_sine", "amp.gain_sweep"),
                    "ioutil.bytes_written": ("ioutil.write",)}


class SpanRecorder:
    """In-memory spans and counters for one repetition."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index]
        self.counters: dict = defaultdict(int)
        self.missing: list[str] = []   # "module:attribute" targets not found
        self.broken: set[str] = set()  # counters whose source could not be read
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end

    def wrap(self, name: str, fn, after=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = recorder.span(name, fn, *args, **kwargs)
            if after is not None:
                # its own span, so reading results is charged to no layer
                recorder.span("trace.counters", recorder._count, after, args, out)
            return out
        return traced

    def _count(self, after, args, out) -> None:
        try:
            after(self, args, out)
        except (AttributeError, TypeError, KeyError, IndexError):
            self.broken.update(after.counters)

    def install(self) -> None:
        """Patch every target; record the ones that do not exist."""
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            after = _AFTER.get(name)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, after)))
            else:
                setattr(owner, attr, self.wrap(name, raw, after))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _after_simulate(rec: SpanRecorder, args, result) -> None:
    sols = result.solutions
    rec.counters["scnet.phases"] += len(sols)
    rec.counters["scnet.fp_iters"] += sum(s.iterations for s in sols)
    rec.counters["scnet.partitions"] += len({tuple(i.id for i in s.islands) for s in sols})
    rec.counters["scnet.conservation_err_max"] = max(
        rec.counters["scnet.conservation_err_max"], result.max_conservation_error())


def _after_run(rec: SpanRecorder, args, result) -> None:
    rec.counters["amp.runs"] += 1


def _after_sweep(rec: SpanRecorder, args, report) -> None:
    rec.counters["amp.runs"] += len(report.entries)


def _after_write(rec: SpanRecorder, args, result) -> None:
    rec.counters["ioutil.bytes_written"] += len(args[1].encode("utf-8"))


_after_simulate.counters = ("scnet.phases", "scnet.fp_iters", "scnet.partitions",
                            "scnet.conservation_err_max")
_after_run.counters = _after_sweep.counters = ("amp.runs",)
_after_write.counters = ("ioutil.bytes_written",)
_AFTER = {"scnet.simulate": _after_simulate, "amp.run_dc": _after_run,
          "amp.run_sine": _after_run, "amp.gain_sweep": _after_sweep,
          "ioutil.write": _after_write}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))]


def span_metrics(rec: SpanRecorder) -> dict:
    """Per-layer metrics of one traced repetition; null where a source is missing."""
    durations = defaultdict(list)
    covered = [0.0] * len(rec.spans)
    for name, start, end, parent in rec.spans:
        durations[name].append(end - start)
        if parent >= 0:
            covered[parent] += end - start
    self_time = defaultdict(float)
    for (name, start, end, _), child in zip(rec.spans, covered):
        self_time[name.split(".")[0]] += end - start - child
    missing = {name for module, path, name in TARGETS if f"{module}:{path}" in rec.missing}

    def total(name):
        return None if name in missing else sum(durations[name])

    def calls(name):
        return None if name in missing else len(durations[name])

    def counter(key):
        if missing.intersection(_COUNTER_SOURCES[key]) or key in rec.broken:
            return None
        return rec.counters[key]

    def phase_us(q):
        if "scnet.solve_phase" in missing:
            return None
        return _percentile([d * 1e6 for d in durations["scnet.solve_phase"]], q)

    phases, partitions = counter("scnet.phases"), counter("scnet.partitions")
    return {
        "scnet.phases": phases,
        "scnet.phase_s": total("scnet.solve_phase"),
        "scnet.phase_us_p50": phase_us(0.50),
        "scnet.phase_us_p99": phase_us(0.99),
        "scnet.fp_iters": counter("scnet.fp_iters"),
        "scnet.islands_calls": calls("scnet.islands"),
        "scnet.islands_s": total("scnet.islands"),
        "scnet.validate_calls": calls("scnet.validate"),
        "scnet.validate_s": total("scnet.validate"),
        "scnet.partition_reuse": (None if phases is None or partitions is None
                                  else 1.0 - partitions / phases if phases else 0.0),
        "scnet.simulate_calls": calls("scnet.simulate"),
        "scnet.conservation_err_max": counter("scnet.conservation_err_max"),
        "amp.runs": counter("amp.runs"),
        "amp.self_s": self_time["amp"],
        "mech.qeq_calls": calls("mech.qeq"),
        "mech.qeq_s": total("mech.qeq"),
        "mech.veq_calls": calls("mech.veq"),
        "mech.veq_s": total("mech.veq"),
        "mech.rootfind_calls": calls("mech.rootfind"),
        "mech.ivp_calls": calls("mech.ivp"),
        "mech.ivp_s": total("mech.ivp"),
        "mech.cv_sweep_s": total("mech.cv_sweep"),
        "mech.transient_s": total("mech.transient"),
        "device.calibrate_calls": calls("device.calibrate"),
        "device.calibrate_s": total("device.calibrate"),
        "scenario.parse_s": total("scenario.parse"),
        "ioutil.format_s": total("ioutil.format"),
        "ioutil.write_s": total("ioutil.write"),
        "ioutil.bytes_written": counter("ioutil.bytes_written"),
        "cli.self_s": self_time["cli"],
    }


def parse_importtime(stderr: str) -> dict:
    """Import metrics from ``python -X importtime`` output.

    Lines before the worker's run-start marker are the set-up imports: each
    listed module's cumulative and self time where it was first imported (0
    when it was not imported at set-up). Top-level imports between the run
    markers happened during the timed run; their cumulative sum is
    ``run.import_s``.
    """
    setup: dict = {}
    deferred = 0.0
    section = "setup"
    for line in stderr.splitlines():
        if line in (RUN_START, RUN_END):
            section = "run" if line == RUN_START else "after"
            continue
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:  # the header line
            continue
        name = fields[2].rstrip()
        if section == "setup":
            setup[name.strip()] = (self_us * 1e-6, cum_us * 1e-6)
        elif section == "run" and len(name) - len(name.lstrip()) == 1:  # top level
            deferred += cum_us * 1e-6
    out = {f"{m}.import_s": setup.get(m, (0.0, 0.0))[1]
           for m in IMPORT_MODULES + IMPORT_DEPENDENCIES}
    out.update({f"{m}.import_self_s": setup.get(m, (0.0, 0.0))[0] for m in IMPORT_MODULES})
    out["run.import_s"] = deferred
    return out


def median_metrics(samples: list[dict]) -> dict:
    """Median of each metric over repetitions; null if any repetition had null.
    Counts stay integers when every repetition agrees."""
    out = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        if any(v is None for v in values):
            out[key] = None
        elif all(isinstance(v, int) for v in values) and len(set(values)) == 1:
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out
