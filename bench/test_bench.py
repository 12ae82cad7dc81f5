"""Tests of the benchmark itself: every workload at a tiny size.

Run from the repository root with ``python -m pytest bench``. Each workload
runs once untraced and once traced in worker processes; the tests check
that the outputs pass, that doctored outputs fail, and that the traced
counts are non-zero exactly where the workload exercises a layer.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

ENGINE = ("sine-long", "sweep-50", "bank-m100")
sys.path.insert(0, str(run.SRC))  # the checks read the oracle from the program


@pytest.fixture(scope="module", params=workloads.NAMES)
def tiny(request, tmp_path_factory):
    """(workload, work dir, untraced report, traced report) at tiny size."""
    wl = workloads.make(request.param, seed=7, tiny=True)
    workdir = tmp_path_factory.mktemp(request.param)
    run.prepare(wl, workdir)
    traced = run.run_rep(workdir, traced=True)
    plain = run.run_rep(workdir, traced=False)
    return wl, workdir, plain, traced


def test_workloads_are_seeded_and_fixed_in_size():
    phases = {"sine-long": 4040, "sweep-50": 2000,
              "bank-m100": 4 * workloads.BANK_PERIODS, "device-char": 0}
    for name in workloads.NAMES:
        one, again, other = (workloads.make(name, s) for s in (1, 1, 2))
        assert one == again
        assert one.calls != other.calls
        assert one.phases == other.phases == phases[name]
        assert not any("--jobs" in call.argv for call in one.calls)


def test_tiny_workload_passes(tiny):
    wl, _, plain, traced = tiny
    assert plain is not None and traced is not None
    attempted, failed, messages = run.tally([(False, plain), (True, traced)], len(wl.calls))
    assert (attempted, failed, messages) == (2 * len(wl.calls), 0, [])
    assert plain["run_s"] > 0 and plain["peak_rss_kb"] > 0


def test_traced_counts_follow_the_layers(tiny):
    wl, _, _, traced = tiny
    layers = traced["layers"]
    computed_by_run = {"trace.overhead_s", "phases_per_s", "oracle_err_max"}
    assert set(layers) == set(spans.PER_LAYER) - computed_by_run
    assert traced["missing"] == []
    for key in ("ioutil.bytes_written", "ioutil.format_s", "ioutil.write_s",
                "device.calibrate_calls", "cli.self_s", "nemsim.mech.import_s",
                "scipy.optimize.import_s", "numpy.import_s"):
        assert layers[key] > 0, key
    engine = wl.name in ENGINE
    assert layers["scnet.phases"] == wl.phases
    for key in ("scnet.fp_iters", "scnet.islands_calls", "scnet.validate_calls",
                "scnet.simulate_calls", "scnet.phase_s", "amp.runs", "mech.qeq_calls",
                "scnet.partition_reuse"):
        assert (layers[key] > 0) == engine, key
    for key in ("mech.rootfind_calls", "mech.ivp_calls", "mech.cv_sweep_s",
                "mech.transient_s"):
        assert (layers[key] > 0) != engine, key
    assert layers["scnet.conservation_err_max"] <= 1e-15
    assert (layers["scenario.parse_s"] > 0) == (wl.name in ("sine-long", "bank-m100"))
    if wl.name == "sweep-50":
        assert layers["amp.runs"] == len(wl.calls[0].check["amplitudes"])


def _scale_column(path: Path, column: str, factor: float, rows=slice(None)) -> None:
    with open(path, newline="") as fh:
        table = list(csv.DictReader(fh))
    for row in table[rows]:
        row[column] = repr(float(row[column]) * factor)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(table[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(table)


def _scale_summary(path: Path, key: str, factor: float) -> None:
    doc = json.loads(path.read_text())
    doc[key] *= factor
    path.write_text(json.dumps(doc))


def _doctor(wl, out: Path) -> None:
    """Put a 1% error into the output each check guards."""
    if wl.name == "sine-long":
        _scale_column(out / "waveforms.csv", "vA_V", 1.01)
    elif wl.name == "sweep-50":
        _scale_column(out / "gain_sweep.csv", "gain", 1.01, slice(-1, None))
    elif wl.name == "bank-m100":
        _scale_summary(out / "summary.json", "gain_dc", 1.05)  # above the oracle
    else:
        _scale_summary(out / "large" / "cv" / "summary.json", "up_transition_V", 1.02)


def test_doctored_output_raises_failures(tiny, tmp_path):
    wl, workdir, plain, _ = tiny
    doctored = tmp_path / "doctored"
    shutil.copytree(workdir, doctored)
    _doctor(wl, doctored / "out")
    failures = [checks.check(call.check, doctored)[0] for call in wl.calls]
    assert any(failures)
    hashes = json.loads(json.dumps(plain["hashes"]))
    hashes[0]["doctored"] = "0"
    bad = dict(plain, failures=failures, hashes=hashes)
    attempted, failed, _ = run.tally([(False, plain), (False, bad)], len(wl.calls))
    assert failed >= 1 and attempted == 2 * len(wl.calls)


def test_missing_target_reads_null(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS",
                        (("nemsim.mech", "no_such_rootfinder", "mech.rootfind"),
                         ("nemsim.no_such_module", "simulate", "scnet.simulate")))
    recorder = spans.SpanRecorder()
    recorder.install()
    assert recorder.missing == ["nemsim.mech:no_such_rootfinder",
                                "nemsim.no_such_module:simulate"]
    layers = spans.span_metrics(recorder)
    for key in ("mech.rootfind_calls", "scnet.phases", "scnet.simulate_calls",
                "scnet.partition_reuse", "scnet.conservation_err_max"):
        assert layers[key] is None, key
    assert layers["mech.qeq_calls"] == 0


def test_parse_importtime_splits_setup_and_run():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       300 |        300 |     numpy",
        "import time:       100 |        400 |   nemsim.mech",
        "import time:        50 |        450 | nemsim",
        spans.RUN_START,
        "import time:        10 |         10 |   csv",
        "import time:        20 |         30 | scipy.integrate",
        spans.RUN_END,
        "import time:        99 |         99 | hashlib",
    ])
    out = spans.parse_importtime(log)
    assert out["nemsim.mech.import_s"] == pytest.approx(400e-6)
    assert out["nemsim.mech.import_self_s"] == pytest.approx(100e-6)
    assert out["numpy.import_s"] == pytest.approx(300e-6)
    assert out["scipy.integrate.import_s"] == 0.0
    assert out["run.import_s"] == pytest.approx(30e-6)


def test_benchmark_fails_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(run.BENCH, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sine-long",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
