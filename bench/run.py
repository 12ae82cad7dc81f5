"""nemsim benchmark: run one workload through the public CLI and report metrics.

Usage, from the repository root::

    python3 bench/run.py --workload sine-long --seed 1 --seconds 20 --trace 0

Each repetition is a fresh interpreter (``worker.py``), because a CLI user
pays the import on every command. Repetitions run back to back until
``--seconds`` is spent (at least three). All times are host wall time.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions: ``setup_s`` (worker spawn to ``nemsim.cli`` imported), ``run_s``
(the workload's ``nemsim.cli.main`` calls, scenario parse to artifacts
written, no warm-up) and ``peak_rss_mb`` (the worker's maximum RSS).
``--trace 1`` alternates untraced repetitions with traced ones (spans around
each layer's public functions, ``python -X importtime`` for the imports) and
reports the per-layer metrics of ``spans.PER_LAYER``.

Every call's artifacts are checked (``checks.py``) and must be
byte-identical across the repetitions of one seed; a call that exits
non-zero or fails either test counts as failed. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine, the seed, the sample counts and the details behind the
medians. Work files go to ``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPS = 3
WORKER_TIMEOUT_S = 45
GRACE_S = 30  # past --seconds, stop even short of MIN_REPS (hung or crashing workers)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe() -> None:
    """Import the program once, untimed (this also compiles its bytecode), and
    stop unless it is the copy in this checkout's ``src``."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import nemsim.cli; print(nemsim.cli.__file__)"],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("nemsim.cli import timed out")
    origin = Path(proc.stdout.strip() or "/").resolve()
    if proc.returncode != 0 or not origin.is_relative_to(SRC.resolve()):
        sys.exit(f"cannot import nemsim from {SRC}: {proc.stderr.strip()[-500:]}")


def run_rep(workdir: Path, traced: bool) -> dict | None:
    """One repetition; None if the worker crashed or timed out."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           str(BENCH / "worker.py"), "spec.json", str(int(traced))]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    report = json.loads(proc.stdout.splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux: one system-wide clock for both processes
    report["setup_s"] = report["imported"] - spawned
    report["traced"] = traced
    if traced:
        report["layers"].update(spans.parse_importtime(proc.stderr))
    return report


def prepare(wl: workloads.Workload, workdir: Path) -> None:
    """A fresh work directory holding the workload's input files and spec."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, text in wl.files.items():
        (workdir / name).write_text(text)
    (workdir / "spec.json").write_text(json.dumps(wl.to_json()))


def measure(wl: workloads.Workload, seconds: float, traced: bool, workdir: Path) -> list:
    """Repetitions until ``seconds`` are spent; traced runs alternate modes."""
    prepare(wl, workdir)
    modes = (False, True) if traced else (False,)
    reps: list = []
    start = time.perf_counter()
    while True:
        for mode in modes:
            reps.append((mode, run_rep(workdir, mode)))
        elapsed = time.perf_counter() - start
        per_round = elapsed / (len(reps) / len(modes))
        enough = len(reps) >= MIN_REPS * len(modes) or elapsed > seconds + GRACE_S
        if enough and elapsed + per_round > seconds:
            return reps


def tally(reps: list, n_calls: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): a call fails on a non-zero exit, a failed
    check, or artifacts that differ from the first repetition's."""
    attempted = failed = 0
    messages: list[str] = []
    reference = None
    for _, rep in reps:
        attempted += n_calls
        if rep is None:
            failed += n_calls
            messages.append("worker crashed or timed out")
            continue
        reference = reference or rep["hashes"]
        for i, errors in enumerate(rep["failures"]):
            if rep["hashes"][i] != reference[i]:
                errors = errors + [f"call {i}: artifacts differ from the first repetition"]
            if errors:
                failed += 1
                messages.extend(errors)
    return attempted, failed, messages


def _value(x, unit: str) -> dict:
    return {"value": x, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    probe()
    wl = workloads.make(args.workload, args.seed)
    reps = measure(wl, args.seconds, bool(args.trace), WORK / wl.name)
    attempted, failed, messages = tally(reps, len(wl.calls))
    done = [rep for _, rep in reps if rep is not None]
    plain = [rep for rep in done if not rep["traced"]]
    if not plain:
        sys.exit("no repetition completed: " + "; ".join(messages[:5]))
    run_s = [rep["run_s"] for rep in plain]
    run_median = statistics.median(run_s)
    deviations = [rep["oracle_err_max"] for rep in done if rep["oracle_err_max"] is not None]
    oracle_err_max = max(deviations) if deviations else None

    if args.trace:
        traced = [rep for rep in done if rep["traced"]]
        if not traced:
            sys.exit("no traced repetition completed: " + "; ".join(messages[:5]))
        layers = spans.median_metrics([rep["layers"] for rep in traced])
        layers["trace.overhead_s"] = (statistics.median(rep["run_s"] for rep in traced)
                                      - run_median)
        layers["phases_per_s"] = wl.phases / run_median
        layers["oracle_err_max"] = oracle_err_max
        metrics = {k: _value(layers[k], unit) for k, (unit, _) in spans.PER_LAYER.items()}
        samples = {"untraced": len(plain), "traced": len(traced)}
        missing = sorted({m for rep in traced for m in rep["missing"]})
    else:
        metrics = {
            "setup_s": _value(statistics.median(rep["setup_s"] for rep in plain), "s"),
            "run_s": _value(run_median, "s"),
            "peak_rss_mb": _value(
                statistics.median(rep["peak_rss_kb"] / 1024 for rep in plain), "MiB"),
        }
        samples = {"untraced": len(plain)}
        missing = []

    record = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")},
        "samples": samples,
        "phases": wl.phases,
        "run_s_all": run_s,
        "setup_s_all": [rep["setup_s"] for rep in plain],
        "phases_per_s": wl.phases / run_median,
        "failed_frac": failed / attempted,
        "oracle_err_max": oracle_err_max,
        "missing_targets": missing,
        "failures": messages[:20],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (WORK / wl.name / "result.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
