"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 worker.py SPEC.json TRACE`` from the work directory, with
the program's ``src`` on PYTHONPATH. The worker imports ``nemsim.cli``
first (set-up), then calls ``nemsim.cli.main(argv)`` for each call of the
workload (the timed run), then checks and hashes the artifacts. It prints
one JSON report line on stdout. With TRACE = 1 it records spans around the
program's layers and writes them to ``spans.jsonl``; the markers it writes
to stderr around the run let ``python -X importtime`` output be split into
set-up and run-time imports.
"""

import sys
import time


def main(imported: float) -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    recorder = None
    if sys.argv[2] == "1":
        recorder = spans.SpanRecorder()
        recorder.install()
    cli_main = nemsim.cli.main
    codes = []
    sink = io.StringIO()
    _mark(spans.RUN_START)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        for call in spec["calls"]:
            if recorder is None:
                codes.append(cli_main(call["argv"]))
            else:
                codes.append(recorder.span("cli.main", cli_main, call["argv"]))
        end = time.perf_counter()
    _mark(spans.RUN_END)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures, deviations, hashes = [], [], []
    for call, code in zip(spec["calls"], codes):
        errors, deviation = (checks.check(call["check"], Path.cwd()) if code == 0
                             else ([f"exit code {code}: {sink.getvalue()[-500:]}"], None))
        failures.append(errors)
        if deviation is not None:
            deviations.append(deviation)
        out = Path(call["check"]["out"])
        hashes.append({str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.rglob("*")) if p.is_file()})
    report = {"imported": imported, "run_s": end - start, "peak_rss_kb": peak_rss_kb,
              "failures": failures, "hashes": hashes,
              "oracle_err_max": max(deviations) if deviations else None}
    if recorder is not None:
        recorder.write("spans.jsonl")
        report["layers"] = spans.span_metrics(recorder)
        report["missing"] = recorder.missing
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


def _mark(marker: str) -> None:
    sys.stderr.write(marker + "\n")
    sys.stderr.flush()


if __name__ == "__main__":
    import nemsim.cli  # the set-up being measured
    imported = time.perf_counter()

    import contextlib
    import hashlib
    import io
    import json
    import resource
    from pathlib import Path

    import checks
    import spans
    sys.exit(main(imported))
