"""One benchmark worker process: set up gaplab, run one operation, report.

    python3 perfbench/worker.py REPORT TRACE setup
    python3 perfbench/worker.py REPORT TRACE cli <gaplab argv...>
    python3 perfbench/worker.py REPORT TRACE windows <lo:hi> ...

Set-up is ``import gaplab`` plus the tracing shim when TRACE is 1; the
monotonic time at which it finished, and the CPU seconds the process had
used by then, go into the JSON written to REPORT at exit.  ``cli`` runs
``gaplab.cli.main`` with the given argv, exactly as the ``gaplab`` console
script does, and exits with its code.  ``windows`` calls
``gaplab.sieve.primes_in_range(lo, hi)`` for each window in order, timing
each call in CPU and in wall seconds, then writes the returned arrays to
stdout as raw little-endian int64, one window after another.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    report_path, trace, kind, *args = argv
    import gaplab
    import gaplab.cli
    import numpy

    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(gaplab)
    report = {"ready": time.monotonic(), "ready_cpu": time.process_time(), "numpy": numpy.__version__}

    code = 0
    if kind == "cli":
        code = gaplab.cli.main(args)
    elif kind == "windows":
        calls, calls_wall, found = [], [], []
        for window in args:
            lo, hi = (int(v) for v in window.split(":"))
            c0, t0 = time.process_time(), time.perf_counter()
            found.append(gaplab.sieve.primes_in_range(lo, hi))
            calls.append(time.process_time() - c0)
            calls_wall.append(time.perf_counter() - t0)
        for primes in found:
            sys.stdout.buffer.write(primes.astype("<i8").tobytes())
        report.update(calls=calls, calls_wall=calls_wall, sizes=[int(primes.size) for primes in found])
    elif kind != "setup":
        raise SystemExit(f"unknown operation kind {kind!r}")
    sys.stdout.flush()

    if tracer is not None:
        report["spans"] = tracer.records()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
