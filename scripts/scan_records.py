#!/usr/bin/env python3
"""Scan maximal-gap records up to a configurable bound and diff them
against the bundled published list.

With --limit 1e9 (2.6-3.0 CPU s and 40 MB on one core of a 2-core Intel
Xeon with numpy 2.4.6) this reproduces the first 30 published records
exactly; any divergence is printed and exits 1.  Exit codes follow the
gaplab CLI otherwise: 2 for a bad --limit, 4 when the output cannot be
written (a closed pipe, say).
"""

import argparse
import os
import sys
import time

from gaplab import gaps, reference
from gaplab.cli import IO_ERROR, _parse_count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=_parse_count, default=10**8)
    args = ap.parse_args()

    try:
        gaps._scan_plan(args.limit)  # the library's own checks; sieves nothing
    except ValueError as exc:
        ap.error(str(exc))

    t0 = time.perf_counter()
    table = gaps.max_gap_records(args.limit)
    elapsed = time.perf_counter() - t0

    bundled = reference.load_bundled_table()
    expected = [(g, p) for g, p in bundled.records if p + g < args.limit]
    got = [(rec.g, rec.p_L) for rec in table.records]
    try:
        print(f"# {len(table.records)} records below {args.limit} ({elapsed:.2f}s)")
        print(f"{'g':>6} {'p_L':>20} {'R':>14}")
        for rec in table.records:
            print(f"{rec.g:>6} {rec.p_L:>20} {rec.r:>14.6g}")
        if got == expected:
            print(f"# matches the published list prefix ({len(expected)} records)")
        else:
            print("# MISMATCH against the published list:")
            print(f"#   computed : {got}")
            print(f"#   published: {expected}")
        sys.stdout.flush()
    except OSError as exc:
        print(f"{ap.prog}: {exc}", file=sys.stderr)
        # the interpreter flushes stdout again at exit; let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(IO_ERROR)
    if got != expected:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
