#!/usr/bin/env python3
"""Run the single-line mutants of ``src/`` that the test suite must kill.

Each entry of MUTANTS names a file, one source line in it (compared without
its indentation, and found exactly once), the line that replaces it, the
tests to run, and the expected result: "killed", or "equivalent: <why>" for
a mutant no test can tell from the original.

    python3 scripts/mutants.py

copies the tree to a temporary directory, checks that the named tests pass
there unmutated, then applies one mutant at a time, runs its tests with
``pytest -x`` and prints one line per mutant.  It exits 1 when a "killed"
mutant survives, or when an "equivalent" one is killed (its reason is then
stale).  The listed mutants take about a minute in all.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    line: str  # the source line, without its indentation
    replacement: str  # likewise; it keeps the original's indentation
    tests: tuple[str, ...]
    expected: str  # "killed" or "equivalent: <why>"


GAPS, CLI = "src/gaplab/gaps.py", "src/gaplab/cli.py"
HEURISTICS, SIEVE = "src/gaplab/heuristics.py", "src/gaplab/sieve.py"
GAP_TESTS = ("tests/test_gaps.py",)
TABLE1_FAST_PATH = "fast = (np.abs(r - np.floor(r) - 0.5) > 1e-6) & (n < 10**9)"

MUTANTS = (
    Mutant(
        GAPS,
        "lo, hi = _long_gaps(mask, k)",
        "lo, hi = _long_gaps(mask, k + 1)",
        GAP_TESTS,
        "killed",
    ),
    Mutant(
        GAPS,
        "inner = (start > 0) & (stop < run.size)",
        "inner = (start >= 0) & (stop < run.size)",
        GAP_TESTS,
        "killed",
    ),
    Mutant(
        GAPS,
        "inner = (start > 0) & (stop < run.size)",
        "inner = (start > 0) & (stop <= run.size)",
        GAP_TESTS,
        "killed",
    ),
    Mutant(  # the boundary pair reads as a gap of 0, so it never counts
        GAPS,
        "d = np.concatenate(([base + 2 * int(idx[0]) - p0], 2 * (hi - lo)))",
        "d = np.concatenate(([0], 2 * (hi - lo)))",
        GAP_TESTS,
        "killed",
    ),
    Mutant(
        GAPS,
        "return n_prev + int(np.count_nonzero(mask[: idx[j]]))",
        "return n_prev + int(np.count_nonzero(mask[: idx[j] + 1]))",
        GAP_TESTS,
        "killed",
    ),
    Mutant(  # p in a fresh array while q's is alive: one more array at the peak
        GAPS,
        "n -= d[sel]  # p",
        "n = n - d[sel]  # p",
        ("tests/test_gaps.py::test_quotient_step_holds_few_segment_sized_arrays",),
        "killed",
    ),
    Mutant(
        GAPS,
        "return math.floor(max(m, 0.0) * two_root * (1 - 1e-9))",
        "return math.floor(max(m, 0.0) * two_root)",
        GAP_TESTS,
        "equivalent: the floor alone keeps the bound while m * two_root < 2^51",
    ),
    Mutant(
        CLI,
        "if gnuplot is not None and output is not None and os.path.samefile(gnuplot, output):",
        "if False:",
        ("tests/test_cli.py",),
        "killed",
    ),
    Mutant(
        CLI,
        TABLE1_FAST_PATH,
        TABLE1_FAST_PATH.replace("1e-6", "0"),
        ("tests/test_cli.py::test_table1_fraction_rule_matches_format",),
        "equivalent: k + 1/2 is a double and rounding is monotone, so fl(a * 1e9)"
        " never crosses a half; only r exactly at one is ambiguous",
    ),
    Mutant(  # a row whose r is exactly at a half trusts rint(r)
        CLI,
        TABLE1_FAST_PATH,
        "fast = n < 10**9",
        ("tests/test_cli.py::test_table1_fraction_rule_matches_format",),
        "killed",
    ),
    Mutant(  # A that rounds to exactly 1 skips Python's formatting
        CLI,
        TABLE1_FAST_PATH,
        TABLE1_FAST_PATH.replace("n < 10**9", "n <= 10**9"),
        ("tests/test_cli.py::test_table1_formats_only_ties_and_a_past_one_in_python",),
        "killed",
    ),
    Mutant(
        CLI,
        "digit *= rest != 0  # a leading zero becomes a pad byte",
        "pass",
        ("tests/test_cli.py::test_table1_digit_fields_match_str",),
        "killed",
    ),
    Mutant(
        HEURISTICS,
        "if factor < sys.float_info.min:",
        "if False:",
        ("tests/test_heuristics.py::test_kernels_print_12_true_digits_or_raise",),
        "killed",
    ),
    Mutant(  # a base prime inside the first segment marks itself
        SIEVE,
        "np.maximum(off, (primes * primes - first) >> 1, out=off)",
        "pass",
        ("tests/test_sieve.py::test_tiny_segments_from_zero_keep_base_primes",),
        "killed",
    ),
    Mutant(  # searchsorted casts the whole uint32 cache to compare a Python int
        SIEVE,
        'return primes[: np.searchsorted(primes, np.uint32(bound), side="right")]',
        'return primes[: np.searchsorted(primes, bound, side="right")]',
        ("tests/test_sieve.py::test_far_window_transients_stay_small",),
        "killed",
    ),
    Mutant(  # -first % primes on uint32 primes: a negative Python int overflows
        SIEVE,
        "chunk = primes[at : at + _LARGE_CHUNK].astype(np.int64)",
        "chunk = primes[at : at + _LARGE_CHUNK]",
        ("tests/test_sieve.py::test_far_windows_against_is_prime",),
        "killed",
    ),
    Mutant(  # composites whose factors all lie above the stored bound survive
        SIEVE,
        "_cross_large(mask, first, primes)",
        "pass",
        ("tests/test_sieve.py::test_streamed_base_primes_against_is_prime",),
        "killed",
    ),
    Mutant(  # a doubled store starts with garbage where its primes should be
        SIEVE,
        "grown[:count] = self._buffer[:count]",
        "pass",
        ("tests/test_sieve.py::test_base_primes_grow_consistently_across_threads",),
        "killed",
    ),
    Mutant(  # a 10-digit field wraps in 32 bits
        CLI,
        "rest = values.astype(np.uint32) if width <= 9 else values",
        "rest = values.astype(np.uint32) if width <= 10 else values",
        ("tests/test_cli.py::test_table1_ten_digit_fields",),
        "killed",
    ),
)


def locate(root: pathlib.Path, mutant: Mutant) -> tuple[list[str], int]:
    """The lines of the mutant's file and the index of its one source line."""
    lines = (root / mutant.path).read_text(encoding="utf-8").splitlines(keepends=True)
    at = [i for i, text in enumerate(lines) if text.strip() == mutant.line]
    if len(at) != 1:
        raise ValueError(f"{mutant.path}: {mutant.line!r} occurs {len(at)} times, not once")
    return lines, at[0]


def _pytest(tree: pathlib.Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode across mutants
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree)])
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    for mutant in MUTANTS:
        locate(ROOT, mutant)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        every_test = tuple(sorted({t for m in MUTANTS for t in m.tests}))
        if _pytest(tree, every_test) != 0:
            print(f"the unmutated tree fails {' '.join(every_test)}", file=sys.stderr)
            return 1
        for n, mutant in enumerate(MUTANTS):
            lines, i = locate(tree, mutant)
            original = lines[i]
            indent = original[: len(original) - len(original.lstrip())]
            lines[i] = indent + mutant.replacement + "\n"
            path = tree / mutant.path
            path.write_text("".join(lines), encoding="utf-8")
            try:
                code = _pytest(tree, mutant.tests)
            finally:
                lines[i] = original
                path.write_text("".join(lines), encoding="utf-8")
            if code not in (0, 1):  # not a test failure: usage, collection or internal error
                print(f"{n}: pytest exit {code}, not a test result: {mutant.replacement!r}")
                failures += 1
                continue
            result = "survived" if code == 0 else "killed"
            as_expected = (result == "killed") == (mutant.expected == "killed")
            failures += not as_expected
            mark = "ok" if as_expected else "UNEXPECTED"
            print(f"{n}: {mark} {result} ({mutant.expected}) {mutant.path}: {mutant.replacement}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
