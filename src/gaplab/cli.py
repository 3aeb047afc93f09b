"""Command-line surface.

Subcommands::

    table1      consecutive-prime pairs with their Andrica differences (CSV)
    table2      the k largest Andrica differences below a limit (CSV)
    records     maximal-gap record table, optionally merged with a reference file
    first-gaps  first occurrence of every gap value below a limit
    verify      check every Andrica difference below a limit against 1
    constants   twin-prime constant and friends from a truncated product
    predict     evaluate one closed-form model at a point
    figure1     (x, observed R, predicted R) per record -- main-model figure data
    figure2     (x, observed R, Cramer form, Shanks form) per record

Every CSV starts with '#'-prefixed metadata followed by a column-name row.
Output bytes depend only on the semantic parameters, so reruns diff clean.
--threads is accepted and checked (at least 1) for existing command lines,
but every scan runs on one thread.  Exit codes: 0 ok, 2 usage, 3 bad or
inconsistent data, 4 I/O; a failing command removes the files it created.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

import gaplab
from gaplab import gaps, heuristics, reference
from gaplab.heuristics import GAP_FORMS, MODELS, DomainError

USAGE_ERROR = 2
DATA_ERROR = 3
IO_ERROR = 4

# Largest magnitude _parse_count turns into an int from scientific notation.
_MAX_COUNT = 2**64 - 1

# Most rows table1 renders and writes at once: enough to amortise the numpy
# and write calls, few enough that a chunk's byte matrix and int64 temporaries
# stay well under 1 MB.
_TABLE1_CHUNK_ROWS = 1 << 13

_THREADS_HELP = "accepted for compatibility (at least 1); scans run on one thread"


# Subcommands that scan the pairs with q < --limit.
_SCANS = frozenset(
    {"table1", "table2", "records", "first-gaps", "verify", "figure1", "figure2"}
)


@dataclass
class RunConfig:
    subcommand: str
    limit: int = 10**6
    top_k: int = 10
    model: str = "auto"
    g_source: str = "model"
    reference_path: str | None = None
    output_path: str | None = None
    threads: int = 1
    prime_limit: int = 10**6
    emit_gnuplot: str | None = None
    predict_model: str | None = None
    x: float = 0.0
    pi_x: float | None = None

    def __post_init__(self) -> None:
        """Reject bad input before any output is opened or written: the library's
        own checks, which sieve nothing, ``predict``'s input and ``threads``."""
        if self.subcommand in _SCANS:
            gaps._scan_plan(self.limit, self.top_k)
        elif self.subcommand == "constants":
            heuristics._twin_blocks(self.prime_limit)
        elif self.subcommand == "predict":
            for name, value in (("x", self.x), ("pi_x", self.pi_x)):
                if value is not None and not math.isfinite(value):
                    raise DomainError(f"{name} must be finite, got {value}")
            if self.pi_x is None and MODELS[self.predict_model][1]:
                raise DomainError(f"model {self.predict_model} requires pi_x")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def _parse_count(text: str) -> int:
    """Integer argument, plain ('1000000') or scientific ('1e9'), parsed exactly."""
    try:
        return int(text)
    except ValueError:
        pass
    import decimal  # only for scientific input: the import costs ~9 ms and 0.4 MB

    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    # before any rounding or int(): '1e999999999' would have a billion digits
    if value.copy_abs() > _MAX_COUNT:
        raise argparse.ArgumentTypeError(f"out of range: {text!r}")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _header(out: IO[str], cfg: RunConfig, *fields: str) -> None:
    out.write(f"# gaplab {cfg.subcommand} v{gaplab.__version__}\n")
    if fields:
        out.write("# " + " ".join(fields) + "\n")


class _LazyOutput:
    """The file at ``path``, opened (and so truncated) on the first write."""

    def __init__(self, path: str) -> None:
        self.path, self.fh = path, None

    def write(self, text: str) -> int:
        if self.fh is None:
            self.fh = open(self.path, "w", encoding="utf-8")
        return self.fh.write(text)


@contextlib.contextmanager
def _open_output(path: str | None):
    """stdout, or ``path`` opened on the first write, so an error raised
    before any output leaves an existing file untouched."""
    if path is None:
        yield sys.stdout
        return
    out = _LazyOutput(path)
    try:
        yield out
        out.write("")  # a command that wrote nothing still creates the file
    finally:
        if out.fh is not None:
            out.fh.close()


def _load_reference(cfg: RunConfig) -> reference.ReferenceTable | None:
    if cfg.reference_path is None:
        return None
    with open(cfg.reference_path, "r", encoding="utf-8") as fh:
        return reference.parse_reference_table(fh)


def _record_table(cfg: RunConfig) -> tuple[gaps.GapRecordTable, dict[int, int]]:
    """The record table, merged with ``--ref`` if given, and pi(x) for every
    record x <= limit, all from one scan."""
    ref = _load_reference(cfg)
    result = gaps.scan_gaps(cfg.limit)
    table = gaps.GapRecordTable(records=result.records)
    if ref is None:
        return table, result.pi
    table = reference.merge_records(table, ref)
    # A reference record in reach (p_L <= limit) that the scan did not find
    # would have failed the merge, on its p or on monotonicity, unless its
    # pair closes at or past the limit.  No prime lies inside a reference
    # gap, so p_L is then the last prime below the limit, with pi(p_L) the
    # number of pairs scanned, or the limit itself, with one more.
    for rec in table.records:
        if rec.p_L <= cfg.limit and rec.p_L not in result.pi:
            result.pi[rec.p_L] = result.pair_count + (rec.p_L == cfg.limit)
    return table, result.pi


def _table1_rows(p: np.ndarray, q: np.ndarray, a: np.ndarray) -> bytes:
    """The rows ``f"{p},{q},{q - p},{a:.9f}\\n"`` of a non-empty chunk, as ASCII.

    ``p <= q`` are int64 in [0, 2^63) and ``a`` finite doubles in [0, 9e9).
    Each field is written right-aligned into an (n, width) uint8 matrix, its
    leading zeros left as 0 pad bytes, which the final mask drops in row order.

    A is printed from N = round(a * 10^9).  For r = fl(a * 1e9) < 10^9 the
    rounding of the product moves r by at most 2^-53 * 10^9 < 1.2e-7, so
    where frac(r) is more than 1e-6 from one half the exact product lies on
    the same side of it, and rint(r) is the N that ``f"{a:.9f}"`` prints.
    (The margin is generous: k + 1/2 is a double and rounding is monotone,
    so r can land on a half but never cross one.)  Rows near a tie, and rows
    whose N reaches 10^9 (A that rounds to 1 or more), take N from Python's
    own formatting.
    """
    r = a * 1e9
    n = np.rint(r)
    fast = (np.abs(r - np.floor(r) - 0.5) > 1e-6) & (n < 10**9)
    scaled = n.astype(np.int64)
    slow = np.flatnonzero(~fast)
    scaled[slow] = [int(format(x, ".9f").replace(".", "")) for x in a[slow].tolist()]
    # (values, digits always shown, the byte after the field)
    fields = (
        (p, 1, ","),
        (q, 1, ","),
        (q - p, 1, ","),
        (scaled // 10**9, 1, "."),
        (scaled % 10**9, 9, "\n"),
    )
    widths = [max(len(str(int(values.max()))), shown) for values, shown, _ in fields]
    mat = np.empty((p.size, sum(widths) + len(fields)), dtype=np.uint8)
    stop = 0
    for (values, shown, after), width in zip(fields, widths):
        stop += width
        mat[:, stop] = ord(after)
        rest = values
        for col in range(stop - 1, stop - 1 - width, -1):
            quot = rest // 10
            digit = rest - 10 * quot
            digit += ord("0")
            if col < stop - shown:
                digit *= rest != 0  # a leading zero becomes a pad byte
            mat[:, col] = digit
            rest = quot
        stop += 1
    return mat[mat != 0].tobytes()


def cmd_table1(cfg: RunConfig, out: IO[str]) -> None:
    _header(out, cfg, f"limit={cfg.limit}")
    out.write("p_n,p_n1,d_n,A_n\n")
    for p_block, q_block in gaps._pairs(cfg.limit):
        for lo in range(0, p_block.size, _TABLE1_CHUNK_ROWS):
            p = p_block[lo : lo + _TABLE1_CHUNK_ROWS]
            q = q_block[lo : lo + _TABLE1_CHUNK_ROWS]
            rows = _table1_rows(p, q, gaps.andrica_quotients(p, q))
            out.write(rows.decode("ascii"))


def cmd_table2(cfg: RunConfig, out: IO[str]) -> None:
    result = gaps.scan_gaps(cfg.limit, top_k=cfg.top_k)
    _header(out, cfg, f"limit={cfg.limit}", f"top={cfg.top_k}")
    out.write("n,p_n,p_n1,d_n,A_n\n")
    for pt in result.top:
        n = result.pi[pt.gap.p] + 1
        out.write(f"{n},{pt.gap.p},{pt.gap.q},{pt.gap.d},{pt.a:.7f}\n")


def cmd_records(cfg: RunConfig, out: IO[str]) -> None:
    table, _ = _record_table(cfg)
    _header(
        out,
        cfg,
        f"limit={cfg.limit}",
        f"source={'computed' if cfg.reference_path is None else 'merged'}",
        f"ref={cfg.reference_path or '-'}",
    )
    out.write("g,p_L,p_L1,R\n")
    for rec in table.records:
        out.write(f"{rec.g},{rec.p_L},{rec.p_L1},{_fmt(rec.r)}\n")


def cmd_first_gaps(cfg: RunConfig, out: IO[str]) -> None:
    result = gaps.scan_gaps(cfg.limit, collect_first=True)
    _header(out, cfg, f"limit={cfg.limit}")
    out.write("d,p_f\n")
    for d, p_f in result.first.items():
        out.write(f"{d},{p_f}\n")


def cmd_verify(cfg: RunConfig, out: IO[str]) -> None:
    result = gaps.scan_gaps(cfg.limit)
    point = result.max_point  # None only when no pair lies below the limit
    if point is None:
        flag, max_a, at = "true", 0.0, "none"
    else:
        flag = "true" if point.a < 1.0 else "false"
        max_a, at = point.a, f"({point.gap.p},{point.gap.q})"
    out.write(
        f"all_below_one={flag} max_A={max_a:.9f} at={at} count={result.pair_count}\n"
    )


def cmd_constants(cfg: RunConfig, out: IO[str]) -> None:
    estimate = heuristics.twin_constant(cfg.prime_limit)
    consts = heuristics.HeuristicConstants.from_c2(estimate.value)
    out.write(f"C2={_fmt(consts.C2)}\n")
    out.write(f"c_prime={_fmt(consts.c_prime)}\n")
    out.write(f"granville_coeff={_fmt(consts.granville_coeff)}\n")
    out.write(f"tail_bound={_fmt(estimate.tail_bound)}\n")


def cmd_predict(cfg: RunConfig, out: IO[str]) -> None:
    fn, needs_pi = MODELS[cfg.predict_model]
    value = fn(cfg.x, cfg.pi_x) if needs_pi else fn(cfg.x)
    out.write(f"{_fmt(value)}\n")


def _predicted_gap(cfg: RunConfig, x: int, pi: dict[int, int]) -> float:
    """Modelled G(x) at a record point; nan where the model is undefined."""
    if cfg.model == "auto":
        name = "g_wolf" if x <= cfg.limit else "g_gauss"
    else:
        name = GAP_FORMS[cfg.model]
    fn, takes_pi = MODELS[name]
    try:
        return fn(x, pi[x]) if takes_pi else fn(x)
    except DomainError:
        return math.nan


def cmd_figure1(cfg: RunConfig, out: IO[str]) -> None:
    table, pi = _record_table(cfg)
    if cfg.model == "wolf_exact_pi" and any(rec.p_L > cfg.limit for rec in table.records):
        raise DomainError(
            "exact prime counts are unavailable beyond --limit; "
            "raise --limit or use --model auto / wolf_gauss"
        )
    _header(
        out,
        cfg,
        f"limit={cfg.limit}",
        f"model={cfg.model}",
        f"g_source={cfg.g_source}",
        f"ref={cfg.reference_path or '-'}",
    )
    if cfg.model == "auto":
        out.write("# auto: wolf_exact_pi for x <= limit, wolf_gauss beyond\n")
    out.write("# R_predicted is nan where the gap model is undefined (e.g. x = 2)\n")
    out.write("x,R_empirical,R_predicted\n")
    for rec in table.records:
        if cfg.g_source == "empirical":
            g = float(rec.g)
        else:
            g = _predicted_gap(cfg, rec.p_L, pi)
        predicted = heuristics.r_kernel(g) if g >= 0 else math.nan
        out.write(f"{rec.p_L},{_fmt(rec.r)},{_fmt(predicted)}\n")


def cmd_figure2(cfg: RunConfig, out: IO[str]) -> None:
    table, _ = _record_table(cfg)
    _header(
        out,
        cfg,
        f"limit={cfg.limit}",
        f"ref={cfg.reference_path or '-'}",
    )
    out.write("# R_shanks is nan where x <= e leaves the Gauss gap size undefined\n")
    out.write("x,R_empirical,R_cramer,R_shanks\n")
    for rec in table.records:
        r_cramer = heuristics.r_cramer_form(rec.p_L)
        try:
            r_sh = heuristics.r_shanks(heuristics.g_gauss(rec.p_L))
        except DomainError:
            r_sh = math.nan
        out.write(f"{rec.p_L},{_fmt(rec.r)},{_fmt(r_cramer)},{_fmt(r_sh)}\n")


_GNUPLOT_FIG1 = """\
# gnuplot script emitted by gaplab figure1
set datafile commentschars "#"
set datafile separator ","
set logscale x
set xlabel "x"
set ylabel "R(x)"
plot "{csv}" using 1:2 with points pt 6 title "records", \\
     "{csv}" using 1:3 with lines title "prediction"
"""

_GNUPLOT_FIG2 = """\
# gnuplot script emitted by gaplab figure2
set datafile commentschars "#"
set datafile separator ","
set logscale x
set xlabel "x"
set ylabel "R(x)"
plot "{csv}" using 1:2 with points pt 6 title "records", \\
     "{csv}" using 1:3 with lines lc "red" title "Cramer form", \\
     "{csv}" using 1:4 with lines lc "green" title "Shanks form"
"""


def _emit_gnuplot(cfg: RunConfig) -> None:
    if cfg.emit_gnuplot is None:
        return
    csv_name = cfg.output_path or f"{cfg.subcommand}.csv"
    template = _GNUPLOT_FIG1 if cfg.subcommand == "figure1" else _GNUPLOT_FIG2
    with open(cfg.emit_gnuplot, "w", encoding="utf-8") as fh:
        fh.write(template.format(csv=csv_name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="prime gaps, Andrica differences and their heuristic predictors",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, limit_default: int) -> None:
        p.add_argument("--limit", type=_parse_count, default=limit_default,
                       help="scan bound (pairs with q < limit); accepts 1e9 notation")
        p.add_argument("--out", dest="output_path", default=None, help="output file (default stdout)")
        p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    p = sub.add_parser("table1", help="pairs with Andrica differences, 9 decimals")
    add_common(p, 114)

    p = sub.add_parser("table2", help="top-k Andrica differences, 7 decimals")
    add_common(p, 250)
    p.add_argument("--top", dest="top_k", type=int, default=10, help="how many rows")

    p = sub.add_parser("records", help="maximal-gap record table")
    add_common(p, 10**6)
    p.add_argument("--ref", dest="reference_path", default=None, help="reference table to merge")

    p = sub.add_parser("first-gaps", help="first occurrence of every gap value")
    add_common(p, 10**6)

    p = sub.add_parser("verify", help="check all Andrica differences below limit")
    add_common(p, 10**6)

    p = sub.add_parser("constants", help="twin-prime constant and derived constants")
    p.add_argument("--prime-limit", dest="prime_limit", type=_parse_count, default=10**6,
                   help="truncation bound of the twin-prime product")
    p.add_argument("--out", dest="output_path", default=None)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    p = sub.add_parser("predict", help="evaluate one model at a point")
    p.add_argument("predict_model", metavar="model", choices=sorted(MODELS),
                   help="one of: " + ", ".join(sorted(MODELS)))
    p.add_argument("x", type=float)
    p.add_argument("pi_x", type=float, nargs="?", default=None,
                   help="exact or approximate prime count, for the pi-based models")
    p.add_argument("--out", dest="output_path", default=None)

    for name in ("figure1", "figure2"):
        p = sub.add_parser(name, help=f"emit {name} data as CSV")
        add_common(p, 10**6)
        p.add_argument("--ref", dest="reference_path", default=None)
        p.add_argument("--emit-gnuplot", dest="emit_gnuplot", default=None,
                       help="also write a gnuplot script to this path")
        if name == "figure1":
            p.add_argument("--model", choices=("auto", *GAP_FORMS),
                           default="auto")
            p.add_argument("--g-source", dest="g_source", choices=("model", "empirical"),
                           default="model", help="feed the kernel the modelled or the observed gap")

    return parser


_COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "records": cmd_records,
    "first-gaps": cmd_first_gaps,
    "verify": cmd_verify,
    "constants": cmd_constants,
    "predict": cmd_predict,
    "figure1": cmd_figure1,
    "figure2": cmd_figure2,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    created: list[str] = []  # output paths made by the check below
    try:
        cfg = RunConfig(**vars(namespace))
        # Checking each output path first makes one that cannot be created
        # fail before the command runs; an existing file is not truncated.
        for path in (cfg.emit_gnuplot, cfg.output_path):
            if path is None:
                continue
            try:
                open(path, "x", encoding="utf-8").close()
                created.append(path)
            except FileExistsError:
                open(path, "a", encoding="utf-8").close()
        gnuplot, output = cfg.emit_gnuplot, cfg.output_path
        if gnuplot is not None and output is not None and os.path.samefile(gnuplot, output):
            # the script, written last, would replace the data
            raise ValueError("--out and --emit-gnuplot name the same file")
        with _open_output(cfg.output_path) as out:
            _COMMANDS[cfg.subcommand](cfg, out)
        _emit_gnuplot(cfg)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except ValueError as exc:  # DomainError and ReferenceTableError among them
        print(f"gaplab: {exc}", file=sys.stderr)
        code = DATA_ERROR if isinstance(exc, reference.ReferenceTableError) else USAGE_ERROR
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the interpreter flushes stdout again at exit; let that write go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"gaplab: {exc}", file=sys.stderr)
        code = IO_ERROR
    else:
        return 0
    for path in created:  # a failed command leaves no file of its own behind
        with contextlib.suppress(OSError):
            os.remove(path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
