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
Output bytes depend only on the semantic parameters (never on --threads or
--segment), so reruns diff clean.  Exit codes: 0 ok, 2 usage, 3 bad or
inconsistent data, 4 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass
from typing import IO, Sequence

import gaplab
from gaplab import gaps, heuristics, reference, sieve
from gaplab.heuristics import DomainError, GapModel, GapModelKind

USAGE_ERROR = 2
DATA_ERROR = 3
IO_ERROR = 4

# Most rows table1 formats and writes at once: enough to amortise the numpy
# and write calls, few enough that a chunk's arrays, Python objects and joined
# text stay near 1 MB whatever the segment length.
_TABLE1_CHUNK_ROWS = 1 << 13

_PREDICT_MODELS = {
    "r_kernel": (heuristics.r_kernel, False),
    "r_shanks": (heuristics.r_shanks, False),
    "r_cramer_form": (heuristics.r_cramer_form, False),
    "pf_wolf": (heuristics.pf_wolf, False),
    "pf_shanks": (heuristics.pf_shanks, False),
    "g_wolf": (heuristics.g_wolf, True),
    "g_gauss": (heuristics.g_gauss, False),
    "g_cramer": (heuristics.g_cramer, False),
    "granville": (heuristics.granville_bound, False),
    "r_main_wolf": (
        lambda x, pi_x: heuristics.r_main(x, GapModel(GapModelKind.WOLF_EXACT_PI), pi_x),
        True,
    ),
    "r_main_gauss": (
        lambda x: heuristics.r_main(x, GapModel(GapModelKind.WOLF_GAUSS)),
        False,
    ),
    "r_main_cramer": (
        lambda x: heuristics.r_main(x, GapModel(GapModelKind.CRAMER)),
        False,
    ),
    "r_main_granville": (
        lambda x: heuristics.r_main(x, GapModel(GapModelKind.GRANVILLE)),
        False,
    ),
}

_FIGURE_MODELS = ("auto", "wolf_exact_pi", "wolf_gauss", "cramer", "granville")

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
    segment_length: int | None = None
    threads: int = 1
    prime_limit: int = 10**6
    emit_gnuplot: str | None = None
    predict_model: str | None = None
    x: float = 0.0
    pi_x: float | None = None

    def __post_init__(self) -> None:
        """Reject bad input before any output is opened or written."""
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.subcommand in _SCANS and self.limit < 3:
            raise ValueError("limit must be >= 3")
        if self.subcommand == "constants" and self.prime_limit < 3:
            raise ValueError("prime_limit must be >= 3")
        if self.segment_length is not None:
            sieve._segment_length(self.segment_length)
        if self.subcommand == "predict":
            for name, value in (("x", self.x), ("pi_x", self.pi_x)):
                if value is not None and not math.isfinite(value):
                    raise DomainError(f"{name} must be finite, got {value}")
            if self.pi_x is None and _PREDICT_MODELS[self.predict_model][1]:
                raise DomainError(f"model {self.predict_model} requires pi_x")


def _parse_count(text: str) -> int:
    """Integer argument, plain ('1000000') or scientific ('1e9')."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value != int(value):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _scan_kwargs(cfg: RunConfig) -> dict:
    return {"segment_length": cfg.segment_length, "threads": cfg.threads}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _header(out: IO[str], cfg: RunConfig, *fields: str) -> None:
    out.write(f"# gaplab {cfg.subcommand} v{gaplab.__version__}\n")
    if fields:
        out.write("# " + " ".join(fields) + "\n")


@contextlib.contextmanager
def _open_output(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _load_reference(cfg: RunConfig) -> reference.ReferenceTable | None:
    if cfg.reference_path is None:
        return None
    with open(cfg.reference_path, "r", encoding="utf-8") as fh:
        return reference.parse_reference_table(fh, provenance=cfg.reference_path)


def _record_table(cfg: RunConfig) -> tuple[gaps.GapRecordTable, dict[int, int]]:
    """The record table, merged with ``--ref`` if given, and pi(x) for every
    record x <= limit, all from one scan."""
    ref = _load_reference(cfg)
    in_reach = [] if ref is None else [p for _, p in ref.records if p <= cfg.limit]
    result = gaps.scan_gaps(cfg.limit, pi_at=in_reach, **_scan_kwargs(cfg))
    table = gaps.GapRecordTable(
        records=result.records, source=gaps.TableSource.COMPUTED, limit=cfg.limit
    )
    if ref is not None:
        table = reference.merge_records(table, ref)
    return table, result.pi


def cmd_table1(cfg: RunConfig, out: IO[str]) -> None:
    _header(out, cfg, f"limit={cfg.limit}")
    out.write("p_n,p_n1,d_n,A_n\n")
    for p_block, q_block in gaps._pair_blocks(cfg.limit, **_scan_kwargs(cfg)):
        for lo in range(0, p_block.size, _TABLE1_CHUNK_ROWS):
            p = p_block[lo : lo + _TABLE1_CHUNK_ROWS]
            q = q_block[lo : lo + _TABLE1_CHUNK_ROWS]
            columns = (p, q, q - p, gaps.andrica_quotients(p, q))
            rows = zip(*(c.tolist() for c in columns))
            out.write("".join(f"{x},{y},{d},{a:.9f}\n" for x, y, d, a in rows))


def cmd_table2(cfg: RunConfig, out: IO[str]) -> None:
    result = gaps.scan_gaps(cfg.limit, top_k=cfg.top_k, **_scan_kwargs(cfg))
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
        f"source={table.source.value}",
        f"ref={cfg.reference_path or '-'}",
    )
    out.write("g,p_L,p_L1,R\n")
    for rec in table.records:
        out.write(f"{rec.g},{rec.p_L},{rec.p_L1},{_fmt(rec.r)}\n")


def cmd_first_gaps(cfg: RunConfig, out: IO[str]) -> None:
    occurrences = gaps.first_occurrences(cfg.limit, **_scan_kwargs(cfg))
    _header(out, cfg, f"limit={cfg.limit}")
    out.write("d,p_f\n")
    for occ in occurrences.values():
        out.write(f"{occ.d},{occ.p_f}\n")


def cmd_verify(cfg: RunConfig, out: IO[str]) -> None:
    report = gaps.verify_andrica(cfg.limit, **_scan_kwargs(cfg))
    flag = "true" if report.all_below_one else "false"
    if report.argmax_pair is None:
        at = "none"
    else:
        at = f"({report.argmax_pair.p},{report.argmax_pair.q})"
    out.write(
        f"all_below_one={flag} max_A={report.max_a:.9f} at={at} count={report.count}\n"
    )


def cmd_constants(cfg: RunConfig, out: IO[str]) -> None:
    estimate = heuristics.twin_constant(cfg.prime_limit, **_scan_kwargs(cfg))
    consts = heuristics.HeuristicConstants.from_c2(estimate.value)
    out.write(f"C2={_fmt(consts.C2)}\n")
    out.write(f"c_prime={_fmt(consts.c_prime)}\n")
    out.write(f"granville_coeff={_fmt(consts.granville_coeff)}\n")
    out.write(f"tail_bound={_fmt(estimate.tail_bound)}\n")


def cmd_predict(cfg: RunConfig, out: IO[str]) -> None:
    fn, needs_pi = _PREDICT_MODELS[cfg.predict_model]
    if needs_pi:
        value = fn(cfg.x, cfg.pi_x)
    else:
        value = fn(cfg.x)
    out.write(f"{_fmt(value)}\n")


def _predicted_gap(cfg: RunConfig, x: int, pi_at: dict[int, int]) -> float:
    """Modelled G(x) at a record point; nan where the model is undefined."""
    try:
        if cfg.model == "auto":
            if x <= cfg.limit:
                return heuristics.g_wolf(x, pi_at[x])
            return heuristics.g_gauss(x)
        model = GapModel(GapModelKind(cfg.model))
        return model.evaluate(x, pi_at.get(x))
    except DomainError:
        return math.nan


def cmd_figure1(cfg: RunConfig, out: IO[str]) -> None:
    table, pi_at = _record_table(cfg)
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
            g = _predicted_gap(cfg, rec.p_L, pi_at)
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
        p.add_argument("--segment", dest="segment_length", type=_parse_count, default=None,
                       help="sieve segment length in odd entries")
        p.add_argument("--threads", type=int, default=1, help="sieve worker threads")

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
    p.add_argument("--segment", dest="segment_length", type=_parse_count, default=None)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("predict", help="evaluate one model at a point")
    p.add_argument("predict_model", metavar="model", choices=sorted(_PREDICT_MODELS),
                   help="one of: " + ", ".join(sorted(_PREDICT_MODELS)))
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
            p.add_argument("--model", choices=_FIGURE_MODELS, default="auto")
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
    try:
        cfg = RunConfig(**vars(namespace))
        with _open_output(cfg.output_path) as out:
            _COMMANDS[cfg.subcommand](cfg, out)
        _emit_gnuplot(cfg)
    except DomainError as exc:
        print(f"gaplab: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except reference.ReferenceTableError as exc:
        print(f"gaplab: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"gaplab: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"gaplab: {exc}", file=sys.stderr)
        return IO_ERROR
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
