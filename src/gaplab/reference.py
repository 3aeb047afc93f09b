"""Ingestion of published maximal-gap record tables.

Published lists reach ~1.4e18, far beyond anything a desk sieve can touch,
so they arrive as text files: one record per line, ``<gap> <prime>`` (the
prime that opens the gap), ``#`` comments, blank lines ignored, gaps in
increasing order.  Every entry is primality-checked on parse: both ends of
the gap are prime and every odd number strictly between them is composite.
The deterministic 64-bit test makes that cheap and it catches
transcription errors immediately; a record past its range (p + gap above
2^64 - 1) is a parse error.

A bundled 75-record fixture ships in ``gaplab/data/maximal_gaps.txt``; its
prefix is reproduced exactly by the package's own record scanner up to any
sieve limit, which is asserted in the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import IO

from gaplab.gaps import GapRecord, GapRecordTable, stable_sqrt_diff
from gaplab.sieve import MAX_PRIME_INPUT, is_prime


class ReferenceTableError(ValueError):
    """Base for reference-table failures."""


class ParseError(ReferenceTableError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(ReferenceTableError):
    """A parsed record is arithmetically impossible (composite, non-monotone...)."""


class ConsistencyError(ReferenceTableError):
    """Computed and reference tables disagree on a record they both cover."""


@dataclass(frozen=True)
class ReferenceTable:
    """Validated (gap, opening prime) records, ascending in both coordinates."""

    records: tuple[tuple[int, int], ...]


def _validate_records(records: list[tuple[int, int]]) -> None:
    last_g = 0
    last_p = 0
    for g, p in records:
        if g <= last_g or p <= last_p:
            raise ValidationError(
                f"record ({g}, {p}) breaks the strictly increasing order"
            )
        if not is_prime(p):
            raise ValidationError(f"record ({g}, {p}): {p} is not prime")
        if not is_prime(p + g):
            raise ValidationError(f"record ({g}, {p}): {p + g} = p + gap is not prime")
        inner = next((v for v in range(p + 1 + p % 2, p + g, 2) if is_prime(v)), None)
        if inner is not None:
            raise ValidationError(f"record ({g}, {p}): {inner} is a prime inside the gap")
        last_g, last_p = g, p


def parse_reference_table(text: str | IO[str]) -> ReferenceTable:
    """Parse and validate a record table from a string or a text file."""
    lines = (text if isinstance(text, str) else text.read()).splitlines()

    records: list[tuple[int, int]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected '<gap> <prime>', got {raw.strip()!r}")
        try:
            g, p = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {raw.strip()!r}") from None
        if g < 1 or p < 2 or p + g > MAX_PRIME_INPUT:
            raise ParseError(line_no, f"out-of-range record ({g}, {p})")
        records.append((g, p))

    _validate_records(records)
    return ReferenceTable(records=tuple(records))


_BUNDLED_NAME = "maximal_gaps.txt"


def load_bundled_table() -> ReferenceTable:
    """The packaged 75-record maximal-gap list (validated on every load)."""
    text = resources.files("gaplab").joinpath(f"data/{_BUNDLED_NAME}").read_text()
    return parse_reference_table(text)


def merge_records(computed: GapRecordTable, reference: ReferenceTable) -> GapRecordTable:
    """Union of a computed record table with a published one.

    Where both cover a gap value the opening primes must agree exactly;
    any mismatch raises :class:`ConsistencyError` listing every offender.
    """
    by_gap: dict[int, int] = {rec.g: rec.p_L for rec in computed.records}
    mismatches = []
    for g, p in reference.records:
        if g in by_gap and by_gap[g] != p:
            mismatches.append(f"gap {g}: computed p={by_gap[g]}, reference p={p}")
        else:
            by_gap.setdefault(g, p)
    if mismatches:
        raise ConsistencyError(
            "computed and reference records disagree: " + "; ".join(mismatches)
        )

    merged = []
    for g in sorted(by_gap):
        p = by_gap[g]
        merged.append(GapRecord(p_L=p, p_L1=p + g, g=g, r=stable_sqrt_diff(p, p + g)))
    try:
        return GapRecordTable(records=tuple(merged))
    except ValueError as exc:
        raise ConsistencyError(f"merged table is not a record table: {exc}") from None


def r_points_from_reference(reference: ReferenceTable) -> list[tuple[int, float]]:
    """(x, R) per reference record, R in the cancellation-free quotient form.

    This is where the quotient evaluation earns its keep: at the largest
    published record p ~ 1.4e18 the direct sqrt subtraction would retain
    no correct digits at all.
    """
    return [(p, stable_sqrt_diff(p, p + g)) for g, p in reference.records]
