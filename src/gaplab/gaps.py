"""Consecutive-prime gap scanning: Andrica differences, records, first occurrences.

The Andrica difference of a prime pair (p, q) is sqrt(q) - sqrt(p).  It is
always evaluated in the quotient form

    (q - p) / (sqrt(q) + sqrt(p))

never as a direct subtraction of square roots: near 1.4e18 both roots are
about 1.19e9 and differ by ~6e-7, so the direct form cancels away all
significance while the quotient keeps full double precision (relative
error a few 1e-16, see the test suite's extended-precision checks).

All scanners share one fold (:func:`scan_gaps`), so a single pass over
10^9 serves record extraction, the Andrica maximum, the running envelope,
first occurrences, top-k and the prime index pi(p) at once.  A pair (p, q)
belongs to a scan with bound ``limit`` iff q < limit, matching the strict
inequality used by ``prime_count``.

The fold reads each sieve segment's odd-only primality mask directly, as
T. Oliveira e Silva, S. Herzog and S. Pardi read gap records off the sieve
bitmap ("Empirical verification of the even Goldbach conjecture and
computation of prime gaps up to 4*10^18", Math. Comp. 83, 2014).  With
``idx`` the indices of the set entries, the gaps are ``2*diff(idx)`` plus one
gap from the last prime of the previous segment (2 for the first segment),
and a running count of the primes gives pi(p) of every pair for free.  Primes
are built as integers only where a fold needs them:

* records walk a segment only when its largest gap beats the record;
* the Andrica quotient is taken only for a segment whose bound
  d_max / (2 sqrt(p0)), p0 its first p, beats the envelope or reaches the
  current k-th best; no quotient in the segment can exceed that bound, and
  beyond (7, 11) it rules out nearly every segment;
* first occurrences look up each gap in a table of values already seen,
  which grows with the largest gap, and sort only the new ones.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from gaplab import sieve

# Initial size of the table of gap values already seen by a first-occurrence
# scan.  Deliberately small: every scan past 31397 (gap 72) grows it.
_SEEN_START = 64


def stable_sqrt_diff(p: int, q: int) -> float:
    """sqrt(q) - sqrt(p) via the cancellation-free quotient (q-p)/(sqrt(q)+sqrt(p))."""
    if q <= p:
        raise ValueError("need q > p")
    return (q - p) / (math.sqrt(q) + math.sqrt(p))


def andrica_quotients(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`stable_sqrt_diff` over int64 arrays, bit for bit.

    Each step rounds as the scalar form does: int64 to double rounds to
    nearest even like Python's int to float, sqrt is correctly rounded in
    both, and the sum and the quotient are taken in the same order.  It
    works in place, so it holds at most two float arrays of the input's size.
    """
    root_sum = q.astype(np.float64)
    np.sqrt(root_sum, out=root_sum)
    root_p = p.astype(np.float64)
    root_sum += np.sqrt(root_p, out=root_p)
    del root_p
    return np.divide(q - p, root_sum, out=root_sum)


@dataclass(frozen=True)
class PrimeGap:
    """A consecutive-prime pair.  Consecutiveness is the constructor's contract;
    it is oracle-checked in tests, not revalidated here."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q <= self.p:
            raise ValueError(f"gap pair needs q > p, got ({self.p}, {self.q})")
        if self.p == 2 and self.q != 3:
            raise ValueError("the only gap from 2 is (2, 3)")
        if self.p > 2 and (self.q - self.p) % 2:
            raise ValueError(f"odd gap between odd primes: ({self.p}, {self.q})")

    @property
    def d(self) -> int:
        return self.q - self.p


@dataclass(frozen=True)
class AndricaPoint:
    gap: PrimeGap
    a: float


@dataclass(frozen=True)
class GapRecord:
    """A maximal-gap record: gap g after p_L, closed by p_L1, with r = sqrt(p_L1)-sqrt(p_L)."""

    p_L: int
    p_L1: int
    g: int
    r: float

    def __post_init__(self) -> None:
        if self.p_L1 - self.p_L != self.g:
            raise ValueError(f"record gap mismatch: {self.p_L1} - {self.p_L} != {self.g}")


class TableSource(Enum):
    COMPUTED = "computed"
    REFERENCE = "reference"
    MERGED = "merged"


@dataclass(frozen=True)
class GapRecordTable:
    """Strictly increasing record list; ``limit`` is the bound below which it is exhaustive."""

    records: tuple[GapRecord, ...]
    source: TableSource
    limit: int

    def __post_init__(self) -> None:
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.g <= prev.g or cur.p_L <= prev.p_L:
                raise ValueError(
                    f"records not strictly increasing at gap {cur.g} after {cur.p_L}"
                )

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class FirstOccurrence:
    d: int
    p_f: int


@dataclass(frozen=True)
class VerifyReport:
    all_below_one: bool
    max_a: float
    argmax_pair: PrimeGap | None
    count: int


@dataclass(frozen=True)
class GapScanResult:
    limit: int
    pair_count: int
    records: tuple[GapRecord, ...]
    envelope: tuple[tuple[int, float], ...]
    max_point: AndricaPoint | None
    first: dict[int, FirstOccurrence] | None = None
    top: tuple[AndricaPoint, ...] | None = None
    pi: dict[int, int] = field(default_factory=dict)


def andrica_diff(gap: PrimeGap) -> float:
    """Andrica difference of a pair, quotient form (see module docstring)."""
    return stable_sqrt_diff(gap.p, gap.q)


def _pair_blocks(
    limit: int,
    *,
    segment_length: int | None = None,
    threads: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (p, q) arrays of consecutive-prime pairs with q < limit.

    The last prime of each segment is carried into the next one so gaps
    spanning segment boundaries are never dropped.
    """
    prev: int | None = None
    for block in sieve.iter_prime_blocks(
        0, limit, segment_length=segment_length, threads=threads
    ):
        if block.size == 0:
            continue
        if prev is not None:
            block = np.concatenate(([prev], block))
        if block.size >= 2:
            yield block[:-1], block[1:]
        prev = int(block[-1])


def _walk_rising(values: np.ndarray, current: float) -> list[int]:
    """Indices where ``values`` sets successive new maxima above ``current``."""
    out: list[int] = []
    if values.size == 0:
        return out
    pos = 0
    while True:
        rest = values[pos:]
        above = np.nonzero(rest > current)[0]
        if above.size == 0:
            return out
        pos += int(above[0])
        current = values[pos]
        out.append(pos)
        pos += 1
        if pos >= values.size:
            return out


def _new_gaps(d: np.ndarray, seen: np.ndarray) -> list[tuple[int, int]]:
    """(g, first index of g in ``d``) for every gap value g not yet ``seen``,
    ascending in g; marks them seen."""
    fresh = np.flatnonzero(~seen[d])
    values, at = np.unique(d[fresh], return_index=True)
    seen[values] = True
    return list(zip(values.tolist(), fresh[at].tolist()))


def _candidate_quotients(
    base: int,
    idx: np.ndarray,
    d: np.ndarray,
    two_root: float,
    env_a: float,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices j of the pairs whose bound d_j / two_root beats ``env_a`` or
    reaches ``threshold``, and their Andrica quotients.

    Pair j closes at q = base + 2*idx[j] and opens at p = q - d[j].  Working
    in place keeps the first segment, where every pair is a candidate, to a
    few arrays of its size.
    """
    bound = d / two_root
    sel = np.flatnonzero((bound > env_a) | (bound >= threshold))
    del bound
    q = idx[sel]
    q <<= 1
    q += base
    return sel, andrica_quotients(q - d[sel], q)


def scan_gaps(
    limit: int,
    *,
    top_k: int | None = None,
    collect_first: bool = False,
    pi_at: Iterable[int] = (),
    segment_length: int | None = None,
    threads: int = 1,
) -> GapScanResult:
    """One fold over all consecutive-prime pairs with q < limit.

    Always produces the maximal-gap records and the running-maximum
    envelope of the Andrica difference; optionally also the first
    occurrence of every gap value and the ``top_k`` largest differences.
    ``pi`` of the result holds the prime count below every record p_L,
    every top-k p and every x of ``pi_at`` (0 <= x <= limit).
    """
    if limit < 3:
        raise ValueError("limit must be >= 3")
    targets = sorted(set(int(x) for x in pi_at))
    if targets and not 0 <= targets[0] <= targets[-1] <= limit:
        raise ValueError(f"pi_at values must lie in [0, {limit}]")
    pi = {x: 0 for x in targets if x <= 2}
    targets = [x for x in targets if x > 2]
    next_target = 0

    prev, n_prev = 2, 0  # last prime before the segment; pi(prev) = pairs so far
    records: list[GapRecord] = []
    record_g = 0
    envelope: list[tuple[int, float]] = []
    env_a = 0.0
    max_point: AndricaPoint | None = None
    seen = np.zeros(_SEEN_START, dtype=bool)
    first: dict[int, int] = {}
    top: list[tuple[float, int, int, int]] = []  # (a, p, q, pi(p))
    threshold = -math.inf if top_k is not None else math.inf  # k-th best a so far

    for seg, base, mask in sieve._iter_masks(0, limit, segment_length, threads):
        # the primes of the segment are base + 2*idx; pair j closes at
        # q_j = base + 2*idx[j] and opens at p_j = q_j - d_j, pi(p_j) = n_prev + j
        idx = np.flatnonzero(mask)
        while next_target < len(targets) and targets[next_target] <= seg.hi:
            x = targets[next_target]
            pi[x] = n_prev + 1 + int(np.searchsorted(idx, (x - base + 1) >> 1))
            next_target += 1
        if idx.size == 0:
            continue
        d = np.diff(idx, prepend=0)
        d <<= 1
        d[0] = base + 2 * int(idx[0]) - prev
        d_max = int(d.max())

        if d_max > record_g:
            for j in _walk_rising(d, record_g):
                g = int(d[j])
                p = base + 2 * int(idx[j]) - g
                records.append(GapRecord(p_L=p, p_L1=p + g, g=g, r=stable_sqrt_diff(p, p + g)))
                pi[p] = n_prev + j
            record_g = records[-1].g

        if collect_first:
            if d_max >= seen.size:
                # no proven bound caps the gaps, so the table grows on demand
                grown = np.zeros(max(2 * seen.size, d_max + 1), dtype=bool)
                grown[: seen.size] = seen
                seen = grown
            for g, j in _new_gaps(d, seen):
                first[g] = base + 2 * int(idx[j]) - g

        # Every pair here has p >= prev, and IEEE sqrt, + and / are monotone
        # under round-to-nearest, so fl(sqrt q) + fl(sqrt p) >= 2 fl(sqrt prev)
        # and a_j = fl(d_j / that sum) <= fl(d_j / (2 fl(sqrt prev))) =: bound_j.
        # A pair can enter the envelope (a > env_a) or the top-k
        # (a >= threshold) only if its bound does; after (7, 11) that rules out
        # nearly every segment from its d_max alone.
        two_root = 2.0 * math.sqrt(prev)
        if d_max / two_root > env_a or d_max / two_root >= threshold:
            sel, a = _candidate_quotients(base, idx, d, two_root, env_a, threshold)

            def pair(i: int) -> tuple[int, int]:
                q = base + 2 * int(idx[sel[i]])
                return q - int(d[sel[i]]), q

            rising = _walk_rising(a, env_a)
            for i in rising:
                envelope.append((pair(i)[0], float(a[i])))
            if rising:
                env_a = float(a[rising[-1]])
                max_point = AndricaPoint(gap=PrimeGap(*pair(rising[-1])), a=env_a)

            if top_k is not None:
                # the k best of the segment and every tie with the k-th
                cut = threshold
                if a.size > top_k:
                    cut = max(cut, np.partition(a, a.size - top_k)[a.size - top_k])
                for i in np.flatnonzero(a >= cut).tolist():
                    top.append((float(a[i]), *pair(i), n_prev + int(sel[i])))
                top.sort(key=lambda t: (-t[0], t[1]))
                if len(top) >= top_k:
                    # keep everything tied with the k-th best so ties resolve by p
                    threshold = top[top_k - 1][0]
                    cut = top_k
                    while cut < len(top) and top[cut][0] == threshold:
                        cut += 1
                    del top[cut:]

        prev = base + 2 * int(idx[-1])
        n_prev += idx.size

    top_points = None
    if top_k is not None:
        top_points = tuple(
            AndricaPoint(gap=PrimeGap(p, q), a=a) for a, p, q, _ in top[:top_k]
        )
        pi.update((p, n) for _, p, _, n in top[:top_k])
    first_map = None
    if collect_first:
        first_map = {
            d: FirstOccurrence(d=d, p_f=pf) for d, pf in sorted(first.items())
        }
    return GapScanResult(
        limit=limit,
        pair_count=n_prev,
        records=tuple(records),
        envelope=tuple(envelope),
        max_point=max_point,
        first=first_map,
        top=top_points,
        pi=pi,
    )


def gap_stream(
    limit: int,
    *,
    segment_length: int | None = None,
    threads: int = 1,
) -> Iterator[PrimeGap]:
    """Consecutive-prime pairs (p, q) with q < limit, ascending in p."""
    if limit < 3:
        raise ValueError("limit must be >= 3")
    for p, q in _pair_blocks(limit, segment_length=segment_length, threads=threads):
        for pi, qi in zip(p.tolist(), q.tolist()):
            yield PrimeGap(pi, qi)


def max_gap_records(limit: int, **kwargs) -> GapRecordTable:
    """The step function of record gaps: every pair whose gap beats all earlier ones."""
    result = scan_gaps(limit, **kwargs)
    return GapRecordTable(records=result.records, source=TableSource.COMPUTED, limit=limit)


def first_occurrences(limit: int, **kwargs) -> dict[int, FirstOccurrence]:
    """For every gap value occurring below limit, the smallest prime opening it."""
    result = scan_gaps(limit, collect_first=True, **kwargs)
    assert result.first is not None
    return result.first


def top_andrica(limit: int, k: int, **kwargs) -> list[AndricaPoint]:
    """The k largest Andrica differences among pairs with q < limit.

    Descending in the difference; exact float ties (possible only through
    rounding) order by smaller p.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    result = scan_gaps(limit, top_k=k, **kwargs)
    assert result.top is not None
    return list(result.top)


def empirical_R(table: GapRecordTable) -> list[tuple[int, float]]:
    """(x, R) per record: the sqrt-difference achieved at each record pair."""
    return [(rec.p_L, rec.r) for rec in table.records]


def andrica_envelope(limit: int, **kwargs) -> list[tuple[int, float]]:
    """Running maximum of the Andrica difference: the points where it increases."""
    return list(scan_gaps(limit, **kwargs).envelope)


def envelope_value(envelope: Sequence[tuple[int, float]], x: int) -> float:
    """Envelope value at x: the running maximum over pairs starting at p <= x."""
    i = bisect_right([p for p, _ in envelope], x)
    if i == 0:
        raise ValueError(f"envelope undefined below its first point ({x})")
    return envelope[i - 1][1]


def verify_andrica(limit: int, **kwargs) -> VerifyReport:
    """Check every Andrica difference below limit against 1.

    With no pairs below limit the report degenerates to max_a = 0 and no
    argmax pair.
    """
    result = scan_gaps(limit, **kwargs)
    if result.pair_count == 0 or result.max_point is None:
        return VerifyReport(all_below_one=True, max_a=0.0, argmax_pair=None, count=result.pair_count)
    return VerifyReport(
        all_below_one=result.max_point.a < 1.0,
        max_a=result.max_point.a,
        argmax_pair=result.max_point.gap,
        count=result.pair_count,
    )
