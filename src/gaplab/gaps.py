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
and a running count of the primes gives pi(p) of every pair for free.  That
walk over the masks is the only source of pairs: :func:`gap_stream` and the
CLI's ``table1`` read it too, building (p, q) in the walk's own arrays.  The
fold builds primes as integers only where it needs them:

* each concern keeps one integer w, the least gap that could change it, and
  takes from a segment only the pairs with d >= w: a record needs a gap
  above the record, a first occurrence the least gap not yet opened, and the
  envelope and the top-k a gap of about m * 2 sqrt(p0), floored, with m the
  lesser of the envelope and the k-th best quotient and p0 the segment's
  first p; beyond (7, 11) that rules out nearly every segment;
* first occurrences are one table, indexed by the gap, of the p where each
  gap first opens; it grows with the largest gap;
* a segment's pairs with d >= the least of those w are read off the mask's
  zero words: such a gap leaves a run of whole zero 8-byte words, and the set
  entries on either side of each run are its pair, so only where that w is
  too small (the first segment) are all of a segment's primes listed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from gaplab import sieve

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


@dataclass(frozen=True)
class GapRecordTable:
    """Record list, strictly increasing in both the gap and its opening prime."""

    records: tuple[GapRecord, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.g <= prev.g or cur.p_L <= prev.p_L:
                raise ValueError(
                    f"records not strictly increasing at gap {cur.g} after {cur.p_L}"
                )


@dataclass(frozen=True)
class GapScanResult:
    pair_count: int
    records: tuple[GapRecord, ...]
    envelope: tuple[tuple[int, float], ...]
    max_point: AndricaPoint | None
    first: dict[int, int] | None = None  # gap -> its first p, ascending in the gap
    top: tuple[AndricaPoint, ...] | None = None
    pi: dict[int, int] = field(default_factory=dict)


def _scan_plan(limit: int, top_k: int | None = None) -> range:
    """Check a scan's input; return the sieve plan of [0, limit)."""
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1")
    if limit < 3:
        raise ValueError("limit must be >= 3")
    return sieve._plan(0, limit)


def _walk(starts: range) -> Iterator[tuple[int, np.ndarray, int]]:
    """Yield ``(base, mask, prev)`` for every segment of a :func:`_scan_plan`:
    its primes are base + 2*i for each set ``mask[i]``, and ``prev`` is the
    last prime before it (2 before the first), so no boundary gap is dropped."""
    prev = 2
    for _, _, base, mask in sieve._iter_masks(starts):
        yield base, mask, prev
        span = 64  # a prime lies near nearly every end: look back in growing windows
        while not (tail := np.flatnonzero(mask[-span:])).size and span < mask.size:
            span *= 4
        if tail.size:
            prev = base + 2 * (int(tail[-1]) + max(mask.size - span, 0))


def _segment_pairs(base: int, mask: np.ndarray, prev: int) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, d)`` of a segment from :func:`_walk`, fresh arrays a consumer
    may overwrite: pair j closes at q_j = base + 2*idx[j] and opens at
    p_j = q_j - d[j], the first pair at ``prev``."""
    idx = np.flatnonzero(mask)
    d = np.empty_like(idx)  # no temporary, unlike diff(prepend=): d[0] is set below
    np.subtract(idx[1:], idx[:-1], out=d[1:])
    d <<= 1
    if idx.size:
        d[0] = base + 2 * int(idx[0]) - prev
    return idx, d


def _long_gaps(mask: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``: the set entries on either side of every run of k >= 1 or
    more zero 8-byte words that touches neither end of ``mask``, whose size is
    a multiple of 8.  A gap d >= w leaves d/2 - 1 >= w//2 - 1 zero entries,
    which cover (w//2 - 8)//8 whole words: with k at most that, these are all
    the pairs of the mask with d >= w."""
    run, length = mask.view(np.uint64) == 0, 1  # run[i]: words i .. i+length-1 are zero
    while length < k:
        step = min(length, k - length)
        run = run[:-step] & run[step:]
        length += step
    if not run.any():  # most segments: no run at all
        none = np.zeros(0, dtype=np.intp)
        return none, none
    start, stop = np.flatnonzero(np.diff(run, prepend=False, append=False)).reshape(-1, 2).T
    inner = (start > 0) & (stop < run.size)
    before, after = start[inner] - 1, stop[inner] + k - 1  # the nonzero words around each run
    rows = mask.reshape(-1, 8)
    lo = 8 * before + 7 - rows[before, ::-1].argmax(axis=1)
    hi = 8 * after + rows[after].argmax(axis=1)
    return lo, hi


def _pairs(limit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (p, q) int64 arrays of the pairs with q < limit, one per segment.

    The input is checked at the call.  Both are built in the walk's own
    arrays of the segment, so no segment holds more than its index and gap
    arrays.
    """
    return (_pair_arrays(*segment) for segment in _walk(_scan_plan(limit)))


def _pair_arrays(base: int, mask: np.ndarray, prev: int) -> tuple[np.ndarray, np.ndarray]:
    q, d = _segment_pairs(base, mask, prev)
    q <<= 1
    q += base
    return np.subtract(q, d, out=d), q


def _rising(values: np.ndarray, current: float) -> np.ndarray:
    """Indices i with values[i] > max(current, values[:i]): the successive
    new maxima above ``current``; a tie is no new maximum."""
    before = np.concatenate(([current], values[:-1]))
    np.maximum.accumulate(before, out=before)
    return np.flatnonzero(values > before)


def _first_openings(
    first_p: np.ndarray, base: int, idx: np.ndarray, d: np.ndarray, w: int
) -> np.ndarray:
    """``first_p``, where first_p[g] is the p where gap g first opens (0 while
    it has not), updated with every gap g >= w that first opens in the
    segment ``(idx, d)``.  The segment-sized temporaries end with the call."""
    # no proven bound caps the gaps, so the table grows with the largest one
    first_p = np.pad(first_p, (0, max(int(d.max()) + 1 - first_p.size, 0)))
    at = np.flatnonzero(d >= w)
    at = at[first_p[d[at]] == 0]
    first = np.full(first_p.size, d.size)  # first[g]: least j in at with d[j] = g
    np.minimum.at(first, d[at], at)
    g = np.flatnonzero(first < d.size)
    first_p[g] = idx[first[g]] * 2 + base - g
    return first_p


def _quotient_gap_bound(m: float, two_root: float) -> int:
    """w_a such that no pair (p, p + d) with p >= p0 and d < w_a has an
    Andrica quotient a >= m, for two_root = 2 fl(sqrt p0).

    IEEE sqrt, + and / are monotone under round-to-nearest, so a = fl(d /
    (fl(sqrt q) + fl(sqrt p))) <= fl(d / two_root).  With u = 2^-53 and c =
    fl(1 - 1e-9) < 1 - 0.9e-9, an integer d < w_a <= fl(fl(m * two_root) * c)
    has fl(d / two_root) <= (1 + u) d / two_root < m c (1 + u)^3 < m.  A
    negative m bounds nothing.
    """
    return math.floor(max(m, 0.0) * two_root * (1 - 1e-9))


def _candidate_quotients(
    base: int, idx: np.ndarray, d: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices j of the pairs with d_j >= w, and their Andrica quotients.

    Pair j closes at q = base + 2*idx[j] and opens at p = q - d[j].  The steps
    round as :func:`andrica_quotients`' do, as q - p is d[j] exactly, but q
    turns into p in place after its root: the first segment, where every pair
    is a candidate, holds at most four arrays of its size at once.
    """
    sel = np.flatnonzero(d >= w)
    n = idx[sel]
    n <<= 1
    n += base  # q
    root_sum = n.astype(np.float64)
    np.sqrt(root_sum, out=root_sum)
    n -= d[sel]  # p
    root_p = n.astype(np.float64)
    root_sum += np.sqrt(root_p, out=root_p)
    del n, root_p
    return sel, np.divide(d[sel], root_sum, out=root_sum)


def scan_gaps(
    limit: int,
    *,
    top_k: int | None = None,
    collect_first: bool = False,
) -> GapScanResult:
    """One fold over all consecutive-prime pairs with q < limit.

    Always produces the maximal-gap records and the running-maximum
    envelope of the Andrica difference; optionally also the first
    occurrence of every gap value and the ``top_k`` largest differences.
    ``pi`` of the result holds the prime count below every record p_L and
    every top-k p.
    """
    plan = _scan_plan(limit, top_k)
    pi: dict[int, int] = {}

    pair_count = 0
    records: list[GapRecord] = []
    envelope: list[tuple[int, float]] = []
    env_a = 0.0
    max_point: AndricaPoint | None = None
    first_p = np.zeros(0, dtype=np.int64)  # see _first_openings
    top: list[tuple[float, int, int, int]] = []  # (a, p, q, pi(p))
    threshold = -math.inf if top_k is not None else math.inf  # k-th best a so far
    w_first = 1 if collect_first else math.inf  # gap 1, (2, 3), opens the first pair

    for base, mask, p0 in _walk(plan):
        n_prev = pair_count
        pair_count += int(np.count_nonzero(mask))
        if pair_count == n_prev:
            continue
        two_root = 2.0 * math.sqrt(p0)
        # Each concern changes only with a gap d >= its w: a record needs d >
        # the record, a first occurrence an unopened gap, and the envelope and
        # the top-k a quotient a > env_a or a >= threshold, which needs d >= w_a
        # (see _quotient_gap_bound).  So once k >= 1, the segment's (idx, d)
        # holds only its boundary pair and the pairs that _long_gaps finds.
        w_rec = records[-1].g + 1 if records else 1
        w_a = _quotient_gap_bound(min(env_a, threshold), two_root)
        w = min(w_rec, w_a, w_first)
        k = (w // 2 - 8) // 8  # the whole zero words of any gap d >= w
        if k < 1 or mask.size % 8:
            idx, d = _segment_pairs(base, mask, p0)
        else:
            lo, hi = _long_gaps(mask, k)
            idx = np.concatenate(([mask.argmax()], hi))
            d = np.concatenate(([base + 2 * int(idx[0]) - p0], 2 * (hi - lo)))
        d_max = int(d.max())

        def pi_at(j: int) -> int:  # the count of primes below pair j's p
            return n_prev + int(np.count_nonzero(mask[: idx[j]]))

        if d_max >= w_rec:
            for j in _rising(d, w_rec - 1).tolist():
                g = int(d[j])
                p = base + 2 * int(idx[j]) - g
                records.append(GapRecord(p_L=p, p_L1=p + g, g=g, r=stable_sqrt_diff(p, p + g)))
                pi[p] = pi_at(j)

        if d_max >= w_first:
            first_p = _first_openings(first_p, base, idx, d, w_first)
            evens = first_p[2::2] != 0  # gaps 2, 4, 6, ... opened so far
            w_first = 2 * (evens.size if evens.all() else int(evens.argmin())) + 2

        if d_max >= w_a:
            sel, a = _candidate_quotients(base, idx, d, w_a)

            def pair(i: int) -> tuple[int, int]:
                q = base + 2 * int(idx[sel[i]])
                return q - int(d[sel[i]]), q

            rising = _rising(a, env_a).tolist()
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
                    top.append((float(a[i]), *pair(i), pi_at(int(sel[i]))))
                top.sort(key=lambda t: (-t[0], t[1]))
                if len(top) >= top_k:
                    # keep everything tied with the k-th best so ties resolve by p
                    threshold = top[top_k - 1][0]
                    top = [t for t in top if t[0] >= threshold]

    top_points = None
    if top_k is not None:
        top_points = tuple(
            AndricaPoint(gap=PrimeGap(p, q), a=a) for a, p, q, _ in top[:top_k]
        )
        pi.update((p, n) for _, p, _, n in top[:top_k])
    opened = np.flatnonzero(first_p)
    return GapScanResult(
        pair_count=pair_count,
        records=tuple(records),
        envelope=tuple(envelope),
        max_point=max_point,
        first=dict(zip(opened.tolist(), first_p[opened].tolist())) if collect_first else None,
        top=top_points,
        pi=pi,
    )


def gap_stream(limit: int) -> Iterator[PrimeGap]:
    """Consecutive-prime pairs (p, q) with q < limit, ascending in p; checked at the call."""
    return (
        PrimeGap(p, q)
        for p_block, q_block in _pairs(limit)
        for p, q in zip(p_block.tolist(), q_block.tolist())
    )


def max_gap_records(limit: int) -> GapRecordTable:
    """The step function of record gaps: every pair whose gap beats all earlier ones."""
    return GapRecordTable(records=scan_gaps(limit).records)
