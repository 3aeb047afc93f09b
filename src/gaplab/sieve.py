"""Segmented sieve of Eratosthenes over 64-bit ranges.

The sieve works on odd numbers only, one byte-mask segment at a time, so a
scan to 10^9 or beyond never holds more than a couple of megabytes of mask.
Composite marking for 3, 5 and 7 is pre-baked into a tiled wheel pattern.
The remaining base primes up to 2^26 come from one uint32 store, filled in
place by running this same sieve over each new range; the base primes above
2^26, needed only by windows past about 4.5e15, are sieved the same way in
small chunks for each batch of a few MB of masks and never kept, so memory
stays flat however far out a window lies.  Base primes much smaller than the
segment are crossed off with strided numpy writes; the rest hit a segment a
few times at most and are crossed in vectorised rounds, the bucket idea of
T. Oliveira e Silva's segmented sieve and of primesieve (Oliveira e Silva,
Herzog and Pardi, Math. Comp. 2014).

Conventions used throughout the package:

* ``prime_count(x)`` counts primes *strictly below* x.  The heuristics in
  :mod:`gaplab.heuristics` are calibrated to that definition, so an
  off-by-one here would silently skew every predictor built on top of it.
* ranges are half-open ``[lo, hi)``.

Every sieve-backed call checks its range in one place, :func:`_plan`, when
it is made.  The plan is a ``range`` of segment starts, so its memory does
not depend on the limit.  Segments are sieved one after another, in order,
on the calling thread; the base-prime store is locked while it grows, so a
caller may still sieve from more than one thread of its own.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator

import numpy as np

SEGMENT_LENGTH = 1 << 20  # odd entries per segment (spans ~2M integers)

MAX_SIEVE_BOUND = 2**63 - 1  # int64 internals; is_prime alone accepts full 64-bit
MAX_PRIME_INPUT = 2**64 - 1

# Strong-pseudoprime witnesses that decide primality for every n < 2^64
# (Sinclair's 7-witness set, see miller-rabin.appspot.com).
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# The odd primes up to 47, and their product: an input that shares a factor
# with it is prime only if it is one of them, which settles about 70% of odd
# inputs without a Miller-Rabin round.
_ODD_PRIMES_TO_47 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_ODD_PRIMORIAL_47 = math.prod(_ODD_PRIMES_TO_47)

# (p, inverse of 2 mod p) for the wheel primes baked into the segment init.
_WHEEL_PRIMES = ((3, 2), (5, 3), (7, 4))
_WHEEL = 105

# Large base primes are crossed this many at a time.  The int64 primes,
# offsets and temporaries of one chunk are 128 KiB each, so together they stay
# in L2 and the allocator hands the same blocks back from chunk to chunk.  Of
# 2^14 to 2^17 chunks, 2^14 to 2^16 gave the same far-window time and 2^14
# the lowest median window.
_LARGE_CHUNK = 1 << 14

# Base primes above _BASE_BOUND are sieved this many odd values at a time, and
# the masks they are crossed into are held together up to this many bytes.
# Near 10^18, chunks of 2^18, 2^19 and 2^20 took 3.5, 3.1-3.3 and 2.7 s for a
# window 10^6 wide; 2^19 keeps a chunk's mask and primes near 1 MB in all.
_STREAM_CHUNK = 1 << 19
_STREAM_MASK_BYTES = 1 << 22


def _plan(lo: int, hi: int) -> range:
    """Check a sieve request; return its segment starts."""
    if lo < 0 or hi < 0:
        raise ValueError("range bounds must be non-negative")
    if lo >= hi:
        raise ValueError(f"empty or reversed range [{lo}, {hi})")
    if hi > MAX_SIEVE_BOUND:
        raise ValueError(f"sieve range bound {hi} exceeds {MAX_SIEVE_BOUND}")
    return range(lo, hi, 2 * SEGMENT_LENGTH)


# Base primes up to this bound are kept for the rest of the process; a plan
# whose square root lies above it streams the base primes above it instead.
# It covers sqrt(hi) for every hi below about 4.5e15, in 15.8 MB.
_BASE_BOUND = 1 << 26
# pi(x) < 1.25506 x / ln x for x > 1 (Rosser-Schoenfeld): the store's capacity.
# Every process takes all of it at import, 18.7 MB of address space; a page
# becomes resident only when a growth first writes it, so a scan that needs
# few base primes pays for few, and no growth ever copies the store.
_BASE_CAPACITY = int(1.25506 * _BASE_BOUND / math.log(_BASE_BOUND)) + 1


class _BaseStore:
    """The odd primes in [11, bound] for the largest bound sieved so far.

    They fill the front of one uint32 buffer of ``_BASE_CAPACITY`` entries.
    A growth sieves only the new range and writes its primes after the old
    ones, in place.  ``state`` pairs the bound with a read-only view of its
    primes in one tuple, replaced in one assignment, so a reader on another
    thread never pairs a bound with the primes of a different step, and a
    growth never writes inside a view that was handed out.
    """

    def __init__(self) -> None:
        self._buffer = np.empty(_BASE_CAPACITY, dtype=np.uint32)
        self.state: tuple[int, np.ndarray] = (10, self._buffer[:0])
        self._lock = threading.Lock()

    def grow(self, bound: int) -> None:
        """Extend the store to ``bound`` <= ``_BASE_BOUND``."""
        with self._lock:
            cached, primes = self.state
            count = primes.size
            while cached < bound:
                step = min(bound, cached * cached)  # sieved with the primes up to cached
                for found in _sieved_primes(cached + 1, step + 1, primes, SEGMENT_LENGTH):
                    self._buffer[count : count + found.size] = found
                    count += found.size
                cached = step
                primes = self._buffer[:count]
                primes.flags.writeable = False
                self.state = (cached, primes)


_base_store = _BaseStore()


def _base_primes(bound: int) -> np.ndarray:
    """Ascending odd primes in [11, bound] as a read-only uint32 array.

    The result is a view of the store's one buffer, which a larger ``bound``
    first fills further by running this same sieve over ``(cached bound,
    bound]``.  ``bound`` is at most ``_BASE_BOUND``, so every base prime fits
    in 32 bits and the buffer's capacity for pi(2^26) always suffices.
    """
    cached, primes = _base_store.state
    if bound > cached:
        _base_store.grow(bound)
        cached, primes = _base_store.state
    # a Python int key would make searchsorted cast the whole array first
    return primes[: np.searchsorted(primes, np.uint32(bound), side="right")]


def _first_offsets(primes: np.ndarray, first: int) -> np.ndarray:
    """Index ``i`` of the first value ``first + 2*i`` each prime must mark.

    That value is the larger of p*p and the first odd multiple of p that is
    >= ``first``, so a base prime inside the range is never marked.  Every
    term stays relative to ``first``, so nothing overflows int64 near 2^63
    (p*p itself is below the range's upper bound).  ``primes`` is ascending
    int64; when its largest p has p*p <= ``first``, the p*p term is at most
    0 for every prime and is skipped.
    """
    off = -first % primes
    off += primes * (off & 1)  # first + off must be odd
    off >>= 1
    if primes.size and int(primes[-1]) ** 2 > first:
        np.maximum(off, (primes * primes - first) >> 1, out=off)
    return off


def _odd_mask(lo: int, hi: int, base: np.ndarray) -> tuple[int, np.ndarray]:
    """Primality mask over the odd values of ``[lo, hi)``.

    Returns ``(first, mask)`` where ``first`` is the first odd value and
    ``mask[i]`` tells whether ``first + 2*i`` survived.  ``base`` must hold
    the ascending odd base primes >= 11 (as from :func:`_base_primes`), and
    is widened to int64 a slice at a time; multiples of 3, 5, 7 come from
    the wheel pattern.

    A prime below n/32 (n odd entries) hits the segment many times and is
    crossed with one strided write.  The rest hit it at most 32 times each:
    their first offsets are computed together, ``_LARGE_CHUNK`` primes at a
    time, and marked in vectorised rounds of ``off += p``.
    """
    first = lo | 1
    n = (hi - first + 1) // 2
    if n <= 0:
        return first, np.zeros(0, dtype=bool)

    pattern = np.ones(_WHEEL, dtype=bool)
    for p, inv2 in _WHEEL_PRIMES:
        start = (-first % p) * inv2 % p
        pattern[start::p] = False
    mask = np.tile(pattern, n // _WHEEL + 1)[:n]
    for v in (1, 3, 5, 7):  # wheel artifacts at the very bottom of the range
        if first <= v < hi:
            mask[(v - first) >> 1] = v != 1

    base = base[: np.searchsorted(base, np.uint32(math.isqrt(hi - 1)), side="right")]
    split = int(np.searchsorted(base, np.uint32(n >> 5)))
    small = base[:split].astype(np.int64)
    for p, start in zip(small.tolist(), _first_offsets(small, first).tolist()):
        mask[start::p] = False
    _cross_large(mask, first, base[split:])
    return first, mask


def _cross_large(mask: np.ndarray, first: int, primes: np.ndarray) -> None:
    """Cross the odd multiples of ascending ``primes`` off ``mask``, whose
    entry i is ``first + 2*i``: ``_LARGE_CHUNK`` primes at a time, widened to
    int64, in vectorised rounds of ``off += p``.  Each round is one write, so
    this suits primes that hit the mask a few times at most."""
    n = mask.size
    for at in range(0, primes.size, _LARGE_CHUNK):
        chunk = primes[at : at + _LARGE_CHUNK].astype(np.int64)
        off = _first_offsets(chunk, first)
        while True:
            hit = off < n
            if not hit.any():
                break
            chunk, off = chunk[hit], off[hit]
            mask[off] = False
            off += chunk


def _mask_primes(first: int, mask: np.ndarray) -> np.ndarray:
    """The values ``first + 2*i`` at the set entries ``i`` of ``mask``, as int64."""
    primes = np.flatnonzero(mask)
    primes <<= 1
    primes += first
    return primes


def _sieved_primes(lo: int, hi: int, base: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """The primes of ``[lo, hi)`` as ascending int64 arrays, one per ``width``
    odd values, each sieved by :func:`_odd_mask` from ``base`` (which must
    reach sqrt(hi - 1))."""
    for at in range(lo, hi, 2 * width):
        yield _mask_primes(*_odd_mask(at, min(at + 2 * width, hi), base))


def _iter_masks(starts: range) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Yield ``(seg_lo, seg_hi, first_odd, mask)`` for each segment of a
    :func:`_plan`, in segment order.

    The base primes up to ``_BASE_BOUND`` come from the store.  When the
    plan needs larger ones, its masks are built in batches of up to
    ``_STREAM_MASK_BYTES``; each streamed chunk of base primes is crossed
    into every mask of the batch before the next chunk is sieved, and the
    batch is yielded when the last chunk is crossed.
    """
    hi = starts.stop
    root = math.isqrt(hi - 1)
    base = _base_primes(min(root, _BASE_BOUND))
    per_batch = 1 if root <= _BASE_BOUND else max(1, _STREAM_MASK_BYTES // (starts.step // 2))
    for at in range(0, len(starts), per_batch):
        batch = []
        for seg_lo in starts[at : at + per_batch]:
            seg_hi = min(seg_lo + starts.step, hi)
            batch.append((seg_lo, seg_hi, *_odd_mask(seg_lo, seg_hi, base)))
        top = math.isqrt(batch[-1][1] - 1) + 1
        for primes in _sieved_primes(_BASE_BOUND + 1, top, base, _STREAM_CHUNK):
            for _, _, first, mask in batch:
                _cross_large(mask, first, primes)
        yield from batch


def iter_prime_blocks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes of ``[lo, hi)`` as one ascending int64 array per segment,
    lazily: the input is checked at the call, sieving starts at the first next()."""
    masks = _iter_masks(_plan(lo, hi))
    return (_primes_of(*segment) for segment in masks)


def _primes_of(seg_lo: int, seg_hi: int, first: int, mask: np.ndarray) -> np.ndarray:
    block = _mask_primes(first, mask)
    if seg_lo <= 2 < seg_hi:
        block = np.concatenate(([2], block))
    return block


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """All primes p with ``lo <= p < hi``, ascending, as an int64 array."""
    blocks = iter_prime_blocks(lo, hi)
    return np.concatenate(list(blocks))  # a valid range has at least one block


def prime_count(x: int) -> int:
    """Number of primes strictly below x."""
    if x < 0:
        raise ValueError("x must be >= 0")
    plan = _plan(0, max(x, 1))  # x = 0 plans [0, 1): no prime
    total = int(x > 2)  # the prime 2, which the odd-only masks leave out
    for _, _, _, mask in _iter_masks(plan):
        total += int(np.count_nonzero(mask))
    return total


def _miller_rabin(n: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Exact deterministic primality for 0 <= n < 2^64.

    Trial division by the primes up to 47 decides every n below 53^2 = 2809;
    above, deterministic Miller-Rabin witnesses decide, and the witness set
    is proven complete for all 64-bit inputs, so reference tables with
    entries near 1.4e18 validate exactly.
    """
    if n < 0 or n > MAX_PRIME_INPUT:
        raise ValueError("is_prime expects 0 <= n < 2^64")
    if n % 2 == 0 or math.gcd(n, _ODD_PRIMORIAL_47) != 1:
        return n == 2 or n in _ODD_PRIMES_TO_47
    if n < 53 * 53:  # no prime factor up to 47, so none at all unless n = 1
        return n > 1
    return _miller_rabin(n)
