import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import sieve
from tests.conftest import sieve_segments, trial_division_is_prime, trial_division_primes


def test_primes_in_range_tiny():
    assert sieve.primes_in_range(0, 10).tolist() == [2, 3, 5, 7]
    assert sieve.primes_in_range(10, 20).tolist() == [11, 13, 17, 19]
    assert sieve.primes_in_range(113, 128).tolist() == [113, 127]


def test_oracle_equivalence_below_1e5():
    assert sieve.primes_in_range(0, 10**5).tolist() == trial_division_primes(0, 10**5)
    # a range of exactly one segment
    with sieve_segments(1024):
        got = sieve.primes_in_range(0, 2048)
    assert got.tolist() == trial_division_primes(0, 2048)


def test_small_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert sieve.is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_exhaustive_below_1e5():
    # crosses the trial-division / Miller-Rabin boundary at 53^2 = 2809
    flags = {p for p in trial_division_primes(0, 10**5)}
    for n in range(0, 10**5):
        assert sieve.is_prime(n) == (n in flags), n


@settings(max_examples=40, deadline=None)
@given(
    lo=st.integers(min_value=0, max_value=2 * 10**5),
    width=st.integers(min_value=1, max_value=3000),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_segmentation_transparency(lo, width, cut):
    hi = lo + width
    m = lo + 1 + int(cut * (width - 1)) if width > 1 else lo + 1
    with sieve_segments(128):
        whole = sieve.primes_in_range(lo, hi).tolist()
    if lo < m < hi:
        with sieve_segments(128):
            left = sieve.primes_in_range(lo, m).tolist()
        with sieve_segments(512):
            right = sieve.primes_in_range(m, hi).tolist()
        assert left + right == whole
    assert whole == trial_division_primes(lo, hi)


@settings(max_examples=100, deadline=None)
@given(x=st.integers(min_value=0, max_value=10**6))
def test_count_consistency(x):
    expected = len(sieve.primes_in_range(0, x)) if x >= 3 else (1 if x > 2 else 0)
    assert sieve.prime_count(x) == expected


def test_prime_count_examples():
    assert sieve.prime_count(2) == 0
    assert sieve.prime_count(101) == 25
    assert sieve.prime_count(114) == 30
    assert sieve.prime_count(10**6) == 78498


def test_is_prime_reference_scale():
    # endpoints of the largest published record gap
    assert sieve.is_prime(1425172824437699411)
    assert sieve.is_prime(1425172824437699411 + 1476)
    # nothing prime strictly inside a gap endpoint's neighbours
    assert not sieve.is_prime(1425172824437699411 + 2)


def test_is_prime_known_hard_composites():
    assert not sieve.is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert sieve.is_prime(2**61 - 1)  # Mersenne prime
    assert not sieve.is_prime(2**59 - 1)
    assert not sieve.is_prime(1)
    assert not sieve.is_prime(0)
    with pytest.raises(ValueError):
        sieve.is_prime(2**64)


def test_invalid_ranges():
    with pytest.raises(ValueError):
        sieve.primes_in_range(10, 10)
    with pytest.raises(ValueError):
        sieve.primes_in_range(-1, 10)
    with pytest.raises(ValueError):
        sieve.prime_count(-1)


def test_segment_tiling_and_validation():
    with sieve_segments(1 << 14):
        segs = [(lo, hi) for lo, hi, _, _ in sieve._iter_masks(sieve._plan(0, 10**6))]
    assert segs[0][0] == 0 and segs[-1][1] == 10**6
    for (lo, hi), (next_lo, _) in zip(segs, segs[1:]):
        assert hi == next_lo
        assert hi - lo <= 2 * (1 << 14)


def test_segment_plan_stays_flat(no_sieve):
    hi = 10**18
    tracemalloc.start()
    try:
        starts = sieve._plan(0, hi)
        sieve.iter_prime_blocks(0, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert starts.stop == hi


# Windows far from 0, a few thousand values wide.  n/32 is 31 to 62 here (n
# odd entries per segment), so base primes below that are crossed with
# strided writes and every larger one goes through the vectorised rounds,
# _LARGE_CHUNK at a time.  Chunks of 1000 cut the base primes of one window
# into 78 (near 10^12) to 17k (near 10^17) chunks; chunks of 3 made this file
# take minutes.  Near 10^17 the base primes above _BASE_BOUND are streamed.
_FAR_WINDOWS = [
    (10**12 - 1500, 10**12 + 1500),
    (10**15 + 7, 10**15 + 4007),
    (10**17 - 2001, 10**17 + 999),
]


@pytest.mark.parametrize("lo,hi", _FAR_WINDOWS)
@pytest.mark.parametrize("segment_length", [None, 1000])
def test_far_windows_against_is_prime(lo, hi, segment_length):
    sieve._base_primes(min(math.isqrt(hi - 1), sieve._BASE_BOUND))  # grown at the default length
    for chunk in (sieve._LARGE_CHUNK, 1000):
        with sieve_segments(segment_length), mock.patch.object(sieve, "_LARGE_CHUNK", chunk):
            survivors = set(sieve.primes_in_range(lo, hi).tolist())
        for v in range(lo | 1, hi, 2):
            assert (v in survivors) == sieve.is_prime(v), (chunk, v)
        assert all(v % 2 for v in survivors)


# With the stored base primes cut to those up to 2^12, windows near 2^40
# stream the base primes above it (up to 2^20).  In the first window sqrt(hi)
# straddles 2^12: 4099, the first prime above it, is streamed only for the
# batches that reach 4099^2, which no stored prime crosses off.
_STREAMED_WINDOWS = [
    (4099**2 - 3000, 4099**2 + 3000),
    (2**40 - 3000, 2**40 + 3000),
    (2**41 + 1, 2**41 + 6001),
]


@pytest.mark.parametrize("lo,hi", _STREAMED_WINDOWS)
@pytest.mark.parametrize("segment_length", [None, 64, 1000])
def test_streamed_base_primes_against_is_prime(lo, hi, segment_length):
    chunks = []

    def spied(lo, hi, base, width):
        for primes in sieved(lo, hi, base, width):
            if lo > sieve._BASE_BOUND:  # streamed; a store growth starts at or below it
                chunks.append(primes.size)
            yield primes

    sieved = sieve._sieved_primes
    # batches of 3 masks; chunks of 2^13 odd values cut the primes up to 2^20 into 64
    with (
        sieve_segments(segment_length),
        mock.patch.object(sieve, "_BASE_BOUND", 1 << 12),
        mock.patch.object(sieve, "_STREAM_CHUNK", 1 << 13),
        mock.patch.object(sieve, "_STREAM_MASK_BYTES", 3 * sieve.SEGMENT_LENGTH),
        mock.patch.object(sieve, "_sieved_primes", spied),
    ):
        survivors = set(sieve.primes_in_range(lo, hi).tolist())
    for v in range(lo | 1, hi, 2):
        assert (v in survivors) == sieve.is_prime(v), v
    assert all(v % 2 for v in survivors)
    assert sum(chunks) > 0  # some base primes came from the stream


@pytest.mark.parametrize("segment_length", [16, 32, 64, 1000])
def test_tiny_segments_from_zero_keep_base_primes(segment_length):
    # n/32 is at most 31, so every base prime >= 11 (or >= 37 for 1000) takes
    # the vectorised path; 11 (for 64) and 37, 41, 43 (for 1000) lie inside
    # the first segment and must not mark themselves.  Chunks of 3 primes put
    # those below and above sqrt(first) in different chunks, so the p*p term
    # is kept or skipped chunk by chunk.
    expected = trial_division_primes(0, 20000)
    for chunk in (sieve._LARGE_CHUNK, 3):
        with sieve_segments(segment_length), mock.patch.object(sieve, "_LARGE_CHUNK", chunk):
            got = sieve.primes_in_range(0, 20000)
        assert got.tolist() == expected, chunk


def test_window_order_does_not_change_results(monkeypatch):
    windows = [(10**9, 10**9 + 3000), (10**11, 10**11 + 3000), (10**13, 10**13 + 3000),
               (10**15 - 3000, 10**15)]
    monkeypatch.setattr(sieve, "_base_store", sieve._BaseStore())
    ascending = [sieve.primes_in_range(lo, hi) for lo, hi in windows]
    monkeypatch.setattr(sieve, "_base_store", sieve._BaseStore())
    descending = [sieve.primes_in_range(lo, hi) for lo, hi in reversed(windows)][::-1]
    for a, d in zip(ascending, descending):
        assert np.array_equal(a, d)
    bound, primes = sieve._base_store.state
    assert bound == math.isqrt(10**15 - 1)
    assert primes.dtype == np.uint32 and not primes.flags.writeable


def test_base_primes_grow_consistently_across_threads(monkeypatch):
    monkeypatch.setattr(sieve, "_base_store", sieve._BaseStore())
    bounds = [10**9, 10**10, 10**11, 10**12, 10**13, 10**14] * 2
    expected = {b: [v for v in range(b, b + 600) if sieve.is_prime(v)] for b in set(bounds)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [(b, pool.submit(sieve.primes_in_range, b, b + 600)) for b in bounds]
            results = [(b, f.result(timeout=60).tolist()) for b, f in futures]
    finally:
        sys.setswitchinterval(interval)
    for b, got in results:
        assert got == expected[b], b
    bound, primes = sieve._base_store.state
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for f in range(2, math.isqrt(bound) + 1):
        flags[f * f :: f] = False
    assert np.array_equal(primes, np.flatnonzero(flags)[4:])  # from 11 on


def test_base_store_fills_one_buffer_in_place(monkeypatch):
    monkeypatch.setattr(sieve, "_base_store", sieve._BaseStore())
    views = [sieve._base_primes(b) for b in (10**3, 10**5, 10**7)]
    final = sieve._base_store.state[1]
    assert final.size == 664579 - 4  # pi(10^7), less 2, 3, 5 and 7
    for view in views:
        assert view.size and np.shares_memory(view, final)


def _traced_peak(call):
    """``call()`` and the bytes its allocations reached at their peak."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_far_window_transients_stay_small():
    # With a full store a window 10^6 wide near 10^16 needs its mask (500 KB)
    # and its primes (27168 of them); every stored base-prime slice is a view,
    # the 3.96M stored base primes are crossed one cache-sized chunk at a
    # time, and the 1.8M up to 10^8 are streamed a chunk at a time.
    sieve._base_primes(sieve._BASE_BOUND)
    got, peak = _traced_peak(lambda: sieve.primes_in_range(10**16, 10**16 + 10**6))
    assert got.dtype == np.int64 and got.size == 27168
    assert peak < 4 << 20
    # searchsorted with a key of another dtype would cast the whole store
    primes, peak = _traced_peak(lambda: sieve._base_primes(10**7))
    assert peak < 64 << 10
    assert np.shares_memory(primes, sieve._base_store.state[1])


@pytest.mark.slow
def test_gap_1476_window_runs_in_flat_memory(monkeypatch):
    # sqrt(p) is 1.19e9: the 56M base primes above 2^26 are streamed, never kept
    p = 1425172824437699411

    def window():  # a store made under the trace, so its buffer counts in the peak
        monkeypatch.setattr(sieve, "_base_store", sieve._BaseStore())
        return sieve.primes_in_range(p - 10**6, p + 1477)

    got, peak = _traced_peak(window)
    assert got[-2:].tolist() == [p, p + 1476]
    assert peak < 64 << 20


def test_record_916_endpoints_are_adjacent():
    p = 1189459969825483
    got = sieve.primes_in_range(p - 5000, p + 916 + 5000)
    i = int(np.searchsorted(got, p))
    assert got[i] == p and got[i + 1] == p + 916
