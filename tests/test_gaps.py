import math
import tracemalloc
from bisect import bisect_left, bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import gaps, sieve
from gaplab.gaps import PrimeGap
from tests.conftest import (
    sieve_segments,
    sqrt_diff_oracle,
    trial_division_is_prime,
    trial_division_primes,
)

# (p, q, difference to 9 decimals) -- published values
TABLE1_SAMPLES = [
    (2, 3, "0.317837245"),
    (3, 5, "0.504017170"),
    (5, 7, "0.409683334"),
    (7, 11, "0.670873479"),
    (13, 17, "0.517554350"),
    (23, 29, "0.589333284"),
    (89, 97, "0.414876670"),
    (107, 109, "0.096226076"),
    (109, 113, "0.189839304"),
]


def test_gap_stream_examples():
    assert [(g.p, g.q, g.d) for g in gaps.gap_stream(6)] == [(2, 3, 1), (3, 5, 2)]
    stream = list(gaps.gap_stream(200))
    assert (stream[3].p, stream[3].q, stream[3].d) == (7, 11, 4)
    at_113 = next(g for g in stream if g.p == 113)
    assert (at_113.q, at_113.d) == (127, 14)


def test_gap_stream_is_exhaustive_and_consecutive():
    primes = trial_division_primes(0, 3000)
    with sieve_segments(64):
        stream = list(gaps.gap_stream(3000))
    assert [(g.p, g.q) for g in stream] == list(zip(primes, primes[1:]))


@settings(max_examples=30, deadline=None)
@given(limit=st.integers(min_value=3, max_value=20000))
def test_telescoping(limit):
    with sieve_segments(256):
        stream = list(gaps.gap_stream(limit))
    primes = trial_division_primes(0, limit)
    assert sum(g.d for g in stream) == (primes[-1] - 2 if primes else 0)


@settings(max_examples=20, deadline=None)
@given(
    limit=st.integers(min_value=3, max_value=30000),
    exponent=st.integers(min_value=4, max_value=12),
)
def test_gap_stream_segment_invariance(limit, exponent):
    coarse = [(g.p, g.q) for g in gaps.gap_stream(limit)]
    with sieve_segments(1 << exponent):
        fine = [(g.p, g.q) for g in gaps.gap_stream(limit)]
    assert coarse == fine


@settings(max_examples=30, deadline=None)
@given(
    limit=st.integers(min_value=3, max_value=20000),
    segment=st.integers(min_value=1, max_value=64),
)
def test_pair_blocks_outlive_their_segment(limit, segment):
    # p and q are built in the walk's arrays of each segment; blocks kept
    # until the walk ends must not have been overwritten by later segments
    with sieve_segments(segment):
        blocks = list(gaps._pairs(limit))
    primes = trial_division_primes(0, limit)
    assert np.concatenate([p for p, _ in blocks]).tolist() == primes[:-1]
    assert np.concatenate([q for _, q in blocks]).tolist() == primes[1:]


def test_prime_gap_validation():
    assert PrimeGap(2, 3).d == 1


@pytest.mark.parametrize("p,q,printed", TABLE1_SAMPLES)
def test_andrica_diff_published_values(p, q, printed):
    assert f"{gaps.stable_sqrt_diff(p, q):.9f}" == printed


def test_andrica_diff_against_extended_precision():
    pairs = [(2, 3), (7, 11), (107, 109), (492113, 492227)]
    pairs += [(1425172824437699411, 1425172824437699411 + 1476)]
    pairs += [(218034721194214273, 218034721194214273 + 1248)]
    for p, q in pairs:
        mine = gaps.stable_sqrt_diff(p, q)
        oracle = sqrt_diff_oracle(p, q)
        assert math.isclose(mine, oracle, rel_tol=1e-14), (p, q)


def test_direct_subtraction_would_cancel():
    # the reason the quotient form is mandatory: naive evaluation near 1.4e18
    p = 1425172824437699411
    q = p + 1476
    naive = math.sqrt(q) - math.sqrt(p)
    stable = gaps.stable_sqrt_diff(p, q)
    assert abs(naive - stable) / stable > 1e-7  # naive lost ~9 digits


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=500).map(lambda v: 2 * v),
    p1=st.integers(min_value=3, max_value=10**15),
    step=st.integers(min_value=2, max_value=10**15),
)
def test_quotient_strictly_decreasing_in_p(d, p1, step):
    # for a fixed gap the sqrt-difference shrinks as the pair moves up
    p2 = p1 + step
    assert gaps.stable_sqrt_diff(p2, p2 + d) < gaps.stable_sqrt_diff(p1, p1 + d)


def test_max_gap_records_examples():
    t = gaps.max_gap_records(12)
    assert [(r.p_L, r.p_L1, r.g) for r in t.records] == [(2, 3, 1), (3, 5, 2), (7, 11, 4)]

    t = gaps.max_gap_records(130)
    assert [(r.p_L, r.p_L1, r.g) for r in t.records] == [
        (2, 3, 1), (3, 5, 2), (7, 11, 4), (23, 29, 6), (89, 97, 8), (113, 127, 14),
    ]


def test_max_gap_records_brute_force_below_1e4():
    primes = trial_division_primes(0, 10**4)
    best = 0
    expected = []
    for p, q in zip(primes, primes[1:]):
        if q - p > best:
            best = q - p
            expected.append((p, q, best))
    with sieve_segments(1 << 10):
        t = gaps.max_gap_records(10**4)
    assert [(r.p_L, r.p_L1, r.g) for r in t.records] == expected


def test_max_gap_records_at_1e6():
    # the largest gap below 1e6 is 114, opening at 492113 (148 only
    # appears at 2010733, beyond this bound)
    t = gaps.max_gap_records(10**6)
    assert (t.records[-1].g, t.records[-1].p_L) == (114, 492113)


def test_record_r_matches_andrica_diff():
    for rec in gaps.max_gap_records(10**4).records:
        assert rec.r == gaps.stable_sqrt_diff(rec.p_L, rec.p_L1)


def test_record_table_validation():
    good = gaps.max_gap_records(100)
    with pytest.raises(ValueError):
        gaps.GapRecordTable(records=tuple(reversed(good.records)))


def test_first_occurrences():
    first = gaps.scan_gaps(300, collect_first=True).first
    assert first[4] == 7
    assert first[6] == 23
    assert first[14] == 113
    assert list(first) == sorted(first)

    # brute force below 1e4
    primes = trial_division_primes(0, 10**4)
    expected = {}
    for p, q in zip(primes, primes[1:]):
        expected.setdefault(q - p, p)
    with sieve_segments(1 << 10):
        got = gaps.scan_gaps(10**4, collect_first=True).first
    assert got == expected


def test_first_occurrence_dominates_later_pairs():
    # every pair with gap d has a difference at most the first pair's
    first = gaps.scan_gaps(10**5, collect_first=True).first
    for g in gaps.gap_stream(10**5):
        lead = first[g.d]
        assert gaps.stable_sqrt_diff(g.p, g.q) <= gaps.stable_sqrt_diff(lead, lead + g.d)


def test_top_andrica_examples():
    top = gaps.scan_gaps(250, top_k=3).top
    assert [(t.gap.p, t.gap.q) for t in top] == [(7, 11), (113, 127), (23, 29)]
    assert [f"{t.a:.7f}" for t in top] == ["0.6708735", "0.6392819", "0.5893333"]

    top10 = gaps.scan_gaps(250, top_k=10).top
    assert (top10[-1].gap.p, top10[-1].gap.q) == (139, 149)
    assert f"{top10[-1].a:.7f}" == "0.4167295"

    only = gaps.scan_gaps(6, top_k=1).top
    assert [(t.gap.p, t.gap.q) for t in only] == [(3, 5)]
    assert f"{only[0].a:.9f}" == "0.504017170"


@settings(max_examples=15, deadline=None)
@given(
    limit=st.integers(min_value=3, max_value=10**4),
    k=st.integers(min_value=1, max_value=40),
)
def test_top_andrica_matches_brute_force(limit, k):
    primes = trial_division_primes(0, limit)
    scored = sorted(
        ((q - p) / (math.sqrt(q) + math.sqrt(p)), p, q)
        for p, q in zip(primes, primes[1:])
    )
    expected = [(p, q, a) for a, p, q in sorted(scored, key=lambda t: (-t[0], t[1]))][:k]
    with sieve_segments(512):
        top = gaps.scan_gaps(limit, top_k=k).top
    got = [(t.gap.p, t.gap.q, t.a) for t in top]
    assert got == expected


def _envelope_value(envelope, x):
    """The running maximum of A over the pairs starting at p <= x."""
    i = bisect_right([p for p, _ in envelope], x)
    if i == 0:
        raise ValueError(f"envelope undefined below its first point ({x})")
    return envelope[i - 1][1]


def test_empirical_R_examples():
    points = {rec.p_L: rec.r for rec in gaps.max_gap_records(250).records}
    assert f"{points[113]:.7f}" == "0.6392819"
    assert f"{points[2]:.9f}" == "0.317837245"


def test_andrica_envelope():
    assert f"{gaps.scan_gaps(10).envelope[-1][1]:.9f}" == "0.504017170"
    assert f"{gaps.scan_gaps(12).envelope[-1][1]:.9f}" == "0.670873479"
    env = gaps.scan_gaps(10**6).envelope
    assert [p for p, _ in env] == [2, 3, 7]
    assert f"{env[-1][1]:.9f}" == "0.670873479"
    values = [a for _, a in env]
    assert values == sorted(values)


def test_envelope_dominates_empirical_R():
    table = gaps.max_gap_records(10**5)
    env = gaps.scan_gaps(10**5).envelope
    for rec in table.records:
        assert rec.r <= _envelope_value(env, rec.p_L)
    with pytest.raises(ValueError):
        _envelope_value(env, 1)


def test_verify_andrica():
    result = gaps.scan_gaps(10**3)
    assert result.max_point.a < 1
    assert f"{result.max_point.a:.9f}" == "0.670873479"
    assert (result.max_point.gap.p, result.max_point.gap.q) == (7, 11)
    assert result.pair_count == 167  # 168 primes below 1000

    boundary = gaps.scan_gaps(3)
    assert boundary.pair_count == 0
    assert boundary.max_point is None and boundary.envelope == ()


def test_verify_agrees_with_top1():
    point = gaps.scan_gaps(10**4).max_point
    top = gaps.scan_gaps(10**4, top_k=1).top[0]
    assert point.a == top.a
    assert point.gap == top.gap


def test_decreasing_tail_proxy():
    # running max over pairs in [1e5, 1e6) is below the one over [1e3, 1e4)
    def max_a(lo, hi):
        primes = sieve.primes_in_range(lo, hi)
        best = 0.0
        for p, q in zip(primes[:-1], primes[1:]):
            best = max(best, gaps.stable_sqrt_diff(int(p), int(q)))
        return best

    assert max_a(10**5, 10**6) < max_a(10**3, 10**4)


def test_consecutiveness_spot_checks():
    import random

    rng = random.Random(7)
    stream = list(gaps.gap_stream(10**5))
    for g in rng.sample(stream, 50):
        assert trial_division_is_prime(g.p)
        assert trial_division_is_prime(g.q)
        assert all(not trial_division_is_prime(m) for m in range(g.p + 1, g.q))


def test_scan_rejects_tiny_limits():
    with pytest.raises(ValueError):
        gaps.scan_gaps(2)
    with pytest.raises(ValueError):
        list(gaps.gap_stream(2))
    for top_k in (0, -1):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            gaps.scan_gaps(100, top_k=top_k)


# --- the fold on the sieve mask against brute-force rescans -------------------

_ORACLE_LIMIT = 31500  # just past gap 72, first opening at 31397
_ORACLE_PRIMES = trial_division_primes(0, _ORACLE_LIMIT)


def _brute_scan(limit, k):
    """Records, envelope, first occurrences, top-k and pi(p) by rescanning a
    trial-division prime list pair by pair."""
    primes = _ORACLE_PRIMES[: bisect_left(_ORACLE_PRIMES, limit)]
    records, envelope, first, scored, pi = [], [], {}, [], {}
    best_d, best_a = 0, 0.0
    for n, (p, q) in enumerate(zip(primes, primes[1:])):  # p is the (n+1)-th prime
        a = (q - p) / (math.sqrt(q) + math.sqrt(p))
        if q - p > best_d:
            best_d = q - p
            records.append((p, q, best_d, a))
            pi[p] = n
        if a > best_a:
            best_a = a
            envelope.append((p, a))
        first.setdefault(q - p, p)
        scored.append((a, p, q, n))
    top = sorted(scored, key=lambda t: (-t[0], t[1]))[:k] if k else []
    pi.update((p, n) for _, p, _, n in top)
    return {
        "pair_count": max(len(primes) - 1, 0),
        "records": records,
        "envelope": envelope,
        "first": dict(sorted(first.items())),
        "top": [(p, q, a) for a, p, q, _ in top] if k else None,
        "pi": pi,
    }


def _folded(result):
    return {
        "pair_count": result.pair_count,
        "records": [(r.p_L, r.p_L1, r.g, r.r) for r in result.records],
        "envelope": list(result.envelope),
        "first": result.first,
        "top": None if result.top is None else [(t.gap.p, t.gap.q, t.a) for t in result.top],
        "pi": result.pi,
    }


@settings(max_examples=30, deadline=None)
@given(
    segment_limit=st.integers(min_value=1, max_value=64).flatmap(
        lambda segment: st.tuples(
            st.just(segment), st.integers(min_value=3, max_value=min(2000 * segment, 20000))
        )
    ),
    k=st.sampled_from([None, 1, 3, 10, 500]),
)
# only a segment of a multiple of 8 entries reads its pairs off the zero words
@example(segment_limit=(8, 20000), k=None)
@example(segment_limit=(64, 20000), k=10)
def test_scan_matches_brute_force_rescan(segment_limit, k):
    segment, limit = segment_limit
    with sieve_segments(segment):
        result = gaps.scan_gaps(limit, top_k=k, collect_first=True)
    assert _folded(result) == _brute_scan(limit, k)
    if result.max_point is not None:
        assert (result.max_point.gap.p, result.max_point.a) == result.envelope[-1]


def _extracting():
    """Count the segments a scan extracts every index from; the others give
    only their boundary pair and the pairs around their long zero-word runs."""
    return mock.patch.object(gaps, "_segment_pairs", wraps=gaps._segment_pairs)


@pytest.mark.parametrize("k,collect_first", [(None, True), (10, True), (None, False)])
def test_rescan_range_takes_both_triage_branches(k, collect_first):
    # the range and segments of the rescans above, with the largest limit they draw
    limit, segment = 20000, 64
    with sieve_segments(segment), _extracting() as extract:
        result = gaps.scan_gaps(limit, top_k=k, collect_first=collect_first)
    expected = _brute_scan(limit, k)
    if not collect_first:
        expected["first"] = None
    assert _folded(result) == expected
    assert 0 < extract.call_count < len(range(0, limit, 2 * segment))


def _pairs_around_zero_words(mask, k):
    """The consecutive set entries of ``mask`` with k or more whole zero
    8-entry words strictly between them, pair by pair."""
    ones = np.flatnonzero(mask).tolist()
    return [(i, j) for i, j in zip(ones, ones[1:]) if j // 8 - i // 8 - 1 >= k]


@settings(max_examples=300, deadline=None)
@given(
    bits=st.lists(st.booleans(), max_size=400),
    w=st.integers(min_value=0, max_value=900),
    start=st.integers(min_value=0, max_value=400),
    length=st.integers(min_value=0, max_value=400),
)
@example(bits=[True] * 64, w=48, start=0, length=23)  # a run at the very start
@example(bits=[True] * 64, w=48, start=1, length=23)  # one set entry before the run
@example(bits=[True] * 64, w=48, start=41, length=23)  # a run at the very end
@example(bits=[True] * 64, w=32, start=0, length=64)  # all zero
@example(bits=[True] * 64, w=48, start=16, length=16)  # exactly k = 2 words
@example(bits=[True] * 64, w=48, start=15, length=18)  # 2 words and a little
@example(bits=[True] * 64, w=48, start=16, length=15)  # k - 1 words
@example(bits=[True] * 64, w=32, start=16, length=8)  # exactly k = 1 word
@example(bits=[True] * 64, w=48, start=9, length=22)  # one entry short of 2 words
@example(  # two runs one nonzero word apart, which holds a single set entry
    bits=[True] * 16 + [False] * 19 + [True] + [False] * 20 + [True] * 16, w=48, start=0, length=0
)
@example(bits=[True, False] * 32, w=32, start=0, length=0)  # no zero word
def test_zero_run_test_never_misses_a_gap(bits, w, start, length):
    # A gap >= w between two set entries leaves w//2 - 1 zero entries between
    # them, which cover k whole words, so every such gap must be listed.
    mask = np.array(bits, dtype=bool)
    mask[start : start + length] = False
    mask = mask[: mask.size // 8 * 8]  # a segment of another size takes the full path
    k = (w // 2 - 8) // 8
    if k < 1:
        return  # so does a segment where this k reads nothing
    lo, hi = gaps._long_gaps(mask, k)
    listed = list(zip(lo.tolist(), hi.tolist()))
    assert listed == _pairs_around_zero_words(mask, k)
    ones = np.flatnonzero(mask).tolist()
    assert {(i, j) for i, j in zip(ones, ones[1:]) if 2 * (j - i) >= w} <= set(listed)


def test_triaged_scan_matches_a_numpy_fold():
    limit, k = 3 * 10**6 + 17, 10
    primes = sieve.primes_in_range(0, limit)
    p, q = primes[:-1], primes[1:]
    d = q - p
    a = d / (np.sqrt(q.astype(np.float64)) + np.sqrt(p.astype(np.float64)))
    rec = np.flatnonzero(d > np.maximum.accumulate(np.concatenate(([0], d[:-1]))))
    env = np.flatnonzero(a > np.maximum.accumulate(np.concatenate(([0.0], a[:-1]))))
    values, at = np.unique(d, return_index=True)
    top = np.lexsort((p, -a))[:k]
    with sieve_segments(4096), _extracting() as extract:
        result = gaps.scan_gaps(limit, top_k=k, collect_first=True)
    assert result.pair_count == d.size
    assert [(r.p_L, r.p_L1, r.g, r.r) for r in result.records] == [
        (int(p[i]), int(q[i]), int(d[i]), float(a[i])) for i in rec
    ]
    assert list(result.envelope) == [(int(p[i]), float(a[i])) for i in env]
    assert result.first == {int(g): int(p[i]) for g, i in zip(values, at)}
    assert [(t.gap.p, t.gap.q, t.a) for t in result.top] == [
        (int(p[i]), int(q[i]), float(a[i])) for i in top
    ]
    assert result.pi == {int(p[i]): int(i) for i in (*rec, *top)}
    assert 0 < extract.call_count < len(range(0, limit, 2 * 4096)) // 2


@pytest.mark.parametrize("segment_length", [16, 1000, None])
def test_top_k_takes_pairs_from_later_segments(segment_length):
    # the top 500 of 2261 pairs spread far past the first segments, so every
    # segment passes or fails the d_max >= w_a prefilter on its merits
    limit = 20000
    with sieve_segments(segment_length):
        result = gaps.scan_gaps(limit, top_k=500)
    expected = _brute_scan(limit, 500)
    assert [(t.gap.p, t.gap.q, t.a) for t in result.top] == expected["top"]
    assert max(t.gap.p for t in result.top) > limit // 2


@pytest.mark.parametrize("segment_length", [16, None])
def test_top_k_ties_resolve_by_smaller_p(monkeypatch, segment_length):
    # Quotients rounded down to 1/64 tie all the time (rounding down keeps
    # them under the segment bound): ties with the k-th best must survive the
    # prefilter and the per-segment cut, and order by the smaller p.
    exact = gaps._candidate_quotients

    def coarse(*args):
        sel, a = exact(*args)
        return sel, np.floor(a * 64) / 64

    monkeypatch.setattr(gaps, "_candidate_quotients", coarse)
    limit = 10000
    primes = _ORACLE_PRIMES[: bisect_left(_ORACLE_PRIMES, limit)]
    scored = sorted(
        (
            (math.floor((q - p) / (math.sqrt(q) + math.sqrt(p)) * 64) / 64, p, q)
            for p, q in zip(primes, primes[1:])
        ),
        key=lambda t: (-t[0], t[1]),
    )
    for k in (1, 10, 300):
        with sieve_segments(segment_length):
            result = gaps.scan_gaps(limit, top_k=k)
        assert [(t.a, t.gap.p, t.gap.q) for t in result.top] == scored[:k]


@settings(max_examples=100, deadline=None)
@given(
    p0=st.integers(min_value=2, max_value=2**62),
    step=st.integers(min_value=0, max_value=2**40),
    d=st.integers(min_value=1, max_value=1500),
    extra=st.integers(min_value=0, max_value=1500),
)
def test_segment_bound_is_never_below_a_quotient(p0, step, d, extra):
    # a pair (p, p + d) with p >= p0 never beats d_max / (2 sqrt p0), d <= d_max
    p = p0 + step
    assert gaps.stable_sqrt_diff(p, p + d) <= (d + extra) / (2.0 * math.sqrt(p0))


@settings(max_examples=300, deadline=None)
@given(
    p0=st.integers(min_value=2, max_value=2**62),
    dm=st.integers(min_value=1, max_value=1500),
    offset=st.integers(min_value=-2, max_value=2),
)
def test_quotient_gap_bound_keeps_every_gap_that_reaches_m(p0, dm, offset):
    # m is the segment bound of a gap dm, so a quotient bound lands exactly on
    # it; every gap whose bound reaches m must pass the integer filter d >= w_a
    two_root = 2.0 * math.sqrt(p0)
    m = dm / two_root
    d = dm + offset
    if d >= 1 and d / two_root >= m:
        assert d >= gaps._quotient_gap_bound(m, two_root)


def _walk_rising(values, current):
    """Indices where ``values`` sets successive new maxima above ``current``,
    found one at a time."""
    out = []
    pos = 0
    while pos < values.size:
        above = np.nonzero(values[pos:] > current)[0]
        if above.size == 0:
            break
        pos += int(above[0])
        current = values[pos]
        out.append(pos)
        pos += 1
    return out


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-6, max_value=6), max_size=40),
    current=st.integers(min_value=-8, max_value=8),
    as_float=st.booleans(),
)
@example(values=[], current=0, as_float=False)
@example(values=[], current=0, as_float=True)
@example(values=[2, 2, 1, 3, 3], current=0, as_float=False)  # a tie is no new maximum
@example(values=[2, 2, 1, 3, 3], current=2, as_float=True)  # nor is a tie with current
@example(values=[1, 5, 3], current=7, as_float=False)  # current above every value
@example(values=[1, 5, 3], current=7, as_float=True)
def test_rising_maxima_match_a_walk(values, current, as_float):
    if as_float:  # quarter steps: quotients are not integers
        arr, current = np.array(values, dtype=np.float64) / 4, current / 4
    else:
        arr = np.array(values, dtype=np.int64)
    assert gaps._rising(arr, current).tolist() == _walk_rising(arr, current)


@pytest.mark.parametrize("segment_length", [64, None, 16])
def test_first_occurrences_grow_the_table(segment_length):
    # the table of first openings starts empty and grows with the largest gap
    with sieve_segments(segment_length):
        got = gaps.scan_gaps(_ORACLE_LIMIT, collect_first=True)
    expected = _brute_scan(_ORACLE_LIMIT, 1)["first"]
    assert got.first == expected
    assert max(expected) == 72 and expected[72] == 31397  # the last growth


def test_prime_index_of_records_and_top_pairs():
    limit = 10**5 + 3
    with sieve_segments(1000):
        result = gaps.scan_gaps(limit, top_k=25)
    wanted = {rec.p_L for rec in result.records} | {t.gap.p for t in result.top}
    assert set(result.pi) == wanted
    for x, n in result.pi.items():
        assert n == sieve.prime_count(x), x


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**62),
            st.one_of(
                st.integers(min_value=1, max_value=1500),
                # p + d stays within int64: at most 2^62 + 2^62 - 1
                st.integers(min_value=1, max_value=2**62 - 1),
            ),
        ),
        min_size=1,
        max_size=64,
    )
)
@example(pairs=[(2**53, 1), (2**53 + 1, 2), (2**53 - 1, 2), (2**62 - 1, 3), (0, 2**62), (2**62, 2**62 - 1)])
def test_andrica_quotients_match_the_scalar_form_bit_for_bit(pairs):
    # beyond 2^53 the int -> double conversion rounds; both forms must round alike
    p = np.array([x for x, _ in pairs], dtype=np.int64)
    q = np.array([x + d for x, d in pairs], dtype=np.int64)
    got = [a.hex() for a in gaps.andrica_quotients(p, q).tolist()]
    assert got == [gaps.stable_sqrt_diff(x, x + d).hex() for x, d in pairs]


@settings(max_examples=200, deadline=None)
@given(
    base=st.integers(min_value=1500, max_value=2**62),
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**40), st.integers(min_value=1, max_value=1500)),
        min_size=1,
        max_size=64,
    ),
    w=st.integers(min_value=0, max_value=1500),
)
@example(base=2**53 - 1, pairs=[(0, 2), (1, 2), (2**40, 1500)], w=0)
def test_candidate_quotients_match_andrica_quotients(base, pairs, w):
    idx = np.array([i for i, _ in pairs], dtype=np.int64)
    d = np.array([g for _, g in pairs], dtype=np.int64)
    sel, a = gaps._candidate_quotients(base, idx, d, w)
    assert sel.tolist() == [j for j, g in enumerate(d.tolist()) if g >= w]
    q = base + 2 * idx[sel]
    assert a.tobytes() == gaps.andrica_quotients(q - d[sel], q).tobytes()


def test_quotient_step_holds_few_segment_sized_arrays():
    # Every pair of the first segment is a candidate.  Its quotient step turns
    # q into p in place after q's root, which peaks at 8.14 MiB here; keeping
    # q to the end, as andrica_quotients does, peaks at 9.39 MiB.
    tracemalloc.start()
    try:
        gaps.scan_gaps(4 * 10**6, collect_first=True, top_k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.75 * 2**20
