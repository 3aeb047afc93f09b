import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import gaps, sieve
from gaplab.gaps import PrimeGap, TableSource
from tests.conftest import sqrt_diff_oracle, trial_division_is_prime, trial_division_primes

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
    stream = list(gaps.gap_stream(3000, segment_length=64))
    assert [(g.p, g.q) for g in stream] == list(zip(primes, primes[1:]))


@settings(max_examples=30, deadline=None)
@given(limit=st.integers(min_value=3, max_value=20000))
def test_telescoping(limit):
    stream = list(gaps.gap_stream(limit, segment_length=256))
    primes = trial_division_primes(0, limit)
    assert sum(g.d for g in stream) == (primes[-1] - 2 if primes else 0)


@settings(max_examples=20, deadline=None)
@given(
    limit=st.integers(min_value=3, max_value=30000),
    exponent=st.integers(min_value=4, max_value=12),
)
def test_gap_stream_segment_invariance(limit, exponent):
    coarse = [(g.p, g.q) for g in gaps.gap_stream(limit)]
    fine = [(g.p, g.q) for g in gaps.gap_stream(limit, segment_length=1 << exponent)]
    assert coarse == fine


def test_prime_gap_validation():
    with pytest.raises(ValueError):
        PrimeGap(7, 7)
    with pytest.raises(ValueError):
        PrimeGap(2, 5)
    with pytest.raises(ValueError):
        PrimeGap(7, 10)  # odd gap between odd numbers
    assert PrimeGap(2, 3).d == 1


@pytest.mark.parametrize("p,q,printed", TABLE1_SAMPLES)
def test_andrica_diff_published_values(p, q, printed):
    assert f"{gaps.andrica_diff(PrimeGap(p, q)):.9f}" == printed


def test_andrica_diff_against_extended_precision():
    pairs = [(2, 3), (7, 11), (107, 109), (492113, 492227)]
    pairs += [(1425172824437699411, 1425172824437699411 + 1476)]
    pairs += [(218034721194214273, 218034721194214273 + 1248)]
    for p, q in pairs:
        mine = gaps.andrica_diff(PrimeGap(p, q))
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
    assert t.source is TableSource.COMPUTED and t.limit == 12

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
    t = gaps.max_gap_records(10**4, segment_length=1 << 10)
    assert [(r.p_L, r.p_L1, r.g) for r in t.records] == expected


def test_max_gap_records_at_1e6():
    # the largest gap below 1e6 is 114, opening at 492113 (148 only
    # appears at 2010733, beyond this bound)
    t = gaps.max_gap_records(10**6)
    assert (t.records[-1].g, t.records[-1].p_L) == (114, 492113)


def test_record_r_matches_andrica_diff():
    for rec in gaps.max_gap_records(10**4).records:
        assert rec.r == gaps.andrica_diff(PrimeGap(rec.p_L, rec.p_L1))


def test_record_table_validation():
    good = gaps.max_gap_records(100)
    with pytest.raises(ValueError):
        gaps.GapRecordTable(
            records=tuple(reversed(good.records)), source=TableSource.COMPUTED, limit=100
        )


def test_first_occurrences():
    first = gaps.first_occurrences(300)
    assert first[4].p_f == 7
    assert first[6].p_f == 23
    assert first[14].p_f == 113
    assert list(first) == sorted(first)

    # brute force below 1e4
    primes = trial_division_primes(0, 10**4)
    expected = {}
    for p, q in zip(primes, primes[1:]):
        expected.setdefault(q - p, p)
    got = gaps.first_occurrences(10**4, segment_length=1 << 10)
    assert {d: f.p_f for d, f in got.items()} == expected


def test_first_occurrence_dominates_later_pairs():
    # every pair with gap d has a difference at most the first pair's
    first = gaps.first_occurrences(10**5)
    for g in gaps.gap_stream(10**5):
        lead = first[g.d]
        assert gaps.andrica_diff(g) <= gaps.stable_sqrt_diff(lead.p_f, lead.p_f + g.d)


def test_top_andrica_examples():
    top = gaps.top_andrica(250, 3)
    assert [(t.gap.p, t.gap.q) for t in top] == [(7, 11), (113, 127), (23, 29)]
    assert [f"{t.a:.7f}" for t in top] == ["0.6708735", "0.6392819", "0.5893333"]

    top10 = gaps.top_andrica(250, 10)
    assert (top10[-1].gap.p, top10[-1].gap.q) == (139, 149)
    assert f"{top10[-1].a:.7f}" == "0.4167295"

    only = gaps.top_andrica(6, 1)
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
    got = [(t.gap.p, t.gap.q, t.a) for t in gaps.top_andrica(limit, k, segment_length=512)]
    assert got == expected


def test_empirical_R_examples():
    table = gaps.max_gap_records(250)
    points = dict(gaps.empirical_R(table))
    assert f"{points[113]:.7f}" == "0.6392819"
    assert f"{points[2]:.9f}" == "0.317837245"


def test_andrica_envelope():
    assert f"{gaps.andrica_envelope(10)[-1][1]:.9f}" == "0.504017170"
    assert f"{gaps.andrica_envelope(12)[-1][1]:.9f}" == "0.670873479"
    env = gaps.andrica_envelope(10**6)
    assert [p for p, _ in env] == [2, 3, 7]
    assert f"{env[-1][1]:.9f}" == "0.670873479"
    values = [a for _, a in env]
    assert values == sorted(values)


def test_envelope_dominates_empirical_R():
    table = gaps.max_gap_records(10**5)
    env = gaps.andrica_envelope(10**5)
    for x, r in gaps.empirical_R(table):
        assert r <= gaps.envelope_value(env, x)
    with pytest.raises(ValueError):
        gaps.envelope_value(env, 1)


def test_verify_andrica():
    report = gaps.verify_andrica(10**3)
    assert report.all_below_one
    assert f"{report.max_a:.9f}" == "0.670873479"
    assert (report.argmax_pair.p, report.argmax_pair.q) == (7, 11)
    assert report.count == 167  # 168 primes below 1000

    boundary = gaps.verify_andrica(3)
    assert boundary.all_below_one and boundary.count == 0
    assert boundary.argmax_pair is None and boundary.max_a == 0.0


def test_verify_agrees_with_top1():
    report = gaps.verify_andrica(10**4)
    top = gaps.top_andrica(10**4, 1)[0]
    assert report.max_a == top.a
    assert report.argmax_pair == top.gap


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
    with pytest.raises(ValueError):
        gaps.top_andrica(100, 0)


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
        "first": {d: f.p_f for d, f in result.first.items()},
        "top": None if result.top is None else [(t.gap.p, t.gap.q, t.a) for t in result.top],
        "pi": result.pi,
    }


@settings(max_examples=30, deadline=None)
@given(
    segment=st.integers(min_value=1, max_value=64),
    k=st.sampled_from([None, 1, 3, 10, 500]),
    data=st.data(),
)
def test_scan_matches_brute_force_rescan(segment, k, data):
    limit = data.draw(st.integers(min_value=3, max_value=min(2000 * segment, 20000)))
    result = gaps.scan_gaps(limit, top_k=k, collect_first=True, segment_length=segment)
    assert _folded(result) == _brute_scan(limit, k)
    if result.max_point is not None:
        assert (result.max_point.gap.p, result.max_point.a) == result.envelope[-1]


@pytest.mark.parametrize("segment_length", [16, 1000, None])
def test_top_k_takes_pairs_from_later_segments(segment_length):
    # the top 500 of 2261 pairs spread far past the first segments, so every
    # segment passes or fails the d_max / (2 sqrt p0) prefilter on its merits
    limit = 20000
    result = gaps.scan_gaps(limit, top_k=500, segment_length=segment_length)
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
        result = gaps.scan_gaps(limit, top_k=k, segment_length=segment_length)
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


@pytest.mark.parametrize("start,segment_length", [(1, 64), (2, None), (64, 16)])
def test_first_occurrences_grow_the_seen_table(monkeypatch, start, segment_length):
    monkeypatch.setattr(gaps, "_SEEN_START", start)
    got = gaps.first_occurrences(_ORACLE_LIMIT, segment_length=segment_length)
    expected = _brute_scan(_ORACLE_LIMIT, 1)["first"]
    assert {d: f.p_f for d, f in got.items()} == expected
    # gap 72 first opens at 31397: beyond the default table size
    assert max(expected) > gaps._SEEN_START and expected[72] == 31397


def test_default_seen_table_is_outgrown_by_an_ordinary_scan():
    assert max(gaps.first_occurrences(10**5)) > gaps._SEEN_START


def test_prime_index_of_records_and_top_pairs():
    limit = 10**5 + 3
    xs = [0, 1, 2, 3, 4, 1327, 1328, 99991, limit]
    result = gaps.scan_gaps(limit, top_k=25, pi_at=xs, segment_length=1000)
    wanted = {rec.p_L for rec in result.records} | {t.gap.p for t in result.top} | set(xs)
    assert set(result.pi) == wanted
    for x, n in result.pi.items():
        assert n == sieve.prime_count(x), x


def test_pi_at_must_lie_within_the_scan():
    with pytest.raises(ValueError):
        gaps.scan_gaps(1000, pi_at=[1001])
    with pytest.raises(ValueError):
        gaps.scan_gaps(1000, pi_at=[-1])


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**62),
            st.one_of(
                st.integers(min_value=1, max_value=1500),
                st.integers(min_value=1, max_value=2**62),
            ),
        ),
        min_size=1,
        max_size=64,
    )
)
@example(pairs=[(2**53, 1), (2**53 + 1, 2), (2**53 - 1, 2), (2**62 - 1, 3), (0, 2**62)])
def test_andrica_quotients_match_the_scalar_form_bit_for_bit(pairs):
    # beyond 2^53 the int -> double conversion rounds; both forms must round alike
    p = np.array([x for x, _ in pairs], dtype=np.int64)
    q = np.array([x + d for x, d in pairs], dtype=np.int64)
    got = [a.hex() for a in gaps.andrica_quotients(p, q).tolist()]
    assert got == [gaps.stable_sqrt_diff(x, x + d).hex() for x, d in pairs]
