"""Every sieve-backed entry point rejects bad input when it is called.

The ``no_sieve`` fixture fails the test if a segment mask or a base prime is
computed, and no call here is followed by ``next()``: a generator that
checked its input only once iterated would pass bad input through.
"""

import pytest

from gaplab import gaps, heuristics, sieve

TOO_BIG = sieve.MAX_SIEVE_BOUND + 1  # 2^63

# entry point -> call over the half-open range [lo, hi)
_RANGE_CALLS = {
    "iter_prime_blocks": sieve.iter_prime_blocks,
    "primes_in_range": sieve.primes_in_range,
}

# entry point -> call with one bound, and its message for a bound of 2
# (None: prime_count(2) is valid, 0)
_BOUND_CALLS = {
    "prime_count": (sieve.prime_count, None),
    "scan_gaps": (gaps.scan_gaps, "limit must be >= 3"),
    "gap_stream": (gaps.gap_stream, "limit must be >= 3"),
    "max_gap_records": (gaps.max_gap_records, "limit must be >= 3"),
    "twin_constant": (heuristics.twin_constant, "prime_limit must be >= 3"),
}


def _cases():
    for name, call in _RANGE_CALLS.items():
        yield name, call, (10, 5), r"empty or reversed range \[10, 5\)"
        yield name, call, (-1, 10), "range bounds must be non-negative"
        yield name, call, (0, TOO_BIG), "sieve range bound .* exceeds"
    for name, (call, below_three) in _BOUND_CALLS.items():
        yield name, call, (-1,), below_three or "x must be >= 0"
        yield name, call, (TOO_BIG,), "sieve range bound .* exceeds"
        if below_three is not None:
            yield name, call, (2,), below_three


_CASES = list(_cases())


@pytest.mark.parametrize(
    "call,args,message",
    [case[1:] for case in _CASES],
    ids=[name + repr(args) for name, _, args, _ in _CASES],
)
def test_bad_input_is_rejected_at_call_time(no_sieve, call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)
