"""Closed-form gap-size models and the predictors built on them.

Two families of formulas live here:

* maximal-gap size models G(x): the pi-based form ``g_wolf``, its Gauss
  substitution ``g_gauss`` (pi ~ x/ln x), the Cramer form ln^2 x and the
  Granville variant 2 e^(-gamma) ln^2 x;
* first-occurrence models p_f(d) (``pf_wolf``, ``pf_shanks``) and the
  sqrt-difference predictors derived from them: ``r_kernel`` (the main
  prediction, maximal at d = 9), the Shanks counterpart ``r_shanks``
  (maximal at d = 16) and the closed Cramer form ``r_cramer_form``.

``MODELS`` is the one registry of these functions: name -> (function, takes
pi(x)).  It also holds the main prediction over each gap-size form,
``r_main_<form>`` = r_kernel(G(x)), and the CLI derives its ``predict`` and
``figure1 --model`` choices from it.

Everything is a pure function of floats.  Integer inputs above 2^53 are
rounded to the nearest double on entry; that relative error (<= 2^-53) is
far below every tolerance used downstream.

The twin-prime constant enters through c' = ln(C2).  Note the additive
constant in ``g_gauss`` is c' itself, not ln(c'): only that reading makes
the formula the exact algebraic image of ``g_wolf`` under pi = x/ln x and
makes the Cramer composition identity hold (both are asserted in the test
suite).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gaplab import sieve


class DomainError(ValueError):
    """An input lies outside a model's mathematical domain."""


EULER_GAMMA = 0.5772156649015329

# Twin-prime constant 2*prod_{p>2}(1 - 1/(p-1)^2) = 1.320323631693739148...,
# nearest double; recomputed and cross-checked by twin_constant() in tests.
TWIN_PRIME_C2 = 1.3203236316937392


@dataclass(frozen=True)
class HeuristicConstants:
    """The constants feeding every predictor, stored to full double precision."""

    C2: float = TWIN_PRIME_C2
    c_prime: float = math.log(TWIN_PRIME_C2)
    granville_coeff: float = 2.0 * math.exp(-EULER_GAMMA)

    @classmethod
    def from_c2(cls, c2: float) -> "HeuristicConstants":
        return cls(C2=c2, c_prime=math.log(c2))


DEFAULT_CONSTANTS = HeuristicConstants()


@dataclass(frozen=True)
class TwinConstantEstimate:
    value: float
    tail_bound: float


def _truncation_tail_bound(prime_limit: int, value: float) -> float:
    """Upper bound on |value - C2| from cutting the product at prime_limit.

    Bounds sum_{p >= L} 1/(p-1)^2 by Abel summation against the classical
    pi(t) < 1.25506 t/ln t (Rosser & Schoenfeld), dropping the negative
    boundary term; primes below 17 are added explicitly when L is small.
    """
    explicit = sum(
        1.0 / (p - 1) ** 2 for p in (3, 5, 7, 11, 13) if p >= prime_limit
    )
    L = max(prime_limit, 17)
    sum_bound = explicit + 2 * 1.25506 / math.log(L) * (
        1.0 / (L - 1) + 0.5 / (L - 1) ** 2
    )
    # |ln(1-u)| <= u/(1-u_max); the largest omitted u = 1/(p-1)^2 is at most 1/4
    u_max = 0.25 if prime_limit <= 3 else 1.0 / (prime_limit - 1) ** 2
    return value * sum_bound / (1.0 - u_max)


def _twin_blocks(prime_limit: int):
    """The prime blocks of [2, prime_limit), checked at the call.  Past 2 they
    match those of [3, prime_limit): both cut segments at the same odd numbers."""
    if prime_limit < 3:
        raise ValueError("prime_limit must be >= 3")
    return sieve.iter_prime_blocks(2, prime_limit)


def twin_constant(prime_limit: int) -> TwinConstantEstimate:
    """Truncated twin-prime product 2*prod_{2<p<prime_limit}(1 - 1/(p-1)^2).

    Accumulated as a sum of log1p terms (direct multiplication of 78k
    factors just below 1 sheds digits), with a certified overestimate of
    the truncation error in ``tail_bound``.  The empty product at 3 is 2.
    """
    partial_sums = []
    for block in _twin_blocks(prime_limit):
        pf = block[block.searchsorted(3) :].astype(np.float64)  # the odd primes
        partial_sums.append(float(np.sum(np.log1p(-1.0 / (pf - 1.0) ** 2))))
    value = 2.0 * math.exp(math.fsum(partial_sums))
    return TwinConstantEstimate(
        value=value,
        tail_bound=_truncation_tail_bound(prime_limit, value),
    )


def g_wolf(x: float, pi_x: float) -> float:
    """Pi-based maximal-gap size: (x/pi(x)) * (2 ln pi(x) - ln x + c').

    ``pi_x`` is normally the exact ``prime_count(x)``; callers may supply
    an approximation (e.g. x/ln x) when exact counting is out of reach.
    """
    if pi_x < 1:
        raise DomainError(f"pi_x must be >= 1, got {pi_x}")
    if x <= 0:
        raise DomainError(f"x must be positive, got {x}")
    x = float(x)
    return x / pi_x * (2.0 * math.log(pi_x) - math.log(x) + DEFAULT_CONSTANTS.c_prime)


def g_gauss(x: float) -> float:
    """Gauss-substituted gap size: ln x * (ln x - 2 ln ln x + c')."""
    x = float(x)
    if x <= math.e:
        raise DomainError(f"g_gauss needs x > e, got {x}")
    lx = math.log(x)
    return lx * (lx - 2.0 * math.log(lx) + DEFAULT_CONSTANTS.c_prime)


def g_cramer(x: float) -> float:
    """Cramer gap size ln^2 x."""
    x = float(x)
    if x < 1:
        raise DomainError(f"g_cramer needs x >= 1, got {x}")
    return math.log(x) ** 2


def granville_bound(p: float) -> float:
    """Granville's lower gap size for infinitely many pairs: 2 e^(-gamma) ln^2 p."""
    p = float(p)
    if p <= 1:
        raise DomainError(f"granville_bound needs p > 1, got {p}")
    return DEFAULT_CONSTANTS.granville_coeff * math.log(p) ** 2


def _scaled_exp(name: str, d: float, scale: float, exponent: float) -> float:
    """scale * e^exponent, or a DomainError naming ``name`` and ``d`` where
    that overflows a double or the factor e^exponent falls below the normal
    range, where its relative error is no longer bounded.  While the factor
    is normal, that error is at most about 708 * 2^-53, from the rounding of
    ``exponent``.  A subnormal value with a normal factor is let through:
    that is r_shanks(d) = d/2 for 0 < d < 2 DBL_MIN, which kernel_argmax
    must evaluate over an interval (0, d)."""
    try:
        factor = math.exp(exponent)
    except OverflowError:
        factor = math.inf
    value = scale * factor
    if math.isinf(value):
        raise DomainError(f"{name} overflows a double at d = {d}")
    if factor < sys.float_info.min:
        raise DomainError(f"{name} underflows a double at d = {d}")
    return value


def pf_wolf(d: float) -> float:
    """Predicted first-occurrence point of gap d: sqrt(d) * e^sqrt(d)."""
    d = float(d)
    if d <= 0:
        raise DomainError(f"pf_wolf needs d > 0, got {d}")
    rd = math.sqrt(d)
    return _scaled_exp("pf_wolf", d, rd, rd)


def pf_shanks(d: float) -> float:
    """Shanks' first-occurrence point: e^sqrt(d)."""
    d = float(d)
    if d < 0:
        raise DomainError(f"pf_shanks needs d >= 0, got {d}")
    return _scaled_exp("pf_shanks", d, 1.0, math.sqrt(d))


def r_kernel(d: float) -> float:
    """Sqrt-difference at the predicted first occurrence: (1/2) d^(3/4) e^(-sqrt(d)/2)."""
    d = float(d)
    if d < 0:
        raise DomainError(f"r_kernel needs d >= 0, got {d}")
    return _scaled_exp("r_kernel", d, 0.5 * d**0.75, -0.5 * math.sqrt(d))


def r_shanks(d: float) -> float:
    """Kernel under Shanks' first-occurrence law: (1/2) d e^(-sqrt(d)/2)."""
    d = float(d)
    if d < 0:
        raise DomainError(f"r_shanks needs d >= 0, got {d}")
    return _scaled_exp("r_shanks", d, 0.5 * d, -0.5 * math.sqrt(d))


def r_cramer_form(x: float) -> float:
    """Closed form of the main prediction under G = ln^2 x: ln^(3/2) x / (2 sqrt(x))."""
    x = float(x)
    if x < 1:
        raise DomainError(f"r_cramer_form needs x >= 1, got {x}")
    return math.log(x) ** 1.5 / (2.0 * math.sqrt(x))


# The one model registry: name -> (function, takes pi(x)).  r_main_<form> is
# the main prediction r_kernel(G(x)) over a gap-size form; the form's domain
# errors propagate, and a negative G (degenerate small x) fails in r_kernel.
MODELS: dict[str, tuple[Callable[..., float], bool]] = {
    "g_wolf": (g_wolf, True),
    "g_gauss": (g_gauss, False),
    "g_cramer": (g_cramer, False),
    "granville": (granville_bound, False),
    "pf_wolf": (pf_wolf, False),
    "pf_shanks": (pf_shanks, False),
    "r_kernel": (r_kernel, False),
    "r_shanks": (r_shanks, False),
    "r_cramer_form": (r_cramer_form, False),
    "r_main_wolf": (lambda x, pi_x: r_kernel(g_wolf(x, pi_x)), True),
    "r_main_gauss": (lambda x: r_kernel(g_gauss(x)), False),
    "r_main_cramer": (lambda x: r_kernel(g_cramer(x)), False),
    "r_main_granville": (lambda x: r_kernel(granville_bound(x)), False),
}

# The MODELS entry of each gap-size form, by its ``figure1 --model`` name.
GAP_FORMS = {
    "wolf_exact_pi": "g_wolf",
    "wolf_gauss": "g_gauss",
    "cramer": "g_cramer",
    "granville": "granville",
}


# The kernels (1/2) d^alpha e^(-sqrt(d)/2) by name, with their exponent alpha.
_KERNELS = {"r_kernel": (r_kernel, 0.75), "r_shanks": (r_shanks, 1.0)}


def kernel_argmax(kernel, bounds: tuple[float, float] = (0.0, 100.0)) -> tuple[float, float]:
    """Maximum ``(x, kernel(x))`` of ``r_kernel`` or ``r_shanks`` (or their
    names) over ``bounds``.

    d/dd ln kernel = alpha/d - 1/(4 sqrt(d)) is positive below
    d* = (4 alpha)^2 and negative above, so the kernel is unimodal and its
    maximum over [lo, hi] lies at d* clamped into the bounds: 9 for
    ``r_kernel``, 16 for ``r_shanks``, and the right edge of a short
    interval like (0, 1).
    """
    for name, (fn, alpha) in _KERNELS.items():
        if kernel == name or kernel is fn:
            break
    else:
        raise ValueError(f"kernel_argmax supports r_kernel and r_shanks, not {kernel!r}")
    lo, hi = bounds
    if not 0 <= lo < hi:
        raise ValueError(f"invalid bounds {bounds}")
    x = min(max((4.0 * alpha) ** 2, lo), hi)
    return x, fn(x)
