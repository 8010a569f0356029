"""Limiting probabilities to proven decimal digits, on integers alone.

limit_eval evaluates the limiting probability of each kind of LIMIT_KINDS
between two consecutive partial sums of Euler's pentagonal series that
lie on either side of it, deepened until both ends truncate to the same
digits (_resolve_digits).  Every end is a pair of
integers, so this module needs only qcount, for PrimePower and the
guard's errors, and never loads the series engine or fractions.
gfengine's cyclic_limit_bracket, the cycle-index route that verify
compares with the cyclic limit, shares _check_limit_args and
_resolve_digits.
"""

from __future__ import annotations

from collections.abc import Callable
from math import isqrt, log2

from .qcount import BadKindParams, CostExceeded, PrimePower

# limit_eval refuses a request whose partial product P_R, of R(R+1)/2
# log2(q) bits, raised to the power m (q - 1 for projective_frac, else 1)
# would have more than this many bits.  The bracket never forms P_R: the
# ends of the pentagonal series have about (digits + 2) log2(10) bits
# before the power, so the bound is kept only so that the same requests are
# admitted.  At 50 digits it admits q <= 4096 and refuses q >= 4099; every
# other limit kind stays far below it.  The largest admitted limits take
# 0.35-0.42 s of process time on a 2-core Xeon (projective_frac at q = 9091
# to 32 digits), 0.15 s at q = 4096 and 0.02 s at q = 1009 to 50 digits.
MAX_LIMIT_BITS = 7 * 10**6

LIMIT_KINDS = (
    "invertible",
    "linear_derangement_frac",
    "projective_frac",
    "cyclic",
    "conj_ratio",
)


# a proven bracket (lo, hi), each end a pair (num, den) of positive integers
_Ends = tuple[tuple[int, int], tuple[int, int]]


class UnresolvedDigits(ArithmeticError):
    """A proven bracket did not settle the requested digits within its depth cap."""


def decimal_truncate(x, digits: int) -> str:
    """Render a non-negative rational, a Fraction or an int, with `digits`
    decimals, truncated."""
    if x < 0:
        raise ValueError("expected a non-negative value")
    if digits < 0:
        raise ValueError("digits must be >= 0")
    return _truncated(x.numerator, x.denominator, digits)


def _truncated(num: int, den: int, digits: int) -> str:
    """num / den with `digits` decimals, truncated; the pair need not be reduced."""
    s = str(num * 10**digits // den).rjust(digits + 1, "0")
    if digits == 0:
        return s
    return s[:-digits] + "." + s[-digits:]


def _check_limit_args(q: int, digits: int) -> None:
    PrimePower.of(q)
    if not 1 <= digits <= 50:
        raise ValueError("digits must be between 1 and 50")


def _resolve_digits(bracket: Callable[[int], _Ends], depth: int, digits: int) -> _Ends:
    """Deepen bracket(depth) -> (lo, hi) until both ends truncate alike.

    The ends need not be reduced; the pair of ends that settled is returned.
    """
    scale = 10**digits
    for depth in range(depth, 2 * depth + 64):
        ends = bracket(depth)
        (lo_num, lo_den), (hi_num, hi_den) = ends
        if lo_num * scale // lo_den == hi_num * scale // hi_den:
            return ends
    raise UnresolvedDigits(f"{digits} digits not settled by depth {depth}")


def _pentagonal_ends(q: int, depth: int) -> tuple[int, int]:
    """(lo, hi), the partial sums S_(K-1) and S_K in increasing order, each
    times q^(K(3K+1)/2), K = depth.  S_K is Euler's pentagonal series for
    prod_{r>=1}(1 - x^r) at x = 1/q, cut after its K-th pair of terms:

        S_K = 1 + sum_{k=1..K} (-1)^k (x^(k(3k-1)/2) + x^(k(3k+1)/2)).

    S_K is a Horner run in q over the exponents 0, 1, 2, 5, 7, 12, 15, ...,
    whose gaps alternate 2k - 1 and k, each step a multiplication by a
    small power of q.  S_(K-1) differs from it by the K-th pair,
    (q^K + 1) / q^(K(3K+1)/2), and lies below it when K is even.
    """
    num = 1
    for k in range(1, depth + 1):
        sign = -1 if k % 2 else 1
        num = (num * q ** (2 * k - 1) + sign) * q**k + sign
    gap = q**depth + 1
    return (num - gap, num) if depth % 2 == 0 else (num, num + gap)


def limit_eval(kind: str, q: int, digits: int = 5) -> str:
    """Evaluate a limiting probability to `digits` proven truncated decimals.

    The limits: invertible, linear_derangement_frac and conj_ratio all
    equal E = prod_{r>=1}(1 - q^-r); projective_frac is E^m with m = q - 1;
    and cyclic is (1 - q^-5) * prod_{r>=3}(1 - q^-r), E times the factor
    (1 - q^-5) / ((1 - q^-1)(1 - q^-2)).  Elsewhere m = 1.

    E comes from Euler's pentagonal number theorem (Andrews, The Theory
    of Partitions, ch. 1): with x = 1/q,

        prod_{r>=1}(1 - x^r) = 1 + sum_{k>=1} (-1)^k t_k,
        t_k = x^(k(3k-1)/2) + x^(k(3k+1)/2),

    the two terms of each pair sharing the sign (-1)^k.  The grouped terms
    alternate in sign and shrink strictly, t_(k+1) / t_k =
    x^(3k+1) (1 + x^(k+1)) / (1 + x^k) < 1, so by Leibniz the partial sums
    S_(K-1) and S_K lie on either side of E, S_K above when K is even.
    Their gap is t_K = x^(K(3K-1)/2) (1 + x^K).  Both ends are positive,
    S_1 = 1 - x - x^2 >= 1/4 at x <= 1/2, so raising them to the power m
    keeps their order, and the cyclic factor is exact and positive.

    R, the first depth whose product-form tail m q^-R / (q - 1) is below
    10^-(digits+2), sets the cost guard: MAX_LIMIT_BITS bounds
    m R(R+1)/2 log2(q), whatever the series costs.  The series starts at
    the first K with K(3K-1)/2 >= R, where its gap t_K <= x^R q / (q - 1)
    is within that tail, and K grows until both ends truncate to the
    same string.

    Both ends are integer pairs (num, den), never reduced: S_(K-1) and
    S_K are _pentagonal_ends(q, K) over q^(K(3K+1)/2), and the cyclic
    factor is (q^5 - 1) over (q - 1)(q^2 - 1) q^2.  Their integers have
    about m (digits + 2) log2(10) bits, where the partial product to R
    would have m R(R+1)/2 log2(q).  The decimals are num * 10^digits // den,
    and scaling num and den by one positive integer leaves that floor
    unchanged, so the string is the one decimal_truncate gives for the
    reduced fraction.  No Fraction or float arithmetic is done.
    """
    if kind not in LIMIT_KINDS:
        raise BadKindParams(f"unknown limit kind {kind!r}")
    _check_limit_args(q, digits)
    mult = q - 1 if kind == "projective_frac" else 1
    # the first R whose tail m q / ((q - 1) q^R) is below 10^-(digits+2),
    # i.e. with q^R > M: R - 1 = floor(log_q M).  M's bit length over
    # log2(q) lies in (log_q M, log_q M + 1], so its floor is R or R - 1;
    # the loops correct that and any rounding of the float.
    M = mult * q * 10 ** (digits + 2) // (q - 1)
    R = max(int(M.bit_length() / log2(q)), 1)
    while q**R <= M:
        R += 1
    while R > 1 and q ** (R - 1) > M:
        R -= 1
    if kind == "cyclic":
        R = max(R, 5)
    bits = mult * R * (R + 1) // 2 * (q - 1).bit_length()
    if bits > MAX_LIMIT_BITS:
        raise CostExceeded(
            f"the {kind} limit over F_{q} to {digits} digits is beyond the cost bound "
            f"of {MAX_LIMIT_BITS} bits"
        )
    # the least K with K(3K - 1)/2 >= R is the ceiling of
    # (1 + sqrt(24R + 1)) / 6, which the floor below is or is one short of
    K = (1 + isqrt(24 * R + 1)) // 6
    if K * (3 * K - 1) // 2 < R:
        K += 1

    def bracket(K: int) -> _Ends:
        lo, hi = _pentagonal_ends(q, K)
        lo, hi = lo**mult, hi**mult
        den = q ** (K * (3 * K + 1) // 2 * mult)
        if kind == "cyclic":
            lo *= q**5 - 1
            hi *= q**5 - 1
            den *= (q - 1) * (q**2 - 1) * q**2
        return (lo, den), (hi, den)

    return _truncated(*_resolve_digits(bracket, K, digits)[1], digits)
