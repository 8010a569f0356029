"""Limiting probabilities to proven decimal digits, on integers alone.

limit_eval evaluates the limiting probability of each kind of LIMIT_KINDS
between two consecutive partial sums of Euler's pentagonal series that
lie on either side of it, deepened until both ends truncate to the same
digits (_resolve_digits).  Each end is a pair of integers, exact or, where
projective_frac raises it to the power q - 1, on fixed point (_power), and
cyclic_limit_bracket, the cycle-index route verify compares with the
cyclic limit, brackets on integer pairs too.  So this module needs only
qcount's guard errors and ffpoly's PrimePower and irreducible counts,
and limit_eval loads neither the series engine nor Fraction.
"""

from __future__ import annotations

from collections.abc import Callable
from math import comb, factorial, prod

from .ffpoly import PrimePower, irreducible_poly_count
from .qcount import BadKindParams, CostExceeded

# limit_eval refuses a request whose fixed-point power, about 2 bitlen(m)
# products of P-bit integers (see limit_eval), scores bitlen(m) P^2 above
# this bound: it admits projective_frac at q <= 2^2098 to 1 digit and
# q <= 2^1971 to 50, which take at most 0.24 s of process time in a fresh
# process on a 2-core Xeon, 0.1 s start-up and up to 0.1 s PrimePower.of
# included.  The other kinds take no power and score P^2 < 10^5.
MAX_LIMIT_WORK = 10**10

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


def _power(x: int, m: int, precision: int, up: bool) -> int:
    """(x / 2^P)^m for m >= 1 on P-bit fixed point, P = precision, rounding every
    product of square-and-multiply down, or up when `up`: a lower or an upper bound."""
    sign = -1 if up else 1
    result = x
    for bit in bin(m)[3:]:
        result = sign * (sign * result * result >> precision)
        if bit == "1":
            result = sign * (sign * result * x >> precision)
    return result


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
    keeps their order, and the cyclic factor is exact and positive.  K
    starts at the least K >= 1, K >= 2 for cyclic, with q^(K(3K-1)/2) >
    M = m q 10^(digits+2) // (q - 1), where m t_K <= m q x^(K(3K-1)/2) /
    (q - 1) is below 10^-(digits+2), and grows until both ends truncate
    to the same string.

    Where m = 1 the ends stay exact pairs (num, den), never reduced:
    _pentagonal_ends(q, K) over q^(K(3K+1)/2), times the cyclic factor
    (q^5 - 1) over (q - 1)(q^2 - 1) q^2.  Scaling a pair leaves its digits
    num * 10^digits // den, and no Fraction or float arithmetic is done.

    For projective_frac the ends go to P-bit fixed point, lo rounded down
    and hi up, P = bitlen(m) + 4 (digits + 4) + 64, and _power raises them
    to m.  It rounds powers of the ends, all in [1/4, 1], at most 2 bitlen(m)
    times with the conversion, each by at most 2^(2-P) of the value, and
    the first is amplified m times, the most of any: the proven bracket
    widens by at most 2 bitlen(m) m 2^(2-P) <= bitlen(m) 2^(-4 digits - 77),
    far below 10^-(digits+2).  The cyclic limit stays exact: it lies within
    about q^-3 of 1, closer than 2^-P at a large q, and would not resolve.
    """
    if kind not in LIMIT_KINDS:
        raise BadKindParams(f"unknown limit kind {kind!r}")
    _check_limit_args(q, digits)
    mult = q - 1 if kind == "projective_frac" else 1
    precision = mult.bit_length() + 4 * (digits + 4) + 64
    if mult.bit_length() * precision**2 > MAX_LIMIT_WORK:
        raise CostExceeded(
            f"the {kind} limit over F_{q} to {digits} digits is beyond the cost bound "
            f"of {MAX_LIMIT_WORK} for its power"
        )
    M = mult * q * 10 ** (digits + 2) // (q - 1)
    K = 2 if kind == "cyclic" else 1
    while q ** (K * (3 * K - 1) // 2) <= M:
        K += 1

    def bracket(K: int) -> _Ends:
        lo, hi = _pentagonal_ends(q, K)
        den = q ** (K * (3 * K + 1) // 2)
        if mult > 1:
            lo = _power((lo << precision) // den, mult, precision, False)
            hi = _power(-((-hi << precision) // den), mult, precision, True)
            return (lo, 1 << precision), (hi, 1 << precision)
        if kind == "cyclic":
            factor = q**5 - 1
            lo, hi, den = lo * factor, hi * factor, den * (q - 1) * (q**2 - 1) * q**2
        return (lo, den), (hi, den)

    return _truncated(*_resolve_digits(bracket, K, digits)[1], digits)


def cyclic_limit_bracket(q: int, digits: int):
    """Proven Fractions (lo, hi) around the cyclic limit, from the cycle index alone.

    The cyclic generating function is 1/(1-u) times the product over all
    monic irreducibles phi (z included) of 1 + x_d u^d, d = deg phi, with
    x_d = 1 / R_d, R_d = q^d (q^d - 1) (gfengine's cyclic_alt kind).
    Letting n grow, the fraction of cyclic matrices tends to

        prod_{r>=1}(1 - q^-r) * prod_{d>=1} (1 + x_d)^nu_d,
        nu_d = irreducible_poly_count(q, d).

    This does not use the closed form behind limit_eval, nor its
    pentagonal series.  At depth D: the Euler product keeps r <= D;
    each (1 + x_d)^nu_d with d <= D keeps the binomial terms
    j <= J = ceil(D/d), which is exact once J >= nu_d and otherwise a
    lower bound whose dropped terms sum to at most y^(J+1) / ((J+1)! (1-y)), y = nu_d x_d, because
    C(nu, j) x^j <= y^j / j!; degrees above D contribute a factor between
    1 and 1 / (1 - S), S = 2 q^-D / ((D+1)(q-1)), since nu_d <= q^d / d
    gives nu_d x_d <= 2 / (d q^d).  The depth grows until both ends
    truncate to the same `digits` decimals.

    The ends are unreduced integer pairs: prod_(r<=D)(q^r - 1) over
    q^(D(D+1)/2), and at degree d sum_(j<=J) C(nu, j) R^(J-j) over R^J,
    R = R_d; only the settled ends become Fractions.
    """
    _check_limit_args(q, digits)

    def bracket(depth: int) -> _Ends:
        num = prod(q**r - 1 for r in range(1, depth + 1))
        den = q ** (depth * (depth + 1) // 2)
        cut = (q - 1) * q**depth
        lo_num, lo_den, hi_num, hi_den = num * (cut - 1), den * cut, num, den
        for d in range(1, depth + 1):
            nu = irreducible_poly_count(q, d)
            R = q**d * (q**d - 1)
            top = nu if nu >= R else min(nu, -(-depth // d))
            part = sum(comb(nu, j) * R ** (top - j) for j in range(top + 1))
            scale = R**top
            lo_num, lo_den = lo_num * part, lo_den * scale
            if top < nu:
                rest = factorial(top + 1) * (R - nu)
                part, scale = part * rest + nu ** (top + 1), scale * rest
            hi_num, hi_den = hi_num * part, hi_den * scale
        s = (depth + 1) * cut
        return (lo_num, lo_den), (hi_num * s, hi_den * (s - 2))

    depth = 1
    while q**depth < 10**digits:
        depth += 1
    lo, hi = _resolve_digits(bracket, depth, digits)
    from fractions import Fraction

    return Fraction(*lo), Fraction(*hi)
