"""Cycle-index generating functions for matrix classes, and limit evaluation.

The conjugacy class of a matrix over F_q is the choice, for each monic
irreducible polynomial phi, of a partition recording the sizes of the
generalized Jordan blocks at phi.  Summing u^n / gl_order(n) over all
matrices therefore factors into a product over the irreducibles, one
factor per polynomial, each a series in u^deg(phi).  Restricting the
allowed partitions per polynomial restricts the matrices counted, which
yields the generating functions built here.  A factor depends on its
polynomial only through Q = q^deg(phi), so each is declared once, as a
rule(Q, m) giving its coefficient of u^(m deg(phi)); the product engine
reads only that declaration.

Each kind gf_build serves is one entry of _KINDS: a rule with a number
of factors per degree, nu_d unless declared, and whether the product is
divided by 1 - u; or, for the q-Bell and conjugacy class series, a
builder of its own.  Every kind is built on integers, with exact division
throughout: a normalized series (below) is carried as a_n S_n, a product
of factors as one exp of their summed logs (_scaled_product), and the
conjugacy class series by integer loops over one list.  The rule
declares the scale S_n.  A factor that is a product of binomials 1 + c v
and their inverses (every rule but unit_rule) declares its log in closed
form, rule.log(Q, m), which enters the product's log by one exact
division, at D_n = q^n (q - 1)...(q^n - 1).  unit_rule's factor has no
product form; at |GL_n(q)| its coefficients are all 1, and its log is
recurred from that alone (_unit_log).  Multiplying two scaled series
weighs each pair of terms by W(n, k) = S_n / (S_k S_(n-k)), a Gaussian
binomial (times q^(k(n-k)) for |GL_n|); the unit log and the exp never
form it.  They carry each term's Gaussian binomial from n - 1 to n by an
exact ratio of small integers, at both scales, and for |GL_n| put the
q^(k(n-k)) into each sum by two Horner runs whose steps multiply by small
powers of q: the kernel _carry and _weighted_sum of qcount, which
diagonalizable_counts reads too.  gf_counts reads the counts off
those integers; gf_build divides them by S_n once and hands the series
back as an exact_series.TruncSeries.  verify and the tests check every
kind against the classtypes module, which sums the conjugacy classes
themselves and reads none of the rules.

A "normalized" series is one whose u^n coefficient must be multiplied by
gl_order(q, n) to give the matrix count; the conjugacy class series are
plain ordinary generating functions.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from math import factorial, gcd, isqrt, log2
from typing import NamedTuple

from .ffpoly import divisors, irreducible_poly_count, moebius
from .qcount import NonIntegralCount, PrimePower, _carry, _weighted_sum, gl_order
from .exact_series import TruncSeries


class BadKindParams(ValueError):
    """Unknown generating function tag, or parameters that do not fit it."""


class CostExceeded(ValueError):
    """A request whose work model is above the fixed bound of its route."""


# gf_build refuses orders N whose work model, N^2 log2(N) products of
# N^2 log2(q)-bit integers, scores above this.  Semisimple at q = 2 and
# N = 120 scores 1.45e9; its gf_counts takes 0.11-0.15 s of process time
# on a 2-core Xeon (best of 5, three processes).  The bound admits
# N <= 149 at q = 2, N <= 128 at q = 3 and N <= 109 at q = 9.  At those
# edges semisimple, whose unit factor's log still recurs, is the slowest
# kind: 0.40-0.56 s at (9, 109); a closed-log kind costs about its exp
# alone: at (9, 109) cyclic 0.15-0.25 s and projective_derangement
# 0.12-0.14 s, and linear_derangement at (2, 149) 0.04 s.
MAX_SERIES_WORK = 4 * 10**9

# min_centralizer_orders refuses a max_n whose knapsack, usable
# polynomials x max_n x max_n // d summed over the degrees d, scores above
# this: max_n <= 107 at q = 1009 (about a second) and max_n <= 237 at
# q = 2 (about half a second).
MAX_KNAPSACK_WORK = 2 * 10**6

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


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n with parts descending, in reverse lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    result: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def walk(remaining: int, maxpart: int) -> None:
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            prefix.append(part)
            walk(remaining - part, part)
            prefix.pop()

    walk(n, n)
    return result


def centralizer_order(qd: int, partition) -> int:
    """Order of the automorphism group of the module with the given partition.

    For the primary piece of a matrix at one irreducible polynomial of
    degree d (so qd = q^d), with block-size partition lam, the conjugation
    centralizer of that piece has order

        prod over distinct part sizes i (multiplicity b_i) of
        prod_{k=1..b_i} (qd^(d_i) - qd^(d_i - k)),

    where d_i = sum_j min(i, lam_j): the parts below i, plus i for each
    part from i up.  Each factor is qd^(d_i - k) (qd^k - 1), so the order
    is qd^E prod_i prod_{k=1..b_i} (qd^k - 1) with
    E = sum_i (b_i d_i - b_i (b_i + 1) / 2), one power taken at the end.
    """
    mult = Counter(partition)
    if any(p < 1 for p in mult):
        raise ValueError("partition parts must be >= 1")
    result = 1
    exponent = below = 0
    from_i = sum(mult.values())
    for i in sorted(mult):
        b = mult[i]
        exponent += b * (below + i * from_i) - b * (b + 1) // 2
        for k in range(1, b + 1):
            result *= qd**k - 1
        below += i * b
        from_i -= b
    return result * qd**exponent


def min_centralizer_orders(q: int, max_n: int) -> list[int]:
    """Smallest centralizer order in GL_n(F_q) for n = 0 .. max_n.

    An invertible class picks a partition lam_phi for each monic
    irreducible phi != z, and its centralizer order is the product of
    centralizer_order(q^deg phi, lam_phi).  At one phi with Q = q^d and
    |lam| = m, the single part (m) is the unique smallest choice, at
    Q^(m-1) (Q-1): with ell parts and conjugate partition lam',

        |Aut| = Q^(sum lam'^2) prod_i prod_(k=1..b_i) (1 - Q^-k)
             >= Q^(sum lam'^2 - ell) (Q-1)^ell
             >= Q^(m-1+(ell-1)^2) (Q-1)^ell,

    since sum_i b_i = ell and sum lam'^2 >= ell^2 + (m - ell), lam'_1 being
    ell.  The last bound exceeds Q^(m-1) (Q-1) unless ell = 1.  So the
    minimum is a 0/1 knapsack over polynomials: each of the
    min(nu_d - [d = 1], max_n // d) usable polynomials of degree d is left
    out or takes some multiplicity m >= 1, at weight d m and that cost.
    """
    usable = [0]
    work = 0
    for d in range(1, max_n + 1):
        usable.append(min(irreducible_poly_count(q, d) - (d == 1), max_n // d))
        work += usable[d] * max_n * (max_n // d)
        if work > MAX_KNAPSACK_WORK:
            raise CostExceeded(
                f"the centralizer knapsack to n = {max_n} is beyond the cost "
                f"bound of {MAX_KNAPSACK_WORK} steps"
            )
    best: list[int | None] = [1] + [None] * max_n
    for d in range(1, max_n + 1):
        Q = q**d
        for _ in range(usable[d]):
            # descending weights read only entries this polynomial has not set
            for w in range(max_n, d - 1, -1):
                for m in range(1, w // d + 1):
                    prev = best[w - d * m]
                    if prev is not None:
                        c = prev * Q ** (m - 1) * (Q - 1)
                        if best[w] is None or c < best[w]:
                            best[w] = c
    return best


def _closed_log(log: Callable[[int, int], Fraction]) -> Callable:
    """Declare rule.log = log on the rule it decorates: log(Q, m) = m l_m,
    the coefficient of v^m in v f'(v) / f(v) for the rule's factor f,
    which _scaled_product adds at scale D_n without reading a coefficient."""

    def declare(rule: Callable) -> Callable:
        rule.log = log
        return rule

    return declare


@_closed_log(lambda Q, m: Fraction(1, Q**m - 1))
def euler_rule(Q: int, m: int) -> Fraction:
    """Q^(m(m-1)) / gl_order(Q, m): every partition of m is allowed.

    The factor is prod_{r >= 1} (1 - u^d / Q^r)^(-1).  Although the
    product runs over infinitely many r, the coefficient of u^(m d) has
    this exact closed form: by a classical identity of Euler it equals
    1 / (Q^m (1 - 1/Q) ... (1 - 1/Q^m)), which rearranges to the ratio.
    The tests cross-check it against the partition sum over centralizer
    orders term by term.  Its log sums -log(1 - v / Q^r) over r, so
    m l_m = sum_r Q^(-r m) = 1 / (Q^m - 1).  Times D_m(Q) the coefficient
    is Q^(m(m+1)/2), an integer.
    """
    return Fraction(Q ** (m * (m - 1)), gl_order(Q, m))


def unit_rule(Q: int, m: int) -> Fraction:
    """1 / gl_order(Q, m): the partition 1^m (all parts equal to 1).

    The centralizer of m repeated blocks at one polynomial of degree d is
    the invertible group over the degree-d extension field, of order
    gl_order(Q, m) with Q = q^d.  It declares no closed log: times
    gl_order(Q, m) every coefficient is 1, which is all _unit_log reads.
    """
    return Fraction(1, gl_order(Q, m))


@_closed_log(lambda Q, m: Fraction((-1) ** (m + 1), (Q * (Q - 1)) ** m) + Fraction(1, Q**m))
def cyclic_rule(Q: int, m: int) -> Fraction:
    """1 / (Q^(m-1) (Q - 1)) for m >= 1: the partition is empty or one part.

    A cyclic matrix's partition at each polynomial is empty or the single
    part (m), whose centralizer is the unit group of F_Q[z] / (z^m), of
    order Q^(m-1) (Q - 1).  The factor is
    (1 + v / (Q (Q - 1))) / (1 - v / Q), whence its log.  Times D_m(Q) the
    coefficient is Q (Q^2 - 1)...(Q^m - 1) for m >= 1, an integer.
    """
    return Fraction(1) if m == 0 else Fraction(1, Q ** (m - 1) * (Q - 1))


@_closed_log(lambda Q, m: Fraction((-1) ** (m + 1), (Q - 1) ** m))
def separable_rule(Q: int, m: int) -> Fraction:
    """1 + u^d / (Q - 1): a separable matrix has each irreducible at most once.

    The one allowed nonempty partition is (1), whose centralizer is the
    unit group of F_Q, of order Q - 1.  Times D_1(Q) = Q (Q - 1) its
    coefficient at m = 1 is Q.
    """
    return (Fraction(1), Fraction(1, Q - 1))[m] if m < 2 else Fraction(0)


@_closed_log(lambda Q, m: Fraction((-1) ** (m + 1), (Q * (Q - 1)) ** m))
def cyclic_alt_rule(Q: int, m: int) -> Fraction:
    """1 + u^d / (Q (Q - 1)): cyclic_rule's factor times 1 - u^d / Q.

    The product of 1 - u^d / q^d over every monic irreducible telescopes
    to 1 - u, so the cyclic series is 1 / (1 - u) times the product of
    these factors; the terms in u^(m d), m >= 2, cancel.  Times D_1(Q) its
    coefficient at m = 1 is 1.
    """
    return (Fraction(1), Fraction(1, Q * (Q - 1)))[m] if m < 2 else Fraction(0)


@_closed_log(lambda Q, m: Fraction((-1) ** (m + 1), (Q - 1) ** m) - Fraction(1, Q**m))
def separable_alt_rule(Q: int, m: int) -> Fraction:
    """1 + (u^d - u^(2d)) / (Q (Q - 1)): separable_rule's factor times 1 - u^d / Q.

    Times D_m(Q) its coefficients are 1 at m = 1 and -Q (Q^2 - 1) at m = 2.
    """
    c = cyclic_alt_rule(Q, 1)
    return (Fraction(1), c, -c)[m] if m < 3 else Fraction(0)


def _step(q: int, n: int, gl: bool) -> int:
    """S_n / S_(n-1): q^(n-1) (q^n - 1) for |GL_n(q)|, q (q^n - 1) for D_n."""
    return q ** (n - 1 if gl else 1) * (q**n - 1)


def _scales(q: int, order: int, gl: bool) -> list[int]:
    """S_n for n = 0 .. order: |GL_n(q)| = q^(n(n-1)/2) prod_(i<=n) (q^i - 1)
    when gl, else D_n = q^n prod_(i<=n) (q^i - 1)."""
    scales = [1]
    for n in range(1, order + 1):
        scales.append(scales[-1] * _step(q, n, gl))
    return scales


def _scaled_exp(q: int, log: list[int], gl: bool) -> list[int]:
    """A_n = a_n S_n of a = exp(l), from L_n = n l_n S_n with L_0 = 0.

    b' = l' b reads n B_n = sum_k W(n, k) L_k B_(n-k): T_k = [n, k]_q L_k
    is carried from n - 1 to n by _carry, and _weighted_sum adds
    |GL_n|'s q^(k(n-k)) by Horner runs, or sums plainly for D_n.  The
    division by n must be exact, or NonIntegralCount is raised.
    """
    pw = [q**i for i in range(len(log))]
    terms, product = [0], [1]
    for n in range(1, len(log)):
        _carry(terms, pw, n)
        terms.append(log[n])
        b, rem = divmod(_weighted_sum(terms, product, n, pw, gl), n)
        if rem:
            raise NonIntegralCount(f"the product is not an integer at u^{n}")
        product.append(b)
    return product


def _unit_log(pw: list[int]) -> list[int]:
    """G_m = m l_m |GL_m(Q)|, m < len(pw), of unit_rule's factor, pw[i]
    being Q^i.  Scaled by |GL_m(Q)| every coefficient is 1, so
    G_m = m - sum_(0<j<m) W_Q(m, j) G_j: each [m, j]_Q G_j is carried by
    _carry, and _weighted_sum adds Q^(j(m-j)), G_m's slot held at 0."""
    ones = [1] * len(pw)
    terms, logs = [0], [0]
    for m in range(1, len(pw)):
        _carry(terms, pw, m)
        terms.append(0)
        terms[m] = m - _weighted_sum(terms, ones, m, pw, True)
        logs.append(terms[m])
    return logs


def _scaled_product(q: int, rule, order: int, copies) -> tuple[list[int], bool]:
    """(A, gl): the scaled coefficients A_n = a_n S_n of prod_d factor_d **
    copies[d], factor_d being rule's factor for one polynomial of degree d;
    copies defaults to nu_d, the irreducible count, and may be negative.

    The rule declares S_n: D_n = q^n prod_(i<=n) (q^i - 1) for a closed
    log, whose rule's docstring shows its coefficients integers at D_m(Q),
    and |GL_n| (gl) for unit_rule; any other rule raises ValueError.  No
    coefficient is read.  A series a is carried as A_n = a_n S_n and its
    log l as L_n = n l_n S_n, to which the copies of the degree-d factor
    add copies[d] d lambda_m S_(md)(q), lambda_m = m l_m being the
    factor's log coefficient in v = u^d: a closed log's by one exact
    division, and the unit log G_m = lambda_m |GL_m(Q)| of _unit_log times
    the index |GL_md(q)| / |GL_m(Q)|, an integer as GL_m(F_Q) is a
    subgroup of GL_md(F_q).  With x = 1 / Q the unit factor is
    sum_m x^(m^2) v^m / ((1 - x)...(1 - x^m)), a Rogers-Ramanujan-type sum
    with no product form and so no closed log.  One exp gives A_n with
    exact division by n; an inexact division raises NonIntegralCount.
    """
    if copies is None:
        copies = {d: irreducible_poly_count(q, d) for d in range(1, order + 1)}
    if any(d < 1 for d in copies):
        raise ValueError("polynomial degree must be >= 1")
    closed = getattr(rule, "log", None)
    if closed is None and rule is not unit_rule:
        raise ValueError("a product rule must declare a closed log or be unit_rule")
    gl = closed is None
    scales = _scales(q, order, gl)
    pw = [q**i for i in range(order + 1)]
    log = [0] * (order + 1)
    for d, nu in copies.items():
        if d > order or not nu:
            continue
        if gl:
            logs, scales_Q = _unit_log(pw[::d]), _scales(q**d, order // d, True)
        for m in range(1, order // d + 1):
            if gl:
                index, rem = divmod(scales[m * d], scales_Q[m])
                term = logs[m] * index
            else:
                lam = closed(q**d, m)
                term, rem = divmod(lam.numerator * scales[m * d], lam.denominator)
            if rem:
                raise NonIntegralCount(
                    f"the degree-{d} factors' log is not an integer at u^{m * d}"
                )
            log[m * d] += nu * d * term
    return (_scaled_exp(q, log, gl) if any(log) else [1] + [0] * order), gl


def _divide_by_one_minus_u(values: list[int], q: int, gl: bool) -> None:
    """Divide a scaled series by 1 - u in place: b_n = a_n + b_(n-1), so
    B_n = A_n + (S_n / S_(n-1)) B_(n-1)."""
    for n in range(1, len(values)):
        values[n] += _step(q, n, gl) * values[n - 1]


def _class_counts(q: int, order: int, invertible: bool) -> list[int]:
    """prod_(r>=1) 1 / (1 - q u^r), times prod_(r>=1) (1 - u^r) when invertible.

    Every monic irreducible of degree d carries a partition, counted by
    prod_r 1 / (1 - u^(r d)), and the product over all of them is
    prod_r 1 / (1 - q u^r); an invertible class gives z no partition,
    which takes out z's factors 1 / (1 - u^r).  Both run in place on one
    list of integers.
    """
    c = [1] + [0] * order
    for r in range(1, order + 1):
        if invertible:
            for n in range(order, r - 1, -1):
                c[n] -= c[n - r]
        for n in range(r, order + 1):
            c[n] += q * c[n - r]
    return c


def _root_of_one_copies(pp: PrimePower, k: int | None, order: int) -> dict[int, int]:
    """The number of irreducible factors of z^k - 1 of each degree d <= order.
    z^k - 1 must be square-free, so that A^k = I leaves each a partition 1^m.

    The roots of z^k - 1 in the cyclic group F_(q^e)^* number
    gcd(k, q^e - 1), so those of degree exactly d over F_q number
    sum_(e | d) mu(d/e) gcd(k, q^e - 1), d to a factor: the Moebius sum
    irreducible_poly_count takes over q^e.  Its cost grows with order,
    not with k.
    """
    if k is None:
        raise BadKindParams("power_identity needs the exponent k")
    if k < 1:
        raise BadKindParams("the exponent k must be >= 1")
    if k % pp.p == 0:
        raise BadKindParams(f"z^{k} - 1 is not square-free in characteristic {pp.p}")
    roots = [gcd(k, pp.q**e - 1) for e in range(order + 1)]
    copies = {}
    for d in range(1, order + 1):
        copies[d], rem = divmod(sum(moebius(d // e) * roots[e] for e in divisors(d)), d)
        if rem:
            raise NonIntegralCount(f"the roots of z^{k} - 1 of degree {d} are not whole factors")
    return copies


class _Kind(NamedTuple):
    """How gf_build makes one kind: the product of rule's factor over the
    monic irreducibles, copies(pp, k, order)[d] of them at degree d (all
    nu_d when copies is None), divided by 1 - u when over_one_minus_u; or
    its own build(q, order), scaled by |GL_n| when normalized.  normalized
    is its GF_KINDS flag, and only a kind that takes_k accepts a power k."""

    rule: Callable | None = None
    copies: Callable | None = None
    over_one_minus_u: bool = False
    build: Callable | None = None
    normalized: bool = True
    takes_k: bool = False


# The invertible series is 1 / (1 - u), the empty product over 1 - u; the
# derangement kinds are it without the factor of z - 1, or of every z - c
# with c != 0.  The _alt factors carry 1 - u^d / q^d, whose product over
# every monic irreducible is 1 - u.
_KINDS: dict[str, _Kind] = {
    "invertible_check": _Kind(euler_rule, lambda pp, k, order: {}, True),
    "linear_derangement": _Kind(euler_rule, lambda pp, k, order: {1: -1}, True),
    "projective_derangement": _Kind(euler_rule, lambda pp, k, order: {1: 1 - pp.q}, True),
    "diagonalizable": _Kind(unit_rule, lambda pp, k, order: {1: pp.q}),
    "projection": _Kind(unit_rule, lambda pp, k, order: {1: 2}),  # the eigenvalues 0 and 1
    "power_identity": _Kind(unit_rule, _root_of_one_copies, takes_k=True),
    "cyclic": _Kind(cyclic_rule),
    "cyclic_alt": _Kind(cyclic_alt_rule, over_one_minus_u=True),
    "semisimple": _Kind(unit_rule),
    "separable": _Kind(separable_rule),
    "separable_alt": _Kind(separable_alt_rule, over_one_minus_u=True),
    "conjclasses_all": _Kind(build=partial(_class_counts, invertible=False), normalized=False),
    "conjclasses_gl": _Kind(build=partial(_class_counts, invertible=True), normalized=False),
    # the exp of the unit sum sum_(r>=1) u^r / |GL_r|, whose L_r is r
    "bell": _Kind(build=lambda q, order: _scaled_exp(q, list(range(order + 1)), True)),
}

# tag -> True when the u^n coefficient must be scaled by gl_order(q, n)
GF_KINDS: dict[str, bool] = {kind: entry.normalized for kind, entry in _KINDS.items()}


def _scaled_build(kind: str, q: int, order: int, k: int | None) -> tuple[list[int], bool | None]:
    """Check a request and build its series on integers, as (values, gl).

    values[n] is a_n S_n, with S_n = |GL_n| when gl is True and
    D_n = q^n prod_(i<=n) (q^i - 1) when gl is False; the conjugacy class
    series (gl None) carry a_n itself.
    """
    if kind not in _KINDS:
        raise BadKindParams(f"unknown generating function kind {kind!r}")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    pp = PrimePower.of(q)
    # (x - 1).bit_length() is ceil(log2 x)
    work = order**4 * (order - 1).bit_length() * (q - 1).bit_length()
    if work > MAX_SERIES_WORK:
        raise CostExceeded(
            f"a series of order {order} over F_{q} is beyond the cost bound "
            f"of {MAX_SERIES_WORK} work units"
        )
    entry = _KINDS[kind]
    if k is not None and not entry.takes_k:
        raise BadKindParams(f"kind {kind!r} does not take a power k")
    if entry.build is not None:
        return entry.build(q, order), (True if entry.normalized else None)
    copies = None if entry.copies is None else entry.copies(pp, k, order)
    values, gl = _scaled_product(q, entry.rule, order, copies)
    if entry.over_one_minus_u:
        _divide_by_one_minus_u(values, q, gl)
    return values, gl


def gf_build(kind: str, q: int, order: int, k: int | None = None) -> TruncSeries:
    """Build the truncated generating function for one matrix class.

    Normalized kinds (see GF_KINDS) carry count_n / gl_order(q, n) as the
    u^n coefficient; the conjugacy class kinds carry the count itself.
    The series is built on integers and divided by its scales once.
    """
    values, gl = _scaled_build(kind, q, order, k)
    if gl is not None:
        values = [Fraction(a, s) for a, s in zip(values, _scales(q, order, gl))]
    return TruncSeries(values, order)


def _count(n: int, value) -> int:
    """value, the count of size n, which must be a non-negative integer."""
    if value.denominator != 1:
        raise NonIntegralCount(f"coefficient of u^{n} scales to non-integer {value}")
    if value.numerator < 0:
        raise NonIntegralCount(f"coefficient of u^{n} scales to negative {value.numerator}")
    return value.numerator


def extract_count(gf: TruncSeries, n: int, q: int, normalized: bool = True) -> int:
    """Read the matrix count of size n out of a generating function.

    For normalized series the coefficient is scaled by gl_order(q, n): its
    numerator times gl_order(q, n) over its reduced denominator, which must
    divide exactly.  The result must come out a non-negative integer or the
    series was wrong.
    """
    c = gf.coeff(n)
    if normalized:
        group = gl_order(q, n)
        quotient, rem = divmod(group, c.denominator)
        c = c * group if rem else c.numerator * quotient
    return _count(n, c)


def gf_counts(kind: str, q: int, order: int, k: int | None = None) -> list[int]:
    """The counts for n = 0 .. order of gf_build(kind, q, order, k), read
    off its integers: a |GL_n|-scaled coefficient is the count itself, and
    a D_n-scaled one is multiplied by |GL_n| / D_n = q^(n(n-3)/2) exactly.
    Each count must come out a non-negative integer, as in extract_count."""
    counts, gl = _scaled_build(kind, q, order, k)
    if gl is False:
        for n, c in enumerate(counts):
            e = n * (n - 3) // 2  # -1 at n = 1, 2
            counts[n], rem = divmod(c * q ** max(e, 0), q ** max(-e, 0))
            if rem:
                g = gcd(c, q)
                raise NonIntegralCount(f"coefficient of u^{n} scales to non-integer {c // g}/{q // g}")
    return [_count(n, c) for n, c in enumerate(counts)]


def q_stirling_via_gf(q: int, n: int, k: int) -> int:
    """Direct sum splitting counts read off the k-th power of the unit sum.

    The exponential-style identity: the series (sum_{r>=1} u^r/gl_order(r))^k
    carries k! * {n into k parts} / gl_order(n) as its u^n coefficient.
    The power is multiplied out on a plain list of Fractions.
    """
    if n < 1 or k < 1 or k > n:
        return 0
    unit_sum = [Fraction(0)] + [unit_rule(q, r) for r in range(1, n + 1)]
    power = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(k):
        power = [sum(unit_sum[i] * power[m - i] for i in range(1, m + 1)) for m in range(n + 1)]
    value = power[n] * gl_order(q, n) / factorial(k)
    if value.denominator != 1:
        raise NonIntegralCount(f"splitting count came out as {value}")
    return value.numerator


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


def decimal_truncate(x: Fraction, digits: int) -> str:
    """Render a non-negative rational with `digits` decimals, truncated."""
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


def _euler_numerator(q: int, terms: int) -> int:
    """prod_{r=1..terms} (q^r - 1), which is prod (1 - q^-r) times q^(terms(terms+1)/2)."""
    prod = 1
    for r in range(1, terms + 1):
        prod *= q**r - 1
    return prod


def euler_partial_product(q: int, terms: int) -> Fraction:
    """prod_{r=1..terms} (1 - q^-r), an upper bound on the infinite product."""
    return Fraction(_euler_numerator(q, terms), q ** (terms * (terms + 1) // 2))


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


def cyclic_limit_bracket(q: int, digits: int) -> tuple[Fraction, Fraction]:
    """Proven [lo, hi] around the cyclic limit, from the cycle index alone.

    The cyclic generating function is 1/(1-u) times the product over all
    monic irreducibles phi (z included) of 1 + x_d u^d, d = deg phi, with
    x_d = cyclic_alt_rule(q^d, 1) (the `cyclic_alt` kind).  Letting n
    grow, the fraction of cyclic matrices tends to

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
    """
    _check_limit_args(q, digits)

    def bracket(depth: int) -> _Ends:
        hi = euler_partial_product(q, depth)
        lo = hi * (1 - Fraction(1, (q - 1) * q**depth))
        for d in range(1, depth + 1):
            nu = irreducible_poly_count(q, d)
            x = cyclic_alt_rule(q**d, 1)
            y = nu * x
            top = min(nu, -(-depth // d))
            if y >= 1:
                top = nu
            term = part = Fraction(1)
            for j in range(1, top + 1):
                term = term * (nu - j + 1) * x / j
                part += term
            lo *= part
            if top < nu:
                part += y ** (top + 1) / (factorial(top + 1) * (1 - y))
            hi *= part
        hi /= 1 - Fraction(2, (depth + 1) * (q - 1) * q**depth)
        return lo.as_integer_ratio(), hi.as_integer_ratio()

    depth = 1
    while q**depth < 10**digits:
        depth += 1
    lo, hi = _resolve_digits(bracket, depth, digits)
    return Fraction(*lo), Fraction(*hi)
