"""Cycle-index generating functions for matrix classes.

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
divided by 1 - u; or a builder of its own, qcount.bell_counts for the
q-Bell series and integer loops over one list for the conjugacy class
series.  Both numbers of factors, nu_d and those of z^k - 1, come from
ffpoly's necklace sums.  Every kind is built on integers, with exact division
throughout: a normalized series (below) is carried as a_n S_n, and a
product of factors by one of two paths (_scaled_product), whose rule
declares the scale S_n.  A factor that is a product of binomials 1 + c v
and their inverses (every rule but unit_rule) declares its log in closed
form, rule.log(Q, m), which enters the product's log by one exact
division, at D_n = q^n (q - 1)...(q^n - 1).  unit_rule's factor has no
product form; at |GL_n(q)| its coefficients are all 1, and its log is
recurred from that alone.  The paths' scales and recurrences are the
kernel of the scaled module, whose docstring gives their steps.

The first path, for the kinds with nu_d factors at every degree, sums
the factors' logs and takes one exp, whose N^2 / 2 products of two big
numbers set the cost of every series; it takes them in the symmetric
pairs (k, n - k), each pair weighted once by a Gaussian binomial read
off a q-Pascal half row, and carries nothing.  The second, for a product with
explicit copies at a few degrees (A^k = I, the derangements, the
diagonalizable matrices and the projections), forms no log: it raises
each degree's factor to its copy count and joins the degrees by one
product each.  Two factors are raised, each declared once in _POWERS
with the sign of its copies and its power: the inverse Euler factor of
the derangements by its q-shift f(Qv) = (1 - v) f(v)
(scaled.shift_power), in min(c, m) steps a coefficient for c copies and
with no division, and the unit factor, which satisfies no such equation,
by Miller's power recurrence on the unit series (scaled.power), the step
diagonalizable_counts runs, whose big numbers only meet small ones.  A
join costs about as much at every degree, so a product of more than
MAX_FINITE_JOINS + 1 degrees takes the exp-log, where it was measured to
be cheaper.

gf_counts reads the counts off those integers; gf_build divides them by
S_n once and hands the series back as an exact_series.TruncSeries.
verify and the tests check every kind against the classtypes module,
which sums the conjugacy classes themselves and reads none of the rules,
and the finite path against the exp-log.  The diagonalizable series
runs the power step the CLI's diagonalizable route runs, and the linear
derangement series, (-q)^n over 1 - u, the sum
qcount.linear_derangement_counts runs: their independent checks are the
splitting joins (qcount.diagonalizable_count), the class types and the
oracle.

The module builds and reads series and nothing else, so no closed-form,
qbell, knapsack or limit request loads it.  A "normalized" series is one
whose u^n coefficient must be multiplied by gl_order(q, n) to give the
matrix count; the conjugacy class series are plain ordinary generating
functions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from math import comb, factorial

from . import scaled
from .ffpoly import PrimePower, irreducible_poly_counts, root_of_one_factor_counts
from .qcount import BadKindParams, CostExceeded, bell_counts, gl_order
from .scaled import NonIntegralCount, exact_div
from .exact_series import TruncSeries


# gf_build refuses orders N whose work model, N^2 log2(N) products of
# N^2 log2(q)-bit integers, scores above this.  Semisimple at q = 2 and
# N = 120 scores 1.45e9; its gf_counts takes 0.09 s of process time
# on a 2-core Xeon (best of 5, three processes).  The bound admits
# N <= 149 at q = 2, N <= 128 at q = 3 and N <= 109 at q = 9.  At those
# edges semisimple, whose unit factor's log still recurs, is the slowest
# kind: 0.36-0.45 s at (9, 109); a closed-log kind costs about its exp
# alone, cyclic 0.12-0.13 s at (9, 109).  A finite product costs its
# powers and joins (best of 5, three processes): power_identity 0.05 s
# at (9, 109, k = 2), 0.03-0.04 s at (2, 149, k = 3) and 0.16-0.22 s at
# (2, 149, k = 2^20 - 1), where the exp-log took 0.24, 0.20-0.34 and
# 0.23-0.40 s; projective_derangement, by the q-shift power, 0.007 s at
# (9, 109) and 0.17-0.19 s at (3^50, 53), its slowest edge, where
# Miller's power step took 0.05-0.06 and 0.44-0.49 s; linear_derangement
# under 0.01 s.  At (2, 149) the k whose z^k - 1 has a factor of every
# degree runs the exp-log, 0.25-0.29 s.
MAX_SERIES_WORK = 4 * 10**9

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
    is Q^(m(m+1)/2), an integer.  Its inverse prod_r (1 - v / Q^r), the
    factor the derangement kinds' negative copies raise (_POWERS), has, by
    Euler's other identity, (-1)^m Q^(-m(m+1)/2) / ((1 - 1/Q)...(1 - 1/Q^m))
    = (-1)^m / ((Q - 1)...(Q^m - 1)) at v^m, so (-1)^m Q^m times D_m(Q),
    the c = 1 case of its q-shift power, scaled.shift_power.
    """
    return Fraction(Q ** (m * (m - 1)), gl_order(Q, m))


def unit_rule(Q: int, m: int) -> Fraction:
    """1 / gl_order(Q, m): the partition 1^m (all parts equal to 1).

    The centralizer of m repeated blocks at one polynomial of degree d is
    the invertible group over the degree-d extension field, of order
    gl_order(Q, m) with Q = q^d.  It declares no closed log: times
    gl_order(Q, m) every coefficient is 1, which is all scaled.unit_log
    and its power, scaled.power (_POWERS), read.
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


# The two factors the finite path raises: rule -> (the sign of the copies
# it takes, its power(c, [Q^0, ..., Q^M]) for c >= 1 of those copies at
# the rule's scale).  Euler's inverse is raised by its q-shift at D_m(Q),
# the unit factor by Miller's step at |GL_m(Q)|.
_POWERS = {euler_rule: (-1, scaled.shift_power), unit_rule: (1, scaled.power)}


def _scaled_product(q: int, rule, order: int, copies) -> tuple[list[int], bool]:
    """(A, gl): the scaled coefficients A_n = a_n S_n of prod_d factor_d **
    copies[d], factor_d being rule's factor for one polynomial of degree d;
    copies defaults to nu_d, the irreducible count, and may be negative.

    The rule declares S_n: D_n = q^n prod_(i<=n) (q^i - 1) for a closed
    log, whose rule's docstring shows its coefficients integers at D_m(Q),
    and |GL_n| (gl) for unit_rule; any other rule raises ValueError.  No
    coefficient is read.  The path is chosen from the copies alone.

    Finite path, where _finite_degrees takes it: each degree's factor f is
    raised to |copies[d]| (_finite_product), moved to u^(md) (scaled.lift)
    and joined to the degrees before it (scaled.join).

    Exp-log path, for the rest: the copies of the degree-d factor add
    copies[d] d lambda_m S_(md)(q) to L_n = n l_n S_n, l the product's
    log and lambda_m = m l_m the factor's log coefficient in v = u^d: a
    closed log's by one exact division, and the unit log G_m =
    lambda_m |GL_m(Q)| of scaled.unit_log moved to u^(md) (scaled.lift).
    With x = 1 / Q the unit factor is sum_m x^(m^2) v^m / ((1 - x)...(1 - x^m)),
    a Rogers-Ramanujan-type sum with no product form and so no closed
    log.  One exp (scaled.exp) gives A_n.  On either path an inexact
    division raises NonIntegralCount.
    """
    if copies is None:
        copies = irreducible_poly_counts(q, order)
    if any(d < 1 for d in copies):
        raise ValueError("polynomial degree must be >= 1")
    closed = getattr(rule, "log", None)
    if closed is None and rule is not unit_rule:
        raise ValueError("a product rule must declare a closed log or be unit_rule")
    gl = closed is None
    scales = scaled.scales(q, order, gl)
    pw = scaled.powers(q, order)
    degrees = _finite_degrees(rule, copies, order)
    if degrees is not None:
        return _finite_product(q, rule, copies, degrees, scales, pw, gl), gl
    log = [0] * (order + 1)
    for d, nu in copies.items():
        if d > order or not nu:
            continue
        if gl:
            terms = scaled.lift(scaled.unit_log(pw[::d]), d, q, scales, True, "log")
        else:
            terms = [0] * (order + 1)
            text = "the degree-{} factors' log is not an integer at u^{}"
            for m in range(1, order // d + 1):
                lam = closed(q**d, m)
                top = lam.numerator * scales[m * d]
                terms[m * d] = exact_div(top, lam.denominator, text, d, m * d)
        for n in range(d, order + 1, d):
            log[n] += nu * d * terms[n]
    return (scaled.exp(log, pw, gl) if any(log) else [1] + [0] * order), gl


# The most degrees the finite path joins to its first; a product with more
# goes to the exp-log.  A join costs about the same at every degree: its
# carries and Horner steps run over every k, zeros included.  Measured for
# power_identity on _scaled_product, 11 interleaved rounds in one process,
# process time on a 2-core Xeon, min/median ms, finite -> exp-log.  At the
# edge, 5 joins, the finite path won at (2, 149), k = 4095 182/200 ->
# 224/242 and k = 2^20 - 1 153/164 -> 224/230 (11/11 rounds each), and lost
# at (3, 128), k = 3^12 - 1 284/313 -> 219/232 (0/11), so the bound stays.
# Fewer joins won at (2, 149) k = 65535 (4 joins), (3, 128) k = 80 and
# (5, 115) k = 624 (2 each) and (9, 109) k = 80 (1), and lost with 3 at
# (9, 109) k = 9^6 - 1, 324/362 -> 297/308, and (5, 115) k = 5^6 - 1,
# 248/269 -> 224/246.  At (2, 149), 7 joins tied or won, k = 2^30 - 1
# 205/222 -> 225/235 and k = 2^24 - 1 218/291 -> 220/240, and 11 lost,
# k = 2^60 - 1 302/321 -> 225/236.  Unit copies at degrees 1 .. 7, 6 joins,
# tied at (2, 149), (3, 128) and (9, 109): 213/227 -> 221/237, 211/234 ->
# 217/239 and 291/309 -> 297/317.  The path never changes a count.
MAX_FINITE_JOINS = 5


def _finite_degrees(rule, copies: dict[int, int], order: int) -> list[int] | None:
    """The degrees d <= order with nonzero copies, ascending, when the
    product is built by powers and joins: rule is in _POWERS, every copy
    count has its sign, and at most MAX_FINITE_JOINS degrees follow the
    first.  Otherwise None, and the exp-log builds it."""
    degrees = sorted(d for d, c in copies.items() if d <= order and c)
    if rule not in _POWERS or len(degrees) > MAX_FINITE_JOINS + 1:
        return None
    sign = _POWERS[rule][0]
    if any(copies[d] * sign < 0 for d in degrees):
        return None
    return degrees


def _finite_product(
    q: int, rule, copies: dict[int, int], degrees: list[int],
    scales: list[int], pw: list[int], gl: bool,
) -> list[int]:
    """A_n = a_n S_n of prod_d f_d ** copies[d] over degrees, S_n the
    scales: each f_d ** copies[d], at Q = q^d, is the rule's declared
    power (_POWERS) at |copies[d]|, moved to u^(md) (scaled.lift); the
    first degree's series is the start and each later one is joined to it
    (scaled.join)."""
    raise_to = _POWERS[rule][1]
    product = [1] + [0] * (len(scales) - 1)
    for i, d in enumerate(degrees):
        series = scaled.lift(raise_to(abs(copies[d]), pw[::d]), d, q, scales, gl, "power")
        product = series if i == 0 else scaled.join(product, series, pw, gl)
    return product


def _divide_by_one_minus_u(values: list[int], q: int, gl: bool) -> None:
    """Divide a scaled series by 1 - u in place: b_n = a_n + b_(n-1), so
    B_n = A_n + (S_n / S_(n-1)) B_(n-1)."""
    for n, step in zip(range(1, len(values)), scaled.scale_steps(q, gl)):
        values[n] += step * values[n - 1]


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
    """ffpoly.root_of_one_factor_counts of z^k - 1, which must be square-free,
    so that A^k = I leaves each of its factors a partition 1^m."""
    if k is None:
        raise BadKindParams("power_identity needs the exponent k")
    if k < 1:
        raise BadKindParams("the exponent k must be >= 1")
    if k % pp.p == 0:
        raise BadKindParams(f"z^{k} - 1 is not square-free in characteristic {pp.p}")
    return root_of_one_factor_counts(pp.q, k, order)


class _Kind(
    namedtuple(
        "_Kind",
        "rule copies over_one_minus_u build normalized takes_k",
        defaults=(None, None, False, None, True, False),
    )
):
    """How gf_build makes one kind: the product of rule's factor over the
    monic irreducibles, copies(pp, k, order)[d] of them at degree d (all
    nu_d when copies is None), divided by 1 - u when over_one_minus_u; or
    its own build(q, order), scaled by |GL_n| when normalized.  normalized
    is its GF_KINDS flag, and only a kind that takes_k accepts a power k."""

    __slots__ = ()


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
    "bell": _Kind(build=bell_counts),
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
        values = [Fraction(a, s) for a, s in zip(values, scaled.scales(q, order, gl))]
    return TruncSeries(values, order)


def _count(n: int, value) -> int:
    """value, the count of size n, which must be a non-negative integer."""
    if value.denominator != 1:
        raise NonIntegralCount(f"coefficient of u^{n} does not scale to an integer")
    if value.numerator < 0:
        raise NonIntegralCount(f"coefficient of u^{n} scales to a negative count")
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
        # q^(n(n-3)/2) is q^-1 at n = 1, 2 and 1 at n = 3; from n = 4 on,
        # it is the one before times q^(n-2)
        text = "coefficient of u^{} does not scale to an integer"
        counts[1:3] = [exact_div(c, q, text, n) for n, c in enumerate(counts[1:3], 1)]
        scale, step = 1, q
        for n in range(4, len(counts)):
            step *= q
            scale *= step
            counts[n] *= scale
    return [_count(n, c) for n, c in enumerate(counts)]


def q_stirling_via_gf(q: int, n: int, k: int) -> int:
    """Direct sum splitting counts read off the k-th power of the unit sum.

    The exponential-style identity: (e(u) - 1)^k, e(u) = sum_m u^m / gl_order(m),
    carries k! * {n into k parts} / gl_order(n) at u^n.  It is expanded as
    sum_j (-1)^(k-j) C(k, j) e^j, each e^j raised on integers at |GL_n|
    (scaled.power).
    """
    if n < 1 or k < 1 or k > n:
        return 0
    pw = scaled.powers(q, n)
    value = sum((-1) ** (k - j) * comb(k, j) * scaled.power(j, pw)[n] for j in range(1, k + 1))
    text = "the splitting count of {} into {} parts is not an integer"
    return exact_div(value, factorial(k), text, n, k)
