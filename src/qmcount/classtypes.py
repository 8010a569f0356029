"""Class types: every series kind's counts, summed conjugacy class by class.

A conjugacy class of n x n matrices over F_q gives each monic irreducible
polynomial phi a partition lam_phi, the sizes of its generalized Jordan
blocks at phi, with sum deg(phi) |lam_phi| = n; the class has
|GL_n(q)| / prod_phi centralizer_order(q^deg(phi), lam_phi) members
(J. A. Green, Trans. AMS 80, 1955; J. Fulman, Bull. AMS 39, 2002).  A
series kind of gfengine is a restriction on the classes: which
polynomials may carry a nonempty partition, and which partitions.
DECLARATIONS writes that once per kind, as a number of usable polynomials
per degree and a shape of partition, and never loads gfengine or its
rules, so a wrong rule and a wrong scaling both show against it.

class_type_counts sums the allowed classes' sizes, or counts the classes
for the class-counting kinds.  The polynomials of one degree d are alike,
so with Q = q^d one sum serves them all: g(m), the sum of the sizes
|GL_m(Q)| / c(lam) over the allowed lam |- m, each an exact division that
checks centralizer_order, times the index of GL_m(Q) in GL_md(q).  That
counts the md x md matrices whose characteristic polynomial is phi^m, with
an allowed shape, for one phi of degree d.  The copies of a degree give
(1 + G)^copies, expanded binomially, and the degrees are multiplied
together.  A product is qcount.join: a matrix counted on one part meets
one counted on the other in each of the |GL_n| / (|GL_k| |GL_(n-k)|)
ordered splittings F_q^n = U + U' with dim U = k (qcount.complement_rows);
for class counts the classes just pair up.  All of it is integer
arithmetic.  class_sizes lists the classes of one size one by one
instead, for the oracle's orbit sizes, and min_centralizer_orders finds
the smallest centralizer of each size by a knapsack over sets of
polynomials.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cache
from math import comb

from .ffpoly import cyclotomic_factor_counts, irreducible_poly_count, irreducible_poly_counts
from .qcount import CostExceeded, centralizer_order, complement_rows, gl_order, join, partitions_of
from .scaled import exact_div, powers

# a class size |GL_n(q)| / c(lam) that is not exact, named by n and q
_SIZE = "a centralizer order does not divide |GL_{}({})|"

# the partitions of m each shape allows at one polynomial
SHAPES: dict[str, Callable[[int], tuple[tuple[int, ...], ...]]] = {
    "any": cache(lambda m: tuple(partitions_of(m))),
    "all parts 1": lambda m: ((1,) * m,),
    "one part": lambda m: ((m,),),
    "only (1)": lambda m: ((1,),) if m == 1 else (),
}


class Declaration(namedtuple("Declaration", "copies shape weighted", defaults=(True,))):
    """The classes a kind allows: copies(q, d, k) usable polynomials of
    degree d, each with a partition of the given shape.  A weighted kind
    counts the matrices in those classes, the others the classes."""

    __slots__ = ()


def _irreducibles(linear: Callable[[int], int]):
    """Every irreducible of degree d >= 2, nu_d of them, and linear(q) of
    the q linear polynomials z - c."""
    return lambda q, d, k: linear(q) if d == 1 else irreducible_poly_count(q, d)


def _linear(count: Callable[[int], int]):
    """count(q) linear polynomials and nothing of higher degree."""
    return lambda q, d, k: count(q) if d == 1 else 0


# one tally per (q, k), read once per degree; callers only read it
_factor_counts = cache(cyclotomic_factor_counts)


def _roots_of_one(q: int, d: int, k: int | None) -> int:
    """The irreducible factors of degree d of z^k - 1, square-free when p
    does not divide k, so that A^k = I leaves each the shape 1^m."""
    if k is None:
        raise ValueError("power_identity needs the exponent k")
    return _factor_counts(q, k).get(d, 0)


_EVERY = _irreducibles(lambda q: q)

DECLARATIONS: dict[str, Declaration] = {
    # invertible: z carries nothing; a derangement also leaves out z - 1,
    # a projective one every linear polynomial
    "invertible_check": Declaration(_irreducibles(lambda q: q - 1), "any"),
    "linear_derangement": Declaration(_irreducibles(lambda q: q - 2), "any"),
    "projective_derangement": Declaration(_irreducibles(lambda q: 0), "any"),
    "diagonalizable": Declaration(_linear(lambda q: q), "all parts 1"),
    "projection": Declaration(_linear(lambda q: 2), "all parts 1"),  # z and z - 1
    "power_identity": Declaration(_roots_of_one, "all parts 1"),
    "cyclic": Declaration(_EVERY, "one part"),
    "cyclic_alt": Declaration(_EVERY, "one part"),
    "semisimple": Declaration(_EVERY, "all parts 1"),
    "separable": Declaration(_EVERY, "only (1)"),
    "separable_alt": Declaration(_EVERY, "only (1)"),
    "conjclasses_all": Declaration(_EVERY, "any", weighted=False),
    "conjclasses_gl": Declaration(_irreducibles(lambda q: q - 1), "any", weighted=False),
}

# class_type_counts refuses orders whose work model, order^4 log2(q),
# scores above this.  The partition sums grow like the partition numbers;
# the bound admits order <= 36 at q = 2, where every kind takes 1.3 s on a
# 2-core Xeon, order <= 30 at q = 4 and order <= 25 at q = 16.
MAX_CLASS_TYPE_WORK = 36**4

# class_sizes lists every class one by one, and M_n(F_q) has about q^n of
# them, so it refuses n with q^n above this: n <= 12 at q = 2 (13386
# classes in 0.55 s on a 2-core Xeon), n <= 6 at q = 4, n <= 3 at q = 16.
MAX_LISTED_CLASSES = 2**12

# min_centralizer_orders refuses a max_n whose knapsack, usable
# polynomials x max_n x max_n // d summed over the degrees d, scores above
# this: max_n <= 237 at q = 2 (0.03 s on a 2-core Xeon), max_n <= 107 at
# q = 1009 (0.012 s) and at q = 2^61 - 1 (0.08 s).  The set knapsack takes
# at most max_n steps per polynomial, so the score overcounts it by
# max_n // d; it stays so that the admitted set stays the same.
MAX_KNAPSACK_WORK = 2 * 10**6


def _check_cost(q: int, order: int) -> None:
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    # (q - 1).bit_length() is ceil(log2 q)
    if order**4 * (q - 1).bit_length() > MAX_CLASS_TYPE_WORK:
        raise CostExceeded(
            f"the class types of order {order} over F_{q} are beyond the cost "
            f"bound of {MAX_CLASS_TYPE_WORK} work units"
        )


@cache
def _splittings(q: int, order: int, weighted: bool) -> tuple:
    """W(n, k) for k <= n <= order: the ordered splittings F_q^n = U + U'
    with dim U = k (complement_rows) when weighted, else 1."""
    if not weighted:
        return tuple((1,) * (n + 1) for n in range(order + 1))
    return tuple(map(tuple, complement_rows(q, order)))


@cache
def _degree_sum(q: int, d: int, m: int, shape: str, weighted: bool) -> int:
    """g(m) for one polynomial of degree d: the md x md matrices whose
    characteristic polynomial is its m-th power with an allowed shape, or
    the number of allowed shapes when not weighted."""
    allowed = SHAPES[shape](m)
    if not weighted:
        return len(allowed)
    Q = q**d
    group = gl_order(Q, m)
    sizes = sum(exact_div(group, centralizer_order(Q, lam), _SIZE, m, Q) for lam in allowed)
    # times the index of GL_m(Q), a subgroup of GL_md(q)
    return sizes * (gl_order(q, m * d) // group)


@cache
def _degree_factor(q: int, d: int, order: int, shape: str, weighted: bool, copies: int) -> tuple:
    """(1 + G)^copies to u^order, G = sum_(m>=1) g(m) u^(md), as
    sum_j C(copies, j) G^j."""
    w = _splittings(q, order, weighted)
    g = [0] * (order + 1)
    for m in range(1, order // d + 1):
        g[m * d] = _degree_sum(q, d, m, shape, weighted)
    factor = [1] + [0] * order
    power = factor
    for j in range(1, min(copies, order // d) + 1):
        power = join(power, g, w, d)
        factor = [f + comb(copies, j) * p for f, p in zip(factor, power)]
    return tuple(factor)


def class_type_counts(kind: str, q: int, order: int, k: int | None = None) -> list[int]:
    """The counts for n = 0 .. order of the classes kind allows: the
    matrices in them, or the classes themselves for the class counts."""
    declaration = DECLARATIONS[kind]
    _check_cost(q, order)
    shape, weighted = declaration.shape, declaration.weighted
    counts = [1] + [0] * order
    for d in range(1, order + 1):
        copies = declaration.copies(q, d, k)
        if copies:
            factor = _degree_factor(q, d, order, shape, weighted, copies)
            counts = join(counts, factor, _splittings(q, order, weighted), d)
    return counts


def class_sizes(kind: str, q: int, n: int, k: int | None = None) -> list[int]:
    """|GL_n(q)| / prod_phi c(lam_phi) for each class of n x n matrices that
    kind allows, one entry per class, in no particular order.

    A choice of j of the usable polynomials of degree d for one partition
    is C(free, j) classes, free being those of degree d not yet given one.
    """
    declaration = DECLARATIONS[kind]
    _check_cost(q, n)
    if q**n > MAX_LISTED_CLASSES:
        raise CostExceeded(
            f"listing the classes of size {n} over F_{q} is beyond the bound of "
            f"{MAX_LISTED_CLASSES} for q^n"
        )
    free = {d: declaration.copies(q, d, k) for d in range(1, n + 1)}
    options = [
        (d, d * m, centralizer_order(q**d, lam))
        for d in range(1, n + 1)
        if free[d]
        for m in range(1, n // d + 1)
        for lam in SHAPES[declaration.shape](m)
    ]
    group = gl_order(q, n)
    sizes: list[int] = []

    def walk(i: int, left: int, centralizer: int, classes: int) -> None:
        if not left:
            sizes.extend([exact_div(group, centralizer, _SIZE, n, q)] * classes)
            return
        if i == len(options):
            return
        d, weight, c = options[i]
        for j in range(min(free[d], left // weight) + 1):
            ways = comb(free[d], j)
            free[d] -= j
            walk(i + 1, left - j * weight, centralizer * c**j, classes * ways)
            free[d] += j

    walk(0, n, 1, 1)
    return sizes


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
    ell.  The last bound exceeds Q^(m-1) (Q-1) unless ell = 1.

    The single part (m) costs q^(dm) (1 - q^-d), so a class whose set S of
    polynomials has degree sum s has centralizer q^(n-s) prod_S (q^d - 1):
    the multiplicities only pad the weight from s to n.  The minimum is
    then a 0/1 knapsack over sets of polynomials, each of the
    min(nu_d - [d = 1], max_n // d) usable ones of degree d left out or
    taken once at weight d and factor q^d - 1, started from the padding
    alone, q^w.  Every class is a path through it.  Conversely a value
    q^p prod_S (q^d - 1) with p > 0 is a class when S holds a linear
    polynomial, whose multiplicity takes the p; when S holds none, adding
    one of the q - 1 >= 1 usable linear polynomials multiplies the value by
    (q - 1) / q < 1, so it is never the minimum.
    """
    # nu_1 = q, and the linear polynomials alone score min(q - 1, max_n)
    # max_n^2: a max_n they put past the bound is refused at d = 1, before
    # the nu_d are counted
    over = min(q - 1, max_n) * max_n**2 > MAX_KNAPSACK_WORK
    nu = {1: q} if over else irreducible_poly_counts(q, max_n)
    usable = [0]
    work = 0
    for d in range(1, max_n + 1):
        usable.append(min(nu[d] - (d == 1), max_n // d))
        work += usable[d] * max_n * (max_n // d)
        if work > MAX_KNAPSACK_WORK:
            raise CostExceeded(
                f"the centralizer knapsack to n = {max_n} is beyond the cost "
                f"bound of {MAX_KNAPSACK_WORK} steps"
            )
    best = powers(q, max_n)
    for d in range(1, max_n + 1):
        step = q**d - 1
        for _ in range(usable[d]):
            # descending weights read only entries this polynomial has not set
            for w in range(max_n, d - 1, -1):
                best[w] = min(best[w], best[w - d] * step)
    return best
