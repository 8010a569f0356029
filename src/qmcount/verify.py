"""Validation suites: pinned values, identities, dual routes, and sweeps.

Six suites, each a generator of (check name, got, want) comparisons that
_suite runs into plain CheckResult records, passing when got == want:

- regression: recompute every pinned sequence/triangle value.
- identity: exact power-series identities, on integer lists and class
  types, and q-combinatorial identities.  Every series check reads the
  integer counts of gf_counts, and none builds an exact_series.TruncSeries.
- cross_route: the same count computed by two independent methods; every
  series kind gf_counts serves against the sum over its class types
  (classtypes), which reads none of gfengine's rules.
- trend: ratios at n = 10 sit near their limiting products.
- limit: catalogued limit digits, and the cyclic limit by two routes.
- oracle: exhaustive small-field matrix sweeps match every formula, and
  the orbit sizes of each walk match the class sizes of classtypes.

A route that raises an ArithmeticError or ValueError is one failing check
of its suite that ends the suite early, and the suites after it still
run.  The command-line `verify` subcommand runs all of them, fails on any
mismatch and counts the suites that ended early.  It and the test suite's
full-suite gate both go through run_suites, which reads the one list
SUITES.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import comb, gcd
from typing import Any

from . import oracle, regression
from .classtypes import DECLARATIONS, class_sizes, class_type_counts
from .ffpoly import cyclotomic_factor_degrees, divisors, irreducible_poly_count
from .gfengine import (
    centralizer_order,
    cyclic_limit_bracket,
    decimal_truncate,
    euler_partial_product,
    euler_rule,
    gf_counts,
    limit_eval,
    min_centralizer_orders,
    partitions_of,
    q_stirling_via_gf,
)
from .qcount import (
    PrimePower,
    complement_rows,
    diagonalizable_count,
    gaussian_binomial,
    gl_order,
    gl_order_factored,
    involution_count_char2,
    linear_derangement_count,
    linear_derangement_reduced,
    nilpotent_count,
    projection_count,
    q_bell,
    q_multinomial,
    q_stirling,
    rank_count,
)
from .sequences import make_spec, sequence_values


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check; `raised` marks the one that ended its
    suite early because a route raised."""

    suite: str
    name: str
    ok: bool
    detail: str = ""
    raised: bool = False


# what a suite's generator yields: (check name, got, want)
Comparisons = Iterator[tuple[str, Any, Any]]


def _suite(name: str) -> Callable[[Callable[..., Comparisons]], Callable[..., list[CheckResult]]]:
    """Run a generator of comparisons as the suite `name`.

    A route that raises ArithmeticError or ValueError ends the suite with
    one failing result that names the last check to finish; any other
    exception is a fault in the program and propagates.
    """

    def decorate(checks: Callable[..., Comparisons]) -> Callable[..., list[CheckResult]]:
        @wraps(checks)
        def run(*args) -> list[CheckResult]:
            results: list[CheckResult] = []
            try:
                for check, got, want in checks(*args):
                    ok = got == want
                    detail = "" if ok else f"expected {want!r}, got {got!r}"
                    results.append(CheckResult(name, check, ok, detail))
            except (ArithmeticError, ValueError) as exc:
                after = f"after {results[-1].name}" if results else "before its first check"
                detail = f"{type(exc).__name__}: {exc}"
                check = f"route raised {after}"
                results.append(CheckResult(name, check, False, detail, raised=True))
            return results

        return run

    return decorate


def failures(results) -> list[CheckResult]:
    return [r for r in results if not r.ok]


# ---------------------------------------------------------------- regression


@_suite("regression")
def regression_checks() -> Comparisons:
    """Recompute every pinned value through the public sequence routes."""
    for pin in regression.PINS:
        last = pin.start + len(pin.values) - 1
        values = sequence_values(make_spec(pin.name, pin.q, pin.k, min_n=pin.start, max_n=last))
        label = f"{pin.name} q={pin.q}" + (f" k={pin.k}" if pin.k else "")
        # a triangle's rows come back as lists
        yield label, tuple(v if isinstance(v, int) else tuple(v) for v in values), pin.values
    for q, want in regression.DIAGONALIZABLE_D2:
        yield f"diagonalizable q={q} n=2", diagonalizable_count(q, 2), want
        yield f"diagonalizable q={q} n=2 gf", gf_counts("diagonalizable", q, 4)[2], want


# ------------------------------------------------------------------ identity


def _reciprocal_centralizer_sum(Q: int, m: int) -> Fraction:
    return sum((Fraction(1, centralizer_order(Q, lam)) for lam in partitions_of(m)), Fraction(0))


@_suite("identity")
def identity_checks() -> Comparisons:
    # the invertible classes summed over their class types, over |GL_n|:
    # the product of the euler factors of every irreducible but z, 1/(1-u)
    order = 12
    for q in (2, 3, 4):
        ones = [1] * (order + 1)
        for label, route in (("euler product", class_type_counts), ("invertible gf", gf_counts)):
            counts = route("invertible_check", q, order)
            got = [Fraction(c, gl_order(q, n)) for n, c in enumerate(counts)]
            yield f"{label} = 1/(1-u) q={q}", got, ones

    # the complementary product over all irreducibles equals 1 - u: with
    # x = u/q, prod_d (1 - x^d)^nu_d = 1 - q x, expanded binomially on integers
    for q in (2, 3, 4, 5):
        prod = [1] + [0] * 16
        for d in range(1, 17):
            nu = irreducible_poly_count(q, d)
            factor = [0] * 17
            for j in range(16 // d + 1):
                factor[j * d] = (-1) ** j * comb(nu, j)
            prod = [sum(prod[i] * factor[n - i] for i in range(n + 1)) for n in range(17)]
        yield f"factored form of 1-u q={q}", prod, [1, -q] + [0] * 15

    # euler factor coefficients equal partition sums over centralizer orders
    for q in (2, 3):
        for d in (1, 2, 3):
            ms = range(0, 10 // d + 1)
            yield (
                f"partition sum = euler factor q={q} d={d}",
                [euler_rule(q**d, m) for m in ms],
                [_reciprocal_centralizer_sum(q**d, m) for m in ms],
            )

    # summing reciprocal centralizer orders over all partitions of n
    for q in (2, 3):
        for n in range(1, 9):
            got = gl_order(q, n) * _reciprocal_centralizer_sum(q, n)
            yield f"centralizer reciprocal sum q={q} n={n}", got, q ** (n * (n - 1))

    # q-binomial theorem: prod_{i=0}^{n-1} (1 + q^i t) as a polynomial in t
    for q in (2, 3, 4, 5):
        polys = [[1]]
        for i in range(10):
            shifted = [0] + [c * q**i for c in polys[-1]]
            polys.append([a + b for a, b in zip(polys[-1] + [0], shifted)])
        want = [
            [q ** comb(k, 2) * gaussian_binomial(q, n, k) for k in range(n + 1)] for n in range(11)
        ]
        yield f"q-binomial theorem q={q}", polys, want

    # conjugacy-class products: one partition per irreducible polynomial,
    # counted class type by class type
    for q in (2, 3):
        for kind, label in (("conjclasses_all", "all matrices"), ("conjclasses_gl", "invertible")):
            got = class_type_counts(kind, q, 10)
            yield f"class product, {label} q={q}", got, gf_counts(kind, q, 10)

    # irreducible-polynomial counts partition the roots of z^(q^n) - z
    for q in (2, 3, 4):
        ns = range(1, 11)
        got = [sum(d * irreducible_poly_count(q, d) for d in divisors(n)) for n in ns]
        yield f"irreducible count sum q={q}", got, [q**n for n in ns]

    # factorization type of z^k - 1: degrees sum to k; linear factors = gcd(k, q-1)
    for q, ks in (
        (2, (1, 3, 5, 7, 9, 15)), (3, (1, 2, 4, 5, 7, 8)), (4, (3, 5, 7, 9)), (5, (2, 3, 4, 6))
    ):
        profiles = [cyclotomic_factor_degrees(q, k) for k in ks]
        yield (
            f"root-of-unity factor degrees q={q}",
            [(sum(degs), degs.count(1)) for degs in profiles],
            [(k, gcd(k, q - 1)) for k in ks],
        )


# --------------------------------------------------------------- cross_route


# exponents k of the power_identity checks, prime to every characteristic
_POWER_KS = (1, 5, 7)


@_suite("cross_route")
def cross_route_checks() -> Comparisons:
    for q in (2, 3):
        ns = range(11)
        yield (
            f"projections: sum formula vs gf q={q}",
            [projection_count(q, n) for n in ns],
            gf_counts("projection", q, 10),
        )
        yield (
            f"diagonalizable: sum formula vs gf q={q}",
            [diagonalizable_count(q, n) for n in ns],
            gf_counts("diagonalizable", q, 10),
        )
        yield (
            f"derangements: recursion vs gf q={q}",
            [linear_derangement_count(q, n) for n in ns],
            gf_counts("linear_derangement", q, 10),
        )
        yield (
            f"splitting counts: sum vs exp gf q={q}",
            [[q_stirling(q, n, k) for k in range(1, n + 1)] for n in range(1, 8)],
            [[q_stirling_via_gf(q, n, k) for k in range(1, n + 1)] for n in range(1, 8)],
        )
        yield (
            f"splitting totals vs exp gf q={q}",
            [q_bell(q, n) for n in range(1, 7)],
            gf_counts("bell", q, 6)[1:],
        )

    for q in (2, 3, 5):
        yield (
            f"derangement reduced form q={q}",
            [linear_derangement_count(q, n) for n in range(13)],
            [linear_derangement_reduced(q, n) * q ** (n * (n - 1) // 2) for n in range(13)],
        )

    for q in (2, 3, 4):
        for kind in ("cyclic", "separable"):
            got, want = gf_counts(kind, q, 12), gf_counts(f"{kind}_alt", q, 12)
            yield f"{kind} gf forms agree q={q}", got, want

    # every kind gf_counts serves, from gfengine's product rules, against
    # the sum over the class types its declaration allows, which reads no
    # rule; the q-Bell series against the splitting-number sums
    for q in (2, 3, 4):
        for kind in DECLARATIONS:
            if kind == "power_identity":
                got = tuple(gf_counts(kind, q, 24, k) for k in _POWER_KS)
                want = tuple(class_type_counts(kind, q, 24, k) for k in _POWER_KS)
            else:
                got, want = gf_counts(kind, q, 24), class_type_counts(kind, q, 24)
            yield f"{kind}: gf_counts vs class types q={q}", got, want
        yield f"bell: gf_counts vs q-Bell sums q={q}", gf_counts("bell", q, 24), [
            q_bell(q, n) for n in range(25)
        ]

    # over odd q the solutions of A^2 = I biject with projections
    for q in (3, 5):
        yield (
            f"square roots of identity vs projections q={q}",
            gf_counts("power_identity", q, 8, k=2),
            [projection_count(q, n) for n in range(9)],
        )

    for q in (2, 3, 4, 5, 7, 8, 9):
        want = (q**4 - q**2 + 2 * q) // 2
        yield f"diagonalizable n=2 polynomial q={q}", diagonalizable_count(q, 2), want

    for q in (2, 3):
        yield (
            f"projections vs splitting numbers q={q}",
            [projection_count(q, n) for n in range(2, 9)],
            [2 + 2 * q_stirling(q, n, 2) for n in range(2, 9)],
        )

    yield (
        "projections = diagonalizable at q=2",
        [projection_count(2, n) for n in range(9)],
        [diagonalizable_count(2, n) for n in range(9)],
    )

    for q in (2, 3):
        # the index formula is symmetric in k and n - k, so rows that match
        # it are symmetric too
        gl = [gl_order(q, n) for n in range(11)]
        yield (
            f"subspace count group identity q={q}",
            [[gaussian_binomial(q, n, k) for k in range(n + 1)] for n in range(11)],
            [
                [gl[n] // (gl[k] * gl[n - k] * q ** (k * (n - k))) for k in range(n + 1)]
                for n in range(11)
            ],
        )
        yield (
            f"two-part multinomial q={q}",
            [q_multinomial(q, [a, b]) for a in range(5) for b in range(5)],
            [gaussian_binomial(q, a + b, a) for a in range(5) for b in range(5)],
        )
        shapes = [(m, n, k) for m in range(6) for n in range(6) for k in range(min(m, n) + 1)]
        yield (
            f"rank count transpose symmetry q={q}",
            [rank_count(q, m, n, k) for m, n, k in shapes],
            [rank_count(q, n, m, k) for m, n, k in shapes],
        )
        yield (
            f"rank counts sum to all matrices q={q}",
            [sum(rank_count(q, n, n, k) for k in range(n + 1)) for n in range(6)],
            [q ** (n * n) for n in range(6)],
        )

    # the recurrence tables against the product cells and group orders: the
    # q-Pascal rows, the rank rows built by their row ratios, the
    # Galois-number totals, the complement rows and the projection counts
    # by their q-difference recurrence, each against a formula it does not
    # read
    for q in (2, 3, 4, 5):
        ns = range(17)
        cells = [[gaussian_binomial(q, n, k) for k in range(n + 1)] for n in ns]
        ranks = [[rank_count(q, n, n, k) for k in range(n + 1)] for n in ns]
        for label, name, want in (
            ("q-Pascal rows vs product cells", "qbinom_row", cells),
            ("rank rows vs rank_count", "rank_row", ranks),
            ("subspace totals vs summed cells", "subspaces_total", [sum(r) for r in cells]),
        ):
            yield f"{label} q={q}", sequence_values(make_spec(name, q, min_n=0, max_n=16)), want
        gl = [gl_order(q, n) for n in ns]
        want = [[gl[m] // (gl[a] * gl[m - a]) for a in range(m + 1)] for m in ns]
        rows = complement_rows(q, 16)
        yield f"complement rows vs group orders q={q}", rows, want
        yield (
            f"projection recurrence vs complement sums q={q}",
            sequence_values(make_spec("projection", q, min_n=0, max_n=16)),
            [sum(row) for row in rows],
        )

    # the characteristic-two involutions, each row summed from its class
    # sizes by their ratios, against the class sizes from group orders
    for q in (2, 4):
        yield (
            f"char-2 involutions: term ratios vs class sizes q={q}",
            sequence_values(make_spec("power_identity", q, k=2, min_n=0, max_n=16)),
            [involution_count_char2(q, n) for n in range(17)],
        )

    # the splitting counts by their recurrences against the splitting
    # joins: the diagonalizable counts by the power recurrence of e^q, over
    # fields smaller and larger than the dimension, the q-Stirling rows
    # by the unordered splitting step, and the qbell route, the bell
    # series, against the joins' row sums
    for q in (2, 3, 4, 5, 9, 17):
        yield (
            f"diagonalizable: power recurrence vs splitting joins q={q}",
            sequence_values(make_spec("diagonalizable", q, min_n=0, max_n=16)),
            [diagonalizable_count(q, n) for n in range(17)],
        )
    for q in (2, 3, 4, 5):
        joins = [[q_stirling(q, n, k) for k in range(1, n + 1)] for n in range(1, 13)]
        yield (
            f"q-Stirling rows: unordered step vs splitting joins q={q}",
            sequence_values(make_spec("qstirling_row", q, min_n=1, max_n=12)),
            joins,
        )
        yield (
            f"q-Bell: row sums vs splitting joins q={q}",
            sequence_values(make_spec("qbell", q, min_n=1, max_n=12)),
            [sum(row) for row in joins],
        )

    for q in (2, 3, 4, 5):
        yield (
            f"invertible order factored form q={q}",
            [gl_order(q, n) for n in range(9)],
            [gl_order_factored(q, n) for n in range(9)],
        )
        yield (
            f"invertible counts via gf q={q}",
            [gl_order(q, n) for n in range(13)],
            gf_counts("invertible_check", q, 12),
        )


# --------------------------------------------------------------------- trend


@_suite("trend")
def trend_checks() -> Comparisons:
    """Distances to the limiting ratios shrink and end within 10% at n = 10.

    Each check compares the distances at n = 4, 7, 10 with themselves
    sorted largest first, the last capped at a tenth of the limit.
    """
    for q in (2, 3):
        limit = euler_partial_product(q, 60)
        classes = gf_counts("conjclasses_all", q, 10)
        for label, target, ratio in (
            ("invertible fraction", limit, lambda n: Fraction(gl_order(q, n), q ** (n * n))),
            (
                "derangement fraction",
                limit,
                lambda n: Fraction(linear_derangement_count(q, n), gl_order(q, n)),
            ),
            ("class count growth", 1 / limit, lambda n: Fraction(classes[n], q**n)),
        ):
            dist = [float(abs(ratio(n) - target)) for n in (4, 7, 10)]
            want = sorted(dist, reverse=True)
            want[-1] = min(want[-1], float(target) / 10)
            shown = f"n=4,7,10, limit {float(target):.6f}"
            yield f"{label} q={q}", (dist, shown), (want, shown)


# -------------------------------------------------------------------- limits


# (kind, q, digits, expected truncated decimals).  The paper states the
# cyclic limit at q = 2 as "0.7403"; both routes below prove 0.74603...,
# so the stated string is an erratum and the proven digits are pinned.
LIMIT_TARGETS = (
    ("invertible", 2, 5, "0.28878"),
    ("invertible", 3, 5, "0.56012"),
    ("cyclic", 2, 4, "0.7460"),
)


@_suite("limit")
def limit_checks() -> Comparisons:
    """The catalogued limit digits, and the cyclic limit by two routes.

    The second cyclic route is the cycle-index product of
    cyclic_limit_bracket, which does not use the closed form
    (1 - q^-5) prod_{r>=3}(1 - q^-r) behind limit_eval, nor the
    pentagonal series limit_eval evaluates it by.
    """
    for kind, q, digits, want in LIMIT_TARGETS:
        yield f"{kind} limit q={q}", limit_eval(kind, q, digits), want
    for q in (2, 3):
        for digits in (4, 5):
            lo, _ = cyclic_limit_bracket(q, digits)
            yield (
                f"cyclic limit q={q} digits={digits}: cycle index vs closed form",
                decimal_truncate(lo, digits),
                limit_eval("cyclic", q, digits),
            )


# -------------------------------------------------------------------- oracle

SWEEP_CASES = (
    (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4), (4, 3),
    (7, 2), (8, 2), (9, 2), (11, 2), (13, 2), (16, 2),
)

# Spaces small enough to classify every matrix one at a time, as the
# reference for the orbit-weighted tallies.
PER_MATRIX_CASES = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2))


def oracle_sweeps(budget: int = oracle.DEFAULT_ENUM_BUDGET) -> dict:
    """orbit_census of every standard case of at most `budget` matrices.

    Each (q, n) maps to the sweep tallies and the walk's orbits as
    (size, invertible), so the orbit checks reuse the walk that made the
    tallies.
    """
    return {
        (q, n): oracle.orbit_census(q, n, budget)
        for q, n in SWEEP_CASES
        if q ** (n * n) <= budget
    }


def _char_power_at_least(k: int, p: int, n: int) -> bool:
    """True when k is a power of p that is at least n."""
    if k < max(n, p):
        return False
    while k % p == 0:
        k //= p
    return k == 1


@_suite("oracle")
def oracle_checks(sweeps: dict) -> Comparisons:
    for (q, n), (sw, _) in sorted(sweeps.items()):
        tag = f"q={q} n={n}"
        p = PrimePower.of(q).p
        yield f"matrix total {tag}", sw.total, q ** (n * n)
        yield f"invertible {tag}", sw.invertible, gl_order(q, n)
        yield f"nilpotent {tag}", sw.nilpotent, nilpotent_count(q, n)
        yield f"projections {tag}", sw.projection, projection_count(q, n)
        yield f"diagonalizable {tag}", sw.diagonalizable, diagonalizable_count(q, n)
        yield f"derangements {tag}", sw.linear_derangement, linear_derangement_count(q, n)
        for kind, got in (
            ("cyclic", sw.cyclic),
            ("semisimple", sw.semisimple),
            ("separable", sw.separable),
            ("projective_derangement", sw.projective_derangement),
        ):
            yield f"{kind} {tag}", got, gf_counts(kind, q, n)[n]
        ranks = tuple(rank_count(q, n, n, k) for k in range(n + 1))
        yield f"rank distribution {tag}", sw.rank, ranks
        for k, got in sorted(sw.power_identity.items()):
            if k % p:
                want = gf_counts("power_identity", q, n, k)[n]
            elif k == 2 and p == 2:
                want = involution_count_char2(q, n)
            elif _char_power_at_least(k, p, n):
                # A^k = I means (A - I)^k = 0 here, i.e. A - I nilpotent
                want = nilpotent_count(q, n)
            else:
                continue
            yield f"power identity k={k} {tag}", got, want
        yield f"flag consistency {tag}", sw.consistency_violations, 0
        if (q, n) in PER_MATRIX_CASES:
            per_matrix = oracle.per_matrix_counts(q, n)
            yield f"orbit-weighted tallies = per-matrix tallies {tag}", sw, per_matrix

    # over odd q, A^2 = I exactly when (A + I)/2 is a projection
    for (q, n), (sw, _) in sorted(sweeps.items()):
        if q % 2:
            yield (
                f"square roots of identity vs projections q={q} n={n}",
                sw.power_identity[2],
                projection_count(q, n),
            )

    for (q, n), (_, orbits) in sorted(sweeps.items()):
        tag = f"q={q} n={n}"
        sizes_all = [size for size, _ in orbits]
        sizes_gl = [size for size, invertible in orbits if invertible]
        gamma = gl_order(q, n)
        want = gf_counts("conjclasses_all", q, n)[n]
        yield f"class count, all matrices {tag}", len(sizes_all), want
        want = gf_counts("conjclasses_gl", q, n)[n]
        yield f"class count, invertible {tag}", len(sizes_gl), want
        yield f"orbit sizes cover all matrices {tag}", sum(sizes_all), q ** (n * n)
        yield f"orbit sizes cover invertibles {tag}", sum(sizes_gl), gamma
        yield f"orbit sizes divide group order {tag}", [s for s in sizes_all if gamma % s], []
        yield f"smallest centralizer {tag}", gamma // max(sizes_gl), min_centralizer_orders(q, n)[n]
        yield (
            f"largest class {tag}",
            sequence_values(make_spec("max_class", q, min_n=n, max_n=n)),
            [max(sizes_gl)],
        )
        # the walk's orbits against |GL_n| / prod c(lam_phi), class by class
        for kind, label, sizes in (
            ("conjclasses_all", "all matrices", sizes_all),
            ("conjclasses_gl", "invertible", sizes_gl),
        ):
            yield f"class sizes, {label} {tag}", sorted(sizes), sorted(class_sizes(kind, q, n))


# Every suite but the oracle's, in the order run_all runs them.
SUITES = (regression_checks, identity_checks, cross_route_checks, trend_checks, limit_checks)


def run_suites(sweeps: dict) -> list[CheckResult]:
    """Every suite, the oracle's last on the given sweeps."""
    results = [r for suite in SUITES for r in suite()]
    return results + oracle_checks(sweeps)


def run_all(budget: int = oracle.DEFAULT_ENUM_BUDGET) -> list[CheckResult]:
    """Every suite, the oracle's on the standard cases of at most `budget`
    matrices."""
    return run_suites(oracle_sweeps(budget))
