"""Validation suites: pinned values, identities, dual routes, and sweeps.

Six suites, each returning plain CheckResult records:

- regression: recompute every pinned sequence/triangle value.
- identity: exact power-series and q-combinatorial identities.
- cross_route: the same count computed by two independent methods.
- trend: ratios at n = 10 sit near their limiting products.
- limit: catalogued limit digits, and the cyclic limit by two routes.
- oracle: exhaustive small-field matrix sweeps match every formula.

The command-line `verify` subcommand runs all of them and fails on any
mismatch.  It and the test suite's full-suite gate both go through
run_suites, which reads the one list SUITES.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from . import oracle, regression
from .exact_series import TruncSeries
from .ffpoly import cyclotomic_factor_degrees, divisors, irreducible_poly_count
from .gfengine import (
    centralizer_order,
    cyclic_alt_rule,
    cyclic_limit_bracket,
    cyclic_rule,
    decimal_truncate,
    euler_partial_product,
    euler_rule,
    factor_series,
    gf_build,
    gf_counts,
    limit_eval,
    min_centralizer_orders,
    nu_weighted_product,
    partitions_of,
    q_stirling_via_gf,
    separable_alt_rule,
    separable_rule,
    unit_rule,
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
    """Outcome of one named check."""

    suite: str
    name: str
    ok: bool
    detail: str = ""


def _check(results: list[CheckResult], suite: str, name: str, got, want) -> None:
    if got == want:
        results.append(CheckResult(suite, name, True))
    else:
        results.append(
            CheckResult(suite, name, False, f"expected {want!r}, got {got!r}")
        )


def _prop(results: list[CheckResult], suite: str, name: str, ok: bool, detail: str = "") -> None:
    results.append(CheckResult(suite, name, ok, "" if ok else detail))


def failures(results) -> list[CheckResult]:
    return [r for r in results if not r.ok]


# ---------------------------------------------------------------- regression


def regression_checks() -> list[CheckResult]:
    """Recompute every pinned value through the public sequence routes."""
    results: list[CheckResult] = []
    for entry in regression.SEQUENCES:
        spec = make_spec(
            entry.name,
            entry.q,
            entry.k,
            min_n=entry.start,
            max_n=entry.start + len(entry.values) - 1,
        )
        label = f"{entry.name} q={entry.q}" + (f" k={entry.k}" if entry.k else "")
        _check(results, "regression", label, tuple(sequence_values(spec)), entry.values)
    for tri in regression.TRIANGLES:
        spec = make_spec(
            tri.name, tri.q, min_n=tri.start_row, max_n=tri.start_row + len(tri.rows) - 1
        )
        rows = sequence_values(spec)
        _check(
            results,
            "regression",
            f"{tri.name} q={tri.q}",
            tuple(tuple(r) for r in rows),
            tri.rows,
        )
    for q, want in regression.DIAGONALIZABLE_D2:
        _check(results, "regression", f"diagonalizable q={q} n=2", diagonalizable_count(q, 2), want)
        _check(
            results,
            "regression",
            f"diagonalizable q={q} n=2 gf",
            gf_counts("diagonalizable", q, 4)[2],
            want,
        )
    return results


# ------------------------------------------------------------------ identity


def _all_ones(order: int) -> TruncSeries:
    return TruncSeries([1] * (order + 1), order)


def _one_minus_v_over_Q(Q: int, m: int) -> Fraction:
    """The factor 1 - u^d / Q, whose product over all irreducibles is 1 - u."""
    return (Fraction(1), -Fraction(1, Q))[m] if m < 2 else Fraction(0)


def identity_checks() -> list[CheckResult]:
    results: list[CheckResult] = []

    # product of euler factors over every irreducible except z equals 1/(1-u)
    order = 12
    for q in (2, 3, 4):
        prod = factor_series(euler_rule, q, 1, order) ** (q - 1)
        for d in range(2, order + 1):
            prod = prod * factor_series(euler_rule, q, d, order) ** irreducible_poly_count(q, d)
        _check(results, "identity", f"euler product = 1/(1-u) q={q}", prod, _all_ones(order))
        _check(
            results,
            "identity",
            f"invertible gf = 1/(1-u) q={q}",
            gf_build("invertible_check", q, order),
            _all_ones(order),
        )

    # the complementary product over all irreducibles equals 1 - u
    for q in (2, 3, 4, 5):
        got = nu_weighted_product(q, _one_minus_v_over_Q, 16)
        want = TruncSeries.one(16) - TruncSeries.monomial(1, 1, 16)
        _check(results, "identity", f"factored form of 1-u q={q}", got, want)

    # euler factor coefficients equal partition sums over centralizer orders
    for q in (2, 3):
        for d in (1, 2, 3):
            ok = True
            detail = ""
            for m in range(0, 10 // d + 1):
                want = sum(
                    (Fraction(1, centralizer_order(q**d, lam)) for lam in partitions_of(m)),
                    Fraction(0),
                )
                if euler_rule(q**d, m) != want:
                    ok = False
                    detail = f"mismatch at q={q} d={d} m={m}"
                    break
            _prop(results, "identity", f"partition sum = euler factor q={q} d={d}", ok, detail)

    # summing reciprocal centralizer orders over all partitions of n
    for q in (2, 3):
        for n in range(1, 9):
            total = sum(
                (Fraction(1, centralizer_order(q, lam)) for lam in partitions_of(n)),
                Fraction(0),
            )
            _check(
                results,
                "identity",
                f"centralizer reciprocal sum q={q} n={n}",
                gl_order(q, n) * total,
                q ** (n * (n - 1)),
            )

    # q-binomial theorem: prod_{i=0}^{n-1} (1 + q^i t) as a polynomial in t
    for q in (2, 3, 4, 5):
        ok = True
        detail = ""
        for n in range(0, 11):
            poly = [1]
            for i in range(n):
                shifted = [0] + [c * q**i for c in poly]
                poly = [a + b for a, b in zip(poly + [0], shifted)]
            want = [
                q ** comb(k, 2) * gaussian_binomial(q, n, k) for k in range(n + 1)
            ]
            if poly != want:
                ok = False
                detail = f"mismatch at q={q} n={n}: {poly} != {want}"
                break
        _prop(results, "identity", f"q-binomial theorem q={q}", ok, detail)

    # conjugacy-class products: one partition per irreducible polynomial
    for q in (2, 3):
        order = 10
        pgf = TruncSeries.one(order)
        for i in range(1, order + 1):
            pgf = pgf * (TruncSeries.one(order) - TruncSeries.monomial(1, i, order)).recip()
        prod = TruncSeries.one(order)
        for d in range(1, order + 1):
            prod = prod * pgf.dilate(d) ** irreducible_poly_count(q, d)
        _check(
            results,
            "identity",
            f"class product, all matrices q={q}",
            prod,
            gf_build("conjclasses_all", q, order),
        )
        _check(
            results,
            "identity",
            f"class product, invertible q={q}",
            prod * pgf.recip(),
            gf_build("conjclasses_gl", q, order),
        )

    # irreducible-polynomial counts partition the roots of z^(q^n) - z
    for q in (2, 3, 4):
        ok = True
        detail = ""
        for n in range(1, 11):
            got = sum(d * irreducible_poly_count(q, d) for d in divisors(n))
            if got != q**n:
                ok = False
                detail = f"degree-weighted count {got} != {q}^{n}"
                break
        _prop(results, "identity", f"irreducible count sum q={q}", ok, detail)

    # factorization type of z^k - 1: degrees sum to k; linear factors = gcd(k, q-1)
    for q, ks in ((2, (1, 3, 5, 7, 9, 15)), (3, (1, 2, 4, 5, 7, 8)), (4, (3, 5, 7, 9)), (5, (2, 3, 4, 6))):
        ok = True
        detail = ""
        for k in ks:
            degs = cyclotomic_factor_degrees(q, k)
            if sum(degs) != k or degs.count(1) != gcd(k, q - 1):
                ok = False
                detail = f"bad degree profile {degs} for k={k}"
                break
        _prop(results, "identity", f"root-of-unity factor degrees q={q}", ok, detail)

    return results


# --------------------------------------------------------------- cross_route


# exponents k of the power_identity checks, prime to every characteristic
_POWER_KS = (1, 5, 7)

# the cycle-index product kinds, each one rule's factor over every monic
# irreducible, with whether gf_build divides the product by 1 - u
_NU_PRODUCTS = {
    "semisimple": (unit_rule, False),
    "cyclic": (cyclic_rule, False),
    "separable": (separable_rule, False),
    "cyclic_alt": (cyclic_alt_rule, True),
    "separable_alt": (separable_alt_rule, True),
}


def _fraction_builds(q: int, order: int) -> dict:
    """Every gf_build kind outside _NU_PRODUCTS, multiplied out on the
    TruncSeries kernels (power_identity as a tuple over _POWER_KS)."""
    one = TruncSeries.one(order)
    one_minus_u = one - TruncSeries.monomial(1, 1, order)
    euler_inverse = factor_series(euler_rule, q, 1, order).recip()
    unit = factor_series(unit_rule, q, 1, order)
    roots_of_one = []
    for k in _POWER_KS:
        product = one
        for d in cyclotomic_factor_degrees(q, k):
            product = product * factor_series(unit_rule, q, d, order)
        roots_of_one.append(product)
    classes_all = classes_gl = one
    for r in range(1, order + 1):
        one_minus_qu = one - TruncSeries.monomial(q, r, order)
        classes_all = classes_all / one_minus_qu
        classes_gl = classes_gl * (one - TruncSeries.monomial(1, r, order)) / one_minus_qu
    return {
        "invertible_check": one_minus_u.recip(),
        "linear_derangement": euler_inverse / one_minus_u,
        "projective_derangement": euler_inverse ** (q - 1) / one_minus_u,
        "diagonalizable": unit**q,
        "projection": unit**2,
        "power_identity": tuple(roots_of_one),
        "conjclasses_all": classes_all,
        "conjclasses_gl": classes_gl,
        "bell": (unit - 1).exp(),
    }


def cross_route_checks() -> list[CheckResult]:
    results: list[CheckResult] = []

    for q in (2, 3):
        _check(
            results,
            "cross_route",
            f"projections: sum formula vs gf q={q}",
            [projection_count(q, n) for n in range(11)],
            gf_counts("projection", q, 10),
        )
        _check(
            results,
            "cross_route",
            f"diagonalizable: sum formula vs gf q={q}",
            [diagonalizable_count(q, n) for n in range(11)],
            gf_counts("diagonalizable", q, 10),
        )
        _check(
            results,
            "cross_route",
            f"derangements: recursion vs gf q={q}",
            [linear_derangement_count(q, n) for n in range(11)],
            gf_counts("linear_derangement", q, 10),
        )
        _check(
            results,
            "cross_route",
            f"splitting counts: sum vs exp gf q={q}",
            [
                [q_stirling(q, n, k) for k in range(1, n + 1)]
                for n in range(1, 8)
            ],
            [
                [q_stirling_via_gf(q, n, k) for k in range(1, n + 1)]
                for n in range(1, 8)
            ],
        )
        _check(
            results,
            "cross_route",
            f"splitting totals vs exp gf q={q}",
            [q_bell(q, n) for n in range(1, 7)],
            gf_counts("bell", q, 6)[1:],
        )

    for q in (2, 3, 5):
        _check(
            results,
            "cross_route",
            f"derangement reduced form q={q}",
            [linear_derangement_count(q, n) for n in range(13)],
            [
                linear_derangement_reduced(q, n) * q ** (n * (n - 1) // 2)
                for n in range(13)
            ],
        )

    for q in (2, 3, 4):
        _check(
            results,
            "cross_route",
            f"cyclic gf forms agree q={q}",
            gf_build("cyclic", q, 12),
            gf_build("cyclic_alt", q, 12),
        )
        _check(
            results,
            "cross_route",
            f"separable gf forms agree q={q}",
            gf_build("separable", q, 12),
            gf_build("separable_alt", q, 12),
        )

    # every cycle-index product on both product engines: gf_build's integer
    # exp of summed logs with exact division, and the Fraction
    # power-and-multiply kernels
    recip = (TruncSeries.one(24) - TruncSeries.monomial(1, 1, 24)).recip()
    for q in (2, 3, 4):
        for kind, (rule, over_one_minus_u) in _NU_PRODUCTS.items():
            got, want = gf_build(kind, q, 24), nu_weighted_product(q, rule, 24)
            if over_one_minus_u:
                want = want * recip
            _check(results, "cross_route", f"{kind}: integer vs Fraction product q={q}", got, want)

    # every other kind gf_build serves, built on integers, against the
    # formula that multiplies it out on the TruncSeries kernels
    for q in (2, 3, 4):
        for kind, want in _fraction_builds(q, 24).items():
            if kind == "power_identity":
                got = tuple(gf_build(kind, q, 24, k) for k in _POWER_KS)
            else:
                got = gf_build(kind, q, 24)
            _check(results, "cross_route", f"{kind}: integer vs Fraction build q={q}", got, want)

    # over odd q the solutions of A^2 = I biject with projections
    for q in (3, 5):
        _check(
            results,
            "cross_route",
            f"square roots of identity vs projections q={q}",
            gf_counts("power_identity", q, 8, k=2),
            [projection_count(q, n) for n in range(9)],
        )

    for q in (2, 3, 4, 5, 7, 8, 9):
        _check(
            results,
            "cross_route",
            f"diagonalizable n=2 polynomial q={q}",
            diagonalizable_count(q, 2),
            (q**4 - q**2 + 2 * q) // 2,
        )

    for q in (2, 3):
        _check(
            results,
            "cross_route",
            f"projections vs splitting numbers q={q}",
            [projection_count(q, n) for n in range(2, 9)],
            [2 + 2 * q_stirling(q, n, 2) for n in range(2, 9)],
        )

    _check(
        results,
        "cross_route",
        "projections = diagonalizable at q=2",
        [projection_count(2, n) for n in range(9)],
        [diagonalizable_count(2, n) for n in range(9)],
    )

    for q in (2, 3):
        ok = all(
            gaussian_binomial(q, n, k)
            == gl_order(q, n)
            // (gl_order(q, k) * gl_order(q, n - k) * q ** (k * (n - k)))
            and gaussian_binomial(q, n, k) == gaussian_binomial(q, n, n - k)
            for n in range(11)
            for k in range(n + 1)
        )
        _prop(results, "cross_route", f"subspace count group identity q={q}", ok, "index formula mismatch")
        _check(
            results,
            "cross_route",
            f"two-part multinomial q={q}",
            [q_multinomial(q, [a, b]) for a in range(5) for b in range(5)],
            [gaussian_binomial(q, a + b, a) for a in range(5) for b in range(5)],
        )
        ok = all(
            rank_count(q, m, n, k) == rank_count(q, n, m, k)
            for m in range(6)
            for n in range(6)
            for k in range(min(m, n) + 1)
        )
        _prop(results, "cross_route", f"rank count transpose symmetry q={q}", ok, "transpose mismatch")
        ok = all(
            sum(rank_count(q, n, n, k) for k in range(n + 1)) == q ** (n * n)
            for n in range(6)
        )
        _prop(results, "cross_route", f"rank counts sum to all matrices q={q}", ok, "rank total mismatch")

    # the q-Pascal table routes against the product cells and group orders
    for q in (2, 3, 4, 5):
        ns = range(17)
        cells = [[gaussian_binomial(q, n, k) for k in range(n + 1)] for n in ns]
        ranks = [[rank_count(q, n, n, k) for k in range(n + 1)] for n in ns]
        for label, name, want in (
            ("q-Pascal rows vs product cells", "qbinom_row", cells),
            ("rank rows vs rank_count", "rank_row", ranks),
            ("subspace totals vs summed cells", "subspaces_total", [sum(r) for r in cells]),
        ):
            got = sequence_values(make_spec(name, q, min_n=0, max_n=16))
            _check(results, "cross_route", f"{label} q={q}", got, want)
        gl = [gl_order(q, n) for n in ns]
        want = [[gl[m] // (gl[a] * gl[m - a]) for a in range(m + 1)] for m in ns]
        got = complement_rows(q, 16)
        _check(results, "cross_route", f"complement rows vs group orders q={q}", got, want)

    for q in (2, 3, 4, 5):
        _check(
            results,
            "cross_route",
            f"invertible order factored form q={q}",
            [gl_order(q, n) for n in range(9)],
            [gl_order_factored(q, n) for n in range(9)],
        )
        _check(
            results,
            "cross_route",
            f"invertible counts via gf q={q}",
            [gl_order(q, n) for n in range(13)],
            gf_counts("invertible_check", q, 12),
        )

    return results


# --------------------------------------------------------------------- trend


def trend_checks() -> list[CheckResult]:
    """Distances to the limiting ratios shrink and end within 10% at n = 10."""
    results: list[CheckResult] = []
    for q in (2, 3):
        limit = euler_partial_product(q, 60)
        series = {
            "invertible fraction": [
                Fraction(gl_order(q, n), q ** (n * n)) for n in range(1, 11)
            ],
            "derangement fraction": [
                Fraction(linear_derangement_count(q, n), gl_order(q, n))
                for n in range(1, 11)
            ],
        }
        classes = gf_counts("conjclasses_all", q, 10)
        series["class count growth"] = [
            Fraction(classes[n], q**n) for n in range(1, 11)
        ]
        targets = {
            "invertible fraction": limit,
            "derangement fraction": limit,
            "class count growth": 1 / limit,
        }
        for label, values in series.items():
            target = targets[label]
            dist = [abs(x - target) for x in values]
            ok = dist[3] >= dist[6] >= dist[9] and dist[9] <= target / 10
            _prop(
                results,
                "trend",
                f"{label} q={q}",
                ok,
                f"distances n=4,7,10: {[float(dist[i]) for i in (3, 6, 9)]}, "
                f"limit {float(target):.6f}",
            )
    return results


# -------------------------------------------------------------------- limits


# (kind, q, digits, expected truncated decimals).  The paper states the
# cyclic limit at q = 2 as "0.7403"; both routes below prove 0.74603...,
# so the stated string is an erratum and the proven digits are pinned.
LIMIT_TARGETS = (
    ("invertible", 2, 5, "0.28878"),
    ("invertible", 3, 5, "0.56012"),
    ("cyclic", 2, 4, "0.7460"),
)


def limit_checks() -> list[CheckResult]:
    """The catalogued limit digits, and the cyclic limit by two routes.

    The second cyclic route is the cycle-index product of
    cyclic_limit_bracket, which does not use the closed form
    (1 - q^-5) prod_{r>=3}(1 - q^-r) behind limit_eval.
    """
    results: list[CheckResult] = []
    for kind, q, digits, want in LIMIT_TARGETS:
        _check(results, "limit", f"{kind} limit q={q}", limit_eval(kind, q, digits), want)
    for q in (2, 3):
        for digits in (4, 5):
            lo, _ = cyclic_limit_bracket(q, digits)
            _check(
                results,
                "limit",
                f"cyclic limit q={q} digits={digits}: cycle index vs closed form",
                decimal_truncate(lo, digits),
                limit_eval("cyclic", q, digits),
            )
    return results


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


def oracle_checks(sweeps: dict) -> list[CheckResult]:
    results: list[CheckResult] = []
    for (q, n), (sw, _) in sorted(sweeps.items()):
        tag = f"q={q} n={n}"
        p = PrimePower.of(q).p
        _check(results, "oracle", f"matrix total {tag}", sw.total, q ** (n * n))
        _check(results, "oracle", f"invertible {tag}", sw.invertible, gl_order(q, n))
        _check(results, "oracle", f"nilpotent {tag}", sw.nilpotent, nilpotent_count(q, n))
        _check(results, "oracle", f"projections {tag}", sw.projection, projection_count(q, n))
        _check(
            results,
            "oracle",
            f"diagonalizable {tag}",
            sw.diagonalizable,
            diagonalizable_count(q, n),
        )
        _check(
            results,
            "oracle",
            f"derangements {tag}",
            sw.linear_derangement,
            linear_derangement_count(q, n),
        )
        for kind, got in (
            ("cyclic", sw.cyclic),
            ("semisimple", sw.semisimple),
            ("separable", sw.separable),
            ("projective_derangement", sw.projective_derangement),
        ):
            _check(
                results,
                "oracle",
                f"{kind} {tag}",
                got,
                gf_counts(kind, q, n)[n],
            )
        _check(
            results,
            "oracle",
            f"rank distribution {tag}",
            sw.rank,
            tuple(rank_count(q, n, n, k) for k in range(n + 1)),
        )
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
            _check(results, "oracle", f"power identity k={k} {tag}", got, want)
        _check(results, "oracle", f"flag consistency {tag}", sw.consistency_violations, 0)
        if (q, n) in PER_MATRIX_CASES:
            _check(
                results,
                "oracle",
                f"orbit-weighted tallies = per-matrix tallies {tag}",
                sw,
                oracle.per_matrix_counts(q, n),
            )

    # over odd q, A^2 = I exactly when (A + I)/2 is a projection
    for (q, n), (sw, _) in sorted(sweeps.items()):
        if q % 2:
            _check(
                results,
                "oracle",
                f"square roots of identity vs projections q={q} n={n}",
                sw.power_identity[2],
                projection_count(q, n),
            )

    for (q, n), (_, orbits) in sorted(sweeps.items()):
        tag = f"q={q} n={n}"
        sizes_all = [size for size, _ in orbits]
        sizes_gl = [size for size, invertible in orbits if invertible]
        gamma = gl_order(q, n)
        _check(
            results,
            "oracle",
            f"class count, all matrices {tag}",
            len(sizes_all),
            gf_counts("conjclasses_all", q, n)[n],
        )
        _check(
            results,
            "oracle",
            f"class count, invertible {tag}",
            len(sizes_gl),
            gf_counts("conjclasses_gl", q, n)[n],
        )
        _check(results, "oracle", f"orbit sizes cover all matrices {tag}", sum(sizes_all), q ** (n * n))
        _check(results, "oracle", f"orbit sizes cover invertibles {tag}", sum(sizes_gl), gamma)
        _prop(
            results,
            "oracle",
            f"orbit sizes divide group order {tag}",
            all(gamma % s == 0 for s in sizes_all),
            "orbit size does not divide the group order",
        )
        _check(
            results,
            "oracle",
            f"smallest centralizer {tag}",
            gamma // max(sizes_gl),
            min_centralizer_orders(q, n)[n],
        )
        _check(
            results,
            "oracle",
            f"largest class {tag}",
            sequence_values(make_spec("max_class", q, min_n=n, max_n=n)),
            [max(sizes_gl)],
        )

    return results


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
