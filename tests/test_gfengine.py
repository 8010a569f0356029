"""Generating functions for matrix classes and limiting probabilities."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm, prod

import pytest

import qmcount
from qmcount import classtypes, cli, gfengine, limits, oracle, scaled, verify
from qmcount.classtypes import class_type_counts, min_centralizer_orders
from qmcount.exact_series import TruncSeries
from qmcount.gfengine import (
    MAX_SERIES_WORK,
    CostExceeded,
    GF_KINDS,
    NonIntegralCount,
    _closed_log,
    _root_of_one_copies,
    _scaled_product,
    cyclic_alt_rule,
    cyclic_limit_bracket,
    cyclic_rule,
    euler_rule,
    extract_count,
    gf_build,
    gf_counts,
    q_stirling_via_gf,
    separable_alt_rule,
    separable_rule,
    unit_rule,
)
from qmcount.limits import (
    LIMIT_KINDS,
    UnresolvedDigits,
    _pentagonal_ends,
    _power,
    _resolve_digits,
    decimal_truncate,
    limit_eval,
)
from qmcount.ffpoly import cyclotomic_factor_degrees, irreducible_poly_count
from qmcount.qcount import (
    BadKindParams,
    PrimePower,
    centralizer_order,
    diagonalizable_count,
    gaussian_rows,
    gl_order,
    linear_derangement_count,
    partitions_of,
    projection_count,
    q_bell,
    q_stirling,
)
from qmcount.sequences import SEQUENCE_NAMES, TRIANGLE_NAMES


def test_partitions_of():
    assert [len(partitions_of(n)) for n in range(11)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    ]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for lam in partitions_of(7):
        assert sum(lam) == 7
        assert list(lam) == sorted(lam, reverse=True)
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_centralizer_order_known_values():
    for q in (2, 3, 4):
        assert centralizer_order(q, [1]) == q - 1
        assert centralizer_order(q, [2]) == q * q - q
        for m in range(1, 5):
            assert centralizer_order(q, [1] * m) == gl_order(q, m)
    assert centralizer_order(2, [1, 1]) == 6
    assert centralizer_order(2, [2, 1]) == 8
    assert centralizer_order(2, [3]) == 4
    # the parts may come in any order
    assert centralizer_order(3, [1, 2, 1, 3]) == centralizer_order(3, (3, 2, 1, 1)) == 2754990144
    with pytest.raises(ValueError):
        centralizer_order(2, [1, 0])


def test_single_part_is_the_smallest_centralizer():
    for Q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(1, 11):
            smallest = min(centralizer_order(Q, lam) for lam in partitions_of(m))
            assert smallest == Q ** (m - 1) * (Q - 1), (Q, m)


def test_min_centralizer_orders_match_the_orbit_sweep():
    # A082877
    assert min_centralizer_orders(2, 10) == [1, 1, 2, 3, 6, 12, 21, 42, 84, 147, 294]
    for q, n in [(q, n) for q in (2, 3, 4, 5) for n in (1, 2)] + [(2, 3)]:
        assert min_centralizer_orders(q, n)[n] == oracle.min_centralizer_order(q, n)
    # the orbit sweep also gives 12 here, but takes seconds
    assert min_centralizer_orders(3, 3)[3] == 12
    assert min_centralizer_orders(3, 5)[1:] == [2, 4, 12, 32, 96]
    assert min_centralizer_orders(2, 0) == [1]


def test_nilpotent_classes_sum_to_nilpotent_count():
    # class of nilpotent shape lam has size gl_order(n) / centralizer(lam)
    for q in (2, 3):
        for n in range(1, 7):
            gn = gl_order(q, n)
            total = 0
            for lam in partitions_of(n):
                c = centralizer_order(q, lam)
                assert gn % c == 0
                total += gn // c
            assert total == q ** (n * (n - 1))


def product_series(q: int, rule, order: int, copies=None) -> list[Fraction]:
    """a_n of prod_d factor_d ** copies[d] (nu_d copies by default), read
    off _scaled_product's integers."""
    values, gl = _scaled_product(q, rule, order, copies)
    return [Fraction(a, s) for a, s in zip(values, scaled.scales(q, order, gl))]


def test_euler_factor_series_matches_partition_sums():
    # the coefficient of u^(m d) in one polynomial's euler factor, and the
    # class types' sum at one polynomial over |GL_md(q)|, are both
    # sum 1 / c(lam) over the partitions of m
    for q in (2, 3):
        for d in (1, 2, 3):
            for m in range(9 // d + 1):
                expected = sum(
                    Fraction(1, centralizer_order(q**d, lam)) for lam in partitions_of(m)
                )
                assert euler_rule(q**d, m) == expected
                if m:
                    g = classtypes._degree_sum(q, d, m, "any", True)
                    assert Fraction(g, gl_order(q, m * d)) == expected


def test_euler_factor_series_edges():
    assert euler_rule(2, 0) == euler_rule(9, 0) == 1
    assert euler_rule(2, 1) == 1
    assert euler_rule(3, 1) == Fraction(1, 2)
    # a factor of degree beyond the order leaves the product at one
    assert product_series(2, euler_rule, 5, {7: 1}) == [1, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        _scaled_product(2, euler_rule, 5, {0: 1})


def test_unit_factor_series():
    assert unit_rule(4, 0) == 1
    assert unit_rule(4, 1) == Fraction(1, 3)
    assert unit_rule(4, 2) == Fraction(1, gl_order(4, 2))


# rule -> the partitions it allows at one polynomial
ALLOWED = {
    euler_rule: lambda lam: True,
    unit_rule: lambda lam: set(lam) <= {1},
    cyclic_rule: lambda lam: len(lam) <= 1,
    separable_rule: lambda lam: lam in ((), (1,)),
}


def test_rules_match_centralizer_sums():
    # a factor's u^(m d) coefficient sums 1 / |centralizer| over its classes
    for rule, allowed in ALLOWED.items():
        for Q in (2, 3, 4, 5, 7, 8, 9):
            for m in range(9):
                want = sum(
                    (Fraction(1, centralizer_order(Q, lam))
                     for lam in partitions_of(m) if allowed(lam)),
                    Fraction(0),
                )
                assert rule(Q, m) == want, (rule.__name__, Q, m)


def test_alt_rules_are_the_plain_rules_times_one_minus_u_d_over_Q():
    # times 1 - v / Q, the coefficient of v^m loses plain's v^(m-1) over Q
    for plain, alt in ((cyclic_rule, cyclic_alt_rule), (separable_rule, separable_alt_rule)):
        for Q in (2, 3, 4, 5, 8, 9, 27):
            want = [plain(Q, 0)] + [plain(Q, m) - plain(Q, m - 1) / Q for m in range(1, 12)]
            assert [alt(Q, m) for m in range(12)] == want, (alt.__name__, Q)


def test_scaled_product_trivial_and_validation():
    trivial = _closed_log(lambda Q, m: Fraction(0))(lambda Q, m: int(m == 0))
    assert product_series(2, trivial, 8) == [1] + [0] * 8
    with pytest.raises(ValueError):
        _scaled_product(2, lambda Q, m: 0, 8, None)


def test_every_kind_has_an_independent_reference():
    # a kind added to gfengine without a class-type declaration fails here;
    # the q-Bell series counts splittings, not matrices, and verify checks
    # it against qcount.q_bell
    assert set(classtypes.DECLARATIONS) | {"bell"} == set(GF_KINDS)
    assert "bell" not in classtypes.DECLARATIONS


def d_scale(Q: int, m: int) -> int:
    """D_m(Q) = Q^m (Q - 1)...(Q^m - 1)."""
    return Q**m * gl_order(Q, m) // Q ** (m * (m - 1) // 2)


# rule -> its coefficient times D_m(Q), as its docstring states it
D_SCALED = {
    euler_rule: lambda Q, m: Q ** (m * (m + 1) // 2),
    cyclic_rule: lambda Q, m: Q * prod(Q**i - 1 for i in range(2, m + 1)) if m else 1,
    separable_rule: lambda Q, m: (1, Q)[m] if m < 2 else 0,
    cyclic_alt_rule: lambda Q, m: int(m < 2),
    separable_alt_rule: lambda Q, m: (1, 1, -Q * (Q * Q - 1))[m] if m < 3 else 0,
}


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_scaled_product_uses_the_scale_each_rule_declares(q):
    # every closed-log rule's coefficients are integers times D_m(Q), and
    # unit_rule's are exactly 1 times |GL_m(Q)|
    for rule, scaled in D_SCALED.items():
        for m in range(31):
            assert rule(q, m) * d_scale(q, m) == scaled(q, m), (rule.__name__, m)
    for m in range(31):
        assert unit_rule(q, m) * gl_order(q, m) == 1
    # cyclic_alt_rule fits only D_n: |GL_1(Q)| leaves 1 / Q at m = 1
    assert cyclic_alt_rule(q, 1) * gl_order(q, 1) == Fraction(1, q)
    # unit_rule fits only |GL_n| from m = 4: D_4(Q) leaves Q^4 / Q^6
    assert unit_rule(q, 4) * d_scale(q, 4) == Fraction(1, q**2)
    # below m = 4 D_n would fit too, but unit_rule declares |GL_n| at every order
    assert all((unit_rule(q, m) * d_scale(q, m)).denominator == 1 for m in range(4))
    cases = [(cyclic_alt_rule, order, False) for order in (0, 1, 3, 4, 20)]
    cases += [(unit_rule, order, True) for order in (0, 1, 2, 3, 4, 5, 20)]
    for rule, order, gl in cases:
        assert _scaled_product(q, rule, order, None)[1] is gl, (rule.__name__, order)
        # either scale gives the counts of the class types: the cyclic
        # matrices over 1 - u, and the semisimple ones
        series = product_series(q, rule, order)
        if rule is cyclic_alt_rule:
            series, kind = list(accumulate(series)), "cyclic"
        else:
            kind = "semisimple"
        counts = [a * gl_order(q, n) for n, a in enumerate(series)]
        assert counts == class_type_counts(kind, q, order), (rule.__name__, order)


def test_division_by_one_minus_u_matches_the_reciprocal_product():
    # gf_build divides by 1 - u; the reference multiplies by its reciprocal
    # 1 + u + u^2 + ..., which takes running sums
    for q in (2, 3, 4, 5):
        for order in (0, 1, 7, 20):
            expected = {
                "cyclic_alt": product_series(q, cyclic_alt_rule, order),
                "separable_alt": product_series(q, separable_alt_rule, order),
                "linear_derangement": product_series(q, euler_rule, order, {1: -1}),
                "projective_derangement": product_series(q, euler_rule, order, {1: 1 - q}),
            }
            for kind, series in expected.items():
                got = list(gf_build(kind, q, order).coeffs)
                assert got == list(accumulate(series)), (kind, q, order)


def one_over_Q_plus_one(Q: int, m: int) -> Fraction:
    """1 + u^d / (Q + 1): Q + 1 divides neither Q - 1 nor Q (Q - 1)."""
    return (Fraction(1), Fraction(1, Q + 1))[m] if m < 2 else Fraction(0)


# the same factor with its log, m l_m = -(-1 / (Q + 1))^m, declared
not_a_count_rule = _closed_log(lambda Q, m: -Fraction(-1, Q + 1) ** m)(
    lambda Q, m: one_over_Q_plus_one(Q, m)
)


def test_scaled_product_rejects_factors_that_are_not_counts():
    # its log 1 / (Q + 1) at m = 1 times D_1(2) = 2 leaves 2 / 3 at u^1
    with pytest.raises(NonIntegralCount, match="log is not an integer at u\\^1"):
        _scaled_product(2, not_a_count_rule, 8, None)
    # a rule that declares no log and is not unit_rule has no scale
    with pytest.raises(ValueError, match="closed log or be unit_rule"):
        _scaled_product(2, one_over_Q_plus_one, 8, None)
    with pytest.raises(ValueError):
        _scaled_product(2, lambda Q, m: 0, 8, None)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_carry_reproduces_the_q_pascal_table(q):
    # X_k = 1 seeded at n = k and carried on is [n, k]_q (k = 0 is never
    # carried, and [n, 0]_q = 1); read through weighted_sum against a unit
    # vector at n - k it is W(n, k): the Gaussian binomial for D_n, times
    # q^(k(n-k)) for |GL_n|
    N = 30
    rows = gaussian_rows(q, N)
    pw = [q**i for i in range(N + 1)]
    terms: list[int] = []
    for n in range(N + 1):
        scaled.carry(terms, pw, n)
        terms.append(1)
        assert terms == rows[n], n
        for gl in (False, True):
            got = []
            for k in range(1, n + 1):
                unit = [int(j == n - k) for j in range(n + 1)]
                got.append(scaled.weighted_sum(terms, unit, n, pw, gl))
            want = [rows[n][k] * q ** (k * (n - k) * gl) for k in range(1, n + 1)]
            assert got == want, (gl, n)
    # a table that is not the powers of q leaves the division inexact
    with pytest.raises(NonIntegralCount, match="not an integer at u\\^2"):
        scaled.carry([0, 1], [1, 4, 6], 2)


@pytest.mark.parametrize("q", [2, 3, 9])
def test_horner_runs_equal_the_direct_weighted_sum(q):
    # odd and even n, with zeros among the terms and the coefficients they
    # meet; the sum starts at k = 1
    rng = random.Random(q)
    for n in list(range(1, 14)) + [30, 31]:
        pw = [q**i for i in range(n + 1)]
        for _ in range(3):
            terms = [rng.choice((0, rng.randrange(-10**9, 10**9))) for _ in range(n + 1)]
            other = [rng.choice((0, rng.randrange(10**9))) for _ in range(n + 1)]
            x = [terms[k] * other[n - k] for k in range(n + 1)]
            direct = sum(q ** (k * (n - k)) * x[k] for k in range(1, n + 1))
            assert scaled.weighted_sum(terms, other, n, pw, True) == direct, n
            assert scaled.weighted_sum(terms, other, n, pw, False) == sum(x[1:])


def test_scaled_exp_refuses_an_inexact_division():
    # L_1 = 1 gives B_1 = 1, and 2 B_2 = W(2, 1) L_1 B_1 = [2, 1]_2 = 3
    with pytest.raises(NonIntegralCount, match="not an integer at u\\^2"):
        scaled.exp([0, 1, 0], scaled.powers(2, 2), False)


def fraction_product(q: int, rule, order: int) -> list[Fraction]:
    """prod_d (1 + g_d)^nu_d, g_d being rule's factor at degree d less its
    constant term, expanded binomially and multiplied out on Fractions."""
    def times(a, b):
        return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]

    product = [Fraction(1)] + [Fraction(0)] * order
    for d in range(1, order + 1):
        g = [Fraction(0)] * (order + 1)
        for m in range(1, order // d + 1):
            g[m * d] = Fraction(rule(q**d, m))
        nu = irreducible_poly_count(q, d)
        factor, power = [Fraction(1)] + [Fraction(0)] * order, g
        for j in range(1, order // d + 1):
            factor = [f + comb(nu, j) * p for f, p in zip(factor, power)]
            power = times(power, g)
        product = times(product, factor)
    return product


def test_windowed_logs_match_the_fraction_product():
    # 1 + v^2 / (Q^2 - 1) scales to Q^2 (Q - 1) at v^2 by D_2(Q), with a
    # zero coefficient at v, so its log 2 (-1)^(m/2+1) / (Q^2 - 1)^(m/2) is
    # zero at every odd m
    @_closed_log(lambda Q, m: Fraction(0) if m % 2 else 2 * -Fraction(-1, Q * Q - 1) ** (m // 2))
    def gap_rule(Q: int, m: int) -> Fraction:
        return Fraction(1, Q * Q - 1) if m == 2 else Fraction(int(m == 0))

    for q in (2, 3):
        for rule in (separable_rule, cyclic_alt_rule, separable_alt_rule, cyclic_rule, gap_rule):
            want = fraction_product(q, rule, 12)
            assert product_series(q, rule, 12) == want, (q, rule)


CLOSED_LOG_RULES = (euler_rule, cyclic_rule, cyclic_alt_rule, separable_rule, separable_alt_rule)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_each_closed_log_is_the_log_the_recurrence_computes(q):
    # m l_m = m f_m - sum_(0<j<m) j l_j f_(m-j), recurred on Fractions from
    # the rule's own coefficients f_m, is the declared log up to order 30
    order = 30
    for rule in CLOSED_LOG_RULES:
        f = [rule(q, m) for m in range(order + 1)]
        assert f[0] == 1, rule.__name__
        logs = [Fraction(0)]
        for m in range(1, order + 1):
            logs.append(m * f[m] - sum(logs[j] * f[m - j] for j in range(1, m)))
        assert logs[1:] == [rule.log(q, m) for m in range(1, order + 1)], rule.__name__
    assert not hasattr(unit_rule, "log")


# (rule, kinds it serves, its log with one sign flipped); no kind reads
# euler_rule's log, as the derangement kinds raise its inverse's base, so
# "all" stands for its product over every degree, the q^(n^2) matrices
FLIPPED_LOGS = {
    "euler": (euler_rule, ("all",), lambda Q, m: Fraction(-1, Q**m - 1)),
    "cyclic_first": (cyclic_rule, ("cyclic",),
                     lambda Q, m: Fraction((-1) ** m, (Q * (Q - 1)) ** m) + Fraction(1, Q**m)),
    "cyclic_second": (cyclic_rule, ("cyclic",),
                      lambda Q, m: Fraction((-1) ** (m + 1), (Q * (Q - 1)) ** m) - Fraction(1, Q**m)),
    "cyclic_alt": (cyclic_alt_rule, ("cyclic_alt",),
                   lambda Q, m: Fraction((-1) ** m, (Q * (Q - 1)) ** m)),
    "separable": (separable_rule, ("separable",),
                  lambda Q, m: Fraction((-1) ** m, (Q - 1) ** m)),
    "separable_alt_first": (separable_alt_rule, ("separable_alt",),
                            lambda Q, m: Fraction((-1) ** m, (Q - 1) ** m) - Fraction(1, Q**m)),
    "separable_alt_second": (separable_alt_rule, ("separable_alt",),
                             lambda Q, m: Fraction((-1) ** (m + 1), (Q - 1) ** m) + Fraction(1, Q**m)),
}


@pytest.mark.parametrize("mutant", sorted(FLIPPED_LOGS))
def test_a_closed_log_with_one_sign_flipped_is_caught(monkeypatch, mutant):
    rule, kinds, flipped = FLIPPED_LOGS[mutant]
    monkeypatch.setattr(rule, "log", flipped)
    for kind in kinds:
        for q in (2, 3, 4):
            try:
                if kind == "all":
                    counts = _scaled_product(q, rule, 12, None)[0]
                    # q^(n^2) / |GL_n| times D_n
                    want = [q ** (n * (n + 3) // 2) for n in range(13)]
                else:
                    counts, want = gf_counts(kind, q, 12), class_type_counts(kind, q, 12)
            except NonIntegralCount:
                continue
            assert counts != want, (kind, q)


def test_a_closed_log_that_is_not_a_scaled_integer_is_refused():
    # 1 / (Q + 1) times D_1(2) = 2 leaves 2 / 3 at u^1
    rule = _closed_log(lambda Q, m: Fraction(1, Q + 1))(lambda Q, m: separable_rule(Q, m))
    with pytest.raises(NonIntegralCount, match="log is not an integer at u\\^1"):
        _scaled_product(2, rule, 8, None)


def test_scaled_product_reads_no_rule_coefficient(monkeypatch):
    def refuse(*args):
        raise AssertionError("a coefficient was read")

    # a closed log on a rule that cannot be read builds the same product
    for rule in CLOSED_LOG_RULES:
        blind = _closed_log(rule.log)(lambda Q, m: refuse(Q, m))
        assert _scaled_product(3, blind, 12, None) == _scaled_product(3, rule, 12, None)
    # unit_rule's coefficients are 1 / gl_order(Q, m), and its product
    # never calls gl_order
    want = _scaled_product(3, unit_rule, 12, None)
    monkeypatch.setattr(gfengine, "gl_order", refuse)
    assert _scaled_product(3, unit_rule, 12, None) == want


def test_only_a_rule_without_a_closed_log_runs_the_per_degree_recurrence(monkeypatch):
    carried = []
    carry = scaled.carry

    def counted(terms, pw, n):
        carried.append(n)
        carry(terms, pw, n)

    # the exp, the unit log, the power step and the join all carry through one kernel name
    monkeypatch.setattr(scaled, "carry", counted)
    order = 24
    # the exp carries its terms once per order, and the closed logs none;
    # the finite path carries once per order for each power step of more
    # than one copy, at its degree's orders, and each join: at q = 3 the
    # derangement kinds raise the inverse Euler factor to 1 and 2 copies,
    # e(u) is raised to 3 and 2 copies, and z^8 - 1 has 2 linear and 3
    # quadratic factors; invertible_check is the empty product
    finite = {"invertible_check": 0, "linear_derangement": 0, "projective_derangement": order,
              "diagonalizable": order, "projection": order}
    for kind in ("cyclic", "separable", "cyclic_alt", "separable_alt", *finite):
        carried.clear()
        gf_counts(kind, 3, order)
        assert len(carried) == finite.get(kind, order), kind
    carried.clear()
    gf_counts("power_identity", 3, order, 8)
    assert len(carried) == order + order // 2 + order
    # the unit factor's log recurs at every degree d, order // d carries each
    carried.clear()
    gf_counts("semisimple", 3, order)
    assert len(carried) == order + sum(order // d for d in range(1, order + 1))


def exp_log(q: int, rule, order: int, copies) -> tuple[list[int], bool]:
    """_scaled_product with the finite path turned off: the exp of the
    summed logs, whatever the copies."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gfengine, "_finite_degrees", lambda *args: None)
        return _scaled_product(q, rule, order, copies)


def explicit_copy_cases(q: int, order: int):
    """(kind, k, copies) for every kind with explicit copies at q, and
    power_identity at every k <= 12 prime to p and at 255 and 2^20 - 1."""
    pp = PrimePower.of(q)
    for kind, entry in gfengine._KINDS.items():
        if entry.copies is None:
            continue
        ks = [k for k in (*range(1, 13), 255, 2**20 - 1) if k % pp.p] if entry.takes_k else [None]
        for k in ks:
            yield kind, k, entry.copies(pp, k, order)


@pytest.mark.parametrize("q, order", [(2, 30), (3, 30), (4, 30), (5, 30), (7, 30), (8, 30),
                                      (9, 30), (1000003, 8)])
def test_finite_products_match_the_exp_log(q, order):
    for kind, k, copies in explicit_copy_cases(q, order):
        rule = gfengine._KINDS[kind].rule
        assert _scaled_product(q, rule, order, copies) == exp_log(q, rule, order, copies), (kind, k)


def test_the_path_choice_counts_the_degrees_joined(monkeypatch):
    # z^3 - 1 over F_2 has a linear and a quadratic factor: one join, no
    # exp; at k = lcm(2^d - 1 : d <= 30) every monic irreducible but z
    # divides z^k - 1, so A^k = I holds for every invertible semisimple A,
    # and the exp-log runs
    exps = []
    exp = scaled.exp

    def counted(log, pw, gl):
        exps.append(len(log) - 1)
        return exp(log, pw, gl)

    monkeypatch.setattr(scaled, "exp", counted)
    order = 30
    every = lcm(*(2**d - 1 for d in range(1, order + 1)))
    copies = _root_of_one_copies(PrimePower.of(2), every, order)
    assert all(copies[d] == irreducible_poly_count(2, d) - (d == 1) for d in copies)
    assert gf_counts("power_identity", 2, order, 3) == class_type_counts("power_identity", 2, order, 3)
    assert exps == []
    assert gf_counts("power_identity", 2, order, every) == exp_log(2, unit_rule, order, copies)[0]
    assert exps == [order, order]  # the reference's too
    # the edge: MAX_FINITE_JOINS joins after the first degree stay finite
    edge = {d: 1 for d in range(1, gfengine.MAX_FINITE_JOINS + 2)}
    exps.clear()
    assert _scaled_product(2, unit_rule, order, edge) == exp_log(2, unit_rule, order, edge)
    assert exps == [order]  # the reference's exp alone
    exps.clear()
    past = {**edge, gfengine.MAX_FINITE_JOINS + 2: 1}
    _scaled_product(2, unit_rule, order, past)
    assert exps == [order]


@pytest.mark.parametrize("Q", [2, 3, 4, 9, 27])
def test_the_euler_inverse_base_is_the_series_inverse_of_euler_rule(Q):
    # prod_r (1 - v / Q^r) times prod_r (1 - v / Q^r)^(-1) is 1: the
    # declared base over D_m(Q) is the inverse of euler_rule's series
    sign, base = euler_rule.base
    assert sign == -1
    top = 15
    f = [euler_rule(Q, m) for m in range(top + 1)]
    inverse = [Fraction(1)]
    for m in range(1, top + 1):
        inverse.append(-sum(f[j] * inverse[m - j] for j in range(1, m + 1)))
    assert [Fraction(base(Q, m), d_scale(Q, m)) for m in range(top + 1)] == inverse
    assert unit_rule.base[0] == 1
    assert all(unit_rule.base[1](Q, m) == unit_rule(Q, m) * gl_order(Q, m) for m in range(top + 1))


def test_the_power_step_and_the_join_check_their_carried_divisions():
    # a table that is not the powers of 2 leaves the first carried ratio,
    # [2, 1] = (pw[2] - 1) / (pw[1] - 1) = 11 / 5, inexact at n = 2
    pw = [1, 6, 12, 24, 48]
    with pytest.raises(NonIntegralCount, match="^a carried weight is not an integer at u\\^2$"):
        scaled.power(2, [1] * 5, pw, True)
    with pytest.raises(NonIntegralCount, match="^a carried weight is not an integer at u\\^2$"):
        scaled.join([1] * 5, [1] * 5, pw, False)
    # a table whose carried ratios happen to divide can still leave the
    # division by n inexact
    with pytest.raises(NonIntegralCount, match="^the power is not an integer at u\\^4$"):
        scaled.power(2, [1, 1, 3, 0, -2], [1, 2, 3, 4, 10], False)


# SHA-256 of repr((kind, q, gf_counts(kind, q, order))) for the five
# cycle-index product kinds at (q, order) = (2, 119), (3, 60) and (9, 40),
# recorded from the counts as built when only semisimple ran on the integer
# exp-log and the other four kinds on the Fraction kernels.
PRODUCT_COUNTS_SHA256 = "d61c0b74b5701f4c3483a7efd467e7ad82c471ec708776b8fdff83b0351ef487"


def test_product_counts_match_the_pinned_digest():
    digest = hashlib.sha256()
    for q, order in ((2, 119), (3, 60), (9, 40)):
        for kind in ("cyclic", "separable", "cyclic_alt", "separable_alt", "semisimple"):
            digest.update(repr((kind, q, gf_counts(kind, q, order))).encode())
    assert digest.hexdigest() == PRODUCT_COUNTS_SHA256


# (kind, q, order, k) for the kinds that were multiplied out on the
# Fraction kernels before they moved to integers: the benchmark's sizes,
# three kinds at every q <= 9, and the largest orders MAX_SERIES_WORK
# admits at q = 2, 3 and 9.
MOVED_COUNT_CASES = (
    [
        ("conjclasses_gl", 2, 120, None),
        ("conjclasses_all", 3, 60, None),
        ("projective_derangement", 4, 60, None),
        ("bell", 2, 60, None),
        ("linear_derangement", 3, 60, None),
        ("power_identity", 2, 60, 3),
        ("power_identity", 3, 40, 8),
    ]
    + [
        (kind, q, 30, None)
        for q in (2, 3, 4, 5, 7, 8, 9)
        for kind in ("invertible_check", "diagonalizable", "projection")
    ]
    + [
        (kind, q, order, None)
        for q, order in ((2, 149), (3, 128), (9, 109))
        for kind in ("invertible_check", "conjclasses_all", "conjclasses_gl")
    ]
    + [
        ("bell", 2, 149, None),
        ("projective_derangement", 2, 149, None),
        ("linear_derangement", 9, 109, None),
    ]
)

# SHA-256 of repr((case, [hex(c) for c in gf_counts(*case)])) over
# MOVED_COUNT_CASES, recorded from the Fraction-kernel builds.
MOVED_COUNTS_SHA256 = "53379e318cf77f085615cce39289bcd61d84b1351b0a95272002183baf8af76e"


# SHA-256 of repr((case, [hex(c) for c in gf_counts(*case)])) over
# UNIT_FACTOR_EDGE_CASES, recorded when |GL_n|'s q^(k(n-k)) was still
# carried inside every weight: unit-factor kinds at the guard edges.
UNIT_FACTOR_EDGE_CASES = (("semisimple", 3, 128, None), ("semisimple", 9, 109, None),
                          ("power_identity", 3, 128, 8))
UNIT_FACTOR_EDGE_SHA256 = "4c49bb3c1141f30f52a1caa947e108c534e30a01823cd3d83e68f2d972566424"


def test_unit_factor_edge_counts_match_the_pinned_digest():
    digest = hashlib.sha256()
    for case in UNIT_FACTOR_EDGE_CASES:
        digest.update(repr((case, [hex(c) for c in gf_counts(*case)])).encode())
    assert digest.hexdigest() == UNIT_FACTOR_EDGE_SHA256


def test_moved_kind_counts_match_the_pinned_digest():
    digest = hashlib.sha256()
    for case in MOVED_COUNT_CASES:
        digest.update(repr((case, [hex(c) for c in gf_counts(*case)])).encode())
    assert digest.hexdigest() == MOVED_COUNTS_SHA256
    # one order past each edge is still refused before any work
    for q, order in ((2, 150), (3, 129), (9, 110)):
        for kind in ("bell", "conjclasses_gl", "linear_derangement"):
            with pytest.raises(CostExceeded):
                gf_counts(kind, q, order)


def test_gf_counts_never_build_a_fraction_series(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a TruncSeries was built")

    monkeypatch.setattr(TruncSeries, "__init__", refuse)
    for q in (2, 3, 4):
        cases = [(kind, None) for kind in GF_KINDS if kind != "power_identity"]
        cases += [("power_identity", k) for k in (1, 3, 5, 7) if k % PrimePower.of(q).p]
        for kind, k in cases:
            assert len(gf_counts(kind, q, 20, k)) == 21, (kind, k)
    # nor does any verify check or any seq or table request
    assert not verify.failures(verify.run_suites(verify.oracle_sweeps(16)))
    for q in (2, 3):
        for command, names in (("seq", SEQUENCE_NAMES), ("table", TRIANGLE_NAMES)):
            for name in names:
                k = ["--k", "5"] if name == "power_identity" else []
                argv = [command, name, "--q", str(q), "--max-n", "6", *k]
                assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_scaled_product_with_explicit_copies_still_refuses_non_counts():
    # 1 / 4 times D_1(3) = 6 leaves 3 / 2 at u^1
    with pytest.raises(NonIntegralCount, match="log is not an integer at u\\^1"):
        _scaled_product(3, not_a_count_rule, 8, {1: -1})
    with pytest.raises(ValueError, match="closed log or be unit_rule"):
        _scaled_product(3, one_over_Q_plus_one, 8, {1: -1})
    with pytest.raises(ValueError):
        _scaled_product(3, unit_rule, 8, {0: 1})


def test_cost_guards():
    with pytest.raises(CostExceeded):
        gf_build("semisimple", 2, 2000)
    with pytest.raises(CostExceeded):
        gf_build("invertible_check", 9, 110)
    assert gf_build("invertible_check", 9, 109).coeff(109) == 1
    assert MAX_SERIES_WORK >= 120**4 * 7 * 1  # the largest order the tests build
    with pytest.raises(CostExceeded):
        min_centralizer_orders(1009, 200)
    with pytest.raises(CostExceeded):
        min_centralizer_orders(2, 10**12)
    assert min_centralizer_orders(1009, 2)[1:] == [1008, 1008**2]


def test_factored_one_minus_u_identity():
    # prod_d (1 - u^d / q^d)^(nu_d) telescopes to 1 - u
    @_closed_log(lambda Q, m: -Fraction(1, Q**m))
    def rule(Q: int, m: int) -> Fraction:
        return (Fraction(1), -Fraction(1, Q))[m] if m < 2 else Fraction(0)

    for q in (2, 3, 4):
        assert product_series(q, rule, 12) == [1, -1] + [0] * 11


def test_euler_product_counts_all_matrices():
    # the unrestricted cycle index sums q^(n^2) u^n / gl_order(n)
    for q in (2, 3):
        product = product_series(q, euler_rule, 8)
        for n in range(9):
            assert product[n] == Fraction(q ** (n * n), gl_order(q, n))


def test_euler_product_invertible_restriction():
    # dropping one factor at the degree-one polynomial z leaves 1/(1-u)
    for q in (2, 3):
        order = 8
        copies = {d: irreducible_poly_count(q, d) - (d == 1) for d in range(1, order + 1)}
        restricted = product_series(q, euler_rule, order, copies)
        assert restricted == list(gf_build("invertible_check", q, order).coeffs)
        assert restricted == [1] * (order + 1)


def test_gf_invertible_check():
    gf = gf_build("invertible_check", 2, 10)
    for n in range(11):
        assert extract_count(gf, n, 2) == gl_order(2, n)


def test_gf_linear_derangement():
    for q in (2, 3):
        gf = gf_build("linear_derangement", q, 8)
        for n in range(9):
            assert extract_count(gf, n, q) == linear_derangement_count(q, n)


def test_gf_projective_derangement():
    gf = gf_build("projective_derangement", 3, 6)
    assert extract_count(gf, 1, 3) == 0
    # 3 irreducible quadratics, each a class of size 48/8 = 6
    assert extract_count(gf, 2, 3) == 18
    # 8 irreducible cubics, each a class of size 11232/26 = 432
    assert extract_count(gf, 3, 3) == 3456
    # over F_2 fixing a projective point is fixing a nonzero vector
    assert gf_build("projective_derangement", 2, 8) == gf_build(
        "linear_derangement", 2, 8
    )


def test_gf_projection_and_diagonalizable():
    for q in (2, 3):
        proj = gf_build("projection", q, 6)
        diag = gf_build("diagonalizable", q, 6)
        for n in range(7):
            assert extract_count(proj, n, q) == projection_count(q, n)
            assert extract_count(diag, n, q) == diagonalizable_count(q, n)
    assert gf_build("projection", 2, 8) == gf_build("diagonalizable", 2, 8)
    assert extract_count(gf_build("diagonalizable", 3, 5), 5, 3) == diagonalizable_count(3, 5)


def test_gf_power_identity():
    ident = gf_build("power_identity", 2, 5, k=1)
    for n in range(6):
        assert extract_count(ident, n, 2) == 1
    cube = gf_build("power_identity", 2, 4, k=3)
    assert [extract_count(cube, n, 2) for n in range(5)] == [1, 1, 3, 57, 1233]
    eighth = gf_build("power_identity", 3, 3, k=8)
    assert [extract_count(eighth, n, 3) for n in range(4)] == [1, 2, 32, 4448]
    # squaring fixes exactly the projections when the characteristic is odd
    for q in (3, 5):
        square = gf_build("power_identity", q, 6, k=2)
        for n in range(7):
            assert extract_count(square, n, q) == projection_count(q, n)


def test_root_of_one_copies_match_the_factor_degrees():
    # the Moebius count of roots against phi(m) / ord_m(q) factors per m | k
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25):
        pp = PrimePower.of(q)
        for k in range(1, 61):
            if k % pp.p:
                copies = _root_of_one_copies(pp, k, 30)
                want = Counter(d for d in cyclotomic_factor_degrees(q, k) if d <= 30)
                assert +Counter(copies) == want, (q, k)


def test_gf_cyclic():
    gf = gf_build("cyclic", 2, 6)
    assert extract_count(gf, 1, 2) == 2
    assert extract_count(gf, 2, 2) == 14
    assert extract_count(gf, 3, 2) == 412
    assert extract_count(gf_build("cyclic", 3, 4), 2, 3) == 78
    for q in (2, 3):
        assert gf_build("cyclic", q, 10) == gf_build("cyclic_alt", q, 10)


def test_gf_semisimple():
    gf = gf_build("semisimple", 2, 6)
    assert [extract_count(gf, n, 2) for n in range(5)] == [1, 2, 10, 218, 25426]
    assert extract_count(gf_build("semisimple", 3, 4), 2, 3) == 57


def test_gf_separable():
    gf = gf_build("separable", 2, 6)
    assert [extract_count(gf, n, 2) for n in range(5)] == [1, 2, 8, 160, 22272]
    for q in (2, 3, 4):
        assert gf_build("separable", q, 10) == gf_build("separable_alt", q, 10)


def test_gf_conjugacy_classes():
    all_classes = gf_build("conjclasses_all", 3, 6)
    values = [extract_count(all_classes, n, 3, normalized=False) for n in range(5)]
    assert values == [1, 3, 12, 39, 129]
    gl_classes = gf_build("conjclasses_gl", 2, 6)
    values = [extract_count(gl_classes, n, 2, normalized=False) for n in range(6)]
    assert values == [1, 1, 3, 6, 14, 27]


def test_gf_bell():
    for q in (2, 3):
        gf = gf_build("bell", q, 6)
        for n in range(7):
            assert extract_count(gf, n, q) == q_bell(q, n)


def test_gf_build_rejects_bad_parameters():
    with pytest.raises(BadKindParams):
        gf_build("no_such_kind", 2, 6)
    with pytest.raises(BadKindParams):
        gf_build("cyclic", 2, 6, k=2)
    with pytest.raises(BadKindParams):
        gf_build("power_identity", 2, 6)
    with pytest.raises(BadKindParams):
        gf_build("power_identity", 2, 6, k=0)
    with pytest.raises(BadKindParams):
        gf_build("power_identity", 2, 6, k=4)
    with pytest.raises(BadKindParams):
        gf_build("power_identity", 3, 6, k=6)
    with pytest.raises(ValueError):
        gf_build("cyclic", 6, 6)
    with pytest.raises(ValueError):
        gf_build("cyclic", 2, -1)
    assert "cyclic" in GF_KINDS and GF_KINDS["conjclasses_all"] is False


@pytest.mark.parametrize("q", [2, 3, 4])
def test_coefficients_do_not_depend_on_the_truncation_order(q):
    # sequences builds each series only to the largest n requested
    cases = [(kind, None) for kind in GF_KINDS if kind != "power_identity"]
    cases += [("power_identity", k) for k in (1, 2, 3) if k % PrimePower.of(q).p]
    for kind, k in cases:
        full = gf_build(kind, q, 12, k=k)
        for n in range(13):
            assert full.truncate(n) == gf_build(kind, q, n, k=k), (kind, k, n)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_gf_counts_read_every_kind(q):
    cases = [(kind, None) for kind in GF_KINDS if kind != "power_identity"]
    cases += [("power_identity", k) for k in (1, 2, 3) if k % PrimePower.of(q).p]
    for kind, k in cases:
        gf = gf_build(kind, q, 8, k=k)
        want = [extract_count(gf, n, q, normalized=GF_KINDS[kind]) for n in range(9)]
        assert gf_counts(kind, q, 8, k) == want, (kind, k)


def test_extract_count_validation():
    assert extract_count(TruncSeries([Fraction(3)], 0), 0, 2, normalized=False) == 3
    with pytest.raises(NonIntegralCount):
        extract_count(TruncSeries([Fraction(1, 3)], 0), 0, 2)
    with pytest.raises(NonIntegralCount):
        extract_count(TruncSeries([-1], 0), 0, 2)


def test_q_stirling_via_gf():
    assert q_stirling_via_gf(2, 4, 2) == 400
    assert q_stirling_via_gf(2, 2, 2) == 3
    assert q_stirling_via_gf(2, 3, 5) == 0
    assert q_stirling_via_gf(2, 0, 1) == 0
    for q in (2, 3):
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert q_stirling_via_gf(q, n, k) == q_stirling(q, n, k)


def test_decimal_truncate():
    assert decimal_truncate(Fraction(1, 3), 5) == "0.33333"
    assert decimal_truncate(Fraction(2, 3), 5) == "0.66666"
    assert decimal_truncate(Fraction(5, 4), 2) == "1.25"
    assert decimal_truncate(Fraction(7), 3) == "7.000"
    assert decimal_truncate(Fraction(7, 2), 0) == "3"
    with pytest.raises(ValueError):
        decimal_truncate(Fraction(-1, 2), 3)
    with pytest.raises(ValueError):
        decimal_truncate(Fraction(1, 2), -1)


def partial_product(q: int, top: int) -> Fraction:
    prod = Fraction(1)
    for r in range(1, top + 1):
        prod *= 1 - Fraction(1, q**r)
    return prod


def test_limit_eval_digit_strings():
    assert limit_eval("invertible", 2, 5) == "0.28878"
    assert limit_eval("invertible", 3, 5) == "0.56012"
    assert limit_eval("conj_ratio", 2, 5) == "0.28878"
    assert limit_eval("cyclic", 2, 4) == "0.7460"


def test_limit_eval_against_long_partial_products():
    # a 200-term partial product is far below the printed precision
    assert limit_eval("invertible", 2, 12) == decimal_truncate(partial_product(2, 200), 12)
    assert limit_eval("linear_derangement_frac", 2, 6) == decimal_truncate(
        partial_product(2, 200), 6
    )
    assert limit_eval("projective_frac", 3, 5) == decimal_truncate(
        partial_product(3, 200) ** 2, 5
    )
    cyclic = (1 - Fraction(1, 2**5)) * partial_product(2, 200) / (
        (1 - Fraction(1, 2)) * (1 - Fraction(1, 4))
    )
    assert limit_eval("cyclic", 2, 8) == decimal_truncate(cyclic, 8)


def test_cyclic_limit_bracket_matches_closed_form():
    for q in (2, 3):
        for digits in (4, 5):
            lo, hi = cyclic_limit_bracket(q, digits)
            assert lo < hi
            want = limit_eval("cyclic", q, digits)
            assert decimal_truncate(lo, digits) == decimal_truncate(hi, digits) == want
    lo, hi = cyclic_limit_bracket(2, 4)
    assert decimal_truncate(lo, 4) == "0.7460"


def test_cyclic_limit_bracket_contains_closed_form_value():
    # (1 - q^-5) prod_{r=3..200} (1 - q^-r) is within q^-200 of the limit
    for q in (2, 3, 4, 5):
        closed = (1 - Fraction(1, q**5)) * partial_product(q, 200) / (
            (1 - Fraction(1, q)) * (1 - Fraction(1, q**2))
        )
        lo, hi = cyclic_limit_bracket(q, 12)
        assert lo <= closed * (1 - Fraction(1, q**200)) and closed <= hi


def test_resolve_digits_deepens_until_the_ends_agree():
    def around(x):
        return lambda depth: (
            (x - Fraction(1, 10**depth)).as_integer_ratio(),
            x.as_integer_ratio(),
        )

    # 1/3 - 10^-3 truncates to 0.332, so depth 3 is not enough
    assert _resolve_digits(around(Fraction(1, 3)), 3, 3) == (
        (Fraction(1, 3) - Fraction(1, 10**4)).as_integer_ratio(),
        (1, 3),
    )
    # 1/2 sits on a digit boundary: no depth settles it, and the cap stops it
    with pytest.raises(UnresolvedDigits):
        _resolve_digits(around(Fraction(1, 2)), 3, 1)


def reference_limit(kind: str, q: int, digits: int) -> str:
    """The product-form bracket on Fractions, the partial product P_R and
    P_R (1 - m q^-R / (q - 1)), at a fixed depth R with
    q^-R < 10^-(digits + 5); it asserts that both ends truncate alike."""
    mult = q - 1 if kind == "projective_frac" else 1
    R = 1
    while q**R <= 10 ** (digits + 5):
        R += 1
    hi = partial_product(q, R) ** mult
    if kind == "cyclic":
        hi *= (1 - Fraction(1, q**5)) / ((1 - Fraction(1, q)) * (1 - Fraction(1, q**2)))
    lo = hi * (1 - Fraction(mult, (q - 1) * q**R))
    assert decimal_truncate(lo, digits) == decimal_truncate(hi, digits)
    return decimal_truncate(hi, digits)


def test_limit_grid_reproduces_its_pinned_digest():
    grid = [
        limit_eval(kind, q, digits)
        for kind in LIMIT_KINDS
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 101, 1009)
        for digits in (1, 2, 5, 10, 20, 37, 50)
    ]
    assert len(grid) == 420
    # recorded from the Fraction bracket that limit_eval used before its integer form
    assert hashlib.sha256("\n".join(grid).encode()).hexdigest() == (
        "3ca57582d64e57d7307ccd811f8e3f65dfa0b0ebe9398f54b04f3d09de9eb0ce"
    )
    # the guard refuses projective_frac at q = 999999999989 (see below)
    for kind in LIMIT_KINDS:
        for q in (2, 3, 1009, 999999999989):
            if (kind, q) != ("projective_frac", 999999999989):
                assert limit_eval(kind, q, 50) == reference_limit(kind, q, 50), (kind, q)


def test_pentagonal_ends_bracket_the_product():
    # S_(K-1) and S_K lie on either side of the infinite product, which is
    # within x^200 below the 200-term one, and are x^(K(3K-1)/2) (1 + x^K)
    # apart, x = 1/q
    for q in (2, 3, 4, 5, 7, 8, 9):
        x = Fraction(1, q)
        product = partial_product(q, 200)
        for K in range(1, 11):
            den = q ** (K * (3 * K + 1) // 2)
            lo, hi = (Fraction(end, den) for end in _pentagonal_ends(q, K))
            assert lo < product - x**200 and product < hi, (q, K)
            assert hi - lo == x ** (K * (3 * K - 1) // 2) * (1 + x**K), (q, K)


def test_limit_guard_refuses_one_past_its_edge_before_any_work(monkeypatch):
    def bracket_work(q, depth):
        raise AssertionError("admitted")

    monkeypatch.setattr(limits, "_pentagonal_ends", bracket_work)
    # the power to m = q - 1 is scored from bitlen(m) alone, so q = 2^b is the
    # largest q admitted with a b-bit m: b = 1971 at 50 digits, 2098 at 1
    for bits, digits in ((1971, 50), (2098, 1)):
        with pytest.raises(AssertionError, match="admitted"):
            limit_eval("projective_frac", 2**bits, digits)
        with pytest.raises(CostExceeded):
            limit_eval("projective_frac", 2 ** (bits + 1), digits)
    # the largest q the CLI parses, about 4,300 decimal digits
    with pytest.raises(CostExceeded):
        limit_eval("projective_frac", 2**14000, 1)
    # the other kinds take no power
    for q in (2**61 - 1, 2**14000):
        with pytest.raises(AssertionError, match="admitted"):
            limit_eval("invertible", q, 50)


def test_limit_eval_past_the_partial_product_guard_reproduces_its_pinned_digest():
    # recorded from the exact powers of the ends, on the requests the
    # partial-product guard admitted: all but these six
    refused = {(9091, 50), (32003, 20), (32003, 50), (131071, 5), (131071, 20), (131071, 50)}
    grid = [
        limit_eval(kind, q, digits)
        for kind in LIMIT_KINDS
        for q in (4096, 9091, 32003, 131071)
        for digits in (1, 5, 20, 50)
        if kind != "projective_frac" or (q, digits) not in refused
    ]
    assert len(grid) == 74
    assert hashlib.sha256("\n".join(grid).encode()).hexdigest() == (
        "2198f573d5aee1dbbf0c91f2dcabc5c83626ab9a66439a2adee4d69126476d5b"
    )


def test_fixed_point_power_brackets_the_exact_power():
    # within 2m units in the last place of each other
    rng = random.Random(40)
    for _ in range(300):
        precision = rng.randrange(8, 200)
        x = rng.randrange(1 << (precision - 2), (1 << precision) + 1)
        m = rng.randrange(1, 301)
        exact = Fraction(x**m, 1 << (precision * (m - 1)))
        down, up = _power(x, m, precision, False), _power(x, m, precision, True)
        assert down <= exact <= up, (x, m, precision)
        assert up - down <= 2 * m, (x, m, precision)


def test_limit_eval_starts_at_the_least_sufficient_depth(monkeypatch):
    # R, by a plain loop, is the first depth whose product-form tail
    # m q / ((q - 1) q^R) is below 10^-(digits+2), at least 5 for cyclic;
    # the series starts at the least K with K(3K - 1)/2 >= R
    starts = []

    def record(bracket, depth, digits):
        starts.append(depth)
        return (1, 2), (1, 2)

    monkeypatch.setattr(limits, "_resolve_digits", record)
    for kind in LIMIT_KINDS:
        for q in (2, 3, 4, 5, 7, 9, 16, 1009, 4096):
            mult = q - 1 if kind == "projective_frac" else 1
            for digits in range(1, 51):
                M = mult * q * 10 ** (digits + 2) // (q - 1)
                R = 1
                while q**R <= M:
                    R += 1
                if kind == "cyclic":
                    R = max(R, 5)
                K = 1
                while K * (3 * K - 1) // 2 < R:
                    K += 1
                limit_eval(kind, q, digits)
                assert starts.pop() == K, (kind, q, digits)


def test_limit_eval_validation():
    assert set(LIMIT_KINDS) == {
        "invertible",
        "linear_derangement_frac",
        "projective_frac",
        "cyclic",
        "conj_ratio",
    }
    with pytest.raises(BadKindParams):
        limit_eval("no_such_limit", 2)
    with pytest.raises(ValueError):
        limit_eval("invertible", 6)
    with pytest.raises(ValueError):
        limit_eval("invertible", 2, 0)
    with pytest.raises(ValueError):
        limit_eval("invertible", 2, 51)
    with pytest.raises(ValueError):
        cyclic_limit_bracket(6, 4)
    with pytest.raises(ValueError):
        cyclic_limit_bracket(2, 0)


def test_every_export_resolves():
    assert len(set(qmcount.__all__)) == len(qmcount.__all__)
    for name in qmcount.__all__:
        assert hasattr(qmcount, name), name


def test_a_mixed_sign_product_takes_the_exp_log():
    # euler_rule's base raises negative copies; one positive copy is a
    # product the finite path does not build, and the exp-log does
    N = 12
    for q in (2, 3, 4):
        assert gfengine._finite_degrees(euler_rule, {1: 1}, N) is None
        values, gl = _scaled_product(q, euler_rule, N, {1: 1})
        assert gl is False
        scales = scaled.scales(q, N, False)
        assert [Fraction(a, s) for a, s in zip(values, scales)] == [
            euler_rule(q, n) for n in range(N + 1)
        ]


def test_an_inexact_root_of_one_count_is_refused(monkeypatch):
    # with every Moebius value 1, degree 3 of z^7 - 1 over F_2 sums
    # gcd(7, 1) + gcd(7, 7) = 8 roots, which 3 does not divide
    monkeypatch.setattr(gfengine, "moebius", lambda n: 1)
    pp = qmcount.PrimePower.of(2)
    with pytest.raises(NonIntegralCount, match="^the roots of z\\^7 - 1 of degree 3 are not whole factors$"):
        _root_of_one_copies(pp, 7, 3)


def test_a_count_past_the_text_limit_is_refused_without_its_value(monkeypatch):
    # a D_n-scaled coefficient at u^1 is divided by q; 10^5000 + 1 is odd
    big = 10**5000 + 1
    monkeypatch.setattr(gfengine, "_scaled_build", lambda kind, q, order, k: ([1, big], False))
    with pytest.raises(NonIntegralCount) as raised:
        gf_counts("cyclic", 2, 1)
    assert str(raised.value) == "coefficient of u^1 does not scale to an integer"
    with pytest.raises(NonIntegralCount) as raised:
        gfengine._count(4, Fraction(big, 2))
    assert str(raised.value) == "coefficient of u^4 does not scale to an integer"
    with pytest.raises(NonIntegralCount) as raised:
        gfengine._count(4, -big)
    assert str(raised.value) == "coefficient of u^4 scales to a negative count"


def test_an_inexact_splitting_count_is_refused(monkeypatch):
    # 2! times the count of F_2^3 into two parts, 2 x 28, is no multiple of 5
    monkeypatch.setattr(gfengine, "factorial", lambda k: 5)
    with pytest.raises(NonIntegralCount, match="^the splitting count of 3 into 2 parts is not an integer$"):
        q_stirling_via_gf(2, 3, 2)
