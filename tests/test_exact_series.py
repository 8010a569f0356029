"""Truncated power series arithmetic."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb, factorial

import pytest

from qmcount.exact_series import NonzeroConstantTerm, TruncSeries, ZeroConstantTerm
from qmcount.qcount import gl_order


def geometric(order: int) -> TruncSeries:
    return TruncSeries([1] * (order + 1), order)


def test_construction_pads_and_truncates():
    s = TruncSeries([1, 2], 4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    t = TruncSeries([1, 2, 3, 4], 2)
    assert t.coeffs == (1, 2, 3)
    assert TruncSeries([5]).order == 0
    assert all(isinstance(c, Fraction) for c in s.coeffs)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        TruncSeries([])
    with pytest.raises(ValueError):
        TruncSeries([1], -1)
    with pytest.raises(TypeError):
        TruncSeries([1.5], 2)


def test_constructors():
    assert TruncSeries.zero(3).coeffs == (0, 0, 0, 0)
    assert TruncSeries.one(2).coeffs == (1, 0, 0)
    assert TruncSeries.monomial(7, 2, 4).coeffs == (0, 0, 7, 0, 0)
    assert TruncSeries.monomial(7, 9, 4).is_zero()
    with pytest.raises(ValueError):
        TruncSeries.monomial(1, -1, 4)


def test_coeff_bounds():
    s = TruncSeries([1, 2, 3], 2)
    assert s.coeff(2) == 3
    with pytest.raises(IndexError):
        s.coeff(3)
    with pytest.raises(IndexError):
        s.coeff(-1)


def test_add_and_sub():
    one_plus = TruncSeries([1, 1], 4)
    one_minus = TruncSeries([1, -1], 4)
    assert (one_plus + one_minus).coeffs == (2, 0, 0, 0, 0)
    assert (one_plus - one_plus).is_zero()
    zero = TruncSeries.zero(4)
    assert one_plus + zero == one_plus
    assert 1 + TruncSeries.monomial(1, 1, 3) == TruncSeries([1, 1], 3)
    assert 1 - TruncSeries.monomial(1, 1, 3) == TruncSeries([1, -1], 3)


def test_mixed_order_truncates_to_minimum():
    a = TruncSeries([1, 1, 1, 1], 3)
    b = TruncSeries([1, 1], 6)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert (a - b).order == 3


def test_mul():
    one_plus = TruncSeries([1, 1], 4)
    one_minus = TruncSeries([1, -1], 4)
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0, 0)
    assert one_plus * TruncSeries.one(4) == one_plus
    assert (geometric(5) * TruncSeries([1, -1], 5)) == TruncSeries.one(5)
    assert (2 * one_plus).coeffs == (2, 2, 0, 0, 0)


def test_unit_series_sum_matches_invertible_orders():
    order = 4
    s = TruncSeries([Fraction(1, gl_order(2, n)) for n in range(order + 1)], order)
    assert (s + s).coeff(2) == Fraction(1, 3)


def test_pow():
    one_plus = TruncSeries([1, 1], 4)
    assert one_plus**0 == TruncSeries.one(4)
    assert (one_plus**2).coeffs == (1, 2, 1, 0, 0)
    manual = TruncSeries.one(6)
    for _ in range(7):
        manual = manual * TruncSeries([1, 1], 6)
    assert TruncSeries([1, 1], 6) ** 7 == manual
    with pytest.raises(ValueError):
        one_plus ** (-1)


def random_series(rng: random.Random, order: int, density: float = 0.6) -> TruncSeries:
    return TruncSeries(
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < density else 0
            for _ in range(order + 1)
        ],
        order,
    )


def repeated_product(a: TruncSeries, k: int) -> TruncSeries:
    out = TruncSeries.one(a.order)
    for _ in range(k):
        out = out * a
    return out


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    for _ in range(20):
        a = random_series(rng, rng.randint(0, 10))
        for k in range(6):
            assert a**k == repeated_product(a, k), (a, k)
    # a zero constant term: the power starts at u^(v k), as in the
    # splitting-count series (sum_{r>=1} u^r / |GL_r|)^k
    s = TruncSeries([0, 0, Fraction(1, 3), 2, 0, Fraction(-1, 7)], 12)
    for k in range(7):
        assert s**k == repeated_product(s, k)
    unit_sum = TruncSeries([0] + [Fraction(1, gl_order(2, r)) for r in range(1, 9)], 8)
    assert unit_sum**3 == repeated_product(unit_sum, 3)
    assert TruncSeries.zero(4) ** 3 == TruncSeries.zero(4)
    assert TruncSeries.zero(4) ** 0 == TruncSeries.one(4)


def test_pow_cost_does_not_depend_on_the_exponent():
    k = 2**100 + 3
    start = time.perf_counter()
    p = TruncSeries([1, 1], 4) ** k
    assert time.perf_counter() - start < 0.5
    assert p.coeffs == tuple(comb(k, i) for i in range(5))
    # (1 - u)^k times (1 + u + u^2 + ...)^k is one
    g = TruncSeries([1] * 7, 6)
    assert TruncSeries([1, -1], 6) ** k * g**k == TruncSeries.one(6)
    # a leading u^v pushes a huge power past the order
    assert TruncSeries([0, 1], 4) ** k == TruncSeries.zero(4)


def test_recip():
    one_minus = TruncSeries([1, -1], 6)
    assert one_minus.recip() == geometric(6)
    assert TruncSeries.one(5).recip() == TruncSeries.one(5)
    a = TruncSeries([2, 3, Fraction(1, 5), -4, 7], 8)
    assert a * a.recip() == TruncSeries.one(8)
    assert a.recip().recip() == a
    with pytest.raises(ZeroConstantTerm):
        TruncSeries([0, 1], 3).recip()


def test_division():
    rng = random.Random(11)
    for _ in range(20):
        order = rng.randint(0, 10)
        a = random_series(rng, order)
        b = random_series(rng, order, density=0.4)
        if b.coeff(0) == 0:
            b = b + 1
        assert a / b == a * b.recip()
        assert (a / b) * b == a
    one_minus_qu3 = TruncSeries.one(9) - TruncSeries.monomial(2, 3, 9)
    assert TruncSeries.one(9) / one_minus_qu3 == one_minus_qu3.recip()
    assert (TruncSeries([1, 2, 3], 5) / 2).coeffs[:3] == (Fraction(1, 2), 1, Fraction(3, 2))
    with pytest.raises(ZeroConstantTerm):
        TruncSeries.one(3) / TruncSeries([0, 1], 3)


def test_exp():
    assert TruncSeries.zero(5).exp() == TruncSeries.one(5)
    e = TruncSeries.monomial(1, 1, 5).exp()
    assert e.coeff(3) == Fraction(1, 6)
    assert e.coeff(5) == Fraction(1, 120)
    with pytest.raises(NonzeroConstantTerm):
        TruncSeries.one(3).exp()


def test_exp_is_a_homomorphism():
    a = TruncSeries([0, 1, Fraction(1, 2), 0, -3], 12)
    b = TruncSeries([0, -2, 0, Fraction(2, 7), 1], 12)
    assert (a + b).exp() == a.exp() * b.exp()


def test_exp_matches_the_power_sum():
    rng = random.Random(5)
    for _ in range(10):
        order = rng.randint(0, 9)
        a = random_series(rng, order)
        a = a - a.coeff(0)
        want = TruncSeries.zero(order)
        for k in range(order + 1):
            want = want + repeated_product(a, k) * Fraction(1, factorial(k))
        assert a.exp() == want


def test_dilate():
    a = TruncSeries([1, 1], 4)
    assert a.dilate(1) is a
    assert a.dilate(2).coeffs == (1, 0, 1, 0, 0)
    assert a.dilate(5).coeffs == (1, 0, 0, 0, 0)
    b = TruncSeries([1, 2, 3], 7)
    assert b.dilate(3).coeffs == (1, 0, 0, 2, 0, 0, 3, 0)
    with pytest.raises(ValueError):
        a.dilate(0)


def test_ring_axioms_on_small_series():
    a = TruncSeries([1, 2, -1, Fraction(1, 3)], 6)
    b = TruncSeries([3, 0, 5, -2], 6)
    c = TruncSeries([-1, 1, 1, 4], 6)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_truncate_and_equality():
    a = TruncSeries([1, 2, 3, 4], 3)
    assert a.truncate(1) == TruncSeries([1, 2], 1)
    with pytest.raises(ValueError):
        a.truncate(5)
    assert hash(TruncSeries([1, 2], 3)) == hash(TruncSeries([1, 2, 0], 3))
    assert TruncSeries([1, 2], 3) != TruncSeries([1, 2], 4)
