"""The scaled-series kernel against its definitions, on plain Fractions."""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

from qmcount import scaled
from qmcount.qcount import gl_order


def fraction_exp(log: list[Fraction]) -> list[Fraction]:
    """b = exp(l) from l_0 = 0 by n b_n = sum_(k=1..n) k l_k b_(n-k)."""
    b = [Fraction(1)]
    for n in range(1, len(log)):
        b.append(sum(k * log[k] * b[n - k] for k in range(1, n + 1)) / n)
    return b


def fraction_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(len(a))]


@pytest.mark.parametrize("q", [2, 3, 9])
def test_the_scales_are_the_group_orders_and_d_n(q):
    N = 25
    assert scaled.scales(q, N, True) == [gl_order(q, n) for n in range(N + 1)]
    d_n = [q**n * prod(q**i - 1 for i in range(1, n + 1)) for n in range(N + 1)]
    assert scaled.scales(q, N, False) == d_n
    assert scaled.powers(q, N) == [q**i for i in range(N + 1)]
    with pytest.raises(ValueError):
        scaled.powers(q, -1)


@pytest.mark.parametrize("Q", [2, 3, 4, 9])
def test_the_exp_of_the_unit_log_is_all_ones(Q):
    # the unit factor sum_m v^m / |GL_m(Q)| is all ones at |GL_m(Q)|
    pw = scaled.powers(Q, 30)
    log = scaled.unit_log(pw)
    assert log[:3] == [0, 1, 2 - (Q + 1) * Q]
    assert scaled.exp(log, pw, True) == [1] * 31


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("gl", [False, True])
def test_the_exp_matches_the_fraction_exp(q, gl):
    # an integer log l has exp coefficients with denominators dividing n!,
    # which divides both scales, so every B_n is an integer
    rng = random.Random(1000 * q + gl)
    N = 20
    s = scaled.scales(q, N, gl)
    log = [Fraction(0)] + [Fraction(rng.randint(-4, 4)) for _ in range(N)]
    L = [int(k * log[k] * s[k]) for k in range(N + 1)]
    got = scaled.exp(L, scaled.powers(q, N), gl)
    assert got == [b * t for b, t in zip(fraction_exp(log), s)]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("gl", [False, True])
def test_the_power_and_the_join_match_fraction_products(q, gl):
    rng = random.Random(100 * q + gl)
    N = 16
    s = scaled.scales(q, N, gl)
    pw = scaled.powers(q, N)
    F = [1] + [rng.randint(-6, 6) for _ in range(N)]
    X = [1] + [rng.choice((0, rng.randint(-6, 6))) for _ in range(N)]
    f = [Fraction(c, t) for c, t in zip(F, s)]
    x = [Fraction(c, t) for c, t in zip(X, s)]
    want = f
    for c in range(2, 6):
        want = fraction_mul(want, f)
        if c in (2, 3, 5):
            assert scaled.power(c, F, pw, gl) == [w * t for w, t in zip(want, s)], c
    assert scaled.power(1, F, pw, gl) == F
    assert scaled.join(F, X, pw, gl) == [w * t for w, t in zip(fraction_mul(f, x), s)]


@pytest.mark.parametrize("gl", [False, True])
def test_lift_moves_a_series_in_u_to_the_d_by_the_index(gl):
    q, d, N = 3, 3, 13
    outer = scaled.scales(q, N, gl)
    inner = scaled.scales(q**d, N // d, gl)
    series = [1, 5, -7, 2, 9]
    lifted = scaled.lift(series, d, q, outer, gl, "power")
    assert len(lifted) == N + 1
    for n, value in enumerate(lifted):
        if n % d:
            assert value == 0
        else:
            # the same coefficient of v^m = u^(md) at either scale
            assert Fraction(value, outer[n]) == Fraction(series[n // d], inner[n // d])
    assert scaled.lift(series, 1, q, outer, gl, "power") is series
    # a table whose index is no integer names the degree and what it lifts
    with pytest.raises(scaled.NonIntegralCount, match="^the degree-3 factors' log is not"):
        scaled.lift(series, d, q, [1] * (N + 1), gl, "log")


def test_exact_div_is_the_one_checked_quotient():
    from decimal import Decimal

    from qmcount import qcount

    assert qcount.exact_div is scaled.exact_div
    assert scaled.exact_div(Decimal(10) ** 40, Decimal(10) ** 39) == 10
    with pytest.raises(scaled.NonIntegralCount, match="^an exact division left a remainder$"):
        scaled.exact_div(7, 2)
    with pytest.raises(scaled.NonIntegralCount, match="^the power is not an integer at u\\^9$"):
        scaled.exact_div(7, 2, "the power is not an integer at u^{}", 9)


def test_exact_div_names_no_operand_past_the_text_limit():
    # 5,000 digits are past the interpreter's default limit on int-to-text digits
    with pytest.raises(scaled.NonIntegralCount) as raised:
        scaled.exact_div(10**5000 + 1, 10**5000)
    assert str(raised.value) == "an exact division left a remainder"
