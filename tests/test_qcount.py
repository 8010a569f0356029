"""Counting formulas built from q-integers and Gaussian binomials."""

from __future__ import annotations

import time

import pytest

from qmcount.qcount import (
    CharNotTwo,
    PrimePower,
    diagonalizable_count,
    exact_div,
    gaussian_binomial,
    gl_order,
    gl_order_factored,
    involution_count_char2,
    linear_derangement_count,
    linear_derangement_reduced,
    nilpotent_count,
    projection_count,
    q_bell,
    q_factorial,
    q_int,
    q_multinomial,
    q_stirling,
    rank_count,
    separable_class_count,
    subspace_total,
)


def test_prime_power_accepts_prime_powers():
    assert PrimePower.of(2) == PrimePower(2, 1, 2)
    assert PrimePower.of(9) == PrimePower(3, 2, 9)
    assert PrimePower.of(8).e == 3
    assert PrimePower.of(7).p == 7
    assert PrimePower.of(16).q == 16


def test_prime_power_rejects_other_integers():
    for bad in (0, 1, 6, 12, -4, 10, 100):
        with pytest.raises(ValueError):
            PrimePower.of(bad)


@pytest.mark.parametrize(
    "q, expected",
    [
        (2305843009213693951, (2305843009213693951, 1)),  # the prime 2^61 - 1
        (999999999989, (999999999989, 1)),
        (2**100, (2, 100)),
        (3**40, (3, 40)),
        (561, None),  # a Carmichael number
        (2305843009213693951 * 3, None),
        (1, None),
        (2**89 - 1, None),  # prime, but beyond the proven range of the test
    ],
    ids=["2^61-1", "999999999989", "2^100", "3^40", "561", "3(2^61-1)", "1", "2^89-1"],
)
def test_prime_power_large_inputs(q, expected):
    t0 = time.perf_counter()
    if expected is None:
        with pytest.raises(ValueError):
            PrimePower.of(q)
    else:
        pp = PrimePower.of(q)
        assert (pp.p, pp.e, pp.q) == (*expected, q)
    assert time.perf_counter() - t0 < 1.0


def test_exact_div():
    assert exact_div(20, 5) == 4
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)


def test_gl_order_small_values():
    assert gl_order(2, 0) == 1
    assert gl_order(2, 1) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 168
    assert gl_order(2, 4) == 20160
    assert gl_order(2, 5) == 9999360
    assert gl_order(3, 2) == 48
    assert gl_order(4, 2) == 180


def test_gl_order_factored_form():
    for q in (2, 3, 4, 5):
        for n in range(8):
            assert gl_order(q, n) == gl_order_factored(q, n)
            binom = n * (n - 1) // 2
            assert gl_order(q, n) == (q - 1) ** n * q**binom * q_factorial(q, n)


def test_q_int_and_factorial():
    assert q_int(2, 3) == 7
    assert q_int(3, 4) == 40
    assert q_int(5, 0) == 0
    assert q_factorial(2, 4) == 315
    assert q_factorial(2, 0) == 1
    assert q_factorial(3, 3) == 52


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 4, 2) == 35
    assert gaussian_binomial(3, 3, 1) == 13
    assert gaussian_binomial(2, 5, 0) == 1
    assert gaussian_binomial(2, 4, 5) == 0
    assert gaussian_binomial(2, 4, -1) == 0


def test_gaussian_binomial_symmetry_and_recursion():
    for q in (2, 3, 4):
        for n in range(9):
            for k in range(n + 1):
                lhs = gaussian_binomial(q, n, k)
                assert lhs == gaussian_binomial(q, n, n - k)
                if 0 < k:
                    pascal = gaussian_binomial(q, n - 1, k - 1) + q**k * gaussian_binomial(
                        q, n - 1, k
                    )
                    assert lhs == pascal


def test_product_expansion_of_gaussian_binomials():
    # prod_{i=0}^{n-1} (1 + q^i t) = sum_k q^(k choose 2) [n choose k]_q t^k
    for q in (2, 3, 4, 5):
        for n in range(11):
            poly = [1]
            for i in range(n):
                shifted = [0] + [q**i * c for c in poly]
                poly = [a + b for a, b in zip(poly + [0], shifted)]
            expected = [
                q ** (k * (k - 1) // 2) * gaussian_binomial(q, n, k) for k in range(n + 1)
            ]
            assert poly == expected


def test_q_multinomial():
    assert q_multinomial(2, [1, 1, 1]) == 21
    assert q_multinomial(2, [2, 2]) == 35
    assert q_multinomial(3, [4]) == 1
    assert q_multinomial(2, []) == 1
    for q in (2, 3):
        for a in range(4):
            for b in range(4):
                assert q_multinomial(q, [a, b]) == gaussian_binomial(q, a + b, a)


def test_subspace_total():
    assert subspace_total(2, 0) == 1
    assert subspace_total(2, 4) == 67
    assert subspace_total(3, 2) == 6
    assert subspace_total(2, 5) == 374


def test_rank_count():
    assert rank_count(2, 3, 3, 2) == 294
    assert rank_count(2, 2, 2, 1) == 9
    for q in (2, 3):
        for m in range(4):
            for n in range(4):
                assert rank_count(q, m, n, 0) == 1
                total = sum(rank_count(q, m, n, r) for r in range(min(m, n) + 1))
                assert total == q ** (m * n)
                for r in range(min(m, n) + 1):
                    assert rank_count(q, m, n, r) == rank_count(q, n, m, r)
    assert rank_count(2, 3, 3, 3) == gl_order(2, 3)
    assert rank_count(2, 2, 3, 3) == 0


def test_q_stirling():
    assert q_stirling(2, 2, 2) == 3
    assert q_stirling(2, 3, 2) == 28
    assert q_stirling(2, 3, 3) == 28
    assert q_stirling(2, 4, 2) == 400
    assert q_stirling(2, 4, 3) == 1680
    assert q_stirling(2, 4, 4) == 840
    for q in (2, 3, 4):
        for n in range(1, 7):
            assert q_stirling(q, n, 1) == 1
            assert q_stirling(q, n, n + 1) == 0
            assert q_stirling(q, n, 0) == 0


def test_q_bell():
    assert q_bell(2, 0) == 1
    assert q_bell(2, 1) == 1
    assert q_bell(2, 2) == 4
    assert q_bell(2, 3) == 57
    assert q_bell(2, 4) == 2921
    assert q_bell(2, 6) == 364558049
    for q in (2, 3):
        for n in range(1, 7):
            assert q_bell(q, n) == sum(q_stirling(q, n, k) for k in range(1, n + 1))


def test_projection_count():
    assert projection_count(2, 0) == 1
    assert projection_count(2, 1) == 2
    assert projection_count(2, 2) == 8
    assert projection_count(2, 4) == 802
    assert projection_count(3, 2) == 14
    for q in (2, 3, 5):
        for n in range(2, 8):
            assert projection_count(q, n) == 2 + 2 * q_stirling(q, n, 2)


def test_diagonalizable_count():
    assert diagonalizable_count(3, 3) == 2109
    assert diagonalizable_count(2, 3) == 58
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert diagonalizable_count(q, 0) == 1
        assert diagonalizable_count(q, 1) == q
        assert diagonalizable_count(q, 2) == (q**4 - q**2 + 2 * q) // 2
    for n in range(9):
        assert diagonalizable_count(2, n) == projection_count(2, n)


def test_involution_count_char2():
    assert involution_count_char2(2, 1) == 1
    assert involution_count_char2(2, 2) == 4
    assert involution_count_char2(2, 3) == 22
    assert involution_count_char2(2, 4) == 316
    assert involution_count_char2(4, 2) == 16
    assert involution_count_char2(4, 3) == 316
    assert involution_count_char2(4, 4) == 69616
    with pytest.raises(CharNotTwo):
        involution_count_char2(3, 2)
    with pytest.raises(CharNotTwo):
        involution_count_char2(9, 2)


def test_nilpotent_count():
    for q in (2, 3, 4, 5):
        for n in range(7):
            assert nilpotent_count(q, n) == q ** (n * (n - 1))
    assert nilpotent_count(2, 3) == 64
    assert nilpotent_count(3, 2) == 9


def test_linear_derangements():
    assert [linear_derangement_count(2, n) for n in range(1, 6)] == [
        0,
        2,
        48,
        5824,
        2887680,
    ]
    assert linear_derangement_count(3, 1) == 1
    # GL_2(3) has 48 elements, 21 of which fix a nonzero vector.
    assert linear_derangement_count(3, 2) == 27
    for q in (2, 3, 5):
        assert linear_derangement_reduced(q, 1) == q - 2
        for n in range(1, 9):
            scale = q ** (n * (n - 1) // 2)
            assert linear_derangement_count(q, n) == scale * linear_derangement_reduced(q, n)


def test_separable_class_count():
    assert separable_class_count(2, 1) == 2
    assert separable_class_count(2, 2) == 2
    assert separable_class_count(2, 3) == 4
    assert separable_class_count(3, 1) == 3
    for q in (2, 3, 4, 5):
        for n in range(2, 6):
            assert separable_class_count(q, n) == q**n - q ** (n - 1)
    with pytest.raises(ValueError):
        separable_class_count(2, 0)
