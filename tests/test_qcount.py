"""Counting formulas built from q-integers and Gaussian binomials."""

from __future__ import annotations

import time
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from math import isqrt, prod

import pytest

from qmcount import ffpoly, scaled
from qmcount.gfengine import q_stirling_via_gf
from qmcount.qcount import (
    CharNotTwo,
    GLOrderTable,
    PrimePower,
    complement_rows,
    diagonalizable_count,
    diagonalizable_counts,
    exact_div,
    gaussian_binomial,
    gaussian_rows,
    gl_order,
    gl_order_factored,
    involution_count_char2,
    involution_counts_char2,
    linear_derangement_count,
    linear_derangement_counts,
    linear_derangement_reduced,
    nilpotent_count,
    projection_count,
    projection_counts,
    q_bell,
    q_factorial,
    q_factorials,
    q_int,
    q_multinomial,
    q_stirling,
    q_stirling_rows,
    rank_count,
    rank_rows,
    separable_class_count,
    separable_class_counts,
    square_powers,
    subspace_total,
    subspace_totals,
)
from qmcount.scaled import NonIntegralCount


def test_prime_power_accepts_prime_powers():
    assert PrimePower.of(2) == PrimePower(2, 1, 2)
    assert PrimePower.of(9) == PrimePower(3, 2, 9)
    assert PrimePower.of(8).e == 3
    assert PrimePower.of(7).p == 7
    assert PrimePower.of(16).q == 16


def test_prime_power_is_an_immutable_value():
    # compared, hashed and shown by its (p, e, q), with slot attributes that never change
    pp = PrimePower.of(9)
    assert repr(pp) == "PrimePower(p=3, e=2, q=9)"
    assert hash(pp) == hash((3, 2, 9)) and {pp: 1}[PrimePower(3, 2, 9)] == 1
    assert pp != (3, 2, 9) and pp != PrimePower(3, 1, 3)
    for change in (lambda: setattr(pp, "p", 5), lambda: setattr(pp, "x", 1), lambda: delattr(pp, "q")):
        with pytest.raises(AttributeError):
            change()
    assert (pp.p, pp.e, pp.q) == (3, 2, 9) and not hasattr(pp, "__dict__")


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
        (1000003**3, (1000003, 3)),
        (561, "a prime power"),  # a Carmichael number
        (2305843009213693951 * 3, "a prime power"),
        (2**61 * 3, "a prime power"),
        (1, "at least 2"),
        (2**89 - 1, "proven range"),  # prime, but beyond the proven range of the test
        ((2**89 - 1) ** 2, "proven range"),  # the square of that prime
    ],
    ids=[
        "2^61-1", "999999999989", "2^100", "3^40", "1000003^3", "561", "3(2^61-1)",
        "3*2^61", "1", "2^89-1", "(2^89-1)^2",
    ],
)
def test_prime_power_large_inputs(q, expected):
    ffpoly._prime_power.cache_clear()  # time a resolution, not a cached answer
    t0 = time.perf_counter()
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            PrimePower.of(q)
    else:
        pp = PrimePower.of(q)
        assert (pp.p, pp.e, pp.q) == (*expected, q)
    assert time.perf_counter() - t0 < 1.0


def test_prime_power_matches_a_sieve_to_2_16():
    # the smallest prime factor of every m <= 2^16, by a sieve
    top = 2**16
    least = list(range(top + 1))
    for p in range(2, isqrt(top) + 1):
        if least[p] == p:
            for m in range(p * p, top + 1, p):
                if least[m] == m:
                    least[m] = p
    for q in range(2, top + 1):
        p, rest, e = least[q], q, 0
        while rest % p == 0:
            rest, e = rest // p, e + 1
        try:
            got = PrimePower.of(q)
        except ValueError as exc:
            got = str(exc)
        if rest == 1:
            assert got == PrimePower(p, e, q), q
        else:
            assert got == f"field size must be a prime power, got {q}", q
    for q in (0, 1, -4):
        with pytest.raises(ValueError, match=f"^field size must be at least 2, got {q}$"):
            PrimePower.of(q)


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


def _balanced_product(terms: list[int]) -> int:
    """prod(terms), multiplied pairwise so that big factors meet big ones."""
    while len(terms) > 1:
        terms = [prod(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    return terms[0] if terms else 1


@pytest.mark.parametrize("q", [2, 3, 9, 1000003])
def test_gl_order_table_recurrence_matches_both_closed_forms(q):
    # the table extends by |GL_m| = |GL_(m-1)| q^(m-1) (q^m - 1); check it
    # far past verify's n <= 8, against the factored form and the product
    # prod_(i<n) (q^n - q^i) that defines it
    table = GLOrderTable(q)
    table.value(150)
    for n in range(151):
        got = table.value(n)
        assert got == gl_order_factored(q, n), n
        assert got == _balanced_product([q**n - q**i for i in range(n)]), n
    with pytest.raises(ValueError):
        table.value(-1)


def test_q_int_and_factorial():
    assert q_int(2, 3) == 7
    assert q_int(3, 4) == 40
    assert q_int(5, 0) == 0
    assert q_factorial(2, 4) == 315
    assert q_factorial(2, 0) == 1
    assert q_factorial(3, 3) == 52
    # the pairwise product is the product from the left
    for q in (2, 3, 1000003):
        for n in range(-1, 40):
            assert q_factorial(q, n) == prod(q_int(q, i) for i in range(1, n + 1)), (q, n)


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


def _rank_count_by_products(q: int, m: int, n: int, k: int) -> int:
    """The rank count as one quotient of products:
    prod_{i<k} (q^m - q^i)(q^n - q^i) / prod_{i<k} (q^k - q^i)."""
    num = den = 1
    for i in range(k):
        num *= (q**m - q**i) * (q**n - q**i)
        den *= q**k - q**i
    return exact_div(num, den)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rank_count_matches_the_product_quotient(q):
    for m in range(7):
        for n in range(7):
            for k in range(-1, 8):
                want = _rank_count_by_products(q, m, n, k) if 0 <= k <= min(m, n) else 0
                assert rank_count(q, m, n, k) == want, (m, n, k)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 1000003])
def test_q_pascal_rows_match_the_cells_and_group_orders(q):
    # each recurrence table against its closed form, at N = 0, 1 and its top
    N = 40 if q < 10 else 8
    gl = [gl_order(q, n) for n in range(N + 1)]
    cells = [[gaussian_binomial(q, n, k) for k in range(n + 1)] for n in range(N + 1)]
    wants = {
        gaussian_rows: cells,
        complement_rows: [
            [exact_div(gl[m], gl[a] * gl[m - a]) for a in range(m + 1)] for m in range(N + 1)
        ],
        rank_rows: [[rank_count(q, n, n, k) for k in range(n + 1)] for n in range(N + 1)],
        subspace_totals: [sum(row) for row in cells],
    }
    wants[projection_counts] = [sum(row) for row in wants[complement_rows]]
    for table, want in wants.items():
        for M in (0, 1, N):
            assert table(q, M) == want[: M + 1], (table.__name__, M)
        with pytest.raises(ValueError):
            table(q, -1)
    assert [subspace_total(q, n) for n in range(N + 1)] == wants[subspace_totals]


@pytest.mark.parametrize("q", [2, 3, 4, 9, 1000003])
def test_running_products_match_their_per_value_checks(q):
    N = 40 if q < 10 else 12
    ns = range(N + 1)
    assert q_factorials(q, N) == [q_factorial(q, n) for n in ns]
    assert square_powers(q, N, 0) == [q ** (n * n) for n in ns]
    assert square_powers(q, N, -1) == [nilpotent_count(q, n) for n in ns]
    assert separable_class_counts(q, N) == [separable_class_count(q, n) for n in ns[1:]]
    assert linear_derangement_counts(q, N) == [
        q ** (n * (n - 1) // 2) * linear_derangement_reduced(q, n) for n in ns
    ]
    for M in (0, 1):
        assert q_factorials(q, M) == q_factorials(q, N)[: M + 1]
        assert separable_class_counts(q, M) == separable_class_counts(q, N)[:M]


def test_tables_built_from_a_decimal_one_are_the_int_tables():
    """Every value is built from `one`, so a Decimal one gives Decimals
    throughout, equal to the ints, in a context that refuses to round."""
    builds = [
        lambda q, N, one: gaussian_rows(q, N, one),
        lambda q, N, one: rank_rows(q, N, one),
        lambda q, N, one: [subspace_totals(q, N, one)],
        lambda q, N, one: [q_factorials(q, N, one)],
        lambda q, N, one: [square_powers(q, N, 0, one), square_powers(q, N, -1, one)],
        lambda q, N, one: [separable_class_counts(q, N, one)],
        lambda q, N, one: [linear_derangement_counts(q, N, one)],
        lambda q, N, one: [[GLOrderTable(q, one).value(n) for n in range(N + 1)]],
        lambda q, N, one: [projection_counts(q, N, one)],
    ]
    char2 = [lambda q, N, one: [involution_counts_char2(q, N, one)]]
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        for q, N in ((2, 40), (4, 20), (9, 20), (1000003, 8), (1 << 20, 8)):
            for build in builds + (char2 if q % 2 == 0 else []):
                ints, decimals = build(q, N, 1), build(q, N, Decimal(1))
                assert decimals == ints
                assert all(type(v) is Decimal for row in decimals for v in row)


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


def test_one_splitting_table_serves_every_n():
    for q in (2, 3, 4, 5):
        rows = q_stirling_rows(q, 9)
        assert rows[0] == [1]
        for n in range(1, 10):
            assert rows[n] == [q_stirling(q, n, k) for k in range(n + 1)]
            assert rows[n][1:] == [q_stirling_via_gf(q, n, k) for k in range(1, n + 1)]
            assert sum(rows[n]) == q_bell(q, n)
        assert diagonalizable_counts(q, 9) == [diagonalizable_count(q, n) for n in range(10)]
    assert diagonalizable_counts(3, 0) == [1]
    with pytest.raises(ValueError):
        q_stirling_rows(2, -1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 1000003])
def test_splitting_recurrences_match_the_splitting_joins(q):
    # fields smaller and larger than the dimension: the power recurrence
    # of e(u)^q against the joins over the eigenvalues that occur, and the
    # unordered splitting step against the ordered splittings over k!
    assert diagonalizable_counts(q, 14) == [diagonalizable_count(q, n) for n in range(15)]
    rows = q_stirling_rows(q, 11)
    assert rows[0] == [1]
    assert rows[1:] == [[q_stirling(q, n, k) for k in range(n + 1)] for n in range(1, 12)]


def test_diagonalizable_counts_check_their_carried_divisions(monkeypatch):
    # a table that is not the powers of q leaves the first carried ratio,
    # [2, 1] = (pw[2] - 1) / (pw[1] - 1), inexact at n = 2
    real = scaled.powers(2, 8)
    monkeypatch.setattr(scaled, "powers", lambda q, top: [1] + [3 * p for p in real[1:]])
    with pytest.raises(NonIntegralCount, match="a carried weight is not an integer at u\\^2"):
        diagonalizable_counts(2, 8)


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
    # the rows summed by term ratios against the class-size sums
    for q, N in ((2, 40), (4, 40), (8, 40), (1 << 20, 8)):
        want = [involution_count_char2(q, n) for n in range(N + 1)]
        assert involution_counts_char2(q, N) == want
    with pytest.raises(CharNotTwo):
        involution_counts_char2(3, 2)


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
