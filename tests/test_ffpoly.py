"""Finite field tables, polynomial arithmetic, and irreducible counts."""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
import time
from collections import Counter
from math import gcd
from pathlib import Path

import pytest

from qmcount import classtypes
from qmcount.classtypes import class_type_counts
from qmcount.gfengine import gf_counts
from qmcount.ffpoly import (
    FieldSpec,
    NotCoprime,
    ZeroPolynomial,
    _prime_factors,
    build_field,
    cyclotomic_factor_counts,
    divisors,
    euler_phi,
    field_for,
    irreducible_poly_count,
    is_prime,
    moebius,
    multiplicative_order,
    poly_add,
    poly_degree,
    poly_derivative,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_trim,
    squarefree_test,
)
from qmcount.qcount import separable_class_count

SRC = Path(__file__).resolve().parent.parent / "src"


def all_monic(q: int, d: int):
    """Every monic polynomial of degree d over F_q, as coefficient tuples."""
    for code in range(q**d):
        yield tuple((code // q**i) % q for i in range(d)) + (1,)


def is_irreducible_by_trial_division(poly, field: FieldSpec) -> bool:
    d = poly_degree(poly)
    for e in range(1, d):
        for trial in all_monic(field.q, e):
            _, rem = poly_divmod(poly, trial, field)
            if not rem:
                return False
    return True


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    with pytest.raises(ValueError):
        divisors(0)
    for n in range(1, 501):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_moebius():
    assert moebius(1) == 1
    assert moebius(2) == -1
    assert moebius(4) == 0
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1
    for n in range(1, 501):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]
        square_free = all(n % (p * p) for p in primes)
        assert moebius(n) == ((-1) ** len(primes) if square_free else 0), n


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    assert euler_phi(12) == 4
    assert [euler_phi(m) for m in range(1, 9)] == [1, 1, 2, 2, 4, 2, 6, 4]
    for n in range(1, 501):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1), n


def test_irreducible_poly_count_values():
    assert irreducible_poly_count(2, 1) == 2
    assert irreducible_poly_count(2, 2) == 1
    assert irreducible_poly_count(2, 3) == 2
    assert irreducible_poly_count(2, 4) == 3
    assert irreducible_poly_count(2, 6) == 9
    assert irreducible_poly_count(3, 1) == 3
    assert irreducible_poly_count(3, 2) == 3
    for q in (2, 3, 4, 5):
        assert irreducible_poly_count(q, 1) == q


def test_irreducible_count_degree_sum():
    # every element of F_{q^n} has a minimal polynomial of degree dividing n
    for q in (2, 3, 4):
        for n in range(1, 11):
            total = sum(d * irreducible_poly_count(q, d) for d in divisors(n))
            assert total == q**n


def test_irreducible_count_matches_trial_division():
    for q in (2, 3):
        field = field_for(q)
        for d in range(1, 5):
            found = sum(
                1 for p in all_monic(q, d) if is_irreducible_by_trial_division(p, field)
            )
            assert found == irreducible_poly_count(q, d)


def test_multiplicative_order():
    assert multiplicative_order(2, 1) == 1
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 8) == 2
    assert multiplicative_order(4, 9) == 3
    with pytest.raises(NotCoprime):
        multiplicative_order(2, 4)
    with pytest.raises(NotCoprime):
        multiplicative_order(3, 6)


def stepped_order(q: int, m: int) -> int:
    """The order of q modulo m by the definition: step through the powers."""
    order, value = 1, q % m
    while value != 1 % m:
        value = value * q % m
        order += 1
    return order


def test_multiplicative_order_matches_the_stepping_definition():
    for q in range(2, 17):
        for m in range(1, 301):
            if gcd(q, m) == 1:
                assert multiplicative_order(q, m) == stepped_order(q, m), (q, m)


def plain_prime_factors(n: int) -> list[tuple[int, int]]:
    """(p, e) by trial division up to the root of what is left."""
    factors, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            factors.append((p, e))
        p += 1
    return factors + [(n, 1)] * (n > 1)


def test_prime_factors_match_plain_trial_division():
    # past 2^20 the cofactor left at the divisor 2^10 is tested for primality
    rng = random.Random(20261020)
    edge = [1021 * 1031, 1031**2, 1031 * 1033 * 4, 2**20, 2**20 + 7, 1048573, 999999937]
    samples = [*range(1, 5000), *edge, *(rng.randrange(2**20, 10**8) for _ in range(200))]
    for n in samples:
        assert _prime_factors(n) == plain_prime_factors(n), n


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.randrange(2 ** (bits - 1), 2**bits) | 1
        if is_prime(p):
            return p


def test_prime_factors_split_a_product_of_two_large_primes():
    # no trial divisor below 2^10 divides these, so the rho walk splits them
    rng = random.Random(45)
    for _ in range(8):
        p, q = sorted(random_prime(rng, rng.randrange(20, 41)) for _ in range(2))
        expected = [(p, 2)] if p == q else [(p, 1), (q, 1)]
        assert _prime_factors(p * q) == expected, (p, q)
        assert _prime_factors(p * q * 1031**2 * 12) == [(2, 2), (3, 1), (1031, 2), *expected]


LARGE_PRIME_CALLS = """
import sys, time
from qmcount import classtypes, ffpoly
m = 2**61 - 1
for call in (
    lambda: ffpoly.multiplicative_order(2, m),
    lambda: ffpoly.cyclotomic_factor_counts(2, m),
    lambda: classtypes.class_type_counts("power_identity", 2, 10, m),
):
    start = time.process_time()
    print(repr(call()), time.process_time() - start, sep="\\t")
try:
    ffpoly._prime_factors(2**89 - 1)
except ValueError as refused:
    print(refused, 0, sep="\\t")
"""


def test_a_large_prime_modulus_is_quick():
    # 2^61 - 1 is prime: trial division to its root did not end within 20 s.
    # 2^89 - 1 is prime past the range is_prime proves, so it is refused.
    # A fresh process, so that a slow factoring fails on its timeout.
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{LARGE_PRIME_CALLS}"],
        capture_output=True, text=True, check=True, timeout=20,
    )
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    assert [value for value, _ in lines] == [
        "61",
        "{1: 1, 61: 37800705069076950}",
        repr([1] * 11),
        f"{2**89 - 1} is a probable prime beyond the proven range of the test",
    ]
    assert all(float(seconds) < 1 for _, seconds in lines), lines


SEMIPRIME_CALLS = """
import sys, time
from qmcount import ffpoly
m = (2**31 - 1) * (2**61 - 1)
for call in (lambda: ffpoly.multiplicative_order(3, m), lambda: ffpoly.cyclotomic_factor_counts(3, m)):
    start = time.process_time()
    print(repr(call()), time.process_time() - start, sep="\\t")
"""


def test_a_modulus_with_two_large_prime_factors_is_quick():
    # the cofactor left at the divisor 2^10 is composite: trial division
    # on to its smaller prime, 2^31 - 1, did not end within 8 s
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{SEMIPRIME_CALLS}"],
        capture_output=True, text=True, check=True, timeout=20,
    )
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    order = 768614336404564650
    counts = {1: 1, 715827882: 3, 256204778801521550: 9, order: 6442450938}
    assert [value for value, _ in lines] == [repr(order), repr(counts)]
    assert sum(d * c for d, c in counts.items()) == (2**31 - 1) * (2**61 - 1)
    assert all(float(seconds) < 1 for _, seconds in lines), lines


def test_multiplicative_order_at_a_large_modulus_is_quick():
    # 100000007 is prime; stepping through ord(2) of its powers took seconds
    start = time.process_time()
    tally = cyclotomic_factor_counts(2, 100000007)
    counts = class_type_counts("power_identity", 2, 12, 100000007)
    assert time.process_time() - start < 1.0
    assert sum(d * c for d, c in tally.items()) == 100000007 and min(tally) == 1
    assert counts == [1] * 13  # only z - 1 divides z^k - 1 below degree 13


def test_cyclotomic_factor_counts_tally_the_listed_factors():
    # the factors listed one by one, phi(m) / ord_m(q) of degree ord_m(q)
    # for each m | k with the order stepped; classtypes reads the tally
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in range(1, 61):
            if gcd(q, k) != 1:
                continue
            listed = [
                stepped_order(q, m) for m in divisors(k)
                for _ in range(euler_phi(m) // stepped_order(q, m))
            ]
            counts = cyclotomic_factor_counts(q, k)
            assert counts == Counter(listed) and list(counts) == sorted(counts), (q, k)
            assert [d for d, c in counts.items() for _ in range(c)] == sorted(listed), (q, k)
            for d in range(1, k + 1):
                assert classtypes._roots_of_one(q, d, k) == listed.count(d), (q, k, d)


def test_class_types_at_a_large_exponent_are_quick():
    # 2^24 - 1 has 699251 irreducible factors over F_2, tallied in 64 orders
    classtypes._factor_counts.cache_clear()
    start = time.process_time()
    counts = class_type_counts("power_identity", 2, 20, 2**24 - 1)
    assert time.process_time() - start < 0.25
    assert counts == gf_counts("power_identity", 2, 20, 2**24 - 1)


def test_cyclotomic_factor_degrees():
    assert cyclotomic_factor_counts(2, 3) == {1: 1, 2: 1}
    assert cyclotomic_factor_counts(2, 7) == {1: 1, 3: 2}
    assert cyclotomic_factor_counts(3, 8) == {1: 2, 2: 3}
    assert cyclotomic_factor_counts(4, 3) == {1: 3}
    for q in (2, 3, 5):
        assert cyclotomic_factor_counts(q, 1) == {1: 1}
    with pytest.raises(NotCoprime):
        cyclotomic_factor_counts(2, 6)


def test_cyclotomic_degrees_sum_and_linear_factors():
    from math import gcd

    for q in (2, 3, 4, 5):
        for k in range(1, 13):
            if gcd(q, k) != 1:
                continue
            counts = cyclotomic_factor_counts(q, k)
            assert sum(d * c for d, c in counts.items()) == k
            # linear factors <-> k-th roots of unity in F_q
            assert counts[1] == gcd(k, q - 1)


def test_build_field_moduli():
    assert build_field(2, 1).modulus == (0, 1)
    assert build_field(2, 2).modulus == (1, 1, 1)
    assert build_field(3, 2).modulus == (1, 0, 1)
    assert field_for(4).q == 4
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(2, 0)


def test_field_spec_rejects_bad_modulus():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # (z + 1)^2, reducible
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 1))  # wrong degree
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 1, 2))  # not monic
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (3, 1, 1))  # a coefficient outside F_2
    # (z^2 + z + 1)^2 has no linear factor: the trial division must reach
    # degree e // 2 = 2 to refuse it
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(2, 4, (1, 0, 1, 0, 1))


# SHA-256 of repr((q, modulus, add, mul, neg, inv)) over every field with
# q = p^e <= 169, in increasing q, recorded from the tables as built by the
# earlier hand-written prime-field arithmetic.
FIELD_TABLES_SHA256 = "133ca32269b9dc2eb28fd4b92c4a5731945e49f46c3eba23c686cff5cfe3093d"


def test_field_tables_match_the_pinned_digest():
    digest = hashlib.sha256()
    for q in range(2, 170):
        try:
            f = field_for(q)
        except ValueError:
            continue
        tables = (q, f.modulus, f.add_table, f.mul_table, f.neg_table, f.inv_table)
        digest.update(repr(tables).encode())
    assert digest.hexdigest() == FIELD_TABLES_SHA256


def test_field_axioms_brute_force():
    for q in (4, 9):
        f = field_for(q)
        add, mul, neg = f.add_table, f.mul_table, f.neg_table
        elements = range(q)
        for a in elements:
            assert add[a][0] == a
            assert mul[a][1] == a
            assert add[a][neg[a]] == 0
            for b in elements:
                assert add[a][b] == add[b][a]
                assert mul[a][b] == mul[b][a]
                for c in elements:
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def _power(f, a: int, k: int) -> int:
    """a^k in f by k repeated products through the multiplication table."""
    result = 1
    for _ in range(k):
        result = f.mul_table[result][a]
    return result


def test_field_inverses_and_pow():
    for q in (2, 3, 4, 5, 8, 9):
        f = field_for(q)
        for a in range(1, q):
            assert f.mul_table[a][f.inv(a)] == 1
            assert _power(f, a, q - 1) == 1
            assert _power(f, a, q - 2) == f.inv(a)
        assert _power(f, 0, 3) == 0
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        # characteristic: adding 1 to itself p times returns to 0
        acc = 0
        for _ in range(f.p):
            acc = f.add_table[acc][1]
        assert acc == 0
        assert f.add_table[0][f.neg_table[1]] == f.neg_table[1]


def test_poly_trim_and_degree():
    assert poly_trim([1, 2, 0, 0]) == (1, 2)
    assert poly_trim([0, 0]) == ()
    assert poly_degree(()) == -1
    assert poly_degree((5,)) == 0
    assert poly_degree((0, 0, 1)) == 2


def test_poly_arithmetic_over_prime_field():
    f = field_for(3)
    a = (2, 0, 1)  # z^2 + 2
    b = (1, 1)  # z + 1
    assert poly_add(a, b, f) == (0, 1, 1)
    assert poly_mul(a, b, f) == (2, 2, 1, 1)
    assert poly_mul(a, (), f) == ()
    quo, rem = poly_divmod(a, b, f)
    assert quo == (2, 1)
    assert rem == ()
    assert poly_monic((2, 1, 2), f) == (1, 2, 1)


def test_poly_divmod_round_trip():
    for q in (2, 3, 4):
        f = field_for(q)
        for a in all_monic(q, 4):
            b = (1, 1, 1)
            quo, rem = poly_divmod(a, b, f)
            assert poly_degree(rem) < poly_degree(b)
            back = poly_add(poly_mul(quo, b, f), rem, f)
            assert back == poly_trim(a)
    with pytest.raises(ZeroPolynomial):
        poly_divmod((1, 1), (), field_for(2))


def test_poly_gcd():
    f = field_for(3)
    a = (2, 0, 1)  # (z + 1)(z + 2)
    b = (1, 2, 1)  # (z + 1)^2
    assert poly_gcd(a, b, f) == (1, 1)
    assert poly_gcd(a, (), f) == poly_monic(a, f)
    assert poly_gcd((2,), b, f) == (1,)
    with pytest.raises(ZeroPolynomial):
        poly_gcd((), (), f)


def test_poly_derivative():
    f2 = field_for(2)
    assert poly_derivative((0, 0, 1), f2) == ()  # d/dz z^2 = 2z = 0
    assert poly_derivative((0, 0, 0, 1), f2) == (0, 0, 1)  # d/dz z^3 = 3z^2 = z^2
    f3 = field_for(3)
    assert poly_derivative((1, 1, 1, 1), f3) == (1, 2)
    assert poly_derivative((2,), f3) == ()


def test_squarefree_test():
    f2 = field_for(2)
    assert squarefree_test((1, 1, 1), f2)  # z^2 + z + 1
    assert not squarefree_test((0, 0, 1), f2)  # z^2
    assert not squarefree_test((1, 0, 1), f2)  # (z + 1)^2
    assert squarefree_test((0, 1, 1), f2)  # z(z + 1)
    assert squarefree_test((1,), f2)
    with pytest.raises(ZeroPolynomial):
        squarefree_test((), f2)


def test_squarefree_monic_count_matches_class_count():
    for q in (2, 3):
        f = field_for(q)
        for n in range(1, 5):
            found = sum(1 for p in all_monic(q, n) if squarefree_test(p, f))
            assert found == separable_class_count(q, n)


def test_an_inexact_irreducible_count_sum_is_refused(monkeypatch):
    # with every Moebius value 1 the sum over d = 3 is 2 + 8, which 3 does not divide
    from qmcount import ffpoly
    from qmcount.scaled import NonIntegralCount

    monkeypatch.setattr(ffpoly, "moebius", lambda n: 1)
    with pytest.raises(NonIntegralCount, match="^irreducible count sum not divisible by 3$"):
        irreducible_poly_count(2, 3)
