"""The class-type route: every series kind summed conjugacy class by class."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qmcount import classtypes, gfengine, oracle
from qmcount.classtypes import (
    DECLARATIONS,
    MAX_CLASS_TYPE_WORK,
    MAX_LISTED_CLASSES,
    class_sizes,
    class_type_counts,
    min_centralizer_orders,
)
from qmcount.ffpoly import irreducible_poly_count
from qmcount.gfengine import CostExceeded, NonIntegralCount, gf_counts
from qmcount.qcount import PrimePower, gl_order


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_every_kind_matches_gf_counts(q):
    for kind in DECLARATIONS:
        if kind == "power_identity":
            for k in range(1, 10):
                if k % PrimePower.of(q).p:
                    assert class_type_counts(kind, q, 12, k) == gf_counts(kind, q, 12, k), k
        else:
            assert class_type_counts(kind, q, 12) == gf_counts(kind, q, 12), kind


def test_class_sizes_cover_all_matrices_and_the_group():
    for q, top in ((2, 6), (3, 5), (4, 4), (5, 3), (9, 2)):
        for n in range(top + 1):
            every = class_sizes("conjclasses_all", q, n)
            invertible = class_sizes("conjclasses_gl", q, n)
            assert sum(every) == q ** (n * n), (q, n)
            assert sum(invertible) == gl_order(q, n), (q, n)
            assert len(every) == class_type_counts("conjclasses_all", q, n)[n]
            assert len(invertible) == class_type_counts("conjclasses_gl", q, n)[n]


def test_class_sizes_match_the_orbit_walk():
    for q, n in ((2, 2), (2, 3), (3, 2), (4, 2)):
        _, orbits = oracle.orbit_census(q, n)
        assert sorted(size for size, _ in orbits) == sorted(class_sizes("conjclasses_all", q, n))
        want = sorted(class_sizes("conjclasses_gl", q, n))
        assert sorted(size for size, gl in orbits if gl) == want


def test_class_sizes_of_a_restricted_kind():
    # the cyclic 2 x 2 matrices over F_2: one class for each characteristic
    # polynomial, z^2, z^2 + 1, z^2 + z and z^2 + z + 1
    sizes = sorted(class_sizes("cyclic", 2, 2))
    assert sizes == [2, 3, 3, 6]
    assert sum(sizes) == gf_counts("cyclic", 2, 2)[2] == 14


@pytest.fixture
def fresh_caches():
    """Empty the route's caches before and after a test that patches it."""
    caches = (classtypes._degree_sum, classtypes._degree_factor)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def test_a_wrong_centralizer_order_is_caught(monkeypatch, fresh_caches):
    real = classtypes.centralizer_order

    # an order that divides no group order: the class size is no integer
    monkeypatch.setattr(classtypes, "centralizer_order", lambda Q, lam: real(Q, lam) * (Q + 1))
    with pytest.raises(NonIntegralCount, match="does not divide"):
        class_type_counts("cyclic", 2, 4)
    with pytest.raises(NonIntegralCount, match="does not divide"):
        class_sizes("conjclasses_all", 2, 2)

    # an order that still divides, but is wrong for the partition (2, 1):
    # over F_2 it is 8, and 3 * 8 divides |GL_3(2)| = 168
    def tripled(Q, lam):
        return real(Q, lam) * (3 if tuple(lam) == (2, 1) else 1)

    monkeypatch.setattr(classtypes, "centralizer_order", tripled)
    classtypes._degree_sum.cache_clear()
    classtypes._degree_factor.cache_clear()
    assert class_type_counts("invertible_check", 2, 4) != gf_counts("invertible_check", 2, 4)
    assert sum(class_sizes("conjclasses_all", 2, 3)) != 2**9


def test_a_group_order_past_the_int_to_text_limit_is_never_printed(fresh_caches):
    # |GL_120(2)| has about 4334 digits; one class of all parts 1 at m = 120,
    # the scalar matrix, has size 1
    assert gl_order(2, 120) > 10**4300
    assert classtypes._degree_sum(2, 1, 120, "all parts 1", True) == 1


def test_the_route_reads_no_product_rule(monkeypatch):
    names = set(vars(classtypes))
    assert not [n for n in names if n.endswith("_rule") or n in ("_KINDS", "_scaled_product")]

    # breaking gfengine's cyclic rule moves gf_counts, and not the class
    # types: its closed log 1/(Q + 1) scales to no integer at u^1
    def broken(Q, m):
        return gfengine.cyclic_rule(Q, m)

    broken.log = lambda Q, m: Fraction(1, Q + 1)

    monkeypatch.setitem(
        gfengine._KINDS, "cyclic", gfengine._KINDS["cyclic"]._replace(rule=broken)
    )
    with pytest.raises(NonIntegralCount, match="log is not an integer at u\\^1"):
        gf_counts("cyclic", 2, 3)
    assert class_type_counts("cyclic", 2, 3) == [1, 2, 14, 412]


def test_cost_guard_refuses_one_order_past_its_bound_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("gl_order", "irreducible_poly_count", "centralizer_order"):
        monkeypatch.setattr(classtypes, name, refuse)
    for q, edge in ((2, 36), (4, 30), (16, 25)):
        assert edge**4 * (q - 1).bit_length() <= MAX_CLASS_TYPE_WORK
        classtypes._check_cost(q, edge)
        with pytest.raises(CostExceeded):
            class_type_counts("cyclic", q, edge + 1)
    # listing the classes one by one has a bound of its own
    for q, edge in ((2, 12), (4, 6), (16, 3)):
        assert q**edge <= MAX_LISTED_CLASSES < q ** (edge + 1)
        with pytest.raises(CostExceeded):
            class_sizes("conjclasses_all", q, edge + 1)
    with pytest.raises(ValueError):
        class_type_counts("cyclic", 2, -1)


def test_power_identity_needs_a_square_free_exponent():
    with pytest.raises(ValueError):
        class_type_counts("power_identity", 2, 4)
    with pytest.raises(ValueError):
        class_type_counts("power_identity", 3, 4, 6)


def test_every_kind_matches_gf_counts_over_a_large_prime_field():
    q = 1000003
    for kind in DECLARATIONS:
        ks = (1, 2, 3, 6) if kind == "power_identity" else (None,)
        for k in ks:
            assert class_type_counts(kind, q, 6, k) == gf_counts(kind, q, 6, k), (kind, k)


def test_verify_compares_every_series_kind_with_its_class_types():
    from qmcount import verify

    names = {r.name for r in verify.cross_route_checks() if r.ok}
    for q in (2, 3, 4):
        for kind in DECLARATIONS:
            assert f"{kind}: gf_counts vs class types q={q}" in names
        assert f"bell: gf_counts vs q-Bell sums q={q}" in names


def _knapsack_with_multiplicities(q: int, max_n: int) -> list[int]:
    """The knapsack over polynomials each taken with a multiplicity m, at
    weight d m and cost Q^(m-1) (Q - 1), with no padding by powers of q:
    the reference for min_centralizer_orders' set knapsack."""
    usable = [0]
    for d in range(1, max_n + 1):
        usable.append(min(irreducible_poly_count(q, d) - (d == 1), max_n // d))
    best: list[int | None] = [1] + [None] * max_n
    for d in range(1, max_n + 1):
        Q = q**d
        for _ in range(usable[d]):
            # descending weights read only entries this polynomial has not set
            for w in range(max_n, d - 1, -1):
                for m in range(1, w // d + 1):
                    prev = best[w - d * m]
                    if prev is not None:
                        c = prev * Q ** (m - 1) * (Q - 1)
                        if best[w] is None or c < best[w]:
                            best[w] = c
    return best


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27])
def test_the_set_knapsack_matches_the_multiplicity_knapsack(q):
    assert min_centralizer_orders(q, 40) == _knapsack_with_multiplicities(q, 40)
