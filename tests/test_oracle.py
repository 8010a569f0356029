"""Brute-force matrix enumeration oracle over small fields."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from qmcount import oracle
from qmcount.ffpoly import field_for, poly_add, poly_divmod, poly_mul, poly_neg, poly_trim
from qmcount.oracle import (
    BudgetExceeded,
    ClassifyRecord,
    FqMatrix,
    char_poly,
    classify,
    conjugacy_orbit_sizes,
    count_matching,
    enumerate_matrices,
    matrix_powers,
    max_class_size,
    min_centralizer_order,
    min_poly,
    orbit_census,
    per_matrix_counts,
    record_consistent,
    sweep_counts,
)
from qmcount.qcount import gl_order


F2 = field_for(2)
F3 = field_for(3)


def test_matrix_construction_and_codes():
    A = FqMatrix(F2, 2, (0, 1, 1, 1))
    assert A.entries == (0, 1, 1, 1)
    for code in range(16):
        M = FqMatrix.from_code(F2, 2, code)
        assert M.code() == code
    for code in range(81):
        M = FqMatrix.from_code(F3, 2, code)
        assert M.code() == code
    with pytest.raises(ValueError):
        FqMatrix(F2, 2, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        FqMatrix(F2, 2, (0, 1))
    with pytest.raises(ValueError):
        FqMatrix(F2, 0, ())
    with pytest.raises(ValueError):
        FqMatrix.from_code(F2, 2, 16)


def test_identity_and_predicates():
    I = FqMatrix.identity(F3, 3)
    assert I.entries == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert I.is_identity()
    assert not I.is_zero()
    assert FqMatrix(F3, 2, (0, 0, 0, 0)).is_zero()
    assert FqMatrix(F2, 2, (1, 0, 0, 1)) == FqMatrix.identity(F2, 2)
    assert hash(FqMatrix(F2, 2, (1, 0, 0, 1))) == hash(FqMatrix.identity(F2, 2))


def test_mul_and_matpow():
    A = FqMatrix(F2, 2, (0, 1, 1, 1))  # companion of z^2 + z + 1
    sq = A.mul(A)
    assert sq.entries == (1, 1, 1, 0)
    assert A.matpow(0).is_identity()
    assert A.matpow(3).is_identity()
    power = FqMatrix.identity(F2, 2)
    for k in range(7):
        assert A.matpow(k) == power
        power = power.mul(A)
    with pytest.raises(ValueError):
        A.matpow(-1)
    with pytest.raises(ValueError):
        A.mul(FqMatrix.identity(F2, 3))
    with pytest.raises(ValueError):
        A.mul(FqMatrix.identity(F3, 2))


def test_matrix_powers():
    A = FqMatrix(F3, 2, (1, 1, 0, 1))
    powers = matrix_powers(A, 4)
    assert len(powers) == 5
    for k, entries in enumerate(powers):
        assert entries == A.matpow(k).entries


def test_char_poly():
    assert char_poly(FqMatrix(F2, 2, (0, 0, 0, 0))) == (0, 0, 1)
    assert char_poly(FqMatrix.identity(F2, 3)) == (1, 1, 1, 1)
    assert char_poly(FqMatrix(F2, 2, (0, 1, 1, 1))) == (1, 1, 1)
    # det(zI - A) for diag(1, 2) over F_3 is (z - 1)(z - 2) = z^2 + 2
    assert char_poly(FqMatrix(F3, 2, (1, 0, 0, 2))) == (2, 0, 1)


def test_min_poly():
    assert min_poly(FqMatrix(F2, 2, (0, 0, 0, 0))) == (0, 1)
    assert min_poly(FqMatrix.identity(F2, 3)) == (1, 1)
    assert min_poly(FqMatrix.identity(F3, 2)) == (2, 1)
    # scalar-plus-nilpotent has minimal polynomial (z - 1)^2
    assert min_poly(FqMatrix(F2, 2, (1, 1, 0, 1))) == (1, 0, 1)


def test_min_poly_divides_char_poly_everywhere():
    for q, n, field in ((2, 2, F2), (2, 3, F2), (3, 2, F3)):
        for A in enumerate_matrices(q, n):
            mp = min_poly(A)
            cp = char_poly(A)
            assert len(cp) == n + 1 and cp[-1] == 1
            assert mp[-1] == 1
            _, rem = poly_divmod(cp, mp, field)
            assert rem == ()


def test_cayley_hamilton():
    for q, n in ((2, 2), (3, 2), (2, 3)):
        field = field_for(q)
        for A in enumerate_matrices(q, n):
            cp = char_poly(A)
            powers = matrix_powers(A, n)
            acc = [0] * (n * n)
            for i, c in enumerate(cp):
                if c:
                    row = field.mul_table[c]
                    acc = [field.add_table[x][row[y]] for x, y in zip(acc, powers[i])]
            assert not any(acc)


def test_classify_identity():
    rec = classify(FqMatrix.identity(F2, 2))
    assert rec.rank == 2
    assert rec.invertible
    assert rec.projection
    assert rec.diagonalizable
    assert rec.semisimple
    assert not rec.cyclic
    assert not rec.separable
    assert not rec.nilpotent
    assert not rec.linear_derangement
    assert rec.power_identity == {2: True, 3: True, 4: True, 5: True, 6: True}


def test_classify_zero():
    rec = classify(FqMatrix(F2, 2, (0, 0, 0, 0)))
    assert rec.rank == 0
    assert rec.nilpotent
    assert rec.projection
    assert rec.diagonalizable
    assert rec.semisimple
    assert not rec.separable
    assert not rec.invertible
    assert rec.min_poly == (0, 1)


def test_classify_nilpotent_block():
    rec = classify(FqMatrix(F2, 2, (0, 1, 0, 0)))
    assert rec.nilpotent
    assert rec.cyclic
    assert rec.rank == 1
    assert not rec.projection
    assert not rec.diagonalizable
    assert not rec.semisimple


def test_classify_order_three_companion():
    rec = classify(FqMatrix(F2, 2, (0, 1, 1, 1)))
    assert rec.invertible
    assert rec.cyclic
    assert rec.semisimple
    assert rec.separable
    assert rec.linear_derangement
    assert rec.projective_derangement
    assert rec.power_identity == {2: False, 3: True, 4: False, 5: False, 6: True}
    assert rec.min_poly == (1, 1, 1)


def test_record_consistent():
    rec = classify(FqMatrix.identity(F2, 2))
    assert record_consistent(F2, 2, rec)
    broken = ClassifyRecord(
        rank=rec.rank,
        invertible=rec.invertible,
        nilpotent=rec.nilpotent,
        projection=True,
        diagonalizable=False,
        cyclic=rec.cyclic,
        semisimple=rec.semisimple,
        separable=rec.separable,
        linear_derangement=rec.linear_derangement,
        projective_derangement=rec.projective_derangement,
        power_identity=rec.power_identity,
        min_poly=rec.min_poly,
        char_poly=rec.char_poly,
    )
    assert not record_consistent(F2, 2, broken)
    # diag(1, 0) is singular and not nilpotent: only the char poly's
    # constant term can catch a flipped invertible flag
    rec = classify(FqMatrix(F2, 2, (1, 0, 0, 0)))
    assert record_consistent(F2, 2, rec)
    assert not rec.nilpotent
    assert not record_consistent(F2, 2, dataclasses.replace(rec, invertible=True))


def test_enumerate_matrices():
    codes = [A.code() for A in enumerate_matrices(2, 2)]
    assert codes == list(range(16))
    with pytest.raises(BudgetExceeded):
        enumerate_matrices(2, 3, budget=100)


def test_count_matching():
    assert count_matching(2, 2, FqMatrix.is_identity) == 1
    assert count_matching(3, 1, lambda A: A.is_zero()) == 1


def test_sweep_counts_2x2():
    result = sweep_counts(2, 2)
    assert result.total == 16
    assert result.invertible == 6
    assert result.nilpotent == 4
    assert result.projection == 8
    assert result.diagonalizable == 8
    assert result.cyclic == 14
    assert result.semisimple == 10
    assert result.separable == 8
    assert result.linear_derangement == 2
    assert result.projective_derangement == 2
    assert result.rank == (1, 9, 6)
    assert result.power_identity == {2: 4, 3: 3, 4: 4, 5: 1, 6: 6}
    assert result.consistency_violations == 0


def test_sweep_budget():
    with pytest.raises(BudgetExceeded) as info:
        sweep_counts(2, 3, budget=100)
    assert info.value.required == 512
    assert info.value.budget == 100
    assert "512" in str(info.value) and "100" in str(info.value)


def test_sweep_repeats_small_case():
    single = sweep_counts(3, 2)
    assert single.total == 81
    assert single.invertible == 48
    assert single.projective_derangement == 18
    assert sweep_counts(3, 2) == single


def test_sweep_repeats_three_by_three():
    single = sweep_counts(3, 3)
    assert single.total == 19683
    assert single.invertible == gl_order(3, 3)
    assert single.nilpotent == 729
    assert sweep_counts(3, 3) == single


@pytest.mark.parametrize(
    "q, n",
    [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (2, 3)],
)
def test_orbit_weighted_sweep_matches_per_matrix_tally(q, n):
    # every case with q^(n^2) <= 4096 and n >= 2, plus n = 1 up to q = 5
    assert sweep_counts(q, n) == per_matrix_counts(q, n)


def test_second_orbit_member_guards_the_weighted_tally(monkeypatch):
    # a record that depends on which member of the orbit is classified
    # passes record_consistent, so only the second member can expose it
    real = oracle.classify

    def by_code(A):
        rec = real(A)
        return dataclasses.replace(rec, linear_derangement=A.code() % 2 == 1)

    monkeypatch.setattr(oracle, "classify", by_code)
    assert per_matrix_counts(2, 2).consistency_violations == 0
    assert sweep_counts(2, 2).consistency_violations > 0


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_count(q, n):
    count = 2 * (n > 1) + (q > 2)
    assert len(oracle._generators(field_for(q), n)) == count


def explicit_inverse(g):
    """g^-1 as g^(k-1), with k the first power where g^k = I."""
    power, k = g, 1
    while not power.is_identity():
        power = power.mul(g)
        k += 1
    return g.matpow(k - 1)


@pytest.mark.parametrize(
    "q, n, samples",
    [(2, 3, None), (3, 2, None), (4, 2, None), (9, 2, None), (2, 4, 500), (3, 3, 500), (4, 3, 500)],
)
def test_conjugation_tables_match_the_group_action(q, n, samples):
    field = field_for(q)
    size = q ** (n * n)
    if samples is None:
        codes = range(size)
    else:
        rng = random.Random(f"tables {q} {n}")
        codes = [rng.randrange(size) for _ in range(samples)]
    for g, build in oracle._generators(field, n):
        table = build()
        assert len(table) == size
        assert sorted(table) == list(range(size)), "not a permutation of the codes"
        g_inv = explicit_inverse(g)
        assert g.mul(g_inv).is_identity()
        for code in codes:
            A = FqMatrix.from_code(field, n, code)
            assert table[code] == g.mul(A).mul(g_inv).code(), (g, code)


def test_conjugacy_orbits_all_matrices():
    sizes = conjugacy_orbit_sizes(2, 2)
    assert sum(sizes) == 16
    assert sorted(sizes) == [1, 1, 2, 3, 3, 6]
    assert len(conjugacy_orbit_sizes(2, 2)) == 6
    for size in sizes:
        assert gl_order(2, 2) % size == 0


def test_conjugacy_orbits_invertible_only():
    sizes = conjugacy_orbit_sizes(2, 2, restrict_gl=True)
    assert sum(sizes) == 6
    assert sorted(sizes) == [1, 2, 3]
    assert conjugacy_orbit_sizes(3, 1) == [1, 1, 1]
    assert conjugacy_orbit_sizes(3, 1, restrict_gl=True) == [1, 1]
    with pytest.raises(BudgetExceeded):
        conjugacy_orbit_sizes(2, 2, budget=10)


def test_min_centralizer_and_max_class():
    assert min_centralizer_order(2, 1) == 1
    assert min_centralizer_order(2, 2) == 2
    assert min_centralizer_order(2, 3) == 3
    assert max_class_size(2, 2) == 3
    assert max_class_size(2, 3) == 56
    with pytest.raises(BudgetExceeded):
        min_centralizer_order(2, 3, budget=100)


def test_budget_is_checked_before_the_field_tables():
    # the arithmetic tables of F_q grow with q: a large prime must be
    # refused by the budget before any table is built
    big = 2**61 - 1
    with pytest.raises(BudgetExceeded):
        min_centralizer_order(big, 1)
    with pytest.raises(BudgetExceeded):
        enumerate_matrices(big, 1)


def leibniz_char_poly(A):
    """det(zI - A) as the Leibniz sum over permutations, in F_q[z]."""
    field, n = A.field, A.n
    neg = field.neg_table
    total = ()
    for perm in itertools.permutations(range(n)):
        term = (1,)
        for i, j in enumerate(perm):
            a = neg[A.entries[i * n + j]]
            term = poly_mul(term, poly_trim((a, 1) if i == j else (a,)), field)
            if not term:
                break
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = poly_add(total, poly_neg(term, field) if inversions % 2 else term, field)
    return total


@pytest.mark.parametrize(
    "q, n, stride",
    [(2, 3, 1), (3, 2, 1), (4, 2, 1), (5, 2, 1), (2, 4, 17), (3, 3, 7)],
)
def test_char_poly_matches_leibniz(q, n, stride):
    field = field_for(q)
    for code in range(0, q ** (n * n), stride):
        A = FqMatrix.from_code(field, n, code)
        assert char_poly(A) == leibniz_char_poly(A), A


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_eigenvalue_flags_match_shifted_determinants(q, n):
    # c is an eigenvalue when det(A - cI) = 0; the constant term of the
    # Leibniz char poly of A - cI is that determinant up to sign
    field = field_for(q)
    add, neg = field.add_table, field.neg_table
    for A in enumerate_matrices(q, n):
        eigenvalues = set()
        for c in range(q):
            shifted = list(A.entries)
            for k in range(0, n * n, n + 1):
                shifted[k] = add[shifted[k]][neg[c]]
            if not leibniz_char_poly(FqMatrix(field, n, shifted))[0]:
                eigenvalues.add(c)
        rec = classify(A)
        assert rec.linear_derangement == (not eigenvalues & {0, 1}), A
        assert rec.projective_derangement == (not eigenvalues), A


def direct_orbit_sizes(q, n, restrict_gl):
    """Orbit sizes from {g A g^-1 : g in GL_n}, in order of smallest code.

    Invertibility is read off the Leibniz determinant, and g^-1 is
    g^(|GL_n| - 1).
    """
    field = field_for(q)
    gamma = gl_order(q, n)
    mats = [FqMatrix.from_code(field, n, c) for c in range(q ** (n * n))]
    invertible = [leibniz_char_poly(A)[0] != 0 for A in mats]
    gl = [(g, g.matpow(gamma - 1)) for g, ok in zip(mats, invertible) if ok]
    assert len(gl) == gamma
    seen = set()
    sizes = []
    for A, ok in zip(mats, invertible):
        if A.code() in seen or (restrict_gl and not ok):
            continue
        orbit = {g.mul(A).mul(ginv).code() for g, ginv in gl}
        seen |= orbit
        sizes.append(len(orbit))
    return sizes


@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)])
@pytest.mark.parametrize("restrict_gl", [False, True])
def test_orbit_closure_matches_direct_conjugation(q, n, restrict_gl):
    assert conjugacy_orbit_sizes(q, n, restrict_gl) == direct_orbit_sizes(q, n, restrict_gl)


def full_family_orbit_sizes(q, n):
    """Orbit sizes under conjugation by every invertible I + c*E_ij.

    With g = I + c*E_ij and g^-1 = I + d*E_ij, g A g^-1 is A after row i
    gains c times row j and then column j gains d times column i.  The
    family holds every elementary row operation, so it plainly generates
    GL_n; sizes come in order of smallest code.
    """
    field = field_for(q)
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    family = []
    for i, j in itertools.product(range(n), repeat=2):
        for c in range(1, q):
            lam = add[c][1]
            if i != j:
                family.append((i, j, mul[c], mul[neg[c]]))
            elif lam:
                family.append((i, j, mul[c], mul[add[inv[lam]][neg[1]]]))

    def conjugate(a, i, j, crow, drow):
        e = list(a)
        for k in range(n):
            e[i * n + k] = add[e[i * n + k]][crow[e[j * n + k]]]
        for k in range(n):
            e[k * n + j] = add[e[k * n + j]][drow[e[k * n + i]]]
        return tuple(e)

    seen = set()
    sizes = []
    for A in enumerate_matrices(q, n):
        if A.entries in seen:
            continue
        orbit = {A.entries}
        stack = [A.entries]
        while stack:
            a = stack.pop()
            for gen in family:
                b = conjugate(a, *gen)
                if b not in orbit:
                    orbit.add(b)
                    stack.append(b)
        seen |= orbit
        sizes.append(len(orbit))
    return sizes


@pytest.mark.parametrize("q, n", [(3, 2), (2, 3), (4, 2)])
def test_census_orbits_match_the_orbit_sizes(q, n):
    sweep, orbits = orbit_census(q, n)
    assert sweep == sweep_counts(q, n)
    assert [size for size, _ in orbits] == conjugacy_orbit_sizes(q, n)
    assert [size for size, inv in orbits if inv] == conjugacy_orbit_sizes(q, n, True)


@pytest.mark.parametrize("q, n", [(8, 2), (9, 2), (2, 4), (3, 3)])
def test_small_generator_set_matches_the_full_elementary_family(q, n):
    assert conjugacy_orbit_sizes(q, n) == full_family_orbit_sizes(q, n)


def test_classify_calls_each_traced_layer(monkeypatch):
    # classify looks its sub-steps up as module globals, so a wrapper
    # installed on the module sees every call
    calls = []
    for name in ("char_poly", "min_poly", "matrix_powers", "squarefree_test"):
        orig = getattr(oracle, name)

        def spy(*args, _name=name, _orig=orig, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(oracle, name, spy)
    classify(FqMatrix(F3, 3, (0, 1, 0, 0, 0, 1, 2, 1, 0)))
    assert set(calls) == {"char_poly", "min_poly", "matrix_powers", "squarefree_test"}
