"""Brute-force matrix enumeration oracle over small fields."""

from __future__ import annotations

import itertools

import pytest

from qmcount import oracle
from qmcount.ffpoly import field_for, poly_divmod
from qmcount.oracle import (
    BudgetExceeded,
    ClassifyRecord,
    FqMatrix,
    char_poly,
    classify,
    conjugacy_class_count,
    conjugacy_orbit_sizes,
    count_matching,
    enumerate_matrices,
    matrix_powers,
    max_class_size,
    min_centralizer_order,
    min_poly,
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


def test_sweep_small_case_ignores_jobs():
    single = sweep_counts(3, 2, jobs=1)
    assert single.total == 81
    assert single.invertible == 48
    assert single.projective_derangement == 18
    assert sweep_counts(3, 2, jobs=4) == single


def test_sweep_jobs_deterministic():
    # 3^9 = 19683 matrices crosses the forking threshold
    single = sweep_counts(3, 3, ks=(2,), jobs=1)
    assert single.total == 19683
    assert single.invertible == gl_order(3, 3)
    assert single.nilpotent == 729
    assert sweep_counts(3, 3, ks=(2,), jobs=5) == single


def test_sweep_pool_is_clamped_to_cpu_count(monkeypatch):
    sizes = []

    class StubPool:
        """Records its size and runs the chunks in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return list(itertools.starmap(fn, args))

    class StubContext:
        Pool = StubPool

    monkeypatch.setattr(oracle.multiprocessing, "get_context", lambda _: StubContext)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    # 8^4 = 4096 matrices: the smallest sweep that takes the pool path
    pooled = sweep_counts(8, 2, ks=(2,), jobs=10**6)
    assert sizes == [3]
    assert pooled == sweep_counts(8, 2, ks=(2,), jobs=1)


def test_conjugacy_orbits_all_matrices():
    sizes = conjugacy_orbit_sizes(2, 2)
    assert sum(sizes) == 16
    assert sorted(sizes) == [1, 1, 2, 3, 3, 6]
    assert conjugacy_class_count(2, 2) == 6
    for size in sizes:
        assert gl_order(2, 2) % size == 0


def test_conjugacy_orbits_invertible_only():
    sizes = conjugacy_orbit_sizes(2, 2, restrict_gl=True)
    assert sum(sizes) == 6
    assert sorted(sizes) == [1, 2, 3]
    assert conjugacy_orbit_sizes(3, 1) == [1, 1, 1]
    assert conjugacy_orbit_sizes(3, 1, restrict_gl=True) == [1, 1]
    with pytest.raises(BudgetExceeded):
        conjugacy_orbit_sizes(2, 2, pair_budget=10)


def test_min_centralizer_and_max_class():
    assert min_centralizer_order(2, 1) == 1
    assert min_centralizer_order(2, 2) == 2
    assert min_centralizer_order(2, 3) == 3
    assert max_class_size(2, 2) == 3
    assert max_class_size(2, 3) == 56
    with pytest.raises(BudgetExceeded):
        min_centralizer_order(2, 3, pair_budget=100)
