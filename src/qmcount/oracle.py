"""Brute-force enumeration oracle for small matrix spaces.

Every n x n matrix over F_q is identified with an integer code: the flat
row-major entry list is read as a base-q number with entry (0,0) least
significant.  The oracle walks the full code range, classifies each matrix
from first principles (rank elimination, explicit powers, characteristic
and minimal polynomials), and tallies the classes.  It exists to check the
formula and generating function routes on spaces small enough to sweep,
so it favours directness over cleverness.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from itertools import islice, product

from .ffpoly import (
    FieldSpec,
    field_for,
    poly_divmod,
    poly_trim,
    squarefree_test,
)
from .qcount import gl_order

DEFAULT_ENUM_BUDGET = 1 << 24
DEFAULT_PAIR_BUDGET = 1 << 28

DEFAULT_POWERS = (2, 3, 4, 5, 6)


class BudgetExceeded(RuntimeError):
    """An exhaustive sweep would need more work than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"sweep needs {required} steps, above the budget of {budget}"
        )
        self.required = required
        self.budget = budget


class FqMatrix:
    """An n x n matrix over a concrete field, entries flat and row-major."""

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: FieldSpec, n: int, entries):
        entries = tuple(entries)
        if n < 1:
            raise ValueError("matrix size must be >= 1")
        if len(entries) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(entries)}")
        if entries and (min(entries) < 0 or max(entries) >= field.q):
            raise ValueError("entries must be field element codes")
        self.field = field
        self.n = n
        self.entries = entries

    @classmethod
    def from_code(cls, field: FieldSpec, n: int, code: int) -> FqMatrix:
        q = field.q
        if not 0 <= code < q ** (n * n):
            raise ValueError(f"matrix code {code} out of range")
        entries = []
        for _ in range(n * n):
            code, digit = divmod(code, q)
            entries.append(digit)
        return cls(field, n, entries)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> FqMatrix:
        return cls(field, n, _identity_entries(n))

    def code(self) -> int:
        q = self.field.q
        total = 0
        for e in reversed(self.entries):
            total = total * q + e
        return total

    def mul(self, other: FqMatrix) -> FqMatrix:
        if self.field is not other.field or self.n != other.n:
            raise ValueError("matrix shapes or fields differ")
        prod = _mat_mul(
            self.n,
            self.entries,
            other.entries,
            self.field.add_table,
            self.field.mul_table,
        )
        return FqMatrix(self.field, self.n, prod)

    def matpow(self, k: int) -> FqMatrix:
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = FqMatrix.identity(self.field, self.n)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return result

    def is_identity(self) -> bool:
        return self.entries == _identity_entries(self.n)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, FqMatrix):
            return (
                self.field is other.field
                and self.n == other.n
                and self.entries == other.entries
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.field), self.n, self.entries))

    def __repr__(self) -> str:
        rows = [
            list(self.entries[i * self.n : (i + 1) * self.n]) for i in range(self.n)
        ]
        return f"FqMatrix(q={self.field.q}, {rows})"


def _identity_entries(n: int) -> tuple[int, ...]:
    ent = [0] * (n * n)
    for i in range(n):
        ent[i * n + i] = 1
    return tuple(ent)


def _mat_mul(n, a, b, add, mul):
    out = []
    for i in range(n):
        arow = a[i * n : (i + 1) * n]
        for j in range(n):
            acc = 0
            for t in range(n):
                x = arow[t]
                if x:
                    acc = add[acc][mul[x][b[t * n + j]]]
            out.append(acc)
    return tuple(out)


def _rank_det(field: FieldSpec, n: int, entries):
    """Rank and determinant by Gaussian elimination on a working copy."""
    m = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
    add = field.add_table
    mul = field.mul_table
    neg = field.neg_table
    inv = field.inv_table
    det = 1
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[piv], m[rank] = m[rank], m[piv]
            det = neg[det]
        pval = m[rank][col]
        det = mul[det][pval]
        ipv = inv[pval]
        prow = m[rank]
        for r in range(rank + 1, n):
            c = m[r][col]
            if c:
                f = mul[c][ipv]
                frow = mul[f]
                rrow = m[r]
                for j in range(col, n):
                    if prow[j]:
                        rrow[j] = add[rrow[j]][neg[frow[prow[j]]]]
        rank += 1
    return rank, (det if rank == n else 0)


def _det_shifted(field: FieldSpec, n: int, entries, lam: int) -> int:
    """Determinant of A - lam*I."""
    if lam == 0:
        return _rank_det(field, n, entries)[1]
    shifted = list(entries)
    neg_lam = field.neg_table[lam]
    add = field.add_table
    for i in range(n):
        k = i * n + i
        shifted[k] = add[shifted[k]][neg_lam]
    return _rank_det(field, n, shifted)[1]


def _invert(field: FieldSpec, n: int, entries):
    """Inverse matrix entries, or None when singular."""
    add = field.add_table
    mul = field.mul_table
    neg = field.neg_table
    inv = field.inv_table
    m = [
        list(entries[i * n : (i + 1) * n]) + [1 if j == i else 0 for j in range(n)]
        for i in range(n)
    ]
    w = 2 * n
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return None
        if piv != col:
            m[piv], m[col] = m[col], m[piv]
        ipv = inv[m[col][col]]
        irow = mul[ipv]
        prow = m[col]
        for j in range(w):
            if prow[j]:
                prow[j] = irow[prow[j]]
        for r in range(n):
            if r == col:
                continue
            c = m[r][col]
            if c:
                frow = mul[c]
                rrow = m[r]
                for j in range(col, w):
                    if prow[j]:
                        rrow[j] = add[rrow[j]][neg[frow[prow[j]]]]
    out = []
    for i in range(n):
        out.extend(m[i][n:])
    return tuple(out)


def matrix_powers(A: FqMatrix, top: int) -> list[tuple[int, ...]]:
    """[I, A, A^2, ..., A^top] as flat entry tuples."""
    field = A.field
    n = A.n
    powers = [_identity_entries(n)]
    cur = powers[0]
    for _ in range(top):
        cur = _mat_mul(n, cur, A.entries, field.add_table, field.mul_table)
        powers.append(cur)
    return powers


def char_poly(A: FqMatrix) -> tuple[int, ...]:
    """Characteristic polynomial det(zI - A), monic, constant term first.

    Cofactor expansion over the polynomial ring, expanding along the top
    remaining row; minors are memoized on their column set.
    """
    field = A.field
    n = A.n
    neg = field.neg_table
    from .ffpoly import poly_add, poly_mul, poly_neg

    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            a = A.entries[i * n + j]
            if i == j:
                row.append(poly_trim((neg[a], 1)))
            else:
                row.append((neg[a],) if a else ())
        grid.append(row)

    memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def det(cols: tuple[int, ...]) -> tuple[int, ...]:
        if not cols:
            return (1,)
        cached = memo.get(cols)
        if cached is not None:
            return cached
        r = n - len(cols)
        total: tuple[int, ...] = ()
        for idx, c in enumerate(cols):
            e = grid[r][c]
            if e:
                term = poly_mul(e, det(cols[:idx] + cols[idx + 1 :]), field)
                if idx & 1:
                    term = poly_neg(term, field)
                total = poly_add(total, term, field)
        memo[cols] = total
        return total

    return det(tuple(range(n)))


def min_poly(A: FqMatrix, powers=None) -> tuple[int, ...]:
    """Minimal polynomial, monic, constant term first.

    Reduces vec(A^d) for d = 0, 1, ... against an incrementally built
    echelon basis of the earlier powers, tracking the combination; the
    first dependency read off gives the monic minimal polynomial.  The
    loop always terminates by d = n.
    """
    field = A.field
    n = A.n
    nn = n * n
    add = field.add_table
    mul = field.mul_table
    neg = field.neg_table
    inv = field.inv_table
    if powers is None:
        powers = matrix_powers(A, n)
    basis: list[tuple[int, list[int], list[int]]] = []
    for d in range(n + 1):
        row = list(powers[d])
        combo = [0] * (n + 1)
        combo[d] = 1
        for piv, brow, bcombo in basis:
            c = row[piv]
            if c:
                crow = mul[c]
                for i in range(nn):
                    if brow[i]:
                        row[i] = add[row[i]][neg[crow[brow[i]]]]
                for i in range(d):
                    if bcombo[i]:
                        combo[i] = add[combo[i]][neg[crow[bcombo[i]]]]
        piv = next((i for i in range(nn) if row[i]), None)
        if piv is None:
            return poly_trim(combo[: d + 1])
        scale = mul[inv[row[piv]]]
        row = [scale[x] for x in row]
        combo = [scale[x] for x in combo]
        basis.append((piv, row, combo))
    raise ArithmeticError("no dependency found among matrix powers")  # unreachable


@dataclass(frozen=True)
class ClassifyRecord:
    """All the class memberships of one matrix, computed from scratch."""

    rank: int
    invertible: bool
    nilpotent: bool
    projection: bool
    diagonalizable: bool
    cyclic: bool
    semisimple: bool
    separable: bool
    linear_derangement: bool
    projective_derangement: bool
    power_identity: dict[int, bool]
    min_poly: tuple[int, ...]
    char_poly: tuple[int, ...]


def classify(A: FqMatrix, ks=DEFAULT_POWERS) -> ClassifyRecord:
    field = A.field
    n = A.n
    q = field.q
    ks = tuple(ks)
    rank, det = _rank_det(field, n, A.entries)
    invertible = rank == n
    top = max((*ks, n, q)) if ks else max(n, q)
    powers = matrix_powers(A, top)
    ident = powers[0]
    nilpotent = not any(powers[n])
    projection = powers[2] == A.entries
    diagonalizable = powers[q] == A.entries
    power_identity = {k: powers[k] == ident for k in ks}
    linear_derangement = bool(det) and _det_shifted(field, n, A.entries, 1) != 0
    projective_derangement = bool(det) and all(
        _det_shifted(field, n, A.entries, lam) for lam in range(1, q)
    )
    mp = min_poly(A, powers[: n + 1])
    cp = char_poly(A)
    return ClassifyRecord(
        rank=rank,
        invertible=invertible,
        nilpotent=nilpotent,
        projection=projection,
        diagonalizable=diagonalizable,
        cyclic=len(mp) - 1 == n,
        semisimple=squarefree_test(mp, field),
        separable=squarefree_test(cp, field),
        linear_derangement=linear_derangement,
        projective_derangement=projective_derangement,
        power_identity=power_identity,
        min_poly=mp,
        char_poly=cp,
    )


def _z_q_minus_z(field: FieldSpec) -> tuple[int, ...]:
    coeffs = [0] * (field.q + 1)
    coeffs[1] = field.neg_table[1]
    coeffs[field.q] = 1
    return poly_trim(coeffs)


def record_consistent(field: FieldSpec, n: int, rec: ClassifyRecord) -> bool:
    """Internal coherence of one classification record.

    Checks the implications that hold for every matrix: projections are
    diagonalizable, diagonalizable matrices are semi-simple, separable
    means cyclic and semi-simple, nothing nilpotent is invertible, the
    minimal polynomial divides the characteristic one, and satisfying
    A^q = A is the same as the minimal polynomial dividing z^q - z.
    """
    if rec.projection and not rec.diagonalizable:
        return False
    if rec.diagonalizable and not rec.semisimple:
        return False
    if rec.separable != (rec.cyclic and rec.semisimple):
        return False
    if rec.nilpotent and rec.invertible:
        return False
    if poly_divmod(rec.char_poly, rec.min_poly, field)[1]:
        return False
    divides = not poly_divmod(_z_q_minus_z(field), rec.min_poly, field)[1]
    if rec.diagonalizable != divides:
        return False
    return True


def _entry_tuples(q: int, nn: int, start: int = 0, stop: int | None = None):
    """Entry tuples of the matrix codes start .. stop - 1, in code order.

    product() varies its last slot fastest, so each tuple is reversed to
    put entry 0, the least significant base-q digit, first.
    """
    return (t[::-1] for t in islice(product(range(q), repeat=nn), start, stop))


def enumerate_matrices(q: int, n: int, budget: int = DEFAULT_ENUM_BUDGET):
    """Yield every n x n matrix over F_q in code order."""
    field = field_for(q)
    size = q ** (n * n)
    if size > budget:
        raise BudgetExceeded(size, budget)

    return (FqMatrix(field, n, entries) for entries in _entry_tuples(q, n * n))


def count_matching(
    q: int, n: int, predicate, budget: int = DEFAULT_ENUM_BUDGET
) -> int:
    """Number of matrices satisfying an arbitrary predicate, by full sweep."""
    return sum(1 for A in enumerate_matrices(q, n, budget) if predicate(A))


@dataclass(frozen=True)
class SweepResult:
    """Aggregate tallies of one exhaustive classification sweep."""

    q: int
    n: int
    total: int
    invertible: int
    nilpotent: int
    projection: int
    diagonalizable: int
    cyclic: int
    semisimple: int
    separable: int
    linear_derangement: int
    projective_derangement: int
    rank: tuple[int, ...]
    power_identity: dict[int, int]
    consistency_violations: int


_FLAG_FIELDS = (
    "invertible",
    "nilpotent",
    "projection",
    "diagonalizable",
    "cyclic",
    "semisimple",
    "separable",
    "linear_derangement",
    "projective_derangement",
)


def _sweep_range(q, n, ks, start, stop, check):
    field = field_for(q)
    flags = {name: 0 for name in _FLAG_FIELDS}
    rank_hist = [0] * (n + 1)
    power_hits = {k: 0 for k in ks}
    violations = 0
    for entries in _entry_tuples(q, n * n, start, stop):
        rec = classify(FqMatrix(field, n, entries), ks)
        for name in _FLAG_FIELDS:
            if getattr(rec, name):
                flags[name] += 1
        rank_hist[rec.rank] += 1
        for k in ks:
            if rec.power_identity[k]:
                power_hits[k] += 1
        if check and not record_consistent(field, n, rec):
            violations += 1
    return flags, rank_hist, power_hits, violations


def sweep_counts(
    q: int,
    n: int,
    ks=DEFAULT_POWERS,
    budget: int = DEFAULT_ENUM_BUDGET,
    jobs: int = 1,
    check: bool = True,
) -> SweepResult:
    """Classify every matrix in M_n(F_q) and tally all class memberships.

    With jobs > 1 the code range is split into contiguous chunks processed
    by worker processes, at most one per CPU; tallies are summed, so the
    result does not depend on the job count.
    """
    size = q ** (n * n)
    if size > budget:
        raise BudgetExceeded(size, budget)
    ks = tuple(ks)
    field_for(q)  # validate q before forking
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or size < 4096:
        parts = [_sweep_range(q, n, ks, 0, size, check)]
    else:
        bounds = [size * i // jobs for i in range(jobs + 1)]
        args = [
            (q, n, ks, bounds[i], bounds[i + 1], check)
            for i in range(jobs)
            if bounds[i] < bounds[i + 1]
        ]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(len(args)) as pool:
            parts = pool.starmap(_sweep_range, args)
    flags = {name: 0 for name in _FLAG_FIELDS}
    rank_hist = [0] * (n + 1)
    power_hits = {k: 0 for k in ks}
    violations = 0
    for pflags, prank, ppower, pviol in parts:
        for name in _FLAG_FIELDS:
            flags[name] += pflags[name]
        for i, v in enumerate(prank):
            rank_hist[i] += v
        for k in ks:
            power_hits[k] += ppower[k]
        violations += pviol
    return SweepResult(
        q=q,
        n=n,
        total=size,
        rank=tuple(rank_hist),
        power_identity=power_hits,
        consistency_violations=violations,
        **flags,
    )


def _gl_with_inverses(field: FieldSpec, n: int):
    q = field.q
    out = []
    for A in enumerate_matrices(q, n, budget=q ** (n * n)):
        inv = _invert(field, n, A.entries)
        if inv is not None:
            out.append((A.entries, inv))
    return out


def conjugacy_orbit_sizes(
    q: int,
    n: int,
    restrict_gl: bool = False,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> list[int]:
    """Sizes of all conjugation orbits on M_n (or on GL_n), by direct sweep.

    For each unvisited code the whole orbit {g A g^-1} is generated from
    the full invertible group and marked; the per-orbit mark count is the
    orbit size, so the sizes arrive in order of smallest representative.
    """
    field = field_for(q)
    nn = n * n
    size = q**nn
    gamma = gl_order(q, n)
    if gamma * size > pair_budget:
        raise BudgetExceeded(gamma * size, pair_budget)
    add = field.add_table
    mul = field.mul_table
    gl = _gl_with_inverses(field, n)
    qpow = [q**i for i in range(nn)]
    visited = bytearray(size)
    sizes = []
    for code, a in enumerate(_entry_tuples(q, nn)):
        if not visited[code]:
            if restrict_gl and _rank_det(field, n, a)[0] < n:
                visited[code] = 1
            else:
                orbit = 0
                for g, ginv in gl:
                    b = _mat_mul(n, _mat_mul(n, g, a, add, mul), ginv, add, mul)
                    bc = 0
                    for i in range(nn):
                        if b[i]:
                            bc += b[i] * qpow[i]
                    if not visited[bc]:
                        visited[bc] = 1
                        orbit += 1
                sizes.append(orbit)
    return sizes


def conjugacy_class_count(
    q: int,
    n: int,
    restrict_gl: bool = False,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> int:
    return len(conjugacy_orbit_sizes(q, n, restrict_gl, pair_budget))


def min_centralizer_order(q: int, n: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Smallest conjugation centralizer order among invertible matrices.

    Scans all pairs (A, g) in GL_n x GL_n counting the g that commute with
    each A; the smallest count wins.
    """
    field = field_for(q)
    gamma = gl_order(q, n)
    if gamma * gamma > pair_budget:
        raise BudgetExceeded(gamma * gamma, pair_budget)
    add = field.add_table
    mul = field.mul_table
    gl = [g for g, _ in _gl_with_inverses(field, n)]
    best = None
    for a in gl:
        count = 0
        for g in gl:
            if _mat_mul(n, g, a, add, mul) == _mat_mul(n, a, g, add, mul):
                count += 1
        if best is None or count < best:
            best = count
    if best is None:
        raise ArithmeticError("empty invertible group")  # unreachable for q >= 2
    return best


def max_class_size(q: int, n: int, pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Largest conjugacy class size in GL_n, via the smallest centralizer."""
    return gl_order(q, n) // min_centralizer_order(q, n, pair_budget)
