"""Brute-force enumeration oracle for small matrix spaces.

Every n x n matrix over F_q is identified with an integer code: the flat
row-major entry list is read as a base-q number with entry (0,0) least
significant.  The oracle walks the full code range one conjugation orbit
at a time, classifies a member of each orbit from first principles (rank
elimination, explicit powers, characteristic and minimal polynomials), and
tallies the classes weighted by orbit size; every class it tallies is a
conjugation invariant.  The eigenvalues in F_q are the roots of the
characteristic polynomial, read off by evaluating it at every field
element, and they give the two derangement flags; the elimination gives
the rank only.  It exists to check the formula and generating
function routes on spaces small enough to sweep, so it favours directness
over cleverness, and it keeps the one-matrix-at-a-time tally
(per_matrix_counts) as the reference for the weighted one.

Three kernels carry the sweeps, all over the dense field tables:

* the characteristic polynomial reduces a copy of A to upper Hessenberg
  form H by similarity row and column operations, then reads det(zI - H)
  off the three-term recurrence of its leading principal minors
  (H. Cohen, A Course in Computational Algebraic Number Theory, 2.2.9);
* every matrix product has its left operand resolved once into
  (mul_table row, offset) pairs, so the powers A, A^2, ... share A's pairs;
* conjugation orbits are closures under conjugation by 2 + [q > 2]
  generators of GL_n (n >= 2), each a permutation of the codes stored
  once per walk as an array, so a step of the walk is one table lookup
  on an integer code.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import get_type_hints

from .ffpoly import (
    FieldSpec,
    field_for,
    poly_divmod,
    poly_trim,
    squarefree_test,
)
from .qcount import CostExceeded, gl_order

DEFAULT_ENUM_BUDGET = 1 << 24

# the k of every A^k = I flag that classify records
DEFAULT_POWERS = (2, 3, 4, 5, 6)


class BudgetExceeded(CostExceeded):
    """An exhaustive sweep would need more work than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"sweep covers {required} matrices, above the budget of {budget}"
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
    def _trusted(cls, field: FieldSpec, n: int, entries: tuple[int, ...]) -> FqMatrix:
        """Wrap an odometer entry tuple, which is valid by construction."""
        self = object.__new__(cls)
        self.field = field
        self.n = n
        self.entries = entries
        return self

    @classmethod
    def from_code(cls, field: FieldSpec, n: int, code: int) -> FqMatrix:
        q = field.q
        if not 0 <= code < q ** (n * n):
            raise ValueError(f"matrix code {code} out of range")
        return cls(field, n, _code_entries(q, n * n, code))

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
        n = self.n
        field = self.field
        terms = _left_terms(n, self.entries, field.mul_table)
        return FqMatrix(field, n, _mul_left(n, terms, other.entries, field.add_table))

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


def _code_entries(q: int, nn: int, code: int) -> tuple[int, ...]:
    """The nn base-q digits of a matrix code, entry 0 first."""
    entries = []
    for _ in range(nn):
        code, digit = divmod(code, q)
        entries.append(digit)
    return tuple(entries)


def _identity_entries(n: int) -> tuple[int, ...]:
    ent = [0] * (n * n)
    for i in range(n):
        ent[i * n + i] = 1
    return tuple(ent)


def _left_terms(n, a, mul):
    """The rows of a left operand as (mul_table row, offset) pairs.

    Row i lists one pair per nonzero entry a[i][t]: the multiplication
    table row of that entry and the offset t*n of row t of any right
    operand.  Zero entries are dropped, so they cost nothing later.
    """
    return [
        [(mul[x], t * n) for t, x in enumerate(a[i * n : (i + 1) * n]) if x]
        for i in range(n)
    ]


def _mul_left(n, terms, b, add):
    """The product a*b, with a given by its _left_terms pairs."""
    out = []
    for row in terms:
        for j in range(n):
            acc = 0
            for mrow, off in row:
                acc = add[acc][mrow[b[off + j]]]
            out.append(acc)
    return tuple(out)


def _rank(field: FieldSpec, n: int, entries) -> int:
    """Rank by Gaussian elimination on a working copy."""
    m = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
    add = field.add_table
    mul = field.mul_table
    neg = field.neg_table
    inv = field.inv_table
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if m[r][col]), None)
        if piv is None:
            continue
        m[piv], m[rank] = m[rank], m[piv]
        prow = m[rank]
        ipv = inv[prow[col]]
        for r in range(rank + 1, n):
            c = m[r][col]
            if c:
                frow = mul[mul[c][ipv]]
                rrow = m[r]
                for j in range(col, n):
                    if prow[j]:
                        rrow[j] = add[rrow[j]][neg[frow[prow[j]]]]
        rank += 1
    return rank


def _poly_at(f: tuple[int, ...], x: int, field: FieldSpec) -> int:
    """f(x) by Horner's rule, f constant term first."""
    add = field.add_table
    row = field.mul_table[x]
    acc = 0
    for c in reversed(f):
        acc = add[row[acc]][c]
    return acc


def matrix_powers(A: FqMatrix, top: int) -> list[tuple[int, ...]]:
    """[I, A, A^2, ..., A^top] as flat entry tuples."""
    n = A.n
    add = A.field.add_table
    terms = _left_terms(n, A.entries, A.field.mul_table)
    powers = [_identity_entries(n)]
    cur = powers[0]
    for _ in range(top):
        cur = _mul_left(n, terms, cur, add)
        powers.append(cur)
    return powers


def char_poly(A: FqMatrix) -> tuple[int, ...]:
    """Characteristic polynomial det(zI - A), monic, constant term first.

    A working copy is brought to upper Hessenberg form H (h[i][j] = 0 for
    i > j + 1) by similarity transforms: for each column c, a row swap and
    the matching column swap move a nonzero subdiagonal pivot to row c+1,
    then each row i > c+1 loses u times row c+1 while column c+1 gains u
    times column i, which is conjugation by I - u*E_(i,c+1).  The leading
    principal minors p_m = det(zI - H[:m, :m]) then satisfy

        p_(m+1) = (z - h[m][m]) p_m
                  - sum_(i<m) h[i][m] * h[i+1][i] ... h[m][m-1] * p_i,

    expanding det along its last column, and p_n is the answer.
    O(n^3) table operations in all.
    """
    field = A.field
    n = A.n
    add = field.add_table
    mul = field.mul_table
    neg = field.neg_table
    inv = field.inv_table
    h = list(A.entries)
    for c in range(n - 2):
        r = c + 1
        piv = r
        while piv < n and not h[piv * n + c]:
            piv += 1
        if piv == n:
            continue
        if piv != r:
            for j in range(c, n):
                h[piv * n + j], h[r * n + j] = h[r * n + j], h[piv * n + j]
            for k in range(n):
                h[k * n + piv], h[k * n + r] = h[k * n + r], h[k * n + piv]
        ipv = inv[h[r * n + c]]
        for i in range(r + 1, n):
            x = h[i * n + c]
            if x:
                u = mul[x][ipv]
                sub = mul[neg[u]]
                for j in range(c, n):
                    y = h[r * n + j]
                    if y:
                        h[i * n + j] = add[h[i * n + j]][sub[y]]
                gain = mul[u]
                for k in range(n):
                    y = h[k * n + i]
                    if y:
                        h[k * n + r] = add[h[k * n + r]][gain[y]]
    minors = [[1]]
    for m in range(n):
        prev = minors[m]
        cur = [0, *prev]
        shift = mul[neg[h[m * n + m]]]
        for k, y in enumerate(prev):
            if y:
                cur[k] = add[cur[k]][shift[y]]
        chain = 1
        for i in range(m - 1, -1, -1):
            chain = mul[chain][h[(i + 1) * n + i]]
            if not chain:
                break
            x = h[i * n + m]
            if x:
                sub = mul[neg[mul[x][chain]]]
                for k, y in enumerate(minors[i]):
                    if y:
                        cur[k] = add[cur[k]][sub[y]]
        minors.append(cur)
    return tuple(minors[n])


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


def classify(A: FqMatrix) -> ClassifyRecord:
    field = A.field
    n = A.n
    q = field.q
    rank = _rank(field, n, A.entries)
    powers = matrix_powers(A, max(*DEFAULT_POWERS, n, q))
    ident = powers[0]
    nilpotent = not any(powers[n])
    projection = powers[2] == A.entries
    diagonalizable = powers[q] == A.entries
    power_identity = {k: powers[k] == ident for k in DEFAULT_POWERS}
    mp = min_poly(A, powers[: n + 1])
    cp = char_poly(A)
    eigenvalues = {c for c in range(q) if not _poly_at(cp, c, field)}
    return ClassifyRecord(
        rank=rank,
        invertible=rank == n,
        nilpotent=nilpotent,
        projection=projection,
        diagonalizable=diagonalizable,
        cyclic=len(mp) - 1 == n,
        semisimple=squarefree_test(mp, field),
        separable=squarefree_test(cp, field),
        linear_derangement=not eigenvalues & {0, 1},
        projective_derangement=not eigenvalues,
        power_identity=power_identity,
        min_poly=mp,
        char_poly=cp,
    )


@functools.cache
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
    elimination finds A invertible exactly when det(A), the characteristic
    polynomial's constant term up to sign, is nonzero, the minimal
    polynomial divides the characteristic one, and satisfying A^q = A is
    the same as the minimal polynomial dividing z^q - z.
    """
    if rec.projection and not rec.diagonalizable:
        return False
    if rec.diagonalizable and not rec.semisimple:
        return False
    if rec.separable != (rec.cyclic and rec.semisimple):
        return False
    if rec.nilpotent and rec.invertible:
        return False
    if rec.invertible != (rec.char_poly[0] != 0):
        return False
    if poly_divmod(rec.char_poly, rec.min_poly, field)[1]:
        return False
    divides = not poly_divmod(_z_q_minus_z(field), rec.min_poly, field)[1]
    if rec.diagonalizable != divides:
        return False
    return True


def _entry_tuples(q: int, nn: int):
    """Entry tuples of every matrix code, in code order.

    product() varies its last slot fastest, so each tuple is reversed to
    put entry 0, the least significant base-q digit, first.
    """
    return (t[::-1] for t in product(range(q), repeat=nn))


def _space_field(q: int, n: int, budget: int) -> FieldSpec:
    """The tables of F_q, once the q^(n^2) matrices of M_n fit the budget.

    The budget is checked first: the tables grow with q.
    """
    size = q ** (n * n)
    if size > budget:
        raise BudgetExceeded(size, budget)
    return field_for(q)


def enumerate_matrices(q: int, n: int, budget: int = DEFAULT_ENUM_BUDGET):
    """Yield every n x n matrix over F_q in code order."""
    field = _space_field(q, n, budget)
    return (FqMatrix._trusted(field, n, e) for e in _entry_tuples(q, n * n))


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


# the class memberships that SweepResult tallies, in ClassifyRecord's order
_FLAG_FIELDS = tuple(name for name, t in get_type_hints(ClassifyRecord).items() if t is bool)


def _tally(q, n, weighted) -> SweepResult:
    """Sum (weight, record, consistent) triples into a SweepResult.

    Each triple stands for `weight` matrices that share the record; an
    inconsistent triple adds its weight to the consistency violations.
    """
    flags = dict.fromkeys(_FLAG_FIELDS, 0)
    rank_hist = [0] * (n + 1)
    power_hits = dict.fromkeys(DEFAULT_POWERS, 0)
    total = violations = 0
    for weight, rec, consistent in weighted:
        total += weight
        for name in _FLAG_FIELDS:
            if getattr(rec, name):
                flags[name] += weight
        rank_hist[rec.rank] += weight
        for k in DEFAULT_POWERS:
            if rec.power_identity[k]:
                power_hits[k] += weight
        if not consistent:
            violations += weight
    return SweepResult(
        q=q,
        n=n,
        total=total,
        rank=tuple(rank_hist),
        power_identity=power_hits,
        consistency_violations=violations,
        **flags,
    )


def per_matrix_counts(q: int, n: int, budget: int = DEFAULT_ENUM_BUDGET) -> SweepResult:
    """sweep_counts by classifying every matrix, one at a time.

    The reference that the orbit-weighted tallies are checked against on
    small spaces: it uses no orbit walk and no conjugation invariance.
    """

    def classified(matrices):
        for A in matrices:
            rec = classify(A)
            yield 1, rec, record_consistent(A.field, n, rec)

    return _tally(q, n, classified(enumerate_matrices(q, n, budget)))


def orbit_census(
    q: int, n: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[SweepResult, list[tuple[int, bool]]]:
    """One orbit walk over M_n(F_q): the sweep tallies and every orbit.

    Every field of a ClassifyRecord is a conjugation invariant, so each
    orbit is classified once, at its representative, and weighted by its
    size.  The last member the walk found is classified too: a record
    that differs from the representative's, or one that fails
    record_consistent, adds the orbit's size to consistency_violations.
    The orbits come back as (size, invertible) in order of smallest code.
    The budget bounds the q^(n^2) matrices of the space.
    """
    field = _space_field(q, n, budget)
    classified = []
    for orbit, rep, last in _orbit_walk(field, n):
        rec = classify(FqMatrix._trusted(field, n, rep))
        consistent = record_consistent(field, n, rec) and (
            orbit == 1 or classify(FqMatrix._trusted(field, n, last)) == rec
        )
        classified.append((orbit, rec, consistent))
    orbits = [(orbit, rec.invertible) for orbit, rec, _ in classified]
    return _tally(q, n, classified), orbits


def sweep_counts(q: int, n: int, budget: int = DEFAULT_ENUM_BUDGET) -> SweepResult:
    """Tally every class membership over M_n(F_q), one orbit at a time.

    The tallies of orbit_census: the same numbers as classifying each of
    the q^(n^2) matrices (per_matrix_counts), from one classification per
    conjugacy class.
    """
    return orbit_census(q, n, budget)[0]


def _primitive_element(field: FieldSpec) -> int:
    """The smallest element code of multiplicative order q - 1."""
    mul = field.mul_table
    for w in range(2, field.q):
        x, order = w, 1
        while x != 1:
            x = mul[x][w]
            order += 1
        if order == field.q - 1:
            return w
    raise ArithmeticError(f"F_{field.q} has no primitive element")  # unreachable


def _sums(parts) -> list[int]:
    """Every sum t_0[v_0] + t_1[v_1] + ... of one term per part, v_0 fastest.

    The sum at position v_0 + len(t_0) * (v_1 + len(t_1) * (...)) is the
    one that takes term v_k of part k.
    """
    total = [0]
    for part in parts:
        total = [hi + lo for hi in part for lo in total]
    return total


def _fill(parts, typecode: str) -> array:
    """_sums(parts) as an array, built one chunk at a time.

    The lowest parts are summed into a list at least as long as the square
    root of the array, and each sum of the remaining parts adds that list,
    shifted, as one chunk, so no list as long as the array is made.
    """
    size = prod(map(len, parts))
    low, k = parts[0], 1
    while len(low) ** 2 < size:
        low = [hi + lo for hi in parts[k] for lo in low]
        k += 1
    if k == len(parts):
        return array(typecode, low)
    table = array(typecode)
    for h in _sums(parts[k:]):
        table.extend([h + lo for lo in low])
    return table


def _transvection_table(field: FieldSpec, n: int, typecode: str) -> array:
    """Conjugation by t = I + E_01 (n >= 2) as a table on codes.

    t B t^-1 is B after row 0 gains row 1 and then column 1 loses column 0.
    A row r >= 2 only has digit 1 lose digit 0, a map `row` on the q^n row
    codes, so it adds the term row[v_r] * q^(rn).  Rows 0 and 1, with codes
    v_0 and v_1, become row[v_0 + v_1] and row[v_1], the sum taken entry by
    entry in F_q; they fill one table over the low 2n digits, one chunk of
    q^n codes per v_1.
    """
    q = field.q
    add = field.add_table
    neg = field.neg_table
    pair = [x0 + q * add[x1][neg[x0]] for x1 in range(q) for x0 in range(q)]
    row = _sums([pair] + [[x * q**j for x in range(q)] for j in range(2, n)])
    low = array(typecode)
    for v1, digits in enumerate(_entry_tuples(q, n)):
        shifted = _sums([[add[c][x] * q**j for x in range(q)] for j, c in enumerate(digits)])
        high = row[v1] * q**n
        low.extend([row[s] + high for s in shifted])
    return _fill([low] + [[v * q ** (r * n) for v in row] for r in range(2, n)], typecode)


def _monomial_table(field: FieldSpec, g: FqMatrix, typecode: str) -> array:
    """Conjugation by a monomial matrix g as a table on codes.

    With g e_j = s_j e_sigma(j), g B g^-1 has s_i B[i][j] / s_j at
    (sigma(i), sigma(j)): each entry moves and is scaled on its own, so row i
    of B adds a term of its own, a sum of one term per entry.
    """
    q = field.q
    n = g.n
    mul = field.mul_table
    inv = field.inv_table
    ent = g.entries
    sigma = [next(i for i in range(n) if ent[i * n + j]) for j in range(n)]
    scale = [ent[sigma[j] * n + j] for j in range(n)]
    rows = []
    for i in range(n):
        terms = []
        for j in range(n):
            factor = mul[mul[scale[i]][inv[scale[j]]]]
            place = q ** (sigma[i] * n + sigma[j])
            terms.append([factor[x] * place for x in range(q)])
        rows.append(_sums(terms))
    return _fill(rows, typecode)


def _generators(field: FieldSpec, n: int):
    """A generating set of GL_n(F_q), as (g, build) pairs.

    build() makes the conjugation table of g; see the end of this note.

    For n >= 2 the generators are t = I + E_01, the n-cycle c with
    c e_j = e_(j+1 mod n) and, for q > 2, d = diag(w, 1, ..., 1) with w
    primitive in F_q^*: 2 + [q > 2] matrices.  At n = 1 conjugation is
    trivial and d alone generates GL_1.  They generate GL_n.  Write
    t_ij(a) = I + a*E_ij for i != j, indices mod n.

    * c^k t_01(a) c^-k = t_(k,k+1)(a), since c E_ij c^-1 = E_(i+1,j+1).
    * d^k t_01(1) d^-k = t_01(w^k).  The powers of w are all of F_q^*, so
      every t_01(a) with a != 0, and by the cycle every t_(k,k+1)(a), is
      reached.  At q = 2 the only a is 1.
    * For distinct i, k, j the commutator t_ik(a) t_kj(1) t_ik(-a) t_kj(-1)
      is t_ij(a).  Taking k = j - 1 reaches t_ij(a) from pairs one step
      closer around the cycle, so every t_ij(a) is reached.
    * The transvections t_ij(a) generate SL_n (row additions reduce a
      matrix of determinant 1 to I).  For g in GL_n pick k with
      det g = w^k; then g d^-k lies in SL_n, so g is a word in the
      generators.  At q = 2, GL_n = SL_n.

    GL_n is finite, so each inverse is a positive power and the closure of
    A under conjugation by the generators alone is its whole orbit.

    Conjugation by g permutes the q^(n^2) matrix codes; its table holds
    the code of g B g^-1 at the code of B, in an array of four-byte codes
    (eight past 2^32 codes).  The tables cost 4 * (2 + [q > 2]) bytes per
    matrix: about 200 MB for (64, 2) at the default budget of 2^24.
    """
    q = field.q
    nn = n * n
    typecode = "I" if q**nn <= 1 << 32 else "Q"
    gens = []
    monomials = []
    if n > 1:
        t = list(_identity_entries(n))
        t[1] = 1
        gens.append(
            (FqMatrix(field, n, t), functools.partial(_transvection_table, field, n, typecode))
        )
        cycle = [0] * nn
        for j in range(n):
            cycle[(j + 1) % n * n + j] = 1
        monomials.append(cycle)
    if q > 2:
        d = list(_identity_entries(n))
        d[0] = _primitive_element(field)
        monomials.append(d)
    for entries in monomials:
        g = FqMatrix(field, n, entries)
        gens.append((g, functools.partial(_monomial_table, field, g, typecode)))
    return gens


def _orbit_walk(field: FieldSpec, n: int):
    """Yield (size, representative, last member found) for every orbit of M_n.

    Each unvisited code's orbit {g A g^-1 : g in GL_n} is its closure under
    the conjugation tables of _generators, walked on integer codes with a
    visited mark per code.  The next representative is the smallest
    unvisited code, so the orbits arrive in order of their smallest code;
    only the representative and the last member are decoded to entry
    tuples.  The walk always covers all q^(n^2) matrices, at
    4 * (2 + [q > 2]) + 1 bytes per matrix for the tables and the marks
    (about 220 MB for (64, 2) at the default budget); callers that want
    GL_n keep the orbits whose representative has full rank, a
    conjugation invariant.
    """
    q = field.q
    nn = n * n
    tables = [build() for _, build in _generators(field, n)]
    visited = bytearray(q**nn)
    code = 0
    while code >= 0:
        visited[code] = 1
        orbit = 1
        last = code
        stack = [code]
        while stack:
            b = stack.pop()
            for table in tables:
                e = table[b]
                if not visited[e]:
                    visited[e] = 1
                    orbit += 1
                    last = e
                    stack.append(e)
        yield orbit, _code_entries(q, nn, code), _code_entries(q, nn, last)
        code = visited.find(0, code + 1)


def conjugacy_orbit_sizes(
    q: int,
    n: int,
    restrict_gl: bool = False,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> list[int]:
    """Sizes of all conjugation orbits on M_n (or on GL_n), by one orbit walk.

    The sizes are in order of each orbit's smallest code.  The budget
    bounds the q^(n^2) matrices of the walked space.
    """
    field = _space_field(q, n, budget)
    return [
        orbit
        for orbit, rep, _ in _orbit_walk(field, n)
        if not restrict_gl or _rank(field, n, rep) == n
    ]


def max_class_size(q: int, n: int, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Largest conjugacy class size in GL_n, by the orbit walk."""
    return max(conjugacy_orbit_sizes(q, n, True, budget))


def min_centralizer_order(q: int, n: int, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Smallest centralizer order in GL_n: by orbit-stabilizer, the group
    order over the largest class."""
    return gl_order(q, n) // max_class_size(q, n, budget)
