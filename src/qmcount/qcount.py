"""Closed-form exact counts of matrices and subspaces over a finite field.

Closed forms only, in exact arithmetic; the number theory, PrimePower
included, is ffpoly's.  Here are group orders, q-analogues of
factorials and binomial coefficients, and the matrix counts that have a
closed formula or a simple recursion (projections, diagonalizable
matrices, involutions in characteristic two, nilpotents, eigenvalue-free
matrices, and the rank triangle).  The triangles and their row sums are
built by small-step recurrences, each step a big number times a power of
q or a difference of two: the Gaussian binomials by q-Pascal
(gaussian_rows), the complement counts (complement_rows), the subspace
totals as Galois numbers (subspace_totals) and the projection counts by
their q-difference recurrence (projection_counts).  The rank triangle
(rank_rows) and the characteristic-two involutions
(involution_counts_char2) run along each row by the ratio of
neighbouring terms, one product and one exact division a term.  The
splitting counts come from e(u) = sum_m u^m / |GL_m|: the diagonalizable
counts, the ordered splittings into q eigenspaces, by the power
recurrence of e^q (diagonalizable_counts, by scaled.power, the power of
the unit series e that gfengine's finite products raise too), and the
q-Stirling triangle, the unordered splittings, a column at a time from
the one before over the complement counts (q_stirling_rows), whose row
sums are the q-Bell numbers (q_bell, the check of bell_counts, one exp
of e(u) - 1 that qbell reads).  The
scalar runs are running products: |GL_n| (GLOrderTable, by the kernel's
scale step; gl_order_factored is the check), the q-factorials
(q_factorials), q^(n^2 + shift n) (square_powers), the separable class
counts and the linear derangements.  gaussian_binomial, rank_count,
q_factorial, nilpotent_count, separable_class_count, projection_count
(the complement-row sum), involution_count_char2, and
diagonalizable_count and q_stirling (by the splitting joins) are the
per-value checks.  join, shared with classtypes, joins counts across
splittings, and partitions_of and centralizer_order give the conjugacy
classes whose sizes classtypes sums.

The tables and runs that a printed sequence reads are generic over the
number type: they build every value from a given `one` (the int 1 by
default) by sums, differences, products and exact divisions with ints, so
an exact decimal one gives exact decimal values, whose text takes linear
time where an int's takes quadratic.  Each exact division is the checked
scaled.exact_div, which raises NonIntegralCount on a remainder.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from math import comb, factorial, prod
from operator import mul

from . import scaled
from .ffpoly import PrimePower
from .scaled import exact_div


class CharNotTwo(ValueError):
    """The involution sum formula only holds in characteristic two."""


class CostExceeded(ValueError):
    """A request whose work model is above the fixed bound of its route."""


class BadKindParams(ValueError):
    """Unknown generating function or limit kind, or parameters that do not fit it."""


class GLOrderTable:
    """Memoized orders of the groups of invertible n x n matrices over F_q,
    of the type of `one`, extended one order at a time by the scale step
    |GL_m| = |GL_(m-1)| q^(m-1) (q^m - 1) (scaled.scale_steps)."""

    def __init__(self, q: int, one=1):
        self.q = q
        self._values = [one]
        self._steps = scaled.scale_steps(q, True, one)

    def value(self, n: int):
        if n < 0:
            raise ValueError("matrix size must be >= 0")
        while len(self._values) <= n:
            self._values.append(self._values[-1] * next(self._steps))
        return self._values[n]


_gl_tables: dict[int, GLOrderTable] = {}


def gl_order(q: int, n: int) -> int:
    """Number of invertible n x n matrices over F_q (the order of GL_n)."""
    table = _gl_tables.get(q)
    if table is None:
        table = _gl_tables[q] = GLOrderTable(q)
    return table.value(n)


def q_int(q: int, i: int) -> int:
    """The q-integer [i]_q = 1 + q + ... + q^(i-1)."""
    if i < 0:
        raise ValueError("q-integer index must be >= 0")
    return (q**i - 1) // (q - 1)


def q_factorial(q: int, n: int) -> int:
    """The q-factorial [n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1,
    multiplied pairwise so that big factors meet big ones."""
    terms = [q_int(q, i) for i in range(1, n + 1)]
    while len(terms) > 1:
        terms = [prod(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    return terms[0] if terms else 1


def q_factorials(q: int, N: int, one=1) -> list:
    """[[0]_q!, ..., [N]_q!] of the type of `one`, by the running product
    [n]_q! = [n-1]_q! [n]_q, with q^n carried and divided exactly into
    [n]_q = (q^n - 1) / (q - 1)."""
    power, facts = one, [one]
    for _ in range(N):
        power *= q
        facts.append(facts[-1] * ((power - 1) // (q - 1)))
    return facts


def gaussian_binomial(q: int, n: int, k: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    return exact_div(num, den)


def q_multinomial(q: int, parts: tuple[int, ...] | list[int]) -> int:
    """q-multinomial coefficient: flags with subquotient dimensions `parts`."""
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be >= 0")
    n = sum(parts)
    num = q_factorial(q, n)
    den = 1
    for p in parts:
        den *= q_factorial(q, p)
    return exact_div(num, den)


def gaussian_rows(q: int, N: int, one=1) -> list[list]:
    """Rows n = 0 .. N of the Gaussian binomials, row n = [[n, 0]_q, ..., [n, n]_q],
    of the type of `one`.

    Built by the q-Pascal rule [n, k] = [n-1, k-1] + q^k [n-1, k]
    (G. E. Andrews, The Theory of Partitions, ch. 3): n additions a row.
    """
    pw = scaled.powers(q, N, one)
    rows = [[one]]
    for n in range(1, N + 1):
        prev = rows[-1]
        rows.append([one] + [prev[k - 1] + pw[k] * prev[k] for k in range(1, n)] + [one])
    return rows


def complement_rows(q: int, N: int) -> list[list[int]]:
    """Rows m = 0 .. N of q^(a(m-a)) [m, a]_q = |GL_m| / (|GL_a| |GL_(m-a)|),
    the ordered pairs (U, W) of complementary subspaces of F_q^m with dim U = a.

    q^(a(m-a)) times the q-Pascal rule gives
    C(m, a) = q^(m-a) C(m-1, a-1) + q^(2a) C(m-1, a).
    """
    pw = scaled.powers(q, 2 * N)
    rows = [[1]]
    for m in range(1, N + 1):
        prev = rows[-1]
        rows.append(
            [1] + [pw[m - a] * prev[a - 1] + pw[2 * a] * prev[a] for a in range(1, m)] + [1]
        )
    return rows


def subspace_totals(q: int, N: int, one=1) -> list:
    """[G_0, ..., G_N] of the type of `one`, G_n the number of subspaces of
    F_q^n (the Galois numbers), by G_(n+1) = 2 G_n + (q^n - 1) G_(n-1)
    (Goldman and Rota, Studies in Appl. Math. 49, 1970)."""
    pw = scaled.powers(q, N, one)
    totals = [one, 2 * one][: N + 1]
    for n in range(1, N):
        totals.append(2 * totals[n] + (pw[n] - 1) * totals[n - 1])
    return totals


def subspace_total(q: int, n: int) -> int:
    """Total number of subspaces of F_q^n (sum of the Gaussian binomials)."""
    return subspace_totals(q, n)[n]


def rank_rows(q: int, N: int, one=1) -> list[list]:
    """Rows n = 0 .. N of the rank triangle, row n = [R(n, 0), ..., R(n, n)],
    of the type of `one`, R(n, k) = rank_count(q, n, n, k) the n x n
    matrices of rank k.

    A matrix of rank k is its image, one of [n, k]_q subspaces, times a
    surjection of F_q^n onto it, prod_(i<k) (q^n - q^i) of them.  So
    R(n, 0) = 1 and the row runs by its ratios,
    R(n, k) = R(n, k-1) (q^n - q^(k-1)) (q^(n-k+1) - 1) / (q^k - 1),
    one product and one exact division a cell.
    """
    pw = scaled.powers(q, N, one)
    less = [p - 1 for p in pw]  # q^i - 1
    rows = [[one]]
    for n in range(1, N + 1):
        row = [one]
        for k in range(1, n + 1):
            step = (pw[n] - pw[k - 1]) * less[n - k + 1]
            row.append(exact_div(row[-1] * step, less[k]))
        rows.append(row)
    return rows


def rank_count(q: int, m: int, n: int, k: int) -> int:
    """Number of m x n matrices over F_q of rank exactly k: [m, k]_q [n, k]_q |GL_k|."""
    if k < 0 or k > min(m, n):
        return 0
    return gaussian_binomial(q, m, k) * gaussian_binomial(q, n, k) * gl_order(q, k)


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n with parts descending, in reverse lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    result: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def walk(remaining: int, maxpart: int) -> None:
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            prefix.append(part)
            walk(remaining - part, part)
            prefix.pop()

    walk(n, n)
    return result


def centralizer_order(qd: int, partition) -> int:
    """Order of the automorphism group of the module with the given partition.

    For the primary piece of a matrix at one irreducible polynomial of
    degree d (so qd = q^d), with block-size partition lam, the conjugation
    centralizer of that piece has order

        prod over distinct part sizes i (multiplicity b_i) of
        prod_{k=1..b_i} (qd^(d_i) - qd^(d_i - k)),

    where d_i = sum_j min(i, lam_j): the parts below i, plus i for each
    part from i up.  Each factor is qd^(d_i - k) (qd^k - 1), so the order
    is qd^E prod_i prod_{k=1..b_i} (qd^k - 1) with
    E = sum_i (b_i d_i - b_i (b_i + 1) / 2), one power taken at the end.
    """
    mult = Counter(partition)
    if any(p < 1 for p in mult):
        raise ValueError("partition parts must be >= 1")
    result = 1
    exponent = below = 0
    from_i = sum(mult.values())
    for i in sorted(mult):
        b = mult[i]
        exponent += b * (below + i * from_i) - b * (b + 1) // 2
        for k in range(1, b + 1):
            result *= qd**k - 1
        below += i * b
        from_i -= b
    return result * qd**exponent


def join(a: list[int], b: Sequence[int], rows: Sequence[Sequence[int]], step: int = 1) -> list[int]:
    """sum_k rows[n][k] b_k a_(n-k) over k divisible by step, zero terms
    skipped, at each n < len(a).  With rows = complement_rows, it joins a
    count b_k on U to a count a_(n-k) on U' in each ordered splitting
    F_q^n = U + U' with dim U = k."""
    return [
        sum(rows[n][k] * b[k] * a[n - k] for k in range(0, n + 1, step) if b[k] and a[n - k])
        for n in range(len(a))
    ]


def _ordered_splittings(q: int, n: int, k: int) -> list[list[int]]:
    """Ordered splittings of F_q^m into j nonzero subspaces, as rows
    [S_j(0), ..., S_j(n)] for j = 0 .. k.

    A splitting with dimensions (n_1, ..., n_j) is counted
    gl_order(m) / prod gl_order(n_i) times.  Choosing the first part a
    gives S_j(m) = sum_{a >= 1} C(m, a) S_{j-1}(m - a), the join of
    S_(j-1) to one nonzero part over the complement counts C(m, a) of
    complement_rows.
    """
    if n < 0:
        raise ValueError("matrix size must be >= 0")
    first = complement_rows(q, n)
    part = [0] + [1] * n  # one nonzero subspace of each dimension a >= 1
    rows = [[1] + [0] * n]  # S_0(m): only the empty splitting of the zero space
    for _ in range(k):
        rows.append(join(rows[-1], part, first))
    return rows


def q_stirling(q: int, n: int, k: int) -> int:
    """Number of ways to split F_q^n as a direct sum of k nonzero subspaces.

    The ordered splitting count divided by the k! orderings of the parts.
    """
    if n < 0 or k < 1 or k > n:
        return 0
    return exact_div(_ordered_splittings(q, n, k)[k][n], factorial(k))


def q_stirling_rows(q: int, N: int) -> list[list[int]]:
    """Rows n = 0 .. N of the splitting triangle, row n = [S(n, 0), ..., S(n, n)].

    S(n, k) = q_stirling(q, n, k), except that S(0, 0) = 1 counts the empty
    splitting of the zero space.  Column k comes from column k - 1 by

        S(m, k) = (1/k) sum_(b=k-1..m-1) C(m, b) S(b, k - 1),

    C = complement_rows, one sum of products and one exact division a
    cell.  Proof: the ordered splittings into k nonzero parts, k! S(m, k)
    of them, are a last part U' of dimension m - b >= 1 with a complement
    U of dimension b, C(m, b) pairs (U, U') in all, and an ordered
    splitting of U into k - 1 nonzero parts, (k - 1)! S(b, k - 1) of them.
    """
    rows = complement_rows(q, N)
    cols = [[1] + [0] * N]  # S(m, 0): only the empty splitting of the zero space
    for k in range(1, N + 1):
        prev = cols[-1]
        cols.append(
            [0] * k
            + [
                exact_div(sum(map(mul, rows[m][k - 1 : m], prev[k - 1 : m])), k)
                for m in range(k, N + 1)
            ]
        )
    return [[col[n] for col in cols[: n + 1]] for n in range(N + 1)]


def q_bell(q: int, n: int) -> int:
    """Total number of direct sum decompositions of F_q^n into nonzero parts."""
    return sum(q_stirling_rows(q, n)[n])


def bell_counts(q: int, N: int) -> list[int]:
    """[B_0, ..., B_N], B_n = q_bell(q, n), by one exp (scaled.exp) at
    |GL_n|: a splitting into j nonzero parts is one of j! ordered ones, so
    sum_n B_n u^n / |GL_n| = exp(e(u) - 1), whose L_n is n."""
    return scaled.exp(list(range(N + 1)), scaled.powers(q, N), True)


def projection_count(q: int, n: int) -> int:
    """Number of n x n matrices P over F_q with P*P = P.

    A projection is determined by the ordered pair (image, kernel), which
    form a direct sum; summing the complement counts over the image
    dimension gives the total.
    """
    return sum(complement_rows(q, n)[n])


def projection_counts(q: int, N: int, one=1) -> list:
    """[P_0, ..., P_N] of the type of `one`, P_n = projection_count(q, n),
    by P_0 = 1, P_1 = 2 and, for n >= 1,

        P_(n+1) = (q^n + 1) P_n + q^n (q^n - 1) P_(n-1)
                  - q^(n-1) (q^n - 1) (q^(n-1) - 1) P_(n-2),

    the last term 0 at n = 1: three products of a big count and a small
    coefficient a step.

    Proof.  Let e(u) = sum_m u^m / |GL_m|.  |GL_m| = |GL_(m-1)| q^(m-1)
    (q^m - 1) gives e(q^2 u) - e(q u) = q u e(u).  A projection is an
    ordered (image, kernel) splitting, so P_n / |GL_n| = [u^n] Y(u) with
    Y = e^2.  Squaring e(q^2 u) = e(q u) + q u e(u) and its shift
    e(q^3 u) = e(q^2 u) + q^2 u e(q u), and eliminating e(u) e(q u)
    between them, gives

        Y(q^3 u) = (1 + q^2 u) Y(q^2 u) + q^2 u (1 + q^2 u) Y(q u) - q^4 u^3 Y(u).

    Its u^(n+1) coefficient, times |GL_n| / q^(n+2), is the recurrence.
    """
    pw = scaled.powers(q, N, one)
    counts = [one, 2 * one][: N + 1]
    for n in range(1, N):
        drop = pw[n] - 1
        step = (pw[n] + 1) * counts[n] + (pw[n] * drop) * counts[n - 1]
        if n > 1:
            step -= (pw[n - 1] * drop * (pw[n - 1] - 1)) * counts[n - 2]
        counts.append(step)
    return counts


def diagonalizable_counts(q: int, N: int) -> list[int]:
    """[D_0, ..., D_N], D_n the number of diagonalizable n x n matrices over
    F_q: the power step (scaled.power) of e(u)^q, e(u) = sum_m u^m / |GL_m|,
    whose coefficients are all 1 at |GL_m|.  The step reads

        n D_n = sum_(j=0..n-1) (q (n-j) - j) q^(j(n-j)) [n, j]_q D_j,

    one exact division by n a value.

    Proof.  A diagonalizable matrix is an ordered splitting of F_q^n into
    its eigenspaces, one per field element, zero spaces allowed, and a
    splitting with dimensions (n_1, ..., n_q) is counted |GL_n| / prod
    |GL_(n_i)| times.  So the series F(u) = sum_n f_n u^n, f_n = D_n /
    |GL_n|, is e^q, and Miller's recurrence for it, times |GL_n| with
    j = n - k, is the step above.  gfengine's diagonalizable series runs
    the same step; diagonalizable_count is the independent check, by the
    splitting joins, and so are the class types and the oracle.
    """
    return scaled.power(q, scaled.powers(q, N))


def diagonalizable_count(q: int, n: int) -> int:
    """Number of diagonalizable n x n matrices over F_q.

    Choosing which j of the q eigenvalues occur leaves an ordered
    splitting of F_q^n into j nonzero eigenspaces.
    """
    table = _ordered_splittings(q, n, min(n, q))
    return sum(comb(q, j) * row[n] for j, row in enumerate(table))


def involution_count_char2(q: int, n: int) -> int:
    """Number of n x n matrices A with A*A = I over F_q, q a power of two.

    In characteristic two an involution is I + N with N of square zero, so
    the count is a sum over the rank i of N of the conjugacy class sizes:
    gl_order(n) / (q^(i(2n-3i)) gl_order(i) gl_order(n-2i)).
    """
    pp = PrimePower.of(q)
    if pp.p != 2:
        raise CharNotTwo(f"field size {q} has odd characteristic")
    gn = gl_order(q, n)
    total = 0
    for i in range(n // 2 + 1):
        total += exact_div(
            gn, q ** (i * (2 * n - 3 * i)) * gl_order(q, i) * gl_order(q, n - 2 * i)
        )
    return total


def involution_counts_char2(q: int, N: int, one=1) -> list:
    """[involution_count_char2(q, n) for n = 0 .. N] of the type of `one`.

    Row n sums the class sizes t_i of I + N with N of rank i, from t_0 = 1
    by their ratios, t_i = t_(i-1) q^(i-1) (q^(n-2i+2) - 1) (q^(n-2i+1) - 1)
    / (q^i - 1), each division exact: the quotient of the class sizes at
    i and i - 1, with |GL_m| = |GL_(m-1)| q^(m-1) (q^m - 1) cancelled.
    """
    if PrimePower.of(q).p != 2:
        raise CharNotTwo(f"field size {q} has odd characteristic")
    pw = scaled.powers(q, N, one)
    less = [p - 1 for p in pw]  # q^i - 1
    counts = []
    for n in range(N + 1):
        term = total = one
        for i in range(1, n // 2 + 1):
            step = pw[i - 1] * less[n - 2 * i + 2] * less[n - 2 * i + 1]
            term = exact_div(term * step, less[i])
            total += term
        counts.append(total)
    return counts


def nilpotent_count(q: int, n: int) -> int:
    """Number of nilpotent n x n matrices over F_q: q^(n^2 - n)."""
    if n < 0:
        raise ValueError("matrix size must be >= 0")
    return q ** (n * n - n)


def square_powers(q: int, N: int, shift: int, one=1) -> list:
    """[q^(n^2 + shift n) for n = 0 .. N], shift 0 or -1, of the type of
    `one`: all n x n matrices (shift 0) or the nilpotent ones (shift -1).
    Each is the one before times q^(2n - 1 + shift), and that step grows
    by q^2."""
    step, values = one * q ** (1 + shift), [one]
    for _ in range(N):
        values.append(values[-1] * step)
        step *= q * q
    return values


def linear_derangement_counts(q: int, N: int, one=1) -> list:
    """[e_0, ..., e_N] of the type of `one`, e_n the number of invertible
    n x n matrices over F_q with no eigenvalue 1.

    Satisfies e_n = e_{n-1} (q^n - 1) q^(n-1) + (-1)^n q^(n(n-1)/2)
    with e_0 = 1; q^(n-1) and q^(n(n-1)/2) are carried as running
    products.
    """
    e = [one]
    power = tri = one  # q^(m-1) and q^((m-1)(m-2)/2) before step m
    for m in range(1, N + 1):
        tri *= power
        below, power = power, power * q
        term = e[-1] * ((power - 1) * below)
        e.append(term - tri if m % 2 else term + tri)
    return e


def linear_derangement_count(q: int, n: int) -> int:
    """Number of invertible n x n matrices over F_q with no eigenvalue 1."""
    return linear_derangement_counts(q, n)[-1]


def linear_derangement_reduced(q: int, n: int) -> int:
    """The quotient e_n / q^(n(n-1)/2): a_n = a_{n-1} (q^n - 1) + (-1)^n."""
    a = 1
    for m in range(1, n + 1):
        a = a * (q**m - 1) + (-1) ** m
    return a


def separable_class_count(q: int, n: int) -> int:
    """Number of square-free monic polynomials of degree n over F_q.

    Equals the number of conjugacy classes of n x n matrices whose
    characteristic polynomial is square-free: q for n = 1, and
    q^n - q^(n-1) for n >= 2.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return q
    return q**n - q ** (n - 1)


def separable_class_counts(q: int, N: int, one=1) -> list:
    """[separable_class_count(q, n) for n = 1 .. N] of the type of `one`,
    each the difference of a running power of q and the power before it."""
    power, counts = one, []
    for n in range(1, N + 1):
        below, power = power, power * q
        counts.append(power if n == 1 else power - below)
    return counts


def gl_order_factored(q: int, n: int) -> int:
    """gl_order computed a second way: (q-1)^n * q^binom(n,2) * [n]_q!.

    Kept as an independent route for cross-checking the product formula.
    """
    return (q - 1) ** n * q ** comb(n, 2) * q_factorial(q, n)
