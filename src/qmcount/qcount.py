"""Closed-form exact counts of matrices and subspaces over a finite field.

Everything here is plain integer arithmetic: group orders, q-analogues
of factorials and binomial coefficients, and the matrix counts that have
a closed formula or a simple recursion (projections, diagonalizable
matrices, involutions in characteristic two, nilpotents, eigenvalue-free
matrices, and the rank triangle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial


class CharNotTwo(ValueError):
    """The involution sum formula only holds in characteristic two."""


def exact_div(a: int, b: int) -> int:
    """Integer quotient that insists the division is exact."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


# Miller-Rabin with the first 13 prime bases is a proof of primality below
# this bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test; ValueError where it would only be likely."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN_BOUND:
        raise ValueError(f"{n} is a probable prime beyond the proven range of the test")
    return True


def _int_root(n: int, e: int) -> int:
    """The largest r with r**e <= n, for n >= 1 (Newton's method from above)."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


@dataclass(frozen=True)
class PrimePower:
    """A field size q = p**e with p prime and e >= 1."""

    p: int
    e: int
    q: int

    @classmethod
    def of(cls, q: int) -> PrimePower:
        if q < 2:
            raise ValueError(f"field size must be at least 2, got {q}")
        # q is a prime power for at most one e: the one whose root is prime
        for e in range(q.bit_length(), 0, -1):
            p = _int_root(q, e)
            if p > 1 and p**e == q and is_prime(p):
                return cls(p, e, q)
        raise ValueError(f"field size must be a prime power, got {q}")


class GLOrderTable:
    """Memoized orders of the groups of invertible n x n matrices over F_q."""

    def __init__(self, q: int):
        self.q = q
        self._values: list[int] = [1]

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError("matrix size must be >= 0")
        while len(self._values) <= n:
            m = len(self._values)
            prod = 1
            qm = self.q**m
            for i in range(m):
                prod *= qm - self.q**i
            self._values.append(prod)
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
    """The q-factorial [n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    prod = 1
    for i in range(1, n + 1):
        prod *= q_int(q, i)
    return prod


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


def subspace_total(q: int, n: int) -> int:
    """Total number of subspaces of F_q^n (sum of the Gaussian binomials)."""
    return sum(gaussian_binomial(q, n, k) for k in range(n + 1))


def rank_count(q: int, m: int, n: int, k: int) -> int:
    """Number of m x n matrices over F_q of rank exactly k."""
    if k < 0 or k > min(m, n):
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= (q**m - q**i) * (q**n - q**i)
        den *= q**k - q**i
    return exact_div(num, den)


def _ordered_splittings(q: int, n: int, k: int) -> list[int]:
    """Ordered splittings of F_q^n into j nonzero subspaces, for j = 0 .. k.

    A splitting with dimensions (n_1, ..., n_j) is counted
    gl_order(n) / prod gl_order(n_i) times.  Choosing the first part a
    gives the convolution
    S_j(m) = sum_{a >= 1} gl_order(m) / (gl_order(a) gl_order(m - a)) S_{j-1}(m - a).
    """
    if n < 0:
        raise ValueError("matrix size must be >= 0")
    gl = [gl_order(q, m) for m in range(n + 1)]
    # first[m][a]: complementary pairs (U, W) in F_q^m with dim U = a
    first = [
        [exact_div(gl[m], gl[a] * gl[m - a]) for a in range(m + 1)]
        for m in range(n + 1)
    ]
    row = [1] + [0] * n  # S_0(m): only the empty splitting of the zero space
    out = [row[n]]
    for _ in range(k):
        row = [
            sum(first[m][a] * row[m - a] for a in range(1, m + 1)) for m in range(n + 1)
        ]
        out.append(row[n])
    return out


def q_stirling(q: int, n: int, k: int) -> int:
    """Number of ways to split F_q^n as a direct sum of k nonzero subspaces.

    The ordered splitting count divided by the k! orderings of the parts.
    """
    if n < 0 or k < 1 or k > n:
        return 0
    return exact_div(_ordered_splittings(q, n, k)[k], factorial(k))


def q_bell(q: int, n: int) -> int:
    """Total number of direct sum decompositions of F_q^n into nonzero parts."""
    splittings = _ordered_splittings(q, n, n)
    return sum(exact_div(s, factorial(k)) for k, s in enumerate(splittings))


def projection_count(q: int, n: int) -> int:
    """Number of n x n matrices P over F_q with P*P = P.

    A projection is determined by the ordered pair (image, kernel), which
    form a direct sum; summing the ordered splitting counts over the image
    dimension gives the total.
    """
    gn = gl_order(q, n)
    total = 0
    for k in range(n + 1):
        total += exact_div(gn, gl_order(q, k) * gl_order(q, n - k))
    return total


def diagonalizable_count(q: int, n: int) -> int:
    """Number of diagonalizable n x n matrices over F_q.

    A diagonalizable matrix is an ordered splitting of F_q^n into its
    eigenspaces, one per field element.  Choosing which j of the q
    eigenvalues occur leaves an ordered splitting into j nonzero parts.
    """
    splittings = _ordered_splittings(q, n, min(n, q))
    return sum(comb(q, j) * s for j, s in enumerate(splittings))


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


def nilpotent_count(q: int, n: int) -> int:
    """Number of nilpotent n x n matrices over F_q: q^(n^2 - n)."""
    if n < 0:
        raise ValueError("matrix size must be >= 0")
    return q ** (n * n - n)


def linear_derangement_count(q: int, n: int) -> int:
    """Number of invertible n x n matrices over F_q with no eigenvalue 1.

    Satisfies e_n = e_{n-1} (q^n - 1) q^(n-1) + (-1)^n q^(n(n-1)/2)
    with e_0 = 1.
    """
    e = 1
    for m in range(1, n + 1):
        e = e * (q**m - 1) * q ** (m - 1) + (-1) ** m * q ** (m * (m - 1) // 2)
    return e


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


def gl_order_factored(q: int, n: int) -> int:
    """gl_order computed a second way: (q-1)^n * q^binom(n,2) * [n]_q!.

    Kept as an independent route for cross-checking the product formula.
    """
    return (q - 1) ** n * q ** comb(n, 2) * q_factorial(q, n)
