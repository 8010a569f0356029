"""Finite fields F_{p^e} with dense arithmetic tables, polynomials over them,
and the integer number theory they rest on.

Field elements are plain ints 0 .. q-1: the base-p digits of an element are
the coefficients of its polynomial representative modulo the field modulus,
least significant digit first.  Polynomials over a field are tuples of
element codes, constant term first, with no trailing zeros (the zero
polynomial is the empty tuple).  One polynomial arithmetic, the poly_*
functions, serves every field: over F_p it builds the tables of F_{p^e}.

The number theory: a primality test that proves what it accepts, field
sizes as prime powers (PrimePower.of), factoring by trial division and
Pollard's rho, and one necklace (Moebius) sum, _necklace, behind both
tallies of irreducible factors by degree: nu_d (irreducible_poly_count)
and the factors of z^k - 1 (root_of_one_factor_counts), which
cyclotomic_factor_counts tallies again by the orders of q mod m | k.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache
from math import gcd, prod

from .scaled import exact_div


class NotCoprime(ValueError):
    """Multiplicative order is undefined when gcd(q, m) > 1."""


class ZeroPolynomial(ValueError):
    """The zero polynomial was given where a nonzero one is required."""


# ---------------------------------------------------------------------------
# integer number theory


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


class PrimePower(namedtuple("PrimePower", "p e q")):
    """A field size q = p**e with p prime and e >= 1, equal only to a
    PrimePower of the same (p, e, q)."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def of(cls, q: int) -> PrimePower:
        if q < 2:
            raise ValueError(f"field size must be at least 2, got {q}")
        # q is a prime power for at most one e: the one whose root is prime.
        # A prime q, the common case, takes one test and no roots.
        if is_prime(q):
            return cls(q, 1, q)
        for e in range(q.bit_length(), 1, -1):
            p = _int_root(q, e)
            if p > 1 and p**e == q and is_prime(p):
                return cls(p, e, q)
        raise ValueError(f"field size must be a prime power, got {q}")


def _prime_factors(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n, p ascending: trial
    division below 2^10, then Pollard's rho splits what is left, if 2^20 or
    more, until each part passes is_prime (which raises past its proven
    range)."""
    if n < 1:
        raise ValueError(f"expected an integer n >= 1, got {n}")
    factors = []
    p = 2
    while p < 1 << 10 and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    # what is left has no prime factor below 2^10: below 2^20 it is 1 or prime
    if n < 1 << 20:
        return factors + [(n, 1)] * (n > 1)
    large: dict[int, int] = {}
    parts = [n]
    while parts:
        m = parts.pop()
        if is_prime(m):
            large[m] = large.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            parts += (d, m // d)
    return factors + sorted(large.items())


# steps of the rho walk between two gcds
_RHO_BATCH = 128


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n, which has no prime factor below
    2^10: Pollard's rho with Brent's cycle finding (R. P. Brent, BIT 20,
    1980) on x -> x^2 + c from x = 2, for c = 1, 2, ... until a walk splits n.

    A walk multiplies the differences x - y of a batch together mod n and
    takes one gcd per batch; a batch whose gcd is n is stepped again one
    difference at a time.  The walk mod a prime p | n cycles within about
    sqrt(p) steps, so the cost follows the smallest prime of n.
    """
    c = 0
    while True:
        c += 1
        y, r, g, product = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                start = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                g = gcd(product, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                start = (start * start + c) % n
                g = gcd(x - start, n)
        if g != n:
            return g


def divisors(n: int) -> list[int]:
    result = [1]
    for p, e in _prime_factors(n):
        result = [d * p**i for d in result for i in range(e + 1)]
    return sorted(result)


def moebius(n: int) -> int:
    factors = _prime_factors(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def euler_phi(n: int) -> int:
    return prod(p ** (e - 1) * (p - 1) for p, e in _prime_factors(n))


def _necklace(d: int, roots: Callable[[int], int], what: str, *at) -> int:
    """(1/d) sum over e | d of mu(d/e) roots(e), roots(e) counting the roots in
    F_(q^e) of a polynomial over F_q: its distinct irreducible factors of
    degree d.  NonIntegralCount(what.format(*at)) if d does not divide it."""
    return exact_div(sum(moebius(d // e) * roots(e) for e in divisors(d)), d, what, *at)


def irreducible_poly_count(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree d over F_q: the
    necklace sum over the q^e roots of z^(q^e) - z in F_(q^e)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return _necklace(d, lambda e: q**e, "irreducible count sum not divisible by {}", d)


def multiplicative_order(q: int, m: int) -> int:
    """Order of q in the unit group modulo m (m >= 1, gcd(q, m) = 1).

    The order divides phi(m), the group's order, so it is phi(m) with
    each prime p of phi(m) divided out while q^(order / p) is still 1:
    a few modular powers per prime instead of one step per power.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if gcd(q, m) != 1:
        raise NotCoprime(f"gcd({q}, {m}) != 1")
    order = euler_phi(m)
    for p, _ in _prime_factors(order):
        while order % p == 0 and pow(q, order // p, m) == 1:
            order //= p
    return order


def cyclotomic_factor_counts(q: int, k: int) -> dict[int, int]:
    """degree -> number of irreducible factors of z^k - 1 over F_q of that
    degree (gcd(k, q) = 1), ascending by degree.

    Each divisor m of k contributes phi(m) / ord_m(q) factors of degree
    ord_m(q), so the tally costs one order per divisor, however many
    factors there are.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    if gcd(q, k) != 1:
        raise NotCoprime(f"z^{k} - 1 is not square-free over F_{q}")
    counts: dict[int, int] = {}
    for m in divisors(k):
        d = multiplicative_order(q, m)
        counts[d] = counts.get(d, 0) + euler_phi(m) // d
    return dict(sorted(counts.items()))


def root_of_one_factor_counts(q: int, k: int, order: int) -> dict[int, int]:
    """degree d -> the number of distinct irreducible factors of z^k - 1
    over F_q of degree d, for d = 1 .. order (k >= 1).

    The roots of z^k - 1 in the cyclic group F_(q^e)^* number
    gcd(k, q^e - 1), so this is the necklace sum over those: its cost
    grows with order, not with k, which it never factors.
    """
    roots = [gcd(k, q**e - 1) for e in range(order + 1)]
    text = "the roots of z^{} - 1 of degree {} are not whole factors"
    return {d: _necklace(d, roots.__getitem__, text, k, d) for d in range(1, order + 1)}


# ---------------------------------------------------------------------------
# concrete fields


class FieldSpec:
    """Arithmetic for F_{p^e}, realized through dense add/mul/neg/inv tables.

    F_p's tables come straight from arithmetic mod p.  For e > 1 the
    tables are filled by the polynomial arithmetic of this module over
    F_p, reducing each product modulo the monic irreducible `modulus`.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        if len(modulus) != e + 1 or modulus[-1] != 1 or not all(0 <= c < p for c in modulus):
            raise ValueError(f"modulus must be monic of degree {e} over F_{p}")
        self.p = p
        self.e = e
        self.q = q = p**e
        self.modulus = modulus
        if e == 1:
            add = [[(x + y) % p for y in range(p)] for x in range(p)]
            mul = [[x * y % p for y in range(p)] for x in range(p)]
            neg = [-x % p for x in range(p)]
        else:
            base = build_field(p, 1)
            if not _is_irreducible(modulus, base):
                raise ValueError("modulus is reducible")
            polys = [poly_trim((x // p**i) % p for i in range(e)) for x in range(q)]
            code = {f: x for x, f in enumerate(polys)}
            add = [[0] * q for _ in range(q)]
            mul = [[0] * q for _ in range(q)]
            for x, fx in enumerate(polys):
                for y, fy in enumerate(polys[x:], x):
                    add[x][y] = add[y][x] = code[poly_add(fx, fy, base)]
                    prod = poly_divmod(poly_mul(fx, fy, base), modulus, base)[1]
                    mul[x][y] = mul[y][x] = code[prod]
            neg = [code[poly_neg(f, base)] for f in polys]
        self.add_table = add
        self.mul_table = mul
        self.neg_table = neg
        self.inv_table = [0] + [mul[x].index(1) for x in range(1, q)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.inv_table[a]

    def embed_int(self, n: int) -> int:
        """The image of the integer n in the prime subfield."""
        return n % self.p

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, e={self.e}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def build_field(p: int, e: int) -> FieldSpec:
    """F_{p^e} with the lexicographically smallest monic irreducible modulus."""
    if e <= 1:
        return FieldSpec(p, e, (0, 1))  # FieldSpec refuses a bad p or e
    base = build_field(p, 1)
    return FieldSpec(p, e, next(f for f in _monic(p, e) if _is_irreducible(f, base)))


def _monic(p: int, d: int):
    """Every monic polynomial of degree d over F_p, in order of its low digits."""
    for code in range(p**d):
        yield tuple((code // p**i) % p for i in range(d)) + (1,)


def _is_irreducible(f: tuple[int, ...], base: FieldSpec) -> bool:
    """Trial division of a monic f over F_p by the monic polynomials of
    degree 1 .. deg(f) // 2, the degrees a factor of a reducible f can take."""
    degrees = range(1, poly_degree(f) // 2 + 1)
    return all(poly_divmod(f, g, base)[1] for d in degrees for g in _monic(base.p, d))


def field_for(q: int) -> FieldSpec:
    pp = PrimePower.of(q)
    return build_field(pp.p, pp.e)


# ---------------------------------------------------------------------------
# polynomials over a FieldSpec (tuples of element codes, constant first)


def poly_trim(coeffs) -> tuple[int, ...]:
    data = list(coeffs)
    while data and data[-1] == 0:
        data.pop()
    return tuple(data)


def poly_degree(a: tuple[int, ...]) -> int:
    """Degree, with the zero polynomial assigned -1."""
    return len(a) - 1


def poly_add(a, b, field: FieldSpec) -> tuple[int, ...]:
    add = field.add_table
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(add[x][y])
    return poly_trim(out)

def poly_neg(a, field: FieldSpec) -> tuple[int, ...]:
    neg = field.neg_table
    return tuple(neg[c] for c in a)


def poly_mul(a, b, field: FieldSpec) -> tuple[int, ...]:
    if not a or not b:
        return ()
    add = field.add_table
    mul = field.mul_table
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        row = mul[x]
        for j, y in enumerate(b):
            if y:
                out[i + j] = add[out[i + j]][row[y]]
    return poly_trim(out)


def poly_scale(a, c: int, field: FieldSpec) -> tuple[int, ...]:
    if c == 0:
        return ()
    row = field.mul_table[c]
    return poly_trim(row[x] for x in a)


def poly_monic(a, field: FieldSpec) -> tuple[int, ...]:
    if not a:
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    lead = a[-1]
    if lead == 1:
        return tuple(a)
    return poly_scale(a, field.inv(lead), field)


def poly_divmod(a, b, field: FieldSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroPolynomial("polynomial division by zero")
    add = field.add_table
    mul = field.mul_table
    neg = field.neg_table
    inv_lead = field.inv(b[-1])
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        if rem[-1] == 0:
            rem.pop()
            continue
        factor = mul[rem[-1]][inv_lead]
        shift = len(rem) - len(b)
        quo[shift] = factor
        frow = mul[factor]
        for i, c in enumerate(b):
            if c:
                rem[shift + i] = add[rem[shift + i]][neg[frow[c]]]
        rem.pop()
    return poly_trim(quo), poly_trim(rem)


def poly_gcd(a, b, field: FieldSpec) -> tuple[int, ...]:
    """Monic greatest common divisor by the Euclidean algorithm."""
    a, b = poly_trim(a), poly_trim(b)
    if not a and not b:
        raise ZeroPolynomial("gcd of two zero polynomials")
    while b:
        _, r = poly_divmod(a, b, field)
        a, b = b, r
    return poly_monic(a, field)


def poly_derivative(a, field: FieldSpec) -> tuple[int, ...]:
    """Formal derivative; the scalar i acts through the prime subfield."""
    mul = field.mul_table
    out = []
    for i in range(1, len(a)):
        out.append(mul[field.embed_int(i)][a[i]])
    return poly_trim(out)


def squarefree_test(a, field: FieldSpec) -> bool:
    """True when a nonzero polynomial has no repeated irreducible factor."""
    a = poly_trim(a)
    if not a:
        raise ZeroPolynomial("square-free test of the zero polynomial")
    g = poly_gcd(a, poly_derivative(a, field), field) if len(a) > 1 else (1,)
    return poly_degree(g) == 0

