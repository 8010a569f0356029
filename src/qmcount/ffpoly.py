"""Finite fields F_{p^e} with dense arithmetic tables, and polynomials over them.

Field elements are plain ints 0 .. q-1: the base-p digits of an element are
the coefficients of its polynomial representative modulo the field modulus,
least significant digit first.  Polynomials over a field are tuples of
element codes, constant term first, with no trailing zeros (the zero
polynomial is the empty tuple).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .qcount import PrimePower, is_prime


class NotCoprime(ValueError):
    """Multiplicative order is undefined when gcd(q, m) > 1."""


class ZeroPolynomial(ValueError):
    """The zero polynomial was given where a nonzero one is required."""


# ---------------------------------------------------------------------------
# integer number theory


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError("divisors need n >= 1")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def irreducible_poly_count(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree d over F_q.

    The necklace-style Moebius sum (1/d) * sum over e | d of mu(d/e) q^e.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for e in divisors(d):
        total += moebius(d // e) * q**e
    if total % d:
        raise ArithmeticError(f"irreducible count sum not divisible by {d}")
    return total // d


def multiplicative_order(q: int, m: int) -> int:
    """Order of q in the unit group modulo m (m >= 1, gcd(q, m) = 1)."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if gcd(q, m) != 1:
        raise NotCoprime(f"gcd({q}, {m}) != 1")
    if m == 1:
        return 1
    order = 1
    value = q % m
    while value != 1:
        value = value * q % m
        order += 1
    return order


def cyclotomic_factor_degrees(q: int, k: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of z^k - 1 over F_q (gcd(k, q) = 1).

    Each divisor m of k contributes phi(m) / ord_m(q) factors of degree
    ord_m(q).  Returned sorted ascending, with multiplicity.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    if gcd(q, k) != 1:
        raise NotCoprime(f"z^{k} - 1 is not square-free over F_{q}")
    degrees: list[int] = []
    for m in divisors(k):
        d = multiplicative_order(q, m)
        count = euler_phi(m) // d
        degrees.extend([d] * count)
    degrees.sort()
    return tuple(degrees)


# ---------------------------------------------------------------------------
# prime-field polynomial helpers used for the modulus search
# (coefficients are ints mod p, constant term first)


def _pf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pf_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b) and a:
        factor = a[-1] * inv_lead % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        _pf_trim(a)
    return a


def _pf_is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of lower positive degree."""
    deg = len(poly) - 1
    for d in range(1, deg):
        for code in range(p**d):
            trial = [(code // p**i) % p for i in range(d)] + [1]
            if not _pf_mod(poly, trial, p):
                return False
    return True


# ---------------------------------------------------------------------------
# concrete fields


class FieldSpec:
    """Arithmetic for F_{p^e}, realized through dense add/mul/neg/inv tables."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        if e > 1 and not _pf_is_irreducible(list(modulus), p):
            raise ValueError("modulus is reducible")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        q = self.q
        decode = [self._decode(x) for x in range(q)]
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for x in range(q):
            dx = decode[x]
            for y in range(x, q):
                dy = decode[y]
                s = self._encode([(a + b) % p for a, b in zip(dx, dy)])
                add[x][y] = add[y][x] = s
                prod = [0] * (2 * e - 1)
                for i, a in enumerate(dx):
                    if a:
                        for j, b in enumerate(dy):
                            prod[i + j] = (prod[i + j] + a * b) % p
                rem = _pf_mod(prod, list(modulus), p)
                rem += [0] * (e - len(rem))
                m = self._encode(rem)
                mul[x][y] = mul[y][x] = m
        self.add_table = add
        self.mul_table = mul
        self.neg_table = [self._encode([(-a) % p for a in decode[x]]) for x in range(q)]
        inv = [0] * q
        for x in range(1, q):
            row = mul[x]
            inv[x] = row.index(1)
        self.inv_table = inv

    def _decode(self, x: int) -> list[int]:
        return [(x // self.p**i) % self.p for i in range(self.e)]

    def _encode(self, coeffs: list[int]) -> int:
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.inv_table[a]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        result = 1
        while k:
            if k & 1:
                result = self.mul_table[result][a]
            k >>= 1
            if k:
                a = self.mul_table[a][a]
        return result

    def embed_int(self, n: int) -> int:
        """The image of the integer n in the prime subfield."""
        return n % self.p

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, e={self.e}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def build_field(p: int, e: int) -> FieldSpec:
    """F_{p^e} with the lexicographically smallest monic irreducible modulus."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if e == 1:
        return FieldSpec(p, 1, (0, 1))
    for code in range(p**e):
        low = [(code // p**i) % p for i in range(e)]
        modulus = tuple(low) + (1,)
        if _pf_is_irreducible(list(modulus), p):
            return FieldSpec(p, e, modulus)
    raise ArithmeticError("no irreducible modulus found")  # unreachable


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


def poly_sub(a, b, field: FieldSpec) -> tuple[int, ...]:
    return poly_add(a, poly_neg(b, field), field)


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


def poly_eval(a, x: int, field: FieldSpec) -> int:
    add = field.add_table
    mul = field.mul_table
    acc = 0
    for c in reversed(a):
        acc = add[mul[acc][x]][c]
    return acc
