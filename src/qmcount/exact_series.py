"""Truncated formal power series over exact rationals.

Every generating function in this package lives in one indeterminate u and
is kept only up to a fixed truncation order N: a series is the tuple of its
coefficients of u^0 .. u^N, each an exact Fraction.  Arithmetic between
series of different orders truncates to the smaller of the two orders,
which is the behaviour wanted when an infinite product is multiplied out
factor by factor.

The kernels walk only the nonzero coefficients, so multiplying or
dividing by a sparse factor such as 1 - q u^r costs O(N).  Division,
recip and exp are one-pass recurrences, O(N * nnz).  Powers follow
J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), O(N * nnz) too and
independent of the exponent.

These kernels are the reference engine only.  Every generating function
gfengine serves is built on scaled integers and only handed back as a
TruncSeries (gfengine.gf_build); verify and the tests multiply each one
out here a second time, from gfengine.factor_series and
gfengine.nu_weighted_product, and compare.
"""

from __future__ import annotations

from fractions import Fraction


class ZeroConstantTerm(ZeroDivisionError):
    """Reciprocal of a series whose constant term is zero."""


class NonzeroConstantTerm(ValueError):
    """Exponential of a series whose constant term is not zero."""


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"series coefficients must be int or Fraction, got {type(value).__name__}"
    )


class TruncSeries:
    """A power series in u truncated at order N, with Fraction coefficients.

    Instances are immutable; every operation returns a new series.  Scalars
    (int or Fraction) mix freely with series in +, - and *, and divide them.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        data = [_coerce(c) for c in coeffs]
        if order is None:
            if not data:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(data) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(data) <= order:
            data.extend([Fraction(0)] * (order + 1 - len(data)))
        self.order: int = order
        self.coeffs: tuple[Fraction, ...] = tuple(data[: order + 1])

    @classmethod
    def zero(cls, order: int) -> TruncSeries:
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> TruncSeries:
        return cls((1,), order)

    @classmethod
    def monomial(cls, coeff, power: int, order: int) -> TruncSeries:
        """coeff * u^power truncated at order (zero series if power > order)."""
        if power < 0:
            raise ValueError("power must be >= 0")
        data = [Fraction(0)] * (order + 1)
        if power <= order:
            data[power] = _coerce(coeff)
        return cls(data, order)

    def coeff(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def truncate(self, order: int) -> TruncSeries:
        if order > self.order:
            raise ValueError("cannot raise the truncation order of a series")
        return TruncSeries(self.coeffs[: order + 1], order)

    def _promote(self, other):
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncSeries((other,), self.order)
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n
        )

    __radd__ = __add__

    def __neg__(self) -> TruncSeries:
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return other.__add__(-self)

    def _terms(self) -> list[tuple[int, Fraction]]:
        """The nonzero coefficients as (power, coefficient), by rising power."""
        return [(i, c) for i, c in enumerate(self.coeffs) if c]

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        right = other._terms()
        out = [Fraction(0)] * (n + 1)
        for i, ai in self._terms():
            if i > n:
                break
            for j, bj in right:
                if i + j > n:
                    break
                out[i + j] += ai * bj
        return TruncSeries(out, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other, other with a nonzero constant term.

        Solves other * out = self one coefficient at a time, walking only
        the nonzero coefficients of other: O(order * nnz(other)).
        """
        other = self._promote(other)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        terms = other._terms()
        if not terms or terms[0][0] != 0:
            raise ZeroConstantTerm("cannot divide by a series with zero constant term")
        d0, rest = terms[0][1], terms[1:]
        out = list(self.coeffs[: n + 1])
        for m in range(n + 1):
            s = out[m]
            for k, dk in rest:
                if k > m:
                    break
                s -= dk * out[m - k]
            out[m] = s if d0 == 1 else s / d0
        return TruncSeries(out, n)

    def __pow__(self, k):
        """self ** k by J.C.P. Miller's recurrence (Knuth, TAOCP 2, 4.7).

        With self = u^v (a_0 + a_1 u + ...), a_0 != 0, the power is
        u^(vk) (b_0 + b_1 u + ...) where b_0 = a_0^k and

            m a_0 b_m = sum_{i=1..m} ((k + 1) i - m) a_i b_(m-i),

        summed over the nonzero a_i only.  The cost does not depend on k.
        """
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative power: invert with recip() first")
        n = self.order
        if k == 0:
            return TruncSeries.one(n)
        terms = self._terms()
        if not terms or terms[0][0] * k > n:
            return TruncSeries.zero(n)
        v, a0 = terms[0]
        top = n - v * k
        rest = [(i - v, c) for i, c in terms[1:]]
        b = [a0**k]
        for m in range(1, top + 1):
            s = Fraction(0)
            for i, c in rest:
                if i > m:
                    break
                if b[m - i]:
                    s += ((k + 1) * i - m) * c * b[m - i]
            b.append(s / (m * a0))
        return TruncSeries([0] * (v * k) + b, n)

    def recip(self) -> TruncSeries:
        """Multiplicative inverse: 1 / self, by the division recurrence."""
        return TruncSeries.one(self.order) / self

    def exp(self) -> TruncSeries:
        """exp of a series with zero constant term.

        b = exp(a) satisfies b' = a' b, that is b_0 = 1 and
        m b_m = sum_{k=1..m} k a_k b_(m-k), summed over the nonzero a_k.
        """
        if self.coeffs[0] != 0:
            raise NonzeroConstantTerm("exp needs a zero constant term")
        n = self.order
        terms = [(k, k * a) for k, a in self._terms()]
        b = [Fraction(1)]
        for m in range(1, n + 1):
            s = Fraction(0)
            for k, ka in terms:
                if k > m:
                    break
                s += ka * b[m - k]
            b.append(s / m)
        return TruncSeries(b, n)

    def dilate(self, d: int) -> TruncSeries:
        """Substitute u -> u^d, keeping the same truncation order."""
        if d < 1:
            raise ValueError("dilation step must be >= 1")
        if d == 1:
            return self
        out = [Fraction(0)] * (self.order + 1)
        for i, c in enumerate(self.coeffs):
            if i * d > self.order:
                break
            out[i * d] = c
        return TruncSeries(out, self.order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncSeries(order={self.order}, [{shown}{tail}])"
