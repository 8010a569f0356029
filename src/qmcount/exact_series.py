"""Truncated formal power series over exact rationals, as values.

Every generating function in this package lives in one indeterminate u and
is kept only up to a fixed truncation order N: a series is the tuple of its
coefficients of u^0 .. u^N, each an exact Fraction.  gfengine builds every
series on scaled integers and hands it back as a TruncSeries
(gfengine.gf_build), so this module holds the value and no arithmetic:
its order, its coefficients, a shorter truncation, and equality.
"""

from __future__ import annotations

from fractions import Fraction


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

    Instances are immutable.
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

    def coeff(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} beyond truncation order {self.order}")
        return self.coeffs[i]

    def truncate(self, order: int) -> TruncSeries:
        if order > self.order:
            raise ValueError("cannot raise the truncation order of a series")
        return TruncSeries(self.coeffs[: order + 1], order)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncSeries(order={self.order}, [{shown}{tail}])"
