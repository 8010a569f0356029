"""The truncated power series value that gf_build returns."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qmcount.exact_series import TruncSeries


def test_construction_pads_and_truncates():
    s = TruncSeries([1, 2], 4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    t = TruncSeries([1, 2, 3, 4], 2)
    assert t.coeffs == (1, 2, 3)
    assert TruncSeries([5]).order == 0
    assert all(isinstance(c, Fraction) for c in s.coeffs)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        TruncSeries([])
    with pytest.raises(ValueError):
        TruncSeries([1], -1)
    with pytest.raises(TypeError):
        TruncSeries([1.5], 2)


def test_coeff_bounds():
    s = TruncSeries([1, 2, 3], 2)
    assert s.coeff(2) == 3
    with pytest.raises(IndexError):
        s.coeff(3)
    with pytest.raises(IndexError):
        s.coeff(-1)


def test_truncate_and_equality():
    a = TruncSeries([1, 2, 3, 4], 3)
    assert a.truncate(1) == TruncSeries([1, 2], 1)
    with pytest.raises(ValueError):
        a.truncate(5)
    assert hash(TruncSeries([1, 2], 3)) == hash(TruncSeries([1, 2, 0], 3))
    assert TruncSeries([1, 2], 3) != TruncSeries([1, 2], 4)


def test_repr_shows_the_order_and_the_first_coefficients():
    assert repr(TruncSeries([1, Fraction(1, 2)], 2)) == "TruncSeries(order=2, [1, 1/2, 0])"
    assert repr(TruncSeries(range(10))) == "TruncSeries(order=9, [0, 1, 2, 3, 4, 5, 6, 7, ...])"
