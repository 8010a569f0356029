"""Scaled integer series: the recurrence kernel of the cycle index.

A series a is carried on integers as A_n = a_n S_n, the scale S_n being
|GL_n(q)| (gl) or D_n = q^n prod_(i<=n) (q^i - 1), each the one before
times its scale step (scale_steps).  A product of two scaled series
weighs the pair of terms (k, n - k) by W(n, k) = S_n / (S_k S_(n-k)),
which is W(n, n - k) too: q^(k(n-k)) [n, k]_q for |GL_n|, [n, k]_q for
D_n.  No recurrence here forms it in whole: carry moves a term's
Gaussian binomial from n - 1 to n by an exact ratio of small integers,
and weighted_sum puts in the q^(k(n-k)) by Horner runs.

The exp, the unit log and Miller's power are one step (recur):

    Y_0 = first,  Y_n = finish(n, sum_(k=1..n) W(n, k) w_n(k) Y_(n-k)),

with T_j = [n, j]_q Y_j carried, j = n - k, and summed against the
weights, so a big Y_j meets small factors wherever the weights are small.

- exp: B_n = b_n S_n of b = exp(l), from L_k = k l_k S_k, takes
  w_n(k) = L_k and finish s / n.  b' = l' b reads n b_n =
  sum_(k=1..n) k l_k b_(n-k), which is the step times S_n.
- power: P_n = p_n S_n of p = f^c, c >= 1, from F_k = f_k S_k with
  f_0 = 1, takes w_n(k) = ((c + 1) k - n) F_k and finish s / n
  (J. C. P. Miller; Knuth, TAOCP vol. 2, sec. 4.7).  f p' = c f' p at
  u^(n-1) reads sum_(k=0..n-1) (n - k) f_k p_(n-k) =
  c sum_(k=1..n) k f_k p_(n-k); moving the terms k >= 1 of the left to
  the right leaves n p_n = sum_(k=1..n) ((c + 1) k - n) f_k p_(n-k).
- unit_log: G_m = m l_m |GL_m(Q)| of the log of e(v) =
  sum_m v^m / |GL_m(Q)| takes w = 1, first = 0 and finish m - s.
  e' = l' e reads m e_m = sum_(j=1..m) j l_j e_(m-j), and times
  |GL_m(Q)|, at which every e_j is 1, m = sum_(j=1..m) W(m, j) G_j.

An inexact division or carried ratio raises NonIntegralCount.  join
multiplies two scaled series, and lift moves a series in v = u^d to u.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import partial
from itertools import accumulate, islice
from operator import mul


class NonIntegralCount(ArithmeticError):
    """A coefficient that must be a count failed to be a non-negative integer."""


def scale_steps(q: int, gl: bool, one=1) -> Iterator:
    """S_n / S_(n-1) for n = 1, 2, ...: q^(n-1) (q^n - 1) for |GL_n(q)|
    when gl, else q (q^n - 1) for D_n; of the type of `one`, with q^(n-1)
    carried as a running product."""
    below = one
    while True:
        power = below * q
        yield (below if gl else q) * (power - 1)
        below = power


def scales(q: int, order: int, gl: bool) -> list[int]:
    """[S_0, ..., S_order]: |GL_n(q)| when gl, else D_n."""
    return list(accumulate(islice(scale_steps(q, gl), order), mul, initial=1))


def powers(q: int, top: int, one=1) -> list:
    """pw = [q^0, q^1, ..., q^top], each the one before times q, so of the
    type of `one`."""
    if top < 0:
        raise ValueError("dimension must be >= 0")
    pw = [one]
    for _ in range(top):
        pw.append(pw[-1] * q)
    return pw


def carry(terms: list[int], pw: list[int], n: int) -> None:
    """Move terms[k] = [n-1, k]_q X_k on to [n, k]_q X_k in place, for
    k = 1 .. n-1, by the ratio (q^n - 1) / (q^(n-k) - 1): one product and
    one exact division by small integers a term.  [n, 0]_q = 1 is never
    carried, and a new term X_m enters as [m, m]_q X_m = X_m."""
    up = pw[n] - 1
    for k in range(1, n):
        t, rem = divmod(terms[k] * up, pw[n - k] - 1)
        if rem:
            raise NonIntegralCount(f"a carried weight is not an integer at u^{n}")
        terms[k] = t


def weighted_sum(a: Sequence[int], b: Sequence[int], n: int, pw: list[int], gl: bool) -> int:
    """sum_(k=1..n) q^(k(n-k)) a[k] b[n-k] when gl, else the plain sum.

    The exponent e(k) = k(n-k) rises to k = n // 2 and falls after it, so
    two Horner runs apply it with small powers only: from k = n // 2 down
    to 1, acc q^(n - 2k - 1) + x_k, the result times q^(e(1)) = q^(n-1);
    and from n // 2 + 1 up to n, acc q^(2k - n - 1) + x_k, which ends at
    e(n) = 0.  Each step multiplies by at most q^(n-1).
    """
    if not gl:
        return sum(a[k] * b[n - k] for k in range(1, n + 1))
    half = n // 2
    low = 0
    if half:
        low = a[half] * b[n - half]
        for k in range(half - 1, 0, -1):
            low = low * pw[n - 2 * k - 1] + a[k] * b[n - k]
        low *= pw[n - 1]
    high = 0
    for k in range(half + 1, n + 1):
        high = high * pw[2 * k - n - 1] + a[k] * b[n - k]
    return low + high


def recur(
    first: int, weights: Callable, finish: Callable, order: int, pw: list[int], gl: bool
) -> list[int]:
    """[Y_0, ..., Y_order] of the kernel's step, w_n = weights(n)."""
    values, carried = [first], []
    for n in range(1, order + 1):
        carried.append(values[-1])
        carry(carried, pw, n)
        values.append(finish(n, weighted_sum(weights(n), carried, n, pw, gl)))
    return values


def _divided(what: str, n: int, s: int) -> int:
    """s / n, the exp's and the power's finish, which must be exact."""
    y, rem = divmod(s, n)
    if rem:
        raise NonIntegralCount(f"the {what} is not an integer at u^{n}")
    return y


def exp(log: Sequence[int], pw: list[int], gl: bool) -> list[int]:
    """B_n, n < len(log), of exp(l) from L_n = n l_n S_n, L_0 = 0."""
    return recur(1, lambda n: log, partial(_divided, "product"), len(log) - 1, pw, gl)


def power(c: int, coeffs: Sequence[int], pw: list[int], gl: bool) -> list[int]:
    """P_n, n < len(coeffs), of f^c, c >= 1, from F_k = f_k S_k, F_0 = 1."""

    def weights(n: int) -> list[int]:
        return [((c + 1) * k - n) * coeffs[k] for k in range(n + 1)]

    return recur(1, weights, partial(_divided, "power"), len(coeffs) - 1, pw, gl)


def unit_log(pw: list[int]) -> list[int]:
    """G_m, m < len(pw), of the log of sum_m v^m / |GL_m(Q)|, pw[i] = Q^i."""
    ones = [1] * len(pw)
    return recur(0, lambda m: ones, lambda m, s: m - s, len(pw) - 1, pw, True)


def join(a: list[int], x: list[int], pw: list[int], gl: bool) -> list[int]:
    """C_n = c_n S_n of c = a x, A_0 = X_0 = 1:
    C_n = A_n + sum_(k=1..n) W(n, k) X_k A_(n-k), [n, k]_q X_k carried."""
    terms, joined = [0], [1]
    for n in range(1, len(a)):
        carry(terms, pw, n)
        terms.append(x[n])
        joined.append(a[n] + weighted_sum(terms, a, n, pw, gl))
    return joined


def lift(series: list[int], d: int, q: int, outer: list[int], gl: bool, what: str) -> list[int]:
    """sum_m X_m v^m, v = u^d, X_m at S_m(q^d), as a series in u at
    outer = [S_0(q), ..., S_N(q)]: X_m times the index S_md(q) / S_m(q^d)
    at u^(md).  The index is an integer: GL_m(F_(q^d)) is a subgroup of
    GL_md(F_q), and D_md(q) / D_m(q^d) is the product of the q^i - 1,
    i <= md, that d does not divide.  An inexact one names `what`."""
    if d == 1:
        return series
    lifted = [0] * len(outer)
    for m, (x, s) in enumerate(zip(series, scales(q**d, (len(outer) - 1) // d, gl))):
        index, rem = divmod(outer[m * d], s)
        if rem:
            raise NonIntegralCount(f"the degree-{d} factors' {what} is not an integer at u^{m * d}")
        lifted[m * d] = x * index
    return lifted
