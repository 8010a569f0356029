"""Scaled integer series: the recurrence kernel of the cycle index.

A series a is carried on integers as A_n = a_n S_n, the scale S_n being
|GL_n(q)| (gl) or D_n = q^n prod_(i<=n) (q^i - 1), each the one before
times its scale step (scale_steps).  A product of two scaled series
weighs the pair of terms (k, n - k) by W(n, k) = S_n / (S_k S_(n-k)),
which is W(n, n - k) too: q^(k(n-k)) [n, k]_q for |GL_n|, [n, k]_q for
D_n.  No recurrence here forms it in whole: the Gaussian binomial is
read off a half row or carried with a term, and weighted_sum puts in the
q^(k(n-k)) by one Horner run over the pairs.

The exp, B_n = b_n S_n of b = exp(l) from L_k = k l_k S_k, weighs each
pair once:

    n B_n = L_n + sum_(k<n/2) W(n, k) (L_k B_(n-k) + L_(n-k) B_k),

plus W(n, n/2) L_(n/2) B_(n/2) when n is even; b' = l' b reads
n b_n = sum_(k=1..n) k l_k b_(n-k), which is this over S_n.  Its
[n, k]_q, k <= n/2, come from a half row built from the one before by
q-Pascal (half_rows), with additions and products by powers of q only,
so the one division left is the checked finish s / n.  The exp's
weights L_k are as big as its values, so carrying B_j up to
[n, j]_q B_j would only make each big product bigger.

The unit log and Miller's power are one carried step (recur):

    Y_0 = first,  Y_n = finish(n, sum_(k=1..n) W(n, k) w_n(k) Y_(n-k)),

with T_j = [n, j]_q Y_j carried (carry), j = n - k, and summed against
weights that are small, so a big Y_j meets small factors only; join
carries its sparse second factor the same way.  Where one side of every
product is small or sparse, the carried form was measured faster than
the pairs, whose binomial then meets a big sum.

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

The finishes s / n, the carried ratios and lift's index are exact, and
each is checked.  exact_div is the one checked quotient of the integer
layers, which qcount, gfengine, classtypes and ffpoly call too: it raises
NonIntegralCount with a text that names where the division failed and
never an operand, which may be past the interpreter's limit on
int-to-text digits.  carry, the kernel's innermost loop at N^2 / 2 terms
a recurrence or join, checks its ratio inline, where a call would slow
the power step and every small series measurably.  join multiplies two
scaled series, and lift moves a series in v = u^d to u.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import accumulate, count, islice
from operator import mul


class NonIntegralCount(ArithmeticError):
    """A coefficient that must be a count failed to be a non-negative integer."""


def exact_div(a, b, what: str = "an exact division left a remainder", *at):
    """a // b for two ints or two integral Decimals, which must divide
    exactly; otherwise NonIntegralCount(what.format(*at)), the text built
    only when raising."""
    quotient, rem = divmod(a, b)
    if rem:
        raise NonIntegralCount(what.format(*at))
    return quotient


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
        # exact_div inline: a call here, N^2 / 2 times a recurrence, is measurable
        t, rem = divmod(terms[k] * up, pw[n - k] - 1)
        if rem:
            raise NonIntegralCount(f"a carried weight is not an integer at u^{n}")
        terms[k] = t


def weighted_sum(
    a: Sequence[int], b: Sequence[int], n: int, pw: list[int], gl: bool,
    half: list[int] | None = None,
) -> int:
    """sum_(k=1..n) q^(k(n-k)) a[k] b[n-k] when gl, else the plain sum;
    with a half row, half[k] = [n, k]_q for k <= n / 2, each term is
    weighted by [n, k]_q too.

    The weight of k is the weight of n - k, so the terms are taken in
    pairs, a[k] b[n-k] + a[n-k] b[k] for k < n / 2 and a[k] b[k] at
    k = n / 2, each pair weighted once.  The exponent e(k) = k(n-k) rises
    to k = n // 2, so one Horner run applies it with small powers only:
    from the top pair down to k = 1, acc q^(e(k+1) - e(k)) + pair k, the
    step being q^(n - 2k - 1); the result times q^(e(1)) = q^(n-1), plus
    a[n] b[0] at e(n) = 0.  Each step multiplies by at most q^(n-1).
    """
    pairs = [a[k] * b[n - k] + a[n - k] * b[k] for k in range(1, (n + 1) // 2)]
    if n % 2 == 0:
        pairs.append(a[n // 2] * b[n // 2])
    if half is not None:
        pairs = list(map(mul, islice(half, 1, None), pairs))
    if not gl:
        return sum(pairs) + a[n] * b[0]
    acc = pairs.pop() if pairs else 0
    for k in range(len(pairs), 0, -1):
        acc = acc * pw[n - 2 * k - 1] + pairs[k - 1]
    return acc * pw[n - 1] + a[n] * b[0]


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


def half_rows(pw: list[int]) -> Iterator[list[int]]:
    """[[n, 0]_q, ..., [n, n // 2]_q] for n = 0, 1, ..., each row from the
    one before by q-Pascal, [n, k] = [n-1, k-1] + q^k [n-1, k], reading
    [n-1, n/2] as [n-1, n/2 - 1] when n is even; row n reads pw[k] = q^k
    for k <= n // 2."""
    row = [1]
    for n in count(1):
        yield row
        row = [1] + [row[k - 1] + pw[k] * row[min(k, n - 1 - k)] for k in range(1, n // 2 + 1)]


def exp(log: Sequence[int], pw: list[int], gl: bool) -> list[int]:
    """B_n, n < len(log), of exp(l) from L_n = n l_n S_n, L_0 = 0:
    B_n = sum_(k=1..n) W(n, k) L_k B_(n-k) / n, each symmetric pair of
    terms weighted once by its half row's [n, k]_q."""
    values = [1]
    for n, half in zip(range(1, len(log)), islice(half_rows(pw), 1, None)):
        s = weighted_sum(log, values, n, pw, gl, half)
        values.append(exact_div(s, n, "the product is not an integer at u^{}", n))
    return values


def power(c: int, coeffs: Sequence[int], pw: list[int], gl: bool) -> list[int]:
    """P_n, n < len(coeffs), of f^c, c >= 1, from F_k = f_k S_k, F_0 = 1."""

    def weights(n: int) -> list[int]:
        return [((c + 1) * k - n) * coeffs[k] for k in range(n + 1)]

    finish = lambda n, s: exact_div(s, n, "the power is not an integer at u^{}", n)
    return recur(1, weights, finish, len(coeffs) - 1, pw, gl)


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
    text = "the degree-{} factors' {} is not an integer at u^{}"
    for m, (x, s) in enumerate(zip(series, scales(q**d, (len(outer) - 1) // d, gl))):
        lifted[m * d] = x * exact_div(outer[m * d], s, text, d, what, m * d)
    return lifted
