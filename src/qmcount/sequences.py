"""Named counting sequences: routing, metadata, and output formats.

One table maps every public sequence name to its computing route (closed
formula, generating function extraction, or a knapsack over class types),
its natural first index, and its OEIS entry when one exists.  The emitters
render a computed run of values as plain text, JSON, or an OEIS b-file.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from typing import Callable, NamedTuple

from .gfengine import CostExceeded, gf_counts, min_centralizer_orders
from .qcount import (
    GLOrderTable,
    PrimePower,
    diagonalizable_counts,
    gaussian_rows,
    gl_order,
    involution_counts_char2,
    linear_derangement_counts,
    projection_counts,
    q_factorials,
    q_stirling_rows,
    rank_rows,
    separable_class_counts,
    square_powers,
    subspace_totals,
)


class UnsupportedSequence(ValueError):
    """A sequence/parameter combination with no computing route."""


# A closed-form request to max n = N over F_q scores N^e ceil(log2 q)^2.
# The exponents e were fitted to timings when every value printed as an
# int, whose text takes quadratic time, so that printing N values of about
# n^2 log2 q bits scored N^5 log2(q)^2 and routes with more products per
# value, or triangles, scored more.  The routes that build their values
# from `one` now print exact Decimals, whose text is linear, and every
# route runs far below its exponent.  The bound admits `seq invertible
# --q 2 --max-n 288`, `table rank_row --q 2 --max-n 112`, `seq qbell --q 2
# --max-n 57` and `table qstirling_row --q 2 --max-n 34`.  At its largest
# admitted n, at q = 2 and at q = 1000003, each route takes at most 0.16 s
# of process time in a fresh process (2-core Xeon host, three runs each):
# separable_classes 0.15 s to n = 12599 and 0.05 s to 1709, rank_row
# 0.05 s at both, the characteristic-two involutions 0.01 s (q = 2 and
# 1048576), and all, invertible, nilpotent, qfactorial, lin_derangement,
# qbinom_row, subspaces_total and projection 0.004-0.05 s; the splitting
# routes, on ints, diagonalizable 0.004-0.008 s and qstirling_row
# 0.008-0.01 s; and qbell, which reads the bell series, 0.007-0.009 s, its
# series guard at most 2% of MAX_SERIES_WORK wherever this bound admits
# it.  The exponents and the bound are kept only so that the admitted
# requests stay the same.
MAX_FORMULA_WORK = 2 * 10**12


def _check_formula_work(q: int, max_n: int, exponent: int) -> None:
    work = max(max_n, 0) ** exponent * (q - 1).bit_length() ** 2
    if work > MAX_FORMULA_WORK:
        raise CostExceeded(
            f"a closed-form run to n = {max_n} over F_{q} is beyond the cost "
            f"bound of {MAX_FORMULA_WORK} work units"
        )


_POWER_IDENTITY_OEIS = {
    (2, 2): "A053722",
    (3, 2): "A053846",
    (4, 2): "A053856",
    (2, 3): "A053725",
    (3, 3): "A053847",
    (4, 3): "A053857",
    (2, 4): "A053718",
    (3, 4): "A053848",
    (4, 4): "A053859",
    (2, 5): "A053770",
    (3, 5): "A053849",
    (4, 5): "A053860",
    (2, 6): "A053771",
    (3, 6): "A053851",
    (4, 6): "A053861",
    (2, 7): "A053772",
    (3, 7): "A053852",
    (4, 7): "A053862",
    (2, 8): "A053773",
    (3, 8): "A053853",
    (4, 8): "A053863",
    (2, 9): "A053774",
    (3, 9): "A053854",
    (2, 10): "A053775",
    (3, 10): "A053855",
    (2, 11): "A053776",
    (2, 12): "A053777",
}


class _Run(NamedTuple):
    """What a value route may read: one request, with max_n at least 0,
    and the `one` that sets the number type of the routes that build their
    values from it."""

    q: int
    k: int | None
    max_n: int
    one: int | Decimal


def _oeis(ids: dict[int, str], offset: int = 0):
    """OEIS rule: the entry catalogued for q, all starting at `offset`.

    A triangle's column k is not the catalogued entry, so it has none.
    """
    return lambda q, k: (ids[q], offset) if q in ids and k is None else None


def _power_identity_oeis(q: int, k: int | None):
    ident = _POWER_IDENTITY_OEIS.get((q, k))
    if ident is None:
        return None
    return ident, 0 if ident == "A053846" else 1


def _gf(kind: str):
    """Route through one cycle-index series, built once per request.

    Coefficient n of a truncated product never reads a factor beyond
    degree n, so the series is built to the largest n requested.
    """
    return lambda r: gf_counts(kind, r.q, r.max_n).__getitem__


def _power_identity(r: _Run):
    pp = PrimePower.of(r.q)
    if r.k % pp.p:
        return gf_counts("power_identity", r.q, r.max_n, r.k).__getitem__
    if r.k == 2 and pp.p == 2:
        _check_formula_work(r.q, r.max_n, 6)
        return involution_counts_char2(r.q, r.max_n, r.one).__getitem__
    raise UnsupportedSequence(
        f"no route for A^{r.k} = I over F_{r.q}: the characteristic divides k"
    )


def _separable_classes(r: _Run):
    counts = separable_class_counts(r.q, r.max_n, r.one)

    def value(n: int):
        if n < 1:
            raise ValueError("degree must be >= 1")
        return counts[n - 1]

    return value


def _min_centralizer(r: _Run):
    orders = min_centralizer_orders(r.q, r.max_n)

    def value(n: int) -> int:
        if n < 1:
            raise UnsupportedSequence("centralizer sequences start at n = 1")
        return orders[n]

    return value


def _max_class(r: _Run):
    smallest = _min_centralizer(r)
    return lambda n: gl_order(r.q, n) // smallest(n)


def _cells(rows: list[list[int]]):
    """A triangle's value function over its rows n = 0 .. N; zero beyond a row."""
    return lambda n, k: rows[n][k] if k <= n else 0


@dataclass(frozen=True)
class _Seq:
    """One catalogued sequence.

    Every route maps a request (_Run) to its value function: a function
    of n for a scalar, of (n, k) for a triangle, whose row n runs over k
    from first_col to n and is zero beyond.  The routes that print every
    value their table, recurrence or running product computes build it
    from r.one, projection and the characteristic-two involutions among
    them; the splitting routes (diagonalizable by the power recurrence
    of e(u)^q, qstirling_row by the unordered splitting step), whose
    recurrences run slower on Decimals than on ints, and the series
    routes, qbell's the bell series exp(e(u) - 1) among them, give ints.
    A triangle is read by rows, or by one column k; a scalar takes k only
    when it needs one.  Routes call module functions by name at call
    time, so a wrapper installed on a module attribute is the one called.
    A closed-form route names its work exponent for _check_formula_work;
    the series and knapsack routes (None) guard themselves, qbell both.
    """

    start: int
    route: Callable
    oeis: Callable[[int, int | None], tuple[str, int] | None] = lambda q, k: None
    first_col: int | None = None
    needs_k: bool = False
    work: int | None = None


_REGISTRY = {
    "all": _Seq(
        0,
        lambda r: square_powers(r.q, r.max_n, 0, r.one).__getitem__,
        _oeis({2: "A002416"}),
        work=5,
    ),
    "invertible": _Seq(
        0, lambda r: GLOrderTable(r.q, r.one).value, _oeis({2: "A002884"}), work=5
    ),
    "subspaces_total": _Seq(
        0,
        lambda r: subspace_totals(r.q, r.max_n, r.one).__getitem__,
        _oeis({q: f"A{6116 + q - 2:06d}" for q in range(2, 9)}),
        work=6,
    ),
    "qbell": _Seq(1, _gf("bell"), work=7),
    "qfactorial": _Seq(
        0,
        lambda r: q_factorials(r.q, r.max_n, r.one).__getitem__,
        _oeis({2: "A005329"}),
        work=5,
    ),
    "lin_derangement": _Seq(
        0,
        lambda r: linear_derangement_counts(r.q, r.max_n, r.one).__getitem__,
        _oeis({2: "A002820"}, 2),
        work=5,
    ),
    "proj_derangement": _Seq(0, _gf("projective_derangement")),
    "diagonalizable": _Seq(0, lambda r: diagonalizable_counts(r.q, r.max_n).__getitem__, work=7),
    "projection": _Seq(
        0,
        lambda r: projection_counts(r.q, r.max_n, r.one).__getitem__,
        _oeis({3: "A053846"}),
        work=6,
    ),
    # guarded inside the route: only its k = 2, q = 2^e branch is closed-form
    "power_identity": _Seq(0, _power_identity, _power_identity_oeis, needs_k=True),
    "nilpotent": _Seq(
        0,
        lambda r: square_powers(r.q, r.max_n, -1, r.one).__getitem__,
        _oeis({2: "A053763"}),
        work=5,
    ),
    "cyclic": _Seq(0, _gf("cyclic")),
    "semisimple": _Seq(0, _gf("semisimple")),
    "separable": _Seq(0, _gf("separable")),
    "separable_classes": _Seq(1, _separable_classes, work=3),
    "conjclasses_all": _Seq(0, _gf("conjclasses_all"), _oeis({2: "A070933"})),
    "conjclasses_gl": _Seq(
        0,
        _gf("conjclasses_gl"),
        _oeis({2: "A006951", 3: "A006952", 4: "A049314", 5: "A049315", 7: "A049316"}),
    ),
    "min_centralizer": _Seq(1, _min_centralizer, _oeis({2: "A082877"}, 1)),
    "max_class": _Seq(1, _max_class, _oeis({2: "A070731"}, 1)),
    "qbinom_row": _Seq(
        0,
        lambda r: _cells(gaussian_rows(r.q, r.max_n, r.one)),
        _oeis({q: f"A{22166 + q - 2:06d}" for q in range(2, 25)}),
        first_col=0,
        work=6,
    ),
    "qstirling_row": _Seq(
        1, lambda r: _cells(q_stirling_rows(r.q, r.max_n)), first_col=1, work=8
    ),
    "rank_row": _Seq(
        0, lambda r: _cells(rank_rows(r.q, r.max_n, r.one)), first_col=0, work=6
    ),
}

SCALAR_NAMES = tuple(name for name, e in _REGISTRY.items() if e.first_col is None)

TRIANGLE_NAMES = tuple(name for name, e in _REGISTRY.items() if e.first_col is not None)

SEQUENCE_NAMES = SCALAR_NAMES + TRIANGLE_NAMES


def oeis_info(name: str, q: int, k: int | None) -> tuple[str | None, int | None]:
    """OEIS id and that entry's starting index, when one is known."""
    return _REGISTRY[name].oeis(q, k) or (None, None)


@dataclass(frozen=True)
class SequenceSpec:
    """One fully resolved sequence request."""

    name: str
    q: int
    k: int | None
    min_n: int
    max_n: int
    oeis_id: str | None
    oeis_offset: int


def make_spec(
    name: str,
    q: int,
    k: int | None = None,
    min_n: int | None = None,
    max_n: int = 10,
    align_to_oeis: bool = False,
) -> SequenceSpec:
    if name not in SEQUENCE_NAMES:
        raise UnsupportedSequence(f"unknown sequence name {name!r}")
    PrimePower.of(q)
    entry = _REGISTRY[name]
    if entry.needs_k:
        if k is None:
            raise UnsupportedSequence(f"{name} needs the exponent k")
        if k < 1:
            raise UnsupportedSequence("the exponent k must be >= 1")
    elif k is not None and entry.first_col is None:
        raise UnsupportedSequence(f"sequence {name!r} does not take k")
    start = entry.start
    ident, offset = oeis_info(name, q, k)
    if offset is None:
        offset = start
    if min_n is None:
        min_n = offset if align_to_oeis else start
    if min_n < 0:
        raise UnsupportedSequence("min_n must be >= 0")
    # max_n below min_n is allowed and yields an empty run of values
    return SequenceSpec(name, q, k, min_n, max_n, ident, offset)


def _exact_context() -> Context:
    """A decimal context in which +, -, * and // of integers never round:
    any result that would is refused with Inexact."""
    return Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])


def sequence_values(spec: SequenceSpec, one: int | Decimal = 1) -> list:
    """Values for n = min_n .. max_n: a scalar's, a triangle's column k,
    or, when k is None, a triangle's rows as lists.

    The routes that print every value their recurrence computes build
    their values from `one`: ints by default, exact Decimals from
    Decimal(1), whose text the emitters take in linear time.  The other
    routes give ints either way.  The values are computed in the exact
    decimal context.
    """
    entry = _REGISTRY[spec.name]
    if entry.work is not None:
        _check_formula_work(spec.q, spec.max_n, entry.work)
    triangle = entry.first_col is not None
    if triangle and spec.k is not None and spec.k < entry.first_col:
        raise UnsupportedSequence(f"column index {spec.k} out of range for {spec.name}")
    if triangle and spec.k is None and spec.min_n < entry.start:
        raise UnsupportedSequence(f"{spec.name!r} rows start at {entry.start}")
    with localcontext(_exact_context()):
        value = entry.route(_Run(spec.q, spec.k, max(spec.max_n, 0), one))
        ns = range(spec.min_n, spec.max_n + 1)
        if not triangle:
            return [value(n) for n in ns]
        if spec.k is not None:
            return [value(n, spec.k) for n in ns]
        return [[value(n, k) for k in range(entry.first_col, n + 1)] for n in ns]


def triangle_flat_start(name: str, first_row: int) -> int:
    """Index of the first entry of `first_row` when the triangle is read by rows."""
    tri = _REGISTRY[name]
    # the first flattened index matches the first row number
    rows = range(tri.start, first_row)
    return tri.start + sum(row - tri.first_col + 1 for row in rows)


# _decimal converts a value of at most this many bits to Decimal whole: below
# it Decimal's own conversion is quick, and 2048 to 8192 time alike
_DECIMAL_LEAF_BITS = 4096


def _decimal(v: int | Decimal) -> str:
    """str(v) for an integral int or Decimal of any size.  A Decimal prints
    by str at once, in linear time.  str refuses an int over the
    interpreter's current limit on int-to-text digits, and Decimal, which
    is not held to that limit, converts a large int in quadratic time.  So
    an int past the limit is split at 2^w, w half its bits, each half
    converted the same way, and the halves joined as hi 2^w + lo in the
    exact context; the powers 2^w are made once per call."""
    try:
        return str(v)
    except ValueError:
        pass
    exact = _exact_context()
    powers: dict[int, Decimal] = {}

    def two_to(w: int) -> Decimal:
        if w not in powers:
            half = w // 2
            powers[w] = (
                Decimal(1 << w) if w <= _DECIMAL_LEAF_BITS
                else exact.multiply(two_to(half), two_to(w - half))
            )
        return powers[w]

    def convert(x: int, bits: int) -> Decimal:
        """x as a Decimal, 0 <= x < 2^bits."""
        if bits <= _DECIMAL_LEAF_BITS:
            return Decimal(x)
        w = bits // 2
        hi = x >> w
        return exact.fma(convert(hi, bits - w), two_to(w), convert(x - (hi << w), w))

    return ("-" if v < 0 else "") + str(convert(abs(v), abs(v).bit_length()))


# _parse_int converts at most this many digits with int whole: the smallest
# limit on text-to-int digits the interpreter accepts, so int never refuses
_PARSE_LEAF_DIGITS = 640


def _parse_int(text: str) -> int:
    """int(text) for a decimal integer of any length.  int refuses text
    past the interpreter's limit on text-to-int digits and converts a long
    text in quadratic time.  So the digits are split at 10^w, w half their
    count, each half parsed the same way, and the halves joined as
    hi 10^w + lo; the powers 10^w are made once per call."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    powers: dict[int, int] = {}

    def convert(digits: str) -> int:
        if len(digits) <= _PARSE_LEAF_DIGITS:
            return int(digits)
        w = len(digits) // 2
        if w not in powers:
            powers[w] = 10**w
        return convert(digits[:-w]) * powers[w] + convert(digits[-w:])

    value = convert(text.lstrip("+-"))
    return -value if text.startswith("-") else value


def emit_plain(values) -> str:
    return " ".join(_decimal(v) for v in values)


def emit_json(spec: SequenceSpec, values, offset: int | None = None) -> str:
    obj = {
        "sequence": spec.name,
        "q": spec.q,
        "k": spec.k,
        "offset": spec.min_n if offset is None else offset,
        "oeis": spec.oeis_id,
        "values": [_decimal(v) for v in values],
    }
    return json.dumps(obj)


def emit_bfile(start: int, values) -> str:
    return "".join(f"{start + i} {_decimal(v)}\n" for i, v in enumerate(values))


def parse_bfile(text: str) -> tuple[int, list[int]]:
    """Inverse of emit_bfile: the starting index and the value list."""
    start = None
    prev = None
    values = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx_s, val_s = line.split()
        idx = int(idx_s)
        if start is None:
            start = idx
        elif idx != prev + 1:
            raise ValueError(f"non-contiguous b-file index {idx}")
        prev = idx
        values.append(_parse_int(val_s))
    if start is None:
        return 0, []
    return start, values
