"""Named counting sequences: routing, metadata, and output formats.

One table maps every public sequence name to its computing route (closed
formula, generating function extraction, or exhaustive sweep), its natural
first index, and its OEIS entry when one exists.  The emitters render a
computed run of values as plain text, JSON, or an OEIS b-file.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from typing import Callable, NamedTuple

from . import oracle
from .gfengine import gf_build, extract_count
from .qcount import (
    PrimePower,
    gaussian_binomial,
    gl_order,
    involution_count_char2,
    linear_derangement_count,
    nilpotent_count,
    projection_count,
    diagonalizable_count,
    q_bell,
    q_factorial,
    q_stirling,
    rank_count,
    separable_class_count,
    subspace_total,
)
from .exact_series import DEFAULT_ORDER


class UnsupportedSequence(ValueError):
    """A sequence/parameter combination with no computing route."""


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

_MIN_CENTRALIZER_GL2 = {
    1: 1,
    2: 2,
    3: 3,
    4: 6,
    5: 12,
    6: 21,
    7: 42,
    8: 84,
    9: 147,
    10: 294,
}


class _Run(NamedTuple):
    """What a value route may read: one request and its run options."""

    q: int
    k: int | None
    max_n: int
    order: int | None
    pair_budget: int


def _oeis(ids: dict[int, str], offset: int = 0):
    """OEIS rule: the entry catalogued for q, all starting at `offset`."""
    return lambda q, k: (ids[q], offset) if q in ids else None


def _power_identity_oeis(q: int, k: int | None):
    ident = _POWER_IDENTITY_OEIS.get((q, k))
    if ident is None:
        return None
    return ident, 0 if ident == "A053846" else 1


def _gf_order(order: int | None, max_n: int) -> int:
    if order is None:
        return max(DEFAULT_ORDER, max_n)
    if order < max_n:
        raise UnsupportedSequence(
            f"truncation order {order} is below the requested max n {max_n}"
        )
    return order


def _gf(kind: str, normalized: bool = True):
    """Route through one cycle-index series, built once per request."""

    def route(r: _Run):
        gf = gf_build(kind, r.q, _gf_order(r.order, r.max_n))
        return lambda n: extract_count(gf, n, r.q, normalized=normalized)

    return route


def _power_identity(r: _Run):
    pp = PrimePower.of(r.q)
    if r.k % pp.p:
        gf = gf_build("power_identity", r.q, _gf_order(r.order, r.max_n), k=r.k)
        return lambda n: extract_count(gf, n, r.q)
    if r.k == 2 and pp.p == 2:
        return partial(involution_count_char2, r.q)
    raise UnsupportedSequence(
        f"no route for A^{r.k} = I over F_{r.q}: the characteristic divides k"
    )


def _min_centralizer(r: _Run):
    def value(n: int) -> int:
        if n < 1:
            raise UnsupportedSequence("centralizer sequences start at n = 1")
        if r.q == 2 and n in _MIN_CENTRALIZER_GL2:
            return _MIN_CENTRALIZER_GL2[n]
        return oracle.min_centralizer_order(r.q, n, r.pair_budget)

    return value


def _max_class(r: _Run):
    smallest = _min_centralizer(r)
    return lambda n: gl_order(r.q, n) // smallest(n)


@dataclass(frozen=True)
class _Seq:
    """One catalogued sequence.

    A scalar's route maps a request to its per-n value function; a
    triangle's route is the cell function (q, n, k), with k running from
    first_col to n in each row.  A triangle may be read by one column k; a
    scalar takes k only when it needs one.  Routes call module functions by
    name at call time, so a wrapper installed on a module attribute is the
    one called.
    """

    start: int
    route: Callable
    oeis: Callable[[int, int | None], tuple[str, int] | None] = lambda q, k: None
    first_col: int | None = None
    needs_k: bool = False


_REGISTRY = {
    "all": _Seq(0, lambda r: lambda n: r.q ** (n * n), _oeis({2: "A002416"})),
    "invertible": _Seq(0, lambda r: partial(gl_order, r.q), _oeis({2: "A002884"})),
    "subspaces_total": _Seq(
        0,
        lambda r: partial(subspace_total, r.q),
        _oeis({q: f"A{6116 + q - 2:06d}" for q in range(2, 9)}),
    ),
    "qbell": _Seq(1, lambda r: partial(q_bell, r.q)),
    "qfactorial": _Seq(0, lambda r: partial(q_factorial, r.q), _oeis({2: "A005329"})),
    "lin_derangement": _Seq(
        0, lambda r: partial(linear_derangement_count, r.q), _oeis({2: "A002820"}, 2)
    ),
    "proj_derangement": _Seq(0, _gf("projective_derangement")),
    "diagonalizable": _Seq(0, lambda r: partial(diagonalizable_count, r.q)),
    "projection": _Seq(
        0, lambda r: partial(projection_count, r.q), _oeis({3: "A053846"})
    ),
    "power_identity": _Seq(0, _power_identity, _power_identity_oeis, needs_k=True),
    "nilpotent": _Seq(
        0, lambda r: partial(nilpotent_count, r.q), _oeis({2: "A053763"})
    ),
    "cyclic": _Seq(0, _gf("cyclic")),
    "semisimple": _Seq(0, _gf("semisimple")),
    "separable": _Seq(0, _gf("separable")),
    "separable_classes": _Seq(1, lambda r: partial(separable_class_count, r.q)),
    "conjclasses_all": _Seq(0, _gf("conjclasses_all", False), _oeis({2: "A070933"})),
    "conjclasses_gl": _Seq(
        0,
        _gf("conjclasses_gl", False),
        _oeis({2: "A006951", 3: "A006952", 4: "A049314", 5: "A049315", 7: "A049316"}),
    ),
    "min_centralizer": _Seq(1, _min_centralizer, _oeis({2: "A082877"}, 1)),
    "max_class": _Seq(1, _max_class, _oeis({2: "A070731"}, 1)),
    "qbinom_row": _Seq(
        0,
        lambda q, n, k: gaussian_binomial(q, n, k),
        _oeis({q: f"A{22166 + q - 2:06d}" for q in range(2, 25)}),
        first_col=0,
    ),
    "qstirling_row": _Seq(1, lambda q, n, k: q_stirling(q, n, k), first_col=1),
    "rank_row": _Seq(0, lambda q, n, k: rank_count(q, n, n, k), first_col=0),
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


def sequence_values(
    spec: SequenceSpec,
    order: int | None = None,
    enum_budget: int = oracle.DEFAULT_ENUM_BUDGET,
    pair_budget: int = oracle.DEFAULT_PAIR_BUDGET,
) -> list[int]:
    """Values of a scalar sequence for n = min_n .. max_n."""
    if spec.name in TRIANGLE_NAMES:
        raise UnsupportedSequence(
            f"{spec.name!r} is a triangle; use triangle_rows or a k column"
        )
    run = _Run(spec.q, spec.k, spec.max_n, order, pair_budget)
    value = _REGISTRY[spec.name].route(run)
    return [value(n) for n in range(spec.min_n, spec.max_n + 1)]


def _triangle(name: str) -> _Seq:
    if name not in TRIANGLE_NAMES:
        raise UnsupportedSequence(f"{name!r} is not a triangle")
    return _REGISTRY[name]


def triangle_rows(name: str, q: int, lo: int, hi: int) -> list[list[int]]:
    """Rows lo..hi of a triangle sequence."""
    tri = _triangle(name)
    if lo < tri.start:
        raise UnsupportedSequence(f"{name!r} rows start at {tri.start}")
    return [
        [tri.route(q, n, k) for k in range(tri.first_col, n + 1)]
        for n in range(lo, hi + 1)
    ]


def triangle_column(name: str, q: int, k: int, lo: int, hi: int) -> list[int]:
    """The fixed-k column of a triangle for n = lo .. hi."""
    tri = _triangle(name)
    if k < tri.first_col:
        raise UnsupportedSequence(f"column index {k} out of range for {name}")
    return [tri.route(q, n, k) for n in range(lo, hi + 1)]


def triangle_flat_start(name: str, first_row: int) -> int:
    """Index of the first entry of `first_row` when the triangle is read by rows."""
    tri = _REGISTRY[name]
    # the first flattened index matches the first row number
    rows = range(tri.start, first_row)
    return tri.start + sum(row - tri.first_col + 1 for row in rows)


def _decimal(v: int) -> str:
    """str(v) for an int of any size: Decimal is not held to the interpreter's
    limit on int-to-text digits."""
    return str(Decimal(v))


def _parse_int(text: str) -> int:
    """int(text) for a decimal integer of any length."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    return int(Decimal(text))


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
