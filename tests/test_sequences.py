"""Sequence routing, OEIS metadata, triangles, and output formats."""

from __future__ import annotations

import json
import random
import re
import sys
from decimal import Decimal

import pytest

from qmcount import oracle, regression, sequences
from qmcount.gfengine import CostExceeded
from qmcount.qcount import (
    diagonalizable_count,
    gaussian_binomial,
    gl_order,
    involution_count_char2,
    linear_derangement_count,
    nilpotent_count,
    projection_count,
    q_bell,
    q_factorial,
    q_stirling,
    rank_count,
    subspace_total,
)
from qmcount.sequences import (
    SCALAR_NAMES,
    SEQUENCE_NAMES,
    TRIANGLE_NAMES,
    SequenceSpec,
    UnsupportedSequence,
    emit_bfile,
    emit_json,
    emit_plain,
    make_spec,
    oeis_info,
    parse_bfile,
    sequence_values,
    triangle_flat_start,
)


def values_of(name: str, q: int, max_n: int, k: int | None = None, **kwargs) -> list[int]:
    return sequence_values(make_spec(name, q, k=k, max_n=max_n), **kwargs)


def test_name_tables():
    assert len(SCALAR_NAMES) == 19
    assert TRIANGLE_NAMES == ("qbinom_row", "qstirling_row", "rank_row")
    assert len(SEQUENCE_NAMES) == 22
    assert len(set(SEQUENCE_NAMES)) == 22


def test_make_spec_validation():
    with pytest.raises(UnsupportedSequence):
        make_spec("no_such_sequence", 2)
    with pytest.raises(ValueError):
        make_spec("invertible", 6)
    with pytest.raises(UnsupportedSequence):
        make_spec("power_identity", 2)
    with pytest.raises(UnsupportedSequence):
        make_spec("power_identity", 2, k=0)
    with pytest.raises(UnsupportedSequence):
        make_spec("cyclic", 2, k=2)
    with pytest.raises(UnsupportedSequence):
        make_spec("invertible", 2, min_n=-1)
    spec = make_spec("qbinom_row", 2, k=2)
    assert spec.k == 2


def test_make_spec_defaults():
    assert make_spec("invertible", 2).min_n == 0
    assert make_spec("invertible", 2).max_n == 10
    assert make_spec("qbell", 2).min_n == 1
    assert make_spec("separable_classes", 3).min_n == 1
    assert make_spec("lin_derangement", 2).min_n == 0
    assert make_spec("lin_derangement", 2, align_to_oeis=True).min_n == 2
    assert make_spec("lin_derangement", 3, align_to_oeis=True).min_n == 0
    assert make_spec("max_class", 2, align_to_oeis=True).min_n == 1
    spec = make_spec("invertible", 2)
    assert spec.oeis_id == "A002884"
    assert spec.oeis_offset == 0
    empty = make_spec("nilpotent", 2, min_n=5, max_n=3)
    assert sequence_values(empty) == []


def test_oeis_info():
    assert oeis_info("all", 2, None) == ("A002416", 0)
    assert oeis_info("all", 3, None) == (None, None)
    assert oeis_info("invertible", 2, None) == ("A002884", 0)
    assert oeis_info("subspaces_total", 2, None) == ("A006116", 0)
    assert oeis_info("subspaces_total", 5, None) == ("A006119", 0)
    assert oeis_info("subspaces_total", 9, None) == (None, None)
    assert oeis_info("qbinom_row", 2, None) == ("A022166", 0)
    assert oeis_info("qbinom_row", 7, None) == ("A022171", 0)
    assert oeis_info("qbinom_row", 25, None) == (None, None)
    assert oeis_info("qfactorial", 2, None) == ("A005329", 0)
    assert oeis_info("lin_derangement", 2, None) == ("A002820", 2)
    assert oeis_info("projection", 3, None) == ("A053846", 0)
    assert oeis_info("power_identity", 3, 2) == ("A053846", 0)
    assert oeis_info("power_identity", 2, 3) == ("A053725", 1)
    assert oeis_info("power_identity", 4, 8) == ("A053863", 1)
    assert oeis_info("power_identity", 5, 2) == (None, None)
    assert oeis_info("nilpotent", 2, None) == ("A053763", 0)
    assert oeis_info("conjclasses_all", 2, None) == ("A070933", 0)
    assert oeis_info("conjclasses_gl", 7, None) == ("A049316", 0)
    assert oeis_info("conjclasses_gl", 8, None) == (None, None)
    assert oeis_info("max_class", 2, None) == ("A070731", 1)
    assert oeis_info("min_centralizer", 2, None) == ("A082877", 1)


def test_pinned_sources_and_the_registry_are_one_oeis_catalogue():
    # a pin whose source is an A-number cites the registry's id for its
    # (name, q, k), and a pin whose (name, q, k) has a registry id cites it
    cited = 0
    for pin in regression.PINS:
        oeis_id = oeis_info(pin.name, pin.q, pin.k)[0]
        if oeis_id is not None or re.fullmatch(r"A\d{6}", pin.source):
            assert pin.source == oeis_id, pin
            cited += 1
    assert cited == 18
    assert oeis_info("cyclic", 2, None) == (None, None)
    # a column of a catalogued triangle is not the catalogued entry
    assert oeis_info("qbinom_row", 2, 1) == (None, None)


def test_formula_backed_sequences():
    assert values_of("all", 2, 3) == [1, 2, 16, 512]
    assert values_of("invertible", 2, 5) == [gl_order(2, n) for n in range(6)]
    assert values_of("subspaces_total", 3, 4) == [subspace_total(3, n) for n in range(5)]
    assert values_of("qbell", 2, 4) == [q_bell(2, n) for n in range(1, 5)]
    assert values_of("qfactorial", 2, 4) == [q_factorial(2, n) for n in range(5)]
    assert values_of("lin_derangement", 2, 5) == [
        linear_derangement_count(2, n) for n in range(6)
    ]
    assert values_of("diagonalizable", 3, 4) == [
        diagonalizable_count(3, n) for n in range(5)
    ]
    assert values_of("projection", 2, 4) == [projection_count(2, n) for n in range(5)]
    assert values_of("nilpotent", 2, 4) == [nilpotent_count(2, n) for n in range(5)]
    assert values_of("separable_classes", 2, 4) == [2, 2, 4, 8]


def test_gf_backed_sequences():
    assert values_of("proj_derangement", 3, 3) == [1, 0, 18, 3456]
    assert values_of("cyclic", 2, 3) == [1, 2, 14, 412]
    assert values_of("semisimple", 2, 3) == [1, 2, 10, 218]
    assert values_of("separable", 2, 3) == [1, 2, 8, 160]
    assert values_of("conjclasses_all", 3, 4) == [1, 3, 12, 39, 129]
    assert values_of("conjclasses_gl", 2, 5) == [1, 1, 3, 6, 14, 27]
    assert len(values_of("cyclic", 2, 18)) == 19


def test_power_identity_routes():
    assert values_of("power_identity", 2, 3, k=3) == [1, 1, 3, 57]
    assert values_of("power_identity", 2, 4, k=2) == [
        involution_count_char2(2, n) for n in range(5)
    ]
    assert values_of("power_identity", 4, 3, k=2) == [1, 1, 16, 316]
    assert values_of("power_identity", 3, 4, k=2) == [
        projection_count(3, n) for n in range(5)
    ]
    for q, k in ((2, 6), (2, 4), (3, 6), (9, 3)):
        with pytest.raises(UnsupportedSequence):
            values_of("power_identity", q, 3, k=k)


def test_centralizer_sequences(monkeypatch):
    assert values_of("min_centralizer", 2, 6) == [1, 2, 3, 6, 12, 21]
    assert values_of("max_class", 2, 6) == [1, 3, 56, 3360, 833280, 959938560]
    assert values_of("min_centralizer", 3, 2) == [2, 4]

    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force oracle was consulted")

    # the values come from class types, never from the oracle
    monkeypatch.setattr(oracle, "min_centralizer_order", refuse)
    assert values_of("min_centralizer", 2, 6) == [1, 2, 3, 6, 12, 21]
    assert values_of("min_centralizer", 3, 2) == [2, 4]


def rows_of(name: str, q: int, lo: int, hi: int) -> list[list[int]]:
    return sequence_values(make_spec(name, q, min_n=lo, max_n=hi))


def column_of(name: str, q: int, k: int, lo: int, hi: int) -> list[int]:
    return sequence_values(make_spec(name, q, k, min_n=lo, max_n=hi))


def test_triangle_rows():
    assert rows_of("qbinom_row", 2, 0, 3) == [
        [1],
        [1, 1],
        [1, 3, 1],
        [1, 7, 7, 1],
    ]
    assert rows_of("qstirling_row", 2, 1, 3) == [[1], [1, 3], [1, 28, 28]]
    assert rows_of("rank_row", 2, 0, 2) == [[1], [1, 1], [1, 9, 6]]
    with pytest.raises(UnsupportedSequence, match="rows start at 1"):
        rows_of("qstirling_row", 2, 0, 3)


def test_triangle_column():
    assert column_of("qbinom_row", 2, 2, 0, 5) == [0, 0, 1, 7, 35, 155]
    assert column_of("qstirling_row", 2, 2, 1, 4) == [0, 3, 28, 400]
    assert column_of("rank_row", 2, 1, 0, 3) == [0, 1, 9, 49]
    with pytest.raises(UnsupportedSequence):
        column_of("invertible", 2, 1, 0, 3)


CELLS = {
    "qbinom_row": gaussian_binomial,
    "qstirling_row": q_stirling,
    "rank_row": lambda q, n, k: rank_count(q, n, n, k),
}


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("name", TRIANGLE_NAMES)
def test_triangle_rows_and_columns_match_the_cells(name, q):
    cell = CELLS[name]
    first = make_spec(name, q).min_n
    rows = rows_of(name, q, first, 12)
    assert rows == [[cell(q, n, k) for k in range(first, n + 1)] for n in range(first, 13)]
    for k in range(first, 15):
        want = [cell(q, n, k) for n in range(13)]
        assert not any(want[:k])  # the cells beyond row n are zeros
        assert column_of(name, q, k, first, 12) == want[first:]
        # a column may start above the first row
        assert column_of(name, q, k, 0, 12) == want


# each table route and the table function it reads in sequences
# each route's table and the arguments of its one build at q = 3, max n = 9;
# a route that builds its values from `one` passes the int 1 by default
TABLE_ROUTES = {
    "qbinom_row": ("gaussian_rows", (3, 9, 1)),
    "rank_row": ("rank_rows", (3, 9, 1)),
    "qstirling_row": ("q_stirling_rows", (3, 9)),
    "subspaces_total": ("subspace_totals", (3, 9, 1)),
    "projection": ("projection_counts", (3, 9, 1)),
    "qfactorial": ("q_factorials", (3, 9, 1)),
    "lin_derangement": ("linear_derangement_counts", (3, 9, 1)),
    "all": ("square_powers", (3, 9, 0, 1)),
    "nilpotent": ("square_powers", (3, 9, -1, 1)),
    "separable_classes": ("separable_class_counts", (3, 9, 1)),
    "invertible": ("GLOrderTable", (3, 1)),
    "power_identity": ("involution_counts_char2", (4, 9, 1)),
}


@pytest.mark.parametrize("name", TABLE_ROUTES)
def test_table_routes_build_one_table_per_request(monkeypatch, name):
    """A route looks its table function up at call time and builds it once,
    whether it serves rows, a column or a scalar run; the table's first
    argument is the request's q."""
    attr, args = TABLE_ROUTES[name]
    ks = (None, 2) if name in TRIANGLE_NAMES else (2,) if name == "power_identity" else (None,)
    specs = [make_spec(name, args[0], k=k, max_n=9) for k in ks]
    wants = [sequence_values(spec) for spec in specs]
    table = getattr(sequences, attr)
    calls = []

    def counted(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(sequences, attr, counted)
    for spec, want in zip(specs, wants):
        calls.clear()
        assert sequence_values(spec) == want
        assert calls == [args]


def test_qbell_reads_the_bell_series_once(monkeypatch):
    """The qbell route is one bell series to the largest n, built once per
    request, and builds no q-Stirling table."""
    want = sequence_values(make_spec("qbell", 3, max_n=9))
    series = sequences.gf_counts
    calls = []

    def counted(*args):
        calls.append(args)
        return series(*args)

    def refuse(*args):
        raise AssertionError("the q-Stirling table was built")

    monkeypatch.setattr(sequences, "gf_counts", counted)
    monkeypatch.setattr(sequences, "q_stirling_rows", refuse)
    assert sequence_values(make_spec("qbell", 3, max_n=9)) == want
    assert calls == [("bell", 3, 9)]


def test_triangle_errors_come_in_order(monkeypatch):
    def refuse(*args):
        raise AssertionError("the route was built")

    monkeypatch.setattr(sequences, "q_stirling_rows", refuse)
    # the cost guard comes first, then the column index, then the first row
    with pytest.raises(CostExceeded):
        column_of("qstirling_row", 2, 0, 0, 400)
    with pytest.raises(CostExceeded):
        rows_of("qstirling_row", 2, 0, 400)
    with pytest.raises(UnsupportedSequence, match="column index 0"):
        column_of("qstirling_row", 2, 0, 0, 3)
    with pytest.raises(UnsupportedSequence, match="rows start at 1"):
        rows_of("qstirling_row", 2, 0, 3)


def test_triangle_flat_start():
    assert triangle_flat_start("qbinom_row", 0) == 0
    assert triangle_flat_start("qbinom_row", 1) == 1
    assert triangle_flat_start("qbinom_row", 2) == 3
    assert triangle_flat_start("qbinom_row", 3) == 6
    assert triangle_flat_start("qstirling_row", 1) == 1
    assert triangle_flat_start("qstirling_row", 2) == 2
    assert triangle_flat_start("qstirling_row", 3) == 4
    assert triangle_flat_start("rank_row", 2) == 3


def test_emit_plain():
    assert emit_plain([1, 2, 3]) == "1 2 3"
    assert emit_plain([]) == ""


def test_emit_json():
    spec = make_spec("invertible", 2, max_n=2)
    text = emit_json(spec, sequence_values(spec))
    assert text == (
        '{"sequence": "invertible", "q": 2, "k": null, "offset": 0,'
        ' "oeis": "A002884", "values": ["1", "1", "6"]}'
    )
    assert emit_json(spec, [], offset=5).count('"offset": 5') == 1
    spec3 = make_spec("power_identity", 3, k=2, max_n=1)
    text3 = emit_json(spec3, sequence_values(spec3))
    assert '"k": 2' in text3
    assert '"oeis": "A053846"' in text3


def test_emit_and_parse_bfile():
    text = emit_bfile(2, [2, 48, 5824])
    assert text == "2 2\n3 48\n4 5824\n"
    assert emit_bfile(0, []) == ""
    assert parse_bfile(text) == (2, [2, 48, 5824])
    assert parse_bfile("") == (0, [])
    assert parse_bfile("# comment\n\n  \n") == (0, [])
    assert parse_bfile("5 10\n6 20\n# tail\n") == (5, [10, 20])
    with pytest.raises(ValueError):
        parse_bfile("1 1\n3 2\n")


def test_output_is_the_same_on_both_sides_of_the_int_to_text_limit():
    # str serves values within the interpreter's int-to-text limit and Decimal
    # the rest; with the limit lowered to 640 digits both print the same text
    values = [0, -5, 10**639, -(10**639), 10**640, -(10**640), 7 * 10**700 + 3, 2 ** (120 * 120)]
    texts = [str(Decimal(v)) for v in values]
    spec = make_spec("invertible", 2, max_n=2)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert str(10**639) == texts[2]
        with pytest.raises(ValueError):
            str(10**640)
        plain = emit_plain(values)
        text = emit_json(spec, values, offset=3)
        bfile = emit_bfile(3, values)
    finally:
        sys.set_int_max_str_digits(limit)
    assert plain == " ".join(texts)
    assert json.loads(text)["values"] == texts
    assert bfile == "".join(f"{3 + i} {t}\n" for i, t in enumerate(texts))


def test_split_conversion_past_the_limit_is_str_byte_for_byte():
    # just below, at and one past the default 4300 digits, and well past it,
    # against str under a raised limit; the default limit is set for the
    # conversions and the caller's limit restored afterwards
    rng = random.Random(4300)
    values = [10**4299 - 1, 10**4299, 10**4300 - 1, 10**4300, -(10**4300 + 7),
              rng.randrange(10**4300, 10**4301), rng.randrange(10**60000),
              2**100000 - 1, 2**100000, -(3**50000), 10**20000 * 12345]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = [str(v) for v in values]
        assert [len(w.lstrip("-")) for w in want[:4]] == [4299, 4300, 4300, 4301]
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            str(10**4300)
        got = [sequences._decimal(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want


def test_split_parse_past_the_limit_is_int_for_int():
    # texts at and around the 640-digit leaf and the default 4300-digit
    # limit, and well past it, against int under a lifted limit; the split
    # parse runs under the default limit and the caller's limit is restored
    rng = random.Random(4301)
    values = [10**639, 10**640 - 1, 10**640, -(10**4299), 10**4300 - 1, 10**4300,
              rng.randrange(10**4300, 10**4301), rng.randrange(10**60000),
              -(2**100000 - 1), 10**20000 * 12345]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        texts = [str(v) for v in values] + ["+" + str(values[-1]), "-000" + str(values[2])]
        want = values + [values[-1], -values[2]]
        assert [int(t) for t in texts] == want
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            int(texts[5])
        got = [sequences._parse_int(t) for t in texts]
        bfile = parse_bfile("".join(f"{7 + i} {t}\n" for i, t in enumerate(texts)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want
    assert bfile == (7, want)
    with pytest.raises(ValueError):
        sequences._parse_int("1_000")


def test_spec_is_frozen():
    spec = make_spec("invertible", 2)
    assert isinstance(spec, SequenceSpec)
    with pytest.raises(AttributeError):
        spec.q = 3
