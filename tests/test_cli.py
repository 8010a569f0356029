"""Command-line interface: output formats, exit codes, budget handling."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from qmcount import cli, ffpoly, gfengine, oracle, regression, sequences, verify
from qmcount.cli import main
from qmcount.limits import LIMIT_KINDS
from qmcount.regression import RegressionEntry
from qmcount.sequences import (
    SEQUENCE_NAMES,
    TRIANGLE_NAMES,
    _decimal,
    make_spec,
    parse_bfile,
    sequence_values,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_plain(capsys):
    code, out, err = run_cli(capsys, "seq", "invertible", "--q", "2", "--max-n", "5")
    assert code == 0
    assert out == "1 1 6 168 20160 9999360\n"
    assert err == ""


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["seq", "cyclic", "--q", "2", "--max-n", "4"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "qmcount", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    code, out, err = run_cli(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
    assert out == "1 2 14 412 50832\n"


def test_seq_single_value(capsys):
    code, out, _ = run_cli(capsys, "seq", "nilpotent", "--q", "2", "--max-n", "0")
    assert code == 0
    assert out == "1\n"


def test_seq_min_n_window(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "cyclic", "--q", "2", "--min-n", "2", "--max-n", "3"
    )
    assert code == 0
    assert out == "14 412\n"


def test_seq_empty_range(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "invertible", "--q", "2", "--min-n", "7", "--max-n", "3"
    )
    assert code == 0
    assert out == "\n"


def test_seq_json(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "invertible", "--q", "2", "--max-n", "2", "--format", "json"
    )
    assert code == 0
    assert out == (
        '{"sequence": "invertible", "q": 2, "k": null, "offset": 0,'
        ' "oeis": "A002884", "values": ["1", "1", "6"]}\n'
    )
    parsed = json.loads(out)
    assert list(parsed) == ["sequence", "q", "k", "offset", "oeis", "values"]


def test_seq_bfile_aligns_to_oeis_offset(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "lin_derangement", "--q", "2", "--max-n", "4", "--format", "bfile"
    )
    assert code == 0
    assert out == "2 2\n3 48\n4 5824\n"


def test_seq_bfile_min_n_override(capsys):
    code, out, _ = run_cli(
        capsys,
        "seq",
        "lin_derangement",
        "--q",
        "2",
        "--min-n",
        "0",
        "--max-n",
        "2",
        "--format",
        "bfile",
    )
    assert code == 0
    assert out == "0 1\n1 0\n2 2\n"


def test_seq_power_identity(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "power_identity", "--q", "2", "--k", "3", "--max-n", "3"
    )
    assert code == 0
    assert out == "1 1 3 57\n"
    # a large k costs no more than a small one
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "seq", "power_identity", "--q", "2", "--k", "1000000007", "--max-n", "3"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "1 1 1 1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "cyclic", "--q", "1000003", "--max-n", "3"),
        ("seq", "power_identity", "--q", "1000003", "--k", "2", "--max-n", "3"),
    ],
)
def test_a_request_tests_its_field_size_once(capsys, monkeypatch, argv):
    # make_spec, the route and the series engine each read q as a prime
    # power; on a q of thousands of bits one reading takes seconds
    ffpoly._prime_power.cache_clear()
    tested = []
    is_prime = ffpoly.is_prime
    monkeypatch.setattr(ffpoly, "is_prime", lambda n: tested.append(n) or is_prime(n))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert tested.count(1000003) == 1


def test_limit(capsys):
    code, out, _ = run_cli(capsys, "limit", "invertible", "--q", "3")
    assert code == 0
    assert out == "0.56012\n"
    code, out, _ = run_cli(capsys, "limit", "invertible", "--q", "2")
    assert out == "0.28878\n"
    code, out, _ = run_cli(capsys, "limit", "cyclic", "--q", "2", "--digits", "4")
    assert out == "0.7460\n"


@pytest.mark.parametrize("q", [131071, 65537, 32003])
def test_projective_frac_limit_at_a_large_q_answers_at_once(capsys, q):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "limit", "projective_frac", "--q", str(q), "--digits", "1")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "0.3\n", "")


def test_table_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "qbinom_row", "--q", "2", "--max-n", "2")
    assert code == 0
    assert out == "1\n1 1\n1 3 1\n"


def test_table_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "table",
        "qbinom_row",
        "--q",
        "2",
        "--k",
        "1",
        "--min-n",
        "1",
        "--max-n",
        "4",
    )
    assert code == 0
    assert out == "1 3 7 15\n"


def test_table_bfile_flattens_rows(capsys):
    code, out, _ = run_cli(
        capsys, "table", "qstirling_row", "--q", "2", "--max-n", "3", "--format", "bfile"
    )
    assert code == 0
    assert out == "1 1\n2 1\n3 3\n4 1\n5 28\n6 28\n"


def test_table_json_offset(capsys):
    code, out, _ = run_cli(
        capsys, "table", "qbinom_row", "--q", "2", "--max-n", "2", "--format", "json"
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["offset"] == 0
    assert parsed["values"] == ["1", "1", "1", "1", "3", "1"]
    assert parsed["oeis"] == "A022166"


def test_seq_routes_triangles(capsys):
    code, out, _ = run_cli(capsys, "seq", "qbinom_row", "--q", "2", "--max-n", "2")
    assert code == 0
    assert out == "1\n1 1\n1 3 1\n"


def test_usage_errors_exit_two(capsys):
    cases = (
        ("seq", "invertible", "--q", "6"),
        ("seq", "power_identity", "--q", "2", "--k", "6"),
        ("seq", "no_such_name", "--q", "2"),
        ("seq", "invertible"),
        ("table", "qstirling_row", "--q", "2", "--k", "0"),
        ("limit", "invertible", "--q", "6"),
        ("limit", "invertible", "--q", "2", "--digits", "0"),
        ("limit", "no_such_kind", "--q", "2"),
    )
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_error_messages_go_to_stderr(capsys):
    code, out, err = run_cli(capsys, "seq", "invertible", "--q", "6")
    assert code == 2
    assert err.startswith("error:")


def test_reusing_the_parser_leaks_no_state(capsys):
    calls = (
        ("seq", "invertible", "--q", "3", "--max-n", "6", "--format", "json"),
        ("table", "rank_row", "--q", "2", "--k", "1", "--max-n", "5"),
        ("limit", "projective_frac", "--q", "4", "--digits", "12"),
        ("seq", "cyclic", "--q", "2", "--min-n", "2", "--max-n", "4", "--format", "bfile"),
        ("table", "qbinom_row", "--q", "2", "--max-n", "3"),
        ("limit", "cyclic", "--q", "2"),
        ("limit", "invertible", "--q", "2", "--digits", "x"),
        ("--help",),
        ("seq", "invertible", "--q", "3", "--max-n", "6", "--format", "json"),
    )
    alone = []
    for argv in calls:
        # a fresh parser, as the first call of a new process gets
        cli.build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    cli.build_parser.cache_clear()
    together = [run_cli(capsys, *argv) for argv in calls]
    assert together == alone
    code, out, err = alone[-3]
    assert (code, out) == (2, "") and err.startswith("usage: qmcount limit")
    code, out, err = alone[-2]
    assert (code, err) == (0, "") and out.startswith("usage: qmcount")
    assert [code for code, _, _ in alone[:6]] == [0] * 6
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "name, q, max_n, out",
    [("min_centralizer", 3, 3, "2 4 12\n"), ("max_class", 9, 2, "1 90\n")],
)
def test_centralizer_sequences_answer_at_once(capsys, name, q, max_n, out):
    start = time.perf_counter()
    code, got, err = run_cli(capsys, "seq", name, "--q", str(q), "--max-n", str(max_n))
    assert time.perf_counter() - start < 1
    assert (code, got, err) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "semisimple", "--q", "2", "--max-n", "2000"),
        ("seq", "cyclic", "--q", "3", "--max-n", "400"),
        ("seq", "min_centralizer", "--q", "1009", "--max-n", "200"),
        ("seq", "max_class", "--q", "2", "--max-n", "10000"),
        ("seq", "invertible", "--q", "2", "--max-n", "3000"),
        ("seq", "nilpotent", "--q", "3", "--max-n", "20000"),
        ("table", "rank_row", "--q", "2", "--max-n", "3000"),
        ("limit", "projective_frac", "--q", str(2**1972), "--digits", "50"),
        ("limit", "projective_frac", "--q", str(2**2089)),
    ],
)
def test_cost_guards_refuse_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "bound" in err


def test_sequences_does_not_import_the_oracle():
    tree = ast.parse(Path(sequences.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not any("oracle" in name for name in imported)


def test_every_top_level_import_is_used():
    """Each name bound by a module-level import in src/qmcount is read in its
    module; __init__ only re-exports, and __future__ binds nothing."""
    unused = []
    for path in sorted(Path(sequences.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert unused == []


def test_verify_budget_limits_oracle_checks(capsys):
    oracle_checks = {}
    for budget in (10, 16):
        code, out, _ = run_cli(capsys, "verify", "--oracle-budget", str(budget))
        assert code == 0
        oracle_checks[budget] = sum("] oracle: " in line for line in out.splitlines())
    assert oracle_checks[10] < oracle_checks[16]
    # the (2,2) space has 16 matrices, so its walk's orbit checks fit the budget
    assert "[PASS] oracle: class count, all matrices q=2 n=2" in out
    assert "[PASS] oracle: class count, invertible q=2 n=2" in out


def test_verify_passes_with_small_budget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--oracle-budget", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_quiet_hides_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--oracle-budget", "16", "--quiet")
    assert code == 0
    assert "[PASS]" not in out
    assert out.strip().endswith("checks passed")


def test_verify_reports_failures(capsys, monkeypatch):
    broken = RegressionEntry("invertible", 2, None, 0, (1, 1, 7), "broken pin")
    monkeypatch.setattr(regression, "PINS", (broken,))
    code, out, _ = run_cli(capsys, "verify", "--oracle-budget", "2", "--quiet")
    assert code == 1
    assert "[FAIL] regression: invertible q=2" in out


def test_verify_reports_a_raising_route_as_a_failure(capsys, monkeypatch):
    # a separable factor whose closed log 1/(Q + 1) scales to no integer at u^1
    def broken(Q, m):
        return gfengine.separable_rule(Q, m)

    broken.log = lambda Q, m: Fraction(1, Q + 1)
    monkeypatch.setitem(
        gfengine._KINDS, "separable", gfengine._KINDS["separable"]._replace(rule=broken)
    )
    code, out, err = run_cli(capsys, "verify", "--oracle-budget", "16", "--quiet")
    assert (code, err) == (1, "")
    message = "NonIntegralCount: the degree-1 factors' log is not an integer at u^1"
    lines = out.splitlines()
    # each suite that reaches the separable series fails once, and the rest still run
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "[FAIL] regression", "[FAIL] cross_route", "[FAIL] oracle"
    ]
    assert f"[FAIL] cross_route: route raised after cyclic gf forms agree q=2: {message}" in lines
    assert all(line.endswith(message) for line in lines[:-1])
    # the summary says that three suites stopped short of their full count
    counts, early = lines[-1].split(" checks passed")
    passed, total = counts.split("/")
    assert int(passed) == int(total) - 3
    assert early == ", 3 suites stopped early"


def test_verify_names_one_suite_stopped_early(capsys, monkeypatch):
    def broken(q, n):
        raise ZeroDivisionError("no limit")

    monkeypatch.setattr(verify, "euler_partial_product", broken)
    code, out, err = run_cli(capsys, "verify", "--oracle-budget", "16", "--quiet")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1].endswith(" checks passed, 1 suite stopped early")


def test_verify_reports_an_exhausted_oracle_budget(capsys, monkeypatch):
    def exhausted(budget):
        raise oracle.BudgetExceeded(4096, budget)

    monkeypatch.setattr(verify, "oracle_sweeps", exhausted)
    code, out, err = run_cli(capsys, "verify")
    assert (code, out) == (2, "")
    default = oracle.DEFAULT_ENUM_BUDGET
    assert err == f"error: sweep covers 4096 matrices, above the budget of {default}\n"
    assert run_cli(capsys, "verify", "--oracle-budget", "9")[2].endswith("budget of 9\n")


def test_verify_lets_a_programming_error_propagate(monkeypatch):
    def broken(n):
        raise TypeError("not a route failure")

    monkeypatch.setattr(verify, "divisors", broken)
    with pytest.raises(TypeError, match="not a route failure"):
        verify.identity_checks()


def test_a_failing_comparison_shows_both_values(monkeypatch):
    # with only the divisor 1, the degree-weighted count is nu_1 = q at every n
    monkeypatch.setattr(verify, "divisors", lambda n: [1])
    bad = verify.failures(verify.identity_checks())
    assert [r.name for r in bad] == [f"irreducible count sum q={q}" for q in (2, 3, 4)]
    assert bad[0].detail == f"expected {[2**n for n in range(1, 11)]!r}, got {[2] * 10!r}"


def test_a_failing_trend_shows_its_distances_and_limit(monkeypatch):
    monkeypatch.setattr(verify, "euler_partial_product", lambda q, n: Fraction(1, 2))
    results = verify.trend_checks()
    first = results[0]
    assert (first.name, first.ok) == ("invertible fraction q=2", False)
    # |GL_4(2)| / 2^16 = 20160 / 65536 sits 12608 / 65536 from the limit 1/2
    assert f"got ([{12608 / 65536!r}, " in first.detail
    assert first.detail.count("n=4,7,10, limit 0.500000") == 2
    # at q = 3 the distances shrink (0.0636, 0.0603, 0.0601) but end above 1/20
    assert (results[3].name, results[3].ok) == ("invertible fraction q=3", False)


def test_values_beyond_4300_digits_print_in_full(capsys, monkeypatch):
    # 2^(120^2) has 4335 decimal digits, over the interpreter's int-to-text limit
    big = 2 ** (120 * 120)
    code, out, err = run_cli(capsys, "seq", "all", "--q", "2", "--max-n", "120")
    assert (code, err) == (0, "")
    assert int(Decimal(out.split()[-1])) == big
    code, out, _ = run_cli(
        capsys, "seq", "all", "--q", "2", "--min-n", "120", "--max-n", "120",
        "--format", "json",
    )
    assert code == 0
    assert int(Decimal(json.loads(out)["values"][0])) == big

    # one series build serves the CLI and the library call: the test is
    # about printing the values, not about computing them twice
    built = {}
    real_counts = gfengine.gf_counts

    def count_once(*args):
        if args not in built:
            built[args] = real_counts(*args)
        return built[args]

    monkeypatch.setattr(gfengine, "gf_counts", count_once)
    spec = make_spec("semisimple", 2, max_n=120, align_to_oeis=True)
    expected = sequence_values(spec)
    assert len(str(Decimal(expected[-1]))) > 4300
    code, out, err = run_cli(
        capsys, "seq", "semisimple", "--q", "2", "--max-n", "120", "--format", "bfile"
    )
    assert (code, err) == (0, "")
    assert parse_bfile(out) == (spec.min_n, expected)


def printed_values(fmt: str, out: str) -> list[str]:
    """The value tokens of one seq or table output."""
    if fmt == "json":
        return json.loads(out)["values"]
    if fmt == "bfile":
        return [line.split()[1] for line in out.splitlines()]
    return out.split()


@pytest.mark.parametrize("name", SEQUENCE_NAMES)
def test_every_printed_value_is_the_text_of_its_int(capsys, name):
    """The CLI prints some routes from exact Decimals, which have a negative
    zero and an exponent form; every token must still be a plain integer,
    the text of the library's int value."""
    triangle = name in TRIANGLE_NAMES
    ks = (None, 1) if triangle else (2,) if name == "power_identity" else (None,)
    runs = [(q, 6) for q in (2, 3, 4, 5, 7, 8, 9)] + [(1000003, 8)]
    for (q, max_n), k, fmt in itertools.product(runs, ks, ("plain", "json", "bfile")):
        argv = ["table" if triangle else "seq", name, "--q", str(q), "--max-n", str(max_n)]
        argv += ["--format", fmt] + (["--k", str(k)] if k is not None else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        spec = make_spec(name, q, k, max_n=max_n, align_to_oeis=fmt == "bfile")
        values = sequence_values(spec)
        if triangle and k is None:
            values = [v for row in values for v in row]
        tokens = printed_values(fmt, out)
        assert all(re.fullmatch(r"0|-?[1-9][0-9]*", t) for t in tokens), argv
        assert tokens == [_decimal(v) for v in values], argv


# SHA-256 of the plain output at the largest n a closed-form route admits:
# the Decimal routes' recorded from the same routes computed and printed as
# ints, the diagonalizable, qbell and qstirling_row routes' from the
# splitting joins they read before their recurrences
EDGE_DIGESTS = [
    ("seq all --q 2 --max-n 288", "7c3e8e2cd81035186bf7a9487a818935b162bb97299e6dbfcace152acb20ecac"),
    ("seq invertible --q 2 --max-n 288", "0d15bd7c279d97625eced93a9f7229d00a0e47c590342381ab84b50fe1b463d0"),
    ("seq invertible --q 1000003 --max-n 87", "72253b43b08c69ff53e1a945f1223e1374ac758a4238d367e7b3c8382910683d"),
    ("seq nilpotent --q 2 --max-n 288", "9607cd1c27d7e0088f556855c4fc6c86a5858cb13c30b2eb9aac82bb0a787610"),
    ("seq qfactorial --q 2 --max-n 288", "19b5250db8ecbb58618d24e21ae226d75107829341f9af4698cec759632e59e5"),
    ("seq lin_derangement --q 2 --max-n 288", "6ad7a1d12b6902688ecac026d37b00b673c6fcf137fbe0f38fe9b4fd8508b4e1"),
    ("seq separable_classes --q 2 --max-n 12599", "97c961d22c077a56332af2bfb2d8cfa87e084f842d7577390266e279156bdcc9"),
    ("seq separable_classes --q 1000003 --max-n 1709", "253cd53b6cf72eab763ae4599fb5b098f471948d1ab1187fbdf2f3976fe6219a"),
    ("seq subspaces_total --q 2 --max-n 112", "91c533fa4e3bb86af2d0c5c06c4648e19ffc9e4ca9a0999f9f166f0bc5b5eb9d"),
    ("table qbinom_row --q 2 --max-n 112", "d272dac602247fce9dcbfe6ada4cc6a2228939067a7be33f22674539f863573f"),
    ("table rank_row --q 2 --max-n 112", "c23ab5a804b679064255d267929ff39ff8c93d327b97ca1a2d42d3797e27263b"),
    ("seq projection --q 2 --max-n 112", "a119f5c98dbcf9dcf291a1e4d238af9e3ebeb69302f9c572c69293c3e8e34c83"),
    ("seq projection --q 1000003 --max-n 41", "35351100d80432e26e253c18fb9785eab01d1078dd18e5604154835c6cd490cd"),
    ("seq power_identity --q 2 --k 2 --max-n 112", "ec31746c14ea32f74b8f4f2854fd53482e5daf16f00a3ba3fdea03fae8cec067"),
    ("seq power_identity --q 1048576 --k 2 --max-n 41", "b392187980d5d68a3c324c4d19cca83b65dd8568735b3933630295c79de3b397"),
    ("seq diagonalizable --q 2 --max-n 57", "80fbc4c62cd53fa07f92a6eafc336c752058937b8e979320c3f28ed20d19b330"),
    ("seq diagonalizable --q 1000003 --max-n 24", "2f1e9f1a3baf099992a75949385b1eb9af9756153edda85d114952b7bd83f84b"),
    ("seq qbell --q 2 --max-n 57", "052516094616339752ad6fc971fa87c27d65ac874b869dd4c78b1ded7531e6b8"),
    ("seq qbell --q 1000003 --max-n 24", "e91815c329b555f19e2e8a1f040157c7abeac995e2e20f00ac30dbf7f0d96a9f"),
    ("table qstirling_row --q 2 --max-n 34", "438d397241f559e788741f4e797e9bc1a3b1d6e8ea334d3a2a2243c3d7d531d9"),
    ("table qstirling_row --q 1000003 --max-n 16", "14ce75cb8ec8d3eb7a313364903f3a86e52b538c9630c2715a76d63e7d487071"),
    ("seq min_centralizer --q 2 --max-n 237", "2b8a6389574be6841dfe21e9789d0a380428b39461cdf91dc8419a7df42aafe5"),
    ("seq min_centralizer --q 1009 --max-n 107", "f2811b8bd97326941e6f7edd6e0a45688418de2ce90166fbdc7ec89b8a3de5df"),
    ("seq min_centralizer --q 2305843009213693951 --max-n 107", "6abd79de38d707f93f7107849921f9c79038aae947e2df18bcd0dfa3eb3e055c"),
    ("seq min_centralizer --q 717897987691852588770249 --max-n 107", "883f7420f2be19a7663c26d1c7f89553f349693712ab3f76c6365b957cc53668"),
    ("seq max_class --q 2 --max-n 237", "76fda62d5b03d5b54b8d7a3fd494cb796e75c586715a3790ce0eed05d9a4dbc8"),
    ("seq max_class --q 1009 --max-n 107", "56b51cde08e4e9510c6872abeb5058710f1438d6ec811ca5e241212d7d371224"),
]


@pytest.mark.parametrize("line, digest", EDGE_DIGESTS, ids=[line for line, _ in EDGE_DIGESTS])
def test_guard_edge_text_is_unchanged(capsys, line, digest):
    *argv, max_n = line.split()
    code, out, err = run_cli(capsys, *argv, max_n)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    code, out, err = run_cli(capsys, *argv, str(int(max_n) + 1))
    assert (code, out) == (2, "") and "bound" in err


def test_large_prime_field(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "invertible", "--q", "2305843009213693951", "--max-n", "1"
    )
    assert (code, out) == (0, "1 2305843009213693950\n")
    # prime, but beyond the range where the primality test is a proof
    code, _, err = run_cli(capsys, "seq", "invertible", "--q", str(2**89 - 1))
    assert code == 2
    assert "proven range" in err


def test_a_failed_exact_division_in_a_closed_form_exits_two(capsys, monkeypatch):
    from qmcount import qcount

    # 2a + 1 is odd and 2b even: every division of the rank triangle fails
    divide = qcount.exact_div
    monkeypatch.setattr(qcount, "exact_div", lambda a, b, *text: divide(2 * a + 1, 2 * b))
    code, out, err = run_cli(capsys, "table", "rank_row", "--q", "3", "--max-n", "5")
    assert (code, out, err) == (2, "", "error: an exact division left a remainder\n")


def test_a_centralizer_that_does_not_divide_the_group_order_exits_two(capsys, monkeypatch):
    from qmcount import classtypes
    from qmcount.qcount import gl_order

    # |GL_n(q)| + 1 divides no |GL_n(q)|
    monkeypatch.setattr(
        classtypes, "min_centralizer_orders", lambda q, top: [gl_order(q, n) + 1 for n in range(top + 1)]
    )
    code, out, err = run_cli(capsys, "seq", "max_class", "--q", "3", "--max-n", "4")
    assert (code, out, err) == (2, "", "error: the smallest centralizer order does not divide |GL_1(3)|\n")


# argv at the edge of the one-pass reader, each left to argparse, with the
# exit code, stdout and last stderr line the argparse-only front end gave
READER_EDGES = [
    (("limit", "invertible", "--q", "3", "--dig", "5"), 0, "0.56012\n", ""),
    (("limit", "invertible", "--q=3"), 0, "0.56012\n", ""),
    (("seq", "invertible", "--q", "2", "--max-n", "3", "--max-n", "4"), 0, "1 1 6 168 20160\n", ""),
    (("seq", "invertible", "-h"), 0, "usage: qmcount seq [-h] --q Q [--k K]", ""),
    (("limit", "invertible", "--q", "--", "3"), 2, "",
     "qmcount limit: error: argument --q: expected one argument\n"),
    (("seq", "--q", "2", "invertible", "--max-n", "3"), 0, "1 1 6 168\n", ""),
    (("seq", "invertible", "--q", "2", "--max-n"), 2, "",
     "qmcount seq: error: argument --max-n: expected one argument\n"),
    (("seq", "invertible", "--q", "３", "--max-n", "3"), 0, "1 2 48 11232\n", ""),
    (("verify", "--oracle-budget", "x"), 2, "",
     "qmcount verify: error: argument --oracle-budget: invalid int value: 'x'\n"),
]


@pytest.mark.parametrize("argv, code, out, err", READER_EDGES, ids=[" ".join(a) for a, *_ in READER_EDGES])
def test_argv_the_reader_leaves_to_argparse(capsys, argv, code, out, err):
    assert cli._read_argv(list(argv)) is None
    got_code, got_out, got_err = run_cli(capsys, *argv)
    assert got_code == code
    assert got_out.startswith(out) if out.startswith("usage:") else got_out == out
    assert got_err.splitlines(keepends=True)[-1:] == ([err] if err else [])


def test_a_negative_value_is_read_as_argparse_reads_it(capsys):
    # argparse takes "-3" as a value, not a flag, since no flag looks like a number
    argv = ("seq", "invertible", "--q", "-3")
    assert vars(cli._read_argv(list(argv)))["q"] == -3
    assert run_cli(capsys, *argv) == (2, "", "error: field size must be at least 2, got -3\n")


def argparse_values(argv: list[str]) -> dict | None:
    """vars() of argparse's Namespace for argv, None where it exits; what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


# the grammar, written out again for the fuzz: a flag's value kind per command
FUZZ_FLAGS = {
    "seq": {"--q": "int", "--k": "int", "--min-n": "int", "--max-n": "int", "--format": "format"},
    "limit": {"--q": "int", "--digits": "int"},
    "verify": {"--oracle-budget": "int", "--quiet": None},
}
FUZZ_FLAGS["table"] = FUZZ_FLAGS["seq"]
FUZZ_NAMES = {
    "seq": ("invertible", "cyclic", "qbinom_row", "power_identity"),
    "table": ("qbinom_row", "rank_row"),
    "limit": LIMIT_KINDS,
}
GOOD_VALUES = {"int": ("0", "2", "-1", "17", "0009", "9" * 40), "format": ("plain", "json", "bfile")}
BAD_VALUES = {
    "int": ("", "x", "+2", " 2", "2 ", "1_0", "３", "-３", "2.0", "0x10", "-", "--", "-x", "9" * 5000),
    "format": ("", "xml", "JSON", "-json", "json "),
}


def fuzz_argv(rng: random.Random) -> tuple[list[str], bool]:
    """A random argv near the plain form, and whether it is in that form:
    COMMAND NAME (--flag VALUE)*, each flag in full and given once, each
    value valid and every required flag given.  Each change the fuzz makes
    takes the argv out of the form."""
    command = rng.choice(tuple(FUZZ_FLAGS))
    flags = FUZZ_FLAGS[command]
    pairs = [[f] if flags[f] is None else [f, rng.choice(GOOD_VALUES[flags[f]])]
             for f in flags if f == "--q" or rng.random() < 0.4]
    rng.shuffle(pairs)
    name = [rng.choice(FUZZ_NAMES[command])] if command in FUZZ_NAMES else []
    before_name = []
    plain = True
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        full = [p for p in pairs if p[0] in flags]
        valued = [p for p in full if len(p) == 2]
        change = rng.randrange(12)
        if change == 0 and [p for p in full if len(p[0]) > 3]:  # an abbreviated flag
            pair = rng.choice([p for p in full if len(p[0]) > 3])
            pair[0] = pair[0][: rng.randrange(3, len(pair[0]))]
        elif change == 1 and valued:  # --flag=value
            pair = rng.choice(valued)
            pair[:] = [f"{pair[0]}={pair[1]}"]
        elif change == 2 and full:  # a flag given twice
            pairs.insert(rng.randrange(len(pairs) + 1), list(rng.choice(full)))
        elif change == 3 and any(p[0] == "--q" for p in pairs):  # no --q
            pairs = [p for p in pairs if p[0] != "--q"]
        elif change == 4 and valued:  # an invalid value
            pair = rng.choice(valued)
            pair[1] = rng.choice(BAD_VALUES[flags[pair[0]]])
        elif change == 5:  # help or the end of options, anywhere after the command
            pairs.insert(rng.randrange(len(pairs) + 1), [rng.choice(("-h", "--help", "--"))])
        elif change == 6 and name and pairs:  # a flag before the name
            before_name += pairs.pop(rng.randrange(len(pairs)))
        elif change == 7:  # a stray token or an unknown flag
            pairs.insert(rng.randrange(len(pairs) + 1), [rng.choice(("extra", "--x", "-q", "q", ""))])
        elif change == 8 and valued:  # a flag with no value, last
            pair = rng.choice(valued)
            pairs.remove(pair)
            pairs.append(pair[:1])
        elif change == 9 and name:  # a name outside the choices
            name = [rng.choice(("", "no_such", "-h", "invertible" if command == "table" else "rank"))]
        elif change == 10:  # a command outside the choices
            command = rng.choice(("", "sq", "--help", "-h", "limits"))
        elif change == 11 and name:  # no name
            name = []
        else:
            continue
        plain = False
    return [command, *before_name, *name, *(t for pair in pairs for t in pair)], plain


def benchmark_cli_lines(monkeypatch) -> tuple[str, ...]:
    """Every CLI line of perfbench/workloads.py, the module listed in
    sys.modules while it runs, as its dataclasses need."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads.FORMULAS_CLI + workloads.SERIES_CLI


def test_the_one_pass_reader_agrees_with_argparse(monkeypatch):
    corpus = Path(__file__).with_name("cli_corpus.txt").read_text().splitlines()
    lines = [line.split()[1:] for line in corpus] + [
        line.split() for line in benchmark_cli_lines(monkeypatch)
    ]
    assert len(lines) > 1747
    for argv in lines:
        read = cli._read_argv(argv)
        assert read is not None and vars(read) == argparse_values(argv), argv
    rng = random.Random(45)
    kinds = Counter()
    for _ in range(2400):
        argv, plain = fuzz_argv(rng)
        read = cli._read_argv(argv)
        assert (read is not None) == plain, argv
        expected = argparse_values(argv)
        assert read is None or vars(read) == expected, argv
        kinds[plain, expected is None] += 1
    # plain argv, and argv argparse reads and refuses outside the form
    assert min(kinds[True, False], kinds[False, False], kinds[False, True]) > 300, kinds
