"""Command-line interface: output formats, exit codes, budget handling."""

from __future__ import annotations

import json
from decimal import Decimal

import pytest

from qmcount import regression, sequences
from qmcount.cli import BUDGET_ENV, main
from qmcount.regression import RegressionEntry
from qmcount.sequences import make_spec, parse_bfile, sequence_values


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_plain(capsys):
    code, out, err = run_cli(capsys, "seq", "invertible", "--q", "2", "--max-n", "5")
    assert code == 0
    assert out == "1 1 6 168 20160 9999360\n"
    assert err == ""


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


def test_limit(capsys):
    code, out, _ = run_cli(capsys, "limit", "invertible", "--q", "3")
    assert code == 0
    assert out == "0.56012\n"
    code, out, _ = run_cli(capsys, "limit", "invertible", "--q", "2")
    assert out == "0.28878\n"
    code, out, _ = run_cli(capsys, "limit", "cyclic", "--q", "2", "--digits", "4")
    assert out == "0.7460\n"


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
        ("seq", "cyclic", "--q", "2", "--max-n", "9", "--order", "4"),
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


def test_env_budget_caps_oracle_work(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "10")
    code, _, err = run_cli(capsys, "seq", "min_centralizer", "--q", "3", "--max-n", "2")
    assert code == 2
    assert "budget" in err


def test_flag_budget_beats_env(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "10")
    code, out, _ = run_cli(
        capsys,
        "seq",
        "min_centralizer",
        "--q",
        "3",
        "--max-n",
        "2",
        "--oracle-budget",
        "100000",
    )
    assert code == 0
    assert out == "2 4\n"


def test_invalid_env_budget(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "plenty")
    code, _, err = run_cli(capsys, "seq", "min_centralizer", "--q", "3", "--max-n", "1")
    assert code == 2
    assert BUDGET_ENV in err


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
    monkeypatch.setattr(regression, "SEQUENCES", (broken,))
    code, out, _ = run_cli(capsys, "verify", "--oracle-budget", "2", "--quiet")
    assert code == 1
    assert "[FAIL] regression: invertible q=2" in out


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
    real_build = sequences.gf_build

    def build_once(kind, q, order, **params):
        key = (kind, q, order, tuple(sorted(params.items())))
        if key not in built:
            built[key] = real_build(kind, q, order, **params)
        return built[key]

    monkeypatch.setattr(sequences, "gf_build", build_once)
    spec = make_spec("semisimple", 2, max_n=120, align_to_oeis=True)
    expected = sequence_values(spec)
    assert len(str(Decimal(expected[-1]))) > 4300
    code, out, err = run_cli(
        capsys, "seq", "semisimple", "--q", "2", "--max-n", "120", "--format", "bfile"
    )
    assert (code, err) == (0, "")
    assert parse_bfile(out) == (spec.min_n, expected)


def test_large_prime_field(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "invertible", "--q", "2305843009213693951", "--max-n", "1"
    )
    assert (code, out) == (0, "1 2305843009213693950\n")
    # prime, but beyond the range where the primality test is a proof
    code, _, err = run_cli(capsys, "seq", "invertible", "--q", str(2**89 - 1))
    assert code == 2
    assert "proven range" in err
