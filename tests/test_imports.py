"""What importing the package loads, and how its lazy exports resolve."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qmcount

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def fresh(code: str):
    """The JSON that `code`, run in a fresh interpreter, prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qmcount'))))"


def newly_loaded(code: str) -> set[str]:
    """The modules that `code`, run in a fresh interpreter, loads beyond
    those the interpreter had loaded before it; json is imported to print
    them only after they are listed."""
    return set(fresh(
        f"before = set(sys.modules)\n{code}\nloaded = sorted(set(sys.modules) - before)\n"
        "import json\nprint(json.dumps(loaded))"
    ))


def cli_requests(*lines: str) -> str:
    """Code that runs each line through cli.main, output discarded, and checks it succeeded."""
    return (
        "import contextlib, io\n"
        "from qmcount import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(a.split()) for a in {lines!r}]\n"
        "assert not any(codes), codes"
    )


# what a dataclass, a typing.NamedTuple or an eager import would load
HEAVY = {"dataclasses", "inspect", "typing"}

# the modules of the series engine and the Fractions its series carry
ENGINE = {"qmcount.gfengine", "qmcount.exact_series", "fractions"}


def test_import_loads_only_ffpoly_and_qcount():
    # and the scaled-series kernel that qcount reads, and no dataclasses or typing
    loaded = newly_loaded("import qmcount\nqmcount.field_for(3)")
    assert sorted(m for m in loaded if m.startswith("qmcount")) == [
        "qmcount", "qmcount.ffpoly", "qmcount.qcount", "qmcount.scaled",
    ]
    assert not HEAVY & loaded


def test_closed_forms_and_limits_never_load_the_series_engine():
    loaded = newly_loaded(cli_requests(
        "seq invertible --q 2 --max-n 5",
        "table rank_row --q 3 --max-n 4",
        "limit invertible --q 2 --digits 20",
    ))
    assert "qmcount.limits" in loaded
    assert not {"qmcount.classtypes", "json", *ENGINE, *HEAVY} & loaded


def test_the_series_engine_never_loads_the_limits():
    assert "qmcount.limits" not in newly_loaded("import qmcount.gfengine")


def formulas_requests(monkeypatch) -> tuple[str, ...]:
    """The benchmark's formulas workload: closed forms, qbell, the two
    knapsack sequences and the limits, each one CLI line.  Its module is
    listed in sys.modules while it runs, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads.FORMULAS_CLI


def test_no_formulas_request_loads_the_series_engine(monkeypatch):
    lines = formulas_requests(monkeypatch)
    assert any(line.startswith("seq qbell") for line in lines)
    assert any(line.startswith("seq min_centralizer") for line in lines)
    assert not ENGINE & newly_loaded(cli_requests(*lines))


def test_qbell_loads_no_more_than_a_closed_form_and_the_knapsack_only_classtypes():
    closed_form = newly_loaded(cli_requests("seq invertible --q 2 --max-n 5"))
    assert newly_loaded(cli_requests("seq qbell --q 2 --max-n 18")) == closed_form
    for line in ("seq min_centralizer --q 5 --max-n 4", "seq max_class --q 2 --max-n 6"):
        assert newly_loaded(cli_requests(line)) == closed_form | {"qmcount.classtypes"}


def test_only_json_output_loads_json():
    assert "json" not in newly_loaded(cli_requests("seq cyclic --q 2 --max-n 5"))
    assert "json" in newly_loaded(cli_requests("seq invertible --q 2 --max-n 5 --format json"))


def test_a_series_request_loads_the_engine_and_nothing_heavy():
    loaded = newly_loaded(cli_requests("seq cyclic --q 2 --max-n 10"))
    assert "qmcount.gfengine" in loaded
    assert not HEAVY & loaded


def test_the_class_type_reference_never_loads_the_engine_it_checks():
    code = (
        "import json\nfrom qmcount import classtypes\n"
        "assert classtypes.class_type_counts('semisimple', 2, 8)[8] > 0\n"
        f"{LOADED}"
    )
    assert "qmcount.gfengine" not in fresh(code)


def test_import_loads_no_decimal():
    # qcount's tables take their number type from `one`, never from an import
    code = (
        "import json, qmcount\nqmcount.field_for(3)\n"
        "print(json.dumps(sorted({'decimal', '_decimal'} & set(sys.modules))))"
    )
    assert fresh(code) == []


def test_seq_table_and_limit_never_load_the_oracle_or_the_suites():
    code = (
        "import contextlib, io, json\n"
        "from qmcount import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(a.split()) for a in ("
        "'seq cyclic --q 2 --max-n 10', 'table rank_row --q 3 --max-n 4', "
        "'limit invertible --q 2 --digits 20')]\n"
        f"assert codes == [0, 0, 0], codes\n{LOADED}"
    )
    loaded = fresh(code)
    assert "qmcount.cli" in loaded and "qmcount.sequences" in loaded
    assert not {
        "qmcount.classtypes", "qmcount.oracle", "qmcount.regression", "qmcount.verify"
    } & set(loaded)


def test_verify_runs_in_a_fresh_interpreter():
    code = (
        "import contextlib, io, json\n"
        "from qmcount import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main(['verify', '--oracle-budget', '16', '--quiet'])\n"
        "print(json.dumps([code, out.getvalue(), 'qmcount.classtypes' in sys.modules]))"
    )
    assert fresh(code) == [0, "335/335 checks passed\n", True]


def test_every_export_is_its_home_modules_object():
    assert sum(map(len, qmcount._EXPORTS.values())) == len(qmcount.__all__)
    for name in qmcount.__all__:
        home = importlib.import_module(f"qmcount.{qmcount._HOME[name]}")
        value = getattr(qmcount, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_submodules_and_star_import_resolve_in_a_fresh_interpreter():
    code = (
        "import json, qmcount\n"
        "ok = callable(qmcount.verify.run_all) and 'verify' in dir(qmcount)\n"
        "scope = {}\n"
        "exec('from qmcount import *', scope)\n"
        "print(json.dumps([ok, sorted(set(qmcount.__all__) - set(scope))]))"
    )
    assert fresh(code) == [True, []]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'qmcount' has no attribute 'no_such_name'"):
        qmcount.no_such_name
    assert not hasattr(qmcount, "DEFAULT_ENUM_BUDGET")
    with pytest.raises(ImportError):
        from qmcount import no_such_name  # noqa: F401


# the names the benchmark's tracer looks for that this version no longer has
TRACER_MISSING = [
    "TruncSeries.__mul__", "TruncSeries.__pow__", "TruncSeries.exp", "TruncSeries.recip",
    "qmcount.cli.triangle_column", "qmcount.cli.triangle_rows",
    "qmcount.gfengine.euler_inverse_factor", "qmcount.gfengine.nu_weighted_product",
    "qmcount.gfengine.unit_partition_sum", "qmcount.sequences.diagonalizable_count",
    "qmcount.sequences.extract_count", "qmcount.sequences.gaussian_binomial",
    "qmcount.sequences.gf_build", "qmcount.sequences.involution_count_char2",
    "qmcount.sequences.linear_derangement_count",
    "qmcount.sequences.nilpotent_count", "qmcount.sequences.projection_count",
    "qmcount.sequences.q_bell", "qmcount.sequences.q_factorial",
    "qmcount.sequences.q_stirling", "qmcount.sequences.rank_count",
    "qmcount.sequences.separable_class_count", "qmcount.sequences.subspace_total",
]


def test_the_benchmark_tracer_installs_and_uninstalls_cleanly():
    # the tracer patches qmcount.field_for by identity with ffpoly's, so the
    # ffpoly and qcount exports must be bound at import, not on first access;
    # a fresh interpreter, since an earlier access would bind a lazy name too
    code = (
        "import importlib.util, json, qmcount\n"
        "from qmcount import ffpoly\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "original = ffpoly.field_for\n"
        "tr = tracer.Tracer()\n"
        "tr.install()\n"
        "missing = sorted(set(tr.missing))\n"
        "tr.uninstall()\n"
        "print(json.dumps([missing, qmcount.field_for is original, ffpoly.field_for is original]))"
    )
    assert fresh(code) == [TRACER_MISSING, True, True]


# the benchmark's modules and the qmcount modules they read by name
BENCHMARK_FILES = ("workloads.py", "make_refs.py", "run.py", "selftest.py")
BENCHMARK_READS = {"cli", "gfengine", "oracle", "qcount", "qmcount", "sequences"}


def test_every_name_the_benchmark_reads_resolves():
    # each `module.name` the benchmark reads and each `from qmcount... import
    # name`, so that a change which removes one fails here and not in a run
    read = set()
    for name in BENCHMARK_FILES:
        for node in ast.walk(ast.parse((ROOT / "perfbench" / name).read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in BENCHMARK_READS:
                    module = "qmcount" if node.value.id == "qmcount" else f"qmcount.{node.value.id}"
                    read.add((module, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qmcount":
                read.update((node.module, alias.name) for alias in node.names)
    assert ("qmcount.gfengine", "q_stirling_via_gf") in read and len(read) > 20
    for module, name in sorted(read):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
