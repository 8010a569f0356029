"""Exact counts of n x n matrix classes over finite fields.

Every count is available through at least two independent routes (closed
formulas and truncated generating functions), cross-validated against an
exhaustive small-field enumeration oracle; see the verify module.

Importing the package loads ffpoly and qcount, which every route needs.
Every other export, and every other submodule (``qmcount.verify`` and the
rest), is imported on first access, so a process that prints one sequence
never loads the oracle or the verify suites.
"""

from importlib import import_module

__version__ = "0.1.0"

# every export by its home module; __getattr__ imports each on first access,
# except ffpoly's and qcount's, bound below
_EXPORTS = {
    "exact_series": ("TruncSeries",),
    "ffpoly": (
        "FieldSpec", "NotCoprime", "build_field", "cyclotomic_factor_degrees", "field_for",
        "irreducible_poly_count", "moebius", "multiplicative_order", "squarefree_test",
    ),
    "gfengine": (
        "BadKindParams", "CostExceeded", "GF_KINDS", "LIMIT_KINDS", "centralizer_order",
        "euler_rule", "extract_count", "gf_build", "gf_counts", "limit_eval", "partitions_of",
        "q_stirling_via_gf",
    ),
    "oracle": (
        "BudgetExceeded", "FqMatrix", "char_poly", "classify", "count_matching",
        "enumerate_matrices", "max_class_size", "min_centralizer_order", "min_poly",
        "sweep_counts",
    ),
    "qcount": (
        "CharNotTwo", "NonIntegralCount", "PrimePower", "diagonalizable_count",
        "gaussian_binomial", "gl_order", "involution_count_char2", "linear_derangement_count",
        "linear_derangement_reduced", "nilpotent_count", "projection_count", "q_bell",
        "q_factorial", "q_int", "q_multinomial", "q_stirling", "rank_count",
        "separable_class_count", "subspace_total",
    ),
    "sequences": (
        "SEQUENCE_NAMES", "SequenceSpec", "UnsupportedSequence", "emit_bfile", "emit_json",
        "emit_plain", "make_spec", "parse_bfile", "sequence_values",
    ),
    "verify": ("CheckResult", "run_all"),
}
# Bound at import, not by __getattr__: every route loads ffpoly and qcount
# anyway, and a bound name is a plain attribute, so code that replaces it
# with setattr (a tracer, a test's monkeypatch) and later puts the original
# back leaves the package as it found it.  A name resolved on first access
# would copy whatever its home module held at that moment, a patch included,
# and keep it after the home module was restored.
globals().update(
    (name, getattr(import_module(f".{module}", __name__), name))
    for module in ("ffpoly", "qcount")
    for name in _EXPORTS[module]
)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (
    "classtypes", "cli", "exact_series", "gfengine", "oracle", "regression", "sequences", "verify",
)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """An export or submodule not yet loaded: import it and keep it here."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
