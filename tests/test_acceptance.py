"""Acceptance gate: one test per headline correctness claim.

Each test prints a single [PASS]/[FAIL] line for its criterion and then
asserts.  Criterion 5 pins the limit digits that `qmcount verify` checks.
It carries one corrected erratum: the paper states the cyclic limit at
q = 2 as "0.7403", but the closed form (1 - q^-5) prod_{r>=3}(1 - q^-r)
and the cycle-index product both prove 0.74603..., so the pinned target
is "0.7460" and the test also asserts that the proof excludes "0.7403".
"""

from __future__ import annotations

import pytest

from qmcount import verify
from qmcount.gfengine import cyclic_limit_bracket, decimal_truncate
from qmcount.qcount import involution_count_char2
from qmcount.verify import (
    cross_route_checks,
    failures,
    identity_checks,
    limit_checks,
    oracle_checks,
    oracle_sweeps,
    regression_checks,
    trend_checks,
)


@pytest.fixture(scope="module")
def sweeps():
    return oracle_sweeps()


def report(criterion: str, results) -> None:
    bad = failures(results)
    status = "FAIL" if bad else "PASS"
    print(f"[{status}] {criterion}: {len(results) - len(bad)}/{len(results)} checks")
    for r in bad:
        print(f"    {r.suite}: {r.name}: {r.detail}")
    assert not bad, f"{criterion}: {len(bad)} of {len(results)} checks failed"


def test_criterion_1_pinned_values_recompute_exactly():
    report("criterion 1 (published value regression)", regression_checks())


def test_criterion_2_independent_routes_agree(sweeps):
    results = cross_route_checks()
    report("criterion 2 (closed form vs series routes)", results)
    # the involution count has a summation route and the exhaustive route
    compared = 0
    for (q, n), (sw, _) in sorted(sweeps.items()):
        if q in (2, 4):
            assert sw.power_identity[2] == involution_count_char2(q, n), (q, n)
            compared += 1
    assert compared >= 6
    print(f"[PASS] criterion 2 (involution sum vs sweep): {compared} cases")


def test_criterion_3_oracle_matches_formulas_and_series(sweeps):
    required = {
        (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
        (7, 2), (8, 2), (9, 2), (11, 2), (13, 2), (16, 2),
    }
    assert required <= set(sweeps), "an exhaustive sweep case is missing"
    results = oracle_checks(sweeps)
    names = {r.name for r in results}
    # every swept case gets its orbit checks from the walk that swept it
    for q, n in sweeps:
        assert f"class count, all matrices q={q} n={n}" in names
        assert f"class count, invertible q={q} n={n}" in names
    report("criterion 3 (exhaustive enumeration agreement)", results)


def test_criterion_4_series_identities_hold():
    report("criterion 4 (series and summation identities)", identity_checks())


# The cyclic limit at q = 2 as the paper states it.  No formula in the
# package gives it: limit_eval's closed form and cyclic_limit_bracket's
# cycle-index product both prove 0.74603..., the limit the exact cyclic
# counts approach.  Kept as a record of the erratum, not as a target.
PAPER_CYCLIC_LIMIT_Q2 = "0.7403"


def test_criterion_5_limiting_probabilities_digit_exact():
    # the same list `qmcount verify` checks, pinned here digit by digit
    assert verify.LIMIT_TARGETS == (
        ("invertible", 2, 5, "0.28878"),
        ("invertible", 3, 5, "0.56012"),
        ("cyclic", 2, 4, "0.7460"),
    )
    results = limit_checks()
    if failures(results):
        print(
            "    limit_eval evaluates the cyclic limit by the closed form\n"
            "    (1 - q^-5) prod_(r>=3) (1 - q^-r); cyclic_limit_bracket evaluates\n"
            "    prod_(r>=1) (1 - q^-r) prod_(d>=1) (1 + 1/(q^d (q^d - 1)))^nu_d\n"
            "    from the cycle index with proven bounds.  Both must print the\n"
            "    pinned digits."
        )
    report("criterion 5 (limiting probability digits)", results)
    lo, hi = cyclic_limit_bracket(2, 4)
    proven = decimal_truncate(lo, 4)
    assert proven == decimal_truncate(hi, 4) == "0.7460"
    assert proven != PAPER_CYCLIC_LIMIT_Q2
    print(f"[NOTE] cyclic limit q=2: stated {PAPER_CYCLIC_LIMIT_Q2}, proven {proven}")


def test_criterion_6_convergence_trends_within_tolerance():
    report("criterion 6 (asymptotic trend tolerance)", trend_checks())


def test_full_suite_summary(sweeps):
    # everything above, through the suite list the CLI's run_all uses
    results = verify.run_suites(sweeps)
    assert {r.suite for r in results} == {
        "regression", "identity", "cross_route", "trend", "limit", "oracle"
    }
    bad = failures(results)
    print(f"full verification: {len(results) - len(bad)}/{len(results)} checks passed")
    assert not bad
    assert hasattr(verify, "run_all")
