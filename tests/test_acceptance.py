"""Acceptance gate: one test per headline correctness claim.

Each test prints a single [PASS]/[FAIL] line for its criterion and then
asserts.  Criterion 5 pins the limit digits that `qmcount verify` checks.
It carries one corrected erratum: the paper states the cyclic limit at
q = 2 as "0.7403", but the closed form (1 - q^-5) prod_{r>=3}(1 - q^-r)
and the cycle-index product both prove 0.74603..., so the pinned target
is "0.7460" and the test also asserts that the proof excludes "0.7403".
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from qmcount import verify
from qmcount.limits import cyclic_limit_bracket, decimal_truncate
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


# SHA-256 of json.dumps([asdict(tallies), orbits], sort_keys=True) for the
# orbit_census of every SWEEP_CASES entry, recorded from a walk that
# conjugated entry lists by 2(n - 1) + [q > 2] elementary generators, not
# through code tables.  Any change to the walk must reproduce every tally
# and every (size, invertible) orbit, in order.
ORBIT_CENSUS_SHA256 = {
    (2, 1): "d777d3de8b9f0c318ef810f6cfe12ad4f7cc805419793799eae1e497723e2ba1",
    (2, 2): "4811fa3af46fc19a1a1e53ba140d712496c87d6a220d8bea84040a55362eec55",
    (3, 1): "440b56c2c3de53817355a2be39044744a9bc3f4209a41f1c2c1540aedfef8662",
    (3, 2): "06dbaba90b800149c70c3c532ba750db04894a79b207f6fe3437fa2977465d21",
    (4, 1): "2b36044e7a38485c694844abd1d4ff9bc64d61f2f49f548e96606c1347779d3e",
    (4, 2): "310f466a43aff83f4409a060e569ed06cce6417e378553bfa00324b857e90275",
    (5, 2): "a596979222a556da61f5e847d2195125d723ff96304af03e5d8d29a173b04b96",
    (2, 3): "6dc9ca3c533cb6f3a00eacae09c2ac91c5b07a2d94154ffa35a696138ed4ed3f",
    (3, 3): "f202bb3d17449579ea3d95e8234eaa57cc4f1c433a23c359c5db8b6107e1c5e6",
    (2, 4): "5465317ce56b7d1aa8f815050432b8f852649a1b8d26357335a7ad263383a328",
    (4, 3): "4c32b2f69dee9f9d02b6880bf09bc71d1e8879ede59ea1c91920e33be08212be",
    (7, 2): "7671c09c0cb888155e2c4e24b8f60a28cf7970602d691c842c1530120082a680",
    (8, 2): "7b4fda6c6c17d79e3f45c78282a46d08030690a0b231b70006f14206fd2d6c0b",
    (9, 2): "6dc55085762ddf702d9cc7a6a7dca1dcffb6706418ba67935bc59c46eabe0355",
    (11, 2): "910efaa4e9b50f94adb23195a7825e2a4206c021cbeffcfecffab1a94788c1dd",
    (13, 2): "5c12deb5106918e26a4696c193a169097207cd5b438ed125b737a349915f4fa9",
    (16, 2): "0d69bcfd2b4c94d5cd7c7ac4f8f05b0a05bc8d03ff1d84226bd7f124d17aa41f",
}


def test_orbit_census_reproduces_its_pinned_digests(sweeps):
    assert set(ORBIT_CENSUS_SHA256) == set(verify.SWEEP_CASES) == set(sweeps)
    for case, (tallies, orbits) in sweeps.items():
        payload = json.dumps([dataclasses.asdict(tallies), orbits], sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == ORBIT_CENSUS_SHA256[case], case


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


# SHA-256 of every "suite: name" line run_suites gives on the standard
# sweeps, in order, recorded when the four separable_classes checks against
# the square-free products were added.  A check dropped, renamed or moved
# changes it.
CHECK_LIST_SHA256 = "8453124f18084182178336732004de92d1c40d935dd0ba1a48a23c2d47790220"


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
    assert len(results) == 674
    listing = "\n".join(f"{r.suite}: {r.name}" for r in results)
    assert hashlib.sha256(listing.encode()).hexdigest() == CHECK_LIST_SHA256
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert f"({len(results)} internal cross-checks)" in readme
