"""Record the reference output of every benchmark request, after cross-checks.

    python3 perfbench/make_refs.py

Runs each workload's requests once, in canonical order, checks the outputs
against independent routes (closed forms, second generating functions,
brute-force orbit sweeps, recurrences), and writes ``refs.json`` with the
SHA-256 and size of each output.  The file in the repository was written
from the seed commit; rerun this only to add a request, never to accept a
changed output.

One request is a known defect at the seed: ``seq semisimple --q 2
--max-n 120 --format bfile`` exits 2 because its largest values pass
Python's 4300-digit int-to-text limit.  Its reference is the digest of
the values from ``sequence_values``, written in hexadecimal, so neither
this script nor the benchmark raises the limit.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from qmcount import gfengine, oracle, qcount, sequences  # noqa: E402
from qmcount.qcount import gl_order  # noqa: E402

DEFECT_RID = "qmcount seq semisimple --q 2 --max-n 120 --format bfile"
DEFECT_TEXT = "Exceeds the limit (4300 digits) for integer string conversion"


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")
    print(f"  ok  {what}")


def plain_values(text: str) -> list[int]:
    return [int(v) for v in text.split()]


def run_all() -> dict[str, dict[str, workloads.Outcome]]:
    got = {}
    for w in workloads.WORKLOADS:
        reqs = workloads.build(w)
        done = workloads.run_pass(reqs, list(range(len(reqs))))
        got[w] = {o.rid: o for o in done.outcomes}
    return got


def check_oracle(sweeps, orbits33, orbits23, minc23, series) -> None:
    for (q, n), r in sweeps.items():
        p = qcount.PrimePower.of(q).p
        tag = f"sweep({q},{n})"
        expect(r.consistency_violations == 0, f"{tag} records consistent")
        expect(r.total == q ** (n * n), f"{tag} total")
        expect(r.invertible == gl_order(q, n), f"{tag} invertible = gl_order")
        expect(r.nilpotent == qcount.nilpotent_count(q, n), f"{tag} nilpotent_count")
        expect(r.projection == qcount.projection_count(q, n), f"{tag} projection_count")
        expect(r.diagonalizable == qcount.diagonalizable_count(q, n), f"{tag} diagonalizable_count")
        expect(r.rank == tuple(qcount.rank_count(q, n, n, k) for k in range(n + 1)), f"{tag} rank_count")
        for kind in ("cyclic", "semisimple", "separable", "linear_derangement", "projective_derangement"):
            expect(getattr(r, kind) == workloads.gf_counts(kind, q, n)[n], f"{tag} {kind} = GF count")
        for k, v in r.power_identity.items():
            if k % p:
                gf = gfengine.gf_build("power_identity", q, n, k=k)
                expect(v == gfengine.extract_count(gf, n, q), f"{tag} A^{k}=I = GF count")
            elif k == 2 and p == 2:
                expect(v == qcount.involution_count_char2(q, n), f"{tag} A^2=I = involution count")

    all3 = series["qmcount seq conjclasses_all --q 3 --max-n 60 --format bfile"]
    gl2 = series["qmcount seq conjclasses_gl --q 2 --max-n 120 --format bfile"]
    expect(sum(orbits33) == 3**9, "orbits(3,3) cover M_3(F_3)")
    expect(all(gl_order(3, 3) % s == 0 for s in orbits33), "orbits(3,3) sizes divide |GL_3(F_3)|")
    expect(len(orbits33) == all3[3], "orbits(3,3) count = conjclasses_all q=3 n=3")
    expect(sum(orbits23) == gl_order(2, 3), "GL orbits(2,3) cover GL_3(F_2)")
    expect(len(orbits23) == gl2[3], "GL orbits(2,3) count = conjclasses_gl q=2 n=3")
    expect(minc23 == gl_order(2, 3) // max(orbits23), "min_centralizer(2,3) = |GL| / largest class")


def bell_by_recurrence(q: int, N: int) -> list[int]:
    """q-Bell numbers from n b_n = sum_k k a_k b_(n-k), a_k = 1/|GL_k|."""
    b = [Fraction(1)]
    for n in range(1, N + 1):
        b.append(sum(k * Fraction(1, gl_order(q, k)) * b[n - k] for k in range(1, n + 1)) / n)
    return [int(b[n] * gl_order(q, n)) for n in range(N + 1)]


def check_series(series, lib, sweeps) -> None:
    cyc2 = series["qmcount seq cyclic --q 2 --max-n 119 --format bfile"]
    sep2 = series["qmcount seq separable --q 2 --max-n 119 --format bfile"]
    expect(lib["cyclic_alt"] == cyc2, "cyclic_alt q=2 N=119 = cyclic, every coefficient")
    expect(lib["separable_alt"] == sep2, "separable_alt q=2 N=119 = separable, every coefficient")
    bell = lib["bell"]
    expect(bell == bell_by_recurrence(2, 60), "bell q=2 N=60 = exponential recurrence")
    expect(bell[:13] == [qcount.q_bell(2, n) for n in range(13)], "bell q=2 = q_bell for n <= 12")
    expect(
        lib["linear_derangement"] == [qcount.linear_derangement_count(3, n) for n in range(61)],
        "linear_derangement q=3 N=60 = closed form, every coefficient",
    )
    s24, s33 = sweeps[(2, 4)], sweeps[(3, 3)]
    expect(cyc2[4] == s24.cyclic and sep2[4] == s24.separable, "cyclic, separable q=2 n=4 = sweep")
    semi3 = series["qmcount seq semisimple --q 3 --max-n 60 --format bfile"]
    expect(semi3[3] == s33.semisimple, "semisimple q=3 n=3 = sweep")
    expect(
        series["qmcount seq cyclic --q 5 --max-n 40 --format bfile"][2] == sweeps[(5, 2)].cyclic,
        "cyclic q=5 n=2 = sweep",
    )
    expect(
        series["qmcount seq proj_derangement --q 4 --max-n 60 --format bfile"][2]
        == sweeps[(4, 2)].projective_derangement,
        "proj_derangement q=4 n=2 = sweep",
    )
    pi23 = series["qmcount seq power_identity --q 2 --k 3 --max-n 60 --format bfile"]
    expect(pi23[4] == s24.power_identity[3], "power_identity q=2 k=3 n=4 = sweep")
    pi38 = series["qmcount seq power_identity --q 3 --k 8 --max-n 40 --format bfile"]
    direct = oracle.count_matching(3, 2, lambda A: A.matpow(8).is_identity())
    expect(pi38[2] == direct, "power_identity q=3 k=8 n=2 = direct count")


def limit_digits(kind: str, q: int, digits: int = 50, n: int = 250) -> str:
    """Limit digits from |GL_n| / q^(n^2), a route apart from limit_eval."""
    P = Fraction(gl_order(q, n), q ** (n * n))
    slack = Fraction(3 * q, q**n)
    if kind == "projective_frac":
        P = P ** (q - 1)
    elif kind == "cyclic":
        P = P * (1 - Fraction(1, q**5)) / ((1 - Fraction(1, q)) * (1 - Fraction(1, q**2)))
    hi, lo = P * 10**digits, (P - slack) * 10**digits
    if hi.numerator // hi.denominator != lo.numerator // lo.denominator:
        raise SystemExit(f"limit {kind} q={q}: digit boundary within the error bound")
    s = str(hi.numerator // hi.denominator).rjust(digits + 1, "0")
    return s[:-digits] + "." + s[-digits:]


def check_formulas(form, lib) -> None:
    for q, N in ((5, 30), (7, 20)):
        out = form[f"qmcount seq diagonalizable --q {q} --max-n {N}"]
        expect(out == workloads.gf_counts("diagonalizable", q, N), f"diagonalizable q={q} = GF")
    expect(form["qmcount seq qbell --q 2 --max-n 18"] == lib["bell"][1:19], "qbell q=2 = GF bell")
    expect(
        form["qmcount seq projection --q 7 --max-n 60"] == workloads.gf_counts("projection", 7, 60),
        "projection q=7 = GF",
    )
    expect(
        form["qmcount seq lin_derangement --q 2 --max-n 119"]
        == workloads.gf_counts("linear_derangement", 2, 119),
        "lin_derangement q=2 = GF",
    )
    g = [1, 2]  # Goldman-Rota: G(n+1) = 2 G(n) + (q^n - 1) G(n-1)
    for n in range(1, 60):
        g.append(2 * g[n] + (4**n - 1) * g[n - 1])
    expect(form["qmcount seq subspaces_total --q 4 --max-n 60"] == g, "subspaces_total q=4 = Goldman-Rota")
    big = 999999999989
    expect(
        form[f"qmcount seq invertible --q {big} --max-n 10"]
        == [qcount.gl_order_factored(big, n) for n in range(11)],
        "invertible q=999999999989 = factored gl_order",
    )
    minc5 = [gl_order(5, n) // max(oracle.conjugacy_orbit_sizes(5, n, restrict_gl=True)) for n in (1, 2)]
    expect(form["qmcount seq min_centralizer --q 5 --max-n 2"] == minc5, "min_centralizer q=5 = orbit sweep")
    maxc4 = [max(oracle.conjugacy_orbit_sizes(4, n, restrict_gl=True)) for n in (1, 2)]
    expect(form["qmcount seq max_class --q 4 --max-n 2"] == maxc4, "max_class q=4 = orbit sweep")
    rows = form["qmcount table qstirling_row --q 3 --max-n 16"]
    expect(
        rows == [gfengine.q_stirling_via_gf(3, n, k) for n in range(1, 17) for k in range(1, n + 1)],
        "qstirling_row q=3 = GF splitting counts",
    )
    rank = form["qmcount table rank_row --q 3 --max-n 60"]
    rows, i = [], 0
    for n in range(61):
        rows.append(rank[i : i + n + 1])
        i += n + 1
    expect(all(sum(r) == 3 ** (n * n) for n, r in enumerate(rows)), "rank_row q=3 rows sum to 3^(n^2)")
    qb = form["qmcount table qbinom_row --q 2 --max-n 60"]
    rows, i = [], 0
    for n in range(61):
        rows.append(qb[i : i + n + 1])
        i += n + 1
    g = [1, 2]
    for n in range(1, 60):
        g.append(2 * g[n] + (2**n - 1) * g[n - 1])
    expect([sum(r) for r in rows] == g and all(r == r[::-1] for r in rows), "qbinom_row q=2 sums, symmetry")
    for kind in workloads.LIMIT_KINDS:
        for q in (2, 3, 4, 5):
            got = form[f"qmcount limit {kind} --q {q} --digits 50"]
            expect(got == limit_digits(kind, q), f"limit {kind} q={q} = |GL_250|/q^(250^2) digits")


def main() -> int:
    got = run_all()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()

    orc = {rid: o.output for rid, o in got["oracle"].items()}
    sweeps = {(q, n): oracle.sweep_counts(q, n) for q, n in workloads.ORACLE_SWEEPS}
    for (q, n), r in sweeps.items():
        expect(orc[f"oracle.sweep_counts({q},{n})"] == workloads.canon(r), f"sweep({q},{n}) repeats")
    orbits33 = oracle.conjugacy_orbit_sizes(3, 3)
    orbits23 = oracle.conjugacy_orbit_sizes(2, 3, restrict_gl=True)
    minc23 = oracle.min_centralizer_order(2, 3)

    series = {}
    for rid, o in got["series"].items():
        if rid.startswith("qmcount ") and rid != DEFECT_RID:
            expect(o.exit == 0, f"{rid} exits 0")
            start, values = workloads.bfile_values(o.output)
            series[rid] = [None] * start + values  # index n holds the value at n
    lib = {kind: workloads.gf_counts(kind, q, N) for kind, q, N in workloads.SERIES_GF}
    for kind, q, N in workloads.SERIES_GF:
        rid = f"gfengine.gf_build({kind},{q},{N})"
        expect(got["series"][rid].output == workloads.canon(lib[kind]), f"{rid} repeats")

    form = {}
    for rid, o in got["formulas"].items():
        expect(o.exit == 0, f"{rid} exits 0")
        form[rid] = o.output.strip() if " limit " in rid else plain_values(o.output)

    check_oracle(sweeps, orbits33, orbits23, minc23, series)
    check_series(series, lib, sweeps)
    check_formulas(form, lib)

    spec = sequences.make_spec("semisimple", 2, max_n=120, align_to_oeis=True)
    semi = sequences.sequence_values(spec)
    expect(len(semi) == 121 and semi[4] == sweeps[(2, 4)].semisimple, "semisimple q=2 n=4 = sweep")
    defect = got["series"][DEFECT_RID]
    expect(defect.exit == 2 and DEFECT_TEXT in defect.stderr, f"{DEFECT_RID} exits 2 at the seed")

    refs = {}
    for w, outs in got.items():
        refs[w] = {}
        for rid, o in outs.items():
            if rid == DEFECT_RID:
                refs[w][rid] = {
                    "exit": 0,
                    "values_sha256": workloads.digest(workloads.canon([spec.min_n, semi])),
                    "known_defect": {
                        "name": "int-to-text limit: values above 4300 digits (q=2, n >= 120)",
                        "exit": defect.exit,
                        "stderr_contains": DEFECT_TEXT,
                    },
                }
            else:
                refs[w][rid] = {"exit": o.exit, "sha256": workloads.digest(o.output), "bytes": len(o.output)}
    doc = {
        "commit": commit,
        "python": platform.python_version(),
        "note": "SHA-256 of each request's output at the seed; library results in canonical hex form",
        "workloads": refs,
    }
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFS_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
