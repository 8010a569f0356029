"""Spans around qmcount's public functions, installed from outside the package.

The traced run patches each public function at the name its caller looks
it up by (``qmcount.oracle.squarefree_test``, ``TruncSeries.__mul__``,
``qmcount.sequences.gf_build`` and so on), records one span per call in
compact in-memory arrays (name, parent, request, start, end), and writes
them out when the run ends.  A span's self time is its duration minus the
durations of its direct children.

Two hot helpers, ``ffpoly.poly_mul`` and ``qcount.gl_order``, are counted
rather than timed: a span costs more than one of their calls, so their
time stays in the caller's self time.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "sequences", "qcount", "gfengine", "exact_series", "oracle", "ffpoly")

# Kinds the series workload builds; one gfengine.gf_build.<kind>.s metric each.
GF_BUILD_KINDS = (
    "cyclic",
    "separable",
    "semisimple",
    "conjclasses_gl",
    "conjclasses_all",
    "projective_derangement",
    "power_identity",
    "cyclic_alt",
    "separable_alt",
    "bell",
    "linear_derangement",
)

# (metric, unit, better): every per-layer metric the traced run prints.
PER_LAYER = (
    [
        ("oracle.sweep_counts.s", "s", "lower"),
        ("oracle.sweep.matrices_per_s", "1/s", "higher"),
        ("oracle.classify.calls", "count", "lower"),
        ("oracle.classify.s", "s", "lower"),
        ("oracle.classify.self_s", "s", "lower"),
        ("oracle.matrix_powers.s", "s", "lower"),
        ("oracle.min_poly.s", "s", "lower"),
        ("oracle.char_poly.s", "s", "lower"),
        ("oracle.record_consistent.s", "s", "lower"),
        ("ffpoly.squarefree_test.s", "s", "lower"),
        ("ffpoly.poly_mul.calls", "count", "lower"),
        ("oracle.conjugacy_orbit_sizes.s", "s", "lower"),
        ("oracle.min_centralizer_order.s", "s", "lower"),
        ("oracle.orbit.pairs_per_s", "1/s", "higher"),
        ("exact_series.mul.calls", "count", "lower"),
        ("exact_series.mul.s", "s", "lower"),
        ("exact_series.pow.s", "s", "lower"),
        ("exact_series.recip.s", "s", "lower"),
        ("exact_series.exp.s", "s", "lower"),
        ("exact_series.max_coeff_bits", "bit", "lower"),
    ]
    + [(f"gfengine.gf_build.{k}.s", "s", "lower") for k in GF_BUILD_KINDS]
    + [
        ("gfengine.nu_weighted_product.s", "s", "lower"),
        ("gfengine.extract_count.s", "s", "lower"),
        ("qcount.diagonalizable_count.s", "s", "lower"),
        ("qcount.q_stirling.s", "s", "lower"),
        ("qcount.q_bell.s", "s", "lower"),
        ("qcount.PrimePower.of.s", "s", "lower"),
        ("qcount.gl_order.calls", "count", "lower"),
        ("gfengine.limit_eval.s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.bytes_out", "byte", "lower"),
        ("sequences.sequence_values.self_s", "s", "lower"),
        ("sequences.triangle_rows.self_s", "s", "lower"),
        ("ffpoly.field_for.s", "s", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


class Tracer:
    """Span store plus the patch table that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cur = -1
        self.cur_request = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.max_coeff_bits = 0
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> tuple[int, int]:
        idx = len(self.start)
        self.name_id.append(self.nid(name))
        self.parent.append(self.cur)
        self.request.append(self.cur_request)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        prev, self.cur = self.cur, idx
        return idx, prev

    def close(self, idx: int, prev: int) -> None:
        self.end[idx] = time.perf_counter()
        self.cur = prev

    def span(self, name, fn, on_result=None):
        """fn wrapped in a span; ``name`` may be a function of the arguments."""
        tr = self

        def traced(*args, **kwargs):
            idx, prev = tr.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(idx, prev)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def install(self) -> None:
        """Wrap the public functions of every layer where callers find them."""
        import qmcount
        from qmcount import cli, exact_series, ffpoly, gfengine, oracle, qcount, sequences

        def wrap(name, owners, attr, on_result=None, count=False):
            # A name a later version renames or stops importing is skipped
            # and reported, so the traced run still completes.
            orig = next((getattr(o, attr) for o in owners if hasattr(o, attr)), None)
            if orig is None:
                self.missing.append(f"{owners[0].__name__}.{attr}")
                return
            new = self.counted(name, orig) if count else self.span(name, orig, on_result)
            for owner in owners:
                if getattr(owner, attr, None) is orig:
                    self.patch(owner, attr, new)
                else:
                    self.missing.append(f"{owner.__name__}.{attr}")

        def wrap_method(name, cls, attrs, on_result=None):
            orig = cls.__dict__.get(attrs[0])
            if orig is None:
                self.missing.append(f"{cls.__name__}.{attrs[0]}")
                return
            if isinstance(orig, classmethod):
                new = classmethod(self.span(name, orig.__func__, on_result))
            else:
                new = self.span(name, orig, on_result)
            for attr in attrs:
                self.patch(cls, attr, new)

        # cli and sequences: the dispatch layers
        wrap("cli.main", [cli], "main")
        for attr in ("sequence_values", "triangle_rows", "triangle_column", "make_spec"):
            wrap(f"sequences.{attr}", [cli], attr)

        # qcount: closed forms, patched in sequences and inside qcount itself
        for attr in (
            "diagonalizable_count", "projection_count", "linear_derangement_count",
            "subspace_total", "nilpotent_count", "q_factorial", "q_bell",
            "separable_class_count", "involution_count_char2", "rank_count",
        ):
            wrap(f"qcount.{attr}", [sequences], attr)
        wrap("qcount.q_stirling", [sequences, qcount], "q_stirling")
        wrap("qcount.gaussian_binomial", [sequences, qcount], "gaussian_binomial")
        wrap("qcount.gl_order", [qcount, oracle, gfengine, sequences], "gl_order", count=True)
        wrap_method("qcount.PrimePower.of", qcount.PrimePower, ["of"])

        # gfengine: generating functions and limits
        wrap(
            lambda kind, *a, **k: f"gfengine.gf_build.{kind}",
            [gfengine, sequences],
            "gf_build",
            self._series_bits,
        )
        wrap("gfengine.extract_count", [gfengine, sequences], "extract_count")
        wrap("gfengine.limit_eval", [cli], "limit_eval")
        for attr in ("nu_weighted_product", "unit_partition_sum", "euler_inverse_factor"):
            wrap(f"gfengine.{attr}", [gfengine], attr)

        # exact_series: TruncSeries arithmetic
        ts = exact_series.TruncSeries
        wrap_method("exact_series.mul", ts, ["__mul__", "__rmul__"])
        for attr, name in (("__pow__", "pow"), ("recip", "recip"), ("exp", "exp")):
            wrap_method(f"exact_series.{name}", ts, [attr])

        # oracle: the brute-force route
        wrap("oracle.sweep_counts", [oracle], "sweep_counts", self._sweep_work)
        for attr in ("classify", "matrix_powers", "min_poly", "char_poly", "record_consistent"):
            wrap(f"oracle.{attr}", [oracle], attr)
        wrap("oracle.conjugacy_orbit_sizes", [oracle], "conjugacy_orbit_sizes", self._orbit_work)
        wrap("oracle.min_centralizer_order", [oracle], "min_centralizer_order", self._centralizer_work)
        wrap("oracle.max_class_size", [oracle], "max_class_size")

        # ffpoly: field tables and polynomial arithmetic
        wrap("ffpoly.squarefree_test", [oracle], "squarefree_test")
        wrap("ffpoly.poly_mul", [ffpoly], "poly_mul", count=True)
        wrap("ffpoly.field_for", [ffpoly, oracle, qmcount], "field_for")

    def _series_bits(self, result, *args, **kwargs) -> None:
        top = max(c.numerator.bit_length() + c.denominator.bit_length() for c in result.coeffs)
        if top > self.max_coeff_bits:
            self.max_coeff_bits = top

    def _sweep_work(self, result, *args, **kwargs) -> None:
        self.counts["oracle.sweep.matrices"] += result.total

    def _orbit_work(self, sizes, q, n, *args, **kwargs) -> None:
        self.counts["oracle.orbit.pairs"] += len(sizes) * _gl_order(q, n)

    def _centralizer_work(self, result, q, n, *args, **kwargs) -> None:
        self.counts["oracle.orbit.pairs"] += _gl_order(q, n) ** 2

    def totals(self, speed: float = 1.0) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name."""
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * speed for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def dump(self, path: Path, requests: list[str]) -> None:
        """Write the spans: a JSON header line, then the five raw arrays."""
        header = {
            "names": self.names,
            "requests": requests,
            "spans": len(self.start),
            "arrays": [["name_id", "H"], ["parent", "i"], ["request", "i"], ["start", "d"], ["end", "d"]],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.request, self.start, self.end):
                arr.tofile(fh)


def _gl_order(q: int, n: int) -> int:
    """gl_order without passing through the counting wrapper."""
    from qmcount.qcount import GLOrderTable

    return GLOrderTable(q).value(n)


def per_layer_metrics(
    tr: Tracer, traced_wall: float, untraced_wall: float, bytes_out: int, speed: float = 1.0
) -> dict:
    """Every PER_LAYER metric from one traced pass (and the traced set-up).

    Span seconds are multiplied by ``speed``, the host-speed factor of the
    traced pass, so they are in the same reference seconds as the walls.
    """
    tot = tr.totals(speed)

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    def rate(work, seconds):
        return work / seconds if seconds else 0.0

    layer_self = defaultdict(float)
    for name, row in tot.items():
        layer_self[name.split(".")[0]] += row["self_s"]

    gf_kinds = {k: get(f"gfengine.gf_build.{k}", "s") for k in GF_BUILD_KINDS}
    orbit_s = get("oracle.conjugacy_orbit_sizes", "s") + get("oracle.min_centralizer_order", "s")
    values = {
        "oracle.sweep_counts.s": get("oracle.sweep_counts", "s"),
        "oracle.sweep.matrices_per_s": rate(tr.counts["oracle.sweep.matrices"], get("oracle.sweep_counts", "s")),
        "oracle.classify.calls": get("oracle.classify", "calls"),
        "oracle.classify.s": get("oracle.classify", "s"),
        "oracle.classify.self_s": get("oracle.classify", "self_s"),
        "oracle.matrix_powers.s": get("oracle.matrix_powers", "s"),
        "oracle.min_poly.s": get("oracle.min_poly", "s"),
        "oracle.char_poly.s": get("oracle.char_poly", "s"),
        "oracle.record_consistent.s": get("oracle.record_consistent", "s"),
        "ffpoly.squarefree_test.s": get("ffpoly.squarefree_test", "s"),
        "ffpoly.poly_mul.calls": tr.counts["ffpoly.poly_mul"],
        "oracle.conjugacy_orbit_sizes.s": get("oracle.conjugacy_orbit_sizes", "s"),
        "oracle.min_centralizer_order.s": get("oracle.min_centralizer_order", "s"),
        "oracle.orbit.pairs_per_s": rate(tr.counts["oracle.orbit.pairs"], orbit_s),
        "exact_series.mul.calls": get("exact_series.mul", "calls"),
        "exact_series.mul.s": get("exact_series.mul", "s"),
        "exact_series.pow.s": get("exact_series.pow", "s"),
        "exact_series.recip.s": get("exact_series.recip", "s"),
        "exact_series.exp.s": get("exact_series.exp", "s"),
        "exact_series.max_coeff_bits": tr.max_coeff_bits,
        **{f"gfengine.gf_build.{k}.s": v for k, v in gf_kinds.items()},
        "gfengine.nu_weighted_product.s": get("gfengine.nu_weighted_product", "s"),
        "gfengine.extract_count.s": get("gfengine.extract_count", "s"),
        "qcount.diagonalizable_count.s": get("qcount.diagonalizable_count", "s"),
        "qcount.q_stirling.s": get("qcount.q_stirling", "s"),
        "qcount.q_bell.s": get("qcount.q_bell", "s"),
        "qcount.PrimePower.of.s": get("qcount.PrimePower.of", "s"),
        "qcount.gl_order.calls": tr.counts["qcount.gl_order"],
        "gfengine.limit_eval.s": get("gfengine.limit_eval", "s"),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.bytes_out": bytes_out,
        "sequences.sequence_values.self_s": get("sequences.sequence_values", "self_s"),
        "sequences.triangle_rows.self_s": get("sequences.triangle_rows", "self_s"),
        "ffpoly.field_for.s": get("ffpoly.field_for", "s"),
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(tr.start),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
