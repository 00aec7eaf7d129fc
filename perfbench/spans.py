"""Spans and counts around calls into chowring's layers, from outside it.

`Tracer.install` replaces public functions of each module, in every chowring
namespace that bound them by name, with wrappers that record a span (name,
parent, start, end on `time.monotonic()`) and update counts. Spans stay in
memory until `Tracer.report`, which the child calls once per op.
`op_values` turns one op's report into per-layer values, and `LAYER_METRICS`
names each value with its unit and with the end-to-end metric and workload it
should move.

Hot per-element functions (`ChowRing.act`, `mono_mul`, `var_perm`,
`perm.compose`, `perm_mask`, `matroid.members`) stay unwrapped: their time is
their caller's self time. Wrapping `act` alone would add millions of spans to
one Burnside op.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from fractions import Fraction

ROOT = "op"
STARTUP = "cli.startup"
HARNESS = "bench.harness"
COUNT_SPAN = "trace.count"


def _bits(v) -> int:
    if isinstance(v, Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    return abs(v).bit_length()


def _matrix_hook(result_kind=None):
    """Count matrix size and the largest entry bit length of the first
    argument (dense rows, or sparse {col: value} rows) and of the result."""

    def hook(counts, args, result):
        dim, bits = len(args[0]), 0
        for row in args[0]:
            if row:
                sparse = isinstance(row, dict)
                dim = max(dim, max(row) + 1 if sparse else len(row))
                bits = max(bits, *map(_bits, row.values() if sparse else row))
        if result_kind == "int":
            bits = max(bits, _bits(result))
        elif result_kind == "rows":
            bits = max([bits, *(_bits(v) for vec in result for v in vec)])
        counts["linalg.max_dim"] = max(counts.get("linalg.max_dim", 0), dim)
        counts["linalg.max_entry_bits"] = max(counts.get("linalg.max_entry_bits", 0), bits)

    return hook


def _calls(key):
    def hook(counts, args, result):
        counts[key] = counts.get(key, 0) + 1
    return hook


def _decompose_hook(counts, args, result):
    counts["burnside.decompose_calls"] = counts.get("burnside.decompose_calls", 0) + 1
    counts["burnside.tuples"] = counts.get("burnside.tuples", 0) + len(args[0])
    counts["burnside.orbits"] = counts.get("burnside.orbits", 0) + sum(result.coeffs.values())


def _fy_unbuilt(ring, *args, **kwargs):
    return ring._fy_by_degree is None


# (module, function or Class.method, span name, hook or None, when or None)
SPANS = (
    ("chowring.cli", "main", "cli.main", None, None),
    ("chowring.cli", "load_group", "cli.load_group", None, None),
    ("chowring.cli", "emit", "cli.emit", None, None),
    ("chowring.corpus", "corpus_matroid", "matroid.build", None, None),
    ("chowring.matroid", "uniform", "matroid.build", None, None),
    ("chowring.matroid", "boolean", "matroid.build", None, None),
    ("chowring.matroid", "graphic", "matroid.build", None, None),
    ("chowring.matroid", "matroid_from_flats", "matroid.build", None, None),
    ("chowring.matroid", "matroid_from_bases", "matroid.build", None, None),
    ("chowring.perm", "matroid_automorphisms", "perm.automorphisms", None, None),
    ("chowring.perm", "are_conjugate_subgroups", "perm.conjugacy",
     _calls("perm.conjugacy_tests"), None),
    ("chowring.chow", "ChowRing._build_fy", "chow.fy_basis", None, _fy_unbuilt),
    ("chowring.chow", "ChowRing.omega_power", "chow.omega_power", None, None),
    ("chowring.chow", "ChowRing.pairing_matrix", "chow.pairing_matrix", None, None),
    ("chowring.chow", "ChowRing.mult_matrix", "chow.mult_matrix", None, None),
    ("chowring.chow", "ChowRing.hodge_riemann_check", "chow.hodge_riemann", None, None),
    ("chowring.chow", "ChowRing.dimension_oracle", "chow.oracle", None, None),
    ("chowring.linalg", "frac_rank", "linalg.frac_rank", _matrix_hook(), None),
    ("chowring.linalg", "frac_kernel", "linalg.frac_kernel", _matrix_hook("rows"), None),
    ("chowring.linalg", "symmetric_positive_definite", "linalg.spd", _matrix_hook(), None),
    ("chowring.linalg", "bareiss_det", "linalg.bareiss_det", _matrix_hook("int"), None),
    ("chowring.linalg", "sparse_int_rank", "linalg.sparse_int_rank", _matrix_hook(), None),
    ("chowring.burnside", "decompose", "burnside.decompose", _decompose_hook, None),
    ("chowring.burnside", "SubgroupRegistry.classify", "burnside.classify", None, None),
    ("chowring.koszul", "verify_injection", "koszul.injection", None, None),
    ("chowring.characters", "character_table", "characters.table", None, None),
    ("chowring.characters", "perm_character", "characters.perm_character", None, None),
    ("chowring.characters", "is_genuine", "characters.genuine", None, None),
    ("chowring.scd", "verify_scd", "scd", None, None),
    ("chowring.scd", "symmetric_chains", "scd", None, None),
    ("chowring.scd", "verify_equivariance", "scd", None, None),
    ("chowring.verify", "check_lambda_table", "verify.C1", None, None),
    ("chowring.verify", "check_paren_example", "verify.C2", None, None),
    ("chowring.verify", "check_boolean4_character", "verify.C3", None, None),
    ("chowring.verify", "check_scd", "verify.C4", None, None),
    ("chowring.verify", "check_kahler", "verify.C5", None, None),
    ("chowring.verify", "check_oracle", "verify.C6", None, None),
    ("chowring.verify", "check_burnside_pf2", "verify.C7", None, None),
    ("chowring.verify", "check_young_audit", "verify.C7", None, None),
    ("chowring.verify", "check_koszul", "verify.C8", None, None),
    ("chowring.verify", "check_gamma", "verify.C9", None, None),
    ("chowring.verify", "check_boolean3_burnside_gamma", "verify.C9", None, None),
    ("chowring.verify", "check_pf_evidence", "verify.C10", None, None),
)

# Calls counted without a span: (module, function or Class.method, count).
CALL_COUNTS = (
    ("chowring.burnside", "BurnsideContext.decompose_degrees",
     "burnside.decompose_degrees_calls"),
    ("chowring.characters", "_dixon_table", "characters.dixon_tables"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent index or -1, start, end]
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._name_index: dict[str, int] = {}

    def _open(self, name):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        record = [idx, self._stack[-1], time.monotonic(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[3] = time.monotonic()
        self._stack.pop()

    def wrap(self, name, fn, hook=None, when=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if hook is not None:
                counting = self._open(COUNT_SPAN)
                hook(self.counts, args, result)
                self._close(counting)
            return result
        return wrapper

    def count_calls(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for modname, attr, name, hook, when in SPANS:
            _replace(modname, attr, lambda fn: self.wrap(name, fn, hook, when))
        for modname, attr, key in CALL_COUNTS:
            _replace(modname, attr, lambda fn: self.count_calls(key, fn))

    def report(self) -> dict:
        from chowring import chow
        counts = dict(self.counts)
        counts["chow.normal_forms"] = sum(len(ring._nf_cache)
                                          for ring in chow._RING_CACHE.values())
        return {"names": self.names, "spans": self.spans, "counts": counts}


def _replace(modname, attr, make):
    """Swap the function for its wrapper on its class, or in every loaded
    chowring module that bound it by name."""
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    original = getattr(module, attr)
    wrapper = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "chowring" or name.startswith("chowring."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


# -- turning spans into per-layer values ----------------------------------------

def span_tree(report, spawn):
    """(names, parents, durations) of one op: the child's spans, the
    start-up span (spawn to import-ready) and the span of the child's own
    work before it calls `cli.main` (imports, installing the tracer), under a
    root span that runs from spawn to the child's report. The root is the
    last entry."""
    names, parents, durations = [], [], []
    root = len(report["spans"]) + 2
    for idx, parent, start, end in report["spans"]:
        names.append(report["names"][idx])
        parents.append(root if parent < 0 else parent)
        durations.append(end - start)
    names.append(STARTUP)
    parents.append(root)
    durations.append(report["ready"] - spawn)
    names.append(HARNESS)
    parents.append(root)
    durations.append(report["call"] - report["ready"])
    names.append(ROOT)
    parents.append(None)
    durations.append(report["end"] - spawn)
    return names, parents, durations


def self_times(parents, durations) -> list[float]:
    out = list(durations)
    for i, parent in enumerate(parents):
        if parent is not None:
            out[parent] -= durations[i]
    return out


def op_values(report, spawn) -> dict[str, float]:
    """Per-layer values of one traced op, keyed by metric name; ratio
    metrics are left to `finish`, with their raw counts kept."""
    names, parents, durations = span_tree(report, spawn)
    selfs = self_times(parents, durations)
    self_by, incl_by = {}, {}
    for i, name in enumerate(names):
        self_by[name] = self_by.get(name, 0.0) + selfs[i]
        parent = parents[i]
        while parent is not None and names[parent] != name:
            parent = parents[parent]
        if parent is None:  # outermost span of its name
            incl_by[name] = incl_by.get(name, 0.0) + durations[i]
    counts = report["counts"]
    out = {}
    for metric, _unit, kind, source, _moves in LAYER_METRICS:
        if kind == "self":
            out[metric] = self_by.get(source, 0.0)
        elif kind == "incl":
            out[metric] = incl_by.get(source, 0.0)
        elif kind in ("count", "max"):
            out[metric] = counts.get(source, 0)
        elif kind == "ratio":
            for key in source:
                out[key] = counts.get(key, 0)
    return out


def combine(per_op: list[dict]) -> dict[str, float]:
    """Per-layer values of a pass from the values of its ops."""
    maxed = {metric for metric, _u, kind, _s, _m in LAYER_METRICS if kind == "max"}
    total: dict[str, float] = {}
    for values in per_op:
        for key, value in values.items():
            total[key] = max(total.get(key, 0), value) if key in maxed \
                else total.get(key, 0) + value
    out = {}
    for metric, _unit, kind, source, _moves in LAYER_METRICS:
        if kind == "ratio":
            num, den = (total.get(key, 0) for key in source)
            out[metric] = num / den if den else 0.0
        else:
            out[metric] = total.get(metric, 0)
    return out


# (metric, unit, kind, source, what it should move). kind: "self" sums the
# self time of spans named source; "incl" sums the time of the outermost
# spans named source; "count" sums a count and "max" takes its largest
# value; "ratio" divides two summed counts. trace.overhead_ratio is filled
# in by run.py from traced and untraced op wall times.
LAYER_METRICS = (
    ("cli.startup_s", "s", "self", STARTUP, "setup_s on battery"),
    ("cli.main_s", "s", "self", "cli.main", "wall_s on battery and burnside"),
    ("cli.load_group_s", "s", "self", "cli.load_group", "wall_s on battery"),
    ("cli.emit_s", "s", "self", "cli.emit", "wall_s on battery"),
    ("matroid.build_s", "s", "self", "matroid.build", "wall_s on battery (small share)"),
    ("perm.automorphisms_s", "s", "self", "perm.automorphisms",
     "wall_s on burnside and battery"),
    ("perm.conjugacy_s", "s", "self", "perm.conjugacy", "wall_s on burnside and battery"),
    ("perm.conjugacy_tests", "count", "count", "perm.conjugacy_tests",
     "wall_s on burnside and battery"),
    ("chow.fy_basis_s", "s", "self", "chow.fy_basis", "wall_s on battery and burnside"),
    ("chow.omega_power_s", "s", "self", "chow.omega_power",
     "wall_s on battery (C5); 0 on burnside"),
    ("chow.pairing_matrix_s", "s", "self", "chow.pairing_matrix",
     "wall_s on battery (C5); 0 on burnside"),
    ("chow.mult_matrix_s", "s", "self", "chow.mult_matrix",
     "wall_s on battery (C5); 0 on burnside"),
    ("chow.hodge_riemann_s", "s", "self", "chow.hodge_riemann",
     "wall_s on battery (C5); 0 on burnside"),
    ("chow.oracle_s", "s", "self", "chow.oracle", "wall_s on battery; 0 on burnside"),
    ("chow.normal_forms", "count", "count", "chow.normal_forms",
     "wall_s on battery; 0 on burnside"),
    ("linalg.frac_rank_s", "s", "self", "linalg.frac_rank",
     "wall_s on battery (C5, C6); 0 on burnside"),
    ("linalg.frac_kernel_s", "s", "self", "linalg.frac_kernel",
     "wall_s on battery (C5, C6); 0 on burnside"),
    ("linalg.spd_s", "s", "self", "linalg.spd",
     "wall_s on battery (C5, C6); 0 on burnside"),
    ("linalg.bareiss_det_s", "s", "self", "linalg.bareiss_det",
     "wall_s on battery (C5, C6); 0 on burnside"),
    ("linalg.sparse_int_rank_s", "s", "self", "linalg.sparse_int_rank",
     "wall_s on battery (C6); 0 on burnside"),
    ("linalg.max_dim", "count", "max", "linalg.max_dim",
     "wall_s on battery; 0 on burnside"),
    ("linalg.max_entry_bits", "bits", "max", "linalg.max_entry_bits",
     "wall_s on battery; 0 on burnside"),
    ("burnside.decompose_s", "s", "self", "burnside.decompose",
     "wall_s and peak_rss_mb on burnside, wall_s on battery (C7, C8)"),
    ("burnside.classify_s", "s", "self", "burnside.classify",
     "wall_s on burnside and battery (C7, C8)"),
    ("burnside.tuples", "count", "count", "burnside.tuples",
     "wall_s and peak_rss_mb on burnside, wall_s on battery (C7, C8)"),
    ("burnside.orbits", "count", "count", "burnside.orbits",
     "wall_s on burnside and battery (C7, C8)"),
    ("burnside.decompose_calls", "count", "count", "burnside.decompose_calls",
     "wall_s on burnside and battery (C7, C8)"),
    ("burnside.product_reuse", "ratio", "ratio",
     ("burnside.decompose_degrees_calls", "burnside.decompose_calls"),
     "wall_s on burnside and battery (C7, C8)"),
    ("koszul.injection_s", "s", "self", "koszul.injection", "wall_s on burnside"),
    ("characters.table_s", "s", "self", "characters.table",
     "wall_s on battery; 0 on burnside"),
    ("characters.perm_character_s", "s", "self", "characters.perm_character",
     "wall_s on battery; 0 on burnside"),
    ("characters.genuine_s", "s", "self", "characters.genuine",
     "wall_s on battery; 0 on burnside"),
    ("characters.dixon_tables", "count", "count", "characters.dixon_tables",
     "wall_s on battery; 0 on burnside"),
    ("scd.s", "s", "self", "scd", "wall_s on battery"),
    *((f"verify.C{i}_s", "s", "incl", f"verify.C{i}", "wall_s on battery")
      for i in range(1, 11)),
    ("trace.count_s", "s", "self", COUNT_SPAN, "trace.overhead_ratio"),
)
