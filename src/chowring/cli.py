"""Command-line interface.

Matroid documents are JSON (inline, a file path, or a corpus shorthand like
"uniform(4,5)"); elements are 1-based externally:

  {"type": "uniform", "rank": 4, "n": 5}
  {"type": "boolean", "n": 4}
  {"type": "graphic", "edges": [[1,2],[2,3],[1,3]]}
  {"ground_set": 5, "flats": [[], [1], ..., [1,2,3,4,5]]}
  {"ground_set": 3, "bases": [[1,2],[1,3],[2,3]]}

Groups default to the full automorphism group; pass --group FILE with
{"degree": n, "generators": [[...1-based images...], ...]} to override.

Every command runs in one frame, `main`: it loads the matroid and the group,
starts the report with the command and the matroid summary, and calls the
subcommand's handler `cmd_*(args, ring, group, report)`, which adds its
fields and returns whether a check failed. `main` then emits the report, as
JSON or through the renderer the parser attached to the subcommand.

This module imports only the layers every command uses: the matroid, the
group and the Chow ring. Each handler imports the layers it runs (Burnside,
Koszul, characters, SCD, the battery, linear algebra) when it is called, so
a command loads and compiles no module it does not run.

Exit codes: 0 all checks pass, 1 a verified mathematical failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import corpus as corpus_mod
from .chow import NotGroupFixed, NotSubmodular, chow_ring, lefschetz_omega
from .matroid import (MatroidError, Matroid, boolean, flat_str, graphic,
                      mask_of, matroid_from_bases, matroid_from_flats,
                      members, uniform)
from .perm import (GroupError, group_from_generators, matroid_automorphisms,
                   perm_mask, perm_str)


# the k-th pivot of a `char pf --level L` window has O(k) bits, so the cost
# grows faster than L^2 (0.4 s at L = 1000 on boolean(5)); `inf` is complete
PF_LEVEL_CAP = 1000
# a `char genuine --minor` or `char toeplitz --composition` minor of size L
# is one L x L fraction-free determinant per conjugacy class, and its
# entries grow with L (0.9 s at L = 100 on uniform(6,7), 14 s at L = 300)
MINOR_SIZE_CAP = 100


class UsageError(Exception):
    pass


def load_matroid_document(doc: str) -> Matroid:
    for name in corpus_mod.corpus_names():
        if doc == name:
            return corpus_mod.corpus_matroid(name)
    if doc.lstrip().startswith("{"):
        payload = json.loads(doc)
    else:
        payload = _read_json(doc, "matroid document")
    return matroid_from_document(payload)


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc


def matroid_from_document(payload: dict) -> Matroid:
    if not isinstance(payload, dict):
        raise UsageError("matroid document must be a JSON object")
    if "type" in payload:
        kind = payload["type"]
        if kind == "uniform":
            m = uniform(_int_field(payload, "rank"), _int_field(payload, "n"))
        elif kind == "boolean":
            m = boolean(_int_field(payload, "n"))
        elif kind == "graphic":
            edges = payload.get("edges")
            if not (isinstance(edges, list) and all(
                    isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
                    for e in edges)):
                raise UsageError("'edges' must be a list of [u, v] integer pairs")
            m = graphic([tuple(e) for e in edges])
        else:
            raise UsageError(f"unknown matroid type {kind!r}")
    else:
        n = _int_field(payload, "ground_set")
        if "flats" in payload:
            m = matroid_from_flats(n, _subsets_field(payload, "flats", n))
        elif "bases" in payload:
            m = matroid_from_bases(n, _subsets_field(payload, "bases", n))
        else:
            raise UsageError("matroid document needs 'type', 'flats' or 'bases'")
    if m.flats[0]:
        raise UsageError(f"matroid has loops: {flat_str(m.flats[0], m.n)}")
    return m


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(payload: dict, key: str) -> int:
    value = payload.get(key)
    if not _is_int(value):
        raise UsageError(f"matroid document needs an integer {key!r}")
    return value


def _subsets_field(payload: dict, key: str, n: int) -> list[int]:
    sets = payload[key]
    if not (isinstance(sets, list) and all(
            isinstance(s, list) and all(_is_int(e) and 1 <= e <= n for e in s)
            for s in sets)):
        raise UsageError(f"{key!r} must be a list of lists of elements 1..{n}")
    return [mask_of(e - 1 for e in s) for s in sets]


def load_group(spec: str, m: Matroid):
    if spec == "auto":
        return matroid_automorphisms(m)
    payload = _read_json(spec, "--group file")
    if not isinstance(payload, dict):
        raise UsageError("--group file must be a JSON object")
    gens = payload.get("generators")
    if not (_is_int(payload.get("degree")) and isinstance(gens, list) and all(
            isinstance(g, list) and all(map(_is_int, g)) for g in gens)):
        raise UsageError("--group file needs an integer 'degree' and "
                         "'generators' as a list of integer lists")
    if payload["degree"] != m.n:
        raise UsageError("group degree does not match the ground set")
    group = group_from_generators(m.n, [[i - 1 for i in g] for g in gens])
    for g in group.gens:
        for f in m.flats:
            if not m.is_flat(perm_mask(g, f)):
                raise UsageError(
                    f"generator {perm_str(g)} does not preserve the flats "
                    f"(the image of {flat_str(f, m.n)} is not a flat)")
    return group


def matroid_summary(m: Matroid, group) -> dict:
    return {"n": m.n, "rank": m.rank, "flats": len(m.flats),
            "hilbert": list(chow_ring(m).hilbert_function()),
            "aut_order": group.order,
            "aut_generators": [perm_str(g) for g in group.gens]}


@contextlib.contextmanager
def _reader_may_close():
    """Write a report to stdout, and let its reader stop reading early: on
    EPIPE, stdout is pointed at the null device, so neither this write nor
    the flush at exit raises, and the command keeps its verdict code."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_text(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and val:
                print(f"{pad}{key}:")
                _emit_text(val, indent + 1)
            else:
                print(f"{pad}{key}: {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                _emit_text(val, indent)
                print()
            else:
                print(f"{pad}- {val}")
    else:
        print(f"{pad}{obj}")


def _emit_checks(report: dict) -> None:
    """The text form of a `verify all` report: one line per check."""
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        line = f"[{status}] {c['battery']:>3} {c['name']}"
        if not c["passed"] and "known_gap" in c:
            line += f"  (known gap: {c['known_gap']})"
        print(line)
    print("overall:", "PASS" if report["passed"] else "FAIL")


def emit(report: dict, as_json: bool, render) -> None:
    with _reader_may_close():
        if as_json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            render(report)


# -- subcommand handlers: add fields to the report, return whether one failed --

def cmd_matroid_info(args, ring, group, report) -> bool:
    m = ring.matroid
    by_rank: dict[int, list[str]] = {}
    for f in m.flats:
        by_rank.setdefault(m.rank_of[f], []).append(flat_str(f, m.n))
    report["flats_by_rank"] = {str(r): v for r, v in sorted(by_rank.items())}
    return False


def cmd_chow(args, ring, group, report) -> bool:
    if args.what == "hilbert":
        report["hilbert"] = " ".join(map(str, ring.hilbert_function()))
    elif args.what == "basis":
        k = _degree(args, ring)
        report["degree"] = k
        report["basis"] = [ring.mono_str(mo) for mo in ring.fy_basis(k)]
    elif args.what == "pairing":
        from .linalg import bareiss_det
        dets = {str(k): bareiss_det(ring.pairing_matrix(k))
                for k in range(ring.r // 2 + 1)}
        report["pairing_determinants"] = dets
        return any(d not in (1, -1) for d in dets.values())
    else:  # lefschetz, hodge-riemann
        omega = _load_omega(args, ring, group)
        check = (ring.hard_lefschetz_check if args.what == "lefschetz"
                 else ring.hodge_riemann_check)
        checks = [check(omega, k) for k in range(ring.r // 2 + 1)]
        report["checks"] = checks
        return not all(c["passed"] for c in checks)
    return False


def _degree(args, ring) -> int:
    k = args.degree if args.degree is not None else 1
    if not 0 <= k <= ring.r:
        raise UsageError(f"--degree {k} outside 0..{ring.r}")
    return k


def _quadruples(args, ring) -> list:
    from .burnside import pf2_quadruples
    quads = pf2_quadruples(ring.r)
    if args.quadruple is None:
        return quads
    q = tuple(args.quadruple)
    if q not in quads:
        raise UsageError(f"--quadruple {' '.join(map(str, q))} needs "
                         f"0 <= i <= j <= k <= l <= {ring.r} and i + l = j + k")
    return [q]


def _load_omega(args, ring, group):
    if args.omega == "default":
        return lefschetz_omega(ring, group)
    payload = _read_json(args.omega, "--omega file")
    n = ring.matroid.n
    if not (isinstance(payload, list) and all(
            isinstance(entry, dict) and _is_int(entry.get("c"))
            and isinstance(entry.get("set"), list)
            and all(_is_int(e) and 1 <= e <= n for e in entry["set"])
            for entry in payload)):
        raise UsageError("--omega file must be a list of objects with 'set' "
                         f"(elements 1..{n}) and an integer 'c'")
    table = {mask_of(e - 1 for e in entry["set"]): entry["c"]
             for entry in payload}
    try:
        return lefschetz_omega(ring, group, lambda s: table.get(s, 0))
    except NotSubmodular as exc:
        a, b = exc.witness
        raise UsageError(f"--omega rule: submodularity fails at "
                         f"A={_set_str(a)}, B={_set_str(b)}") from exc
    except NotGroupFixed as exc:
        g, f = exc.witness
        raise UsageError(f"--omega rule is not fixed by the group: generator "
                         f"{perm_str(g)} maps {_set_str(f)} to "
                         f"{_set_str(perm_mask(g, f))}, whose coefficient "
                         f"differs") from exc


def _set_str(mask: int) -> str:
    """A subset bitmask as the 1-based set an --omega file names."""
    return "{" + ",".join(str(e + 1) for e in members(mask)) + "}"


def cmd_scd(args, ring, group, report) -> bool:
    from . import scd
    if args.what == "chains":
        rep = scd.verify_scd(ring)
        report["chains"] = [
            {"support": [flat_str(f, ring.matroid.n) for f in c.support],
             "rho": c.rho,
             "monomials": [ring.mono_str(mo) for mo in c.monomials]}
            for c in scd.symmetric_chains(ring)]
        report["valid"] = rep["passed"]
        return not rep["passed"]
    table = []
    for k in range(ring.r + 1):
        for mono in ring.fy_basis(k):
            entry = {"degree": k, "monomial": ring.mono_str(mono),
                     "pi": ring.mono_str(scd.pi_map(ring, mono))}
            if 2 * k < ring.r:
                entry["lambda"] = ring.mono_str(scd.lambda_map(ring, mono))
            table.append(entry)
    report["maps"] = table
    if not args.check_equivariance:
        return False
    r = ring.r
    degree_maps = [(scd.lambda_map, k, k + 1) for k in range((r + 1) // 2)] + \
        [(scd.pi_map, k, r - k) for k in range(r + 1)]
    checks = [scd.verify_equivariance(ring, group, scd.id_table(ring, f, k, t),
                                      k, t)["passed"] for f, k, t in degree_maps]
    report["equivariant"] = all(checks)
    return not all(checks)


def cmd_burnside(args, ring, group, report) -> bool:
    from .burnside import (BurnsideContext, pf2_minor_check,
                           young_stabilizer_audit)
    ctx = BurnsideContext(ring, group)
    if args.what == "decompose":
        k = _degree(args, ring)
        report["degree"] = k
        report["decomposition"] = repr(ctx.decompose_degrees((k,)))
        return False
    check = pf2_minor_check if args.what == "pf2" else young_stabilizer_audit
    checks = [check(ctx, *q) for q in _quadruples(args, ring)]
    report["checks"] = checks
    return not all(c["passed"] for c in checks)


def _int_tuple(text: str):
    """Comma-separated integers as a tuple, or None if `text` is not that."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        return None


def cmd_char(args, ring, group, report) -> bool:
    from .characters import (character_sequence, gamma_expansion, is_genuine,
                             koszul_minor, numeric_pf_check, table_backend,
                             toeplitz_minor)
    report["table_backend"] = table_backend(group)
    if args.what == "pf":  # reads only the Hilbert function
        try:
            level = "inf" if args.level == "inf" else int(args.level)
        except ValueError:
            level = 0
        if level != "inf" and not 2 <= level <= PF_LEVEL_CAP:
            raise UsageError(f"--level {args.level}: needs 'inf' or an integer "
                             f"from 2 to {PF_LEVEL_CAP}")
        rep = numeric_pf_check(list(ring.hilbert_function()), level)
        report["pf"] = rep
        return not rep["passed"]
    table, seq = character_sequence(ring, group)
    if args.what == "table":
        data = table.data
        report["classes"] = [
            {"representative": perm_str(rep), "size": size}
            for rep, size in zip(data.reps, data.sizes)]
        report["irreducibles"] = [
            {"label": str(lab), "values": [str(v) for v in chi.values]}
            for lab, chi in zip(table.labels, table.irreducibles)]
        return False
    if args.what == "genuine":
        rows, _, cols = args.minor.partition(":")
        rows, cols = _int_tuple(rows), _int_tuple(cols)
        if rows is None or cols is None or len(rows) != len(cols):
            raise UsageError(f"--minor {args.minor}: needs ROWS:COLS, two "
                             "comma-separated integer lists of one length")
        if len(rows) > MINOR_SIZE_CAP:
            raise UsageError(f"--minor has {len(rows)} rows: at most "
                             f"{MINOR_SIZE_CAP}")
        minor = toeplitz_minor(seq, rows, cols)
        genuine, mults = is_genuine(minor, table)
        negative = [v for v in minor.values if isinstance(v, int) and v < 0]
        verdict = "genuine character" if genuine else "NOT a genuine character"
        if negative:
            verdict += ("; NOT a permutation character "
                        f"(negative value on a class: {negative[0]})")
        report["minor"] = {"rows": rows, "cols": cols,
                           "values": [str(v) for v in minor.values],
                           "multiplicities": mults, "verdict": verdict}
        return not genuine
    if args.what == "gamma":
        rows = []
        for i, g in enumerate(gamma_expansion(seq)):
            genuine, mults = is_genuine(g, table)
            rows.append({"i": i, "genuine": genuine, "multiplicities": mults})
        report["gamma"] = rows
        return not all(row["genuine"] for row in rows)
    # toeplitz
    alpha = _int_tuple(args.composition)
    if alpha is None or min(alpha) < 1:
        raise UsageError(f"--composition {args.composition}: needs "
                         "comma-separated positive integers")
    if len(alpha) > MINOR_SIZE_CAP:
        raise UsageError(f"--composition has {len(alpha)} parts: at most "
                         f"{MINOR_SIZE_CAP}")
    minor = koszul_minor(seq, alpha)
    genuine, mults = is_genuine(minor, table)
    report["composition"] = alpha
    report["mode"] = "evidence" if len(alpha) >= 3 else "certificate"
    report["genuine"] = genuine
    report["multiplicities"] = mults
    return not genuine


def cmd_koszul(args, ring, group, report) -> bool:
    from .burnside import BurnsideContext
    from .koszul import minor_3x3, verify_injection, verify_splits
    if args.what == "check-2x2":
        rep = verify_splits(ring, group)
        report["passed"] = rep["passed"]
        report["cases"] = len(rep["reports"])
        return not rep["passed"]
    rep = verify_injection(ring, group)
    ok, _ = minor_3x3(BurnsideContext(ring, group))
    report["passed"] = rep["passed"] and ok
    report["domain"] = rep["domain"]
    report["unmatched"] = [
        f"{side}: ({ring.mono_str(a)}, {ring.mono_str(b)})"
        for side, a, b in rep["unmatched"][:20]]
    report["collisions"] = len(rep["collisions"])
    report["minor_nonnegative"] = ok
    return not report["passed"]


def cmd_verify(args, ring, group, report) -> bool:
    from .verify import run_battery
    t0 = time.perf_counter()
    checks = run_battery(ring, group, args.seed)
    report["checks"] = checks
    report["passed"] = all(check["passed"] for check in checks)
    if args.timings:
        report["elapsed"] = round(time.perf_counter() - t0, 3)
    else:
        for check in checks:
            del check["elapsed"]
    return not report["passed"]


# Options of single subcommands; each is attached only where its handler
# reads it.
_OPTIONS = {
    "--omega": {"default": "default"},
    "--degree": {"type": int, "default": None},
    "--quadruple": {"type": int, "nargs": 4, "default": None},
    "--minor": {"default": "0,1,2:1,2,4",
                "help": "Toeplitz minor as ROWS:COLS"},
    "--composition": {"default": "1,1,1"},
    "--level": {"default": "2"},
    "--check-equivariance": {"action": "store_true"},
    "--seed": {"type": int, "default": 0,
               "help": "seed for sampled property checks"},
    "--timings": {"action": "store_true",
                  "help": "include wall times in reports"},
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for argv (default sys.argv[1:]). Every command group is
    registered, but only the group that argv names (its first word that is
    not an option) gets its subcommands, since no other can be parsed."""
    if argv is None:
        argv = sys.argv[1:]
    named = next((a for a in argv if not a.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="chowring",
        description="Exact Chow rings of matroids: FY bases, symmetric "
                    "chains, Burnside and character positivity checks.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group(name, help_text, func, commands, render=_emit_text):
        psub = sub.add_parser(name, help=help_text).add_subparsers(
            dest="what", required=True)
        if name != named:
            return
        for what, *options in commands:
            pc = psub.add_parser(what)
            # given here or before the command; SUPPRESS keeps the latter
            pc.add_argument("--json", action="store_true",
                            default=argparse.SUPPRESS,
                            help="machine-readable output")
            pc.add_argument("doc", help="matroid document (JSON, path, or name)")
            pc.add_argument("--group", default="auto",
                            help="'auto' or a JSON group file")
            for option in options:
                pc.add_argument(option, **_OPTIONS[option])
            pc.set_defaults(func=func, render=render)

    add_group("matroid", "lattice and symmetry summary", cmd_matroid_info,
              [("info",)])
    add_group("chow", "graded ring computations", cmd_chow,
              [("hilbert",), ("basis", "--degree"), ("pairing",),
               ("lefschetz", "--omega"), ("hodge-riemann", "--omega")])
    add_group("scd", "symmetric chains and the degree maps", cmd_scd,
              [("chains",), ("maps", "--check-equivariance")])
    add_group("burnside", "Burnside ring decompositions", cmd_burnside,
              [("decompose", "--degree"), ("pf2", "--quadruple"),
               ("young-audit", "--quadruple")])
    add_group("char", "character-level checks", cmd_char,
              [("table",), ("genuine", "--minor"), ("gamma",),
               ("toeplitz", "--composition"), ("pf", "--level")])
    add_group("koszul", "explicit equivariant injections", cmd_koszul,
              [("check-2x2",), ("check-3x3",)])
    add_group("verify", "run the full battery", cmd_verify,
              [("all", "--seed", "--timings")], render=_emit_checks)
    return parser


def main(argv=None) -> int:
    args = build_parser(argv).parse_args(argv)
    try:
        m = load_matroid_document(args.doc)
        group = load_group(args.group, m)
        report = {"command": f"{args.command} {args.what}",
                  "matroid": matroid_summary(m, group)}
        failed = args.func(args, chow_ring(m), group, report)
    except (UsageError, MatroidError, GroupError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(report, args.json, args.render)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
