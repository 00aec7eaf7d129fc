"""The verification battery behind `chowring verify all` and the acceptance
test suite.

Battery items (see README for the full descriptions):

  C1  degree-raising/duality table on the rank-4 uniform matroid on 5 elements
  C2  the fixed parenthesis-encoding worked example (ranks 3 and 7, r = 9)
  C3  the rank-4 Boolean Toeplitz-minor virtual character (genuine but not a
      permutation character)
  C4  symmetric chain decomposition validity and equivariance
  C5  Kahler package: unimodular Poincare pairing, hard Lefschetz ranks,
      Hodge-Riemann definiteness on primitive parts (exact)
  C6  FY basis size against the independent dimension oracle, and reduction
      confluence under two strategies
  C7  Burnside log-concavity: all 2x2 Toeplitz quadruples in B(G)
  C8  the explicit Koszul injections (2x2 split and the 3x3 case table) and
      the 3x3 Burnside minor by direct decomposition
  C9  equivariant gamma-positivity of the graded character sequence
  C10 numeric PF evidence: real-rootedness (Sturm) plus window minors and
      equivariant Koszul minors up to size 4 (labeled evidence)

Known mathematical gaps (reported, not hidden): the 3x3 case table cannot be
total for matroids of rank >= 5 (no rank/corank-local target exists for the
(E, x_F x_E) sources at rank-3/corank-2 flats), and for rank-3 matroids the
3x3 Burnside minor itself is negative. C8 reports these precisely.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import scd
from .burnside import (BurnsideContext, pf2_minor_check, pf2_quadruples,
                       young_stabilizer_audit)
from .characters import (character_table, gamma_expansion, gamma_reexpand,
                         is_genuine, koszul_minor, numeric_pf_check,
                         perm_character, toeplitz_minor)
from .chow import ChowRing, chow_ring, lefschetz_omega, mono_mul
from .koszul import verify_injection
from .matroid import Matroid
from .perm import PermGroup, cycle_type, matroid_automorphisms

KAHLER_MIDDLE_CAP = 200
ORACLE_GROUND_CAP = 6


@dataclass
class CheckResult:
    battery: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    known_gap: str | None = None
    elapsed: float = 0.0

    def to_dict(self, with_timing=False):
        out = {"battery": self.battery, "name": self.name, "passed": self.passed,
               "details": _plain(self.details)}
        if self.known_gap:
            out["known_gap"] = self.known_gap
        if with_timing:
            out["elapsed"] = round(self.elapsed, 3)
        return out


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (int, str, bool, float)) or obj is None:
        return obj
    return repr(obj)


def _timed(results, battery, name, fn, known_gap=None):
    t0 = time.perf_counter()
    passed, details = fn()
    results.append(CheckResult(battery, name, passed, details,
                               known_gap if not passed else None,
                               time.perf_counter() - t0))


# -- individual batteries ------------------------------------------------------

def check_lambda_table(ring: ChowRing) -> tuple[bool, dict]:
    """C1: rank-4 uniform on 5 elements: arrow-for-arrow table."""
    failures = []
    full = ring.matroid.full
    top = ring.top_var
    if scd.lambda_map(ring, ()) != ((top, 1),):
        failures.append("unit")
    if scd.lambda_map(ring, ((top, 1),)) != ((top, 2),):
        failures.append("x_E")
    for mono in ring.fy_basis(1):
        vi, _ = mono[0]
        f = ring.vars[vi]
        image = scd.lambda_map(ring, mono)
        if f == full:
            continue
        if ring.vrank[vi] == 3 and image != ((vi, 2),):
            failures.append(ring.mono_str(mono))
        if ring.vrank[vi] == 2 and image != ((vi, 1), (top, 1)):
            failures.append(ring.mono_str(mono))
        if scd.pi_map(ring, mono) != image:
            failures.append("pi!=lambda at " + ring.mono_str(mono))
    if scd.pi_map(ring, ()) != ((top, ring.r),):
        failures.append("pi(1)")
    return not failures, {"failures": failures}


def check_paren_example() -> tuple[bool, dict]:
    """C2: the fixed worked example with flag ranks (3, 7) and r = 9."""
    cells = scd.diagram_cells((3, 7), (1, 2, 0), 9)
    word = "".join(scd.parens_from_cells(cells))
    pairs, unpaired = scd.pair_parentheses(word)
    chain = [(1, 2, 0)]
    symbols = tuple(word)
    for _ in range(3):
        symbols = scd.flip_rightmost_close(symbols)
        chain.append(scd.exponents_from_parens((3, 7), symbols, 9))
    expected_chain = [(1, 2, 0), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
    ok = (word == ")())(()))" and set(pairs) == {(2, 3), (5, 8), (6, 7)}
          and len(pairs) == 3 and chain == expected_chain)
    return ok, {"word": word, "pairs": sorted(pairs), "chain": chain}


def check_boolean4_character(ring: ChowRing, group: PermGroup) -> tuple[bool, dict]:
    """C3: the 3x3 PF Toeplitz minor of the rank-4 Boolean matroid is a
    genuine character but not a permutation character."""
    table, seq = character_sequence(ring, group)
    minor = toeplitz_minor(seq, (0, 1, 2), (1, 2, 4))
    genuine, mults = is_genuine(minor, table)
    four_cycle_value = None
    for i, rep in enumerate(table.data.reps):
        if cycle_type(rep) == (4,):
            four_cycle_value = minor.values[i]
    ok = (genuine and mults == (29, 124, 103, 172, 76)
          and four_cycle_value == -1)
    verdict = ("genuine character, not a permutation character"
               if genuine and four_cycle_value is not None
               and four_cycle_value < 0 else "inconclusive")
    return ok, {"multiplicities": mults, "labels": table.labels,
                "value_on_4_cycles": four_cycle_value, "verdict": verdict}


def check_scd(ring: ChowRing, group: PermGroup) -> tuple[bool, dict]:
    """C4: chain partition, saturation, symmetry; lambda/pi equivariance,
    injectivity and the duality involution."""
    rep = scd.verify_scd(ring)
    failures = list(rep["failures"])
    r = ring.r
    for k in range((r + 1) // 2):
        basis = ring.fy_basis(k)
        images = {}
        for m in basis:
            im = scd.lambda_map(ring, m)
            if im in images:
                failures.append(("lambda_not_injective", k))
            images[im] = m
            if im not in set(ring.fy_basis(k + 1)):
                failures.append(("lambda_image_invalid", k))
        eq = scd.verify_equivariance(ring, group,
                                     lambda m: scd.lambda_map(ring, m), basis)
        if not eq["passed"]:
            failures.append(("lambda_not_equivariant", k, eq["failures"][:3]))
    for k in range(r + 1):
        basis = ring.fy_basis(k)
        target = set(ring.fy_basis(r - k))
        seen = set()
        for m in basis:
            im = scd.pi_map(ring, m)
            if im not in target or im in seen:
                failures.append(("pi_not_bijective", k))
            seen.add(im)
            if scd.pi_map(ring, im) != m:
                failures.append(("pi_not_involutive", k))
        eq = scd.verify_equivariance(ring, group,
                                     lambda m: scd.pi_map(ring, m), basis)
        if not eq["passed"]:
            failures.append(("pi_not_equivariant", k))
    return not failures, {"chains": rep["chains"], "failures": failures[:8]}


def check_kahler(ring: ChowRing, group: PermGroup) -> tuple[bool, dict]:
    """C5: pairing determinant +-1, hard Lefschetz full rank, Hodge-Riemann
    positive definiteness on primitive parts, in exact arithmetic."""
    from .linalg import bareiss_det
    failures = []
    details = {}
    omega = lefschetz_omega(ring, group=group)
    dets = []
    for k in range(ring.r // 2 + 1):
        det = bareiss_det(ring.pairing_matrix(k))
        dets.append(det)
        if det not in (1, -1):
            failures.append(("pairing_det", k, det))
        hl = ring.hard_lefschetz_check(omega, k)
        if not hl["passed"]:
            failures.append(("hard_lefschetz", k, hl["rank"], hl["expected"]))
        hr = ring.hodge_riemann_check(omega, k)
        if not hr["passed"]:
            failures.append(("hodge_riemann", k, hr["failing_minor"]))
    details["pairing_dets"] = dets
    details["failures"] = failures
    return not failures, details


def check_oracle(ring: ChowRing, seed=0) -> tuple[bool, dict]:
    """C6: FY count == oracle dimension at every degree; 200 random products
    reduce identically under both reduction strategies."""
    failures = []
    dims = []
    for k in range(ring.r + 1):
        fy = len(ring.fy_basis(k))
        oracle = ring.dimension_oracle(k)
        dims.append((fy, oracle))
        if fy != oracle:
            failures.append(("dimension", k, fy, oracle))
    rng = random.Random(seed)
    pool = [m for basis in ring.fy_all() for m in basis]
    for _ in range(200 if len(pool) > 1 else 0):
        a, b = rng.choice(pool), rng.choice(pool)
        prod = mono_mul(a, b)
        nf1 = ring.normal_form_terms({prod: 1}, strategy="fy")
        nf2 = ring.normal_form_terms({prod: 1}, strategy="plain")
        if nf1 != nf2:
            failures.append(("confluence", ring.mono_str(prod)))
    return not failures, {"dimensions": dims, "failures": failures}


def check_burnside_pf2(ring: ChowRing, group: PermGroup, ctx=None) -> tuple[bool, dict]:
    """C7: every valid quadruple passes the Burnside 2x2 inequality."""
    ctx = ctx or BurnsideContext(ring, group)
    failures = []
    quads = pf2_quadruples(ring.r)
    for quad in quads:
        rep = pf2_minor_check(ctx, *quad)
        if not rep["passed"]:
            failures.append((quad, rep["witness_class"]))
    return not failures, {"quadruples": len(quads), "failures": failures}


def check_young_audit(ring: ChowRing, group: PermGroup, ctx=None) -> tuple[bool, dict]:
    """Orbit stabilizers of the PF2 differences are Young subgroups (full
    symmetric automorphism groups only)."""
    ctx = ctx or BurnsideContext(ring, group)
    failures = []
    for quad in pf2_quadruples(ring.r):
        rep = young_stabilizer_audit(ctx, *quad)
        if not rep["passed"]:
            failures.append((quad, rep))
    return not failures, {"failures": failures}


def koszul_gap_note(rank: int) -> str | None:
    if rank == 3:
        return ("rank-3 matroids: the 3x3 Burnside minor is genuinely "
                "negative (the (E, E^2)-type sources outnumber the fixed "
                "points available in the target), so the inequality and any "
                "total injection provably fail")
    if rank >= 5:
        return ("rank >= 5: sources (E, x_F x_E) and (x_F x_E, E) at flats "
                "with rank 3 or corank 2 admit no rank/corank-local target; "
                "the case table is provably incompletable, and the checker "
                "reports exactly those gaps")
    return None


def check_koszul(ring: ChowRing, group: PermGroup, ctx=None) -> tuple[bool, dict]:
    """C8: 2x2 split and 3x3 case table, plus the direct Burnside minor."""
    rep2 = verify_injection(ring, group, which="2x2")
    rep3 = verify_injection(ring, group, which="3x3", ctx=ctx)
    details = {
        "injection_2x2": rep2["passed"],
        "domain_3x3": rep3["domain"],
        "unmatched": len(rep3["unmatched"]),
        "ambiguous": len(rep3["ambiguous"]),
        "collisions": len(rep3["collisions"]),
        "equivariance_failures": len(rep3["equivariance_failures"]),
        "minor_nonnegative": rep3.get("minor_nonnegative"),
        "minor_witness": rep3.get("minor_witness"),
    }
    return rep2["passed"] and rep3["passed"], details


def character_sequence(ring: ChowRing, group: PermGroup):
    """The character table of the group and the permutation characters of
    the graded pieces FY^0, ..., FY^r."""
    table = character_table(group)
    data = table.data
    return table, [perm_character(data, ring.fy_basis(k),
                                  lambda g, m: ring.act(g, m))
                   for k in range(ring.r + 1)]


def check_gamma(ring: ChowRing, group: PermGroup) -> tuple[bool, dict]:
    """C9: the graded character sequence is equivariantly gamma-positive;
    the expansion round-trips exactly."""
    table, seq = character_sequence(ring, group)
    gammas = gamma_expansion(seq)
    statuses = []
    failures = []
    for i, g in enumerate(gammas):
        genuine, mults = is_genuine(g, table)
        statuses.append((i, genuine, mults))
        if not genuine:
            failures.append((i, mults))
    back = gamma_reexpand(gammas, ring.r)
    if any(bool(a - b) for a, b in zip(back, seq)):
        failures.append("roundtrip")
    return not failures, {"gamma": statuses, "failures": failures}


def check_pf_evidence(ring: ChowRing, group: PermGroup) -> tuple[bool, dict]:
    """C10: numeric certificates (PF2, real-rootedness) plus evidence
    batteries (window minors, equivariant Koszul minors up to size 4)."""
    hilbert = list(ring.hilbert_function())
    failures = []
    rep2 = numeric_pf_check(hilbert, 2)
    repinf = numeric_pf_check(hilbert, "inf")
    if not rep2["passed"]:
        failures.append(("pf2", rep2["witness"]))
    if not repinf["passed"]:
        failures.append(("real_rootedness",))
    rep4 = numeric_pf_check(hilbert, 4)
    if not rep4["passed"]:
        failures.append(("windows", rep4["witness"]))
    table, seq = character_sequence(ring, group)
    minors = []
    for alpha in _compositions_upto(ring.r, 4):
        minor = koszul_minor(seq, alpha)
        genuine, mults = is_genuine(minor, table)
        minors.append((alpha, genuine))
        if not genuine:
            failures.append(("koszul_minor", alpha, mults))
    return not failures, {
        "mode": "evidence",
        "numeric": {"pf2": rep2["passed"], "real_rooted": repinf["passed"],
                    "windows<=4": rep4["passed"]},
        "equivariant_minors": len(minors), "failures": failures,
    }


def _compositions_upto(total_cap: int, max_len: int):
    out = []

    def rec(prefix, left):
        if 2 <= len(prefix) <= max_len:
            out.append(tuple(prefix))
        if len(prefix) >= max_len:
            return
        for part in range(1, left + 1):
            rec(prefix + [part], left - part)

    rec([], total_cap)
    return [alpha for alpha in out if sum(alpha) <= total_cap]


# -- the full battery ------------------------------------------------------------

def battery_items(m: Matroid, ring: ChowRing, group: PermGroup, deep=False,
                  seed=0):
    """(battery id, name, callable, known-gap note) for one matroid."""
    hilbert = ring.hilbert_function()
    is_u45 = (m.n == 5 and m.rank == 4 and hilbert == (1, 21, 21, 1)
              and len(m.flats) == 27)
    is_b4 = m.n == 4 and len(m.flats) == 16
    is_b3 = m.n == 3 and len(m.flats) == 8
    ctx = BurnsideContext(ring, group)
    items = []
    if is_u45:
        items.append(("C1", "lambda-pi-table",
                      lambda: check_lambda_table(ring), None))
    items.append(("C2", "paren-encoding-example", check_paren_example, None))
    if is_b4:
        items.append(("C3", "boolean4-virtual-character",
                      lambda: check_boolean4_character(ring, group), None))
    items.append(("C4", "scd-validity", lambda: check_scd(ring, group), None))
    if deep or max(hilbert) <= KAHLER_MIDDLE_CAP:
        items.append(("C5", "kahler-package",
                      lambda: check_kahler(ring, group), None))
    if m.n <= ORACLE_GROUND_CAP:
        items.append(("C6", "basis-vs-oracle",
                      lambda: check_oracle(ring, seed), None))
    if m.rank <= 6:
        items.append(("C7", "burnside-pf2",
                      lambda: check_burnside_pf2(ring, group, ctx), None))
        if group.is_full_symmetric():
            items.append(("C7", "young-stabilizer-audit",
                          lambda: check_young_audit(ring, group, ctx), None))
    items.append(("C8", "koszul-injections",
                  lambda: check_koszul(ring, group, ctx),
                  koszul_gap_note(m.rank)))
    items.append(("C9", "gamma-positivity",
                  lambda: check_gamma(ring, group), None))
    if is_b3:
        items.append(("C9", "boolean3-burnside-gamma",
                      lambda: check_boolean3_burnside_gamma(ring, group, ctx),
                      None))
    items.append(("C10", "pf-evidence",
                  lambda: check_pf_evidence(ring, group), None))
    return items


def run_battery(m: Matroid, group: PermGroup | None = None, deep=False,
                seed=0) -> list[CheckResult]:
    ring = chow_ring(m)
    if group is None:
        group = matroid_automorphisms(m)
    results: list[CheckResult] = []
    for battery, name, fn, gap in battery_items(m, ring, group, deep, seed):
        _timed(results, battery, name, fn, known_gap=gap)
    return results


def check_boolean3_burnside_gamma(ring: ChowRing, group: PermGroup,
                                  ctx=None) -> tuple[bool, dict]:
    """The Burnside-level gamma fails on the rank-3 Boolean matroid: gamma_1
    is the defining 3-set minus a point, not a genuine difference."""
    ctx = ctx or BurnsideContext(ring, group)
    seq = [ctx.decompose_degrees((k,)) for k in range(ring.r + 1)]
    gammas = gamma_expansion(seq)
    g1 = gammas[1]
    expected_fail = not g1.is_genuine()
    return expected_fail, {"gamma1": repr(g1),
                           "genuine": g1.is_genuine()}
