"""Explicit equivariant injections behind the small Toeplitz minors.

The (j,k) splitting map factors a degree-(j+k) FY monomial at the first flag
position where the running exponent sum reaches j; its inverse is plain
multiplication, so injectivity is structural.

The degree-(1,2) case map  (FY1 x FY2) u (FY2 x FY1) -> (FY1)^3 u FY3  is
dispatch over a rule table shipped as data (koszul_3x3_rules.txt) so the
transcription stays reviewable. `parse_rules` compiles the table once: each
guard becomes a tuple (kind, letters, op, bound), the letter conventions of
the file (x < y < z, w incomparable) become relation guards of the same kind,
and rules are grouped by source shape (side, and whether each factor is E and
its exponent), so a source is tried only against the rules of its shape.
Guards only mention ranks, coranks and comparability, which automorphisms
preserve, so equivariance is structural; totality and injectivity are checked
exhaustively per matroid.

The 3x3 check runs that per-rule scan once per source *type*: the side, the
rank and exponent of each factor, and the pairwise relations of the factor
flats. That is everything a binding and a guard can read, so
`CaseMap.matches` memoises the matching rules per type, with their letter ->
factor position maps, and every other source of the type only rebuilds its
bindings. The equivariance sweeps of both checks key sources and images by FY
ids and move them with `ChowRing.fy_perm`.

Each check does one job: `verify_splits` sweeps the 2x2 splittings,
`verify_injection` checks the 3x3 case table, and `minor_3x3` decomposes the
3x3 Burnside minor directly, in the `BurnsideContext` its caller passes.
"""

from __future__ import annotations

import operator
import os
import re
from functools import cache
from itertools import combinations, product

from .chow import ChowRing, mono_degree, mono_mul
from .burnside import BurnsideContext, burnside_geq


class KoszulError(Exception):
    pass


class DegreeMismatch(KoszulError):
    pass


# -- the 2x2 splitting --------------------------------------------------------

def injection_2x2(ring: ChowRing, j: int, k: int, mono):
    """Split a degree-(j+k) FY monomial as (degree-j, degree-k) FY monomials."""
    if mono_degree(mono) != j + k or j < 0 or k < 0:
        raise DegreeMismatch(f"degree {mono_degree(mono)} != {j}+{k}")
    if j == 0:
        return (), mono
    total = 0
    for p, (vi, e) in enumerate(mono):
        if total + e >= j:
            delta = j - total
            left = mono[:p] + ((vi, delta),)
            right = ((vi, e - delta),) if e > delta else ()
            return left, right + mono[p + 1:]
        total += e
    raise DegreeMismatch("exponents sum below j")


def verify_2x2(ring: ChowRing, group, j: int, k: int) -> dict:
    """Totality, FY-validity of both factors, product-inverse, equivariance
    under each generator of the group. A split with a factor that is not FY
    is reported as invalid and left out of the equivariance sweep."""
    failures = []
    domain = ring.fy_basis(j + k)
    ids_j, ids_k = ring.fy_index(j), ring.fy_index(k)
    splits = []  # ids of the two factors, None for one that is not FY
    for a in domain:
        b, c = injection_2x2(ring, j, k, a)
        splits.append((ids_j.get(b), ids_k.get(c)))
        if None in splits[-1]:
            failures.append(("invalid_factor", ring.mono_str(a)))
        if mono_mul(b, c) != a:
            failures.append(("not_inverse", ring.mono_str(a)))
    for g in group.gens:
        move, move_j, move_k = (ring.fy_perm(g, d) for d in (j + k, j, k))
        for i, (b, c) in enumerate(splits):
            if None not in (b, c) and splits[move[i]] != (move_j[b], move_k[c]):
                failures.append(("not_equivariant", g, ring.mono_str(domain[i])))
    return {"check": "injection_2x2", "jk": (j, k), "domain": len(domain),
            "passed": not failures, "failures": failures}


def verify_splits(ring: ChowRing, group) -> dict:
    """`verify_2x2` at every (j, k) with j + k <= r."""
    reports = [verify_2x2(ring, group, j, k)
               for j in range(ring.r + 1) for k in range(ring.r + 1 - j)]
    return {"check": "injection_2x2_all",
            "passed": all(rep["passed"] for rep in reports),
            "reports": reports}


# -- the (1,2)/(2,1) case table ------------------------------------------------

_GUARD_RE = re.compile(
    r"(r)(>=)(\d+)|(rk)\((\w)\)(=|>=|!=)(\d+)|(cork)\((\w)\)(=|>=)(\d+)"
    r"|(d)\((\w),(\w)\)(=|>=)(\d+)|(\w)([<>~])(\w)")


def _relation(a: int, b: int) -> str:
    """How flat a sits against flat b: "=", "<", ">" or "~" (incomparable)."""
    if a == b:
        return "="
    meet = a & b
    return "<" if meet == a else ">" if meet == b else "~"


# guard kind -> its value, given the ring and the var indices of its letters
_GUARD_VALUE = {
    "r": lambda ring: ring.r,
    "rk": lambda ring, s: ring.vrank[s],
    "cork": lambda ring, s: ring.r + 1 - ring.vrank[s],
    "d": lambda ring, s, t: ring.vrank[t] - ring.vrank[s],
    "rel": lambda ring, s, t: _relation(ring.vars[s], ring.vars[t]),
}
_COMPARE = {"=": operator.eq, ">=": operator.ge, "!=": operator.ne}


class CaseRule:
    __slots__ = ("side", "comp1", "comp2", "guards", "target_kind", "target",
                 "line")

    def __init__(self, side, comp1, comp2, guards, target_kind, target, line):
        self.side = side                # "A" or "B"
        self.comp1 = comp1              # ((letter, exp), ...)
        self.comp2 = comp2
        self.guards = guards            # ((kind, letters, op, bound), ...)
        self.target_kind = target_kind  # "triple" or "monomial"
        self.target = target            # letters
        self.line = line

    @property
    def shape(self):
        """The side plus (is it E, exponent) for each factor of each
        component: the part of a source that a rule fixes by itself."""
        return (self.side,) + tuple(tuple((sym == "E", exp) for sym, exp in comp)
                                    for comp in (self.comp1, self.comp2))


def _parse_component(text):
    out = []
    for factor in text.split():
        if "^" in factor:
            sym, exp = factor.split("^")
            out.append((sym, int(exp)))
        else:
            out.append((factor, 1))
    return tuple(out)


def _parse_guard(text, raw):
    m = _GUARD_RE.fullmatch(text)
    if m is None:
        raise KoszulError(f"bad guard {text!r} in {raw!r}")
    parts = [p for p in m.groups() if p is not None]
    if parts[1] in "<>~":
        return ("rel", (parts[0], parts[2]), "=", parts[1])
    kind, *letters, op, bound = parts
    return (kind, tuple(letters), op, int(bound))


def _naming_guards(letters):
    """The letter conventions of the data file as relation guards: x, y, z
    strictly nested in that order, w incomparable to each of them."""
    chain = [sym for sym in "xyz" if sym in letters]
    guards = [("rel", pair, "=", "<") for pair in zip(chain, chain[1:])]
    if "w" in letters:
        guards += [("rel", ("w", sym), "=", "~") for sym in chain]
    return guards


def parse_rules(text: str) -> tuple[CaseRule, ...]:
    rules = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        side, c1, c2, guards, target = [part.strip() for part in line.split("|")]
        comp1, comp2 = _parse_component(c1), _parse_component(c2)
        letters = {sym for sym, _ in comp1 + comp2}
        guard_list = _naming_guards(letters)
        # split on commas that separate guards, not the one inside d(s,t)
        for g in re.split(r"\s*,(?![^()]*\))\s*", guards):
            if g != "always":
                guard_list.append(_parse_guard(g, raw))
        if any(not set(g[1]) <= letters for g in guard_list):
            raise KoszulError(f"guard on an unbound letter in {raw!r}")
        kind = {"()": "triple", "[]": "monomial"}.get(target[:1] + target[-1:])
        symbols = tuple(target[1:-1].replace(",", " ").split())
        if kind is None or len(symbols) != 3 or not set(symbols) <= letters | {"E"}:
            raise KoszulError(f"bad target in {raw!r}")
        rules.append(CaseRule(side, comp1, comp2, tuple(guard_list), kind,
                              symbols, line))
    return tuple(rules)


@cache
def rules_3x3() -> tuple[CaseRule, ...]:
    path = os.path.join(os.path.dirname(__file__), "data",
                        "koszul_3x3_rules.txt")
    with open(path, encoding="utf-8") as fh:
        return parse_rules(fh.read())


@cache
def _rules_by_shape() -> dict:
    by_shape: dict = {}
    for rule in rules_3x3():
        by_shape.setdefault(rule.shape, []).append(rule)
    return by_shape


class CaseMap:
    """Dispatcher for one matroid; binds rule letters to concrete flats."""

    def __init__(self, ring: ChowRing):
        self.ring = ring
        self._by_type: dict = {}  # source type -> [(rule, letter places)]

    def _bind(self, rule: CaseRule, comp1, comp2):
        """Letter -> var index binding, or None if a letter would name two
        flats or two letters one flat. The source has the rule's shape."""
        binding: dict = {}
        for pattern, mono in ((rule.comp1, comp1), (rule.comp2, comp2)):
            for (sym, _), (vi, _) in zip(pattern, mono):
                if binding.setdefault(sym, vi) != vi:
                    return None
        if len(set(binding.values())) != len(binding):
            return None
        return binding

    def _guards_ok(self, rule: CaseRule, binding) -> bool:
        ring = self.ring
        return all(_COMPARE[op](_GUARD_VALUE[kind](
                       ring, *[binding[sym] for sym in letters]), bound)
                   for kind, letters, op, bound in rule.guards)

    def _scan(self, side: str, comp1, comp2):
        """The per-rule scan over the rules of the source's shape: each
        matching rule with its letter -> factor position map, in table
        order."""
        top = self.ring.top_var
        shape = (side,) + tuple(tuple((vi == top, e) for vi, e in comp)
                                for comp in (comp1, comp2))
        out = []
        for rule in _rules_by_shape().get(shape, ()):
            binding = self._bind(rule, comp1, comp2)
            if binding is not None and self._guards_ok(rule, binding):
                letters = [sym for sym, _ in rule.comp1 + rule.comp2]
                out.append((rule, tuple((sym, letters.index(sym))
                                        for sym in binding)))
        return out

    def matches(self, side: str, comp1, comp2):
        """All (rule, binding) pairs matching the input (should be exactly 1),
        in table order. Memoised by the source's type: its side, the rank
        and exponent of each factor, and the pairwise relations of its
        factor flats ("=" among them, so the equality pattern too). That is
        all `_bind` and the guards read, and only E has rank r, so the first
        source of each type runs the per-rule scan and the others rebuild
        their bindings from its letter -> factor position maps."""
        vrank, flats = self.ring.vrank, self.ring.vars
        factors = [vi for vi, _ in comp1 + comp2]
        key = (side, tuple([(vrank[vi], e) for vi, e in comp1]),
               tuple([(vrank[vi], e) for vi, e in comp2]),
               tuple([_relation(flats[a], flats[b])
                      for a, b in combinations(factors, 2)]))
        found = self._by_type.get(key)
        if found is None:
            found = self._by_type[key] = self._scan(side, comp1, comp2)
        return [(rule, {sym: factors[pos] for sym, pos in places})
                for rule, places in found]

    def image(self, rule: CaseRule, binding):
        """The rule's target under a binding: ("T", three degree-1
        monomials) or ("M", one degree-3 monomial); E is the top flat."""
        top = self.ring.top_var
        if rule.target_kind == "triple":
            return ("T", tuple(
                ((binding.get(sym, top), 1),) for sym in rule.target))
        exps: dict = {}
        for sym in rule.target:
            vi = binding.get(sym, top)
            exps[vi] = exps.get(vi, 0) + 1
        return ("M", tuple(sorted(exps.items())))


def minor_3x3(ctx: BurnsideContext):
    """The 3x3 Burnside minor [FY1^3] + [FY3] - [FY1 x FY2] - [FY2 x FY1]
    by direct decomposition, independently of the case table. Returns
    (nonnegative, first class with a negative coefficient or None)."""
    minuend = ctx.decompose_degrees((1, 1, 1))
    if ctx.ring.r >= 3:
        minuend = minuend + ctx.decompose_degrees((3,))
    sub = ctx.decompose_degrees((1, 2)) + ctx.decompose_degrees((2, 1))
    return burnside_geq(minuend, sub)


def verify_injection(ring: ChowRing, group) -> dict:
    """Exhaustively check the 3x3 case map: totality (exactly one rule per
    source), valid images, global injectivity, equivariance under each
    generator of the group."""
    cmap = CaseMap(ring)
    r = ring.r
    fy = {d: ring.fy_basis(d) if d <= r else () for d in (1, 2)}
    ids1 = ring.fy_index(1) if r >= 1 else {}
    ids3 = ring.fy_index(3) if r >= 3 else {}
    sides = (("A", 1, 2), ("B", 2, 1))  # the degrees of the two factors
    unmatched = []
    ambiguous = []
    invalid = []
    # per side: (ids of the factors) -> (kind, *ids of the image), FY images only
    image_of: dict = {"A": {}, "B": {}}
    images: dict = {}  # (kind, *ids of the image) -> the first source mapped there
    collisions = []
    for side, d1, d2 in sides:
        for (i, c1), (j, c2) in product(enumerate(fy[d1]), enumerate(fy[d2])):
            src = (side, c1, c2)
            found = cmap.matches(*src)
            if not found:
                unmatched.append(src)
                continue
            if len(found) > 1:
                ambiguous.append((src, [rule.line for rule, _ in found]))
                continue
            img = cmap.image(*found[0])
            kind, payload = img
            key = ((kind, *map(ids1.get, payload)) if kind == "T"
                   else (kind, ids3.get(payload)))
            if None in key:
                invalid.append((src, img))
                continue
            image_of[side][i, j] = key
            if key in images:
                collisions.append((images[key], src, img))
            else:
                images[key] = src
    equi_failures = []
    for g in group.gens:
        move = {d: ring.fy_perm(g, d) for d in (1, 2, 3) if d <= r}
        move1, move3 = move.get(1), move.get(3)
        for side, d1, d2 in sides:
            side_images = image_of[side]
            move_i, move_j = move.get(d1), move.get(d2)
            for (i, j), img in side_images.items():
                if img[0] == "T":
                    moved = ("T", move1[img[1]], move1[img[2]], move1[img[3]])
                else:
                    moved = ("M", move3[img[1]])
                if side_images.get((move_i[i], move_j[j])) != moved:
                    equi_failures.append((g, (side, fy[d1][i], fy[d2][j])))
    return {
        "check": "injection_3x3",
        "domain": 2 * len(fy[1]) * len(fy[2]),
        "unmatched": unmatched,
        "ambiguous": ambiguous,
        "invalid": invalid,
        "collisions": collisions,
        "equivariance_failures": equi_failures,
        "passed": not (unmatched or ambiguous or invalid or collisions
                       or equi_failures),
    }


def audit_rule_shapes(max_rank=7) -> dict:
    """Abstract mutual-exclusion/exhaustiveness audit: over every realizable
    rank pattern up to the bound, each source shape must match exactly one
    rule, except the documented (E,xE)/(xE,E)/(E,E^2) gaps."""
    conflicts = []
    gaps = []
    rules = rules_3x3()
    # Enumerate archetypes on chains of up to 3 proper flats plus an
    # incomparable one; realized inside a Boolean matroid of each rank.
    from .matroid import boolean
    from .chow import chow_ring
    for n in range(2, max_rank + 1):
        ring = chow_ring(boolean(n))
        cmap = CaseMap(ring)
        fy1 = ring.fy_basis(1) if ring.r >= 1 else ()
        fy2 = ring.fy_basis(2) if ring.r >= 2 else ()
        for side, pairs in (("A", [(a, b) for a in fy1 for b in fy2]),
                            ("B", [(b, a) for b in fy2 for a in fy1])):
            for c1, c2 in pairs:
                found = cmap.matches(side, c1, c2)
                if len(found) > 1:
                    conflicts.append((n, side, ring.mono_str(c1),
                                      ring.mono_str(c2),
                                      [rule.line for rule, _ in found]))
                elif not found:
                    gaps.append((n, side, ring.mono_str(c1), ring.mono_str(c2)))
    return {"conflicts": conflicts, "gaps": gaps}
