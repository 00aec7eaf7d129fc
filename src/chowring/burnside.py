"""Burnside ring arithmetic over conjugacy classes of subgroups.

Genuine G-sets are decomposed orbit by orbit; each orbit contributes its
point stabilizer's conjugacy class to a lazily grown registry. The registry
keeps one map from element bitsets to class indices: the first subgroup met
of a class registers it together with the bitsets of all its G-conjugates,
so naming a stabilizer is a lookup and no conjugacy search runs. Two genuine
G-sets are isomorphic iff their coefficient vectors agree, so inequalities
b >= b' are coefficientwise.

Products of FY bases are decomposed without listing them, never through a
table of marks. A group element fixes an FY monomial iff it fixes each of
its flats, so stabilizers are ANDs of per-flat bitsets over the group's
elements. For an orbit G.a of the first factor with H = stab(a), the orbits
of G on G.a x Y match the H-orbits on Y, and an H-orbit with point
stabilizer K has |H|/|K| points; so summing |K| over Y, class by class, and
dividing by |H| counts the orbits (the Mackey double-coset formula). The
generic `decompose` lists the orbits of an arbitrary G-set; it is the
independent oracle the tests check this engine against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import prod

from .chow import ChowRing
from .matroid import members
from .perm import (NotFullSymmetricGroup, PermGroup, compose, conjugate,
                   inverse, is_young_subgroup, orbit)


class BurnsideError(Exception):
    pass


class GroupMismatch(BurnsideError):
    pass


class InvalidAction(BurnsideError):
    pass


class BadIndices(BurnsideError):
    pass


@dataclass
class GSet:
    """Finite G-set: element list plus an action callable (g, x) -> x."""
    group: PermGroup
    elements: tuple
    act: object

    def __len__(self):
        return len(self.elements)


def product(x: GSet, y: GSet) -> GSet:
    if x.group is not y.group:
        raise GroupMismatch("G-sets live over different groups")
    ax, ay = x.act, y.act

    def act(g, pair):
        return (ax(g, pair[0]), ay(g, pair[1]))

    return GSet(x.group, tuple((a, b) for a in x.elements for b in y.elements), act)


class SubgroupRegistry:
    """Canonical list of stabilizer classes of one group, grown lazily.

    A subgroup is given as a bitset over `group.elements`. The first subgroup
    met of each class is its entry in `classes`, and the bitsets of all its
    G-conjugates are cached on the spot, so a bitset missing from the cache
    starts a new class."""

    def __init__(self, group: PermGroup):
        self.group = group
        self.classes: list[frozenset] = []
        self._index: dict[int, int] = {}  # element bitset -> class index
        self._conj_maps = None

    def classify(self, bits: int) -> int:
        idx = self._index.get(bits)
        if idx is None:
            idx = len(self.classes)
            els = self.group.elements
            self.classes.append(frozenset(els[i] for i in _bit_indices(bits)))
            for conj in self._conjugates(bits):
                self._index[conj] = idx
        return idx

    def _conjugates(self, bits: int) -> set[int]:
        """Bitsets of the G-conjugates of a subgroup, by closing under
        conjugation by the generators."""
        if self._conj_maps is None:
            els = self.group.elements
            index = {g: i for i, g in enumerate(els)}
            self._conj_maps = [[index[conjugate(s, g)] for g in els]
                               for s in self.group.gens]
        seen = {bits}
        frontier = [_bit_indices(bits)]
        while frontier:
            idxs = frontier.pop()
            for cmap in self._conj_maps:
                image = [cmap[i] for i in idxs]
                conj = sum(1 << i for i in image)
                if conj not in seen:
                    seen.add(conj)
                    frontier.append(image)
        return seen

    def order_of(self, idx: int) -> int:
        return len(self.classes[idx])

    def describe(self, idx: int) -> str:
        h = self.classes[idx]
        if self.group.is_full_symmetric():
            lam = is_young_subgroup(self.group, self.group.subgroup(h))
            if lam is not None:
                return "S(" + ",".join(map(str, lam)) + ")"
        return f"subgroup of order {len(h)} (class {idx})"


@dataclass
class BurnsideElement:
    registry: SubgroupRegistry
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {i: c for i, c in self.coeffs.items() if c}

    def __add__(self, other):
        self._same(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return BurnsideElement(self.registry, out)

    def __sub__(self, other):
        self._same(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) - c
        return BurnsideElement(self.registry, out)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return BurnsideElement(self.registry, {i: c * k for i, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, BurnsideElement)
                and self.registry is other.registry and self.coeffs == other.coeffs)

    def _same(self, other):
        if self.registry is not other.registry:
            raise GroupMismatch("elements over different registries")

    def is_genuine(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def cardinality(self) -> int:
        g = self.registry.group.order
        return sum(c * (g // len(self.registry.classes[i]))
                   for i, c in self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        reg = self.registry
        bits = [f"{c}*[G/{reg.describe(i)}]" for i, c in sorted(self.coeffs.items())]
        return " + ".join(bits)


def burnside_geq(a: BurnsideElement, b: BurnsideElement):
    """a >= b coefficientwise; returns (bool, witness class index or None)."""
    diff = a - b
    for i in sorted(diff.coeffs):
        if diff.coeffs[i] < 0:
            return False, i
    return True, None


def decompose(x: GSet, registry: SubgroupRegistry) -> BurnsideElement:
    if x.group is not registry.group:
        raise GroupMismatch("G-set and registry over different groups")
    act = x.act
    visited = set()
    coeffs: dict[int, int] = {}
    for start in x.elements:
        if start in visited:
            continue
        found = orbit(x.group, start, act)
        visited |= found
        rep = min(found)
        stab = sum(1 << i for i, g in enumerate(x.group.elements)
                   if act(g, rep) == rep)
        if stab.bit_count() * len(found) != x.group.order:
            raise InvalidAction("orbit-stabilizer mismatch: not a group action")
        idx = registry.classify(stab)
        coeffs[idx] = coeffs.get(idx, 0) + 1
    return BurnsideElement(registry, coeffs)


def marks_consistent(x: GSet, belt: BurnsideElement) -> bool:
    """Audit: for each registered class H, the fixed-point count |X^H| must
    match the marks of the decomposition."""
    reg = belt.registry
    group = reg.group
    for h_idx in range(len(reg.classes)):
        h = reg.classes[h_idx]
        fixed = sum(1 for e in x.elements if all(x.act(g, e) == e for g in h))
        total = 0
        for i, c in belt.coeffs.items():
            k = reg.classes[i]
            transporters = sum(
                1 for g in group.elements
                if all(compose(compose(inverse(g), hh), g) in k for hh in h))
            total += c * (transporters // len(k))
        if fixed != total:
            return False
    return True


# -- FY-product decomposition and Burnside positivity checks ----------------

def _point_bitsets(group: PermGroup):
    """moves[e][c]: bitset over group.elements of the g with g(e) = c."""
    size = group.order
    out = []
    for e in range(group.n):
        rows = [bytearray(b"0" * size) for _ in range(group.n)]
        for i, g in enumerate(group.elements):
            rows[g[e]][size - 1 - i] = 49  # ord("1")
        out.append([int(row, 2) for row in rows])
    return out


def _bit_indices(bits: int):
    return [i for i, ch in enumerate(reversed(bin(bits))) if ch == "1"]


class BurnsideContext:
    """Per-(matroid, group) workspace caching FY product decompositions."""

    def __init__(self, ring: ChowRing, group: PermGroup):
        self.ring = ring
        self.group = group
        self.registry = SubgroupRegistry(group)
        self._products: dict = {}
        self._var_stabs = None
        self._stabs: dict = {}  # degree -> stabilizer bitset per FY monomial
        for g in group.gens:
            ring.var_perm(g)  # fails fast if not automorphisms

    def _basis(self, k: int):
        return self.ring.fy_basis(k) if k <= self.ring.r else ()

    def _monomial_stabs(self, k: int) -> list[int]:
        got = self._stabs.get(k)
        if got is None:
            if self._var_stabs is None:
                moves = _point_bitsets(self.group)
                self._var_stabs = [self._flat_stab(moves, f)
                                   for f in self.ring.vars]
            whole = (1 << self.group.order) - 1
            vs = self._var_stabs
            got = []
            for mono in self._basis(k):
                bits = whole
                for vi, _ in mono:
                    bits &= vs[vi]
                got.append(bits)
            self._stabs[k] = got
        return got

    def _flat_stab(self, moves, flat: int) -> int:
        """Bitset of the g with g(F) = F: each e in F goes into F."""
        bits = (1 << self.group.order) - 1
        inside = members(flat)
        for e in inside:
            into = 0
            for c in inside:
                into |= moves[e][c]
            bits &= into
        return bits

    def _first_orbits(self, k: int) -> list[int]:
        """Stabilizer bitset of the first monomial, in basis order, of each
        G-orbit on FY^k."""
        seen = set()
        out = []
        for mono, h in zip(self._basis(k), self._monomial_stabs(k)):
            if mono in seen:
                continue
            found = orbit(self.group, mono, self.ring.act)
            seen |= found
            if h.bit_count() * len(found) != self.group.order:
                raise InvalidAction("orbit-stabilizer mismatch: not a group action")
            out.append(h)
        return out

    def decompose_degrees(self, degrees) -> BurnsideElement:
        # FY^0 is a point, and the product's class does not depend on order
        key = tuple(sorted(d for d in degrees if d != 0)) or (0,)
        got = self._products.get(key)
        if got is None:
            got = self._products[key] = self._decompose(key)
        return got

    def _decompose(self, key) -> BurnsideElement:
        """Orbit classes of FY^key[0] x FY^key[1] x ..., counted by Mackey
        sums over the first factor's orbit representatives."""
        first, *rest = key
        # a single factor is a product with the point FY^0
        *outer, last = [self._monomial_stabs(k) for k in rest or (0,)]
        classify = self.registry.classify
        coeffs: dict[int, int] = {}
        for h in self._first_orbits(first):
            counts = Counter()
            for prefix in _partial_ands(h, outer):
                counts.update(map(prefix.__and__, last))
            sums: dict[int, int] = {}
            for bits, n in counts.items():
                idx = classify(bits)
                sums[idx] = sums.get(idx, 0) + n * bits.bit_count()
            h_order = h.bit_count()
            for idx, total in sums.items():
                orbits, left = divmod(total, h_order)
                if left:
                    raise InvalidAction("Mackey sum not divisible by |H|")
                coeffs[idx] = coeffs.get(idx, 0) + orbits
        belt = BurnsideElement(self.registry, coeffs)
        if belt.cardinality() != prod(len(self._basis(k)) for k in key):
            raise InvalidAction("orbit sizes do not add up to the product")
        return belt


def _partial_ands(h: int, levels):
    """h AND s_1 AND ... AND s_m over levels[0] x ... in product order."""
    if not levels:
        yield h
        return
    for s in levels[0]:
        yield from _partial_ands(h & s, levels[1:])


def pf2_minor_check(ctx: BurnsideContext, i: int, j: int, k: int, l: int) -> dict:
    """[FY^j][FY^k] >= [FY^i][FY^l] in B(G) for i <= j <= k <= l, i+l = j+k."""
    r = ctx.ring.r
    if not (0 <= i <= j <= k <= l <= r and i + l == j + k):
        raise BadIndices(f"quadruple ({i},{j},{k},{l}) needs "
                         f"0 <= i <= j <= k <= l <= {r} and i + l = j + k")
    big = ctx.decompose_degrees((j, k))
    small = ctx.decompose_degrees((i, l))
    ok, witness = burnside_geq(big, small)
    return {
        "check": "burnside_pf2", "quadruple": (i, j, k, l), "passed": ok,
        "witness_class": None if ok else ctx.registry.describe(witness),
        "difference": repr(big - small),
    }


def young_stabilizer_audit(ctx: BurnsideContext, i: int, j: int, k: int, l: int) -> dict:
    """For Aut = full symmetric group: the difference [FY^j][FY^k] -
    [FY^i][FY^l] must be genuine with all orbit stabilizers Young."""
    group = ctx.group
    if not group.is_full_symmetric():
        raise NotFullSymmetricGroup(f"|G| = {group.order} != {group.n}!")
    report = pf2_minor_check(ctx, i, j, k, l)
    if not report["passed"]:
        report["check"] = "young_stabilizer_audit"
        return report
    diff = ctx.decompose_degrees((j, k)) - ctx.decompose_degrees((i, l))
    non_young = []
    shapes = []
    for idx, c in sorted(diff.coeffs.items()):
        h = ctx.registry.classes[idx]
        lam = is_young_subgroup(group, group.subgroup(h))
        if lam is None:
            non_young.append(idx)
        else:
            shapes.append((lam, c))
    return {
        "check": "young_stabilizer_audit", "quadruple": (i, j, k, l),
        "passed": not non_young, "young_shapes": shapes,
        "non_young_classes": non_young,
    }


def pf2_quadruples(r: int):
    """All (i,j,k,l) with 0 <= i <= j <= k <= l <= r and i + l = j + k."""
    out = []
    for i in range(r + 1):
        for j in range(i, r + 1):
            for k in range(j, r + 1):
                l = j + k - i
                if k <= l <= r:
                    out.append((i, j, k, l))
    return out
