"""Permutations of the ground set, matroid automorphism groups, conjugacy.

Permutations are plain tuples of images on 0..n-1. Groups materialize their
full element list; the corpus keeps |G| small (default cap 10080). A group
given by generators is closed under products. The automorphism group of a
matroid comes from a stabilizer chain: one backtrack search per point and
candidate image finds a coset representative, and the elements are the
products of one representative per level.

Element conjugacy classes are orbits of the action `conjugate`. Subgroup
classes are named in `burnside.SubgroupRegistry`, which caches every
conjugate of each class it meets; `subgroup_invariant` and
`are_conjugate_subgroups` stay here as the independent test oracle.
"""

from __future__ import annotations

from math import factorial

from .matroid import Matroid, members

GROUP_CAP = 10080


class GroupError(Exception):
    pass


class GroupTooLarge(GroupError):
    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"group exceeds cap {cap}")


class NotFullSymmetricGroup(GroupError):
    pass


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(a, b) -> tuple[int, ...]:
    """(a * b)(x) = a(b(x))."""
    return tuple(a[bx] for bx in b)


def conjugate(s, g) -> tuple[int, ...]:
    """s g s^-1 in one pass: it sends s(i) to s(g(i))."""
    h = [0] * len(s)
    for i, gi in enumerate(g):
        h[s[i]] = s[gi]
    return tuple(h)


def inverse(a) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def from_cycles(n: int, cycles) -> tuple[int, ...]:
    img = list(range(n))
    for cyc in cycles:
        for i, e in enumerate(cyc):
            img[e] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def cycles_of(p) -> list[tuple[int, ...]]:
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        t = p[s]
        while t != s:
            cyc.append(t)
            seen[t] = True
            t = p[t]
        out.append(tuple(cyc))
    return out


def cycle_type(p) -> tuple[int, ...]:
    """Cycle lengths, weakly decreasing."""
    return tuple(sorted((len(c) for c in cycles_of(p)), reverse=True))


def perm_str(p) -> str:
    cycs = [c for c in cycles_of(p) if len(c) > 1]
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(e + 1) for e in c) + ")" for c in cycs)


def perm_mask(p, mask: int) -> int:
    out = 0
    for e in members(mask):
        out |= 1 << p[e]
    return out


def mulclose(gens, n, cap=GROUP_CAP):
    els = {identity(n)}
    els.update(gens)
    frontier = list(els)
    while frontier:
        new = []
        for g in gens:
            for h in frontier:
                gh = compose(g, h)
                if gh not in els:
                    els.add(gh)
                    new.append(gh)
                    if len(els) > cap:
                        raise GroupTooLarge(cap)
        frontier = new
    return els


class PermGroup:
    def __init__(self, n: int, gens, elements):
        self.n = n
        self.gens = tuple(gens)
        self.elements = tuple(sorted(elements))
        self.element_set = frozenset(self.elements)
        self._classes = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p):
        return tuple(p) in self.element_set

    def __repr__(self):
        return f"PermGroup(n={self.n}, order={self.order})"

    def subgroup(self, elements) -> "PermGroup":
        els = frozenset(elements)
        gens = tuple(g for g in sorted(els) if g != identity(self.n))
        return PermGroup(self.n, gens, els)

    def is_full_symmetric(self) -> bool:
        return self.order == factorial(self.n)

    def conjugacy_classes(self):
        """Element conjugacy classes as (representative, frozenset) pairs,
        representative minimal in tuple order, classes sorted by it."""
        if self._classes is None:
            unseen = set(self.elements)
            classes = []
            for g in self.elements:  # sorted, so reps come out minimal
                if g in unseen:
                    cls = frozenset(orbit(self, g, conjugate))
                    unseen -= cls
                    classes.append((g, cls))
            self._classes = tuple(classes)
        return self._classes

    def class_index_of(self):
        """Dict element -> index into conjugacy_classes()."""
        idx = {}
        for i, (_, cls) in enumerate(self.conjugacy_classes()):
            for g in cls:
                idx[g] = i
        return idx


def group_from_generators(n: int, gens, cap=GROUP_CAP) -> PermGroup:
    gens = [tuple(g) for g in gens]
    for g in gens:
        if sorted(g) != list(range(n)):
            raise GroupError(f"not a bijection on 0..{n - 1}: {g}")
    return PermGroup(n, gens, mulclose(gens, n, cap))


def trivial_group(n: int) -> PermGroup:
    return PermGroup(n, (), {identity(n)})


def symmetric_group(n: int) -> PermGroup:
    if n == 1:
        return trivial_group(1)
    gens = [from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])]
    return group_from_generators(n, gens, cap=max(GROUP_CAP, factorial(n)))


def matroid_automorphisms(m: Matroid, cap=GROUP_CAP) -> PermGroup:
    """All ground-set permutations carrying flats to flats, from a stabilizer
    chain (Sims) whose coset representatives come from a backtrack search
    with flat-incidence pruning (Leon).

    Level d is the pointwise stabilizer G_d of 0..d-1. For each candidate c
    with the flat profile of d, the search fixes 0..d-1, sends d to c and
    stops at its first full leaf, an automorphism in G_d mapping d to c; a
    candidate without a leaf has had its whole subtree searched, so it is
    not in the orbit of d under G_d. A leaf fixes every flat inside 0..d-1
    and has had the image of every other nonempty flat checked against the
    flat set. G is the set of products of one representative per level.
    Raises GroupTooLarge once the product of the orbit sizes, |G|, exceeds
    `cap`.
    """
    n = m.n
    flat_set = set(m.flats)
    # invariant profile per element: multiset of (rank, size) of flats through it
    def profile(e):
        bit = 1 << e
        return tuple(sorted((m.rank_of[f], len(members(f)))
                            for f in m.flats if f & bit))

    profiles = [profile(e) for e in range(n)]
    # flats newly determined once elements 0..d are all assigned
    determined_at = [[] for _ in range(n)]
    for f in m.flats:
        if f:
            determined_at[max(members(f))].append(members(f))

    image = list(range(n))
    used = [False] * n  # images taken by the points already assigned

    def candidates(depth):
        return [c for c in range(n)
                if not used[c] and profiles[c] == profiles[depth]]

    def first_leaf(depth, c):
        """The first automorphism extending image[:depth] by depth -> c, or
        None once the whole subtree below has been searched."""
        image[depth] = c
        for f in determined_at[depth]:
            img = 0
            for e in f:
                img |= 1 << image[e]
            if img not in flat_set:
                return None
        if depth + 1 == n:
            return tuple(image)
        used[c] = True
        leaf = None
        for c2 in candidates(depth + 1):
            leaf = first_leaf(depth + 1, c2)
            if leaf is not None:
                break
        used[c] = False
        return leaf

    transversals = []
    order = 1
    for d in range(n):
        leaves = [first_leaf(d, c) for c in candidates(d) if c != d]
        reps = [u for u in leaves if u is not None]
        image[d] = d  # fixed pointwise from level d + 1 on
        used[d] = True
        if reps:
            transversals.append(reps)
            order *= len(reps) + 1
            if order > cap:
                raise GroupTooLarge(cap)
    els = [identity(n)]
    for reps in reversed(transversals):
        els += [compose(u, g) for u in reps for g in els]
    return PermGroup(n, _reduce_generators(els, n), els)


def _reduce_generators(elements, n):
    """Small generating set for a materialized group: scan the elements in
    order and keep each one outside the span of those kept so far. The span
    grows by whole right cosets of the previous span (Dimino)."""
    els = sorted(elements)
    gens = []
    span = [identity(n)]
    span_set = set(span)
    for g in els:
        if g in span_set:
            continue
        gens.append(g)
        prev = span[:]
        # span is a list of right cosets of prev, each headed by its
        # representative; close it under right multiplication by gens
        head = 0
        while head < len(span):
            x = span[head]
            for s in gens:
                xs = compose(x, s)
                if xs not in span_set:
                    coset = [compose(h, xs) for h in prev]
                    span += coset
                    span_set.update(coset)
            head += len(prev)
        if len(span) == len(els):
            break
    return tuple(gens)


# -- orbits, stabilizers, conjugacy ----------------------------------------

def orbit(group: PermGroup, x, action):
    """Orbit of x under the group (BFS over generators)."""
    seen = {x}
    frontier = [x]
    gens = group.gens if group.gens else ()
    while frontier:
        y = frontier.pop()
        for g in gens:
            z = action(g, y)
            if z not in seen:
                seen.add(z)
                frontier.append(z)
    return seen


def stabilizer(group: PermGroup, x, action) -> PermGroup:
    els = frozenset(g for g in group.elements if action(g, x) == x)
    return group.subgroup(els)


def subgroup_invariant(group_n: int, elements) -> tuple:
    """Conjugation-invariant fingerprint of a subgroup (test oracle)."""
    types = sorted(cycle_type(g) for g in elements)
    orbits = []
    seen = 0
    full = (1 << group_n) - 1
    while seen != full:
        e = (full & ~seen).bit_length() - 1
        orb = {e}
        frontier = [e]
        while frontier:
            x = frontier.pop()
            for g in elements:
                if g[x] not in orb:
                    orb.add(g[x])
                    frontier.append(g[x])
        for x in orb:
            seen |= 1 << x
        orbits.append(len(orb))
    return (len(elements), tuple(sorted(orbits)), tuple(types))


def are_conjugate_subgroups(G: PermGroup, H, K) -> bool:
    """True iff g H g^-1 = K for some g in G. Invariant prefilter, then an
    exhaustive transporter search. No production path calls it: it is the
    test oracle for the class map of `burnside.SubgroupRegistry`."""
    hs = frozenset(H.elements if isinstance(H, PermGroup) else H)
    ks = frozenset(K.elements if isinstance(K, PermGroup) else K)
    if hs == ks:
        return True
    if subgroup_invariant(G.n, hs) != subgroup_invariant(G.n, ks):
        return False
    pivot = min(h for h in hs if h != identity(G.n)) if len(hs) > 1 else identity(G.n)
    for g in G.elements:
        gi = inverse(g)
        if compose(compose(g, pivot), gi) not in ks:
            continue
        if frozenset(compose(compose(g, h), gi) for h in hs) == ks:
            return True
    return False


def is_young_subgroup(G: PermGroup, H: PermGroup):
    """If G is the full symmetric group and H is conjugate to a Young subgroup
    S_lambda, return lambda (weakly decreasing); else None."""
    if not G.is_full_symmetric():
        raise NotFullSymmetricGroup(f"|G| = {G.order} != {G.n}!")
    blocks = []
    seen = set()
    for e in range(G.n):
        if e in seen:
            continue
        orb = orbit(H, e, lambda g, x: g[x])
        seen |= orb
        blocks.append(len(orb))
    expected = 1
    for b in blocks:
        expected *= factorial(b)
    if H.order != expected:
        return None
    return tuple(sorted(blocks, reverse=True))
