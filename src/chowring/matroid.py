"""Matroids presented by their lattices of flats.

Flats are stored as bitmasks over a ground set {0, ..., n-1} with n <= 16.
Construction validates the flat axioms exhaustively:

  (F1) the full ground set is a flat;
  (F2) the intersection of two flats is a flat;
  (F3) for a flat F and an element i outside F, exactly one flat covering F
       contains i.

Rank is the longest-chain length in the inclusion order, so everything here
is purely lattice-theoretic.
"""

from __future__ import annotations

from itertools import combinations

MAX_GROUND = 16


class MatroidError(Exception):
    pass


class AxiomViolation(MatroidError):
    def __init__(self, axiom, witness, message):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom}: {message} (witness {witness})")


class NotAMatroid(MatroidError):
    pass


class BadParameters(MatroidError):
    pass


class NotAFlat(MatroidError):
    pass


def members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def flat_sort_key(mask: int):
    # cardinality, then lexicographic on the sorted member tuple
    return (mask.bit_count(), members(mask))


class Matroid:
    """A simple matroid given by its full list of flats.

    Attributes:
        n: ground set size (elements 0..n-1).
        flats: all flats in canonical order (cardinality, then lex);
            includes the bottom flat (empty set for a simple matroid) and E.
        rank_of: dict mask -> rank (longest chain below, bottom has rank 0).
        r: rank(E) - 1, the top Chow degree.
    """

    def __init__(self, n: int, flats: tuple[int, ...], rank_of: dict[int, int]):
        self.n = n
        self.full = (1 << n) - 1
        self.flats = flats
        self.flat_index = {f: i for i, f in enumerate(flats)}
        self.rank_of = rank_of
        self.rank = rank_of[self.full]
        self.r = self.rank - 1
        # nonempty flats carry the Chow variables; order by (rank, canonical)
        nonempty = [f for f in flats if f]
        nonempty.sort(key=lambda f: (rank_of[f],) + flat_sort_key(f))
        self.nonempty_flats = tuple(nonempty)
        self.atoms = tuple(f for f in nonempty if rank_of[f] == 1)
        self._covers = None

    # -- queries ----------------------------------------------------------

    def is_flat(self, mask: int) -> bool:
        return mask in self.flat_index

    def check_flat(self, mask: int) -> int:
        if mask not in self.flat_index:
            raise NotAFlat(f"{sorted(members(mask))} is not a flat")
        return mask

    def closure(self, subset: int) -> int:
        """Smallest flat containing the subset."""
        best = self.full
        for f in self.flats:
            if subset & f == subset and f.bit_count() < best.bit_count():
                best = f
        # flats are intersection-closed, so the minimum is unique
        return best

    def meet(self, f: int, g: int) -> int:
        self.check_flat(f)
        self.check_flat(g)
        return f & g

    def join(self, f: int, g: int) -> int:
        self.check_flat(f)
        self.check_flat(g)
        return self.closure(f | g)

    def covers(self, f: int) -> tuple[int, ...]:
        """All flats covering f (nothing strictly between)."""
        self.check_flat(f)
        if self._covers is None:
            self._covers = {}
            for x in self.flats:
                ups = [y for y in self.flats if y != x and y & x == x]
                cov = []
                for y in ups:
                    if not any(z != y and z & y == z for z in ups):
                        cov.append(y)
                self._covers[x] = tuple(sorted(cov, key=flat_sort_key))
        return self._covers[f]

    def is_simple(self) -> bool:
        if self.flats[0] != 0:
            return False
        return all(a.bit_count() == 1 for a in self.atoms)

    def element_flat_profile(self, e: int) -> frozenset:
        bit = 1 << e
        return frozenset(f for f in self.flats if f & bit)

    def __eq__(self, other):
        return (isinstance(other, Matroid) and self.n == other.n
                and self.flats == other.flats)

    def __hash__(self):
        return hash((self.n, self.flats))


def _ranks_by_longest_chain(flats: list[int]) -> dict[int, int]:
    order = sorted(flats, key=flat_sort_key)
    rank_of = {}
    for f in order:
        below = [rank_of[g] for g in order if g != f and g & f == g and g in rank_of]
        rank_of[f] = max(below) + 1 if below else 0
    return rank_of


def matroid_from_flats(n: int, flats) -> Matroid:
    """Validate the flat axioms exhaustively and build the matroid."""
    if not 1 <= n <= MAX_GROUND:
        raise BadParameters(f"ground set size {n} outside 1..{MAX_GROUND}")
    flat_list = sorted({f if isinstance(f, int) else mask_of(f) for f in flats},
                       key=flat_sort_key)
    if not flat_list:
        raise BadParameters("empty flat list")
    full = (1 << n) - 1
    if any(f & ~full for f in flat_list):
        raise BadParameters("flat contains elements outside the ground set")
    if full not in flat_list:
        raise AxiomViolation("F1", full, "ground set is not a flat")
    flat_set = set(flat_list)
    for f, g in combinations(flat_list, 2):
        if f & g not in flat_set:
            raise AxiomViolation("F2", (f, g), "intersection of flats is not a flat")

    # covers computed on the raw list for the F3 check
    ups = {f: [g for g in flat_list if g != f and g & f == f] for f in flat_list}
    covers = {}
    for f in flat_list:
        covers[f] = [g for g in ups[f]
                     if not any(h != g and h & g == h for h in ups[f])]
    for f in flat_list:
        outside = full & ~f
        for i in range(n):
            if not outside >> i & 1:
                continue
            hits = [g for g in covers[f] if g >> i & 1]
            if len(hits) != 1:
                raise AxiomViolation(
                    "F3", (f, i),
                    f"element {i} lies in {len(hits)} covers of the flat")

    rank_of = _ranks_by_longest_chain(flat_list)
    # sanity: covers raise rank by exactly one
    for f in flat_list:
        for g in covers[f]:
            if rank_of[g] != rank_of[f] + 1:
                raise AxiomViolation("F3", (f, g), "cover does not raise rank by 1")
    return Matroid(n, tuple(flat_list), rank_of)


def _subset_rank_from_bases(n: int, bases: list[int]):
    cache = {}

    def rank(s: int) -> int:
        if s in cache:
            return cache[s]
        best = 0
        for b in bases:
            c = (s & b).bit_count()
            if c > best:
                best = c
        cache[s] = best
        return best

    return rank


def matroid_from_bases(n: int, bases) -> Matroid:
    """Build a matroid from its bases; flats are the rank-closed sets."""
    if not 1 <= n <= MAX_GROUND:
        raise BadParameters(f"ground set size {n} outside 1..{MAX_GROUND}")
    base_list = sorted({b if isinstance(b, int) else mask_of(b) for b in bases})
    if not base_list:
        raise NotAMatroid("no bases given")
    size = base_list[0].bit_count()
    if any(b.bit_count() != size for b in base_list):
        raise NotAMatroid("bases are not equicardinal")
    base_set = set(base_list)
    for b1 in base_list:
        for b2 in base_list:
            only1 = b1 & ~b2
            for i in members(only1):
                if not any((b1 & ~(1 << i)) | (1 << j) in base_set
                           for j in members(b2 & ~b1)):
                    raise NotAMatroid(f"exchange fails for {members(b1)}, "
                                      f"{members(b2)} at element {i}")
    rank = _subset_rank_from_bases(n, base_list)
    full = (1 << n) - 1
    flats = []
    for s in range(full + 1):
        rs = rank(s)
        if all(rank(s | (1 << i)) > rs for i in range(n) if not s >> i & 1):
            flats.append(s)
    return matroid_from_flats(n, flats)


def uniform(r_plus_1: int, n: int) -> Matroid:
    """Uniform matroid of rank r_plus_1 on n elements."""
    if not 1 <= r_plus_1 <= n or n > MAX_GROUND:
        raise BadParameters(f"uniform({r_plus_1}, {n})")
    full = (1 << n) - 1
    flats = [full]
    for size in range(r_plus_1):
        for combo in combinations(range(n), size):
            flats.append(mask_of(combo))
    return matroid_from_flats(n, flats)


def boolean(n: int) -> Matroid:
    """Boolean matroid: every subset is a flat."""
    if not 1 <= n <= MAX_GROUND:
        raise BadParameters(f"boolean({n})")
    return matroid_from_flats(n, range(1 << n))


def graphic(edges) -> Matroid:
    """Cycle matroid of a connected graph; elements are the edges in order."""
    edges = [tuple(e) for e in edges]
    if not edges or len(edges) > MAX_GROUND:
        raise BadParameters("need between 1 and 16 edges")
    vertices = sorted({v for e in edges for v in e})

    def component_partition(edge_mask: int):
        parent = {v: v for v in vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for i, (u, v) in enumerate(edges):
            if edge_mask >> i & 1:
                parent[find(u)] = find(v)
        return find

    def edge_closure(edge_mask: int) -> int:
        find = component_partition(edge_mask)
        out = 0
        for i, (u, v) in enumerate(edges):
            if find(u) == find(v):
                out |= 1 << i
        return out

    full = (1 << len(edges)) - 1
    find = component_partition(full)
    if len({find(v) for v in vertices}) != 1:
        raise BadParameters("graph is not connected")

    flats = set()
    frontier = [edge_closure(0)]
    flats.add(frontier[0])
    while frontier:
        f = frontier.pop()
        for i in range(len(edges)):
            if not f >> i & 1:
                g = edge_closure(f | (1 << i))
                if g not in flats:
                    flats.add(g)
                    frontier.append(g)
    m = matroid_from_flats(len(edges), flats)
    return m if m.is_simple() else simplify(m)


def simplify(m: Matroid) -> Matroid:
    """Remove loops and merge parallel classes; the flat lattice is unchanged
    up to relabeling."""
    bottom = m.flats[0]
    keep = []
    seen_profiles = set()
    for e in range(m.n):
        if bottom >> e & 1:
            continue  # loop
        profile = m.element_flat_profile(e)
        if profile in seen_profiles:
            continue  # parallel to an earlier element
        seen_profiles.add(profile)
        keep.append(e)
    if len(keep) == m.n and bottom == 0:
        return m
    relabel = {e: i for i, e in enumerate(keep)}
    new_flats = set()
    for f in m.flats:
        new_flats.add(mask_of(relabel[e] for e in members(f) if e in relabel))
    return matroid_from_flats(len(keep), new_flats)


def flat_str(mask: int, n: int) -> str:
    """Human-readable flat label, 1-based ("134" when n <= 9)."""
    if mask == 0:
        return "{}"
    elems = [e + 1 for e in members(mask)]
    if n <= 9:
        return "".join(str(e) for e in elems)
    return "{" + ",".join(str(e) for e in elems) + "}"
