"""Symmetric chain structure on FY monomials via parenthesis pairing.

Each FY monomial is encoded, within the fiber of its extended support
(the flag of proper flats plus the top flat E), as a length-r sequence:

  * a bullet at each position rk(F_i) for the proper flats F_i;
  * dashes in the m_i consecutive positions immediately left of rk(F_i),
    with E's exponent contributing trailing dashes at positions r, r-1, ...;
  * blanks elsewhere.

Reading dashes as '(' and everything else as ')' gives a parenthesis word;
matching consecutive () pairs recursively leaves the unpaired symbols as
closes-then-opens. The degree-raising map flips the rightmost unpaired
close to an open; the duality map swaps the unpaired open/close counts.
Both keep the pairs (hence bullets, hence the extended support) fixed.

The core works on plain (ranks, exponents, r) data; monomial-level wrappers
translate to and from a matroid's flats. `encode` gives a monomial's cells
and parenthesis word as plain tuples of one-character strings, over DASH,
BULLET and BLANK and over "(" and ")", position p at index p - 1; `decode`
takes a parenthesis word back to the monomial over a given extended support.
"""

from __future__ import annotations

from .chow import ChowRing, mono_degree

DASH = "-"
BULLET = "*"
BLANK = "."


class SCDError(Exception):
    pass


class NotExtendedSupport(SCDError):
    pass


class DegreeTooHigh(SCDError):
    pass


class SymmetricChain:
    __slots__ = ("support", "pairs", "monomials")

    def __init__(self, support: tuple[int, ...], pairs: tuple, monomials: tuple):
        self.support = support  # flats, E last
        self.pairs = pairs  # matched (open, close) positions
        self.monomials = monomials  # FY monomials, ascending degree

    @property
    def rho(self) -> int:
        return len(self.pairs)


# -- pure core on (ranks, exponents, r) -------------------------------------

def diagram_cells(ranks, exps, r) -> tuple[str, ...]:
    """Cells for proper-flat ranks (ascending) and exponents (the last entry
    of exps is E's exponent, >= 0; the others are >= 1)."""
    if len(exps) != len(ranks) + 1:
        raise SCDError("need one exponent per proper flat plus one for E")
    cells = [BLANK] * r
    bounds = list(ranks) + [r + 1]
    prev = 0
    for rank, m in zip(bounds, exps):
        if rank <= prev:
            raise NotExtendedSupport("ranks not strictly increasing")
        if rank <= r:
            if m < 1:
                raise SCDError("proper flats need positive exponents")
            cells[rank - 1] = BULLET
        if m > rank - prev - 1:
            # m_i <= rk(F_i) - rk(F_{i-1}) - 1; for E (rank r+1) this reads
            # m <= r - rk(F_l)
            raise SCDError(f"exponent {m} too large at rank {rank}")
        for p in range(rank - m, rank):
            cells[p - 1] = DASH
        prev = rank
    return tuple(cells)


def parens_from_cells(cells) -> tuple[str, ...]:
    return tuple("(" if c == DASH else ")" for c in cells)


def cells_from_parens(symbols) -> tuple[str, ...]:
    cells = []
    for i, s in enumerate(symbols):
        if s == "(":
            cells.append(DASH)
        elif i > 0 and symbols[i - 1] == "(":
            cells.append(BULLET)
        else:
            cells.append(BLANK)
    return tuple(cells)


def pair_parentheses(symbols):
    """Match consecutive () pairs recursively (equivalently: stack matching).

    Returns (pairs, unpaired) with 1-based positions; pairs sorted by the
    open position, unpaired positions in increasing order (all closes first,
    then all opens).
    """
    pairs = []
    stack = []
    unpaired_close = []
    for pos, s in enumerate(symbols, start=1):
        if s == "(":
            stack.append(pos)
        elif stack:
            pairs.append((stack.pop(), pos))
        else:
            unpaired_close.append(pos)
    pairs.sort()
    return tuple(pairs), tuple(unpaired_close + stack)


def flip_rightmost_close(symbols) -> tuple[str, ...]:
    _, unpaired = pair_parentheses(symbols)
    closes = [p for p in unpaired if symbols[p - 1] == ")"]
    if not closes:
        raise SCDError("no unpaired close parenthesis to flip")
    out = list(symbols)
    out[closes[-1] - 1] = "("
    return tuple(out)


def set_unpaired_opens(symbols, want_opens) -> tuple[str, ...]:
    """Keep pairs fixed; make the unpaired tail have want_opens opens."""
    pairs, unpaired = pair_parentheses(symbols)
    if not 0 <= want_opens <= len(unpaired):
        raise SCDError("open count out of range")
    out = list(symbols)
    cut = len(unpaired) - want_opens
    for i, pos in enumerate(unpaired):
        out[pos - 1] = ")" if i < cut else "("
    return tuple(out)


def exponents_from_parens(ranks, symbols, r):
    """Recover (exponents incl. E's) from a parenthesis word, or None if the
    word is not a valid encoding over the given support ranks."""
    cells = cells_from_parens(symbols)
    bullets = tuple(p for p in range(1, r + 1) if cells[p - 1] == BULLET)
    if bullets != tuple(ranks):
        return None
    bounds = list(ranks) + [r + 1]
    exps = []
    prev = 0
    for rank in bounds:
        window = range(prev + 1, min(rank, r + 1))
        dashes = [p for p in window if cells[p - 1] == DASH]
        m = len(dashes)
        # dashes must sit in the m positions immediately left of the bound
        if dashes != list(range(rank - m, rank)):
            return None
        exps.append(m)
        prev = rank
    if any(m < 1 for m in exps[:-1]):
        return None
    return tuple(exps)


# -- monomial layer ----------------------------------------------------------

def _split_mono(ring: ChowRing, mono):
    """(proper var indices, ranks, exponents incl. E exponent)."""
    vis = [vi for vi, _ in mono]
    exps = [e for _, e in mono]
    if vis and vis[-1] == ring.top_var:
        e_top = exps[-1]
        vis, exps = vis[:-1], exps[:-1]
    else:
        e_top = 0
    return vis, [ring.vrank[v] for v in vis], exps + [e_top]


def _join_mono(ring: ChowRing, vis, exps):
    """Rebuild a monomial from proper var indices and exponents (+E last)."""
    pairs = [(vi, e) for vi, e in zip(vis, exps[:-1])]
    if exps[-1]:
        pairs.append((ring.top_var, exps[-1]))
    return tuple(pairs)


def supp_plus(ring: ChowRing, mono) -> tuple[int, ...]:
    """Extended support: the monomial's proper flats plus E, as masks."""
    vis, _, _ = _split_mono(ring, mono)
    return tuple(ring.vars[vi] for vi in vis) + (ring.matroid.full,)


def fiber(ring: ChowRing, support) -> tuple:
    """All FY monomials with the given extended support."""
    if not support or support[-1] != ring.matroid.full:
        raise NotExtendedSupport("support must end with the full flat")
    proper = support[:-1]
    for a, b in zip(proper, support[1:]):
        if a & b != a or a == b:
            raise NotExtendedSupport("support is not a strictly nested chain")
    vis = []
    for f in proper:
        vi = ring.var_index.get(f)
        if vi is None:
            raise NotExtendedSupport(f"{f:b} is not a nonempty flat")
        vis.append(vi)
    ranks = [ring.vrank[v] for v in vis]
    out = []

    def rec(i, prev_rank, exps):
        if i == len(vis):
            for e_top in range(0, ring.r - prev_rank + 1):
                out.append(_join_mono(ring, vis, exps + [e_top]))
            return
        for e in range(1, ranks[i] - prev_rank):
            rec(i + 1, ranks[i], exps + [e])

    rec(0, 0, [])
    return tuple(out)


def encode(ring: ChowRing, mono) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The monomial's dot-dash cells and its parenthesis word."""
    _, ranks, exps = _split_mono(ring, mono)
    cells = diagram_cells(ranks, exps, ring.r)
    return cells, parens_from_cells(cells)


def decode(ring: ChowRing, support, symbols):
    """The FY monomial with this extended support and parenthesis word."""
    if not support or support[-1] != ring.matroid.full:
        raise NotExtendedSupport("support must end with the full flat")
    vis = [ring.var_index[f] for f in support[:-1]]
    ranks = [ring.vrank[v] for v in vis]
    exps = exponents_from_parens(ranks, symbols, ring.r)
    if exps is None:
        raise SCDError("parenthesis word does not decode over this support")
    return _join_mono(ring, vis, exps)


def _step(ring: ChowRing, mono):
    """One degree-raising flip; defined whenever an unpaired close exists."""
    vis, ranks, exps = _split_mono(ring, mono)
    symbols = parens_from_cells(diagram_cells(ranks, exps, ring.r))
    new = flip_rightmost_close(symbols)
    out = exponents_from_parens(ranks, new, ring.r)
    if out is None:
        raise SCDError("flip left the support's encoding (bug)")
    return _join_mono(ring, vis, out)


def lambda_map(ring: ChowRing, mono):
    """Degree-raising injection FY^k -> FY^(k+1), defined for k < r/2."""
    k = mono_degree(mono)
    if 2 * k >= ring.r:
        raise DegreeTooHigh(f"degree {k} not below r/2 = {ring.r / 2}")
    return _step(ring, mono)


def pi_map(ring: ChowRing, mono):
    """Degree-reflecting bijection FY^k -> FY^(r-k) (an involution)."""
    k = mono_degree(mono)
    vis, ranks, exps = _split_mono(ring, mono)
    symbols = parens_from_cells(diagram_cells(ranks, exps, ring.r))
    pairs, unpaired = pair_parentheses(symbols)
    rho = len(pairs)
    new = set_unpaired_opens(symbols, (ring.r - k) - rho)
    out = exponents_from_parens(ranks, new, ring.r)
    if out is None:
        raise SCDError("reflection left the support's encoding (bug)")
    return _join_mono(ring, vis, out)


def symmetric_chains(ring: ChowRing) -> tuple[SymmetricChain, ...]:
    """Partition all FY monomials into chains keyed by (extended support,
    matched-pair positions)."""
    groups: dict = {}
    for basis in ring.fy_all():
        for mono in basis:
            _, ranks, exps = _split_mono(ring, mono)
            symbols = parens_from_cells(diagram_cells(ranks, exps, ring.r))
            pairs, _ = pair_parentheses(symbols)
            key = (supp_plus(ring, mono), pairs)
            groups.setdefault(key, []).append(mono)
    chains = []
    for (support, pairs), monos in sorted(groups.items()):
        monos.sort(key=mono_degree)
        chains.append(SymmetricChain(support, pairs, tuple(monos)))
    return tuple(chains)


def verify_scd(ring: ChowRing) -> dict:
    """Check the chains partition FY, are degree-saturated rho..r-rho, and
    consecutive members differ by one flip."""
    chains = symmetric_chains(ring)
    failures = []
    total = 0
    for chain in chains:
        degs = [mono_degree(m) for m in chain.monomials]
        total += len(degs)
        lo, hi = degs[0], degs[-1]
        if degs != list(range(lo, hi + 1)):
            failures.append(("not_saturated", chain.support, degs))
        if lo != chain.rho or lo + hi != ring.r:
            failures.append(("not_symmetric", chain.support, degs, chain.rho))
        for a, b in zip(chain.monomials, chain.monomials[1:]):
            if _step(ring, a) != b:
                failures.append(("not_a_flip_step", ring.mono_str(a),
                                 ring.mono_str(b)))
    hilbert = ring.hilbert_function()
    if total != sum(hilbert):
        failures.append(("not_a_partition", total, sum(hilbert)))
    middle = hilbert[ring.r // 2]
    if len(chains) != middle:
        failures.append(("chain_count", len(chains), middle))
    return {"check": "scd", "chains": len(chains), "passed": not failures,
            "failures": failures}


def id_table(ring: ChowRing, mapping, k: int, target: int) -> list:
    """mapping (lambda_map or pi_map) on FY^k as ids: entry i is the FY^target
    id of the image of fy_basis(k)[i], or None where that image is not an FY
    monomial of degree target."""
    index = ring.fy_index(target)
    return [index.get(mapping(ring, mono)) for mono in ring.fy_basis(k)]


def verify_equivariance(ring: ChowRing, group, table, k: int,
                        target: int) -> dict:
    """table[g . i] == g . table[i] for all generators and all ids i of FY^k,
    where table (from `id_table`) maps FY^k ids to FY^target ids; entries
    that are None are left out."""
    failures = []
    for g in group.gens:
        move, move_target = ring.fy_perm(g, k), ring.fy_perm(g, target)
        for i, t in enumerate(table):
            if t is not None and table[move[i]] != move_target[t]:
                failures.append((g, ring.mono_str(ring.fy_basis(k)[i])))
    return {"check": "equivariance", "passed": not failures,
            "failures": failures}
