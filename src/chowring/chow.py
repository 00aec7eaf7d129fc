"""Graded Chow rings of matroids with the FY monomial basis.

The ring is Z[x_F : F a nonempty flat] / (I + J) where I kills products of
incomparable flats and J is generated by the atom sums  sum_{F >= a} x_F.
Normal forms are computed with the monic quadratic/power rewriting families
whose initial monomials are

    x_F x_G           (F, G incomparable)
    x_F x_G^(rk G - rk F)   (F < G)
    x_G^(rk G)        (G any nonempty flat)

so the surviving standard monomials are exactly the FY monomials: chains
F_1 < ... < F_l with exponents m_i <= rk(F_i) - rk(F_{i-1}) - 1.

Monomials are tuples ((vi, exp), ...) over variable indices sorted by
ascending rank (the flag read bottom-up); the monomial order is graded lex
over the variable order "lower rank = larger variable".

An FY monomial's id is its position in `fy_basis(k)`, and `fy_index(k)` maps
the FY monomials of degree k, and only those, to their ids. A matroid
automorphism permutes the FY monomials of each degree, so the Chow ring is a
permutation representation; `fy_perm(g, k)` is that permutation on the ids
of FY^k, built from `act` and checked to be one.
"""

from __future__ import annotations

import heapq
from math import factorial
from operator import mul

from .matroid import Matroid, flat_str, members

UNIT = ()


class ChowError(Exception):
    pass


class DegreeOutOfRange(ChowError):
    pass


class UnknownVariable(ChowError):
    pass


class NonSquare(ChowError):
    pass


class NotSubmodular(ChowError):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"submodularity fails at A={a}, B={b}")


class NotGroupFixed(ChowError):
    def __init__(self, g, f):
        self.witness = (g, f)
        super().__init__("coefficient rule is not fixed by the group")


class NotAnFYMonomial(ChowError):
    pass


def mono_degree(mono) -> int:
    return sum(e for _, e in mono)


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    exps = {}
    for vi, e in a:
        exps[vi] = exps.get(vi, 0) + e
    for vi, e in b:
        exps[vi] = exps.get(vi, 0) + e
    return tuple(sorted(exps.items()))


def _matmul(a, b):
    """Product of dense integer matrices (lists of rows); a's zeros are
    skipped."""
    width = len(b[0]) if b else 0
    out = []
    for arow in a:
        row = [0] * width
        for t, c in enumerate(arow):
            if c:
                row = [x + c * y for x, y in zip(row, b[t])]
        out.append(row)
    return out


def reduction_key(mono):
    """Key whose minimum is the largest monomial in graded lex."""
    return (-mono_degree(mono), tuple((vi, -e) for vi, e in mono))


def plain_key(mono):
    return (mono_degree(mono), mono)


_RING_CACHE: dict = {}


def chow_ring(m: Matroid) -> "ChowRing":
    ring = _RING_CACHE.get(m)
    if ring is None:
        ring = ChowRing(m)
        _RING_CACHE[m] = ring
    return ring


class ChowRing:
    def __init__(self, m: Matroid):
        if m.flats[0]:
            raise ChowError(f"matroid has loops {flat_str(m.flats[0], m.n)}; "
                            "the Chow ring needs a loopless matroid")
        self.matroid = m
        self.r = m.r
        self.vars = m.nonempty_flats  # ascending (rank, canonical) order
        self.nvars = len(self.vars)
        self.var_index = {f: i for i, f in enumerate(self.vars)}
        self.vrank = tuple(m.rank_of[f] for f in self.vars)
        self.top_var = self.var_index[m.full]
        self.top_mono = ((self.top_var, m.r),) if m.r > 0 else UNIT
        # strict supersets per variable, in variable order
        self.above = tuple(
            tuple(j for j in range(self.nvars)
                  if j != i and self.vars[i] & self.vars[j] == self.vars[i])
            for i in range(self.nvars))
        # per variable, the bitmask of the variables whose flats are
        # comparable with its flat (itself included): x_F x_G = 0 unless G
        # is in F's mask (Feichtner-Yuzvinsky)
        self.comparable = tuple(
            sum(1 << j for j, g in enumerate(self.vars) if f & g in (f, g))
            for f in self.vars)
        self._fy_by_degree = None
        self._fy_index: dict = {}
        self._nf_cache: dict = {}
        self._var_perm: dict = {}
        self._fy_perm: dict = {}
        self._omega_powers: dict = {}
        self._omega_maps: dict = {}
        self._pairing: dict = {}

    # -- monomial helpers ---------------------------------------------------

    def monomial(self, flats_exps):
        """Build a monomial tuple from (flat mask, exponent) pairs."""
        pairs = []
        for f, e in flats_exps:
            vi = self.var_index.get(f)
            if vi is None:
                raise UnknownVariable(f"{sorted(members(f))} is not a nonempty flat")
            if e:
                pairs.append((vi, e))
        return tuple(sorted(pairs))

    def support(self, mono) -> int:
        """Bitmask of the variables of a monomial."""
        bits = 0
        for vi, _ in mono:
            bits |= 1 << vi
        return bits

    def comparable_with(self, mono) -> int:
        """Bitmask of the variables comparable with every variable of mono:
        a chain monomial times mono is a chain iff its support lies inside."""
        mask = -1
        for vi, _ in mono:
            mask &= self.comparable[vi]
        return mask

    def is_chain(self, mono) -> bool:
        for (a, _), (b, _) in zip(mono, mono[1:]):
            fa, fb = self.vars[a], self.vars[b]
            if fa & fb != fa:
                return False
        return True

    def violations(self, mono):
        """Indices j where the exponent meets or exceeds the rank gap."""
        out = []
        prev = 0
        for j, (vi, e) in enumerate(mono):
            if e >= self.vrank[vi] - prev:
                out.append(j)
            prev = self.vrank[vi]
        return out

    def mono_str(self, mono) -> str:
        if not mono:
            return "1"
        n = self.matroid.n
        bits = []
        for vi, e in mono:
            name = "x_E" if self.vars[vi] == self.matroid.full else \
                f"x_{flat_str(self.vars[vi], n)}"
            bits.append(name if e == 1 else f"{name}^{e}")
        return "*".join(bits)

    # -- FY bases -------------------------------------------------------------

    def _build_fy(self):
        if self._fy_by_degree is not None:
            return
        buckets = [[] for _ in range(self.r + 1)]
        buckets[0].append(UNIT)
        vrank, above = self.vrank, self.above

        def extend(prefix, last_vi, last_rank, deg):
            sup = above[last_vi] if last_vi >= 0 else range(self.nvars)
            for vi in sup:
                gap = vrank[vi] - last_rank
                top = min(gap - 1, self.r - deg)
                for e in range(1, top + 1):
                    mono = prefix + ((vi, e),)
                    buckets[deg + e].append(mono)
                    if deg + e < self.r:
                        extend(mono, vi, vrank[vi], deg + e)

        extend(UNIT, -1, 0, 0)
        self._fy_by_degree = tuple(tuple(b) for b in buckets)

    def fy_basis(self, k: int):
        if not 0 <= k <= self.r:
            raise DegreeOutOfRange(f"degree {k} outside 0..{self.r}")
        self._build_fy()
        return self._fy_by_degree[k]

    def fy_index(self, k: int) -> dict:
        """FY monomial of degree k -> its id, its position in fy_basis(k)."""
        got = self._fy_index.get(k)
        if got is None:
            got = {m: i for i, m in enumerate(self.fy_basis(k))}
            self._fy_index[k] = got
        return got

    def fy_all(self):
        self._build_fy()
        return self._fy_by_degree

    def hilbert_function(self) -> tuple[int, ...]:
        self._build_fy()
        return tuple(len(b) for b in self._fy_by_degree)

    # -- reduction engine -----------------------------------------------------

    def _expansion(self, mono, j):
        """Rewrite mono at flag position j; returns [(new_mono, multiplier)].

        Replaces x_{F'}^d inside mono (d = rank gap at j) by minus the
        non-pure terms of (sum_{G >= F'} x_G)^d, pruned to chains compatible
        with the rest of the monomial.
        """
        vi, e = mono[j]
        prev_rank = self.vrank[mono[j - 1][0]] if j else 0
        d = self.vrank[vi] - prev_rank
        if d <= 0:
            raise ChowError(f"rank gap {d} at {self.mono_str(mono)}: ranks "
                            "must increase along a chain")
        base = {v: x for v, x in mono}
        base[vi] -= d
        if not base[vi]:
            del base[vi]
        upper = self.comparable_with(mono[j + 1:])
        f_mask = self.vars[vi]
        cands = [vi] + [g for g in self.above[vi] if upper >> g & 1]
        # multichains of length d among candidates (nondecreasing by inclusion)
        out = []
        fact_d = factorial(d)

        def rec(start, last_mask, chosen, left):
            if not left:
                if len(chosen) == 1 and chosen[0][0] == vi and chosen[0][1] == d:
                    return  # the pure term cancels against mono itself
                exps = dict(base)
                coeff = fact_d
                for g, mult in chosen:
                    coeff //= factorial(mult)
                    exps[g] = exps.get(g, 0) + mult
                out.append((tuple(sorted(exps.items())), -coeff))
                return
            for idx in range(start, len(cands)):
                g = cands[idx]
                gm = self.vars[g]
                if last_mask & gm != last_mask:
                    continue
                for mult in range(1, left + 1):
                    rec(idx + 1, gm, chosen + [(g, mult)], left - mult)

        rec(0, f_mask, [], d)
        return out

    def normal_form_terms(self, terms):
        """Fully reduce an integer combination of monomials to FY support by
        the plain strategy: pop the least monomial in (degree, tuple) order
        and pivot at its highest violating flag position. This is the
        independent oracle for `nf_monomial`, which pivots at the lowest
        position; by confluence of the monic rewriting the two agree, and
        the agreement is checked by C6 and the tests."""
        work: dict = {}
        out: dict = {}
        heap: list = []
        count = 0

        def push(mono, c):
            nonlocal count
            if not c:
                return
            if mono in out:
                out[mono] += c
                if not out[mono]:
                    del out[mono]
                return
            if mono in work:
                work[mono] += c
                if not work[mono]:
                    del work[mono]
                return
            if not self.is_chain(mono):
                return
            if not self.violations(mono):
                out[mono] = out.get(mono, 0) + c
                if not out[mono]:
                    del out[mono]
                return
            work[mono] = c
            count += 1
            heapq.heappush(heap, (plain_key(mono), count, mono))

        for mono, c in terms.items():
            push(tuple(mono), c)
        while heap:
            _, _, mono = heapq.heappop(heap)
            c = work.pop(mono, 0)
            if not c:
                continue
            for child, mult in self._expansion(mono, self.violations(mono)[-1]):
                push(child, c * mult)
        return out

    def nf_monomial(self, mono):
        """Normal form of one monomial, as {fy_mono: coeff}: {} off the
        chains, {mono: 1} for an FY monomial, and otherwise the sum of
        mult * nf_monomial(child) over the expansion at the lowest violating
        flag position. Memoised per ring, so every intermediate monomial is
        reduced once; the dict is shared and must not be modified."""
        got = self._nf_cache.get(mono)
        if got is None:
            viol = self.violations(mono) if self.is_chain(mono) else None
            if viol is None:
                got = {}
            elif not viol:
                got = {mono: 1}
            else:
                acc: dict = {}
                for child, mult in self._expansion(mono, viol[0]):
                    for m2, c2 in self.nf_monomial(child).items():
                        acc[m2] = acc.get(m2, 0) + mult * c2
                got = {m2: c2 for m2, c2 in acc.items() if c2}
            self._nf_cache[mono] = got
        return got

    def normal_form(self, terms) -> dict:
        """Normal form of {monomial: coeff}, as {fy_mono: coeff}."""
        acc = {}
        for mono, c in terms.items():
            if c:
                for m2, c2 in self.nf_monomial(tuple(mono)).items():
                    acc[m2] = acc.get(m2, 0) + c * c2
        return {m: c for m, c in acc.items() if c}

    def deg_top(self, mono) -> int:
        """deg of a monomial of total degree r (0 unless it reduces to x_E^r)."""
        return self.nf_monomial(mono).get(self.top_mono, 0)

    # -- ring operations ------------------------------------------------------

    def multiply(self, a: dict, b: dict) -> dict:
        """Product of two normal forms {fy_mono: coeff}, in normal form."""
        acc = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                for m3, c3 in self.nf_monomial(mono_mul(m1, m2)).items():
                    acc[m3] = acc.get(m3, 0) + c1 * c2 * c3
        return {m: c for m, c in acc.items() if c}

    # -- Poincare pairing, Lefschetz, Hodge-Riemann ----------------------------

    def pairing_matrix(self, k: int):
        """P[a][b] = deg(a * b) for a in FY^k, b in FY^(r-k). A product is
        reduced only when every flat of b is comparable with every flat of
        a; otherwise it is zero. Memoised per degree; the matrix is shared
        and must not be modified."""
        got = self._pairing.get(k)
        if got is None:
            if not 0 <= k <= self.r:
                raise DegreeOutOfRange(str(k))
            rows = self.fy_basis(k)
            cols = self.fy_basis(self.r - k)
            if len(rows) != len(cols):
                raise NonSquare(f"a_{k}={len(rows)} != a_{self.r - k}={len(cols)}")
            col_bits = [self.support(b) for b in cols]
            got = []
            for a in rows:
                off = ~self.comparable_with(a)
                got.append([0 if bits & off else self.deg_top(mono_mul(a, b))
                            for b, bits in zip(cols, col_bits)])
            self._pairing[k] = got
        return got

    def omega_power(self, omega: dict, p: int) -> dict:
        """The normal form of omega^p, for omega given as its normal form
        {fy_mono: coeff}. Memoised per ring, keyed by omega's terms and p;
        the dict is shared and must not be modified."""
        key = (tuple(sorted(omega.items())), p)
        got = self._omega_powers.get(key)
        if got is None:
            if p == 0:
                got = {UNIT: 1}
            else:
                got = self.multiply(self.omega_power(omega, p - 1), omega)
            self._omega_powers[key] = got
        return got

    def mult_matrix(self, terms: dict, k: int):
        """Matrix (rows = target FY basis) of a |-> a * e on FY^k, for a
        homogeneous element e given as its terms {fy_mono: coeff}."""
        degs = {mono_degree(m) for m in terms}
        if len(degs) > 1:
            raise ChowError("inhomogeneous element")
        d = degs.pop() if degs else 0
        src = self.fy_basis(k)
        tgt = self.fy_index(k + d)
        factors = [(m, c, self.support(m)) for m, c in terms.items()]
        cols = []
        for a in src:
            col = [0] * len(tgt)
            off = ~self.comparable_with(a)
            for m, c, bits in factors:
                if not bits & off:
                    for m2, c2 in self.nf_monomial(mono_mul(a, m)).items():
                        col[tgt[m2]] += c * c2
            cols.append(col)
        return [list(row) for row in zip(*cols)]

    def omega_map(self, omega: dict, p: int, k: int):
        """Matrix (rows = FY^(k+p), columns = FY^k) of a |-> a * omega^p: the
        product of the degree-one maps mult_matrix(omega, j), j = k..k+p-1.
        Memoised per ring, keyed by omega's terms, p and k; the matrix is
        shared and must not be modified."""
        key = (tuple(sorted(omega.items())), p, k)
        got = self._omega_maps.get(key)
        if got is None:
            if p == 0:
                n = len(self.fy_basis(k))
                got = [[int(i == j) for j in range(n)] for i in range(n)]
            elif p == 1:
                got = self.mult_matrix(omega, k)
            else:
                got = _matmul(self.omega_map(omega, 1, k + p - 1),
                              self.omega_map(omega, p - 1, k))
            self._omega_maps[key] = got
        return got

    def hard_lefschetz_check(self, omega: dict, k: int) -> dict:
        if k > self.r / 2:
            raise DegreeOutOfRange(f"k={k} exceeds r/2")
        mat = self.omega_map(omega, self.r - 2 * k, k)
        a_k = len(self.fy_basis(k))
        from . import linalg
        rank = linalg.sparse_int_rank([{j: x for j, x in enumerate(row) if x}
                                       for row in mat])
        return {
            "check": "hard_lefschetz", "k": k, "power": self.r - 2 * k,
            "rank": rank, "expected": a_k, "passed": rank == a_k,
        }

    def orientation(self, omega: dict) -> int:
        """Sign of deg(omega^r). The degree map here is normalized by
        x_E^r -> 1, which is (-1)^r times the flag-count normalization; the
        quadratic forms below are oriented so that definiteness matches the
        geometric statement regardless of the parity of r."""
        top = self.omega_map(omega, self.r, 0)[0][0]  # FY^r = {x_E^r}
        if top == 0:
            raise ChowError("omega^r has degree zero; not a Lefschetz element")
        return 1 if top > 0 else -1

    def _qform(self, omega, k):
        """Q[a][b] = sign * deg(a * b * omega^(r-2k)) on FY^k, built as
        sign * P M: P is the degree-k Poincare pairing and M is
        multiplication by omega^(r-2k) from FY^k to FY^(r-k), so
        Q[a][b] = sign * sum_m deg(a * m) M[m][b]."""
        sign = (-1 if k % 2 else 1) * self.orientation(omega)
        return _matmul([[sign * p for p in row] for row in self.pairing_matrix(k)],
                       self.omega_map(omega, self.r - 2 * k, k))

    def hodge_riemann_check(self, omega: dict, k: int) -> dict:
        if k > self.r / 2:
            raise DegreeOutOfRange(f"k={k} exceeds r/2")
        from . import linalg
        a_k = len(self.fy_basis(k))
        qmat = self._qform(omega, k)
        if k == 0:
            kernel = [[1]] if a_k else []
        else:
            kernel = linalg.int_kernel(self.omega_map(omega, self.r - 2 * k + 1, k),
                                       a_k)
        dim = len(kernel)
        # restricted = K Q K^T, entry (i, j) = v_i . Q v_j; Q is symmetric
        # and often sparse (it is +-P when r = 2k)
        qrows = [[(b, q) for b, q in enumerate(row) if q] for row in qmat]
        qk = [[sum([q * v[b] for b, q in qrow]) for qrow in qrows]
              for v in kernel]
        restricted = [[0] * dim for _ in range(dim)]
        for i, u in enumerate(kernel):
            for j in range(i, dim):
                restricted[i][j] = restricted[j][i] = sum(map(mul, u, qk[j]))
        ok, bad = linalg.int_positive_definite(restricted)
        return {
            "check": "hodge_riemann", "k": k, "primitive_dim": dim,
            "passed": ok, "failing_minor": bad,
        }

    # -- independent dimension oracle ------------------------------------------

    def chain_monomials(self, k: int):
        """All degree-k monomials on chains of nonempty flats (no exponent
        bounds) -- the monomial basis of (S/I)_k."""
        if k == 0:
            return (UNIT,)
        out = []

        def extend(prefix, last_vi, deg):
            sup = self.above[last_vi] if last_vi >= 0 else range(self.nvars)
            for vi in sup:
                for e in range(1, k - deg + 1):
                    mono = prefix + ((vi, e),)
                    if deg + e == k:
                        out.append(mono)
                    else:
                        extend(mono, vi, deg + e)

        extend(UNIT, -1, 0)
        return tuple(out)

    def dimension_oracle(self, k: int) -> int:
        """dim_Q of the degree-k slice of S/(I+J), by spanning the slice of
        the ideal with monomial multiples of its generators and row-reducing.
        Independent of the reduction engine."""
        if k == 0:
            return 1
        if k > self.r and k > sum(self.vrank[vi] - 1 for vi in range(self.nvars)):
            return 0
        cols = sorted(self.chain_monomials(k), key=reduction_key)
        col_id = {m: i for i, m in enumerate(cols)}
        # per atom, the bitmask of the variables whose flats contain it
        atoms = [sum(1 << g for g in (vi, *self.above[vi]))
                 for vi in range(self.nvars) if self.vrank[vi] == 1]
        atom_rows = []
        for m in self.chain_monomials(k - 1):
            # the column of the chain m * x_g, for each g comparable with m
            comparable = self.comparable_with(m)
            col = {g: col_id[mono_mul(m, ((g, 1),))]
                   for g in range(self.nvars) if comparable >> g & 1}
            for above in atoms:
                row = {c: 1 for g, c in col.items() if above >> g & 1}
                if row:
                    atom_rows.append(row)
        from . import linalg
        rank = linalg.sparse_int_rank(atom_rows)
        return len(cols) - rank

    # -- group action -----------------------------------------------------------

    def var_perm(self, g) -> tuple[int, ...]:
        got = self._var_perm.get(g)
        if got is None:
            from .perm import perm_mask
            images = []
            for f in self.vars:
                img = perm_mask(g, f)
                vi = self.var_index.get(img)
                if vi is None:
                    raise NotAnFYMonomial(
                        f"{g} does not preserve the flats (image of "
                        f"{sorted(members(f))} is not a flat)")
                images.append(vi)
            got = tuple(images)
            self._var_perm[g] = got
        return got

    def act(self, g, mono):
        # ranks are preserved and strictly increase along a flag, so the
        # relabeled pairs are already in flag order
        vp = self.var_perm(g)
        return tuple((vp[vi], e) for vi, e in mono)

    def fy_perm(self, g, k: int) -> tuple[int, ...]:
        """The permutation g induces on the ids of FY^k: entry i is the id of
        g . fy_basis(k)[i]. Raises NotAnFYMonomial unless g permutes FY^k."""
        got = self._fy_perm.get((g, k))
        if got is None:
            index = self.fy_index(k)
            got = tuple([index.get(self.act(g, m), -1) for m in self.fy_basis(k)])
            if -1 in got or len(set(got)) != len(got):
                raise NotAnFYMonomial(f"{g} does not permute the FY monomials "
                                      f"of degree {k}")
            self._fy_perm[(g, k)] = got
        return got


def default_coefficient_rule(n: int):
    full = (1 << n) - 1

    def rule(mask: int) -> int:
        return mask.bit_count() * (full & ~mask).bit_count()

    return rule


def submodularity_witness(vals) -> tuple[int, int] | None:
    """The first pair of subset masks (A, B) at which the values vals[mask]
    of a coefficient rule break strict submodularity over incomparable pairs
    (nested pairs give equality identically): (0, E) when they do not vanish
    at the empty set and the full set E, None when they pass."""
    full = len(vals) - 1
    if vals[0] != 0 or vals[full] != 0:
        return 0, full
    # Strictness on every incomparable pair (A, B) is equivalent to the
    # diamond inequalities f(C+i) + f(C+j) > f(C) + f(C+i+j): those are the
    # pairs with |A - B| = |B - A| = 1, and summing them over the grid
    # between A & B and A | B gives any other pair. The pair scan below runs
    # only once a diamond fails, to name the first failing pair.
    bits = [1 << i for i in range(full.bit_length())]
    if all(vals[c | i] + vals[c | j] > vals[c] + vals[c | i | j]
           for c in range(full + 1)
           for x, i in enumerate(bits) if not c & i
           for j in bits[x + 1:] if not c & j):
        return None
    for a in range(full + 1):
        for b in range(a + 1, full + 1):
            if a & b == a or a & b == b:
                continue
            if vals[a] + vals[b] <= vals[a & b] + vals[a | b]:
                return a, b
    return None


def lefschetz_omega(ring: ChowRing, group, coefficient_rule=None) -> dict:
    """The degree-1 class sum_F rule(F) x_F of a strictly submodular,
    group-fixed coefficient rule on subsets (the default rule when None), as
    its normal form {fy_mono: coeff}. Raises NotSubmodular or NotGroupFixed
    with a witness."""
    from .perm import perm_mask
    n = ring.matroid.n
    rule = coefficient_rule or default_coefficient_rule(n)
    vals = [rule(s) for s in range(1 << n)]
    witness = submodularity_witness(vals)
    if witness is not None:
        raise NotSubmodular(*witness)
    for g in group.gens:
        for f in ring.vars:
            if vals[perm_mask(g, f)] != vals[f]:
                raise NotGroupFixed(g, f)
    return ring.normal_form({((ring.var_index[f], 1),): vals[f]
                             for f in ring.vars if vals[f]})
