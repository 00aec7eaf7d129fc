"""Class functions, character tables, genuineness, Toeplitz minors, gamma.

Two table backends:
  * full symmetric groups: integer tables from the Murnaghan-Nakayama
    rim-hook rule, irreducibles indexed by partitions in ascending lex order;
  * anything else: Dixon's method -- simultaneous eigenvectors of the
    class-sum matrices over GF(p) with p = 1 mod exponent(G), lifted to exact
    cyclotomic-integer values via discrete Fourier inversion on power maps.
    p is about 4|G|, so the eigenvalues are found by evaluating the
    characteristic polynomial at every element of GF(p); that costs about as
    much as the class multiplication coefficients. The characteristic
    polynomial comes from Faddeev-LeVerrier mod p (p exceeds the number of
    classes, so the traces can be divided by 1..m). The power maps are read
    off by walking g, g^2, ... once for each class representative g, only
    when Dixon's method runs.

All arithmetic is on integers and cyclotomic integers: an inner product is
an exact integer quotient, and a class function whose inner product with an
irreducible leaves a remainder is not a virtual character. Sturm sequences
use sign-preserving integer pseudo-remainders. Every table is audited
against both orthogonality relations before use.

A Toeplitz minor of permutation characters is taken class by class: the
class-function ring multiplies pointwise, so its value on a class is the
integer determinant of the entries' values there, from `linalg.bareiss_det`.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

from .perm import PermGroup, compose, cycle_type, identity, inverse


class CharacterError(Exception):
    pass


class TableFailure(CharacterError):
    pass


class NotVirtual(CharacterError):
    pass


class NotSymmetric(CharacterError):
    pass


class NonPositiveEntry(CharacterError):
    pass


# -- cyclotomic integers -----------------------------------------------------

def _poly_divmod(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[len(den) - 1 + i]
        if c:
            assert c % den[-1] == 0
            q = c // den[-1]
            out[i] = q
            for j, d in enumerate(den):
                num[i + j] -= q * d
    return out, num[:len(den) - 1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the e-th cyclotomic polynomial."""
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            q, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem)
            poly = q
    return tuple(poly)


class Cyc:
    """Element of Z[zeta_e], reduced mod the e-th cyclotomic polynomial."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e, coeffs):
        phi = cyclotomic_polynomial(e)
        deg = len(phi) - 1
        work = list(coeffs) + [0] * max(0, deg - len(coeffs))
        for i in range(len(work) - 1, deg - 1, -1):
            c = work[i]
            if c:
                for j in range(deg + 1):
                    work[i - deg + j] -= c * phi[j]
                work[i] = 0
        self.e = e
        self.coeffs = tuple(work[:deg])

    def __add__(self, other):
        other = self._lift(other)
        return Cyc(self.e, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyc(self.e, [a * other for a in self.coeffs])
        other = self._lift(other)
        out = [0] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Cyc(self.e, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational() and self.coeffs[0] == other
        return isinstance(other, Cyc) and self.e == other.e and self.coeffs == other.coeffs

    def _lift(self, other):
        if isinstance(other, int):
            return Cyc(self.e, [other])
        if isinstance(other, Cyc):
            if other.e != self.e:
                raise CharacterError("mixed cyclotomic orders")
            return other
        raise TypeError(type(other))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational(self):
        if not self.is_rational():
            raise CharacterError(f"not rational: {self!r}")
        return self.coeffs[0]

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        bits = []
        for i, c in enumerate(self.coeffs):
            if c:
                term = f"z{self.e}^{i}" if i else "1"
                bits.append(f"{c}*{term}" if i else str(c))
        return "(" + " + ".join(bits) + ")"


def as_rational(v):
    return v.rational() if isinstance(v, Cyc) else v


# -- class data and class functions -------------------------------------------

class ClassData:
    __slots__ = ("group", "reps", "sizes", "inverse_map")

    def __init__(self, group: PermGroup, reps: tuple, sizes: tuple[int, ...],
                 inverse_map: tuple[int, ...]):
        self.group = group
        self.reps = reps  # class representatives
        self.sizes = sizes
        self.inverse_map = inverse_map  # index of the class of g^-1


def class_data(group: PermGroup) -> ClassData:
    """Classes with minimal, sorted representatives: the identity is class 0."""
    classes = group.conjugacy_classes()
    reps = tuple(c[0] for c in classes)
    sizes = tuple(len(c[1]) for c in classes)
    index = group.class_index_of()
    inv = tuple(index[inverse(g)] for g in reps)
    return ClassData(group, reps, sizes, inv)


class ClassFunction:
    """Exact-valued function on the conjugacy classes of a fixed group."""

    __slots__ = ("data", "values")

    def __init__(self, data: ClassData, values):
        self.data = data
        self.values = tuple(values)

    def _same(self, other):
        if self.data.group is not other.data.group:
            raise CharacterError("class functions over different groups")

    def __add__(self, other):
        if isinstance(other, int):
            return ClassFunction(self.data, [v + other for v in self.values])
        self._same(other)
        return ClassFunction(self.data, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._same(other)
        return ClassFunction(self.data, [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other):
        if isinstance(other, int):
            return ClassFunction(self.data, [v * other for v in self.values])
        self._same(other)
        return ClassFunction(self.data, [a * b for a, b in zip(self.values, other.values)])

    __rmul__ = __mul__

    def __neg__(self):
        return ClassFunction(self.data, [-v for v in self.values])

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and self.data.group is other.data.group
                and self.values == other.values)

    def __bool__(self):
        return any(v != 0 for v in self.values)

    def degree(self):
        return as_rational(self.values[0])

    def at_inverse(self, i: int):
        return self.values[self.data.inverse_map[i]]

    def inner(self, other):
        """The inner product <self, other>, an integer; NotVirtual if it is
        not one."""
        self._same(other)
        total = 0
        for i, size in enumerate(self.data.sizes):
            total = total + size * (self.values[i] * other.at_inverse(i))
        if isinstance(total, Cyc):
            total = total.rational()
        order = self.data.group.order
        q, rem = divmod(total, order)
        if rem:
            raise NotVirtual(f"<{self!r}, {other!r}> = {total}/{order}")
        return q

    def __repr__(self):
        return f"ClassFunction{self.values}"


def perm_character(data: ClassData, elements, act) -> ClassFunction:
    """Fixed-point counts of an action on each class representative."""
    vals = []
    for g in data.reps:
        vals.append(sum(1 for x in elements if act(g, x) == x))
    return ClassFunction(data, vals)


# -- Murnaghan-Nakayama backend ------------------------------------------------

@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n, ascending lex: (1,...,1) first, (n) last."""
    def gen(total, maxpart):
        if total == 0:
            yield ()
            return
        for first in range(min(total, maxpart), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest
    return tuple(sorted(gen(n, n)))


@lru_cache(maxsize=None)
def mn_character_value(lam: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama via the bead (first-column hook) encoding."""
    if not mu:
        return 1 if not lam else 0
    t = mu[0]
    rows = len(lam) + t
    beads = [lam[i] + (rows - 1 - i) if i < len(lam) else (rows - 1 - i)
             for i in range(rows)]
    bead_set = set(beads)
    total = 0
    for b in beads:
        if b >= t and (b - t) not in bead_set:
            jumped = sum(1 for c in beads if b - t < c < b)
            new_beads = sorted((bead_set - {b}) | {b - t}, reverse=True)
            new_lam = tuple(part for i, v in enumerate(new_beads)
                            if (part := v - (rows - 1 - i)) > 0)
            total += (-1) ** jumped * mn_character_value(new_lam, mu[1:])
    return total


def _symmetric_table(group: PermGroup, data: ClassData):
    n = group.n
    labels = partitions(n)
    types = [cycle_type(g) for g in data.reps]
    irreducibles = []
    for lam in labels:
        vals = [mn_character_value(lam, mu) for mu in types]
        irreducibles.append(ClassFunction(data, vals))
    return irreducibles, labels


# -- Dixon backend --------------------------------------------------------------

def _find_prime(e: int, lower: int) -> int:
    """Smallest prime p > lower with p = 1 (mod e)."""
    p = lower + 1
    while (p - 1) % e:
        p += 1
    while not _is_prime(p):
        p += e
    return p


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, isqrt(p) + 1):
        if p % q == 0:
            return False
    return True


def _nullspace_mod(mat, p):
    n = len(mat)
    m = [row[:] for row in mat]
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, n):
            if m[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], p - 2, p)
        m[row] = [(x * inv) % p for x in m[row]]
        for i in range(n):
            if i != row and m[i][col] % p:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[row])]
        pivots.append((row, col))
        row += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [0] * ncols
        v[free] = 1
        for prow, pcol in pivots:
            v[pcol] = (-m[prow][free]) % p
        basis.append(v)
    return basis


def _horner(poly, x, p):
    """poly (coefficients from the constant term up) evaluated at x mod p."""
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _dixon_table(group: PermGroup, data: ClassData):
    m = len(data.reps)
    index = group.class_index_of()
    # class multiplication coefficients a[i][j][k]: C_i C_j = sum a^k C_k
    classes = [sorted(c[1]) for c in group.conjugacy_classes()]
    a = [[[0] * m for _ in range(m)] for _ in range(m)]
    for k, gk in enumerate(data.reps):
        for i in range(m):
            for u in classes[i]:
                j = index[compose(inverse(u), gk)]
                a[i][j][k] += 1
    # power maps: powers[i][t] is the class of g_i^t, for t below the order
    ident = identity(group.n)
    powers = []
    for g in data.reps:
        walk, h = [], ident
        while True:
            walk.append(index[h])
            h = compose(h, g)
            if h == ident:
                break
        powers.append(walk)
    e = lcm(*map(len, powers))
    p = _find_prime(e, 4 * group.order + 1)
    # row j, column k: omega_i omega_j = sum_k a[i][j][k] omega_k
    mats = []
    for i in range(m):
        mats.append([[a[i][j][k] % p for k in range(m)] for j in range(m)])
    # common eigenvectors over GF(p) via random combinations (deterministic seed)
    rng = random.Random(11)
    for attempt in range(40):
        coeffs = [rng.randrange(p) for _ in range(m)]
        t = [[sum(coeffs[i] * mats[i][r][c] for i in range(m)) % p
              for c in range(m)] for r in range(m)]
        charpoly = _charpoly_mod(t, p)
        roots = [x for x in range(p) if _horner(charpoly, x, p) == 0]
        spaces = []
        ok = True
        for lam in roots:
            shifted = [row[:] for row in t]
            for d in range(m):
                shifted[d][d] = (shifted[d][d] - lam) % p
            null = _nullspace_mod(shifted, p)
            if len(null) != 1:
                ok = False
                break
            spaces.append(null[0])
        if ok and len(spaces) == m:
            break
    else:
        raise TableFailure("no splitting combination found")

    z = _find_element_of_order(e, p)
    irreducibles = []
    for v in spaces:
        # eigenvalues omega_i = |C_i| chi(g_i) / chi(1)
        omegas = []
        pivot = next(c for c in range(m) if v[c] % p)
        for i in range(m):
            tv = sum(mats[i][pivot][c] * v[c] for c in range(m)) % p
            omegas.append(tv * pow(v[pivot], p - 2, p) % p)
        s = 0
        for i in range(m):
            s = (s + omegas[i] * omegas[data.inverse_map[i]]
                 * pow(data.sizes[i], p - 2, p)) % p
        d2 = group.order * pow(s, p - 2, p) % p
        d = isqrt(d2)
        if d * d != d2:
            raise TableFailure("degree recovery failed")
        chi_mod = [d * omegas[i] % p * pow(data.sizes[i], p - 2, p) % p
                   for i in range(m)]
        values = []
        for i in range(m):
            o = len(powers[i])
            zo = pow(z, e // o, p)
            mults = []
            inv_o = pow(o, p - 2, p)
            for j in range(o):
                s = 0
                for t_exp in range(o):
                    chi_t = chi_mod[powers[i][t_exp]]
                    s = (s + chi_t * pow(zo, (-j * t_exp) % o, p)) % p
                mults.append(s * inv_o % p)
            coeffs = [0] * e
            for j, cnt in enumerate(mults):
                if cnt > p // 2:
                    raise TableFailure("multiplicity lift out of range")
                coeffs[j * (e // o) % e] += cnt
            val = Cyc(e, coeffs)
            values.append(val.rational() if val.is_rational() else val)
        irreducibles.append(ClassFunction(data, values))
    irreducibles.sort(key=lambda chi: (chi.degree(), _values_key(chi.values)))
    return irreducibles, tuple(f"chi{i}" for i in range(m))


def _values_key(values):
    out = []
    for v in values:
        if isinstance(v, Cyc):
            out.append(tuple(-c for c in v.coeffs))
        else:
            out.append((-v,))
    return tuple(out)


def _charpoly_mod(mat, p):
    """Characteristic polynomial det(xI - A) mod p, constant term first, by
    Faddeev-LeVerrier: M_k = A M_(k-1) + c_(n-k+1) I and
    c_(n-k) = -tr(A M_k) / k, which needs p > n."""
    n = len(mat)
    poly = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        c = poly[n - k + 1]
        m = [[(sum(x * y for x, y in zip(row, col)) + (c if i == j else 0)) % p
              for j, col in enumerate(cols)] for i, row in enumerate(mat)]
        trace = sum(mat[i][j] * m[j][i] for i in range(n) for j in range(n))
        poly[n - k] = -trace * pow(k, p - 2, p) % p
    return poly


def _find_element_of_order(e: int, p: int) -> int:
    """An element of order exactly e in GF(p)*, for e dividing p - 1."""
    for g in range(2, p):
        z = pow(g, (p - 1) // e, p)
        if all(pow(z, d, p) != 1 for d in range(1, e) if e % d == 0):
            return z
    raise TableFailure(f"no element of order {e} mod {p}")


# -- tables ---------------------------------------------------------------------

class CharacterTable:
    def __init__(self, group: PermGroup, data: ClassData, irreducibles, labels):
        self.group = group
        self.data = data
        self.irreducibles = tuple(irreducibles)
        self.labels = tuple(labels)
        self._audit()

    def _audit(self):
        ms = self.irreducibles
        if len(ms) != len(self.data.reps):
            raise TableFailure("wrong number of irreducibles")
        for i, chi in enumerate(ms):
            for j, psi in enumerate(ms):
                try:
                    got = chi.inner(psi)
                except NotVirtual as exc:
                    raise TableFailure(f"orthogonality fails at ({i},{j}): "
                                       f"{exc}") from exc
                if got != (1 if i == j else 0):
                    raise TableFailure(f"orthogonality fails at ({i},{j}): {got}")
        if sum(as_rational(chi.degree()) ** 2 for chi in ms) != self.group.order:
            raise TableFailure("degree sum of squares != |G|")

    def decompose(self, chi: ClassFunction):
        """Multiplicities of chi in the irreducible basis; NotVirtual if any
        inner product is non-integral."""
        return tuple(chi.inner(irr) for irr in self.irreducibles)


_TABLE_CACHE: dict = {}


def table_backend(group: PermGroup) -> str:
    """The backend that character_table uses for the group."""
    return "murnaghan-nakayama" if group.is_full_symmetric() else "dixon"


def character_table(group: PermGroup) -> CharacterTable:
    got = _TABLE_CACHE.get(group)
    if got is None:
        data = class_data(group)
        build = (_symmetric_table if table_backend(group) == "murnaghan-nakayama"
                 else _dixon_table)
        irr, labels = build(group, data)
        got = CharacterTable(group, data, irr, labels)
        _TABLE_CACHE[group] = got
    return got


def is_genuine(chi: ClassFunction, table: CharacterTable):
    """(genuine?, multiplicities)."""
    mults = table.decompose(chi)
    return all(m >= 0 for m in mults), mults


def character_sequence(ring, group: PermGroup):
    """The character table of the group and the permutation characters of
    the graded pieces FY^0, ..., FY^r, as fixed FY ids."""
    table = character_table(group)
    data = table.data
    return table, [perm_character(data, range(a_k),
                                  lambda g, i, k=k: ring.fy_perm(g, k)[i])
                   for k, a_k in enumerate(ring.hilbert_function())]


# -- Toeplitz and Koszul minors ---------------------------------------------------

def toeplitz_minor(seq, rows, cols):
    """det of the submatrix T[rows, cols] of the Toeplitz matrix T[r][c] =
    seq[c - r] (entries outside 0..len(seq)-1 are zero; seq[0] plays A^0).
    The entries are integer-valued class functions over one group, such as
    permutation characters; the minor's value on each class is the
    determinant of their values there."""
    from .linalg import bareiss_det
    if not rows:
        raise CharacterError("empty minor")
    band = [[c - r if 0 <= c - r < len(seq) else None for c in cols]
            for r in rows]
    dets = [bareiss_det([[0 if k is None else seq[k].values[i] for k in row]
                         for row in band])
            for i in range(len(seq[0].values))]
    return ClassFunction(seq[0].data, dets)


def koszul_minor(seq, alpha):
    """The l x l Toeplitz minor attached to a composition: rows at partial
    sums s_0..s_{l-1}, columns at s_1..s_l."""
    sums = [0]
    for part in alpha:
        if part < 1:
            raise CharacterError("composition parts must be positive")
        sums.append(sums[-1] + part)
    return toeplitz_minor(seq, sums[:-1], sums[1:])


# -- gamma expansion -----------------------------------------------------------

def gamma_expansion(seq):
    """Coefficients gamma_0..gamma_(r//2) of the expansion of a symmetric
    sequence over the basis t^i (1+t)^(r-2i); works over any coefficient
    ring with subtraction and integer scalars."""
    r = len(seq) - 1
    for i in range(r + 1):
        if seq[i] - seq[r - i]:
            raise NotSymmetric(f"c_{i} != c_{r - i}")
    remainder = list(seq)
    gammas = []
    for i in range(r // 2 + 1):
        g = remainder[i]
        gammas.append(g)
        for j in range(r - 2 * i + 1):
            remainder[i + j] = remainder[i + j] - comb(r - 2 * i, j) * g
    if any(bool(x) for x in remainder):
        raise NotSymmetric("expansion left a nonzero remainder")
    return gammas


def gamma_reexpand(gammas, r):
    """Inverse of gamma_expansion (for round-trip audits)."""
    out = [0 * gammas[0] for _ in range(r + 1)]
    for i, g in enumerate(gammas):
        for j in range(r - 2 * i + 1):
            out[i + j] = out[i + j] + comb(r - 2 * i, j) * g
    return out


# -- numeric PF checks -----------------------------------------------------------

def pf2_numeric(seq):
    """All 2x2 Toeplitz minors: a_j a_k - a_i a_l >= 0."""
    r = len(seq) - 1
    for i in range(r + 1):
        for j in range(i, r + 1):
            for k in range(j, r + 1):
                l = j + k - i
                if k <= l <= r and seq[j] * seq[k] < seq[i] * seq[l]:
                    return False, (i, j, k, l)
    return True, None


def window_minors(seq, level):
    """Determinants of the Toeplitz windows [seq[delta + j - i]] with
    consecutive rows and columns (a sufficient evidence battery, not a
    complete certificate): out[delta][s - 1] is the s x s one, for
    0 <= delta <= r and s = 1..level. Outside that range the window's first
    column (delta < 0) or first row (delta > r) is zero, so it has
    determinant 0.

    The s x s window at delta is the leading block of the level x level one,
    so one fraction-free elimination without pivoting gives every size: its
    k-th pivot is the k x k leading minor d_k. The window is banded, nonzero
    only for -delta <= j - i <= r - delta. After k steps, a row whose band
    misses the first k columns, or a column whose band misses the first k
    rows, still holds its original entries times d_k (Sylvester's
    identity), so only the (delta + 1) x (r - delta + 1) block at the next
    pivot is kept. After a zero pivot the larger sizes come from
    `bareiss_det`."""
    r = len(seq) - 1
    out = []
    for delta in range(r + 1):
        q = r - delta  # the band's width above the diagonal
        # block[a][b] is entry (k + a, k + b) after k steps
        block = [[seq[delta + b - a] for b in range(q + 1)]
                 for a in range(delta + 1)]
        dets = []
        prev = 1
        for k in range(level):
            pivot = block[0][0]
            dets.append(pivot)
            if not pivot:
                from .linalg import bareiss_det
                window = [[seq[delta + j - i] if 0 <= delta + j - i <= r else 0
                           for j in range(level)] for i in range(level)]
                dets += [bareiss_det([row[:s] for row in window[:s]])
                         for s in range(k + 2, level + 1)]
                break
            top = block[0]
            # rows k+1..k+delta, with column k+1+q entering the band; then
            # row k+1+delta entering it
            block = [[(row[b] * pivot - row[0] * top[b]) // prev
                      for b in range(1, q + 1)] + [seq[r - a] * pivot]
                     for a, row in enumerate(block[1:])]
            block.append([seq[b] * pivot for b in range(q + 1)])
            prev = pivot
        out.append(dets)
    return out


def sturm_real_rooted(seq) -> bool:
    """True iff sum seq[i] t^i (integer coefficients) has only real roots.

    The Sturm chain of p and p' ends at a multiple of gcd(p, p'), so it
    counts the distinct real roots, and p has deg p - deg gcd distinct roots
    in all. The chain is kept integral: each remainder is a positive multiple
    of the true one, divided by its content."""
    poly = list(seq)
    while poly and poly[-1] == 0:
        poly.pop()
    if len(poly) <= 1:
        return True
    chain = [poly, [i * c for i, c in enumerate(poly)][1:]]
    while True:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        content = gcd(*rem)
        chain.append([-c // content for c in rem])

    def variations(signs):
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = [1 if f[-1] > 0 else -1 for f in chain]
    neg = [s if len(f) % 2 else -s for s, f in zip(pos, chain)]
    return variations(neg) - variations(pos) == len(poly) - len(chain[-1])


def _pseudo_rem(a, b):
    """|lc(b)|^k * a mod b for some k >= 0, trailing zeros stripped."""
    scale, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(a) >= len(b):
        f = sign * a[-1]
        shift = len(a) - len(b)
        a = [scale * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def numeric_pf_check(seq, level) -> dict:
    """PF battery on a positive integer sequence. level 2 and 'inf' are
    complete certificates; intermediate levels are consecutive-window
    evidence only."""
    if any(c <= 0 for c in seq):
        raise NonPositiveEntry(str(seq))
    if level == 2:
        ok, witness = pf2_numeric(seq)
        return {"check": "numeric_pf", "level": 2, "mode": "certificate",
                "passed": ok, "witness": witness}
    if level == "inf":
        ok = sturm_real_rooted(seq)
        return {"check": "numeric_pf", "level": "inf", "mode": "certificate",
                "passed": ok, "witness": None}
    dets = window_minors(seq, level)
    bad = [(size, delta, row[size - 1]) for size in range(2, level + 1)
           for delta, row in enumerate(dets) if row[size - 1] < 0]
    return {"check": "numeric_pf", "level": level, "mode": "evidence",
            "passed": not bad, "witness": bad or None}
