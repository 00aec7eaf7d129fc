"""Exact linear algebra over the integers, with rational test oracles.

The program's checks use the fraction-free routines: `int_kernel` (kernels
only), `bareiss_det`, `int_positive_definite` and `sparse_int_rank` (every
rank: hard Lefschetz and the dimension oracle).
`int_kernel` and `bareiss_det` read their answers off one Bareiss
elimination, `_bareiss`: Gauss-Jordan for the kernel, forward only for the
determinant, which is also every exact dense determinant the characters
layer needs (Toeplitz minors, class by class).
`int_positive_definite` keeps its own elimination, since it needs the
leading principal minors in diagonal order. `frac_rank`, `frac_kernel` and
`symmetric_positive_definite` compute the same things over Q with
`Fraction` and serve as oracles in the tests; each imports `fractions`
itself, so the integer routines never load it. Dense routines take lists of
lists, and their pivots prefer small entries (minimal bit length) so
intermediate swell stays bounded at desk scale. The sparse rank routine
takes rows as {column: int} dicts and picks its pivots to keep fill-in low.
"""

from __future__ import annotations

from math import gcd


def _pivot_key(value):
    v = value if isinstance(value, int) else abs(value.numerator) + abs(value.denominator)
    return abs(v).bit_length()


def frac_rank(rows) -> int:
    """Rank over Q; destroys nothing (copies input)."""
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        best = None
        for i in range(row, len(m)):
            if m[i][col]:
                k = _pivot_key(m[i][col])
                if best is None or k < best:
                    best, pivot = k, i
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for i in range(row + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / pv
                ri, rp = m[i], m[row]
                for j in range(col, ncols):
                    ri[j] -= f * rp[j]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def frac_kernel(rows, ncols) -> list[list]:
    """Basis of {v : M v = 0} over Q, integer-cleared vectors of Fractions."""
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []  # (row, col)
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append((row, col))
        row += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for prow, pcol in pivots:
            v[pcol] = -m[prow][free]
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        basis.append([x * denom for x in v])
    return basis


def _bareiss(rows, ncols, upward=True):
    """Bareiss elimination on an integer matrix: Gauss-Jordan, or forward
    only when upward is False.

    Each step takes as pivot the entry of fewest bits in the next column,
    swaps its row to the top of the unreduced rows, and replaces every row
    below it, and with upward every row above it too, by (pivot * row -
    entry * pivot row) // previous pivot, an exact division whose quotients
    are minors of M (Bareiss 1968). Returns the reduced rows, the pivot
    columns, the last pivot d and the sign of the row permutation. d is the
    minor of the row-permuted M on its first rank rows and the pivot
    columns, so for a square M of full rank, det M = sign * d; with upward,
    every pivot row holds d at its pivot column.
    """
    m = [list(row) for row in rows]
    pivot_cols = []
    prev = 1
    sign = 1
    for col in range(ncols):
        top = len(pivot_cols)
        if top == len(m):
            break
        rows_here = [i for i in range(top, len(m)) if m[i][col]]
        if not rows_here:
            continue
        pick = min(rows_here, key=lambda i: abs(m[i][col]).bit_length())
        if pick != top:
            m[top], m[pick] = m[pick], m[top]
            sign = -sign
        prow = m[top]
        pv = prow[col]
        # below the pivot row, the entries left of col are already zero
        lo = 0 if upward else col
        tail = prow[lo:]
        for i in range(0 if upward else top + 1, len(m)):
            if i == top:
                continue
            ri = m[i]
            f = ri[col]
            if f:
                ri[lo:] = [(pv * x - f * y) // prev for x, y in zip(ri[lo:], tail)]
            elif pv != prev:
                ri[lo:] = [pv * x // prev for x in ri[lo:]]
        pivot_cols.append(col)
        prev = pv
    return m, pivot_cols, prev, sign


def int_kernel(rows, ncols) -> list[list[int]]:
    """Basis of {v : M v = 0} over Q for an integer matrix, fraction-free.

    From `_bareiss`: the vector for a free column f is (d at f, -row entries
    at the pivot columns), made primitive with a positive entry at f: the
    same vector, in the same order, as `frac_kernel`, whatever pivot rows
    are chosen.
    """
    m, pivot_cols, d, _ = _bareiss(rows, ncols)
    pivot_set = set(pivot_cols)
    sign = 1 if d > 0 else -1
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = d
        for prow, pcol in enumerate(pivot_cols):
            v[pcol] = -m[prow][free]
        g = gcd(*v) * sign
        basis.append([x // g for x in v])
    return basis


def bareiss_det(matrix) -> int:
    """Exact determinant of a square integer matrix (a list of rows): the
    sign of the row permutation of a forward `_bareiss` times its last
    pivot, or 0 when a column has no pivot."""
    n = len(matrix)
    _, pivot_cols, d, sign = _bareiss(matrix, n, upward=False)
    return sign * d if len(pivot_cols) == n else 0


def symmetric_positive_definite(matrix) -> tuple[bool, int | None]:
    """Exact positive-definiteness certificate for a symmetric rational matrix:
    all leading principal minors positive (Bareiss sequence, no pivoting).
    Returns (is_pd, index of first failing minor or None)."""
    from fractions import Fraction
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    prev = Fraction(1)
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False, k
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) / prev
        prev = pivot
    return True, None


def int_positive_definite(matrix) -> tuple[bool, int | None]:
    """`symmetric_positive_definite` for an integer matrix: the same Bareiss
    sequence of leading principal minors, with exact integer division.
    Returns (is_pd, index of first failing minor or None)."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False, k
        # the trailing block stays symmetric: update its upper triangle only
        rk = m[k]
        for i in range(k + 1, n):
            ri = m[i]
            f = rk[i]
            ri[i:] = [(x * pivot - f * y) // prev
                      for x, y in zip(ri[i:], rk[i:])]
        prev = pivot
    return True, None


def sparse_int_rank(rows) -> int:
    """Rank over Q of sparse integer rows ({col: coeff} dicts).

    Incremental elimination: the rows are taken shortest first, and each is
    reduced against the pivot rows found so far; its surviving leading
    column (the largest column index) becomes a new pivot. Short rows and a
    lead at the end of the row keep the pivot rows sparse, so fill-in stays
    low. Pivot rows are primitive integer vectors. A row is scaled only when
    the pivot's lead does not divide its own, and is then made primitive
    again.
    """
    pivots: dict = {}  # col -> primitive row dict

    def primitive(row):
        g = 0
        for v in row.values():
            g = gcd(g, v)
            if g == 1:
                return row
        return {c: v // g for c, v in row.items()}

    rank = 0
    for raw in sorted(rows, key=len):
        row = {c: v for c, v in raw.items() if v}
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = primitive(row)
                rank += 1
                break
            a, b = piv[lead], row[lead]
            scaled = b % a != 0
            if scaled:
                g = gcd(a, b)
                row = {c: v * (a // g) for c, v in row.items()}
                b //= g
            else:
                b //= a
            # row - b * piv; an entry can only vanish where both have one
            for c, v in piv.items():
                w = row.get(c, 0) - b * v
                if w:
                    row[c] = w
                else:
                    del row[c]
            if scaled:
                row = primitive(row)
    return rank
