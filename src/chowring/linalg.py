"""Exact linear algebra over the integers, with rational test oracles.

The program's checks use the fraction-free routines: `int_kernel` (kernel
and rank), `int_positive_definite`, `bareiss_det` and `sparse_int_rank`.
`frac_rank`, `frac_kernel` and `symmetric_positive_definite` compute the same
things over Q with `Fraction` and serve as oracles in the tests. Dense
routines take lists of lists; the sparse rank routine takes rows as
{column: int} dicts. Pivots prefer small entries (minimal bit length) so
intermediate swell stays bounded at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _pivot_key(value):
    v = value if isinstance(value, int) else abs(value.numerator) + abs(value.denominator)
    return abs(v).bit_length()


def frac_rank(rows) -> int:
    """Rank over Q; destroys nothing (copies input)."""
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


def frac_kernel(rows, ncols) -> list[list[Fraction]]:
    """Basis of {v : M v = 0} over Q, integer-cleared vectors."""
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


def int_kernel(rows, ncols) -> list[list[int]]:
    """Basis of {v : M v = 0} over Q for an integer matrix, fraction-free.

    Gauss-Jordan elimination in Bareiss form: each step replaces every other
    row by (pivot * row - entry * pivot row) // previous pivot, an exact
    division whose quotients are minors of M. At the end every pivot row
    holds the same minor d at its pivot column. The vector for a free column
    f is (d at f, -row entries at the pivot columns), made primitive with a
    positive entry at f: the same vector, in the same order, as
    `frac_kernel`, whatever pivot rows are chosen.
    """
    m = [list(row) for row in rows]
    pivot_cols = []
    prev = 1
    for col in range(ncols):
        top = len(pivot_cols)
        if top == len(m):
            break
        rows_here = [i for i in range(top, len(m)) if m[i][col]]
        if not rows_here:
            continue
        pick = min(rows_here, key=lambda i: abs(m[i][col]).bit_length())
        m[top], m[pick] = m[pick], m[top]
        prow = m[top]
        pv = prow[col]
        for i, ri in enumerate(m):
            if i == top:
                continue
            f = ri[col]
            if f:
                m[i] = [(pv * x - f * y) // prev for x, y in zip(ri, prow)]
            elif pv != prev:
                m[i] = [pv * x // prev for x in ri]
        pivot_cols.append(col)
        prev = pv
    pivot_set = set(pivot_cols)
    sign = 1 if prev > 0 else -1
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = prev
        for prow, pcol in enumerate(pivot_cols):
            v[pcol] = -m[prow][free]
        g = gcd(*v) * sign
        basis.append([x // g for x in v])
    return basis


def bareiss_det(matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination with
    row/column pivoting on minimal-bit-length entries)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        # choose the nonzero pivot of minimal bit length in the trailing block
        pick = None
        best = None
        for i in range(k, n):
            for j in range(k, n):
                if m[i][j]:
                    b = abs(m[i][j]).bit_length()
                    if best is None or b < best:
                        best, pick = b, (i, j)
                    if b == 1:
                        break
            if best == 1:
                break
        if pick is None:
            return 0
        pi, pj = pick
        if pi != k:
            m[k], m[pi] = m[pi], m[k]
            sign = -sign
        if pj != k:
            for row in m:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def symmetric_positive_definite(matrix) -> tuple[bool, int | None]:
    """Exact positive-definiteness certificate for a symmetric rational matrix:
    all leading principal minors positive (Bareiss sequence, no pivoting).
    Returns (is_pd, index of first failing minor or None)."""
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

    Incremental elimination: each incoming row is reduced against the pivot
    rows found so far; its surviving leading column (the smallest column
    index) becomes a new pivot. Rows are kept as primitive integer vectors.
    """
    pivots: dict = {}  # col -> primitive row dict

    def content(row):
        g = 0
        for v in row.values():
            g = gcd(g, v)
            if g == 1:
                return 1
        return g

    rank = 0
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                g = content(row)
                if g > 1:
                    row = {c: v // g for c, v in row.items()}
                pivots[lead] = row
                rank += 1
                break
            a, b = piv[lead], row[lead]
            g = gcd(a, b)
            scale_row, scale_piv = a // g, b // g
            new = {}
            for c, v in row.items():
                new[c] = v * scale_row
            for c, v in piv.items():
                w = new.get(c, 0) - v * scale_piv
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            row = new
            g = content(row)
            if g > 1:
                row = {c: v // g for c, v in row.items()}
    return rank
