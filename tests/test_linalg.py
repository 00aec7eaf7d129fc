import random
from fractions import Fraction

import pytest

from chowring.linalg import (bareiss_det, frac_kernel, frac_rank, int_kernel,
                             int_positive_definite, sparse_int_rank,
                             symmetric_positive_definite)


def test_bareiss_det_small():
    assert bareiss_det([[2, 1], [1, 1]]) == 1
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([]) == 1
    # known 3x3
    assert bareiss_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3


def test_frac_rank():
    assert frac_rank([[1, 2], [2, 4]]) == 1
    assert frac_rank([[1, 0, 1], [0, 1, 1], [1, 1, 2]]) == 2
    assert frac_rank([]) == 0


def test_frac_kernel():
    basis = frac_kernel([[1, 1, 1]], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
    basis = frac_kernel([[1, 0], [0, 1]], 2)
    assert basis == []


def test_positive_definite():
    ok, bad = symmetric_positive_definite([[2, 1], [1, 2]])
    assert ok and bad is None
    ok, bad = symmetric_positive_definite([[1, 2], [2, 1]])
    assert not ok and bad == 1
    ok, bad = symmetric_positive_definite([[0]])
    assert not ok and bad == 0
    ok, _ = symmetric_positive_definite(
        [[Fraction(1), Fraction(1, 2)], [Fraction(1, 2), Fraction(1)]])
    assert ok
    with pytest.raises(ValueError):
        symmetric_positive_definite([[1, 2], [3, 4]])


def test_sparse_rank_matches_dense():
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}, {0: 2, 1: 2}]
    dense = [[1, 1, 0], [0, 1, 1], [1, 0, -1], [2, 2, 0]]
    assert sparse_int_rank(rows) == frac_rank(dense)


def test_sparse_rank_content_reduction():
    rows = [{0: 6, 1: 4}, {0: 3, 1: 2}, {1: 5}]
    assert sparse_int_rank(rows) == 2


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _random_matrices(rng):
    """(kind, matrix, ncols) for singular, full-rank, wide and zero cases."""
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rank = rng.randint(0, min(nrows, ncols))
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
        yield "low rank", _product(left, right) if rank else \
            [[0] * ncols for _ in range(nrows)], ncols
    for _ in range(40):
        n = rng.randint(1, 7)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if bareiss_det(mat):
            yield "full rank", mat, n
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(5, 9)
        yield "wide", [[rng.randint(-5, 5) for _ in range(ncols)]
                       for _ in range(nrows)], ncols
    yield "no rows", [], 3


def test_int_kernel_and_rank_match_fraction_oracle():
    kinds = set()
    for kind, mat, ncols in _random_matrices(random.Random(11)):
        kinds.add(kind)
        got = int_kernel(mat, ncols)
        want = frac_kernel(mat, ncols)
        assert ncols - len(got) == frac_rank(mat)
        assert len(got) == len(want)
        for v, w in zip(got, want):
            assert all(isinstance(x, int) for x in v)
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in mat)
            # v is a positive multiple of the oracle's vector
            free = next(i for i, x in enumerate(w) if x)
            scale = Fraction(v[free]) / w[free]
            assert scale > 0
            assert v == [scale * x for x in w]
    assert kinds == {"low rank", "full rank", "wide", "no rows"}


def _random_symmetric(rng):
    """(kind, matrix): Gram matrices (positive definite or singular),
    indefinite ones, and ones with a nonpositive diagonal entry."""
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = n + rng.choice((-2, -1, 0, 2))
        x = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(max(rows, 0))]
        gram = _product(list(zip(*x)), x) if x else [[0] * n for _ in range(n)]
        yield "gram", gram
        shift = rng.randint(-6, 6)
        yield "shifted", [[v + (shift if i == j else 0) for j, v in enumerate(row)]
                          for i, row in enumerate(gram)]


def test_int_positive_definite_matches_fraction_oracle():
    verdicts = set()
    for kind, mat in _random_symmetric(random.Random(5)):
        got = int_positive_definite(mat)
        assert got == symmetric_positive_definite(mat), (kind, mat)
        verdicts.add((kind, got[0]))
    assert {("gram", True), ("gram", False),
            ("shifted", True), ("shifted", False)} <= verdicts
    with pytest.raises(ValueError):
        int_positive_definite([[1, 2], [3, 4]])
