import pytest

from chowring import scd
from chowring.chow import chow_ring, mono_degree
from chowring.corpus import K5_EDGES
from chowring.matroid import boolean, graphic, mask_of, uniform
from chowring.perm import matroid_automorphisms
from chowring.verify import check_scd


def test_diagram_and_parens_worked_example():
    cells = scd.diagram_cells((3, 7), (1, 2, 0), 9)
    assert "".join(cells) == ".-*.--*.."
    word = scd.parens_from_cells(cells)
    assert "".join(word) == ")())(()))"
    pairs, unpaired = scd.pair_parentheses(word)
    assert set(pairs) == {(2, 3), (5, 8), (6, 7)}
    assert unpaired == (1, 4, 9)


def test_flip_chain_matches_worked_example():
    symbols = scd.parens_from_cells(scd.diagram_cells((3, 7), (1, 2, 0), 9))
    seen = [(1, 2, 0)]
    for _ in range(3):
        symbols = scd.flip_rightmost_close(symbols)
        seen.append(scd.exponents_from_parens((3, 7), symbols, 9))
    assert seen == [(1, 2, 0), (1, 2, 1), (1, 3, 1), (2, 3, 1)]


def test_unpaired_counts():
    # degree d monomial: r-d-rho closes then d-rho opens
    symbols = tuple(")())(()))")
    pairs, unpaired = scd.pair_parentheses(symbols)
    rho = len(pairs)
    d = sum(1 for s in symbols if s == "(")
    closes = [p for p in unpaired if symbols[p - 1] == ")"]
    opens = [p for p in unpaired if symbols[p - 1] == "("]
    assert len(closes) == 9 - d - rho
    assert len(opens) == d - rho
    assert all(c < o for c in closes for o in opens)


def test_pairing_edge_cases():
    assert scd.pair_parentheses(")))") == ((), (1, 2, 3))
    assert scd.pair_parentheses("()") == (((1, 2),), ())
    pairs, unpaired = scd.pair_parentheses("((()))")
    assert pairs == ((1, 6), (2, 5), (3, 4)) and unpaired == ()


def test_diagram_grammar():
    # no dash immediately followed by a blank; bullets never adjacent
    ring = chow_ring(uniform(4, 6))
    for basis in ring.fy_all():
        for mono in basis:
            cells, parens = scd.encode(ring, mono)
            for a, b in zip(cells, cells[1:]):
                assert not (a == scd.DASH and b == scd.BLANK)
                assert not (a == scd.BULLET and b == scd.BULLET)
            assert scd.decode(ring, scd.supp_plus(ring, mono), parens) == mono


def test_supp_plus_and_fiber_partition():
    ring = chow_ring(uniform(4, 5))
    fibers = {}
    total = 0
    for basis in ring.fy_all():
        for mono in basis:
            fibers.setdefault(scd.supp_plus(ring, mono), []).append(mono)
    for support, monos in fibers.items():
        fib = scd.fiber(ring, support)
        assert sorted(fib) == sorted(monos)
        total += len(fib)
        degs = [mono_degree(m) for m in fib]
        ell = len(support) - 1
        assert min(degs) == ell and max(degs) == ring.r - ell
    assert total == sum(ring.hilbert_function())


def test_fiber_grid_shape():
    # ranks (3, 7) inside a rank-8 Boolean matroid: exponent grid
    # [1,2] x [1,3] x [0,0]
    ring = chow_ring(boolean(8))
    support = (mask_of([0, 1, 2]), mask_of(range(7)), ring.matroid.full)
    fib = scd.fiber(ring, support)
    assert len(fib) == 2 * 3 * 1
    with pytest.raises(scd.NotExtendedSupport):
        scd.fiber(ring, (mask_of([0, 1, 2]), mask_of([3, 4])))
    with pytest.raises(scd.NotExtendedSupport):
        scd.fiber(ring, (mask_of([0, 1, 2]), mask_of([3, 4, 5]),
                         ring.matroid.full))


def test_fiber_poset_is_product_of_intervals():
    # divisibility inside a fiber matches the componentwise order on exponents
    ring = chow_ring(boolean(8))
    support = (mask_of([0, 1, 2]), mask_of(range(7)), ring.matroid.full)
    fib = scd.fiber(ring, support)
    for a in fib:
        for b in fib:
            ea = dict(a)
            eb = dict(b)
            divides = all(ea.get(v, 0) <= eb.get(v, 0)
                          for v in set(ea) | set(eb))
            expected = all(x <= y for x, y in zip(
                scd._split_mono(ring, a)[2], scd._split_mono(ring, b)[2]))
            assert divides == expected


def test_unit_and_top_encodings():
    ring = chow_ring(uniform(4, 5))
    cells, parens = scd.encode(ring, ())
    assert set(cells) == {scd.BLANK}
    assert set(parens) == {")"}
    top = ((ring.top_var, 3),)
    cells, parens = scd.encode(ring, top)
    assert set(cells) == {scd.DASH}
    assert set(parens) == {"("}


def test_lambda_table_u45():
    ring = chow_ring(uniform(4, 5))
    top = ring.top_var
    assert scd.lambda_map(ring, ()) == ((top, 1),)
    assert scd.lambda_map(ring, ((top, 1),)) == ((top, 2),)
    for mono in ring.fy_basis(1):
        vi, _ = mono[0]
        if vi == top:
            continue
        image = scd.lambda_map(ring, mono)
        if ring.vrank[vi] == 3:
            assert image == ((vi, 2),)
        else:
            assert image == ((vi, 1), (top, 1))
        assert scd.pi_map(ring, mono) == image
    assert scd.pi_map(ring, ()) == ((top, 3),)


def test_lambda_degree_guard():
    ring = chow_ring(uniform(4, 5))
    with pytest.raises(scd.DegreeTooHigh):
        scd.lambda_map(ring, ((ring.top_var, 2),))


def test_lambda_injective_and_preserves_support():
    for m in (boolean(4), uniform(3, 6), uniform(5, 6)):
        ring = chow_ring(m)
        for k in range((ring.r + 1) // 2):
            images = set()
            for mono in ring.fy_basis(k):
                image = scd.lambda_map(ring, mono)
                assert mono_degree(image) == k + 1
                assert scd.supp_plus(ring, image) == scd.supp_plus(ring, mono)
                assert image not in images
                images.add(image)
            assert images <= set(ring.fy_basis(k + 1))


def test_pi_involution_and_power_of_lambda():
    for m in (boolean(4), uniform(4, 6)):
        ring = chow_ring(m)
        r = ring.r
        for k in range(r + 1):
            for mono in ring.fy_basis(k):
                image = scd.pi_map(ring, mono)
                assert mono_degree(image) == r - k
                assert scd.pi_map(ring, image) == mono
                if 2 * k <= r:
                    lam = mono
                    for _ in range(r - 2 * k):
                        lam = scd._step(ring, lam)
                    assert lam == image


def test_symmetric_chains_u45():
    ring = chow_ring(uniform(4, 5))
    chains = scd.symmetric_chains(ring)
    assert len(chains) == 21
    shapes = {}
    for c in chains:
        shapes[len(c.monomials)] = shapes.get(len(c.monomials), 0) + 1
    # one full chain {1, x_E, x_E^2, x_E^3}, ten {x_ijk, x_ijk^2},
    # ten {x_ij, x_ij x_E}
    assert shapes == {4: 1, 2: 20}
    rep = scd.verify_scd(ring)
    assert rep["passed"]


def test_verify_scd_on_small_corpus():
    for m in (boolean(3), boolean(5), uniform(2, 5), uniform(5, 7)):
        ring = chow_ring(m)
        assert scd.verify_scd(ring)["passed"]


def test_equivariance_u45():
    m = uniform(4, 5)
    ring = chow_ring(m)
    group = matroid_automorphisms(m)
    for k in range((ring.r + 1) // 2):
        table = scd.id_table(ring, scd.lambda_map, k, k + 1)
        assert None not in table
        assert scd.verify_equivariance(ring, group, table, k, k + 1)["passed"]
    for k in range(ring.r + 1):
        table = scd.id_table(ring, scd.pi_map, k, ring.r - k)
        assert None not in table
        rep = scd.verify_equivariance(ring, group, table, k, ring.r - k)
        assert rep["passed"]


def _swap_first_two(ring, mono):
    """mono, with the first two FY monomials of degree 1 exchanged: a choice
    by identity, which no automorphism respects."""
    a, b = ring.fy_basis(1)[:2]
    return b if mono == a else a if mono == b else mono


def _lambda_after_swap(ring, mono, lambda_map=scd.lambda_map):
    return lambda_map(ring, _swap_first_two(ring, mono))


def _pi_conjugated_by_swap(ring, mono, pi_map=scd.pi_map):
    # still a bijection and an involution; only equivariance breaks
    if mono_degree(mono) == 1:
        return pi_map(ring, _swap_first_two(ring, mono))
    return _swap_first_two(ring, pi_map(ring, mono))


@pytest.mark.parametrize("m", [graphic(K5_EDGES), uniform(4, 6)],
                         ids=["graphic(K5)", "uniform(4,6)"])
@pytest.mark.parametrize("name, mutant, failure", [
    ("lambda_map", _lambda_after_swap, "lambda_not_equivariant"),
    ("pi_map", _pi_conjugated_by_swap, "pi_not_equivariant"),
])
def test_check_scd_catches_an_identity_dependent_map(m, name, mutant, failure,
                                                     monkeypatch):
    ring = chow_ring(m)
    group = matroid_automorphisms(m)
    assert check_scd(ring, group)[0]
    monkeypatch.setattr(scd, name, mutant)
    passed, details = check_scd(ring, group)
    assert not passed
    assert details["failures"]
    assert {f[0] for f in details["failures"]} == {failure}


def test_decode_rejects_wrong_support():
    ring = chow_ring(boolean(4))
    mono = ring.monomial([(mask_of([0, 1]), 1)])
    _, parens = scd.encode(ring, mono)
    other = (mask_of([0, 1, 2]), ring.matroid.full)
    with pytest.raises(scd.SCDError):
        scd.decode(ring, other, parens)


def test_chain_membership_depends_only_on_ranks_and_pairing():
    ring = chow_ring(boolean(5))
    chains = scd.symmetric_chains(ring)
    by_key = {}
    for c in chains:
        ranks = tuple(ring.matroid.rank_of[f] for f in c.support)
        by_key.setdefault((ranks, c.pairs), set()).add(
            tuple(mono_degree(m) for m in c.monomials))
    for degrees in by_key.values():
        assert len(degrees) == 1
