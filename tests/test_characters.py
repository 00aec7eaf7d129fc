import pytest

from chowring.characters import (
    Cyc, NonPositiveEntry, NotSymmetric, NotVirtual, character_table,
    class_data, cyclotomic_polynomial, gamma_expansion, gamma_reexpand,
    is_genuine, koszul_minor, mn_character_value, numeric_pf_check,
    partitions, perm_character, sturm_real_rooted, toeplitz_minor,
    trivial_character, window_minors,
)
from chowring.chow import chow_ring
from chowring.corpus import corpus_matroid, corpus_names
from chowring.linalg import bareiss_det
from chowring.matroid import boolean, graphic, uniform
from chowring.perm import (cycle_type, from_cycles, group_from_generators,
                           matroid_automorphisms, symmetric_group)


def fy_characters(m, group=None):
    ring = chow_ring(m)
    group = group or matroid_automorphisms(m)
    table = character_table(group)
    seq = [perm_character(table.data, ring.fy_basis(k),
                          lambda g, mo: ring.act(g, mo))
           for k in range(ring.r + 1)]
    return ring, table, seq


def test_partitions_order():
    assert partitions(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))


def test_mn_classical_s3():
    # rows chi^lambda, columns mu = (1,1,1), (2,1), (3)
    table = {lam: [mn_character_value(lam, mu)
                   for mu in ((1, 1, 1), (2, 1), (3,))]
             for lam in partitions(3)}
    assert table[(3,)] == [1, 1, 1]
    assert table[(2, 1)] == [2, 0, -1]
    assert table[(1, 1, 1)] == [1, -1, 1]


def test_mn_s5_degrees():
    for lam in partitions(5):
        deg = mn_character_value(lam, (1,) * 5)
        assert deg > 0
    degs = sorted(mn_character_value(lam, (1,) * 5) for lam in partitions(5))
    assert degs == [1, 1, 4, 4, 5, 5, 6]


def test_s4_table_backend_and_degrees():
    table = character_table(symmetric_group(4))
    assert table.backend == "murnaghan-nakayama"
    assert [chi.degree() for chi in table.irreducibles] == [1, 3, 2, 3, 1]
    assert table.labels == partitions(4)


def test_cyclic3_dixon_cube_roots():
    c3 = group_from_generators(3, [from_cycles(3, [(0, 1, 2)])])
    table = character_table(c3)
    assert table.backend == "dixon"
    assert sorted(chi.degree() for chi in table.irreducibles) == [1, 1, 1]
    nonrational = [v for chi in table.irreducibles for v in chi.values
                   if isinstance(v, Cyc) and not v.is_rational()]
    assert nonrational  # genuine cube-root values appear


def test_dihedral4_dixon():
    d4 = group_from_generators(4, [from_cycles(4, [(0, 1, 2, 3)]),
                                   from_cycles(4, [(1, 3)])])
    table = character_table(d4)
    assert sorted(chi.degree() for chi in table.irreducibles) == [1, 1, 1, 1, 2]


def test_s3_defining_character_decomposition():
    g = symmetric_group(3)
    table = character_table(g)
    pc = perm_character(table.data, list(range(3)), lambda p, x: p[x])
    assert table.decompose(pc) == (0, 1, 1)


def test_perm_character_values():
    g = symmetric_group(3)
    data = class_data(g)
    one = perm_character(data, ("pt",), lambda p, x: x)
    assert one.values == (1, 1, 1)
    regular = perm_character(data, g.elements,
                             lambda p, x: tuple(p[i] for i in x))
    vals = dict(zip((cycle_type(rep) for rep in data.reps), regular.values))
    assert vals[(1, 1, 1)] == 6
    assert vals[(2, 1)] == 0 and vals[(3,)] == 0


def test_boolean4_minor_multiplicities_and_value():
    _, table, seq = fy_characters(boolean(4))
    minor = toeplitz_minor(seq, (0, 1, 2), (1, 2, 4))
    genuine, mults = is_genuine(minor, table)
    assert genuine
    assert mults == (29, 124, 103, 172, 76)
    four_cycle = next(i for i, rep in enumerate(table.data.reps)
                      if cycle_type(rep) == (4,))
    assert minor.values[four_cycle] == -1


def test_is_genuine_zero_and_not_virtual():
    g = symmetric_group(3)
    table = character_table(g)
    zero = trivial_character(table.data) - trivial_character(table.data)
    genuine, mults = is_genuine(zero, table)
    assert genuine and mults == (0, 0, 0)
    from chowring.characters import ClassFunction
    odd = ClassFunction(table.data, (1, 0, 0))  # not a virtual character
    with pytest.raises(NotVirtual):
        table.decompose(odd)


def test_koszul_minor_two_by_two_genuine():
    for m in (boolean(4), uniform(4, 5)):
        ring, table, seq = fy_characters(m)
        for alpha in ((1, 1), (1, 2), (2, 1), (1, 1, 1)):
            if sum(alpha) > ring.r:
                continue
            minor = koszul_minor(seq, alpha)
            genuine, _ = is_genuine(minor, table)
            assert genuine, alpha


def test_toeplitz_out_of_band_is_zero_entry():
    _, table, seq = fy_characters(boolean(3))
    # row 3 and column 4 leave the band, so the minor collapses to
    # seq[1] * seq[1]
    minor = toeplitz_minor(seq, (0, 3), (1, 4))
    assert minor == seq[1] * seq[1]



@pytest.mark.parametrize("cols", [(1, 2, 3, 4, 5, 6), (1, 2, 3, 5, 6, 7)])
def test_det_ring_skipping_zeros_matches_plain_cofactors(cols):
    _, _, seq = fy_characters(boolean(3))
    rows = (0, 1, 2, 3, 4, 5)
    zero = seq[0] * 0
    entries = [[seq[c - r] if 0 <= c - r < len(seq) else zero for c in cols]
               for r in rows]

    def plain(m):
        if len(m) == 1:
            return m[0][0]
        total = zero
        for j in range(len(m)):
            term = m[0][j] * plain([row[:j] + row[j + 1:] for row in m[1:]])
            total = total + (term if j % 2 == 0 else -term)
        return total

    assert toeplitz_minor(seq, rows, cols) == plain(entries)

def test_gamma_numeric():
    assert gamma_expansion([1, 21, 21, 1]) == [1, 18]
    assert gamma_expansion([1, 11, 11, 1]) == [1, 8]
    assert gamma_expansion([1, 4, 1]) == [1, 2]
    with pytest.raises(NotSymmetric):
        gamma_expansion([1, 2, 3])


def test_gamma_roundtrip_numeric():
    seq = [1, 26, 66, 26, 1]
    gammas = gamma_expansion(seq)
    assert gamma_reexpand(gammas, 4) == seq


def test_gamma_boolean3_characters():
    _, table, seq = fy_characters(boolean(3))
    gammas = gamma_expansion(seq)
    assert gammas[0] == trivial_character(table.data)
    genuine, mults = is_genuine(gammas[1], table)
    assert genuine
    # gamma_1 is exactly the standard character chi^(2,1)
    assert mults == (0, 1, 0)
    assert gammas[1].values == (2, 0, -1)


def test_gamma_boolean3_burnside_level_fails():
    from chowring.burnside import BurnsideContext
    m = boolean(3)
    ctx = BurnsideContext(chow_ring(m), matroid_automorphisms(m))
    seq = [ctx.decompose_degrees((k,)) for k in range(3)]
    gammas = gamma_expansion(seq)
    assert gammas[0].is_genuine()
    assert not gammas[1].is_genuine()
    # gamma_1 = [defining 3-set] - [point]
    coeffs = {ctx.registry.order_of(i): c for i, c in gammas[1].coeffs.items()}
    assert coeffs == {2: 1, 6: -1}


def plain_window_det(seq, delta, size):
    r = len(seq) - 1
    return bareiss_det([[seq[delta + j - i] if 0 <= delta + j - i <= r else 0
                         for j in range(size)] for i in range(size)])


# [1,1,1,1]: the 2x2 window at delta=1 is singular, so the larger sizes there
# come from the fallback; [3,1,1,3] and [1,2,1,2,1] have negative windows
WINDOW_SEQS = sorted({(1, 21, 21, 1), (1, 5, 1), (3, 1, 1, 3), (1, 2, 1, 2, 1),
                      (1, 1, 1, 1)}
                     | {tuple(chow_ring(corpus_matroid(doc)).hilbert_function())
                        for doc in corpus_names()})


@pytest.mark.parametrize("seq", WINDOW_SEQS, ids=str)
def test_window_minors_match_plain_determinants(seq):
    r = len(seq) - 1
    dets = window_minors(seq, 8)
    assert [len(row) for row in dets] == [8] * (r + 1)
    for size in range(1, 9):
        for delta in range(-(size - 1), r + size):
            got = dets[delta][size - 1] if 0 <= delta <= r else 0
            assert got == plain_window_det(seq, delta, size), (size, delta)


@pytest.mark.parametrize("seq", [(1, 21, 21, 1), (1, 5, 1), (3, 1, 1, 3),
                                 (1, 2, 1, 2, 1), (1, 1, 1, 1)], ids=str)
def test_window_witnesses_match_plain_determinants(seq):
    r = len(seq) - 1
    plain = [(size, delta, det) for size in range(2, 9)
             for delta in range(-(size - 1), r + size)
             for det in [plain_window_det(seq, delta, size)] if det < 0]
    rep = numeric_pf_check(list(seq), 8)
    assert rep["witness"] == (plain or None)
    assert rep["passed"] == (not plain)


def test_pf_checks_numeric():
    assert numeric_pf_check([1, 21, 21, 1], 2)["passed"]
    rep = numeric_pf_check([1, 21, 21, 1], "inf")
    assert rep["passed"] and rep["mode"] == "certificate"
    rep = numeric_pf_check([1, 1], "inf")
    assert rep["passed"]
    rep = numeric_pf_check([1, 1, 2], 2)
    assert not rep["passed"] and rep["witness"] == (0, 1, 1, 2)
    rep = numeric_pf_check([1, 11, 11, 1], 4)
    assert rep["passed"] and rep["mode"] == "evidence"
    with pytest.raises(NonPositiveEntry):
        numeric_pf_check([1, 0, 1], 2)


def test_sturm_cases():
    assert sturm_real_rooted([1, 2, 1])          # (1+t)^2, repeated root
    assert sturm_real_rooted([1, 21, 21, 1])
    assert not sturm_real_rooted([1, 1, 1])      # complex roots
    assert sturm_real_rooted([6, 11, 6, 1])      # (1+t)(2+t)(3+t)
    assert not sturm_real_rooted([1, 0, 0, 0, 1])
    assert sturm_real_rooted([1, 3, 3, 1])       # (1+t)^3
    assert sturm_real_rooted([4, 12, 13, 6, 1])  # (1+t)^2 (2+t)^2
    assert not sturm_real_rooted([1, 4, 7, 7, 4, 1])  # (1+t)^3 (1+t+t^2)
    assert sturm_real_rooted([0, 1, 1])          # t(1+t): a root at 0
    assert sturm_real_rooted([0, 0, 2, 0])       # 2t^2, trailing zero
    assert not sturm_real_rooted([0, 0, 1, 0, 1])  # t^2 (1+t^2)
    assert sturm_real_rooted([1, 0, -1])         # 1-t^2: negative lead
    assert sturm_real_rooted([-6, -11, -6, -1])
    assert not sturm_real_rooted([-1, -1, -1])
    assert not sturm_real_rooted([1, 0, 1])      # 1+t^2
    assert not sturm_real_rooted([1, 2, 2, 1])   # (1+t)(1+t+t^2)
    assert sturm_real_rooted([5]) and sturm_real_rooted([3, 7])


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    z = Cyc.root(3)
    assert z * z * z == 1
    assert (z + z * z).rational() == -1


def test_dixon_agrees_with_rim_hook_tables():
    from chowring.characters import (CharacterTable, _dixon_table,
                                     _symmetric_table)
    for n in (3, 4):
        g = symmetric_group(n)
        data = class_data(g)
        mn_irr, _ = _symmetric_table(g, data)
        dx_irr, labels = _dixon_table(g, data)
        CharacterTable(g, data, dx_irr, labels, "dixon")  # audits pass
        mn_set = {chi.values for chi in mn_irr}
        dx_set = {tuple(v if isinstance(v, int) else v.rational()
                        for v in chi.values) for chi in dx_irr}
        assert mn_set == dx_set


def test_charpoly_roots_are_the_eigenvalues():
    import random
    from chowring.characters import _charpoly_mod, _horner, _nullspace_mod
    rng = random.Random(3)
    p = 101
    for trial in range(40):
        n = rng.randint(1, 6)
        a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if trial % 2:  # triangular, so the diagonal entries are roots
            a = [[x if j >= i else 0 for j, x in enumerate(row)]
                 for i, row in enumerate(a)]
        poly = _charpoly_mod(a, p)
        assert len(poly) == n + 1 and poly[-1] == 1
        roots = {x for x in range(p) if _horner(poly, x, p) == 0}
        eigen = {x for x in range(p) if _nullspace_mod(
            [[(v - (x if i == j else 0)) % p for j, v in enumerate(row)]
             for i, row in enumerate(a)], p)}
        assert roots == eigen
        if trial % 2:
            assert {a[i][i] for i in range(n)} == roots


@pytest.mark.parametrize("cycles, n, degrees", [
    ([[(0, 1, 2, 3, 4)]], 5, [1, 1, 1, 1, 1]),
    # the Frobenius group of order 21: x -> x + 1 and x -> 2x mod 7
    ([[(0, 1, 2, 3, 4, 5, 6)], [(1, 2, 4), (3, 6, 5)]], 7, [1, 1, 1, 3, 3]),
])
def test_dixon_irrational_tables(cycles, n, degrees):
    g = group_from_generators(n, [from_cycles(n, c) for c in cycles])
    table = character_table(g)
    assert table.backend == "dixon"
    irr = table.irreducibles
    assert sorted(chi.degree() for chi in irr) == degrees
    assert any(isinstance(v, Cyc) and not v.is_rational()
               for chi in irr for v in chi.values)
    for i, chi in enumerate(irr):
        for j, psi in enumerate(irr):
            assert chi.inner(psi) == (1 if i == j else 0)
    sizes = table.data.sizes
    for a in range(len(sizes)):
        for b in range(len(sizes)):
            col = sum((chi.values[a] * chi.at_inverse(b) for chi in irr), 0)
            assert col == (g.order // sizes[a] if a == b else 0)


def test_dixon_alternating4():
    a4 = group_from_generators(4, [from_cycles(4, [(0, 1), (2, 3)]),
                                   from_cycles(4, [(0, 1, 2)])])
    table = character_table(a4)
    assert sorted(chi.degree() for chi in table.irreducibles) == [1, 1, 1, 3]
    cubics = [chi for chi in table.irreducibles
              if any(isinstance(v, Cyc) and not v.is_rational()
                     for v in chi.values)]
    assert len(cubics) == 2


def test_orthogonality_audited_on_graphic_groups():
    # wheel automorphisms (dihedral of order 8 on 8 edges) via Dixon
    w4 = graphic([(0, 1), (0, 2), (0, 3), (0, 4),
                  (1, 2), (2, 3), (3, 4), (4, 1)])
    g = matroid_automorphisms(w4)
    table = character_table(g)
    assert table.backend == "dixon"
    assert sum(chi.degree() ** 2 for chi in table.irreducibles) == g.order


def test_genuine_products_stay_genuine():
    _, table, seq = fy_characters(boolean(4))
    for a in seq:
        for b in seq:
            genuine, _ = is_genuine(a * b, table)
            assert genuine


def test_burnside_to_character_to_integer_composite():
    # decompose -> characters -> degree matches the plain cardinality
    from chowring.burnside import BurnsideContext
    m = uniform(3, 5)
    ring = chow_ring(m)
    group = matroid_automorphisms(m)
    ctx = BurnsideContext(ring, group)
    table = character_table(group)
    for k in range(ring.r + 1):
        chi = perm_character(table.data, ring.fy_basis(k),
                             lambda g, mo: ring.act(g, mo))
        d = ctx.decompose_degrees((k,))
        assert chi.degree() == d.cardinality() == len(ring.fy_basis(k))
        # orbit count equals the multiplicity of the trivial character
        orbit_count = sum(d.coeffs.values())
        assert chi.inner(trivial_character(table.data)) == orbit_count
