from fractions import Fraction

import pytest

from chowring.chow import (
    ChowError, ChowRing, DegreeOutOfRange, LefschetzElement, NotAnFYMonomial,
    NotSubmodular, NotTopDegree, UnknownVariable, check_submodular, chow_ring,
    default_coefficient_rule, lefschetz_omega, mono_mul,
)
from chowring.corpus import corpus_matroid
from chowring.linalg import (bareiss_det, frac_kernel, frac_rank,
                             symmetric_positive_definite)
from chowring.matroid import boolean, mask_of, matroid_from_bases, uniform
from chowring.perm import from_cycles, matroid_automorphisms


def ring_b3():
    return chow_ring(boolean(3))


def ring_u45():
    return chow_ring(uniform(4, 5))


def test_hilbert_functions():
    assert ring_u45().hilbert_function() == (1, 21, 21, 1)
    assert ring_b3().hilbert_function() == (1, 4, 1)
    assert chow_ring(boolean(4)).hilbert_function() == (1, 11, 11, 1)


def test_fy_basis_degree_one_u45():
    ring = ring_u45()
    basis = ring.fy_basis(1)
    assert len(basis) == 21
    names = {ring.mono_str(m) for m in basis}
    assert "x_E" in names and "x_12" in names and "x_123" in names
    assert ring.fy_basis(0) == ((),)
    # top degree is spanned by the top variable alone
    assert ring.fy_basis(3) == (((ring.top_var, 3),),)
    with pytest.raises(DegreeOutOfRange):
        ring.fy_basis(4)


def test_atom_normal_form():
    # an atom variable rewrites to minus the sum of everything above it
    ring = ring_b3()
    atom = ring.monomial([(mask_of([0]), 1)])
    nf = ring.normal_form({atom: 1})
    expected = {ring.monomial([(f, 1)]): -1
                for f in (mask_of([0, 1]), mask_of([0, 2]), ring.matroid.full)}
    assert nf.terms == expected


def test_non_nested_product_dies():
    ring = ring_b3()
    mono = ring.monomial([(mask_of([0, 1]), 1), (mask_of([0, 2]), 1)])
    assert ring.normal_form({mono: 1}).terms == {}


def test_x12_squared_in_b3():
    ring = ring_b3()
    mono = ring.monomial([(mask_of([0, 1]), 2)])
    nf = ring.normal_form({mono: 1})
    assert nf.terms == {((ring.top_var, 2),): -1}
    assert ring.degree_map(nf) == -1


def test_degree_map_unit_and_errors():
    ring = ring_b3()
    top = ring.normal_form({((ring.top_var, 2),): 1})
    assert ring.degree_map(top) == 1
    with pytest.raises(NotTopDegree):
        ring.degree_map(ring.one())
    with pytest.raises(UnknownVariable):
        ring.monomial([(mask_of([0, 1, 2, 3]), 1)])


def test_multiply_unit_and_linearity():
    ring = ring_u45()
    a = ring.normal_form({ring.monomial([(mask_of([0, 1]), 1)]): 3})
    assert ring.multiply(ring.one(), a) == a
    b = ring.normal_form({ring.monomial([(mask_of([0, 1, 2]), 1)]): 1})
    ab = ring.multiply(a, b)
    ba = ring.multiply(b, a)
    assert ab == ba


def test_pairing_b3_diagonal():
    ring = ring_b3()
    mat = ring.pairing_matrix(1)
    # canonical basis order: x_12, x_13, x_23, x_E
    assert mat == [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    assert bareiss_det(mat) == -1
    assert ring.pairing_matrix(0) == [[1]]


def test_pairing_u45_unimodular():
    mat = ring_u45().pairing_matrix(1)
    assert len(mat) == 21
    assert bareiss_det(mat) in (1, -1)


def test_dimension_oracle_matches_fy():
    for m in (boolean(3), boolean(4), uniform(3, 5), uniform(4, 5)):
        ring = chow_ring(m)
        for k in range(ring.r + 1):
            assert ring.dimension_oracle(k) == len(ring.fy_basis(k))


def test_normal_form_is_projection_and_linear():
    ring = ring_u45()
    import random
    rng = random.Random(5)
    pool = [m for b in ring.fy_all() for m in b]
    for _ in range(30):
        a, b = rng.choice(pool), rng.choice(pool)
        prod = mono_mul(a, b)
        nf = ring.normal_form({prod: 1})
        again = ring.normal_form(dict(nf.terms))
        assert again.terms == nf.terms


def test_reduction_strategies_agree():
    ring = ring_u45()
    import random
    rng = random.Random(7)
    pool = [m for b in ring.fy_all() for m in b]
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        prod = mono_mul(a, b)
        assert ring.normal_form_terms({prod: 1}, "fy") == \
            ring.normal_form_terms({prod: 1}, "plain")


def test_check_submodular():
    assert check_submodular(default_coefficient_rule(3), 3)
    assert not check_submodular(lambda s: 0, 3)


def test_lefschetz_omega_group_fixed():
    m = uniform(4, 5)
    ring = chow_ring(m)
    group = matroid_automorphisms(m)
    omega = lefschetz_omega(ring, group=group)
    assert omega.element.degree() == 1
    with pytest.raises(NotSubmodular):
        lefschetz_omega(ring, coefficient_rule=lambda s: 0)


def test_hard_lefschetz_k0_rank_one():
    ring = ring_b3()
    omega = lefschetz_omega(ring)
    rep = ring.hard_lefschetz_check(omega, 0)
    assert rep["passed"] and rep["rank"] == 1
    assert ring.degree_map(ring.omega_power(omega, ring.r)) != 0


def test_hodge_riemann_b4_all_k():
    ring = chow_ring(boolean(4))
    omega = lefschetz_omega(ring)
    for k in range(ring.r // 2 + 1):
        assert ring.hodge_riemann_check(omega, k)["passed"]
        assert ring.hard_lefschetz_check(omega, k)["passed"]


def _direct_qform(ring, omega, k):
    """Q[a][b] = sign * deg(a * b * omega^(r-2k)), one deg_top per term."""
    power = ring.omega_power(omega, ring.r - 2 * k)
    sign = (-1 if k % 2 else 1) * ring.orientation(omega)
    basis = ring.fy_basis(k)
    return [[sign * sum(c * ring.deg_top(mono_mul(mono_mul(a, b), m))
                        for m, c in power.terms.items())
             for b in basis] for a in basis]


@pytest.mark.parametrize("name", ["boolean(4)", "graphic(K4)"])
def test_qform_is_pairing_times_multiplication(name):
    ring = chow_ring(corpus_matroid(name))
    omega = lefschetz_omega(ring)
    for k in range(ring.r // 2 + 1):
        assert ring._qform(omega, k) == _direct_qform(ring, omega, k)


@pytest.mark.parametrize("name", ["boolean(4)", "uniform(4,6)", "graphic(K4)"])
def test_pairing_matrix_against_plain_reduction(name):
    """Each pairing entry is the x_E^r coefficient of the product reduced by
    the plain strategy, which pivots in the other order; the pairing in
    degree r - k is the transpose of the pairing in degree k."""
    ring = chow_ring(corpus_matroid(name))
    for k in range(ring.r + 1):
        pmat = ring.pairing_matrix(k)
        assert pmat == [
            [ring.normal_form_terms({mono_mul(a, b): 1}, "plain")
             .get(ring.top_mono, 0) for b in ring.fy_basis(ring.r - k)]
            for a in ring.fy_basis(k)]
        assert ring.pairing_matrix(ring.r - k) == [list(c) for c in zip(*pmat)]


def _fraction_hodge_riemann(ring, omega, k):
    """The Hodge-Riemann verdict over Q: kernel, K Q K^T and the
    positive-definiteness test all in Fraction arithmetic."""
    a_k = len(ring.fy_basis(k))
    if k == 0:
        kernel = [[Fraction(1)]]
    else:
        lift = ring.mult_matrix(ring.omega_power(omega, ring.r - 2 * k + 1), k)
        kernel = frac_kernel(lift, a_k)
    q = _direct_qform(ring, omega, k)
    restricted = [[sum(u[a] * q[a][b] * v[b] for a in range(a_k)
                       for b in range(a_k)) for v in kernel] for u in kernel]
    return symmetric_positive_definite(restricted)


@pytest.mark.parametrize("name, flat, shift, minor", [
    ("boolean(4)", [1], 6, 9),
    ("boolean(4)", [1], -6, 2),
    ("boolean(4)", [1, 2, 3], 20, 8),
    ("graphic(K4)", [1], -20, 0),
])
def test_non_lefschetz_omega_fails_like_fraction_path(name, flat, shift, minor):
    """Shifting one coefficient of the default rule gives a class that is
    not Lefschetz; the integer check fails at the same leading minor as the
    Fraction computation. (Negating omega changes nothing: the orientation
    and omega^(r-2k) change sign together.)"""
    m = corpus_matroid(name)
    ring = chow_ring(m)
    rule = default_coefficient_rule(m.n)
    target = mask_of(e - 1 for e in flat)
    coeffs = {f: rule(f) + (shift if f == target else 0) for f in ring.vars}
    element = ring.normal_form({((ring.var_index[f], 1),): c
                                for f, c in coeffs.items() if c})
    omega = LefschetzElement(ring, coeffs, element)
    reports = [ring.hodge_riemann_check(omega, k) for k in range(ring.r // 2 + 1)]
    assert [r["failing_minor"] for r in reports if not r["passed"]] == [minor]
    for rep in reports:
        assert (rep["passed"], rep["failing_minor"]) == \
            _fraction_hodge_riemann(ring, omega, rep["k"])


def test_loops_are_rejected():
    loopy = matroid_from_bases(3, [mask_of([0, 1])])
    with pytest.raises(ChowError, match="loops"):
        ChowRing(loopy)


def test_hilbert_symmetry_and_vanishing():
    for m in (boolean(4), uniform(3, 6), uniform(4, 6)):
        ring = chow_ring(m)
        h = ring.hilbert_function()
        assert h == tuple(reversed(h))


def test_boolean_hilbert_functions_are_eulerian():
    # graded dimensions for Boolean matroids are the Eulerian numbers
    def eulerian(n):
        table = {(1, 0): 1}
        for nn in range(2, n + 1):
            for k in range(nn):
                table[(nn, k)] = ((k + 1) * table.get((nn - 1, k), 0)
                                  + (nn - k) * table.get((nn - 1, k - 1), 0))
        return tuple(table[(n, k)] for k in range(n))

    for n in range(2, 7):
        assert chow_ring(boolean(n)).hilbert_function() == eulerian(n)


def test_act_and_verify_permutation_action():
    m = uniform(4, 5)
    ring = chow_ring(m)
    group = matroid_automorphisms(m)
    g = from_cycles(5, [(0, 1)])
    mono = ring.monomial([(mask_of([0, 2]), 1), (m.full, 1)])
    image = ring.act(g, mono)
    assert ring.mono_str(image) == "x_23*x_E"
    rep = ring.verify_permutation_action(group, samples=10, seed=1)
    assert rep["passed"]
    # orbit of x_ij x_E inside degree 2 has size 10
    from chowring.perm import orbit
    orb = orbit(group, mono, lambda p, mo: ring.act(p, mo))
    assert len(orb) == 10


def test_act_rejects_non_automorphism():
    m = uniform(3, 4)
    ring = chow_ring(m)
    # the matroid with flats = subsets of size <= 1... any permutation is an
    # automorphism of a uniform matroid, so craft a non-uniform example
    from chowring.matroid import graphic
    mk4e = graphic([(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
    rk4 = chow_ring(mk4e)
    bad = from_cycles(5, [(0, 3)])
    with pytest.raises(NotAnFYMonomial):
        rk4.var_perm(bad)


def test_variable_order_refines_reverse_inclusion():
    for m in (boolean(4), uniform(4, 6)):
        ring = chow_ring(m)
        for i, f in enumerate(ring.vars):
            for j, g in enumerate(ring.vars):
                if f != g and f & g == f:
                    # f strictly below g: x_f is the larger variable
                    assert i < j


def test_multiplication_surjectivity_at_desk_scale():
    for m, pairs in ((boolean(3), [(1, 1)]),
                     (uniform(4, 5), [(1, 1), (1, 2)])):
        ring = chow_ring(m)
        for j, k in pairs:
            rows = {mo: i for i, mo in enumerate(ring.fy_basis(j + k))}
            mat = [[0] * (len(ring.fy_basis(j)) * len(ring.fy_basis(k)))
                   for _ in rows]
            col = 0
            for a in ring.fy_basis(j):
                for b in ring.fy_basis(k):
                    for mono, c in ring.nf_monomial(mono_mul(a, b)).items():
                        mat[rows[mono]][col] += c
                    col += 1
            assert frac_rank(mat) == len(rows)


def test_pairing_is_group_invariant():
    m = uniform(4, 5)
    ring = chow_ring(m)
    group = matroid_automorphisms(m)
    import random
    rng = random.Random(3)
    deg1 = ring.fy_basis(1)
    deg2 = ring.fy_basis(2)
    for _ in range(25):
        a, b = rng.choice(deg1), rng.choice(deg2)
        g = rng.choice(group.gens)
        lhs = ring.deg_top(mono_mul(ring.act(g, a), ring.act(g, b)))
        assert lhs == ring.deg_top(mono_mul(a, b))


def test_inhomogeneous_degree_raises():
    ring = ring_b3()
    mixed = ring.normal_form({(): 1, ((ring.top_var, 1),): 1})
    with pytest.raises(ChowError):
        mixed.degree()
