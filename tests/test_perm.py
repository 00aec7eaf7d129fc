from itertools import permutations

import pytest

from chowring.corpus import K5_EDGES, corpus_matroid, corpus_names
from chowring.matroid import boolean, graphic, uniform
from chowring.perm import (
    GroupError, GroupTooLarge, NotFullSymmetricGroup, are_conjugate_subgroups,
    compose, conjugate, cycle_type, from_cycles, group_from_generators, identity,
    inverse, is_young_subgroup, matroid_automorphisms, mulclose, orbit,
    perm_mask, perm_str, stabilizer, symmetric_group, trivial_group,
)


def test_group_from_generators_symmetric5():
    g = group_from_generators(5, [from_cycles(5, [(0, 1)]),
                                  from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert g.order == 120


def test_trivial_and_cyclic():
    assert trivial_group(4).order == 1
    c3 = group_from_generators(3, [from_cycles(3, [(0, 1, 2)])])
    assert c3.order == 3
    assert len(c3.conjugacy_classes()) == 3
    # an identity generator, also the only permutation of one point
    one = group_from_generators(1, [(0,)])
    assert one.conjugacy_classes() == (((0,), frozenset({(0,)})),)


def test_not_a_bijection_rejected():
    with pytest.raises(GroupError):
        group_from_generators(3, [(0, 0, 1)])


def test_group_cap():
    with pytest.raises(GroupTooLarge):
        group_from_generators(8, [from_cycles(8, [(0, 1)]),
                                  from_cycles(8, [tuple(range(8))])],
                              cap=1000)


def test_closure_property():
    g = symmetric_group(4)
    els = frozenset(g.elements)
    for a in list(els)[:8]:
        for b in list(els)[:8]:
            assert compose(a, b) in els
            assert inverse(a) in els


def test_aut_cap_is_the_group_order():
    m = uniform(3, 7)
    with pytest.raises(GroupTooLarge, match="group exceeds cap 5039"):
        matroid_automorphisms(m, cap=5039)
    assert matroid_automorphisms(m, cap=5040).order == 5040


def _greedy_generators(elements, n):
    """Each element, in sorted order, that is not in the span of those kept
    before it; the span is closed from scratch every time."""
    gens, span = [], {identity(n)}
    for g in sorted(elements):
        if g not in span:
            gens.append(g)
            span = mulclose(gens, n, cap=len(elements))
    return tuple(gens)


def _brute_force_automorphisms(m):
    # big flats first: a non-automorphism usually fails on its first test
    flats = sorted(m.flats, key=lambda f: -bin(f).count("1"))
    flat_set = set(flats)
    return {p for p in permutations(range(m.n))
            if all(perm_mask(p, f) in flat_set for f in flats)}


@pytest.mark.parametrize("name", [name for name in corpus_names()
                                  if corpus_matroid(name).n <= 6]
                         + ["graphic(W4)", "uniform(3,7)"])
def test_aut_matches_brute_force(name):
    m = corpus_matroid(name)
    group = matroid_automorphisms(m)
    expected = _brute_force_automorphisms(m)
    assert set(group.elements) == expected
    assert group.gens == _greedy_generators(expected, m.n)


def test_aut_k5_is_s5_on_edges():
    m = graphic(K5_EDGES)
    index = {e: i for i, e in enumerate(K5_EDGES)}
    induced = {tuple(index[tuple(sorted((s[a], s[b])))] for a, b in K5_EDGES)
               for s in permutations(range(5))}
    group = matroid_automorphisms(m)
    assert len(induced) == 120
    assert set(group.elements) == induced
    assert group.gens == _greedy_generators(induced, m.n)


def test_aut_u45_is_s5():
    assert matroid_automorphisms(uniform(4, 5)).order == 120


def test_aut_boolean4():
    assert matroid_automorphisms(boolean(4)).order == 24


def test_aut_path_two_edges():
    # two coloop edges: exactly the swap
    g = matroid_automorphisms(graphic([(0, 1), (1, 2)]))
    assert g.order == 2


def test_aut_preserves_rank():
    m = graphic([(0, 1), (1, 2), (0, 2), (0, 3)])
    g = matroid_automorphisms(m)
    from chowring.perm import perm_mask
    for p in g.elements:
        for f in m.flats:
            assert m.rank_of[perm_mask(p, f)] == m.rank_of[f]


def test_orbit_stabilizer_theorem():
    m = uniform(4, 5)
    g = matroid_automorphisms(m)
    from chowring.perm import perm_mask
    act = lambda p, f: perm_mask(p, f)
    f12 = 0b00011
    orb = orbit(g, f12, act)
    stab = stabilizer(g, f12, act)
    assert len(orb) == 10
    assert len(orb) * stab.order == g.order
    full = (1 << 5) - 1
    assert stabilizer(g, full, act).order == g.order


def test_s4_conjugacy_classes():
    g = symmetric_group(4)
    sizes = sorted(len(c) for _, c in g.conjugacy_classes())
    assert sizes == [1, 3, 6, 6, 8]


@pytest.mark.parametrize("name", corpus_names())
def test_conjugacy_classes_are_orbits_under_conjugation(name):
    """The classes from the per-generator index maps are the orbits of
    `conjugate`, with the same minimal representatives, in the same order."""
    g = matroid_automorphisms(corpus_matroid(name))
    unseen, classes = set(g.elements), []
    for x in g.elements:
        if x in unseen:
            cls = frozenset(orbit(g, x, conjugate))
            unseen -= cls
            classes.append((x, cls))
    assert g.conjugacy_classes() == tuple(classes)


def test_conjugate_point_stabilizers():
    g = symmetric_group(4)
    act = lambda p, x: p[x]
    s0 = stabilizer(g, 0, act)
    s1 = stabilizer(g, 1, act)
    assert are_conjugate_subgroups(g, s0, s1)


def test_cyclic_vs_klein_distinguished():
    g = symmetric_group(4)
    c4 = group_from_generators(4, [from_cycles(4, [(0, 1, 2, 3)])])
    klein = group_from_generators(4, [from_cycles(4, [(0, 1)]),
                                      from_cycles(4, [(2, 3)])])
    assert c4.order == klein.order == 4
    assert not are_conjugate_subgroups(g, c4, klein)


def test_subgroups_of_different_order_not_conjugate():
    g = symmetric_group(3)
    h = group_from_generators(3, [from_cycles(3, [(0, 1)])])
    assert not are_conjugate_subgroups(g, h, g)


def test_conjugacy_symmetric_on_stabilizer_pairs():
    g = symmetric_group(4)
    act = lambda p, x: p[x]
    subs = [stabilizer(g, x, act) for x in range(4)]
    for a in subs:
        for b in subs:
            assert are_conjugate_subgroups(g, a, b) == \
                are_conjugate_subgroups(g, b, a)


def test_young_subgroup_detection():
    g = symmetric_group(4)
    act = lambda p, s: frozenset(p[x] for x in s)
    h = stabilizer(g, frozenset([0, 1]), act)
    assert is_young_subgroup(g, h) == (2, 2)
    assert is_young_subgroup(g, trivial_group(4)) == (1, 1, 1, 1)
    c4 = group_from_generators(4, [from_cycles(4, [(0, 1, 2, 3)])])
    assert is_young_subgroup(g, c4) is None
    with pytest.raises(NotFullSymmetricGroup):
        is_young_subgroup(c4, c4)


def test_perm_str_and_cycle_type():
    p = from_cycles(5, [(0, 1, 2), (3, 4)])
    assert cycle_type(p) == (3, 2)
    assert perm_str(p) == "(1 2 3)(4 5)"
    assert perm_str(identity(4)) == "()"
