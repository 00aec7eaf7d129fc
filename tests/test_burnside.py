import sys

import pytest

from chowring.burnside import (
    BadIndices, BurnsideContext, GroupMismatch, GSet, SubgroupRegistry,
    burnside_geq, decompose, marks_consistent, pf2_minor_check,
    pf2_quadruples, product, young_stabilizer_audit,
)
from chowring.chow import chow_ring
from chowring.cli import main
from chowring.corpus import corpus_matroid
from chowring.matroid import boolean, graphic, uniform
from chowring.perm import (NotFullSymmetricGroup, are_conjugate_subgroups,
                           conjugate, matroid_automorphisms, symmetric_group,
                           trivial_group)


def ctx_for(m):
    return BurnsideContext(chow_ring(m), matroid_automorphisms(m))


def test_fy1_b3_decomposition():
    ctx = ctx_for(boolean(3))
    d = ctx.decompose_degrees((1,))
    # one fixed point (the top class) and one 3-element orbit
    by_order = {ctx.registry.order_of(i): c for i, c in d.coeffs.items()}
    assert by_order == {6: 1, 2: 1}
    assert d.cardinality() == 4


def test_fy1_b4_three_young_orbits():
    ctx = ctx_for(boolean(4))
    d = ctx.decompose_degrees((1,))
    names = sorted(ctx.registry.describe(i) for i in d.coeffs)
    assert names == ["S(2,2)", "S(3,1)", "S(4)"]
    assert all(c == 1 for c in d.coeffs.values())


def test_trivial_group_decomposition():
    g = trivial_group(3)
    reg = SubgroupRegistry(g)
    x = GSet(g, tuple(range(5)), lambda p, v: v)
    d = decompose(x, reg)
    assert d.cardinality() == 5
    assert list(d.coeffs.values()) == [5]


def test_product_with_point():
    g = symmetric_group(3)
    reg = SubgroupRegistry(g)
    x = GSet(g, tuple(range(3)), lambda p, v: p[v])
    pt = GSet(g, ("*",), lambda p, v: v)
    d_xp = decompose(product(x, pt), reg)
    d_x = decompose(x, reg)
    assert d_xp.coeffs == d_x.coeffs


def test_disjoint_union_additivity_and_marks():
    g = symmetric_group(3)
    reg = SubgroupRegistry(g)
    x = GSet(g, tuple(range(3)), lambda p, v: p[v])
    d = decompose(x, reg)
    assert marks_consistent(x, d)
    xx = product(x, x)
    dxx = decompose(xx, reg)
    assert marks_consistent(xx, dxx)
    assert dxx.cardinality() == 9


def test_group_mismatch():
    g3 = symmetric_group(3)
    g4 = symmetric_group(4)
    x = GSet(g3, (0, 1, 2), lambda p, v: p[v])
    y = GSet(g4, (0, 1, 2, 3), lambda p, v: p[v])
    with pytest.raises(GroupMismatch):
        product(x, y)
    d3 = decompose(x, SubgroupRegistry(g3))
    d4 = decompose(y, SubgroupRegistry(g4))
    with pytest.raises(GroupMismatch):
        d3 + d4


def test_b3_square_minus_fixed_point_nonnegative():
    # [FY1]^2 - [FY0][FY2] decomposes as a genuine 15-element difference
    ctx = ctx_for(boolean(3))
    big = ctx.decompose_degrees((1, 1))
    small = ctx.decompose_degrees((0, 2))
    ok, witness = burnside_geq(big, small)
    assert ok and witness is None
    assert (big - small).cardinality() == 16 - 1


def test_relabeling_invariance():
    # decomposition depends only on the isomorphism class of the G-set
    m = boolean(3)
    ring = chow_ring(m)
    g = matroid_automorphisms(m)
    reg = SubgroupRegistry(g)
    basis = ring.fy_basis(1)
    x = GSet(g, basis, lambda p, mo: ring.act(p, mo))
    relabeled = GSet(g, tuple(reversed(basis)), lambda p, mo: ring.act(p, mo))
    assert decompose(x, reg).coeffs == decompose(relabeled, reg).coeffs


def test_pf2_quadruple_validation():
    ctx = ctx_for(boolean(3))
    with pytest.raises(BadIndices):
        pf2_minor_check(ctx, 1, 0, 1, 2)
    with pytest.raises(BadIndices):
        pf2_minor_check(ctx, 0, 1, 1, 3)


def test_pf2_b4_crosscheck():
    ctx = ctx_for(boolean(4))
    rep = pf2_minor_check(ctx, 1, 2, 2, 3)
    assert rep["passed"]
    rep = pf2_minor_check(ctx, 0, 1, 1, 2)
    assert rep["passed"]


def test_pf2_degenerate_equality():
    ctx = ctx_for(boolean(3))
    rep = pf2_minor_check(ctx, 1, 1, 2, 2)
    assert rep["passed"]
    assert rep["difference"] == "0"


def test_young_audit_b3_and_b4():
    ctx = ctx_for(boolean(3))
    rep = young_stabilizer_audit(ctx, 0, 1, 1, 2)
    assert rep["passed"]
    shapes = dict((tuple(lam), c) for lam, c in rep["young_shapes"])
    assert shapes == {(2, 1): 3, (1, 1, 1): 1}
    ctx4 = ctx_for(boolean(4))
    for quad in pf2_quadruples(3):
        assert young_stabilizer_audit(ctx4, *quad)["passed"]


def test_young_audit_needs_symmetric_group():
    ctx = ctx_for(graphic([(0, 1), (0, 2), (0, 3), (0, 4),
                           (1, 2), (2, 3), (3, 4), (4, 1)]))
    with pytest.raises(NotFullSymmetricGroup):
        young_stabilizer_audit(ctx, 0, 1, 1, 2)


def test_pf2_full_battery_rank4():
    for m in (boolean(4), uniform(4, 5)):
        ctx = ctx_for(m)
        for quad in pf2_quadruples(ctx.ring.r):
            assert pf2_minor_check(ctx, *quad)["passed"], quad


def test_quadruple_enumeration():
    quads = pf2_quadruples(2)
    assert (0, 1, 1, 2) in quads
    assert all(i + l == j + k and i <= j <= k <= l <= 2
               for i, j, k, l in quads)


# -- the Mackey engine against the generic orbit listing ----------------------

# uniform(3,7) is the first with two Young classes of one order under S_n:
# S(3,2,2) and S(4,1,1,1) both have order 24
CROSS_CHECK_DOCS = ("boolean(3)", "boolean(4)", "uniform(4,5)", "uniform(4,6)",
                    "uniform(3,7)", "graphic(K4)", "graphic(W4)", "graphic(K5)")


def c7_c8_keys(r):
    """The products C7 and C8 decompose, in their order, as the context
    normalizes them (zero degrees dropped, the rest sorted)."""
    wanted = [d for i, j, k, l in pf2_quadruples(r) for d in ((j, k), (i, l))]
    wanted += [(1, 1, 1), (3,), (1, 2), (2, 1)]
    keys = []
    for degrees in wanted:
        key = tuple(sorted(d for d in degrees if d)) or (0,)
        if key not in keys:
            keys.append(key)
    return keys


def fy_product_gset(ring, group, key):
    """FY^key[0] x FY^key[1] x ..., listed tuple by tuple."""
    out = None
    for k in key:
        factor = GSet(group, ring.fy_basis(k) if k <= ring.r else (), ring.act)
        out = factor if out is None else product(out, factor)
    return out


@pytest.mark.parametrize("doc", CROSS_CHECK_DOCS)
def test_engine_matches_generic_decompose(doc):
    ctx = ctx_for(corpus_matroid(doc))
    oracle = SubgroupRegistry(ctx.group)
    for key in c7_c8_keys(ctx.ring.r):
        fast = ctx.decompose_degrees(key)
        slow = decompose(fy_product_gset(ctx.ring, ctx.group, key), oracle)
        assert list(fast.coeffs.items()) == list(slow.coeffs.items()), key
    assert [len(h) for h in ctx.registry.classes] == \
        [len(h) for h in oracle.classes]


@pytest.mark.parametrize("doc, key", [("boolean(3)", (1, 2)),
                                      ("graphic(K4)", (1, 1))])
def test_engine_products_pass_marks_audit(doc, key):
    ctx = ctx_for(corpus_matroid(doc))
    belt = ctx.decompose_degrees(key)
    assert marks_consistent(fy_product_gset(ctx.ring, ctx.group, key), belt)


def test_engine_caches_whole_conjugacy_classes(monkeypatch, capsys):
    # each new class's conjugates are cached, so no stabilizer ever needs the
    # transporter search or the invariant prefilter; make both raise
    def refuse(*args):
        raise AssertionError("conjugacy search in a production path")

    for name, module in list(sys.modules.items()):
        if name == "chowring" or name.startswith("chowring."):
            for attr in ("are_conjugate_subgroups", "subgroup_invariant"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    for doc in ("graphic(K5)", "graphic(W4)"):
        for argv in (["burnside", "pf2", doc], ["koszul", "check-3x3", doc]):
            assert main(argv) == 0, argv
    for doc in ("uniform(4,6)", "graphic(K5)"):
        ctx = ctx_for(corpus_matroid(doc))
        for key in c7_c8_keys(ctx.ring.r):
            ctx.decompose_degrees(key)
    assert len(ctx.registry.classes) == 10  # graphic(K5)


@pytest.mark.parametrize("doc", ("boolean(4)", "graphic(K4)", "graphic(W4)",
                                 "graphic(K5)", "uniform(4,6)"))
def test_class_map_against_transporter_search(doc):
    ctx = ctx_for(corpus_matroid(doc))
    for key in c7_c8_keys(ctx.ring.r):
        ctx.decompose_degrees(key)
    group, classes = ctx.group, ctx.registry.classes
    els = group.elements
    for a in range(len(classes)):
        for b in range(a):
            assert not are_conjugate_subgroups(group, classes[a], classes[b])
    cached = [[] for _ in classes]
    for bits, idx in ctx.registry._index.items():
        cached[idx].append(frozenset(g for i, g in enumerate(els)
                                     if bits >> i & 1))
    for h, conjugates in zip(classes, cached):
        normalizer = sum(1 for g in els if all(conjugate(g, x) in h for x in h))
        assert len(conjugates) == group.order // normalizer
        assert all(are_conjugate_subgroups(group, h, k) for k in conjugates)
