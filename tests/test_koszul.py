import pytest

from chowring.chow import chow_ring, mono_mul
from chowring.corpus import K5_EDGES, W4_EDGES
from chowring.koszul import (
    CaseMap, DegreeMismatch, KoszulError, UnmatchedCase, audit_rule_shapes,
    injection_2x2, injection_3x3, move_tables, parse_rules, rules_3x3,
    verify_injection,
)
from chowring.matroid import boolean, graphic, mask_of, uniform
from chowring.perm import matroid_automorphisms


def test_rules_parse_and_are_two_sided():
    rules = rules_3x3()
    assert len(rules) > 40
    assert {r.side for r in rules} == {"A", "B"}


def test_parse_rules_compiles_guards():
    (rule,) = parse_rules("A | x | y z | d(x,y)=1, r>=3 | (x, y, z)")
    assert rule.guards == (("rel", ("x", "y"), "=", "<"),
                           ("rel", ("y", "z"), "=", "<"),
                           ("d", ("x", "y"), "=", 1), ("r", (), ">=", 3))
    assert rule.shape == ("A", ((False, 1),), ((False, 1), (False, 1)))
    (rule,) = parse_rules("B | x E | w | always | (E, x, w)")
    assert rule.guards == (("rel", ("w", "x"), "=", "~"),)
    assert rule.shape == ("B", ((False, 1), (True, 1)), ((False, 1),))


@pytest.mark.parametrize("line", [
    "A | x | y z | rk(x)<2 | (x, y, z)",
    "A | x | y z | cork(x)!=2 | (x, y, z)",
    "A | x | y z | d(x)=1 | (x, y, z)",
    "A | x | y z | rk(q)=2 | (x, y, z)",    # q names no factor
    "A | x | y z | always | x y z",
    "A | x | y z | always | (x, y)",
    "A | x | y z | always | (x, y, q)",
])
def test_parse_rules_rejects_bad_guards_and_targets(line):
    with pytest.raises(KoszulError):
        parse_rules(line)


# one rule per guard form of the data file's header, with a binding (letter
# -> 0-based flat of boolean(5), where rk(E) = 5) that passes every guard of
# the rule and one that fails exactly the guard under test
@pytest.mark.parametrize("line, accept, reject", [
    ("A | x | x y | rk(x)=2 | (x, y, x)",
     {"x": [0, 1], "y": [0, 1, 2]}, {"x": [0], "y": [0, 1, 2]}),
    ("A | x | x y | rk(x)>=3 | [x x y]",
     {"x": [0, 1, 2], "y": [0, 1, 2, 3]}, {"x": [0, 1], "y": [0, 1, 2, 3]}),
    ("A | E | x E | rk(x)!=3 | (E, x, E)", {"x": [0, 1]}, {"x": [0, 1, 2]}),
    ("A | E | x y | cork(y)=1 | (E, x, y)",
     {"x": [0], "y": [0, 1, 2, 3]}, {"x": [0], "y": [0, 1, 2]}),
    ("A | E | x y | cork(y)>=2 | [x y E]",
     {"x": [0], "y": [0, 1, 2]}, {"x": [0], "y": [0, 1, 2, 3]}),
    ("A | x | y z | d(x,y)=1 | (x, y, z)",
     {"x": [0], "y": [0, 1], "z": [0, 1, 2]},
     {"x": [0], "y": [0, 1, 2], "z": [0, 1, 2, 3]}),
    ("A | x | y z | d(x,y)>=2 | [x y z]",
     {"x": [0], "y": [0, 1, 2], "z": [0, 1, 2, 3]},
     {"x": [0], "y": [0, 1], "z": [0, 1, 2]}),
    ("A | u | x y | u<y | (u, x, y)",
     {"u": [1], "x": [0], "y": [0, 1, 2]}, {"u": [3], "x": [0], "y": [0, 1, 2]}),
    ("A | u | x y | u>x | (u, x, y)",
     {"u": [0, 3], "x": [0], "y": [0, 1]}, {"u": [3], "x": [0], "y": [0, 1]}),
    ("A | u | x y | u~x | (u, x, y)",
     {"u": [1], "x": [0], "y": [0, 1]}, {"u": [0, 1], "x": [0], "y": [0, 1, 2]}),
    # always: only the letter conventions, x < y < z and w incomparable
    ("A | x | y z | always | (x, y, z)",
     {"x": [0], "y": [0, 1], "z": [0, 1, 2]},
     {"x": [0], "y": [1, 2], "z": [0, 1, 2]}),
    ("A | w | x y | always | (w, x, y)",
     {"w": [3], "x": [0], "y": [0, 1]}, {"w": [0, 1, 2], "x": [0], "y": [0, 1]}),
])
def test_guard_forms_accept_and_reject(line, accept, reject):
    ring = chow_ring(boolean(5))
    cmap = CaseMap(ring)
    (rule,) = parse_rules(line)

    def binding(sets):
        return {sym: ring.var_index[mask_of(elems)]
                for sym, elems in sets.items()}

    assert cmap._guards_ok(rule, binding(accept))
    assert not cmap._guards_ok(rule, binding(reject))


def test_rank_guard_reads_the_ring():
    (rule,) = parse_rules("A | E | E^2 | r>=4 | [E E E]")
    assert CaseMap(chow_ring(boolean(5)))._guards_ok(rule, {})
    assert not CaseMap(chow_ring(boolean(4)))._guards_ok(rule, {})


def test_2x2_split_example():
    # x_F x_F'^2 with j=2, k=1 splits as (x_F x_F', x_F')
    ring = chow_ring(boolean(5))
    f = mask_of([0, 1])
    fp = mask_of([0, 1, 2, 3])
    a = ring.monomial([(f, 1), (fp, 2)])
    b, c = injection_2x2(ring, 2, 1, a)
    assert b == ring.monomial([(f, 1), (fp, 1)])
    assert c == ring.monomial([(fp, 1)])
    assert mono_mul(b, c) == a


def test_2x2_split_j_zero_and_errors():
    ring = chow_ring(boolean(4))
    a = ring.fy_basis(2)[0]
    assert injection_2x2(ring, 0, 2, a) == ((), a)
    with pytest.raises(DegreeMismatch):
        injection_2x2(ring, 1, 2, a)


def test_2x2_refinement_associativity():
    # splitting (2,1) then (1,1) on the left factor equals splitting (1,2)
    # then (1,1) on the right factor
    ring = chow_ring(boolean(5))
    for a in ring.fy_basis(3):
        b, c = injection_2x2(ring, 2, 1, a)
        b1, b2 = injection_2x2(ring, 1, 1, b)
        left = (b1, b2, c)
        d, e = injection_2x2(ring, 1, 2, a)
        e1, e2 = injection_2x2(ring, 1, 1, e)
        right = (d, e1, e2)
        assert left == right


def test_2x2_verify_on_corpus_samples():
    for m in (boolean(4), uniform(4, 6), uniform(2, 5)):
        ring = chow_ring(m)
        group = matroid_automorphisms(m)
        rep = verify_injection(ring, group, which="2x2")
        assert rep["passed"]


def test_3x3_examples_from_the_case_table():
    # proper flats with consecutive rank gaps of 2 need a rank-7 Boolean
    ring7 = chow_ring(boolean(7))
    x = mask_of([0, 1])
    y = mask_of([0, 1, 2, 3])
    z = mask_of([0, 1, 2, 3, 4, 5])
    c1 = ring7.monomial([(x, 1)])
    c2 = ring7.monomial([(y, 1), (z, 1)])
    kind, payload = injection_3x3(ring7, "A", c1, c2)
    assert kind == "M"
    assert payload == ring7.monomial([(x, 1), (y, 1), (z, 1)])
    # with a gap of one in front, the image is the triple instead
    x1 = mask_of([0, 1, 2])
    kind, payload = injection_3x3(ring7, "A", ring7.monomial([(x1, 1)]), c2)
    assert kind == "T"

    ring = chow_ring(boolean(5))
    top = ring.matroid.full
    # (x_E, x_E^2) -> x_E^3
    kind, payload = injection_3x3(ring, "A", ring.monomial([(top, 1)]),
                                  ring.monomial([(top, 2)]))
    assert kind == "M" and payload == ring.monomial([(top, 3)])
    # (x_F x_E, x_F) with cork(F) = 2 -> the triple (F, E, F)
    w = mask_of([0, 1, 2])
    c1 = ring.monomial([(w, 1), (top, 1)])
    c2 = ring.monomial([(w, 1)])
    kind, payload = injection_3x3(ring, "B", c1, c2)
    assert kind == "T"
    assert payload == (ring.monomial([(w, 1)]), ring.monomial([(top, 1)]),
                       ring.monomial([(w, 1)]))


def test_3x3_total_and_injective_rank_le_4():
    for m in (boolean(4), uniform(4, 5), uniform(3, 5), uniform(2, 4),
              graphic([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])):
        ring = chow_ring(m)
        group = matroid_automorphisms(m)
        rep = verify_injection(ring, group)
        if m.rank >= 4 or m.rank <= 2:
            assert rep["passed"], (m, rep)
        else:
            # rank 3: the one unmatched source and the negative minor
            assert len(rep["unmatched"]) == 1
            assert not rep["minor_nonnegative"]


def test_3x3_domain_size_u45():
    m = uniform(4, 5)
    ring = chow_ring(m)
    rep = verify_injection(ring, matroid_automorphisms(m), check_minor=False)
    assert rep["domain"] == 2 * 21 * 21
    assert rep["passed"]


def test_3x3_rank_one_vacuous():
    m = boolean(1)
    ring = chow_ring(m)
    rep = verify_injection(ring, matroid_automorphisms(m), check_minor=False)
    assert rep["domain"] == 0 and rep["passed"]


def test_3x3_rank5_documented_gaps_only():
    m = boolean(5)
    ring = chow_ring(m)
    group = matroid_automorphisms(m)
    rep = verify_injection(ring, group)
    assert not rep["ambiguous"] and not rep["collisions"]
    assert not rep["invalid"] and not rep["equivariance_failures"]
    # the gaps are exactly (E, x_F x_E) and (x_F x_E, E) over rank-3 flats
    top = ring.top_var
    expected = set()
    for vi in range(ring.nvars):
        if ring.vrank[vi] == 3:
            pe = ((vi, 1), (top, 1))
            e1 = ((top, 1),)
            expected.add(("A", e1, pe))
            expected.add(("B", pe, e1))
    assert set(rep["unmatched"]) == expected
    # the Burnside minor itself still holds by direct decomposition
    assert rep["minor_nonnegative"]


def test_3x3_minor_negative_on_rank3():
    m = boolean(3)
    ring = chow_ring(m)
    rep = verify_injection(ring, matroid_automorphisms(m))
    assert not rep["minor_nonnegative"]
    # the failing coefficient sits at the full-group class: the target has
    # one G-fixed point, the sources have two
    assert rep["minor_witness"] == "S(3)"


def test_rule_audit_exhaustive_up_to_rank_4():
    audit = audit_rule_shapes(max_rank=4)
    assert audit["conflicts"] == []
    # the single documented gap below rank 5: (E, E^2) when FY3 is empty
    assert audit["gaps"] == [(3, "A", "x_E", "x_E^2")]


def test_rule_audit_gap_shapes_at_rank_5():
    audit = audit_rule_shapes(max_rank=5)
    assert audit["conflicts"] == []
    for n, side, c1, c2 in audit["gaps"]:
        assert n in (3, 5)
        assert "x_E" in c1 and "x_E" in c2


def test_unmatched_raises():
    ring = chow_ring(boolean(3))
    top = ring.top_var
    with pytest.raises(UnmatchedCase):
        injection_3x3(ring, "A", ((top, 1),), ((top, 2),))


def _sources(ring):
    fy1 = ring.fy_basis(1)
    fy2 = ring.fy_basis(2)
    return ([("A", a, b) for a in fy1 for b in fy2]
            + [("B", b, a) for b in fy2 for a in fy1])


@pytest.mark.parametrize("m", [boolean(5), uniform(4, 6), graphic(K5_EDGES),
                               graphic(W4_EDGES)],
                         ids=["boolean(5)", "uniform(4,6)", "graphic(K5)",
                              "graphic(W4)"])
def test_memoised_dispatch_equals_per_rule_scan(m):
    ring = chow_ring(m)
    cmap = CaseMap(ring)
    top = ring.top_var
    sources = _sources(ring)
    for side, c1, c2 in sources:
        shape = (side,) + tuple(tuple((vi == top, e) for vi, e in comp)
                                for comp in (c1, c2))
        expected = []
        for rule in rules_3x3():
            if rule.shape != shape:
                continue
            binding = cmap._bind(rule, c1, c2)
            if binding is not None and cmap._guards_ok(rule, binding):
                expected.append((rule, binding))
        assert cmap.matches(side, c1, c2) == expected
    # the memo is keyed by source type, so it holds far fewer entries than
    # there are sources
    assert len(cmap._by_type) * 10 < len(sources)


@pytest.mark.parametrize("m", [graphic(K5_EDGES), uniform(4, 6)],
                         ids=["graphic(K5)", "uniform(4,6)"])
def test_equivariance_sweep_catches_an_identity_dependent_image(
        m, monkeypatch):
    ring = chow_ring(m)
    group = matroid_automorphisms(m)
    assert verify_injection(ring, group, check_minor=False)["passed"]
    image = CaseMap.image

    def skewed(self, rule, binding):
        # send the first proper letter to the lowest-index flat of its rank:
        # a choice by identity, which no automorphism respects
        binding = dict(binding)
        sym = next((sym for sym in binding if sym != "E"), None)
        if sym is not None:
            rank = self.ring.vrank[binding[sym]]
            binding[sym] = self.ring.vrank.index(rank)
        return image(self, rule, binding)

    monkeypatch.setattr(CaseMap, "image", skewed)
    rep = verify_injection(ring, group, check_minor=False)
    assert rep["equivariance_failures"]
    assert not rep["passed"]


def test_move_tables_fall_back_to_act_outside_the_table():
    m = uniform(4, 6)
    ring = chow_ring(m)
    tables = move_tables(ring, matroid_automorphisms(m), (1, 2))
    atom = ((ring.vrank.index(1), 1),)  # a rank-1 flat: not in FY1
    for g, move in tables:
        assert set(move) == set(ring.fy_basis(1)) | set(ring.fy_basis(2))
        assert all(move[mono] == ring.act(g, mono) for mono in move)
        assert atom not in move and move[atom] == ring.act(g, atom)
