import json
import os
import random
import shlex
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from chowring.burnside import BurnsideContext
from chowring.chow import chow_ring
from chowring.cli import load_group, main
from chowring.corpus import corpus_matroid
from chowring.perm import matroid_automorphisms
from test_burnside import assert_class_map, c7_c8_keys

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_matroid_info(capsys):
    code, out = run(capsys, "matroid", "info", "uniform(4,5)")
    assert code == 0
    assert "rank: 4" in out
    assert "aut_order: 120" in out


def test_chow_hilbert_line(capsys):
    code, out = run(capsys, "chow", "hilbert", "uniform(4,5)")
    assert code == 0
    assert "1 21 21 1" in out


def test_inline_json_flats_one_based(capsys):
    doc = json.dumps({"ground_set": 3,
                      "flats": [[], [1], [2], [3], [1, 2], [1, 3], [2, 3],
                                [1, 2, 3]]})
    code, out = run(capsys, "chow", "hilbert", doc)
    assert code == 0
    assert "1 4 1" in out


def test_bases_document(capsys):
    doc = json.dumps({"ground_set": 3, "bases": [[1, 2], [1, 3], [2, 3]]})
    code, out = run(capsys, "chow", "hilbert", doc)
    assert code == 0


def test_bad_document_exit_2(capsys):
    code = main(["chow", "hilbert", '{"ground_set": 2, "flats": [[1]]}'])
    assert code == 2
    code = main(["chow", "hilbert", "no-such-file.json"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("burnside", "pf2", "boolean(3)", "--quadruple", "3", "2", "1", "0"),
    ("burnside", "decompose", "boolean(3)", "--degree", "-1"),
    ("burnside", "decompose", "boolean(3)", "--degree", "5"),
    ("burnside", "young-audit", "boolean(3)", "--quadruple", "0", "1", "1", "3"),
    ("chow", "basis", "boolean(3)", "--degree", "7"),
    ("verify", "all", '{"ground_set": 3, "bases": [[1, 2]]}'),
    ("chow", "hilbert", '{"ground_set": 3, "bases": [[1, 2]]}'),
    ("chow", "hilbert", '{"type": "uniform", "n": 5}'),
    ("chow", "hilbert", '{"type": "uniform", "n": 5, "rank": "4"}'),
    ("chow", "hilbert", '{"type": "uniform", "rank": 4, "n": 9}'),
    ("chow", "hilbert", "boolean(3)", "--group", "no-such-group.json"),
    ("chow", "lefschetz", "boolean(3)", "--omega", "no-such-omega.json"),
    ("char", "genuine", "boolean(3)", "--minor", "0,1"),
    ("char", "genuine", "boolean(3)", "--minor", "0,1:1"),
    ("char", "genuine", "boolean(3)", "--minor", "a:b"),
    ("char", "toeplitz", "boolean(3)", "--composition", "x"),
    ("char", "toeplitz", "boolean(3)", "--composition", "0,1"),
    ("char", "pf", "boolean(3)", "--level", "x"),
    ("char", "pf", "boolean(3)", "--level", "0"),
    ("char", "pf", "boolean(3)", "--level", "1001"),
    ("char", "toeplitz", "boolean(3)", "--composition", ",".join(["1"] * 101)),
    ("char", "genuine", "boolean(3)", "--minor",
     ",".join(["0"] * 101) + ":" + ",".join(["1"] * 101)),
])
def test_input_errors_exit_2(capsys, argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")


def _generated_documents(seed=1, count=24):
    """Small random bases documents (n <= 4; some fail basis exchange or
    have loops), each also with one character deleted or replaced, which
    mostly makes malformed JSON."""
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        n = rng.randint(1, 4)
        subsets = [list(c) for c in combinations(range(1, n + 1),
                                                 rng.randint(0, n))]
        bases = rng.sample(subsets, rng.randint(1, len(subsets)))
        doc = json.dumps({"ground_set": n, "bases": bases})
        cut = rng.randrange(len(doc))
        docs += [doc, doc[:cut] + rng.choice(["", "]", "}", ",", "0", "x"])
                 + doc[cut + 1:]]
    return docs


def test_generated_documents_keep_the_exit_code_contract(capsys):
    codes = set()
    for doc in _generated_documents():
        for command in (("chow", "hilbert"), ("verify", "all")):
            code = main([*command, doc, "--json"])
            out, err = capsys.readouterr()
            codes.add(code)
            assert code in (0, 1, 2) and "Traceback" not in err, (command, doc)
            if code == 2:
                assert err.startswith("error: ") and not out, (command, doc)
            else:
                checks = json.loads(out).get("checks", [])
                assert (code == 1) == any(not c["passed"] for c in checks), \
                    (command, doc)
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("flag, content, commands", [
    ("--group", {"degree": 3},
     [("chow", "hilbert", "boolean(3)", "needs an integer 'degree'")]),
    ("--group", [1, 2],
     [("chow", "hilbert", "boolean(3)", "must be a JSON object")]),
    ("--omega", [{"c": 1}],
     [("chow", "lefschetz", "boolean(3)", "must be a list of objects")]),
    ("--omega", [{"set": [1], "c": 1}],
     [("chow", "lefschetz", "boolean(3)", "submodularity fails")]),
    # (1 5) moves the flat {4, 5} of the wheel to {1, 4}, which is no flat
    ("--group", {"degree": 8, "generators": [[5, 2, 3, 4, 1, 6, 7, 8]]},
     [(*argv, "graphic(W4)", "does not preserve the flats")
      for argv in (("chow", "hilbert"), ("verify", "all"),
                   ("burnside", "decompose"))]),
    # a group file names its generators; 'auto' is only a --group value
    ("--group", {"auto": True},
     [("chow", "hilbert", "boolean(3)", "needs an integer 'degree'")]),
])
def test_bad_group_and_omega_files_exit_2(tmp_path, capsys, flag, content,
                                          commands):
    """Each command, with the file, exits 2 and names the flaw."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    for *argv, message in commands:
        code = main([*argv, flag, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err, err


GROUP_FILE_DOCS = ("boolean(4)", "uniform(4,6)", "graphic(K4)")
GROUP_FLAWS = ("perm", "repeat", "length", "zero", "text", "degree", "missing")


def _generated_group_files(seed=5, count=40):
    """Fixed-seed --group documents, each with its matroid: up to three
    random automorphisms as generators, in about half of them with one flaw
    added: a random permutation (no automorphism of graphic(K4), mostly), a
    repeated or an extra point, 0-based points, a string point, a wrong
    degree or no generators."""
    rng = random.Random(seed)
    files = []
    for _ in range(count):
        doc = rng.choice(GROUP_FILE_DOCS)
        group = matroid_automorphisms(corpus_matroid(doc))
        n = group.n
        gens = [[x + 1 for x in g]
                for g in rng.sample(group.elements, rng.randint(0, 3))]
        payload = {"degree": n, "generators": gens}
        flaw = rng.choice((None,) * len(GROUP_FLAWS) + GROUP_FLAWS)
        if flaw == "perm":
            gens.append(rng.sample(range(1, n + 1), n))
        elif flaw and not gens:
            gens.append(list(range(1, n + 1)))
        if flaw == "repeat":
            gens[0][0] = gens[0][1]
        elif flaw == "length":
            gens[0].append(n + 1)
        elif flaw == "zero":
            gens[0] = [x - 1 for x in gens[0]]
        elif flaw == "text":
            gens[0][0] = str(gens[0][0])
        elif flaw == "degree":
            payload["degree"] = n + rng.choice([-1, 1])
        elif flaw == "missing":
            del payload["generators"]
        files.append((doc, payload))
    return files


def test_generated_group_files_keep_the_exit_code_contract(tmp_path, capsys):
    path = tmp_path / "group.json"
    valid = []
    for doc, payload in _generated_group_files():
        path.write_text(json.dumps(payload))
        codes = []
        for command in (("chow", "hilbert"), ("burnside", "decompose"),
                        ("verify", "all")):
            code = main([*command, doc, "--group", str(path), "--json"])
            out, err = capsys.readouterr()
            codes.append(code)
            assert "Traceback" not in err, (command, doc, payload)
            if code == 2:
                assert err.startswith("error: ") and not out, (command, payload)
            else:
                # graphic(K4) has rank 3: C8 fails on the documented gap
                failed = [c for c in json.loads(out).get("checks", [])
                          if not c["passed"]]
                assert (code == 1) == bool(failed), (command, doc, payload)
                assert all(c.get("known_gap") for c in failed), \
                    (command, doc, payload)
        # all three read the group file first: they all reject it or none
        assert codes[:2] in ([0, 0], [2, 2]) and (codes[2] == 2) == \
            (codes[0] == 2), (doc, payload)
        if codes[0] == 0:
            valid.append(doc)
            m = corpus_matroid(doc)
            ctx = BurnsideContext(chow_ring(m), load_group(str(path), m))
            for key in c7_c8_keys(ctx.ring.r):
                ctx.decompose_degrees(key)
            assert_class_map(ctx)
    assert set(valid) == set(GROUP_FILE_DOCS) and 10 <= len(valid) <= 30


@pytest.mark.parametrize("doc, n", [("boolean(3)", 3), ("boolean(4)", 4)])
def test_claims_about_the_full_symmetric_group_skip_its_subgroups(
        tmp_path, capsys, doc, n):
    # C3 and boolean3-burnside-gamma state facts about S4 and S3; under
    # <(1 2)> they would fail although nothing is wrong
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": n, "generators": [
        [2, 1] + list(range(3, n + 1))]}))
    main(["verify", "all", doc, "--group", str(path), "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    names = {c["name"] for c in checks}
    assert not names & {"boolean4-virtual-character",
                        "boolean3-burnside-gamma"}
    assert all(c["passed"] or c.get("known_gap") for c in checks)
    main(["verify", "all", doc, "--json"])
    names = {c["name"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert names & {"boolean4-virtual-character", "boolean3-burnside-gamma"}


@pytest.mark.parametrize("content, message", [
    # {2} and {3} are the 0-based bitmasks 2 and 4
    ([{"set": [1], "c": 1}],
     "error: --omega rule: submodularity fails at A={2}, B={3}\n"),
    # strictly submodular, but {2,3} has another coefficient than {1,3}
    ([{"set": s, "c": 2} for s in ([1], [2], [3], [1, 2], [1, 3])]
     + [{"set": [2, 3], "c": 3}],
     "error: --omega rule is not fixed by the group: generator (1 2) maps "
     "{1,3} to {2,3}, whose coefficient differs\n"),
])
def test_omega_rule_errors_name_sets(tmp_path, capsys, content, message):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(content))
    code = main(["chow", "lefschetz", "boolean(3)", "--omega", str(path)])
    assert code == 2
    assert capsys.readouterr().err == message


def _generated_omega_tables(seed=3, count=40):
    """Fixed-seed --omega tables over n = 3 and 4: perturbations of the
    default rule |S| * |E - S| (so some stay strictly submodular and some
    do not), some with a bad entry. Each comes with its n."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        n = rng.choice([3, 4])
        table = [{"set": [e + 1 for e in range(n) if s >> e & 1],
                  "c": bin(s).count("1") * (n - bin(s).count("1"))}
                 for s in range(1, 1 << n)]
        for entry in rng.sample(table, rng.randint(0, 2)):
            entry["c"] += rng.randint(-2, 2)
        if rng.random() < 0.15:
            rng.choice(table)["set"] = rng.choice([[0], [n + 1], "1", None])
        tables.append((n, table))
    return tables


def _pair_scan_message(n, table):
    """The --omega error for a table that is not strictly submodular, with
    the witness from the scan over all subset pairs; None if it is."""
    vals = [0] * (1 << n)
    for entry in table:
        vals[sum(1 << (e - 1) for e in entry["set"])] = entry["c"]
    full = (1 << n) - 1
    pairs = [(a, b) for a in range(full + 1) for b in range(a + 1, full + 1)
             if a & b not in (a, b)
             and vals[a] + vals[b] <= vals[a & b] + vals[a | b]]
    if vals[0] or vals[full]:
        pairs.insert(0, (0, full))
    if not pairs:
        return None
    names = ["{" + ",".join(str(e + 1) for e in range(n) if s >> e & 1) + "}"
             for s in pairs[0]]
    return (f"error: --omega rule: submodularity fails at A={names[0]}, "
            f"B={names[1]}\n")


def test_generated_omega_files_keep_the_exit_code_contract(tmp_path, capsys):
    path = tmp_path / "omega.json"
    docs = {3: "boolean(3)", 4: "uniform(3,4)"}
    codes = set()
    for n, table in _generated_omega_tables():
        path.write_text(json.dumps(table))
        for what in ("lefschetz", "hodge-riemann"):
            code = main(["chow", what, docs[n], "--omega", str(path)])
            out, err = capsys.readouterr()
            codes.add(code)
            assert code in (0, 1, 2) and "Traceback" not in err, table
            if code == 2:
                assert err.startswith("error: ") and not out, table
            well_formed = all(isinstance(entry["set"], list)
                              and all(1 <= e <= n for e in entry["set"])
                              for entry in table)
            message = well_formed and _pair_scan_message(n, table)
            if message:
                assert (code, err) == (2, message), table
    assert {0, 2} <= codes


def test_omega_file(tmp_path, capsys):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps([{"set": s, "c": 2} for s in
                                ([1], [2], [3], [1, 2], [1, 3], [2, 3])]))
    code, out = run(capsys, "--json", "chow", "lefschetz", "boolean(3)",
                    "--omega", str(path))
    assert code == 0
    assert all(c["passed"] for c in json.loads(out)["checks"])


def test_json_reports_are_deterministic(capsys):
    code, first = run(capsys, "--json", "char", "genuine", "boolean(4)")
    assert code == 0
    code, second = run(capsys, "--json", "char", "genuine", "boolean(4)")
    assert first == second
    payload = json.loads(first)
    assert payload["minor"]["multiplicities"] == [29, 124, 103, 172, 76]
    assert "NOT a permutation character" in payload["minor"]["verdict"]
    assert "genuine character" in payload["minor"]["verdict"]


def test_scd_maps_table(capsys):
    code, out = run(capsys, "--json", "scd", "maps", "uniform(4,5)",
                    "--check-equivariance")
    assert code == 0
    payload = json.loads(out)
    assert payload["equivariant"] is True
    arrows = {row["monomial"]: row.get("lambda") for row in payload["maps"]
              if row["degree"] == 1}
    assert arrows["x_E"] == "x_E^2"
    assert arrows["x_12"] == "x_12*x_E"
    assert arrows["x_123"] == "x_123^2"


def test_burnside_commands(capsys):
    code, out = run(capsys, "--json", "burnside", "decompose", "boolean(4)",
                    "--degree", "1")
    assert code == 0
    payload = json.loads(out)
    assert "S(2,2)" in payload["decomposition"]
    code, out = run(capsys, "burnside", "pf2", "boolean(3)",
                    "--quadruple", "0", "1", "1", "2")
    assert code == 0
    code, out = run(capsys, "burnside", "young-audit", "boolean(3)")
    assert code == 0


def test_char_gamma_and_pf(capsys):
    code, out = run(capsys, "--json", "char", "gamma", "boolean(3)")
    assert code == 0
    payload = json.loads(out)
    assert all(row["genuine"] for row in payload["gamma"])
    code, out = run(capsys, "char", "pf", "uniform(4,5)", "--level", "inf")
    assert code == 0


@pytest.mark.parametrize("level", ["3", "100"])
def test_char_pf_window_levels(capsys, level):
    code, out = run(capsys, "--json", "char", "pf", "boolean(3)",
                    "--level", level)
    assert code == 0
    pf = json.loads(out)["pf"]
    assert pf["level"] == int(level) and pf["passed"] and pf["mode"] == "evidence"


def test_char_pf_high_level_on_boolean5(capsys):
    code, out = run(capsys, "--json", "char", "pf", "boolean(5)",
                    "--level", "200")
    assert code == 0
    pf = json.loads(out)["pf"]
    assert pf["level"] == 200 and pf["passed"] and pf["mode"] == "evidence"


def test_char_toeplitz(capsys):
    code, out = run(capsys, "--json", "char", "toeplitz", "boolean(4)",
                    "--composition", "1,1,1")
    assert code == 0
    assert json.loads(out)["genuine"] is True


def test_char_toeplitz_with_20_parts_is_quick(capsys):
    """A minor of 20 rows is one 20 x 20 integer determinant per class."""
    t0 = time.perf_counter()
    code, out = run(capsys, "--json", "char", "toeplitz", "boolean(5)",
                    "--composition", ",".join(["1"] * 20))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(out)["genuine"] is True
    assert elapsed < 2.0


def test_koszul_commands_and_exit_codes(capsys):
    code, _ = run(capsys, "koszul", "check-2x2", "boolean(4)")
    assert code == 0
    code, _ = run(capsys, "koszul", "check-3x3", "boolean(4)")
    assert code == 0
    # the rank-3 Boolean matroid is a verified mathematical failure: exit 1
    code, out = run(capsys, "--json", "koszul", "check-3x3", "boolean(3)")
    assert code == 1
    payload = json.loads(out)
    assert payload["minor_nonnegative"] is False


def test_negative_minor_alone_fails_koszul_check_3x3(capsys, monkeypatch):
    """On uniform(4,5) the case table passes; a negative 3x3 Burnside minor
    must still fail the command. (On the corpus a negative minor comes only
    with a failing table, so the real inputs cannot show this.)"""
    import chowring.koszul
    monkeypatch.setattr(chowring.koszul, "minor_3x3", lambda ctx: (False, 0))
    code, out = run(capsys, "--json", "koszul", "check-3x3", "uniform(4,5)")
    assert code == 1
    payload = json.loads(out)
    assert not payload["unmatched"] and payload["collisions"] == 0
    assert payload["passed"] is False
    assert payload["minor_nonnegative"] is False


def test_chow_pairing_and_lefschetz(capsys):
    code, out = run(capsys, "--json", "chow", "pairing", "boolean(4)")
    assert code == 0
    dets = json.loads(out)["pairing_determinants"]
    assert all(v in (1, -1) for v in dets.values())
    code, out = run(capsys, "chow", "lefschetz", "boolean(3)")
    assert code == 0
    code, out = run(capsys, "chow", "hodge-riemann", "boolean(3)")
    assert code == 0


def test_verify_all_passes_rank4(capsys):
    code, out = run(capsys, "verify", "all", "boolean(4)")
    assert code == 0
    assert "overall: PASS" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_all_reports_known_gap_rank3(capsys):
    code, out = run(capsys, "verify", "all", "boolean(3)")
    assert code == 1
    assert "known gap" in out
    assert "C8" in out


def test_verify_all_json_deterministic(capsys):
    code, first = run(capsys, "--json", "verify", "all", "uniform(2,4)")
    assert code == 0
    code, second = run(capsys, "--json", "verify", "all", "uniform(2,4)")
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    ids = {c["battery"] for c in payload["checks"]}
    assert {"C2", "C4", "C5", "C6", "C7", "C8", "C9", "C10"} <= ids


def test_verify_all_rank3_exit_code_is_mathematical_failure(capsys):
    code, out = run(capsys, "--json", "verify", "all", "uniform(3,4)")
    assert code == 1
    payload = json.loads(out)
    failing = [c for c in payload["checks"] if not c["passed"]]
    assert [c["battery"] for c in failing] == ["C8"]
    assert "known_gap" in failing[0]


def test_verify_all_jobs_flag(capsys):
    code, out = run(capsys, "verify", "all", "boolean(3)")
    assert code == 1
    assert "C8" in out and "overall: FAIL" in out


def test_group_file(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": 3,
                                "generators": [[2, 3, 1]]}))
    code, out = run(capsys, "--json", "burnside", "decompose", "boolean(3)",
                    "--group", str(path), "--degree", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["matroid"]["aut_order"] == 3


# An option is accepted only by the subcommands whose handler reads it;
# _UNREAD lists every other subcommand of a group that has the option, and
# every subcommand but `verify all` for --seed and --timings.
_OPTION_ARGS = {
    "--omega": ("default",), "--degree": ("1",),
    "--quadruple": ("0", "1", "1", "2"), "--minor": ("0,1,2:1,2,4",),
    "--composition": ("1,1,1",), "--level": ("2",),
    "--check-equivariance": (), "--seed": ("1",), "--timings": (),
}
_UNREAD = [
    (group, what, option)
    for group, whats, options in (
        ("chow", ("hilbert", "basis", "pairing", "lefschetz", "hodge-riemann"),
         ("--omega", "--degree")),
        ("scd", ("chains", "maps"), ("--check-equivariance",)),
        ("burnside", ("decompose", "pf2", "young-audit"),
         ("--degree", "--quadruple")),
        ("char", ("table", "genuine", "gamma", "toeplitz", "pf"),
         ("--minor", "--composition", "--level")),
        ("matroid", ("info",), ()),
        ("koszul", ("check-2x2", "check-3x3"), ()),
        ("verify", ("all",), ()),
    )
    for what in whats for option in (*options, "--seed", "--timings")
    if (what, option) not in {
        ("lefschetz", "--omega"), ("hodge-riemann", "--omega"),
        ("basis", "--degree"), ("decompose", "--degree"),
        ("pf2", "--quadruple"), ("young-audit", "--quadruple"),
        ("genuine", "--minor"), ("toeplitz", "--composition"),
        ("pf", "--level"), ("maps", "--check-equivariance"),
        ("all", "--seed"), ("all", "--timings")}
]


@pytest.mark.parametrize("group, what, option", _UNREAD)
def test_option_where_unread_exits_2(capsys, group, what, option):
    with pytest.raises(SystemExit) as exc:
        main([group, what, "boolean(3)", option, *_OPTION_ARGS[option]])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + option in capsys.readouterr().err


@pytest.mark.parametrize("option", [("--seed", "1"), ("--timings",)])
def test_verify_option_before_the_command_exits_2(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main([*option, "verify", "all", "boolean(3)"])
    assert exc.value.code == 2


def test_verify_deep_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "boolean(3)", "--deep"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --deep" in capsys.readouterr().err


def test_timings_add_only_elapsed(capsys):
    code, plain = run(capsys, "verify", "all", "boolean(2)", "--json")
    timed_code, timed = run(capsys, "verify", "all", "boolean(2)", "--json",
                            "--timings")
    timed = json.loads(timed)
    assert isinstance(timed.pop("elapsed"), float)
    for check in timed["checks"]:
        assert isinstance(check.pop("elapsed"), float)
    assert (timed_code, timed) == (code, json.loads(plain))


def _readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("chowring ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_example_exits_0(capsys, argv):
    assert main(argv[1:]) == 0


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, verdict", [
    (("--json", "chow", "basis", "boolean(4)", "--degree", "2"), 0),
    (("verify", "all", "boolean(3)"), 1),
])
def test_closed_reader_keeps_the_verdict(unbuffered, argv, verdict):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        proc = subprocess.run([sys.executable, "-m", "chowring", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr.decode() == ""
    assert proc.returncode == verdict


# -- what a command imports ------------------------------------------------------

# Runs `python -m chowring ARGV` as __main__ (or only imports chowring.cli if
# ARGV is empty), then prints the exit code and the loaded modules to stderr.
_LOADED = """
import json, runpy, sys
code = None
if sys.argv[1:]:
    try:
        runpy.run_module("chowring", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import chowring.cli
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}),
      file=sys.stderr)
"""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _loaded_modules(*argv):
    """(exit code, modules) of a fresh interpreter without site, so that
    only chowring decides what is loaded."""
    proc = subprocess.run([sys.executable, "-S", "-c", _LOADED, *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    last = proc.stderr.strip().splitlines()[-1]
    got = json.loads(last)
    return got["exit"], set(got["modules"])


_UNUSED_BY_BURNSIDE = {"chowring.characters", "chowring.scd", "chowring.verify",
                       "chowring.linalg", "dataclasses", "fractions"}


@pytest.mark.parametrize("argv, verdict", [
    (("verify", "all", "boolean(4)"), 0),
    (("char", "genuine", "boolean(4)"), 0),
], ids=["verify all", "char genuine"])
def test_exact_commands_load_no_fractions(argv, verdict):
    """Inner products and determinants are integer-only: no command loads
    `fractions`, or `decimal` under it."""
    code, modules = _loaded_modules(*argv)
    assert code == verdict
    assert "chowring.linalg" in modules
    assert modules & {"fractions", "decimal"} == set()


def test_cli_import_loads_no_handler_layer():
    _, modules = _loaded_modules()
    assert "chowring.cli" in modules
    assert modules & (_UNUSED_BY_BURNSIDE | {"chowring.burnside",
                                             "chowring.koszul"}) == set()


@pytest.mark.parametrize("argv, verdict, layers", [
    (("burnside", "pf2", "graphic(K4)", "--json"), 0, {"chowring.burnside"}),
    # rank 3: the documented 3x3 gap
    (("koszul", "check-3x3", "graphic(K4)"), 1,
     {"chowring.burnside", "chowring.koszul"}),
], ids=["burnside pf2", "koszul check-3x3"])
def test_burnside_commands_load_only_their_layers(argv, verdict, layers):
    code, modules = _loaded_modules(*argv)
    assert code == verdict
    assert layers <= modules
    assert modules & _UNUSED_BY_BURNSIDE == set()


@pytest.mark.parametrize("argv, span", [
    (("koszul", "check-3x3", "graphic(K4)", "--json"), "koszul.injection"),
    (("verify", "all", "boolean(3)", "--json"), "verify.C7"),
], ids=["koszul check-3x3", "verify all"])
def test_traced_run_records_handler_layer_spans(argv, span):
    """The benchmark's tracer wraps module functions before `main` runs; a
    handler that imports its layer when called must get the wrappers."""
    child = ROOT / "perfbench" / "child.py"
    proc = subprocess.run([sys.executable, str(child), "trace", *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert span in report["names"]
    assert report["exit"] == 1  # both are rank 3, with the documented gap
