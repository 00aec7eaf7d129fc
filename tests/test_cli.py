import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from chowring.cli import main

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
])
def test_input_errors_exit_2(capsys, argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("flag, content, commands", [
    ("--group", {"degree": 3}, [("chow", "hilbert", "boolean(3)")]),
    ("--group", [1, 2], [("chow", "hilbert", "boolean(3)")]),
    ("--omega", [{"c": 1}], [("chow", "lefschetz", "boolean(3)")]),
    ("--omega", [{"set": [1], "c": 1}], [("chow", "lefschetz", "boolean(3)")]),
    # (1 5) moves the flat {4, 5} of the wheel to {1, 4}, which is no flat
    ("--group", {"degree": 8, "generators": [[5, 2, 3, 4, 1, 6, 7, 8]]},
     [("chow", "hilbert", "graphic(W4)"), ("verify", "all", "graphic(W4)"),
      ("burnside", "decompose", "graphic(W4)")]),
])
def test_bad_group_and_omega_files_exit_2(tmp_path, capsys, flag, content,
                                          commands):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    for argv in commands:
        code = main([*argv, flag, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")


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


def test_char_toeplitz(capsys):
    code, out = run(capsys, "--json", "char", "toeplitz", "boolean(4)",
                    "--composition", "1,1,1")
    assert code == 0
    assert json.loads(out)["genuine"] is True


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
