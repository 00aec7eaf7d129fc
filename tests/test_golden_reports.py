"""Reports pinned by digest, run in-process: the exit code and the sha256 of
stdout must match the recorded ones.

`test_golden_report` runs every op recorded in perfbench/expected.json, with
the argv the benchmark gives its child under seed 0. `test_golden_cli` runs
the commands of tests/golden_cli.json, which expected.json does not pin:
`koszul check-2x2` and `chow lefschetz`/`hodge-riemann` (JSON), `koszul
check-3x3` and `verify all` (text), on the corpus less uniform(4,7),
uniform(5,6), uniform(5,7) and uniform(6,7), plus `chow lefschetz` on
boolean(3) with the --omega file of test_cli.py::test_omega_file (the OMEGA
word in the key). Its "commit" is the tree the digests were recorded on."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from chowring.cli import main

OPS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "ops.py"
_spec = importlib.util.spec_from_file_location("perfbench_ops", OPS_PATH)
ops = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ops)  # its dataclass looks itself up in sys.modules
EXPECTED = ops.load_expected()
GOLDEN_CLI = json.loads(
    (Path(__file__).resolve().parent / "golden_cli.json").read_text())["ops"]
OMEGA = [{"set": s, "c": 2} for s in ([1], [2], [3], [1, 2], [1, 3], [2, 3])]


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_golden_report(key):
    assert _run(ops.op_argv(key.split(" "), 0)) == EXPECTED[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_CLI))
def test_golden_cli(key, tmp_path):
    argv = key.split(" ")
    if "OMEGA" in argv:
        omega = tmp_path / "omega.json"
        omega.write_text(json.dumps(OMEGA))
        argv[argv.index("OMEGA")] = str(omega)
    assert _run(argv) == GOLDEN_CLI[key]
