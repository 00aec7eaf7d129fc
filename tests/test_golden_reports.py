"""Every op recorded in perfbench/expected.json, run in-process: the exit code
and the sha256 of stdout must match the recorded ones. The argv is the one
the benchmark gives its child under seed 0."""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from chowring.cli import main

OPS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "ops.py"
_spec = importlib.util.spec_from_file_location("perfbench_ops", OPS_PATH)
ops = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ops)  # its dataclass looks itself up in sys.modules
EXPECTED = ops.load_expected()


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_golden_report(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(ops.op_argv(key.split(" "), 0))
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert {"exit": code, "sha256": digest} == EXPECTED[key]
