"""Workload op lists, and running one op in a fresh interpreter.

An op is one `chowring` CLI command. Its key is its argv without the workload
seed; `expected.json` maps each key to the exit code and the sha256 of the
`--json` stdout that the program gave when `record_expected.py` ran it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"

# Every corpus member except the four slowest under `verify all`:
# uniform(4,7), uniform(5,6), uniform(5,7) and uniform(6,7).
BATTERY_DOCS = (
    "boolean(1)", "boolean(2)", "boolean(3)", "boolean(4)", "boolean(5)",
    "uniform(2,3)", "uniform(2,4)", "uniform(3,4)", "uniform(2,5)",
    "uniform(3,5)", "uniform(4,5)", "uniform(2,6)", "uniform(3,6)",
    "uniform(4,6)", "uniform(2,7)", "uniform(3,7)",
    "graphic(K4)", "graphic(K4-e)", "graphic(W4)", "graphic(K5)",
)
BURNSIDE_DOCS = ("uniform(4,7)", "graphic(K5)", "graphic(W4)")

# battery runs every layer in its real proportions. In burnside, Burnside
# decomposition does most of the work, under full symmetric groups (S6, S7)
# and under K5's and W4's groups, which take the conjugacy search.
WORKLOADS = {
    "battery": tuple(("verify", "all", doc, "--json") for doc in BATTERY_DOCS),
    "burnside": tuple((*cmd, doc, "--json") for doc in BURNSIDE_DOCS
                      for cmd in (("burnside", "pf2"), ("koszul", "check-3x3")))
                + (("burnside", "pf2", "uniform(5,6)", "--json"),),
}
SELFTEST_OPS = (
    ("verify", "all", "boolean(3)", "--json"),
    ("verify", "all", "boolean(4)", "--json"),
    ("chow", "pairing", "boolean(4)", "--json"),
)


def op_key(op) -> str:
    return " ".join(op)


def op_argv(op, seed: int) -> list[str]:
    """The argv the program gets: `verify all` also takes the seed."""
    return [*op, "--seed", str(seed)] if op[0] == "verify" else list(op)


@dataclass
class OpRun:
    key: str
    spawn: float
    done: float
    report: dict | None  # the child's report; None on timeout or crash
    error: str = ""

    @property
    def wall(self) -> float:
        return self.done - self.spawn

    @property
    def startup(self) -> float:
        return self.report["ready"] - self.spawn

    def failure(self, expected: dict) -> str:
        """Why this op does not match its expected result, or ''."""
        if self.report is None:
            return self.error
        want = expected[self.key]
        got = {"exit": self.report["exit"], "sha256": self.report["sha256"]}
        if got != want:
            return f"got {got}, expected {want}"
        return ""


def run_op(op, seed: int, trace: bool, timeout: float) -> OpRun:
    """Run one op in a child interpreter and wait for it to end."""
    cmd = [sys.executable, str(CHILD), "trace" if trace else "plain",
           *op_argv(op, seed)]
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return OpRun(op_key(op), spawn, time.monotonic(), None,
                     f"timed out after {timeout:.0f} s")
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    done = time.monotonic()
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        return OpRun(op_key(op), spawn, done, None,
                     f"child exited {proc.returncode}: {' '.join(tail)}")
    return OpRun(op_key(op), spawn, done, json.loads(out.decode().splitlines()[-1]))


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)["ops"]


def program_present() -> bool:
    return (ROOT / "src" / "chowring" / "cli.py").is_file()


def commit() -> str:
    """The commit checked out at ROOT, for the records of measured runs."""
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
