"""Every function the benchmark's tracer wraps still exists.

`perfbench/spans.py` replaces chowring functions by name; `Tracer.install`
raises on a name that is gone, and every traced benchmark run crashes."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _resolves(modname, attr) -> bool:
    """The lookup `spans._replace` makes: a class's own attribute for
    "Class.method", a module attribute otherwise."""
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in vars(getattr(module, cls_name, object))
    return callable(getattr(module, attr, None))


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [entry[:2] for entry in spans.SPANS + spans.CALL_COUNTS]
    assert targets
    assert [t for t in targets if not _resolves(*t)] == []
