"""Run one chowring CLI command in this fresh interpreter and report on it.

    python3 perfbench/child.py {plain|trace} ARGV...

ARGV is passed unchanged to `chowring.cli.main`; nothing else reaches the
program. Its stdout is captured instead of printed. This process then prints
one JSON line: the `time.monotonic()` at which `chowring.cli` was imported and
ready to parse arguments and the one at which `main` was called, the exit
code, the sha256 of the captured stdout, the peak resident memory and, in
trace mode, the spans and counts.
"""

import os
import sys
import time


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import chowring.cli
    ready = time.monotonic()

    import contextlib
    import hashlib
    import io
    import json
    import resource
    import traceback

    if not chowring.cli.__file__.startswith(src + os.sep):
        print(f"chowring imported from {chowring.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    captured = io.StringIO()
    call = time.monotonic()
    try:
        with contextlib.redirect_stdout(captured):
            code = chowring.cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        traceback.print_exc()
        code = "raised"
    report = {
        "ready": ready,
        "call": call,
        "exit": code,
        "sha256": hashlib.sha256(captured.getvalue().encode()).hexdigest(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report.update(tracer.report())
    report["end"] = time.monotonic()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
