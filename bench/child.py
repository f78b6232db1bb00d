"""Run one weylfit CLI command in a fresh interpreter and record its timings.

    python3 bench/child.py RECORD SESSION TRACE -- WEYLFIT_ARGS...

Set-up ends when `weylfit.cli` is imported; that instant is written to the
RECORD JSON file with the exit code.  With TRACE=1 the public functions of
every weylfit module are wrapped in spans, which are written there too.
"""

import sys
import time

import weylfit.cli

IMPORTED = time.monotonic()


def main() -> int:
    import importlib
    import json

    record_path, session, traced, sep = sys.argv[1:5]
    if sep != "--":
        raise SystemExit("usage: child.py RECORD SESSION TRACE -- WEYLFIT_ARGS...")
    record = {"imported": IMPORTED, "exit_code": 1}
    recorder = None
    if traced == "1":
        import metrics
        import spans

        modules = {}
        for short in metrics.MODULES:
            try:
                modules[short] = importlib.import_module(f"weylfit.{short}")
            except ImportError:
                continue  # a later change removed the module: drop its metrics
        recorder = spans.Recorder(session)
        record["wrapped"] = spans.install(recorder, modules, metrics.COUNTERS)
    try:
        record["exit_code"] = weylfit.cli.run(sys.argv[5:])
    finally:
        if recorder is not None:
            record.update(spans=recorder.spans, counts=recorder.counts,
                          broken=sorted(recorder.broken))
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
