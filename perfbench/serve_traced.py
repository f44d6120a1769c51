"""Run ``repro serve`` under the benchmark's tracing.

    python3 perfbench/serve_traced.py OUT.json [repro serve flags...]

Installs the engine spans of :mod:`spans` and a cProfile of the main
thread, runs the server through ``repro.cli.main`` until SIGINT, then
writes the span totals, the spans and the self time per package to
``OUT.json``. Worker processes run unprofiled, and their spans stay in
their own memory: both cover the server process only.
"""

from __future__ import annotations

import cProfile
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import spans as tracing  # noqa: E402


def main() -> int:
    from repro.cli import main as repro_main

    out = Path(sys.argv[1])
    recorder = tracing.Spans()
    tracing.wrap_engine(recorder)
    profiler = cProfile.Profile()
    # Workers fork from a profiled thread; they must not run profiled.
    os.register_at_fork(after_in_child=profiler.disable)
    profiler.enable()
    try:
        code = repro_main(["serve", *sys.argv[2:]])
    finally:
        profiler.disable()
        recorder.restore()
        names = {row["name"] for row in recorder.to_json()}
        out.write_text(json.dumps({
            "totals": {name: recorder.total(name) for name in names},
            "spans": recorder.to_json(),
            "self_time": tracing.self_time(profiler, SRC)}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
