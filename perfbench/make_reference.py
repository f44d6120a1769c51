"""Regenerate ``reference.json``: the simulated statistics of every job
any benchmark seed can run.

Run from the repository root after a change that is *meant* to alter
simulated results (a model change, never a speed-up)::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import streams  # noqa: E402


def main() -> int:
    from repro.engine.job import execute
    from repro.engine.sweep import build_grid

    jobs = []
    for workload in streams.GRIDS:
        jobs += build_grid(streams.grid_request(workload, seed=0))
    jobs += streams.serve_pool()
    table = {}
    for job in jobs:
        table[streams.job_id(job)] = streams.summarize(
            execute(job)["result"])
        print(f"{len(table):4}/{len(jobs)} {streams.job_id(job)}",
              file=sys.stderr)
    streams.REFERENCE_PATH.write_text(json.dumps(
        {"jobs": dict(sorted(table.items()))}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
