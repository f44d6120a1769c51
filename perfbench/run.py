"""The repository benchmark: simulator throughput on the paper's two
grids and job latency through ``repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload paper-1w-inorder --seed 1 \\
        --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` makes a separate traced run, prints
the per-layer metrics and writes its spans and self-time table under
``.perfbench/traces/``. Every line but the last is for people; the last
is one JSON object. The exit status is 0 only when every job's output
and simulated statistics match ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("paper-1w-inorder", "paper-2w-ooo", "serve-explore")


def host_facts() -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    grids = [w for w in WORKLOADS if w != "serve-explore"]
    parser.add_argument("--pass", dest="grid_pass", choices=grids,
                        help="internal: one grid pass in this process")
    parser.add_argument("--probe", choices=grids,
                        help="internal: grid set-up only, timed")
    args = parser.parse_args(argv)
    if not (args.workload or args.grid_pass or args.probe):
        parser.error("--workload is required")
    return args


@contextlib.contextmanager
def scratch_dir():
    """A private temporary directory inside the checkout."""
    path = OUT / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def collect(report, names: list[dict], trace: bool) -> dict:
    """The metrics block: every declared metric with its unit."""
    metrics = dict(report.metrics)
    if trace:
        metrics["failed_ratio"] = report.failed / max(1, report.attempted)
        for package, seconds in report.self_time.items():
            metrics[f"self_s.{package}"] = seconds
    out = {}
    for entry in names:
        name = entry["name"]
        if name not in metrics:
            if not trace:
                raise KeyError(f"end-to-end metric {name} not measured")
            metrics[name] = 0   # layer not reachable on this workload
        out[name] = {"value": metrics[name], "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so servers and pass processes get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import grid
    import serve

    if args.probe:
        print(json.dumps({"setup_s": grid.setup()[1]}))
        return 0
    if args.grid_pass:
        with scratch_dir() as scratch:
            print(json.dumps(grid.measure_pass(
                args.grid_pass, args.seed, bool(args.trace), scratch)))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    facts = host_facts()
    module = serve if args.workload == "serve-explore" else grid
    with scratch_dir() as scratch:
        report = module.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), scratch, Path(__file__))
    facts["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = collect(report, names, bool(args.trace))
    correct = report.failed == 0 and not report.errors

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={facts['python']} nproc={facts['nproc']} "
          f"loadavg={facts['loadavg']}->{facts['loadavg_end']}")
    for name, entry in metrics.items():
        print(f"  {name:28} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  jobs: {report.attempted} attempted, {report.failed} failed")
    for note in report.notes:
        print(f"  {note}")
    for error in report.errors[:20]:
        print(f"  FAILED {error}")
    if args.trace:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "host": facts,
            "metrics": metrics, "self_time_s": report.self_time,
            "notes": report.notes, "spans": report.spans}) + "\n")
        print(f"  trace written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
