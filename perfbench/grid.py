"""The grid workloads: the paper's Table 3 and Table 4 shapes, run
serially through ``repro.engine.sweep.run_sweep`` into a fresh store.

Each pass runs in a fresh interpreter (``run.py --pass``), as a
``repro sweep`` user's would: it imports ``repro``, builds every
program (the set-up, timed apart), then times one ``run_sweep`` over
the grid with every simulator cache cold. The parent runs at least
two passes, more while they fit in ``--seconds``, and reports medians.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans as tracing
import streams
from report import Report, counters_from_payloads, percentile

#: Set-up-only interpreters before each pass and after the last, beside
#: the passes' own set-ups. Spread over the run, they meet the host in
#: the states the passes meet: a vCPU can stay ~40% slower than the other
#: for seconds, so probes taken all at once can all land in one state.
PROBES = 3
MIN_PASSES = 2
SRC = Path(__file__).resolve().parent.parent / "src"


def setup(spans: tracing.Spans | None = None) -> tuple[int, float]:
    """Import the engine and build every program a grid uses:
    (programs built, seconds)."""
    start = time.perf_counter()
    from repro.harness.paper_data import ROW_ORDER
    from repro.workloads import WORKLOADS

    import repro.engine.sweep  # noqa: F401  (the import is set-up too)

    built = 0
    for name in ROW_ORDER:
        for build in (WORKLOADS[name].scalar_program,
                      WORKLOADS[name].multiscalar_program):
            token = spans.open("build.compile", name) if spans else None
            build()
            if token:
                spans.close(token)
            built += 1
    return built, time.perf_counter() - start


class GridPass:
    """One timed ``run_sweep`` over the whole grid, then its checks."""

    def __init__(self, request, scratch: Path) -> None:
        from repro.engine import sweep
        from repro.engine.store import ResultStore

        root = Path(tempfile.mkdtemp(dir=scratch, prefix="store-"))
        os.environ["REPRO_CACHE_DIR"] = str(root)
        store = ResultStore(root)
        self.latencies: list[float] = []
        execute = sweep.execute

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return execute(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - start)

        sweep.execute = timed
        try:
            start = time.perf_counter()
            summary = sweep.run_sweep(request, store)
            self.wall = time.perf_counter() - start
        finally:
            sweep.execute = execute

        self.root = root
        self.summary = summary
        # run_sweep flushed the store's tallies into its counters file.
        self.store_counts = store.stats()

    def check(self, request, reference: dict) -> None:
        """Read every result back from the store and compare it with the
        reference statistics (after timing, outside any trace)."""
        from repro.engine.store import ResultStore
        from repro.engine.sweep import build_grid

        summary = self.summary
        self.errors = list(summary.errors)
        if summary.cache_hits or self.store_counts["hits"]:
            self.errors.append(f"grid pass saw {self.store_counts['hits']} "
                               "store hits in a fresh store")
        reader = ResultStore(self.root)
        jobs = build_grid(request)
        self.payloads = [reader.get(job.key()) for job in jobs]
        self.attempted = len(jobs)
        # A job run_sweep failed stored nothing, so the reference check
        # fails it too: count failed jobs once, by name.
        failed = set()
        for job, payload in zip(jobs, self.payloads):
            error = streams.check_payload(job, payload, reference)
            if error:
                self.errors.append(error)
                failed.add(streams.job_id(job))
        self.failed = len(failed)
        self.instructions = sum(p["result"]["instructions"]
                                for p in self.payloads if p)
        shutil.rmtree(self.root, ignore_errors=True)


def measure_pass(workload: str, seed: int, trace: bool,
                 scratch: Path) -> dict:
    """Set up and run one pass in this fresh process (``run.py --pass``);
    with ``trace``, also the spans, JIT tally and cProfile of the pass."""
    spans = tracing.Spans() if trace else None
    programs, setup_s = setup(spans)
    request = streams.grid_request(workload, seed)
    if trace:
        tally = tracing.JitTally()
        tracing.wrap_simulator(spans, tally)
        # Built-ins unprofiled: their time lands in their callers' self
        # time, at a quarter less overhead than profiling them.
        profiler = cProfile.Profile(builtins=False)
        profiler.enable()
    try:
        grid = GridPass(request, scratch)
    finally:
        if trace:
            profiler.disable()
            spans.restore()
    grid.check(request, streams.load_reference())
    result = {
        "setup_s": setup_s, "wall": grid.wall, "latencies": grid.latencies,
        "instructions": grid.instructions, "attempted": grid.attempted,
        "failed": grid.failed, "errors": grid.errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not trace:
        return result
    sim_run = spans.total("sim.run")
    execute = spans.total("engine.execute")
    layers = counters_from_payloads(grid.payloads)
    layers.update({
        "build.programs": programs,
        "build.compile_s": spans.total("build.compile"),
        "engine.key_s": spans.total("engine.key"),
        "engine.store_get_s": spans.total("engine.store_get"),
        "engine.store_put_s": spans.total("engine.store_put"),
        "engine.store_hits": grid.store_counts["hits"],
        "engine.store_misses": grid.store_counts["misses"],
        "engine.store_writes": grid.store_counts["writes"],
        "engine.execute_s": execute,
        "engine.overhead_s": grid.wall - execute,
        "sim.run_s": sim_run,
        "sim.host_ns_per_cycle": 1e9 * sim_run / max(1, tally.cycles),
        "jit.entries": tally.entries,
        "jit.declines": tally.declines,
        "jit.machine_cycle_share": tally.machine_cycles
        / max(1, tally.cycles),
        "jit.deopts": tally.deopts,
        "observe.collect_s": spans.total("observe.collect")
        + spans.total("observe.to_dict"),
    })
    result.update(layers=layers, self_time=tracing.self_time(profiler, SRC),
                  spans=spans.to_json())
    return result


def job_percentiles(latencies: list[float]) -> dict:
    """Per-job ``execute`` time percentiles: job-size figures that rest
    on the two to four jobs nearest each rank, so they move with the
    host's second-to-second speed more than a whole pass does."""
    return {"engine.job_p50_s": percentile(latencies, 50),
            "engine.job_p90_s": percentile(latencies, 90)}


def _child(run_script: Path, *args: str) -> dict:
    """Run ``run.py`` with ``args`` in a fresh interpreter; its last
    stdout line is a JSON result. If this process is stopped first, the
    child gets SIGTERM, so it removes its own scratch directory."""
    command = [sys.executable, str(run_script), *args]
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          text=True) as child:
        try:
            out, _ = child.communicate()
        except BaseException:
            child.terminate()
            child.wait()
            raise
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, command)
    return json.loads(out.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool,
        scratch: Path, run_script: Path) -> Report:
    report = Report()
    pass_args = ["--pass", workload, "--seed", str(seed)]
    if trace:
        untraced = _child(run_script, *pass_args)
        traced = _child(run_script, *pass_args, "--trace", "1")
        for p in (untraced, traced):
            report.add_pass(p["attempted"], p["failed"], p["errors"])
        report.metrics.update(traced["layers"])
        report.metrics.update(job_percentiles(untraced["latencies"]))
        report.self_time = traced["self_time"]
        report.spans = traced["spans"]
        report.set_overhead(untraced["wall"], traced["wall"])
        return report

    def probes() -> float:
        begun = time.perf_counter()
        setups.extend(_child(run_script, "--probe", workload)["setup_s"]
                      for _ in range(PROBES))
        return time.perf_counter() - begun

    # Another round (probes, then a pass) only if it and the closing
    # probes end within ``seconds`` of the start.
    started = time.perf_counter()
    setups: list[float] = []
    passes: list[dict] = []
    last = probe_s = 0.0
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - started + last + probe_s <= seconds):
        begun = time.perf_counter()
        probe_s = probes()
        passes.append(_child(run_script, *pass_args))
        last = time.perf_counter() - begun
    probes()
    for p in passes:
        report.add_pass(p["attempted"], p["failed"], p["errors"])
    walls = [p["wall"] for p in passes]
    jobs = job_percentiles([t for p in passes for t in p["latencies"]])
    report.metrics.update({
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(walls),
        "sim_ips": statistics.median(p["instructions"] / p["wall"]
                                     for p in passes),
        "jobs_per_s": statistics.median(p["attempted"] / p["wall"]
                                        for p in passes),
        # A grid user submits the whole grid and waits for all of it.
        "latency_p50_s": percentile(walls, 50),
        "latency_p90_s": percentile(walls, 90),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    })
    report.notes.append(f"{len(passes)} passes, {len(setups) + len(passes)} "
                        f"set-ups, run {time.perf_counter() - started:.1f} s; "
                        f"per-job execute p50 {jobs['engine.job_p50_s']:.3f} "
                        f"s, p90 {jobs['engine.job_p90_s']:.3f} s")
    return report
