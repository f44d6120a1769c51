"""serve-explore: closed-loop clients against a ``repro serve`` subprocess.

Each pass starts a fresh server (``--jobs 2``) on a fresh temporary
store, lets one thread per client work through the seeded job list of
:func:`streams.serve_jobs`, and stops the server with SIGINT. A client
sends its next submission only after the previous one reached a
terminal event and its result was fetched and checked.

Latency is client-side, from the POST to the terminal event. A cache
hit's POST answer is terminal; any other submission follows
``GET /v1/jobs/{key}/stream`` and time-stamps the ``lease`` and
``done`` events as they arrive (the server ticks the stream every
50 ms).
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import streams
from report import Report, counters_from_payloads, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 2
MIN_PASSES = 2
#: Extra server start-ups before each pass and after the last, so
#: setup_s is a median of several spread over the run (see grid.PROBES).
SETUP_PROBES = 2
HTTP_TIMEOUT = 60.0
TERMINAL = ("done", "failed", "cached", "interrupted")


def http(method: str, url: str, body: dict | None = None):
    """One request; returns (status, decoded JSON body).

    Not ``repro.server.client.ServerClient``: it retries 429 answers,
    which the benchmark must count as failures, and polls where the
    benchmark follows the event stream."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT) as answer:
            return answer.status, json.loads(answer.read() or b"null")
    except urllib.error.HTTPError as exc:
        return exc.code, {"error": exc.read().decode(errors="replace")}


class Server:
    """A ``repro serve`` subprocess on a fresh store, ready on return."""

    def __init__(self, scratch: Path, trace_out: Path | None = None) -> None:
        self.store = Path(tempfile.mkdtemp(dir=scratch, prefix="store-"))
        self.log_path = self.store.with_suffix(".log")
        args = ["--port", "0", "--jobs", str(WORKERS)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(trace_out), *args]
        self.own_requests = 0
        with open(self.log_path, "w") as log:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=log, cwd=ROOT,
                env=dict(os.environ, REPRO_CACHE_DIR=str(self.store)))
        try:
            self.url = self._wait_ready(start + 60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self, deadline: float) -> str:
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.proc.returncode}"
                                   f": {self.log_path.read_text()[-500:]}")
            found = re.search(r"listening on (http://\S+)",
                              self.log_path.read_text())
            if found:
                self.own_requests += 1
                try:
                    if http("GET", found.group(1) + "/healthz")[0] == 200:
                        return found.group(1)
                except urllib.error.URLError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("repro serve did not answer /healthz in 60 s")

    def tree_rss_mb(self) -> float:
        """Peak resident memory of the server plus its worker processes."""
        pids = [self.proc.pid]
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            pids += (task / "children").read_text().split()
        total_kb = 0
        for pid in pids:
            status = Path(f"/proc/{pid}/status").read_text()
            total_kb += int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT drains the daemon (workers killed and joined)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def store_counters(self) -> dict:
        path = self.store / "counters.json"
        return json.loads(path.read_text()) if path.is_file() else {}

    def remove(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        self.log_path.unlink(missing_ok=True)


@dataclass
class Sample:
    """One submission as its client saw it."""

    job: object
    fresh: bool
    start: float = 0.0
    posted: float = 0.0
    lease: float | None = None
    end: float = 0.0
    result_retries: int = 0
    payload: dict | None = None
    error: str = ""


def submit(url: str, client: str, sample: Sample, key: str) -> None:
    """POST one job, wait for its terminal event, fetch its result."""
    sample.start = time.perf_counter()
    status, answer = http("POST", f"{url}/v1/jobs",
                          {"type": "sim", "spec": sample.job.spec(),
                           "client": client})
    sample.posted = sample.end = time.perf_counter()
    if status != 200:
        sample.error = f"POST answered HTTP {status}: {answer}"
        return
    if answer.get("key") != key:
        sample.error = f"server key {answer.get('key')} != engine key {key}"
        return
    terminal = "cached" if answer.get("status") == "done" else None
    if terminal is None:
        with urllib.request.urlopen(f"{url}/v1/jobs/{key}/stream",
                                    timeout=HTTP_TIMEOUT) as stream:
            for raw in stream:
                line = raw.decode()
                if not line.startswith("event:"):
                    continue
                event = line[len("event:"):].strip()
                now = time.perf_counter()
                if event == "lease" and sample.lease is None:
                    sample.lease = now
                if event in TERMINAL:
                    terminal, sample.end = event, now
                    break
    if terminal != ("done" if sample.fresh else "cached"):
        sample.error = (f"{'fresh' if sample.fresh else 'repeat'} "
                        f"submission ended {terminal!r}")
        return
    while True:
        status, payload = http("GET", f"{url}/v1/jobs/{key}/result")
        if status != 202 or sample.result_retries >= 500:
            break
        # `done` is announced before the result is stored.
        sample.result_retries += 1
        time.sleep(0.01)
    if status != 200:
        sample.error = f"result answered HTTP {status}: {payload}"
    else:
        sample.payload = payload


def run_client(url: str, client: str, queue: list, lock: threading.Lock,
               rng: random.Random, keys: dict, reference: dict,
               samples: list) -> None:
    """Take fresh jobs off the shared queue until it is empty; after each,
    re-submit ``SERVE_REPEATS`` keys this client has completed."""
    completed: list = []
    while True:
        with lock:
            if not queue:
                return
            fresh = queue.pop(0)
        for job in [fresh] + [None] * streams.SERVE_REPEATS:
            if job is None and not completed:
                break
            sample = Sample(job=job or rng.choice(completed),
                            fresh=job is not None)
            samples.append(sample)
            try:
                submit(url, client, sample, keys[streams.job_id(sample.job)])
            except Exception as exc:   # timeouts, refused connections
                sample.error = f"{type(exc).__name__}: {exc}"
                sample.end = time.perf_counter()
            if not sample.error:
                sample.error = streams.check_payload(
                    sample.job, sample.payload, reference)
            if sample.fresh and not sample.error:
                completed.append(sample.job)


class ServePass:
    """One fresh server, one run of the job list, the server's counters."""

    def __init__(self, jobs: list, seed: int, scratch: Path,
                 reference: dict, trace_out: Path | None = None) -> None:
        keys = {streams.job_id(job): job.key() for job in jobs}
        queue, lock = list(jobs), threading.Lock()
        server = Server(scratch, trace_out)
        self.setup_s = server.setup_s
        per_client: list[list[Sample]] = \
            [[] for _ in range(streams.SERVE_CLIENTS)]
        try:
            threads = [threading.Thread(
                target=run_client,
                args=(server.url, f"client{i}", queue, lock,
                      random.Random(seed * streams.SERVE_CLIENTS + i), keys,
                      reference, samples))
                for i, samples in enumerate(per_client)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            self.wall = time.perf_counter() - start
            self.rss_mb = server.tree_rss_mb()
            server.own_requests += 1
            status, metrics = http("GET", f"{server.url}/metrics?format=json")
            self.counters = metrics.get("counters", {}) if status == 200 \
                else {}
            self.own_requests = server.own_requests
        finally:
            server.stop()
        self.store_counters = server.store_counters()
        server.remove()
        self.samples = [s for samples in per_client for s in samples]
        self.errors = [s.error for s in self.samples if s.error]
        repeats = sum(1 for s in self.samples if not s.fresh)
        hits = self.counters.get("server.cache_hits", 0)
        if hits != repeats or self.counters.get("server.dedup_hits", 0):
            self.errors.append(
                f"server counted {hits} cache hits and "
                f"{self.counters.get('server.dedup_hits', 0)} dedup hits; "
                f"the clients made {repeats} repeats and 0")
        fresh = [s.payload for s in self.samples if s.fresh and s.payload]
        self.instructions = sum(p["result"]["instructions"] for p in fresh)
        self.fresh_payloads = fresh

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.error)


def compile_programs(jobs: list) -> tuple[int, float]:
    """Build each distinct program of the pass, as the server's workers
    do: (programs, seconds)."""
    from repro.workloads import WORKLOADS

    distinct = {(job.workload, job.compiler_knobs()) for job in jobs}
    start = time.perf_counter()
    for workload, knobs in distinct:
        WORKLOADS[workload].multiscalar_program(knobs=knobs)
    return len(distinct), time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, trace: bool,
        scratch: Path, run_script: Path) -> Report:
    reference = streams.load_reference()
    rng = random.Random(seed)
    report = Report()
    if not trace:
        def probes() -> float:
            begun = time.perf_counter()
            for _ in range(SETUP_PROBES):
                server = Server(scratch)
                setups.append(server.setup_s)
                server.stop()
                server.remove()
            return time.perf_counter() - begun

        # Another round (start-ups, then a pass) only if it and the
        # closing start-ups end within ``seconds`` of the start.
        started = time.perf_counter()
        setups, passes = [], []
        last = probe_s = 0.0
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - started + last + probe_s <= seconds):
            begun = time.perf_counter()
            probe_s = probes()
            passes.append(ServePass(streams.serve_jobs(rng, reference),
                                    rng.randrange(1 << 30), scratch,
                                    reference))
            last = time.perf_counter() - begun
        probes()
        for p in passes:
            report.add_pass(len(p.samples), p.failed, p.errors)
        ok = [s for p in passes for s in p.samples if not s.error]
        latencies = [s.end - s.start for s in ok]
        report.metrics.update({
            "setup_s": statistics.median(setups
                                         + [p.setup_s for p in passes]),
            "wall_s": statistics.median(p.wall for p in passes),
            "sim_ips": statistics.median(p.instructions / p.wall
                                         for p in passes),
            "jobs_per_s": statistics.median(
                (len(p.samples) - p.failed) / p.wall for p in passes),
            "latency_p50_s": percentile(latencies, 50),
            "latency_p90_s": percentile(latencies, 90),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        })
        report.notes.append(
            f"{len(passes)} passes, {len(latencies)} latency samples "
            f"({sum(1 for s in ok if not s.fresh)} cache hits), "
            f"run {time.perf_counter() - started:.1f} s")
        return report

    jobs = streams.serve_jobs(rng, reference)
    untraced = ServePass(jobs, seed, scratch, reference)
    dump = scratch / "server-trace.json"
    traced = ServePass(jobs, seed, scratch, reference, trace_out=dump)
    for p in (untraced, traced):
        report.add_pass(len(p.samples), p.failed, p.errors)
    server = json.loads(dump.read_text())
    samples = [s for s in traced.samples if not s.error]
    ran = [s for s in samples if s.fresh and s.lease is not None]
    run_s = [s.end - s.lease for s in ran]
    counters = traced.counters
    submissions = len(traced.samples)
    store = traced.store_counters
    programs, compile_s = compile_programs(jobs)
    report.metrics.update(counters_from_payloads(traced.fresh_payloads))
    report.metrics.update({
        "build.programs": programs,
        "build.compile_s": compile_s,
        "engine.key_s": server["totals"].get("engine.key", 0.0),
        "engine.store_get_s": server["totals"].get("engine.store_get", 0.0),
        "engine.store_put_s": server["totals"].get("engine.store_put", 0.0),
        "engine.store_hits": store.get("hits", 0),
        "engine.store_misses": store.get("misses", 0),
        "engine.store_writes": store.get("writes", 0),
        "server.submit_s": percentile(
            [s.posted - s.start for s in samples], 50),
        "server.queue_wait_s": percentile(
            [s.lease - s.start for s in ran], 50),
        "server.run_s": percentile(run_s, 50),
        "server.worker_util": sum(run_s) / (WORKERS * traced.wall),
        "server.http_requests_per_job":
            (counters.get("server.http_requests", 0)
             - traced.own_requests) / submissions,
        "server.result_retries": sum(s.result_retries
                                     for s in traced.samples),
    })
    for name in ("cache_hits", "dedup_hits", "leases_granted", "requeues",
                 "backpressure_429"):
        report.metrics[f"server.{name}"] = counters.get(f"server.{name}", 0)
    report.self_time = server["self_time"]
    report.set_overhead(untraced.wall, traced.wall)
    report.spans = [{"name": "client.submit", "start": s.start,
                     "end": s.end, "parent": None,
                     "job": streams.job_id(s.job)}
                    for s in traced.samples] + server["spans"]
    report.notes.append(f"self time covers the server's main thread and "
                        f"engine spans the server process, not its "
                        f"{WORKERS} workers")
    return report
