"""Tracing from outside the program: spans around public calls, and a
cProfile folded into self time per ``repro`` package.

:class:`Spans` replaces a public function or method with a wrapper that
records ``(name, start, end, parent, job)`` in memory; :meth:`restore`
puts the originals back. Nothing here changes what the wrapped call
does or returns.
"""

from __future__ import annotations

import functools
import pstats
import threading
import time
from pathlib import Path

#: ``repro`` packages reported by name; all other time is ``other``.
PACKAGES = ("pipeline", "core", "arb", "memory", "isa", "jit",
            "jit_generated", "engine", "observability", "server")

#: Built-ins that block (an idle event loop, a sleeping thread): their
#: time is reported as ``wait``, not charged to a package.
BLOCKING = ("poll", "select", "sleep", "acquire", "wait")


class Spans:
    """An in-memory span log over patched call sites (thread-safe)."""

    def __init__(self) -> None:
        self.rows: list[tuple | None] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: str | None = None) -> tuple:
        """Start a span by hand; pass the result to :meth:`close`."""
        stack = self._stack()
        parent, parent_job = stack[-1] if stack else (None, None)
        with self._lock:
            index = len(self.rows)
            self.rows.append(None)
        stack.append((index, job or parent_job))
        return index, name, parent, job or parent_job, time.perf_counter()

    def close(self, token: tuple) -> None:
        end = time.perf_counter()
        index, name, parent, job, start = token
        self._stack().pop()
        self.rows[index] = (name, start, end, parent, job)

    def wrap(self, owner, attr: str, name: str, job_of=None,
             after=None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``job_of(args)`` names the job a call belongs to (default: the
        enclosing span's); ``after(args, result)`` sees each result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = self.open(name, job_of(args) if job_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(token)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def done(self) -> list[tuple]:
        return [row for row in self.rows if row is not None]

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.done()
                   if n == name)

    def to_json(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end,
                 "parent": parent, "job": job}
                for name, start, end, parent, job in self.done()]


def wrap_engine(spans: Spans) -> None:
    """Spans on the engine's key and store calls (grids and server)."""
    from repro.engine.job import SimJob
    from repro.engine.store import ResultStore

    spans.wrap(SimJob, "key", "engine.key")
    spans.wrap(ResultStore, "get", "engine.store_get")
    spans.wrap(ResultStore, "put", "engine.store_put")


class JitTally:
    """Sums the trace-JIT statistics of every processor that ran (the
    figures ``repro.harness.bench.run_case`` reports per case)."""

    def __init__(self) -> None:
        self.entries = self.declines = self.deopts = 0
        self.machine_cycles = self.cycles = 0

    def add(self, args, result) -> None:
        processor = args[0]
        self.cycles += result.cycles
        engine = getattr(processor, "_jit", None)
        if engine is None:
            return
        stats = engine.stats_dict(top=0)
        self.entries += stats["entries"]
        self.declines += stats["declines"]
        self.machine_cycles += stats["machine_cycles"]
        self.deopts += sum(stats["machine_exits"].values())


def wrap_simulator(spans: Spans, tally: JitTally) -> None:
    """Spans on one job's execution, its simulation and its metrics."""
    from repro.core.processor import MultiscalarProcessor
    from repro.core.scalar import ScalarProcessor
    from repro.engine import sweep
    from repro.observability import metrics

    import streams

    wrap_engine(spans)
    spans.wrap(sweep, "execute", "engine.execute",
               job_of=lambda args: streams.job_id(args[0]))
    for processor in (MultiscalarProcessor, ScalarProcessor):
        spans.wrap(processor, "run", "sim.run", after=tally.add)
    spans.wrap(metrics, "collect_metrics", "observe.collect")
    spans.wrap(metrics.MetricsRegistry, "to_dict", "observe.to_dict")


def self_time(profiler, src_root: Path) -> dict[str, float]:
    """Self seconds per ``repro`` package from a cProfile run.

    Built-in calls (``len``, ``list.append``...) have no file of their
    own; their time is charged to the packages of their callers, except
    for blocking calls, which count as ``wait``.
    """
    repro_root = (src_root / "repro").resolve()
    cache: dict[str, str] = {}

    def package(filename: str) -> str:
        if filename not in cache:
            name = "other"
            if filename.startswith("<jit"):
                name = "jit_generated"
            elif filename.endswith(".py"):
                try:
                    parts = Path(filename).resolve() \
                        .relative_to(repro_root).parts
                except ValueError:
                    parts = ()
                if len(parts) > 1 and parts[0] in PACKAGES:
                    name = parts[0]
            cache[filename] = name
        return cache[filename]

    totals = {name: 0.0 for name in PACKAGES + ("wait", "other")}
    for (filename, _, function), (_, _, tottime, _, callers) in \
            pstats.Stats(profiler).stats.items():
        if filename == "~" and any(word in function for word in BLOCKING):
            totals["wait"] += tottime
        elif filename == "~" and callers:
            for (caller_file, _, _), caller in callers.items():
                totals[package(caller_file)] += caller[2]
        else:
            totals[package(filename)] += tottime
    return totals
