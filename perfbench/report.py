"""What one benchmark run found: metrics, failures and trace data."""

from __future__ import annotations

import statistics

#: Counters read from the ``metrics`` block of each job payload.
PAYLOAD_COUNTERS = ("pipe.fetched", "pipe.committed", "pipe.flushed",
                    "task.squashed", "arb.loads", "arb.stores",
                    "arb.violations", "ring.deliveries", "dcache.accesses",
                    "dcache.misses")


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def counters_from_payloads(payloads) -> dict:
    """Simulated work counters summed over job payloads."""
    from repro.observability.metrics import MetricsRegistry

    merged = MetricsRegistry()
    cycles = instructions = 0
    for payload in payloads:
        if not payload:
            continue
        cycles += payload["result"]["cycles"]
        instructions += payload["result"]["instructions"]
        merged.merge(MetricsRegistry.from_dict(payload.get("metrics", {})))
    count = merged.counters.get
    retired = count("sim.retired_instructions", 0)
    squashed = count("sim.squashed_instructions", 0)
    metrics = {name: count(name, 0) for name in PAYLOAD_COUNTERS}
    metrics.update({
        "sim.cycles": cycles,
        "sim.instructions": instructions,
        "sim.useful_ratio": retired / (retired + squashed)
        if retired + squashed else 0.0,
        "predict.accuracy": count("predict.correct", 0)
        / max(1, count("predict.validated", 0)),
    })
    return metrics


class Report:
    """Metrics by name plus the run's failure accounting."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.spans: list[dict] = []
        self.self_time: dict[str, float] = {}

    def add_pass(self, attempted: int, failed: int, errors) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)

    def set_overhead(self, untraced_wall: float, traced_wall: float) -> None:
        self.metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
        self.notes.append(f"same-seed pass wall: untraced "
                          f"{untraced_wall:.3f} s, traced "
                          f"{traced_wall:.3f} s")
