"""The benchmark's job sets, generated from a seed, and the reference check.

Two kinds of workload:

* the paper's grids (Tables 3 and 4): every kernel as a scalar baseline
  and on 4 and 8 units, at one issue shape. The seed only permutes the
  job order, so every seed does the same simulation work;
* ``serve-explore``: explore-style multiscalar jobs on the small kernels
  over ``units`` and seeded ``ring_hop``/``arb_entries``/``task_size``
  settings, taken by closed-loop clients that also re-submit keys they
  have already completed.

Every job any seed can produce is in ``reference.json`` (written by
``make_reference.py``), keyed by :func:`job_id`; :func:`check_payload`
compares a job's payload with it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Grid workload -> (issue width, out of order).
GRIDS = {"paper-1w-inorder": (1, False), "paper-2w-ooo": (2, True)}
GRID_UNITS = (4, 8)

#: serve-explore's design space: short kernels and two values per knob,
#: so a pass is dozens of sub-second simulations.
SERVE_KERNELS = ("gcc", "sc", "compress", "wc", "eqntott", "cmp", "example")
SERVE_UNITS = (2, 4, 8)
SERVE_KNOBS = {"ring_hop": (1, 2), "arb_entries": (32, 256),
               "task_size": (0, 32)}
SERVE_CLIENTS = 2
#: After each fresh job a client re-submits this many keys it has
#: already completed: 86% (6 of every 7) of submissions hit the cache,
#: so the median latency lies in the body of the cache-hit latencies.
#: (With 60% hits it sat on their tail and moved by a third between
#: seeds.)
SERVE_REPEATS = 6


def job_id(job) -> str:
    """Stable name of a job: its label plus any non-default knob."""
    parts = [job.label()]
    if job.kind == "multiscalar":
        parts.append(f"rh{job.ring_hop}-arb{job.arb_entries}"
                     f"-ts{job.task_size}")
    return "|".join(parts)


# ------------------------------------------------------------------ grids

def grid_request(workload: str, seed: int):
    """The :class:`SweepRequest` of a grid workload, job order seeded."""
    from repro.engine.sweep import SweepRequest
    from repro.harness.paper_data import ROW_ORDER

    width, ooo = GRIDS[workload]
    rng = random.Random(seed)
    kernels = list(ROW_ORDER)
    rng.shuffle(kernels)
    units = list(GRID_UNITS)
    rng.shuffle(units)
    return SweepRequest(workloads=tuple(kernels), units=tuple(units),
                        widths=(width,), orders=(ooo,), jobs=1)


# ------------------------------------------------------------------ serve

def serve_pool() -> list:
    """Every job serve-explore can submit."""
    from repro.engine.job import SimJob

    return [SimJob(kind="multiscalar", workload=kernel, units=units,
                   ring_hop=ring, arb_entries=arb, task_size=size)
            for kernel in SERVE_KERNELS for units in SERVE_UNITS
            for ring in SERVE_KNOBS["ring_hop"]
            for arb in SERVE_KNOBS["arb_entries"]
            for size in SERVE_KNOBS["task_size"]]


def serve_jobs(rng: random.Random, reference: dict) -> list:
    """The fresh jobs of one serve-explore pass, longest first.

    Each (kernel, units) pair is submitted twice per pass: once with
    seeded knob values and once with every knob at its other value. So
    every pass runs each pair at both values of each knob, and passes of
    different seeds do nearly the same work. The clients take jobs from
    the front of this list as they become free; longest first (by
    simulated cycles x units) keeps them both busy to the end.
    """
    from repro.engine.job import SimJob

    jobs = []
    for kernel in SERVE_KERNELS:
        for units in SERVE_UNITS:
            pick = {name: rng.choice(values)
                    for name, values in SERVE_KNOBS.items()}
            flip = {name: values[1 - values.index(pick[name])]
                    for name, values in SERVE_KNOBS.items()}
            jobs += [SimJob(kind="multiscalar", workload=kernel,
                            units=units, **knobs) for knobs in (pick, flip)]
    return sorted(jobs, key=lambda job: (
        -reference[job_id(job)]["cycles"] * job.units, job_id(job)))


# -------------------------------------------------------------- reference

def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["jobs"]


def summarize(result: dict) -> dict:
    """The simulated statistics the reference table pins for one job."""
    canonical = json.dumps(result, sort_keys=True).encode()
    return {
        "cycles": result["cycles"],
        "instructions": result["instructions"],
        "squashes": result.get("tasks_squashed", 0),
        "output_sha": hashlib.sha256(result["output"].encode()).hexdigest()[:16],
        "result_sha": hashlib.sha256(canonical).hexdigest()[:16],
    }


def check_payload(job, payload, reference: dict) -> str:
    """'' when ``payload`` matches the reference, else what differs."""
    name = job_id(job)
    expected = reference.get(name)
    if expected is None:
        return f"{name}: no reference statistics"
    if not isinstance(payload, dict) or "result" not in payload:
        return f"{name}: no result payload"
    got = summarize(payload["result"])
    wrong = [f"{key} {got[key]} != {expected[key]}"
             for key in expected if got.get(key) != expected[key]]
    return f"{name}: " + ", ".join(wrong) if wrong else ""
