"""Per-call costs of each layer, timed on clock values from a workload's own log.

The traced run ends with these probes so that every layer reports a cost
at the workload's (n, m, k), including layers the workload's passes do not
call.  Each probe times a fixed batch of calls ``REPEATS`` times and keeps
the median.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable

from bloomclock import EXACT_CUTOFF, ExecutionLog, metrics, probability, simulation, trace

REPEATS = 5
CALLS = 2000
PAIRS = 100
PREFIX_EVENTS = 4000


def _median_s(batch: Callable[[], object]) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        batch()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _evenly(items: list, count: int) -> list:
    step = max(1, len(items) // count)
    return items[::step][:count]


def clocks_probe(log: ExecutionLog) -> dict[str, tuple[float, str]]:
    family = log.config.hash_family()
    events = log.events[:CALLS]
    linked = [(r, log.events[r.send_gsn - 1]) for r in log.events if r.kind == "receive"][:CALLS]
    if not linked:
        raise ValueError("probe log has no receive events")

    def per_call_us(batch, calls) -> tuple[float, str]:
        return _median_s(batch) / calls * 1e6, "us"

    return {
        "clocks.indices_us": per_call_us(lambda: [family.indices(e.pid, e.event_index) for e in events], len(events)),
        "clocks.bloom_tick_us": per_call_us(
            lambda: [e.bloom_ts.tick(family, e.pid, e.event_index + 1) for e in events], len(events)
        ),
        "clocks.bloom_merge_us": per_call_us(lambda: [r.bloom_ts.merge(s.bloom_ts) for r, s in linked], len(linked)),
        "clocks.vector_tick_us": per_call_us(lambda: [e.vector_ts.tick(e.pid) for e in events], len(events)),
        "clocks.vector_merge_us": per_call_us(
            lambda: [r.vector_ts.merge(s.vector_ts) for r, s in linked], len(linked)
        ),
    }


def probability_probe(log: ExecutionLog) -> dict[str, tuple[float, str]]:
    """``pr_positive`` for y at the default slice start against z's on each side of EXACT_CUTOFF."""
    y = log.events[min(10 * log.config.n, len(log)) - 1].bloom_ts
    result = {}
    for path, on_path in (("exact", lambda t: 0 < t <= EXACT_CUTOFF), ("gamma", lambda t: t > EXACT_CUTOFF)):
        zs = _evenly([e.bloom_ts for e in log.events if on_path(e.bloom_ts.total)], PAIRS)
        if not zs:
            raise ValueError(f"probe log has no Bloom sum on the {path} path")
        seconds = _median_s(lambda: [probability.pr_positive(y, z) for z in zs])
        result[f"probability.pr_positive_{path}_us"] = (seconds / len(zs) * 1e6, "us")
    return result


def metrics_probe(log: ExecutionLog) -> dict[str, tuple[float, str]]:
    events = metrics.sample_slice(log)
    seconds = _median_s(lambda: metrics.confusion_counts(events))
    return {"metrics.pairs_per_s": (len(events) * (len(events) - 1) / seconds, "1/s")}


def trace_probe(log: ExecutionLog, out: Path) -> dict[str, tuple[float, str]]:
    """Persist, load and replay the log's first PREFIX_EVENTS events."""
    prefix = ExecutionLog(log.config, log.events[:PREFIX_EVENTS])
    path = out / "probe-trace.txt"
    persist_s = _median_s(lambda: trace.persist_trace(prefix, path))
    megabytes = path.stat().st_size / 1e6
    load_s = _median_s(lambda: trace.load_trace(path))
    replay_s = _median_s(lambda: simulation.replay_timestamps(prefix))
    return {
        "trace.persist_mb_per_s": (megabytes / persist_s, "MB/s"),
        "trace.load_mb_per_s": (megabytes / load_s, "MB/s"),
        "simulation.replay_us_per_event": (replay_s / len(prefix) * 1e6, "us"),
    }


def run_probes(log: ExecutionLog, out: Path) -> dict[str, tuple[float, str]]:
    return {**clocks_probe(log), **probability_probe(log), **metrics_probe(log), **trace_probe(log, out)}
