"""Closed-loop benchmark of the bloomclock pipeline.

    python3 perfbench/run.py --workload sweep_complete --seed 1 --seconds 30 --trace 0

One client in this process runs the workload's passes back to back, each
pass starting when the previous one has finished, until ``--seconds``
would be exceeded.  It imports bloomclock from ``src/`` of the checkout it
sits in and checks every output.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  A fuller record (environment, per-pass times, errors,
self time per span, and with ``--trace 1`` the spans themselves) goes to
``.perfbench_out/<workload>/``.

``--write-digests`` runs one pass at the default seed and records the
SHA-256 of its artifacts in ``perfbench/digests.json``, the reference the
default-seed runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = BENCH / "digests.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 11
MIN_PASSES = 3
LAYERS = ("simulation", "metrics", "probability", "trace", "experiments")
REF_NOMINAL_S = 0.1
REF_WIDTH, REF_POOL, REF_MERGES = 200, 1000, 2500


class Reference:
    """A fixed pure-Python loop that shares no code with bloomclock.

    On a shared machine the speed of Python code can drift by half within
    minutes as other tenants' load changes, which swamps the changes the
    benchmark is for.  The loop is timed before the first measurement and after each
    one, and each measurement is rescaled by the mean of the two loop times
    around it: seconds on a machine where the loop takes REF_NOMINAL_S.
    Like the workloads, the loop merges n-wide tuples drawn from a pool
    larger than the caches, so it slows down with them.  Raw times stay in
    the run's record file.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._pool = [tuple(rng.randrange(100_000) for _ in range(REF_WIDTH)) for _ in range(REF_POOL)]
        self._pairs = [(rng.randrange(REF_POOL), rng.randrange(REF_POOL)) for _ in range(REF_MERGES)]
        self.samples: list[float] = []
        self.factors: list[float] = []
        self.sample()

    def sample(self) -> None:
        start = perf_counter()
        merged = [tuple(map(max, self._pool[i], self._pool[j])) for i, j in self._pairs]
        self.samples.append(perf_counter() - start)
        del merged

    def rescale(self, raw_s: float) -> float:
        """Call right after a measurement: samples the loop again and rescales ``raw_s``."""
        before = self.samples[-1]
        self.sample()
        self.factors.append(2 * REF_NOMINAL_S / (before + self.samples[-1]))
        return raw_s * self.factors[-1]

    def scale(self) -> float:
        """The run's median factor, for times summed over several measurements."""
        return statistics.median(self.factors)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep_complete", "curve_window", "trace_replay"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "--no-optional-locks", "-C", str(ROOT)]
        revision = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "git_dirty": dirty,
    }


def setup_seconds(workload: str, seed: int, reference: Reference) -> list[float]:
    """Fresh interpreters, one at a time: start, ``import bloomclock``, build the workload's configs."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
        f"import bloomclock, workloads; workloads.WORKLOADS[{workload!r}]({seed})"
    )
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=os.environ.copy())
        times.append(reference.rescale(perf_counter() - start))
    return times


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, or None below eleven samples."""
    if len(values) < 11:
        return None
    return {"value_s": sorted(values)[-11], "percentile": 100 * (len(values) - 10) / len(values), "samples": len(values)}


def run_passes(workload, seconds: int, out: Path, expected: dict | None, tracer, reference: Reference) -> dict:
    """Passes until the next would overrun ``seconds``; with a tracer, every second pass is traced."""
    untraced = NullTracer()
    plain, traced, traced_raw, items = [], [], [], []
    attempted = failed = 0
    errors: list[str] = []
    min_passes = MIN_PASSES if tracer is None else 2 * MIN_PASSES
    start = perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            with tracer.patched(workload.patches):
                result = workload.run_pass(tracer, out, expected)
            traced_raw.append(result.wall_s)
            traced.append(reference.rescale(result.wall_s))
        else:
            result = workload.run_pass(untraced, out, expected)
            plain.append(reference.rescale(result.wall_s))
            items.append(result.items)
        attempted += result.attempted
        failed += result.failed
        errors += result.errors
        done = len(plain) + len(traced)
        elapsed = perf_counter() - start
        if done >= min_passes and elapsed * (done + 1) / done > seconds:
            break
    return {
        "plain": plain,
        "traced": traced,
        "traced_raw": traced_raw,
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end(passes: dict, setups: list[float]) -> dict:
    wall = statistics.median(passes["plain"])
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "throughput_per_s": {"value": statistics.median(passes["items"]) / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": passes["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def per_layer(passes: dict, tracer, probe: dict[str, tuple[float, str]], scale: float) -> dict:
    """Per traced pass: span self times by layer, counts and tracing cost; then the probes' per-call costs.

    Span times and probe costs are raw and are rescaled here by the run's median factor.
    """
    traced_s = sum(passes["traced_raw"])
    count = len(passes["traced"])
    self_s = tracer.self_times()
    layer_s = {layer: sum(s for name, s in self_s.items() if name.split(".")[0] == layer) for layer in LAYERS}
    run_s = self_s.get("simulation.run", 0.0)
    counts = tracer.counts
    values = {
        "simulation.run_s": (run_s / count, "s"),
        "simulation.us_per_event": (run_s / counts["simulation.events"] * 1e6, "us"),
        "simulation.events": (counts["simulation.events"] / count, "count"),
        "simulation.receives": (counts["simulation.receives"] / count, "count"),
        "simulation.peak_rss_mb": (passes["peak_rss_mb"], "MB"),
        "metrics.pairs": (counts["metrics.pairs"] / count, "count"),
        "probability.exact_calls": (counts["probability.exact_calls"] / count, "count"),
        "probability.gamma_calls": (counts["probability.gamma_calls"] / count, "count"),
        "trace.bytes": (counts["trace.bytes"] / count, "B"),
        **{f"share.{layer}": (layer_s[layer] / traced_s, "ratio") for layer in LAYERS},
        "tracing.coverage": (tracer.top_level_s() / traced_s, "ratio"),
        **probe,
    }
    factor = {"s": scale, "us": scale, "1/s": 1 / scale, "MB/s": 1 / scale}
    metrics = {name: {"value": value * factor.get(unit, 1.0), "unit": unit} for name, (value, unit) in values.items()}
    overhead = statistics.median(passes["traced"]) - statistics.median(passes["plain"])
    metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "bloomclock" / "__init__.py").is_file():
        print(f"error: bloomclock sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import probes
    import workloads
    from bloomclock import simulation

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    if args.write_digests:
        if args.seed != workloads.DEFAULT_SEED:
            print(f"error: digests are recorded at the default seed {workloads.DEFAULT_SEED}", file=sys.stderr)
            return 2
        result = workload.run_pass(NullTracer(), out, None)
        if result.failed:
            print(f"error: pass failed, no digests written: {result.errors}", file=sys.stderr)
            return 1
        recorded[args.workload] = result.digests
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        print(json.dumps(result.digests, indent=2))
        return 0

    expected = None
    if args.seed == workloads.DEFAULT_SEED:
        if args.workload not in recorded:
            print(f"error: no recorded digests for {args.workload} in {DIGESTS}", file=sys.stderr)
            return 2
        expected = recorded[args.workload]

    env = environment()
    reference = Reference()
    if args.trace:
        tracer = Tracer()
        origin = perf_counter()
        passes = run_passes(workload, args.seconds, out, expected, tracer, reference)
        probe_log = simulation.run(workload.probe_config)
        probe = probes.run_probes(probe_log, out)
        scale = reference.scale()
        metric_values = per_layer(passes, tracer, probe, scale)
        (out / "spans.json").write_text(json.dumps(tracer.records(origin)) + "\n")
        extra = {"self_s_per_traced_pass": {
            name: s * scale / len(passes["traced"]) for name, s in sorted(tracer.self_times().items())
        }}
    else:
        setups = setup_seconds(args.workload, args.seed, reference)
        passes = run_passes(workload, args.seconds, out, expected, None, reference)
        metric_values = end_to_end(passes, setups)
        extra = {"setup_s": setups, "wall_s_tail": tail(passes["plain"])}

    attempted, failed = passes["attempted"], passes["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digests_checked": expected is not None,
        "environment": env,
        "error_rate": failed / attempted,
        "errors": passes["errors"],
        "reference_s": reference.samples,
        "factors": reference.factors,
        "pass_s": {"untraced": passes["plain"], "traced": passes["traced"]},
        "metrics": metric_values,
        **extra,
    }
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for error in passes["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metric_values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
