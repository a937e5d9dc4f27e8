"""The benchmark's workloads: inputs made from a seed, one pass of public calls, output checks.

A pass is what one user command does: the whole sweep with its CSV and
JSON, one simulation with its probability curve, or one trace round trip
per topology.  ``run_pass`` times only the calls into bloomclock; the
checks run after each timed stretch.  An operation (a sweep cell, a
curve, a topology's round trip) fails when a call raises or a check
finds a wrong output; the pass goes on with the next operation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from bloomclock import EXACT_CUTOFF, ExperimentConfig, SweepSpec
from bloomclock import experiments, metrics, simulation, trace

DEFAULT_SEED = 1


@dataclass
class PassResult:
    wall_s: float
    items: int
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest_errors(digests: dict[str, str], expected: dict[str, str] | None) -> list[str]:
    """Artifacts whose SHA-256 differs from the recorded one; ``expected`` is None off the default seed."""
    if expected is None:
        return []
    return [f"{name}: sha256 differs from the recorded digest" for name, d in digests.items() if expected.get(name) != d]


def _count_log(counts, args, log) -> None:
    counts["simulation.events"] += len(log)
    counts["simulation.receives"] += sum(1 for e in log.events if e.kind == "receive")


def _count_pairs(counts, args, report) -> None:
    counts["metrics.pairs"] += report.total


def _count_probability_path(counts, args, report) -> None:
    # pr_positive sums the exact binomial tail while z's Bloom sum (the trial count) is at most EXACT_CUTOFF.
    path = "gamma" if args[1].total > EXACT_CUTOFF else "exact"
    counts[f"probability.{path}_calls"] += 1


def _count_bytes(counts, args, result) -> None:
    counts["trace.bytes"] += Path(args[1]).stat().st_size


class SweepComplete:
    """``experiments.run_sweep`` over a complete-topology grid, then its CSV and JSON.

    Almost all simulation and clocks work: the pr_i=0 cells are merge-bound,
    the pr_i=0.95 cells hash- and tick-bound, and n=200 against n=100 shows
    the O(n^3) event-log memory.  It never calls the probability or trace code.
    """

    name = "sweep_complete"
    patches = (
        (experiments, "run_experiment", "experiments.run_experiment", None),
        (experiments, "run", "simulation.run", _count_log),
        (experiments, "slice_metrics", "metrics.slice_metrics", None),
        (metrics, "sample_slice", "metrics.sample_slice", None),
        (metrics, "confusion_counts", "metrics.confusion_counts", _count_pairs),
        (metrics, "compute_metrics", "metrics.compute_metrics", None),
    )

    def __init__(self, seed: int):
        self.spec = SweepSpec(
            topology="complete",
            n_values=(100, 200),
            m_ratios=(0.1,),
            k_values=(2,),
            pr_i_values=(0.0, 0.95),
            seeds=(seed,),
        )
        self.cells = self.spec.expand()
        self.probe_config = self.cells[2]  # n=200, pr_i=0: the merge-heavy cell

    def run_pass(self, tracer, out: Path, expected: dict | None) -> PassResult:
        files = {"sweep.json": out / "sweep.json", "sweep.csv": out / "sweep.csv"}
        start = perf_counter()
        try:
            artifacts = tracer.call("experiments.run_sweep", experiments.run_sweep, self.spec)
            tracer.call("experiments.write_artifacts_json", experiments.write_artifacts_json, artifacts, files["sweep.json"])
            tracer.call("experiments.write_sweep_csv", experiments.write_sweep_csv, artifacts, files["sweep.csv"])
        except Exception as exc:  # any failure of the program is a failed operation
            return PassResult(perf_counter() - start, 0, len(self.cells), len(self.cells), [repr(exc)])
        wall = perf_counter() - start
        result = PassResult(wall, sum(c.event_budget for c in self.cells), len(self.cells))
        result.digests = {name: sha256(path) for name, path in files.items()}
        whole_sweep = _digest_errors(result.digests, expected)
        if [a.config for a in artifacts] != self.cells:
            whole_sweep.append("sweep cells differ from the expanded grid")
        bad_cells = [
            f"cell n={a.config.n} pr_i={a.config.pr_i}: fn or recall off"
            for a in artifacts
            if not all(r.counts.fn == 0 and r.recall == 1.0 for r in a.reports)
        ]
        result.errors = whole_sweep + bad_cells
        result.failed = len(self.cells) if whole_sweep else len(bad_cells)
        return result


class CurveWindow:
    """One complete-topology simulation, then ``metrics.probability_curve`` for one y.

    The only workload where ``probability`` does most of the work.  The
    window ends at the log's end, where z's Bloom sum crosses EXACT_CUTOFF,
    so both the exact-binomial and the gamma path of ``pr_positive`` run.
    An exact-path row costs about one binomial term per unit of y's Bloom
    sum, so y is the first event from GSN 2000 on whose sum reaches
    ``y_min_sum``: a y picked by GSN alone changes the work by a quarter
    from seed to seed.
    """

    name = "curve_window"
    patches = ((metrics, "classify_probabilities", "probability.classify_probabilities", _count_probability_path),)
    y_from, y_min_sum, z_from, z_to = 2000, 64, 30001, 40000

    def __init__(self, seed: int):
        self.config = ExperimentConfig("complete", n=200, m=20, k=2, pr_i=0.0, seed=seed)
        self.probe_config = self.config

    def run_pass(self, tracer, out: Path, expected: dict | None) -> PassResult:
        path = out / "curve.csv"
        start = perf_counter()
        try:
            log = tracer.call("simulation.run", simulation.run, self.config, observe=_count_log)
            y = next(e.gsn for e in log.events[self.y_from - 1 :] if e.bloom_ts.total >= self.y_min_sum)
            rows = tracer.call("metrics.probability_curve", metrics.probability_curve, log, y, self.z_from, self.z_to)
            tracer.call("experiments.write_curve_csv", experiments.write_curve_csv, rows, path)
        except Exception as exc:  # any failure of the program is a failed operation
            return PassResult(perf_counter() - start, 0, 1, 1, [repr(exc)])
        result = PassResult(perf_counter() - start, len(rows), 1)
        result.digests = {"curve.csv": sha256(path)}
        errors = _digest_errors(result.digests, expected)
        if [r.z_gsn for r in rows] != list(range(self.z_from, self.z_to + 1)):
            errors.append("curve rows do not cover the z window")
        if any(r.outcome == "FN" for r in rows):
            errors.append("curve has a false-negative row")
        if not all(0.0 <= p <= 1.0 for r in rows for p in (r.pr_p, r.pr_fp_step, r.pr_fp_smooth)):
            errors.append("curve probability outside [0, 1]")
        result.errors = errors
        result.failed = 1 if errors else 0
        return result


class TraceReplay:
    """Run, persist, load and replay a star and a broadcast execution.

    Drives the two non-complete runners and puts trace writes beside trace
    reads, with no classification and no probability code, so a change to
    the shared event or clock representation that speeds up simulation
    but slows persist or load shows here.
    """

    name = "trace_replay"
    patches = ()

    def __init__(self, seed: int):
        self.configs = (
            ExperimentConfig("star", n=50, m=5, k=2, seed=seed),
            ExperimentConfig("broadcast", n=100, m=10, k=2, seed=seed),
        )
        self.probe_config = self.configs[0]  # its Bloom sums straddle EXACT_CUTOFF

    def run_pass(self, tracer, out: Path, expected: dict | None) -> PassResult:
        result = PassResult(0.0, 0, len(self.configs))
        for config in self.configs:
            path = out / f"{config.topology}-trace.txt"
            start = perf_counter()
            try:
                log = tracer.call("simulation.run", simulation.run, config, observe=_count_log)
                tracer.call("trace.persist_trace", trace.persist_trace, log, path, observe=_count_bytes)
                loaded = tracer.call("trace.load_trace", trace.load_trace, path)
                tracer.call("simulation.replay_timestamps", simulation.replay_timestamps, loaded)
            except Exception as exc:  # a ReplayError or any other failure is a failed operation
                result.wall_s += perf_counter() - start
                result.failed += 1
                result.errors.append(f"{config.topology}: {exc!r}")
                continue
            result.wall_s += perf_counter() - start
            result.items += len(log)
            digests = {f"{config.topology}/trace.txt": sha256(path)}
            result.digests.update(digests)
            errors = _digest_errors(digests, expected)
            if loaded != log:
                errors.append("loaded log differs from the log that was run")
            if errors:
                result.failed += 1
                result.errors += [f"{config.topology}: {e}" for e in errors]
        return result


WORKLOADS = {w.name: w for w in (SweepComplete, CurveWindow, TraceReplay)}
