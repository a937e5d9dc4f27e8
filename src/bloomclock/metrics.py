"""Pairwise classification of an execution slice against the vector-clock oracle.

Events are subsampled on a GSN grid, every ordered pair of sampled events is
classified (both directions, so the causality spread tops out at 0.5), and
the confusion counts feed the usual ratio metrics.  The Bloom test cannot
produce false negatives, so recall is 1 whenever any positive exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# classify_probabilities is no longer called here, but perfbench's traced run
# wraps ``metrics.classify_probabilities``, so the name stays bound.
from .probability import classify_probabilities  # noqa: F401
from .probability import false_positive_probabilities, pr_positive_by_sum
from .simulation import EventRecord, Events, ExecutionLog


@dataclass(frozen=True)
class SliceSpec:
    """GSN grid for sampling: start (default 10*n), stride, end (default log end)."""

    start_gsn: int | None = None
    stride: int = 100
    end_gsn: int | None = None

    def __post_init__(self) -> None:
        if self.start_gsn is not None and self.start_gsn < 1:
            raise ValueError(f"start_gsn must be at least 1, got {self.start_gsn}")
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")
        if self.end_gsn is not None and self.end_gsn < 1:
            raise ValueError(f"end_gsn must be at least 1, got {self.end_gsn}")

    def resolve(self, log: ExecutionLog) -> tuple[int, int, int]:
        start = self.start_gsn if self.start_gsn is not None else 10 * log.config.n
        end = self.end_gsn if self.end_gsn is not None else len(log)
        return start, self.stride, end


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: ConfusionCounts) -> ConfusionCounts:
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts with the ratio metrics and the causality spread alpha.

    ``sentinels`` names any ratio that fell back to its defined sentinel
    because the denominator was empty (precision and recall to 1.0, fpr to
    0.0).
    """

    counts: ConfusionCounts
    precision: float
    accuracy: float
    recall: float
    fpr: float
    alpha: float
    sentinels: tuple[str, ...] = ()


@dataclass(frozen=True)
class CurveRow:
    z_gsn: int
    pr_p: float
    pr_fp_step: float
    pr_fp_smooth: float
    outcome: str


def sample_slice(log: ExecutionLog, spec: SliceSpec | None = None) -> Events:
    """Events at gsn = start, start+stride, ... <= end, through ``log.select``."""
    spec = spec if spec is not None else SliceSpec()
    start, stride, end = spec.resolve(log)
    if end > len(log):
        raise ValueError(f"end_gsn {end} beyond log end {len(log)}")
    if start > end:
        raise ValueError(f"empty slice: start_gsn {start} beyond end_gsn {end}")
    grid = range(start, end + 1, stride)
    sampled = log.select(grid)
    gaps = np.flatnonzero(sampled.gsns != np.asarray(grid))
    if gaps.size:
        raise ValueError(f"log is not contiguous at gsn {grid[gaps[0]]}")
    return sampled


def _outcome(oracle: bool, predicted: bool) -> str:
    if oracle:
        return "TP" if predicted else "FN"
    return "FP" if predicted else "TN"


def classify_pair(y: EventRecord, z: EventRecord) -> str:
    """Outcome of testing y -> z: the vector oracle against the Bloom dominance test."""
    return _outcome(y.vector_ts.happened_before(z.vector_ts), y.bloom_ts.leq(z.bloom_ts))


def _reaches(pid_y, own_y, vectors_z: np.ndarray) -> np.ndarray:
    """Fidge/Mattern oracle for distinct events of one execution, indexed ``[z, y]``.

    ``y -> z`` iff ``V_z[pid_y] >= V_y[pid_y]``: z has seen y's own tick.
    ``pid_y`` and ``own_y = V_y[pid_y]`` may be scalars or arrays over y.
    """
    return vectors_z[:, pid_y] >= own_y


def confusion_counts(events: Events) -> ConfusionCounts:
    """Classify every ordered pair of distinct events (both directions), vectorized.

    The oracle is the Fidge/Mattern test, which holds for timestamps of one
    execution; the Bloom test compares all m counters.
    """
    if len(events) < 2:
        raise ValueError(f"need at least two events to form pairs, got {len(events)}")
    pids, vecs, blooms = events.pids, events.vectors, events.blooms
    count = len(pids)
    own = vecs[np.arange(count), pids]
    # Chunk rows so the broadcast Bloom comparison holds at most 4M cells (a
    # few MB); larger chunks only cost memory once a chunk is this wide.
    rows = max(1, (1 << 22) // max(1, count * blooms.shape[1]))
    both = oracle_total = predicted_total = 0
    for lo in range(0, count, rows):
        hi = min(count, lo + rows)
        oracle = _reaches(pids[lo:hi], own[lo:hi], vecs).T
        predicted = (blooms[lo:hi, None, :] <= blooms[None, :, :]).all(axis=2)
        both += int(np.count_nonzero(oracle & predicted))
        oracle_total += int(np.count_nonzero(oracle))
        predicted_total += int(np.count_nonzero(predicted))
    # The diagonal (each event against itself) passes both tests; it is not a pair.
    tp = both - count
    fp = predicted_total - both
    fn = oracle_total - both
    return ConfusionCounts(tp, fp, count * (count - 1) - tp - fp - fn, fn)


def compute_metrics(counts: ConfusionCounts) -> MetricsReport:
    """Ratio metrics over the counted pairs, with defined sentinels for empty denominators."""
    total = counts.total
    if total == 0:
        raise ValueError("cannot compute metrics over zero pairs")
    sentinels = []
    if counts.tp + counts.fp > 0:
        precision = counts.tp / (counts.tp + counts.fp)
    else:
        precision = 1.0
        sentinels.append("precision")
    if counts.tp + counts.fn > 0:
        recall = counts.tp / (counts.tp + counts.fn)
    else:
        recall = 1.0
        sentinels.append("recall")
    if counts.fp + counts.tn > 0:
        fpr = counts.fp / (counts.fp + counts.tn)
    else:
        fpr = 0.0
        sentinels.append("fpr")
    accuracy = (counts.tp + counts.tn) / total
    return MetricsReport(
        counts=counts,
        precision=precision,
        accuracy=accuracy,
        recall=recall,
        fpr=fpr,
        alpha=causality_spread(counts),
        sentinels=tuple(sentinels),
    )


def causality_spread(counts: ConfusionCounts) -> float:
    """Fraction of tested ordered pairs that are truly causally related."""
    total = counts.total
    if total == 0:
        raise ValueError("cannot compute causality spread over zero pairs")
    return (counts.tp + counts.fn) / total


def slice_metrics(log: ExecutionLog, spec: SliceSpec | None = None) -> MetricsReport:
    """Sample the slice, classify all ordered pairs, and compute the ratios."""
    return compute_metrics(confusion_counts(sample_slice(log, spec)))


def probability_curve(
    log: ExecutionLog, y_gsn: int, z_from: int, z_to: int
) -> list[CurveRow]:
    """Per-pair probabilities of a fixed event y against every z in a GSN window."""
    if not 1 <= y_gsn < z_from:
        raise ValueError(f"need 1 <= y_gsn < z_from, got y_gsn={y_gsn}, z_from={z_from}")
    if not z_from <= z_to <= len(log):
        raise ValueError(
            f"need z_from <= z_to <= log end, got z_from={z_from}, z_to={z_to}, end={len(log)}"
        )
    y = log.select([y_gsn])[0]
    window = log.select(range(z_from, z_to + 1))
    causal = _reaches(y.pid, y.vector_ts.counters[y.pid], window.vectors).tolist()
    dominates = (window.blooms >= np.asarray(y.bloom_ts.counters)).all(axis=1).tolist()
    probabilities = pr_positive_by_sum(y.bloom_ts, window.blooms.sum(axis=1).tolist())
    return [
        CurveRow(gsn, p, *false_positive_probabilities(p, delta), _outcome(oracle, delta))
        for gsn, p, delta, oracle in zip(window.gsns.tolist(), probabilities, dominates, causal)
    ]
