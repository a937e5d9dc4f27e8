"""Pairwise classification of an execution slice against the vector-clock oracle.

Events are subsampled on a GSN grid, every ordered pair of sampled events is
classified (both directions, so the causality spread tops out at 0.5), and
the confusion counts feed the usual ratio metrics.  The Bloom test cannot
produce false negatives, so recall is 1 whenever any positive exists.

The pairs are counted on packed bitsets rather than compared one by one:
on one Bloom counter the events that dominate y form a suffix of that
counter's sort order, so y's predicted set is the AND of m suffix rows
(the Bitmap method of Tan, Eng & Ooi, VLDB 2001), and y's oracle set is
packed the same way, once per slice, since it does not depend on the Bloom
clock's (m, k).  For a slice of S events that is O(m·S²/64) word operations
per geometry and a few S²/8-byte bitsets, against S²·m counter comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clocks import DigestTable
from .errors import ConfigurationError

# classify_probabilities is no longer called here, but perfbench's traced run
# wraps ``metrics.classify_probabilities``, so the name stays bound.
from .probability import classify_probabilities  # noqa: F401
from .probability import false_positive_probabilities, pr_positive_by_sum
from .simulation import EventRecord, Events, ExecutionLog, Geometries, _by_process

# Bitsets are little-endian 64-bit words, so bit z of a row sits in byte
# z // 8 of its byte view, as ``np.packbits(..., bitorder="little")`` lays it.
_WORD = np.dtype("<u8")
_BYTE_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], np.uint8)


@dataclass(frozen=True)
class SliceSpec:
    """GSN grid for sampling: start (default 10*n) and stride, up to the log's end."""

    start_gsn: int | None = None
    stride: int = 100

    def __post_init__(self) -> None:
        # A float or bool would fail in range() only after the run, or pass as stride 1.
        for name, value in (("start_gsn", self.start_gsn), ("stride", self.stride)):
            if (value is not None or name == "stride") and type(value) is not int:
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.start_gsn is not None and self.start_gsn < 1:
            raise ValueError(f"start_gsn must be at least 1, got {self.start_gsn}")
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")


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


class CurveRow(NamedTuple):
    """One row of a probability curve; a curve builds one per z, so it is a tuple, not a dataclass."""

    z_gsn: int
    pr_p: float
    pr_fp_step: float
    pr_fp_smooth: float
    outcome: str


def _slice_grid(log: ExecutionLog, spec: SliceSpec | None) -> range:
    """The slice's GSNs: start, start+stride, ... <= the log's end; ``log._wanted`` checks them against its rows."""
    spec = spec if spec is not None else SliceSpec()
    start = spec.start_gsn if spec.start_gsn is not None else 10 * log.config.n
    if start > len(log):
        raise ValueError(f"empty slice: start_gsn {start} beyond log end {len(log)}")
    return range(start, len(log) + 1, spec.stride)


def sample_slice(log: ExecutionLog, spec: SliceSpec | None = None) -> Events:
    """Events at gsn = start, start+stride, ... <= the log's end, through ``log.select``."""
    return log.select(_slice_grid(log, spec))


def _outcome(oracle: bool, predicted: bool) -> str:
    if oracle:
        return "TP" if predicted else "FN"
    return "FP" if predicted else "TN"


def classify_pair(y: EventRecord, z: EventRecord) -> str:
    """Outcome of testing y -> z: the vector oracle against the Bloom dominance test."""
    return _outcome(y.vector_ts.happened_before(z.vector_ts), y.bloom_ts.leq(z.bloom_ts))


def _popcount(bits: np.ndarray) -> int:
    """Set bits in ``bits``, counted byte by byte through a lookup table."""
    return int(_BYTE_POPCOUNT[bits.view(np.uint8)].sum(dtype=np.int64))


def _predicted_bits(blooms: np.ndarray) -> np.ndarray:
    """Row y packs the z whose Bloom clock dominates y's, bit z in word z // 64: the AND of y's m suffix rows."""
    count = len(blooms)
    words = (count + 63) >> 6
    predicted = np.full((count, words), np.iinfo(np.uint64).max, _WORD)
    # Counters in groups whose suffix bitsets hold about 1M words.  Keys
    # sort by counter, then by value from the largest down, so row j of a
    # counter's block of ``suffix`` holds its j + 1 largest events, and y
    # takes the row at the last of its ties.
    group = max(1, (1 << 20) // (count * words))
    for lo in range(0, blooms.shape[1], group):
        values = blooms[:, lo : lo + group].T
        keys = ((np.arange(len(values), dtype=np.int64)[:, None] << 32) - values).ravel()
        order = np.argsort(keys)
        ranked = keys[order]
        ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
        last_tie = np.empty_like(order)
        last_tie[order] = np.repeat(ends, np.diff(ends, prepend=-1))
        z = order % count
        suffix = np.zeros((len(keys), words), _WORD)
        suffix[np.arange(len(keys)), z >> 6] = np.uint64(1) << (z & 63).astype(np.uint64)
        blocks = suffix.reshape(len(values), count, words)
        np.bitwise_or.accumulate(blocks, axis=1, out=blocks)
        rows = suffix[last_tie].reshape(blocks.shape)
        # Drop each bitset once read, so no more than three are alive.
        del suffix, blocks
        for counter in range(len(values)):
            predicted &= rows[counter]
        del rows
    return predicted


def _oracle_bits(pids: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Row y packs the z with ``V_z[pid_y] >= V_y[pid_y]`` (y -> z in one execution), as ``_predicted_bits`` packs."""
    count = len(pids)
    own = vectors[np.arange(count), pids]
    by_process = _by_process(pids)
    oracle = np.zeros((count, (count + 63) >> 6), _WORD)
    # Blocks of 1M cells, of y sorted by process, read the few clock columns their processes own.
    block = max(1, (1 << 20) // count)
    for lo in range(0, count, block):
        ys = by_process[lo : lo + block]
        columns, column_of = np.unique(pids[ys], return_inverse=True)
        reached = vectors[:, columns].T[column_of] >= own[ys, None]  # [y, z]: y -> z
        oracle.view(np.uint8)[ys, : (count + 7) >> 3] = np.packbits(reached, axis=1, bitorder="little")
    return oracle


def _counts(oracle: np.ndarray, predicted: np.ndarray) -> ConfusionCounts:
    """Counts from three popcounts; the diagonal (each event against itself) passes both tests and is not a pair."""
    count = len(oracle)
    both = _popcount(oracle & predicted)
    tp = both - count
    fp = _popcount(predicted) - both
    fn = _popcount(oracle) - both
    return ConfusionCounts(tp, fp, count * (count - 1) - tp - fp - fn, fn)


def confusion_counts(events: Events) -> ConfusionCounts:
    """Classify every ordered pair of distinct events (both directions): y's oracle row against its prediction row."""
    if len(events) < 2:
        raise ValueError(f"need at least two events to form pairs, got {len(events)}")
    return _counts(_oracle_bits(events.pids, events.vectors), _predicted_bits(events.blooms))


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


def slice_metrics(
    log: ExecutionLog, geometries: Geometries, digests: DigestTable, spec: SliceSpec | None = None
) -> list[MetricsReport]:
    """Report j classifies the slice at ``geometries[j]``; one stamp through ``digests`` and one oracle serve all."""
    wanted = log._wanted(_slice_grid(log, spec))
    if len(wanted) < 2:  # refused before the stamp, which would walk the log up to the slice
        raise ValueError(f"need at least two events to form pairs, got {len(wanted)}")
    clocks = log._stamped_rows(wanted, geometries, digests)
    entities = log.config.entities
    oracle = _oracle_bits(log.columns()[1][wanted - 1], clocks[:, :entities])
    bounds = np.cumsum([entities, *(m for m, _ in geometries)]).tolist()
    return [compute_metrics(_counts(oracle, _predicted_bits(clocks[:, lo:hi]))) for lo, hi in zip(bounds, bounds[1:])]


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
    # Fidge/Mattern: y -> z iff z has seen y's own tick, V_z[pid_y] >= V_y[pid_y].
    causal = window.vectors[:, y.pid] >= y.vector_ts.counters[y.pid]
    dominates = (window.blooms >= np.asarray(y.bloom_ts.counters)).all(axis=1)
    # A row's values depend only on z's Bloom sum, the dominance bit and the
    # oracle bit, so each (sum, dominance, oracle) class is evaluated once.
    keys = (window.blooms.sum(axis=1, dtype=np.int64) * 2 + dominates) * 2 + causal
    classes, row_class = np.unique(keys, return_inverse=True)
    sums, bit_pairs = np.divmod(classes, 4)
    tails = []
    for p, bit_pair in zip(pr_positive_by_sum(y.bloom_ts, sums.tolist()), bit_pairs.tolist()):
        delta, oracle = divmod(bit_pair, 2)
        tails.append((p, *false_positive_probabilities(p, delta), _outcome(oracle, delta)))
    return [CurveRow(gsn, *tails[c]) for gsn, c in zip(window.gsns.tolist(), row_class.tolist())]
