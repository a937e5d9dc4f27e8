"""Independent references the tests hold the package's slice classification and replay to.

Each cell is run seed by seed, its slice read from the fully stamped log,
and its pairs counted by comparing every counter of every pair at once;
only the ratios and their means come from the package's own arithmetic.
``stamp_and_compare_replay`` re-stamps a log's columns and compares the
result with the log's rows block by block.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from bloomclock import ConfusionCounts, compute_metrics, run, simulation
from bloomclock.clocks import DigestTable
from bloomclock.experiments import RunArtifact, aggregate_reports
from bloomclock.simulation import _refuse, _stamp


def broadcast_counts(events):
    """Reference count: every Bloom counter and oracle cell of all S^2 pairs compared at once."""
    own = events.vectors[np.arange(len(events)), events.pids]
    oracle = events.vectors[:, events.pids] >= own  # [z, y]: y -> z
    predicted = (events.blooms[None, :, :] <= events.blooms[:, None, :]).all(axis=2)  # [z, y]
    np.fill_diagonal(oracle, False)
    np.fill_diagonal(predicted, False)
    tp = int(np.count_nonzero(oracle & predicted))
    fp = int(np.count_nonzero(predicted & ~oracle))
    fn = int(np.count_nonzero(oracle & ~predicted))
    tn = len(events) * (len(events) - 1) - tp - fp - fn
    return ConfusionCounts(tp, fp, tn, fn)


def reference_artifact(config, seeds, slice_spec) -> RunArtifact:
    """One cell's artifact, run and classified seed by seed on the GSN grid start, start+stride, ..."""
    start = slice_spec.start_gsn if slice_spec.start_gsn is not None else 10 * config.n
    reports = []
    for seed in seeds:
        log = run(replace(config, seed=seed))
        grid = np.arange(start, len(log) + 1, slice_spec.stride)
        reports.append(compute_metrics(broadcast_counts(log.events[grid - 1])))
    return RunArtifact(config, tuple(seeds), tuple(reports), aggregate_reports(reports))


def stamp_and_compare_replay(log) -> None:
    """The replay that stamps the log's columns with ``_stamp`` and compares each block with ``log._blocks()``.

    It refuses the first row that differs with ``replay_timestamps``'s message: only its row check differs.
    It reads ``simulation._STAMP_CHUNK`` when called, so a patched block size holds.
    """
    config, count = log.config, len(log)
    unmatched = np.zeros(count, bool)
    stamped = _stamp(config, log.columns(), DigestTable(config.seed), np.arange(1, count + 1), [(config.m, config.k)])
    for lo, (rows, picked), block in zip(range(0, count, simulation._STAMP_CHUNK), stamped, log._blocks()):
        unmatched[lo : lo + len(block)] = (rows[picked] != block).any(axis=1)
    _refuse(unmatched, lambda r: f"gsn {r + 1}: replayed timestamps differ from the recorded ones")
