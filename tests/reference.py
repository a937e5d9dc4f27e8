"""Independent references the tests hold the package's slice classification and replay to.

Each cell is run seed by seed, its slice read from the fully stamped log,
and its pairs counted by comparing every counter of every pair at once;
only the ratios and their means come from the package's own arithmetic.
``stamp_and_compare_replay`` re-stamps a log's rebuilt linkage and
compares the result with the log's rows block by block.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from bloomclock import ConfusionCounts, compute_metrics, run, simulation
from bloomclock.clocks import DigestTable
from bloomclock.experiments import RunArtifact, aggregate_reports
from bloomclock.simulation import SEND, Events, ReplayError, _check_links, _linkage_log, _optional, _stamp


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
    """The replay that stamps the rebuilt linkage with ``_stamp`` and compares each block with ``log._blocks()``.

    Its guards, ``_check_links``, and its messages are ``replay_timestamps``'s; it reads
    ``simulation._STAMP_CHUNK`` when called, so a patched block size holds.
    """
    config, recorded = log.config, log.columns()
    _check_links(recorded, config.entities)
    _, pids, kinds, _, _, receivers, send_gsns = recorded
    rebuilt = _linkage_log(config, pids, kinds, np.where(kinds == SEND, receivers, send_gsns)).columns()
    pairs = list(zip(recorded, rebuilt))
    stamps = np.zeros(len(pids), bool)
    stamped = _stamp(config, rebuilt, DigestTable(config.seed), len(pids), [(config.m, config.k)])
    for lo, (events, rows), block in zip(range(0, len(pids), simulation._STAMP_CHUNK), stamped, log._blocks()):
        stamps[events] = (rows != block[events - lo]).any(axis=1)
    differs = np.stack([held != derived for held, derived in pairs] + [stamps])
    if differs.any():
        row = int(np.argmax(differs.any(axis=0)))
        field = int(np.argmax(differs[:, row]))
        if field == len(pairs):
            raise ReplayError(f"gsn {row + 1}: replayed timestamps differ from the recorded ones")
        held, derived = (_optional(int(column[row])) for column in pairs[field])
        raise ReplayError(f"gsn {row + 1}: column {Events.COLUMNS[field]} holds {held}, replay derives {derived}")
