"""Line-oriented persistence for execution logs.

The format is deliberately plain so traces diff well:

* line 1: ``#config`` followed by the run configuration as JSON,
* line 2: the field header,
* then one pipe-separated record per event, in GSN order.

Clock vectors are comma-joined inside their field; optional fields
(sender, receiver, send_gsn) are left empty when absent.  An empty log
persists as just the two header lines.  Both directions work on the log's
columns a chunk of rows at a time, without building event records.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .simulation import KINDS, Events, ExecutionLog, ExperimentConfig

_FIELDS = ("gsn", "pid", "kind", "event_index", "sender", "receiver", "send_gsn", "vector_ts", "bloom_ts")
_HEADER = "|".join(_FIELDS)
_CONFIG_PREFIX = "#config "
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
_CHUNK = 1024
# Counters below this print through a table of their decimal strings,
# twice as fast as str(); clocks of runs with up to ~10**5 events fit.
_TABLE_SIZE = 1 << 17


class TraceParseError(ValueError):
    """A trace file line could not be parsed; the message names the line number."""


def _counter_text(events: Events) -> Callable[[int], str]:
    """``str`` for clock counters, through a lookup table when they all lie in [0, _TABLE_SIZE)."""
    clocks = (events.vectors, events.blooms)
    if min(c.min(initial=0) for c in clocks) < 0:
        return str
    top = max(c.max(initial=0) for c in clocks)
    if top >= _TABLE_SIZE:
        return str
    return [str(value) for value in range(top + 1)].__getitem__


def _format_rows(events: Events, text: Callable[[int], str]) -> list[str]:
    def opt(value: int) -> str:
        return "" if value < 0 else str(value)

    gsns, pids, kinds, xs, senders, receivers, send_gsns = (column.tolist() for column in events.columns())
    return [
        f"{gsn}|{pid}|{KINDS[kind]}|{x}|{opt(sender)}|{opt(receiver)}|{opt(send_gsn)}|"
        f"{','.join(map(text, vector))}|{','.join(map(text, bloom))}"
        for gsn, pid, kind, x, sender, receiver, send_gsn, vector, bloom in zip(
            gsns, pids, kinds, xs, senders, receivers, send_gsns, events.vectors.tolist(), events.blooms.tolist()
        )
    ]


def persist_trace(log: ExecutionLog, path: str | Path) -> None:
    """Write the log to ``path``; ``load_trace`` reproduces an equal log."""
    events = log.events
    text = _counter_text(events)
    with open(path, "w") as handle:
        handle.write(_CONFIG_PREFIX + json.dumps(asdict(log.config), sort_keys=True) + "\n" + _HEADER + "\n")
        for lo in range(0, len(events), _CHUNK):
            handle.write("\n".join(_format_rows(events[lo : lo + _CHUNK], text)) + "\n")


def _parse_record(line: str, lineno: int, entities: int, m: int) -> tuple[list[int], list[int], list[int]]:
    """Scalar fields (kind as its code, absent fields as -1), vector and Bloom counters of one line."""
    parts = line.split("|")
    if len(parts) != len(_FIELDS):
        raise TraceParseError(f"line {lineno}: expected {len(_FIELDS)} fields, got {len(parts)}")

    def opt(text: str, name: str) -> int:
        if text == "":
            return -1
        value = int(text)
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
        return value

    try:
        kind = _KIND_CODES.get(parts[2])
        if kind is None:
            raise ValueError(f"unknown event kind {parts[2]!r}")
        scalars = [
            int(parts[0]),
            int(parts[1]),
            kind,
            int(parts[3]),
            opt(parts[4], "sender"),
            opt(parts[5], "receiver"),
            opt(parts[6], "send_gsn"),
        ]
        vector = list(map(int, parts[7].split(",")))
        bloom = list(map(int, parts[8].split(",")))
    except ValueError as exc:
        raise TraceParseError(f"line {lineno}: {exc}") from exc
    if len(vector) != entities:
        raise TraceParseError(f"line {lineno}: vector clock has {len(vector)} components, expected {entities}")
    if len(bloom) != m:
        raise TraceParseError(f"line {lineno}: Bloom clock has {len(bloom)} counters, expected m={m}")
    return scalars, vector, bloom


def _fill(target: np.ndarray, rows: list[list[int]], linenos: list[int]) -> None:
    """Copy parsed rows into ``target``; a value outside the column dtype names its line."""
    try:
        target[:] = rows
    except OverflowError:
        for row, values, lineno in zip(target, rows, linenos):
            try:
                row[:] = values
            except OverflowError as exc:
                raise TraceParseError(f"line {lineno}: {exc}") from exc
        raise


def load_trace(path: str | Path) -> ExecutionLog:
    """Read a trace written by ``persist_trace``."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith(_CONFIG_PREFIX):
        raise TraceParseError("line 1: missing config line")
    try:
        config = ExperimentConfig(**json.loads(lines[0][len(_CONFIG_PREFIX):]))
    except (TypeError, ValueError) as exc:
        raise TraceParseError(f"line 1: bad config: {exc}") from exc
    if len(lines) < 2 or lines[1] != _HEADER:
        raise TraceParseError(f"line 2: expected header {_HEADER!r}")
    numbered = [(lineno, line) for lineno, line in enumerate(lines[2:], start=3) if line]
    entities, m = config.entities, config.m
    count = len(numbered)
    scalars = np.empty((count, len(Events.COLUMNS)), np.int32)
    vectors = np.empty((count, entities), np.int32)
    blooms = np.empty((count, m), np.int32)
    for lo in range(0, count, _CHUNK):
        chunk = numbered[lo : lo + _CHUNK]
        linenos = [lineno for lineno, _ in chunk]
        parsed = [_parse_record(line, lineno, entities, m) for lineno, line in chunk]
        hi = lo + len(chunk)
        for target, rows in zip((scalars, vectors, blooms), zip(*parsed)):
            _fill(target[lo:hi], list(rows), linenos)
    return ExecutionLog(config=config, events=Events(list(scalars.T), vectors, blooms))
