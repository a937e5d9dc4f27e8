"""Line-oriented persistence for execution logs.

The format is deliberately plain so traces diff well:

* line 1: ``#config`` followed by the run configuration as JSON,
* line 2: the field header,
* then one pipe-separated record per event, in GSN order.

Clock vectors are comma-joined inside their field; optional fields
(sender, receiver, send_gsn) are left empty when absent (-1), and any
other value keeps its sign.  An empty log persists as just the two
header lines.  Persisting reads the log's rows from
``ExecutionLog._blocks``, the one row stream of a log, and formats each
block with its columns as bytes in numpy, without building records or
strings; an unstamped log is stamped block by block and stays unstamped.

Loading reads every ``\\r\\n`` of the file as ``\\n``, then reads the
file once, in one loop over chunks of ``simulation._STAMP_CHUNK`` lines,
the row stream's block size.  A line is the bytes before a newline, for
the decoder and the line parser alike, and is decoded as UTF-8 on its
own; a blank record line holds no event.  The config and header lines
are read first.  Each chunk of records is then decoded straight into the
rows if every record holds its separators in persist's layout, a kind
name in the kind field, nothing in an absent sender, receiver or
send_gsn, and 1 to 9 ASCII digits in every other field.  A chunk the
decoder declines goes through the line parser one line at a time.  The
line parser reads any chunk the decoder accepts to the same rows, so it
is the only source of ``TraceParseError``, which names the file's first
bad line.  Both fill one int32 matrix, a row per record in field order,
and the log views it.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import simulation
from .simulation import KINDS, Events, ExecutionLog, ExperimentConfig

_FIELDS = ("gsn", "pid", "kind", "event_index", "sender", "receiver", "send_gsn", "vector_ts", "bloom_ts")
_HEADER = "|".join(_FIELDS)
_CONFIG_PREFIX = "#config "
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
_INT32 = np.iinfo(np.int32)
# The writer gives each value one cell of byte slots.  A record's cells are
# gsn and pid, three that hold the kind name and its pipe, then
# event_index, sender, receiver, send_gsn and the clock counters.
_KIND_CELL, _KIND_CELLS = 2, 3
_SCALAR_CELLS = (0, 1, 5, 6, 7, 8)
_OPTIONAL_CELLS = slice(6, 9)
_CLOCK_CELL = 9
_POWERS_OF_TEN = 10 ** np.arange(1, 10, dtype=np.int64)
_NEWLINE, _PIPE, _COMMA, _MINUS, _ZERO = b"\n|,-0"
# The reader's field positions, each kind's name, and the place value of
# each of the at most 9 digits it reads in a field.
_KIND_FIELD = _FIELDS.index("kind")
_OPTIONAL_FIELDS = slice(_FIELDS.index("sender"), _FIELDS.index("send_gsn") + 1)
_KIND_NAMES = tuple(np.frombuffer(kind.encode(), np.uint8) for kind in KINDS)
_PLACES = 10 ** np.arange(9, dtype=np.int32)


class TraceParseError(ValueError):
    """A trace file could not be parsed (the message names the line) or does not hold its config's run."""


def _kind_cells(cell: int) -> np.ndarray:
    """Each kind's name and pipe, NUL-padded in front, as ``_KIND_CELLS`` cells of ``cell`` slots."""
    size = _KIND_CELLS * cell
    names = b"".join(kind.encode().rjust(size - 1, b"\0") + b"|" for kind in KINDS)
    return np.frombuffer(names, np.uint8).reshape(len(KINDS), _KIND_CELLS, cell)


def _chunk_bytes(columns: list[np.ndarray], clocks: np.ndarray, separators: np.ndarray) -> bytes:
    """The trace lines of the rows ``columns`` and ``clocks``; ``separators`` holds the byte that ends each cell.

    Every cell has D digit slots and one separator slot, D being the digit
    count of the chunk's widest value plus a sign slot if a value is
    negative, and at least 2 so that a kind name fits its cells.  A value's
    digits end at the separator; the slots before them, and every digit
    slot of an absent optional field, hold NUL, which one ``translate``
    drops at the end.  The digits come from uint32 floor division by 10,
    one contiguous plane per slot, each then written into its slot of the
    cells.
    """
    gsns, pids, kinds, *linkage = columns
    values = np.zeros((len(clocks), len(separators)), np.int32)
    for cell, column in zip(_SCALAR_CELLS, (gsns, pids, *linkage)):
        values[:, cell] = column
    values[:, _CLOCK_CELL:] = clocks
    optional = values[:, _OPTIONAL_CELLS]
    absent = optional == -1
    optional[absent] = 0
    negative = values < 0
    # abs maps the int32 minimum to itself, which reads as 2**31 in uint32.
    magnitudes = np.abs(values, out=values).view(np.uint32)
    width = max(len(str(magnitudes.max())) + bool(negative.any()), 2)
    cells = np.empty((len(clocks), len(separators), width + 1), np.uint8)
    cells[:, :, width] = separators
    plane = np.empty(values.shape, np.uint8)
    quotients = magnitudes
    for slot in reversed(range(width)):
        tens = quotients // 10
        np.subtract(quotients, tens * 10, out=plane, casting="unsafe")
        if slot == width - 1:  # a value's last digit, written even when it is 0
            plane += _ZERO
            plane[:, _OPTIONAL_CELLS][absent] = 0
        else:  # a leading digit, written while the quotient is nonzero
            plane += (quotients > 0).view(np.uint8) * np.uint8(_ZERO)
        cells[:, :, slot] = plane
        quotients = tens
    if negative.any():
        row, cell = np.nonzero(negative)
        digits = 1 + (magnitudes[row, cell, None] >= _POWERS_OF_TEN).sum(axis=1)
        cells[row, cell, width - 1 - digits] = _MINUS
    cells[:, _KIND_CELL : _KIND_CELL + _KIND_CELLS] = _kind_cells(width + 1)[kinds]
    return cells.tobytes().translate(None, b"\0")


def _head(config: ExperimentConfig) -> bytes:
    """The config line and the header line, joined by a newline, as ``persist_trace`` writes them."""
    return f"{_CONFIG_PREFIX}{json.dumps(asdict(config), sort_keys=True)}\n{_HEADER}".encode()


def _layout(entities: int, m: int) -> bytes:
    """The separators of one record line in order: seven pipes, the clocks' commas and pipe, the newline."""
    return b"|" * 7 + b"," * (entities - 1) + b"|" + b"," * (m - 1) + b"\n"


def persist_trace(log: ExecutionLog, path: str | Path) -> None:
    """Write the log to ``path``; ``load_trace`` reproduces an equal log.

    The rows come a block at a time from the log's one row stream, so
    persist holds one block of them and leaves an unstamped log unstamped.
    A kind code that names no kind is refused before the file is opened.
    """
    config, columns = log.config, log.columns()
    simulation._check_kinds(columns[0], columns[2])
    layout = _layout(config.entities, config.m)
    # The kind's pipe is written with its name, in the kind cells.
    separators = np.frombuffer(layout[:_KIND_CELL] + b"\0" * _KIND_CELLS + layout[_KIND_CELL + 1 :], np.uint8)
    with open(path, "wb") as handle:
        handle.write(_head(config) + b"\n")
        lo = 0
        for clocks in log._blocks():
            handle.write(_chunk_bytes([column[lo : lo + len(clocks)] for column in columns], clocks, separators))
            lo += len(clocks)


def _line(data: bytes, start: int, stop: int, lineno: int) -> str:
    """Line ``lineno``, the bytes ``data[start:stop]`` before a newline, as text."""
    try:
        return data[start:stop].decode()
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"line {lineno}: byte {data[start + exc.start]:#04x} is not UTF-8 text") from exc


def _read_config(data: bytes, ends: np.ndarray) -> ExperimentConfig:
    """The run configuration on line 1, after checking the header on line 2; ``ends`` holds each newline's position."""
    first = _line(data, 0, ends[0], 1)
    if not first.startswith(_CONFIG_PREFIX):
        raise TraceParseError("line 1: missing config line")
    try:
        config = ExperimentConfig(**json.loads(first[len(_CONFIG_PREFIX) :]))
    except (TypeError, ValueError, RecursionError) as exc:  # json.loads recurses once per nested bracket
        raise TraceParseError(f"line 1: bad config: {exc}") from exc
    if len(ends) < 2 or _line(data, ends[0] + 1, ends[1], 2) != _HEADER:
        raise TraceParseError(f"line 2: expected header {_HEADER!r}")
    return config


def _parse_record(line: str, lineno: int, entities: int, m: int) -> list[int]:
    """The values of one line in field order: kind as its code, absent fields as -1, then the counters."""
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
    values = scalars + vector + bloom
    for value in (min(values), max(values)):
        if not _INT32.min <= value <= _INT32.max:
            raise TraceParseError(f"line {lineno}: value {value} is outside the int32 range")
    return values


def _log(config: ExperimentConfig, rows: np.ndarray) -> ExecutionLog:
    """The log whose events are the int32 ``rows``, one per event in field order."""
    width = len(Events.COLUMNS)
    return ExecutionLog(config, Events(list(rows[:, :width].T), rows[:, width:], config.entities))


def _decode_chunk(text: np.ndarray, start: int, stop: int, out: np.ndarray, layout: np.ndarray) -> bool:
    """Read the lines of ``text[start:stop]``, each ending in a newline, into ``out``, a row a line; False if declined.

    Each field is read between the separators that place it in persist's
    layout: the kind by its name, every other field as 1 to 9 ASCII
    digits, which always fit in int32, and an empty sender, receiver or
    send_gsn as -1.  Any other line may be one the line parser rejects or
    reads differently, so it is declined.
    """
    chunk = text[start:stop]
    separators = chunk == _PIPE
    separators |= chunk == _COMMA
    separators |= chunk == _NEWLINE
    ends = np.flatnonzero(separators)
    if len(ends) != out.size or not (chunk[ends].reshape(out.shape) == layout).all():
        return False
    lengths = np.empty_like(ends)
    lengths[0] = ends[0]
    np.subtract(ends[1:], ends[:-1], out=lengths[1:])
    lengths[1:] -= 1
    fields = lengths.reshape(out.shape)
    kind_ends, kind_lengths = ends.reshape(out.shape)[:, _KIND_FIELD], fields[:, _KIND_FIELD].copy()
    fields[:, _KIND_FIELD] = 0  # no digits: the kind is read by its name below
    shortest, longest = fields.min(axis=0), int(lengths.max())
    shortest[_KIND_FIELD] = shortest[_OPTIONAL_FIELDS] = 1  # only these may hold no digits
    if shortest.min() == 0 or longest > len(_PLACES):
        return False
    out[:] = 0
    for slot, place in enumerate(_PLACES[:longest]):
        # At ``ends`` this view holds the byte ``slot + 1`` before each field's
        # end; the head lies before ``start``, so the view starts in the file.
        digits = text[start - 1 - slot : stop][ends] - _ZERO
        digits *= lengths > slot
        if digits.max() > 9:
            return False
        # An int32 product whatever the promotion rules: numpy 1 would keep uint8 * 100 in uint8.
        out += np.multiply(digits, place, dtype=np.int32).reshape(out.shape)
    named = 0
    for code, name in enumerate(_KIND_NAMES):
        rows = np.flatnonzero(kind_lengths == len(name))
        if not (chunk[kind_ends[rows, None] - np.arange(len(name), 0, -1)] == name).all():
            return False
        out[rows, _KIND_FIELD] = code
        named += len(rows)
    out[:, _OPTIONAL_FIELDS][fields[:, _OPTIONAL_FIELDS] == 0] = -1
    return named == len(out)


def load_trace(path: str | Path) -> ExecutionLog:
    """Read a trace written by ``persist_trace``; a ``TraceParseError`` names the file's first bad line.

    Each ``\\r\\n`` becomes ``\\n`` in one copy of a file that holds a
    ``\\r``.  ``_decode_chunk`` then reads each chunk of records in
    persist's layout, and ``_parse_record`` each line of a chunk it
    declines, from the last filled row, over what the decoder wrote there.
    """
    data = Path(path).read_bytes()
    if not data.endswith(b"\n"):  # a last line without a newline ends with the file
        data += b"\n"
    if b"\r" in data:  # a CRLF line end is a newline
        data = data.replace(b"\r\n", b"\n")
    text = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(text == _NEWLINE)
    config = _read_config(data, ends)
    layout = np.frombuffer(_layout(config.entities, config.m), np.uint8)
    rows = np.empty((len(ends) - 2, len(layout)), np.int32)
    filled = 0
    for lo in range(2, len(ends), simulation._STAMP_CHUNK):
        # The chunk's lines lie between the newline before it and each of their own.
        bounds = ends[lo - 1 : lo + simulation._STAMP_CHUNK]
        out = rows[filled : filled + len(bounds) - 1]
        if _decode_chunk(text, bounds[0] + 1, bounds[-1] + 1, out, layout):
            filled += len(out)
            continue
        bounds = bounds.tolist()
        for lineno, (before, end) in enumerate(zip(bounds, bounds[1:]), start=lo + 1):
            line = _line(data, before + 1, end, lineno)
            if line:  # a blank line holds no record
                rows[filled] = _parse_record(line, lineno, config.entities, config.m)
                filled += 1
    return _log(config, rows[:filled])
