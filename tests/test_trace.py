"""Trace persistence: round trips, format errors, hand-written traces."""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bloomclock.trace as trace_module
from bloomclock import (
    ExecutionLog,
    ExperimentConfig,
    ReplayError,
    TraceParseError,
    confusion_counts,
    load_trace,
    persist_trace,
    replay_timestamps,
    run,
)
from bloomclock import simulation
from bloomclock.cli import main
from bloomclock.simulation import _STAMP_CHUNK, KINDS, Events


def _decline(text, start, stop, out, layout):
    """A ``_decode_chunk`` that writes into its rows and then declines the chunk."""
    out[:] = -7
    return False


def _load_line_by_line(path):
    """``load_trace`` with the decoder declining every chunk, so ``_parse_record`` reads every line."""
    with mock.patch.object(trace_module, "_decode_chunk", _decline):
        return load_trace(path)


def _no_line_parser(line, lineno, entities, m):
    raise AssertionError(f"line {lineno} went through the line parser")


@pytest.mark.parametrize("topology,n", [("complete", 15), ("star", 8), ("broadcast", 10)])
def test_round_trip(tmp_path, topology, n):
    log = run(ExperimentConfig(topology, n=n, m=4, k=2, seed=27))
    path = tmp_path / "trace.txt"
    persist_trace(log, path)
    assert load_trace(path) == log


def test_empty_log_round_trip(tmp_path):
    config = ExperimentConfig("complete", n=4, m=2, k=1)
    empty = ExecutionLog(config, run(config).events[:0])
    path = tmp_path / "empty.txt"
    persist_trace(empty, path)
    assert path.read_text().count("\n") == 2
    loaded = load_trace(path)
    assert loaded == empty


def test_clock_views_share_one_matrix(tmp_path):
    config = ExperimentConfig("complete", n=6, m=3, k=2, pr_i=0.2, seed=4, gsn_limit=60)
    path = tmp_path / "trace.txt"
    persist_trace(run(config), path)
    stamped = run(config).events
    for events, expected in [
        (stamped, stamped),
        (run(config).select(range(5, 50, 3)), stamped[4:49:3]),
        (load_trace(path).events, stamped),
        (_load_line_by_line(path).events, stamped),
    ]:
        assert events == expected
        for part in (events, events[1:9:2], events[np.array([0, 2])]):
            assert part.clocks.shape[1] == config.entities + config.m
            assert np.shares_memory(part.vectors, part.clocks) and np.shares_memory(part.blooms, part.clocks)
            assert np.array_equal(part.clocks, np.hstack([part.vectors, part.blooms]))
    # The same counters split at another width are other clocks.
    assert Events(stamped.columns(), stamped.clocks, config.entities + 1) != stamped


def _reference_trace(log):
    """The bytes of ``log``'s trace built with ``str``, one line at a time."""

    def opt(value):
        return "" if value == -1 else str(value)

    events = log.events
    lines = [f"#config {json.dumps(asdict(log.config), sort_keys=True)}", trace_module._HEADER]
    for gsn, pid, kind, x, sender, receiver, send_gsn, vector, bloom in zip(
        *(column.tolist() for column in events.columns()), events.vectors.tolist(), events.blooms.tolist()
    ):
        lines.append(
            f"{gsn}|{pid}|{KINDS[kind]}|{x}|{opt(sender)}|{opt(receiver)}|{opt(send_gsn)}|"
            f"{','.join(map(str, vector))}|{','.join(map(str, bloom))}"
        )
    return "".join(line + "\n" for line in lines).encode()


INT32_MIN, INT32_MAX = int(np.iinfo(np.int32).min), int(np.iinfo(np.int32).max)
# Small values, decimal length boundaries, negatives and the int32 extremes.
WRITER_VALUES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([9, 10, 99, 100, 9999, 10**5, 10**9 - 1, 10**9, -10, -99999, INT32_MIN, INT32_MAX]),
    st.integers(INT32_MIN, INT32_MAX),
)


@st.composite
def hand_built_logs(draw):
    """A log of drawn int32 columns and clocks, empty or of a few rows."""
    entities, m = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rows = draw(st.integers(0, 8))
    config = ExperimentConfig("complete", n=entities, m=m, k=1, gsn_limit=max(rows, 1))

    def matrix(width):
        values = draw(st.lists(WRITER_VALUES, min_size=rows * width, max_size=rows * width))
        return np.array(values, np.int32).reshape(rows, width)

    gsns, pids, xs, senders, receivers, send_gsns = matrix(6).T
    kinds = np.array(draw(st.lists(st.integers(0, len(KINDS) - 1), min_size=rows, max_size=rows)), np.int32)
    columns = [gsns, pids, kinds, xs, senders, receivers, send_gsns]
    return ExecutionLog(config, Events(columns, matrix(entities + m), entities))


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "trace.txt"


@settings(max_examples=120, deadline=None)
@given(log=hand_built_logs(), chunk=st.sampled_from([1, 2, 5, 1024]))
def test_writer_matches_str_formatting(trace_path, log, chunk):
    with mock.patch.object(simulation, "_STAMP_CHUNK", chunk):
        persist_trace(log, trace_path)
    assert trace_path.read_bytes() == _reference_trace(log)


# The twin's rows are stamped in blocks of twin_chunk GSNs, and both logs
# persist in blocks of chunk: (512, 1024) holds rows stamped in blocks half
# the size of the ones the unstamped log streams and the twin's are sliced in.
@pytest.mark.parametrize("twin_chunk,chunk", [(_STAMP_CHUNK, _STAMP_CHUNK), (512, 1024), (3, 5), (1, 7)])
@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig("complete", n=9, m=3, k=2, pr_i=0.3, seed=11, gsn_limit=1100),
        ExperimentConfig("star", n=5, m=2, k=2, seed=12, messages_per_client=60),
        ExperimentConfig("broadcast", n=34, m=4, k=3, seed=13),
    ],
    ids=lambda config: config.topology,
)
def test_an_unstamped_log_persists_as_its_stamped_twin_and_stays_unstamped(
    tmp_path, monkeypatch, config, twin_chunk, chunk
):
    # Each log has more events than a block, and not a whole number of them.
    monkeypatch.setattr(simulation, "_STAMP_CHUNK", twin_chunk)
    log, twin = run(config), run(config)
    twin.events
    monkeypatch.setattr(simulation, "_STAMP_CHUNK", chunk)
    persist_trace(log, tmp_path / "streamed.txt")
    persist_trace(twin, tmp_path / "stamped.txt")
    assert log._events is None
    assert (tmp_path / "streamed.txt").read_bytes() == (tmp_path / "stamped.txt").read_bytes()


def test_a_negative_optional_field_other_than_absent_keeps_its_sign(tmp_path):
    # A send to receiver -5 is a different log from a send to no one (-1):
    # it persists with its sign, and the line parser refuses it on its line.
    log = run(ExperimentConfig("complete", n=4, m=2, k=1, seed=1, gsn_limit=20))
    columns, clocks = list(log.events.columns()), log.events.clocks
    row = int(np.flatnonzero(columns[2] == KINDS.index("send"))[0])
    columns[5] = columns[5].copy()
    columns[5][row] = -5
    edited = ExecutionLog(log.config, Events(columns, clocks, log.config.entities))
    with pytest.raises(ReplayError, match=rf"^gsn {row + 1}: send to receiver -5 outside \[-1, 4\)$"):
        replay_timestamps(edited)
    path = tmp_path / "trace.txt"
    persist_trace(edited, path)
    assert path.read_bytes() == _reference_trace(edited)
    assert path.read_text().splitlines()[row + 2].split("|")[5] == "-5"
    with pytest.raises(TraceParseError, match=rf"^line {row + 3}: receiver must be non-negative, got -5$"):
        load_trace(path)


def test_persisting_an_unstamped_log_holds_less_than_half_its_clocks(tmp_path):
    config = ExperimentConfig("complete", n=200, m=20, k=2, seed=1)
    log = run(config)
    clock_bytes = len(log) * (config.entities + config.m) * 4
    tracemalloc.start()
    try:
        persist_trace(log, tmp_path / "trace.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Persist holds the walk's live rows, one stamped block and its bytes,
    # not the 35 MB clock matrix.
    assert peak < clock_bytes / 2


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig("complete", n=12, m=1, k=3, pr_i=0.4, seed=3, gsn_limit=2500),  # three chunks
        ExperimentConfig("star", n=1, m=1, k=1, seed=4),
        ExperimentConfig("star", n=6, m=3, k=2, seed=5),
        ExperimentConfig("broadcast", n=2, m=2, k=1, seed=6),
        ExperimentConfig("broadcast", n=20, m=4, k=2, seed=7),
    ],
    ids=["complete", "star-one-client", "star", "broadcast-two", "broadcast"],
)
def test_writer_matches_str_formatting_on_runs(tmp_path, config):
    log = run(config)
    path = tmp_path / "trace.txt"
    persist_trace(log, path)
    assert path.read_bytes() == _reference_trace(log)


def test_missing_config_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("gsn|pid|kind\n")
    with pytest.raises(TraceParseError, match="line 1"):
        load_trace(path)


def test_bad_header(tmp_path):
    log = run(ExperimentConfig("complete", n=4, m=2, k=1, seed=1, gsn_limit=5))
    path = tmp_path / "bad.txt"
    persist_trace(log, path)
    lines = path.read_text().splitlines()
    lines[1] = "not|the|header"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="line 2"):
        load_trace(path)


def test_malformed_line_names_line_number(tmp_path):
    log = run(ExperimentConfig("complete", n=4, m=2, k=1, seed=1, gsn_limit=5))
    path = tmp_path / "bad.txt"
    persist_trace(log, path)
    lines = path.read_text().splitlines()
    lines[4] = lines[4].replace("|", ";", 3)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="line 5"):
        load_trace(path)


def test_unknown_kind_rejected(tmp_path):
    log = run(ExperimentConfig("complete", n=4, m=2, k=1, seed=1, gsn_limit=5))
    path = tmp_path / "bad.txt"
    persist_trace(log, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].replace("send", "sent").replace("internal", "idle").replace("receive", "recv")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="line 4"):
        load_trace(path)


def test_non_integer_counter_rejected(tmp_path):
    log = run(ExperimentConfig("complete", n=4, m=2, k=1, seed=1, gsn_limit=5))
    path = tmp_path / "bad.txt"
    persist_trace(log, path)
    lines = path.read_text().splitlines()
    parts = lines[2].split("|")
    parts[7] = "1,x,0,0"
    lines[2] = "|".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="line 3"):
        load_trace(path)


@pytest.mark.parametrize("field", [7, 8])
def test_clock_width_mismatch_names_line(tmp_path, field):
    log = run(ExperimentConfig("complete", n=4, m=3, k=1, seed=1, gsn_limit=8))
    path = tmp_path / "bad.txt"
    persist_trace(log, path)
    lines = path.read_text().splitlines()
    parts = lines[5].split("|")
    parts[field] = parts[field].rsplit(",", 1)[0]
    lines[5] = "|".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="line 6"):
        load_trace(path)


def test_counter_beyond_int32_names_line(tmp_path):
    log = run(ExperimentConfig("complete", n=4, m=2, k=1, seed=1, gsn_limit=5))
    path = tmp_path / "bad.txt"
    persist_trace(log, path)
    lines = path.read_text().splitlines()
    parts = lines[3].split("|")
    parts[8] = "1," + str(2**31)
    lines[3] = "|".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceParseError, match="line 4"):
        load_trace(path)


HAND_WRITTEN = """\
#config {"gsn_limit": 3, "k": 1, "m": 2, "messages_per_client": null, "n": 2, "pr_i": 0.0, "seed": 1, "topology": "complete"}
gsn|pid|kind|event_index|sender|receiver|send_gsn|vector_ts|bloom_ts
1|0|send|1|0|1||1,0|1,0
2|1|receive|1|0|1|1|1,1|1,1
3|0|internal|2||||2,0|2,1
"""


def test_non_utf8_byte_names_its_line(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    persist_trace(run(ExperimentConfig("star", n=3, m=2, k=2, seed=1, messages_per_client=2)), path)
    lines = path.read_bytes().split(b"\n")
    lines[4] = lines[4][:3] + b"\xff" + lines[4][3:]
    path.write_bytes(b"\n".join(lines))
    message = "line 5: byte 0xff is not UTF-8 text"
    with pytest.raises(TraceParseError) as caught:
        load_trace(path)
    assert str(caught.value) == message
    assert main(["trace", "--load", str(path)]) == 2
    assert capsys.readouterr().err == f"trace error: {message}\n"


def test_deeply_nested_config_is_a_parse_error(tmp_path, capsys):
    # json.loads recurses once per bracket, so these exceed the recursion limit.
    path = tmp_path / "trace.txt"
    path.write_text("#config " + "[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(TraceParseError, match="^line 1: bad config: "):
        load_trace(path)
    assert main(["trace", "--load", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error: line 1: bad config: ") and err.count("\n") == 1


def test_hand_written_trace_classifies_like_its_in_memory_twin(tmp_path):
    path = tmp_path / "hand.txt"
    path.write_text(HAND_WRITTEN)
    loaded = load_trace(path)

    config = ExperimentConfig("complete", n=2, m=2, k=1, gsn_limit=3)
    # One column per field, a row per line; absent fields are -1.
    gsns, pids, kinds, xs, senders, receivers, send_gsns = np.array(
        [[1, 0, 1, 1, 0, 1, -1], [2, 1, 2, 1, 0, 1, 1], [3, 0, 0, 2, -1, -1, -1]], np.int32
    ).T
    clocks = np.array([[1, 0, 1, 0], [1, 1, 1, 1], [2, 0, 2, 1]], np.int32)
    twin = ExecutionLog(config, Events([gsns, pids, kinds, xs, senders, receivers, send_gsns], clocks, 2))
    assert [e.kind for e in twin.events] == ["send", "receive", "internal"]
    assert loaded == twin
    assert confusion_counts(loaded.events) == confusion_counts(twin.events)


# Small runs of every topology; the complete one has internal events, so
# its records carry runs of three empty fields.
MUTATED_CONFIGS = {
    "complete": ExperimentConfig("complete", n=4, m=3, k=2, pr_i=0.3, seed=5, gsn_limit=30),
    "star": ExperimentConfig("star", n=3, m=2, k=2, seed=5, messages_per_client=2),
    "broadcast": ExperimentConfig("broadcast", n=4, m=2, k=1, seed=5),
}
MUTATION_BYTES = sorted(set(b"0123456789|,-\n\r " + "".join(KINDS).encode()))


@pytest.fixture(scope="session")
def persisted(tmp_path_factory):
    """Bytes of each persisted MUTATED_CONFIGS trace, and a file to write mutants to."""
    directory = tmp_path_factory.mktemp("mutants")
    traces = {}
    for topology, config in MUTATED_CONFIGS.items():
        path = directory / f"{topology}.txt"
        persist_trace(run(config), path)
        traces[topology] = path.read_bytes()
    return traces, directory / "mutant.txt"


def _assert_same_log(actual, expected):
    assert actual.config == expected.config
    pairs = zip(
        (*actual.events.columns(), actual.events.vectors, actual.events.blooms),
        (*expected.events.columns(), expected.events.vectors, expected.events.blooms),
    )
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def _assert_loads_like_the_line_parser(path):
    """``load_trace`` equals its log read line by line or raises its message; returns that log or None."""
    try:
        reference = _load_line_by_line(path)
    except TraceParseError as exc:
        with pytest.raises(TraceParseError) as caught:
            load_trace(path)
        assert str(caught.value) == str(exc)
        return None
    _assert_same_log(load_trace(path), reference)
    return reference


@settings(max_examples=300, deadline=None)
@given(
    topology=st.sampled_from(sorted(MUTATED_CONFIGS)),
    edits=st.lists(
        st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 2**16), st.sampled_from(MUTATION_BYTES)),
        min_size=1,
        max_size=4,
    ),
    chunk=st.sampled_from([1, 2, 5, 1024]),
)
def test_bulk_path_agrees_with_line_parser_on_mutated_traces(persisted, topology, edits, chunk):
    traces, path = persisted
    data = bytearray(traces[topology])
    for op, position, byte in edits:
        position %= len(data) + (op == "insert")
        if op == "replace":
            data[position] = byte
        elif op == "insert":
            data.insert(position, byte)
        else:
            del data[position]
    path.write_bytes(bytes(data))
    with mock.patch.object(simulation, "_STAMP_CHUNK", chunk):
        _assert_loads_like_the_line_parser(path)


def _edit_field(lineno, field, edit):
    """An edit that rewrites field ``field`` of file line ``lineno`` through ``edit``."""

    def apply(lines):
        parts = lines[lineno - 1].split("|")
        parts[field] = edit(parts[field])
        lines[lineno - 1] = "|".join(parts)
        return "\n".join(lines) + "\n"

    return apply


def _edit_first_counter(text):
    """An edit that writes ``text`` as the first Bloom counter of file line 4."""
    return _edit_field(4, 8, lambda v: text + v[v.index(",") :])


def _swap_comma_and_pipe(lines):
    line = lines[3]
    comma, pipe = line.index(","), line.rindex("|")
    lines[3] = line[:comma] + "|" + line[comma + 1 : pipe] + "," + line[pipe + 1 :]
    return "\n".join(lines) + "\n"


def _shift_one_field(lines):
    lines[4] += "|5"
    lines[5] = lines[5].replace("|", "", 1)
    return "\n".join(lines) + "\n"


def _end_line_and_add_a_field(ended, ending, widened):
    """An edit that ends file line ``ended`` in ``ending`` and gives line ``widened`` a tenth field."""

    def apply(lines):
        lines[ended - 1] += ending
        lines[widened - 1] += "|0"
        return "\n".join(lines) + "\n"

    return apply


def _shift_one_counter(lines):
    lines[4] += ",0"
    lines[5] = lines[5].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "edit,expected",
    [
        (_edit_field(3, 2, lambda _: "1"), "line 3: unknown event kind '1'"),
        (_edit_field(3, 2, lambda _: "-2"), "line 3: unknown event kind '-2'"),
        (_edit_field(4, 7, lambda v: "-" + v[v.index(","):]), "line 4: invalid literal for int() with base 10: '-'"),
        (_edit_field(5, 4, lambda _: "-1"), "line 5: sender must be non-negative, got -1"),
        (_edit_field(5, 4, lambda _: "-4"), "line 5: sender must be non-negative, got -4"),
        (_swap_comma_and_pipe, "line 4: vector clock has 1 components, expected 4"),
        (_shift_one_counter, "line 5: Bloom clock has 4 counters, expected m=3"),
        (_shift_one_field, "line 5: expected 9 fields, got 10"),
        (_edit_field(6, 8, lambda v: v.replace(",", ",\r", 1)), "same"),
        (lambda lines: "\n".join([lines[0].replace("{", "{\r", 1)] + lines[1:]) + "\n", "same"),
        # With no newline the file is one line, and the JSON of its config ends at the first \r.
        (lambda lines: "\r".join(lines) + "\r", "line 1: bad config: Extra data: line 1 column 120 (char 119)"),
        (lambda lines: "\n".join(lines[:4] + ["", ""] + lines[4:]) + "\n", "same"),
        (lambda lines: "\n".join(lines), "same"),
        (lambda lines: "\r\n".join(lines) + "\r\n", "same"),
        # One \r stays in each record line, where int() reads past it.
        (lambda lines: "\n".join(lines[:2] + [""]) + "\r\r\n".join(lines[2:]) + "\r\r\n", "same"),
        (lambda lines: "\r\n".join(lines[:4] + [lines[4] + "|0"] + lines[5:]) + "\r\n", "line 5: expected 9 fields, got 10"),
        (lambda lines: "\n".join(lines[:2]) + "\n", "empty"),
        (_edit_first_counter("1" * 65_541), None),
        (_edit_first_counter("2147483647"), 2147483647),
        (_edit_first_counter("2147483648"), "line 4: value 2147483648 is outside the int32 range"),
        (_edit_field(3, 2, lambda _: "recieve"), "line 3: unknown event kind 'recieve'"),
        (_edit_first_counter("007"), 7),
        (_edit_first_counter("+7"), 7),
        (_end_line_and_add_a_field(4, "\f", 10), "line 10: expected 9 fields, got 10"),
        (_end_line_and_add_a_field(4, "\u2028", 10), "line 10: expected 9 fields, got 10"),
        (_end_line_and_add_a_field(30, "\udcff", 5), "line 5: expected 9 fields, got 10"),
    ],
    ids=[
        "kind-code", "kind-sentinel", "bare-minus", "negative-sender", "empty-sentinel-in-sender",
        "comma-pipe-swap", "balanced-counter-shift", "balanced-field-shift", "carriage-return-in-record",
        "carriage-return-in-config", "lone-carriage-returns", "blank-lines", "no-trailing-newline", "crlf",
        "cr-crlf", "crlf-before-bad-line",
        "header-only", "65541-digit-counter", "int32-max-counter", "int32-max-plus-one-counter",
        "seven-letter-non-kind", "leading-zeros", "plus-sign", "form-feed-before-bad-line",
        "line-separator-before-bad-line", "non-utf8-after-bad-line",
    ],
)
def test_hand_edited_traces_load_like_the_line_parser(tmp_path, persisted, edit, expected):
    traces, _ = persisted
    original = traces["complete"]
    path = tmp_path / "edited.txt"
    # A lone surrogate such as "\udcff" is written as the byte it escapes.
    path.write_text(edit(original.decode().splitlines()), newline="", errors="surrogateescape")
    loaded = _assert_loads_like_the_line_parser(path)
    if expected == "same":
        _assert_same_log(loaded, run(MUTATED_CONFIGS["complete"]))
    elif expected == "empty":
        assert loaded.config == MUTATED_CONFIGS["complete"] and len(loaded.events) == 0
    elif isinstance(expected, int):
        assert loaded.events.blooms[1, 0] == expected
    else:
        assert loaded is None
        with pytest.raises(TraceParseError) as caught:
            load_trace(path)
        assert expected is None or str(caught.value) == expected


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_a_declined_chunk_after_blank_lines_fills_the_next_rows(tmp_path, monkeypatch, persisted, chunk):
    # Blank lines fill no row, so the rows of a later declined chunk start
    # at the last filled row, not at the chunk's first line.  A trailing
    # space, which int() reads past, makes the decoder decline line 21's chunk.
    traces, _ = persisted
    lines = traces["complete"].split(b"\n")
    lines[4:4] = [b"", b""]
    lines[20] += b" "
    path = tmp_path / "edited.txt"
    path.write_bytes(b"\n".join(lines))
    monkeypatch.setattr(simulation, "_STAMP_CHUNK", chunk)
    parse, parsed = trace_module._parse_record, []

    def parse_record(line, lineno, entities, m):
        parsed.append(lineno)
        return parse(line, lineno, entities, m)

    monkeypatch.setattr(trace_module, "_parse_record", parse_record)
    _assert_same_log(load_trace(path), run(MUTATED_CONFIGS["complete"]))
    first = 3 + (21 - 3) // chunk * chunk  # records start on line 3
    assert set(range(first, first + chunk)) <= set(parsed)


def _with_negative_values(log):
    """``log`` with a negative gsn, pid and counter, which persist writes with a ``-``."""
    columns = [column.copy() for column in log.events.columns()]
    clocks = log.events.clocks.copy()
    columns[0][3], columns[1][4], clocks[5, -1] = -7, -1, INT32_MIN
    return ExecutionLog(log.config, Events(columns, clocks, log.config.entities))


@pytest.mark.parametrize("variant", ["two-spaces-after-config", "config-keys-in-field-order", "negative-values"])
def test_files_unlike_a_persisted_run_go_to_the_line_parser(tmp_path, monkeypatch, variant):
    log = run(MUTATED_CONFIGS["complete"])
    path = tmp_path / "trace.txt"
    if variant == "negative-values":
        log = _with_negative_values(log)
        persist_trace(log, path)
    else:
        persist_trace(log, path)
        config_line, rest = path.read_bytes().split(b"\n", 1)
        if variant == "two-spaces-after-config":
            config_line = config_line.replace(b"#config {", b"#config  {")
        else:
            config_line = f"#config {json.dumps(asdict(log.config))}".encode()
        path.write_bytes(config_line + b"\n" + rest)
    loaded = load_trace(path)
    _assert_same_log(loaded, _load_line_by_line(path))
    assert loaded == log
    monkeypatch.setattr(trace_module, "_parse_record", _no_line_parser)
    if variant == "negative-values":  # a signed value is the line parser's to read
        with pytest.raises(AssertionError, match="went through the line parser"):
            load_trace(path)
    else:  # the decoder reads the records whatever the config line's spacing or key order
        assert load_trace(path) == log


@pytest.mark.parametrize(
    "config,empty",
    [
        *((config, False) for config in MUTATED_CONFIGS.values()),
        (ExperimentConfig("complete", n=4, m=3, k=1), True),
        (ExperimentConfig("complete", n=40, m=4, k=2, pr_i=0.5, seed=3), False),  # 1600 events: two chunks
    ],
    ids=[*MUTATED_CONFIGS, "empty", "two-chunks"],
)
def test_clean_trace_never_reaches_the_line_parser(tmp_path, monkeypatch, config, empty):
    log = ExecutionLog(config, run(config).events[:0]) if empty else run(config)
    path = tmp_path / "trace.txt"
    persist_trace(log, path)
    monkeypatch.setattr(trace_module, "_parse_record", _no_line_parser)
    persisted = path.read_bytes()
    crlf = persisted.replace(b"\n", b"\r\n")
    # As persisted and with CRLF line ends, each also with no newline after
    # its last line, and the CRLF copy with a last \r but no newline.
    for data in (persisted, persisted[:-1], crlf, crlf[:-2], crlf[:-1]):
        path.write_bytes(data)
        assert load_trace(path) == log


def test_the_decoder_reads_every_digit_place(tmp_path, monkeypatch):
    """Counters of 1 to 9 digits load through the decoder alone, each digit at its place value.

    The products of digit and place are int32 whatever numpy's promotion
    rules: a uint8 product would read 300 as 44 and 70000 as 4464.
    """
    log = run(MUTATED_CONFIGS["complete"])
    clocks = log.events.clocks.copy()
    values = [999_999_999, 300, 70_000, 123_456_789, 9, 80, 255, 256, 65_536, 4_000_000, 50_000_000]
    clocks.flat[: len(values)] = values
    log = ExecutionLog(log.config, Events(log.events.columns(), clocks, log.config.entities))
    path = tmp_path / "trace.txt"
    persist_trace(log, path)
    monkeypatch.setattr(trace_module, "_parse_record", _no_line_parser)
    loaded = load_trace(path)
    assert loaded == log
    assert loaded.events.clocks.flat[: len(values)].tolist() == values
