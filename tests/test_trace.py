"""Trace persistence: round trips, format errors, hand-written traces."""

from __future__ import annotations

import pytest

from bloomclock import (
    BloomClock,
    EventRecord,
    ExecutionLog,
    ExperimentConfig,
    TraceParseError,
    VectorClock,
    confusion_counts,
    load_trace,
    persist_trace,
    run,
)


@pytest.mark.parametrize("topology,n", [("complete", 15), ("star", 8), ("broadcast", 10)])
def test_round_trip(tmp_path, topology, n):
    log = run(ExperimentConfig(topology, n=n, m=4, k=2, seed=27))
    path = tmp_path / "trace.txt"
    persist_trace(log, path)
    assert load_trace(path) == log


def test_empty_log_round_trip(tmp_path):
    config = ExperimentConfig("complete", n=4, m=2, k=1)
    empty = ExecutionLog(config=config, events=())
    path = tmp_path / "empty.txt"
    persist_trace(empty, path)
    assert path.read_text().count("\n") == 2
    loaded = load_trace(path)
    assert loaded == empty


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


def test_hand_written_trace_classifies_like_its_in_memory_twin(tmp_path):
    path = tmp_path / "hand.txt"
    path.write_text(HAND_WRITTEN)
    loaded = load_trace(path)

    config = ExperimentConfig("complete", n=2, m=2, k=1, gsn_limit=3)
    twin = ExecutionLog(
        config=config,
        events=(
            EventRecord(1, 0, "send", 1, 0, 1, None, VectorClock((1, 0)), BloomClock((1, 0))),
            EventRecord(2, 1, "receive", 1, 0, 1, 1, VectorClock((1, 1)), BloomClock((1, 1))),
            EventRecord(3, 0, "internal", 2, None, None, None, VectorClock((2, 0)), BloomClock((2, 1))),
        ),
    )
    assert loaded == twin
    assert confusion_counts(loaded.events) == confusion_counts(twin.events)
