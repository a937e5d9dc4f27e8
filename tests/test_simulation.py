"""Simulation engine: scheduling contracts, message conservation, replay."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomclock import (
    BloomClock,
    ConfigurationError,
    ConfusionCounts,
    ExecutionLog,
    ExperimentConfig,
    ReplayError,
    VectorClock,
    classify_pair,
    confusion_counts,
    load_trace,
    persist_trace,
    replay_timestamps,
    run,
)
from bloomclock.simulation import _STAMP_CHUNK, RECEIVE, SEND, Events, _linkage_log, _row_plan


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig("ring", n=4, m=2, k=1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig("complete", n=1, m=2, k=1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig("complete", n=4, m=0, k=1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig("complete", n=4, m=2, k=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig("complete", n=4, m=2, k=1, pr_i=1.5)
    with pytest.raises(ConfigurationError):
        ExperimentConfig("star", n=4, m=2, k=1, pr_i=0.5)
    with pytest.raises(ConfigurationError):
        ExperimentConfig("complete", n=4, m=2, k=1, gsn_limit=0)
    # A field the topology would ignore is rejected, not silently dropped.
    for topology in ("star", "broadcast"):
        with pytest.raises(ConfigurationError, match="gsn_limit"):
            ExperimentConfig(topology, n=5, m=2, k=1, gsn_limit=7)
    for topology in ("complete", "broadcast"):
        with pytest.raises(ConfigurationError, match="messages_per_client"):
            ExperimentConfig(topology, n=5, m=2, k=1, messages_per_client=3)


def test_config_rejects_counter_overflow():
    # Bloom counters can reach k times the event count, past int32.
    with pytest.raises(ConfigurationError, match="overflow"):
        ExperimentConfig("complete", n=4, m=2, k=2, gsn_limit=2**30)
    with pytest.raises(ConfigurationError, match="overflow"):
        ExperimentConfig("star", n=2**15, m=2, k=1)
    ExperimentConfig("complete", n=4, m=2, k=1, gsn_limit=2**30)


def test_fixed_seed_reproduces_identical_logs():
    config = ExperimentConfig("complete", n=100, m=10, k=2, pr_i=0.0, seed=4)
    assert run(config) == run(config)


def test_seed_changes_the_log():
    base = ExperimentConfig("complete", n=20, m=4, k=2, seed=1)
    assert run(base) != run(replace(base, seed=2))


def test_all_internal_when_pr_i_is_one():
    log = run(ExperimentConfig("complete", n=2, m=2, k=1, pr_i=1.0, seed=3))
    assert all(e.kind == "internal" for e in log.events)
    for y in log.events:
        for z in log.events:
            if y.pid != z.pid:
                assert y.vector_ts.concurrent_with(z.vector_ts)


def test_no_internal_when_pr_i_is_zero():
    log = run(ExperimentConfig("complete", n=10, m=4, k=2, pr_i=0.0, seed=3, gsn_limit=2000))
    kinds = Counter(e.kind for e in log.events)
    assert kinds["internal"] == 0
    assert kinds["send"] > 0 and kinds["receive"] > 0


def test_gsn_contiguous_from_one():
    log = run(ExperimentConfig("complete", n=10, m=4, k=2, seed=8, gsn_limit=300))
    assert [e.gsn for e in log.events] == list(range(1, 301))


def test_event_index_counts_per_process():
    log = run(ExperimentConfig("complete", n=7, m=4, k=2, pr_i=0.1, seed=8, gsn_limit=400))
    seen = Counter()
    for e in log.events:
        seen[e.pid] += 1
        assert e.event_index == seen[e.pid]


def test_message_conservation_complete():
    log = run(ExperimentConfig("complete", n=12, m=4, k=2, seed=6, gsn_limit=600))
    sends = {e.gsn: e for e in log.events if e.kind == "send"}
    consumed = set()
    for e in log.events:
        if e.kind == "receive":
            assert e.send_gsn in sends, "receive must link to a recorded send"
            assert e.send_gsn < e.gsn
            assert e.send_gsn not in consumed, "a message may be received once"
            consumed.add(e.send_gsn)
            origin = sends[e.send_gsn]
            assert origin.sender == e.sender
            assert origin.receiver == e.receiver == e.pid


def test_gsn_is_a_linearization():
    for topology, n in [("complete", 20), ("star", 10), ("broadcast", 14)]:
        log = run(ExperimentConfig(topology, n=n, m=4, k=2, seed=5))
        for y in log.events:
            for z in log.events:
                if y.vector_ts.happened_before(z.vector_ts):
                    assert y.gsn < z.gsn


# ---------------------------------------------------------------------------
# star topology


def test_star_event_count_and_roles():
    n, rounds = 9, 5
    log = run(ExperimentConfig("star", n=n, m=3, k=2, messages_per_client=rounds))
    assert len(log.events) == 4 * n * rounds
    server = n
    kinds = Counter(e.kind for e in log.events)
    assert kinds["send"] == kinds["receive"] == 2 * n * rounds
    assert kinds["internal"] == 0
    server_events = [e for e in log.events if e.pid == server]
    assert len(server_events) == 2 * n * rounds


def test_star_server_handles_requests_atomically():
    n = 6
    log = run(ExperimentConfig("star", n=n, m=3, k=2, seed=2))
    events = log.events
    for i, e in enumerate(events):
        if e.pid == n and e.kind == "receive":
            reply = events[i + 1]
            assert reply.pid == n and reply.kind == "send"
            assert reply.receiver == e.sender


def test_star_clients_alternate_send_receive():
    n = 5
    log = run(ExperimentConfig("star", n=n, m=3, k=2, seed=12))
    for client in range(n):
        kinds = [e.kind for e in log.events if e.pid == client]
        assert kinds == ["send", "receive"] * n


def test_star_single_client_is_a_chain():
    log = run(ExperimentConfig("star", n=1, m=2, k=1, messages_per_client=25))
    events = log.events
    assert len(events) == 100
    for y, z in zip(events, events[1:]):
        assert y.vector_ts.happened_before(z.vector_ts)


# ---------------------------------------------------------------------------
# broadcast topology


def test_broadcast_smallest_case():
    log = run(ExperimentConfig("broadcast", n=2, m=2, k=1, seed=1))
    kinds = Counter(e.kind for e in log.events)
    assert kinds == {"send": 2, "receive": 2}
    sends = {e.gsn: e for e in log.events if e.kind == "send"}
    for e in log.events:
        if e.kind == "receive":
            assert sends[e.send_gsn].vector_ts.happened_before(e.vector_ts)


def test_broadcast_counts_and_fanout():
    n = 15
    log = run(ExperimentConfig("broadcast", n=n, m=4, k=2, seed=3))
    assert len(log.events) == n * n
    kinds = Counter(e.kind for e in log.events)
    assert kinds["send"] == n and kinds["receive"] == n * (n - 1)
    fanout = Counter(e.send_gsn for e in log.events if e.kind == "receive")
    assert all(count == n - 1 for count in fanout.values())
    receivers = Counter((e.send_gsn, e.pid) for e in log.events if e.kind == "receive")
    assert all(count == 1 for count in receivers.values())


def test_broadcast_processes_send_before_receiving():
    log = run(ExperimentConfig("broadcast", n=12, m=4, k=2, seed=7))
    sent = set()
    for e in log.events:
        if e.kind == "send":
            sent.add(e.pid)
        else:
            assert e.pid in sent


def test_broadcast_slice_metrics_hit_targets(broadcast100_m5):
    # One send followed by n-1 receives per process spreads almost no
    # causality, so the dominance test misfires on most positives.
    agg = broadcast100_m5.aggregate
    assert agg.alpha == pytest.approx(0.005, abs=0.01)
    assert agg.precision == pytest.approx(0.014, abs=0.01)
    assert agg.accuracy == pytest.approx(0.661, abs=0.08)
    assert agg.fpr == pytest.approx(0.341, abs=0.08)


# ---------------------------------------------------------------------------
# replay


@pytest.mark.parametrize("topology,n", [("complete", 25), ("star", 12), ("broadcast", 16)])
def test_replay_reproduces_all_timestamps(topology, n):
    log = run(ExperimentConfig(topology, n=n, m=5, k=2, seed=13))
    replay_timestamps(log)


def _edited(log, column=None, values=None, blooms=None):
    """A stamped copy of ``log`` with one linkage column or the Bloom matrix replaced."""
    events = log.events
    columns = [values if name == column else c for name, c in zip(Events.COLUMNS, events.columns())]
    edited = Events(columns, events.vectors, events.blooms if blooms is None else blooms)
    return ExecutionLog(log.config, edited)


def test_replay_detects_tampered_counter():
    log = run(ExperimentConfig("complete", n=8, m=4, k=2, seed=9, gsn_limit=200))
    blooms = log.events.blooms.copy()
    blooms[120] += 1
    with pytest.raises(ReplayError, match="gsn 121"):
        replay_timestamps(_edited(log, blooms=blooms))


def test_replay_detects_broken_linkage():
    log = run(ExperimentConfig("complete", n=8, m=4, k=2, seed=9, gsn_limit=200))
    send_gsns = log.events.send_gsns.copy()
    first_receive = int(np.argmax(log.events.kinds == RECEIVE))
    send_gsns[first_receive] = 10**6
    with pytest.raises(ReplayError, match="unknown send gsn 1000000"):
        replay_timestamps(_edited(log, "send_gsns", send_gsns))


def _nth(kind, i=10):
    """Picks the row of the ``i``-th event of ``kind`` in a stamped log."""
    return lambda events: int(np.flatnonzero(events.kinds == kind)[i])


def _next_pid(value, entities):
    return (value + 1) % entities


# Each edit: a column, the row it changes, and the new value from the old one.
_TAMPERS = {
    "gsn": ("gsns", _nth(RECEIVE), lambda value, _: value + 1),
    "event_index": ("event_indices", _nth(SEND), lambda value, _: value + 1),
    "sender": ("senders", _nth(RECEIVE), _next_pid),
    "receiver_of_send": ("receivers", lambda events: int(events.send_gsns[_nth(RECEIVE)(events)]) - 1, _next_pid),
    "receiver_of_receive": ("receivers", _nth(RECEIVE), _next_pid),
    "send_gsn_on_send": ("send_gsns", _nth(SEND), lambda value, _: 1),
}


@pytest.mark.parametrize("tamper", list(_TAMPERS))
@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig("complete", n=8, m=4, k=2, pr_i=0.3, seed=9, gsn_limit=200),
        ExperimentConfig("star", n=4, m=3, k=2, seed=7),
    ],
    ids=["complete", "star"],
)
def test_replay_detects_one_tampered_linkage_column(config, tamper):
    log = run(config)
    column, pick, edit = _TAMPERS[tamper]
    row = pick(log.events)
    values = getattr(log.events, column).copy()
    values[row] = edit(values[row], config.entities)
    with pytest.raises(ReplayError, match=rf"\bgsn {row + 1}\b"):
        replay_timestamps(_edited(log, column, values))


def test_replay_detects_a_send_received_twice():
    # Process 1 receives send 1 twice; the clocks are stamped from that same
    # linkage, so every column and timestamp replays and only delivery is wrong.
    config = ExperimentConfig("complete", n=2, m=2, k=1, gsn_limit=3)
    log = _linkage_log(config, [0, 1, 1], [SEND, RECEIVE, RECEIVE], [1, 1, 1])
    assert [e.send_gsn for e in log.events] == [None, 1, 1]
    with pytest.raises(ReplayError, match=r"^gsn 3: process 1 receives send gsn 1 again$"):
        replay_timestamps(log)


# ---------------------------------------------------------------------------
# the columnar log against the clock value types


def _reference_timestamps(log):
    """Each event's timestamps recomputed with VectorClock/BloomClock tick and merge alone."""
    config = log.config
    family = config.hash_family()
    vclocks = [VectorClock.zero(config.entities) for _ in range(config.entities)]
    bclocks = [BloomClock.zero(config.m) for _ in range(config.entities)]
    sent = {}
    stamps = []
    for e in log.events:
        v, b = vclocks[e.pid], bclocks[e.pid]
        if e.kind == "receive":
            sent_v, sent_b = sent[e.send_gsn]
            v, b = v.merge(sent_v), b.merge(sent_b)
        v, b = v.tick(e.pid), b.tick(family, e.pid, e.event_index)
        vclocks[e.pid], bclocks[e.pid] = v, b
        if e.kind == "send":
            sent[e.gsn] = (v, b)
        stamps.append((v, b))
    return stamps


@st.composite
def small_configs(draw):
    topology = draw(st.sampled_from(("complete", "star", "broadcast")))
    n = draw(st.integers(min_value=1 if topology == "star" else 2, max_value=7))
    return ExperimentConfig(
        topology,
        n=n,
        m=draw(st.integers(min_value=1, max_value=6)),
        k=draw(st.integers(min_value=1, max_value=4)),
        pr_i=draw(st.sampled_from((0.0, 0.3, 0.9, 1.0))) if topology == "complete" else 0.0,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        gsn_limit=draw(st.integers(min_value=1, max_value=80)) if topology == "complete" else None,
        messages_per_client=draw(st.integers(min_value=1, max_value=4)) if topology == "star" else None,
    )


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_engine_agrees_with_clock_value_types(config):
    log = run(config)
    assert len(log) == config.event_count
    assert [e.gsn for e in log.events] == list(range(1, len(log) + 1))
    for e, (vector, bloom) in zip(log.events, _reference_timestamps(log)):
        assert e.vector_ts == vector and e.bloom_ts == bloom, f"gsn {e.gsn}"
        assert e.event_index == vector.counters[e.pid]
        if e.kind == "receive":
            assert e.sender == log.events[e.send_gsn - 1].pid and e.receiver == e.pid
    if len(log) >= 2:
        expected = ConfusionCounts()
        for i, y in enumerate(log.events):
            for j, z in enumerate(log.events):
                if i != j:
                    expected = expected + ConfusionCounts(**{classify_pair(y, z).lower(): 1})
        assert confusion_counts(log.events) == expected
        records = Events.from_records(list(log.events), config.entities, config.m)
        assert confusion_counts(records) == expected


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig("complete", n=9, m=5, k=3, pr_i=0.3, seed=21, gsn_limit=2 * _STAMP_CHUNK + 77),
        ExperimentConfig("star", n=3, m=4, k=2, seed=22, messages_per_client=_STAMP_CHUNK // 5),
        ExperimentConfig("broadcast", n=36, m=6, k=4, seed=23),
    ],
    ids=lambda config: config.topology,
)
def test_engine_agrees_across_stamp_chunks(config):
    # Two full chunks of hashed tick rows plus a partial one.
    log = run(config)
    assert len(log) % _STAMP_CHUNK and len(log) > 2 * _STAMP_CHUNK
    for e, (vector, bloom) in zip(log.events, _reference_timestamps(log), strict=True):
        assert e.vector_ts == vector and e.bloom_ts == bloom, f"gsn {e.gsn}"
    replay_timestamps(log)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig("complete", n=9, m=5, k=3, pr_i=0.3, seed=21, gsn_limit=300),
        ExperimentConfig("star", n=4, m=4, k=2, seed=22, messages_per_client=6),
        ExperimentConfig("broadcast", n=12, m=6, k=4, seed=23),
    ],
    ids=lambda config: config.topology,
)
def test_engine_agrees_when_tick_chunks_end_inside_levels(config, chunk, monkeypatch):
    # Levels here are wider than a chunk of one or three events, so a chunk's
    # nominal end falls inside a level and the chunk runs on to the level's end.
    monkeypatch.setattr("bloomclock.simulation._STAMP_CHUNK", chunk)
    log = run(config)
    for e, (vector, bloom) in zip(log.events, _reference_timestamps(log), strict=True):
        assert e.vector_ts == vector and e.bloom_ts == bloom, f"gsn {e.gsn}"
    gsns = np.arange(2, len(log) + 1, 3)
    assert run(config).select(gsns) == log.events[gsns - 1]


def test_engine_agrees_on_a_level_wider_than_a_tick_chunk():
    config = ExperimentConfig("complete", n=700, m=8, k=2, pr_i=0.3, seed=24, gsn_limit=1500)
    log = run(config)
    _, pids, kinds, _, _, _, send_gsns = log.columns()
    levels = _row_plan(pids, kinds, send_gsns, np.arange(1, len(log) + 1), config.entities)[1][0]
    assert np.bincount(levels).max() > _STAMP_CHUNK
    for e, (vector, bloom) in zip(log.events, _reference_timestamps(log), strict=True):
        assert e.vector_ts == vector and e.bloom_ts == bloom, f"gsn {e.gsn}"
    gsns = np.arange(1, len(log) + 1, 2)
    assert run(config).select(gsns) == log.events[gsns - 1]


@st.composite
def gsn_requests(draw, count):
    """Increasing GSNs of a log of ``count`` events: a drawn set, or a ``range`` as the slice samplers pass."""
    if draw(st.booleans()):
        return sorted(draw(st.sets(st.integers(min_value=1, max_value=count), max_size=count)))
    start = draw(st.integers(min_value=1, max_value=count))
    return range(start, draw(st.integers(min_value=start, max_value=count + 1)), draw(st.integers(1, 5)))


@settings(max_examples=80, deadline=None)
@given(small_configs(), st.data())
def test_selected_rows_equal_the_stamped_events(config, data):
    log = run(config)
    gsns = data.draw(gsn_requests(len(log)))
    selected = log.select(gsns)  # one stamping pass that stores only these rows
    rows = np.asarray(gsns, dtype=np.int64) - 1
    assert selected == log.events[rows]
    assert log.select(gsns) == selected  # read from the kept events


@pytest.mark.parametrize(
    "config,reused",
    [
        # Every broadcast is sent before the last receives of the first one.
        (ExperimentConfig("broadcast", n=36, m=6, k=4, seed=23), False),
        (ExperimentConfig("complete", n=9, m=5, k=3, pr_i=0.0, seed=21, gsn_limit=2 * _STAMP_CHUNK + 77), True),
    ],
    ids=["broadcast", "complete"],
)
def test_selected_rows_hold_live_sends_in_a_pool(config, reused):
    log = run(config)
    _, pids, kinds, _, _, _, send_gsns = log.columns()
    gsns = np.arange(3, len(log) + 1, 7)
    targets, _, slots = _row_plan(pids, kinds, send_gsns, gsns, config.entities)
    # Sends read after their process's next event take pool slots, given back after their last receive.
    pool = slots - len(gsns) - 1 - config.entities
    held = np.count_nonzero(targets > len(gsns) + config.entities)
    assert pool > 20 and (pool < held if reused else pool == held)
    assert log.select(gsns) == log.events[gsns - 1]


def test_selected_rows_keep_a_send_until_the_level_of_its_last_receive():
    # Broadcasts 2 and 5 are at level 1, and GSN 4 receives 2 at level 2.
    # Counted in GSNs, 2's last receive up to GSN 8 comes before 5 is sent, so
    # 5 would take 2's pool slot; walked by level, 5 is written before GSN 4
    # reads 2, and GSN 8, which follows GSN 4 at process 0, would be wrong.
    config = ExperimentConfig("broadcast", n=3, m=6, k=4, seed=3810234659)
    log = run(config)
    assert log.columns()[6][:8].tolist() == [-1, -1, 1, 2, -1, 5, 1, 5]
    assert run(config).select([1, 8]) == log.events[np.array([0, 7])]


def test_select_rejects_gsns_out_of_order_or_range():
    log = run(ExperimentConfig("complete", n=4, m=2, k=1, seed=1, gsn_limit=20))
    for gsns in ([0, 3], [4, 21], [5, 5], [6, 2]):
        with pytest.raises(ValueError, match="gsns must"):
            log.select(gsns)
    assert len(log.select([])) == 0


def test_replay_accepts_an_empty_trace(tmp_path):
    path = tmp_path / "empty.txt"
    persist_trace(ExecutionLog(ExperimentConfig("complete", n=4, m=2, k=1), ()), path)
    replay_timestamps(load_trace(path))


def test_events_are_a_lazy_sequence_with_view_slices():
    log = run(ExperimentConfig("complete", n=6, m=3, k=2, pr_i=0.2, seed=4, gsn_limit=60))
    events = log.events
    window = events[10:30:2]
    assert np.shares_memory(window.vectors, events.vectors)
    assert np.shares_memory(window.blooms, events.blooms)
    assert list(window) == [events[i] for i in range(10, 30, 2)]
    assert events[-1] == events[len(events) - 1] and events[-1].gsn == 60
    with pytest.raises(IndexError):
        events[60]
    records = tuple(events)
    assert Events.from_records(records, log.config.entities, log.config.m) == events
    assert tuple(events[:5]) + records[5:] == records
    assert ExecutionLog(log.config, records) == log
    assert ExecutionLog(log.config, events[:20]) == ExecutionLog(log.config, records[:20])
    with pytest.raises(ConfigurationError):
        ExecutionLog(replace(log.config, m=4), events)
