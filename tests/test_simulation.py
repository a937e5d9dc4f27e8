"""Simulation engine: scheduling contracts, message conservation, replay."""

from __future__ import annotations

import cProfile
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    run_experiment,
)
from bloomclock import simulation
from bloomclock.clocks import DigestTable
from bloomclock.simulation import (
    _RUNNERS,
    _STAMP_CHUNK,
    INTERNAL,
    RECEIVE,
    SEND,
    Events,
    _below,
    _Linkage,
    _linkage_log,
    _row_plan,
    _stamp,
)
from reference import stamp_and_compare_replay


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
    with pytest.raises(ConfigurationError, match="messages_per_client must be positive"):
        ExperimentConfig("star", n=4, m=2, k=1, messages_per_client=0)
    # random.Random would take every bit of the seed, the hash family only its low 64.
    for seed in (-1, 2**64):
        with pytest.raises(ConfigurationError, match=r"seed must lie in \[0, 2\*\*64\)"):
            ExperimentConfig("complete", n=4, m=2, k=1, seed=seed)
    assert ExperimentConfig("complete", n=4, m=2, k=1, seed=2**64 - 1).seed == 2**64 - 1
    # A field the topology would ignore is rejected, not silently dropped.
    for topology in ("star", "broadcast"):
        with pytest.raises(ConfigurationError, match="gsn_limit"):
            ExperimentConfig(topology, n=5, m=2, k=1, gsn_limit=7)
    for topology in ("complete", "broadcast"):
        with pytest.raises(ConfigurationError, match="messages_per_client"):
            ExperimentConfig(topology, n=5, m=2, k=1, messages_per_client=3)
    # A field of the wrong type is rejected, whether it would run or fail mid-run.
    for topology, fields in [
        *(("complete", {name: value}) for name, value in [("n", 4.5), ("m", 2.5), ("k", 2.0), ("seed", 1.5)]),
        *(("complete", {name: True}) for name in ("n", "m", "k", "seed", "gsn_limit")),
        ("complete", {"gsn_limit": 20.0}),
        ("star", {"messages_per_client": 2.0}),
        ("complete", {"pr_i": "0.5"}),
        ("complete", {"pr_i": None}),
        ("complete", {"pr_i": False}),
        (["complete"], {}),
    ]:
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**{"topology": topology, "n": 4, "m": 2, "k": 1, **fields})


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


# The runners as they were when they drew through rng.randrange, recorded
# through _Linkage.record, and (star and broadcast) rebuilt the ready list on
# every step: the reference the _below draws, the complete runner's direct
# appends and the incremental ready lists must match.


def _reference_complete(config, rng, linkage):
    n = config.n
    pending = [[] for _ in range(n)]
    send_cut = config.pr_i + (1.0 - config.pr_i) / 2.0

    while len(linkage.pids) < config.event_budget:
        pid = rng.randrange(n)
        u = rng.random()
        if u < config.pr_i:
            linkage.record(pid, INTERNAL)
        elif u < send_cut:
            dest = rng.randrange(n - 1)
            if dest >= pid:
                dest += 1
            pending[dest].append(linkage.record(pid, SEND, dest))
        elif pending[pid]:
            pool = pending[pid]
            linkage.record(pid, RECEIVE, pool.pop(rng.randrange(len(pool))))


def _reference_star(config, rng, linkage):
    n = config.n
    server = n
    remaining = [config.rounds_per_client] * n
    awaiting = [False] * n
    replies = [None] * n
    requests = []

    while True:
        ready = [c for c in range(n) if replies[c] is not None or (not awaiting[c] and remaining[c] > 0)]
        if requests:
            ready.append(server)
        if not ready:
            break
        actor = ready[rng.randrange(len(ready))]
        if actor == server:
            request = requests.pop(rng.randrange(len(requests)))
            client = linkage.pids[request - 1]
            linkage.record(server, RECEIVE, request)
            replies[client] = linkage.record(server, SEND, client)
        elif replies[actor] is not None:
            reply = replies[actor]
            replies[actor] = None
            linkage.record(actor, RECEIVE, reply)
            awaiting[actor] = False
            remaining[actor] -= 1
        else:
            requests.append(linkage.record(actor, SEND, server))
            awaiting[actor] = True


def _reference_broadcast(config, rng, linkage):
    n = config.n
    pending = [[] for _ in range(n)]
    sent = [False] * n

    while True:
        ready = [p for p in range(n) if not sent[p] or pending[p]]
        if not ready:
            break
        pid = ready[rng.randrange(len(ready))]
        if not sent[pid]:
            sent[pid] = True
            message = linkage.record(pid, SEND)
            for other in range(n):
                if other != pid:
                    pending[other].append(message)
        else:
            pool = pending[pid]
            linkage.record(pid, RECEIVE, pool.pop(rng.randrange(len(pool))))


_REFERENCE_RUNNERS = {"complete": _reference_complete, "star": _reference_star, "broadcast": _reference_broadcast}


@settings(max_examples=200, deadline=None)
@given(
    topology=st.sampled_from(sorted(_REFERENCE_RUNNERS)),
    n=st.integers(min_value=1, max_value=12),
    rounds=st.integers(min_value=1, max_value=6),
    pr_i=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    gsn_limit=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_runners_record_the_linkage_of_the_rebuilt_ready_lists(topology, n, rounds, pr_i, gsn_limit, seed):
    if topology == "complete":
        config = ExperimentConfig("complete", n=max(n, 2), m=2, k=1, pr_i=pr_i, seed=seed, gsn_limit=gsn_limit)
    elif topology == "star":
        config = ExperimentConfig("star", n=n, m=2, k=1, seed=seed, messages_per_client=rounds)
    else:
        config = ExperimentConfig("broadcast", n=n + 1, m=2, k=1, seed=seed)
    linkage, reference = _Linkage(), _Linkage()
    _RUNNERS[topology](config, random.Random(seed), linkage)
    _REFERENCE_RUNNERS[topology](config, random.Random(seed), reference)
    assert (linkage.pids, linkage.kinds, linkage.links) == (reference.pids, reference.kinds, reference.links)


# Powers of two and 2**j - 1 sit on both sides of a bit-length step, where
# the rejection loop draws most often.
_BOUNDS = sorted(set(range(1, 5000)) | {2**j for j in range(40)} | {2**j - 1 for j in range(1, 40)})


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1, -3])
def test_below_draws_what_randrange_draws(seed):
    drawn, reference = random.Random(seed), random.Random(seed)
    getrandbits = drawn.getrandbits
    assert [_below(getrandbits, bound) for bound in _BOUNDS] == [reference.randrange(bound) for bound in _BOUNDS]
    # Both generators consumed the same words, so the next draws agree too.
    assert drawn.getstate() == reference.getstate()


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
    # Stamped events give replay recorded rows to check, not only linkage columns.
    log.events
    replay_timestamps(log)


def _edited(log, column=None, values=None, clocks=None):
    """A stamped copy of ``log`` with one linkage column or the clock matrix replaced."""
    events = log.events
    columns = [values if name == column else c for name, c in zip(Events.COLUMNS, events.columns())]
    edited = Events(columns, events.clocks if clocks is None else clocks, log.config.entities)
    return ExecutionLog(log.config, edited)


def test_replay_detects_tampered_counter():
    log = run(ExperimentConfig("complete", n=8, m=4, k=2, seed=9, gsn_limit=200))
    # One counter of the vector part, then one of the Bloom part.
    for counter in (3, log.config.entities + 2):
        clocks = log.events.clocks.copy()
        clocks[120, counter] += 1
        with pytest.raises(ReplayError, match="gsn 121"):
            replay_timestamps(_edited(log, clocks=clocks))


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


def test_replay_rejects_a_send_to_a_receiver_out_of_range():
    # A send that is never received: only a range check can catch its receiver.
    log = run(ExperimentConfig("complete", n=8, m=4, k=2, seed=9, gsn_limit=200))
    events = log.events
    received = set(events.send_gsns[events.kinds == RECEIVE].tolist())
    row = max(int(i) for i in np.flatnonzero(events.kinds == SEND) if i + 1 not in received)
    for receiver in (999, -2):
        receivers = events.receivers.copy()
        receivers[row] = receiver
        with pytest.raises(ReplayError, match=rf"^gsn {row + 1}: send to receiver {receiver} outside \[-1, 8\)$"):
            replay_timestamps(_edited(log, "receivers", receivers))


def test_replay_rejects_a_process_receiving_its_own_send():
    # Process 0 receives its own broadcast; the clocks are stamped from that same linkage.
    config = ExperimentConfig("broadcast", n=2, m=2, k=1)
    log = _linkage_log(config, [0, 0, 1, 1], [SEND, RECEIVE, SEND, RECEIVE], [-1, 1, -1, 1])
    with pytest.raises(ReplayError, match=r"^gsn 2: process 0 receives its own send gsn 1$"):
        replay_timestamps(log)


@pytest.mark.parametrize("kind", [-1, 3])
def test_replay_refuses_a_kind_code_outside_the_three_kinds(kind, tmp_path):
    # Kind -1 would read back as KINDS[-1], a receive of no send, and kind 3 would not read back at all.
    # Persist and record reading, which do not replay first, refuse it the same way.
    log = run(ExperimentConfig("complete", n=4, m=3, k=2, pr_i=0.5, seed=3, gsn_limit=30))
    kinds = log.events.kinds.copy()
    assert kinds[5] == INTERNAL
    kinds[5] = kind
    path = tmp_path / "trace.txt"
    persist = lambda edited: persist_trace(edited, path)  # noqa: E731
    readers = (persist, lambda edited: list(edited.events), lambda edited: edited.events[5])
    for read in (replay_timestamps, stamp_and_compare_replay, *readers):
        with pytest.raises(ReplayError, match=rf"^gsn 6: kind {kind} outside \[0, 3\)$"):
            read(_edited(log, "kinds", kinds))
    assert not path.exists()


def _replay_message(replay, log):
    """The message of the ``ReplayError`` that ``replay(log)`` raises, or None if it raises none."""
    try:
        replay(log)
    except ReplayError as error:
        return str(error)
    return None


@st.composite
def tampered_logs(draw):
    """A config, a block size, and one edit of a stamped log's rows or columns, or none.

    An edit is ``(part, row, index, delta)``: ``delta`` added to counter
    ``index`` of the vector or Bloom part of ``row``, or to column
    ``Events.COLUMNS[index]`` there.  Rows are often at or beside a block
    boundary, and some logs are longer than a block of 1024.
    """
    topology = draw(st.sampled_from(("complete", "star", "broadcast")))
    seed = draw(st.integers(min_value=1, max_value=40))
    if topology == "complete":
        pr_i = draw(st.sampled_from((0.0, 0.3)))
        limit = draw(st.sampled_from((60, 300, 1100, 2100)))
        config = ExperimentConfig(topology, n=draw(st.integers(2, 9)), m=4, k=2, pr_i=pr_i, seed=seed, gsn_limit=limit)
    elif topology == "star":
        rounds = draw(st.sampled_from((3, 20, 70)))
        config = ExperimentConfig(topology, n=draw(st.integers(1, 4)), m=3, k=2, seed=seed, messages_per_client=rounds)
    else:
        config = ExperimentConfig(topology, n=draw(st.sampled_from((4, 9, 33))), m=5, k=3, seed=seed)
    chunk = draw(st.sampled_from((7, 1024)))
    count = config.event_count
    boundaries = st.integers(0, count // chunk).map(lambda block: block * chunk)
    beside = st.builds(lambda boundary, step: boundary + step, boundaries, st.sampled_from((-1, 0, 1)))
    row = min(max(draw(st.one_of(beside, st.integers(0, count - 1))), 0), count - 1)
    part = draw(st.sampled_from(("none", "vector", "bloom", "column")))
    width = {"none": 1, "vector": config.entities, "bloom": config.m, "column": len(Events.COLUMNS)}[part]
    delta = draw(st.sampled_from((1, -1, config.k)))
    return config, chunk, (part, row, draw(st.integers(0, width - 1)), delta)


@settings(max_examples=150, deadline=None)
@given(tampered_logs())
@example((ExperimentConfig("complete", n=8, m=4, k=2, seed=9, gsn_limit=200), 7, ("bloom", 7, 2, -1)))
@example((ExperimentConfig("star", n=3, m=3, k=2, seed=5, messages_per_client=100), 1024, ("vector", 1024, 3, 2)))
@example((ExperimentConfig("broadcast", n=33, m=5, k=3, seed=2), 1024, ("column", 1023, 6, 1)))
# Kind -1 on the internal event at GSN 6, then kind 2 + k on the receive at GSN 3.
@example((ExperimentConfig("complete", n=4, m=3, k=2, pr_i=0.5, seed=3, gsn_limit=30), 7, ("column", 5, 2, -1)))
@example((ExperimentConfig("complete", n=4, m=3, k=2, pr_i=0.5, seed=3, gsn_limit=30), 1024, ("column", 2, 2, 2)))
def test_replay_agrees_with_the_stamp_and_compare_reference(case):
    config, chunk, (part, row, index, delta) = case
    log = _edited(run(config))
    if part == "column":
        values = getattr(log.events, Events.COLUMNS[index]).copy()
        values[row] += delta
        log = _edited(log, Events.COLUMNS[index], values)
    elif part != "none":
        clocks = log.events.clocks.copy()
        clocks[row, index + (config.entities if part == "bloom" else 0)] += delta
        log = _edited(log, clocks=clocks)
    with mock.patch.object(simulation, "_STAMP_CHUNK", chunk):
        message = _replay_message(replay_timestamps, log)
        assert message == _replay_message(stamp_and_compare_replay, log)
    # A column edit can leave a valid linkage, such as a send never received sent elsewhere;
    # an edited kind cannot, since each kind fills the other columns in its own way.
    if part != "column" or Events.COLUMNS[index] == "kinds":
        assert (message is None) == (part == "none")


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


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig("complete", n=9, m=5, k=3, pr_i=0.3, seed=21, gsn_limit=2 * _STAMP_CHUNK + 77),
        ExperimentConfig("star", n=3, m=4, k=2, seed=22, messages_per_client=_STAMP_CHUNK // 5),
        ExperimentConfig("broadcast", n=math.isqrt(2 * _STAMP_CHUNK) + 1, m=6, k=4, seed=23),
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


_WALK_CHUNKS = [1, 3, 7, _STAMP_CHUNK]
_WALK_CONFIGS = {
    "complete": ExperimentConfig("complete", n=9, m=5, k=3, pr_i=0.3, seed=21, gsn_limit=300),
    "complete-pr_i=0": ExperimentConfig("complete", n=9, m=5, k=3, pr_i=0.0, seed=21, gsn_limit=300),
    "complete-pr_i=0.95": ExperimentConfig("complete", n=9, m=5, k=3, pr_i=0.95, seed=21, gsn_limit=300),
    "complete-pr_i=1": ExperimentConfig("complete", n=9, m=5, k=3, pr_i=1.0, seed=21, gsn_limit=300),
    "star": ExperimentConfig("star", n=4, m=4, k=2, seed=22, messages_per_client=6),
    "broadcast": ExperimentConfig("broadcast", n=12, m=6, k=4, seed=23),
}


def _level_shapes(config):
    """Which levels of the walk of ``run(config)`` hold no receive, only receives, or both."""
    _, pids, kinds, _, _, _, send_gsns = run(config).columns()
    levels = _row_plan(pids, kinds, send_gsns, config.entities)[1][0]
    receives = np.bincount(levels[kinds == RECEIVE], minlength=levels.max() + 1)[1:]
    return {"none" if r == 0 else "only" if r == t else "both" for r, t in zip(receives, np.bincount(levels)[1:])}


@pytest.mark.parametrize("chunk", _WALK_CHUNKS)
@pytest.mark.parametrize("config", _WALK_CONFIGS.values(), ids=_WALK_CONFIGS.keys())
def test_engine_agrees_when_tick_chunks_end_inside_levels(config, chunk, monkeypatch):
    # Causal levels here are wider than a block of one, three or seven GSNs,
    # so each such block ends inside a causal level and splits it.  Each
    # level walks its receives first, and only they merge a send row.
    monkeypatch.setattr("bloomclock.simulation._STAMP_CHUNK", chunk)
    log = run(config)
    for e, (vector, bloom) in zip(log.events, _reference_timestamps(log), strict=True):
        assert e.vector_ts == vector and e.bloom_ts == bloom, f"gsn {e.gsn}"
    gsns = np.arange(2, len(log) + 1, 3)
    assert run(config).select(gsns) == log.events[gsns - 1]


def test_the_walked_levels_hold_no_receive_only_receives_or_both(monkeypatch):
    # The cases above walk every kind of level the receive-first merge splits.
    shapes = {}
    for chunk in _WALK_CHUNKS:
        monkeypatch.setattr(simulation, "_STAMP_CHUNK", chunk)
        for name, config in _WALK_CONFIGS.items():
            shapes[name, chunk] = _level_shapes(config)
    assert shapes["complete-pr_i=0", _STAMP_CHUNK] == {"none", "only", "both"}
    assert all(shapes["complete-pr_i=1", chunk] == {"none"} for chunk in _WALK_CHUNKS)


def test_engine_agrees_on_a_level_wider_than_a_tick_chunk(monkeypatch):
    config = ExperimentConfig("complete", n=700, m=8, k=2, pr_i=0.3, seed=24, gsn_limit=1500)
    log = run(config)
    _, pids, kinds, _, _, _, send_gsns = log.columns()
    # With one block spanning the log, the levels are the causal ones.
    monkeypatch.setattr(simulation, "_STAMP_CHUNK", len(log))
    causal = _row_plan(pids, kinds, send_gsns, config.entities)[1][0]
    block = 512
    monkeypatch.setattr(simulation, "_STAMP_CHUNK", block)
    walked = _row_plan(pids, kinds, send_gsns, config.entities)[1][0]
    assert np.bincount(causal).max() > block >= np.bincount(walked).max()
    for e, (vector, bloom) in zip(log.events, _reference_timestamps(log), strict=True):
        assert e.vector_ts == vector and e.bloom_ts == bloom, f"gsn {e.gsn}"
    gsns = np.arange(1, len(log) + 1, 2)
    assert run(config).select(gsns) == log.events[gsns - 1]


def test_stamp_runs_under_a_profiler():
    # A profiler holds references to the frame locals of _stamp, which a
    # reference-checked resize of its working matrix would refuse.
    config = ExperimentConfig("complete", n=20, m=4, k=2)
    artifact = cProfile.Profile().runcall(run_experiment, config, (1,))
    assert artifact == run_experiment(config, (1,))


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


@st.composite
def stamp_requests(draw, count):
    """Increasing GSNs of a log of ``count`` events for ``_stamp``: none, one, every one, a prefix or any subset."""
    shape = draw(st.sampled_from(("none", "one", "every", "prefix", "subset")))
    if shape == "none" or not count:
        return np.zeros(0, np.int64)
    if shape == "one":
        return np.array([draw(st.integers(1, count))])
    if shape == "every":
        return np.arange(1, count + 1)
    if shape == "prefix":
        return np.arange(1, draw(st.integers(1, count)) + 1)
    return np.array(sorted(draw(st.sets(st.integers(1, count), min_size=1))))


@settings(max_examples=100, deadline=None)
@given(small_configs(), st.data(), st.sampled_from([1, 3, _STAMP_CHUNK]))
def test_stamp_picks_each_blocks_wanted_rows_in_gsn_order(config, data, chunk):
    log = run(config)
    clocks = log.events.clocks
    wanted = data.draw(stamp_requests(len(log)))
    picks = []
    with mock.patch.object(simulation, "_STAMP_CHUNK", chunk):
        stamped = _stamp(config, log.columns(), DigestTable(config.seed), wanted, [(config.m, config.k)])
        for block, (rows, picked) in enumerate(stamped):
            # Block b holds GSNs (b * chunk, (b + 1) * chunk] and picks exactly the wanted ones among them.
            own = wanted[(block * chunk < wanted) & (wanted <= (block + 1) * chunk)]
            assert np.array_equal(rows[picked], clocks[own - 1])
            picks.append(rows[picked])
    # Every block up to the last wanted GSN is walked and yielded, and no block after it.
    count = int(wanted[-1]) if len(wanted) else 0
    assert len(picks) == -(-count // chunk)
    assert np.array_equal(np.concatenate([clocks[:0], *picks]), clocks[wanted - 1])


@settings(max_examples=60, deadline=None)
@given(
    small_configs(),
    st.lists(st.tuples(st.integers(1, 8), st.integers(1, 10)), min_size=1, max_size=4),
    st.sampled_from([1, 3, _STAMP_CHUNK]),
)
# A repeated (m, k), m=1 and k > m, in blocks that split causal levels.
@example(ExperimentConfig("complete", n=3, m=2, k=1, seed=5, gsn_limit=40), [(1, 4), (3, 2), (1, 4)], 3)
def test_a_multi_geometry_stamp_holds_each_geometry_stamped_alone(config, geometries, chunk):
    columns, entities = run(config).columns(), config.entities
    with mock.patch.object(simulation, "_STAMP_CHUNK", chunk):
        # A stamp overwrites its rows block by block; rows[picked] is a copy.
        every = np.arange(1, len(columns[0]) + 1)
        stamped = _stamp(config, columns, DigestTable(config.seed), every, geometries)
        together = [rows[picked] for rows, picked in stamped]
        offset = entities
        for m, k in geometries:
            alone = _stamp(config, columns, DigestTable(config.seed), every, [(m, k)])
            for rows, (own_rows, own_picked) in zip(together, alone, strict=True):
                own_rows = own_rows[own_picked]
                assert rows.shape[1] == entities + sum(width for width, _ in geometries)
                assert np.array_equal(rows[:, :entities], own_rows[:, :entities])
                assert np.array_equal(rows[:, offset : offset + m], own_rows[:, entities:])
            offset += m


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
    targets, _, slots = _row_plan(pids, kinds, send_gsns, config.entities)
    # Sends read after their process's next event take pool slots, given back after their last receive.
    pool = slots - 1 - config.entities
    held = np.count_nonzero(targets > config.entities)
    assert pool > 20 and (pool < held if reused else pool == held)
    gsns = np.arange(3, len(log) + 1, 7)
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


def test_select_reads_a_descending_range_of_one_gsn():
    # _wanted accepts range(5, 4, -1), GSN 5 alone; the one index of select keeps it only through max(step, 1).
    unstamped, stamped = (run(ExperimentConfig("complete", n=4, m=2, k=1, seed=1, gsn_limit=20)) for _ in range(2))
    stamped.events
    for log in (unstamped, stamped):
        selected = log.select(range(5, 4, -1))
        assert selected.gsns.tolist() == [5] and selected == stamped.events[4:5]
    assert unstamped._events is None


def test_select_refuses_gsns_that_are_not_integers():
    # numpy would truncate 2.7 to event 2 and parse '3' as event 3.
    unstamped, stamped = (run(ExperimentConfig("complete", n=4, m=2, k=1, seed=1, gsn_limit=20)) for _ in range(2))
    stamped.events
    for log in (unstamped, stamped):
        for gsns in ([2.7], ["3"], np.array([1.9, 3.2]), [1, 2.0], [True]):
            with pytest.raises(ValueError, match="gsns must be integers"):
                log.select(gsns)
        assert len(log.select(np.array([]))) == 0
        assert log.select(np.array([2, 5], dtype=np.uint8)) == stamped.events[np.array([1, 4])]
    assert unstamped._events is None


def test_replay_accepts_an_empty_trace(tmp_path):
    path = tmp_path / "empty.txt"
    config = ExperimentConfig("complete", n=4, m=2, k=1)
    persist_trace(ExecutionLog(config, run(config).events[:0]), path)
    replay_timestamps(load_trace(path))


@pytest.mark.parametrize(
    "config",
    [ExperimentConfig("complete", n=100, m=10, k=2, seed=1), ExperimentConfig("broadcast", n=100, m=10, k=2, seed=1)],
    ids=["complete", "broadcast"],
)
def test_replay_checks_rows_without_a_second_copy_of_the_clocks(config):
    log = run(config)
    clock_bytes = log.events.vectors.nbytes + log.events.blooms.nbytes
    tracemalloc.start()
    try:
        replay_timestamps(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Stamping a full copy to compare against would alone take clock_bytes.
    assert peak < clock_bytes / 2


@pytest.mark.parametrize("check", ["replay", "equality"])
def test_replaying_or_comparing_a_run_leaves_it_unstamped_below_half_its_clocks(check):
    config = ExperimentConfig("complete", n=200, m=20, k=2, seed=1)
    log, twin = run(config), run(config)
    # From the config: reading log.events would stamp the log.
    clock_bytes = config.event_count * (config.entities + config.m) * 4
    tracemalloc.start()
    try:
        if check == "replay":
            replay_timestamps(log)
        else:
            assert log == twin
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Each log's rows come from its own stamp a block at a time; neither keeps them.
    assert log._events is None and twin._events is None
    assert peak < clock_bytes / 2


def test_logs_of_equal_columns_that_differ_in_one_row_are_unequal(monkeypatch):
    config = ExperimentConfig("complete", n=8, m=4, k=2, seed=9, gsn_limit=200)
    unstamped, stamped = run(config), run(config)
    clocks = stamped.events.clocks.copy()
    clocks[150, config.entities + 1] += 1
    edited = _edited(stamped, clocks=clocks)
    # In blocks of 7, GSN 151 lies in the 22nd block, after 21 equal ones.
    monkeypatch.setattr(simulation, "_STAMP_CHUNK", 7)
    assert unstamped == stamped and stamped == unstamped
    assert edited != unstamped and unstamped != edited and edited != stamped
    assert unstamped._events is None


def test_replay_in_small_blocks_names_the_first_tampered_gsn_of_a_later_block(monkeypatch):
    log = run(ExperimentConfig("complete", n=8, m=4, k=2, seed=9, gsn_limit=200))
    clocks = log.events.clocks.copy()
    # GSN 121 is the second of block 17 in blocks of 7; GSN 151 lies in a later block.
    clocks[120, log.config.entities + 2] += 1
    clocks[150, 3] += 1
    monkeypatch.setattr(simulation, "_STAMP_CHUNK", 7)
    with pytest.raises(ReplayError, match="^gsn 121: replayed timestamps differ from the recorded ones$"):
        replay_timestamps(_edited(log, clocks=clocks))


@pytest.mark.parametrize("span", [255, 256, 65535, 65536])
@pytest.mark.parametrize("low", [0, -70_000, np.iinfo(np.int32).min, np.iinfo(np.int32).max - 65536])
def test_grouping_by_process_is_a_stable_argsort(span, low):
    # Spans below 256 and 65536 sort 8- and 16-bit keys; pids - min wraps
    # in int32 from the lowest minimum and the highest maximum.
    rng = np.random.default_rng(span)
    pids = rng.integers(low, low + span, 5000, endpoint=True).astype(np.int32)
    pids[:2] = low, low + span
    assert np.array_equal(simulation._by_process(pids), np.argsort(pids, kind="stable"))


def test_grouping_by_process_over_the_whole_int32_range_and_none():
    pids = np.array([np.iinfo(np.int32).max, 0, np.iinfo(np.int32).min, 0, -1], np.int32)
    assert simulation._by_process(pids).tolist() == [2, 4, 1, 3, 0]
    assert simulation._by_process(np.zeros(0, np.int32)).tolist() == []


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
    assert tuple(events[:5]) + records[5:] == records
    assert ExecutionLog(log.config, events) == log
    assert tuple(ExecutionLog(log.config, events[:20]).events) == records[:20]
    with pytest.raises(ConfigurationError):
        ExecutionLog(replace(log.config, m=4), events)
