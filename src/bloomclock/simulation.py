"""Deterministic seeded simulation of message-passing executions.

Three topologies are supported:

* ``complete``: a decentralized system where every scheduler step picks a
  process uniformly at random; it runs an internal event with probability
  ``pr_i`` and otherwise splits the remaining mass evenly between sends
  (uniform destination) and receives (uniform pick from its pending pool).
  A process that draws a receive with nothing pending yields the step, so
  no event is executed and the scheduler simply moves on.
* ``star``: clients exchanging request/reply rounds with one server that
  owns a single shared clock pair; the server handles a request atomically
  (receive, then reply send).
* ``broadcast``: every process sends once to all others, then drains its
  incoming broadcasts in random order.

Every event ticks both the vector clock and the Bloom clock of its process
and is stamped with a global sequence number (GSN) in execution order, so
the log is a linearization of the run: ``y`` happened-before ``z`` implies
``gsn(y) < gsn(z)``.  Delivery is not FIFO: pending messages form a pool
per destination and a receive consumes a uniformly random element.

Runs are pure functions of the configuration: the scheduler, destination
choices, pool draws and hash family all derive from one 64-bit seed.  No
random draw depends on a clock value, so a runner first records the
linkage (who executed what, and which send each receive consumed) and
then ``_stamp`` applies the clock protocol to it.  ``replay_timestamps``
feeds a recorded log's linkage to the same ``_stamp``.

A log is columnar: integer columns per event plus one events x entities
vector matrix and one events x m Bloom matrix, all int32, so an event costs
``4 * (entities + m)`` bytes of clocks.  ``ExecutionLog.events`` is a lazy
sequence over those columns that builds an ``EventRecord`` only when an
item is read; its slices are views.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .clocks import BloomClock, EventIndex, HashFamily, ProcessId, VectorClock
from .errors import ConfigurationError

TOPOLOGIES = ("complete", "star", "broadcast")
KINDS = ("internal", "send", "receive")
INTERNAL, SEND, RECEIVE = range(len(KINDS))

# Every column and clock matrix is int32; absent optional fields
# (sender, receiver, send_gsn) are stored as -1.
_DTYPE = np.int32
_INT32_MAX = np.iinfo(_DTYPE).max
_ABSENT = -1
# Records are built this many rows at a time while iterating a log.
_CHUNK = 256
# _stamp hashes and builds Bloom tick rows this many events at a time.
_STAMP_CHUNK = 512


class ReplayError(Exception):
    """A recorded timestamp could not be reproduced from the log's linkage."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one seeded run.

    ``gsn_limit`` bounds the complete-graph run (default ``n**2``); star and
    broadcast runs terminate structurally instead.  ``messages_per_client``
    is the number of request/reply rounds per star client (default ``n``).
    Each of the two is rejected on a topology that would ignore it.
    """

    topology: str
    n: int
    m: int
    k: int
    pr_i: float = 0.0
    seed: int = 1
    gsn_limit: int | None = None
    messages_per_client: int | None = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}")
        # A star run with one client still has two clock-bearing entities
        # (client plus server); the peer topologies need two processes.
        min_n = 1 if self.topology == "star" else 2
        if self.n < min_n:
            raise ConfigurationError(f"need at least {min_n} processes for {self.topology}, got n={self.n}")
        if self.m < 1:
            raise ConfigurationError(f"clock width must be at least 1, got m={self.m}")
        if self.k < 1:
            raise ConfigurationError(f"need at least one hash function, got k={self.k}")
        if not 0.0 <= self.pr_i <= 1.0:
            raise ConfigurationError(f"pr_i must lie in [0, 1], got {self.pr_i}")
        if self.topology != "complete" and self.pr_i != 0.0:
            raise ConfigurationError(f"{self.topology} topology has no internal events; pr_i must be 0")
        if self.gsn_limit is not None and self.topology != "complete":
            raise ConfigurationError(f"{self.topology} topology ignores gsn_limit; it bounds complete runs only")
        if self.messages_per_client is not None and self.topology != "star":
            raise ConfigurationError(
                f"{self.topology} topology ignores messages_per_client; it sets star rounds only"
            )
        if self.gsn_limit is not None and self.gsn_limit < 1:
            raise ConfigurationError(f"gsn_limit must be positive, got {self.gsn_limit}")
        if self.messages_per_client is not None and self.messages_per_client < 1:
            raise ConfigurationError(
                f"messages_per_client must be positive, got {self.messages_per_client}"
            )
        # A Bloom counter is at most k times the number of events before it,
        # and a vector component at most that number.
        if self.k * self.event_count > _INT32_MAX:
            raise ConfigurationError(
                f"{self.event_count} events with k={self.k} could overflow the int32 clock counters"
            )

    @property
    def event_budget(self) -> int:
        return self.gsn_limit if self.gsn_limit is not None else self.n * self.n

    @property
    def rounds_per_client(self) -> int:
        return self.messages_per_client if self.messages_per_client is not None else self.n

    @property
    def event_count(self) -> int:
        """Number of events a run produces: the budget, four per star round, or ``n**2`` broadcast."""
        if self.topology == "complete":
            return self.event_budget
        if self.topology == "star":
            return 4 * self.n * self.rounds_per_client
        return self.n * self.n

    @property
    def entities(self) -> int:
        """Number of clock-bearing entities: the star server is one extra."""
        return self.n + 1 if self.topology == "star" else self.n

    def hash_family(self) -> HashFamily:
        return HashFamily(k=self.k, m=self.m, seed=self.seed)


@dataclass(frozen=True)
class EventRecord:
    """One timestamped event.

    ``vector_ts`` and ``bloom_ts`` are the post-tick snapshots of the
    executing process's clocks.  ``send_gsn`` links a receive back to the
    GSN of the matched send so a log can be replayed without knowing the
    scheduler's random draws; broadcast sends leave ``receiver`` unset
    because one send fans out to every other process.
    """

    gsn: int
    pid: ProcessId
    kind: str
    event_index: EventIndex
    sender: ProcessId | None
    receiver: ProcessId | None
    send_gsn: int | None
    vector_ts: VectorClock
    bloom_ts: BloomClock


def _optional(value: int) -> int | None:
    return None if value == _ABSENT else value


def _stored(value: int | None) -> int:
    return _ABSENT if value is None else value


class Events(Sequence[EventRecord]):
    """Columnar events in GSN order: a lazy sequence of ``EventRecord``.

    Row ``i`` of every column belongs to one event.  Indexing or iterating
    builds records on demand; slicing returns another ``Events`` over numpy
    views, so ``log.events[1999:]`` copies nothing.  ``kinds`` holds indices
    into ``KINDS``; absent sender, receiver and send_gsn are -1.
    """

    COLUMNS = ("gsns", "pids", "kinds", "event_indices", "senders", "receivers", "send_gsns")
    __slots__ = COLUMNS + ("vectors", "blooms")

    def __init__(self, columns: Sequence[np.ndarray], vectors: np.ndarray, blooms: np.ndarray):
        for name, column in zip(self.COLUMNS, columns, strict=True):
            setattr(self, name, column)
        self.vectors = vectors
        self.blooms = blooms

    @classmethod
    def from_records(cls, records: Iterable[EventRecord], entities: int, m: int) -> Events:
        """Columns from records; ``entities`` and ``m`` give the clock widths of an empty log."""
        records = list(records)
        columns = [
            np.array(values, dtype=_DTYPE)
            for values in (
                [r.gsn for r in records],
                [r.pid for r in records],
                [KINDS.index(r.kind) for r in records],
                [r.event_index for r in records],
                [_stored(r.sender) for r in records],
                [_stored(r.receiver) for r in records],
                [_stored(r.send_gsn) for r in records],
            )
        ]
        if not records:
            return cls(columns, np.zeros((0, entities), _DTYPE), np.zeros((0, m), _DTYPE))
        vectors = np.array([r.vector_ts.counters for r in records], dtype=_DTYPE)
        blooms = np.array([r.bloom_ts.counters for r in records], dtype=_DTYPE)
        return cls(columns, vectors, blooms)

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.COLUMNS)

    def __len__(self) -> int:
        return len(self.gsns)

    def _records(self, lo: int, hi: int) -> Iterator[EventRecord]:
        rows = slice(lo, hi)
        scalars = [column[rows].tolist() for column in self.columns()]
        vectors = self.vectors[rows].tolist()
        blooms = self.blooms[rows].tolist()
        for gsn, pid, kind, x, sender, receiver, send_gsn, vector, bloom in zip(*scalars, vectors, blooms):
            yield EventRecord(
                gsn,
                pid,
                KINDS[kind],
                x,
                _optional(sender),
                _optional(receiver),
                _optional(send_gsn),
                VectorClock(tuple(vector)),
                BloomClock(tuple(bloom)),
            )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Events([column[index] for column in self.columns()], self.vectors[index], self.blooms[index])
        count = len(self)
        position = index + count if index < 0 else index
        if not 0 <= position < count:
            raise IndexError(f"event index {index} out of range for {count} events")
        return next(self._records(position, position + 1))

    def __iter__(self) -> Iterator[EventRecord]:
        for lo in range(0, len(self), _CHUNK):
            yield from self._records(lo, lo + _CHUNK)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Events):
            return all(
                np.array_equal(a, b)
                for a, b in zip(
                    self.columns() + (self.vectors, self.blooms),
                    other.columns() + (other.vectors, other.blooms),
                )
            )
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __add__(self, other: Iterable[EventRecord]) -> tuple[EventRecord, ...]:
        return tuple(self) + tuple(other)

    def __radd__(self, other: Iterable[EventRecord]) -> tuple[EventRecord, ...]:
        return tuple(other) + tuple(self)

    def __repr__(self) -> str:
        return f"Events(<{len(self)} events, {self.vectors.shape[1]} entities, m={self.blooms.shape[1]}>)"


@dataclass(frozen=True)
class ExecutionLog:
    """A run's configuration echo plus its events ordered by GSN (contiguous from 1).

    ``events`` may be given as ``Events`` (kept as is, views included) or as
    any iterable of ``EventRecord``, which is converted to columns.  Clock
    widths must match the configuration.
    """

    config: ExperimentConfig
    events: Events

    def __post_init__(self) -> None:
        config = self.config
        events = self.events
        if not isinstance(events, Events):
            events = Events.from_records(events, config.entities, config.m)
            object.__setattr__(self, "events", events)
        if events.vectors.shape[1] != config.entities or events.blooms.shape[1] != config.m:
            raise ConfigurationError(
                f"clock widths {events.vectors.shape[1]}/{events.blooms.shape[1]} do not match "
                f"the configuration's {config.entities} entities and m={config.m}"
            )

    def __len__(self) -> int:
        return len(self.events)


def _stamp(
    config: ExperimentConfig, pids: Sequence[int], kinds: Sequence[int], xs: Sequence[int], send_gsns: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the clock protocol to a linkage; the one place where clocks tick and merge.

    Event ``g`` (GSN order, from 1) at process ``pids[g-1]`` with event index
    ``xs[g-1]`` starts from its process's last row, or the zero row; a
    receive first takes the pointwise maximum with the row of send
    ``send_gsns[g-1]``.  Then both clocks tick.  Returns the vector and
    Bloom matrices, one row per event.

    The events are walked ``_STAMP_CHUNK`` at a time.  Each chunk's Bloom
    tick rows are built up front from one batch of hashes, so the
    per-event work is one add of a tick row (a unit row for the vector
    clock), after a pointwise maximum at a receive.
    """
    count = len(pids)
    family = config.hash_family()
    add, maximum = np.add, np.maximum
    # Row g holds the timestamps of GSN g; row 0 is the zero clock.
    vectors = np.zeros((count + 1, config.entities), _DTYPE)
    blooms = np.zeros((count + 1, config.m), _DTYPE)
    units = list(np.eye(config.entities, dtype=_DTYPE))
    last_vector = [vectors[0]] * config.entities
    last_bloom = [blooms[0]] * config.entities
    for lo in range(0, count, _STAMP_CHUNK):
        hi = min(lo + _STAMP_CHUNK, count)
        chunk_pids = pids[lo:hi]
        ticks = np.zeros((hi - lo, config.m), _DTYPE)
        # np.add.at adds once per occurrence, so an index hit twice adds 2.
        np.add.at(ticks, (np.arange(hi - lo)[:, None], family.index_rows(chunk_pids, xs[lo:hi])), 1)
        rows = zip(chunk_pids, kinds[lo:hi], send_gsns[lo:hi], vectors[lo + 1 : hi + 1], blooms[lo + 1 : hi + 1], ticks)
        # np.add takes its output positionally, which skips keyword parsing
        # (about a quarter of this loop); np.maximum deprecates that form.
        for pid, kind, send_gsn, vector, bloom, tick in rows:
            if kind == RECEIVE:
                maximum(last_vector[pid], vectors[send_gsn], out=vector)
                maximum(last_bloom[pid], blooms[send_gsn], out=bloom)
                add(vector, units[pid], vector)
                add(bloom, tick, bloom)
            else:
                add(last_vector[pid], units[pid], vector)
                add(last_bloom[pid], tick, bloom)
            last_vector[pid], last_bloom[pid] = vector, bloom
    return vectors[1:], blooms[1:]


class _Linkage:
    """The columns a runner records, one append per executed event; messages are send GSNs."""

    def __init__(self, entities: int):
        self.xs_by_pid = [0] * entities
        self.pids: list[int] = []
        self.kinds: list[int] = []
        self.xs: list[int] = []
        self.senders: list[int] = []
        self.receivers: list[int] = []
        self.send_gsns: list[int] = []

    def _append(self, pid: ProcessId, kind: int, sender: int, receiver: int, send_gsn: int) -> int:
        self.xs_by_pid[pid] += 1
        self.pids.append(pid)
        self.kinds.append(kind)
        self.xs.append(self.xs_by_pid[pid])
        self.senders.append(sender)
        self.receivers.append(receiver)
        self.send_gsns.append(send_gsn)
        return len(self.pids)

    def internal(self, pid: ProcessId) -> None:
        self._append(pid, INTERNAL, _ABSENT, _ABSENT, _ABSENT)

    def send(self, pid: ProcessId, dest: ProcessId | None) -> int:
        """Record a send and return its GSN, which stands for the message in flight."""
        return self._append(pid, SEND, pid, _stored(dest), _ABSENT)

    def receive(self, pid: ProcessId, send_gsn: int) -> None:
        self._append(pid, RECEIVE, self.pids[send_gsn - 1], pid, send_gsn)

    def log(self, config: ExperimentConfig) -> ExecutionLog:
        vectors, blooms = _stamp(config, self.pids, self.kinds, self.xs, self.send_gsns)
        gsns = range(1, len(self.pids) + 1)
        columns = [
            np.array(values, dtype=_DTYPE)
            for values in (gsns, self.pids, self.kinds, self.xs, self.senders, self.receivers, self.send_gsns)
        ]
        return ExecutionLog(config, Events(columns, vectors, blooms))


def run(config: ExperimentConfig) -> ExecutionLog:
    """Run the topology named by the configuration; every draw comes from one ``random.Random(seed)``."""
    linkage = _Linkage(config.entities)
    _RUNNERS[config.topology](config, random.Random(config.seed), linkage)
    return linkage.log(config)


def _run_complete(config: ExperimentConfig, rng: random.Random, linkage: _Linkage) -> None:
    """Decentralized complete-graph run, terminating when the GSN hits the budget.

    Scheduler steps that draw a receive for a process with an empty pending
    pool execute nothing; the GSN only advances on executed events.
    """
    n = config.n
    pending: list[list[int]] = [[] for _ in range(n)]
    send_cut = config.pr_i + (1.0 - config.pr_i) / 2.0

    while len(linkage.pids) < config.event_budget:
        pid = rng.randrange(n)
        u = rng.random()
        if u < config.pr_i:
            linkage.internal(pid)
        elif u < send_cut:
            dest = rng.randrange(n - 1)
            if dest >= pid:
                dest += 1
            pending[dest].append(linkage.send(pid, dest))
        elif pending[pid]:
            pool = pending[pid]
            linkage.receive(pid, pool.pop(rng.randrange(len(pool))))
        # else: a receive draw with an empty pool yields the step.


def _run_star(config: ExperimentConfig, rng: random.Random, linkage: _Linkage) -> None:
    """Client-server run: each client plays ``rounds_per_client`` request/reply rounds.

    The server is entity ``n`` and owns the single shared clock pair.  The
    scheduler picks uniformly among clients that can act and, when requests
    are queued, the server; one server slot handles a uniformly chosen
    pending request atomically (receive, then reply send).
    """
    n = config.n
    server = n
    remaining = [config.rounds_per_client] * n
    awaiting = [False] * n
    replies: list[int | None] = [None] * n
    requests: list[int] = []

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
            linkage.receive(server, request)
            replies[client] = linkage.send(server, client)
        elif replies[actor] is not None:
            reply = replies[actor]
            replies[actor] = None
            linkage.receive(actor, reply)
            awaiting[actor] = False
            remaining[actor] -= 1
        else:
            requests.append(linkage.send(actor, server))
            awaiting[actor] = True


def _run_broadcast(config: ExperimentConfig, rng: random.Random, linkage: _Linkage) -> None:
    """Broadcast run: every process sends once to all others, then drains its pool.

    The log holds exactly ``n`` send events and ``n*(n-1)`` receive events;
    a process always broadcasts before consuming any incoming message.
    """
    n = config.n
    pending: list[list[int]] = [[] for _ in range(n)]
    sent = [False] * n

    while True:
        ready = [p for p in range(n) if not sent[p] or pending[p]]
        if not ready:
            break
        pid = ready[rng.randrange(len(ready))]
        if not sent[pid]:
            sent[pid] = True
            message = linkage.send(pid, None)
            for other in range(n):
                if other != pid:
                    pending[other].append(message)
        else:
            pool = pending[pid]
            linkage.receive(pid, pool.pop(rng.randrange(len(pool))))


_RUNNERS = {"complete": _run_complete, "star": _run_star, "broadcast": _run_broadcast}


def replay_timestamps(log: ExecutionLog) -> None:
    """Recompute every timestamp in the log from the protocol rules alone.

    Checks the sequencing (contiguous GSNs, pids in range, event indices in
    process order, receives linked to earlier sends), then drives ``_stamp``
    with the recorded linkage and compares its matrices with the recorded
    ones.  Raises ``ReplayError`` on the first sequencing problem or the
    first GSN whose timestamps differ; a clean return certifies the log is
    protocol-consistent bit for bit.
    """
    config = log.config
    entities = config.entities
    events = log.events
    gsns, pids, kinds, xs, _, _, send_gsns = (column.tolist() for column in events.columns())
    xs_by_pid = [0] * entities
    for position, (gsn, pid, kind, x, send_gsn) in enumerate(zip(gsns, pids, kinds, xs, send_gsns), start=1):
        if gsn != position:
            raise ReplayError(f"gsn {gsn} at position {position}: log is not contiguous")
        if not 0 <= pid < entities:
            raise ReplayError(f"gsn {gsn}: pid {pid} outside [0, {entities})")
        if x != xs_by_pid[pid] + 1:
            raise ReplayError(
                f"gsn {gsn}: event index {x} breaks process order (expected {xs_by_pid[pid] + 1})"
            )
        xs_by_pid[pid] = x
        if kind == RECEIVE and not (1 <= send_gsn < gsn and kinds[send_gsn - 1] == SEND):
            raise ReplayError(f"gsn {gsn}: receive links to unknown send gsn {_optional(send_gsn)}")
    vectors, blooms = _stamp(config, pids, kinds, xs, send_gsns)
    differs = (vectors != events.vectors).any(axis=1) | (blooms != events.blooms).any(axis=1)
    if differs.any():
        gsn = int(np.argmax(differs)) + 1
        raise ReplayError(f"gsn {gsn}: replayed timestamps differ from the recorded ones")
