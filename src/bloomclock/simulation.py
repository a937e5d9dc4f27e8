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

A log from ``run`` holds only its int32 linkage columns.  Clocks are
stamped for the rows a caller reads: ``ExecutionLog.events`` stamps every
row once, on first access, into one events x entities vector matrix and
one events x m Bloom matrix, and keeps them; ``ExecutionLog.select``
stamps only the rows of the GSNs it is given.  A partial stamp keeps a
row only while something needs it: requested rows, each process's latest
row, and sends whose receives are still to come.  Its memory is
O(entities**2 + live * entities + rows * entities) rather than
O(events * entities), so a sweep cell that classifies a 381-row slice of
an n=200 run holds a few MB of clocks, not 35 MB.  ``Events`` is a lazy
sequence over columns that builds an ``EventRecord`` only when an item is
read; its slices are views.
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
# _row_plan converts its arrays to Python ints this many at a time.
_PLAN_CHUNK = 1 << 16


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
    views, so ``log.events[1999:]`` copies nothing, and an integer array
    index returns a copy of its rows.  ``kinds`` holds indices
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
        if isinstance(index, (slice, np.ndarray)):
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
        if not isinstance(other, Events):
            return NotImplemented
        return all(
            np.array_equal(a, b)
            for a, b in zip(
                self.columns() + (self.vectors, self.blooms),
                other.columns() + (other.vectors, other.blooms),
            )
        )

    def __repr__(self) -> str:
        return f"Events(<{len(self)} events, {self.vectors.shape[1]} entities, m={self.blooms.shape[1]}>)"


class ExecutionLog:
    """A run's configuration echo plus its events ordered by GSN (contiguous from 1).

    The log holds the int32 linkage columns of ``Events.COLUMNS``;
    ``len(log)`` and ``columns()`` read only those.  ``events`` stamps every
    row on first access and keeps the result.  ``select`` returns the rows
    of chosen GSNs: from the kept result if there is one, otherwise from a
    stamping pass that stores only those rows.  A log built from ``Events``
    (kept as is, views included) or from any iterable of ``EventRecord``
    is stamped from the start; its clock widths must match the
    configuration.
    """

    __slots__ = ("config", "_columns", "_events")

    def __init__(self, config: ExperimentConfig, events: Events | Iterable[EventRecord]):
        if not isinstance(events, Events):
            events = Events.from_records(events, config.entities, config.m)
        if events.vectors.shape[1] != config.entities or events.blooms.shape[1] != config.m:
            raise ConfigurationError(
                f"clock widths {events.vectors.shape[1]}/{events.blooms.shape[1]} do not match "
                f"the configuration's {config.entities} entities and m={config.m}"
            )
        self.config = config
        self._columns = events.columns()
        self._events: Events | None = events

    @classmethod
    def _unstamped(cls, config: ExperimentConfig, columns: Sequence[np.ndarray]) -> ExecutionLog:
        """A log of linkage columns alone; its clocks are stamped when read."""
        log = cls.__new__(cls)
        log.config, log._columns, log._events = config, tuple(columns), None
        return log

    def columns(self) -> tuple[np.ndarray, ...]:
        """The linkage columns in ``Events.COLUMNS`` order; reading them never stamps."""
        return self._columns

    def __len__(self) -> int:
        return len(self._columns[0])

    @property
    def events(self) -> Events:
        """Every event with its timestamps, stamped once on first access."""
        if self._events is None:
            self._events = Events(self._columns, *_stamp(self.config, self._columns))
        return self._events

    def select(self, gsns: Sequence[int]) -> Events:
        """The events of ``gsns``, which must increase; a ``range`` over stamped events gives views."""
        wanted = np.asarray(gsns, dtype=np.int64)
        if wanted.ndim != 1 or (wanted.size and not (1 <= wanted[0] and wanted[-1] <= len(self))):
            raise ValueError(f"gsns must lie in [1, {len(self)}]")
        if (np.diff(wanted) <= 0).any():
            raise ValueError("gsns must increase")
        if self._events is not None:
            if isinstance(gsns, range) and gsns:
                return self._events[gsns[0] - 1 : gsns[-1] : max(gsns.step, 1)]
            return self._events[wanted - 1]
        vectors, blooms = _stamp(self.config, self._columns, wanted)
        return Events([column[wanted - 1] for column in self._columns], vectors, blooms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionLog):
            return NotImplemented
        return self.config == other.config and self.events == other.events

    def __repr__(self) -> str:
        return f"ExecutionLog({self.config!r}, <{len(self)} events>)"


def _by_process(pids: np.ndarray) -> np.ndarray:
    """Positions of the events grouped by process, in GSN order within each."""
    # The keys are distinct, so the default sort is stable here and faster than a stable one.
    return np.argsort(pids.astype(np.int64) * len(pids) + np.arange(len(pids)))


def _ints(values: np.ndarray) -> Iterator[int]:
    """The items of ``values`` as Python ints, converted ``_PLAN_CHUNK`` at a time."""
    for lo in range(0, len(values), _PLAN_CHUNK):
        yield from values[lo : lo + _PLAN_CHUNK].tolist()


def _row_plan(
    pids: np.ndarray, kinds: np.ndarray, send_gsns: np.ndarray, gsns: np.ndarray, entities: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Row slots for stamping the events of ``pids`` when only the rows of ``gsns`` are kept.

    Slot 0 holds the zero clock and slots 1 to ``len(gsns)`` the requested
    rows in order.  Each process owns the next slot: its unrequested rows
    overwrite one another there, since only the process's next event and
    the receives before it read them.  A send row that a receive reads
    after that takes a slot of the pool that follows, and gives it back
    after its last receive.  Returns each event's slot, the slot each
    receive merges from (0 for other kinds) and the number of slots.
    """
    count = len(pids)
    by_pid = _by_process(pids)
    same = pids[by_pid[1:]] == pids[by_pid[:-1]]
    next_event = np.zeros(count, np.int64)
    next_event[by_pid[:-1][same]] = by_pid[1:][same] + 1
    receives = np.flatnonzero(kinds == RECEIVE)
    last_receive = np.zeros(count, np.int64)
    np.maximum.at(last_receive, send_gsns[receives] - 1, receives + 1)
    slots = len(gsns) + 1 + pids.astype(np.int64)
    slots[gsns - 1] = np.arange(1, len(gsns) + 1)
    outlives = (last_receive > next_event) & (next_event > 0)
    outlives[gsns - 1] = False
    held = np.flatnonzero(outlives)
    # Held row i takes a pool slot at time 2 * gsn (op i) and gives it back
    # at 2 * last receive + 1, once that receive has run (op ~i).
    times = np.concatenate((2 * held + 2, 2 * last_receive[held] + 1))
    ops = np.concatenate((np.arange(len(held)), ~np.arange(len(held))))[np.argsort(times)]
    free: list[int] = []
    taken = [0] * len(held)
    top = len(gsns) + 1 + entities
    for op in _ints(ops):
        if op < 0:
            free.append(taken[~op])
        elif free:
            taken[op] = free.pop()
        else:
            taken[op] = top
            top += 1
    slots[held] = taken
    sources = np.zeros(count, np.int64)
    sources[receives] = slots[send_gsns[receives] - 1]
    return slots, sources, top


def _stamp(
    config: ExperimentConfig, columns: Sequence[np.ndarray], gsns: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the clock protocol to a linkage; the one place where clocks tick and merge.

    ``columns`` are a log's ``Events.COLUMNS``.  Event ``g`` (GSN order,
    from 1) at process ``pids[g-1]`` with event index ``xs[g-1]`` starts
    from its process's last row, or the zero row; a receive first takes the
    pointwise maximum with the row of send ``send_gsns[g-1]``.  Then both
    clocks tick.  Returns the vector and Bloom matrices, one row per event,
    or one row per GSN of ``gsns`` (increasing) if given.

    The events are walked ``_STAMP_CHUNK`` at a time, up to the last
    requested one.  Each chunk's Bloom tick rows are built up front from
    one batch of hashes, so the per-event work is one add of a tick row (a
    unit row for the vector clock), after a pointwise maximum at a receive.
    When every walked row is requested, each is written in place into the
    returned matrices.  Otherwise ``_row_plan`` gives the other rows
    scratch slots, each reused once no later event reads its row.
    """
    _, pids, kinds, xs, _, _, send_gsns = columns
    count = len(pids)
    if gsns is not None:
        count = int(gsns[-1]) if len(gsns) else 0
        if len(gsns) == count:  # every walked row is requested
            gsns = None
    family = config.hash_family()
    add, maximum = np.add, np.maximum
    # Row 0 is the zero clock; without gsns, row g holds the timestamps of GSN g.
    kept = count if gsns is None else len(gsns)
    vectors = np.zeros((kept + 1, config.entities), _DTYPE)
    blooms = np.zeros((kept + 1, config.m), _DTYPE)
    if gsns is None:
        targets, sources = None, send_gsns
        vector_slots, bloom_slots = vectors, blooms
    else:
        targets, sources, total = _row_plan(pids[:count], kinds[:count], send_gsns[:count], gsns, config.entities)
        vector_slots = [*vectors, *np.zeros((total - kept - 1, config.entities), _DTYPE)]
        bloom_slots = [*blooms, *np.zeros((total - kept - 1, config.m), _DTYPE)]
    units = list(np.eye(config.entities, dtype=_DTYPE))
    last_vector = [vector_slots[0]] * config.entities
    last_bloom = [bloom_slots[0]] * config.entities
    for lo in range(0, count, _STAMP_CHUNK):
        hi = min(lo + _STAMP_CHUNK, count)
        chunk_pids = pids[lo:hi].tolist()
        ticks = np.zeros((hi - lo, config.m), _DTYPE)
        # np.add.at adds once per occurrence, so an index hit twice adds 2.
        np.add.at(ticks, (np.arange(hi - lo)[:, None], family.index_rows(chunk_pids, xs[lo:hi].tolist())), 1)
        if targets is None:
            chunk_vectors, chunk_blooms = vectors[lo + 1 : hi + 1], blooms[lo + 1 : hi + 1]
        else:
            chunk_slots = targets[lo:hi].tolist()
            chunk_vectors = map(vector_slots.__getitem__, chunk_slots)
            chunk_blooms = map(bloom_slots.__getitem__, chunk_slots)
        rows = zip(chunk_pids, kinds[lo:hi].tolist(), sources[lo:hi].tolist(), chunk_vectors, chunk_blooms, ticks)
        # np.add takes its output positionally, which skips keyword parsing
        # (about a quarter of this loop); np.maximum deprecates that form.
        for pid, kind, source, vector, bloom, tick in rows:
            if kind == RECEIVE:
                maximum(last_vector[pid], vector_slots[source], out=vector)
                maximum(last_bloom[pid], bloom_slots[source], out=bloom)
                add(vector, units[pid], vector)
                add(bloom, tick, bloom)
            else:
                add(last_vector[pid], units[pid], vector)
                add(last_bloom[pid], tick, bloom)
            last_vector[pid], last_bloom[pid] = vector, bloom
    return vectors[1:], blooms[1:]


class _Linkage:
    """What a runner records per executed event: its process, its kind and a link.

    A send's link is its destination (-1 for a broadcast) and a receive's
    the GSN of its send, which stands for the message in flight.  ``log``
    derives the other columns from these three.
    """

    def __init__(self) -> None:
        self.pids: list[int] = []
        self.kinds: list[int] = []
        self.links: list[int] = []

    def internal(self, pid: ProcessId) -> None:
        self.pids.append(pid)
        self.kinds.append(INTERNAL)
        self.links.append(_ABSENT)

    def send(self, pid: ProcessId, dest: ProcessId | None) -> int:
        """Record a send and return its GSN."""
        self.pids.append(pid)
        self.kinds.append(SEND)
        self.links.append(_stored(dest))
        return len(self.pids)

    def receive(self, pid: ProcessId, send_gsn: int) -> None:
        self.pids.append(pid)
        self.kinds.append(RECEIVE)
        self.links.append(send_gsn)

    def log(self, config: ExperimentConfig) -> ExecutionLog:
        """The unstamped log of the recorded linkage."""
        pids, kinds, links = (np.array(column, dtype=_DTYPE) for column in (self.pids, self.kinds, self.links))
        count = len(pids)
        sends, receives = kinds == SEND, kinds == RECEIVE
        # Event indices count each process's events from 1.
        by_pid = _by_process(pids)
        starts = np.ones(count, bool)
        starts[1:] = pids[by_pid[1:]] != pids[by_pid[:-1]]
        position = np.arange(count)
        xs = np.empty(count, _DTYPE)
        xs[by_pid] = position - np.maximum.accumulate(np.where(starts, position, 0)) + 1
        senders = np.where(sends, pids, np.where(receives, pids[np.where(receives, links - 1, 0)], _ABSENT))
        receivers = np.where(sends, links, np.where(receives, pids, _ABSENT))
        send_gsns = np.where(receives, links, _ABSENT)
        gsns = np.arange(1, count + 1, dtype=_DTYPE)
        return ExecutionLog._unstamped(config, [gsns, pids, kinds, xs, senders, receivers, send_gsns])


def run(config: ExperimentConfig) -> ExecutionLog:
    """Run the topology named by the configuration; every draw comes from one ``random.Random(seed)``."""
    linkage = _Linkage()
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
    vectors, blooms = _stamp(config, events.columns())
    differs = (vectors != events.vectors).any(axis=1) | (blooms != events.blooms).any(axis=1)
    if differs.any():
        gsn = int(np.argmax(differs)) + 1
        raise ReplayError(f"gsn {gsn}: replayed timestamps differ from the recorded ones")
