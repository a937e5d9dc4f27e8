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
random draw depends on a clock value, so a runner records only the linkage
(each event's process and kind, a send's destination, a receive's send);
``_linkage_log`` derives the other columns and ``_stamp`` the clocks.
``replay_timestamps`` rebuilds every column and timestamp of a recorded
log from its linkage through both, and checks that each receive happens
at its message's destination and that no process receives a send twice.

``_stamp`` applies the protocol level by level rather than event by
event.  An event's level is 1 + the larger of the levels of its process's
previous event and, at a receive, its send, so the events of one level
are pairwise concurrent and the end of each level is a consistent cut.
One level is one batch of numpy calls: gather the rows its events read,
take their pointwise maximum, add their tick rows and scatter the
results.  A complete n=200 run of 40,000 events has 294 levels; a star
run, whose server serializes it, has about one level per two events.

A log from ``run`` holds only its int32 linkage columns.  Clocks are
stamped for the rows a caller reads: ``ExecutionLog.events`` stamps every
row once, on first access, into one events x (entities + m) matrix whose
vector and Bloom columns it keeps as two views; ``ExecutionLog.select``
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
from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
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
# _stamp hashes and builds tick rows for whole levels, this many events or more
# at a time; _row_plan finds levels this many events at a time.
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
    """Row slots for a level-by-level stamp of ``pids`` that keeps only the rows of ``gsns``.

    An event's level is 1 + the larger of the levels of its process's
    previous event and, at a receive, of its send, so no two events of a
    level are causally related.  ``_stamp`` walks the levels in order and
    does all reads of a level before its writes, so a row's lifetime is
    counted in levels.  Slot 0 holds the zero clock and slots 1 to
    ``len(gsns)`` the requested rows in order.  Each process owns the next
    slot: its unrequested rows overwrite one another there, since only the
    process's next event and the receives up to that event's level read
    them.  A send row that a receive reads at a later level takes a slot of
    the pool that follows, and gives it back after the level of its last
    receive.  Returns each event's slot; a 3 x events array of what it
    reads: its level, the slot of its process's previous row (0 for none)
    and the slot a receive merges from (0 for other kinds); and the number
    of slots.
    """
    count = len(pids)
    is_receive = kinds == RECEIVE
    merged = np.where(is_receive, send_gsns, 0)
    # level_of[0] stands for "no send", so every event reads one entry.
    level_of = array("i", [0]) * (count + 1)
    previous = array("i", [0]) * count
    last_level = [0] * entities
    last_gsn = [0] * entities
    for lo in range(0, count, _STAMP_CHUNK):
        hi = lo + _STAMP_CHUNK
        for gsn, pid, send in zip(range(lo + 1, hi + 1), pids[lo:hi].tolist(), merged[lo:hi].tolist()):
            level = last_level[pid]
            if level_of[send] > level:
                level = level_of[send]
            level_of[gsn] = last_level[pid] = level + 1
            previous[gsn - 1] = last_gsn[pid]
            last_gsn[pid] = gsn
    del merged
    reads = np.zeros((3, count), _DTYPE)
    levels = reads[0]
    levels[:] = np.frombuffer(level_of, _DTYPE)[1:]
    del level_of
    # The GSN of each process's previous event, 0 for its first.
    previous = np.frombuffer(previous, _DTYPE)
    has_previous = previous > 0
    next_level = np.zeros(count, _DTYPE)
    next_level[previous[has_previous] - 1] = levels[has_previous]
    last_read = np.zeros(count, _DTYPE)
    np.maximum.at(last_read, send_gsns[is_receive] - 1, levels[is_receive])
    outlives = (last_read > next_level) & (next_level > 0)
    del next_level
    requested = gsns - 1
    outlives[requested] = False
    held = np.flatnonzero(outlives)
    del outlives
    # The reads of level L happen at time 2L and its writes at 2L + 1.  Held
    # row i takes a pool slot when it is written (op i) and gives it back
    # once its last receive has read it (op ~i).
    times = np.concatenate((2 * levels[held] + 1, 2 * last_read[held]))
    del last_read
    ops = np.concatenate((np.arange(len(held)), ~np.arange(len(held))))[np.argsort(times)]
    del times
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
    slots = len(gsns) + 1 + pids
    slots[requested] = np.arange(1, len(gsns) + 1, dtype=_DTYPE)
    slots[held] = taken
    reads[1, has_previous] = slots[previous[has_previous] - 1]
    reads[2, is_receive] = slots[send_gsns[is_receive] - 1]
    return slots, reads, int(slots.max(initial=0)) + 1


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

    The events up to the last requested one are walked level by level
    (see ``_row_plan``), in the slots of one working matrix whose rows are
    a vector clock followed by a Bloom clock.  A level is one batch: gather
    the rows its events read, take their pointwise maximum, add their tick
    rows (a unit row for the vector clock, the hashed indices for the Bloom
    clock) and scatter the results, so every read of a level comes before
    its writes.  Tick rows are built for whole levels, ``_STAMP_CHUNK`` or
    more events at a time, from one batch of hashes.  The requested rows
    are the first slots after the zero row; the matrix is cut back to them
    in place and the two clocks are returned as column views of it.
    """
    _, pids, kinds, xs, _, _, send_gsns = columns
    if gsns is None:
        gsns = np.arange(1, len(pids) + 1)
    count, kept, entities = int(gsns[-1]) if len(gsns) else 0, len(gsns), config.entities
    targets, reads, total = _row_plan(pids[:count], kinds[:count], send_gsns[:count], gsns, entities)
    del gsns
    order = np.argsort(reads[0], kind="stable")
    # Levels run from 1 up without a gap; bounds[i] is where level i + 1 starts.
    bounds = [0, *np.cumsum(np.bincount(reads[0])[1:]).tolist()]
    # Column r of walk: the slot event order[r] writes and the two it reads.
    reads[0] = targets
    walk = reads[:, order]
    order = order.astype(_DTYPE)
    del targets, reads
    # A chunk of tick rows ends at the first level end _STAMP_CHUNK or more
    # events after its start; cuts index its first and last bound.
    cuts = [0]
    while cuts[-1] < len(bounds) - 1:
        cuts.append(min(bisect_left(bounds, bounds[cuts[-1]] + _STAMP_CHUNK), len(bounds) - 1))
    widest = max((bounds[b] - bounds[a] for a, b in zip(cuts, cuts[1:])), default=0)
    family = config.hash_family()
    clocks = np.zeros((total, entities + config.m), _DTYPE)
    tick_rows = np.empty((widest, clocks.shape[1]), _DTYPE)
    for first, last in zip(cuts, cuts[1:]):
        lo, hi = bounds[first], bounds[last]
        targets, previous, sources = walk[:, lo:hi].astype(np.intp)
        chunk_pids, chunk_xs = pids[order[lo:hi]], xs[order[lo:hi]]
        ticks = tick_rows[: hi - lo]
        ticks.fill(0)
        local = np.arange(hi - lo)
        ticks[local, chunk_pids] = 1
        # One add per hash function: an index hit by two of them adds 2.
        for column in family.index_rows(chunk_pids.tolist(), chunk_xs.tolist()).T:
            ticks[local, entities + column] += 1
        for start, end in zip(bounds[first:last], bounds[first + 1 : last + 1]):
            level = slice(start - lo, end - lo)
            rows = clocks.take(previous[level], axis=0)
            np.maximum(rows, clocks.take(sources[level], axis=0), out=rows)
            rows += ticks[level]
            clocks[targets[level]] = rows
    # The requested rows are slots 1 to kept: dropping the slots after them
    # in place frees the scratch rows without a copy of the requested ones.
    clocks.resize((kept + 1, clocks.shape[1]))
    return clocks[1:, :entities], clocks[1:, entities:]


class _Linkage:
    """What a runner records per executed event: its process, its kind and a link.

    A send's link is its destination (-1 for a broadcast) and a receive's
    the GSN of its send, which stands for the message in flight.
    ``_linkage_log`` derives the other columns from these three.
    """

    def __init__(self) -> None:
        self.pids: list[int] = []
        self.kinds: list[int] = []
        self.links: list[int] = []

    def record(self, pid: ProcessId, kind: int, link: int = _ABSENT) -> int:
        """Record an event and return its GSN."""
        self.pids.append(pid)
        self.kinds.append(kind)
        self.links.append(link)
        return len(self.pids)


def _linkage_log(
    config: ExperimentConfig, pids: Sequence[int], kinds: Sequence[int], links: Sequence[int]
) -> ExecutionLog:
    """The unstamped log of a linkage (see ``_Linkage``): the one place its other columns are derived."""
    pids, kinds, links = (np.asarray(column, dtype=_DTYPE) for column in (pids, kinds, links))
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
    return _linkage_log(config, linkage.pids, linkage.kinds, linkage.links)


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
            linkage.record(pid, INTERNAL)
        elif u < send_cut:
            dest = rng.randrange(n - 1)
            if dest >= pid:
                dest += 1
            pending[dest].append(linkage.record(pid, SEND, dest))
        elif pending[pid]:
            pool = pending[pid]
            linkage.record(pid, RECEIVE, pool.pop(rng.randrange(len(pool))))
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
            message = linkage.record(pid, SEND)
            for other in range(n):
                if other != pid:
                    pending[other].append(message)
        else:
            pool = pending[pid]
            linkage.record(pid, RECEIVE, pool.pop(rng.randrange(len(pool))))


_RUNNERS = {"complete": _run_complete, "star": _run_star, "broadcast": _run_broadcast}


def _refuse(bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise ``ReplayError`` with the message of the first true row of ``bad``, if there is one."""
    if bad.any():
        raise ReplayError(message(int(np.argmax(bad))))


def replay_timestamps(log: ExecutionLog) -> None:
    """Rebuild the log from its linkage alone and check that it equals the recorded one.

    A send's link is read back as its receiver and a receive's as its send
    GSN.  Guards check that pids lie in range and that each receive links to
    an earlier send, happens at its message's destination, if any, and is the
    only receive of that send at its process.  Then ``_linkage_log`` and
    ``_stamp`` rebuild every column and timestamp.  ``ReplayError`` names the
    GSN of the first failed guard, or the first GSN where anything differs.
    """
    config, recorded = log.config, log.events
    entities = config.entities
    _, pids, kinds, _, _, receivers, send_gsns = recorded.columns()
    _refuse((pids < 0) | (pids >= entities), lambda r: f"gsn {r + 1}: pid {pids[r]} outside [0, {entities})")
    at = np.flatnonzero(kinds == RECEIVE)
    sent = send_gsns[at].astype(np.int64)
    # The receive at row i has GSN i + 1, so its send's GSN lies in [1, i].
    known = (sent >= 1) & (sent <= at)
    known[known] = kinds[sent[known] - 1] == SEND
    _refuse(~known, lambda r: f"gsn {at[r] + 1}: receive links to unknown send gsn {_optional(sent[r])}")
    addressed = receivers[sent - 1]
    _refuse(
        (addressed >= 0) & (addressed != pids[at]),
        lambda r: f"gsn {at[r] + 1}: process {pids[at[r]]} receives send gsn {sent[r]}, addressed to {addressed[r]}",
    )
    repeated = np.ones(len(at), bool)
    repeated[np.unique(sent * entities + pids[at], return_index=True)[1]] = False
    _refuse(repeated, lambda r: f"gsn {at[r] + 1}: process {pids[at[r]]} receives send gsn {sent[r]} again")
    rebuilt = _linkage_log(config, pids, kinds, np.where(kinds == SEND, receivers, send_gsns)).events
    pairs = list(zip(recorded.columns(), rebuilt.columns()))
    clocks = (recorded.vectors != rebuilt.vectors).any(axis=1) | (recorded.blooms != rebuilt.blooms).any(axis=1)
    differs = np.stack([held != derived for held, derived in pairs] + [clocks])
    if differs.any():
        row = int(np.argmax(differs.any(axis=0)))
        field = int(np.argmax(differs[:, row]))
        if field == len(pairs):
            raise ReplayError(f"gsn {row + 1}: replayed timestamps differ from the recorded ones")
        held, derived = (_optional(int(column[row])) for column in pairs[field])
        raise ReplayError(f"gsn {row + 1}: column {Events.COLUMNS[field]} holds {held}, replay derives {derived}")
