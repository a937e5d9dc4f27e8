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
choices, pool draws and hash family all derive from one 64-bit seed.
Every draw comes from one ``random.Random(seed)``: ``random()`` for a
complete run's event kind, and ``_below`` for each choice among
processes, destinations and pending messages.  ``_below`` draws from
``getrandbits`` by ``randrange``'s own rejection rule, so it consumes
the same words and returns the same values as ``randrange``, and a seed
gives the same run on CPython 3.10 to 3.13; the complete runner writes
that loop out in place for its two fixed bounds.  No random draw depends
on a clock value, so a runner records only the linkage (each event's
process and kind, a send's destination, a receive's send);
``_linkage_log`` derives the other columns and ``_stamp`` the clocks.
``replay_timestamps`` rebuilds every column of a recorded log from its
linkage and checks that each kind is one of ``KINDS``, that each receive
happens at its message's destination, that no process receives its own
send or a send twice, and that each send's receiver is a process or
absent; ``_refuse_mismatch`` raises every mismatch of a recorded log,
against replay or the configuration's run.  An event's timestamps
are set by two earlier rows and its tick, so replay checks each recorded
row against the recorded rows of its process's previous event and, at a
receive, of its send, a block of rows at a time: it walks no levels.
``_tick_rows`` builds tick rows and ``_merge_and_tick`` merges and ticks,
for ``_stamp`` and replay alike, so each protocol rule is written once.

``_stamp`` applies the protocol level by level rather than event by
event, a block of ``_STAMP_CHUNK`` consecutive GSNs at a time.  An
event's level is 1 + the largest of the levels of its process's previous
event, at a receive its send, and the events of earlier blocks, so the
events of one level are pairwise concurrent and the end of each level is
a consistent cut.  Each block is a run of whole levels, so it is sorted
into its levels alone.  One level is one batch of numpy calls, its
receives walked first: gather each event's previous row and each
receive's send row, take the receives' pointwise maximum with their
sends, add the tick rows and scatter the results.  Only a receive
merges, and at most half of a complete run's events are receives (about
2.5% at pr_i=0.95), so the rest gather one row, not two.  A complete
n=200 run of 40,000 events has 491 levels (294 causal ones); a star run,
whose server serializes it, has about one level per two events.
``_stamp`` stamps a list of (m, k) geometries in one walk: its rows
are ``[vector | bloom_1 | ... | bloom_j]``, so one plan and one walk
serve every Bloom clock of a linkage.  The Bloom ticks come from a
``DigestTable``, which hashes each (pid, x) of a seed once, whatever m
and k: before it walks, ``_stamp`` grows the table to cover the events it
walks, and each block gathers its digests once and reduces them mod each
m.  A log stamps its own (m, k) through a table of its seed; ``run_sweep``
stamps every (m, k) of a linkage at once, through one table per seed.

A log from ``run`` holds only its int32 linkage columns.  A reader gives
``_stamp`` the increasing GSNs it keeps, and each yielded block picks
those of its rows in GSN order, so only ``_stamp`` knows the walk order.
``ExecutionLog.select`` copies the picked rows of chosen GSNs into one
``[vector | bloom]`` matrix, which ``Events.vectors`` and ``Events.blooms``
view, and ``events`` selects every GSN, once; ``ExecutionLog._blocks``
streams every row a block at a time, the one source of whole-log rows
for trace persist and ``==``, so neither keeps clocks.  Replay reads the
rows a log holds and stamps none.
The walk holds a row per process and the sends whose receives are still
to come: O(entities**2 + live * entities) memory, not O(events *
entities).  The digest table adds 16 bytes per (pid, x) walked: 0.6 MB
at n=200, 16 MB at n=1000.  ``Events`` is a lazy sequence over columns
that builds an ``EventRecord`` only when an item is read; its slices are
views.
"""

from __future__ import annotations

import random
from array import array
from bisect import insort
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from numbers import Real

import numpy as np

from .clocks import BloomClock, DigestTable, EventIndex, HashFamily, ProcessId, VectorClock
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
# _stamp walks, hashes and yields blocks of this many consecutive GSNs;
# fewer mean more, narrower levels.
_STAMP_CHUNK = 1024
# The (m, k) of each Bloom clock a stamp ticks: its width and hash count.
Geometries = Sequence[tuple[int, int]]


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
        # A trace's JSON config line can hold any type; a float or bool here would run or fail mid-run.
        for name in ("n", "m", "k", "seed", "gsn_limit", "messages_per_client"):
            value = getattr(self, name)
            if (value is not None or name in ("n", "m", "k", "seed")) and type(value) is not int:
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.pr_i, Real) or isinstance(self.pr_i, bool):
            raise ConfigurationError(f"pr_i must be a real number, got {self.pr_i!r}")
        # random.Random takes the whole seed but HashFamily keys blake2b with its low 64 bits.
        if not 0 <= self.seed < 1 << 64:
            raise ConfigurationError(f"seed must lie in [0, 2**64), got {self.seed}")
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


class Events(Sequence[EventRecord]):
    """Columnar events in GSN order: a lazy sequence of ``EventRecord``.

    Row ``i`` of every column belongs to one event.  Indexing or iterating
    builds records on demand; slicing returns another ``Events`` over numpy
    views, so ``log.events[1999:]`` copies nothing, and an integer array
    index returns a copy of its rows.  ``kinds`` holds indices
    into ``KINDS``, and building a record refuses any other code with
    ``ReplayError``; absent sender, receiver and send_gsn are -1.  Row ``i``
    of ``clocks`` is event ``i``'s ``[vector | bloom]``, its first
    ``entities`` counters the vector clock; ``vectors`` and ``blooms`` are
    views of the two parts.
    """

    COLUMNS = ("gsns", "pids", "kinds", "event_indices", "senders", "receivers", "send_gsns")
    __slots__ = COLUMNS + ("clocks", "vectors", "blooms")

    def __init__(self, columns: Sequence[np.ndarray], clocks: np.ndarray, entities: int):
        for name, column in zip(self.COLUMNS, columns, strict=True):
            setattr(self, name, column)
        self.clocks = clocks
        self.vectors = clocks[:, :entities]
        self.blooms = clocks[:, entities:]

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.COLUMNS)

    def __len__(self) -> int:
        return len(self.gsns)

    def _records(self, lo: int, hi: int) -> Iterator[EventRecord]:
        rows = slice(lo, hi)
        _check_kinds(self.gsns[rows], self.kinds[rows])
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
            return Events([column[index] for column in self.columns()], self.clocks[index], self.vectors.shape[1])
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
        return self.vectors.shape[1] == other.vectors.shape[1] and all(
            np.array_equal(a, b) for a, b in zip(self.columns() + (self.clocks,), other.columns() + (other.clocks,))
        )

    def __repr__(self) -> str:
        return f"Events(<{len(self)} events, {self.vectors.shape[1]} entities, m={self.blooms.shape[1]}>)"


class ExecutionLog:
    """A run's configuration echo plus its events ordered by GSN (contiguous from 1).

    The log holds the int32 linkage columns of ``Events.COLUMNS``;
    ``len(log)`` and ``columns()`` read only those.  ``events`` selects every
    row on first access and keeps the result; ``select`` reads chosen rows
    from it, or else from a stamp that keeps only those rows, and refuses a
    GSN that its row does not hold; ``_blocks``
    streams every row from it, or else from the stamp.  A log built
    from ``Events`` (kept as is, views included) is stamped from the start;
    its clock widths must match the configuration.
    """

    __slots__ = ("config", "_columns", "_events")

    def __init__(self, config: ExperimentConfig, events: Events):
        if events.vectors.shape[1] != config.entities or events.blooms.shape[1] != config.m:
            raise ConfigurationError(
                f"clock widths {events.vectors.shape[1]}/{events.blooms.shape[1]} do not match "
                f"the configuration's {config.entities} entities and m={config.m}"
            )
        self.config = config
        self._columns = events.columns()
        self._events: Events | None = events

    def columns(self) -> tuple[np.ndarray, ...]:
        """The linkage columns in ``Events.COLUMNS`` order; reading them never stamps."""
        return self._columns

    def __len__(self) -> int:
        return len(self._columns[0])

    @property
    def events(self) -> Events:
        """Every event with its timestamps: ``select`` of every GSN, kept from the first access on."""
        if self._events is None:
            self._events = self.select(range(1, len(self) + 1))
        return self._events

    def _wanted(self, gsns: Sequence[int]) -> np.ndarray:
        """``gsns`` as int64, checked to be increasing integers in [1, len] that the rows of those GSNs hold."""
        wanted = np.asarray(gsns)
        if wanted.size and not np.issubdtype(wanted.dtype, np.integer):
            raise ValueError(f"gsns must be integers, got {wanted.dtype} values")
        wanted = wanted.astype(np.int64, copy=False)
        if wanted.ndim != 1 or (wanted.size and not (1 <= wanted[0] and wanted[-1] <= len(self))):
            raise ValueError(f"gsns must lie in [1, {len(self)}]")
        if (np.diff(wanted) <= 0).any():
            raise ValueError("gsns must increase")
        gaps = np.flatnonzero(self._columns[0][wanted - 1] != wanted)
        if gaps.size:
            raise ValueError(f"log is not contiguous at gsn {wanted[gaps[0]]}")
        return wanted

    def select(self, gsns: Sequence[int]) -> Events:
        """The events of ``gsns``, checked by ``_wanted``; held rows and columns take one index, a range's a slice."""
        wanted = self._wanted(gsns)
        index = slice(gsns[0] - 1, gsns[-1], max(gsns.step, 1)) if isinstance(gsns, range) and gsns else wanted - 1
        if self._events is not None:
            return self._events[index]
        config = self.config
        clocks = self._stamped_rows(wanted, [(config.m, config.k)], DigestTable(config.seed))
        return Events([column[index] for column in self._columns], clocks, config.entities)

    def _stamped_rows(self, wanted: np.ndarray, geometries: Geometries, digests: DigestTable) -> np.ndarray:
        """The ``_stamp`` rows of increasing GSNs ``wanted`` at ``geometries``; a recorded log's linkage is rebuilt."""
        config, columns = self.config, self._columns
        if self._events is not None:
            columns = _rebuilt_linkage(self)
            _refuse_mismatch(self._columns, columns, "replay derives")
        clocks = np.empty((len(wanted), config.entities + sum(m for m, _ in geometries)), _DTYPE)
        at = 0
        for rows, picked in _stamp(config, columns, digests, wanted, geometries):
            # mode="clip" writes straight into out; the default "raise" first takes into a buffer.
            np.take(rows, picked, axis=0, out=clocks[at : at + len(picked)], mode="clip")
            at += len(picked)
        return clocks

    def _blocks(self) -> Iterator[np.ndarray]:
        """Every row in GSN order, ``_STAMP_CHUNK`` a block: slices of the held rows, else each stamped block's pick."""
        if self._events is not None:
            clocks = self._events.clocks
            return (clocks[lo : lo + _STAMP_CHUNK] for lo in range(0, len(self), _STAMP_CHUNK))
        config, every = self.config, np.arange(1, len(self) + 1)
        stamped = _stamp(config, self._columns, DigestTable(config.seed), every, [(config.m, config.k)])
        return (rows[picked] for rows, picked in stamped)

    def __eq__(self, other: object) -> bool:
        """Equal configs, columns and rows; the rows are compared a block at a time, and neither log keeps them."""
        if not isinstance(other, ExecutionLog):
            return NotImplemented
        pairs = chain(zip(self._columns, other._columns), zip(self._blocks(), other._blocks()))
        return self.config == other.config and all(np.array_equal(a, b) for a, b in pairs)

    def __repr__(self) -> str:
        return f"ExecutionLog({self.config!r}, <{len(self)} events>)"


def _by_process(pids: np.ndarray) -> np.ndarray:
    """Positions of the events grouped by process, in GSN order within each."""
    if not len(pids):
        return np.zeros(0, np.intp)
    lo = pids.min()
    # A stable sort of 8- or 16-bit keys is a radix sort.  pids - lo may
    # wrap in the pids' dtype, but it is exact modulo 2**bits, and the
    # narrowest unsigned dtype that holds the span keeps only those bits.
    narrow = np.min_scalar_type(int(pids.max()) - int(lo))
    return np.argsort((pids - lo).astype(narrow), kind="stable")


def _previous(pids: np.ndarray) -> np.ndarray:
    """The GSN of each event's previous event at its process, 0 for a process's first."""
    # In the events grouped by process, the one before it if that is at its process.
    by_pid = _by_process(pids)
    follows = pids[by_pid[1:]] == pids[by_pid[:-1]]
    previous = np.zeros(len(pids), _DTYPE)
    previous[by_pid[1:][follows]] = by_pid[:-1][follows] + 1
    return previous


def _row_plan(
    pids: np.ndarray, kinds: np.ndarray, send_gsns: np.ndarray, entities: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Row slots for a level-by-level stamp of ``pids``; they depend on the linkage alone.

    An event's level is 1 + the largest of the levels of its process's
    previous event, at a receive of its send, and of the events of the
    blocks of ``_STAMP_CHUNK`` GSNs before its own, so no two events of a
    level are causally related and each block is a run of whole levels.
    ``_stamp`` walks the levels in order and does all reads of a level
    before its writes, so a row's lifetime is counted in levels.  Slot 0
    holds the zero clock, and process ``p`` owns slot ``1 + p``: its rows
    overwrite one another there, since only the process's next event and
    the receives up to that event's level read them.  A send row that a
    receive reads at a later level takes a slot of the pool that follows,
    and gives it back after the level of its last receive.  Returns each
    event's slot; a 3 x events array of what it reads: its level, the slot
    of its process's previous row (0 for none) and the slot a receive
    merges from (0 for other kinds); and the number of slots.

    The level recurrence runs in Python, one block at a time.  Every event
    of the blocks before lies at or below the block's floor, so each block
    starts every process at the floor and compares no event with it, and
    only a receive reads the level of another event.
    """
    count = len(pids)
    is_receive = kinds == RECEIVE
    # 0 stands for "no send": only a receive reads level_of.
    merged = np.where(is_receive, send_gsns, 0)
    level_of = array("i", [0]) * (count + 1)
    floor = 0
    for lo in range(0, count, _STAMP_CHUNK):
        hi = lo + _STAMP_CHUNK
        last_level = [floor] * entities
        for gsn, pid, send in zip(range(lo + 1, hi + 1), pids[lo:hi].tolist(), merged[lo:hi].tolist()):
            level = last_level[pid]
            if send:
                sent = level_of[send]
                if sent > level:
                    level = sent
            level_of[gsn] = last_level[pid] = level + 1
        floor = max(level_of[lo + 1 : hi + 1])
    del merged
    reads = np.zeros((3, count), _DTYPE)
    levels = reads[0]
    levels[:] = np.frombuffer(level_of, _DTYPE)[1:]
    del level_of
    previous = _previous(pids)
    has_previous = previous > 0
    next_level = np.zeros(count, _DTYPE)
    next_level[previous[has_previous] - 1] = levels[has_previous]
    last_read = np.zeros(count, _DTYPE)
    np.maximum.at(last_read, send_gsns[is_receive] - 1, levels[is_receive])
    outlives = (last_read > next_level) & (next_level > 0)
    del next_level
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
    top = 1 + entities
    for op in memoryview(ops):  # an int at a time: a list of all of them is 35 MB at n=1000
        if op < 0:
            free.append(taken[~op])
        elif free:
            taken[op] = free.pop()
        else:
            taken[op] = top
            top += 1
    slots = 1 + pids
    slots[held] = taken
    reads[1, has_previous] = slots[previous[has_previous] - 1]
    reads[2, is_receive] = slots[send_gsns[is_receive] - 1]
    return slots, reads, int(slots.max(initial=0)) + 1


def _tick_rows(
    ticks: np.ndarray, pids: np.ndarray, xs: np.ndarray, digests: DigestTable, geometries: Geometries
) -> None:
    """Fill ``ticks`` with the tick rows of events ``(pids[r], xs[r])``, ``[vector | bloom_1 | ... | bloom_j]``.

    Row ``r`` is 1 at the event's own vector counter, and in the Bloom
    part of each (m, k) of ``geometries`` it counts how many of the k
    hashed indices that ``digests`` gives the event fall on each counter.
    """
    ticks.fill(0)
    local = np.arange(len(pids))
    ticks[local, pids] = 1
    offset = ticks.shape[1] - sum(m for m, _ in geometries)
    for (m, _), indices in zip(geometries, digests.index_rows(pids, xs, geometries)):
        # One add per hash function: an index hit by two of them adds 2.
        for column in indices.T:
            ticks[local, offset + column] += 1
        offset += m


def _merge_and_tick(ticks: np.ndarray, previous: np.ndarray, sends: np.ndarray) -> None:
    """Turn tick rows into timestamps: ``ticks += previous``, its leading rows first maxed with ``sends``.

    Row ``r`` of ``previous`` is the row of the event's process before it,
    the zero row where there is none, and row ``r`` of ``sends`` the row of
    a receive's send: the events that merge lead, and the rest only tick.
    ``previous`` is overwritten.
    """
    merged = previous[: len(sends)]
    np.maximum(merged, sends, out=merged)
    ticks += previous


def _stamp(
    config: ExperimentConfig, columns: Sequence[np.ndarray], digests: DigestTable,
    wanted: np.ndarray, geometries: Geometries,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Apply the clock protocol to a linkage up to the last of the increasing GSNs ``wanted``, level by level.

    ``columns`` are a log's ``Events.COLUMNS``.  Event ``g`` (GSN order,
    from 1) at process ``pids[g-1]`` with event index ``xs[g-1]`` starts
    from its process's last row, or the zero row; a receive first takes the
    pointwise maximum with the row of send ``send_gsns[g-1]``.  Then its
    vector clock ticks, and a Bloom clock per (m, k) of ``geometries``,
    whose ticks come from ``digests``, a table of the configuration's seed
    first grown to cover every event walked.

    The events are walked level by level (see ``_row_plan``) in the slots
    of one working matrix of ``[vector | bloom_1 | ... | bloom_j]`` rows,
    a block of ``_STAMP_CHUNK`` consecutive GSNs, a run of whole levels, at
    a time.  Each block is sorted alone, by level and, within a level,
    receives first, and the sorted block gives where each level starts and
    where its receives end.  A level is
    one batch: gather every event's previous row and the send rows of its
    receives alone, merge and tick them (``_merge_and_tick``, with the send
    rows leading) and scatter the results, so every read of a level comes
    before its writes.  A block gets its tick rows from one gather of
    digests (``_tick_rows``), its levels are stamped into them, and it is
    yielded as ``(rows, picked)``: ``rows[picked]`` are the block's rows of
    the GSNs in ``wanted``, in GSN order, picked through the inverse of the
    block's walk order.  Every block walked is yielded, in GSN order, even
    one that picks none; ``rows`` is overwritten by the next block.
    """
    if digests.seed != config.seed:
        raise ValueError(f"a digest table of seed {digests.seed} cannot stamp a run of seed {config.seed}")
    count = int(wanted[-1]) if len(wanted) else 0
    _, pids, kinds, xs, _, _, send_gsns = (column[:count] for column in columns)
    entities = config.entities
    digests.cover(pids, xs)
    targets, reads, total = _row_plan(pids, kinds, send_gsns, entities)
    clocks = np.zeros((total, entities + sum(m for m, _ in geometries)), _DTYPE)
    tick_rows = np.empty((min(count, _STAMP_CHUNK), clocks.shape[1]), _DTYPE)
    # Block b, from GSN b * _STAMP_CHUNK + 1 on, picks wanted[cuts[b] : cuts[b + 1]].
    cuts = np.searchsorted(wanted, np.arange(0, count + _STAMP_CHUNK, _STAMP_CHUNK), "right")
    for lo, cut, next_cut in zip(range(0, count, _STAMP_CHUNK), cuts, cuts[1:]):
        hi = min(lo + _STAMP_CHUNK, count)
        # The block's first event lies on its lowest level (see _row_plan).
        # Twice the level above that, plus 1 for all but a receive, orders
        # the block by level and each level's receives first; the key stays
        # below 2 * _STAMP_CHUNK, so a stable sort of it as uint16 is a radix sort.
        keys = 2 * (reads[0, lo:hi] - reads[0, lo]) + (kinds[lo:hi] != RECEIVE)
        order = np.argsort(keys.astype(np.uint16), kind="stable")
        positions = lo + order
        previous, sources = reads[1:, positions].astype(np.intp)
        written = targets[positions].astype(np.intp)
        # The block's level i spans edges[2i] to edges[2i + 2]; its receives end at edges[2i + 1].
        edges = np.searchsorted(keys[order], np.arange(keys.max() + 3)).tolist()
        ticks = tick_rows[: hi - lo]
        _tick_rows(ticks, pids[positions], xs[positions], digests, geometries)
        for start, receive_end, end in zip(edges[::2], edges[1::2], edges[2::2]):
            stamped = ticks[start:end]
            sends = clocks.take(sources[start:receive_end], axis=0)
            _merge_and_tick(stamped, clocks.take(previous[start:end], axis=0), sends)
            clocks[written[start:end]] = stamped
        inverse = np.empty_like(order)
        inverse[order] = np.arange(hi - lo)
        yield ticks, inverse[wanted[cut:next_cut] - 1 - lo]


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
    # A log of linkage columns alone: its clocks are stamped when read.
    log = ExecutionLog.__new__(ExecutionLog)
    log.config, log._columns, log._events = config, (gsns, pids, kinds, xs, senders, receivers, send_gsns), None
    return log


def run(config: ExperimentConfig) -> ExecutionLog:
    """The unstamped log of the configuration's run; its draws all come from one ``random.Random(seed)``."""
    linkage = _Linkage()
    _RUNNERS[config.topology](config, random.Random(config.seed), linkage)
    return _linkage_log(config, linkage.pids, linkage.kinds, linkage.links)


def _below(getrandbits: Callable[[int], int], bound: int) -> int:
    """A uniform draw from [0, ``bound``): the words and value of ``random.Random.randrange(bound)``.

    ``randrange`` draws ``bound.bit_length()`` bits until the value falls
    below ``bound``; this is that loop without the method frames that
    ``randrange`` passes through on the way to it.
    """
    bits = bound.bit_length()
    value = getrandbits(bits)
    while value >= bound:
        value = getrandbits(bits)
    return value


def _run_complete(config: ExperimentConfig, rng: random.Random, linkage: _Linkage) -> None:
    """Decentralized complete-graph run, terminating when the GSN hits the budget.

    Scheduler steps that draw a receive for a process with an empty pending
    pool execute nothing; the GSN only advances on executed events.  The
    loop appends to the linkage's lists and counts GSNs itself rather than
    making a ``record`` call per event, and it draws below its two fixed
    bounds, n for the process and n - 1 for a destination, by ``_below``'s
    loop written out in place; a pool draw, whose bound varies, calls
    ``_below``.
    """
    n = config.n
    pending: list[list[int]] = [[] for _ in range(n)]
    pr_i = config.pr_i
    send_cut = pr_i + (1.0 - pr_i) / 2.0
    getrandbits, uniform = rng.getrandbits, rng.random
    add_pid, add_kind, add_link = linkage.pids.append, linkage.kinds.append, linkage.links.append
    gsn, budget = len(linkage.pids), config.event_budget
    others = n - 1
    pid_bits, other_bits = n.bit_length(), others.bit_length()

    while gsn < budget:
        pid = getrandbits(pid_bits)
        while pid >= n:
            pid = getrandbits(pid_bits)
        u = uniform()
        if u < pr_i:
            kind, link = INTERNAL, _ABSENT
        elif u < send_cut:
            link = getrandbits(other_bits)
            while link >= others:
                link = getrandbits(other_bits)
            if link >= pid:
                link += 1
            kind = SEND
            pending[link].append(gsn + 1)
        elif pending[pid]:
            pool = pending[pid]
            kind, link = RECEIVE, pool.pop(_below(getrandbits, len(pool)))
        else:
            # A receive draw with an empty pool yields the step.
            continue
        add_pid(pid)
        add_kind(kind)
        add_link(link)
        gsn += 1


def _run_star(config: ExperimentConfig, rng: random.Random, linkage: _Linkage) -> None:
    """Client-server run: each client plays ``rounds_per_client`` request/reply rounds.

    The server is entity ``n`` and owns the single shared clock pair.  The
    scheduler picks uniformly among clients that can act and, when requests
    are queued, the server; one server slot handles a uniformly chosen
    pending request atomically (receive, then reply send).  The clients
    that can act are kept in pid order as the run goes, not rebuilt per
    step: a client leaves the list when it sends a request, comes back when
    the server replies, and leaves for good after receiving its last reply.
    The ready list is that list with the server after it.
    """
    n = config.n
    server = n
    remaining = [config.rounds_per_client] * n
    replies: list[int | None] = [None] * n
    requests: list[int] = []
    clients = list(range(n))
    getrandbits = rng.getrandbits

    while clients or requests:
        pick = _below(getrandbits, len(clients) + (1 if requests else 0))
        if pick == len(clients):
            request = requests.pop(_below(getrandbits, len(requests)))
            client = linkage.pids[request - 1]
            linkage.record(server, RECEIVE, request)
            replies[client] = linkage.record(server, SEND, client)
            insort(clients, client)
        elif replies[clients[pick]] is None:
            requests.append(linkage.record(clients.pop(pick), SEND, server))
        else:
            actor = clients[pick]
            linkage.record(actor, RECEIVE, replies[actor])
            replies[actor] = None
            remaining[actor] -= 1
            if not remaining[actor]:
                del clients[pick]


def _run_broadcast(config: ExperimentConfig, rng: random.Random, linkage: _Linkage) -> None:
    """Broadcast run: every process sends once to all others, then drains its pool.

    The log holds exactly ``n`` send events and ``n*(n-1)`` receive events;
    a process always broadcasts before consuming any incoming message.  The
    processes that can act are kept in pid order as the run goes: all of
    them until the first broadcast, and after each broadcast all but the
    sender if its own pool is empty.  A receive that empties its process's
    pool drops that process.
    """
    n = config.n
    pending: list[list[int]] = [[] for _ in range(n)]
    sent = [False] * n
    ready = list(range(n))
    getrandbits = rng.getrandbits

    while ready:
        pick = _below(getrandbits, len(ready))
        pid = ready[pick]
        if not sent[pid]:
            sent[pid] = True
            message = linkage.record(pid, SEND)
            for other in range(n):
                if other != pid:
                    pending[other].append(message)
            # Every other process now has this message pending.
            ready = list(range(n))
            if not pending[pid]:
                del ready[pid]
        else:
            pool = pending[pid]
            linkage.record(pid, RECEIVE, pool.pop(_below(getrandbits, len(pool))))
            if not pool:
                del ready[pick]


_RUNNERS = {"complete": _run_complete, "star": _run_star, "broadcast": _run_broadcast}


def _refuse(bad: np.ndarray, message: Callable[[int], str]) -> None:
    """Raise ``ReplayError`` with the message of the first true row of ``bad``, if there is one."""
    if bad.any():
        raise ReplayError(message(int(np.argmax(bad))))


def _check_kinds(gsns: Sequence[int], kinds: np.ndarray) -> None:
    """Refuse a kind code that does not index ``KINDS``, naming its event's GSN from ``gsns``."""
    _refuse((kinds < 0) | (kinds >= len(KINDS)), lambda r: f"gsn {gsns[r]}: kind {kinds[r]} outside [0, {len(KINDS)})")


def _gathered(clocks: np.ndarray, gsns: np.ndarray) -> np.ndarray:
    """A copy of the rows of ``gsns`` (from 1) in ``clocks``, with a zero row for GSN 0."""
    # GSN 0 reads the last row, then zeroes it.  Fancy indexing, not take:
    # take copies a non-contiguous array whole, as a loaded log's clocks are.
    rows = clocks[gsns - 1]
    rows[gsns == 0] = 0
    return rows


def _unmatched_rows(config: ExperimentConfig, clocks: np.ndarray, columns: Sequence[np.ndarray]) -> np.ndarray:
    """Per event, whether its row of ``clocks`` differs from the merge and tick of the recorded rows it reads.

    ``columns`` are the rebuilt linkage, whose guards have passed.  Event
    ``g``'s expected row is its tick row plus the pointwise maximum of the
    recorded rows of its process's previous event and, at a receive, of its
    send, each the zero row where there is none: the step ``_stamp`` takes.
    Those rows have smaller GSNs, so the first event that fails is the
    first whose recorded row differs from what ``_stamp`` gives the
    linkage.  Each block of ``_STAMP_CHUNK`` events is built in one batch.
    """
    _, pids, kinds, xs, _, _, send_gsns = columns
    count = len(pids)
    geometries = [(config.m, config.k)]
    digests = DigestTable(config.seed)
    digests.cover(pids, xs)
    previous = _previous(pids)
    sources = np.where(kinds == RECEIVE, send_gsns, 0)
    unmatched = np.zeros(count, bool)
    expected = np.empty((min(count, _STAMP_CHUNK), clocks.shape[1]), _DTYPE)
    for lo in range(0, count, _STAMP_CHUNK):
        hi = min(lo + _STAMP_CHUNK, count)
        ticks = expected[: hi - lo]
        _tick_rows(ticks, pids[lo:hi], xs[lo:hi], digests, geometries)
        _merge_and_tick(ticks, _gathered(clocks, previous[lo:hi]), _gathered(clocks, sources[lo:hi]))
        unmatched[lo:hi] = (ticks != clocks[lo:hi]).any(axis=1)
    return unmatched


def _check_links(columns: Sequence[np.ndarray], entities: int) -> None:
    """Refuse a linkage whose kinds, pids, receivers or send links no run could record (see ``replay_timestamps``)."""
    _, pids, kinds, _, _, receivers, send_gsns = columns
    _check_kinds(range(1, len(kinds) + 1), kinds)
    _refuse((pids < 0) | (pids >= entities), lambda r: f"gsn {r + 1}: pid {pids[r]} outside [0, {entities})")
    _refuse(
        (kinds == SEND) & ((receivers < _ABSENT) | (receivers >= entities)),
        lambda r: f"gsn {r + 1}: send to receiver {receivers[r]} outside [-1, {entities})",
    )
    at = np.flatnonzero(kinds == RECEIVE)
    sent = send_gsns[at].astype(np.int64)
    # The receive at row i has GSN i + 1, so its send's GSN lies in [1, i].
    known = (sent >= 1) & (sent <= at)
    known[known] = kinds[sent[known] - 1] == SEND
    _refuse(~known, lambda r: f"gsn {at[r] + 1}: receive links to unknown send gsn {_optional(sent[r])}")
    _refuse(
        pids[sent - 1] == pids[at],
        lambda r: f"gsn {at[r] + 1}: process {pids[at[r]]} receives its own send gsn {sent[r]}",
    )
    addressed = receivers[sent - 1]
    _refuse(
        (addressed >= 0) & (addressed != pids[at]),
        lambda r: f"gsn {at[r] + 1}: process {pids[at[r]]} receives send gsn {sent[r]}, addressed to {addressed[r]}",
    )
    repeated = np.ones(len(at), bool)
    repeated[np.unique(sent * entities + pids[at], return_index=True)[1]] = False
    _refuse(repeated, lambda r: f"gsn {at[r] + 1}: process {pids[at[r]]} receives send gsn {sent[r]} again")


def _rebuilt_linkage(log: ExecutionLog) -> tuple[np.ndarray, ...]:
    """The columns ``_linkage_log`` derives from ``log``'s linkage, once ``_check_links`` has passed it.

    A send's link is read back as its receiver and a receive's as its send GSN.
    """
    config, recorded = log.config, log.columns()
    _check_links(recorded, config.entities)
    _, pids, kinds, _, _, receivers, send_gsns = recorded
    return _linkage_log(config, pids, kinds, np.where(kinds == SEND, receivers, send_gsns)).columns()


def _refuse_mismatch(
    recorded: Sequence[np.ndarray], expected: Sequence[np.ndarray], source: str, unmatched: np.ndarray | None = None
) -> None:
    """Raise ``ReplayError`` at the first GSN where a column differs from ``expected`` or ``unmatched`` flags the row.

    A column's message gives both values, an absent one as None, the
    expected one after ``source``; a column that differs is named before
    a flagged row of the same GSN.
    """
    flags = [held != derived for held, derived in zip(recorded, expected, strict=True)]
    differs = np.stack(flags if unmatched is None else flags + [unmatched])
    if differs.any():
        row = int(np.argmax(differs.any(axis=0)))
        field = int(np.argmax(differs[:, row]))
        if field == len(flags):
            raise ReplayError(f"gsn {row + 1}: replayed timestamps differ from the recorded ones")
        held, derived = (_optional(int(columns[field][row])) for columns in (recorded, expected))
        raise ReplayError(f"gsn {row + 1}: column {Events.COLUMNS[field]} holds {held}, {source} {derived}")


def replay_timestamps(log: ExecutionLog) -> None:
    """Rebuild the log from its linkage alone and check that the recorded one is consistent with it.

    Replay shows that every column and row follows from the recorded
    linkage by the protocol, not that the linkage is the one the
    configuration's seed records: a send that no receive reads may name any
    receiver in range.  ``bloomclock trace --load`` runs the configuration
    again for that, and reports through the same ``_refuse_mismatch``.

    ``_rebuilt_linkage`` guards the linkage first: every kind is one of
    ``KINDS``, pids lie in range, each send's receiver lies in
    [-1, entities), and each receive links to an earlier send of another
    process, happens at its message's destination, if any, and is the only
    receive of that send at its process.  Then it rebuilds every column
    with ``_linkage_log``, and ``_unmatched_rows`` checks every recorded
    row, if the log holds rows, against the two recorded rows it merges.
    A log that holds none, as from ``run``, has nothing recorded beyond
    its columns, so nothing is stamped for it.  ``ReplayError`` names the
    GSN of the first failed guard, or, from ``_refuse_mismatch``, the first
    GSN where anything differs.
    """
    rebuilt = _rebuilt_linkage(log)
    unmatched = None if log._events is None else _unmatched_rows(log.config, log._events.clocks, rebuilt)
    _refuse_mismatch(log.columns(), rebuilt, "replay derives", unmatched)
