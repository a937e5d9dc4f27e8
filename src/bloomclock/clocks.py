"""Logical clocks for causality testing.

Two timestamp families live here.  The vector clock keeps one counter per
process and characterises Lamport's happened-before relation exactly, so it
serves as the ground-truth oracle.  The Bloom clock keeps ``m`` counters
(typically ``m < n``) and updates them through ``k`` hash-derived increments
per event plus pointwise-max merges, trading exactness for space: its
dominance test never misses a true causal pair but may report false
positives.

Clock values are immutable snapshots; every operation returns a new value,
so snapshots can be stored in event logs and shared freely across threads.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from hashlib import blake2b
from typing import TypeVar

import numpy as np

from .errors import ConfigurationError

ProcessId = int
EventIndex = int

# A hashed (pid, x) pair: two little-endian signed 64-bit integers.
_PAIR = struct.Struct("<qq")
# One packed pair as a 16-byte string, to read a buffer of them back pair by pair.
_PACKED_PAIR = struct.Struct(f"{_PAIR.size}s")
# DigestTable hashes the pairs it lacks this many at a time.
_HASH_CHUNK = 512


@dataclass(frozen=True)
class HashFamily:
    """``k`` hash functions over (process id, event index), each mapping into [0, m).

    Indices come from the double-hashing construction ``(h1 + i*h2) mod m``
    (Kirsch & Mitzenmacher, "Less hashing, same performance", 2006) where
    ``h1`` and ``h2`` are the two halves of a 16-byte blake2b digest of the
    pair, keyed with the seed, and ``h2`` is forced odd.  The derivation is
    a pure function of ``(seed, pid, x)``: identical inputs always yield
    identical index sequences, which is what makes whole simulations
    reproducible.

    ``indices`` is the scalar reference.  ``DigestTable`` holds the same
    digests for many events, so a simulation hashes each pair once.
    """

    k: int
    m: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"need at least one hash function, got k={self.k}")
        if self.m < 1:
            raise ConfigurationError(f"clock width must be at least 1, got m={self.m}")

    def indices(self, pid: ProcessId, x: EventIndex) -> tuple[int, ...]:
        """Return the ``k`` counter indices to increment for event ``x`` at ``pid``.

        Duplicates are possible and deliberate: a doubly-hit index is
        incremented twice, so one tick always adds exactly ``k`` to the
        counter sum.
        """
        digest = blake2b(_PAIR.pack(pid, x), digest_size=16, key=_key(self.seed)).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        m = self.m
        return tuple((h1 + i * h2) % m for i in range(self.k))


def _key(seed: int) -> bytes:
    """The blake2b key of a seed: its low 64 bits, little-endian."""
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


class DigestTable:
    """The digests behind ``HashFamily.indices`` for one seed, each (pid, x) hashed once.

    A digest depends on the seed, pid and x, not on m or k, so one table
    serves every clock width and hash count of its seed.  It holds the two
    uint64 halves ``(h1, h2 | 1)`` of x = 1..caps[pid] for each pid, laid
    out pid by pid: a pid's run starts at the sum of the caps before it, so
    memory follows the events, and a star server with a hundred times a
    client's events costs no more per event.  ``cover`` grows the table to
    hold given pairs and hashes only the ones it lacks, ``_HASH_CHUNK`` at
    a time.  ``index_rows`` gathers halves once and reduces them mod each
    m.  That relies on ``(h1 + i*h2) mod m == (h1 mod m + i*(h2 mod m)) mod m``:
    reducing each half first keeps every term below ``k*m``, so nothing
    wraps, whereas uint64 arithmetic on the raw halves would.

    Each pair costs a copy of the keyed hasher, one update and one digest:
    two BLAKE2b compressions, the key block and the pair.  Sharing a pid's
    compressed key block across its pairs would save one, but CPython's
    bundled BLAKE2b (timed on 3.11) buffers up to two blocks and compresses
    the key block only at the digest, so a hasher fed a pid's 8 bytes
    first digests no faster.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._hasher = blake2b(digest_size=16, key=_key(seed))
        self._caps = np.zeros(0, np.int64)
        self._starts = np.zeros(0, np.int64)
        self._halves = np.empty((0, 2), np.uint64)

    def __len__(self) -> int:
        """The number of pairs hashed so far."""
        return len(self._halves)

    def cover(self, pids: np.ndarray, xs: np.ndarray) -> None:
        """Grow the table to hold every ``(pids[r], xs[r])``: pids from 0, event indices from 1."""
        if not len(pids):
            return
        old = np.zeros(max(len(self._caps), int(pids.max()) + 1), np.int64)
        old[: len(self._caps)] = self._caps
        caps = old.copy()
        np.maximum.at(caps, pids, np.asarray(xs, np.int64))
        grow = caps - old
        added = int(grow.sum())
        if not added:
            return
        starts = np.cumsum(caps) - caps
        halves = np.empty((int(caps.sum()), 2), np.uint64)
        for start, old_start, cap in zip(starts.tolist(), self._starts.tolist(), self._caps.tolist()):
            halves[start : start + cap] = self._halves[old_start : old_start + cap]
        # Pid p gains x = old[p] + 1 .. caps[p], in the rows after its old run.
        added_pids = np.repeat(np.arange(len(caps)), grow)
        rank = np.arange(added) - np.repeat(np.cumsum(grow) - grow, grow)
        rows = starts[added_pids] + old[added_pids] + rank
        added_xs = old[added_pids] + 1 + rank
        for lo in range(0, added, _HASH_CHUNK):
            hi = lo + _HASH_CHUNK
            halves[rows[lo:hi]] = self._hash(added_pids[lo:hi], added_xs[lo:hi])
        self._caps, self._starts, self._halves = caps, starts, halves

    def _hash(self, pids: np.ndarray, xs: np.ndarray) -> np.ndarray:
        # Each (pid, x) as _PAIR packs it, all in one buffer.
        packed = np.empty((len(pids), 2), "<i8")
        packed[:, 0] = pids
        packed[:, 1] = xs
        # A copy of a keyed hasher skips the key block that a keyed
        # constructor compresses on every call.
        copy = self._hasher.copy
        digests: list[bytes] = []
        add = digests.append
        for (pair,) in _PACKED_PAIR.iter_unpack(packed.tobytes()):
            h = copy()
            h.update(pair)
            add(h.digest())
        return np.frombuffer(b"".join(digests), "<u8").reshape(-1, 2) | np.array([0, 1], np.uint64)

    def index_rows(self, pids: np.ndarray, xs: np.ndarray, geometries: Sequence[tuple[int, int]]) -> Iterator:
        """Per (m, k) of ``geometries``, the ``(events, k)`` uint64 array whose row ``r`` is
        ``HashFamily(k, m, seed).indices(pids[r], xs[r])``; every pair must have been covered.
        """
        halves = self._halves[self._starts[pids] + xs - 1]
        for m, k in geometries:
            width = np.uint64(m)
            h1 = halves[:, 0] % width
            h2 = halves[:, 1] % width
            yield (h1[:, None] + np.arange(k, dtype=np.uint64) * h2[:, None]) % width


_C = TypeVar("_C", bound="_Counters")


@dataclass(frozen=True)
class _Counters:
    """An immutable counter tuple with the width check, merge and order both clock types share."""

    counters: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.counters)

    def _check_width(self, other: _Counters) -> None:
        if len(self.counters) != len(other.counters):
            raise ConfigurationError(
                f"clock width mismatch: {len(self.counters)} vs {len(other.counters)}"
            )

    def merge(self: _C, other: _C) -> _C:
        """Pointwise maximum, as executed before the tick at a receive event."""
        self._check_width(other)
        return type(self)(tuple(map(max, self.counters, other.counters)))

    def leq(self: _C, other: _C) -> bool:
        """True when every counter of ``self`` is <= the matching counter of ``other``."""
        self._check_width(other)
        return all(a <= b for a, b in zip(self.counters, other.counters))


@dataclass(frozen=True)
class BloomClock(_Counters):
    """Width-``m`` counting timestamp: the probabilistic causality clock.

    ``leq`` implements the causality test: ``B_y.leq(B_z)`` declares
    ``y -> z``.  The declaration is complete (no false negatives) but not
    sound (concurrent events may still satisfy it).
    """

    @classmethod
    def zero(cls, m: int) -> BloomClock:
        if m < 1:
            raise ConfigurationError(f"clock width must be at least 1, got m={m}")
        return cls((0,) * m)

    @property
    def total(self) -> int:
        """Sum of all counters; grows by exactly ``k`` per tick."""
        return sum(self.counters)

    def tick(self, family: HashFamily, pid: ProcessId, x: EventIndex) -> BloomClock:
        """Apply the local tick for event ``x`` at ``pid``: increment the k derived indices."""
        if family.m != len(self.counters):
            raise ConfigurationError(
                f"clock width mismatch: family maps into [0, {family.m}), clock has {len(self.counters)}"
            )
        counters = list(self.counters)
        for i in family.indices(pid, x):
            counters[i] += 1
        return BloomClock(tuple(counters))


@dataclass(frozen=True)
class VectorClock(_Counters):
    """Width-``n`` exact timestamp: ``V_y < V_z`` iff ``y`` happened before ``z``."""

    @classmethod
    def zero(cls, n: int) -> VectorClock:
        if n < 1:
            raise ConfigurationError(f"vector clock needs at least 1 component, got n={n}")
        return cls((0,) * n)

    def tick(self, pid: ProcessId) -> VectorClock:
        """Increment the owning process's component by one."""
        if not 0 <= pid < len(self.counters):
            raise ConfigurationError(f"process id {pid} outside [0, {len(self.counters)})")
        counters = list(self.counters)
        counters[pid] += 1
        return VectorClock(tuple(counters))

    def happened_before(self, other: VectorClock) -> bool:
        """Strict componentwise order: ``self <= other`` and ``self != other``."""
        return self.leq(other) and self.counters != other.counters

    def concurrent_with(self, other: VectorClock) -> bool:
        return not self.leq(other) and not other.leq(self)
