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
from collections.abc import Iterable
from dataclasses import dataclass
from hashlib import blake2b
from typing import TypeVar

import numpy as np

from .errors import ConfigurationError

ProcessId = int
EventIndex = int

# A hashed (pid, x) pair: two little-endian signed 64-bit integers.
_PAIR = struct.Struct("<qq")


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

    ``indices`` is the scalar reference.  ``index_rows`` derives the same
    indices for many events from one digest each, in uint64 numpy
    arithmetic.  It relies on ``(h1 + i*h2) mod m == (h1 mod m + i*(h2 mod
    m)) mod m``: reducing each half mod m first keeps every term below
    ``k*m``, so nothing wraps, whereas uint64 arithmetic on the raw halves
    would.
    """

    k: int
    m: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"need at least one hash function, got k={self.k}")
        if self.m < 1:
            raise ConfigurationError(f"clock width must be at least 1, got m={self.m}")

    def _key(self) -> bytes:
        return (self.seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")

    def indices(self, pid: ProcessId, x: EventIndex) -> tuple[int, ...]:
        """Return the ``k`` counter indices to increment for event ``x`` at ``pid``.

        Duplicates are possible and deliberate: a doubly-hit index is
        incremented twice, so one tick always adds exactly ``k`` to the
        counter sum.
        """
        digest = blake2b(_PAIR.pack(pid, x), digest_size=16, key=self._key()).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        m = self.m
        return tuple((h1 + i * h2) % m for i in range(self.k))

    def index_rows(self, pids: Iterable[ProcessId], xs: Iterable[EventIndex]) -> np.ndarray:
        """Indices of many events: row ``r`` of the ``(events, k)`` uint64 array is ``indices(pids[r], xs[r])``."""
        # A copy of a keyed hasher skips the key block that a keyed
        # constructor compresses on every call.
        keyed = blake2b(digest_size=16, key=self._key())
        pack = _PAIR.pack
        digests = []
        for pid, x in zip(pids, xs):
            h = keyed.copy()
            h.update(pack(pid, x))
            digests.append(h.digest())
        halves = np.frombuffer(b"".join(digests), dtype="<u8").reshape(-1, 2)
        m = np.uint64(self.m)
        h1 = halves[:, 0] % m
        h2 = (halves[:, 1] | np.uint64(1)) % m
        return (h1[:, None] + np.arange(self.k, dtype=np.uint64) * h2[:, None]) % m


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
