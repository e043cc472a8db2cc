"""A frozen copy of the cuckoo hash table with nested per-bucket slot lists.

``test_cuckoo.TestFlatSlotsDifferential`` drives this table and
:class:`repro.click.elements.cuckoo.CuckooHashTable` with the same
operation sequences and requires identical return values, entry counts,
``items()`` order and ``CuckooFullError`` points.  Do not edit it to
follow later changes to the shipped table: it is the reference the flat
slot layout is held to.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

BUCKET_SLOTS = 4
MAX_DISPLACEMENTS = 64


class CuckooFullError(RuntimeError):
    """Insertion failed after the displacement budget (table too full)."""


class CuckooHashTable:
    """Open-addressed cuckoo hash with two buckets of four slots per key."""

    def __init__(self, n_buckets: int = 16384):
        if n_buckets < 2 or n_buckets & (n_buckets - 1):
            raise ValueError("bucket count must be a power of two >= 2")
        self.n_buckets = n_buckets
        self._keys: List[List[Optional[Any]]] = [
            [None] * BUCKET_SLOTS for _ in range(n_buckets)
        ]
        self._values: List[List[Any]] = [
            [None] * BUCKET_SLOTS for _ in range(n_buckets)
        ]
        self.entries = 0

    # -- hashing -------------------------------------------------------------

    def _hash1(self, key) -> int:
        return hash(key) & (self.n_buckets - 1)

    def _hash2(self, key) -> int:
        h = hash(key)
        h ^= (h >> 17) | 0x5BD1
        return (h * 0x27D4EB2F) % self.n_buckets

    def _alt_bucket(self, key, bucket: int) -> int:
        h1 = self._hash1(key)
        return self._hash2(key) if bucket == h1 else h1

    # -- operations ------------------------------------------------------------

    def lookup(self, key) -> Optional[Any]:
        """Return the value for ``key`` or None.  At most two buckets read."""
        for bucket in (self._hash1(key), self._hash2(key)):
            slots = self._keys[bucket]
            for i in range(BUCKET_SLOTS):
                if slots[i] == key:
                    return self._values[bucket][i]
        return None

    def __contains__(self, key) -> bool:
        return self.lookup(key) is not None

    def insert(self, key, value) -> None:
        """Insert or update; displaces entries cuckoo-style when full."""
        # Update in place if present.
        for bucket in (self._hash1(key), self._hash2(key)):
            slots = self._keys[bucket]
            for i in range(BUCKET_SLOTS):
                if slots[i] == key:
                    self._values[bucket][i] = value
                    return
        bucket = self._hash1(key)
        for attempt in range(MAX_DISPLACEMENTS):
            slots = self._keys[bucket]
            for i in range(BUCKET_SLOTS):
                if slots[i] is None:
                    slots[i] = key
                    self._values[bucket][i] = value
                    self.entries += 1
                    return
            # Bucket full: displace one occupant to its alternate bucket
            # and retry there.  The victim slot rotates with the kick
            # depth -- always evicting slot 0 lets a chain cycle between
            # the same two buckets and strands reachable capacity.
            victim = attempt % BUCKET_SLOTS
            victim_key = slots[victim]
            victim_value = self._values[bucket][victim]
            slots[victim] = key
            self._values[bucket][victim] = value
            key, value = victim_key, victim_value
            bucket = self._alt_bucket(key, bucket)
        raise CuckooFullError("cuckoo displacement budget exhausted")

    def items(self) -> Iterator[Tuple[Any, Any]]:
        for bucket in range(self.n_buckets):
            for i in range(BUCKET_SLOTS):
                if self._keys[bucket][i] is not None:
                    yield self._keys[bucket][i], self._values[bucket][i]
