"""A 2-choice, 4-slot-bucket cuckoo hash table (DPDK ``rte_hash`` style).

The NAT configuration is stateful and, like the paper's, keeps its flow
mappings in a cuckoo hash table: two candidate buckets per key, four
slots per bucket, displacement on insertion.  The table's byte footprint
feeds the cost model (more flows -> more cache pressure).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

BUCKET_SLOTS = 4
MAX_DISPLACEMENTS = 64
SLOT_BYTES = 16  # key signature + value per slot


class CuckooFullError(RuntimeError):
    """Insertion failed after the displacement budget (table too full)."""


class CuckooHashTable:
    """Open-addressed cuckoo hash with two buckets of four slots per key.

    Slots live in two flat lists: bucket ``b`` owns ``[4b, 4b + 4)`` of
    ``_keys`` and ``_values``.
    """

    def __init__(self, n_buckets: int = 16384):
        if n_buckets < 2 or n_buckets & (n_buckets - 1):
            raise ValueError("bucket count must be a power of two >= 2")
        self.n_buckets = n_buckets
        self._keys: List[Optional[Any]] = [None] * (n_buckets * BUCKET_SLOTS)
        self._values: List[Any] = [None] * (n_buckets * BUCKET_SLOTS)
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

    def _find(self, key) -> int:
        """The slot index holding ``key``, or -1.  At most two buckets read."""
        keys = self._keys
        for bucket in (self._hash1(key), self._hash2(key)):
            base = bucket * BUCKET_SLOTS
            for i in range(base, base + BUCKET_SLOTS):
                if keys[i] == key:
                    return i
        return -1

    # -- operations ------------------------------------------------------------

    def lookup(self, key) -> Optional[Any]:
        """Return the value for ``key`` or None."""
        i = self._find(key)
        return None if i < 0 else self._values[i]

    def __contains__(self, key) -> bool:
        return self.lookup(key) is not None

    def insert(self, key, value) -> None:
        """Insert or update; displaces entries cuckoo-style when full."""
        keys, values = self._keys, self._values
        i = self._find(key)
        if i >= 0:
            values[i] = value
            return
        bucket = self._hash1(key)
        for attempt in range(MAX_DISPLACEMENTS):
            base = bucket * BUCKET_SLOTS
            for i in range(base, base + BUCKET_SLOTS):
                if keys[i] is None:
                    keys[i] = key
                    values[i] = value
                    self.entries += 1
                    return
            # Bucket full: displace one occupant to its alternate bucket
            # and retry there.  The victim slot rotates with the kick
            # depth -- always evicting slot 0 lets a chain cycle between
            # the same two buckets and strands reachable capacity.
            victim = base + attempt % BUCKET_SLOTS
            key, keys[victim] = keys[victim], key
            value, values[victim] = values[victim], value
            bucket = self._alt_bucket(key, bucket)
        raise CuckooFullError("cuckoo displacement budget exhausted")

    def items(self) -> Iterator[Tuple[Any, Any]]:
        values = self._values
        for i, key in enumerate(self._keys):
            if key is not None:
                yield key, values[i]

    @property
    def capacity(self) -> int:
        return self.n_buckets * BUCKET_SLOTS

    def footprint_bytes(self) -> int:
        return self.n_buckets * BUCKET_SLOTS * SLOT_BYTES
