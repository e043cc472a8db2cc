"""Set-associative caches with LRU replacement, plus DDIO-aware LLC fills.

The model is a classic inclusive three-level hierarchy.  The one extension
needed for this paper is Intel DDIO: NIC DMA writes allocate directly into
the last-level cache, but only into a limited number of ways per set, so
heavy I/O both *warms* the LLC (packet data arrives cached) and *pressures*
it (DDIO fills evict application lines from those ways).

Each set is an ordered mapping from line address to its DDIO flag, kept in
LRU-first order (lookups promote to the MRU end, inserts append).  The
mapping gives O(1) hit/miss checks on the simulator's hottest path while
reproducing exactly the hit, promotion, and eviction decisions of the
original list-scan implementation: iteration order of the mapping is the
same LRU-first order the list kept, so the "first DDIO line" victim and
the plain-LRU victim are identical line addresses.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Levels ``CacheHierarchy.lookup`` reports (also its class attributes).
L1, L2, LLC, DRAM = range(4)


class Cache:
    """One set-associative, write-allocate, LRU cache level.

    Tags are full line addresses (``addr // line_size``); each set maps
    line address -> DDIO flag, ordered least-recently-used first.
    """

    __slots__ = ("name", "size", "assoc", "line_size", "n_sets", "_sets",
                 "_ddio_count")

    def __init__(self, name: str, size: int, assoc: int, line_size: int = 64):
        if size % (assoc * line_size):
            raise ValueError("cache size must be a multiple of assoc * line_size")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size // (assoc * line_size)
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.n_sets)]
        # Per-set count of DDIO-allocated lines (avoids rescanning flags).
        self._ddio_count: List[int] = [0] * self.n_sets

    def access(self, line_addr: int) -> bool:
        """Look up a line; on a hit, promote it to MRU.  Returns hit/miss."""
        cset = self._sets[line_addr % self.n_sets]
        flag = cset.pop(line_addr, None)
        if flag is None:
            return False
        cset[line_addr] = flag  # re-insert at the MRU end
        return True

    def fill(self, line_addr: int, ddio: bool = False,
             ddio_ways: Optional[int] = None) -> Optional[int]:
        """Insert a line, evicting LRU if the set is full.

        With ``ddio=True`` and ``ddio_ways`` set, the line may only displace
        other DDIO lines once the DDIO way quota for the set is reached --
        Intel's way-restricted I/O allocation.  Returns the evicted line
        address, if any.
        """
        idx = line_addr % self.n_sets
        cset = self._sets[idx]
        if line_addr in cset:
            return None
        evicted = None
        if ddio and ddio_ways is not None and self._ddio_count[idx] >= ddio_ways:
            # Evict the LRU DDIO line rather than an application line.
            for line, is_ddio in cset.items():
                if is_ddio:
                    evicted = line
                    break
            if evicted is not None:
                del cset[evicted]
                self._ddio_count[idx] -= 1
        if evicted is None and len(cset) >= self.assoc:
            evicted = next(iter(cset))  # LRU-first order
            if cset.pop(evicted):
                self._ddio_count[idx] -= 1
        cset[line_addr] = ddio
        if ddio:
            self._ddio_count[idx] += 1
        return evicted

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present (used for DMA coherence)."""
        idx = line_addr % self.n_sets
        flag = self._sets[idx].pop(line_addr, None)
        if flag is None:
            return False
        if flag:
            self._ddio_count[idx] -= 1
        return True

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr % self.n_sets]

    def occupancy(self) -> int:
        """Number of valid lines currently cached."""
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        for cset in self._sets:
            cset.clear()
        self._ddio_count = [0] * self.n_sets

    def __repr__(self) -> str:
        return "Cache(%s, %dKB, %d-way)" % (self.name, self.size // 1024, self.assoc)


class CacheHierarchy:
    """Per-core L1/L2 plus a shared LLC, with DDIO DMA fills.

    ``lookup`` walks the hierarchy and back-fills inclusively; ``dma_write``
    models the NIC writing packet data/descriptors straight into the LLC's
    DDIO ways while invalidating stale copies in core-private levels.

    Only the LLC ever holds DDIO lines: the core-private L1/L2 levels are
    filled by demand walks alone, so their flags are always ``False`` and
    their DDIO counts always zero.  ``lookup`` and ``dma_write`` rely on
    that to skip the DDIO bookkeeping on private sets.

    ``last_line[core]`` is the line that core's last demand access ended
    on, or ``None``.  :meth:`MemorySystem.charge
    <repro.hw.memory.MemorySystem.charge>` sets it; while it is set, the
    line is the MRU entry of its L1 set.  Anything else that can reorder
    or drop a core's L1 lines clears it: every ``lookup`` (for that
    core, prefetches included), a ``dma_write`` over the line, and
    ``flush``.
    """

    L1, L2, LLC, DRAM = L1, L2, LLC, DRAM

    def __init__(self, params, n_cores: int = 1):
        self.params = params
        self.n_cores = n_cores
        self.l1 = [Cache("L1-%d" % c, params.l1_size, params.l1_assoc, params.cache_line)
                   for c in range(n_cores)]
        self.l2 = [Cache("L2-%d" % c, params.l2_size, params.l2_assoc, params.cache_line)
                   for c in range(n_cores)]
        self.llc = Cache("LLC", params.llc_size, params.llc_assoc, params.cache_line)
        self._private = self.l1 + self.l2
        self.last_line: List[Optional[int]] = [None] * n_cores

    def lookup(self, core: int, line_addr: int) -> int:
        """Return the level that served the line and fill upper levels.

        The whole demand walk works on the set dicts directly: a hit pops
        the line and re-inserts it at the MRU end, and each level that
        missed is filled on the way back, evicting its set's LRU (first)
        line when full.  The decisions are those of ``Cache.access``
        followed by ``Cache.fill`` at every level, without the calls.
        """
        self.last_line[core] = None
        l1 = self.l1[core]
        s1 = l1._sets[line_addr % l1.n_sets]
        flag = s1.pop(line_addr, None)
        if flag is not None:
            s1[line_addr] = flag
            return L1
        l2 = self.l2[core]
        s2 = l2._sets[line_addr % l2.n_sets]
        flag = s2.pop(line_addr, None)
        if flag is not None:
            s2[line_addr] = flag
            level = L2
        else:
            llc = self.llc
            idx = line_addr % llc.n_sets
            s3 = llc._sets[idx]
            flag = s3.pop(line_addr, None)
            if flag is not None:
                s3[line_addr] = flag  # a DDIO line stays a DDIO line
                level = LLC
            else:
                if len(s3) >= llc.assoc and s3.pop(next(iter(s3))):
                    llc._ddio_count[idx] -= 1
                s3[line_addr] = False
                level = DRAM
            if len(s2) >= l2.assoc:
                del s2[next(iter(s2))]
            s2[line_addr] = False
        if len(s1) >= l1.assoc:
            del s1[next(iter(s1))]
        s1[line_addr] = False
        return level

    def dma_write(self, ranges) -> int:
        """NIC DMA of each ``(first_line, last_line)`` range, in order:
        DDIO-allocate every line in the LLC and invalidate every
        core-private copy.  Returns the number of lines written.

        One call takes a whole RX burst (each frame's data, then its CQE).
        A core's same-line memo is cleared once if any range holds it:
        nothing between the lines of one call sets a memo again.
        """
        memo = self.last_line
        for core, held in enumerate(memo):
            if held is not None:
                for first_line, last_line in ranges:
                    if first_line <= held <= last_line:
                        memo[core] = None
                        break
        private = self._private
        fill = self.llc.fill
        ddio_ways = self.params.ddio_ways
        written = 0
        for first_line, last_line in ranges:
            written += last_line - first_line + 1
            for line_addr in range(first_line, last_line + 1):
                for cache in private:
                    cache._sets[line_addr % cache.n_sets].pop(line_addr, None)
                fill(line_addr, True, ddio_ways)
        return written

    def dma_read(self, first_line: int, last_line: int) -> int:
        """NIC DMA read (TX) of lines ``first_line..last_line``: each LLC
        hit is promoted to MRU.  Returns the number of lines that hit."""
        llc = self.llc
        sets = llc._sets
        n_sets = llc.n_sets
        hits = 0
        for line_addr in range(first_line, last_line + 1):
            cset = sets[line_addr % n_sets]
            flag = cset.pop(line_addr, None)
            if flag is not None:
                cset[line_addr] = flag
                hits += 1
        return hits

    def flush(self) -> None:
        for cache in self._private + [self.llc]:
            cache.flush()
        self.last_line = [None] * self.n_cores
