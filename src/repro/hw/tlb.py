"""Two-level data TLB model.

The paper's static-graph optimization argues that allocating elements in a
contiguous static segment (rather than scattered heap chunks) yields "a
less fragmented access pattern and fewer TLB misses"; this model is what
lets that effect show up in the measurements.
"""

from __future__ import annotations


class _LruSet(dict):
    """A fully-associative LRU set of page numbers with a capacity bound.

    Pages are kept least-recently-used first: a hit pops the page and
    re-inserts it at the MRU end, and an insert past the capacity drops
    the first page.
    """

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def access(self, page: int) -> bool:
        hit = self.pop(page, False)
        self[page] = True
        if not hit and len(self) > self.capacity:
            del self[next(iter(self))]
        return hit


class Tlb:
    """L1 DTLB backed by a unified STLB; misses cost a page-walk.

    :attr:`last_page` is the last page translated, or ``None``.  It is
    always the DTLB's MRU entry, so translating it again would move
    nothing and cost nothing: :class:`~repro.hw.memory.MemorySystem`
    skips that call.
    """

    def __init__(self, params):
        self.params = params
        self._dtlb = _LruSet(params.dtlb_entries)
        self._stlb = _LruSet(params.stlb_entries)
        self.last_page = None
        self.walks = 0

    def access(self, page: int) -> float:
        """Translate one page; returns the exposed walk latency in ns."""
        self.last_page = page
        if self._dtlb.access(page):
            return 0.0
        if self._stlb.access(page):
            return 0.0  # STLB hits refill the DTLB essentially for free
        self.walks += 1
        return self.params.tlb_walk_ns

    def reset_stats(self) -> None:
        self.walks = 0

    def flush(self) -> None:
        self._dtlb.clear()
        self._stlb.clear()
        self.last_page = None
        self.reset_stats()
