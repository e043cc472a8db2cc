"""Two-level data TLB model.

The paper's static-graph optimization argues that allocating elements in a
contiguous static segment (rather than scattered heap chunks) yields "a
less fragmented access pattern and fewer TLB misses"; this model is what
lets that effect show up in the measurements.
"""

from __future__ import annotations


class Tlb:
    """L1 DTLB backed by a unified STLB; misses cost a page-walk.

    Each level is a fully-associative LRU set of page numbers, kept in a
    plain dict least-recently-used first: a hit pops the page and
    re-inserts it at the MRU end, and an insert past the level's capacity
    drops the first page.

    :attr:`last_page` is the last page translated, or ``None``.  It is
    always the DTLB's MRU entry, so translating it again would move
    nothing and cost nothing: :class:`~repro.hw.memory.MemorySystem`
    skips that call.
    """

    def __init__(self, params):
        self.params = params
        self.dtlb_entries = params.dtlb_entries
        self.stlb_entries = params.stlb_entries
        self._dtlb = {}
        self._stlb = {}
        self.last_page = None
        self.walks = 0

    def access(self, page: int) -> float:
        """Translate one page; returns the exposed walk latency in ns."""
        self.last_page = page
        dtlb = self._dtlb
        if dtlb.pop(page, False):
            dtlb[page] = True
            return 0.0
        dtlb[page] = True
        if len(dtlb) > self.dtlb_entries:
            del dtlb[next(iter(dtlb))]
        stlb = self._stlb
        if stlb.pop(page, False):
            stlb[page] = True
            return 0.0  # STLB hits refill the DTLB essentially for free
        stlb[page] = True
        if len(stlb) > self.stlb_entries:
            del stlb[next(iter(stlb))]
        self.walks += 1
        return self.params.tlb_walk_ns

    def reset_stats(self) -> None:
        self.walks = 0

    def flush(self) -> None:
        self._dtlb.clear()
        self._stlb.clear()
        self.last_page = None
        self.reset_stats()
