"""DPDK mempool: pre-allocated mbufs with a LIFO per-lcore cache.

Every mbuf owns ``RTE_MBUF_SIZE`` metadata bytes, a headroom, and a data
room, allocated contiguously from the hugepage DMA region.  ``get``/``put``
follow DPDK's per-lcore cache discipline (LIFO), which is what keeps the
most recently freed mbuf's metadata warm -- and what X-Change bypasses
entirely by exchanging buffers instead of allocating them.

``get``/``put`` only move buffers; :meth:`Mempool.charge_freelist`
charges the freelist-head write each one makes, once per loop of them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dpdk.mbuf import MBUF_DATA_ROOM, MBUF_HEADROOM, RTE_MBUF_SIZE, BufferRef
from repro.hw.layout import AddressSpace


#: One 8-byte write at base 0 (the freelist head), as a
#: ``MemorySystem.charge`` op row.
FREELIST_WRITE = ((0, 0, 8, True),)


class MempoolEmptyError(RuntimeError):
    """Raised when the pool has no free mbufs (allocation failure)."""


class Mempool:
    """A pool of ``n`` fixed-size mbufs carved out of the DMA region."""

    def __init__(
        self,
        space: AddressSpace,
        n: int = 8192,
        data_room: int = MBUF_DATA_ROOM,
        headroom: int = MBUF_HEADROOM,
        name: str = "mbuf_pool",
    ):
        if n < 1:
            raise ValueError("mempool needs at least one mbuf")
        self.n = n
        self.data_room = data_room
        self.headroom = headroom
        self.elt_size = RTE_MBUF_SIZE + headroom + data_room
        self.region = space.alloc_dma(name, n * self.elt_size)
        # The pool's own bookkeeping (ring of pointers) also lives in memory;
        # the PMD touches its head line on every get/put.
        self.freelist_region = space.alloc_dma(name + "_ring", n * 8 + 64)
        self._head_row = (self.freelist_region.base,)
        self._free: List[int] = list(range(n - 1, -1, -1))  # LIFO: index 0 on top
        # Per index: whether that mbuf is in the pool (catches double puts).
        self._is_free: List[bool] = [True] * n
        self.gets = 0
        self.puts = 0
        # Failed allocation attempts (the drop-counter path callers use
        # instead of catching MempoolEmptyError on the hot path).
        self.empty_gets = 0

    def mbuf_addr(self, index: int) -> int:
        if not 0 <= index < self.n:
            raise IndexError("mbuf index %d out of range" % index)
        return self.region.base + index * self.elt_size

    def data_addr(self, index: int) -> int:
        """Address of the default data offset (after the headroom)."""
        return self.mbuf_addr(index) + RTE_MBUF_SIZE + self.headroom

    def buffer_ref(self, index: int) -> BufferRef:
        return BufferRef(
            index=index,
            mbuf_addr=self.mbuf_addr(index),
            data_addr=self.data_addr(index),
            meta_addr=self.mbuf_addr(index),
        )

    @property
    def available(self) -> int:
        return len(self._free)

    @property
    def in_flight(self) -> int:
        """Buffers currently out of the pool (the leak-invariant ledger:
        ``gets == puts + in_flight`` must hold at all times)."""
        return self.n - len(self._free)

    def try_get(self) -> Optional[BufferRef]:
        """Pop one mbuf, or return None when the pool is empty.

        The hot-path allocation contract: exhaustion degrades through
        counters (``empty_gets`` here, ``rx_nombuf``/drop ledgers at the
        callers), never through an exception on the data path.
        """
        if not self._free:
            self.empty_gets += 1
            return None
        index = self._free.pop()
        self._is_free[index] = False
        self.gets += 1
        return self.buffer_ref(index)

    def get(self) -> BufferRef:
        """Pop one mbuf.

        Control-path variant of :meth:`try_get`: raises
        :class:`MempoolEmptyError` on exhaustion.
        """
        ref = self.try_get()
        if ref is None:
            raise MempoolEmptyError("mempool exhausted")
        return ref

    def put(self, ref: BufferRef) -> None:
        """Return an mbuf to the LIFO cache; a buffer already in the pool
        is a double free."""
        index = ref.index
        if not 0 <= index < self.n:
            raise IndexError("mbuf index %d out of range" % index)
        if self._is_free[index]:
            raise RuntimeError("double free: mbuf %d is already in the pool"
                               % index)
        self._is_free[index] = True
        self._free.append(index)
        self.puts += 1

    def charge_freelist(self, cpu, count: int) -> None:
        """Charge ``count`` gets or puts to ``cpu`` (none when ``None``).

        Each is one 8-byte write of the freelist head, charged as one row
        of one :meth:`MemorySystem.charge
        <repro.hw.memory.MemorySystem.charge>` call with no compute: the
        float sequence of ``count`` ``CpuCore.mem_access(head, 8,
        write=True, instructions=0.0)`` calls, since ``x + 0.0 == x``.
        Callers make one call per loop of gets or puts, after it: nothing
        in such a loop charges the model.
        """
        if cpu is not None and count:
            cpu.mem.charge(cpu, 0.0, 0.0, FREELIST_WRITE, (),
                           (self._head_row,) * count)
