"""The three metadata-management models of the paper's §2.2/§3.1.

Every model answers the same three questions:

1. *Which buffers get posted to the NIC?*  (mbufs from a mempool, or
   app-provided buffers for X-Change.)
2. *What does the driver execute per received/transmitted packet?*
   (expressed as IR programs over the CQE / rte_mbuf / Packet structs, so
   LTO inlining and field reordering apply to them like to any code.)
3. *Where does the application-visible metadata struct live?*  (its own
   pool for Copying, inside the mbuf for Overlaying, in a small recycled
   set of app buffers for X-Change.)

The app-visible struct is always registered under the layout name
``"Packet"``, so element IR is model-agnostic.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.compiler.ir import Compute, DirectCall, FieldAccess, PoolOp, Program
from repro.compiler.structlayout import Field, LayoutRegistry, StructLayout
from repro.dpdk.mbuf import (
    MBUF_DATA_ROOM,
    BufferRef,
    build_cqe_layout,
    build_mbuf_layout,
    build_tx_descriptor_layout,
)
from repro.dpdk.mempool import Mempool
from repro.dpdk.xchg_api import (
    RX_METADATA_ITEMS,
    TX_METADATA_ITEMS,
    ConversionSet,
    fastclick_conversions,
)

#: rte_mbuf fields the MLX5 PMD fills on RX (from the CQE).
MBUF_RX_FIELDS = (
    "data_off", "pkt_len", "data_len", "rss_hash",
    "vlan_tci", "ol_flags", "packet_type", "port",
)

#: CQE fields the PMD parses per completion.
CQE_RX_FIELDS = ("op_own", "byte_cnt", "rx_hash_result", "hdr_type_etc", "vlan_info")

#: Canonical app-metadata fields every model's "Packet" layout must expose.
PACKET_COMMON_FIELDS = (
    "buffer", "data_ptr", "length", "flags", "packet_type", "timestamp",
    "mac_header", "network_header", "transport_header",
    "aggregate_anno", "paint_anno", "vlan_anno", "rss_anno", "dst_ip_anno",
)

#: Fields the RX conversion writes into the app struct.
PACKET_RX_WRITES = ("buffer", "data_ptr", "length", "flags", "vlan_anno", "rss_anno", "timestamp")

#: Fields the TX path reads from the app struct.
PACKET_TX_READS = ("data_ptr", "length", "flags")

TX_DESCRIPTOR_WRITES = ("ctrl_opcode", "dseg_byte_count", "dseg_addr")


def _cqe_read_ops() -> List:
    ops = [FieldAccess("cqe", f, target="descriptor") for f in CQE_RX_FIELDS]
    ops.append(Compute(42, note="cqe-parse"))
    return ops


def _mbuf_write_ops() -> List:
    return [
        FieldAccess("rte_mbuf", f, write=True, target="packet_mbuf")
        for f in MBUF_RX_FIELDS
    ]


def _tx_descriptor_ops() -> List:
    ops = [
        FieldAccess("tx_descriptor", f, write=True, target="descriptor")
        for f in TX_DESCRIPTOR_WRITES
    ]
    ops.append(Compute(34, note="wqe-build"))
    return ops


class MetadataModel(abc.ABC):
    """Strategy object for one metadata-management model."""

    name: str = "abstract"
    #: Whether the model permits elements that hold packets across
    #: iterations (Queues, reordering) -- TinyNF does not.
    supports_buffering: bool = True

    def __init__(self):
        self.mempool: Optional[Mempool] = None

    # -- lifecycle ------------------------------------------------------------

    @abc.abstractmethod
    def setup(self, space, params) -> None:
        """Allocate pools/regions in the given address space."""

    @abc.abstractmethod
    def register_layouts(self, registry: LayoutRegistry) -> None:
        """Register driver structs and the app-visible "Packet" layout."""

    def unbuffered_holders(self, graph) -> List[str]:
        """The elements of ``graph`` that hold packets across iterations
        when this model cannot buffer them (TinyNF); empty otherwise.
        A build refuses such a configuration, and analysis reports each
        as ``model-cannot-buffer``."""
        if self.supports_buffering:
            return []
        return [e.name for e in graph.all_elements()
                if getattr(e, "buffers_packets", False)]

    # -- buffer management -----------------------------------------------------

    @abc.abstractmethod
    def rx_buffer(self, cpu) -> BufferRef:
        """Produce one empty buffer to post to the NIC RX ring."""

    def try_rx_buffers(self, count: int, cpu) -> List[BufferRef]:
        """Up to ``count`` buffers to post, fewer when the source runs dry
        (hot-path contract: callers degrade through ``rx_nombuf``, no
        try/except).

        Models whose buffer source cannot fail (X-Change recycles a
        fixed region) inherit this and always return ``count``.
        """
        return [self.rx_buffer(cpu) for _ in range(count)]

    def on_rx(self, ref: BufferRef, cpu) -> BufferRef:
        """Finalize the app-visible metadata address after DMA completion."""
        return ref

    @abc.abstractmethod
    def release(self, refs, cpu) -> None:
        """Return a sequence of buffers that left the pipeline
        (transmitted, dropped or discarded), in order."""

    def allocate(self, cpu) -> BufferRef:
        """Produce a buffer for an app-originated packet (Tee clones,
        ICMP errors, generators) -- Click's Packet::make() path."""
        return self.on_rx(self.rx_buffer(cpu), cpu)

    def try_allocate(self, cpu) -> Optional[BufferRef]:
        """Like :meth:`allocate`, but None on exhaustion (clone callers
        count ``clone_alloc_failures`` instead of catching)."""
        refs = self.try_rx_buffers(1, cpu)
        return self.on_rx(refs[0], cpu) if refs else None

    # -- driver code (IR) ----------------------------------------------------------

    @abc.abstractmethod
    def rx_program(self) -> Program:
        """Per-packet RX metadata path (descriptor -> app metadata)."""

    @abc.abstractmethod
    def tx_program(self) -> Program:
        """Per-packet TX metadata path (app metadata -> descriptor)."""

    def _register_driver_layouts(self, registry: LayoutRegistry) -> None:
        registry.register(build_mbuf_layout())
        registry.register(build_cqe_layout())
        registry.register(build_tx_descriptor_layout())


class MempoolModel(MetadataModel):
    """A model whose buffers are mbufs from a DPDK mempool.

    Gets and puts only move buffers; each loop of them then charges the
    freelist once, through :meth:`Mempool.charge_freelist`.
    """

    def setup(self, space, params) -> None:
        self.mempool = Mempool(space, n=params.rx_ring_size * 2 + 512)

    def rx_buffer(self, cpu) -> BufferRef:
        ref = self.mempool.get()
        self.mempool.charge_freelist(cpu, 1)
        return ref

    def try_rx_buffers(self, count: int, cpu) -> List[BufferRef]:
        pool = self.mempool
        refs = []
        for _ in range(count):
            ref = pool.try_get()
            if ref is None:
                break
            refs.append(ref)
        pool.charge_freelist(cpu, len(refs))
        return refs

    def release(self, refs, cpu) -> None:
        pool = self.mempool
        for ref in refs:
            pool.put(ref)
        pool.charge_freelist(cpu, len(refs))


def build_fastclick_packet_layout() -> StructLayout:
    """FastClick's ``Packet`` class in source order (Copying / X-Change).

    Mirrors ``include/click/packet.hh``: buffer bookkeeping first, header
    pointers and timestamp in the middle, the 48-byte annotation area at
    the end -- which is precisely why the hot RX fields (length, RSS/VLAN
    annotations) span all three cache lines until the reordering pass
    packs them together.
    """
    return StructLayout(
        "Packet",
        [
            # -- cache line 0: buffer bookkeeping ---------------------------
            Field("use_count", 4),
            Field("buffer", 8),
            Field("head", 8),
            Field("data_ptr", 8),
            Field("length", 4),
            Field("buffer_len", 4),
            Field("buffer_destructor", 8),
            Field("destructor_argument", 8),
            Field("next", 8),
            # -- cache line 1: headers, timestamp, flags ---------------------
            Field("prev", 8, align=64),
            Field("timestamp", 8),
            Field("mac_header", 8),
            Field("network_header", 8),
            Field("transport_header", 8),
            Field("device", 8),
            Field("packet_type", 4),
            Field("flags", 4),
            # -- cache line 2: the 48-B annotation area ----------------------
            Field("aggregate_anno", 4, align=64),
            Field("paint_anno", 1),
            Field("vlan_anno", 2),
            Field("rss_anno", 4),
            Field("dst_ip_anno", 4),
            Field("anno_rest", 33),
        ],
        min_size=192,
    )


#: How the overlay cast renames rte_mbuf fields into the app's "Packet"
#: view: an mbuf write by the PMD *is* a write of the aliased Packet
#: field.  The dataflow analysis uses this to credit the conversion's
#: mbuf stores as metadata definitions under the Overlaying model.
OVERLAY_MBUF_ALIAS = {
    "buf_addr": "buffer",
    "ol_flags": "flags",
    "data_len": "length",
    "vlan_tci": "vlan_anno",
    "rss_hash": "rss_anno",
}


def build_overlay_packet_layout() -> StructLayout:
    """The Overlaying model's "Packet": cast over the rte_mbuf, with the
    annotation area appended after the 128-byte mbuf struct (BESS-style)."""
    mbuf = build_mbuf_layout()
    alias = OVERLAY_MBUF_ALIAS
    fields = []
    for f in mbuf.fields:
        fields.append(Field(alias.get(f.name, f.name), f.size, f.align))
    # Annotations + FastClick extras live after the mbuf (offset >= 128).
    fields.extend(
        [
            Field("data_ptr", 8, align=64),
            Field("mac_header", 8),
            Field("network_header", 8),
            Field("transport_header", 8),
            Field("aggregate_anno", 4),
            Field("paint_anno", 1),
            Field("dst_ip_anno", 4, align=4),
            Field("anno_rest", 33),
        ]
    )
    return StructLayout("Packet", fields, min_size=256)


class CopyingModel(MempoolModel):
    """FastClick's default: copy driver metadata into a separate Packet pool.

    Two conversions per packet: CQE -> rte_mbuf (driver), then rte_mbuf ->
    Packet (application), plus mempool get/put for the mbuf and pool
    bookkeeping for the Packet object.
    """

    name = "copying"

    def __init__(self, pool_objects: int = 4096):
        super().__init__()
        self.pool_objects = pool_objects
        self._packet_layout = build_fastclick_packet_layout()
        self._obj_region = None
        self._free_objs: List[int] = []
        self._obj_index_of = {}

    def setup(self, space, params) -> None:
        super().setup(space, params)
        self._obj_region = space.alloc_heap(
            "click_packet_pool", self.pool_objects * self._packet_layout.size
        )
        # LIFO free stack, top = most recently freed (warmest).
        self._free_objs = list(range(self.pool_objects - 1, -1, -1))

    def register_layouts(self, registry: LayoutRegistry) -> None:
        self._register_driver_layouts(registry)
        registry.register(self._packet_layout)

    def on_rx(self, ref: BufferRef, cpu) -> BufferRef:
        obj = self._free_objs.pop()
        meta = self._obj_region.base + obj * self._packet_layout.size
        out = ref.with_meta(meta)
        self._obj_index_of[meta] = obj
        return out

    def release(self, refs, cpu) -> None:
        super().release(refs, cpu)
        for ref in refs:
            obj = self._obj_index_of.pop(ref.meta_addr, None)
            if obj is not None:
                self._free_objs.append(obj)

    def rx_program(self) -> Program:
        ops = list(_cqe_read_ops())
        ops.extend(_mbuf_write_ops())
        ops.append(PoolOp("get"))          # replenish mbuf for the RX ring
        ops.append(PoolOp("get", instructions=30.0))  # Click packet-pool pop
        # Application-side conversion: rte_mbuf -> Packet (the second copy).
        for f in ("buf_addr", "pkt_len", "data_len", "rss_hash", "vlan_tci", "ol_flags"):
            ops.append(FieldAccess("rte_mbuf", f, target="packet_mbuf"))
        for f in PACKET_RX_WRITES:
            ops.append(FieldAccess("Packet", f, write=True, target="packet_meta"))
        ops.append(Compute(85, note="copy-convert"))
        ops.append(Compute(52, note="rx-descriptor-maintenance"))
        return Program("pmd_rx_copying", ops)

    def tx_program(self) -> Program:
        ops = [FieldAccess("Packet", f, target="packet_meta") for f in PACKET_TX_READS]
        # Write back into the mbuf the PMD actually transmits from.
        for f in ("data_len", "pkt_len", "ol_flags"):
            ops.append(FieldAccess("rte_mbuf", f, write=True, target="packet_mbuf"))
        ops.extend(_tx_descriptor_ops())
        ops.append(PoolOp("put"))                      # mbuf free (deferred)
        ops.append(PoolOp("put", instructions=26.0))   # Packet object free
        ops.append(Compute(40, note="tx-housekeeping"))
        return Program("pmd_tx_copying", ops)


class OverlayingModel(MempoolModel):
    """BESS/FastClick-Light style: cast the mbuf, append annotations.

    One conversion (CQE -> rte_mbuf); the application reads driver fields
    in place and keeps its annotations in the bytes after the mbuf struct.
    """

    name = "overlaying"
    #: The overlay cast makes the PMD's mbuf stores visible as Packet
    #: fields -- the dataflow analysis folds these into the RX defs.
    mbuf_alias = OVERLAY_MBUF_ALIAS

    def __init__(self):
        super().__init__()
        self._packet_layout = build_overlay_packet_layout()

    def register_layouts(self, registry: LayoutRegistry) -> None:
        self._register_driver_layouts(registry)
        registry.register(self._packet_layout)

    def rx_program(self) -> Program:
        ops = list(_cqe_read_ops())
        ops.extend(_mbuf_write_ops())
        ops.append(PoolOp("get"))  # replenish mbuf
        # Cast + annotation initialization (no copy).
        ops.append(FieldAccess("Packet", "data_ptr", write=True, target="packet_meta"))
        ops.append(FieldAccess("Packet", "mac_header", write=True, target="packet_meta"))
        ops.append(Compute(45, note="cast-init"))
        ops.append(Compute(52, note="rx-descriptor-maintenance"))
        return Program("pmd_rx_overlaying", ops)

    def tx_program(self) -> Program:
        ops = [FieldAccess("Packet", f, target="packet_meta") for f in PACKET_TX_READS]
        ops.extend(_tx_descriptor_ops())
        ops.append(PoolOp("put"))
        ops.append(Compute(40, note="tx-housekeeping"))
        return Program("pmd_tx_overlaying", ops)


class XChangeModel(MetadataModel):
    """The paper's contribution: the PMD writes app metadata directly.

    Conversion functions (``xchg_set_*``) replace raw mbuf stores; with LTO
    they inline to plain stores into the application's own Packet struct.
    Only ~`meta_buffers` metadata structs exist (RX burst + queue slack),
    so their cache lines stay warm, and buffers are *exchanged* with the
    driver instead of cycling through a mempool.
    """

    name = "xchange"

    def __init__(self, conversions: Optional[ConversionSet] = None,
                 meta_buffers: int = 64):
        super().__init__()
        self.conversions = conversions or fastclick_conversions()
        self.meta_buffers = meta_buffers
        self._packet_layout = build_fastclick_packet_layout()
        self._meta_region = None
        self._data_region = None
        self._next_meta = 0
        self._next_data = 0
        self._n_data = 0

    APP_TX_BUFFERS = 256

    def setup(self, space, params) -> None:
        self._meta_region = space.alloc_heap(
            "xchg_meta", self.meta_buffers * self._packet_layout.size
        )
        self._n_data = params.rx_ring_size + params.tx_ring_size
        self._data_region = space.alloc_dma("xchg_data", self._n_data * MBUF_DATA_ROOM)
        self._app_region = space.alloc_dma(
            "xchg_app_tx", self.APP_TX_BUFFERS * MBUF_DATA_ROOM
        )
        self._next_app = 0

    def allocate(self, cpu) -> BufferRef:
        index = self._next_app
        self._next_app = (self._next_app + 1) % self.APP_TX_BUFFERS
        ref = BufferRef(
            index=self._n_data + index,
            mbuf_addr=0,
            data_addr=self._app_region.base + index * MBUF_DATA_ROOM,
        )
        return self.on_rx(ref, cpu)

    def try_allocate(self, cpu) -> BufferRef:
        # App TX buffers are a recycled region: allocation cannot fail.
        return self.allocate(cpu)

    def register_layouts(self, registry: LayoutRegistry) -> None:
        self._register_driver_layouts(registry)
        registry.register(self._packet_layout)

    def rx_buffer(self, cpu) -> BufferRef:
        index = self._next_data
        self._next_data = (self._next_data + 1) % self._n_data
        return BufferRef(
            index=index,
            mbuf_addr=0,  # no rte_mbuf involved
            data_addr=self._data_region.base + index * MBUF_DATA_ROOM,
        )

    def on_rx(self, ref: BufferRef, cpu) -> BufferRef:
        meta_index = self._next_meta
        self._next_meta = (self._next_meta + 1) % self.meta_buffers
        out = ref.with_meta(
            self._meta_region.base + meta_index * self._packet_layout.size
        )
        out.cqe_addr = ref.cqe_addr
        return out

    def release(self, refs, cpu) -> None:
        # Exchange semantics: the buffers simply become available again;
        # no freelist is touched (rx_buffer cycles the same region).
        return None

    def _conversion_target(self, item: str):
        """(struct, field, binding-target) for one conversion function."""
        struct, field = self.conversions.target_of(item)
        binding = "packet_meta" if struct == "Packet" else "packet_mbuf"
        return struct, field, binding

    def rx_program(self) -> Program:
        ops = list(_cqe_read_ops())
        # One conversion call per metadata item; LTO inlines these.
        for item in RX_METADATA_ITEMS:
            if item not in self.conversions.targets:
                continue  # minimal conversion sets skip items entirely
            struct, field, binding = self._conversion_target(item)
            ops.append(DirectCall(self.conversions.setter_name(item),
                                  overhead_instructions=3.0))
            ops.append(FieldAccess(struct, field, write=True, target=binding))
        ops.append(Compute(26, note="buffer-exchange"))
        ops.append(Compute(46, note="rx-descriptor-maintenance"))
        return Program("pmd_rx_xchange", ops)

    def tx_program(self) -> Program:
        ops = []
        for item in TX_METADATA_ITEMS:
            if item not in self.conversions.targets:
                continue
            struct, field, binding = self._conversion_target(item)
            ops.append(DirectCall(self.conversions.getter_name(item),
                                  overhead_instructions=3.0))
            ops.append(FieldAccess(struct, field, target=binding))
        ops.extend(_tx_descriptor_ops())
        ops.append(Compute(4, note="buffer-exchange"))
        ops.append(Compute(30, note="tx-housekeeping"))
        return Program("pmd_tx_xchange", ops)


def make_model(name: str) -> MetadataModel:
    """The metadata model a build's options name.

    ``name`` is a :class:`repro.core.options.MetadataModel` (a ``str``
    enum) or its value: "copying" | "overlaying" | "xchange" | "tinynf".
    X-Change gets FastClick's conversion functions, as PacketMill wires it.
    """
    from repro.dpdk.tinynf import TinyNfModel  # local: avoids an import cycle

    models = {
        "copying": CopyingModel,
        "overlaying": OverlayingModel,
        "xchange": XChangeModel,
        "tinynf": TinyNfModel,
    }
    try:
        return models[name]()
    except KeyError:
        raise ValueError("unknown metadata model %r (expected one of %s)"
                         % (name, ", ".join(sorted(models)))) from None
