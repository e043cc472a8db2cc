"""``execute_bases`` against a frozen copy of the per-packet charge.

Both sides are real :class:`~repro.hw.cpu.CpuCore` and
:class:`~repro.hw.memory.MemorySystem` objects with the small geometry of
``test_fused_equivalence``, so evictions and TLB walks are frequent.  One
side charges through :func:`~repro.compiler.runtime.execute_bases` (the
CPU charge made inline, all rows in one ``access_ops`` call), the other
through :func:`tests.hw.reference_charge.charge`.  After every charge the
core totals must be bit-identical, and so must the counters, every cache
set in LRU order, the TLB order, each core's same-line memo and last TLB
page, and the analytic model's random state.

A burst of rows in one ``execute_bases`` call is held to one reference
charge per row, with the PMD's receive prefetches
(:data:`repro.dpdk.pmd.RX_PREFETCH` against
:func:`tests.hw.reference_charge.rx_charge`) or without them, including
bursts where one row's base is ``None`` and the charge raises there.

The NIC side is held to its per-frame reference the same way:

- one burst ``MemorySystem.dma_write`` to one reference DDIO write per
  range, with ranges that hold another core's same-line memo;
- a TX burst (``Nic.transmit`` per packet, then one ``execute_bases``
  with ``dma_read=True``) to the reference ``transmit`` followed by a
  one-row charge, per packet;
- one ``Mempool.charge_freelist`` of ``count`` rows to ``count``
  reference ``CpuCore.mem_access`` calls at the freelist head.

The caches are four sets, so the frames' lines share LLC sets with the
TX program's lines, and a DMA read made out of its place moves them.

Instruction counts, cost parameters and the starting core totals are
non-dyadic, so any regrouping of the float additions shows.  Branch-miss
expectations include halves, where ``round`` rounds to even.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.lower import (
    TARGET_DATA,
    TARGET_DESCRIPTOR,
    TARGET_PACKET_MBUF,
    TARGET_PACKET_META,
    TARGET_STATE,
    ExecProgram,
    MemOp,
)
from repro.compiler.runtime import execute_bases
from repro.dpdk.mbuf import BufferRef
from repro.dpdk.mempool import Mempool
from repro.dpdk.nic import Nic
from repro.dpdk.pmd import RX_PREFETCH
from repro.hw.cpu import CpuCore
from repro.hw.layout import AddressSpace
from repro.hw.memory import MemorySystem

from tests.hw import reference_charge
from tests.hw.test_fused_equivalence import BASES, LINE, small_params, state

#: In the order of ``execute_bases``'s (meta, mbuf, descriptor, data,
#: state) arguments.
TARGETS = (TARGET_PACKET_META, TARGET_PACKET_MBUF, TARGET_DESCRIPTOR,
           TARGET_DATA, TARGET_STATE)


def params():
    return dataclasses.replace(small_params(), issue_ipc=2.9,
                               branch_miss_cycles=17.3)


#: Packet bases anywhere around the DMA region's start and a hugepage
#: boundary inside it; the state base is unaligned low memory.
packet_bases = st.builds(lambda base, offset: base + offset,
                         st.sampled_from(BASES), st.integers(0, 4 * LINE))
state_bases = st.builds(lambda offset: BASES[1] + offset,
                        st.integers(0, 8 * LINE))
bases = st.tuples(packet_bases, packet_bases, packet_bases, packet_bases,
                  state_bases)

rows = st.lists(
    st.builds(
        MemOp,
        target=st.sampled_from(TARGETS),
        offset=st.one_of(st.sampled_from((0, 8, LINE, 2 * LINE)),
                         st.integers(0, 3 * LINE)),
        size=st.one_of(st.sampled_from((0, 1, 2, 4, 8, LINE)),
                       st.integers(0, 3 * LINE)),
        write=st.booleans(),
    ),
    max_size=12,
)

branch_misses = st.one_of(
    st.sampled_from((0.0, 0.45, 0.5, 1.5, 2.5)),
    st.floats(0.0, 8.0, allow_nan=False),
)

programs = st.builds(
    ExecProgram,
    name=st.just("prop"),
    instructions=st.one_of(st.sampled_from((0.0, 0.1, 7.3, 41.7)),
                           st.floats(0.0, 1e4, allow_nan=False)),
    branch_miss_expect=branch_misses,
    mem_ops=rows,
    random_ops=st.lists(
        st.tuples(st.sampled_from((0, 64, 300, 4096, 1 << 20)),
                  st.integers(1, 3)),
        max_size=2),
)

totals = st.sampled_from((0.0, 0.1, 0.3, 7.7, 1e6 + 0.1))


def dma_write_op(n_cores):
    """One RX burst's DMA ranges, and maybe a core whose same-line memo
    one more range (at a drawn place in the burst) covers."""
    ranges = st.lists(st.tuples(packet_bases, st.integers(1, 3 * LINE)),
                      min_size=1, max_size=6)
    memo = st.one_of(st.none(), st.tuples(
        st.integers(0, n_cores - 1), st.integers(0, 6),
        st.sampled_from((0, 8, LINE + 8)), st.integers(1, 2 * LINE)))
    return st.tuples(st.just("dma_write"), ranges, memo)


def tx_op(core):
    """A TX burst: per packet its (meta, mbuf, data, state) bases and
    frame length."""
    packets = st.lists(
        st.tuples(packet_bases, st.one_of(st.just(0), packet_bases),
                  packet_bases, state_bases, st.integers(1, 3 * LINE)),
        min_size=1, max_size=8)
    return st.tuples(st.just("tx"), core, programs, packets)


def nic_operations(n_cores):
    """The NIC side's charges: DMA-write bursts, TX bursts and freelist
    loops."""
    core = st.integers(0, n_cores - 1)
    return [
        dma_write_op(n_cores),
        tx_op(core),
        tx_op(core),
        st.tuples(st.just("freelist"), core, st.integers(1, 9)),
    ]


def operations(n_cores):
    core = st.integers(0, n_cores - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("charge"), core, programs, bases),
            st.tuples(st.just("charge"), core, programs, bases),
            st.tuples(st.just("charge"), core, programs, bases),
            *nic_operations(n_cores),
        ),
        max_size=40,
    )


class Rig:
    """A memory system, its cores, one NIC port and one mempool."""

    def __init__(self, n_cores, start):
        self.mem = MemorySystem(params(), n_cores)
        self.cpus = [CpuCore(self.mem.params, self.mem, core)
                     for core in range(n_cores)]
        for cpu in self.cpus:
            cpu.instructions, cpu.core_cycles, cpu.uncore_ns = start
        space = AddressSpace(seed=0)
        self.nic = Nic(self.mem.params, self.mem, space, trace=None)
        self.pool = Mempool(space, n=4)

    def state(self):
        return full_state(self.mem, self.cpus) + (
            self.nic.tx_sent, self.nic.tx_bytes)


def core_totals(cpus):
    return [(cpu.instructions.hex(), cpu.core_cycles.hex(),
             cpu.uncore_ns.hex()) for cpu in cpus]


def full_state(mem, cpus):
    return (core_totals(cpus), state(mem), mem._rng.getstate(),
            list(mem.hierarchy.last_line),
            [tlb.last_page for tlb in mem.tlbs])


def memo_range(mem, memo):
    """The range a ``dma_write`` op adds over a core's memo line, if the
    op names one and that core holds a memo."""
    core, _, back, size = memo
    line_addr = mem.hierarchy.last_line[core]
    if line_addr is None:
        return None
    addr = max(0, line_addr * LINE - back)
    return addr, line_addr * LINE - addr + size


def apply_nic_op(rig, ref, op):
    """Charge one NIC-side op: ``rig`` in bursts, ``ref`` per frame."""
    kind = op[0]
    if kind == "dma_write":
        _, ranges, memo = op
        extra = memo_range(rig.mem, memo) if memo is not None else None
        if extra is not None:
            ranges = list(ranges)
            ranges.insert(min(memo[1], len(ranges)), extra)
        rig.mem.dma_write(ranges)
        for addr, size in ranges:
            reference_charge.dma_write(ref.mem, addr, size)
    elif kind == "tx":
        _, core, program, packets = op
        rows = []
        for meta, mbuf, data, state_base, length in packets:
            wqe, first_line, last_line = rig.nic.transmit(
                BufferRef(0, mbuf, data, meta), length)
            rows.append((meta, mbuf, wqe, data, state_base, first_line,
                         last_line))
        execute_bases(rig.cpus[core], program, rows, dma_read=True)
        for meta, mbuf, data, state_base, length in packets:
            wqe = reference_charge.transmit(
                ref.nic, BufferRef(0, mbuf, data, meta), length)
            reference_charge.charge(ref.cpus[core], program, meta, mbuf, wqe,
                                    data, state_base)
        for side in (rig, ref):
            side.nic.reap_tx(0)
    else:
        assert kind == "freelist"
        _, core, count = op
        rig.pool.charge_freelist(rig.cpus[core], count)
        head = ref.pool.freelist_region.base
        for _ in range(count):
            reference_charge.mem_access(ref.cpus[core], head, 8, True, 0.0)


def run_both(ops, n_cores, start):
    rig = Rig(n_cores, start)
    ref = Rig(n_cores, start)
    mem, cpus = rig.mem, rig.cpus
    ref_mem, ref_cpus = ref.mem, ref.cpus
    for op in ops:
        if op[0] == "charge":
            _, core, program, program_bases = op
            execute_bases(cpus[core], program, [program_bases])
            reference_charge.charge(ref_cpus[core], program, *program_bases)
        else:
            apply_nic_op(rig, ref, op)
        assert rig.state() == ref.state(), op
    return (mem, cpus), (ref_mem, ref_cpus)


@settings(max_examples=150, deadline=None)
@given(ops=operations(1), start=st.tuples(totals, totals, totals))
def test_one_core_matches_the_reference_charge(ops, start):
    run_both(ops, 1, start)


@settings(max_examples=100, deadline=None)
@given(ops=operations(4), start=st.tuples(totals, totals, totals))
def test_four_cores_match_the_reference_charge(ops, start):
    run_both(ops, 4, start)


def test_a_raising_walk_keeps_the_compute_and_branch_miss_charge():
    """A ``None`` base raises inside the walk.  The core keeps the
    compute and branch-miss charge and none of the rows' costs, on both
    sides.  The rows charged before the raise moved the core's L1 and
    TLB, so the same-line memo must move with them: the next charge,
    on the line the memo held before the raise, must take the full walk
    as the reference does."""
    touch = ExecProgram(name="touch", instructions=0.1,
                        mem_ops=[MemOp(TARGET_STATE, 0, 8)])
    # Its first row is on another page, in the same L1 set as ``touch``'s
    # line; its second row raises when the descriptor base is None.
    raises = ExecProgram(
        name="raises", instructions=41.7, branch_miss_expect=2.5,
        mem_ops=[MemOp(TARGET_STATE, 2 * LINE, 8),
                 MemOp(TARGET_DESCRIPTOR, 0, 8)],
    )
    good = (BASES[3], BASES[3], BASES[3], BASES[4], BASES[1])
    broken = good[:2] + (None,) + good[3:]
    (mem, cpus), (ref_mem, ref_cpus) = run_both(
        [("charge", 0, raises, good), ("charge", 0, touch, good)], 1,
        (0.1, 7.7, 1e6 + 0.1))
    before = (cpus[0].instructions, cpus[0].core_cycles, cpus[0].uncore_ns)
    misses = mem.counters[0].snapshot()["branch_misses"]

    with pytest.raises(TypeError):
        execute_bases(cpus[0], raises, [broken])
    with pytest.raises(TypeError):
        reference_charge.charge(ref_cpus[0], raises, *broken)
    params = mem.params
    expected = (before[0] + 41.7,
                before[1] + 41.7 / params.issue_ipc
                + params.branch_miss_cycles * 2.5,
                before[2])
    for cpu in (cpus[0], ref_cpus[0]):
        assert (cpu.instructions, cpu.core_cycles, cpu.uncore_ns) == expected
    assert mem.counters[0].snapshot()["branch_misses"] == misses + 2
    assert full_state(mem, cpus) == full_state(ref_mem, ref_cpus)

    for program in (touch, raises, touch):
        execute_bases(cpus[0], program, [good])
        reference_charge.charge(ref_cpus[0], program, *good)
        assert full_state(mem, cpus) == full_state(ref_mem, ref_cpus)


#: One packet's (meta, mbuf, descriptor, data, state) bases; an mbuf base
#: of 0 is a packet without an rte_mbuf (X-Change), whose prefetch is
#: skipped.  Packet bases are unaligned, so 64- and 128-byte prefetches
#: cross lines.
burst_rows = st.lists(
    st.tuples(packet_bases, st.one_of(st.just(0), packet_bases),
              packet_bases, packet_bases, state_bases),
    max_size=8,
)


def burst_operations(n_cores):
    core = st.integers(0, n_cores - 1)
    # (row, base index) to replace with None, if the burst has that row.
    broken = st.one_of(st.none(), st.tuples(st.integers(0, 7),
                                            st.integers(0, 4)))
    return st.lists(
        st.one_of(
            st.tuples(st.just("burst"), core, programs, burst_rows,
                      st.booleans(), broken),
            st.tuples(st.just("burst"), core, programs, burst_rows,
                      st.booleans(), broken),
            *nic_operations(n_cores),
        ),
        max_size=12,
    )


def run_bursts(ops, n_cores, start):
    rig = Rig(n_cores, start)
    ref = Rig(n_cores, start)
    cpus, ref_cpus = rig.cpus, ref.cpus
    for op in ops:
        if op[0] != "burst":
            apply_nic_op(rig, ref, op)
        else:
            _, core, program, rows, rx, broken = op
            if broken is not None and broken[0] < len(rows):
                row, index = broken
                rows = list(rows)
                rows[row] = rows[row][:index] + (None,) + rows[row][index + 1:]
            if rx:
                prefetch, reference = RX_PREFETCH, reference_charge.rx_charge
            else:
                prefetch, reference = (), reference_charge.charge
            raised = ref_raised = False
            try:
                execute_bases(cpus[core], program, rows, prefetch)
            except TypeError:
                raised = True
            try:
                for row in rows:
                    reference(ref_cpus[core], program, *row)
            except TypeError:
                ref_raised = True
            assert raised == ref_raised, op
        assert rig.state() == ref.state(), op


@settings(max_examples=150, deadline=None)
@given(ops=burst_operations(1), start=st.tuples(totals, totals, totals))
def test_one_core_bursts_match_per_packet_charges(ops, start):
    run_bursts(ops, 1, start)


@settings(max_examples=100, deadline=None)
@given(ops=burst_operations(4), start=st.tuples(totals, totals, totals))
def test_four_core_bursts_match_per_packet_charges(ops, start):
    run_bursts(ops, 4, start)


@pytest.mark.parametrize("index, misses", [(3, 4), (4, 6)])
def test_a_raising_row_keeps_the_rows_before_it(index, misses):
    """A receive burst whose third row has a ``None`` base raises there.
    The first two rows are fully charged on both sides.  A ``None`` data
    base raises in the row's data prefetch, so the row keeps its first
    three prefetches and no compute charge; a ``None`` state base raises
    in the walk, so the row keeps its prefetches and its compute and
    branch-miss charge but no memory costs."""
    program = ExecProgram(name="rx", instructions=41.7,
                          branch_miss_expect=2.5,
                          mem_ops=[MemOp(TARGET_PACKET_META, 8, 8),
                                   MemOp(TARGET_DATA, 0, 14),
                                   MemOp(TARGET_STATE, 0, 8)])
    good = (BASES[3] + 8, BASES[3] + 3 * LINE, BASES[3] + 16 * LINE + 4,
            BASES[4] + 40, BASES[1])
    broken = good[:index] + (None,) + good[index + 1:]
    rows = [good, good[:1] + (0,) + good[2:], broken]
    rig = Rig(1, (0.1, 7.7, 1e6 + 0.1))
    ref = Rig(1, (0.1, 7.7, 1e6 + 0.1))
    mem, cpus = rig.mem, rig.cpus
    ref_mem, ref_cpus = ref.mem, ref.cpus
    with pytest.raises(TypeError):
        execute_bases(cpus[0], program, rows, RX_PREFETCH)
    with pytest.raises(TypeError):
        for row in rows:
            reference_charge.rx_charge(ref_cpus[0], program, *row)
    assert full_state(mem, cpus) == full_state(ref_mem, ref_cpus)
    # round(2.5) == 2 misses per compute charge made.
    assert mem.counters[0].snapshot()["branch_misses"] == misses


@pytest.mark.parametrize("n_cores", [1, 4])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_a_raising_tx_row_keeps_the_rows_before_it(n_cores, index):
    """A TX burst whose row ``index`` has a ``None`` metadata base raises
    in that row's walk.  The rows before it are fully charged on both
    sides, and the raising row keeps its frame's DMA read and its compute
    and branch-miss charge but no memory costs.  The frames were DMA-
    written first, so each read promotes LLC lines."""
    program = ExecProgram(name="tx", instructions=41.7,
                          branch_miss_expect=2.5,
                          mem_ops=[MemOp(TARGET_DESCRIPTOR, 0, 16),
                                   MemOp(TARGET_PACKET_META, 8, 8),
                                   MemOp(TARGET_DATA, 0, 14)])
    packets = [(BASES[3] + 8 + 3 * i * LINE, 0, BASES[4] + 40 + i * LINE,
                BASES[1], 60 + 70 * i) for i in range(3)]
    meta, mbuf, data, state_base, length = packets[index]
    packets[index] = (None, mbuf, data, state_base, length)
    core = n_cores - 1
    start = (0.1, 7.7, 1e6 + 0.1)
    rig, ref = Rig(n_cores, start), Rig(n_cores, start)
    warm = [(data, length) for _, _, data, _, length in packets]
    rig.mem.dma_write(warm)
    for addr, size in warm:
        reference_charge.dma_write(ref.mem, addr, size)

    rows = []
    for meta, mbuf, data, state_base, length in packets:
        wqe, first_line, last_line = rig.nic.transmit(
            BufferRef(0, mbuf, data, meta), length)
        rows.append((meta, mbuf, wqe, data, state_base, first_line,
                     last_line))
    with pytest.raises(TypeError):
        execute_bases(rig.cpus[core], program, rows, dma_read=True)
    with pytest.raises(TypeError):
        for meta, mbuf, data, state_base, length in packets:
            wqe = reference_charge.transmit(
                ref.nic, BufferRef(0, mbuf, data, meta), length)
            reference_charge.charge(ref.cpus[core], program, meta, mbuf,
                                    wqe, data, state_base)
    # The ring pushes of the rows after the raise are not compared: the
    # burst pushed every frame before its one charge.
    assert full_state(rig.mem, rig.cpus) == full_state(ref.mem, ref.cpus)
    assert rig.mem.counters[core].snapshot()["branch_misses"] == 2 * (index + 1)
