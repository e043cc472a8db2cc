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
from repro.dpdk.pmd import RX_PREFETCH
from repro.hw.cpu import CpuCore
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


def operations(n_cores):
    core = st.integers(0, n_cores - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("charge"), core, programs, bases),
            st.tuples(st.just("charge"), core, programs, bases),
            st.tuples(st.just("charge"), core, programs, bases),
            # A DMA write, which may clear a core's same-line memo.
            st.tuples(st.just("dma_write"), packet_bases,
                      st.integers(1, 3 * LINE)),
        ),
        max_size=40,
    )


def build(n_cores, start):
    mem = MemorySystem(params(), n_cores)
    cpus = [CpuCore(mem.params, mem, core) for core in range(n_cores)]
    for cpu in cpus:
        cpu.instructions, cpu.core_cycles, cpu.uncore_ns = start
    return mem, cpus


def core_totals(cpus):
    return [(cpu.instructions.hex(), cpu.core_cycles.hex(),
             cpu.uncore_ns.hex()) for cpu in cpus]


def full_state(mem, cpus):
    return (core_totals(cpus), state(mem), mem._rng.getstate(),
            list(mem.hierarchy.last_line),
            [tlb.last_page for tlb in mem.tlbs])


def run_both(ops, n_cores, start):
    mem, cpus = build(n_cores, start)
    ref_mem, ref_cpus = build(n_cores, start)
    for op in ops:
        if op[0] == "charge":
            _, core, program, program_bases = op
            execute_bases(cpus[core], program, [program_bases])
            reference_charge.charge(ref_cpus[core], program, *program_bases)
        else:
            mem.dma_write(op[1], op[2])
            ref_mem.dma_write(op[1], op[2])
        assert full_state(mem, cpus) == full_state(ref_mem, ref_cpus), op
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
            st.tuples(st.just("dma_write"), packet_bases,
                      st.integers(1, 3 * LINE)),
        ),
        max_size=12,
    )


def run_bursts(ops, n_cores, start):
    mem, cpus = build(n_cores, start)
    ref_mem, ref_cpus = build(n_cores, start)
    for op in ops:
        if op[0] == "dma_write":
            mem.dma_write(op[1], op[2])
            ref_mem.dma_write(op[1], op[2])
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
        assert full_state(mem, cpus) == full_state(ref_mem, ref_cpus), op


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
    mem, cpus = build(1, (0.1, 7.7, 1e6 + 0.1))
    ref_mem, ref_cpus = build(1, (0.1, 7.7, 1e6 + 0.1))
    with pytest.raises(TypeError):
        execute_bases(cpus[0], program, rows, RX_PREFETCH)
    with pytest.raises(TypeError):
        for row in rows:
            reference_charge.rx_charge(ref_cpus[0], program, *row)
    assert full_state(mem, cpus) == full_state(ref_mem, ref_cpus)
    # round(2.5) == 2 misses per compute charge made.
    assert mem.counters[0].snapshot()["branch_misses"] == misses
