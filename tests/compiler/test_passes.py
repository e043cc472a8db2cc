"""Tests for the IR, the optimization passes, and lowering."""

import pytest

from repro.compiler.ir import (
    BranchHint,
    Compute,
    DataAccess,
    DirectCall,
    FieldAccess,
    ParamRead,
    PoolOp,
    Program,
    RandomAccess,
    StateAccess,
    VirtualCall,
    merge_access_counts,
)
from repro.compiler.lower import MemOp, lower
from repro.compiler.passes import (
    devirtualize,
    eliminate_dead_code,
    embed_constants,
    inline_calls,
    reorder_metadata,
)
from repro.compiler.passes.reorder import ReorderError
from repro.compiler.passes.transforms import DEAD_NOTE, FOLDABLE_NOTE, FOLD_FACTOR
from repro.compiler.structlayout import Field, LayoutRegistry, StructLayout


def packet_layout():
    return StructLayout(
        "Packet",
        [Field("cold", 8), Field("length", 4), Field("data_ptr", 8)],
    )


def registry():
    reg = LayoutRegistry()
    reg.register(packet_layout())
    reg.register(StructLayout("rte_mbuf", [Field("buf_addr", 8), Field("pkt_len", 4)]))
    return reg


def sample_program():
    return Program(
        "EtherMirror",
        [
            VirtualCall("push_batch"),
            ParamRead("burst", offset=16),
            Compute(20, note=FOLDABLE_NOTE),
            Compute(5, note=DEAD_NOTE),
            Compute(30),
            FieldAccess("Packet", "length"),
            DataAccess(0, 12, write=True),
            BranchHint(0.1),
        ],
    )


class TestProgram:
    def test_count(self):
        assert sample_program().count(Compute) == 3
        assert sample_program().count(VirtualCall) == 1

    def test_access_counts(self):
        program = Program(
            "x",
            [FieldAccess("Packet", "length"), FieldAccess("Packet", "length"),
             FieldAccess("Packet", "cold"), FieldAccess("rte_mbuf", "pkt_len")],
        )
        assert program.access_counts("Packet") == {"length": 2, "cold": 1}

    def test_merge_access_counts(self):
        a = Program("a", [FieldAccess("Packet", "length")])
        b = Program("b", [FieldAccess("Packet", "length"), FieldAccess("Packet", "cold")])
        assert merge_access_counts([a, b], "Packet") == {"length": 2, "cold": 1}

    def test_add_and_len(self):
        program = Program("p").add(Compute(1)).add(Compute(2))
        assert len(program) == 2


class TestDevirtualize:
    def test_virtual_becomes_direct(self):
        out = devirtualize(sample_program())
        assert out.count(VirtualCall) == 0
        assert out.count(DirectCall) == 1

    def test_other_ops_preserved(self):
        out = devirtualize(sample_program())
        assert out.count(Compute) == 3
        assert out.count(ParamRead) == 1

    def test_idempotent(self):
        out = devirtualize(devirtualize(sample_program()))
        assert out.count(DirectCall) == 1


class TestEmbedConstants:
    def test_param_reads_removed(self):
        out = embed_constants(sample_program())
        assert out.count(ParamRead) == 0

    def test_dead_compute_removed(self):
        out = embed_constants(sample_program())
        notes = [op.note for op in out.ops if isinstance(op, Compute)]
        assert DEAD_NOTE not in notes

    def test_foldable_compute_shrinks(self):
        from repro.compiler.passes.transforms import FOLDED_NOTE

        out = embed_constants(sample_program())
        folded = [op for op in out.ops if isinstance(op, Compute) and op.note == FOLDED_NOTE]
        assert folded[0].instructions == pytest.approx(20 * (1 - FOLD_FACTOR))

    def test_embed_constants_idempotent(self):
        once = embed_constants(sample_program())
        twice = embed_constants(once)
        assert [op for op in once.ops] == [op for op in twice.ops]

    def test_plain_compute_untouched(self):
        out = embed_constants(sample_program())
        plain = [op for op in out.ops if isinstance(op, Compute) and op.note == ""]
        assert plain[0].instructions == 30

    def test_virtual_calls_untouched(self):
        assert embed_constants(sample_program()).count(VirtualCall) == 1


class TestInline:
    def test_removes_all_calls(self):
        out = inline_calls(devirtualize(sample_program()))
        assert out.count(DirectCall) == 0
        assert out.count(VirtualCall) == 0

    def test_removes_virtual_calls_too(self):
        # Static graph implies full devirtualization, then inlining.
        out = inline_calls(sample_program())
        assert out.count(VirtualCall) == 0


class TestDeadCode:
    def test_only_dead_removed(self):
        out = eliminate_dead_code(sample_program())
        assert out.count(Compute) == 2
        assert out.count(ParamRead) == 1


class TestReorderPass:
    def test_reorders_registry_layout(self):
        reg = registry()
        programs = [
            Program("a", [FieldAccess("Packet", "length"), FieldAccess("Packet", "length")]),
            Program("b", [FieldAccess("Packet", "data_ptr")]),
        ]
        new_layout = reorder_metadata(programs, reg)
        assert new_layout.offset_of("length") == 0
        assert reg.resolve("Packet", "length")[0] == 0

    def test_refuses_hardware_structs(self):
        reg = registry()
        with pytest.raises(ReorderError):
            reorder_metadata([], reg, struct="rte_mbuf")

    def test_unreferenced_struct_unchanged_order(self):
        reg = registry()
        before = [f.name for f in reg.get("Packet").fields]
        reorder_metadata([Program("empty")], reg)
        after = [f.name for f in reg.get("Packet").fields]
        assert before == after


class TestLowering:
    def test_field_access_resolved(self):
        out = lower(Program("p", [FieldAccess("Packet", "length", write=True)]), registry())
        assert out.mem_ops == [MemOp("packet_meta", 8, 4, True)]

    def test_lowering_sees_reordered_layout(self):
        reg = registry()
        program = Program("p", [FieldAccess("Packet", "length")])
        reorder_metadata([program], reg)
        out = lower(program, reg)
        assert out.mem_ops[0].offset == 0

    def test_instruction_accounting(self):
        out = lower(sample_program(), registry())
        # ParamRead: 1 + 2 folded; computes: 20+5+30; field access: 1;
        # data access: 1; virtual call: 8; branch: 1.
        assert out.instructions == pytest.approx(3 + 55 + 1 + 1 + 8 + 1)

    def test_branch_miss_accumulation(self):
        out = lower(sample_program(), registry())
        assert out.branch_miss_expect == pytest.approx(0.45 + 0.1)
        assert out.virtual_calls == 1

    def test_pool_ops(self):
        out = lower(Program("p", [PoolOp("get"), PoolOp("put"), PoolOp("put")]), registry())
        assert out.pool_gets == 1
        assert out.pool_puts == 2

    def test_pool_op_bad_kind(self):
        with pytest.raises(ValueError):
            lower(Program("p", [PoolOp("borrow")]), registry())

    def test_random_ops(self):
        out = lower(Program("p", [RandomAccess(1 << 20, count=5)]), registry())
        assert out.random_ops == [(1 << 20, 5)]
        assert out.instructions == 10

    def test_state_access(self):
        out = lower(Program("p", [StateAccess(32, 8, write=True)]), registry())
        assert out.mem_ops == [MemOp("state", 32, 8, True)]

    def test_bad_target_rejected(self):
        program = Program("p", [FieldAccess("Packet", "length", target="bogus")])
        with pytest.raises(ValueError):
            lower(program, registry())

    def test_footprint_lines(self):
        program = Program(
            "p",
            [
                FieldAccess("Packet", "cold"),
                FieldAccess("Packet", "length"),
                DataAccess(0, 64),
            ],
        )
        out = lower(program, registry())

        def lines(target):
            return {line for op in out.mem_ops if op.target == target
                    for line in range(op.offset // 64,
                                      (op.offset + op.size - 1) // 64 + 1)}

        assert len(lines("packet_meta")) == 1
        assert len(lines("data")) == 1

    def test_full_pipeline_cost_reduction(self):
        """All passes together must strictly reduce instructions and misses."""
        reg = registry()
        base = lower(sample_program(), reg)
        optimized_ir = inline_calls(embed_constants(devirtualize(sample_program())))
        optimized = lower(optimized_ir, reg)
        assert optimized.instructions < base.instructions
        assert optimized.branch_miss_expect < base.branch_miss_expect
        assert len(optimized.mem_ops) < len(base.mem_ops)
