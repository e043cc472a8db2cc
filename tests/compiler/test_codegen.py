"""Trace-compiled kernels: generated-vs-interpreted bit-identity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import codegen
from repro.compiler.lower import (
    TARGET_DATA,
    TARGET_DESCRIPTOR,
    TARGET_PACKET_MBUF,
    TARGET_PACKET_META,
    TARGET_STATE,
    ExecProgram,
    MemOp,
)
from repro.compiler.runtime import execute_bases, execute_interpreted

TARGETS = (
    TARGET_PACKET_META,
    TARGET_PACKET_MBUF,
    TARGET_DESCRIPTOR,
    TARGET_DATA,
    TARGET_STATE,
)

mem_ops = st.lists(
    st.builds(
        MemOp,
        target=st.sampled_from(TARGETS),
        offset=st.integers(min_value=0, max_value=4096),
        size=st.sampled_from((1, 2, 4, 8, 16, 64)),
        write=st.booleans(),
    ),
    max_size=12,
)

random_ops = st.lists(
    st.tuples(
        st.integers(min_value=64, max_value=1 << 20),
        st.integers(min_value=1, max_value=12),
    ),
    max_size=3,
)

programs = st.builds(
    ExecProgram,
    name=st.just("prop"),
    instructions=st.floats(min_value=0.0, max_value=1e6,
                           allow_nan=False, allow_infinity=False),
    branch_miss_expect=st.floats(min_value=0.0, max_value=64.0,
                                 allow_nan=False, allow_infinity=False),
    mem_ops=mem_ops,
    random_ops=random_ops,
)


def _states(program, runner):
    cpu = codegen._shadow_cpu()
    runner(cpu)
    return codegen._shadow_state(cpu)


@settings(max_examples=60, deadline=None)
@given(program=programs)
def test_generated_kernels_match_both_interpreters(program):
    """The property behind the tier API: every random program charges the
    exact same state through generated code, the op-tuple loop, and the
    MemOp interpreter."""
    compiled = codegen.compile_program(program)
    meta, mbuf, descriptor, data, state = codegen._SHADOW_BASES

    reference = _states(program, lambda cpu: execute_interpreted(
        cpu, program, meta, mbuf, descriptor, data, state))
    tuples = _states(program, lambda cpu: execute_bases(
        cpu, program, [(meta, mbuf, descriptor, data, state)]))
    generated = _states(program, lambda cpu: compiled.scalar(
        cpu, meta, mbuf, descriptor, data, state))
    assert reference == tuples == generated

    batch = [
        codegen._ShadowPacket(
            codegen._ShadowRef(meta, mbuf, descriptor, data)),
        codegen._ShadowPacket(None),
    ]

    def run_batch_interpreted(cpu):
        for pkt in batch:
            ref = pkt.mbuf
            if ref is not None:
                execute_interpreted(cpu, program, ref.meta_addr,
                                    ref.mbuf_addr, ref.cqe_addr,
                                    ref.data_addr, state)
            else:
                execute_interpreted(cpu, program, 0, 0, 0, 0, state)

    assert _states(program, run_batch_interpreted) == _states(
        program, lambda cpu: compiled.batch(cpu, batch, state))


def test_constants_are_baked_into_the_source():
    program = ExecProgram(
        name="bake", instructions=37.0, branch_miss_expect=2.0,
        mem_ops=[MemOp(TARGET_PACKET_META, offset=24, size=8)],
        random_ops=[(4096, 2)],
    )
    source = codegen.generate_scalar_source(program, "_gen_bake")
    assert "37.0" in source
    assert "meta + 24" in source
    assert "4096" in source
    # Specialized code never walks the program: no loop over mem_ops.
    assert "mem_ops" not in source


def test_zero_charges_are_dead_code_eliminated():
    source = codegen.generate_scalar_source(
        ExecProgram(name="empty"), "_gen_empty")
    assert "cpu.instructions" not in source
    assert "_access" not in source


def test_compile_is_memoized_per_program():
    codegen.reset_stats()
    program = ExecProgram(name="memo", instructions=5.0)
    first = codegen.compile_program(program)
    second = codegen.compile_program(program)
    assert first is second
    assert codegen.stats()["compiles"] == 1
    assert codegen.stats()["memo_hits"] == 1


def test_selfcheck_refuses_a_wrong_kernel(monkeypatch):
    """A tampered emitter must fail the compile, not skew measurements."""
    real = codegen.generate_scalar_source

    def tampered(program, name):
        return real(program, name).replace("37.0", "38.0")

    monkeypatch.setattr(codegen, "generate_scalar_source", tampered)
    program = ExecProgram(name="tampered", instructions=37.0)
    with pytest.raises(codegen.CodegenError):
        codegen.compile_program(program)
    assert "_codegen_compiled" not in program.__dict__


def test_verify_hook_failure_surfaces_as_codegen_error():
    codegen.reset_stats()

    def refuse(program):
        raise ValueError("offset out of range")

    program = ExecProgram(name="refused", instructions=1.0)
    with pytest.raises(codegen.CodegenError, match="offset out of range"):
        codegen.compile_program(program, verify=refuse)


def test_verify_hook_runs_before_generation():
    calls = []
    program = ExecProgram(name="verified", instructions=1.0)
    codegen.compile_program(
        program, verify=lambda p: calls.append(p.name))
    assert calls == ["verified"]
