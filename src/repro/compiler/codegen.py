"""Trace-compilation of lowered programs into generated Python.

No build reaches this module: its kernels won their own microbenchmark
but ran whole QUICK figures at about 0.8x of
:func:`~repro.compiler.runtime.execute_bases`; it stays only while the
harness benchmark's tracer lists it as an entry point.

The module *compiles* each :class:`~repro.compiler.lower.ExecProgram`
into specialized Python source -- the simulator's analogue of the
paper's source-level code specialization:

- **constant embedding**: instruction totals, branch-miss expectations,
  field offsets, access sizes, and random-walk footprints are baked into
  the source as literals;
- **devirtualization**: the per-op dispatch (tuple unpack + target-index
  lookup + ``cpu.mem_access`` method call) becomes a straight-line
  sequence of calls on a hoisted bound method;
- **dead-code elimination**: zero charges, never-taken branch paths, and
  unused base registers are simply not emitted.

Each program yields two functions via ``compile()``/``exec``:

- a **scalar** kernel ``fn(cpu, meta, mbuf, descriptor, data, state)``
  with the same contract as :func:`execute_bases`, and
- a **batch** kernel ``fn(cpu, batch, state)`` that moves the per-packet
  loop *and* the mbuf base unpacking inside the generated code.

Both kernels charge the exact same sequence of costs as the reference
walk :func:`~repro.compiler.runtime.execute_interpreted`; the inlined
arithmetic reproduces :class:`~repro.hw.cpu.CpuCore`'s own expressions
term for term, so the simulated numbers are bit-identical.  A
compile-time **self-check** replays every freshly generated kernel and the
reference walk against shadow cores and refuses the artifact unless their
states match exactly.

The caller may pass a ``verify`` hook (for example the IR verifier); it
runs before every generation, and any failure surfaces as a
:class:`CodegenError`.

Compile counters live in a module-level registry (:func:`stats`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.compiler.lower import ExecProgram
from repro.compiler.runtime import TARGET_INDEX, execute_interpreted
from repro.telemetry.registry import CounterRegistry

#: Process-wide codegen statistics.
REGISTRY = CounterRegistry()

_COMPILES = REGISTRY.counter("compiles")
_COMPILE_NS = REGISTRY.counter("compile_ns")
_CACHE_HITS = REGISTRY.counter("memo_hits")
_SELFCHECKS = REGISTRY.counter("selfchecks")

#: Base-register names, indexed like the (meta, mbuf, descriptor, data,
#: state) tuple of :func:`execute_bases`.
_BASE_NAMES = ("meta", "mbuf", "descriptor", "data", "state")
#: Buffer-reference attribute providing each base (state is an argument).
_REF_ATTRS = ("meta_addr", "mbuf_addr", "cqe_addr", "data_addr")

#: Unroll random-access repetitions up to this count; loop beyond it.
_UNROLL_LIMIT = 8


class CodegenError(RuntimeError):
    """The program cannot be (or failed to be) trace-compiled."""


def stats() -> dict:
    """Flat ``{counter: value}`` snapshot of the codegen counters."""
    return REGISTRY.snapshot()


def reset_stats() -> None:
    REGISTRY.reset()


# -- source emission -----------------------------------------------------------


def _emit_charges(program: ExecProgram, out: List[str], indent: str) -> None:
    """The per-packet charge sequence, mirroring ``execute_bases`` exactly.

    Inlined term for term from :class:`~repro.hw.cpu.CpuCore`:
    ``charge_compute`` is ``instructions += I; core_cycles += I / ipc``,
    ``charge_branch_miss`` is ``core_cycles += miss_cycles * B`` plus the
    rounded counter bump, and a zero-instruction ``mem_access`` reduces to
    the hierarchy access and its cycle/ns deposits.
    """
    pad = out.append
    if program.instructions:
        literal = repr(float(program.instructions))
        pad(indent + "cpu.instructions += " + literal)
        pad(indent + "cpu.core_cycles += %s / _ipc" % literal)
    if program.branch_miss_expect:
        miss = repr(float(program.branch_miss_expect))
        pad(indent + "cpu.core_cycles += _bmc * " + miss)
        rounded = round(program.branch_miss_expect)
        if rounded:
            pad(indent + "_bmiss.value += %d" % rounded)
    for target, offset, size, write in _compiled_rows(program):
        base = _BASE_NAMES[target]
        addr = base if offset == 0 else "%s + %d" % (base, offset)
        pad(indent + "_c, _n = _access(_cid, %s, %d, %s)" % (addr, size, write))
        pad(indent + "cpu.core_cycles += _c")
        pad(indent + "cpu.uncore_ns += _n")
    for footprint, count in program.random_ops:
        body_indent = indent
        if count > _UNROLL_LIMIT:
            pad(indent + "for _ in range(%d):" % count)
            body_indent = indent + "    "
            count = 1
        for _ in range(count):
            pad(body_indent + "_c, _n = _analytic(_cid, %d)" % footprint)
            pad(body_indent + "cpu.core_cycles += _c")
            pad(body_indent + "cpu.uncore_ns += _n")


def _compiled_rows(program: ExecProgram):
    return tuple(
        (TARGET_INDEX[op.target], op.offset, op.size, op.write)
        for op in program.mem_ops
    )


def _emit_hoists(program: ExecProgram, out: List[str], indent: str) -> None:
    """Bind every hot attribute once, before the charge sequence."""
    if program.instructions:
        out.append(indent + "_ipc = cpu.params.issue_ipc")
    if program.branch_miss_expect:
        out.append(indent + "_bmc = cpu.params.branch_miss_cycles")
        if round(program.branch_miss_expect):
            out.append(
                indent + "_bmiss = cpu.mem.counters[cpu.core_id]"
                ".handles.branch_misses"
            )
    if program.mem_ops or program.random_ops:
        out.append(indent + "_cid = cpu.core_id")
    if program.mem_ops:
        out.append(indent + "_access = cpu.mem.access")
    if program.random_ops:
        out.append(indent + "_analytic = cpu.mem.analytic_access")


def _used_bases(program: ExecProgram) -> List[int]:
    used = sorted({row[0] for row in _compiled_rows(program)})
    return [index for index in used if index < len(_REF_ATTRS)]


def generate_scalar_source(program: ExecProgram, name: str) -> str:
    """Specialized source for one per-packet execution of ``program``."""
    out = ["def %s(cpu, meta, mbuf, descriptor, data, state):" % name]
    _emit_hoists(program, out, "    ")
    _emit_charges(program, out, "    ")
    if len(out) == 1:
        out.append("    pass")
    return "\n".join(out) + "\n"


def generate_batch_source(program: ExecProgram, name: str) -> str:
    """Specialized source charging a whole batch of packets.

    The loop and the mbuf base unpacking live inside the generated code,
    so the driver makes one Python call per (element, batch) instead of
    one per packet.  Packets without an attached buffer resolve every
    packet-relative base to 0, exactly as ``_charge_element`` does.
    """
    out = ["def %s(cpu, batch, state):" % name]
    _emit_hoists(program, out, "    ")
    used = _used_bases(program)
    out.append("    for _pkt in batch:")
    if used:
        names = [_BASE_NAMES[index] for index in used]
        out.append("        _ref = _pkt.mbuf")
        out.append("        if _ref is None:")
        out.append("            %s = 0" % " = ".join(names))
        out.append("        else:")
        for index, base in zip(used, names):
            out.append("            %s = _ref.%s" % (base, _REF_ATTRS[index]))
    body: List[str] = []
    _emit_charges(program, body, "        ")
    if not body:
        body.append("        pass")
    out.extend(body)
    return "\n".join(out) + "\n"


def _exec_source(source: str, name: str) -> Callable:
    namespace: dict = {}
    code = compile(source, "<codegen:%s>" % name, "exec")
    exec(code, namespace)
    return namespace[name]


# -- compile-time self-check ---------------------------------------------------


class _ShadowParams:
    """Deliberately awkward constants so inlining bugs cannot cancel out."""

    issue_ipc = 3.0
    branch_miss_cycles = 13.0
    freq_ghz = 2.3


class _ShadowHandle:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class _ShadowHandles:
    __slots__ = ("branch_misses",)

    def __init__(self):
        self.branch_misses = _ShadowHandle()


class _ShadowCounters:
    __slots__ = ("handles",)

    def __init__(self):
        self.handles = _ShadowHandles()


class _ShadowMem:
    """Deterministic stand-in for the memory hierarchy.

    Returns address-dependent (cycles, ns) pairs so a wrong offset, size,
    write flag, or access order shows up as a state mismatch.
    """

    def __init__(self):
        self.counters = [_ShadowCounters()]

    def access(self, core_id, addr, size, write):
        h = (addr * 2654435761 + size * 97 + (13 if write else 0)) % 1009
        return h * 0.25, h * 0.125

    def charge(self, cpu, instructions, miss, ops, random_ops, rows,
               prefetch=(), dma_read=False):
        """``MemorySystem.charge``'s sequence over this stand-in's costs,
        for :func:`execute_bases` on a shadow core; no caller passes
        prefetches or DMA reads."""
        params = cpu.params
        for bases in rows:
            cpu.instructions += instructions
            cycles = cpu.core_cycles + instructions / params.issue_ipc
            if miss:
                cycles += params.branch_miss_cycles * miss
                self.counters[0].handles.branch_misses.value += round(miss)
            ns = cpu.uncore_ns
            for target, offset, size, write in ops:
                op_cycles, op_ns = self.access(cpu.core_id,
                                               bases[target] + offset,
                                               size, write)
                cycles += op_cycles
                ns += op_ns
            cpu.core_cycles = cycles
            cpu.uncore_ns = ns
            for footprint, count in random_ops:
                for _ in range(count):
                    op_cycles, op_ns = self.analytic_access(cpu.core_id,
                                                            footprint)
                    cpu.core_cycles += op_cycles
                    cpu.uncore_ns += op_ns

    def analytic_access(self, core_id, footprint):
        return (footprint % 251) * 0.5, (footprint % 127) * 0.25


class _ShadowRef:
    __slots__ = ("meta_addr", "mbuf_addr", "cqe_addr", "data_addr")

    def __init__(self, meta, mbuf, cqe, data):
        self.meta_addr = meta
        self.mbuf_addr = mbuf
        self.cqe_addr = cqe
        self.data_addr = data


class _ShadowPacket:
    __slots__ = ("mbuf",)

    def __init__(self, mbuf):
        self.mbuf = mbuf


_SHADOW_BASES = (0x1040, 0x2080, 0x30C0, 0x4100, 0x5140)


def _shadow_cpu():
    from repro.hw.cpu import CpuCore

    return CpuCore(_ShadowParams(), _ShadowMem(), core_id=0)


def _shadow_state(cpu) -> tuple:
    return (
        cpu.instructions,
        cpu.core_cycles,
        cpu.uncore_ns,
        cpu.mem.counters[0].handles.branch_misses.value,
    )


def _selfcheck(program: ExecProgram, scalar: Callable, batch: Callable) -> None:
    """Replay generated vs. reference charges on shadow cores.

    Uses the *real* :class:`~repro.hw.cpu.CpuCore` arithmetic over a stub
    memory hierarchy, so any drift between the emitted source and
    :func:`execute_interpreted` -- including float-identity assumptions --
    fails the compile instead of skewing a measurement.
    """
    _SELFCHECKS.add(1)
    meta, mbuf, descriptor, data, state = _SHADOW_BASES
    reference = _shadow_cpu()
    execute_interpreted(reference, program, meta, mbuf, descriptor, data, state)
    generated = _shadow_cpu()
    scalar(generated, meta, mbuf, descriptor, data, state)
    if _shadow_state(reference) != _shadow_state(generated):
        raise CodegenError(
            "scalar kernel for %r diverges from the reference: %r != %r"
            % (program.name, _shadow_state(generated), _shadow_state(reference))
        )
    shadow_batch = [
        _ShadowPacket(_ShadowRef(meta, mbuf, descriptor, data)),
        _ShadowPacket(None),
        _ShadowPacket(_ShadowRef(meta + 192, mbuf + 64, descriptor + 32, data + 256)),
    ]
    reference = _shadow_cpu()
    for pkt in shadow_batch:
        ref = pkt.mbuf
        if ref is not None:
            execute_interpreted(reference, program, ref.meta_addr,
                                ref.mbuf_addr, ref.cqe_addr, ref.data_addr,
                                state)
        else:
            execute_interpreted(reference, program, 0, 0, 0, 0, state)
    generated = _shadow_cpu()
    batch(generated, shadow_batch, state)
    if _shadow_state(reference) != _shadow_state(generated):
        raise CodegenError(
            "batch kernel for %r diverges from the reference: %r != %r"
            % (program.name, _shadow_state(generated), _shadow_state(reference))
        )


# -- compilation entry point ---------------------------------------------------


@dataclass(frozen=True)
class CompiledProgram:
    """One program's generated-code artifact (both kernels + sources)."""

    name: str
    scalar: Callable
    batch: Callable
    scalar_source: str
    batch_source: str


def _mangle(name: str) -> str:
    mangled = "".join(c if c.isalnum() else "_" for c in name)
    if not mangled or mangled[0].isdigit():
        mangled = "_" + mangled
    return "_gen_" + mangled


def compile_program(
    program: ExecProgram,
    verify: Optional[Callable[[ExecProgram], None]] = None,
) -> CompiledProgram:
    """Generate, ``exec``, self-check, and memoize ``program``'s kernels.

    ``verify`` (when given) runs before generation -- the injected IR
    verifier; it must raise on a program that should not be compiled.
    Any failure, including a self-check mismatch, raises
    :class:`CodegenError`.
    """
    memo = program.__dict__.get("_codegen_compiled")
    if memo is not None:
        _CACHE_HITS.add(1)
        return memo
    start = time.perf_counter_ns()
    if verify is not None:
        try:
            verify(program)
        except CodegenError:
            raise
        except Exception as exc:
            raise CodegenError(
                "IR verification refused codegen of %r: %s"
                % (program.name, exc)
            ) from exc
    name = _mangle(program.name)
    try:
        scalar_source = generate_scalar_source(program, name)
        batch_source = generate_batch_source(program, name)
        scalar = _exec_source(scalar_source, name)
        batch = _exec_source(batch_source, name)
    except CodegenError:
        raise
    except Exception as exc:
        raise CodegenError(
            "failed to generate code for %r: %s" % (program.name, exc)
        ) from exc
    _selfcheck(program, scalar, batch)
    compiled = CompiledProgram(
        name=program.name,
        scalar=scalar,
        batch=batch,
        scalar_source=scalar_source,
        batch_source=batch_source,
    )
    program._codegen_compiled = compiled
    _COMPILES.add(1)
    _COMPILE_NS.add(time.perf_counter_ns() - start)
    return compiled


__all__ = [
    "CodegenError",
    "CompiledProgram",
    "REGISTRY",
    "compile_program",
    "generate_batch_source",
    "generate_scalar_source",
    "reset_stats",
    "stats",
]
