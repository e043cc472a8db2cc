"""Pass manager and the compile step every build and analysis runs.

LLVM's pass-manager discipline, miniaturized: passes run in a declared
order, each application is recorded (op/instruction deltas), and the
whole pipeline can be rendered as a report -- which is how the examples
and tests show *what the mill actually did* to each element.

:func:`compile_graph` is the compile half of the paper's Fig. 3 pipeline
(layouts, element passes, whole-program reordering, lowering), the one
copy that :class:`~repro.core.packetmill.PacketMill` and
:func:`~repro.analyze.analyze_graph` both call.  :func:`compile_pmd`
compiles the driver's RX/TX programs in the same step: with LTO the
X-Change conversion calls are compiled together with the elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.compiler.ir import Compute, Program
from repro.compiler.lower import ExecProgram, lower
from repro.compiler.passes import (
    devirtualize,
    eliminate_dead_code,
    embed_constants,
    inline_calls,
    profile_guided,
    reorder_metadata,
    vectorize,
)
from repro.compiler.structlayout import LayoutRegistry

PassFn = Callable[[Program], Program]


def _instruction_count(program: Program) -> float:
    total = 0.0
    for op in program.ops:
        if isinstance(op, Compute):
            total += op.instructions
    return total


@dataclass(frozen=True)
class PassRecord:
    """One pass applied to one program."""

    pass_name: str
    program_name: str
    ops_before: int
    ops_after: int
    compute_before: float
    compute_after: float

    @property
    def removed_ops(self) -> int:
        return self.ops_before - self.ops_after

    @property
    def changed(self) -> bool:
        return (
            self.removed_ops != 0 or self.compute_before != self.compute_after
        )


@dataclass
class PassManager:
    """Apply a named pass sequence, recording every application."""

    passes: List[Tuple[str, PassFn]] = field(default_factory=list)
    records: List[PassRecord] = field(default_factory=list)
    #: Hook called as ``verifier(program, pass_name)`` after every pass
    #: application; the analysis installs the IR verifier here
    #: (:func:`repro.analyze.attach_verifier`) so the pass that introduced
    #: a violation is named at the point it ran.  Builds leave it unset.
    verifier: Optional[Callable[[Program, str], None]] = None

    def add(self, name: str, fn: PassFn) -> "PassManager":
        self.passes.append((name, fn))
        return self

    def run(self, program: Program) -> Program:
        for name, fn in self.passes:
            before_ops = len(program)
            before_compute = _instruction_count(program)
            program = fn(program)
            if self.verifier is not None:
                self.verifier(program, name)
            self.records.append(
                PassRecord(
                    pass_name=name,
                    program_name=program.name,
                    ops_before=before_ops,
                    ops_after=len(program),
                    compute_before=before_compute,
                    compute_after=_instruction_count(program),
                )
            )
        return program

    # -- reporting ----------------------------------------------------------------

    def report(self, only_changed: bool = True) -> str:
        lines = ["pass pipeline: " + " -> ".join(name for name, _ in self.passes)]
        for record in self.records:
            if only_changed and not record.changed:
                continue
            lines.append(
                "  %-18s %-22s ops %d -> %d, compute %.0f -> %.0f"
                % (record.pass_name, record.program_name,
                   record.ops_before, record.ops_after,
                   record.compute_before, record.compute_after)
            )
        return "\n".join(lines)

    @classmethod
    def from_options(cls, options) -> "PassManager":
        """The element pipeline PacketMill runs for the given build options
        (the PMD's RX/TX programs get theirs from :func:`compile_pmd`)."""
        manager = cls()
        if options.devirtualize or options.static_graph:
            manager.add("devirtualize", devirtualize)
        if options.constant_embedding:
            manager.add("embed-constants", embed_constants)
            manager.add("dead-code", eliminate_dead_code)
        if options.static_graph or options.lto:
            manager.add("inline", inline_calls)
        if options.pgo:
            manager.add("pgo", profile_guided)
        return manager


class CompiledGraph(NamedTuple):
    """What :func:`compile_graph` produces for one configuration."""

    #: The active struct layouts (``Packet`` reordered when requested).
    registry: LayoutRegistry
    #: Each element's program after the pass pipeline, by element name.
    element_ir: Dict[str, Program]
    #: Each element's program lowered against ``registry``.
    exec_programs: Dict[str, ExecProgram]
    #: The PMD's ``(rx, tx)`` programs after :func:`compile_pmd`.
    pmd_programs: Tuple[ExecProgram, ExecProgram]


def compile_graph(graph, model, options,
                  pass_manager: PassManager) -> CompiledGraph:
    """Compile every element of ``graph`` under ``model`` and ``options``.

    Registers the model's layouts, runs ``pass_manager`` over each
    element's program, reorders ``Packet`` by the whole program's access
    counts (elements plus the PMD's raw RX/TX programs) when the options
    ask for it, and lowers each element and the PMD's programs against the
    resulting layouts.
    """
    registry = LayoutRegistry()
    model.register_layouts(registry)
    element_ir = {
        e.name: pass_manager.run(e.ir_program()) for e in graph.all_elements()
    }
    if options.reorder_metadata:
        whole_program = list(element_ir.values()) + [
            model.rx_program(), model.tx_program(),
        ]
        reorder_metadata(whole_program, registry, struct="Packet")
    exec_programs = {
        name: lower(program, registry) for name, program in element_ir.items()
    }
    return CompiledGraph(registry, element_ir, exec_programs,
                         compile_pmd(model, options, registry, pass_manager))


def compile_pmd(model, options, registry: LayoutRegistry,
                pass_manager: PassManager) -> Tuple[ExecProgram, ExecProgram]:
    """The ``(rx, tx)`` programs the PMD runs under ``model`` and ``options``.

    The driver gets none of the element passes: ``inline`` under LTO
    only (a static graph inlines elements, not the PMD), ``vectorize``
    under ``vectorized_pmd`` and ``pgo`` under PGO, in that order.  The
    passes run under ``pass_manager``'s verifier, their records are
    appended to ``pass_manager``'s, and both programs are lowered against
    ``registry`` (the build's final layouts).
    """
    passes = PassManager(verifier=pass_manager.verifier)
    if options.lto:
        passes.add("inline", inline_calls)
    if options.vectorized_pmd:
        passes.add("vectorize", vectorize)
    if options.pgo:
        passes.add("pgo", profile_guided)
    rx_exec = lower(passes.run(model.rx_program()), registry)
    tx_exec = lower(passes.run(model.tx_program()), registry)
    pass_manager.records.extend(passes.records)
    return rx_exec, tx_exec
