"""ProgramFacts: proven-dead work the execution tiers may skip.

The constant-propagation pass (:mod:`repro.analyze.constprop`) proves
facts about a configuration -- a classifier arm that can never match
under the byte values flowing into it, a switch whose route is decided
upstream -- and expresses the executable consequence as a
:class:`ProgramFacts` delta per element: charges the lowered
:class:`~repro.compiler.lower.ExecProgram` may drop without changing any
packet's bytes or route.

This module deliberately knows nothing about *how* the facts were
proven; it only knows how to

- compute the delta between an original and a specialized lowering
  (:func:`facts_between`), and
- replay it onto a program (:meth:`ProgramFacts.apply`), producing the
  pruned ExecProgram every tier then runs -- both tiers execute the
  *same* pruned program, and codegen's compile-time self-check replays
  generated kernels against the reference walk on exactly that program.

Layering: ``repro.compiler`` sits below ``repro.analyze``; the analyzer
imports this module, never the other way around.  The dataclass is
frozen and tuple-backed so build caches can key on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.compiler.lower import ExecProgram, MemOp


class FactsError(ValueError):
    """The facts delta does not match the program it is applied to."""


#: A mem op as a hashable row (target, offset, size, write).
MemRow = Tuple[str, int, int, bool]


def _rows(program: ExecProgram) -> Tuple[MemRow, ...]:
    return tuple(
        (op.target, op.offset, op.size, op.write) for op in program.mem_ops
    )


@dataclass(frozen=True)
class ProgramFacts:
    """The provably-dead slice of one element's lowered program.

    All fields are deltas to *subtract*; ``dead_mem_ops`` and
    ``dead_random_ops`` are removed as order-preserving subsequences
    (specialization only deletes operations, never reorders them).
    ``branches_eliminated`` counts the dispatch branches whose
    misprediction expectation was removed -- the headline number the
    telemetry counters report.
    """

    program: str
    dead_instructions: float = 0.0
    dead_branch_expect: float = 0.0
    dead_mem_ops: Tuple[MemRow, ...] = ()
    dead_random_ops: Tuple[Tuple[int, int], ...] = ()
    branches_eliminated: int = 0
    note: str = ""

    @property
    def is_empty(self) -> bool:
        return (
            not self.dead_instructions
            and not self.dead_branch_expect
            and not self.dead_mem_ops
            and not self.dead_random_ops
        )

    def apply(self, program: ExecProgram) -> ExecProgram:
        """The pruned program: ``program`` minus every dead charge.

        Raises :class:`FactsError` when the delta does not embed in the
        program (wrong program, stale facts) -- callers must treat that
        as "facts unusable", never silently run the original.
        """
        if program.name != self.program:
            raise FactsError(
                "facts for %r applied to program %r"
                % (self.program, program.name))
        mem_ops = list(program.mem_ops)
        for row in self.dead_mem_ops:
            target, offset, size, write = row
            for index, op in enumerate(mem_ops):
                if (op.target, op.offset, op.size, op.write) == row:
                    del mem_ops[index]
                    break
            else:
                raise FactsError(
                    "dead mem op %r not present in program %r"
                    % (row, program.name))
        random_ops = list(program.random_ops)
        for row in self.dead_random_ops:
            try:
                random_ops.remove(row)
            except ValueError:
                raise FactsError(
                    "dead random op %r not present in program %r"
                    % (row, program.name)) from None
        instructions = program.instructions - self.dead_instructions
        branch_expect = program.branch_miss_expect - self.dead_branch_expect
        if instructions < -1e-9 or branch_expect < -1e-9:
            raise FactsError(
                "facts remove more cost than program %r carries"
                % program.name)
        return ExecProgram(
            name=program.name,
            instructions=max(0.0, instructions),
            branch_miss_expect=max(0.0, branch_expect),
            virtual_calls=program.virtual_calls,
            mem_ops=mem_ops,
            random_ops=random_ops,
            pool_gets=program.pool_gets,
            pool_puts=program.pool_puts,
        )


def _subsequence_delta(original, specialized, label, name):
    """Rows of ``original`` not in ``specialized`` (which must embed)."""
    removed = []
    it = iter(original)
    for want in specialized:
        for row in it:
            if row == want:
                break
            removed.append(row)
        else:
            raise FactsError(
                "specialized %s of %r is not a subsequence of the "
                "original (row %r)" % (label, name, want))
    removed.extend(it)
    return tuple(removed)


def facts_between(
    original: ExecProgram,
    specialized: ExecProgram,
    branches_eliminated: int = 0,
    note: str = "",
) -> ProgramFacts:
    """The delta that turns ``original`` into ``specialized``.

    The specialized program must be a pure reduction: same pool behaviour,
    mem/random ops an order-preserving subsequence, costs no larger.
    ``branches_eliminated`` defaults to the count of whole-unit drops in
    the branch-miss expectation when not given explicitly.
    """
    if original.name != specialized.name:
        raise FactsError(
            "cannot diff %r against %r"
            % (original.name, specialized.name))
    if (specialized.pool_gets != original.pool_gets
            or specialized.pool_puts != original.pool_puts):
        raise FactsError(
            "specialization of %r changed pool behaviour" % original.name)
    dead_mem = _subsequence_delta(
        _rows(original), _rows(specialized), "mem ops", original.name)
    dead_random = _subsequence_delta(
        tuple(original.random_ops), tuple(specialized.random_ops),
        "random ops", original.name)
    dead_instructions = original.instructions - specialized.instructions
    dead_branch = original.branch_miss_expect - specialized.branch_miss_expect
    if dead_instructions < -1e-9 or dead_branch < -1e-9:
        raise FactsError(
            "specialization of %r increased cost" % original.name)
    return ProgramFacts(
        program=original.name,
        dead_instructions=max(0.0, dead_instructions),
        dead_branch_expect=max(0.0, dead_branch),
        dead_mem_ops=dead_mem,
        dead_random_ops=dead_random,
        branches_eliminated=branches_eliminated,
        note=note,
    )


def facts_signature(program_facts) -> tuple:
    """A hashable fingerprint of a ``{element: ProgramFacts}`` map.

    ``None`` (or an empty map) signs as ``None`` so facts-off builds key
    identically to pre-facts builds -- cache entries stay shared.
    """
    if not program_facts:
        return None
    return tuple(sorted(
        (name, facts) for name, facts in program_facts.items()
    ))


__all__ = [
    "FactsError",
    "ProgramFacts",
    "facts_between",
    "facts_signature",
]
