"""Execution of lowered cost programs against the hardware model.

:func:`execute` charges one packet's worth of an :class:`ExecProgram` to a
:class:`~repro.hw.cpu.CpuCore`: issue bandwidth for the instruction count,
expected branch-miss penalties, and one cache-hierarchy access per memory
op, with the op's target tag resolved to a concrete base address through
the supplied :class:`Bindings`.

Because ``execute`` runs once per packet per element, the per-op work is
specialized: each program's memory ops are flattened once into a tuple of
``(target_index, offset, size, write)`` rows (cached on the program), and
:func:`execute_bases` hands the whole tuple, with the packet's base
addresses, to :meth:`~repro.hw.memory.MemorySystem.access_ops` in one
call.  The hardware model charges the rows in order and adds each op's
cost to the core's running totals, so the result is bit-identical to one
``access`` call per op.

This module is also home to the **execution-tier API**.  The runtime has
grown three bit-identical ways of charging a program:

- :data:`ExecutionTier.INTERPRETER` -- walk the lowered ``MemOp``
  dataclasses per packet (:func:`execute_interpreted`), the pre-PR4
  reference semantics;
- :data:`ExecutionTier.COMPILED` -- the cached op-tuple loop
  (:func:`execute_bases`), the default;
- :data:`ExecutionTier.CODEGEN` -- per-program generated Python
  (:mod:`repro.compiler.codegen`), constants and offsets baked into
  specialized source.

:func:`select_tier` is the one place tier and fast-path guard decisions
are made: callers describe their instrumentation (faults, watchdog,
telemetry) and get back a :class:`TierSelection` with the effective tier
and whether the route-memoization fast path may engage.  ``REPRO_TIER``
picks the requested tier per process; ``REPRO_ROUTE_MEMO`` governs the
fast path (``REPRO_FASTPATH`` remains a deprecated alias).
"""

from __future__ import annotations

import enum
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Union

from repro.compiler.lower import (
    TARGET_DATA,
    TARGET_DESCRIPTOR,
    TARGET_PACKET_MBUF,
    TARGET_PACKET_META,
    TARGET_STATE,
    ExecProgram,
)

#: Target tag -> index into the (meta, mbuf, descriptor, data, state) tuple.
TARGET_INDEX = {
    TARGET_PACKET_META: 0,
    TARGET_PACKET_MBUF: 1,
    TARGET_DESCRIPTOR: 2,
    TARGET_DATA: 3,
    TARGET_STATE: 4,
}


@dataclass
class Bindings:
    """Base addresses the per-packet program's targets resolve to."""

    packet_meta: int = 0
    packet_mbuf: int = 0
    descriptor: int = 0
    data: int = 0
    state: int = 0

    def base_of(self, target: str) -> int:
        if target == TARGET_PACKET_META:
            return self.packet_meta
        if target == TARGET_PACKET_MBUF:
            return self.packet_mbuf
        if target == TARGET_DESCRIPTOR:
            return self.descriptor
        if target == TARGET_DATA:
            return self.data
        if target == TARGET_STATE:
            return self.state
        raise ValueError("unknown target %r" % target)


def compiled_ops(program: ExecProgram):
    """The program's memory ops as ``(target_index, offset, size, write)``
    rows, computed once and cached on the program object."""
    try:
        return program._compiled_ops
    except AttributeError:
        ops = tuple(
            (TARGET_INDEX[op.target], op.offset, op.size, op.write)
            for op in program.mem_ops
        )
        program._compiled_ops = ops
        return ops


def execute_bases(cpu, program: ExecProgram, meta: int, mbuf: int,
                  descriptor: int, data: int, state: int) -> None:
    """Charge one packet's execution with the base addresses unpacked.

    The fast entry point for the driver and PMD hot loops: no Bindings
    object is materialized.  Identical charge sequence to :func:`execute`.

    Memory and random ops charge no instructions (they were folded into
    ``program.instructions``), so their latency is added to the core
    directly, as the generated kernels do: ``CpuCore.mem_access`` with
    ``instructions=0.0`` would add ``cycles + 0.0 / ipc``, which is
    exactly ``cycles``.  All memory ops go to the hardware model in one
    :meth:`~repro.hw.memory.MemorySystem.access_ops` call, which adds
    each op's cost to the core's running totals in op order -- the same
    float additions as one ``access`` call per op.
    """
    cpu.charge_compute(program.instructions)
    if program.branch_miss_expect:
        cpu.charge_branch_miss(program.branch_miss_expect)
    try:
        ops = program._compiled_ops
    except AttributeError:
        ops = compiled_ops(program)
    if ops:
        cpu.core_cycles, cpu.uncore_ns = cpu.mem.access_ops(
            cpu.core_id, ops, (meta, mbuf, descriptor, data, state),
            cpu.core_cycles, cpu.uncore_ns)
    if program.random_ops:
        core_id = cpu.core_id
        analytic = cpu.mem.analytic_access
        for footprint, count in program.random_ops:
            for _ in range(count):
                cycles, ns = analytic(core_id, footprint)
                cpu.core_cycles += cycles
                cpu.uncore_ns += ns


def execute(cpu, program: ExecProgram, bindings: Bindings) -> None:
    """Charge one packet's execution of ``program`` to ``cpu``.

    Instruction counts for memory/pool ops were already folded into
    ``program.instructions`` during lowering, so the accesses themselves
    charge latency only.
    """
    execute_bases(
        cpu,
        program,
        bindings.packet_meta,
        bindings.packet_mbuf,
        bindings.descriptor,
        bindings.data,
        bindings.state,
    )


def execute_interpreted(cpu, program: ExecProgram, meta: int, mbuf: int,
                        descriptor: int, data: int, state: int) -> None:
    """The reference interpreter: walk the lowered ops per packet.

    Resolves every :class:`~repro.compiler.lower.MemOp` through attribute
    access and a target-tag dict lookup on each packet -- the pre-PR4
    semantics the faster tiers must stay bit-identical to.
    """
    cpu.charge_compute(program.instructions)
    if program.branch_miss_expect:
        cpu.charge_branch_miss(program.branch_miss_expect)
    bases = (meta, mbuf, descriptor, data, state)
    for op in program.mem_ops:
        cpu.mem_access(bases[TARGET_INDEX[op.target]] + op.offset,
                       op.size, op.write, 0.0)
    for footprint, count in program.random_ops:
        for _ in range(count):
            cpu.random_access(footprint, 0.0)


# -- execution tiers -----------------------------------------------------------


class ExecutionTier(enum.Enum):
    """How lowered programs are charged to the hardware model."""

    INTERPRETER = "interpreter"
    COMPILED = "compiled"
    CODEGEN = "codegen"


#: Escalation order; falling back means moving left.
TIER_ORDER = (
    ExecutionTier.INTERPRETER,
    ExecutionTier.COMPILED,
    ExecutionTier.CODEGEN,
)

DEFAULT_TIER = ExecutionTier.COMPILED

_OFF_VALUES = ("0", "false", "off", "no")


def as_tier(value: Union[None, str, "ExecutionTier"]) -> Optional[ExecutionTier]:
    """Coerce a user-facing tier spelling to the enum (``None`` passes)."""
    if value is None or isinstance(value, ExecutionTier):
        return value
    try:
        return ExecutionTier(str(value).lower())
    except ValueError:
        raise ValueError(
            "unknown execution tier %r (expected %s)"
            % (value, "/".join(t.value for t in TIER_ORDER))
        ) from None


def tier_from_env() -> Optional[ExecutionTier]:
    """The process-wide requested tier (``REPRO_TIER``), if set."""
    raw = os.environ.get("REPRO_TIER", "").strip()
    if not raw:
        return None
    return as_tier(raw)


_fastpath_env_warned = False


def route_memo_from_env() -> bool:
    """Whether the packet-class route-memo fast path is requested.

    ``REPRO_ROUTE_MEMO`` is the current gate; ``REPRO_FASTPATH`` keeps
    working as a deprecated alias with a one-time warning.
    """
    value = os.environ.get("REPRO_ROUTE_MEMO")
    if value is not None:
        return value.lower() not in _OFF_VALUES
    legacy = os.environ.get("REPRO_FASTPATH")
    if legacy is not None:
        global _fastpath_env_warned
        if not _fastpath_env_warned:
            _fastpath_env_warned = True
            warnings.warn(
                "REPRO_FASTPATH is deprecated; use REPRO_ROUTE_MEMO or "
                "TierPolicy(route_memo=...) instead",
                DeprecationWarning,
                stacklevel=2,
            )
        return legacy.lower() not in _OFF_VALUES
    return True


@dataclass(frozen=True)
class TierPolicy:
    """What the caller *wants*; ``None`` fields defer to the environment.

    - ``tier``: requested :class:`ExecutionTier` (``REPRO_TIER``,
      default :data:`DEFAULT_TIER`);
    - ``route_memo``: allow the pure-classifier route-memoization fast
      path (``REPRO_ROUTE_MEMO``, default on);
    - ``check``: replay generated kernels against the interpreter at
      compile time (``REPRO_TIER_CHECK``, default on).
    """

    tier: Union[None, str, ExecutionTier] = None
    route_memo: Optional[bool] = None
    check: Optional[bool] = None


@dataclass(frozen=True)
class TierSelection:
    """The effective execution decisions for one driver/PMD build."""

    tier: ExecutionTier
    route_memo: bool
    check: bool
    requested: ExecutionTier
    demoted: bool = False
    reason: str = ""


def as_policy(value) -> TierPolicy:
    """Coerce ``None`` / tier / spelling / policy to a :class:`TierPolicy`."""
    if value is None:
        return TierPolicy()
    if isinstance(value, TierPolicy):
        return value
    return TierPolicy(tier=as_tier(value))


def select_tier(
    policy: Union[None, str, ExecutionTier, TierPolicy] = None,
    *,
    faults: bool = False,
    watchdog: bool = False,
    telemetry: bool = False,
) -> TierSelection:
    """Resolve the effective tier and fast-path guards for one build.

    The single replacement for the scattered ``REPRO_FASTPATH`` checks:

    - the generated-code tier self-disables (falls back to the compiled
      tier) when fault injection or watchdog recovery is active, exactly
      like the PR 4 fast path -- instrumented runs keep the battle-tested
      interpreter loops;
    - the route-memo fast path additionally requires telemetry recorders
      to be off, because memoized routes skip per-packet ``process()``
      observation.
    """
    policy = as_policy(policy)
    requested = as_tier(policy.tier)
    if requested is None:
        requested = tier_from_env() or DEFAULT_TIER
    tier = requested
    demoted = False
    reason = ""
    if tier is ExecutionTier.CODEGEN and (faults or watchdog):
        tier = ExecutionTier.COMPILED
        demoted = True
        reason = "faults" if faults else "watchdog"
    route_memo = policy.route_memo
    if route_memo is None:
        route_memo = route_memo_from_env()
    route_memo = bool(route_memo and not (faults or watchdog or telemetry))
    check = policy.check
    if check is None:
        check = os.environ.get("REPRO_TIER_CHECK", "").lower() not in _OFF_VALUES
    return TierSelection(
        tier=tier,
        route_memo=route_memo,
        check=bool(check),
        requested=requested,
        demoted=demoted,
        reason=reason,
    )


__all__ = [
    "Bindings",
    "DEFAULT_TIER",
    "ExecutionTier",
    "TIER_ORDER",
    "TARGET_INDEX",
    "TierPolicy",
    "TierSelection",
    "as_policy",
    "as_tier",
    "compiled_ops",
    "execute",
    "execute_bases",
    "execute_interpreted",
    "route_memo_from_env",
    "select_tier",
    "tier_from_env",
]
