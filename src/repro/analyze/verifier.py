"""The IR verifier: every program must be executable against the layouts.

PacketMill's optimizations rewrite per-packet IR programs and struct
layouts; a bug in any pass produces programs that *look* plausible but
resolve to garbage at lowering time (unknown fields, out-of-frame data
offsets, leaked pool buffers).  The verifier checks the structural
invariants LLVM's own verifier would: every :class:`FieldAccess` resolves
against the active :class:`LayoutRegistry`, every :class:`DataAccess`
stays inside the packet frame, probabilities are probabilities, costs are
non-negative, and mempool get/put pair up.

Run modes:

- :func:`verify_program` / :func:`verify_exec_program` -- one program,
  returns findings;
- :func:`attach_verifier` -- hook a :class:`~repro.compiler.pipeline.PassManager`
  so every pass application is re-verified and the *pass that introduced*
  a violation is named (how :func:`~repro.analyze.analyze_graph` compiles;
  the acceptance bar for pass authors).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analyze.findings import ERROR, NOTE, AnalysisError, Finding
from repro.compiler.ir import (
    BranchHint,
    Compute,
    DataAccess,
    DirectCall,
    FieldAccess,
    Op,
    ParamRead,
    PoolOp,
    Program,
    RandomAccess,
    StateAccess,
    VirtualCall,
)
from repro.compiler.lower import (
    TARGET_DATA,
    TARGET_DESCRIPTOR,
    TARGET_PACKET_MBUF,
    TARGET_PACKET_META,
    TARGET_STATE,
    VALID_TARGETS,
    ExecProgram,
)
from repro.compiler.structlayout import LayoutRegistry
from repro.dpdk.mbuf import MBUF_DATA_ROOM


class VerifierError(AnalysisError):
    """Error-severity IR violations, raised by the fail-hard entry points."""


def _finding(rule: str, program: str, message: str, location: str = "",
             severity: str = ERROR) -> Finding:
    return Finding(rule, severity, program, message, location)


def verify_program(
    program: Program,
    registry: LayoutRegistry,
    frame_bytes: int = MBUF_DATA_ROOM,
    state_size: Optional[int] = None,
    pool_balance: str = ERROR,
    location: str = "",
) -> List[Finding]:
    """Check one IR program against the active layouts.

    ``pool_balance`` sets the severity of an unbalanced get/put count
    within this program: per-packet element code must balance (ERROR),
    while a PMD RX program legitimately nets +1 against its TX twin --
    pass NOTE there and use :func:`verify_pool_pair` for the pair.
    """
    findings: List[Finding] = []
    name = program.name
    gets = puts = 0
    for index, op in enumerate(program.ops):
        where = location or ("op %d" % index)
        if isinstance(op, FieldAccess):
            if op.target not in VALID_TARGETS:
                findings.append(_finding(
                    "ir-bad-target", name,
                    "field access %s.%s binds unknown target %r"
                    % (op.struct, op.fieldname, op.target), where))
            try:
                layout = registry.get(op.struct)
            except KeyError:
                findings.append(_finding(
                    "ir-unknown-struct", name,
                    "field access references unregistered struct %r"
                    % op.struct, where))
                continue
            if not layout.has_field(op.fieldname):
                findings.append(_finding(
                    "ir-unknown-field", name,
                    "struct %r has no field %r (layout %s)"
                    % (op.struct, op.fieldname, layout.name), where))
        elif isinstance(op, DataAccess):
            if op.size < 1:
                findings.append(_finding(
                    "ir-bad-size", name,
                    "data access of %d bytes" % op.size, where))
            elif op.offset < 0 or op.offset + op.size > frame_bytes:
                findings.append(_finding(
                    "ir-data-bounds", name,
                    "data access [%d, %d) outside the %d-byte frame"
                    % (op.offset, op.offset + op.size, frame_bytes), where))
        elif isinstance(op, StateAccess):
            if op.size < 1:
                findings.append(_finding(
                    "ir-bad-size", name,
                    "state access of %d bytes" % op.size, where))
            elif op.offset < 0 or (
                state_size is not None and op.offset + op.size > state_size
            ):
                findings.append(_finding(
                    "ir-state-bounds", name,
                    "state access [%d, %d) outside the %s-byte state"
                    % (op.offset, op.offset + op.size, state_size), where))
        elif isinstance(op, ParamRead):
            if op.offset < 0 or op.size < 1 or op.folded_instructions < 0:
                findings.append(_finding(
                    "ir-bad-param", name,
                    "parameter read %r has offset %d, size %d, folded %r"
                    % (op.param, op.offset, op.size, op.folded_instructions),
                    where))
        elif isinstance(op, (BranchHint, VirtualCall)):
            if not 0.0 <= op.miss_rate <= 1.0:
                findings.append(_finding(
                    "ir-bad-probability", name,
                    "miss rate %r is not a probability" % op.miss_rate, where))
            if isinstance(op, VirtualCall) and op.overhead_instructions < 0:
                findings.append(_finding(
                    "ir-negative-cost", name,
                    "virtual call %r has negative overhead" % op.callee, where))
        elif isinstance(op, DirectCall):
            if op.overhead_instructions < 0:
                findings.append(_finding(
                    "ir-negative-cost", name,
                    "direct call %r has negative overhead" % op.callee, where))
        elif isinstance(op, Compute):
            if op.instructions < 0:
                findings.append(_finding(
                    "ir-negative-cost", name,
                    "compute of %r instructions" % op.instructions, where))
        elif isinstance(op, RandomAccess):
            if op.footprint < 1 or op.count < 1:
                findings.append(_finding(
                    "ir-bad-size", name,
                    "random access footprint %d x%d" % (op.footprint, op.count),
                    where))
        elif isinstance(op, PoolOp):
            if op.kind == "get":
                gets += 1
            elif op.kind == "put":
                puts += 1
            else:
                findings.append(_finding(
                    "ir-bad-poolop", name,
                    "unknown pool op kind %r" % op.kind, where))
            if op.instructions < 0:
                findings.append(_finding(
                    "ir-negative-cost", name,
                    "pool op with negative cost", where))
        elif isinstance(op, Op):
            findings.append(_finding(
                "ir-unknown-op", name,
                "op %r has no lowering rule" % type(op).__name__, where))
        else:
            findings.append(_finding(
                "ir-unknown-op", name,
                "non-Op object %r in program" % (op,), where))
    if gets != puts:
        findings.append(_finding(
            "ir-pool-balance", name,
            "pool gets (%d) and puts (%d) do not balance" % (gets, puts),
            location, severity=pool_balance))
    return findings


def verify_pool_pair(rx_program: Program, tx_program: Program) -> List[Finding]:
    """Buffer conservation across one PMD's RX/TX pair.

    Every buffer the RX path takes from a pool must be returned by the TX
    path (drops are released by the driver through the model, outside the
    per-packet programs, symmetrically for both paths).
    """
    def _net(program: Program) -> int:
        net = 0
        for op in program.ops:
            if isinstance(op, PoolOp):
                net += 1 if op.kind == "get" else -1
        return net

    net = _net(rx_program) + _net(tx_program)
    if net != 0:
        return [_finding(
            "ir-pool-balance",
            "%s+%s" % (rx_program.name, tx_program.name),
            "RX/TX pair leaks %+d pool buffer(s) per packet" % net)]
    return []


#: Region-size resolvers for lowered memory ops; ``data`` is the frame.
_EXEC_REGION_STRUCTS = {
    TARGET_PACKET_META: ("Packet",),
    TARGET_PACKET_MBUF: ("rte_mbuf",),
    TARGET_DESCRIPTOR: ("cqe", "tx_descriptor"),
}


def verify_exec_program(
    program: ExecProgram,
    registry: LayoutRegistry,
    frame_bytes: int = MBUF_DATA_ROOM,
    state_size: Optional[int] = None,
    location: str = "",
) -> List[Finding]:
    """Check one lowered program: every MemOp must land inside its region."""
    findings: List[Finding] = []
    name = program.name
    for index, op in enumerate(program.mem_ops):
        where = location or ("mem op %d" % index)
        if op.size < 1 or op.offset < 0:
            findings.append(_finding(
                "exec-bad-memop", name,
                "memory op %s[%d:%d] is malformed"
                % (op.target, op.offset, op.offset + op.size), where))
            continue
        if op.target == TARGET_DATA:
            bound = frame_bytes
        elif op.target == TARGET_STATE:
            bound = state_size  # None: unknown per-element size, skip
        elif op.target in _EXEC_REGION_STRUCTS:
            bound = 0
            for struct in _EXEC_REGION_STRUCTS[op.target]:
                try:
                    bound = max(bound, registry.get(struct).size)
                except KeyError:
                    findings.append(_finding(
                        "ir-unknown-struct", name,
                        "lowered %s access but struct %r is unregistered"
                        % (op.target, struct), where))
            if bound == 0:
                continue
        else:
            findings.append(_finding(
                "ir-bad-target", name,
                "lowered memory op targets unknown region %r" % op.target,
                where))
            continue
        if bound is not None and op.offset + op.size > bound:
            findings.append(_finding(
                "exec-memop-bounds", name,
                "%s access [%d, %d) outside the %d-byte region"
                % (op.target, op.offset, op.offset + op.size, bound), where))
    if program.instructions < 0 or program.branch_miss_expect < 0:
        findings.append(_finding(
            "ir-negative-cost", name,
            "lowered program has negative cost totals", location))
    for footprint, count in program.random_ops:
        if footprint < 1 or count < 1:
            findings.append(_finding(
                "ir-bad-size", name,
                "lowered random access footprint %d x%d" % (footprint, count),
                location))
    return findings


def assert_verified(program: Program, registry: LayoutRegistry, **kwargs) -> None:
    """Fail-hard wrapper: raise :class:`VerifierError` on any error finding."""
    findings = [
        f for f in verify_program(program, registry, **kwargs)
        if f.severity == ERROR
    ]
    if findings:
        raise VerifierError(
            "IR verification of %r failed:\n%s"
            % (program.name, "\n".join("  " + f.format() for f in findings)),
            findings,
        )


def attach_verifier(
    pass_manager,
    registry: LayoutRegistry,
    frame_bytes: int = MBUF_DATA_ROOM,
    collect=None,
) -> None:
    """Verify after every pass application (the pipeline's debug mode).

    The hook names the offending pass in the raised error, so a pass bug
    is caught at the application that introduced it rather than at
    lowering or -- worse -- as a silently wrong cost model.  With
    ``collect`` (a callable taking a findings list) violations are
    accumulated instead of raised.
    """

    def _verify(program: Program, pass_name: str) -> None:
        findings = [
            f for f in verify_program(
                program, registry, frame_bytes=frame_bytes,
                pool_balance=NOTE, location="after pass %r" % pass_name,
            )
            if f.severity == ERROR
        ]
        if not findings:
            return
        if collect is not None:
            collect(findings)
            return
        raise VerifierError(
            "pass %r broke program %r:\n%s"
            % (pass_name, program.name,
               "\n".join("  " + f.format() for f in findings)),
            findings,
        )

    pass_manager.verifier = _verify
