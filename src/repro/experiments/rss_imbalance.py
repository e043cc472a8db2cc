"""RSS imbalance: static sharding breaks under elephants; steering recovers.

RSS steers by flow hash, so per-core load is only balanced when the flow
population is.  The first half of this experiment quantifies the break:
the same 4-core sharded runtime driven by a million-flow trace at
several Zipf skews loses >10% of cluster throughput at zipf-1.6 because
the hottest queue saturates (its staging backlog overflows and sheds
frames) while its siblings starve.

The second half measures the fix -- the adaptive steering loop of
:mod:`repro.net.steering` -- in two configurations against the static
baseline:

``dynamic``
    RETA-only rebalancing (:class:`~repro.net.steering.SteeringPolicy`
    defaults): hot indirection-table buckets are migrated to underloaded
    queues when the cost model approves.
``dispatch``
    The same loop plus the RSS++-style software dispatch stage: a bucket
    whose window share exceeds ``dispatch_share`` is sprayed round-robin
    across every queue (trading that flow's ordering for balance).

Both are measured over two traffic *phases*: ``stationary`` (the
elephant set never changes) and ``shifting`` (the
:class:`~repro.net.trace.SkewedTraceGenerator` rotates its elephant set
halfway through the run, the case static RSS can never adapt to).

Every run starts from a fresh build and drains its finite trace with no
mid-run resets, so the full sharded conservation audit
(:func:`repro.faults.audit.sharded_audit`) -- including the per-bucket
book that crosses every RETA migration -- closes exactly.  Each run is
one :class:`ImbalancePointSpec`, fanned out by the sweep engine like
every other experiment's points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.nfs import nat_router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.exec.sweep import run_points
from repro.experiments.common import DUT_FREQ_GHZ, QUICK, Row, Scale, format_rows
from repro.experiments.result import ExperimentResult
from repro.faults.audit import assert_sharded_conserved
from repro.hw.params import MachineParams
from repro.net.rss import RssConfig
from repro.net.steering import SteeringPolicy
from repro.net.trace import FiniteTrace, SkewedTraceGenerator

N_CORES = 4
N_FLOWS = 1_000_000

#: The static-baseline skew axis: ``None`` is the uniform population;
#: the Zipf exponents bracket "mild" and "heavy" elephant-flow regimes.
SKEWS = (None, 1.1, 1.6)

#: The skew at which the steering variants are compared.
HEAVY_SKEW = 1.6

#: Steering variants measured against the ``static`` baseline.
VARIANTS = ("static", "dynamic", "dispatch")

#: Traffic phases: ``shifting`` rotates the elephant set mid-run.
PHASES = ("stationary", "shifting")

#: Smoke mode (a scale shorter than ``QUICK``): a shorter trace against
#: a tighter backlog cap -- same code paths, directional claims only.
SMOKE_PACKETS = 12_000
SMOKE_BACKLOG_CAP = 512


def _skew_label(skew: Optional[float]) -> str:
    return "uniform" if skew is None else "zipf-%.1f" % skew


def _policy(variant: str) -> Optional[SteeringPolicy]:
    if variant == "static":
        return None
    if variant == "dynamic":
        return SteeringPolicy()
    if variant == "dispatch":
        return SteeringPolicy(dispatch=True)
    raise ValueError("unknown steering variant %r" % variant)


@dataclass
class SteeringPoint:
    """One fresh sharded run of the grid, with its steering ledger."""

    phase: str
    variant: str
    skew: Optional[float]
    gbps: float
    per_queue_steered: List[int]
    per_queue_dropped: List[int]
    per_core_tx: List[int]
    rss_dropped: int
    offered: int
    reta_moves: int = 0
    migration_drains: int = 0
    dispatched: int = 0

    @property
    def arrivals(self) -> List[int]:
        """Hash-directed load per queue: steered + dropped-at-the-cap."""
        return [s + d for s, d in zip(self.per_queue_steered,
                                      self.per_queue_dropped)]

    @property
    def imbalance(self) -> float:
        """max/mean per-queue arrival ratio (1.0 = perfectly balanced)."""
        arrivals = self.arrivals
        mean = sum(arrivals) / len(arrivals)
        return max(arrivals) / mean if mean else float("inf")

    def record(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "variant": self.variant,
            "skew": _skew_label(self.skew),
            "gbps": self.gbps,
            "imbalance": self.imbalance,
            "per_queue_steered": self.per_queue_steered,
            "per_queue_dropped": self.per_queue_dropped,
            "per_core_tx": self.per_core_tx,
            "rss_dropped": self.rss_dropped,
            "offered": self.offered,
            "reta_moves": self.reta_moves,
            "migration_drains": self.migration_drains,
            "dispatched": self.dispatched,
        }


@dataclass
class ImbalanceResult(ExperimentResult):
    points_list: List[SteeringPoint]
    smoke: bool = False
    n_packets: int = 0

    name = "rss_imbalance"

    def _params(self):
        return {"n_cores": N_CORES, "n_flows": N_FLOWS,
                "n_packets": self.n_packets, "smoke": self.smoke,
                "skews": [_skew_label(s) for s in SKEWS],
                "variants": list(VARIANTS), "phases": list(PHASES)}

    def _points(self):
        return [p.record() for p in self.points_list]

    def find(self, phase: str, variant: str,
             skew: Optional[float]) -> SteeringPoint:
        for point in self.points_list:
            if (point.phase == phase and point.variant == variant
                    and point.skew == skew):
                return point
        raise KeyError("no point (%s, %s, %s)" % (phase, variant, skew))

    def recovery(self, phase: str, variant: str) -> float:
        """Fraction of the static-vs-uniform throughput gap recovered.

        1.0 means the steering variant reached the uniform-load ceiling;
        0.0 means it did no better than static RSS under the same skew.
        """
        uniform = self.find("stationary", "static", None).gbps
        static = self.find(phase, "static", HEAVY_SKEW).gbps
        steered = self.find(phase, variant, HEAVY_SKEW).gbps
        gap = uniform - static
        return (steered - static) / gap if gap > 0 else float("inf")


def _measure(phase: str, variant: str, skew: Optional[float],
             n_packets: int, backlog_cap: int) -> SteeringPoint:
    """One fresh sharded run, drained to EOF with no mid-run resets."""
    shift_at = n_packets // 2 if phase == "shifting" else None

    def trace_factory(port, core):
        return FiniteTrace(
            SkewedTraceGenerator(n_flows=N_FLOWS, zipf_s=skew,
                                 seed=101 + port, shift_at=shift_at),
            n_packets)

    mill = PacketMill(
        nat_router(),
        BuildOptions.packetmill(),
        params=MachineParams().at_frequency(DUT_FREQ_GHZ),
        trace=trace_factory,
        n_cores=N_CORES,
        rss=RssConfig(backlog_cap=backlog_cap, steering=_policy(variant)),
    )
    runtime = mill.build_sharded()
    runtime.run_until_eof()
    audit = assert_sharded_conserved(runtime)
    elapsed = runtime.elapsed_ns()
    tx_bytes = sum(b.driver.stats.tx_bytes for b in runtime.replicas)
    mq = runtime.ports[0]
    steering = runtime.steering is not None
    return SteeringPoint(
        phase=phase,
        variant=variant,
        skew=skew,
        gbps=tx_bytes * 8 / elapsed if elapsed else 0.0,
        per_queue_steered=[mq.steered(q) for q in range(N_CORES)],
        per_queue_dropped=[mq.dropped(q) for q in range(N_CORES)],
        per_core_tx=[b.driver.stats.tx_packets for b in runtime.replicas],
        rss_dropped=sum(p["rss_dropped"] for p in audit["ports"].values()),
        offered=audit["offered"],
        reta_moves=int(runtime.registry.get("steering.port0.moves"))
        if steering else 0,
        migration_drains=int(
            runtime.registry.get("steering.port0.migration_drains"))
        if steering else 0,
        dispatched=int(mq.registry.get("dispatched")) if steering else 0,
    )


@dataclass(frozen=True)
class ImbalancePointSpec:
    """One run of the grid as a picklable, hashable sweep point."""

    phase: str
    variant: str
    skew: Optional[float]
    n_packets: int
    backlog_cap: int

    def execute(self) -> SteeringPoint:
        return _measure(self.phase, self.variant, self.skew,
                        self.n_packets, self.backlog_cap)


def point_specs(n_packets: int, backlog_cap: int) -> List[ImbalancePointSpec]:
    """The grid's points, in result order."""
    # The static skew sweep (the break).
    grid = [("stationary", "static", skew) for skew in SKEWS]
    # The steering variants at heavy skew (the fix), both phases; the
    # stationary static point is already in the skew sweep.
    grid += [(phase, variant, HEAVY_SKEW)
             for phase in PHASES for variant in VARIANTS
             if not (phase == "stationary" and variant == "static")]
    return [ImbalancePointSpec(phase, variant, skew, n_packets, backlog_cap)
            for phase, variant, skew in grid]


def run(scale: Scale = QUICK) -> ImbalanceResult:
    smoke = scale.batches < QUICK.batches
    if smoke:
        n_packets, backlog_cap = SMOKE_PACKETS, SMOKE_BACKLOG_CAP
    else:
        n_packets = max(40_000, scale.trace_packets() * N_CORES)
        backlog_cap = RssConfig().backlog_cap
    points = run_points(point_specs(n_packets, backlog_cap))
    return ImbalanceResult(points, smoke=smoke, n_packets=n_packets)


def check(result: ImbalanceResult) -> None:
    """Assert the experiment's claims.

    Directional claims (conservation, steering reduces imbalance and
    hot-queue drops, migrations actually happened) hold at every scale
    including smoke mode; the quantitative recovery floor (>=50% of the
    static-vs-uniform gap at zipf-1.6) is asserted only on full runs.
    """
    for point in result.points_list:
        # Books close from the recorded numbers alone: everything
        # steered was delivered and forwarded (NAT forwards all), plus
        # counted RSS drops.  (assert_sharded_conserved already audited
        # the live runtime, bucket book included, inside each run.)
        delivered = sum(point.per_queue_steered)
        assert delivered + point.rss_dropped == point.offered, point
        assert sum(point.per_core_tx) == delivered, point

    uniform = result.find("stationary", "static", None)
    static = result.find("stationary", "static", HEAVY_SKEW)
    # Uniform load spreads evenly: no queue more than 15% above fair share.
    assert uniform.imbalance < 1.15, \
        "uniform steering imbalance %.3f" % uniform.imbalance
    assert uniform.rss_dropped == 0
    # Heavy skew concentrates: the hot queue carries well above its
    # share, sheds frames at its backlog cap, and costs real throughput.
    assert static.imbalance > 1.5, \
        "zipf steering imbalance only %.3f" % static.imbalance
    assert static.rss_dropped > 0
    assert static.gbps < uniform.gbps * 0.90, \
        "expected >10%% throughput loss under heavy skew " \
        "(uniform %.2f Gbps, zipf %.2f Gbps)" % (uniform.gbps, static.gbps)

    for phase in PHASES:
        phase_static = result.find(phase, "static", HEAVY_SKEW)
        for variant in ("dynamic", "dispatch"):
            steered = result.find(phase, variant, HEAVY_SKEW)
            label = "%s/%s" % (phase, variant)
            # The control loop actually ran: RETA entries migrated (and
            # the dispatch variant sprayed its elephant).
            assert steered.reta_moves > 0, \
                "%s: no RETA migrations" % label
            if variant == "dispatch":
                assert steered.dispatched > 0, \
                    "%s: dispatch never engaged" % label
            # Steering rebalances arrivals and relieves the hot queue.
            # Smoke traces are short enough that the pre-convergence
            # prefix dominates whole-run arrival ratios, so the
            # imbalance claim gets a small tolerance there (the drop
            # reduction below stays strict).
            limit = phase_static.imbalance * (1.05 if result.smoke else 1.0)
            assert steered.imbalance < limit, \
                "%s: imbalance %.3f not below static %.3f" \
                % (label, steered.imbalance, phase_static.imbalance)
            assert steered.rss_dropped < phase_static.rss_dropped, \
                "%s: drops %d not below static %d" \
                % (label, steered.rss_dropped, phase_static.rss_dropped)
            if not result.smoke:
                # The headline: dynamic steering recovers >=50% of the
                # cluster-throughput gap static RSS loses to skew.
                recovered = result.recovery(phase, variant)
                assert recovered >= 0.5, \
                    "%s: recovered only %.0f%% of the static-vs-uniform " \
                    "gap" % (label, recovered * 100)


def format_table(result: ImbalanceResult) -> str:
    rows = []
    for point in result.points_list:
        label = "%s/%s/%s" % (point.phase, point.variant,
                              _skew_label(point.skew))
        rows.append(Row(
            label=label,
            values={
                "gbps": point.gbps,
                "imbalance": point.imbalance,
                "rss_drop": point.rss_dropped,
                "moves": point.reta_moves,
                "dispatched": point.dispatched,
            },
        ))
    table = format_rows(
        rows,
        ["gbps", "imbalance", "rss_drop", "moves", "dispatched"],
        header="RSS imbalance + steering: NAT, %d cores @%.1f GHz, "
               "%d-flow trace" % (N_CORES, DUT_FREQ_GHZ, N_FLOWS),
    )
    recoveries = ["recovery %s/%s: %.0f%%" % (
        phase, variant, result.recovery(phase, variant) * 100)
        for phase in PHASES for variant in ("dynamic", "dispatch")]
    return "\n".join([table] + recoveries)
