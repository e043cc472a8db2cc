"""The N-replica sharded runtime: RSS fan-out made first-class.

Before this module, "multicore" meant building N independent binaries
with N independent traces and summing their numbers.  A
:class:`ShardedRuntime` is the real thing: one arrival stream per
physical port, hashed and steered by :class:`~repro.dpdk.nic.MultiQueueNic`
across N RX queues, each queue feeding one complete per-core replica
(CpuCore + PMDs + RouterDriver), all stepped
round-robin under simulated time so their cache footprints genuinely
contend in the shared LLC.

Determinism and identity guarantees (tested in
``tests/core/test_sharded.py``):

- the same build is charge-for-charge deterministic regardless of how
  ``run_batches`` calls are sliced;
- an ``n_cores=1`` sharded runtime is *bit-identical* to the unsharded
  :class:`~repro.core.binary.SpecializedBinary` path -- the RSS stage
  degenerates to a pass-through and charges nothing;
- packet conservation closes globally: every frame ingested from the
  shared trace is steered, dropped-with-a-counter, or still staged
  (see :func:`repro.faults.audit.sharded_audit`).

Telemetry: :attr:`registry` is a live
:class:`~repro.telemetry.registry.MergedRegistry` -- aggregate reads sum
across cores, ``core<i>.`` names address one replica, and each port's
RSS ledger is mounted at ``rss.<port>.``.  The asyncio control plane
(:mod:`repro.control`) serves exactly this view while a run is in
flight.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.binary import MeasuredRun, SpecializedBinary
from repro.dpdk.nic import MultiQueueNic
from repro.net.rss import RssConfig
from repro.net.steering import ShardSteering
from repro.telemetry.registry import CounterRegistry, MergedRegistry


class ShardedRuntime:
    """N per-core replicas behind one RSS-sharded physical port set.

    When the :class:`~repro.net.rss.RssConfig` carries a
    :class:`~repro.net.steering.SteeringPolicy`, the runtime also owns
    the adaptive-steering control loop: every ``policy.interval``
    lockstep rounds each port's :class:`~repro.net.steering.RetaRebalancer`
    reads queue occupancy and bucket arrival windows and -- when the
    migration cost model approves -- retargets hot indirection-table
    entries onto underloaded queues.  ``steering.*`` counters are
    mounted in the merged registry, and :meth:`rebalance` is the
    operator's forced pass (the control plane's ``REBALANCE`` verb).
    Without a policy nothing is created and the data path is
    bit-identical to static RSS.
    """

    def __init__(self, replicas: List[SpecializedBinary],
                 ports: Dict[int, MultiQueueNic],
                 config: Optional[RssConfig] = None):
        if not replicas:
            raise ValueError("a sharded runtime needs at least one replica")
        self.replicas = replicas
        self.ports = ports
        self.config = config or RssConfig()
        self.rounds = 0
        self.steering: Optional[ShardSteering] = (
            ShardSteering(ports, self.config.steering)
            if self.config.steering is not None else None
        )
        self.registry: MergedRegistry = CounterRegistry.merge(
            [b.telemetry.registry for b in replicas]
        )
        for port, mq in sorted(ports.items()):
            self.registry.mount("rss.%d" % port, mq.registry)
        if self.steering is not None:
            self.registry.mount("steering", self.steering.registry)

    # -- shape -----------------------------------------------------------------

    @property
    def n_cores(self) -> int:
        return len(self.replicas)

    @property
    def drivers(self):
        return [b.driver for b in self.replicas]

    def replica(self, core: int) -> SpecializedBinary:
        return self.replicas[core]

    # -- execution -------------------------------------------------------------

    def step(self) -> int:
        """One round-robin sweep: every non-EOF replica runs one iteration."""
        received = 0
        for binary in self.replicas:
            driver = binary.driver
            if driver.at_eof():
                continue
            received += driver.step()
        self.rounds += 1
        if self.steering is not None:
            self.steering.on_round(self.rounds)
        return received

    def run_batches(self, n_batches: int) -> int:
        """Interleave ``n_batches`` main-loop iterations across replicas.

        Replicas advance in lockstep rounds (core 0 steps, core 1 steps,
        ...), the simulated analogue of cores running concurrently
        against one LLC.  A replica whose finite trace drains leaves the
        rotation cleanly (quiesced, stats intact), exactly as
        :meth:`RouterDriver.run_batches` ends a single-core run.
        Returns the number of rounds actually executed.
        """
        drivers = self.drivers
        steering = self.steering
        finished = set()
        rounds = 0
        for _ in range(n_batches):
            if len(finished) == len(drivers):
                break
            for index, driver in enumerate(drivers):
                if index in finished:
                    continue
                driver.step()
                if driver.at_eof():
                    driver.quiesce()
                    finished.add(index)
            rounds += 1
            self.rounds += 1
            if steering is not None:
                steering.on_round(self.rounds)
        for driver in drivers:
            # Epilogue only (0 iterations): attribution/sampler sync and
            # the run's NIC delta under driver.hw.*.
            driver.run_batches(0)
        return rounds

    def run_until_eof(self, max_batches: int = 1_000_000) -> int:
        """Drive finite traces to completion; returns rounds executed.

        Raises if the cap is hit first -- a sharded run that cannot
        drain is a bug (a starved queue or a stuck backlog), not a
        result.
        """
        rounds = 0
        while not self.at_eof():
            if rounds >= max_batches:
                raise RuntimeError(
                    "sharded run did not reach EOF within %d rounds"
                    % max_batches)
            chunk = self.run_batches(min(1024, max_batches - rounds))
            rounds += chunk
            if chunk == 0:
                break
        return rounds

    def warmup(self, batches: int = 100) -> None:
        """Interleaved warmup, then reset every replica's measurements."""
        self.run_batches(batches)
        for binary in self.replicas:
            binary.reset_measurements()

    def runs(self) -> List[MeasuredRun]:
        """Collect each replica's measured run (no further iterations)."""
        return [binary.run(0) for binary in self.replicas]

    # -- state -----------------------------------------------------------------

    def at_eof(self) -> bool:
        return all(driver.at_eof() for driver in self.drivers)

    def elapsed_ns(self) -> float:
        """Wall-clock of the sharded run: the *slowest* core sets the pace."""
        return max(binary.cpu.elapsed_ns() for binary in self.replicas)

    def in_flight_packets(self) -> int:
        staged = sum(sum(mq.backlog_depths()) for mq in self.ports.values())
        return staged + sum(d.in_flight_packets() for d in self.drivers)

    # -- steering --------------------------------------------------------------

    def rebalance(self, port: Optional[int] = None) -> int:
        """Force one steering pass now (all ports, or just ``port``).

        The operator path behind the control plane's ``REBALANCE`` verb:
        bypasses the trigger/hysteresis/cooldown/cost gates but still
        only applies strictly-improving moves.  Returns the number of
        RETA entries migrated.  Raises when no steering policy is
        configured -- a forced rebalance on a static table would be a
        silent no-op the operator should hear about.
        """
        if self.steering is None:
            raise RuntimeError(
                "no steering policy configured (RssConfig(steering=...))")
        return self.steering.rebalance(self.rounds, port)

    # -- observation -----------------------------------------------------------

    def merged_snapshot(self, pattern: Optional[str] = None):
        """Flattened aggregate + per-core + RSS-ledger counter view."""
        return self.registry.snapshot(pattern)

    def conservation(self):
        """Global and per-port packet-conservation breakdown."""
        from repro.faults.audit import sharded_audit

        return sharded_audit(self)

    def assert_conserved(self):
        from repro.faults.audit import assert_sharded_conserved

        return assert_sharded_conserved(self)

    def describe(self) -> str:
        lines = ["ShardedRuntime(%d cores)" % self.n_cores]
        for port, mq in sorted(self.ports.items()):
            lines.append(
                "  port %d: %d queues, table=%d, ingested=%d, backlogs=%s"
                % (port, mq.n_queues, len(mq.table.entries), mq.ingested,
                   mq.backlog_depths()))
            if self.steering is not None:
                scope = "port%d." % port
                reg = self.steering.registry
                lines.append(
                    "    steering: moves=%d rebalances=%d dispatched=%d "
                    "imbalance=%.2f"
                    % (reg.get(scope + "moves"),
                       reg.get(scope + "rebalances"),
                       mq.registry.get("dispatched"),
                       reg.get(scope + "imbalance")))
        for index, binary in enumerate(self.replicas):
            stats = binary.driver.stats
            lines.append(
                "  core %d: rx=%d tx=%d drops=%d"
                % (index, stats.rx_packets, stats.tx_packets, stats.drops))
        return "\n".join(lines)


__all__ = ["ShardedRuntime"]
