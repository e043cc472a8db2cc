"""Scaling a stateful NAT across cores with RSS (the paper's Fig. 10).

Builds the NAT+router configuration as an RSS-sharded runtime: one
arrival stream per port, Toeplitz-hashed across 1-4 per-core replicas
that share the LLC, so every flow stays on one core.  Measures the
aggregate throughput at each core count.

Run:  python examples/nat_multicore.py
"""

from repro.core.nfs import nat_router
from repro.core.options import BuildOptions
from repro.core.packetmill import PacketMill
from repro.hw.params import MachineParams
from repro.perf.runner import measure_sharded

params = MachineParams(freq_ghz=2.3)

print("NAT (cuckoo flow table) + router, RSS across cores @2.3 GHz\n")
for label, options in [
    ("Vanilla", BuildOptions.vanilla()),
    ("PacketMill", BuildOptions.packetmill()),
]:
    print(label)
    for cores in (1, 2, 3, 4):
        mill = PacketMill(nat_router(), options, params=params, n_cores=cores)
        runtime = mill.build_sharded()
        point = measure_sharded(runtime, batches=80, warmup_batches=40)
        flows = sum(
            b.graph.by_class("IPRewriter")[0].new_flows for b in runtime.replicas
        )
        print(
            "  %d core(s): %6.2f Gbps  (%5.2f Mpps, %d active NAT flows, bound by %s)"
            % (cores, point.gbps, point.mpps, flows, point.bound_by)
        )
    print()
