"""Pin the Copying model's fault-split RX path bit for bit.

A frame the NIC flags as damaged (``rx_error``) is released back to the
mempool inside ``MlxPmd.rx_burst``, between the good frames of the same
burst, and that release charges the freelist head.  No experiment or
benchmark workload injects damaged frames, so this test is the only
check that fixes the order of those charges: a Copying-model forwarder
runs under truncation and corruption faults and the SHA-256 of its
:class:`~repro.core.binary.MeasuredRun` must match :data:`DIGEST`.

Regenerate :data:`DIGEST` (and say why the numbers moved in CHANGES.md)
with::

    PYTHONPATH=src python -m tests.faults.test_fault_split_digest
"""

from __future__ import annotations

import hashlib
import json

from repro import BuildOptions, FaultSchedule, FaultSpec, PacketMill
from repro.core.nfs import forwarder
from repro.faults import CORRUPT, TRUNCATE
from repro.hw.params import MachineParams

#: SHA-256 of :func:`payload` for :func:`measure`'s run.
DIGEST = "1153f9330265e56a712ff06005bd3f58d129f1d83b20bc3706a4e91fdb8c1960"

WARMUP_BATCHES = 20
BATCHES = 60


def measure():
    schedule = FaultSchedule(
        [
            FaultSpec(TRUNCATE, start=0, stop=10_000, probability=0.06),
            FaultSpec(CORRUPT, start=0, stop=10_000, probability=0.06),
        ],
        seed=2021,
    )
    mill = PacketMill(forwarder(), BuildOptions.vanilla(),
                      params=MachineParams(freq_ghz=2.3), faults=schedule)
    return mill.build().measure(batches=BATCHES,
                                warmup_batches=WARMUP_BATCHES)


def payload(run) -> dict:
    return {
        "packets": run.packets, "tx_packets": run.tx_packets,
        "tx_bytes": run.tx_bytes, "drops": run.drops,
        "elapsed_ns": run.elapsed_ns.hex(),
        "instructions": run.instructions.hex(),
        "total_cycles": run.total_cycles.hex(),
        "core_cycles": run.core_cycles.hex(),
        "uncore_ns": run.uncore_ns.hex(),
        "counters": run.counters,
    }


def digest(run) -> str:
    text = json.dumps(payload(run), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_damaged_frames_are_released_mid_burst():
    run = measure()
    hw = run.stats.hw_counters
    # About one frame in eight is damaged, so nearly every 32-frame burst
    # releases one between good frames.
    assert hw["rx_truncated"] > 0 and hw["rx_corrupt"] > 0
    assert run.packets > hw["rx_errors"] > 0
    assert digest(run) == DIGEST


if __name__ == "__main__":
    print(digest(measure()))
