"""Baseline packet-processing frameworks for the §4.6 comparison.

Each builder returns an object :func:`repro.perf.runner.measure_throughput`
can drive.  Click-based frameworks reuse the PacketMill build pipeline
with the metadata model and batching discipline the real framework uses;
the two pure-DPDK sample applications (l2fwd, l2fwd-xchg) bypass the
modular framework entirely.
"""

from functools import partial

from repro.frameworks.click_based import CLICK_FRAMEWORKS, click_forwarder
from repro.frameworks.l2fwd import L2fwdBinary, l2fwd, l2fwd_xchg

#: Framework label -> ``builder(params, frame_len, seed=0)``.
FRAMEWORK_BUILDERS = {
    **{label: partial(click_forwarder, options, burst)
       for label, (options, burst) in CLICK_FRAMEWORKS.items()},
    "l2fwd": l2fwd,
    "l2fwd-xchg": l2fwd_xchg,
}

__all__ = [
    "CLICK_FRAMEWORKS",
    "FRAMEWORK_BUILDERS",
    "L2fwdBinary",
    "click_forwarder",
    "l2fwd",
    "l2fwd_xchg",
]
