"""WorkPackage: the paper's synthetic memory/compute microbenchmark element.

``WorkPackage(S <MB>, N <accesses>, W <numbers>)`` performs, per packet,
``N`` uniformly random accesses into a static ``S``-MB array and generates
``W`` pseudo-random numbers (Appendix A.4).  ``S`` scales memory
intensiveness, ``W`` compute intensiveness, ``N`` the accesses-per-packet
multiplier of Figs. 7 and 9.
"""

from __future__ import annotations

from repro.click.element import Element, register
from repro.compiler.ir import Compute, Program, RandomAccess

MB = 1024 * 1024

#: Instructions one xorshift-style PRNG step costs.
PRNG_INSTRUCTIONS = 9


@register
class WorkPackage(Element):
    class_name = "WorkPackage"

    def configure(self, args, kwargs):
        self.declare_param("s_mb", float(kwargs.get("S", 1)), size=4)
        self.declare_param("n_accesses", int(kwargs.get("N", 1)), size=4)
        self._w_numbers = self.declare_param("w_numbers",
                                             int(kwargs.get("W", 1)), size=4)
        self._prng_state = 88172645463325252
        self.processed = 0

    @property
    def footprint_bytes(self) -> int:
        return int(self.param("s_mb") * MB)

    def process(self, pkt):
        # Functional side: really run the PRNG the element is defined by,
        # W xorshift64 steps; the memory accesses' cost is charged via the
        # IR program.
        x = self._prng_state
        for _ in range(self._w_numbers):
            x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
            x ^= x >> 7
            x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._prng_state = x
        self.processed += 1
        return 0

    def ir_program(self) -> Program:
        ops = []
        footprint = self.footprint_bytes
        n = self.param("n_accesses")
        w = self.param("w_numbers")
        if footprint > 0 and n > 0:
            ops.append(RandomAccess(footprint, count=n))
        if w > 0:
            ops.append(Compute(w * PRNG_INSTRUCTIONS, note="prng"))
        ops.append(Compute(4, note="bookkeeping"))
        return Program(self.name, ops)
