"""Packet classifiers (byte-pattern and IP-protocol based)."""

from __future__ import annotations

from typing import List, Tuple

from repro.click.element import Element, ElementConfigError, register
from repro.compiler.ir import BranchHint, Compute, DataAccess, Program
from repro.compiler.passes.transforms import FOLDABLE_NOTE
from repro.net.protocols import IP_PROTO_ICMP, IP_PROTO_TCP, IP_PROTO_UDP


@register
class Classifier(Element):
    """Click's byte-pattern classifier.

    Each positional argument is one output's pattern: space-separated
    ``offset/hexbytes`` terms that must all match, or ``-`` for the
    catch-all.  Example (the standard router front-end)::

        Classifier(12/0800, 12/0806 20/0001, -)
    """

    class_name = "Classifier"

    def configure(self, args, kwargs):
        if not args:
            raise ElementConfigError("Classifier needs at least one pattern")
        self.patterns: List[List[Tuple[int, bytes]]] = []
        for arg in args:
            if arg == "-":
                self.patterns.append([])
                continue
            terms = []
            for term in arg.split():
                try:
                    offset_s, value_s = term.split("/")
                    terms.append((int(offset_s), bytes.fromhex(value_s)))
                except ValueError:
                    raise ElementConfigError("bad classifier term %r" % term) from None
            self.patterns.append(terms)
        self.n_outputs = len(self.patterns)
        for i in range(self.n_outputs):
            self.declare_param("pattern%d" % i, args[i])

    def process(self, pkt):
        data = pkt.data()
        for port, terms in enumerate(self.patterns):
            matched = True
            for offset, value in terms:
                if bytes(data[offset : offset + len(value)]) != value:
                    matched = False
                    break
            if matched:
                return port
        return None

    def shadowed_outputs(self) -> List[Tuple[int, int]]:
        """(shadower, shadowed) pattern pairs where the earlier pattern
        matches every packet the later one matches, making the later
        output port unreachable.

        Pattern ``i`` shadows pattern ``j > i`` when every byte ``i``
        constrains, ``j`` constrains to the same value (so matching ``j``
        implies matching ``i`` first); the catch-all ``-`` constrains
        nothing and therefore shadows everything after it.
        """
        byte_maps: List[dict] = []
        for terms in self.patterns:
            bytes_of: dict = {}
            for offset, value in terms:
                for k, byte in enumerate(value):
                    bytes_of[offset + k] = byte
            byte_maps.append(bytes_of)
        shadowed = []
        for j in range(1, len(byte_maps)):
            for i in range(j):
                if byte_maps[i].items() <= byte_maps[j].items():
                    shadowed.append((i, j))
                    break
        return shadowed

    def dispatch_predicates(self):
        """Per-port match conditions for the constprop pass: the exact
        byte equalities of each pattern (``-`` is the catch-all)."""
        preds = []
        for terms in self.patterns:
            if not terms:
                preds.append(None)
                continue
            bytes_of = {}
            for offset, value in terms:
                for k, byte in enumerate(value):
                    bytes_of[offset + k] = byte
            preds.append({"data": bytes_of})
        return preds

    def ir_program(self) -> Program:
        # Constant embedding compiles the pattern table into immediate
        # compares (what click-fastclassifier does), removing the loads.
        width = 0
        for terms in self.patterns:
            for offset, value in terms:
                width = max(width, offset + len(value))
        ops = [DataAccess(12, max(2, width - 12) if width > 12 else 2)]
        for port in range(self.n_outputs):
            ops.append(self.param_read_op("pattern%d" % port))
        ops.append(Compute(5 * self.n_outputs, note=FOLDABLE_NOTE))
        ops.append(BranchHint(0.08, note="pattern-dispatch"))
        return Program(self.name, ops)


@register
class IPClassifier(Element):
    """Protocol-based classifier: patterns among tcp | udp | icmp | ip | -."""

    class_name = "IPClassifier"

    _PROTOS = {"tcp": IP_PROTO_TCP, "udp": IP_PROTO_UDP, "icmp": IP_PROTO_ICMP}

    def configure(self, args, kwargs):
        if not args:
            raise ElementConfigError("IPClassifier needs at least one pattern")
        self.rules = []
        for arg in args:
            pattern = arg.strip().lower()
            if pattern == "-" or pattern == "ip":
                self.rules.append(None)
            elif pattern in self._PROTOS:
                self.rules.append(self._PROTOS[pattern])
            else:
                raise ElementConfigError("unsupported IPClassifier pattern %r" % arg)
        self.n_outputs = len(self.rules)
        for i, arg in enumerate(args):
            self.declare_param("rule%d" % i, arg, size=4)

    def process(self, pkt):
        proto = pkt.ip().proto
        for port, rule in enumerate(self.rules):
            if rule is None or proto == rule:
                return port
        return None

    def shadowed_outputs(self) -> List[Tuple[int, int]]:
        """(shadower, shadowed) rule pairs: a catch-all (``-``/``ip``)
        shadows every later rule, and a repeated protocol shadows its
        duplicates."""
        shadowed = []
        for j in range(1, len(self.rules)):
            for i in range(j):
                if self.rules[i] is None or self.rules[i] == self.rules[j]:
                    shadowed.append((i, j))
                    break
        return shadowed

    def dispatch_predicates(self):
        """Per-port conditions: equality on the IPv4 protocol byte, or the
        catch-all for ``-``/``ip`` rules."""
        return [
            None if rule is None else {"data": {23: rule}}
            for rule in self.rules
        ]

    def ir_program(self) -> Program:
        ops = [DataAccess(23, 1)]  # the IPv4 protocol byte
        for port in range(self.n_outputs):
            ops.append(self.param_read_op("rule%d" % port))
        ops.append(Compute(6 * self.n_outputs, note=FOLDABLE_NOTE))
        ops.append(BranchHint(0.06, note="proto-dispatch"))
        return Program(self.name, ops)
