"""The evaluation's network-function configurations (paper Appendix A).

Each function returns a Click configuration string.  Addresses match the
trace generators in :mod:`repro.net.trace`: traffic flows from
``10.0.0.0/16`` sources toward ``192.168.0.0/16`` destinations, entering
on DPDK port 0.
"""

from __future__ import annotations

DUT_MAC = "02:00:00:00:00:02"
GENERATOR_MAC = "02:00:00:00:00:01"
NEXT_HOP_MAC = "02:00:00:00:00:03"


def forwarder(burst: int = 32, port: int = 0) -> str:
    """A.1: the simple forwarder -- receive, rewrite MACs, transmit."""
    return """
    input :: FromDPDKDevice(PORT %(port)d, N_QUEUES 1, BURST %(burst)d);
    output :: ToDPDKDevice(PORT %(port)d, BURST %(burst)d);
    input -> EtherMirror -> output;
    """ % {"port": port, "burst": burst}


def forwarder_two_nics(burst: int = 32) -> str:
    """§4.2's 200-Gbps setup: one core forwarding for two NICs."""
    return """
    in0 :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST %(burst)d);
    out0 :: ToDPDKDevice(PORT 0, BURST %(burst)d);
    in1 :: FromDPDKDevice(PORT 1, N_QUEUES 1, BURST %(burst)d);
    out1 :: ToDPDKDevice(PORT 1, BURST %(burst)d);
    in0 -> EtherMirror -> out0;
    in1 -> EtherMirror -> out1;
    """ % {"burst": burst}


ROUTES = (
    "192.168.0.0/18 0",
    "192.168.64.0/18 0",
    "192.168.128.0/18 0",
    "192.168.192.0/18 0",
    "0.0.0.0/0 0",
)


def router(burst: int = 32, icmp_errors: bool = False) -> str:
    """A.2: the standards-compliant IP router (one rule per port).

    With ``icmp_errors`` the expired-TTL output generates RFC 792
    time-exceeded errors instead of silently dropping, completing the
    "compliant with IP routing standards" path.
    """
    ttl_error = ""
    decttl = "dec :: DecIPTTL;"
    if icmp_errors:
        ttl_error = (
            "dec[1] -> ICMPError(192.168.1.1, timeexceeded)"
            " -> EtherRewrite(SRC %s, DST %s) -> output;" % (DUT_MAC, GENERATOR_MAC)
        )
    return """
    input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST %(burst)d);
    output :: ToDPDKDevice(PORT 0, BURST %(burst)d);
    c :: Classifier(12/0800, 12/0806, -);
    rt :: RadixIPLookup(%(routes)s);
    %(decttl)s
    input -> c;
    c[0] -> CheckIPHeader(14) -> rt;
    rt[0] -> dec
          -> EtherRewrite(SRC %(dut)s, DST %(nh)s)
          -> output;
    c[1] -> ARPResponder(192.168.1.1 %(dut)s) -> output;
    c[2] -> Discard;
    %(ttl_error)s
    """ % {"burst": burst, "routes": ", ".join(ROUTES), "dut": DUT_MAC,
           "nh": NEXT_HOP_MAC, "decttl": decttl, "ttl_error": ttl_error}


def guarded_router(burst: int = 32) -> str:
    """The constant-propagation showcase: a double-guarded IP router.

    Deliberately written the way real configurations accrete: the front
    classifier already split IP (port 0) from ARP (port 1), yet the ARP
    branch passes through a *second* classifier before a shared
    RadixIPLookup, and the routed side is painted and re-dispatched by a
    PaintSwitch whose color was just pinned.  Path-sensitive analysis
    proves ``arpguard``'s IP arm and ``sw``'s port 0 dead
    (``constant-branch``) and drops the false ``paint_anno``
    use-before-init a port-insensitive merge would report on ``sw``.
    ``python -m repro.analyze guarded-router`` shows the findings.
    """
    return """
    input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST %(burst)d);
    output :: ToDPDKDevice(PORT 0, BURST %(burst)d);
    front :: Classifier(12/0800, 12/0806, -);
    arpguard :: Classifier(12/0800, -);
    rt :: RadixIPLookup(%(routes)s);
    sw :: PaintSwitch(N 2);
    input -> front;
    front[0] -> CheckIPHeader(14) -> Paint(1) -> rt;
    front[1] -> arpguard;
    arpguard[0] -> rt;
    arpguard[1] -> ARPResponder(192.168.1.1 %(dut)s) -> output;
    front[2] -> Discard;
    rt[0] -> DecIPTTL -> sw;
    sw[0] -> Discard;
    sw[1] -> EtherRewrite(SRC %(dut)s, DST %(nh)s) -> output;
    """ % {"burst": burst, "routes": ", ".join(ROUTES), "dut": DUT_MAC,
           "nh": NEXT_HOP_MAC}


def ids_router(burst: int = 32, vlan_tci: int = 100) -> str:
    """A.3: IDS (TCP/UDP/ICMP header checks) + VLAN encap + the router."""
    return """
    input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST %(burst)d);
    output :: ToDPDKDevice(PORT 0, BURST %(burst)d);
    c :: Classifier(12/0800, 12/0806, -);
    ipc :: IPClassifier(tcp, udp, icmp, -);
    rt :: RadixIPLookup(%(routes)s);
    input -> c;
    c[0] -> CheckIPHeader(14) -> ipc;
    ipc[0] -> CheckTCPHeader -> rt;
    ipc[1] -> CheckUDPHeader -> rt;
    ipc[2] -> CheckICMPHeader -> rt;
    ipc[3] -> rt;
    rt[0] -> DecIPTTL
          -> VLANEncap(VLAN_TCI %(tci)d)
          -> EtherRewrite(SRC %(dut)s, DST %(nh)s)
          -> output;
    c[1] -> ARPResponder(192.168.1.1 %(dut)s) -> output;
    c[2] -> Discard;
    """ % {"burst": burst, "routes": ", ".join(ROUTES), "tci": vlan_tci,
           "dut": DUT_MAC, "nh": NEXT_HOP_MAC}


def nat_router(burst: int = 32, public_ip: str = "10.99.0.1",
               capacity: int = 16384) -> str:
    """A.3: the stateful NAPT (cuckoo flow table) in front of the router."""
    return """
    input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST %(burst)d);
    output :: ToDPDKDevice(PORT 0, BURST %(burst)d);
    c :: Classifier(12/0800, 12/0806, -);
    rt :: RadixIPLookup(%(routes)s);
    input -> c;
    c[0] -> CheckIPHeader(14)
         -> IPRewriter(SRCIP %(public)s, CAPACITY %(capacity)d)
         -> rt;
    rt[0] -> DecIPTTL
          -> EtherRewrite(SRC %(dut)s, DST %(nh)s)
          -> output;
    c[1] -> ARPResponder(192.168.1.1 %(dut)s) -> output;
    c[2] -> Discard;
    """ % {"burst": burst, "routes": ", ".join(ROUTES), "public": public_ip,
           "capacity": capacity, "dut": DUT_MAC, "nh": NEXT_HOP_MAC}


def qos_forwarder(burst: int = 32, port: int = 0, rate: int = 8,
                  capacity: int = 512, pfc: bool = True) -> str:
    """The congestion-evaluation pipeline: priority split, rated service.

    Traffic is routed by 802.1p priority into per-class rated queues --
    the service bottleneck that makes oversubscription and incast
    observable -- and forwarded.  Priority 0 is the lossless class: with
    ``pfc`` the PFCPause element watches port ``port``'s QoS buffer pool
    and pauses it upstream at XOFF; without it the same pipeline is the
    lossy baseline the degraded-capacity experiment compares against.
    The queue capacities deliberately exceed the QoS pool sizes so
    admission, not the queues, is what drops under congestion.
    """
    pause = ""
    if pfc:
        pause = "pfc :: PFCPause(PORT %d, PRIORITIES 0);" % port
    return """
    input :: FromDPDKDevice(PORT %(port)d, N_QUEUES 1, BURST %(burst)d);
    output :: ToDPDKDevice(PORT %(port)d, BURST %(burst)d);
    prio :: PrioritySwitch(N 2);
    q0 :: RatedQueue(CAPACITY %(capacity)d, RATE %(rate)d);
    q1 :: RatedQueue(CAPACITY %(capacity)d, RATE %(rate)d);
    %(pause)s
    input -> prio;
    prio[0] -> q0 -> EtherMirror -> output;
    prio[1] -> q1 -> EtherMirror -> output;
    """ % {"port": port, "burst": burst, "rate": rate,
           "capacity": capacity, "pause": pause}


def workpackage_forwarder(s_mb: float, n_accesses: int, w_numbers: int,
                          burst: int = 32) -> str:
    """A.4: WorkPackage(S, N, W) along the forwarding configuration."""
    return """
    input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST %(burst)d);
    output :: ToDPDKDevice(PORT 0, BURST %(burst)d);
    input -> WorkPackage(S %(s)g, N %(n)d, W %(w)d) -> EtherMirror -> output;
    """ % {"burst": burst, "s": s_mb, "n": n_accesses, "w": w_numbers}
