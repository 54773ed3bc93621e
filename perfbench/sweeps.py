"""Size sweeps: one hot layer timed at the sizes that drive its cost.

Every point reports the median over a few batches of the mean host
microseconds per call. Inputs are fixed (the sweeps take no seed), so the
same code gives the same work on every run.
"""

from __future__ import annotations

import random
import statistics
import time
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Dict

from sdnmob.addressing import AddressPool, Uid
from sdnmob.controller import HostReport, MobilityController, allocate_vpip
from sdnmob.flow_engine import FlowTable, snat_rule
from sdnmob.packet import Packet, PacketKind

BATCHES = 5
CLIENTS = IPv4Network("10.128.0.0/16")
VPIPS = IPv4Network("198.18.0.0/16")


def _us_per_call(fn: Callable[[int], object], calls: int) -> float:
    """Median over batches of the mean microseconds of ``fn(i)``."""
    per_batch = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        per_batch.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(per_batch)


def _host(net: IPv4Network, i: int) -> IPv4Address:
    return IPv4Address(int(net.network_address) + 1 + i)


def match_us(sizes=(10, 1000, 10_000)) -> Dict[int, float]:
    """``FlowTable.match_packet`` for a packet hitting the newest of N
    source-NAT rules, the one a linear scan reaches last. One table grows
    through the sizes."""
    table = FlowTable()
    table.install_default("ext")
    out = {}
    for rules in sizes:
        for i in range(len(table) - 1, rules):
            table.install(snat_rule(_host(CLIENTS, i), _host(VPIPS, i), "ext", None), 0)
        pkt = Packet(src_ip=_host(CLIENTS, rules - 1), dst_ip=IPv4Address("203.0.113.10"),
                     src_mac=Uid.from_int(1), payload_len=100, seq=0, sent_at=0,
                     kind=PacketKind.DATA)
        out[rules] = _us_per_call(lambda i: table.match_packet(pkt, i), max(20, 20_000 // rules))
    return out


def vpip_alloc_us(prefix: int, calls: int) -> float:
    """``allocate_vpip`` from an empty pool of the given prefix length."""
    pool = IPv4Network(f"198.18.0.0/{prefix}")
    rng = random.Random(0)
    return _us_per_call(lambda i: allocate_vpip(pool, set(), rng), calls)


def dhcp_alloc_us(prefix: int, calls: int) -> float:
    """``AddressPool.allocate``; every batch starts from a fresh pool."""
    network = IPv4Network(f"10.128.0.0/{prefix}")
    per_batch = []
    for _ in range(BATCHES):
        pool, rng = AddressPool(network), random.Random(0)
        t0 = time.perf_counter()
        for _ in range(calls):
            pool.allocate(rng)
        per_batch.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(per_batch)


def report_us(clients: int) -> float:
    """``handle_host_report`` refreshing known clients in a mobility table
    of ``clients`` records (no allocation: the address is unchanged)."""
    pool = IPv4Network("198.18.0.0/22")
    ctl = MobilityController(pool, random.Random(0), port_for_ip=lambda a: "zone:campus")
    reports = [HostReport(Uid.from_int(0x020000000000 + i), _host(CLIENTS, i))
               for i in range(clients)]
    for report in reports:
        ctl.handle_host_report(report, 0)
    calls = max(50, 20_000 // clients)
    return _us_per_call(lambda i: ctl.handle_host_report(reports[i % clients], 1), calls)


def run_sweeps() -> Dict[str, float]:
    out = {f"sweep.match_us.r{n}": us for n, us in match_us().items()}
    return {
        **out,
        "sweep.vpip_alloc_us.p24": vpip_alloc_us(24, 100),
        "sweep.vpip_alloc_us.p16": vpip_alloc_us(16, 3),
        "sweep.dhcp_alloc_us.p24": dhcp_alloc_us(24, 100),
        "sweep.dhcp_alloc_us.p16": dhcp_alloc_us(16, 3),
        "sweep.report_us.n10": report_us(10),
        "sweep.report_us.n1000": report_us(1000),
    }
