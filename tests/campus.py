"""A campus of clients registered with the SDN controller at t=0, the way
a tap report for each would register it: ``handle_host_report``, then both
translation rules through ``SdnSwitch.install``.

The network is the bundled ``handoff_bulk`` one plus a ``campus`` /16 zone
that holds the clients' real addresses, with a /20 virtual pool: the shape
of a campus-sized controller.
"""

import random
from dataclasses import replace
from ipaddress import IPv4Address, IPv4Network
from typing import List, Tuple

from sdnmob.addressing import Uid
from sdnmob.config import bundled_scenario_path, load_config
from sdnmob.controller import HostReport, InstallFlows
from sdnmob.sim import build_topology
from sdnmob.sim.topology import SdnNetwork
from sdnmob.tap_server import ZoneConfig

CAMPUS = IPv4Network("10.128.0.0/16")
VPIP_POOL = IPv4Network("198.18.16.0/20")
UID_BASE = 0x02_00_00_00_00_00


def campus_network() -> SdnNetwork:
    topology = load_config(bundled_scenario_path("handoff_bulk"), mode="sdn").topology
    return build_topology(replace(topology, vpip_pool=VPIP_POOL,
                                  zones=topology.zones + (ZoneConfig("campus", CAMPUS),)))


def campus_population(count: int, seed: int = 1) -> List[Tuple[Uid, IPv4Address]]:
    """``count`` clients: distinct uids, each with a distinct host address
    of the campus."""
    base = int(CAMPUS.network_address)
    offsets = random.Random(seed).sample(range(1, CAMPUS.num_addresses - 1), count)
    return [(Uid.from_int(UID_BASE + i), IPv4Address(base + o))
            for i, o in enumerate(offsets)]


def register(net: SdnNetwork, population: List[Tuple[Uid, IPv4Address]]) -> None:
    """Report each client at t=0 and install the flows the controller asks
    for."""
    for uid, real_ip in population:
        for action in net.controller.handle_host_report(HostReport(uid, real_ip), 0):
            if isinstance(action, InstallFlows):
                net.switch.install(action.snat, 0)
                net.switch.install(action.dnat, 0)
