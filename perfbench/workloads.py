"""Seeded workload generators.

Each workload turns a seed into scenario-file text (loaded through the
public ``load_config``) plus, for ``many_clients``, a synthetic client
population. The seed picks address prefixes, the simulator's own generator
seed and the population's real addresses; the traffic shape, move schedule
and sizes are fixed by the workload, so every seed costs about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Dict, List, Tuple

from sdnmob.addressing import Uid
from sdnmob.controller import HostReport, InstallFlows

_TUNNEL = """
[tunnel]
encap_overhead_bytes = 40
binding_update_delay_s = 0.01
"""

POPULATION_SIZE = 500
CAMPUS_RANGE = IPv4Network("10.128.0.0/16")
# Population uids live far from the simulator's own client and server uids.
POPULATION_UID_BASE = 0x02_00_00_00_00_00


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_text: str
    # (uid, real IP) pairs registered in the SDN network before the run.
    population: Tuple[Tuple[Uid, IPv4Address], ...] = ()


def _topology(rng: random.Random, vpip_pool: str, keepalive_s: int) -> str:
    return f"""[topology]
link_bandwidth_bps = 10000000
link_delay_s = 0.001
control_delay_s = 0.005
vpip_pool = {vpip_pool}
seed = {rng.randrange(1 << 31)}
idle_timeout_s = 30
keepalive_interval_s = {keepalive_s}
"""


def _zone_octets(rng: random.Random, count: int) -> List[int]:
    # Second octets below 128 keep every zone clear of the campus range.
    return rng.sample(range(1, 128), count)


def bulk_handoff(rng: random.Random) -> Workload:
    a, b = _zone_octets(rng, 2)
    moves = "\n".join(
        f"move{i} = move_client at={5 * i} zone={'zone2' if i % 2 else 'zone1'}"
        for i in range(1, 6)
    )
    text = (
        _topology(rng, "198.51.100.0/24", 300)
        + f"""
[zones]
zone1 = range=10.{a}.{rng.randrange(256)}.0/24 dhcp_latency_s=0.1 tap_filter=all
zone2 = range=10.{b}.{rng.randrange(256)}.0/24 dhcp_latency_s=0.1 tap_filter=all

[events]
bulk = start_bulk at=0 total_bytes=36500000 payload_len=1460
{moves}
""" + _TUNNEL
    )
    return Workload("bulk_handoff", text)


def roaming_echo(rng: random.Random) -> Workload:
    octets = _zone_octets(rng, 4)
    zones = "\n".join(
        f"zone{i + 1} = range=10.{o}.{16 * rng.randrange(16)}.0/20 "
        f"dhcp_latency_s=0.1 tap_filter=all"
        for i, o in enumerate(octets)
    )
    # Moves sit 2.5 s off the 60 s keepalive boundaries and the four-zone
    # cycle puts the client in zone1 at every tick, so zones 2-4 re-report
    # departed bindings after it: the stale keepalive re-report shows.
    moves = "\n".join(
        f"move{k} = move_client at={2.5 + 5 * k} zone=zone{(k + 1) % 4 + 1}"
        for k in range(59)
    )
    text = (
        _topology(rng, "198.51.100.0/24", 60)
        + f"""
[zones]
{zones}

[events]
echo = start_echo at=0 interval_s=0.02 payload_len=100
{moves}
stop = stop at=300
""" + _TUNNEL
    )
    return Workload("roaming_echo", text)


def many_clients(rng: random.Random) -> Workload:
    a, b = _zone_octets(rng, 2)
    text = (
        _topology(rng, f"198.18.{16 * rng.randrange(16)}.0/20", 300)
        + f"""
[zones]
zone1 = range=10.{a}.{rng.randrange(256)}.0/24 dhcp_latency_s=0.1 tap_filter=all
zone2 = range=10.{b}.{rng.randrange(256)}.0/24 dhcp_latency_s=0.1 tap_filter=all
campus = range={CAMPUS_RANGE} dhcp_latency_s=0.1 tap_filter=all

[events]
bulk = start_bulk at=0 total_bytes=7300000 payload_len=1460
move = move_client at=3 zone=zone2
""" + _TUNNEL
    )
    base = int(CAMPUS_RANGE.network_address)
    offsets = rng.sample(range(1, CAMPUS_RANGE.num_addresses - 1), POPULATION_SIZE)
    population = tuple(
        (Uid.from_int(POPULATION_UID_BASE + i), IPv4Address(base + off))
        for i, off in enumerate(offsets)
    )
    return Workload("many_clients", text, population)


GENERATORS: Dict[str, Callable[[random.Random], Workload]] = {
    "bulk_handoff": bulk_handoff,
    "roaming_echo": roaming_echo,
    "many_clients": many_clients,
}


def make_workload(name: str, seed: int) -> Workload:
    """Same (name, seed), same workload: string seeding is stable across
    interpreter runs and hash randomisation."""
    return GENERATORS[name](random.Random(f"{name}:{seed}"))


def populate(net, population) -> None:
    """Register each synthetic client with the controller and install the
    flows it asks for, as a tap report at t=0 would."""
    for uid, real_ip in population:
        for action in net.controller.handle_host_report(HostReport(uid, real_ip), 0):
            if isinstance(action, InstallFlows):
                net.switch.install(action.snat, 0)
                net.switch.install(action.dnat, 0)
