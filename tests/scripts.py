"""Randomized mobility scripts for hypothesis: echo traffic over one to
three moves among two or three /24 zones (``10.1.0.0/24`` upward), each
with a 100 ms DHCP latency, stopping 1 s after the last move settles."""

from ipaddress import IPv4Network

from hypothesis import strategies as st

from sdnmob.sim import MoveClient, StartEcho, Stop, TopologyConfig
from sdnmob.tap_server import ZoneConfig
from sdnmob.units import usec


@st.composite
def echo_scripts(draw, min_zones=2):
    """``(TopologyConfig, events, echo payload length)`` over ``min_zones``
    to three zones."""
    n_zones = draw(st.integers(min_zones, 3))
    zones = tuple(
        ZoneConfig(f"z{i}", IPv4Network(f"10.{i + 1}.0.0/24"), usec(0.1))
        for i in range(n_zones)
    )
    cfg = TopologyConfig(zones=zones, seed=draw(st.integers(0, 2**32)))
    interval = draw(st.sampled_from([0.02, 0.04, 0.05]))
    payload = draw(st.integers(50, 500))
    events = [StartEcho(0, usec(interval), payload)]
    current = zones[0].zone_id
    at = 1.0
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(
            [z.zone_id for z in zones if z.zone_id != current]))
        events.append(MoveClient(usec(at), target))
        current = target
        at += draw(st.sampled_from([1.0, 1.5, 2.0]))
    events.append(Stop(usec(at + 1.0)))
    return cfg, events, payload
