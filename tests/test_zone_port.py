"""The core's zone lookup, ``Network._zone_port``, answers as a scan of
every zone does (``linear_zone_port``) at every address: inside each zone
at both ends of its span, just outside them, and outside every zone. The
SDN switch routes with the same lookup."""

from ipaddress import IPv4Address, IPv4Network

from hypothesis import given, settings
from hypothesis import strategies as st

from linear_zone_port import linear_zone_port
from sdnmob.sim import Mode, TopologyConfig, TunnelConfig, build_topology
from sdnmob.sim.topology import SERVER_ADDR
from sdnmob.tap_server import ZoneConfig

_BASE = int(IPv4Address("10.0.0.0"))


@st.composite
def disjoint_zones(draw):
    """2 to 6 disjoint zones, /16 to /29, inside 10.0.0.0/8 and in drawn
    order; a gap of 0 blocks makes a zone start where the one before it
    stops."""
    cursor = _BASE
    nets = []
    for _ in range(draw(st.integers(2, 6))):
        prefix = draw(st.integers(16, 29))
        size = 1 << (32 - prefix)
        start = -(-cursor // size) * size + draw(st.integers(0, 3)) * size
        nets.append(IPv4Network((start, prefix)))
        cursor = start + size
    order = draw(st.permutations(range(len(nets))))
    return tuple(ZoneConfig(f"z{i}", nets[i]) for i in order)


@settings(max_examples=200, deadline=None)
@given(zones=disjoint_zones(), mode=st.sampled_from(list(Mode)),
       outside=st.lists(st.integers(0, 2**32 - 1), max_size=8))
def test_zone_port_equals_the_linear_scan(zones, mode, outside):
    net = build_topology(TopologyConfig(zones=zones), mode, TunnelConfig())
    probes = [0, 2**32 - 1, SERVER_ADDR, *outside]
    for zone in net.zones.values():
        span = zone.span
        probes += [span.start - 1, span.start, span.stop - 1, span.stop]
    for addr in probes:
        expected = linear_zone_port(net.zones.values(), addr)
        assert net._zone_port(addr) == expected, IPv4Address(addr)
        if mode is Mode.SDN:
            assert net.switch.route_port(addr) == expected
