"""Reference zone lookup: a scan of every zone's span in zone order.

This is the straightforward lookup that ``sdnmob.sim.topology.Network``
replaced with one binary search over the zones' bounds in address order.
The tests require identical answers for every address.
"""

from __future__ import annotations

from typing import Iterable

from sdnmob.flow_engine import EXT_PORT
from sdnmob.sim.topology import Zone


def linear_zone_port(zones: Iterable[Zone], addr: int) -> str:
    """The core port that reaches ``addr``: its zone's, else external."""
    for zone in zones:
        if addr in zone.span:
            return zone.port
    return EXT_PORT
