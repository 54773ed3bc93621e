"""Per-zone passive host discovery.

A tap server sees a copy of every packet its zone's clients send up
across the access/distribution boundary. It validates source addresses
against the zone's DHCP range (spoof guard), learns (uid, real IP) bindings
into a time buffer, and re-reports live clients to the controller so their
state and flows stay fresh. The tap keeps no clock of its own: the buffer
stamps each binding with the simulator's µs time of its latest packet, and
the owner runs the keepalive pass (``tick``) once per update interval.
Observation is side-effect-free on the data plane.

Only the uplink is tapped: a packet going down to a client comes from
outside the zone, so its source never passes the spoof guard and observing
it could only count a false spoof. The buffer and the range check work on
address integers, as packets carry them; an ``IPv4Address`` is built only
for a report the tap emits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from ipaddress import IPv4Address, IPv4Network
from typing import Dict, List, Optional

from .addressing import Uid, int_span
from .controller import HostReport
from .packet import Packet, PacketKind
from .units import US_PER_S

UNSPECIFIED = 0  # 0.0.0.0

# Re-reporting cadence; five simulated minutes unless the scenario overrides.
DEFAULT_UPDATE_INTERVAL_US = 300 * US_PER_S

# A buffer entry with no traffic for this many update intervals is dropped
# instead of being re-reported.
STALENESS_FACTOR = 2


class TapFilter(enum.Enum):
    ALL_PACKETS = "all"
    DHCP_AND_RS_ONLY = "dhcp_rs_only"


_DISCOVERY_KINDS = frozenset({PacketKind.DHCP_DISCOVER, PacketKind.ROUTER_SOLICITATION})


@dataclass(frozen=True)
class ZoneConfig:
    zone_id: str
    dhcp_range: IPv4Network
    dhcp_latency: int = 100_000  # microseconds
    tap_filter: TapFilter = TapFilter.ALL_PACKETS
    # The range as integers, computed once for the gateway, the core's port
    # lookup and the tap's spoof guard.
    span: range = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "span", int_span(self.dhcp_range))


@dataclass
class TimeBufferEntry:
    """A buffered binding; its real address is its key in ``TapServer.buffer``."""

    uid: Uid
    last_seen: int


class TapServer:
    """HostDiscovery state machine for one zone."""

    def __init__(
        self,
        zone: ZoneConfig,
        update_interval: int = DEFAULT_UPDATE_INTERVAL_US,
    ) -> None:
        self.zone = zone
        # Read once here, not on every tapped packet.
        self._discovery_only = zone.tap_filter is TapFilter.DHCP_AND_RS_ONLY
        self._span = zone.span
        self.update_interval = update_interval
        # real IP -> entry
        self.buffer: Dict[int, TimeBufferEntry] = {}
        self.rejected_spoofed = 0
        self.ignored_unaddressed = 0

    def observe_packet(self, pkt: Packet, now: int) -> Optional[HostReport]:
        """Inspect one tapped packet copy; maybe produce a discovery report.

        Packets still inside a DHCP exchange (source 0.0.0.0) are skipped,
        sources outside the zone's range are rejected without touching the
        buffer, and already-known bindings only refresh their timestamp.
        """
        if self._discovery_only and pkt.kind not in _DISCOVERY_KINDS:
            return None
        src = pkt.src_ip
        # Only addressed in-range sources enter the buffer, so a buffered
        # source needs neither check below.
        # A client's packets share its one Uid object, so the identity test
        # settles nearly every known binding without the dataclass __eq__.
        entry = self.buffer.get(src)
        if entry is not None and (entry.uid is pkt.src_mac or entry.uid == pkt.src_mac):
            entry.last_seen = now
            return None
        if src == UNSPECIFIED:
            self.ignored_unaddressed += 1
            return None
        if src not in self._span:
            self.rejected_spoofed += 1
            return None
        # New address, or the address changed hands (DHCP reuse): report.
        self.buffer[src] = TimeBufferEntry(pkt.src_mac, now)
        return HostReport(pkt.src_mac, IPv4Address(src))

    def tick(self, now: int) -> List[HostReport]:
        """Keepalive pass: drop the bindings that went quiet, then re-report
        every live one. The caller runs it once per update interval."""
        horizon = STALENESS_FACTOR * self.update_interval
        stale = [ip for ip, e in self.buffer.items() if now - e.last_seen > horizon]
        for ip in stale:
            del self.buffer[ip]
        return [HostReport(e.uid, IPv4Address(ip)) for ip, e in self.buffer.items()]
