"""Simulated testbed: one core router, one distribution router per zone,
one mobile client, one external server.

``Network`` is the routed network both modes share: hosts, zones, links,
DHCP and metrics. Each mode adds its core to it. Each zone's
state lives in one ``Zone`` in ``Network.zones``, and ``move_client`` makes
the client's first attach and every handoff. Every transmission ends
in one fate: ``accepted`` by a host, ``consumed`` at a zone gateway, dropped
at a host (``host_drops``), or dropped on one of a zone's two access links,
the only links the client's attachment takes down, which count their own
drops by reason. Every other link is a wire that is never down. The core
finds the port that reaches an address by one binary search over the
zones' span bounds, sorted once at build. Everything else the run records
goes straight into ``Network.trace``, the ``MetricsTrace`` the run returns;
``finalize`` adds the losses and folds the fates into its counters.
``new_client_conn`` opens both halves of a connection at once and returns
the client's, and each half holds its peer: the client's is the server,
the server's is the source of the data it receives.

``SdnNetwork`` adds the least set of SDN features: per-zone tap servers, the
controller and a flow-table core that translates the client's zone-local
address to its stable virtual address. Every control message is a plain
value sent through ``SdnNetwork._control_send``: a report's ASCII wire
string, the switch's ``PacketIn``, ``InstallFlows`` or ``RefreshFlows``. The
class table ``_HANDLERS`` picks the handler by the message's type, and it
runs after the control delay. One control-plane timer runs both
of its periodic passes, the taps' keepalive and the flow expiry. It is the
only event that reschedules itself for good, so it decides when an SDN run
ends: it reschedules exactly while some other event is pending, and
otherwise stops. ``TunnelNetwork`` is the
tunneling baseline: the core is the mobility anchor, the client keeps one
home address, packets on the distribution-core segment carry encapsulation
overhead, and a handoff redirects the tunnel only after its binding update
completes; the one event that completes it also starts DHCP.
``build_topology`` picks the class for a mode.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_right
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..addressing import AddressPool, Uid, check_disjoint, int_span
from ..controller import (
    ControlAction,
    EvictClient,
    HostReport,
    InstallFlows,
    MobilityController,
    RefreshFlows,
    DEFAULT_IDLE_TIMEOUT_US,
    LIVENESS_WINDOW_FACTOR,
)
from ..flow_engine import EXT_PORT, FlowMatch, PacketIn, SdnSwitch
from ..packet import Packet, PacketKind
from ..tap_server import (
    DEFAULT_UPDATE_INTERVAL_US,
    UNSPECIFIED,
    TapServer,
    ZoneConfig,
)
from ..units import US_PER_S
from .events import Simulator
from .links import Link
from .metrics import ClientEvicted, FlowExpired, FlowInstalled, HandoffRecord, MetricsTrace
from .transport import TransportSide

EXPIRY_TICK_US = 1 * US_PER_S
BROADCAST = int(IPv4Address("255.255.255.255"))
ALL_ROUTERS = int(IPv4Address("224.0.0.2"))

CLIENT_UID = Uid("aa:bb:cc:00:00:01")
SERVER_UID = Uid("aa:bb:cc:00:00:fe")
SERVER_ADDR = int(IPv4Address("203.0.113.10"))

# Read once at import: a module global is far cheaper than an enum lookup.
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK
_DHCP_DISCOVER = PacketKind.DHCP_DISCOVER
_ROUTER_SOLICITATION = PacketKind.ROUTER_SOLICITATION

Deliver = Callable[[Packet], None]


class ConfigurationError(ValueError):
    """A rejected configuration. ``field`` names the rejected config field
    and ``zone`` the id of the rejected zone, where the check knows one, so
    a parser can point at the line that set it."""

    def __init__(self, message: str, field: Optional[str] = None, zone: Optional[str] = None):
        super().__init__(message)
        self.field = field
        self.zone = zone


class ScenarioError(ValueError):
    """An invalid event list or mobility request.

    ``index`` is the position of the offending event when ``validate_events``
    raised it, so a parser can map the failure to that event's source line.
    """

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class Mode(enum.Enum):
    SDN = "sdn"
    PMIP = "pmip"


@dataclass(frozen=True)
class TopologyConfig:
    zones: Tuple[ZoneConfig, ...]
    link_bandwidth_bps: int = 10_000_000
    link_delay_us: int = 1_000
    control_delay_us: int = 5_000
    vpip_pool: IPv4Network = IPv4Network("198.51.100.0/24")
    seed: int = 42
    idle_timeout_us: int = DEFAULT_IDLE_TIMEOUT_US
    keepalive_interval_us: int = DEFAULT_UPDATE_INTERVAL_US

    def __post_init__(self) -> None:
        if not self.zones:
            raise ConfigurationError("at least one zone is required")
        ids = [z.zone_id for z in self.zones]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate zone ids: {ids}")
        if self.link_bandwidth_bps <= 0:
            raise ConfigurationError("link bandwidth must be positive", "link_bandwidth_bps")
        for name in ("link_delay_us", "control_delay_us"):
            if getattr(self, name) < 0:
                raise ConfigurationError("delays must be non-negative", name)
        if self.idle_timeout_us < 0:
            raise ConfigurationError("idle timeout must be non-negative", "idle_timeout_us")
        # The control-plane timer's next keepalive is one interval later: at
        # 0 the clock would never advance.
        if self.keepalive_interval_us <= 0:
            raise ConfigurationError("keepalive interval must be positive",
                                     "keepalive_interval_us")
        # Traffic for a lease or a vpIP equal to the server's address would
        # be routed to a zone or translated at the core, never to the server.
        for z in self.zones:
            if z.dhcp_latency < 0:
                raise ConfigurationError("dhcp latency must be non-negative", zone=z.zone_id)
            if SERVER_ADDR in z.span:
                raise ConfigurationError(f"zone range {z.dhcp_range} holds the server "
                                         f"address {IPv4Address(SERVER_ADDR)}", zone=z.zone_id)
        if SERVER_ADDR in int_span(self.vpip_pool):
            raise ConfigurationError(f"vpip pool {self.vpip_pool} holds the server "
                                     f"address {IPv4Address(SERVER_ADDR)}", "vpip_pool")
        ranges = [z.dhcp_range for z in self.zones] + [self.vpip_pool]
        overlap = check_disjoint(ranges)
        if overlap is not None:
            i, j = overlap
            # Blame the later of two zones, or the zone inside the pool.
            raise ConfigurationError(
                f"address ranges overlap: {ranges[i]} and {ranges[j]}",
                zone=self.zones[j if j < len(self.zones) else i].zone_id,
            )

    def zone(self, zone_id: str) -> ZoneConfig:
        for z in self.zones:
            if z.zone_id == zone_id:
                return z
        raise ConfigurationError(f"unknown zone: {zone_id!r}")


@dataclass(frozen=True)
class TunnelConfig:
    encap_overhead_bytes: int = 40
    binding_update_delay_us: Optional[int] = None  # default: 2x control delay

    def __post_init__(self) -> None:
        if self.encap_overhead_bytes < 0:
            raise ConfigurationError("encapsulation overhead cannot be negative",
                                     "encap_overhead_bytes")
        if self.binding_update_delay_us is not None and self.binding_update_delay_us < 0:
            raise ConfigurationError("binding update delay must be non-negative",
                                     "binding_update_delay_us")

    def resolved_binding_delay(self, control_delay_us: int) -> int:
        if self.binding_update_delay_us is not None:
            return self.binding_update_delay_us
        return 2 * control_delay_us


class ClientHost:
    """The mobile client: one attachment at a time, address leased by the
    network on each attach. It acquires an address while it has a zone but
    no address. It sends only while attached: the transport waits for an
    address, and DHCP and solicitations go out right after an attach."""

    def __init__(self, net: "Network", uid: Uid):
        self.net = net
        self.sim = net.sim
        self.uid = uid
        self.addr: Optional[int] = None
        self.zone: Optional[Zone] = None
        self.conns: Dict[int, TransportSide] = {}

    def transmit(self, pkt: Packet) -> None:
        self.net.transmissions += 1
        self.zone.access_up.send(pkt)

    def handle(self, pkt: Packet) -> None:
        side = self.conns.get(pkt.conn_id)
        if side is None or pkt.dst_ip != self.addr:
            self.net.host_drops += 1
            return
        self.net.accepted += 1
        kind = pkt.kind
        if kind is _DATA:
            # Simulated time never decreases, so the latest delivery is the
            # last one.
            self.net.trace.end_of_traffic_us = self.sim.now
            side.receive_data(pkt)
        elif kind is _ACK:
            side.receive_ack(pkt)


class ServerConn:
    def __init__(self, side: TransportSide):
        self.side = side


class ServerHost:
    """External correspondent: echoes or sinks client data, and resets a
    connection whose peer address suddenly changes."""

    def __init__(self, net: "Network", uid: Uid, addr: int):
        self.net = net
        self.sim = net.sim
        self.uid = uid
        self.addr = addr
        self.conns: Dict[int, ServerConn] = {}

    def listen(self, conn_id: int, payload_len: int, echo: bool) -> None:
        """Open the server half of connection ``conn_id``, whose segments
        carry ``payload_len`` bytes. Its peer is the source of the first
        data segment; ``echo`` sends each delivered segment back."""
        deliveries = self.net.trace.deliveries
        bits = payload_len * 8

        def on_deliver(now: int) -> None:
            deliveries.append(now, bits)
            if echo:
                side.submit(1)

        side = TransportSide(self, conn_id, None, payload_len,
                             rtt_log=self.net.trace.rtt_server, on_deliver=on_deliver)
        self.conns[conn_id] = ServerConn(side)

    def transmit(self, pkt: Packet) -> None:
        self.net.transmissions += 1
        self.net.ext_in.send(pkt)

    def handle(self, pkt: Packet) -> None:
        conn = self.conns.get(pkt.conn_id)
        if conn is None or pkt.dst_ip != self.addr:
            self.net.host_drops += 1
            return
        self.net.accepted += 1
        kind = pkt.kind
        if kind is _DATA:
            trace = self.net.trace
            now = trace.end_of_traffic_us = self.sim.now
            if trace.handoffs:
                h = trace.handoffs[-1]
                if h.first_delivery_us is None and pkt.sent_at > h.detach_us:
                    h.first_delivery_us = now
            side = conn.side
            # A data packet's source is new to the server only when it is
            # the connection's first or resets it, so only those record it.
            if side.peer != pkt.src_ip:
                if side.peer is not None:
                    trace.resets += 1
                side.peer = pkt.src_ip
                trace.server_observed_sources.add(str(IPv4Address(pkt.src_ip)))
            side.receive_data(pkt)
        elif kind is _ACK:
            conn.side.receive_ack(pkt)


class Zone:
    """One zone of the routed network: its config, DHCP pool and address
    range, the core's port toward it, its four links and the gateway that
    routes between them. The two access links are the ones
    ``set_attached`` takes up and down; the two trunk links are wires. DHCP
    and router-solicitation traffic terminates at the gateway. In SDN mode
    the zone also has a tap on its uplink."""

    def __init__(self, net: "Network", cfg: ZoneConfig, trunk_overhead: int):
        zid = cfg.zone_id
        self.net = net
        self.cfg = cfg
        # Leases persist for the run, so revisiting a zone yields a different
        # address; translation keeps the session alive regardless.
        self.pool = AddressPool(cfg.dhcp_range)
        self.span = cfg.span
        self.port = f"zone:{zid}"
        self.tap: Optional[TapServer] = None
        self.access_up = net._link(f"access-up:{zid}", net._uplink(self), access=True)
        self.access_down = net._link(f"access-down:{zid}", net.client.handle, access=True)
        self.trunk_up = net._link(f"trunk-up:{zid}", net._core_handle, trunk_overhead)
        # The core sends a zone only traffic for the zone's own leases, or
        # (tunnel mode) for the home address it bound to this zone.
        self.trunk_down = net._link(f"trunk-down:{zid}", self.access_down.send, trunk_overhead)
        self.set_attached(False)  # the client starts detached everywhere

    def set_attached(self, attached: bool) -> None:
        self.access_up.set_up(attached)
        self.access_down.set_up(attached)

    def handle_from_access(self, pkt: Packet) -> None:
        kind = pkt.kind
        if kind is _DHCP_DISCOVER or kind is _ROUTER_SOLICITATION:
            self.net.consumed += 1
            return
        if pkt.dst_ip in self.span:
            self.access_down.send(pkt)
        else:
            self.trunk_up.send(pkt)


class Network:
    """The routed network both modes share: hosts, zones, links,
    DHCP and metrics. A mode subclass supplies the core
    (``_core_handle``) and the lease draw (``_lease``). Build one network
    per run."""

    mode: Mode

    def __init__(self, cfg: TopologyConfig, trunk_overhead_bytes: int = 0):
        self.cfg = cfg
        self.sim = Simulator()
        self.rng = random.Random(cfg.seed)

        self.trace = MetricsTrace()
        # Packet fates, folded into the trace's counters by finalize.
        self.transmissions = 0
        self.accepted = 0
        self.consumed = 0
        self.host_drops = 0

        self.ran = False  # set by the first run_scenario

        self.server = ServerHost(self, SERVER_UID, SERVER_ADDR)
        self.client = ClientHost(self, CLIENT_UID)
        self.zones: Dict[str, Zone] = {
            z.zone_id: Zone(self, z, trunk_overhead_bytes) for z in cfg.zones
        }
        self.ext_out = self._link("ext-out", self.server.handle)
        self.ext_in = self._link("ext-in", self._core_handle)
        self.links: List[Link] = [
            link for z in self.zones.values()
            for link in (z.access_up, z.access_down, z.trunk_up, z.trunk_down)
        ] + [self.ext_out, self.ext_in]
        # Core router port name -> the link leaving the core on that port.
        self._port_links: Dict[str, Link] = {
            EXT_PORT: self.ext_out, **{z.port: z.trunk_down for z in self.zones.values()}
        }
        # The zone spans are disjoint, so their (start, stop) bounds in
        # address order never decrease. The count of bounds at or below an
        # address picks its port: an odd count is inside a zone.
        bounds: List[int] = []
        ports = [EXT_PORT]
        for zone in sorted(self.zones.values(), key=lambda z: z.span.start):
            bounds += zone.span.start, zone.span.stop
            ports += zone.port, EXT_PORT
        self._zone_bounds = tuple(bounds)
        self._bound_ports = tuple(ports)

    # -- wiring --------------------------------------------------------------

    def _link(self, name: str, deliver: Deliver, overhead: int = 0,
              access: bool = False) -> Link:
        cfg = self.cfg
        return Link(self.sim, name, cfg.link_bandwidth_bps, cfg.link_delay_us,
                    deliver, overhead, access)

    def _uplink(self, zone: Zone) -> Deliver:
        """Where ``zone``'s access-up link delivers."""
        return zone.handle_from_access

    def _zone_port(self, addr: int) -> str:
        """The core port that reaches ``addr``: its zone's, else external."""
        return self._bound_ports[bisect_right(self._zone_bounds, addr)]

    # -- core ----------------------------------------------------------------------

    def _core_handle(self, pkt: Packet) -> None:
        raise NotImplementedError

    # -- client attachment / mobility ---------------------------------------------

    def _lease(self, zone: Zone) -> int:
        """The address the client takes when DHCP completes in the zone: a
        fresh draw from its pool (seed-deterministic)."""
        return zone.pool.allocate(self.rng)

    def move_client(self, zone_id: str) -> None:
        """Attach the client to ``zone_id`` and start address acquisition.
        A move from another zone is a handoff: refused while the client
        acquires an address, else recorded, and the old zone's links go
        down, so packets in flight toward it drop when they arrive."""
        zone = self.zones.get(zone_id)
        if zone is None:
            raise ScenarioError(f"unknown zone: {zone_id!r}")
        client = self.client
        old = client.zone
        if old is zone:
            raise ScenarioError(f"move to current zone {zone_id!r}")
        if old is not None:
            if client.addr is None:
                raise ScenarioError("mobility event during address acquisition")
            self.trace.handoffs.append(HandoffRecord(detach_us=self.sim.now))
            old.set_attached(False)
            client.addr = None
        client.zone = zone
        zone.set_attached(True)
        self._start_dhcp(zone)

    def _start_dhcp(self, zone: Zone) -> None:
        discover = Packet(
            src_ip=UNSPECIFIED, dst_ip=BROADCAST,
            src_mac=self.client.uid, payload_len=0, seq=0,
            sent_at=self.sim.now, kind=PacketKind.DHCP_DISCOVER,
        )
        self.client.transmit(discover)
        self.sim.schedule(zone.cfg.dhcp_latency, self._complete_dhcp, zone)

    def _complete_dhcp(self, zone: Zone) -> None:
        self.client.addr = self._lease(zone)
        solicit = Packet(
            src_ip=self.client.addr, dst_ip=ALL_ROUTERS,
            src_mac=self.client.uid, payload_len=0, seq=0,
            sent_at=self.sim.now, kind=PacketKind.ROUTER_SOLICITATION,
        )
        self.client.transmit(solicit)
        for side in self.client.conns.values():
            side.flush_all()

    # -- traffic -------------------------------------------------------------------

    def new_client_conn(self, payload_len: int, echo: bool) -> TransportSide:
        """Open a connection from the client to the server, both halves at
        once, for segments of ``payload_len`` bytes; ``echo`` makes the
        server send each segment back."""
        client = self.client
        conn_id = len(client.conns)
        side = TransportSide(client, conn_id, self.server.addr, payload_len,
                             rtt_log=self.trace.rtt_client)
        client.conns[conn_id] = side
        self.server.listen(conn_id, payload_len, echo)
        return side

    # -- trace -------------------------------------------------------------------------

    def finalize(self) -> MetricsTrace:
        losses = 0
        for conn_id, client_side in self.client.conns.items():
            server_side = self.server.conns[conn_id].side
            losses += client_side.submitted - server_side.expected
            losses += server_side.submitted - client_side.expected
        fates = {"transmissions": self.transmissions, "accepted": self.accepted,
                 "consumed": self.consumed, "host_drops": self.host_drops,
                 "link_drops": sum(link.down_at_send + link.down_at_arrival
                                   for link in self.links)}
        counters = {key: n for key, n in fates.items() if n}
        counters["retransmissions"] = sum(
            s.retransmissions for s in self.client.conns.values()
        ) + sum(c.side.retransmissions for c in self.server.conns.values())
        trace = self.trace
        trace.losses = losses
        trace.counters = counters
        return trace


class SdnNetwork(Network):
    """SDN mode: the core translates the client's zone-local address to its
    stable virtual address according to the flow table, which the
    controller fills from tap-server discovery reports."""

    mode = Mode.SDN

    def __init__(self, cfg: TopologyConfig):
        super().__init__(cfg)
        self.controller = MobilityController(
            cfg.vpip_pool,
            self.rng,
            port_for_ip=self._zone_port,
            idle_timeout=cfg.idle_timeout_us,
        )
        self.switch = SdnSwitch(self._zone_port)
        self._liveness_window = int(LIVENESS_WINDOW_FACTOR * cfg.keepalive_interval_us)
        self.sim.schedule_at(min(EXPIRY_TICK_US, cfg.keepalive_interval_us),
                             self._control_tick)

    def _uplink(self, zone: Zone) -> Deliver:
        # Each zone gets its tap here, before the link that feeds it. The tap
        # watches the uplink only: what goes down to the client comes from
        # outside the zone and could only count as a spoof.
        tap = zone.tap = TapServer(zone.cfg, update_interval=self.cfg.keepalive_interval_us)
        gateway = zone.handle_from_access
        sim = self.sim

        def up(pkt: Packet) -> None:
            report = tap.observe_packet(pkt, sim.now)
            if report is not None:
                self._control_send(report.serialize())
            gateway(pkt)
        return up

    # -- control channel -------------------------------------------------------

    def _control_send(self, msg: Union[str, PacketIn, InstallFlows, RefreshFlows]) -> None:
        """Send one control message: the handler ``_HANDLERS`` holds for its
        type runs it after the control delay."""
        self.sim.schedule(self.cfg.control_delay_us, self._HANDLERS[msg.__class__], self, msg)

    def _dispatch_actions(self, actions: List[ControlAction]) -> None:
        for action in actions:
            if action.__class__ is EvictClient:
                self.trace.flow_events.append(ClientEvicted(self.sim.now, action.uid))
            else:
                self._control_send(action)

    def _deliver_report(self, wire: str) -> None:
        # A report travels in its ASCII wire form; parsing on delivery keeps
        # the format honest on every message.
        report = HostReport.parse(wire)
        self._dispatch_actions(self.controller.handle_host_report(report, self.sim.now))

    def _controller_packet_in(self, msg: PacketIn) -> None:
        self._dispatch_actions(self.controller.handle_packet_in(msg.packet, self.sim.now))

    def _apply_install(self, action: InstallFlows) -> None:
        now = self.sim.now
        for rule in (action.snat, action.dnat):
            installed = self.switch.install(rule, now)
            self.trace.flow_events.append(FlowInstalled(now, action.uid, installed))
        for pkt, port in self.switch.drain(now):
            self._port_links[port].send(pkt)

    def _apply_refresh(self, action: RefreshFlows) -> None:
        record = self.controller.mst.lookup(action.uid)
        if record is None:
            return
        now = self.sim.now
        self.switch.table.touch(FlowMatch(src_ip=record.real_ip), now)
        self.switch.table.touch(FlowMatch(dst_ip=record.virtual_ip), now)

    _HANDLERS = {str: _deliver_report, PacketIn: _controller_packet_in,
                 InstallFlows: _apply_install, RefreshFlows: _apply_refresh}

    # -- core router -------------------------------------------------------------

    def _core_handle(self, pkt: Packet) -> None:
        decision = self.switch.process_packet(pkt, self.sim.now)
        if decision.__class__ is PacketIn:
            self._control_send(decision)
        else:
            out, port = decision
            self._port_links[port].send(out)

    # -- control-plane timer -------------------------------------------------------

    def _control_tick(self) -> None:
        """Fire at each keepalive boundary and each whole second. A boundary
        runs every zone's keepalive pass, in zone order; a whole second runs
        the expiry pass; a shared instant runs both, keepalive first. The
        firing timer is out of the heap, so it reschedules exactly while
        some other event is pending."""
        sim = self.sim
        now = sim.now
        interval = self.cfg.keepalive_interval_us
        into_interval = now % interval
        if not into_interval:
            for zone in self.zones.values():
                for report in zone.tap.tick(now):
                    self._control_send(report.serialize())
        into_second = now % EXPIRY_TICK_US
        if not into_second:
            for rule in self.switch.table.expire(now):
                self.trace.flow_events.append(FlowExpired(now, rule))
            self._dispatch_actions(self.controller.evict_stale(
                now, self._liveness_window, self.switch.table.snat_sources()))
        if sim.pending():
            sim.schedule_at(min(now - into_second + EXPIRY_TICK_US,
                                now - into_interval + interval), self._control_tick)

    def finalize(self) -> MetricsTrace:
        trace = super().finalize()
        # The packets the core held back for a flow install.
        trace.counters["buffer_residue"] = len(self.switch.pending)
        trace.counters["buffer_drops"] = self.switch.buffer_drops
        return trace


class TunnelNetwork(Network):
    """Tunneling baseline: the core is the mobility anchor. The client keeps
    one home address, packets on the distribution-core segment carry
    encapsulation overhead, and a handoff redirects the tunnel only after
    its binding update completes."""

    mode = Mode.PMIP

    def __init__(self, cfg: TopologyConfig, tunnel: TunnelConfig):
        super().__init__(cfg, trunk_overhead_bytes=tunnel.encap_overhead_bytes)
        self.tunnel = tunnel
        self.home_addr: Optional[int] = None
        self.bound_zone: Optional[Zone] = None

    def _core_handle(self, pkt: Packet) -> None:
        # A home address exists only once a binding does.
        dst = pkt.dst_ip
        if dst == self.home_addr:
            self.bound_zone.trunk_down.send(pkt)
        else:
            self._port_links[self._zone_port(dst)].send(pkt)

    def _start_dhcp(self, zone: Zone) -> None:
        # Binding registration precedes address (re)confirmation.
        self.sim.schedule(self.tunnel.resolved_binding_delay(self.cfg.control_delay_us),
                          self._bind, zone)

    def _bind(self, zone: Zone) -> None:
        """The binding acknowledgement: the tunnel ends at ``zone`` from
        here on, and the client starts DHCP there in the same event, as a
        mobile access gateway acts on the acknowledgement (RFC 5213)."""
        self.bound_zone = zone
        super()._start_dhcp(zone)

    def _lease(self, zone: Zone) -> int:
        if self.home_addr is None:
            self.home_addr = super()._lease(zone)
        return self.home_addr


def build_topology(cfg: TopologyConfig, mode: Mode = Mode.SDN,
                   tunnel: Optional[TunnelConfig] = None) -> Network:
    """Materialize the three-tier network for one run."""
    if mode is Mode.PMIP and tunnel is None:
        raise ConfigurationError("tunnel parameters are required in pmip mode")
    return SdnNetwork(cfg) if mode is Mode.SDN else TunnelNetwork(cfg, tunnel)
