"""Simulated testbed: one core router, one distribution router per zone,
one mobile client, one external server.

``Network`` is the routed network both modes share: hosts, zone gateways,
links, DHCP, metrics and quiescence. Each mode adds its core to it.
``SdnNetwork`` adds the least set of SDN features: per-zone tap servers, the
controller and a flow-table core that translates the client's zone-local
address to its stable virtual address. ``TunnelNetwork`` is the tunneling
baseline: the core is the mobility anchor, the client keeps one home
address, packets on the distribution-core segment carry encapsulation
overhead, and a handoff redirects the tunnel only after its binding update
completes. ``build_topology`` picks the class for a mode.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Dict, List, Optional, Tuple

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
from ..flow_engine import FlowMatch, PacketIn, SdnSwitch
from ..packet import Packet, PacketKind
from ..tap_server import (
    DEFAULT_UPDATE_INTERVAL_US,
    TapServer,
    ZoneConfig,
)
from ..units import US_PER_S
from .events import Simulator
from .links import Link
from .metrics import HandoffRecord, MetricsTrace, MstTransition, Series
from .transport import TransportSide

EXT_PORT = "ext"
EXPIRY_TICK_US = 1 * US_PER_S
BROADCAST = IPv4Address("255.255.255.255")
ALL_ROUTERS = IPv4Address("224.0.0.2")

CLIENT_UID = Uid("aa:bb:cc:00:00:01")
SERVER_UID = Uid("aa:bb:cc:00:00:fe")
SERVER_ADDR = IPv4Address("203.0.113.10")

# Read once at import: a module global is far cheaper than an enum lookup.
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK
_DHCP_DISCOVER = PacketKind.DHCP_DISCOVER
_ROUTER_SOLICITATION = PacketKind.ROUTER_SOLICITATION

Deliver = Callable[[Packet, int], None]


class ConfigurationError(ValueError):
    pass


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
            raise ConfigurationError("link bandwidth must be positive")
        if self.link_delay_us < 0 or self.control_delay_us < 0:
            raise ConfigurationError("delays must be non-negative")
        if any(z.dhcp_latency < 0 for z in self.zones):
            raise ConfigurationError("dhcp latency must be non-negative")
        overlap = check_disjoint([z.dhcp_range for z in self.zones] + [self.vpip_pool])
        if overlap is not None:
            raise ConfigurationError(
                f"address ranges overlap: {overlap[0]} and {overlap[1]}"
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
            raise ConfigurationError("encapsulation overhead cannot be negative")

    def resolved_binding_delay(self, control_delay_us: int) -> int:
        if self.binding_update_delay_us is not None:
            return self.binding_update_delay_us
        return 2 * control_delay_us


class ClientHost:
    """The mobile client: one attachment at a time, address leased by the
    network on each attach."""

    def __init__(self, net: "Network", uid: Uid):
        self.net = net
        self.sim = net.sim
        self.uid = uid
        self.addr: Optional[IPv4Address] = None
        self.addr_int = -1  # int(addr), or -1 while unaddressed
        self.current_zone: Optional[str] = None
        self.conns: Dict[int, TransportSide] = {}
        self.in_dhcp = False

    def set_addr(self, addr: Optional[IPv4Address]) -> None:
        self.addr = addr
        self.addr_int = -1 if addr is None else int(addr)

    def peer_addr(self, conn_id: int) -> IPv4Address:
        return self.net.server.addr

    def transmit(self, pkt: Packet) -> None:
        self.net.transmissions += 1
        link = self.net.access_up.get(self.current_zone)
        if link is None:
            self.net.count("link_drops")
            return
        link.send(pkt)

    def handle(self, pkt: Packet, now: int) -> None:
        if pkt.dst_int != self.addr_int:
            self.net.count("host_drops")
            return
        side = self.conns.get(pkt.conn_id)
        if side is None:
            self.net.count("host_drops")
            return
        self.net.accepted += 1
        kind = pkt.kind
        if kind is _DATA:
            self.net.note_delivery(now)
            side.receive_data(pkt)
        elif kind is _ACK:
            side.receive_ack(pkt)


class ServerConn:
    def __init__(self, side: TransportSide, established_src: IPv4Address):
        self.side = side
        self.established_src = established_src
        self.established_int = int(established_src)


class ServerHost:
    """External correspondent: echoes or sinks client data, and resets a
    connection whose established source address suddenly changes."""

    def __init__(self, net: "Network", uid: Uid, addr: IPv4Address):
        self.net = net
        self.sim = net.sim
        self.uid = uid
        self.addr = addr
        self.addr_int = int(addr)
        self.conns: Dict[int, ServerConn] = {}

    def peer_addr(self, conn_id: int) -> IPv4Address:
        return self.conns[conn_id].established_src

    def transmit(self, pkt: Packet) -> None:
        self.net.transmissions += 1
        self.net.ext_in.send(pkt)

    def handle(self, pkt: Packet, now: int) -> None:
        if pkt.dst_int != self.addr_int:
            self.net.count("host_drops")
            return
        self.net.accepted += 1
        kind = pkt.kind
        if kind is _DATA:
            self.net.note_server_data(pkt, now)
            conn = self.conns.get(pkt.conn_id)
            # A data packet's source is new to the server only when it opens
            # a connection or resets one, so only those record it.
            if conn is None:
                conn = self._establish(pkt.conn_id, pkt.src_ip)
                self.net.observed_sources.add(str(pkt.src_ip))
            elif conn.established_int != pkt.src_int:
                self.net.resets += 1
                conn.established_src = pkt.src_ip
                conn.established_int = pkt.src_int
                self.net.observed_sources.add(str(pkt.src_ip))
            conn.side.receive_data(pkt)
        elif kind is _ACK:
            conn = self.conns.get(pkt.conn_id)
            if conn is not None:
                conn.side.receive_ack(pkt)

    def _establish(self, conn_id: int, src: IPv4Address) -> ServerConn:
        def on_deliver(now: int, payload_len: int) -> None:
            self.net.note_goodput(now, payload_len)
            if conn_id in self.net.echo_conn_ids:
                conn.side.submit(payload_len)

        side = TransportSide(self, conn_id, rtt_log=self.net.rtt_server,
                             on_deliver=on_deliver)
        conn = ServerConn(side, src)
        self.conns[conn_id] = conn
        return conn


class DistRouter:
    """Zone gateway: plain routing between its access segment and the core.
    DHCP and router-solicitation traffic terminates here."""

    def __init__(self, net: "Network", zone: ZoneConfig, span: range):
        self.net = net
        self.zone = zone
        self._span = span  # the zone's range as integers
        # The zone's access-down and trunk-up links, set by Network._build_links.
        self.access_down: Link
        self.trunk_up: Link

    def handle_from_access(self, pkt: Packet, now: int) -> None:
        kind = pkt.kind
        if kind is _DHCP_DISCOVER or kind is _ROUTER_SOLICITATION:
            self.net.count("consumed")
            return
        if pkt.dst_int in self._span:
            self.access_down.send(pkt)
        else:
            self.trunk_up.send(pkt)

    def handle_from_core(self, pkt: Packet, now: int) -> None:
        # The core sends a zone only traffic for the zone's own leases, or
        # (tunnel mode) for the home address it bound to this zone.
        self.access_down.send(pkt)


class Network:
    """The routed network both modes share: hosts, zone gateways, links,
    DHCP, metrics and quiescence. A mode subclass supplies the core
    (``_core_handle``), the lease draw (``_lease``) and the core's buffer
    counts (``_buffer_counts``). Build one network per run."""

    mode: Mode

    def __init__(self, cfg: TopologyConfig, trunk_overhead_bytes: int = 0):
        self.cfg = cfg
        self.sim = Simulator()
        self.rng = random.Random(cfg.seed)

        # metric state
        self.rtt_client = Series()
        self.rtt_server = Series()
        self.deliveries = Series()
        self.handoffs: List[HandoffRecord] = []
        self.mst_transitions: List[MstTransition] = []
        self.flow_events: List[Tuple[int, str]] = []
        self.observed_sources: set = set()
        self.resets = 0
        self.counters: Dict[str, int] = {}
        # The two per-packet counters, folded into ``counters`` by finalize.
        self.transmissions = 0
        self.accepted = 0
        self.last_delivery_us = 0

        # liveness accounting for quiescence detection (packets in flight
        # are counted on the links)
        self.control_outstanding = 0
        self.dhcp_pending = 0
        self.scenario_events_remaining = 0
        self.echo_active = False
        self.traffic_stopped = False
        self.consumed = False
        self.echo_conn_ids: set = set()
        self._next_conn_id = 0

        self.dhcp_pools: Dict[str, AddressPool] = {
            z.zone_id: AddressPool(z.dhcp_range) for z in cfg.zones
        }

        self.server = ServerHost(self, SERVER_UID, SERVER_ADDR)
        self.client = ClientHost(self, CLIENT_UID)
        spans = [int_span(z.dhcp_range) for z in cfg.zones]
        self.dists = {z.zone_id: DistRouter(self, z, span)
                      for z, span in zip(cfg.zones, spans)}
        self._zone_ports = [(span, f"zone:{z.zone_id}")
                            for z, span in zip(cfg.zones, spans)]
        self._port_cache: Dict[int, str] = {}
        self._build_links(trunk_overhead_bytes)

    # -- wiring --------------------------------------------------------------

    def _build_links(self, trunk_overhead: int) -> None:
        cfg = self.cfg

        def link(name: str, deliver: Deliver, overhead: int = 0) -> Link:
            return Link(self.sim, name, cfg.link_bandwidth_bps, cfg.link_delay_us,
                        deliver=deliver, on_drop=self._on_drop,
                        overhead_bytes=overhead)

        self.access_up: Dict[str, Link] = {}
        self.access_down: Dict[str, Link] = {}
        self.trunk_up: Dict[str, Link] = {}
        self.trunk_down: Dict[str, Link] = {}
        for z in cfg.zones:
            zid = z.zone_id
            dist = self.dists[zid]
            up_deliver, down_deliver = self._access_delivers(zid)
            self.access_up[zid] = link(f"access-up:{zid}", up_deliver)
            self.access_down[zid] = dist.access_down = link(
                f"access-down:{zid}", down_deliver)
            self.trunk_up[zid] = dist.trunk_up = link(
                f"trunk-up:{zid}", self._core_handle, trunk_overhead)
            self.trunk_down[zid] = link(
                f"trunk-down:{zid}", dist.handle_from_core, trunk_overhead)
            # the client starts detached everywhere
            self.access_up[zid].set_up(False)
            self.access_down[zid].set_up(False)
        self.ext_out = link("ext-out", self.server.handle)
        self.ext_in = link("ext-in", self._core_handle)
        self.links: List[Link] = [
            *self.access_up.values(), *self.access_down.values(),
            *self.trunk_up.values(), *self.trunk_down.values(),
            self.ext_out, self.ext_in,
        ]
        # Core router port name -> the link leaving the core on that port.
        self._port_links: Dict[str, Link] = {EXT_PORT: self.ext_out}
        for zid, link in self.trunk_down.items():
            self._port_links[f"zone:{zid}"] = link

    def _access_delivers(self, zid: str) -> Tuple[Deliver, Deliver]:
        """Where the zone's access-up and access-down links deliver."""
        return self.dists[zid].handle_from_access, self.client.handle

    def _port_for_ip(self, addr: IPv4Address) -> str:
        """The core port that reaches ``addr``: its zone's, else external."""
        return self._port_for_int(int(addr))

    def _port_for_int(self, addr: int) -> str:
        """``_port_for_ip`` of an address given as its integer. Zones never
        change during a run, so each answer is cached."""
        port = self._port_cache.get(addr)
        if port is None:
            port = EXT_PORT
            for span, zone_port in self._zone_ports:
                if addr in span:
                    port = zone_port
                    break
            self._port_cache[addr] = port
        return port

    # -- counters ----------------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _on_drop(self, pkt: Packet, reason: str) -> None:
        self.count("link_drops")

    # Simulated time never decreases, so the latest delivery is the last one.
    # The columns are appended directly: no Series.append frame per segment.
    def note_goodput(self, now: int, payload_len: int) -> None:
        deliveries = self.deliveries
        deliveries.times.append(now)
        deliveries.values.append(payload_len * 8)
        self.last_delivery_us = now

    def note_delivery(self, now: int) -> None:
        self.last_delivery_us = now

    def note_server_data(self, pkt: Packet, now: int) -> None:
        self.last_delivery_us = now
        if self.handoffs:
            h = self.handoffs[-1]
            if h.first_delivery_us is None and pkt.sent_at > h.detach_us:
                h.first_delivery_us = now

    # -- control channel and core ------------------------------------------------

    def _control_send(self, delay: int, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` after ``delay``; the run is not idle meanwhile."""
        self.control_outstanding += 1
        self.sim.schedule(delay, self._control_arrive, fn, *args)

    def _control_arrive(self, fn: Callable[..., None], *args) -> None:
        self.control_outstanding -= 1
        fn(*args)

    def _core_handle(self, pkt: Packet, now: int) -> None:
        raise NotImplementedError

    # -- client attachment / mobility ---------------------------------------------

    def dhcp_assign(self, zone_id: str) -> IPv4Address:
        """Draw a fresh lease from the zone's range (seed-deterministic).

        Leases persist for the run, so revisiting a zone yields a different
        address; translation keeps the session alive regardless.
        """
        return self.dhcp_pools[zone_id].allocate(self.rng)

    def _lease(self, zone_id: str) -> IPv4Address:
        """The address the client takes when DHCP completes in the zone."""
        return self.dhcp_assign(zone_id)

    def attach_client(self, zone_id: str) -> None:
        self.cfg.zone(zone_id)  # raises on unknown zone
        self.client.current_zone = zone_id
        self.access_up[zone_id].set_up(True)
        self.access_down[zone_id].set_up(True)
        self.dhcp_pending += 1
        self.client.in_dhcp = True
        self._start_dhcp(zone_id)

    def _start_dhcp(self, zone_id: str) -> None:
        zone = self.cfg.zone(zone_id)
        discover = Packet(
            src_ip=IPv4Address("0.0.0.0"), dst_ip=BROADCAST,
            src_mac=self.client.uid, payload_len=0, seq=0,
            sent_at=self.sim.now, kind=PacketKind.DHCP_DISCOVER,
        )
        self.client.transmit(discover)
        self.sim.schedule(zone.dhcp_latency, self._complete_dhcp, zone_id)

    def _complete_dhcp(self, zone_id: str) -> None:
        self.dhcp_pending -= 1
        self.client.in_dhcp = False
        self.client.set_addr(self._lease(zone_id))
        solicit = Packet(
            src_ip=self.client.addr, dst_ip=ALL_ROUTERS,
            src_mac=self.client.uid, payload_len=0, seq=0,
            sent_at=self.sim.now, kind=PacketKind.ROUTER_SOLICITATION,
        )
        self.client.transmit(solicit)
        for side in self.client.conns.values():
            side.flush_all()

    def detach_client(self) -> None:
        zone_id = self.client.current_zone
        if zone_id is not None:
            self.access_up[zone_id].set_up(False)
            self.access_down[zone_id].set_up(False)
        self.client.set_addr(None)
        self.client.current_zone = None

    # -- traffic -------------------------------------------------------------------

    def new_client_conn(self, echo: bool) -> Tuple[int, TransportSide]:
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        if echo:
            self.echo_conn_ids.add(conn_id)
        side = TransportSide(self.client, conn_id, rtt_log=self.rtt_client)
        self.client.conns[conn_id] = side
        return conn_id, side

    # -- quiescence --------------------------------------------------------------------

    def is_idle(self) -> bool:
        if self.echo_active or self.control_outstanding or self.dhcp_pending \
                or any(link.in_flight for link in self.links):
            return False
        sides = list(self.client.conns.values()) + [
            c.side for c in self.server.conns.values()
        ]
        return all(s.drained() for s in sides)

    def finished(self) -> bool:
        return self.scenario_events_remaining == 0 and self.is_idle()

    # -- trace -------------------------------------------------------------------------

    def _buffer_counts(self) -> Dict[str, int]:
        """Counters for the packets the core holds back, added at the end."""
        return {}

    def finalize(self, events_fingerprint: Tuple[str, ...],
                 expected_switchover_us: Optional[int]) -> MetricsTrace:
        losses = 0
        for conn_id, client_side in self.client.conns.items():
            server_conn = self.server.conns.get(conn_id)
            server_delivered = server_conn.side.delivered_segments if server_conn else 0
            server_submitted = server_conn.side.submitted if server_conn else 0
            losses += client_side.submitted - server_delivered
            losses += server_submitted - client_side.delivered_segments
        retransmissions = sum(
            s.retransmissions for s in self.client.conns.values()
        ) + sum(c.side.retransmissions for c in self.server.conns.values())
        self.count("retransmissions", retransmissions)
        for key, n in (("transmissions", self.transmissions),
                       ("accepted", self.accepted)):
            if n:
                self.count(key, n)
        for key, n in self._buffer_counts().items():
            self.count(key, n)
        trace = MetricsTrace(
            mode=self.mode.value,
            seed=self.cfg.seed,
            events_fingerprint=events_fingerprint,
            rtt_client=self.rtt_client,
            rtt_server=self.rtt_server,
            deliveries=self.deliveries,
            handoffs=self.handoffs,
            expected_switchover_us=expected_switchover_us,
            losses=losses,
            resets=self.resets,
            server_observed_sources=set(self.observed_sources),
            counters=dict(self.counters),
            flow_events=list(self.flow_events),
            mst_transitions=list(self.mst_transitions),
            end_of_traffic_us=self.last_delivery_us,
        )
        return trace


class SdnNetwork(Network):
    """SDN mode: the core translates the client's zone-local address to its
    stable virtual address according to the flow table, which the
    controller fills from tap-server discovery reports."""

    mode = Mode.SDN

    def __init__(self, cfg: TopologyConfig):
        # The taps exist before the access links that feed them.
        self.taps = {
            z.zone_id: TapServer(z, update_interval=cfg.keepalive_interval_us)
            for z in cfg.zones
        }
        super().__init__(cfg)
        self._pending_mst_capture: Optional[Tuple[int, Dict[str, tuple]]] = None
        self.controller = MobilityController(
            cfg.vpip_pool,
            self.rng,
            port_for_ip=self._port_for_ip,
            external_port=EXT_PORT,
            idle_timeout=cfg.idle_timeout_us,
        )
        self.switch = SdnSwitch(
            local_ranges=[z.dhcp_range for z in cfg.zones],
            route_port=self._port_for_ip,
            default_port=EXT_PORT,
            buffer_timeout=1 * US_PER_S,
        )
        self.sim.schedule_at(EXPIRY_TICK_US, self._expiry_tick)
        for zid in self.taps:
            self.sim.schedule_at(cfg.keepalive_interval_us, self._keepalive_tick, zid)

    def _access_delivers(self, zid: str) -> Tuple[Deliver, Deliver]:
        # The tap watches the uplink only: what goes down to the client comes
        # from outside the zone and could only count as a spoof.
        tap, dist = self.taps[zid], self.dists[zid]

        def up(pkt: Packet, now: int) -> None:
            self._tap_observe(tap, pkt, now)
            dist.handle_from_access(pkt, now)
        return up, self.client.handle

    # -- tap / control plane ----------------------------------------------------

    def _tap_observe(self, tap: TapServer, pkt: Packet, now: int) -> None:
        report = tap.observe_packet(pkt, now)
        if report is not None:
            self._send_report(report)

    def _send_report(self, report: HostReport) -> None:
        # The control channel carries the ASCII wire form; parsing on
        # delivery keeps the format honest on every message.
        self._control_send(self.cfg.control_delay_us, self._deliver_report,
                           report.serialize())

    def _deliver_report(self, wire: str) -> None:
        report = HostReport.parse(wire)
        capture = self._pending_mst_capture
        actions = self.controller.handle_host_report(report, self.sim.now)
        if capture is not None and report.uid == self.client.uid:
            record = self.controller.mst.lookup(self.client.uid)
            before_rip = capture[1].get(self.client.uid.text, (None,))[0]
            if record is not None and str(record.real_ip) != before_rip:
                self.mst_transitions.append(
                    MstTransition(capture[0], capture[1], self.controller.mst.snapshot())
                )
                self._pending_mst_capture = None
        self._dispatch_actions(actions)

    def _dispatch_actions(self, actions: List[ControlAction]) -> None:
        delay = self.cfg.control_delay_us
        for action in actions:
            if isinstance(action, InstallFlows):
                self._control_send(delay, self._apply_install, action)
            elif isinstance(action, RefreshFlows):
                self._control_send(delay, self._apply_refresh, action)
            elif isinstance(action, EvictClient):
                self.flow_events.append((self.sim.now, f"evict {action.uid}"))

    def _apply_install(self, action: InstallFlows) -> None:
        now = self.sim.now
        self.switch.install(action.snat, now)
        self.switch.install(action.dnat, now)
        self.flow_events.append((now, f"install snat {action.snat.match.src_ip}"))
        self.flow_events.append((now, f"install dnat {action.dnat.match.dst_ip}"))
        for decision in self.switch.drain(now):
            self._port_links[decision.out_port].send(decision.packet)

    def _apply_refresh(self, action: RefreshFlows) -> None:
        record = self.controller.mst.lookup(action.uid)
        if record is None:
            return
        now = self.sim.now
        self.switch.table.touch(FlowMatch(src_ip=record.real_ip),
                                self.controller.nat_priority, now)
        self.switch.table.touch(FlowMatch(dst_ip=record.virtual_ip),
                                self.controller.nat_priority, now)

    # -- core router -------------------------------------------------------------

    def _core_handle(self, pkt: Packet, now: int) -> None:
        decision = self.switch.process_packet(pkt, now)
        if decision.__class__ is PacketIn:
            self._control_send(self.cfg.control_delay_us,
                               self._controller_packet_in, pkt)
        else:
            # A Forwarded decision is a (packet, out_port) tuple.
            self._port_links[decision[1]].send(decision[0])

    def _controller_packet_in(self, pkt: Packet) -> None:
        actions = self.controller.handle_packet_in(pkt, self.sim.now)
        self._dispatch_actions(actions)

    def detach_client(self) -> None:
        # The mobility table as it stood at detach, kept until the client's
        # next report moves it.
        self._pending_mst_capture = (self.sim.now, self.controller.mst.snapshot())
        super().detach_client()

    # -- ticks -----------------------------------------------------------------------

    def _expiry_tick(self) -> None:
        now = self.sim.now
        for rule in self.switch.table.expire(now):
            kind = "snat" if rule.match.src_ip is not None else "dnat"
            key = rule.match.src_ip if kind == "snat" else rule.match.dst_ip
            self.flow_events.append((now, f"expired {kind} {key}"))
        window = int(LIVENESS_WINDOW_FACTOR * self.cfg.keepalive_interval_us)
        self._dispatch_actions(self.controller.evict_stale(now, window))
        if not self.finished():
            self.sim.schedule(EXPIRY_TICK_US, self._expiry_tick)

    def _keepalive_tick(self, zone_id: str) -> None:
        for report in self.taps[zone_id].tick(self.sim.now):
            self._send_report(report)
        if not self.finished():
            self.sim.schedule(self.cfg.keepalive_interval_us,
                              self._keepalive_tick, zone_id)

    def _buffer_counts(self) -> Dict[str, int]:
        return {"buffer_residue": len(self.switch.pending),
                "buffer_drops": self.switch.buffer_drops}


class TunnelNetwork(Network):
    """Tunneling baseline: the core is the mobility anchor. The client keeps
    one home address, packets on the distribution-core segment carry
    encapsulation overhead, and a handoff redirects the tunnel only after
    its binding update completes."""

    mode = Mode.PMIP

    def __init__(self, cfg: TopologyConfig, tunnel: TunnelConfig):
        super().__init__(cfg, trunk_overhead_bytes=tunnel.encap_overhead_bytes)
        self.tunnel = tunnel
        self.home_addr: Optional[IPv4Address] = None
        self._home_int = -1  # int(home_addr), or -1 before the first lease
        self.bound_zone: Optional[str] = None

    def _core_handle(self, pkt: Packet, now: int) -> None:
        # A home address exists only once a binding does.
        dst = pkt.dst_int
        if dst == self._home_int:
            self.trunk_down[self.bound_zone].send(pkt)
        else:
            self._port_links[self._port_for_int(dst)].send(pkt)

    def _start_dhcp(self, zone_id: str) -> None:
        # Binding registration precedes address (re)confirmation.
        bud = self.tunnel.resolved_binding_delay(self.cfg.control_delay_us)
        self._control_send(bud, self._bind, zone_id)
        self.sim.schedule(bud, super()._start_dhcp, zone_id)

    def _bind(self, zone_id: str) -> None:
        self.bound_zone = zone_id

    def _lease(self, zone_id: str) -> IPv4Address:
        if self.home_addr is None:
            self.home_addr = self.dhcp_assign(zone_id)
            self._home_int = int(self.home_addr)
        return self.home_addr


def build_topology(cfg: TopologyConfig, mode: Mode = Mode.SDN,
                   tunnel: Optional[TunnelConfig] = None) -> Network:
    """Materialize the three-tier network for one run."""
    if mode is Mode.PMIP and tunnel is None:
        raise ConfigurationError("tunnel parameters are required in pmip mode")
    return SdnNetwork(cfg) if mode is Mode.SDN else TunnelNetwork(cfg, tunnel)
