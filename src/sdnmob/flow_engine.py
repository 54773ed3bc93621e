"""NAT table and packet pipeline of the SDN-aware core router.

The controller installs exactly two rule shapes: source NAT, matched on the
exact source address and rewriting it (outbound), and destination NAT,
matched on the exact destination address and rewriting it (inbound). Each
picks an output port. Unmatched packets from local clients are escalated to
the controller and buffered until a matching rule arrives; everything else
falls through to the default route rule, which never expires.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import (Callable, Deque, Dict, KeysView, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .packet import Packet, PacketKind
from .units import US_PER_S

# Packet classes the default rule escalates to the controller when the
# source is an unknown local address. DHCP and router solicitations are
# handled at the distribution layer and never escalate.
ESCALATED_KINDS = frozenset({PacketKind.DATA, PacketKind.ACK})

# The core router's port toward the provider network, where translated
# traffic leaves. Every other port leads to a local zone.
EXT_PORT = "ext"

PACKET_IN_BUFFER_CAPACITY = 64
PACKET_IN_BUFFER_TIMEOUT_US = 1 * US_PER_S


class FlowEngineError(Exception):
    pass


class InstallRejected(FlowEngineError):
    """Rule is neither of the two NAT shapes (e.g. an all-wildcard match)."""


@dataclass(frozen=True, slots=True)
class FlowMatch:
    """Exact-match address integers; an absent field is a wildcard.

    An installed rule sets exactly one of the two; the all-wildcard match
    belongs to the table's default rule alone.
    """

    src_ip: Optional[int] = None
    dst_ip: Optional[int] = None


# Rules are slotted: a campus-sized table holds thousands, and a slotted
# instance needs no per-instance dict.
@dataclass(slots=True)
class FlowRule:
    """A translation rule. The match side implies the rewrite: a source
    match rewrites the source to ``new_addr``, a destination match the
    destination."""

    match: FlowMatch
    new_addr: Optional[int]
    out_port: str
    idle_timeout: Optional[int]  # microseconds; None = never expires
    last_hit: int = 0
    install_seq: int = 0


def apply_actions(rule: FlowRule, pkt: Packet) -> Forwarded:
    """Apply the rule's rewrite; returns the rewritten copy and its port.

    Payload length, sequence number and send timestamp are never touched.
    """
    if rule.match.src_ip is not None:
        return Forwarded(pkt.with_src(rule.new_addr), rule.out_port)
    return Forwarded(pkt.with_dst(rule.new_addr), rule.out_port)


def snat_rule(real_ip: int, virtual_ip: int, out_port: str,
              idle_timeout: Optional[int]) -> FlowRule:
    """Outbound translation: packets sourced at the client's real address
    leave with the virtual permanent address. Addresses are taken as
    anything ``int()`` accepts, an ``IPv4Address`` included."""
    return FlowRule(FlowMatch(src_ip=int(real_ip)), int(virtual_ip), out_port, idle_timeout)


def dnat_rule(virtual_ip: int, real_ip: int, out_port: str,
              idle_timeout: Optional[int]) -> FlowRule:
    """Inbound translation: packets addressed to the virtual permanent
    address are restored to the client's current real address. Addresses
    are taken as ``snat_rule`` takes them."""
    return FlowRule(FlowMatch(dst_ip=int(virtual_ip)), int(real_ip), out_port, idle_timeout)


_NEVER = float("inf")
_install_order = attrgetter("install_seq")


class FlowTable:
    """NAT table with idle expiry and replace-on-reinstall.

    Two dicts hold the rules, keyed by the matched address: source NAT
    rules by real address, destination NAT rules by virtual address.
    Reinstalling a match replaces its rule. A packet that hits both
    (client-to-vpIP traffic) takes the earlier install; one that hits
    neither takes the default rule. Cost per packet does not grow with the
    number of rules.

    ``expire`` keeps a lower bound on the earliest idle deadline (last hit
    plus timeout) and skips its scan while ``now`` is at or below it. The
    bound holds because ``now`` never decreases between calls, as on the
    simulator's clock, so hits and touches only move deadlines later.
    """

    def __init__(self) -> None:
        self._snat: Dict[int, FlowRule] = {}
        self._dnat: Dict[int, FlowRule] = {}
        # No rule can expire while now <= this (a lower bound on the
        # earliest last_hit + idle_timeout).
        self._expiry_bound: float = _NEVER
        self._next_seq = 1
        self._default: Optional[FlowRule] = None

    def __len__(self) -> int:
        return len(self._snat) + len(self._dnat) + (self._default is not None)

    @property
    def rules(self) -> Sequence[FlowRule]:
        """Every rule, the default included, in install order."""
        out = [*self._snat.values(), *self._dnat.values()]
        if self._default is not None:
            out.append(self._default)
        return tuple(sorted(out, key=_install_order))

    @property
    def default_rule(self) -> Optional[FlowRule]:
        return self._default

    def snat_sources(self) -> KeysView[int]:
        """The real addresses that have a source NAT rule installed, as a
        live view (a flow-stats read of the outbound rules)."""
        return self._snat.keys()

    def _slot(self, match: FlowMatch) -> Tuple[Dict[int, FlowRule], int]:
        """The dict that holds the rule with ``match``, and its key in it."""
        if match.src_ip is not None:
            return self._snat, match.src_ip
        return self._dnat, match.dst_ip

    def install_default(self, out_port: str, now: int = 0) -> FlowRule:
        """Install the all-wildcard route rule."""
        rule = self._default = FlowRule(FlowMatch(), None, out_port, None, now,
                                        self._next_seq)
        self._next_seq += 1
        return rule

    def install(self, rule: FlowRule, now: int) -> FlowRule:
        """Insert a copy of ``rule`` with a fresh install_seq, replacing any
        rule with the same match. Only the two NAT shapes are accepted."""
        if (rule.match.src_ip is None) == (rule.match.dst_ip is None):
            raise InstallRejected("a rule matches exactly one of source or destination")
        seq = self._next_seq
        self._next_seq = seq + 1
        installed = FlowRule(rule.match, rule.new_addr, rule.out_port,
                             rule.idle_timeout, now, seq)
        index, key = self._slot(rule.match)
        index[key] = installed
        if installed.idle_timeout is not None:
            self._expiry_bound = min(self._expiry_bound, now + installed.idle_timeout)
        return installed

    def touch(self, match: FlowMatch, now: int) -> bool:
        """Re-arm a rule's idle timer; used by controller-driven refreshes."""
        index, key = self._slot(match)
        rule = index.get(key)
        if rule is None:
            return False
        rule.last_hit = max(rule.last_hit, now)
        return True

    def match_packet(self, pkt: Packet, now: int) -> Optional[FlowRule]:
        """The source or destination NAT rule, the earlier install when both
        hit, else the default; hits update the rule's idle timer."""
        rule = self._snat.get(pkt.src_ip)
        dnat = self._dnat.get(pkt.dst_ip)
        if dnat is not None and (rule is None or dnat.install_seq < rule.install_seq):
            rule = dnat
        if rule is None:
            rule = self._default
            if rule is None:
                return None
        rule.last_hit = now
        return rule

    def expire(self, now: int) -> List[FlowRule]:
        """Drop every rule idle longer than its timeout, returned in install
        order. The default rule is exempt by construction (no timeout)."""
        if now <= self._expiry_bound:
            return []
        removed = []
        bound = _NEVER
        for r in (*self._snat.values(), *self._dnat.values()):
            if r.idle_timeout is not None:
                deadline = r.last_hit + r.idle_timeout
                if now > deadline:
                    removed.append(r)
                elif deadline < bound:
                    bound = deadline
        self._expiry_bound = bound
        for rule in removed:
            index, key = self._slot(rule.match)
            del index[key]
        removed.sort(key=_install_order)
        return removed


class Forwarded(NamedTuple):
    """A packet to send on ``out_port``. A named tuple, not a frozen
    dataclass: one is built for every packet the core forwards."""

    packet: Packet
    out_port: str


@dataclass(frozen=True)
class PacketIn:
    packet: Packet


ForwardDecision = Union[Forwarded, PacketIn]


@dataclass
class BufferedPacket:
    packet: Packet
    deadline: int


class SdnSwitch:
    """Data-plane state of the core router: NAT table, default routing and
    the packet-in buffer.

    ``route_port`` maps an address to the port that reaches it (the plain
    routing table the device had before SDN): the default rule forwards on
    the destination's port, so its own port is only a label, and a source
    is local when its port is not ``EXT_PORT``. A buffered packet is
    dropped once it has waited ``PACKET_IN_BUFFER_TIMEOUT_US``.
    """

    def __init__(self, route_port: Callable[[int], str]) -> None:
        self.table = FlowTable()
        self.default_rule = self.table.install_default("route")
        self.route_port = route_port
        self.pending: Deque[BufferedPacket] = deque()
        self.buffer_drops = 0

    def process_packet(self, pkt: Packet, now: int) -> ForwardDecision:
        """Classify one packet.

        Translation rules are applied when they match; otherwise a packet
        from an unknown local source (for an escalated packet class) is
        buffered and raised to the controller, and everything else takes
        the default route.
        """
        rule = self.table.match_packet(pkt, now)
        if rule is not self.default_rule:
            return apply_actions(rule, pkt)
        if pkt.kind in ESCALATED_KINDS and self.route_port(pkt.src_ip) != EXT_PORT:
            self._buffer(pkt, now)
            return PacketIn(pkt)
        return Forwarded(pkt, self.route_port(pkt.dst_ip))

    def _buffer(self, pkt: Packet, now: int) -> None:
        if len(self.pending) >= PACKET_IN_BUFFER_CAPACITY:
            self.pending.popleft()
            self.buffer_drops += 1
        self.pending.append(BufferedPacket(pkt, now + PACKET_IN_BUFFER_TIMEOUT_US))

    def install(self, rule: FlowRule, now: int) -> FlowRule:
        return self.table.install(rule, now)

    def drain(self, now: int) -> List[Forwarded]:
        """Re-process buffered packets after a flow install.

        Packets that now match a translation rule are released in arrival
        order; expired ones are dropped; the rest stay buffered without
        re-escalating.
        """
        released: List[Forwarded] = []
        keep: Deque[BufferedPacket] = deque()
        for entry in self.pending:
            if now > entry.deadline:
                self.buffer_drops += 1
                continue
            rule = self.table.match_packet(entry.packet, now)
            if rule is not self.default_rule:
                released.append(apply_actions(rule, entry.packet))
            else:
                keep.append(entry)
        self.pending = keep
        return released
