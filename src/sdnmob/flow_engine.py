"""Flow table and packet pipeline of the SDN-aware core router.

The table holds prioritized rules that match on exact source/destination
addresses, rewrite headers (source NAT outbound, destination NAT inbound)
and pick an output port. Unmatched packets from local clients are escalated
to the controller and buffered until a matching rule arrives; everything
else falls through to the default route rule, which never expires.
"""

from __future__ import annotations

import bisect
import enum
from collections import deque
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .addressing import int_span
from .packet import Packet, PacketKind

# Priority constants: the default route/L2 rule sits at 0, NAT translations
# strictly above it. Tests rely on the exact values.
DEFAULT_PRIORITY = 0
NAT_PRIORITY = 100

# Packet classes the default rule escalates to the controller when the
# source is an unknown local address. DHCP and router solicitations are
# handled at the distribution layer and never escalate.
ESCALATED_KINDS = frozenset(
    {PacketKind.DATA, PacketKind.ACK, PacketKind.KEEPALIVE}
)

PACKET_IN_BUFFER_CAPACITY = 64


class FlowEngineError(Exception):
    pass


class MalformedActions(FlowEngineError):
    """Action list violates structure (controller bug, not a data-plane event)."""


class InstallRejected(FlowEngineError):
    """Rule violates table constraints (e.g. NAT rule at default priority)."""


@dataclass(frozen=True, slots=True)
class FlowMatch:
    """Exact-match keys; an absent field is a wildcard.

    The all-wildcard match is reserved for the table's default rule and is
    rejected by ``FlowTable.install``.
    """

    src_ip: Optional[IPv4Address] = None
    dst_ip: Optional[IPv4Address] = None

    def matches(self, pkt: Packet) -> bool:
        if self.src_ip is not None and pkt.src_ip != self.src_ip:
            return False
        if self.dst_ip is not None and pkt.dst_ip != self.dst_ip:
            return False
        return True

    @property
    def is_wildcard(self) -> bool:
        return self.src_ip is None and self.dst_ip is None


class ActionKind(enum.Enum):
    REWRITE_SRC = "rewrite_src"
    REWRITE_DST = "rewrite_dst"
    FORWARD = "forward"


@dataclass(frozen=True, slots=True)
class FlowAction:
    kind: ActionKind
    new_addr: Optional[IPv4Address] = None
    out_port: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is ActionKind.FORWARD:
            if self.out_port is None:
                raise MalformedActions("forward action needs an output port")
        elif self.new_addr is None:
            raise MalformedActions(f"{self.kind.value} action needs an address")


_REWRITE_SRC = ActionKind.REWRITE_SRC
_REWRITE_DST = ActionKind.REWRITE_DST
_FORWARD = ActionKind.FORWARD

# forward(port) results: actions are frozen, so one per port serves every rule.
_forwards: Dict[str, FlowAction] = {}


def rewrite_src(addr: IPv4Address) -> FlowAction:
    return FlowAction(ActionKind.REWRITE_SRC, new_addr=addr)


def rewrite_dst(addr: IPv4Address) -> FlowAction:
    return FlowAction(ActionKind.REWRITE_DST, new_addr=addr)


def forward(port: str) -> FlowAction:
    """The forward action for ``port``; every call with one port returns
    the same shared action."""
    action = _forwards.get(port)
    if action is None:
        action = _forwards[port] = FlowAction(_FORWARD, out_port=port)
    return action


# Rules, matches and actions are slotted: a campus-sized table holds
# thousands of each, and a slotted instance needs no per-instance dict.
@dataclass(slots=True)
class FlowRule:
    match: FlowMatch
    actions: Tuple[FlowAction, ...]
    priority: int
    idle_timeout: Optional[int]  # microseconds; None = never expires
    last_hit: int = 0
    install_seq: int = 0

    def __post_init__(self) -> None:
        actions = self.actions = tuple(self.actions)
        if self.priority < 0:
            raise InstallRejected("priority must be non-negative")
        if not actions or actions[-1].kind is not _FORWARD:
            raise MalformedActions("action list must end with exactly one forward")
        for action in actions[:-1]:
            if action.kind is _FORWARD:
                raise MalformedActions("action list must end with exactly one forward")


def apply_actions(rule: FlowRule, pkt: Packet) -> Tuple[Packet, str]:
    """Apply the rule's rewrites in order; returns the rewritten copy and port.

    Payload length, sequence number and send timestamp are never touched.
    ``FlowRule`` guarantees the last action is the rule's only forward.
    """
    out = pkt
    for action in rule.actions:
        kind = action.kind
        if kind is _REWRITE_SRC:
            out = out.with_src(action.new_addr)
        elif kind is _REWRITE_DST:
            out = out.with_dst(action.new_addr)
    return out, rule.actions[-1].out_port


def snat_rule(real_ip: IPv4Address, virtual_ip: IPv4Address, out_port: str,
              idle_timeout: Optional[int], priority: int = NAT_PRIORITY) -> FlowRule:
    """Outbound translation: packets sourced at the client's real address
    leave with the virtual permanent address."""
    return FlowRule(
        match=FlowMatch(src_ip=real_ip),
        actions=(rewrite_src(virtual_ip), forward(out_port)),
        priority=priority,
        idle_timeout=idle_timeout,
    )


def dnat_rule(virtual_ip: IPv4Address, real_ip: IPv4Address, out_port: str,
              idle_timeout: Optional[int], priority: int = NAT_PRIORITY) -> FlowRule:
    """Inbound translation: packets addressed to the virtual permanent
    address are restored to the client's current real address."""
    return FlowRule(
        match=FlowMatch(dst_ip=virtual_ip),
        actions=(rewrite_dst(real_ip), forward(out_port)),
        priority=priority,
        idle_timeout=idle_timeout,
    )


def _sort_key(rule: FlowRule) -> Tuple[int, int]:
    return (-rule.priority, rule.install_seq)


_NEVER = float("inf")


# A tuple, not a list: most buckets hold one rule, and a one-rule tuple is
# about half the memory of a one-rule list.
_Bucket = Tuple[FlowRule, ...]


class FlowTable:
    """Prioritized flow table with idle expiry and replace-on-reinstall.

    Every installed rule matches on the source address, the destination
    address or both; the all-wildcard match belongs to the default rule
    alone. Rules are therefore indexed exactly: one dict keyed by source
    address, one by destination address and one by (source, destination),
    each address as its integer (taken at install, read from
    ``Packet.src_int``/``dst_int`` at lookup). Each value is the short
    bucket of rules with that match, a tuple sorted by (priority desc,
    install_seq asc) that install and expiry replace whole. A lookup reads
    at most three bucket heads and keeps the best by the same key, so
    equal-priority ties resolve to the earliest install; when no bucket
    matches, the default rule wins. Cost per packet does not grow with the
    number of rules.

    ``expire`` keeps a lower bound on the earliest idle deadline (last hit
    plus timeout) and skips its scan while ``now`` is at or below it. The
    bound holds because ``now`` never decreases between calls, as on the
    simulator's clock, so hits and touches only move deadlines later.
    """

    def __init__(self) -> None:
        self._by_src: Dict[int, _Bucket] = {}
        self._by_dst: Dict[int, _Bucket] = {}
        self._by_pair: Dict[Tuple[int, int], _Bucket] = {}
        # Every non-default rule by install_seq, for expiry scans and listing.
        self._by_seq: Dict[int, FlowRule] = {}
        # No rule can expire while now <= this (a lower bound on the
        # earliest last_hit + idle_timeout).
        self._expiry_bound: float = _NEVER
        self._next_seq = 1
        self._default: Optional[FlowRule] = None

    def __len__(self) -> int:
        return len(self._by_seq) + (self._default is not None)

    @property
    def rules(self) -> Sequence[FlowRule]:
        """Every rule, the default included, in (priority desc,
        install_seq asc) order."""
        out = list(self._by_seq.values())
        if self._default is not None:
            out.append(self._default)
        return tuple(sorted(out, key=_sort_key))

    @property
    def default_rule(self) -> Optional[FlowRule]:
        return self._default

    def _index_of(self, match: FlowMatch) -> Tuple[Dict, object]:
        """The dict that holds rules with ``match``, and their key in it."""
        if match.dst_ip is None:
            return self._by_src, int(match.src_ip)
        if match.src_ip is None:
            return self._by_dst, int(match.dst_ip)
        return self._by_pair, (int(match.src_ip), int(match.dst_ip))

    def install_default(self, out_port: str, now: int = 0) -> FlowRule:
        """Install the all-wildcard route rule at the reserved priority."""
        rule = FlowRule(
            match=FlowMatch(),
            actions=(forward(out_port),),
            priority=DEFAULT_PRIORITY,
            idle_timeout=None,
            last_hit=now,
            install_seq=self._next_seq,
        )
        self._next_seq += 1
        self._default = rule
        return rule

    def install(self, rule: FlowRule, now: int) -> FlowRule:
        """Insert a copy of ``rule`` with a fresh install_seq.

        A rule with the same (match, priority) is replaced, not duplicated.
        NAT-style rules must sit strictly above the default priority.
        """
        if rule.match.is_wildcard:
            raise InstallRejected("all-wildcard match is reserved for the default rule")
        if rule.priority <= DEFAULT_PRIORITY:
            raise InstallRejected(
                f"translation rules need priority > {DEFAULT_PRIORITY}, got {rule.priority}"
            )
        seq = self._next_seq
        installed = FlowRule(rule.match, rule.actions, rule.priority,
                             rule.idle_timeout, now, seq)
        self._next_seq = seq + 1
        index, key = self._index_of(rule.match)
        bucket = index.get(key)
        if bucket is None:
            index[key] = (installed,)
        else:
            for i, existing in enumerate(bucket):
                if existing.priority == rule.priority:
                    bucket = bucket[:i] + bucket[i + 1:]
                    del self._by_seq[existing.install_seq]
                    break
            # The fresh install_seq is the largest, so the rule goes after
            # every rule of equal or higher priority.
            at = bisect.bisect_right(bucket, _sort_key(installed), key=_sort_key)
            index[key] = bucket[:at] + (installed,) + bucket[at:]
        self._by_seq[seq] = installed
        if installed.idle_timeout is not None:
            self._expiry_bound = min(self._expiry_bound, now + installed.idle_timeout)
        return installed

    def find(self, match: FlowMatch, priority: int) -> Optional[FlowRule]:
        index, key = self._index_of(match)
        for rule in index.get(key, ()):
            if rule.priority == priority:
                return rule
        return None

    def touch(self, match: FlowMatch, priority: int, now: int) -> bool:
        """Re-arm a rule's idle timer; used by controller-driven refreshes."""
        rule = self.find(match, priority)
        if rule is None:
            return False
        rule.last_hit = max(rule.last_hit, now)
        return True

    def match_packet(self, pkt: Packet, now: int) -> Optional[FlowRule]:
        """Highest-priority match, earliest install on ties; hits update
        the rule's idle timer."""
        best = None
        bucket = self._by_src.get(pkt.src_int)
        if bucket:
            best = bucket[0]
        bucket = self._by_dst.get(pkt.dst_int)
        if bucket:
            best = _better(best, bucket[0])
        if self._by_pair:
            bucket = self._by_pair.get((pkt.src_int, pkt.dst_int))
            if bucket:
                best = _better(best, bucket[0])
        if best is None:
            best = self._default
            if best is None:
                return None
        best.last_hit = now
        return best

    def expire(self, now: int) -> List[FlowRule]:
        """Drop every rule idle longer than its timeout, returned in
        (priority desc, install_seq asc) order. The default rule is exempt
        by construction (no timeout)."""
        if now <= self._expiry_bound:
            return []
        removed = []
        bound = _NEVER
        for r in self._by_seq.values():
            if r.idle_timeout is not None:
                deadline = r.last_hit + r.idle_timeout
                if now > deadline:
                    removed.append(r)
                elif deadline < bound:
                    bound = deadline
        self._expiry_bound = bound
        for rule in removed:
            del self._by_seq[rule.install_seq]
            index, key = self._index_of(rule.match)
            bucket = tuple(r for r in index[key] if r is not rule)
            if bucket:
                index[key] = bucket
            else:
                del index[key]
        removed.sort(key=_sort_key)
        return removed


def _better(best: Optional[FlowRule], rule: FlowRule) -> FlowRule:
    """The winner of two matching rules: higher priority, then earlier install."""
    if best is None or rule.priority > best.priority or (
        rule.priority == best.priority and rule.install_seq < best.install_seq
    ):
        return rule
    return best


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
    """Data-plane state of the core router: flow table, default routing and
    the packet-in buffer.

    ``route_port`` maps a destination address to the port the default rule
    forwards on (the plain routing table the device had before SDN).
    """

    def __init__(
        self,
        local_ranges: Sequence[IPv4Network],
        route_port: Callable[[IPv4Address], str],
        default_port: str,
        buffer_timeout: Optional[int] = None,
    ) -> None:
        self.table = FlowTable()
        self.table.install_default(default_port)
        self.local_ranges = tuple(local_ranges)
        self._local_spans = tuple(int_span(net) for net in self.local_ranges)
        self.route_port = route_port
        self.buffer_timeout = buffer_timeout
        self.pending: Deque[BufferedPacket] = deque()
        self.buffer_drops = 0

    def _is_local(self, addr: int) -> bool:
        for span in self._local_spans:
            if addr in span:
                return True
        return False

    def process_packet(self, pkt: Packet, now: int) -> ForwardDecision:
        """Classify one packet.

        Translation rules are applied when they match; otherwise a packet
        from an unknown local source (for an escalated packet class) is
        buffered and raised to the controller, and everything else takes
        the default route.
        """
        rule = self.table.match_packet(pkt, now)
        if rule is not None and rule.priority > DEFAULT_PRIORITY:
            out, port = apply_actions(rule, pkt)
            return Forwarded(out, port)
        if pkt.kind in ESCALATED_KINDS and self._is_local(pkt.src_int):
            self._buffer(pkt, now)
            return PacketIn(pkt)
        return Forwarded(pkt, self.route_port(pkt.dst_ip))

    def _buffer(self, pkt: Packet, now: int) -> None:
        deadline = now + self.buffer_timeout if self.buffer_timeout else None
        if len(self.pending) >= PACKET_IN_BUFFER_CAPACITY:
            self.pending.popleft()
            self.buffer_drops += 1
        self.pending.append(BufferedPacket(pkt, deadline if deadline is not None else -1))

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
        while self.pending:
            entry = self.pending.popleft()
            if entry.deadline >= 0 and now > entry.deadline:
                self.buffer_drops += 1
                continue
            rule = self.table.match_packet(entry.packet, now)
            if rule is not None and rule.priority > DEFAULT_PRIORITY:
                out, port = apply_actions(rule, entry.packet)
                released.append(Forwarded(out, port))
            else:
                keep.append(entry)
        self.pending = keep
        return released
