"""Simulated L3 datagrams.

A ``Packet`` is an immutable snapshot of one transmission: header rewrites
produce copies, so a packet captured anywhere in the pipeline stays valid.
Sizes are modeled as payload bytes plus a fixed L3/L4 header; tunnel
encapsulation overhead is a property of the link that carries the packet,
not of the packet itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from ipaddress import IPv4Address
from typing import Optional

from .addressing import Uid

# Fixed inner header bytes charged to every packet on the wire (IP + transport).
INNER_HEADER_BYTES = 40

# Wire size used for the modeled DHCP exchange messages.
DHCP_WIRE_BYTES = 300


class PacketKind(enum.Enum):
    DATA = "data"
    ACK = "ack"
    DHCP_DISCOVER = "dhcp_discover"
    DHCP_OFFER = "dhcp_offer"
    ROUTER_SOLICITATION = "router_solicitation"
    KEEPALIVE = "keepalive"


@dataclass(frozen=True)
class Packet:
    src_ip: IPv4Address
    dst_ip: IPv4Address
    src_mac: Uid
    payload_len: int
    seq: int
    sent_at: int
    kind: PacketKind
    # Connection identity (stands in for the transport 4-tuple's stable part)
    # and the cumulative acknowledgment carried by ACK packets.
    conn_id: int = 0
    ack: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is PacketKind.DATA and self.payload_len <= 0:
            raise ValueError("data packets must carry payload")
        if self.payload_len < 0:
            raise ValueError("negative payload length")

    @property
    def wire_bytes(self) -> int:
        if self.kind in (PacketKind.DHCP_DISCOVER, PacketKind.DHCP_OFFER):
            return DHCP_WIRE_BYTES
        return self.payload_len + INNER_HEADER_BYTES

    # Rewrites call the constructor directly with every field (cheaper than
    # ``dataclasses.replace``); ``__post_init__`` still validates the copy.
    def with_src(self, addr: IPv4Address) -> "Packet":
        return Packet(addr, self.dst_ip, self.src_mac, self.payload_len, self.seq,
                      self.sent_at, self.kind, self.conn_id, self.ack)

    def with_dst(self, addr: IPv4Address) -> "Packet":
        return Packet(self.src_ip, addr, self.src_mac, self.payload_len, self.seq,
                      self.sent_at, self.kind, self.conn_id, self.ack)
