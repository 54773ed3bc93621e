"""Simulated L3 datagrams.

A ``Packet`` is an immutable snapshot of one transmission: header rewrites
produce copies, so a packet captured anywhere in the pipeline stays valid.
Sizes are modeled as payload bytes plus a fixed L3/L4 header; tunnel
encapsulation overhead is a property of the link that carries the packet,
not of the packet itself.

Addresses are 32-bit integers. The per-packet code (flow-table lookups,
tap buffer and spoof check, zone range checks, host address compares)
keys and compares on them, because ``IPv4Address`` hashing, equality and
``IPv4Network`` membership are pure-Python calls. ``IPv4Address`` appears
only at the edges: configuration, the host-report wire form and the
addresses a run reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .addressing import Uid

# Fixed inner header bytes charged to every packet on the wire (IP + transport).
INNER_HEADER_BYTES = 40

# Wire size of the modeled DHCP discover message.
DHCP_WIRE_BYTES = 300


class PacketKind(enum.Enum):
    DATA = "data"
    ACK = "ack"
    DHCP_DISCOVER = "dhcp_discover"
    ROUTER_SOLICITATION = "router_solicitation"


# Read once at import: a module global is far cheaper than an enum lookup.
_DATA = PacketKind.DATA
_DHCP_DISCOVER = PacketKind.DHCP_DISCOVER
_new = object.__new__


@dataclass(frozen=True, init=False)
class Packet:
    """One datagram.

    Frozen: assigning a field raises ``FrozenInstanceError``. ``__init__``
    validates and then writes the instance ``__dict__`` directly, which skips
    the per-field ``object.__setattr__`` of a generated frozen ``__init__``.
    It takes each address as anything ``int()`` accepts (an integer or an
    ``IPv4Address``) and stores the integer. It also stores ``wire_bytes``,
    the size charged on the wire; that is not a dataclass field, so ``==``,
    ``hash`` and ``repr`` ignore it.
    """

    src_ip: int
    dst_ip: int
    src_mac: Uid
    payload_len: int
    seq: int
    sent_at: int
    kind: PacketKind
    # Connection identity (stands in for the transport 4-tuple's stable part)
    # and the cumulative acknowledgment carried by ACK packets.
    conn_id: int = 0
    ack: Optional[int] = None

    def __init__(self, src_ip: int, dst_ip: int, src_mac: Uid,
                 payload_len: int, seq: int, sent_at: int, kind: PacketKind,
                 conn_id: int = 0, ack: Optional[int] = None) -> None:
        if payload_len <= 0:
            if kind is _DATA:
                raise ValueError("data packets must carry payload")
            if payload_len < 0:
                raise ValueError("negative payload length")
        d = self.__dict__
        d["src_ip"] = int(src_ip)
        d["dst_ip"] = int(dst_ip)
        d["src_mac"] = src_mac
        d["payload_len"] = payload_len
        d["seq"] = seq
        d["sent_at"] = sent_at
        d["kind"] = kind
        d["conn_id"] = conn_id
        d["ack"] = ack
        d["wire_bytes"] = (
            DHCP_WIRE_BYTES if kind is _DHCP_DISCOVER else payload_len + INNER_HEADER_BYTES
        )

    # A rewrite copies the instance dict and replaces one address: every
    # other field, the size included, was validated when the original was
    # built.
    def with_src(self, addr: int) -> "Packet":
        copy = _new(Packet)
        copy.__dict__.update(self.__dict__, src_ip=addr)
        return copy

    def with_dst(self, addr: int) -> "Packet":
        copy = _new(Packet)
        copy.__dict__.update(self.__dict__, dst_ip=addr)
        return copy
