"""Packets: stored wire size, frozen fields, value semantics."""

import dataclasses
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings, strategies as st

from sdnmob.addressing import Uid
from sdnmob.packet import DHCP_WIRE_BYTES, INNER_HEADER_BYTES, Packet, PacketKind

UID = Uid("aa:bb:cc:00:00:01")
SRC = IPv4Address("10.1.0.5")
DST = IPv4Address("203.0.113.10")


def make(kind=PacketKind.DATA, payload=100, **kw):
    return Packet(src_ip=SRC, dst_ip=DST, src_mac=UID, payload_len=payload,
                  seq=3, sent_at=7, kind=kind, **kw)


def expected_wire(kind, payload):
    return DHCP_WIRE_BYTES if kind is PacketKind.DHCP_DISCOVER else payload + INNER_HEADER_BYTES


@given(st.sampled_from(list(PacketKind)), st.integers(1, 9000))
@settings(max_examples=100, deadline=None)
def test_wire_bytes_survives_every_copy(kind, payload):
    p = make(kind, payload, conn_id=2, ack=5)
    want = expected_wire(kind, payload)
    assert p.wire_bytes == want
    assert p.with_src(int(IPv4Address("198.51.100.7"))).wire_bytes == want
    assert p.with_dst(int(IPv4Address("10.2.0.9"))).wire_bytes == want
    assert dataclasses.replace(p, seq=99).wire_bytes == want
    assert dataclasses.replace(p, payload_len=payload + 1).wire_bytes == \
        expected_wire(kind, payload + 1)


def test_wire_bytes_of_each_kind():
    assert make(PacketKind.DHCP_DISCOVER, 0).wire_bytes == 300
    assert make(PacketKind.DATA, 1460).wire_bytes == 1500
    assert make(PacketKind.ACK, 0).wire_bytes == 40
    assert make(PacketKind.ROUTER_SOLICITATION, 0).wire_bytes == 40


def test_wire_bytes_is_not_a_field():
    assert "wire_bytes" not in {f.name for f in dataclasses.fields(Packet)}
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)
    assert a != dataclasses.replace(a, seq=4)
    assert "wire_bytes" not in repr(a)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Packet)] + ["wire_bytes"])
def test_every_attribute_is_frozen(name):
    p = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(p, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(p, name)


def test_construction_still_validates():
    with pytest.raises(ValueError, match="data packets must carry payload"):
        make(PacketKind.DATA, 0)
    with pytest.raises(ValueError, match="data packets must carry payload"):
        make(PacketKind.DATA, -1)
    with pytest.raises(ValueError, match="negative payload length"):
        make(PacketKind.ACK, -1)
    with pytest.raises(ValueError, match="data packets must carry payload"):
        dataclasses.replace(make(), payload_len=0)


def test_defaults_apply():
    p = Packet(SRC, DST, UID, 0, 0, 0, PacketKind.ACK)
    assert (p.conn_id, p.ack) == (0, None)


def test_addresses_are_held_as_integers():
    """The constructor takes an ``IPv4Address`` or its integer and keeps the
    integer; a rewrite gives the packet the constructor would build."""
    p = make(conn_id=2, ack=5)
    assert p == Packet(int(SRC), int(DST), UID, 100, 3, 7, PacketKind.DATA, 2, 5)
    assert (p.src_ip, p.dst_ip) == (int(SRC), int(DST))
    a = int(IPv4Address("198.51.100.7"))
    assert vars(p.with_src(a)) == vars(Packet(a, DST, UID, 100, 3, 7, PacketKind.DATA, 2, 5))
    assert vars(p.with_dst(a)) == vars(Packet(SRC, a, UID, 100, 3, 7, PacketKind.DATA, 2, 5))
