"""Event queue ordering and link timing, the primitives the switch-over
budgets rely on."""

from ipaddress import IPv4Address, IPv4Network

import pytest

from sdnmob.addressing import Uid
from sdnmob.packet import Packet, PacketKind
from sdnmob.sim.events import Simulator
from sdnmob.sim import Mode, TopologyConfig, TunnelConfig, build_topology
from sdnmob.sim.links import Link, serialization_us
from sdnmob.tap_server import ZoneConfig
from sdnmob.units import usec

UID = Uid("aa:bb:cc:00:00:01")


def pkt(payload=1460, seq=0):
    return Packet(
        src_ip=IPv4Address("10.1.0.5"), dst_ip=IPv4Address("203.0.113.10"),
        src_mac=UID, payload_len=payload, seq=seq, sent_at=0,
        kind=PacketKind.DATA,
    )


class TestSimulator:
    def test_simultaneous_events_run_in_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5, lambda: order.append("a"))
        sim.schedule_at(5, lambda: order.append("b"))
        sim.schedule_at(3, lambda: order.append("c"))
        sim.run()
        assert order == ["c", "a", "b"]
        assert sim.now == 5

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(10, lambda: sim.schedule_at(5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_run_until_leaves_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1, lambda: fired.append(1))
        sim.schedule_at(100, lambda: fired.append(100))
        sim.run(until=50)
        assert fired == [1]
        assert sim.pending() == 1

    def test_events_with_arguments_interleave_in_time_and_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5, order.append, "a")
        sim.schedule_at(5, lambda: order.append("b"))
        sim.schedule_at(3, lambda: order.append("c"))
        sim.schedule_at(5, order.extend, ["d", "e"])
        sim.schedule(3, lambda: order.append("f"))
        sim.schedule(3, order.append, "g")
        sim.run()
        assert order == ["c", "f", "g", "a", "b", "d", "e"]

    def test_equal_keys_never_compare_callables_or_arguments(self):
        # Neither functions nor dicts order, so a tie that fell through to
        # them would raise TypeError.
        sim = Simulator()
        seen = []
        for i in range(4):
            sim.schedule_at(7, seen.append, {"i": i})
        sim.run()
        assert seen == [{"i": 0}, {"i": 1}, {"i": 2}, {"i": 3}]


class TestLinkTiming:
    def test_serialization_math(self):
        assert serialization_us(1500, 10_000_000) == 1200
        assert serialization_us(40, 10_000_000) == 32
        assert serialization_us(1540, 10_000_000) == 1232

    def test_store_and_forward_arrival_time(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", 10_000_000, 1_000,
                    deliver=lambda p: arrivals.append(sim.now))
        link.send(pkt())  # 1500 B wire -> 1200 us + 1000 us
        sim.run()
        assert arrivals == [2200]

    def test_fifo_serialization_queues_back_to_back(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", 10_000_000, 1_000,
                    deliver=lambda p: arrivals.append((p.seq, sim.now)))
        link.send(pkt(seq=0))
        link.send(pkt(seq=1))
        sim.run()
        assert arrivals == [(0, 2200), (1, 3400)]

    def test_overhead_bytes_slow_the_wire(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", 10_000_000, 1_000, overhead_bytes=40,
                    deliver=lambda p: arrivals.append(sim.now))
        link.send(pkt())  # 1540 B on the wire
        sim.run()
        assert arrivals == [2232]

    def test_down_at_send_drops(self):
        sim = Simulator()
        link = Link(sim, "l", 10_000_000, 1_000, deliver=lambda p: None, access=True)
        link.set_up(False)
        assert link.send(pkt()) is False
        assert (link.down_at_send, link.down_at_arrival) == (1, 0)
        assert sim.pending() == 0  # a packet dropped at send schedules nothing

    def test_down_at_arrival_drops_in_flight(self):
        sim = Simulator()
        outcomes = []
        link = Link(sim, "l", 10_000_000, 1_000,
                    deliver=lambda p: outcomes.append("delivered"), access=True)
        link.send(pkt())
        sim.schedule_at(100, lambda: link.set_up(False))
        sim.run()
        assert outcomes == []
        assert (link.down_at_send, link.down_at_arrival) == (0, 1)



class TestInFlight:
    """A packet on a link is its one pending arrival event: nothing else
    counts it, and that event is gone before the packet is delivered."""

    def test_rises_on_send_and_falls_at_arrival(self):
        sim = Simulator()
        seen = []
        link = Link(sim, "l", 10_000_000, 1_000,
                    deliver=lambda p: seen.append(sim.pending()))
        assert sim.pending() == 0
        link.send(pkt(seq=0))
        link.send(pkt(seq=1))
        assert sim.pending() == 2
        sim.run()
        # each arrival is out of the heap before the packet is delivered
        assert seen == [1, 0]
        assert sim.pending() == 0

    def test_falls_when_dropped_at_arrival(self):
        sim = Simulator()
        link = Link(sim, "l", 10_000_000, 1_000, deliver=lambda p: None, access=True)
        link.send(pkt())
        sim.schedule_at(100, lambda: link.set_up(False))
        sim.run(until=100)
        assert sim.pending() == 1
        sim.run()
        assert link.down_at_arrival == 1
        assert sim.pending() == 0

    def test_drop_at_send_never_counts(self):
        sim = Simulator()
        link = Link(sim, "l", 10_000_000, 1_000, deliver=lambda p: None, access=True)
        link.set_up(False)
        assert link.send(pkt()) is False
        assert link.down_at_send == 1
        assert sim.pending() == 0


class TestWire:
    def test_a_wire_hands_the_packet_straight_to_its_receiver(self):
        """A wire's arrival event is its receiver itself, and the access
        link's is its own arrival check."""
        sim = Simulator()

        def deliver(p):
            pass

        wire = Link(sim, "w", 10_000_000, 1_000, deliver=deliver)
        access = Link(sim, "a", 10_000_000, 1_000, deliver=deliver, access=True)
        wire.send(pkt(seq=0))
        access.send(pkt(seq=1))
        assert [fn for _, _, fn, _ in sorted(sim._heap)] == [deliver, access._arrive]

    def test_a_wire_is_never_down(self):
        sim = Simulator()
        wire = Link(sim, "w", 10_000_000, 1_000, deliver=lambda p: None)
        with pytest.raises(ValueError, match="wire"):
            wire.set_up(False)
        assert wire.up and wire.send(pkt())


@pytest.mark.parametrize("mode", list(Mode))
def test_attachment_toggles_exactly_the_access_links(mode, monkeypatch):
    """Only an access link ever goes down: the links ``Zone.set_attached``
    toggles are exactly the access links of the network, two per zone, and
    every other link is a wire."""
    toggled = []
    set_up = Link.set_up

    def spy(link, up):
        toggled.append(link)
        set_up(link, up)

    monkeypatch.setattr(Link, "set_up", spy)
    zones = (ZoneConfig("z1", IPv4Network("10.1.0.0/24"), usec(0.1)),
             ZoneConfig("z2", IPv4Network("10.2.0.0/24"), usec(0.1)))
    net = build_topology(TopologyConfig(zones=zones), mode, TunnelConfig())
    for zone in net.zones.values():
        zone.set_attached(True)
        zone.set_attached(False)
    access = [link for link in net.links if link.access]
    assert len(access) == 2 * len(zones)
    assert {id(link) for link in toggled} == {id(link) for link in access}
    assert {id(link) for z in net.zones.values()
            for link in (z.access_up, z.access_down)} == {id(link) for link in access}
