"""Event queue ordering and link timing, the primitives the switch-over
budgets rely on."""

from ipaddress import IPv4Address

import pytest

from sdnmob.addressing import Uid
from sdnmob.packet import Packet, PacketKind
from sdnmob.sim.events import Simulator
from sdnmob.sim.links import Link, serialization_us

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
        link = Link(sim, "l", 10_000_000, 1_000, deliver=lambda p: None)
        link.set_up(False)
        assert link.send(pkt()) is False
        assert (link.down_at_send, link.down_at_arrival) == (1, 0)
        assert sim.pending() == 0  # a packet dropped at send schedules nothing

    def test_down_at_arrival_drops_in_flight(self):
        sim = Simulator()
        outcomes = []
        link = Link(sim, "l", 10_000_000, 1_000,
                    deliver=lambda p: outcomes.append("delivered"))
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
        link = Link(sim, "l", 10_000_000, 1_000, deliver=lambda p: None)
        link.send(pkt())
        sim.schedule_at(100, lambda: link.set_up(False))
        sim.run(until=100)
        assert sim.pending() == 1
        sim.run()
        assert link.down_at_arrival == 1
        assert sim.pending() == 0

    def test_drop_at_send_never_counts(self):
        sim = Simulator()
        link = Link(sim, "l", 10_000_000, 1_000, deliver=lambda p: None)
        link.set_up(False)
        assert link.send(pkt()) is False
        assert link.down_at_send == 1
        assert sim.pending() == 0
