"""Reliable transport endpoint mechanics, including the reset rule."""

from ipaddress import IPv4Address

from hypothesis import given, settings
from hypothesis import strategies as st

from sdnmob.addressing import Uid
from sdnmob.packet import Packet, PacketKind
from sdnmob.sim.events import Simulator
from sdnmob.sim.metrics import Series
from sdnmob.sim import transport
from sdnmob.sim.transport import INITIAL_RTO_US, SEND_WINDOW_SEGMENTS, TransportSide

UID = Uid("aa:bb:cc:00:00:01")
PEER = IPv4Address("203.0.113.10")


class StubHost:
    """Minimal host: records transmissions, address switchable."""

    def __init__(self, sim, addr="10.1.0.5"):
        self.sim = sim
        self.uid = UID
        self.addr = IPv4Address(addr) if addr else None
        self.sent = []

    def transmit(self, pkt):
        self.sent.append(pkt)


def ack_for(side, ack_value, seq=0):
    return Packet(
        src_ip=PEER, dst_ip=side.host.addr, src_mac=UID, payload_len=0,
        seq=seq, sent_at=side.host.sim.now, kind=PacketKind.ACK,
        conn_id=side.conn_id, ack=ack_value,
    )


def data_from_peer(side, seq, payload=100):
    return Packet(
        src_ip=PEER, dst_ip=side.host.addr, src_mac=UID, payload_len=payload,
        seq=seq, sent_at=side.host.sim.now, kind=PacketKind.DATA,
        conn_id=side.conn_id,
    )


def make_side(addr="10.1.0.5"):
    sim = Simulator()
    host = StubHost(sim, addr)
    side = TransportSide(host, conn_id=0, peer=PEER, payload_len=100)
    return sim, host, side


class TestSender:
    def test_submit_transmits_within_window(self):
        _, host, side = make_side()
        for _ in range(5):
            side.submit(1)
        assert [p.seq for p in host.sent] == [0, 1, 2, 3, 4]
        assert all(p.kind is PacketKind.DATA and p.dst_ip == int(PEER) for p in host.sent)

    def test_window_caps_outstanding_segments(self, monkeypatch):
        monkeypatch.setattr(transport, "SEND_WINDOW_SEGMENTS", 4)
        _, host, side = make_side()
        side.submit(10)
        assert len(host.sent) == 4
        side.receive_ack(ack_for(side, 2))
        assert len(host.sent) == 6  # two more released

    def test_cumulative_ack_clears_prefix(self):
        _, host, side = make_side()
        side.submit(5)
        side.receive_ack(ack_for(side, 3))
        assert sorted(side.unacked) == [3, 4]
        side.receive_ack(ack_for(side, 2, seq=1))  # stale: covers nothing
        assert sorted(side.unacked) == [3, 4]
        assert len(side.rtt_log) == 1

    def test_timeout_retransmits_oldest(self):
        sim, host, side = make_side()
        side.submit(1)
        assert len(host.sent) == 1
        sim.run(until=INITIAL_RTO_US + 1)
        assert len(host.sent) == 2
        assert host.sent[1].seq == 0
        assert side.retransmissions == 1

    def test_no_sending_without_address(self):
        _, host, side = make_side(addr=None)
        side.submit(1)
        assert host.sent == []
        assert (side.submitted, side.next_seq) == (1, 0)

    def test_flush_on_new_address_resends_everything(self):
        sim, host, side = make_side()
        side.submit(3)
        host.addr = None
        side.submit(1)  # queued during outage
        host.addr = IPv4Address("10.2.0.9")
        side.flush_all()
        flushed = host.sent[3:]
        assert [p.seq for p in flushed] == [0, 1, 2, 3]
        assert all(str(IPv4Address(p.src_ip)) == "10.2.0.9" for p in flushed)

    def test_rtt_sampled_only_for_unretransmitted(self):
        samples = Series()
        sim = Simulator()
        host = StubHost(sim)
        side = TransportSide(host, 0, PEER, 100, rtt_log=samples)
        side.submit(1)
        sim.run(until=INITIAL_RTO_US + 1)  # forces one retransmission
        side.receive_ack(ack_for(side, 1))
        assert list(samples) == []
        side.submit(1)
        sent_at = sim.now
        sim.now += 5_000
        side.receive_ack(ack_for(side, 2, seq=1))
        assert list(samples) == [(sent_at, 5_000)]


class TestTimer:
    """One pending wake-up per sender; a timeout fires at exactly the last
    arm plus the RTO."""

    def retransmit_times(self, host):
        seen, times = set(), []
        for p in host.sent:
            if p.seq in seen:
                times.append(p.sent_at)
            seen.add(p.seq)
        return times

    def test_steady_ack_stream_schedules_few_wakeups(self):
        sim, host, side = make_side()
        assert SEND_WINDOW_SEGMENTS == 32
        acks = 512
        side.submit(acks)
        for k in range(1, acks + 1):  # one ACK a millisecond, one segment each
            sim.schedule_at(k * 1_000, side.receive_ack, ack_for(side, k))
        sim.run()
        wakeups = sim._seq - acks
        assert side.retransmissions == 0
        assert len(host.sent) == acks and not side.unacked and side.next_seq == acks
        # The RTO stays above 4 ms, so about one wake-up per RTO plus the
        # one left from the initial 1 s timer; the old re-arm scheduled one
        # per ACK.
        assert wakeups <= 20
        assert sim.pending() == 0

    def test_timeout_at_last_arm_plus_rto(self):
        sim, host, side = make_side()
        side.submit(3)  # armed at 0 for the initial RTO (1 s)
        sim.schedule_at(300_000, side.receive_ack, ack_for(side, 1))
        sim.run(until=300_000)
        rto = side._rto()
        assert rto == 1_200_000  # four times the one 300 ms sample
        sim.run(until=300_000 + rto - 1)
        assert side.retransmissions == 0  # the 1 s wake-up only moved on
        sim.run(until=300_000 + rto)
        assert self.retransmit_times(host) == [300_000 + rto]
        assert host.sent[-1].seq == 1

    def test_smaller_rto_fires_before_the_pending_wakeup(self):
        sim, host, side = make_side()
        side.submit(3)  # pending wake-up at 1 s
        sim.schedule_at(10_000, side.receive_ack, ack_for(side, 1))
        sim.run(until=1_200_000)
        # srtt 10 ms, so RTO 40 ms: the first timeout at 10 + 40 ms, then
        # every 40 ms. The superseded 1 s wake-up adds no retransmission.
        times = self.retransmit_times(host)
        assert times == list(range(50_000, 1_200_001, 40_000))
        assert 1_000_000 not in times

    def test_disarmed_timer_never_retransmits(self):
        sim, host, side = make_side()
        side.submit(2)
        sim.schedule_at(1_000, side.receive_ack, ack_for(side, 2))
        sim.run()
        assert side.deadline is None
        assert side.retransmissions == 0
        assert len(host.sent) == 2
        assert sim.pending() == 0  # the stale wake-up ran and did nothing
        assert sim.now == INITIAL_RTO_US


@st.composite
def arrivals(draw):
    """``(n, order)``: every seq of ``0..n-1`` and up to 20 repeats, in any
    order."""
    n = draw(st.integers(1, 40))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=20))
    return n, draw(st.permutations(list(range(n)) + repeats))


class TestReceiver:
    @given(arrivals())
    @settings(max_examples=300, deadline=None)
    def test_any_arrival_order_delivers_each_segment_once(self, drawn):
        n, order = drawn
        delivered = []
        sim = Simulator()
        host = StubHost(sim)
        side = TransportSide(host, 0, PEER, 100, on_deliver=delivered.append)
        for seq in order:
            side.receive_data(data_from_peer(side, seq))
        assert len(delivered) == n and side.expected == n and not side.ooo
        assert side.duplicates <= len(order) - n
        acks = [p.ack for p in host.sent]
        assert len(acks) == len(order)  # one ACK per arrival
        assert acks == sorted(acks) and acks[-1] == n

    def test_in_order_delivery_and_ack(self):
        delivered = []
        sim = Simulator()
        host = StubHost(sim)
        side = TransportSide(host, 0, PEER, 100,
                             on_deliver=delivered.append)
        side.receive_data(data_from_peer(side, 0))
        side.receive_data(data_from_peer(side, 1))
        assert delivered == [0, 0]  # two deliveries, both at time 0
        acks = [p for p in host.sent if p.kind is PacketKind.ACK]
        assert [p.ack for p in acks] == [1, 2]

    def test_gap_held_until_filled(self):
        delivered = []
        sim = Simulator()
        host = StubHost(sim)
        side = TransportSide(host, 0, PEER, 100,
                             on_deliver=delivered.append)
        side.receive_data(data_from_peer(side, 1))
        assert delivered == []
        side.receive_data(data_from_peer(side, 0))
        assert delivered == [0, 0]  # two deliveries, both at time 0
        assert side.expected == 2

    def test_duplicate_counted_and_reacked(self):
        sim = Simulator()
        host = StubHost(sim)
        side = TransportSide(host, 0, PEER, 100)
        side.receive_data(data_from_peer(side, 0))
        side.receive_data(data_from_peer(side, 0))
        assert side.duplicates == 1
        assert side.expected == 1
        acks = [p.ack for p in host.sent]
        assert acks == [1, 1]


class TestResetRule:
    """Server-side endpoint semantics exercised through a tiny harness:
    a data packet for an established connection from a new source is the
    session-breaking event the address translation scheme prevents."""

    def network(self):
        from sdnmob.sim.topology import TopologyConfig, build_topology
        from sdnmob.tap_server import ZoneConfig
        from ipaddress import IPv4Network

        cfg = TopologyConfig(zones=(ZoneConfig("z1", IPv4Network("10.1.0.0/24")),))
        return build_topology(cfg)

    def data(self, net, src, seq, conn_id=0):
        return Packet(
            src_ip=int(IPv4Address(src)), dst_ip=net.server.addr, src_mac=UID,
            payload_len=100, seq=seq, sent_at=seq, kind=PacketKind.DATA,
            conn_id=conn_id,
        )

    def test_source_change_counts_reset(self):
        net = self.network()
        net.new_client_conn(100, echo=False)
        server = net.server
        server.handle(self.data(net, "10.1.0.5", 0))
        assert net.trace.resets == 0
        server.handle(self.data(net, "10.2.0.9", 1))
        assert net.trace.resets == 1
        assert net.trace.server_observed_sources == {"10.1.0.5", "10.2.0.9"}
        assert server.conns[0].side.peer == int(IPv4Address("10.2.0.9"))

    def test_stable_source_never_resets(self):
        net = self.network()
        net.new_client_conn(100, echo=False)
        for seq in range(20):
            net.server.handle(self.data(net, "198.51.100.7", seq))
        assert net.trace.resets == 0
        assert net.trace.server_observed_sources == {"198.51.100.7"}

    def test_data_for_an_unopened_connection_is_a_host_drop(self):
        net = self.network()
        net.new_client_conn(100, echo=False)  # opens connection 0 only
        net.server.handle(self.data(net, "10.1.0.5", 0, conn_id=1))
        assert (net.host_drops, net.accepted) == (1, 0)
        assert list(net.server.conns) == [0]
        assert net.server.conns[0].side.peer is None
        assert net.trace.server_observed_sources == set()
        assert len(net.trace.deliveries) == 0
