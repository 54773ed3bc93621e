"""Host discovery: spoof guard, time buffer, keepalive cadence."""

from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from sdnmob.addressing import Uid
from sdnmob.controller import HostReport
from sdnmob.packet import Packet, PacketKind
from sdnmob.sim import TopologyConfig, build_topology
from sdnmob.tap_server import TapFilter, TapServer, ZoneConfig
from sdnmob.units import usec

ZONE = ZoneConfig("z1", IPv4Network("10.1.0.0/24"))
UID1 = Uid("aa:bb:cc:00:00:01")
UID2 = Uid("aa:bb:cc:00:00:02")
SERVER = IPv4Address("203.0.113.10")


def tapped(src, uid=UID1, kind=PacketKind.DATA, payload=100):
    return Packet(
        src_ip=IPv4Address(src), dst_ip=SERVER, src_mac=uid,
        payload_len=payload if kind is PacketKind.DATA else 0,
        seq=0, sent_at=0, kind=kind,
    )


class TestObserve:
    def test_dhcp_in_progress_ignored(self):
        tap = TapServer(ZONE)
        pkt = tapped("0.0.0.0", kind=PacketKind.DHCP_DISCOVER)
        assert tap.observe_packet(pkt, now=0) is None
        assert not tap.buffer
        assert tap.ignored_unaddressed == 1

    def test_first_packet_reports_binding(self):
        tap = TapServer(ZONE)
        report = tap.observe_packet(tapped("10.1.0.5"), now=usec(1))
        assert report == HostReport(UID1, IPv4Address("10.1.0.5"))
        assert report.serialize() == "aa:bb:cc:00:00:01#10.1.0.5\n"
        entry = tap.buffer[int(IPv4Address("10.1.0.5"))]
        assert entry.last_seen == usec(1)

    def test_out_of_range_source_rejected(self):
        tap = TapServer(ZONE)
        assert tap.observe_packet(tapped("192.0.2.66"), now=0) is None
        assert not tap.buffer
        assert tap.rejected_spoofed == 1

    def test_known_binding_refreshes_without_report(self):
        tap = TapServer(ZONE)
        tap.observe_packet(tapped("10.1.0.5"), now=usec(1))
        assert tap.observe_packet(tapped("10.1.0.5"), now=usec(2)) is None
        assert tap.buffer[int(IPv4Address("10.1.0.5"))].last_seen == usec(2)

    def test_equal_uid_object_refreshes_without_report(self):
        tap = TapServer(ZONE)
        tap.observe_packet(tapped("10.1.0.5", uid=UID1), now=usec(1))
        same = Uid(UID1.text)
        assert same == UID1 and same is not UID1
        assert tap.observe_packet(tapped("10.1.0.5", uid=same), now=usec(2)) is None
        assert tap.buffer[int(IPv4Address("10.1.0.5"))].last_seen == usec(2)

    def test_address_reuse_reported_immediately(self):
        tap = TapServer(ZONE)
        tap.observe_packet(tapped("10.1.0.5", uid=UID1), now=0)
        report = tap.observe_packet(tapped("10.1.0.5", uid=UID2), now=usec(1))
        assert report == HostReport(UID2, IPv4Address("10.1.0.5"))

    def test_reduced_filter_ignores_data(self):
        zone = ZoneConfig("z1", IPv4Network("10.1.0.0/24"),
                          tap_filter=TapFilter.DHCP_AND_RS_ONLY)
        tap = TapServer(zone)
        assert tap.observe_packet(tapped("10.1.0.5"), now=0) is None
        assert not tap.buffer
        rs = tapped("10.1.0.5", kind=PacketKind.ROUTER_SOLICITATION)
        assert tap.observe_packet(rs, now=0) == HostReport(UID1, IPv4Address("10.1.0.5"))

    def test_observation_leaves_packet_untouched(self):
        tap = TapServer(ZONE)
        pkt = tapped("10.1.0.5")
        copy = Packet(**{f: getattr(pkt, f) for f in (
            "src_ip", "dst_ip", "src_mac", "payload_len", "seq", "sent_at",
            "kind", "conn_id", "ack")})
        tap.observe_packet(pkt, now=0)
        assert pkt == copy


class TestTick:
    def test_before_boundary_nothing(self, monkeypatch):
        """The network runs the keepalive pass at each interval boundary:
        before the first one no tap is ticked and no keepalive report is
        sent, though the tap holds a live binding."""
        ticks = []
        tick = TapServer.tick

        def logged_tick(tap, now):
            ticks.append(now)
            return tick(tap, now)

        monkeypatch.setattr(TapServer, "tick", logged_tick)
        net = build_topology(TopologyConfig(zones=(ZONE,), keepalive_interval_us=usec(300)))
        sent = []
        send = net._control_send

        def logged_send(msg):
            if msg.__class__ is str:
                sent.append(HostReport.parse(msg))
            send(msg)

        net._control_send = logged_send
        net.move_client("z1")
        net.sim.schedule(usec(299.5), lambda: None)  # keeps the run going
        net.sim.run(until=usec(300) - 1)
        assert ticks == []
        # Only the solicitation's discovery report.
        assert sent == [HostReport(net.client.uid, IPv4Address(net.client.addr))]
        assert net.zones["z1"].tap.buffer
        net.sim.run(until=usec(300))
        assert ticks == [usec(300)]
        assert sent == [HostReport(net.client.uid, IPv4Address(net.client.addr))] * 2

    def test_boundary_reports_each_live_client(self):
        tap = TapServer(ZONE, update_interval=usec(300))
        for i in (5, 6, 7):
            tap.observe_packet(tapped(f"10.1.0.{i}", uid=Uid.from_int(i)), now=usec(10))
        reports = tap.tick(now=usec(300))
        assert sorted(str(r.real_ip) for r in reports) == [
            "10.1.0.5", "10.1.0.6", "10.1.0.7"]

    def test_empty_buffer_boundary(self):
        tap = TapServer(ZONE, update_interval=usec(300))
        assert tap.tick(now=usec(300)) == []

    # (interval, seen at, ticks that keep the binding, tick that drops it)
    STALENESS_CASES = [
        # Ages 10 s and 20 s are within the 20 s horizon, the boundary
        # included; age 31 s is past it.
        (usec(10), 0, [usec(10), usec(20)], usec(31)),
        # A horizon that is not a whole number of ms holds to the µs.
        (1250, 1000, [3500], 3501),
    ]

    def test_quiet_entry_dropped_at_staleness_horizon(self):
        for interval, seen, kept, dropped in self.STALENESS_CASES:
            tap = TapServer(ZONE, update_interval=interval)
            tap.observe_packet(tapped("10.1.0.5"), now=seen)
            for now in kept:
                assert len(tap.tick(now=now)) == 1, (interval, now)
            assert tap.tick(now=dropped) == [], (interval, dropped)
            assert not tap.buffer


class TestSpoofGuardProperty:
    sources = st.one_of(
        st.just("0.0.0.0"),
        st.builds(lambda d: f"10.1.0.{d}", st.integers(1, 254)),
        st.builds(lambda d: f"192.0.2.{d}", st.integers(1, 254)),
        st.builds(lambda d: f"10.2.0.{d}", st.integers(1, 254)),
    )

    @given(st.lists(st.tuples(sources, st.integers(1, 5)), max_size=60))
    @settings(max_examples=300)
    def test_no_binding_from_bad_sources(self, stream):
        tap = TapServer(ZONE)
        now = 0
        for src, uid_val in stream:
            now += usec(1)
            report = tap.observe_packet(tapped(src, uid=Uid.from_int(uid_val)), now=now)
            if report is not None:
                assert report.real_ip in ZONE.dhcp_range
        for real_ip in tap.buffer:
            assert IPv4Address(real_ip) in ZONE.dhcp_range
            assert str(IPv4Address(real_ip)) != "0.0.0.0"

    @given(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 5)), max_size=60))
    @settings(max_examples=200)
    def test_keepalive_reports_exactly_live_set(self, stream):
        interval = usec(100)
        tap = TapServer(ZONE, update_interval=interval)
        live = {}
        for host, uid_val in stream:
            pkt = tapped(f"10.1.0.{host}", uid=Uid.from_int(uid_val))
            tap.observe_packet(pkt, now=usec(1))
            live[IPv4Address(pkt.src_ip)] = pkt.src_mac
        reports = tap.tick(now=interval)
        assert {r.real_ip: r.uid for r in reports} == live
        assert len(reports) == len(live)


class TestBundledTaps:
    """In the network a tap sees only its zone's uplink, so legitimate
    traffic never counts as spoofed."""

    @pytest.mark.parametrize("scenario", ["handoff_basic", "handoff_bulk", "ping_pong"])
    def test_no_spoof_counted_in_bundled_sdn_runs(self, scenario, bundled_runs):
        net, trace = bundled_runs[(scenario, "sdn")]
        assert trace.losses == 0
        for zone_id, zone in net.zones.items():
            tap = zone.tap
            # Each zone was visited: its tap saw the client's DHCP discover
            # and learned a binding.
            assert tap.ignored_unaddressed > 0, zone_id
            assert tap.buffer, zone_id
            assert tap.rejected_spoofed == 0, zone_id
