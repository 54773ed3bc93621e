"""Mobility table, discovery report handling and virtual address allocation."""

import bisect
import random
import re
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from sdnmob.addressing import PoolExhausted, Uid
from sdnmob.controller import (
    EvictClient,
    HostReport,
    InstallFlows,
    MobilityController,
    RefreshFlows,
    ReportRejected,
    WireFormatError,
    allocate_vpip,
)
from sdnmob.flow_engine import FlowTable
from sdnmob.packet import Packet, PacketKind

POOL = IPv4Network("198.51.100.0/24")
ZONE1 = IPv4Network("10.1.0.0/24")
ZONE2 = IPv4Network("10.2.0.0/24")

UID1 = Uid("aa:bb:cc:00:00:01")
UID2 = Uid("aa:bb:cc:00:00:02")


def make_controller(seed=42):
    def port_for_ip(addr):
        if IPv4Address(addr) in ZONE1:
            return "zone:z1"
        if IPv4Address(addr) in ZONE2:
            return "zone:z2"
        return "ext"

    return MobilityController(POOL, random.Random(seed), port_for_ip)


uids = st.integers(0, 2**48 - 1).map(Uid.from_int)
octet = st.integers(1, 254)


class TestWireFormat:
    def test_exact_wire_example(self):
        report = HostReport(UID1, IPv4Address("10.1.0.5"))
        assert report.serialize() == "aa:bb:cc:00:00:01#10.1.0.5\n"

    def test_parse_round_trips_example(self):
        report = HostReport.parse("aa:bb:cc:00:00:01#10.1.0.5\n")
        assert report == HostReport(UID1, IPv4Address("10.1.0.5"))

    @pytest.mark.parametrize("wire", [
        "aa:bb:cc:00:00:01 10.1.0.5",          # no separator
        "aa:bb:cc:00:00:01#10.1.0.5#extra",    # two separators
        "nonsense#10.1.0.5",
        "aa:bb:cc:00:00:01#10.1.0",
        "aa:bb:cc:00:00:01#10.1.0.5\nmore\n",
    ])
    def test_malformed_wire_rejected(self, wire):
        with pytest.raises(WireFormatError):
            HostReport.parse(wire)

    @given(uid=uids, a=octet, b=octet, c=octet, d=octet)
    @settings(max_examples=500)
    def test_round_trip(self, uid, a, b, c, d):
        report = HostReport(uid, IPv4Address(f"{a}.{b}.{c}.{d}"))
        assert HostReport.parse(report.serialize()) == report


class TestHostReports:
    def test_new_client_gets_record_and_flow_pair(self):
        ctrl = make_controller()
        actions = ctrl.handle_host_report(
            HostReport(UID1, IPv4Address("10.1.0.5")), now=10)
        assert len(actions) == 1
        install = actions[0]
        assert isinstance(install, InstallFlows)
        record = ctrl.mst.lookup(UID1)
        assert record is not None
        assert IPv4Address(record.real_ip) == IPv4Address("10.1.0.5")
        assert IPv4Address(record.virtual_ip) in POOL
        assert record.last_seen == 10
        assert install.snat.match.src_ip == record.real_ip
        assert install.dnat.match.dst_ip == record.virtual_ip
        assert install.dnat.out_port == "zone:z1"

    def test_zone_change_keeps_virtual_address(self):
        ctrl = make_controller()
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=0)
        vpip = ctrl.mst.lookup(UID1).virtual_ip
        actions = ctrl.handle_host_report(
            HostReport(UID1, IPv4Address("10.2.0.9")), now=60)
        record = ctrl.mst.lookup(UID1)
        assert IPv4Address(record.real_ip) == IPv4Address("10.2.0.9")
        assert record.virtual_ip == vpip
        assert record.last_seen == 60
        assert isinstance(actions[0], InstallFlows)
        assert IPv4Address(actions[0].dnat.new_addr) == IPv4Address("10.2.0.9")
        assert actions[0].dnat.out_port == "zone:z2"

    def test_same_report_refreshes_only(self):
        ctrl = make_controller()
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=0)
        actions = ctrl.handle_host_report(
            HostReport(UID1, IPv4Address("10.1.0.5")), now=30)
        assert actions == [RefreshFlows(UID1)]
        assert len(ctrl.mst) == 1
        assert ctrl.mst.lookup(UID1).last_seen == 30

    def test_report_inside_virtual_pool_rejected(self):
        ctrl = make_controller()
        with pytest.raises(ReportRejected):
            ctrl.handle_host_report(
                HostReport(UID1, IPv4Address("198.51.100.5")), now=0)

    def test_non_unicast_source_rejected(self):
        ctrl = make_controller()
        with pytest.raises(ReportRejected):
            ctrl.handle_host_report(HostReport(UID1, IPv4Address("0.0.0.0")), now=0)

    def test_replay_against_reference_map(self):
        """Oracle: replay the report stream into a plain dict model."""
        rng = random.Random(7)
        ctrl = make_controller()
        model = {}
        uids = [Uid.from_int(i + 1) for i in range(5)]
        for step in range(400):
            uid = rng.choice(uids)
            zone = rng.choice(["10.1.0", "10.2.0"])
            rip = IPv4Address(f"{zone}.{rng.randrange(1, 200)}")
            ctrl.handle_host_report(HostReport(uid, rip), now=step)
            for other, held in list(model.items()):
                if held == rip and other != uid:
                    del model[other]  # address reuse displaces the holder
            model[uid] = rip
        assert set(ctrl.mst.records) == set(model)
        for uid, rip in model.items():
            assert IPv4Address(ctrl.mst.lookup(uid).real_ip) == rip
        ctrl.mst.check_invariants()

    def test_address_reuse_displaces_previous_holder(self):
        ctrl = make_controller()
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=0)
        actions = ctrl.handle_host_report(
            HostReport(UID2, IPv4Address("10.1.0.5")), now=50)
        assert actions[0] == EvictClient(UID1)
        assert isinstance(actions[1], InstallFlows)
        assert ctrl.mst.lookup(UID1) is None
        assert IPv4Address(ctrl.mst.lookup(UID2).real_ip) == IPv4Address("10.1.0.5")
        ctrl.mst.check_invariants()

    def test_moved_client_frees_its_old_address(self):
        """After a zone change the old real address has no holder, so a new
        client reporting it displaces nobody."""
        ctrl = make_controller()
        old, new = IPv4Address("10.1.0.5"), IPv4Address("10.2.0.9")
        ctrl.handle_host_report(HostReport(UID1, old), now=0)
        ctrl.handle_host_report(HostReport(UID1, new), now=10)
        assert ctrl.mst.holder_of(int(old)) is None
        assert ctrl.mst.holder_of(int(new)) is ctrl.mst.lookup(UID1)
        actions = ctrl.handle_host_report(HostReport(UID2, old), now=20)
        assert [type(a) for a in actions] == [InstallFlows]
        assert IPv4Address(ctrl.mst.lookup(UID1).real_ip) == new
        ctrl.mst.check_invariants()


class TestAllocate:
    # allocate_vpip takes the sorted offsets of the taken hosts from the
    # pool's first host.
    def test_single_free_address_is_forced(self):
        pool = IPv4Network("192.0.2.0/30")  # hosts .1 and .2
        taken = [0]  # 192.0.2.1
        got = allocate_vpip(pool, taken, random.Random(0))
        assert IPv4Address(got) == IPv4Address("192.0.2.2")

    def test_golden_first_draw(self):
        # documented algorithm: uniform index into the address-ordered free
        # list; for a fresh /24 and seed 42 that is offset 163.
        got = allocate_vpip(POOL, [], random.Random(42))
        assert IPv4Address(got) == IPv4Address("198.51.100.164")
        hosts = list(POOL.hosts())
        assert IPv4Address(got) == hosts[random.Random(42).randrange(len(hosts))]

    def test_exhausted_pool_raises(self):
        pool = IPv4Network("192.0.2.0/30")
        taken = [0, 1]  # 192.0.2.1 and 192.0.2.2
        with pytest.raises(PoolExhausted):
            allocate_vpip(pool, taken, random.Random(0))

    def test_deterministic_for_fixed_seed(self):
        seq_a = []
        seq_b = []
        for target in (seq_a, seq_b):
            rng = random.Random(2024)
            taken = []
            for _ in range(20):
                addr = allocate_vpip(POOL, taken, rng)
                bisect.insort(taken, int(addr) - int(POOL.network_address) - 1)
                target.append(addr)
        assert seq_a == seq_b


class TestEviction:
    def test_fresh_records_kept(self):
        ctrl = make_controller()
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=0)
        assert ctrl.evict_stale(now=100, liveness_window=1000, snat_sources=()) == []

    def test_silent_record_evicted_and_address_reusable(self):
        pool = IPv4Network("192.0.2.0/30")
        ctrl = MobilityController(pool, random.Random(0), lambda a: "zone:z1")
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=0)
        ctrl.handle_host_report(HostReport(UID2, IPv4Address("10.1.0.6")), now=0)
        with pytest.raises(PoolExhausted):
            ctrl.handle_host_report(
                HostReport(Uid.from_int(9), IPv4Address("10.1.0.9")), now=1)
        actions = ctrl.evict_stale(now=2001, liveness_window=1000, snat_sources=())
        assert actions == [EvictClient(UID1), EvictClient(UID2)]
        assert len(ctrl.mst) == 0
        # the freed addresses allocate again
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=2002)
        assert IPv4Address(ctrl.mst.lookup(UID1).virtual_ip) in pool

    def test_empty_table_noop(self):
        ctrl = make_controller()
        assert ctrl.evict_stale(now=10**9, liveness_window=1, snat_sources=()) == []

    def test_live_snat_rule_keeps_a_silent_record_until_it_idles_out(self):
        ctrl = make_controller()
        table = FlowTable()
        [install] = ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=0)
        table.install(install.snat, now=0)
        table.install(install.dnat, now=0)
        # No report for 2 windows, but the client's uplink keeps hitting its
        # SNAT rule.
        uplink = Packet(int(IPv4Address("10.1.0.5")), int(IPv4Address("203.0.113.10")),
                        UID1, 100, 0, 1500, PacketKind.DATA)
        assert table.match_packet(uplink, now=1500) is not None
        assert ctrl.evict_stale(now=2001, liveness_window=1000,
                                snat_sources=table.snat_sources()) == []
        assert ctrl.mst.lookup(UID1) is not None
        # Once the SNAT rule idles out, the silent record goes.
        idle_out = 1500 + install.snat.idle_timeout + 1
        assert install.snat.match in {r.match for r in table.expire(idle_out)}
        assert ctrl.evict_stale(now=idle_out, liveness_window=1000,
                                snat_sources=table.snat_sources()) == [EvictClient(UID1)]
        assert len(ctrl.mst) == 0


class TestLookupAndPacketIn:
    def packet_from(self, uid, src="10.1.0.5"):
        return Packet(
            src_ip=IPv4Address(src), dst_ip=IPv4Address("203.0.113.10"),
            src_mac=uid, payload_len=10, seq=0, sent_at=0, kind=PacketKind.DATA,
        )

    def test_lookup_present_and_absent(self):
        ctrl = make_controller()
        assert ctrl.mst.lookup(UID1) is None
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=0)
        assert ctrl.mst.lookup(UID1).uid == UID1

    def test_lookup_after_move_shows_new_rip_same_vpip(self):
        ctrl = make_controller()
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=0)
        vpip = ctrl.mst.lookup(UID1).virtual_ip
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.2.0.9")), now=1)
        record = ctrl.mst.lookup(UID1)
        assert (IPv4Address(record.real_ip), record.virtual_ip) == (IPv4Address("10.2.0.9"), vpip)

    def test_packet_in_for_known_client_reinstalls(self):
        ctrl = make_controller()
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=0)
        actions = ctrl.handle_packet_in(self.packet_from(UID1), now=50)
        assert len(actions) == 1 and isinstance(actions[0], InstallFlows)
        assert IPv4Address(actions[0].snat.match.src_ip) == IPv4Address("10.1.0.5")

    def test_packet_in_for_unknown_client_noop(self):
        ctrl = make_controller()
        assert ctrl.handle_packet_in(self.packet_from(UID2), now=0) == []

    def test_packet_in_from_external_side_noop(self):
        ctrl = make_controller()
        ctrl.handle_host_report(HostReport(UID1, IPv4Address("10.1.0.5")), now=0)
        server_uid = Uid("aa:bb:cc:00:00:fe")
        pkt = self.packet_from(server_uid, src="203.0.113.10")
        assert ctrl.handle_packet_in(pkt, now=0) == []


@st.composite
def report_streams(draw):
    stream = []
    for _ in range(draw(st.integers(1, 40))):
        uid = Uid.from_int(draw(st.integers(1, 6)))
        rip = IPv4Address(f"10.{draw(st.integers(1, 2))}.0.{draw(st.integers(1, 200))}")
        stream.append((uid, rip))
    return stream


class TestInvariants:
    @given(report_streams())
    @settings(max_examples=200, deadline=None)
    def test_virtual_ip_stable_and_bijective(self, stream):
        """The virtual address never changes while the record lives; the
        real->virtual map stays a bijection after every report."""
        ctrl = make_controller()
        expected_vpip = {}
        for i, (uid, rip) in enumerate(stream):
            actions = ctrl.handle_host_report(HostReport(uid, rip), now=i)
            for action in actions:
                if isinstance(action, EvictClient):
                    expected_vpip.pop(action.uid, None)
            record = ctrl.mst.lookup(uid)
            if uid not in expected_vpip:
                expected_vpip[uid] = record.virtual_ip
            assert record.virtual_ip == expected_vpip[uid]
            ctrl.mst.check_invariants()

    @given(report_streams())
    @settings(max_examples=100, deadline=None)
    def test_duplicate_delivery_idempotent(self, stream):
        ctrl_once = make_controller(seed=5)
        ctrl_twice = make_controller(seed=5)
        for i, (uid, rip) in enumerate(stream):
            ctrl_once.handle_host_report(HostReport(uid, rip), now=i)
            ctrl_twice.handle_host_report(HostReport(uid, rip), now=i)
            ctrl_twice.handle_host_report(HostReport(uid, rip), now=i)
        assert ctrl_once.mst.records == ctrl_twice.mst.records

    @given(report_streams())
    @settings(max_examples=100, deadline=None)
    def test_fixed_seed_reproduces_actions(self, stream):
        ctrl_a = make_controller(seed=11)
        ctrl_b = make_controller(seed=11)
        for i, (uid, rip) in enumerate(stream):
            actions_a = ctrl_a.handle_host_report(HostReport(uid, rip), now=i)
            actions_b = ctrl_b.handle_host_report(HostReport(uid, rip), now=i)
            assert actions_a == actions_b
        assert ctrl_a.mst.records == ctrl_b.mst.records


def reference_rejection(addr, pool):
    """The ``ipaddress`` checks the integer validation replaced: the
    message a report of ``addr`` is rejected with, or None."""
    if addr.is_unspecified or addr.is_multicast or addr == IPv4Address("255.255.255.255"):
        return f"not a unicast client address: {addr}"
    if addr in pool:
        return f"client address {addr} collides with the virtual pool {pool}"
    return None


BOUNDARIES = [IPv4Address(a) for a in (
    "0.0.0.0", "0.0.0.1", "223.255.255.255", "224.0.0.0", "239.255.255.255",
    "240.0.0.0", "255.255.255.254", "255.255.255.255")]


@st.composite
def pools_and_addresses(draw):
    """Any pool (multicast and the top of the space included) and an
    address: a random one, a fixed boundary, or the pool's network or
    broadcast address +-1."""
    prefix = draw(st.integers(8, 32))
    pool = IPv4Network((draw(st.integers(0, 2**32 - 1)) >> (32 - prefix) << (32 - prefix),
                        prefix))
    edges = [int(pool.network_address) + d for d in (-1, 0, 1)]
    edges += [int(pool.broadcast_address) + d for d in (-1, 0, 1)]
    addr = draw(st.one_of(
        st.integers(0, 2**32 - 1).map(IPv4Address),
        st.sampled_from(BOUNDARIES),
        st.sampled_from([IPv4Address(e) for e in edges if 0 <= e < 2**32]),
    ))
    return pool, addr


class TestValidateRealIp:
    @given(pools_and_addresses())
    @settings(max_examples=600, deadline=None)
    def test_integer_checks_reject_what_ipaddress_rejects(self, case):
        pool, addr = case
        ctrl = MobilityController(pool, random.Random(0), lambda a: "ext")
        expected = reference_rejection(addr, pool)
        if expected is None:
            ctrl._validate_real_ip(addr)
        else:
            with pytest.raises(ReportRejected) as info:
                ctrl._validate_real_ip(addr)
            assert str(info.value) == expected

    @pytest.mark.parametrize("addr", BOUNDARIES, ids=str)
    def test_boundaries_through_the_report_path(self, addr):
        ctrl = make_controller()
        expected = reference_rejection(addr, POOL)
        if expected is None:
            assert [type(a) for a in ctrl.handle_host_report(HostReport(UID1, addr), 0)] \
                == [InstallFlows]
        else:
            with pytest.raises(ReportRejected, match=f"^{re.escape(expected)}$"):
                ctrl.handle_host_report(HostReport(UID1, addr), 0)
            assert len(ctrl.mst) == 0
