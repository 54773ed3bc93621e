"""Flow table semantics: matching, rewrites, replacement, expiry."""

import dataclasses
import random
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings, strategies as st

from sdnmob.addressing import Uid
from sdnmob.flow_engine import (
    PACKET_IN_BUFFER_TIMEOUT_US,
    FlowMatch,
    FlowRule,
    FlowTable,
    Forwarded,
    InstallRejected,
    PacketIn,
    SdnSwitch,
    apply_actions,
    dnat_rule,
    snat_rule,
)
from sdnmob.packet import Packet, PacketKind

from ipaddress import IPv4Network

from linear_flow_table import LinearFlowTable

UID = Uid("aa:bb:cc:00:00:01")
LOCAL = IPv4Network("10.1.0.0/24")


def data_packet(src="10.1.0.5", dst="203.0.113.10", payload=100, seq=0, now=0):
    return Packet(
        src_ip=IPv4Address(src), dst_ip=IPv4Address(dst), src_mac=UID,
        payload_len=payload, seq=seq, sent_at=now, kind=PacketKind.DATA,
    )


def nat_pair(rip="10.1.0.5", vpip="198.51.100.7", timeout=30_000_000):
    return (
        snat_rule(IPv4Address(rip), IPv4Address(vpip), "ext", timeout),
        dnat_rule(IPv4Address(vpip), IPv4Address(rip), "zone:z1", timeout),
    )


class TestMatchPacket:
    def test_empty_table_no_match(self):
        table = FlowTable()
        assert table.match_packet(data_packet(), now=0) is None

    def test_nat_rule_beats_default(self):
        table = FlowTable()
        table.install_default("route")
        snat, _ = nat_pair()
        installed = table.install(snat, now=0)
        hit = table.match_packet(data_packet(src="10.1.0.5"), now=5)
        assert hit is installed
        assert hit is not table.default_rule
        assert hit.last_hit == 5

    def test_default_matches_when_nothing_else(self):
        table = FlowTable()
        table.install_default("route")
        snat, _ = nat_pair(rip="10.1.0.5")
        table.install(snat, now=0)
        hit = table.match_packet(data_packet(src="10.1.0.99"), now=1)
        assert hit is table.default_rule

    def test_equal_priority_tie_breaks_on_install_order(self):
        """Every rule sits at one priority. Client A's real address to
        client B's virtual address matches A's SNAT and B's DNAT rule: the
        earlier install wins in either order, and reinstalling the loser (a
        fresh install_seq) makes it lose again, while reinstalling the
        winner hands the packet over."""
        a_snat, _ = nat_pair(rip="10.1.0.5", vpip="198.51.100.7")
        _, b_dnat = nat_pair(rip="10.1.0.6", vpip="198.51.100.8")
        pkt = data_packet(src="10.1.0.5", dst="198.51.100.8")
        for first, second in ((a_snat, b_dnat), (b_dnat, a_snat)):
            table = FlowTable()
            table.install_default("route")
            winner = table.install(first, now=0)
            table.install(second, now=0)
            assert table.match_packet(pkt, now=1) is winner
            loser_again = table.install(second, now=2)
            assert table.match_packet(pkt, now=3) is winner
            table.install(first, now=4)
            assert table.match_packet(pkt, now=5) is loser_again

    def test_tie_break_against_reference_scan(self):
        """Oracle: a naive full scan picking the earliest install among the
        matching rules, the default only when nothing else matches."""
        rng = random.Random(1234)
        hosts = [IPv4Address(f"10.1.0.{i}") for i in range(1, 6)]
        vpips = [IPv4Address(f"198.51.100.{i}") for i in range(1, 6)]
        for _ in range(1000):
            table = FlowTable()
            table.install_default("route")
            for _ in range(rng.randrange(1, 12)):
                i = rng.randrange(5)
                if rng.random() < 0.5:
                    rule = snat_rule(hosts[i], vpips[i], "ext", None)
                else:
                    rule = dnat_rule(vpips[i], hosts[i], "zone:z1", None)
                table.install(rule, now=0)
            pkt = data_packet(src=str(rng.choice(hosts)), dst=str(rng.choice(vpips)))
            matching = [
                r for r in table.rules
                if pkt.src_ip == r.match.src_ip or pkt.dst_ip == r.match.dst_ip
            ]
            expected = min(matching, key=lambda r: r.install_seq, default=table.default_rule)
            assert table.match_packet(pkt, now=0) is expected


class TestApplyActions:
    def test_source_rewrite(self):
        snat, _ = nat_pair(rip="10.1.0.5", vpip="198.51.100.7")
        pkt = data_packet(src="10.1.0.5")
        out, port = apply_actions(snat, pkt)
        assert str(IPv4Address(out.src_ip)) == "198.51.100.7"
        assert out.dst_ip == pkt.dst_ip
        assert port == "ext"
        assert (out.payload_len, out.seq, out.sent_at) == (
            pkt.payload_len, pkt.seq, pkt.sent_at)

    def test_rewrites_copy_every_other_field(self):
        """The rewrite helpers copy every field but one address; they must
        agree with ``dataclasses.replace`` on a packet that sets every field
        to a non-default value."""
        pkt = Packet(
            src_ip=IPv4Address("10.1.0.5"), dst_ip=IPv4Address("203.0.113.10"),
            src_mac=UID, payload_len=0, seq=7, sent_at=9, kind=PacketKind.ACK,
            conn_id=3, ack=1234,
        )
        addr = int(IPv4Address("198.51.100.7"))
        assert pkt.with_src(addr) == dataclasses.replace(pkt, src_ip=addr)
        assert pkt.with_dst(addr) == dataclasses.replace(pkt, dst_ip=addr)

    @given(
        rip=st.integers(1, 254), vpip=st.integers(1, 254),
        dst=st.integers(1, 254), payload=st.integers(1, 1500),
    )
    @settings(max_examples=200)
    def test_dnat_of_snat_reply_restores_headers(self, rip, vpip, dst, payload):
        snat, dnat = nat_pair(rip=f"10.1.0.{rip}", vpip=f"198.51.100.{vpip}")
        outbound = data_packet(src=f"10.1.0.{rip}", dst=f"203.0.113.{dst}",
                               payload=payload)
        translated, _ = apply_actions(snat, outbound)
        reply = Packet(
            src_ip=translated.dst_ip, dst_ip=translated.src_ip, src_mac=UID,
            payload_len=payload, seq=1, sent_at=2, kind=PacketKind.DATA,
        )
        restored, _ = apply_actions(dnat, reply)
        assert restored.src_ip == outbound.dst_ip
        assert restored.dst_ip == outbound.src_ip
        assert restored.payload_len == payload


class TestInstall:
    def test_install_into_empty_table(self):
        table = FlowTable()
        snat, _ = nat_pair()
        table.install(snat, now=0)
        assert len(table) == 1

    def test_snat_dnat_pair_adds_two_rules(self):
        table = FlowTable()
        table.install_default("route")
        snat, dnat = nat_pair()
        table.install(snat, now=0)
        table.install(dnat, now=0)
        assert len(table) == 3  # pair + default

    def test_reinstall_replaces_not_duplicates(self):
        table = FlowTable()
        snat, _ = nat_pair(vpip="198.51.100.7")
        table.install(snat, now=0)
        snat2, _ = nat_pair(vpip="198.51.100.9")
        table.install(snat2, now=1)
        assert len(table) == 1
        hit = table.match_packet(data_packet(src="10.1.0.5"), now=2)
        out, _ = apply_actions(hit, data_packet(src="10.1.0.5"))
        assert str(IPv4Address(out.src_ip)) == "198.51.100.9"

    def test_replacement_matches_set_semantics_model(self):
        """Oracle: a dict keyed by match."""
        rng = random.Random(99)
        table = FlowTable()
        model = {}
        for step in range(500):
            addr = IPv4Address(f"10.1.0.{rng.randrange(1, 8)}")
            if rng.random() < 0.5:
                rule = snat_rule(addr, IPv4Address("198.51.100.7"), f"p{step}", None)
            else:
                rule = dnat_rule(addr, IPv4Address("10.2.0.7"), f"p{step}", None)
            installed = table.install(rule, now=step)
            model[rule.match] = installed
            assert len(table) == len(model)
            assert table.rules == tuple(sorted(model.values(), key=lambda r: r.install_seq))

    def test_install_validates_its_copy(self):
        table = FlowTable()
        snat, _ = nat_pair()
        snat.match = FlowMatch(src_ip=snat.match.src_ip, dst_ip=IPv4Address("203.0.113.10"))
        with pytest.raises(InstallRejected):
            table.install(snat, now=0)
        assert len(table) == 0 and table.rules == ()

    def test_wildcard_install_rejected(self):
        table = FlowTable()
        rule = FlowRule(FlowMatch(), None, "ext", None)
        with pytest.raises(InstallRejected):
            table.install(rule, now=0)


class TestExpiry:
    def test_fresh_rules_survive(self):
        table = FlowTable()
        snat, dnat = nat_pair(timeout=30)
        table.install(snat, now=0)
        table.install(dnat, now=0)
        table.match_packet(data_packet(src="10.1.0.5"), now=20)
        assert table.expire(now=30) == []

    def test_stale_rule_removed(self):
        table = FlowTable()
        snat, _ = nat_pair(timeout=30)
        installed = table.install(snat, now=0)
        removed = table.expire(now=60)
        assert removed == [installed]
        assert table.match_packet(data_packet(src="10.1.0.5"), now=61) is None

    def test_default_rule_never_expires(self):
        table = FlowTable()
        table.install_default("route", now=0)
        assert table.expire(now=10**12) == []
        assert table.default_rule is not None

    def test_removed_rule_stays_gone(self):
        table = FlowTable()
        snat, _ = nat_pair(timeout=10)
        table.install(snat, now=0)
        table.expire(now=100)
        for t in (101, 200, 10_000):
            assert table.match_packet(data_packet(src="10.1.0.5"), now=t) is None

    def test_no_scan_before_the_earliest_deadline(self):
        """Up to the earliest last_hit + timeout nothing can expire, so
        ``expire`` reads no rule; past it, the scan runs again."""

        class Unreadable(dict):
            def values(self):
                raise AssertionError("expire scanned the rules")

        table = FlowTable()
        snat, dnat = nat_pair(timeout=30)
        table.install(snat, now=0)
        table.install(dnat, now=10)
        rules = table._snat, table._dnat

        def hide():
            table._snat, table._dnat = (Unreadable(r) for r in rules)

        hide()
        for t in (0, 15, 30):
            assert table.expire(now=t) == []
        table._snat, table._dnat = rules
        assert [r.match for r in table.expire(now=31)] == [snat.match]
        hide()
        assert table.expire(now=40) == []  # the dnat rule's deadline

    def test_expired_rules_come_back_in_install_order(self):
        """A reinstalled SNAT rule keeps its dict slot but is the newest
        install, so it is listed after an older DNAT rule."""
        table = FlowTable()
        snat, dnat = nat_pair(timeout=10)
        table.install(snat, now=0)
        old_dnat = table.install(dnat, now=0)
        new_snat = table.install(snat, now=1)
        assert table.expire(now=100) == [old_dnat, new_snat]

    def test_install_lowers_the_bound(self):
        table = FlowTable()
        snat, dnat = nat_pair(timeout=1000)
        table.install(snat, now=0)
        assert table.expire(now=500) == []
        short = dataclasses.replace(dnat, idle_timeout=10)
        installed = table.install(short, now=500)
        assert table.expire(now=511) == [installed]


@st.composite
def lifecycle_ops(draw):
    ops = []
    t = 0
    for _ in range(draw(st.integers(1, 30))):
        t += draw(st.integers(0, 40))
        kind = draw(st.sampled_from(["install", "hit", "expire"]))
        host = draw(st.integers(1, 4))
        ops.append((kind, t, f"10.1.0.{host}"))
    return ops


HOSTS = [IPv4Address(f"10.1.0.{i}") for i in range(1, 5)]
VPIPS = [IPv4Address(f"198.51.100.{i}") for i in range(1, 5)]
REMOTE = IPv4Address("203.0.113.10")


@st.composite
def differential_ops(draw):
    """Scripts mixing SNAT and DNAT installs (so reinstalls occur), src-,
    dst- and both-hit packets, touches, expiry sweeps and default
    reinstalls."""
    ops = []
    t = 0
    for _ in range(draw(st.integers(1, 40))):
        t += draw(st.integers(0, 40))
        kind = draw(st.sampled_from(
            ["snat", "dnat", "src_hit", "dst_hit", "both_hit", "miss", "touch",
             "expire", "default"]))
        ops.append((kind, t, draw(st.integers(0, 3)), draw(st.integers(0, 3))))
    return ops


def _rule_for(kind, i, timeout):
    if kind == "snat":
        return snat_rule(HOSTS[i], VPIPS[i], "ext", timeout)
    return dnat_rule(VPIPS[i], HOSTS[i], f"zone:z{i}", timeout)


def _packet_for(kind, i, j, t):
    """A packet from host i to REMOTE, from REMOTE to vpIP i, from host i
    to vpIP j (client-to-client, hitting both shapes), or to neither."""
    src, dst = {
        "src_hit": (HOSTS[i], REMOTE),
        "dst_hit": (REMOTE, VPIPS[i]),
        "both_hit": (HOSTS[i], VPIPS[j]),
        "miss": (IPv4Address("192.0.2.1"), IPv4Address("192.0.2.2")),
    }[kind]
    return data_packet(src=str(src), dst=str(dst), now=t)


@st.composite
def mixed_timeout_ops(draw):
    """Like ``differential_ops``, with each install drawing its own idle
    timeout (or none) and expiry sweeps twice as likely."""
    ops = []
    t = 0
    for _ in range(draw(st.integers(1, 40))):
        t += draw(st.integers(0, 40))
        kind = draw(st.sampled_from(
            ["snat", "dnat", "src_hit", "dst_hit", "both_hit", "touch", "expire", "expire"]))
        ops.append((kind, t, draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                    draw(st.sampled_from([None, 1, 10, 50, 200]))))
    return ops


def _signature(rule):
    return None if rule is None else (rule.match, rule.install_seq)


class TestLifecycleModel:
    """Model-based checks of the table against a dict of (match -> last_hit)
    and against the linear-scan reference table."""

    @given(lifecycle_ops())
    @settings(max_examples=300, deadline=None)
    def test_matchable_set_tracks_model(self, ops):
        timeout = 50
        table = FlowTable()
        model = {}
        for kind, t, host in ops:
            src = int(IPv4Address(host))
            if kind == "install":
                snat, _ = nat_pair(rip=host, timeout=timeout)
                table.install(snat, now=t)
                model[src] = t
            elif kind == "hit":
                hit = table.match_packet(data_packet(src=host), now=t)
                if src in model:
                    assert hit is not None
                    model[src] = t
                else:
                    assert hit is None
            else:
                removed = table.expire(now=t)
                expected_gone = {s for s, last in model.items()
                                 if t - last > timeout}
                assert {r.match.src_ip for r in removed} == expected_gone
                for s in expected_gone:
                    del model[s]

    @given(differential_ops())
    @settings(max_examples=300, deadline=None)
    def test_indexed_table_agrees_with_linear_reference(self, ops):
        """Every step gives the same winner, length, rule listing and expiry
        list on the indexed table as on the linear-scan reference."""
        timeout = 50
        table, ref = FlowTable(), LinearFlowTable()
        for t in (table, ref):
            t.install_default("route")
        for kind, t, i, j in ops:
            if kind in ("snat", "dnat"):
                rule = _rule_for(kind, i, timeout)
                assert table.install(rule, now=t) == ref.install(rule, now=t)
            elif kind in ("src_hit", "dst_hit", "both_hit", "miss"):
                pkt = _packet_for(kind, i, j, t)
                assert _signature(table.match_packet(pkt, now=t)) == _signature(
                    ref.match_packet(pkt, now=t))
            elif kind == "touch":
                match = _rule_for("snat" if j % 2 else "dnat", i, timeout).match
                assert table.touch(match, now=t) == ref.touch(match, now=t)
            elif kind == "expire":
                assert table.expire(now=t) == ref.expire(now=t)
            else:
                assert table.install_default("route", now=t) == ref.install_default(
                    "route", now=t)
            assert len(table) == len(ref)
            assert table.rules == ref.rules

    @given(mixed_timeout_ops())
    @settings(max_examples=300, deadline=None)
    def test_expiry_bound_agrees_with_linear_reference(self, ops):
        """With rules of different idle timeouts, the indexed table's
        skipped and full expiry sweeps remove exactly what the reference's
        full scans remove."""
        table, ref = FlowTable(), LinearFlowTable()
        for t in (table, ref):
            t.install_default("route")
        for kind, t, i, j, timeout in ops:
            if kind in ("snat", "dnat"):
                rule = _rule_for(kind, i, timeout)
                assert table.install(rule, now=t) == ref.install(rule, now=t)
            elif kind in ("src_hit", "dst_hit", "both_hit"):
                pkt = _packet_for(kind, i, j, t)
                assert _signature(table.match_packet(pkt, now=t)) == _signature(
                    ref.match_packet(pkt, now=t))
            elif kind == "touch":
                match = _rule_for("snat" if j % 2 else "dnat", i, timeout).match
                assert table.touch(match, now=t) == ref.touch(match, now=t)
            else:
                assert table.expire(now=t) == ref.expire(now=t)
            assert table.rules == ref.rules


class TestSwitch:
    def make_switch(self):
        return SdnSwitch(
            route_port=lambda dst: "zone:z1" if IPv4Address(dst) in LOCAL else "ext",
        )

    def test_known_client_translated(self):
        sw = self.make_switch()
        snat, dnat = nat_pair()
        sw.install(snat, now=0)
        sw.install(dnat, now=0)
        decision = sw.process_packet(data_packet(src="10.1.0.5"), now=1)
        assert isinstance(decision, Forwarded)
        assert str(IPv4Address(decision.packet.src_ip)) == "198.51.100.7"
        assert decision.out_port == "ext"

    def test_unknown_local_source_escalates_and_buffers(self):
        sw = self.make_switch()
        pkt = data_packet(src="10.1.0.9")
        decision = sw.process_packet(pkt, now=0)
        assert isinstance(decision, PacketIn)
        assert len(sw.pending) == 1

    def test_external_source_routes_by_default(self):
        sw = self.make_switch()
        pkt = data_packet(src="203.0.113.10", dst="192.0.2.1")
        decision = sw.process_packet(pkt, now=0)
        assert isinstance(decision, Forwarded)
        assert decision.out_port == "ext"

    def test_reply_to_virtual_address_restored(self):
        sw = self.make_switch()
        snat, dnat = nat_pair()
        sw.install(snat, now=0)
        sw.install(dnat, now=0)
        reply = data_packet(src="203.0.113.10", dst="198.51.100.7")
        decision = sw.process_packet(reply, now=0)
        assert isinstance(decision, Forwarded)
        assert str(IPv4Address(decision.packet.dst_ip)) == "10.1.0.5"
        assert decision.out_port == "zone:z1"

    def test_drain_releases_buffered_after_install(self):
        sw = self.make_switch()
        pkt = data_packet(src="10.1.0.5")
        sw.process_packet(pkt, now=0)
        snat, dnat = nat_pair()
        sw.install(snat, now=1)
        sw.install(dnat, now=1)
        released = sw.drain(now=1)
        assert len(released) == 1
        assert str(IPv4Address(released[0].packet.src_ip)) == "198.51.100.7"
        assert not sw.pending

    def test_buffer_overflow_drops_oldest(self):
        sw = self.make_switch()
        for i in range(70):
            sw.process_packet(data_packet(src="10.1.0.9", seq=i), now=0)
        assert len(sw.pending) == 64
        assert sw.buffer_drops == 6
        assert sw.pending[0].packet.seq == 6

    def test_buffered_packet_expires_at_drain(self):
        sw = self.make_switch()
        sw.process_packet(data_packet(src="10.1.0.5"), now=0)
        snat, dnat = nat_pair()
        late = PACKET_IN_BUFFER_TIMEOUT_US + 1
        sw.install(snat, now=late)
        sw.install(dnat, now=late)
        assert sw.drain(now=late) == []
        assert sw.buffer_drops == 1 and not sw.pending

    def test_dhcp_never_escalates(self):
        sw = self.make_switch()
        pkt = Packet(
            src_ip=IPv4Address("10.1.0.9"), dst_ip=IPv4Address("255.255.255.255"),
            src_mac=UID, payload_len=0, seq=0, sent_at=0,
            kind=PacketKind.DHCP_DISCOVER,
        )
        decision = sw.process_packet(pkt, now=0)
        assert isinstance(decision, Forwarded)


class TestProperties:
    @given(
        src=st.integers(1, 254),
        others=st.lists(st.integers(1, 254), max_size=6),
    )
    @settings(max_examples=200)
    def test_priority_soundness(self, src, others):
        """If any translation rule matches, the default rule never wins."""
        table = FlowTable()
        table.install_default("route")
        for host in {src, *others}:
            snat, _ = nat_pair(rip=f"10.1.0.{host}")
            table.install(snat, now=0)
        hit = table.match_packet(data_packet(src=f"10.1.0.{src}"), now=1)
        assert hit is not table.default_rule
        assert IPv4Address(hit.match.src_ip) == IPv4Address(f"10.1.0.{src}")

    @given(payload=st.integers(1, 9000), seq=st.integers(0, 2**31))
    @settings(max_examples=100)
    def test_rewrites_never_touch_payload_or_seq(self, payload, seq):
        snat, _ = nat_pair()
        pkt = data_packet(payload=payload, seq=seq)
        out, _ = apply_actions(snat, pkt)
        assert out.payload_len == payload and out.seq == seq
