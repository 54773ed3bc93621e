"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line. Tolerances are
pinned here:

  1. session continuity            exact (resets = losses = 0, one source)
  2. virtual-address constancy     exact, on the installed flows: one vpIP,
                                   a new rIP per move
  3. switch-over delay ordering    strict <, budgets to within 1 us
                                   (the event quantum is one microsecond)
  4. tunnel overhead law           ratio within 1% over >= 1000 packets
  5. post-handoff recovery         dip only in the switch-over window,
                                   steady state back within 1%
  6. translation round trip        10,000 random triples, zero failures
  7. flow lifecycle                model-based oracle, randomized sequences
  8. discovery protocol            10,000 wire round trips + spoof guard
  9. determinism                   byte-identical CSV, seed-independent
                                   continuity counts
"""

import contextlib
import random
from ipaddress import IPv4Address, IPv4Network

import pytest

from sdnmob.addressing import Uid
from sdnmob.controller import HostReport, WireFormatError
from sdnmob.flow_engine import FlowTable, apply_actions, dnat_rule, snat_rule
from sdnmob.packet import INNER_HEADER_BYTES, Packet, PacketKind
from sdnmob.sim import Mode, MoveClient, build_topology, run_pmip_baseline, run_scenario
from sdnmob.sim.metrics import WINDOW_US, FlowExpired, FlowInstalled
from sdnmob.sim.runner import pmip_switchover_budget_us, sdn_switchover_budget_us
from sdnmob.sim.topology import TopologyConfig
from sdnmob.tap_server import TapServer, ZoneConfig
from sdnmob.units import US_PER_S, usec

CLIENT_UID_TEXT = "aa:bb:cc:00:00:01"
CLIENT_UID = Uid(CLIENT_UID_TEXT)
QUANTUM_US = 1  # integer-microsecond event scheduling


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


class TestAcceptance:
    def test_ac1_session_continuity(self, traces):
        with criterion("1 session continuity"):
            for scenario in ("handoff_basic", "ping_pong"):
                trace = traces[(scenario, "sdn")]
                assert trace.resets == 0, f"{scenario}: resets"
                assert trace.losses == 0, f"{scenario}: losses"
                assert len(trace.server_observed_sources) == 1, \
                    f"{scenario}: sources {trace.server_observed_sources}"

    def test_ac2_virtual_address_constancy(self, traces, bundled_configs):
        with criterion("2 virtual address constancy across handoff"):
            for scenario in ("handoff_basic", "ping_pong"):
                trace = traces[(scenario, "sdn")]
                moves = [e for e in bundled_configs[scenario].events
                         if isinstance(e, MoveClient)]
                rules = [e.rule for e in trace.flow_events
                         if isinstance(e, FlowInstalled) and e.uid == CLIENT_UID]
                snat = [r for r in rules if r.match.src_ip is not None]
                dnat = [r for r in rules if r.match.dst_ip is not None]
                rips = {r.match.src_ip for r in snat}
                # Every DNAT maps the one vpIP to one of the client's rIPs,
                # and every SNAT maps an rIP back to that vpIP.
                assert dnat and len({r.match.dst_ip for r in dnat}) == 1, \
                    "virtual address changed"
                vpip = dnat[0].match.dst_ip
                assert {r.new_addr for r in snat} == {vpip}
                assert {r.new_addr for r in dnat} == rips
                assert len(rips) == len(moves) + 1, \
                    "each move must give the client a new real address"

    def test_ac3_switchover_delay_ordering_and_budgets(
            self, traces, bundled_configs):
        with criterion("3 switch-over delay: sdn < pmip, budgets exact"):
            for scenario, payload in (("handoff_basic", 100),
                                      ("handoff_bulk", 1460),
                                      ("ping_pong", 100)):
                run = bundled_configs[scenario]
                moves = [e for e in run.events if isinstance(e, MoveClient)]
                sdn = traces[(scenario, "sdn")]
                pmip = traces[(scenario, "pmip")]
                assert len(sdn.handoffs) == len(moves) == len(pmip.handoffs)
                for i, move in enumerate(moves):
                    d_sdn = sdn.handoffs[i].switchover_delay_us
                    d_pmip = pmip.handoffs[i].switchover_delay_us
                    assert d_sdn is not None and d_pmip is not None
                    assert d_sdn < d_pmip, f"{scenario} handoff {i}"
                    b_sdn = sdn_switchover_budget_us(
                        run.topology, payload, move.zone_id)
                    b_pmip = pmip_switchover_budget_us(
                        run.topology, run.tunnel, payload, move.zone_id)
                    assert abs(d_sdn - b_sdn) <= QUANTUM_US, \
                        f"{scenario} sdn handoff {i}: {d_sdn} vs {b_sdn}"
                    assert abs(d_pmip - b_pmip) <= QUANTUM_US, \
                        f"{scenario} pmip handoff {i}: {d_pmip} vs {b_pmip}"

    def test_ac4_tunnel_overhead_law(self, traces, bundled_configs):
        with criterion("4 tunnel throughput overhead law"):
            run = bundled_configs["handoff_bulk"]
            payload = 1460
            encap = run.tunnel.encap_overhead_bytes
            expected = (payload + INNER_HEADER_BYTES) / (
                payload + INNER_HEADER_BYTES + encap)
            sdn = traces[("handoff_bulk", "sdn")]
            pmip = traces[("handoff_bulk", "pmip")]
            detach = sdn.handoffs[0].detach_us
            start, end = US_PER_S, detach
            packets = sum(1 for t, _ in sdn.deliveries if start <= t < end)
            assert packets >= 1000, f"only {packets} packets in steady window"
            ratio = pmip.goodput_between(start, end) / sdn.goodput_between(start, end)
            assert abs(ratio / expected - 1.0) <= 0.01, \
                f"ratio {ratio:.6f} vs closed form {expected:.6f}"

    def test_ac5_sdn_transient_confined_to_switchover(self, traces):
        with criterion("5 sdn throughput dip confined to switch-over window"):
            trace = traces[("handoff_bulk", "sdn")]
            handoff = trace.handoffs[0]
            detach = handoff.detach_us
            delay = handoff.switchover_delay_us
            windows = dict(trace.throughput_windows())
            steady_windows = [bps for start, bps in windows.items()
                              if US_PER_S <= start and start + WINDOW_US <= detach]
            assert len(steady_windows) >= 5
            steady = sum(steady_windows) / len(steady_windows)
            for bps in steady_windows:
                assert abs(bps / steady - 1.0) <= 0.01, "pre-handoff not steady"
            # recovery: retransmission catch-up is bounded by one send window
            # of frames (32 * 1.24 ms < 40 ms)
            catchup = 40_000
            recovery = detach + delay + catchup
            first_checked = ((recovery + WINDOW_US - 1) // WINDOW_US) * WINDOW_US
            post = [bps for start, bps in windows.items()
                    if start >= first_checked
                    and start + WINDOW_US <= trace.end_of_traffic_us]
            assert len(post) >= 5
            for bps in post:
                assert abs(bps / steady - 1.0) <= 0.01, "no recovery to steady"
            # the dip exists and sits inside [detach, detach + delay]
            dip_windows = [bps for start, bps in windows.items()
                           if start < detach + delay and start + WINDOW_US > detach]
            assert min(dip_windows) < 0.9 * steady, "expected a dip at handoff"

    def test_ac6_translation_round_trip(self):
        with criterion("6 translation round trip, 10k random triples"):
            rng = random.Random(0xAC6)
            uid = Uid(CLIENT_UID_TEXT)
            failures = 0
            for _ in range(10_000):
                rip = IPv4Address(rng.randrange(0x0A000001, 0x0AFFFFFE))
                vpip = IPv4Address(rng.randrange(0xC6336401, 0xC63364FE))
                snat = snat_rule(rip, vpip, "ext", 1_000_000)
                dnat = dnat_rule(vpip, rip, "zone:z", 1_000_000)
                table = FlowTable()
                table.install(snat, now=0)
                table.install(dnat, now=0)
                pkt = Packet(
                    src_ip=rip,
                    dst_ip=IPv4Address(rng.randrange(0xCB007101, 0xCB0071FE)),
                    src_mac=uid, payload_len=rng.randrange(1, 1501),
                    seq=rng.randrange(1 << 30), sent_at=rng.randrange(1 << 40),
                    kind=PacketKind.DATA,
                )
                out_rule = table.match_packet(pkt, now=1)
                translated, _ = apply_actions(out_rule, pkt)
                reply = Packet(
                    src_ip=translated.dst_ip, dst_ip=translated.src_ip,
                    src_mac=uid, payload_len=pkt.payload_len, seq=pkt.seq,
                    sent_at=pkt.sent_at, kind=PacketKind.DATA,
                )
                in_rule = table.match_packet(reply, now=2)
                restored, _ = apply_actions(in_rule, reply)
                ok = (
                    restored.src_ip == pkt.dst_ip
                    and restored.dst_ip == pkt.src_ip
                    and restored.payload_len == pkt.payload_len
                    and restored.seq == pkt.seq
                    and restored.sent_at == pkt.sent_at
                )
                failures += 0 if ok else 1
            assert failures == 0

    def test_ac7_flow_lifecycle_model(self):
        with criterion("7 flow lifecycle against reference model"):
            rng = random.Random(0xAC7)
            timeout = 50
            for _ in range(400):
                table = FlowTable()
                model = {}
                t = 0
                for _ in range(rng.randrange(1, 40)):
                    t += rng.randrange(0, 40)
                    host = f"10.1.0.{rng.randrange(1, 5)}"
                    src = int(IPv4Address(host))
                    op = rng.choice(("install", "hit", "expire"))
                    if op == "install":
                        rule = snat_rule(src, IPv4Address("198.51.100.7"),
                                         "ext", timeout)
                        table.install(rule, now=t)
                        model[src] = t
                    elif op == "hit":
                        pkt = Packet(src_ip=src,
                                     dst_ip=IPv4Address("203.0.113.10"),
                                     src_mac=Uid(CLIENT_UID_TEXT),
                                     payload_len=10, seq=0, sent_at=t,
                                     kind=PacketKind.DATA)
                        hit = table.match_packet(pkt, now=t)
                        assert (hit is not None) == (src in model)
                        if src in model:
                            model[src] = t
                    else:
                        removed = {r.match.src_ip for r in table.expire(now=t)}
                        expected = {s for s, last in model.items()
                                    if t - last > timeout}
                        assert removed == expected
                        for s in expected:
                            del model[s]

    def test_ac7_flow_lifecycle_end_to_end(self):
        with criterion("7 old flows outlive handoff then expire in simulation"):
            zones = (ZoneConfig("z1", IPv4Network("10.1.0.0/24"), usec(0.1)),
                     ZoneConfig("z2", IPv4Network("10.2.0.0/24"), usec(0.1)))
            cfg = TopologyConfig(zones=zones, idle_timeout_us=usec(2))
            from sdnmob.sim.runner import StartEcho, Stop
            events = [StartEcho(0, usec(0.05), 100),
                      MoveClient(usec(5), "z2"), Stop(usec(12))]
            trace = run_scenario(build_topology(cfg), events)
            assert trace.losses == 0 and trace.resets == 0
            expiries = [e.at_us for e in trace.flow_events
                        if isinstance(e, FlowExpired) and e.rule.match.src_ip
                        and IPv4Address(e.rule.match.src_ip) in zones[0].dhcp_range]
            assert expiries
            detach = trace.handoffs[0].detach_us
            assert expiries[0] > detach + usec(2) - usec(0.2)
            assert expiries[0] <= detach + usec(2) + US_PER_S + usec(0.1)

    def test_ac8_discovery_protocol(self):
        with criterion("8 discovery wire round trip and spoof guard"):
            rng = random.Random(0xAC8)
            failures = 0
            for _ in range(10_000):
                uid = Uid.from_int(rng.randrange(1 << 48))
                rip = IPv4Address(rng.randrange(1, 0xE0000000))
                report = HostReport(uid, rip)
                if HostReport.parse(report.serialize()) != report:
                    failures += 1
            assert failures == 0
            for bad in ("no-separator", "a#b#c", "aa:bb:cc:00:00:01#1.2.3",
                        "AA:BB:cc:00:00:01x#1.2.3.4"):
                with pytest.raises(WireFormatError):
                    HostReport.parse(bad)
            # spoof guard over a randomized stream
            zone = ZoneConfig("z1", IPv4Network("10.1.0.0/24"))
            tap = TapServer(zone)
            for i in range(10_000):
                choice = rng.randrange(4)
                if choice == 0:
                    src = "0.0.0.0"
                elif choice == 1:
                    src = f"10.1.0.{rng.randrange(1, 255)}"
                elif choice == 2:
                    src = f"192.0.2.{rng.randrange(1, 255)}"
                else:
                    src = f"10.2.0.{rng.randrange(1, 255)}"
                pkt = Packet(
                    src_ip=IPv4Address(src),
                    dst_ip=IPv4Address("203.0.113.10"),
                    src_mac=Uid.from_int(rng.randrange(1, 1 << 20)),
                    payload_len=100, seq=i, sent_at=i,
                    kind=PacketKind.DATA,
                )
                report = tap.observe_packet(pkt, now=i)
                if report is not None:
                    assert report.real_ip in zone.dhcp_range
            for entry in tap.buffer.values():
                assert IPv4Address(entry.real_ip) in zone.dhcp_range

    def test_ac9_determinism(self, bundled_configs):
        with criterion("9 determinism: identical artifacts, seed-free continuity"):
            for name, run in bundled_configs.items():
                for mode in (Mode.SDN, Mode.PMIP):
                    def one_run(topology):
                        if mode is Mode.SDN:
                            net = build_topology(topology)
                            return run_scenario(net, run.events)
                        net = build_topology(topology, Mode.PMIP, run.tunnel)
                        return run_pmip_baseline(net, run.events, run.tunnel)

                    first = one_run(run.topology)
                    second = one_run(run.topology)
                    assert list(first.csv_lines()) == list(second.csv_lines()), \
                        f"{name}/{mode.value}: artifacts differ across runs"
                    reseeded_topology = TopologyConfig(
                        zones=run.topology.zones,
                        link_bandwidth_bps=run.topology.link_bandwidth_bps,
                        link_delay_us=run.topology.link_delay_us,
                        control_delay_us=run.topology.control_delay_us,
                        vpip_pool=run.topology.vpip_pool,
                        seed=run.topology.seed + 1,
                        idle_timeout_us=run.topology.idle_timeout_us,
                        keepalive_interval_us=run.topology.keepalive_interval_us,
                    )
                    reseeded = one_run(reseeded_topology)
                    assert (reseeded.resets, reseeded.losses) == \
                        (first.resets, first.losses), \
                        f"{name}/{mode.value}: continuity depends on the seed"
