"""End-to-end simulation behavior: topology build, mobility, baselines,
conservation and causality."""

import dataclasses
import itertools
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings

from sdnmob.addressing import PoolExhausted
from sdnmob.config import bundled_scenario_path, load_config
from sdnmob.controller import HostReport
from sdnmob.flow_engine import FlowTable
from sdnmob.packet import Packet, PacketKind
from sdnmob.sim import (
    Mode,
    MoveClient,
    ScenarioError,
    StartEcho,
    Stop,
    TopologyConfig,
    TunnelConfig,
    build_topology,
    compare_runs,
    run_pmip_baseline,
    run_scenario,
    sdn_switchover_budget_us,
    pmip_switchover_budget_us,
)
from sdnmob.sim.metrics import ComparisonError, FlowExpired, FlowInstalled
from sdnmob.sim.runner import validate_events
from sdnmob.sim.runner import StartBulkTransfer
from sdnmob.sim.topology import SERVER_ADDR, SERVER_UID, SdnNetwork
from sdnmob.tap_server import TapFilter, TapServer, ZoneConfig
from sdnmob.units import US_PER_S, usec

from campus import campus_network, campus_population, register
from scripts import echo_scripts


def two_zone_cfg(**kwargs):
    zones = (
        ZoneConfig("z1", IPv4Network("10.1.0.0/24"), usec(0.1)),
        ZoneConfig("z2", IPv4Network("10.2.0.0/24"), usec(0.1)),
    )
    return TopologyConfig(zones=zones, **kwargs)


# Every fate a transmission ends in. A trace's counters hold these and the
# transmissions and retransmissions counts, nothing else.
FATES = ("accepted", "consumed", "link_drops", "host_drops",
         "buffer_drops", "buffer_residue")


def assert_every_transmission_accounted(counters):
    assert set(counters) <= {*FATES, "transmissions", "retransmissions"}
    assert counters["transmissions"] == sum(counters.get(k, 0) for k in FATES)


def echo_events(move_at=10.0, stop_at=20.0):
    return [
        StartEcho(0, usec(0.05), 100),
        MoveClient(usec(move_at), "z2"),
        Stop(usec(stop_at)),
    ]


class TestBuildTopology:
    def test_two_zones_build_expected_nodes(self):
        net = build_topology(two_zone_cfg())
        assert len(net.zones) == 2
        assert all(zone.tap is not None for zone in net.zones.values())
        assert net.switch is not None and net.controller is not None
        assert net.server.addr is not None
        assert net.switch.table.default_rule is not None

    def test_single_zone_minimal(self):
        cfg = TopologyConfig(zones=(ZoneConfig("only", IPv4Network("10.1.0.0/24")),))
        net = build_topology(cfg)
        assert list(net.zones) == ["only"]

    def test_zone_overlapping_virtual_pool_rejected(self):
        zones = (ZoneConfig("z1", IPv4Network("198.51.100.0/25")),)
        with pytest.raises(Exception) as err:
            TopologyConfig(zones=zones)
        assert "overlap" in str(err.value)

    def test_duplicate_zone_ranges_rejected(self):
        zones = (
            ZoneConfig("z1", IPv4Network("10.1.0.0/24")),
            ZoneConfig("z2", IPv4Network("10.1.0.0/25")),
        )
        with pytest.raises(Exception):
            TopologyConfig(zones=zones)

    def test_pmip_mode_requires_tunnel(self):
        with pytest.raises(Exception):
            build_topology(two_zone_cfg(), Mode.PMIP, None)


def timer_entries(net):
    """How many heap entries are the SDN control-plane timer's. PMIP mode
    has no timer."""
    timer = getattr(net, "_control_tick", None)
    return sum(1 for _, _, fn, _ in net.sim._heap if fn == timer)


def other_work(net):
    """How many pending events are not the SDN control-plane timer: the work
    that keeps a run going."""
    return net.sim.pending() - timer_entries(net)


class TestIdle:
    @pytest.mark.parametrize("mode", [Mode.SDN, Mode.PMIP])
    def test_not_idle_while_any_link_holds_a_packet(self, mode):
        net = build_topology(two_zone_cfg(), mode, TunnelConfig())
        assert other_work(net) == 0
        # server -> core -> server: routed back out by the default route
        # and dropped at the server, which is not its destination
        net.ext_in.send(Packet(SERVER_ADDR, IPv4Address("192.0.2.1"), SERVER_UID,
                               100, 0, 0, PacketKind.DATA))
        assert other_work(net) == 1  # the arrival on ext-in
        second_hop = []
        send = net.ext_out.send

        def probe(pkt):
            sent = send(pkt)
            second_hop.append(other_work(net))
            return sent

        net.ext_out.send = probe
        net.sim.run(until=usec(1))
        assert second_hop == [1]  # ext-in's arrival has run; ext-out's is pending
        assert other_work(net) == 0
        assert net.host_drops == 1

    @pytest.mark.parametrize("mode", [Mode.SDN, Mode.PMIP])
    def test_not_idle_while_the_client_acquires_an_address(self, mode):
        cfg = two_zone_cfg()
        net = build_topology(cfg, mode, TunnelConfig())
        bud = 0 if mode is Mode.SDN else TunnelConfig().resolved_binding_delay(
            cfg.control_delay_us)
        net.move_client("z1")
        # The DISCOVER is consumed at the gateway and any binding update is
        # done: only the pending lease keeps the run busy.
        net.sim.run(until=bud + usec(0.05))
        assert net.consumed == 1 and net.client.addr is None
        assert other_work(net) == 1
        # Lease at bud + 100 ms; the solicitation lands 1.032 ms later.
        net.sim.run(until=bud + usec(0.2))
        assert net.consumed == 2 and net.client.addr is not None
        assert other_work(net) == 0


@pytest.fixture
def passes(monkeypatch):
    """Log each firing of the SDN control-plane timer with the passes it
    runs: ``[(now, ["tap:z1", "tap:z2", "expire"]), ...]``. Networks must be
    built after the fixture, so that their first firing is logged too."""
    log = []
    fire, tick, expire = SdnNetwork._control_tick, TapServer.tick, FlowTable.expire

    def logged_fire(net):
        log.append((net.sim.now, []))
        fire(net)

    def logged_tick(tap, now):
        log[-1][1].append(f"tap:{tap.zone.zone_id}")
        return tick(tap, now)

    def logged_expire(table, now):
        log[-1][1].append("expire")
        return expire(table, now)

    monkeypatch.setattr(SdnNetwork, "_control_tick", logged_fire)
    monkeypatch.setattr(TapServer, "tick", logged_tick)
    monkeypatch.setattr(FlowTable, "expire", logged_expire)
    return log


KEEPALIVE_PASS = ["tap:z1", "tap:z2"]
EXPIRY_PASS = ["expire"]


class TestEndOfRun:
    """SDN mode's one control-plane timer reschedules itself only while some
    other event is pending, so a run ends once its last lease, control
    message, link arrival, traffic tick and timer has run."""

    KEEPALIVE = usec(1.5)  # firings at 1 s, 1.5 s, 2 s, 3 s, ...
    WORK_AT = usec(2.5)
    CUTOFF = usec(60)  # a timer that never stopped would run to here

    def pending_work(self, work, work_at=WORK_AT, keepalive=KEEPALIVE):
        """A two-zone SDN network with ``work`` due at ``work_at``."""
        kwargs = dict(keepalive_interval_us=keepalive)
        if work == "lease":
            kwargs["zones"] = (ZoneConfig("z1", IPv4Network("10.1.0.0/24"), work_at),
                               ZoneConfig("z2", IPv4Network("10.2.0.0/24")))
            net = build_topology(TopologyConfig(**kwargs))
            net.move_client("z1")  # its DISCOVER is consumed at 1.1 ms
        elif work == "control_message":
            net = build_topology(two_zone_cfg(**kwargs))
            net._control_send(work_at, lambda: None)
        else:
            net = build_topology(two_zone_cfg(link_delay_us=work_at, **kwargs))
            net.ext_in.send(Packet(SERVER_ADDR, IPv4Address("192.0.2.1"), SERVER_UID,
                                   100, 0, 0, PacketKind.DATA))
        return net

    @pytest.mark.parametrize("work", ["lease", "control_message", "link_arrival"])
    def test_ticks_reschedule_while_other_work_is_pending(self, work, passes):
        net = self.pending_work(work)
        assert timer_entries(net) == 1
        net.sim.run(until=usec(2))
        # The timer has fired at 1 s, 1.5 s and 2 s and rescheduled each
        # time: the work and the timer are pending.
        assert [now for now, _ in passes] == [usec(1), usec(1.5), usec(2)]
        assert (timer_entries(net), net.sim.pending()) == (1, 2)
        net.sim.run(until=self.CUTOFF)
        assert (timer_entries(net), net.sim.pending()) == (0, 0)

    def test_each_tick_stops_at_its_next_firing_once_only_ticks_remain(self, passes):
        net = self.pending_work("control_message")
        net.sim.run(until=self.CUTOFF)
        # The message lands at 2.5 s; the timer fires next at 3 s and stops
        # there.
        assert net.sim.now == usec(3)
        assert [now for now, _ in passes] == [usec(1), usec(1.5), usec(2), usec(3)]
        assert net.sim.pending() == 0

    def test_with_nothing_to_do_each_tick_fires_once(self, passes):
        net = build_topology(two_zone_cfg(keepalive_interval_us=self.KEEPALIVE))
        net.sim.run(until=self.CUTOFF)
        assert net.sim.now == usec(1)
        assert passes == [(usec(1), EXPIRY_PASS)]
        assert net.sim._seq == 1  # the timer scheduled at set-up, never again
        assert net.sim.pending() == 0

    @pytest.mark.parametrize("keepalive, work_at, firings", [
        # 1.5 s: keepalive at 1.5, 3 and 4.5 s, expiry at 1, 2, 3 and 4 s.
        (1.5, 4.2, [(1, EXPIRY_PASS), (1.5, KEEPALIVE_PASS), (2, EXPIRY_PASS),
                    (3, KEEPALIVE_PASS + EXPIRY_PASS), (4, EXPIRY_PASS),
                    (4.5, KEEPALIVE_PASS)]),
        # 0.4 s: keepalive every 0.4 s, between the whole seconds.
        (0.4, 2.1, [(0.4, KEEPALIVE_PASS), (0.8, KEEPALIVE_PASS), (1, EXPIRY_PASS),
                    (1.2, KEEPALIVE_PASS), (1.6, KEEPALIVE_PASS),
                    (2, KEEPALIVE_PASS + EXPIRY_PASS), (2.4, KEEPALIVE_PASS)]),
    ])
    def test_one_timer_fires_at_the_union_of_both_schedules(self, keepalive, work_at,
                                                            firings, passes):
        """One firing per instant of either schedule, running the keepalive
        pass over the zones in order and then the expiry pass; the firing
        after the work's instant is the last."""
        net = self.pending_work("control_message", usec(work_at), usec(keepalive))
        net.sim.run(until=self.CUTOFF)
        assert passes == [(usec(at), ran) for at, ran in firings]
        assert net.sim.pending() == 0

    @pytest.mark.parametrize("mode", [Mode.SDN, Mode.PMIP])
    def test_nothing_pending_after_a_run(self, mode):
        cfg = two_zone_cfg(keepalive_interval_us=US_PER_S)
        net = build_topology(cfg, mode, TunnelConfig())
        trace = run_scenario(net, echo_events())
        assert trace.losses == 0
        assert net.sim.pending() == 0

    @pytest.mark.parametrize("mode", [Mode.SDN, Mode.PMIP])
    def test_echo_stream_ends_itself_before_its_stop(self, mode):
        """An echo from 0 every 50 ms until a stop at 3 s sends at 0, 50 ms,
        ..., 2.95 s: 60 segments. It schedules no tick at the stop instant."""
        net = build_topology(two_zone_cfg(), mode, TunnelConfig())
        ticks = []
        schedule = net.sim.schedule

        def spy(delay, fn, *args):
            if fn.__name__ == "tick":
                ticks.append(net.sim.now + delay)
            schedule(delay, fn, *args)

        net.sim.schedule = spy
        trace = run_scenario(net, [StartEcho(0, usec(0.05), 100), Stop(usec(3))])
        assert net.client.conns[0].submitted == 60
        assert net.server.conns[0].side.submitted == 60  # each one echoed
        assert ticks == [usec(0.05) * k for k in range(1, 60)]
        assert trace.losses == 0

    def test_bundled_runs_leave_nothing_pending(self, bundled_runs):
        for key, (net, _) in bundled_runs.items():
            assert net.sim.pending() == 0, key
            # Every bundled run ends before the first keepalive boundary
            # (300 s), so no keepalive pass ever carries one on.
            assert net.sim.now < net.cfg.keepalive_interval_us, key


class TestMoveAndDhcp:
    def test_move_to_unknown_zone_rejected(self):
        net = build_topology(two_zone_cfg())
        net.move_client("z1")
        net.sim.run(until=usec(1))
        with pytest.raises(ScenarioError):
            net.move_client("z9")

    def test_attach_to_unknown_zone_rejected(self):
        net = build_topology(two_zone_cfg())
        with pytest.raises(ScenarioError) as err:
            net.move_client("nope")
        assert str(err.value) == "unknown zone: 'nope'"

    def test_move_to_current_zone_rejected(self):
        net = build_topology(two_zone_cfg())
        net.move_client("z1")
        net.sim.run(until=usec(1))
        with pytest.raises(ScenarioError):
            net.move_client("z1")

    @pytest.mark.parametrize("mode", [Mode.SDN, Mode.PMIP])
    def test_move_while_acquiring_an_address_rejected(self, mode):
        """The client acquires an address from its attach until the lease:
        in SDN mode that is the 100 ms DHCP latency, in PMIP mode the 10 ms
        binding update first and then the DHCP latency."""
        net = build_topology(two_zone_cfg(), mode, TunnelConfig())
        net.move_client("z1")
        # At 5 ms the SDN DISCOVER is consumed; the PMIP one is not yet sent.
        net.sim.run(until=usec(0.005))
        assert net.consumed == (1 if mode is Mode.SDN else 0)
        with pytest.raises(ScenarioError, match="during address acquisition"):
            net.move_client("z2")
        assert net.client.zone is net.zones["z1"] and not net.trace.handoffs
        net.sim.run(until=usec(0.2))  # the lease has landed in both modes
        assert net.client.addr is not None
        net.move_client("z2")
        assert net.client.zone is net.zones["z2"] and len(net.trace.handoffs) == 1

    def test_pmip_binding_acknowledgement_starts_dhcp(self):
        """A PMIP attach pushes one event. At the binding-update delay it
        binds the tunnel to the zone and puts the DISCOVER on the uplink."""
        tunnel = TunnelConfig()
        net = build_topology(two_zone_cfg(), Mode.PMIP, tunnel)
        bud = tunnel.resolved_binding_delay(net.cfg.control_delay_us)
        z1 = net.zones["z1"]
        net.move_client("z1")
        assert net.sim.pending() == 1
        assert net.bound_zone is None and net.transmissions == 0
        net.sim.run(until=bud)
        assert net.sim._seq - net.sim.pending() == 1  # one event has fired
        assert net.sim.now == bud
        assert net.bound_zone is z1 and net.transmissions == 1
        # Pending: the DISCOVER's arrival at the gateway, then the lease.
        assert [fn for _, _, fn, _ in sorted(net.sim._heap)] == [
            z1.access_up._arrive, net._complete_dhcp]

    def test_client_sources_from_new_zone_after_move(self):
        net = build_topology(two_zone_cfg())
        trace = run_scenario(net, echo_events())
        assert trace.losses == 0
        # tap buffers prove the new source range was used after the move
        z2_entries = list(net.zones["z2"].tap.buffer)
        assert z2_entries and all(IPv4Address(ip) in IPv4Network("10.2.0.0/24")
                                  for ip in z2_entries)

    def test_dhcp_single_free_address_forced(self):
        zone = ZoneConfig("tiny", IPv4Network("192.0.2.0/30"))
        cfg = TopologyConfig(zones=(zone,))
        net = build_topology(cfg)
        pool = net.zones["tiny"].pool
        first = pool.allocate(net.rng)
        second = pool.allocate(net.rng)
        assert {str(IPv4Address(a)) for a in (first, second)} == {"192.0.2.1", "192.0.2.2"}
        with pytest.raises(PoolExhausted):
            pool.allocate(net.rng)

    def test_static_client_server_sees_only_virtual_address(self):
        net = build_topology(two_zone_cfg())
        events = [StartEcho(0, usec(0.05), 100), Stop(usec(3))]
        trace = run_scenario(net, events)
        record = net.controller.mst.lookup(net.client.uid)
        assert trace.server_observed_sources == {str(IPv4Address(record.virtual_ip))}
        assert IPv4Address(record.virtual_ip) in net.cfg.vpip_pool

    def test_zone_revisit_gets_new_lease_and_survives(self):
        cfg = load_config(bundled_scenario_path("ping_pong"), mode="sdn")
        net = build_topology(cfg.topology)
        trace = run_scenario(net, cfg.events)
        leases = net.zones["zone1"].pool.used
        assert len(leases) == 2  # initial attach and the return
        assert trace.losses == 0 and trace.resets == 0
        assert len(trace.server_observed_sources) == 1


class TestEventValidation:
    def test_unsorted_events_rejected(self):
        cfg = two_zone_cfg()
        events = [Stop(usec(5)), StartEcho(0, usec(0.05), 100)]
        with pytest.raises(ScenarioError):
            validate_events(cfg, events)

    def test_echo_without_stop_rejected(self):
        cfg = two_zone_cfg()
        with pytest.raises(ScenarioError):
            validate_events(cfg, [StartEcho(0, usec(0.05), 100)])

    def test_overlapping_moves_rejected(self):
        cfg = two_zone_cfg()
        events = [
            StartEcho(0, usec(0.05), 100),
            MoveClient(usec(5.0), "z2"),
            MoveClient(usec(5.05), "z1"),
            Stop(usec(10)),
        ]
        with pytest.raises(ScenarioError):
            validate_events(cfg, events)

    @pytest.mark.parametrize("events,index", [
        ([StartEcho(0, usec(0.05), 100), Stop(usec(2)),
          StartEcho(usec(4), usec(0.05), 100), Stop(usec(6))], 2),
        ([Stop(0), StartEcho(0, usec(0.05), 100)], 1),
    ])
    def test_echo_after_a_stop_rejected(self, events, index):
        """A stop ends echo traffic for good: an echo listed after one would
        submit nothing."""
        with pytest.raises(ScenarioError, match="starts after a stop") as err:
            validate_events(two_zone_cfg(), events)
        assert err.value.index == index

    def test_unknown_zone_is_a_scenario_error_with_index(self):
        events = [StartEcho(0, usec(0.05), 100), MoveClient(usec(5), "z9"), Stop(usec(10))]
        with pytest.raises(ScenarioError, match="unknown zone 'z9'") as err:
            validate_events(two_zone_cfg(), events)
        assert err.value.index == 1

    @pytest.mark.parametrize("earlier", [(), (usec(1),)])
    def test_tunnel_mode_counts_the_binding_update(self, earlier):
        """A tunnel-mode client acquires its address 100 ms (DHCP) after a
        10 ms binding update (2 x 5 ms control delay). SDN mode runs a move
        105 ms after the attach before it. Tunnel mode rejects one at 105
        or 110 ms before the run starts, and runs one at 110 ms + 1 us."""
        cfg = two_zone_cfg()
        acquisition = usec(0.1) + 2 * cfg.control_delay_us

        def events(gap):
            zones = itertools.cycle(("z2", "z1"))
            at = [*earlier, (earlier[-1] if earlier else 0) + gap]
            return [StartEcho(0, usec(0.05), 100),
                    *(MoveClient(t, next(zones)) for t in at), Stop(usec(2))]

        moves = len(earlier) + 1
        assert len(run_scenario(build_topology(cfg), events(usec(0.105))).handoffs) == moves
        for gap in (usec(0.105), acquisition):
            net = build_topology(cfg, Mode.PMIP, TunnelConfig())
            with pytest.raises(ScenarioError, match="overlap") as err:
                run_scenario(net, events(gap))
            assert err.value.index == moves and net.sim.now == 0
        net = build_topology(cfg, Mode.PMIP, TunnelConfig())
        trace = run_scenario(net, events(acquisition + 1))
        assert len(trace.handoffs) == moves and trace.resets == 0


class TestSwitchoverBudgets:
    """The measured handoff delay must equal the closed-form budget."""

    @pytest.mark.parametrize("scenario,payload", [
        ("handoff_basic", 100),
        ("handoff_bulk", 1460),
        ("ping_pong", 100),
    ])
    def test_sdn_measured_equals_budget(self, traces, bundled_configs,
                                        scenario, payload):
        trace = traces[(scenario, "sdn")]
        cfg = bundled_configs[scenario].topology
        for handoff, target in zip(
                trace.handoffs,
                [e.zone_id for e in bundled_configs[scenario].events
                 if isinstance(e, MoveClient)]):
            budget = sdn_switchover_budget_us(cfg, payload, target)
            assert abs(handoff.switchover_delay_us - budget) <= 1

    @pytest.mark.parametrize("scenario,payload", [
        ("handoff_basic", 100),
        ("handoff_bulk", 1460),
        ("ping_pong", 100),
    ])
    def test_pmip_measured_equals_budget(self, traces, bundled_configs,
                                         scenario, payload):
        trace = traces[(scenario, "pmip")]
        run = bundled_configs[scenario]
        for handoff, target in zip(
                trace.handoffs,
                [e.zone_id for e in run.events if isinstance(e, MoveClient)]):
            budget = pmip_switchover_budget_us(run.topology, run.tunnel,
                                               payload, target)
            assert abs(handoff.switchover_delay_us - budget) <= 1

    def test_fast_control_path_installs_before_packet(self):
        """With a 100 us control delay the flow install beats the data
        packet to the core (no packet-in); the budget's other branch."""
        zones = (ZoneConfig("z1", IPv4Network("10.1.0.0/24"), usec(0.1)),
                 ZoneConfig("z2", IPv4Network("10.2.0.0/24"), usec(0.1)))
        cfg = TopologyConfig(zones=zones, control_delay_us=100)
        events = [StartBulkTransfer(0, 2_920_000, 1460), MoveClient(usec(1), "z2")]
        trace = run_scenario(build_topology(cfg), events)
        budget = sdn_switchover_budget_us(cfg, 1460, "z2")
        assert 2 * cfg.control_delay_us < 2 * 1200 + cfg.link_delay_us
        assert trace.handoffs[0].switchover_delay_us == budget
        assert trace.losses == 0

    def test_hand_computed_golden_budget(self):
        # 10 Mbps, 1 ms propagation, 5 ms control delay, 100 ms DHCP,
        # 100 B echo payload: 40 B solicit serializes in 32 us, 140 B data
        # in 112 us; control path 10 ms dominates 2*112+1000 us.
        cfg = two_zone_cfg()
        assert sdn_switchover_budget_us(cfg, 100, "z2") == (
            100_000 + 32 + 1_000 + 10_000 + 112 + 1_000)
        tunnel = TunnelConfig()  # 40 B encap, binding delay 2 x 5 ms
        assert pmip_switchover_budget_us(cfg, tunnel, 100, "z2") == (
            10_000 + 100_000 + 32 + 112 + 1_000 + 144 + 1_000 + 112 + 1_000)


class TestPmipBaseline:
    def test_zero_encapsulation_matches_sdn_throughput(self):
        cfg = load_config(bundled_scenario_path("handoff_bulk"), mode="both")
        sdn_trace = run_scenario(build_topology(cfg.topology), cfg.events)
        tunnel = TunnelConfig(encap_overhead_bytes=0)
        net = build_topology(cfg.topology, Mode.PMIP, tunnel)
        pmip_trace = run_pmip_baseline(net, cfg.events, tunnel)
        a = sdn_trace.steady_state_goodput()
        b = pmip_trace.steady_state_goodput()
        assert abs(b / a - 1.0) < 0.002

    def test_pmip_handoff_preserves_address(self, traces):
        for scenario in ("handoff_basic", "ping_pong"):
            trace = traces[(scenario, "pmip")]
            assert trace.resets == 0
            assert len(trace.server_observed_sources) == 1

    def test_baseline_requires_pmip_network(self):
        cfg = load_config(bundled_scenario_path("handoff_basic"), mode="both")
        net = build_topology(cfg.topology)  # sdn-mode network
        with pytest.raises(ScenarioError):
            run_pmip_baseline(net, cfg.events, cfg.tunnel)

    def test_network_runs_exactly_once(self):
        cfg = load_config(bundled_scenario_path("handoff_basic"), mode="sdn")
        net = build_topology(cfg.topology)
        run_scenario(net, cfg.events)
        with pytest.raises(ScenarioError):
            run_scenario(net, cfg.events)

    def test_rejected_event_list_leaves_the_network_unrun(self):
        cfg = load_config(bundled_scenario_path("handoff_basic"), mode="sdn")
        net = build_topology(cfg.topology)
        with pytest.raises(ScenarioError, match="overlaps initial attach"):
            run_scenario(net, [MoveClient(usec(0.05), "zone2")])
        assert len(run_scenario(net, cfg.events).handoffs) > 0
        with pytest.raises(ScenarioError, match="already ran"):
            run_scenario(net, cfg.events)


class TestCompareRuns:
    def test_identical_traces_zero_deltas(self, bundled_configs):
        cfg = bundled_configs["handoff_basic"]
        a = run_scenario(build_topology(cfg.topology), cfg.events)
        b = run_scenario(build_topology(cfg.topology), cfg.events)
        summary = compare_runs(a, b)
        for _, _, delta in summary.switchover_pairs:
            assert delta == 0.0
        sa, sb = summary.steady_goodput_bps
        assert sa == sb
        assert (a.losses, b.losses) == (0, 0) and (a.resets, b.resets) == (0, 0)

    def test_sdn_beats_pmip_on_default_scenario(self, traces):
        summary = compare_runs(traces[("handoff_basic", "sdn")],
                               traces[("handoff_basic", "pmip")])
        for sdn_delay, pmip_delay, delta in summary.switchover_pairs:
            assert sdn_delay < pmip_delay and delta < 0

    def test_mismatched_event_lists_rejected(self, traces, bundled_configs):
        with pytest.raises(ComparisonError):
            compare_runs(traces[("handoff_basic", "sdn")],
                         traces[("ping_pong", "pmip")])


class TestClosedFormGoldens:
    def test_steady_goodput_matches_link_arithmetic(self, traces):
        """Bulk goodput equals link_rate * payload / wire_size on the
        bottleneck, to within window phase effects."""
        sdn = traces[("handoff_bulk", "sdn")].steady_state_goodput()
        pmip = traces[("handoff_bulk", "pmip")].steady_state_goodput()
        assert abs(sdn / (10e6 * 1460 / 1500) - 1.0) < 0.005
        assert abs(pmip / (10e6 * 1460 / 1540) - 1.0) < 0.005

    def test_quiet_echo_rtt_is_pipeline_exact(self, traces):
        """Uncongested echo RTT on 10 Mbps / 1 ms links.

        Server side: 140 B reply over three store-and-forward hops
        (3 x (112 + 1000)) plus the lone 40 B ack back (3 x (32 + 1000))
        = 6432 us. Client side adds the reply serializing ahead of the
        request's ack on every shared hop (the server transmits reply,
        then ack, in one burst), giving 6704 us.
        """
        trace = traces[("handoff_basic", "sdn")]
        client = [r for _, r in trace.rtt_client]
        server = [r for _, r in trace.rtt_server]
        assert max(set(client), key=client.count) == 6704
        assert max(set(server), key=server.count) == 6432
        # the quiet-path value dominates: only startup and the handoff
        # round trip deviate
        assert client.count(6704) > 0.95 * len(client)


class TestSimInvariants:
    def test_conservation_every_transmission_accounted(self, traces):
        for trace in traces.values():
            assert_every_transmission_accounted(trace.counters)

    def test_causality_rtt_floor(self, traces, bundled_configs):
        for (scenario, _), trace in traces.items():
            prop = bundled_configs[scenario].topology.link_delay_us
            floor = 2 * 3 * prop  # three hops each way, propagation only
            for _, rtt in itertools.chain(trace.rtt_client, trace.rtt_server):
                assert rtt >= floor

    def test_throughput_never_exceeds_bottleneck(self, traces, bundled_configs):
        for (scenario, _), trace in traces.items():
            cap = bundled_configs[scenario].topology.link_bandwidth_bps
            for _, bps in trace.throughput_windows():
                assert bps <= cap

    def test_switchover_delay_nonnegative(self, traces):
        for trace in traces.values():
            for h in trace.handoffs:
                assert h.switchover_delay_us is not None
                assert h.switchover_delay_us >= 0

    def test_seed_determinism_bit_identical(self, bundled_configs):
        cfg = bundled_configs["handoff_basic"]
        rows_a = list(run_scenario(build_topology(cfg.topology), cfg.events).csv_lines())
        rows_b = list(run_scenario(build_topology(cfg.topology), cfg.events).csv_lines())
        assert rows_a == rows_b


class TestPacketInRepair:
    def test_expired_flows_repaired_by_packet_in(self):
        """Sparse traffic (send interval > idle timeout) loses its flows
        between rounds; every round then escalates to the controller, which
        re-emits the install pair for the still-known client. No loss."""
        cfg = two_zone_cfg(idle_timeout_us=usec(2))
        events = [StartEcho(0, usec(3), 100), Stop(usec(13))]
        trace = run_scenario(build_topology(cfg), events)
        assert trace.losses == 0 and trace.resets == 0
        assert len(trace.server_observed_sources) == 1
        expired = [e for e in trace.flow_events if isinstance(e, FlowExpired)]
        installs = [e for e in trace.flow_events if isinstance(e, FlowInstalled)]
        assert len(expired) >= 4
        assert len(installs) > len(expired)


class TestBystanders:
    def test_handoff_moves_only_the_mover(self):
        """200 registered clients stay put while the roaming client hands
        off: each keeps its real and virtual address, the mover keeps its
        virtual address under a new real one, and the table stays whole."""
        net = campus_network()
        population = campus_population(200)
        register(net, population)
        mst = net.controller.mst
        before = {uid: (mst.lookup(uid).real_ip, mst.lookup(uid).virtual_ip)
                  for uid, _ in population}
        events = load_config(bundled_scenario_path("handoff_bulk"), mode="sdn").events
        trace = run_scenario(net, events)
        assert trace.resets == 0 and trace.losses == 0 and len(trace.handoffs) == 1
        for uid, _ in population:
            record = mst.lookup(uid)
            assert (record.real_ip, record.virtual_ip) == before[uid]
        first_snat = next(e.rule for e in trace.flow_events
                          if isinstance(e, FlowInstalled) and e.uid == net.client.uid)
        assert first_snat.match.src_ip is not None
        mover = mst.lookup(net.client.uid)
        assert mover.virtual_ip == first_snat.new_addr
        assert mover.real_ip != first_snat.match.src_ip
        assert IPv4Address(mover.real_ip) in net.zones["zone2"].cfg.dhcp_range
        assert len(mst) == len(population) + 1
        mst.check_invariants()


class TestConcurrentTraffic:
    def test_echo_and_bulk_share_a_handoff(self):
        """Two connections at once; the earliest-started stream's payload
        times the switch-over (lowest connection id flushes first)."""
        cfg = two_zone_cfg()
        events = [
            StartEcho(0, usec(0.05), 100),
            StartBulkTransfer(usec(0.2), 2_920_000, 1460),
            MoveClient(usec(1.5), "z2"),
            Stop(usec(6)),
        ]
        trace = run_scenario(build_topology(cfg), events)
        assert trace.losses == 0 and trace.resets == 0
        assert len(trace.server_observed_sources) == 1
        budget = sdn_switchover_budget_us(cfg, 100, "z2")
        assert trace.handoffs[0].switchover_delay_us == budget


class TestFlowRefresh:
    def test_keepalive_refresh_rearms_idle_timer(self):
        """A keepalive report for an unchanged binding must touch the
        installed translation rules instead of reinstalling them."""
        from sdnmob.controller import HostReport, RefreshFlows
        from sdnmob.flow_engine import FlowMatch
        from ipaddress import IPv4Address

        net = build_topology(two_zone_cfg())
        uid = net.client.uid
        actions = net.controller.handle_host_report(
            HostReport(uid, IPv4Address("10.1.0.5")), now=0)
        for action in actions:
            net._apply_install(action)
        record = net.controller.mst.lookup(uid)
        rules = {rule.match: rule for rule in net.switch.table.rules}
        snat = rules.get(FlowMatch(src_ip=record.real_ip))
        assert snat is not None and snat.last_hit == 0
        refresh = net.controller.handle_host_report(
            HostReport(uid, IPv4Address("10.1.0.5")), now=usec(10))
        assert refresh == [RefreshFlows(uid)]
        net.sim.now = usec(10)
        net._apply_refresh(refresh[0])
        assert snat.last_hit == usec(10)
        dnat = rules[FlowMatch(dst_ip=record.virtual_ip)]
        assert dnat.last_hit == usec(10)


class TestTapFilterLiveness:
    """``handoff_basic`` in SDN mode with a one-second keepalive, so that
    the tap's staleness horizon and the controller's liveness window both
    pass within the ten seconds before the move."""

    @staticmethod
    def run(tap_filter):
        cfg = load_config(bundled_scenario_path("handoff_basic"), mode="sdn")
        zones = tuple(dataclasses.replace(z, tap_filter=tap_filter)
                      for z in cfg.topology.zones)
        topology = dataclasses.replace(cfg.topology, zones=zones,
                                       keepalive_interval_us=US_PER_S)
        return run_scenario(build_topology(topology), cfg.events)

    def test_all_packets_filter_keeps_the_session(self):
        trace = self.run(TapFilter.ALL_PACKETS)
        assert trace.resets == 0
        assert len(trace.server_observed_sources) == 1

    def test_discovery_only_filter_keeps_the_session(self):
        # The tap forgets the binding after 2 s and reports nothing more, but
        # the client's traffic keeps its SNAT rule installed, so the
        # controller keeps the record and the vpIP.
        trace = self.run(TapFilter.DHCP_AND_RS_ONLY)
        assert trace.resets == 0
        assert len(trace.server_observed_sources) == 1


class TestStaleKeepaliveReReport:
    """The client leaves z1 for z2 at 5 s and is back in z1 from 7.5 s. At
    the 10 s keepalive pass both taps still hold a binding of it, younger
    than their two-interval staleness horizon. z2's re-report comes last, so
    the controller takes it as the newest truth and points the DNAT back at
    z2, where the client no longer is, until that binding ages out at 30 s."""

    CFG = two_zone_cfg(keepalive_interval_us=usec(10))
    EVENTS = [StartEcho(0, usec(0.05), 100), MoveClient(usec(5), "z2"),
              MoveClient(usec(7.5), "z1"), Stop(usec(15))]

    @pytest.mark.parametrize("mode", [
        pytest.param(Mode.SDN, marks=pytest.mark.xfail(strict=True, reason=(
            "stale keepalive re-report: z2's tap re-reports the departed "
            "binding after z1's, and the controller moves the client back to "
            "z2 (ROADMAP item 13, step 2, deletes the re-reports)"))),
        Mode.PMIP,
    ])
    def test_return_to_the_old_zone_drops_nothing(self, mode):
        net = build_topology(self.CFG, mode, TunnelConfig())
        trace = run_scenario(net, self.EVENTS)
        assert trace.losses == 0
        assert trace.counters.get("link_drops", 0) == 0
        assert trace.counters["retransmissions"] == 0

    def test_one_pass_reports_in_zone_order(self):
        net = build_topology(self.CFG)
        delivered = []
        deliver = net._deliver_report

        def spy(wire):
            delivered.append((net.sim.now, HostReport.parse(wire).real_ip))
            deliver(wire)

        net._deliver_report = spy
        trace = run_scenario(net, self.EVENTS)
        at_pass = [[z.zone_id for z in self.CFG.zones if ip in z.dhcp_range][0]
                   for now, ip in delivered if now == usec(10) + self.CFG.control_delay_us]
        # z1 re-reports both of its leases, z2 its one, in cfg.zones order.
        assert at_pass == ["z1", "z1", "z2"]
        assert trace.losses == 0


class TestLostReport:
    """Bundled ``handoff_basic`` in SDN mode, with the first report of an
    address in zone2's range lost on the control channel. zone2's tap
    already holds the binding, so it stays silent until the next keepalive
    pass, at 300 s, and the core buffers the client's traffic meanwhile."""

    @staticmethod
    def run(bundled_configs, monkeypatch):
        cfg = bundled_configs["handoff_basic"]
        net = build_topology(cfg.topology)
        zone2 = net.zones["zone2"].span
        deliver = SdnNetwork._deliver_report
        lost = []

        def lossy(self, wire):
            if not lost and int(HostReport.parse(wire).real_ip) in zone2:
                lost.append(wire)
                return
            deliver(self, wire)

        monkeypatch.setattr(SdnNetwork, "_deliver_report", lossy)
        return run_scenario(net, cfg.events), lost

    def test_exactly_one_report_is_lost(self, bundled_configs, monkeypatch):
        _, lost = self.run(bundled_configs, monkeypatch)
        assert len(lost) == 1

    @pytest.mark.xfail(strict=True, reason=(
        "lost report: nothing repairs the missed move before the 300 s "
        "keepalive (ROADMAP item 1; item 19, step 1, is its repair path)"))
    def test_session_survives_a_lost_report(self, bundled_configs, monkeypatch):
        trace, _ = self.run(bundled_configs, monkeypatch)
        assert trace.losses == 0
        assert trace.resets == 0
        assert len(trace.server_observed_sources) == 1
        assert trace.handoffs
        assert all(h.switchover_delay_us is not None for h in trace.handoffs)


class TestRandomScenarios:
    """Randomized mobility scripts: continuity and budget agreement must
    hold for any valid scenario, not just the bundled ones."""

    @given(echo_scripts())
    @settings(max_examples=20, deadline=None)
    def test_any_valid_script_keeps_the_session(self, case):
        cfg, events, payload = case
        net = build_topology(cfg)
        trace = run_scenario(net, events)
        assert trace.resets == 0
        assert trace.losses == 0
        assert len(trace.server_observed_sources) == 1
        moves = [e for e in events if isinstance(e, MoveClient)]
        assert len(trace.handoffs) == len(moves)
        for handoff, move in zip(trace.handoffs, moves):
            budget = sdn_switchover_budget_us(cfg, payload, move.zone_id)
            assert handoff.switchover_delay_us == budget
        assert_every_transmission_accounted(trace.counters)


class TestFlowLifecycleEndToEnd:
    def test_old_flows_survive_then_expire(self):
        cfg = two_zone_cfg(idle_timeout_us=usec(2))
        events = [StartEcho(0, usec(0.05), 100),
                  MoveClient(usec(5), "z2"), Stop(usec(12))]
        net = build_topology(cfg)
        trace = run_scenario(net, events)
        assert trace.losses == 0
        old_range = cfg.zones[0].dhcp_range
        expirations = [e.at_us for e in trace.flow_events
                       if isinstance(e, FlowExpired) and e.rule.match.src_ip
                       and IPv4Address(e.rule.match.src_ip) in old_range]
        assert expirations, "old source translation must eventually expire"
        first_expiry = expirations[0]
        # the rule's last hit is at most one echo round before the detach, so
        # it must survive until roughly detach + idle_timeout and fall in the
        # first expiry sweep after that
        detach = trace.handoffs[0].detach_us
        idle = usec(2)
        assert first_expiry > detach + idle - usec(0.2)
        assert first_expiry <= detach + idle + US_PER_S + usec(0.1)
