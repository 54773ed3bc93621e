"""Scenario execution and the analytic switch-over budgets.

A scenario is a time-ordered event list: start traffic, move the client
between zones, stop. ``run_scenario`` schedules the client's first attach
and the events, hands each move to ``Network.move_client``, runs the
simulator until no event is pending (or a runaway horizon passes) and
returns the metrics trace; ``run_pmip_baseline`` is the same loop over a
tunnel-mode network. Each traffic event opens one connection. An echo
stream ends itself: it schedules a tick only while that tick falls before
the first stop at or after its start, so a stop is never scheduled.

The budget functions predict the switch-over delay of a handoff from
configuration constants alone (no event loop): they are the independent
check the simulator must reproduce to the microsecond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..packet import INNER_HEADER_BYTES
from ..units import US_PER_S
from .links import serialization_us
from .metrics import MetricsTrace
from .topology import Mode, Network, ScenarioError, TopologyConfig, TunnelConfig

# Runs are cut off this long after the last scripted event if transports
# cannot drain; leftovers then show up as losses instead of a hang.
RUNAWAY_GRACE_US = 120 * US_PER_S


@dataclass(frozen=True)
class MoveClient:
    at_us: int
    zone_id: str


@dataclass(frozen=True)
class StartEcho:
    at_us: int
    interval_us: int
    payload_len: int


@dataclass(frozen=True)
class StartBulkTransfer:
    at_us: int
    total_bytes: int
    payload_len: int


@dataclass(frozen=True)
class Stop:
    at_us: int


ScenarioEvent = Union[MoveClient, StartEcho, StartBulkTransfer, Stop]


def events_fingerprint(events: List[ScenarioEvent]) -> Tuple[str, ...]:
    return tuple(repr(e) for e in events)


def validate_events(cfg: TopologyConfig, events: List[ScenarioEvent],
                    tunnel: Optional[TunnelConfig] = None) -> None:
    """Static checks: ordering, zone references, traffic termination. With
    ``tunnel`` the events must also suit a tunnel-mode run, where address
    acquisition waits out the binding update first."""
    last_at = 0
    for i, e in enumerate(events):
        if e.at_us < 0:
            raise ScenarioError(f"event before t=0: {e}", i)
        if e.at_us < last_at:
            raise ScenarioError(f"events not sorted by time at {e}", i)
        last_at = e.at_us
    zones = {z.zone_id: z for z in cfg.zones}
    bud = 0 if tunnel is None else tunnel.resolved_binding_delay(cfg.control_delay_us)
    cur_zone = cfg.zones[0].zone_id
    prev_move: Optional[MoveClient] = None
    for i, e in enumerate(events):
        if isinstance(e, MoveClient):
            if e.zone_id not in zones:
                raise ScenarioError(f"unknown zone {e.zone_id!r}", i)
            if e.zone_id == cur_zone:
                raise ScenarioError(f"move to current zone {e.zone_id!r} at t={e.at_us}", i)
            if prev_move is None:
                if e.at_us <= bud + cfg.zones[0].dhcp_latency:
                    raise ScenarioError("first move overlaps initial attach", i)
            else:
                gap = e.at_us - prev_move.at_us
                if gap <= bud + zones[prev_move.zone_id].dhcp_latency:
                    raise ScenarioError(
                        f"moves at t={prev_move.at_us} and t={e.at_us} overlap: "
                        "only one mobility event may be pending", i
                    )
            cur_zone = e.zone_id
            prev_move = e
        elif isinstance(e, StartEcho):
            if e.interval_us <= 0 or e.payload_len <= 0:
                raise ScenarioError(f"bad echo parameters: {e}", i)
            if not any(isinstance(s, Stop) and s.at_us >= e.at_us for s in events):
                raise ScenarioError("echo traffic needs a later stop event", i)
            # A stop ends all echo traffic for good, so an echo that starts
            # after one (or at its instant, listed behind it) would never send.
            if any(isinstance(s, Stop) for s in events[:i]):
                raise ScenarioError("echo traffic starts after a stop event", i)
        elif isinstance(e, StartBulkTransfer):
            if e.payload_len <= 0 or e.total_bytes < e.payload_len:
                raise ScenarioError(f"bad bulk parameters: {e}", i)


def _execute(net: Network, event: ScenarioEvent, events: List[ScenarioEvent]) -> None:
    if isinstance(event, MoveClient):
        net.move_client(event.zone_id)
    elif isinstance(event, StartEcho):
        _, side = net.new_client_conn(echo=True)
        sim = net.sim
        # validate_events guarantees a stop at or after the start.
        stop_us = next(e.at_us for e in events
                       if isinstance(e, Stop) and e.at_us >= event.at_us)

        def tick() -> None:
            side.submit(event.payload_len)
            if sim.now + event.interval_us < stop_us:
                sim.schedule(event.interval_us, tick)

        tick()
    elif isinstance(event, StartBulkTransfer):
        _, side = net.new_client_conn(echo=False)
        side.submit_many(event.payload_len, event.total_bytes // event.payload_len)


def _horizon_us(cfg: TopologyConfig, events: List[ScenarioEvent]) -> int:
    """Cutoff for runs that cannot drain: last scripted event or the
    bandwidth-limited end of the slowest bulk transfer (doubled for
    overhead and outages), plus a fixed grace period."""
    last = max((e.at_us for e in events), default=0)
    for e in events:
        if isinstance(e, StartBulkTransfer):
            duration = 2 * e.total_bytes * 8 * US_PER_S // cfg.link_bandwidth_bps
            last = max(last, e.at_us + duration)
    return last + RUNAWAY_GRACE_US


def _handoff_payload(events: List[ScenarioEvent]) -> Optional[int]:
    """Payload of the traffic stream whose packet times the switch-over:
    the earliest-started stream (lowest connection id flushes first)."""
    for e in events:
        if isinstance(e, (StartEcho, StartBulkTransfer)):
            return e.payload_len
    return None


def run_scenario(net: Network, events: List[ScenarioEvent]) -> MetricsTrace:
    """Run the event list until no event is pending and collect the trace.

    The trace is a pure function of (topology config, events): identical
    inputs give bit-identical CSV artifacts.
    """
    if net.ran:
        raise ScenarioError("network already ran a scenario; build a fresh one")
    validate_events(net.cfg, events, net.tunnel if net.mode is Mode.PMIP else None)
    net.ran = True
    net.sim.schedule_at(0, net.move_client, net.cfg.zones[0].zone_id)
    for event in events:
        if event.__class__ is not Stop:
            net.sim.schedule_at(event.at_us, _execute, net, event, events)
    net.sim.run(until=_horizon_us(net.cfg, events))

    expected = None
    payload = _handoff_payload(events)
    first_move = next((e for e in events if isinstance(e, MoveClient)), None)
    if first_move is not None and payload is not None:
        if net.mode is Mode.SDN:
            expected = sdn_switchover_budget_us(net.cfg, payload, first_move.zone_id)
        else:
            expected = pmip_switchover_budget_us(
                net.cfg, net.tunnel, payload, first_move.zone_id
            )
    return net.finalize(events_fingerprint(events), expected)


def run_pmip_baseline(net: Network, events: List[ScenarioEvent],
                      tunnel: TunnelConfig) -> MetricsTrace:
    """Run the tunneling baseline over the same topology and events."""
    if net.mode is not Mode.PMIP:
        raise ScenarioError("baseline runs need a network built in pmip mode")
    if net.tunnel != tunnel:
        raise ScenarioError("tunnel parameters differ from the built network")
    return run_scenario(net, events)


# -- analytic switch-over budgets ---------------------------------------------
#
# Post-handoff timeline (times relative to detachment), assuming the
# transport has traffic queued through the outage (true whenever the send
# interval is shorter than address acquisition, and always for bulk):
#   dhcp_latency        address acquired on the new link (tunnel mode first
#                       completes its binding update, serially)
#   + ser(solicit)      the post-configuration solicitation precedes the
#                       first data packet on the FIFO access link
#   + prop              solicitation reaches the distribution router, where
#                       the tap observes it and reports
# SDN: the first data packet then races the control path to the core:
#   + max(2*control_delay, 2*ser(data) + prop)
#   + ser(data) + prop  core -> server
# Tunnel mode: no race, straight pipeline with encapsulation on the trunk:
#   + ser(data) + prop + ser(data+encap) + prop + ser(data) + prop
# preceded by the binding update delay.


def _ser(cfg: TopologyConfig, wire_bytes: int) -> int:
    return serialization_us(wire_bytes, cfg.link_bandwidth_bps)


def sdn_switchover_budget_us(cfg: TopologyConfig, payload_len: int,
                             zone_id: str) -> int:
    zone = cfg.zone(zone_id)
    prop = cfg.link_delay_us
    ser_rs = _ser(cfg, INNER_HEADER_BYTES)
    ser_data = _ser(cfg, payload_len + INNER_HEADER_BYTES)
    control_path = 2 * cfg.control_delay_us
    data_path_to_core = 2 * ser_data + prop
    return (
        zone.dhcp_latency
        + ser_rs + prop
        + max(control_path, data_path_to_core)
        + ser_data + prop
    )


def pmip_switchover_budget_us(cfg: TopologyConfig, tunnel: TunnelConfig,
                              payload_len: int, zone_id: str) -> int:
    zone = cfg.zone(zone_id)
    prop = cfg.link_delay_us
    ser_rs = _ser(cfg, INNER_HEADER_BYTES)
    ser_data = _ser(cfg, payload_len + INNER_HEADER_BYTES)
    ser_tunnel = _ser(cfg, payload_len + INNER_HEADER_BYTES
                      + tunnel.encap_overhead_bytes)
    bud = tunnel.resolved_binding_delay(cfg.control_delay_us)
    return (
        bud
        + zone.dhcp_latency
        + ser_rs + ser_data + prop
        + ser_tunnel + prop
        + ser_data + prop
    )
