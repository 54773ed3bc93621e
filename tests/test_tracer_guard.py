"""The benchmark tracer (``perfbench/tracing.py``) must keep seeing the
hot path: every event passes through ``Simulator.schedule_at`` and every
packet through ``Packet.__init__``, so its counts stay exact, and every
admission through ``handle_host_report``, the module global
``allocate_vpip`` and ``FlowTable.install``.

The tracer module is loaded from its file and only read; nothing under
``perfbench/`` is written.
"""

import importlib.util
from pathlib import Path

from campus import campus_network, campus_population, register
from sdnmob.config import bundled_scenario_path, load_config
from sdnmob.packet import Packet
from sdnmob.sim import build_topology, run_scenario
from sdnmob.sim.events import Simulator

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_event_and_packet_then_restores():
    tracing = load_tracing()
    cfg = load_config(bundled_scenario_path("handoff_basic"), mode="sdn")
    rec = tracing.Recorder("handoff_basic")
    rec.install()
    try:
        patched = list(rec._undo)
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in patched)
        assert (Simulator, "schedule_at") in {(o, a) for o, a, _ in patched}
        assert (Packet, "__init__") in {(o, a) for o, a, _ in patched}
        rec.phase("sdn", 0)
        net = build_topology(cfg.topology)
        trace = run_scenario(net, cfg.events)
    finally:
        rec.uninstall()
    counts = rec.counts[-1]
    assert trace.losses == 0
    assert counts["events.scheduled"] == net.sim._seq
    assert counts["packet.created"] > 0
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in patched)


def test_tracer_sees_every_admission():
    """Each new client is one ``handle_host_report`` span, one
    ``allocate_vpip`` span inside it and two ``FlowTable.install`` spans,
    so the ``ctl.*`` and ``flow.install.*`` metrics keep measuring
    admission."""
    tracing = load_tracing()
    clients = 50
    net, population = campus_network(), campus_population(clients)
    rec = tracing.Recorder("campus")
    rec.install()
    try:
        rec.phase("sdn", 0)
        register(net, population)
    finally:
        rec.uninstall()
    spans = {name: calls for (_, name), (calls, _, _) in rec.aggregate().items()}
    assert len(net.controller.mst) == clients
    assert spans.get("ctl.report", 0) == clients
    assert spans.get("ctl.alloc", 0) == clients
    assert spans.get("flow.install", 0) == 2 * clients
    assert rec.counts[-1]["ctl.report_installs"] == clients
