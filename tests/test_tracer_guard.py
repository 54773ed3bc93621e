"""The benchmark tracer (``perfbench/tracing.py``) must keep seeing the
hot path: every event passes through ``Simulator.schedule_at`` and every
packet through ``Packet.__init__``, so its counts stay exact, and every
admission through ``handle_host_report``, the module global
``allocate_vpip`` and ``FlowTable.install``. The benchmark's per-layer read
(``perfbench/run.py``'s ``_layer_metrics``) must keep finding what it
reads on the networks and traces of a run.

The benchmark modules are loaded from their files and only read; nothing
under ``perfbench/`` is written.
"""

import importlib.util
import json
from pathlib import Path

from campus import campus_network, campus_population, register
from test_golden import load_perfbench
from sdnmob.config import bundled_scenario_path, load_config
from sdnmob.packet import Packet
from sdnmob.sim import Mode, build_topology, run_scenario
from sdnmob.sim.events import Simulator
from sdnmob.sim.links import Link

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PER_LAYER = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]


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


def test_every_link_sends_through_link_send():
    """The tracer patches ``Link.send`` to span every hop, so every link of
    a network is a plain ``Link`` (no subclass, whose ``send`` could
    differ), in both modes."""
    cfg = load_config(bundled_scenario_path("handoff_basic"), mode="both")
    for mode in Mode:
        net = build_topology(cfg.topology, mode, cfg.tunnel)
        assert net.links and all(type(link) is Link for link in net.links)


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


def test_layer_metrics_read_a_traced_operation(tmp_path, monkeypatch):
    """One traced benchmark operation of bundled ``handoff_basic``: every
    per-layer metric the benchmark declares for each mode is present, and
    the transport and buffer reads agree with the run itself."""
    load_perfbench("workloads", monkeypatch)
    operation = load_perfbench("operation", monkeypatch)
    tracing = load_perfbench("tracing", monkeypatch)
    run = load_perfbench("run", monkeypatch)
    rec = tracing.Recorder("handoff_basic")
    rec.install()
    try:
        result = operation.run_operation("handoff_basic",
                                         bundled_scenario_path("handoff_basic"), (),
                                         str(tmp_path), tracer=rec)
    finally:
        rec.uninstall()
    agg = rec.aggregate()
    for mode, phases in (("sdn", ("setup", "sdn")), ("pmip", ("pmip",))):
        runs = [i for i, (_, phase, _) in enumerate(rec.runs) if phase in phases]
        metrics = run._layer_metrics(mode, runs, agg, rec.counts, result,
                                     result.run_s[mode])
        assert {name for name in PER_LAYER if name.startswith(f"{mode}.")} <= set(metrics)
        net, trace = result.nets[mode], result.traces[mode]
        sides = [*net.client.conns.values(),
                 *(net.server.conns[conn_id].side for conn_id in net.client.conns)]
        transmissions = metrics[f"{mode}.transport.transmissions"][0]
        assert transmissions == sum(side.transmissions for side in sides)
        # Every other host transmission is a DISCOVER or a solicitation,
        # consumed at a gateway.
        assert transmissions == trace.counters["transmissions"] - trace.counters["consumed"]
        if mode == "sdn":
            assert metrics["sdn.flow.buffer_drops"][0] == trace.counters["buffer_drops"]
