"""Span tracing of the sdnmob layers from outside the package.

``Recorder.install`` wraps public callables in place (class methods and the
module globals the package itself calls through) and ``uninstall`` puts the
originals back, so no file under ``src/`` changes and untraced runs pay
nothing. A wrapper takes two clock readings and appends one
``(name, start_ns, end_ns)`` triple to a flat array when the call returns:
spans therefore arrive children-first, and parents are rebuilt afterwards
in one pass, which keeps the per-call cost small. The run id of a span
(workload, phase, repetition) comes from the phase that was open when it
ended; phases never overlap.

Self time is a span's duration minus the part its child spans cover. The
tracer's own per-call cost that falls outside a child's interval is
counted in the parent's self time; ``calibrate`` measures it.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from sdnmob import addressing, controller, flow_engine, packet, tap_server
from sdnmob.sim import events, links, topology, transport

_clock = time.perf_counter_ns


class Recorder:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans = array("q")  # name id, start ns, end ns; one triple a span
        # (first span index, run id): the run a span belongs to starts at
        # the last mark at or below its index.
        self.marks: List[Tuple[int, int]] = []
        self.runs: List[Tuple[str, str, int]] = []
        self.counts: List[Dict[str, int]] = []
        self._cur: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def phase(self, phase: str, rep: int) -> None:
        """Open run (workload, phase, rep); it lasts until the next call."""
        self.marks.append((len(self.spans) // 3, len(self.runs)))
        self.runs.append((self.workload, phase, rep))
        self._cur = {}
        self.counts.append(self._cur)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        nid = self.name_id(name)
        t0 = _clock()
        try:
            yield
        finally:
            self.spans.extend((nid, t0, _clock()))

    def count(self, key: str) -> None:
        self._cur[key] = self._cur.get(key, 0) + 1

    def high_water(self, key: str, value: int) -> None:
        if value > self._cur.get(key, -1):
            self._cur[key] = value

    def spanned(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record one span per call; ``after(args, result)``
        runs outside the span."""
        nid = self.name_id(name)
        extend = self.spans.extend

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                extend((nid, t0, _clock()))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, fn: Callable, after: Callable) -> Callable:
        """``fn`` wrapped to call ``after(args, result)`` with no span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr]
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        """Wrap every traced callable; ``uninstall`` restores them."""
        def span(name, after=None):
            return lambda fn: self.spanned(name, fn, after)

        def count(after):
            return lambda fn: self.counted(fn, after)

        def scheduled(args, _result):
            self.count("events.scheduled")
            self.high_water("events.heap_peak", args[0].pending())

        def installed(args, _result):
            self.high_water("flow.rules_peak", len(args[0]))

        def classified(_args, result):
            if isinstance(result, flow_engine.PacketIn):
                self.count("flow.packet_in")

        def reported(_args, result):
            if any(isinstance(a, controller.InstallFlows) for a in result):
                self.count("ctl.report_installs")

        def observed(_args, result):
            if result is not None:
                self.count("tap.reports")

        targets = [
            (events.Simulator, "run", span("events.run")),
            (events.Simulator, "schedule_at", count(scheduled)),
            (links.Link, "send", span("links.send")),
            (packet.Packet, "__init__", count(lambda a, r: self.count("packet.created"))),
            (packet.Packet, "with_src", span("packet.rewrite")),
            (packet.Packet, "with_dst", span("packet.rewrite")),
            (flow_engine.SdnSwitch, "process_packet", span("flow.process", classified)),
            (flow_engine.SdnSwitch, "drain", span("flow.drain")),
            (flow_engine.FlowTable, "match_packet", span("flow.match")),
            (flow_engine.FlowTable, "install", span("flow.install", installed)),
            (flow_engine.FlowTable, "touch", span("flow.touch")),
            (flow_engine.FlowTable, "expire", span("flow.expire")),
            (flow_engine, "apply_actions", span("flow.apply")),
            (controller.MobilityController, "handle_host_report", span("ctl.report", reported)),
            (controller.MobilityController, "evict_stale", span("ctl.evict")),
            (controller, "allocate_vpip", span("ctl.alloc")),
            (controller.HostReport, "parse", span("ctl.parse")),
            (tap_server.TapServer, "observe_packet", span("tap.observe", observed)),
            (tap_server.TapServer, "tick", span("tap.tick")),
            (addressing.AddressPool, "allocate", span("addr.dhcp_alloc")),
            (transport.TransportSide, "receive_data", span("transport.recv_data")),
            (transport.TransportSide, "receive_ack", span("transport.recv_ack")),
            (transport.TransportSide, "pump", span("transport.pump")),
            (topology.Network, "finalize", span("topology.finalize")),
        ]
        for owner, attr, make in targets:
            self._patch(owner, attr, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def parents(self) -> array:
        """Parent span index of every span, -1 at top level.

        Spans are stored as they end, so when a span ends every span still
        waiting for a parent that started after it is one of its children.
        """
        spans = self.spans
        parent = array("i", [-1]) * (len(spans) // 3)
        waiting: List[int] = []
        for i in range(len(parent)):
            t0 = spans[3 * i + 1]
            while waiting and spans[3 * waiting[-1] + 1] >= t0:
                parent[waiting.pop()] = i
            waiting.append(i)
        return parent

    def run_of(self) -> array:
        n = len(self.spans) // 3
        run = array("i", [-1]) * n
        bounds = self.marks + [(n, -1)]
        for (lo, rid), (hi, _) in zip(bounds, bounds[1:]):
            run[lo:hi] = array("i", [rid]) * (hi - lo)
        return run

    def aggregate(self) -> Dict[Tuple[int, str], List[int]]:
        """(run id, span name) -> [calls, total ns, self ns]."""
        spans, parent, run = self.spans, self.parents(), self.run_of()
        child = [0] * len(parent)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += spans[3 * i + 2] - spans[3 * i + 1]
        out: Dict[Tuple[int, str], List[int]] = {}
        for i in range(len(parent)):
            nid, t0, t1 = spans[3 * i: 3 * i + 3]
            key = (run[i], self.names[nid])
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [0, 0, 0]
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += t1 - t0 - child[i]
        return out

    def write(self, stem: str) -> None:
        """Spans as ``<stem>.bin`` (little-endian int64 name id, start ns,
        end ns, then int32 parent per span) plus ``<stem>.json`` (names,
        runs, run marks and counts)."""
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        with open(stem + ".bin", "wb") as fh:
            self.spans.tofile(fh)
            self.parents().tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.spans) // 3, "names": self.names,
                       "runs": self.runs, "marks": self.marks,
                       "counts": self.counts}, fh)


def calibrate(calls: int = 200_000) -> float:
    """Tracer cost per wrapped call in microseconds: a wrapped no-op
    against the bare one, best of three."""
    rec = Recorder("calibration")
    rec.phase("calibration", 0)

    def noop():
        return None

    wrapped = rec.spanned("noop", noop)
    best = []
    for fn in (noop, wrapped):
        times = []
        for _ in range(3):
            t0 = _clock()
            for _ in range(calls):
                fn()
            times.append(_clock() - t0)
        best.append(min(times))
    return max(best[1] - best[0], 0) / calls / 1000
