#!/usr/bin/env python3
"""The sdnmob benchmark.

    python3 perfbench/run.py --workload bulk_handoff --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. Each operation does what
``sdnmob run --mode both`` does: load the scenario, build both networks,
run the SDN and the tunnel (PMIP) mode, write both CSVs and the summary.
Operations run back to back in one thread (a closed loop) for ``--seconds``.

``--trace 0`` prints the end-to-end metrics, timed with nothing patched.
``--trace 1`` runs one plain operation, one traced operation that records a
span per call into each layer, one under ``tracemalloc``, the size sweeps
and the golden checks, and prints the per-layer metrics. Either way the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where an attempt is one
mode-run and a failure is a mode-run that breaks a paper invariant.

``--record-golden`` rewrites ``perfbench/golden.json`` from the default
seed and the bundled scenarios; use it only for a change that is meant to
alter the simulator's output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ("bulk_handoff", "roaming_echo", "many_clients")
BUNDLED = ("handoff_basic", "handoff_bulk", "ping_pong")
DEFAULT_SEED = 1

MIN_OPERATIONS = 3
# Set-ups cheaper than this are also timed in batches this long.
SETUP_BATCH_S = 0.2

MODES = ("sdn", "pmip")


def _load_program():
    """Import the package from this checkout's ``src``, or exit with 2."""
    if not os.path.isfile(os.path.join(SRC, "sdnmob", "__init__.py")):
        print(f"no sdnmob sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _scenario(name: str, seed: int):
    from workloads import make_workload

    workload = make_workload(name, seed)
    out_dir = os.path.join(OUT, name)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "scenario.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(workload.scenario_text)
    return workload, path, out_dir


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _mismatches(expected: dict, actual: dict) -> int:
    return sum(expected.get(k) != v for k, v in actual.items()) + len(set(expected) - set(actual))


def _failures(result) -> int:
    for mode, found in result.violations.items():
        for why in found:
            print(f"invariant broken in {mode}: {why}", file=sys.stderr)
    return sum(bool(found) for found in result.violations.values())


# -- end to end ------------------------------------------------------------------


def _setup_batch(path: str, population, reps: int) -> float:
    """Mean seconds of ``reps`` back-to-back set-ups."""
    from operation import setup

    gc.collect()
    t0 = time.perf_counter()
    for _ in range(reps):
        setup(path, population)
    return (time.perf_counter() - t0) / reps


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    """Operations back to back until the next one would end after
    ``seconds``. A set-up cheaper than ``SETUP_BATCH_S`` is also timed in a
    batch of set-ups after every operation, so its samples span the run."""
    from operation import digests, run_operation

    workload, path, out_dir = _scenario(name, seed)
    deadline = time.perf_counter() + seconds
    results, walls, batches, reps, first_digests, drift = [], [], [], 0, None, 0
    while True:
        t0 = time.perf_counter()
        gc.collect()
        result = run_operation(name, path, workload.population, out_dir)
        got = digests(result.artifacts)
        if first_digests is None:
            first_digests = got
        elif got != first_digests:
            drift += 1
            print("artifacts differ between repetitions of one input", file=sys.stderr)
        results.append(result)
        result.nets = result.traces = None  # keep one operation's state alive at a time
        if not reps and result.setup_s < SETUP_BATCH_S:
            reps = math.ceil(SETUP_BATCH_S / result.setup_s)
        if reps:
            batches.append(_setup_batch(path, workload.population, reps))
        walls.append(time.perf_counter() - t0)
        if (len(results) >= MIN_OPERATIONS
                and time.perf_counter() + statistics.median(walls) > deadline):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if reps:
        setup_samples = batches
        setup_note = f"median of {len(batches)} batches of {reps} set-ups"
    else:
        setup_samples = [r.setup_s for r in results]
        setup_note = f"median of {len(setup_samples)} set-ups"

    attempted = len(MODES) * len(results)
    failed = sum(_failures(r) for r in results)
    golden_mismatch = drift
    golden = _golden()
    if seed == golden["seed"]:
        golden_mismatch += _mismatches(golden["workloads"][name], first_digests)

    n = len(results)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s", setup_note),
        "sdn_run_s": (statistics.median(r.run_s["sdn"] for r in results), "s", f"median of {n}"),
        "pmip_run_s": (statistics.median(r.run_s["pmip"] for r in results), "s", f"median of {n}"),
        "total_s": (statistics.median(r.total_s for r in results), "s", f"median of {n}"),
        "peak_mem_mb": (peak_mb, "MiB", "peak resident set of this process"),
    }
    print(f"workload {name}, seed {seed}: {n} operations, {attempted} mode-runs, "
          f"{failed} broke an invariant, {golden_mismatch} artifact mismatches")
    for key, (value, unit, note) in metrics.items():
        print(f"  {key:12s} {value:12.6f} {unit:5s} {note}")
    print(f"  {'failed_share':12s} {failed / attempted:12.6f} {'ratio':5s} "
          "(reported as failed/attempted)")
    return {
        "correct": failed == 0 and golden_mismatch == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, u) for k, (v, u, _) in metrics.items()},
    }


# -- per layer -------------------------------------------------------------------


def _bundled_results() -> dict:
    from sdnmob.config import bundled_scenario_path
    from operation import run_operation

    return {scenario: run_operation(scenario, bundled_scenario_path(scenario), (),
                                    os.path.join(OUT, "bundled", scenario))
            for scenario in BUNDLED}


def _layer_metrics(mode: str, runs, agg, counts, result, untraced_run_s) -> dict:
    """Per-layer metrics of one mode, from the spans of ``runs``."""

    def calls(span):
        return sum(agg.get((r, span), (0, 0, 0))[0] for r in runs)

    def total_s(span):
        return sum(agg.get((r, span), (0, 0, 0))[1] for r in runs) / 1e9

    def self_s(span):
        return sum(agg.get((r, span), (0, 0, 0))[2] for r in runs) / 1e9

    def mean_us(span, part=total_s):
        n = calls(span)
        return part(span) / n * 1e6 if n else 0.0

    def count(key):
        return sum(counts[r].get(key, 0) for r in runs)

    def peak(key):
        return max(counts[r].get(key, 0) for r in runs)

    def share(part, whole):
        return part / whole if whole else 0.0

    trace, net = result.traces[mode], result.nets[mode]
    sides = list(net.client.conns.values()) + [c.side for c in net.server.conns.values()]
    transmissions = sum(s.transmissions for s in sides)
    m = {
        "events.count": (count("events.scheduled"), "count"),
        "events.heap_peak": (peak("events.heap_peak"), "count"),
        "events.per_host_s": (count("events.scheduled") / untraced_run_s, "1/s"),
        "events.loop_self_s": (self_s("events.run"), "s"),
        "links.send.calls": (calls("links.send"), "count"),
        "links.send.self_us": (mean_us("links.send", self_s), "us"),
        "links.drops": (trace.counters.get("link_drops", 0), "count"),
        "packet.created": (count("packet.created"), "count"),
        "tap.observe.calls": (calls("tap.observe"), "count"),
        "tap.observe.us": (mean_us("tap.observe"), "us"),
        "tap.report_share": (share(count("tap.reports"), calls("tap.observe")), "ratio"),
        "addr.dhcp_alloc.calls": (calls("addr.dhcp_alloc"), "count"),
        "addr.dhcp_alloc.us": (mean_us("addr.dhcp_alloc"), "us"),
        "transport.transmissions": (transmissions, "count"),
        "transport.retx_share": (
            share(trace.counters.get("retransmissions", 0), transmissions), "ratio"),
        "transport.recv_data.us": (mean_us("transport.recv_data"), "us"),
        "transport.recv_ack.us": (mean_us("transport.recv_ack"), "us"),
        "transport.pump.us": (mean_us("transport.pump"), "us"),
    }
    if mode == "sdn":
        m.update({
            "packet.rewrite.calls": (calls("packet.rewrite"), "count"),
            "packet.rewrite.us": (mean_us("packet.rewrite"), "us"),
            "flow.process.calls": (calls("flow.process"), "count"),
            "flow.process.us": (mean_us("flow.process"), "us"),
            "flow.match.us": (mean_us("flow.match"), "us"),
            "flow.apply.us": (mean_us("flow.apply"), "us"),
            "flow.rules_peak": (peak("flow.rules_peak"), "count"),
            "flow.packet_in_share": (
                share(count("flow.packet_in"), calls("flow.process")), "ratio"),
            "flow.install.calls": (calls("flow.install"), "count"),
            "flow.install.us": (mean_us("flow.install"), "us"),
            "flow.touch.us": (mean_us("flow.touch"), "us"),
            "flow.expire.calls": (calls("flow.expire"), "count"),
            "flow.expire.us": (mean_us("flow.expire"), "us"),
            "flow.drain.us": (mean_us("flow.drain"), "us"),
            "flow.buffer_drops": (trace.counters.get("buffer_drops", 0), "count"),
            "ctl.report.calls": (calls("ctl.report"), "count"),
            "ctl.report.us": (mean_us("ctl.report"), "us"),
            "ctl.install_per_report": (
                share(count("ctl.report_installs"), calls("ctl.report")), "ratio"),
            "ctl.alloc.calls": (calls("ctl.alloc"), "count"),
            "ctl.alloc.us": (mean_us("ctl.alloc"), "us"),
            "ctl.parse.us": (mean_us("ctl.parse"), "us"),
            "ctl.evict.us": (mean_us("ctl.evict"), "us"),
            "tap.tick.us": (mean_us("tap.tick"), "us"),
        })
    return {f"{mode}.{k}": v for k, v in m.items()}


def per_layer(name: str, seed: int) -> dict:
    from operation import digests, run_operation
    from sweeps import run_sweeps
    from tracing import Recorder, calibrate

    workload, path, out_dir = _scenario(name, seed)
    gc.collect()
    plain = run_operation(name, path, workload.population, out_dir)
    plain_digests = digests(plain.artifacts)

    rec = Recorder(name)
    gc.collect()
    rec.install()
    try:
        traced = run_operation(name, path, workload.population, out_dir, tracer=rec)
    finally:
        rec.uninstall()
    traced_digests = digests(traced.artifacts)
    agg = rec.aggregate()
    runs = {phase: [i for i, (_, p, _) in enumerate(rec.runs) if p == phase]
            for phase in ("setup", "sdn", "pmip", "artifacts")}
    all_runs = range(len(rec.runs))

    def spent_s(span, rids=all_runs):
        return sum(agg.get((r, span), (0, 0, 0))[1] for r in rids) / 1e9

    gc.collect()
    tracemalloc.start()
    run_operation(name, path, workload.population, out_dir)
    tracemalloc_peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()

    bundled = _bundled_results()
    golden = _golden()
    mismatch = int(plain_digests != traced_digests)
    for scenario, result in bundled.items():
        mismatch += _mismatches(golden["bundled"][scenario], digests(result.artifacts))
    if seed == golden["seed"]:
        mismatch += _mismatches(golden["workloads"][name], plain_digests)
    checked = [plain, traced, *bundled.values()]
    attempted = len(MODES) * len(checked)
    failed = sum(_failures(r) for r in checked)

    metrics = {}
    for mode, rids in (("sdn", runs["setup"] + runs["sdn"]), ("pmip", runs["pmip"])):
        metrics.update(_layer_metrics(mode, rids, agg, rec.counts, traced, plain.run_s[mode]))
    setup_s = spent_s("setup")
    metrics.update({
        "config.load.s": (spent_s("config.load"), "s"),
        "topology.build.s": (spent_s("topology.build"), "s"),
        "topology.finalize.s": (spent_s("topology.finalize"), "s"),
        "setup.populate.s": (spent_s("setup.populate"), "s"),
        "setup.alloc_share": (spent_s("ctl.alloc", runs["setup"]) / setup_s, "ratio"),
        "metrics.csv.s": (spent_s("metrics.csv"), "s"),
        "metrics.compare.s": (spent_s("metrics.compare"), "s"),
        "mem.tracemalloc_peak_mb": (tracemalloc_peak, "MiB"),
        "check.golden_mismatch": (mismatch, "count"),
        "check.failed_share": (failed / attempted, "ratio"),
        "trace.overhead_share": (traced.total_s / plain.total_s - 1, "ratio"),
        "trace.spans": (len(rec.spans) // 3, "count"),
        "trace.span_cost_us": (calibrate(), "us"),
    })
    metrics.update({k: (v, "us") for k, v in run_sweeps().items()})
    rec.write(os.path.join(OUT, "spans", name))

    print(f"workload {name}, seed {seed}: traced operation of {len(rec.spans) // 3} spans, "
          f"{attempted} mode-runs checked, {failed} broke an invariant, "
          f"{mismatch} artifact mismatches")
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:16.6f} {unit}")
    return {
        "correct": failed == 0 and mismatch == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, u) for k, (v, u) in metrics.items()},
    }


def record_golden() -> None:
    from operation import digests, run_operation

    golden = {"seed": DEFAULT_SEED, "workloads": {}, "bundled": {}}
    for name in WORKLOADS:
        workload, path, out_dir = _scenario(name, DEFAULT_SEED)
        result = run_operation(name, path, workload.population, out_dir)
        golden["workloads"][name] = digests(result.artifacts)
    for scenario, result in _bundled_results().items():
        golden["bundled"][scenario] = digests(result.artifacts)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    _load_program()
    if args.record_golden:
        record_golden()
        return 0
    if args.trace:
        report = per_layer(args.workload, args.seed)
    else:
        report = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
