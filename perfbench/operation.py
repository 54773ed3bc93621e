"""One user-visible operation, as ``sdnmob run --mode both`` performs it:
load the scenario, build both networks, run both modes, write both CSVs
and the summary. Each phase is timed on its own, and every mode-run is
checked against the paper's invariants.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

from sdnmob.config import load_config
from sdnmob.sim import (
    Mode,
    MoveClient,
    StartBulkTransfer,
    StartEcho,
    build_topology,
    compare_runs,
    pmip_switchover_budget_us,
    run_pmip_baseline,
    run_scenario,
    sdn_switchover_budget_us,
    write_csv,
)
from sdnmob.sim.metrics import trace_summary_lines

from workloads import populate

MODES = ("sdn", "pmip")


@dataclass
class Setup:
    config: object
    nets: Dict[str, object]


@dataclass
class Result:
    """Host seconds per phase of one operation, plus its checked outputs."""

    setup_s: float
    run_s: Dict[str, float]
    total_s: float
    nets: Dict[str, object]
    traces: Dict[str, object]
    artifacts: Dict[str, str]  # name -> path
    violations: Dict[str, List[str]] = field(default_factory=dict)


class Untraced:
    """Stands in for ``tracing.Recorder`` when nothing is recorded."""

    def phase(self, phase: str, rep: int) -> None:
        pass

    def span(self, name: str):
        return contextlib.nullcontext()


UNTRACED = Untraced()


def setup(scenario_path: str, population, tracer=UNTRACED) -> Setup:
    with tracer.span("setup"):
        with tracer.span("config.load"):
            config = load_config(scenario_path, mode="both")
        with tracer.span("topology.build"):
            sdn = build_topology(config.topology, Mode.SDN)
        with tracer.span("setup.populate"):
            populate(sdn, population)
        with tracer.span("topology.build"):
            pmip = build_topology(config.topology, Mode.PMIP, config.tunnel)
    return Setup(config, {"sdn": sdn, "pmip": pmip})


def summary_lines(name: str, config, traces, comparison) -> List[str]:
    """The summary.txt lines the CLI writes for ``--mode both``."""
    lines = [f"scenario: {name}", "mode: both", f"seed: {config.topology.seed}"]
    for mode in MODES:
        lines.extend(trace_summary_lines(traces[mode], mode))
    for _sdn_d, _pmip_d, delta in comparison.switchover_pairs:
        lines.append(f"delta.switchover_delay_s: {delta:.6f}")
    steady_sdn, steady_pmip = comparison.steady_goodput_bps
    lines.append(f"delta.steady_throughput_bps: {steady_sdn - steady_pmip:.1f}")
    if comparison.goodput_ratio_b_over_a is not None:
        lines.append(
            f"throughput_ratio_pmip_over_sdn: {comparison.goodput_ratio_b_over_a:.6f}")
    return lines


def run_operation(name: str, scenario_path: str, population, out_dir: str,
                  tracer=UNTRACED, rep: int = 0) -> Result:
    tracer.phase("setup", rep)
    t0 = time.perf_counter()
    s = setup(scenario_path, population, tracer)
    t1 = time.perf_counter()
    tracer.phase("sdn", rep)
    with tracer.span("scenario.run"):
        traces = {"sdn": run_scenario(s.nets["sdn"], s.config.events)}
    t2 = time.perf_counter()
    tracer.phase("pmip", rep)
    with tracer.span("scenario.run"):
        traces["pmip"] = run_pmip_baseline(s.nets["pmip"], s.config.events, s.config.tunnel)
    t3 = time.perf_counter()
    tracer.phase("artifacts", rep)
    artifacts = write_artifacts(name, s.config, traces, out_dir, tracer)
    t4 = time.perf_counter()
    result = Result(t1 - t0, {"sdn": t2 - t1, "pmip": t3 - t2}, t4 - t0,
                    s.nets, traces, artifacts)
    result.violations = {m: violations(m, s.config, traces[m], artifacts) for m in MODES}
    return result


def write_artifacts(name: str, config, traces, out_dir: str,
                    tracer=UNTRACED) -> Dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for mode in MODES:
        paths[f"metrics_{mode}.csv"] = os.path.join(out_dir, f"metrics_{mode}.csv")
        with tracer.span("metrics.csv"):
            write_csv(traces[mode], paths[f"metrics_{mode}.csv"])
    with tracer.span("metrics.compare"):
        comparison = compare_runs(traces["sdn"], traces["pmip"])
    paths["summary.txt"] = os.path.join(out_dir, "summary.txt")
    with tracer.span("metrics.summary"):
        with open(paths["summary.txt"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(summary_lines(name, config, traces, comparison)) + "\n")
    return paths


def violations(mode: str, config, trace, artifacts: Dict[str, str]) -> List[str]:
    """Paper invariants one mode-run breaks; empty when it holds them all."""
    found = []
    if trace.resets > 0:
        found.append(f"{trace.resets} resets")
    if trace.losses > 0:
        found.append(f"{trace.losses} losses")
    if len(trace.server_observed_sources) > 1:
        found.append(f"server saw {sorted(trace.server_observed_sources)}")
    payload = next(e.payload_len for e in config.events
                   if isinstance(e, (StartEcho, StartBulkTransfer)))
    moves = [e for e in config.events if isinstance(e, MoveClient)]
    if len(trace.handoffs) != len(moves):
        found.append(f"{len(trace.handoffs)} handoffs for {len(moves)} moves")
    for move, handoff in zip(moves, trace.handoffs):
        if mode == "sdn":
            budget = sdn_switchover_budget_us(config.topology, payload, move.zone_id)
        else:
            budget = pmip_switchover_budget_us(config.topology, config.tunnel,
                                               payload, move.zone_id)
        if handoff.switchover_delay_us != budget:
            found.append(f"switch-over at {move.at_us} us took "
                         f"{handoff.switchover_delay_us} us, budget {budget} us")
    for artifact in (f"metrics_{mode}.csv", "summary.txt"):
        path = artifacts.get(artifact)
        if path is None or not os.path.isfile(path) or os.path.getsize(path) == 0:
            found.append(f"missing or empty artifact {artifact}")
    return found


def digests(artifacts: Dict[str, str]) -> Dict[str, str]:
    out = {}
    for name, path in sorted(artifacts.items()):
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
