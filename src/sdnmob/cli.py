"""Scenario runner front end.

``sdnmob run <config> [--mode sdn|pmip|both] [--seed N] [--out DIR]``
executes the requested runs, writes one metrics CSV per run plus a
``summary.txt``, and exits 0 only when every run completed and every
artifact exists. A run that raises prints its traceback and
``run failed: ...`` to standard error and exits 1. The output directory can
also come from the ``SDNMOB_OUTPUT_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import Dict, List, Optional

from .config import MODES, ConfigError, RunConfig, bundled_scenario_path, load_config
from .sim.metrics import (
    MetricsTrace,
    compare_runs,
    trace_summary_lines,
    write_csv,
)
from .sim.runner import run_scenario
from .sim.topology import Mode, build_topology

OUTPUT_DIR_ENV = "SDNMOB_OUTPUT_DIR"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def run_config(config: RunConfig, scenario_name: str) -> int:
    """Execute the configured mode(s) and write all artifacts."""
    os.makedirs(config.output_dir, exist_ok=True)
    modes = ["sdn", "pmip"] if config.mode == "both" else [config.mode]
    traces: Dict[str, MetricsTrace] = {}
    artifacts: List[str] = []
    for mode_name in modes:
        net = build_topology(config.topology, Mode(mode_name), config.tunnel)
        traces[mode_name] = run_scenario(net, config.events)
        csv_path = os.path.join(config.output_dir, f"metrics_{mode_name}.csv")
        write_csv(traces[mode_name], csv_path)
        artifacts.append(csv_path)

    lines = [
        f"scenario: {scenario_name}",
        f"mode: {config.mode}",
        f"seed: {config.topology.seed}",
    ]
    for mode_name in modes:
        lines.extend(trace_summary_lines(traces[mode_name], mode_name))
    if len(modes) == 2:
        comparison = compare_runs(traces["sdn"], traces["pmip"])
        for sdn_d, pmip_d, delta in comparison.switchover_pairs:
            lines.append(f"delta.switchover_delay_s: {delta:.6f}")
        steady_sdn, steady_pmip = comparison.steady_goodput_bps
        lines.append(f"delta.steady_throughput_bps: {steady_sdn - steady_pmip:.1f}")
        if comparison.goodput_ratio_b_over_a is not None:
            lines.append(
                f"throughput_ratio_pmip_over_sdn: {comparison.goodput_ratio_b_over_a:.6f}"
            )
    summary_path = os.path.join(config.output_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    artifacts.append(summary_path)

    for path in artifacts:
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            print(f"missing or empty artifact: {path}", file=sys.stderr)
            return EXIT_RUNTIME
    return EXIT_OK


def _resolve_config(arg: str) -> Optional[str]:
    if os.path.isfile(arg):
        return arg
    return bundled_scenario_path(arg)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdnmob",
        description="Packet-level comparison of SDN address translation and "
                    "tunnel-based L3 mobility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a scenario")
    run_parser.add_argument(
        "config",
        help="scenario file, or a bundled scenario name "
             "(handoff_basic, handoff_bulk, ping_pong)",
    )
    run_parser.add_argument("--mode", choices=MODES, default="both")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the scenario's generator seed")
    run_parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    path = _resolve_config(args.config)
    if path is None:
        print(f"no such scenario: {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV) or "out"
    try:
        config = load_config(path, mode=args.mode, output_dir=out_dir,
                             seed_override=args.seed)
    except (ConfigError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_config(config, scenario_name=args.config)
    except Exception as exc:  # noqa: BLE001 - surface anything with context
        traceback.print_exc()
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
