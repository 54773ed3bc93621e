"""Shared fixtures: bundled scenarios are simulated once per session."""

import pytest

from sdnmob.config import bundled_scenario_path, load_config
from sdnmob.sim import Mode, build_topology, run_pmip_baseline, run_scenario

BUNDLED = ("handoff_basic", "handoff_bulk", "ping_pong")


@pytest.fixture(scope="session")
def bundled_configs():
    return {name: load_config(bundled_scenario_path(name), mode="both")
            for name in BUNDLED}


@pytest.fixture(scope="session")
def bundled_runs(bundled_configs):
    """{(scenario, mode): (network, MetricsTrace)} for every bundled scenario."""
    out = {}
    for name, cfg in bundled_configs.items():
        net = build_topology(cfg.topology)
        out[(name, "sdn")] = net, run_scenario(net, cfg.events)
        net_p = build_topology(cfg.topology, Mode.PMIP, cfg.tunnel)
        out[(name, "pmip")] = net_p, run_pmip_baseline(net_p, cfg.events, cfg.tunnel)
    return out


@pytest.fixture(scope="session")
def traces(bundled_runs):
    """{(scenario, mode): MetricsTrace} for every bundled scenario."""
    return {key: trace for key, (_, trace) in bundled_runs.items()}
