"""Metamorphic relations: a run checked against a transformed run of itself.

Neither run has a known answer, so a relation holds for hypothesis-drawn
scripts as well as for the bundled scenarios.

Address relabeling: every zone prefix and the vpIP pool move to other bases,
and each address keeps its offset. Nothing may change but the addresses a
run prints. Both metrics CSVs are byte-identical, and ``summary.txt`` is
equal once each moved address is mapped back to its old base. Any code path
whose outcome depends on an address value breaks the relation. Examples are
ordering work by address, or a server that takes its peer from anything
but the data it receives.
"""

import dataclasses
import re
import tempfile
from ipaddress import IPv4Address, IPv4Network
from pathlib import Path

import pytest
from hypothesis import given, settings

from sdnmob.cli import run_config
from sdnmob.config import RunConfig
from sdnmob.sim import TopologyConfig, TunnelConfig

from scripts import echo_scripts

ARTIFACTS = ("metrics_sdn.csv", "metrics_pmip.csv", "summary.txt")

# The new bases reverse the order of the old ones, so a path that sorts or
# compares addresses sees a different order after the move.
RELABEL = {
    IPv4Network(old): IPv4Network(new) for old, new in (
        ("10.1.0.0/24", "172.16.7.0/24"),
        ("10.2.0.0/24", "10.200.3.0/24"),
        ("10.3.0.0/24", "10.9.0.0/24"),
        ("198.51.100.0/24", "192.0.2.0/24"),
    )
}
_QUAD = re.compile(r"\d+\.\d+\.\d+\.\d+")


def relabeled(topology: TopologyConfig) -> TopologyConfig:
    zones = tuple(dataclasses.replace(z, dhcp_range=RELABEL[z.dhcp_range])
                  for z in topology.zones)
    return dataclasses.replace(topology, zones=zones,
                               vpip_pool=RELABEL[topology.vpip_pool])


def mapped_back(text: str) -> str:
    """``text`` with each address in a new base moved to the old base."""
    def back(match):
        addr = IPv4Address(match.group())
        for old, new in RELABEL.items():
            if addr in new:
                return str(old.network_address + (int(addr) - int(new.network_address)))
        return match.group()
    return _QUAD.sub(back, text)


def artifacts(topology, events, tunnel):
    """The bytes of each artifact of a ``--mode both`` run."""
    with tempfile.TemporaryDirectory() as out:
        config = RunConfig(topology, events, "both", tunnel, out)
        assert run_config(config, "relabel") == 0
        return {name: (Path(out) / name).read_bytes() for name in ARTIFACTS}


def assert_relabeling_holds(topology, events, tunnel):
    first = artifacts(topology, events, tunnel)
    moved = artifacts(relabeled(topology), events, tunnel)
    for name in ("metrics_sdn.csv", "metrics_pmip.csv"):
        assert moved[name] == first[name], name
    summary = first["summary.txt"].decode("ascii")
    assert mapped_back(moved["summary.txt"].decode("ascii")) == summary
    return summary


class TestAddressRelabeling:
    @given(echo_scripts())
    @settings(max_examples=20, deadline=None)
    def test_any_script_is_invariant_under_relabeling(self, script):
        topology, events, _ = script
        summary = assert_relabeling_holds(topology, events, TunnelConfig())
        # The relation compared addresses: the server saw one in each mode.
        assert "sdn.server_observed_sources: 198.51.100." in summary
        assert "pmip.server_observed_sources: 10.1.0." in summary

    @pytest.mark.parametrize("name", ["handoff_basic", "handoff_bulk", "ping_pong"])
    def test_bundled_scenario_is_invariant_under_relabeling(self, name, bundled_configs):
        cfg = bundled_configs[name]
        assert_relabeling_holds(cfg.topology, cfg.events, cfg.tunnel)
