"""Scenario file parsing, validation diagnostics and round-tripping."""

import re
from ipaddress import IPv4Network
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sdnmob.config import (
    _EVENTS,
    _TOPOLOGY,
    _TUNNEL,
    _ZONE,
    MODES,
    ConfigError,
    RunConfig,
    bundled_scenario_path,
    dump_config,
    load_config,
    parse_scenario,
)
from sdnmob.sim.runner import MoveClient, StartBulkTransfer, StartEcho, Stop
from sdnmob.sim.topology import TopologyConfig, TunnelConfig
from sdnmob.tap_server import TapFilter, ZoneConfig
from sdnmob.units import usec

README = Path(__file__).resolve().parent.parent / "README.md"

GOOD = """\
[topology]
link_bandwidth_bps = 10000000
link_delay_s = 0.001
control_delay_s = 0.005
vpip_pool = 198.51.100.0/24
seed = 7

[zones]
zone1 = range=10.1.0.0/24 dhcp_latency_s=0.1 tap_filter=all
zone2 = range=10.2.0.0/24

[events]
echo = start_echo at=0 interval_s=0.05 payload_len=100
move = move_client at=10 zone=zone2
stop = stop at=30

[tunnel]
encap_overhead_bytes = 40
binding_update_delay_s = 0.01
"""


class TestParse:
    def test_good_scenario_parses(self):
        topology, events, tunnel = parse_scenario(GOOD)
        assert [z.zone_id for z in topology.zones] == ["zone1", "zone2"]
        assert topology.seed == 7
        assert events == [
            StartEcho(0, usec(0.05), 100),
            MoveClient(usec(10), "zone2"),
            Stop(usec(30)),
        ]
        assert tunnel.encap_overhead_bytes == 40
        assert tunnel.binding_update_delay_us == usec(0.01)

    def test_empty_file_names_missing_topology(self):
        with pytest.raises(ConfigError) as err:
            parse_scenario("", source="empty.ini")
        assert "[topology]" in str(err.value)

    def test_unknown_event_zone_has_location(self):
        bad = GOOD.replace("zone=zone2", "zone=zone9")
        with pytest.raises(ConfigError) as err:
            parse_scenario(bad, source="bad.ini")
        assert "zone9" in str(err.value)
        assert "bad.ini:14" in str(err.value)

    def test_unknown_key_reports_file_and_line(self):
        bad = GOOD.replace("seed = 7", "sed = 7")
        with pytest.raises(ConfigError) as err:
            parse_scenario(bad, source="typo.ini")
        assert "typo.ini:6" in str(err.value)
        assert "sed" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_scenario(GOOD + "\n[extras]\nx = 1\n", source="s.ini")
        assert "extras" in str(err.value)

    def test_duplicate_key_rejected(self):
        bad = GOOD.replace("seed = 7", "seed = 7\nseed = 8")
        with pytest.raises(ConfigError) as err:
            parse_scenario(bad)
        assert "duplicate" in str(err.value)

    def test_overlapping_ranges_diagnosed(self):
        bad = GOOD.replace("range=10.2.0.0/24", "range=198.51.100.0/25")
        with pytest.raises(ConfigError) as err:
            parse_scenario(bad)
        assert "overlap" in str(err.value)

    def test_echo_without_stop_diagnosed(self):
        bad = GOOD.replace("stop = stop at=30\n", "")
        with pytest.raises(ConfigError) as err:
            parse_scenario(bad)
        assert "stop" in str(err.value)

    def test_bad_tunnel_value_has_location(self):
        bad = GOOD.replace("encap_overhead_bytes = 40", "encap_overhead_bytes = -1")
        with pytest.raises(ConfigError, match="t.ini:18: encapsulation overhead"):
            parse_scenario(bad, source="t.ini")

    def test_zero_idle_timeout_and_binding_update_delay_load(self):
        text = GOOD.replace("seed = 7", "seed = 7\nidle_timeout_s = 0").replace(
            "binding_update_delay_s = 0.01", "binding_update_delay_s = 0")
        topology, _, tunnel = parse_scenario(text)
        assert topology.idle_timeout_us == 0
        assert tunnel.binding_update_delay_us == 0


class TestTopologyCheckLocation:
    """Each TopologyConfig and TunnelConfig check is reported at the line of
    the key or the zone it rejects, not at the last line of its section."""

    @pytest.mark.parametrize("old,new,message", [
        ("link_bandwidth_bps = 10000000", "link_bandwidth_bps = 0",
         "link bandwidth must be positive"),
        ("link_delay_s = 0.001", "link_delay_s = -1", "delays must be non-negative"),
        ("control_delay_s = 0.005", "control_delay_s = -1", "delays must be non-negative"),
        ("dhcp_latency_s=0.1", "dhcp_latency_s=-1", "dhcp latency must be non-negative"),
        ("range=10.2.0.0/24", "range=198.51.100.0/25",
         "address ranges overlap: 198.51.100.0/25 and 198.51.100.0/24"),
        ("range=10.2.0.0/24", "range=10.1.0.128/25",
         "address ranges overlap: 10.1.0.0/24 and 10.1.0.128/25"),
        ("seed = 7", "keepalive_interval_s = 0", "keepalive interval must be positive"),
        ("seed = 7", "keepalive_interval_s = -1", "keepalive interval must be positive"),
        ("seed = 7", "keepalive_interval_s = 0.0000001",
         "keepalive interval must be positive"),
        ("range=10.2.0.0/24", "range=203.0.113.0/24",
         "zone range 203.0.113.0/24 holds the server address 203.0.113.10"),
        ("vpip_pool = 198.51.100.0/24", "vpip_pool = 203.0.113.10/32",
         "vpip pool 203.0.113.10/32 holds the server address 203.0.113.10"),
        ("seed = 7", "idle_timeout_s = -1", "idle timeout must be non-negative"),
        ("binding_update_delay_s = 0.01", "binding_update_delay_s = -0.01",
         "binding update delay must be non-negative"),
    ], ids=["bandwidth", "link_delay", "control_delay", "dhcp_latency",
            "zone_in_pool", "zone_in_zone", "keepalive_zero", "keepalive_negative",
            "keepalive_below_1us", "zone_holds_server", "pool_holds_server",
            "idle_timeout_negative", "binding_update_delay_negative"])
    def test_reported_at_the_rejected_line(self, old, new, message):
        bad = GOOD.replace(old, new)
        line = next(i for i, text in enumerate(bad.splitlines(), start=1) if new in text)
        with pytest.raises(ConfigError) as err:
            parse_scenario(bad, source="f.ini")
        assert str(err.value) == f"f.ini:{line}: {message}"


# (line of GOOD to replace, replacement with {} for the value)
DURATION_KEYS = {
    "link_delay_s": ("link_delay_s = 0.001", "link_delay_s = {}"),
    "control_delay_s": ("control_delay_s = 0.005", "control_delay_s = {}"),
    "idle_timeout_s": ("seed = 7", "idle_timeout_s = {}"),
    "keepalive_interval_s": ("seed = 7", "keepalive_interval_s = {}"),
    "dhcp_latency_s": ("dhcp_latency_s=0.1", "dhcp_latency_s={}"),
    "interval_s": ("interval_s=0.05", "interval_s={}"),
    "binding_update_delay_s": ("binding_update_delay_s = 0.01",
                               "binding_update_delay_s = {}"),
    "at": ("stop at=30", "stop at={}"),
}


class TestNonFinite:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", sorted(DURATION_KEYS))
    def test_rejected_at_the_key_line(self, key, value):
        old, new = DURATION_KEYS[key]
        fragment = new.format(value)
        bad = GOOD.replace(old, fragment)
        line = next(i for i, text in enumerate(bad.splitlines(), start=1)
                    if fragment in text)
        kind = "time" if key == "at" else "duration"
        with pytest.raises(ConfigError) as err:
            parse_scenario(bad, source="f.ini")
        assert str(err.value) == f"f.ini:{line}: bad {kind} for {key}: {value!r}"


def events_text(*lines):
    """A valid two-zone scenario whose events section holds ``lines``,
    the first on line 9."""
    return ("[topology]\nseed = 1\n\n[zones]\n"
            "zone1 = range=10.1.0.0/24\nzone2 = range=10.2.0.0/24\n\n[events]\n"
            + "".join(f"e{i} = {text}\n" for i, text in enumerate(lines)))


ECHO = "start_echo at=0 interval_s=0.05 payload_len=100"
BULK = "start_bulk at=0 total_bytes=1000 payload_len=100"


class TestEventListLocation:
    """Each validate_events rule is reported at the offending event's line."""

    @pytest.mark.parametrize("lines,bad_index,message", [
        ((BULK, "stop at=-1"), 1, "event before t=0"),
        ((ECHO, "stop at=30", "move_client at=10 zone=zone2"), 2, "not sorted"),
        ((ECHO, "move_client at=10 zone=zone9", "stop at=30"), 1, "unknown zone: 'zone9'"),
        ((ECHO, "move_client at=10 zone=zone1", "stop at=30"), 1, "move to current zone"),
        ((ECHO, "move_client at=0.05 zone=zone2", "stop at=30"), 1,
         "first move overlaps initial attach"),
        ((ECHO, "move_client at=10 zone=zone2", "move_client at=10.05 zone=zone1",
          "stop at=30"), 2, "overlap"),
        ((BULK, "start_echo at=1 interval_s=0 payload_len=100", "stop at=30"), 1,
         "bad echo parameters"),
        ((BULK, "stop at=0.5", "start_echo at=1 interval_s=0.05 payload_len=100"), 2,
         "echo traffic needs a later stop"),
        ((ECHO, "start_bulk at=1 total_bytes=10 payload_len=100", "stop at=30"), 1,
         "bad bulk parameters"),
        ((ECHO, "stop at=2", "start_echo at=4 interval_s=0.05 payload_len=100", "stop at=6"),
         2, "echo traffic starts after a stop"),
        (("stop at=0", ECHO), 1, "echo traffic starts after a stop"),
    ])
    def test_rule_reported_at_its_event(self, lines, bad_index, message):
        with pytest.raises(ConfigError) as err:
            parse_scenario(events_text(*lines), source="ev.ini")
        assert str(err.value).startswith(f"ev.ini:{9 + bad_index}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize("lines,bad_index", [
        ((ECHO, "move_client at=0.105 zone=zone2", "stop at=2"), 1),
        ((ECHO, "move_client at=1 zone=zone2", "move_client at=1.105 zone=zone1",
          "stop at=2"), 2),
    ])
    def test_tunnel_modes_count_the_binding_update(self, tmp_path, lines, bad_index):
        """A tunnel-mode client acquires its address 100 ms (DHCP) after a
        10 ms binding update, so a move 105 ms after an attach suits SDN
        mode alone."""
        path = tmp_path / "ev.ini"
        path.write_text(events_text(*lines) + "\n[tunnel]\n")
        assert load_config(str(path), mode="sdn").tunnel == TunnelConfig()
        for mode in ("pmip", "both"):
            with pytest.raises(ConfigError) as err:
                load_config(str(path), mode=mode)
            assert str(err.value).startswith(f"{path}:{9 + bad_index}: ")
            assert "overlap" in str(err.value)


durations_us = st.integers(0, 10**12)


@st.composite
def run_configs(draw):
    zones = tuple(
        ZoneConfig(f"zone{i}", IPv4Network(f"10.{i}.0.0/24"),
                   draw(st.integers(0, 10**7)), draw(st.sampled_from(TapFilter)))
        for i in range(draw(st.integers(2, 4)))
    )
    topology = TopologyConfig(
        zones,
        link_bandwidth_bps=draw(st.integers(1, 10**11)),
        link_delay_us=draw(durations_us),
        control_delay_us=draw(durations_us),
        vpip_pool=IPv4Network(f"172.16.0.0/{draw(st.integers(12, 32))}"),
        seed=draw(st.integers(-2**63, 2**63)),
        idle_timeout_us=draw(durations_us),
        keepalive_interval_us=draw(st.integers(1, 10**12)),
    )
    tunnel = draw(st.none() | st.builds(
        TunnelConfig, st.integers(0, 10**6), st.none() | durations_us))
    mode = "sdn" if tunnel is None else draw(st.sampled_from(MODES))
    # A tunnel-mode attach waits out the binding update before DHCP.
    bud = 0 if mode == "sdn" else tunnel.resolved_binding_delay(topology.control_delay_us)
    at = draw(durations_us)
    payload = draw(st.integers(1, 9000))
    events = [StartEcho(at, draw(st.integers(1, 10**9)), draw(st.integers(1, 9000))),
              StartBulkTransfer(at, draw(st.integers(payload, 10**12)), payload)]
    current = zones[0]
    for _ in range(draw(st.integers(1, 4))):
        at += bud + current.dhcp_latency + draw(st.integers(1, 10**9))
        current = draw(st.sampled_from([z for z in zones if z is not current]))
        events.append(MoveClient(at, current.zone_id))
    events.append(Stop(at + draw(durations_us)))
    return RunConfig(topology, events, mode, tunnel, draw(st.sampled_from(["out", "x/y"])))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(cfg=run_configs())
    def test_load_of_dump_equals_config(self, tmp_path_factory, cfg):
        path = tmp_path_factory.getbasetemp() / "round_trip.ini"
        path.write_text(dump_config(cfg))
        assert load_config(str(path), cfg.mode, cfg.output_dir) == cfg


class TestLoadConfig:
    def write(self, tmp_path, text=GOOD):
        path = tmp_path / "scenario.ini"
        path.write_text(text)
        return str(path)

    def test_pmip_mode_without_tunnel_fails(self, tmp_path):
        text = GOOD.split("[tunnel]")[0]
        path = self.write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            load_config(path, mode="pmip")
        assert "tunnel" in str(err.value)
        # sdn mode works without the tunnel section
        cfg = load_config(path, mode="sdn")
        assert cfg.tunnel is None

    def test_seed_override(self, tmp_path):
        path = self.write(tmp_path)
        cfg = load_config(path, mode="sdn", seed_override=99)
        assert cfg.topology.seed == 99

    def test_round_trip_equivalence(self, tmp_path):
        path = self.write(tmp_path)
        cfg = load_config(path, mode="both", output_dir="x")
        dumped = tmp_path / "dumped.ini"
        dumped.write_text(dump_config(cfg))
        cfg2 = load_config(str(dumped), mode="both", output_dir="x")
        assert cfg2.topology == cfg.topology
        assert cfg2.events == cfg.events
        assert cfg2.tunnel == cfg.tunnel


class TestBundled:
    @pytest.mark.parametrize("name", ["handoff_basic", "handoff_bulk", "ping_pong"])
    def test_bundled_scenarios_load(self, name):
        path = bundled_scenario_path(name)
        assert path is not None
        cfg = load_config(path, mode="both")
        assert len(cfg.topology.zones) == 2
        assert cfg.tunnel is not None

    def test_handoff_basic_shape(self):
        cfg = load_config(bundled_scenario_path("handoff_basic"), mode="both")
        moves = [e for e in cfg.events if isinstance(e, MoveClient)]
        assert len(moves) == 1 and moves[0].at_us == usec(10)

    def test_unknown_bundled_name(self):
        assert bundled_scenario_path("nope") is None


class TestReadme:
    def scenario_section(self):
        text = README.read_text(encoding="utf-8")
        return text[text.index("### Scenario files"):text.index("## Library use")]

    def test_ini_example_parses(self):
        example = re.search(r"```ini\n(.*?)```", self.scenario_section(), re.S).group(1)
        topology, events, tunnel = parse_scenario(example, source="README.md")
        assert {z.tap_filter for z in topology.zones} == set(TapFilter)
        assert len(events) == 3 and tunnel is not None

    def test_every_key_is_documented(self):
        section = self.scenario_section()
        tables = [_TOPOLOGY, _ZONE, _TUNNEL] + [table for _, table in _EVENTS.values()]
        for key in {key for table in tables for key in table}:
            assert f"| `{key}` |" in section, key
