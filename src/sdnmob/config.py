"""Scenario files.

Line-oriented INI-style text with four sections: ``[topology]``, ``[zones]``,
``[events]`` and an optional ``[tunnel]``. Every diagnostic carries a
``file:line`` location. Durations are written in seconds and converted to
the integer-microsecond time base on load.

    [topology]
    link_bandwidth_bps = 10000000
    link_delay_s = 0.001

    [zones]
    zone1 = range=10.1.0.0/24 dhcp_latency_s=0.1 tap_filter=all

    [events]
    echo = start_echo at=0 interval_s=0.05 payload_len=100
    move = move_client at=10 zone=zone2
    stop = stop at=30

    [tunnel]
    encap_overhead_bytes = 40

The tables below are the format. Each row maps a file key to the config
field it sets, the kind of its value and whether it is required; omitted
keys take the dataclass defaults. ``[topology]`` and ``[tunnel]`` hold one
key per line. A ``[zones]`` line is ``<zone id> = <key>=<value> ...`` and an
``[events]`` line is ``<label> = <kind> <key>=<value> ...``. Parsing,
``dump_config`` and the seed override all read the same tables.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from ipaddress import IPv4Network
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .sim.runner import (
    MoveClient,
    ScenarioError,
    ScenarioEvent,
    StartBulkTransfer,
    StartEcho,
    Stop,
    validate_events,
)
from .sim.topology import ConfigurationError, TopologyConfig, TunnelConfig
from .tap_server import TapFilter, ZoneConfig
from .units import usec

SECTIONS = ("topology", "zones", "events", "tunnel")
_REQUIRED_SECTIONS = ("topology", "zones", "events")

MODES = ("sdn", "pmip", "both")


class ConfigError(ValueError):
    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


@dataclass
class RunConfig:
    topology: TopologyConfig
    events: List[ScenarioEvent]
    mode: str
    tunnel: Optional[TunnelConfig]
    output_dir: str


class _Kind(NamedTuple):
    name: str  # in "bad <name>" diagnostics
    parse: Callable[[str], object]  # raises ValueError or OverflowError
    dump: Callable[[object], str] = str


class _Key(NamedTuple):
    field: str
    kind: _Kind
    required: bool = False


def _seconds_text(us: int) -> str:
    return f"{us / 1e6:.6f}"


def _usec_text(text: str) -> int:
    # round() inside usec raises ValueError on nan and OverflowError on inf.
    return usec(float(text))


_DURATION = _Kind("duration", _usec_text, _seconds_text)
_TIME = _Kind("time", _usec_text, _seconds_text)
_INT = _Kind("int", int)
_BYTES = _Kind("byte count", int)
_RANGE = _Kind("address range", IPv4Network)
_ZONE_ID = _Kind("zone id", str)
_TAP_FILTER = _Kind(f"tap filter (one of {'|'.join(f.value for f in TapFilter)})",
                    TapFilter, lambda f: f.value)

_TOPOLOGY: Dict[str, _Key] = {
    "link_bandwidth_bps": _Key("link_bandwidth_bps", _INT),
    "link_delay_s": _Key("link_delay_us", _DURATION),
    "control_delay_s": _Key("control_delay_us", _DURATION),
    "vpip_pool": _Key("vpip_pool", _RANGE),
    "seed": _Key("seed", _INT),
    "idle_timeout_s": _Key("idle_timeout_us", _DURATION),
    "keepalive_interval_s": _Key("keepalive_interval_us", _DURATION),
}
_ZONE: Dict[str, _Key] = {
    "range": _Key("dhcp_range", _RANGE, required=True),
    "dhcp_latency_s": _Key("dhcp_latency", _DURATION),
    "tap_filter": _Key("tap_filter", _TAP_FILTER),
}
_TUNNEL: Dict[str, _Key] = {
    "encap_overhead_bytes": _Key("encap_overhead_bytes", _BYTES),
    "binding_update_delay_s": _Key("binding_update_delay_us", _DURATION),
}
_AT = {"at": _Key("at_us", _TIME, required=True)}
_PAYLOAD = {"payload_len": _Key("payload_len", _BYTES, required=True)}
_EVENTS: Dict[str, Tuple[type, Dict[str, _Key]]] = {
    "start_echo": (StartEcho, {**_AT, "interval_s": _Key("interval_us", _DURATION, True),
                               **_PAYLOAD}),
    "start_bulk": (StartBulkTransfer, {**_AT, "total_bytes": _Key("total_bytes", _BYTES, True),
                                       **_PAYLOAD}),
    "move_client": (MoveClient, {**_AT, "zone": _Key("zone_id", _ZONE_ID, True)}),
    "stop": (Stop, _AT),
}
_EVENT_KIND_OF = {cls: kind for kind, (cls, _) in _EVENTS.items()}

# key -> (line, text); a section's keys, or one line's attributes.
_Entries = Dict[str, Tuple[int, str]]


def _parse_sections(text: str, source: str) -> Dict[str, _Entries]:
    sections: Dict[str, _Entries] = {}
    current: Optional[_Entries] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip().lower()
            if name not in SECTIONS:
                raise ConfigError(source, lineno, f"unknown section [{name}]")
            if name in sections:
                raise ConfigError(source, lineno, f"duplicate section [{name}]")
            current = sections[name] = {}
            continue
        if current is None:
            raise ConfigError(source, lineno, f"content before any section: {line!r}")
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(source, lineno, f"expected 'key = value': {line!r}")
        if not key:
            raise ConfigError(source, lineno, "empty key")
        if key in current:
            raise ConfigError(source, lineno, f"duplicate key {key!r} in [{name}]")
        current[key] = (lineno, value.strip())
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise ConfigError(source, 0, f"missing [{name}] section")
    return sections


def _attrs(tokens: List[str], source: str, line: int) -> _Entries:
    """Split ``k=v`` tokens of one zone or event line."""
    out: _Entries = {}
    for token in tokens:
        k, eq, v = token.partition("=")
        if not eq:
            raise ConfigError(source, line, f"expected key=value token, got {token!r}")
        if k in out:
            raise ConfigError(source, line, f"duplicate attribute {k!r}")
        out[k] = (line, v)
    return out


def _make(cls, table: Dict[str, _Key], entries: _Entries, where: str,
          source: str, line: int, zone_entries: Optional[_Entries] = None, **fixed):
    """Build ``cls`` from ``entries`` read through ``table``.

    A failed dataclass check is reported at the line of the field or zone
    (one of ``zone_entries``) it names. ``line`` locates a missing required
    key and a failed check that names neither.
    """
    kwargs: Dict[str, object] = dict(fixed)
    for key, (lineno, text) in entries.items():
        row = table.get(key)
        if row is None:
            raise ConfigError(source, lineno, f"unknown key {key!r} in {where}")
        try:
            kwargs[row.field] = row.kind.parse(text)
        except (ValueError, OverflowError):
            raise ConfigError(source, lineno,
                              f"bad {row.kind.name} for {key}: {text!r}") from None
    for key, row in table.items():
        if row.required and row.field not in kwargs:
            raise ConfigError(source, line, f"{where} needs {key}=")
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        if exc.zone is not None:
            line = zone_entries[exc.zone][0]
        line = next((lineno for key, (lineno, _) in entries.items()
                     if table[key].field == exc.field), line)
        raise ConfigError(source, line, str(exc)) from None


def _last_line(entries: _Entries) -> int:
    return max((line for line, _ in entries.values()), default=0)


def _parse_event(value: str, source: str, line: int) -> ScenarioEvent:
    kind, *tokens = value.split() or [""]
    if kind not in _EVENTS:
        raise ConfigError(source, line, f"unknown event kind {kind!r}; "
                                        f"expected one of {tuple(_EVENTS)}")
    cls, table = _EVENTS[kind]
    return _make(cls, table, _attrs(tokens, source, line), f"event {kind!r}", source, line)


def parse_scenario(text: str, source: str = "<config>", mode: str = "sdn") -> Tuple[
        TopologyConfig, List[ScenarioEvent], Optional[TunnelConfig]]:
    """The scenario in ``text``; its events must suit every run ``mode``
    includes."""
    sections = _parse_sections(text, source)
    zone_entries = sections["zones"]
    zones = tuple(
        _make(ZoneConfig, _ZONE, _attrs(value.split(), source, line),
              f"zone {zone_id!r}", source, line, zone_id=zone_id)
        for zone_id, (line, value) in zone_entries.items()
    )
    topo = sections["topology"]
    topology = _make(TopologyConfig, _TOPOLOGY, topo, "[topology]", source,
                     _last_line(topo), zone_entries, zones=zones)

    tunnel: Optional[TunnelConfig] = None
    if "tunnel" in sections:
        entries = sections["tunnel"]
        tunnel = _make(TunnelConfig, _TUNNEL, entries, "[tunnel]", source, _last_line(entries))

    event_lines = [line for line, _ in sections["events"].values()]
    events = [_parse_event(value, source, line)
              for line, value in sections["events"].values()]
    try:
        validate_events(topology, events, None if mode == "sdn" else tunnel)
    except ScenarioError as exc:
        raise ConfigError(source, event_lines[exc.index], str(exc)) from None
    return topology, events, tunnel


def load_config(path: str, mode: str = "both", output_dir: str = "out",
                seed_override: Optional[int] = None) -> RunConfig:
    """Load and fully validate a scenario file into a runnable config."""
    if mode not in MODES:
        raise ConfigError(path, 0, f"mode must be one of {MODES}, got {mode!r}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    topology, events, tunnel = parse_scenario(text, path, mode)
    if seed_override is not None:
        topology = dataclasses.replace(topology, seed=seed_override)
    if mode != "sdn" and tunnel is None:
        raise ConfigError(path, 0, f"mode {mode!r} needs a [tunnel] section")
    return RunConfig(topology, events, mode, tunnel, output_dir)


def _dump(table: Dict[str, _Key], obj, sep: str) -> List[str]:
    """``key<sep>value`` for every table row whose field is set on ``obj``."""
    return [f"{key}{sep}{row.kind.dump(value)}" for key, row in table.items()
            if (value := getattr(obj, row.field)) is not None]


def dump_config(config: RunConfig) -> str:
    """Serialize back to the file format; reloading yields an equal config."""
    lines = ["[topology]", *_dump(_TOPOLOGY, config.topology, " = "), "", "[zones]"]
    lines += [" ".join([f"{z.zone_id} =", *_dump(_ZONE, z, "=")])
              for z in config.topology.zones]
    lines += ["", "[events]"]
    for i, e in enumerate(config.events):
        kind = _EVENT_KIND_OF[type(e)]
        lines.append(" ".join([f"e{i} = {kind}", *_dump(_EVENTS[kind][1], e, "=")]))
    if config.tunnel is not None:
        lines += ["", "[tunnel]", *_dump(_TUNNEL, config.tunnel, " = ")]
    return "\n".join(lines) + "\n"


def bundled_scenario_path(name: str) -> Optional[str]:
    """Resolve a bundled scenario name (with or without .ini) to a path."""
    base = os.path.join(os.path.dirname(__file__), "scenarios")
    for candidate in (name, name + ".ini"):
        path = os.path.join(base, candidate)
        if os.path.isfile(path):
            return path
    return None
