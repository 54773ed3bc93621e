"""The per-packet path must not fall back onto ``ipaddress``: packets,
flow rules, mobility records, tap buffers and hosts hold addresses as
integers, and ``IPv4Address`` appears only at the edges (configuration,
the host-report wire form, the addresses a run reports). Its hashing,
equality, ``int()`` and construction and ``IPv4Network`` membership are
pure-Python calls, so one per packet would cost a visible share of a run.
``Packet`` accepts an ``IPv4Address`` too, so a host left holding one would
pay an ``__int__`` on every packet it sends.

This counts those calls over bundled ``handoff_bulk`` (about 10k packets
sent per mode) and requires far fewer than one per packet.
"""

from ipaddress import IPv4Address, IPv4Network

import pytest

from sdnmob.config import bundled_scenario_path, load_config
from sdnmob.sim import Mode, build_topology, run_pmip_baseline, run_scenario

# Control-plane work (reports, installs, refreshes, leases) still uses
# addresses, a few times per handoff; one call per packet would be 10k.
MAX_CALLS = 100


def counting(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("mode", [Mode.SDN, Mode.PMIP], ids=lambda m: m.value)
def test_handoff_bulk_keeps_ipaddress_off_the_packet_path(mode, monkeypatch):
    cfg = load_config(bundled_scenario_path("handoff_bulk"), mode="both")
    calls = {"hash": 0, "eq": 0, "contains": 0, "int": 0, "init": 0}
    net24 = IPv4Network("10.1.0.0/24")
    monkeypatch.setattr(IPv4Address, "__hash__",
                        counting(calls, "hash", IPv4Address.__hash__))
    monkeypatch.setattr(IPv4Address, "__eq__",
                        counting(calls, "eq", IPv4Address.__eq__))
    monkeypatch.setattr(IPv4Network, "__contains__",
                        counting(calls, "contains", IPv4Network.__contains__))
    monkeypatch.setattr(IPv4Address, "__int__",
                        counting(calls, "int", IPv4Address.__int__))
    monkeypatch.setattr(IPv4Address, "__init__",
                        counting(calls, "init", IPv4Address.__init__))
    a = IPv4Address("10.1.0.5")
    assert a == IPv4Address(int(a)) and hash(a) and a in net24
    # the counters are live
    assert calls == {"hash": 1, "eq": 1, "contains": 1, "int": 1, "init": 2}
    calls.update(hash=0, eq=0, contains=0, int=0, init=0)
    if mode is Mode.SDN:
        net = build_topology(cfg.topology)
        trace = run_scenario(net, cfg.events)
    else:
        net = build_topology(cfg.topology, Mode.PMIP, cfg.tunnel)
        trace = run_pmip_baseline(net, cfg.events, cfg.tunnel)
    monkeypatch.undo()
    sent = trace.counters["transmissions"]
    assert sent > 10_000 and trace.losses == 0
    for name, n in calls.items():
        assert n < MAX_CALLS, f"{n} IPv4 {name} calls for {sent} packets"
