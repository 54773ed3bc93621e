"""Admitting a client must stay integer work: the controller validates and
indexes the reported address as its integer, finds the vpIP by a binary
search over the pool's used offsets and installs two rules keyed by
integers. ``IPv4Address`` hashing and equality and ``IPv4Network``
membership are pure-Python calls; only the drawn vpIP itself is built as
an ``IPv4Address``.

It also bounds what a registered client costs in memory: its record, its
vpIP, its index entries and two translation rules. ``tracemalloc`` counts
allocations exactly, so the bound does not depend on the machine.
"""

import gc
import tracemalloc
from ipaddress import IPv4Address, IPv4Network

from campus import campus_network, campus_population, register

CLIENTS = 500
MAX_BYTES_PER_CLIENT = 1.15 * 1024


def counting(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def test_registration_keeps_ipaddress_off_the_report_path(monkeypatch):
    net, population = campus_network(), campus_population(CLIENTS)
    calls = {"hash": 0, "eq": 0, "contains": 0, "init": 0}
    monkeypatch.setattr(IPv4Address, "__hash__",
                        counting(calls, "hash", IPv4Address.__hash__))
    monkeypatch.setattr(IPv4Address, "__eq__",
                        counting(calls, "eq", IPv4Address.__eq__))
    monkeypatch.setattr(IPv4Network, "__contains__",
                        counting(calls, "contains", IPv4Network.__contains__))
    monkeypatch.setattr(IPv4Address, "__init__",
                        counting(calls, "init", IPv4Address.__init__))
    a = IPv4Address("10.1.0.5")
    assert a == IPv4Address(int(a)) and hash(a) and a in IPv4Network("10.1.0.0/24")
    assert all(calls.values()), calls  # the counters are live
    calls.update(hash=0, eq=0, contains=0, init=0)
    register(net, population)
    monkeypatch.undo()
    assert len(net.controller.mst) == CLIENTS
    assert len(net.switch.table) == 2 * CLIENTS + 1
    assert calls["hash"] == calls["eq"] == calls["contains"] == 0, calls
    assert calls["init"] <= CLIENTS, calls  # the drawn vpIPs


def test_registered_client_holds_at_most_1_15_kib():
    net, population = campus_network(), campus_population(CLIENTS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        register(net, population)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(net.controller.mst) == CLIENTS
    assert held / CLIENTS <= MAX_BYTES_PER_CLIENT, held / CLIENTS
