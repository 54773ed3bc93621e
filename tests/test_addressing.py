"""Address draws against the free-list reference they replaced."""

import random
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from sdnmob.addressing import AddressPool, PoolExhausted, Uid, host_span
from sdnmob.controller import MobilityRecord, MobilityServiceTable, allocate_vpip

BASE = int(IPv4Address("198.18.0.0"))


def reference_draw(hosts, used, rng):
    """The old draw: build the sorted free list and index it once."""
    free = [a for a in hosts if a not in used]
    if not free:
        raise PoolExhausted("exhausted")
    return free[rng.randrange(len(free))]


@st.composite
def pools_and_used(draw):
    """A /22../32 pool and a used set that mixes its hosts with its network
    and broadcast addresses and with addresses just outside it."""
    prefix = draw(st.integers(22, 32))
    pool = IPv4Network(f"198.18.0.0/{prefix}")
    size = pool.num_addresses
    offsets = draw(st.lists(st.integers(-4, size + 3), max_size=40))
    if draw(st.booleans()):
        offsets += [0, size - 1]
    if size <= 4 and draw(st.booleans()):
        offsets += list(range(size))  # a tiny pool, fully taken
    used = {IPv4Address(BASE + o) for o in offsets}
    return pool, used, draw(st.integers(0, 2**32))


@pytest.mark.parametrize("prefix", range(22, 33))
def test_host_span_matches_hosts(prefix):
    pool = IPv4Network(f"198.18.0.0/{prefix}")
    first, count = host_span(pool)
    assert [IPv4Address(first + i) for i in range(count)] == list(pool.hosts())


@given(pools_and_used())
@settings(max_examples=300, deadline=None)
def test_vpip_draw_equals_free_list_draw(case):
    pool, used, seed = case
    # allocate_vpip takes the sorted offsets of the used hosts; the other
    # members of ``used`` are not hosts and cannot be drawn anyway.
    first, count = host_span(pool)
    taken = sorted(int(a) - first for a in used if 0 <= int(a) - first < count)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    try:
        expected = reference_draw(list(pool.hosts()), used, ref_rng)
    except PoolExhausted:
        with pytest.raises(PoolExhausted):
            allocate_vpip(pool, taken, rng)
    else:
        assert allocate_vpip(pool, taken, rng) == expected
    assert rng.getstate() == ref_rng.getstate()


@given(st.integers(0, 2**32), st.lists(st.booleans(), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_table_offsets_drive_free_list_draws(seed, steps):
    """Draws from the mobility table's offsets, kept through adds and
    removes, equal the free-list draws over its records' addresses."""
    pool = IPv4Network("198.18.0.0/27")  # 30 hosts: long runs exhaust it
    hosts, mst = list(pool.hosts()), MobilityServiceTable(pool)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for i, add in enumerate(steps):
        if add or not mst.records:
            used = {r.virtual_ip for r in mst.records.values()}
            try:
                expected = reference_draw(hosts, used, ref_rng)
            except PoolExhausted:
                with pytest.raises(PoolExhausted):
                    allocate_vpip(pool, mst.vpip_offsets, rng)
            else:
                vpip = allocate_vpip(pool, mst.vpip_offsets, rng)
                assert vpip == expected
                real_ip = IPv4Address(int(IPv4Address("10.0.0.1")) + i)
                mst.add(MobilityRecord(Uid.from_int(i), real_ip, vpip, 0))
        else:
            mst.remove(next(iter(mst.records)))
        mst.check_invariants()
        assert rng.getstate() == ref_rng.getstate()


@given(st.integers(22, 32), st.integers(0, 2**32), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_pool_draws_equal_free_list_draws(prefix, seed, draws):
    network = IPv4Network(f"10.128.0.0/{prefix}")
    pool, hosts, used = AddressPool(network), list(network.hosts()), set()
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        try:
            expected = reference_draw(hosts, used, ref_rng)
        except PoolExhausted:
            with pytest.raises(PoolExhausted):
                pool.allocate(rng)
        else:
            assert pool.allocate(rng) == expected
            used.add(expected)
        assert rng.getstate() == ref_rng.getstate()
        assert pool.used == used
