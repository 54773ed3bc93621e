"""Address draws against the free-list reference they replaced."""

import math
import random
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from sdnmob.addressing import (
    AddressError, AddressPool, PoolExhausted, Uid, host_span, nth_free,
)
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


@pytest.mark.parametrize("text,valid", [
    ("aa:bb:cc:00:00:01", True),
    ("aa:bb:cc:00:00:01\n", False),
    ("AA:BB:CC:00:00:01", False),
    ("aa:bb:cc:00:00", False),
], ids=["canonical", "trailing_newline", "uppercase", "short"])
def test_uid_accepts_only_the_canonical_form(text, valid):
    if valid:
        assert Uid(text).text == Uid.from_int(int(text.replace(":", ""), 16)).text == text
    else:
        with pytest.raises(AddressError):
            Uid(text)


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
        assert IPv4Address(allocate_vpip(pool, taken, rng)) == expected
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
            used = {IPv4Address(r.virtual_ip) for r in mst.records.values()}
            try:
                expected = reference_draw(hosts, used, ref_rng)
            except PoolExhausted:
                with pytest.raises(PoolExhausted):
                    allocate_vpip(pool, mst.vpip_offsets, rng)
            else:
                vpip = allocate_vpip(pool, mst.vpip_offsets, rng)
                assert IPv4Address(vpip) == expected
                real_ip = int(IPv4Address("10.0.0.1")) + i
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
            assert IPv4Address(pool.allocate(rng)) == expected
            used.add(expected)
        assert rng.getstate() == ref_rng.getstate()
        assert {IPv4Address(a) for a in pool.used} == used


def linear_nth_free(n, used):
    """The walk ``nth_free`` replaced: step over every used offset up to
    the answer."""
    for offset in used:
        if offset > n:
            break
        n += 1
    return n


class CountingReads:
    """A sorted offset list that counts its element reads."""

    def __init__(self, offsets):
        self.offsets = offsets
        self.reads = 0

    def __len__(self):
        return len(self.offsets)

    def __getitem__(self, i):
        self.reads += 1
        return self.offsets[i]


@st.composite
def used_offsets(draw):
    """Sorted offsets without repeats: sparse, a dense prefix 0..k-1 with a
    sparse tail, or empty."""
    shape = draw(st.sampled_from(["sparse", "dense", "empty"]))
    if shape == "empty":
        return []
    tail = draw(st.sets(st.integers(0, 5_000), max_size=60))
    if shape == "sparse":
        return sorted(tail)
    prefix = draw(st.integers(1, 300))
    return sorted(set(range(prefix)) | tail)


@given(used_offsets(), st.data())
@settings(max_examples=400, deadline=None)
def test_nth_free_equals_linear_walk(used, data):
    # n runs from 0 to well past the last used offset.
    top = (used[-1] if used else 0) + 20
    n = data.draw(st.one_of(st.integers(0, top), st.just(top + len(used))))
    assert nth_free(n, used) == linear_nth_free(n, used)


@pytest.mark.parametrize("empty", [[], (), set(), range(0)],
                         ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("n", [0, 1, 4093])
def test_nth_free_of_empty_input_is_n(empty, n):
    # perfbench/sweeps.py draws from an empty pool by passing set().
    assert nth_free(n, empty) == linear_nth_free(n, empty) == n


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 100, 1_000, 4_094])
def test_nth_free_reads_a_logarithmic_number_of_offsets(size):
    """A draw costs O(log n) reads: at most 2*ceil(log2(len+1)) + 2, where
    a walk over the used offsets reads up to all of them."""
    bound = 2 * math.ceil(math.log2(size + 1)) + 2
    used = list(range(0, 2 * size, 2))  # every even offset
    for n in (0, size // 2, size, 2 * size):
        probe = CountingReads(used)
        assert nth_free(n, probe) == linear_nth_free(n, used)
        assert probe.reads <= bound, (n, probe.reads, bound)
    dense = CountingReads(list(range(size)))
    assert nth_free(0, dense) == size
    assert dense.reads <= bound
