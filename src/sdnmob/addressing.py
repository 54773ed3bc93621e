"""Client identifiers and IPv4 address pool helpers."""

from __future__ import annotations

import bisect
import random
import re
from dataclasses import dataclass
from ipaddress import IPv4Network
from typing import List, Optional, Sequence, Set, Tuple

_UID_RE = re.compile(r"([0-9a-f]{2}:){5}[0-9a-f]{2}")


class AddressError(ValueError):
    """Malformed identifier or address-space violation."""


@dataclass(frozen=True)
class Uid:
    """Universal client identifier: a 48-bit, MAC-style value.

    Canonical text form is 17 characters of lowercase colon-separated hex,
    e.g. ``aa:bb:cc:00:00:01``.
    """

    text: str

    def __post_init__(self) -> None:
        if not _UID_RE.fullmatch(self.text):
            raise AddressError(f"not a canonical 48-bit identifier: {self.text!r}")

    @classmethod
    def from_int(cls, value: int) -> "Uid":
        if not 0 <= value < 1 << 48:
            raise AddressError(f"identifier out of 48-bit range: {value}")
        octets = value.to_bytes(6, "big")
        return cls(":".join(f"{b:02x}" for b in octets))

    def __str__(self) -> str:
        return self.text


def host_span(network: IPv4Network) -> Tuple[int, int]:
    """First host (as an integer) and host count of ``network``, exactly as
    ``network.hosts()`` lists them: every address of a /31 or /32, all but
    the network and broadcast addresses otherwise."""
    size = network.num_addresses
    if size <= 2:
        return int(network.network_address), size
    return int(network.network_address) + 1, size - 2


def int_span(network: IPv4Network) -> range:
    """Every address of ``network`` as integers: ``int(a) in int_span(net)``
    exactly when ``a in net``, tested in C without ``ipaddress``."""
    return range(int(network.network_address), int(network.broadcast_address) + 1)


def nth_free(n: int, used: Sequence[int]) -> int:
    """The ``n``-th (from 0) offset not in ``used``, which must be sorted
    ascending without repeats (any empty collection will do).

    ``used[i] - i`` counts the free offsets below ``used[i]`` and never
    decreases, so the answer is ``n`` plus the number of used offsets with
    at most ``n`` free ones below them, found by a binary search: about
    ``log2(len(used))`` reads, the same offset a walk from the start gives.
    """
    lo, hi = 0, len(used)
    while lo < hi:
        mid = (lo + hi) // 2
        if used[mid] - mid > n:
            hi = mid
        else:
            lo = mid + 1
    return n + lo


class AddressPool:
    """Allocatable slice of an IPv4 network (all host addresses).

    The pool keeps the first host and the host count, plus the sorted
    offsets of the allocated hosts; it never lists the free addresses. A
    draw picks ``rng.randrange(free count)`` and finds that free host with
    ``nth_free``, a binary search over the used offsets, which is the
    address a draw from the sorted free list would give, so a seeded
    generator yields the same address for the same call history on every
    run.
    """

    def __init__(self, network: IPv4Network):
        self.network = network
        self._first, self._count = host_span(network)
        self._used: List[int] = []

    @property
    def used(self) -> Set[int]:
        """The allocated addresses, as integers."""
        return {self._first + offset for offset in self._used}

    def allocate(self, rng: random.Random) -> int:
        """Uniform draw over the sorted free addresses; returns the address
        integer."""
        free = self._count - len(self._used)
        if free == 0:
            raise PoolExhausted(f"no free addresses left in {self.network}")
        offset = nth_free(rng.randrange(free), self._used)
        bisect.insort(self._used, offset)
        return self._first + offset


class PoolExhausted(AddressError):
    """Every address in the pool is allocated."""


def check_disjoint(networks: Sequence[IPv4Network]) -> Optional[Tuple[int, int]]:
    """Return the positions ``(i, j)``, ``i < j``, of the first overlapping
    pair, or None if all are disjoint."""
    for i, a in enumerate(networks):
        for j in range(i + 1, len(networks)):
            if a.overlaps(networks[j]):
                return i, j
    return None
