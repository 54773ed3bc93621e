"""Central mobility control logic.

Host reports from tap servers drive a table of (uid, real IP, virtual
permanent IP) triplets. New clients get a random virtual address from the
configured pool and a pair of proactive translation flows; a client that
shows up with a new real address keeps its virtual address and gets flows
for the new one, and old flows are simply left to idle out.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Collection, Dict, List, Optional, Sequence, Union

from .addressing import AddressError, PoolExhausted, Uid, host_span, int_span, nth_free
from .flow_engine import EXT_PORT, FlowRule, dnat_rule, snat_rule
from .units import US_PER_S

# Flows installed on the core router carry this idle limit unless the
# scenario overrides it.
DEFAULT_IDLE_TIMEOUT_US = 30 * US_PER_S

# A record is evicted after this many keepalive intervals of silence.
LIVENESS_WINDOW_FACTOR = 2.5

# 255.255.255.255, the limited broadcast address, as an integer.
_LIMITED_BROADCAST = 0xFFFF_FFFF

_NEVER = float("inf")


class ReportRejected(AddressError):
    """Host report failed address validation."""


class WireFormatError(ValueError):
    """Malformed host-report wire string."""


@dataclass(frozen=True)
class HostReport:
    """The discovery message a tap server sends: ``<uid>#<real-ip>``."""

    uid: Uid
    real_ip: IPv4Address

    WIRE_SEPARATOR = "#"

    def serialize(self) -> str:
        return f"{self.uid.text}{self.WIRE_SEPARATOR}{self.real_ip}\n"

    @classmethod
    def parse(cls, wire: str) -> "HostReport":
        body = wire
        if body.endswith("\n"):
            body = body[:-1]
        if "\n" in body or "\r" in body:
            raise WireFormatError(f"embedded newline in report: {wire!r}")
        if body.count(cls.WIRE_SEPARATOR) != 1:
            raise WireFormatError(f"report needs exactly one '#': {wire!r}")
        uid_text, ip_text = body.split(cls.WIRE_SEPARATOR)
        try:
            uid = Uid(uid_text)
        except AddressError as exc:
            raise WireFormatError(str(exc)) from None
        try:
            addr = IPv4Address(ip_text)
        except ValueError:
            raise WireFormatError(f"not a dotted quad: {ip_text!r}") from None
        return cls(uid, addr)


@dataclass(slots=True)
class MobilityRecord:
    uid: Uid
    real_ip: int
    virtual_ip: int
    last_seen: int


class MobilityServiceTable:
    """uid-keyed mobility records, the allocated virtual IPs and the real
    IP -> uid index.

    The virtual IPs are kept as their sorted offsets from the first host of
    ``vpip_pool`` (``vpip_offsets``), the form ``allocate_vpip`` searches.
    The index ``uid_by_real_ip`` is keyed by the real address. Records
    change only through ``add``, ``move`` and ``remove``, which keep the
    offsets and the index in step with them.

    ``seen_bound`` is a lower bound on every record's ``last_seen``. ``add``
    lowers it to the new record's; ``move`` and ``remove`` leave it a lower
    bound, as does any later write of ``last_seen``, since those writes
    read a clock that never decreases.
    """

    def __init__(self, vpip_pool: IPv4Network) -> None:
        self.records: Dict[Uid, MobilityRecord] = {}
        self._first, self._count = host_span(vpip_pool)
        self.vpip_offsets: List[int] = []
        self.uid_by_real_ip: Dict[int, Uid] = {}
        self.seen_bound: float = _NEVER

    def __len__(self) -> int:
        return len(self.records)

    def lookup(self, uid: Uid) -> Optional[MobilityRecord]:
        return self.records.get(uid)

    def holder_of(self, real_ip: int) -> Optional[MobilityRecord]:
        """The record currently holding ``real_ip``, if any."""
        uid = self.uid_by_real_ip.get(real_ip)
        return None if uid is None else self.records[uid]

    def add(self, record: MobilityRecord) -> None:
        """Insert a record whose virtual IP is a free host of the pool."""
        self.records[record.uid] = record
        if record.last_seen < self.seen_bound:
            self.seen_bound = record.last_seen
        bisect.insort(self.vpip_offsets, record.virtual_ip - self._first)
        self.uid_by_real_ip[record.real_ip] = record.uid

    def move(self, record: MobilityRecord, real_ip: int) -> None:
        """Give ``record`` a new real address."""
        self._unindex(record)
        record.real_ip = real_ip
        self.uid_by_real_ip[real_ip] = record.uid

    def remove(self, uid: Uid) -> Optional[MobilityRecord]:
        record = self.records.pop(uid, None)
        if record is not None:
            offsets = self.vpip_offsets
            del offsets[bisect.bisect_left(offsets, record.virtual_ip - self._first)]
            self._unindex(record)
        return record

    def _unindex(self, record: MobilityRecord) -> None:
        real_ip = record.real_ip
        if self.uid_by_real_ip.get(real_ip) == record.uid:
            del self.uid_by_real_ip[real_ip]

    def check_invariants(self) -> None:
        vpips = [r.virtual_ip for r in self.records.values()]
        assert len(set(vpips)) == len(vpips), "virtual addresses must be distinct"
        offsets = sorted(v - self._first for v in vpips)
        assert offsets == self.vpip_offsets, "vpIP offsets out of sync with records"
        assert all(0 <= o < self._count for o in offsets), "vpIP outside the pool's hosts"
        rips = [r.real_ip for r in self.records.values()]
        assert len(set(rips)) == len(rips), "real->virtual map must be a bijection"
        assert self.uid_by_real_ip == {
            r.real_ip: uid for uid, r in self.records.items()
        }, "real IP index out of sync with records"
        assert all(self.seen_bound <= r.last_seen for r in self.records.values()), \
            "seen_bound above a record's last_seen"


def allocate_vpip(pool: IPv4Network, taken: Sequence[int],
                  rng: random.Random) -> int:
    """Uniform draw over the free addresses of ``pool``, as an integer.

    ``taken`` holds the offsets of the allocated hosts from the pool's first
    host (as ``host_span`` gives it), sorted ascending without repeats; the
    controller passes ``MobilityServiceTable.vpip_offsets``. The draw is
    ``free[rng.randrange(len(free))]`` over the free hosts in address order,
    so a fixed seed and call history always yield the same address; the free
    list itself is never built: ``nth_free`` finds the drawn free host by a
    binary search over ``taken``, O(log n) reads. Drawing from the free set
    makes collisions impossible; no retry loop exists.
    """
    first, count = host_span(pool)
    if len(taken) == count:
        raise PoolExhausted(f"virtual address pool {pool} exhausted")
    return first + nth_free(rng.randrange(count - len(taken)), taken)


@dataclass(frozen=True)
class InstallFlows:
    uid: Uid
    snat: FlowRule
    dnat: FlowRule


@dataclass(frozen=True)
class RefreshFlows:
    uid: Uid


@dataclass(frozen=True)
class EvictClient:
    uid: Uid


ControlAction = Union[InstallFlows, RefreshFlows, EvictClient]


class MobilityController:
    """Serialized event handler for host reports, packet-ins and timer ticks.

    ``port_for_ip`` resolves which core-router port reaches a given client
    address integer (the controller's topology knowledge). Each binding
    gets one source NAT and one destination NAT rule; outbound traffic
    leaves on ``EXT_PORT``.
    """

    def __init__(
        self,
        vpip_pool: IPv4Network,
        rng: random.Random,
        port_for_ip: Callable[[int], str],
        idle_timeout: int = DEFAULT_IDLE_TIMEOUT_US,
    ) -> None:
        self.mst = MobilityServiceTable(vpip_pool)
        self.vpip_pool = vpip_pool
        self._pool_span = int_span(vpip_pool)
        self.rng = rng
        self.port_for_ip = port_for_ip
        self.idle_timeout = idle_timeout

    # -- report handling ---------------------------------------------------

    def handle_host_report(self, report: HostReport, now: int) -> List[ControlAction]:
        real_ip = self._validate_real_ip(report.real_ip)
        actions: List[ControlAction] = []
        mst = self.mst
        record = mst.lookup(report.uid)
        # The index maps each record's own real address to it, so the
        # reporter already holds the address exactly when it is the holder.
        holder = mst.holder_of(real_ip)
        # DHCP reuse: a report proves the reported address's previous holder
        # is gone; drop that record so real->virtual stays a bijection.
        if holder is not None and holder is not record:
            mst.remove(holder.uid)
            actions.append(EvictClient(holder.uid))
        if record is None:
            vpip = allocate_vpip(self.vpip_pool, mst.vpip_offsets, self.rng)
            record = MobilityRecord(report.uid, real_ip, vpip, now)
            mst.add(record)
            actions.append(self._install_action(record))
            return actions
        record.last_seen = now
        if holder is not record:
            # Zone change: only the real address moves; the virtual address
            # is the session anchor and must not change. Flows for the old
            # address are left to idle out.
            mst.move(record, real_ip)
            actions.append(self._install_action(record))
            return actions
        actions.append(RefreshFlows(record.uid))
        return actions

    def _validate_real_ip(self, addr: IPv4Address) -> int:
        """The integer of ``addr``. Rejects the unspecified, multicast
        (224.0.0.0/4) and limited broadcast addresses and any address of the
        virtual pool, tested on that integer."""
        ip = int(addr)
        if ip == 0 or ip >> 28 == 0xE or ip == _LIMITED_BROADCAST:
            raise ReportRejected(f"not a unicast client address: {addr}")
        if ip in self._pool_span:
            raise ReportRejected(
                f"client address {addr} collides with the virtual pool {self.vpip_pool}"
            )
        return ip

    def _install_action(self, record: MobilityRecord) -> InstallFlows:
        snat = snat_rule(record.real_ip, record.virtual_ip, EXT_PORT, self.idle_timeout)
        dnat = dnat_rule(record.virtual_ip, record.real_ip,
                         self.port_for_ip(record.real_ip), self.idle_timeout)
        return InstallFlows(record.uid, snat, dnat)

    # -- liveness ----------------------------------------------------------

    def evict_stale(self, now: int, liveness_window: int,
                    snat_sources: Collection[int]) -> List[ControlAction]:
        """Drop records silent for longer than the liveness window and
        return their virtual addresses to the pool.

        ``snat_sources`` holds the real addresses whose source NAT rule is
        still installed on the switch. A record whose current real address
        is among them is kept however long its tap has been silent: the
        client's own uplink traffic keeps that rule from idling out.

        No flow deletion is issued: data-plane entries for a departed client
        idle out on their own.

        No record can be stale while ``now`` minus the table's ``seen_bound``
        is within the window, so the pass reads no record then; a scan
        resets the bound to the earliest ``last_seen`` it keeps, a stale
        record that its SNAT rule holds included, so that record is read
        again on every pass. The bound holds because ``now`` never decreases
        between calls, as on the simulator's clock.
        """
        mst = self.mst
        if now - mst.seen_bound <= liveness_window:
            return []
        stale = []
        bound = _NEVER
        for uid, rec in mst.records.items():
            last_seen = rec.last_seen
            if now - last_seen > liveness_window and rec.real_ip not in snat_sources:
                stale.append(uid)
            elif last_seen < bound:
                bound = last_seen
        mst.seen_bound = bound
        actions: List[ControlAction] = []
        for uid in stale:
            mst.remove(uid)
            actions.append(EvictClient(uid))
        return actions

    # -- misc --------------------------------------------------------------

    def handle_packet_in(self, pkt, now: int) -> List[ControlAction]:
        """Repair path for escalated packets.

        A known client (by source MAC) gets its flows re-emitted from the
        current record. Unknown sources produce no action: discovery is the
        tap servers' job, and the packet stays buffered at the switch until
        a report lands or the buffer times out.
        """
        # uid is MAC-style, so the repair path keys on the source MAC directly
        record = self.mst.lookup(pkt.src_mac)
        if record is None:
            return []
        record.last_seen = max(record.last_seen, now)
        return [self._install_action(record)]
