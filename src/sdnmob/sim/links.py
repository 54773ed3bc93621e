"""Point-to-point link model.

Each ``Link`` is one direction of a physical link: store-and-forward with
FIFO serialization at the sending end, then fixed propagation delay. A
packet committed to the wire is checked against link state again at its
arrival instant, so taking a link down drops exactly the in-flight packets
that would still be on it.

``overhead_bytes`` models tunnel encapsulation on that segment: the wire
time charged per packet grows, the packet itself is untouched.

A link hands each arriving packet to its one receiver, ``deliver(pkt)``; a
receiver that needs the time reads it from the simulator. A link counts its
own drops, one integer per reason: ``down_at_send`` and ``down_at_arrival``.

A packet on the wire is its pending arrival event,
``schedule_at(arrival, self._arrive, pkt)``, with no closure and no count
per hop.
"""

from __future__ import annotations

from typing import Callable

from ..packet import Packet
from ..units import US_PER_S
from .events import Simulator


def serialization_us(wire_bytes: int, bandwidth_bps: int) -> int:
    return wire_bytes * 8 * US_PER_S // bandwidth_bps


class Link:
    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: int,
        delay_us: int,
        deliver: Callable[[Packet], None],
        overhead_bytes: int = 0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay_us = delay_us
        self.deliver = deliver
        self.overhead_bytes = overhead_bytes
        self.up = True
        self.down_at_send = 0
        self.down_at_arrival = 0
        self._busy_until = 0

    def send(self, pkt: Packet) -> bool:
        """Queue a packet for transmission; False if dropped at the sender."""
        if not self.up:
            self.down_at_send += 1
            return False
        sim = self.sim
        start = sim.now if sim.now > self._busy_until else self._busy_until
        # serialization_us, inlined: this runs once per hop.
        self._busy_until = start + (
            (pkt.wire_bytes + self.overhead_bytes) * 8 * US_PER_S // self.bandwidth_bps
        )
        sim.schedule_at(self._busy_until + self.delay_us, self._arrive, pkt)
        return True

    def _arrive(self, pkt: Packet) -> None:
        if self.up:
            self.deliver(pkt)
        else:
            self.down_at_arrival += 1

    def set_up(self, up: bool) -> None:
        self.up = up
