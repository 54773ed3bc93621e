"""Point-to-point link model.

Each ``Link`` is one direction of a physical link: store-and-forward with
FIFO serialization at the sending end, then fixed propagation delay.
``overhead_bytes`` models tunnel encapsulation on that segment: the wire
time charged per packet grows, the packet itself is untouched.

A packet on a link is its pending arrival event, ``schedule_at(arrival,
target, pkt)``, with no closure and no count per hop. Each link stores
that target once, at construction, so no bound method is built per hop. A
wire (the default) is never down, and its target is its one receiver,
``deliver(pkt)``, so a packet goes straight to it. An access link
(``access=True``) is one the client's attachment takes up and down with
``set_up``. Its target is its own ``_arrive``, which checks the link again
at the arrival instant, so taking it down drops exactly the in-flight
packets that would still be on it. It counts its own drops, one integer
per reason: ``down_at_send`` and ``down_at_arrival``; a wire's stay 0.
A receiver that needs the time reads it from the simulator.

Both kinds are one class on purpose. ``Link.send`` runs once per hop, and
CPython (3.11+) specializes each attribute read in it for one exact type;
a subclass for access links would make those reads miss on every hop that
alternates between the two, which costs more than the arrival check
saves.
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
        access: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay_us = delay_us
        self.deliver = deliver
        self.overhead_bytes = overhead_bytes
        self.access = access
        self.up = True
        self.down_at_send = 0
        self.down_at_arrival = 0
        self._busy_until = 0
        # What the arrival event calls with the packet.
        self._target: Callable[[Packet], None] = self._arrive if access else deliver

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
        sim.schedule_at(self._busy_until + self.delay_us, self._target, pkt)
        return True

    def _arrive(self, pkt: Packet) -> None:
        if self.up:
            self.deliver(pkt)
        else:
            self.down_at_arrival += 1

    def set_up(self, up: bool) -> None:
        """Take an access link up or down; a wire is never down."""
        if not self.access:
            raise ValueError(f"link {self.name!r} is a wire, which is never down")
        self.up = up
