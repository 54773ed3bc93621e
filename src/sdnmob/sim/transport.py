"""Simplified reliable transport.

Cumulative acknowledgments, a single retransmission timer per sender set to
four times the smoothed RTT, in-order delivery with an unbounded reassembly
buffer, and a fixed send window that paces bulk transfers against the
bottleneck link. Each side holds its peer, the one address it sends to. The
server host resets a connection when a data packet arrives from a source
other than the server side's peer; that is the failure mode the address
translation scheme exists to prevent.

Every segment of a connection carries the side's one ``payload_len``, so
a side's state is its sequence numbers. The sender has ``submitted -
next_seq`` segments still to send, and ``unacked`` maps each outstanding
seq to its send time, or to ``None`` once retransmitted, since Karn's rule
(Karn and Partridge, 1987) never samples those. The receiver keeps
``expected`` (RCV.NXT, RFC 9293), which is also the count delivered, and
``ooo``, the seqs it holds out of order.

Senders pause while their host has no usable address (mid-handoff) and
retransmit everything outstanding the moment a fresh address lands, which
repairs any loss from the outage in one burst.

Each side appends its RTT samples, as ``(sent_at_us, rtt_us)``, to the
``rtt_log`` series it is given (``metrics.Series``); the network hands the
client sides and the server sides one shared log each.

The retransmission timer is a ``deadline`` plus at most one live wake-up
event. Arming the timer (on every ACK that covers new data) only moves the
deadline; a wake-up is scheduled only when none is pending or the new
deadline comes before the pending one. A wake-up that finds the deadline
moved later reschedules itself there, and one that finds the timer
disarmed does nothing, so a timeout still fires at exactly the last arm
plus the RTO while a steady ACK stream costs about one event per RTO
instead of one per ACK (lazy re-arming, as in Varghese and Lauck's timing
wheels).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

from ..packet import Packet, PacketKind
from ..units import US_PER_S
from .metrics import Series

SEND_WINDOW_SEGMENTS = 32
INITIAL_RTO_US = 1 * US_PER_S
MIN_RTO_US = 1_000
RTO_FACTOR = 4
SRTT_ALPHA = 0.125

_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


class TransportSide:
    """One endpoint (client or server role) of a reliable connection.

    The owning host supplies the clock, its current address and the
    transmit path. The side keeps ``peer``, the address it sends to, the
    ``payload_len`` of every segment it sends, and its sender and receiver
    state. A server side starts with no peer and takes the source of the
    first data segment it receives.
    """

    def __init__(
        self,
        host,
        conn_id: int,
        peer: Optional[int],
        payload_len: int,
        rtt_log: Optional[Series] = None,
        on_deliver: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.host = host
        self.conn_id = conn_id
        self.peer = peer
        self.payload_len = payload_len
        self.rtt_log = Series() if rtt_log is None else rtt_log
        self.on_deliver = on_deliver
        # sender
        self.next_seq = 0
        # seq -> send time, None once retransmitted; oldest first.
        self.unacked: "OrderedDict[int, Optional[int]]" = OrderedDict()
        self.srtt: Optional[float] = None
        # The retransmission timeout, updated wherever srtt changes.
        self.rto = INITIAL_RTO_US
        # Retransmission timer: the instant it expires (None: disarmed) and
        # the instant of the live pending wake-up (None: none pending).
        self.deadline: Optional[int] = None
        self._wakeup_at: Optional[int] = None
        self.submitted = 0
        self.transmissions = 0
        self.retransmissions = 0
        # receiver
        self.expected = 0  # also the number of segments delivered
        self.ooo: set[int] = set()
        self.duplicates = 0

    # -- sender --------------------------------------------------------------

    def submit(self, count: int) -> None:
        """Hand ``count`` application segments to the transport."""
        self.submitted += count
        self.pump()

    def pump(self) -> None:
        """Send unsent segments while the window and the address allow."""
        host = self.host
        unacked = self.unacked
        first = self.next_seq
        if first != self.submitted and host.addr is not None:
            count = min(SEND_WINDOW_SEGMENTS - len(unacked), self.submitted - first)
            self.next_seq = first + count
            now = host.sim.now
            for seq in range(first, first + count):
                unacked[seq] = now
                self._send(seq)
        if unacked and self.deadline is None and host.addr is not None:
            self._arm_timer()

    def _send(self, seq: int) -> None:
        host = self.host
        self.transmissions += 1
        host.transmit(Packet(host.addr, self.peer, host.uid, self.payload_len,
                             seq, host.sim.now, _DATA, self.conn_id))

    def _retransmit(self, seq: int) -> None:
        self.unacked[seq] = None
        self.retransmissions += 1
        self._send(seq)

    def _arm_timer(self) -> None:
        """Set the deadline to now + RTO. A new wake-up is scheduled only if
        none is pending or the pending one comes after the deadline."""
        sim = self.host.sim
        deadline = self.deadline = sim.now + self.rto
        wakeup = self._wakeup_at
        if wakeup is None or deadline < wakeup:
            self._wakeup_at = deadline
            sim.schedule_at(deadline, self._on_wakeup)

    def _on_wakeup(self) -> None:
        now = self.host.sim.now
        if now != self._wakeup_at:
            return  # superseded by an earlier wake-up
        deadline = self.deadline
        if deadline is None:
            self._wakeup_at = None
            return
        if deadline > now:
            self._wakeup_at = deadline
            self.host.sim.schedule_at(deadline, self._on_wakeup)
            return
        # A live deadline implies outstanding segments.
        self._wakeup_at = self.deadline = None
        if self.host.addr is None:
            # Host is between addresses; flush_all() restarts everything.
            return
        self._retransmit(next(iter(self.unacked)))
        self._arm_timer()

    def receive_ack(self, pkt: Packet) -> None:
        ack = pkt.ack
        assert ack is not None
        unacked = self.unacked
        # The outstanding seqs run without a gap up to next_seq - 1, so the
        # ack covers this many of them (none for a stale ack).
        covered = ack - self.next_seq + len(unacked)
        if covered > 0:
            for _ in range(covered):
                sent_at = unacked.popitem(last=False)[1]  # ends at the newest
            if sent_at is not None:
                # An RTT sample (Karn's rule: first transmissions only).
                sample = self.host.sim.now - sent_at
                srtt = self.srtt
                if srtt is None:
                    srtt = float(sample)
                else:
                    srtt = (1 - SRTT_ALPHA) * srtt + SRTT_ALPHA * sample
                self.srtt = srtt
                self.rto = max(int(RTO_FACTOR * srtt), MIN_RTO_US)
                self.rtt_log.append(sent_at, sample)
            if unacked:
                self._arm_timer()
            else:
                self.deadline = None
        self.pump()

    def flush_all(self) -> None:
        """Retransmit everything outstanding; called when a fresh address
        arrives after a handoff. Pending new data follows in the same burst."""
        if self.host.addr is None:
            return
        for seq in list(self.unacked):
            self._retransmit(seq)
        self.pump()
        if self.unacked:
            self._arm_timer()

    # -- receiver ------------------------------------------------------------

    def receive_data(self, pkt: Packet) -> None:
        if pkt.seq == self.expected:
            self._deliver()
            while self.expected in self.ooo:
                self.ooo.remove(self.expected)
                self._deliver()
        elif pkt.seq > self.expected:
            self.ooo.add(pkt.seq)
        else:
            self.duplicates += 1
        self._send_ack()

    def _deliver(self) -> None:
        self.expected += 1
        if self.on_deliver is not None:
            self.on_deliver(self.host.sim.now)

    def _send_ack(self) -> None:
        host = self.host
        if host.addr is None:
            return
        pkt = Packet(host.addr, self.peer, host.uid, 0,
                     0, host.sim.now, _ACK, self.conn_id, self.expected)
        self.transmissions += 1
        host.transmit(pkt)
