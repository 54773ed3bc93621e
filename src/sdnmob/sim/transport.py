"""Simplified reliable transport.

Cumulative acknowledgments, a single retransmission timer per sender set to
four times the smoothed RTT, in-order delivery with an unbounded reassembly
buffer, and a fixed send window that paces bulk transfers against the
bottleneck link. Each side holds its peer, the one address it sends to. The
server host resets a connection when a data packet arrives from a source
other than the server side's peer; that is the failure mode the address
translation scheme exists to prevent.

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

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

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


@dataclass
class SegMeta:
    payload_len: int
    sent_at: int
    retransmitted: bool = False


class TransportSide:
    """One endpoint (client or server role) of a reliable connection.

    The owning host supplies the clock, its current address and the
    transmit path. The side keeps ``peer``, the address it sends to, and its
    sender and receiver state. A server side starts with no peer and takes
    the source of the first data segment it receives.
    """

    def __init__(
        self,
        host,
        conn_id: int,
        peer: Optional[int],
        rtt_log: Optional[Series] = None,
        on_deliver: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.host = host
        self.conn_id = conn_id
        self.peer = peer
        self.rtt_log = Series() if rtt_log is None else rtt_log
        self.on_deliver = on_deliver
        # sender
        self.next_seq = 0
        self.pending: Deque[int] = deque()
        self.unacked: "OrderedDict[int, SegMeta]" = OrderedDict()
        self.srtt: Optional[float] = None
        # Retransmission timer: the instant it expires (None: disarmed) and
        # the instant of the live pending wake-up (None: none pending).
        self.deadline: Optional[int] = None
        self._wakeup_at: Optional[int] = None
        self.submitted = 0
        self.transmissions = 0
        self.retransmissions = 0
        # receiver
        self.expected = 0
        self.ooo: dict[int, int] = {}
        self.delivered_segments = 0
        self.duplicates = 0
        self._ack_seq = 0

    # -- sender --------------------------------------------------------------

    def submit(self, payload_len: int) -> None:
        """Hand one application segment to the transport."""
        self.pending.append(payload_len)
        self.submitted += 1
        self.pump()

    def submit_many(self, payload_len: int, count: int) -> None:
        """Bulk submission (one transfer's worth of equal segments)."""
        self.pending.extend([payload_len] * count)
        self.submitted += count
        self.pump()

    def can_send(self) -> bool:
        return self.host.addr is not None

    def pump(self) -> None:
        host = self.host
        unacked, pending = self.unacked, self.pending
        while len(unacked) < SEND_WINDOW_SEGMENTS and pending and host.addr is not None:
            payload_len = pending.popleft()
            seq = self.next_seq
            self.next_seq += 1
            self._transmit_segment(seq, payload_len, retransmit=False)
        if unacked and self.deadline is None and host.addr is not None:
            self._arm_timer()

    def _transmit_segment(self, seq: int, payload_len: int, retransmit: bool) -> None:
        host = self.host
        now = host.sim.now
        pkt = Packet(host.addr, self.peer, host.uid, payload_len,
                     seq, now, _DATA, self.conn_id)
        if retransmit:
            meta = self.unacked[seq]
            meta.retransmitted = True
            meta.sent_at = now
            self.retransmissions += 1
        else:
            self.unacked[seq] = SegMeta(payload_len, now)
        self.transmissions += 1
        host.transmit(pkt)

    def _rto(self) -> int:
        if self.srtt is None:
            return INITIAL_RTO_US
        return max(int(RTO_FACTOR * self.srtt), MIN_RTO_US)

    def _arm_timer(self) -> None:
        """Set the deadline to now + RTO. A new wake-up is scheduled only if
        none is pending or the pending one comes after the deadline."""
        sim = self.host.sim
        deadline = self.deadline = sim.now + self._rto()
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
        self._wakeup_at = self.deadline = None
        if not self.unacked:
            return
        if not self.can_send():
            # Host is between addresses; flush_all() restarts everything.
            return
        oldest = next(iter(self.unacked))
        self._transmit_segment(oldest, self.unacked[oldest].payload_len, retransmit=True)
        self._arm_timer()

    def receive_ack(self, pkt: Packet) -> None:
        ack = pkt.ack
        assert ack is not None
        unacked = self.unacked
        meta = None  # the newest segment this ack covers
        while unacked:
            seq = next(iter(unacked))
            if seq >= ack:
                break
            meta = unacked.pop(seq)
        if meta is not None:
            if not meta.retransmitted:
                self._sample_rtt(meta)
            if unacked:
                self._arm_timer()
            else:
                self.deadline = None
        self.pump()

    def _sample_rtt(self, meta: SegMeta) -> None:
        sample = self.host.sim.now - meta.sent_at
        if self.srtt is None:
            self.srtt = float(sample)
        else:
            self.srtt = (1 - SRTT_ALPHA) * self.srtt + SRTT_ALPHA * sample
        self.rtt_log.append(meta.sent_at, sample)

    def flush_all(self) -> None:
        """Retransmit everything outstanding; called when a fresh address
        arrives after a handoff. Pending new data follows in the same burst."""
        if not self.can_send():
            return
        for seq in list(self.unacked):
            self._transmit_segment(seq, self.unacked[seq].payload_len, retransmit=True)
        self.pump()
        if self.unacked:
            self._arm_timer()

    # -- receiver ------------------------------------------------------------

    def receive_data(self, pkt: Packet) -> None:
        if pkt.seq == self.expected:
            self._deliver(pkt.seq, pkt.payload_len)
            while self.expected in self.ooo:
                self._deliver(self.expected, self.ooo.pop(self.expected))
        elif pkt.seq > self.expected:
            self.ooo[pkt.seq] = pkt.payload_len
        else:
            self.duplicates += 1
        self._send_ack()

    def _deliver(self, seq: int, payload_len: int) -> None:
        self.expected = seq + 1
        self.delivered_segments += 1
        if self.on_deliver is not None:
            self.on_deliver(self.host.sim.now, payload_len)

    def _send_ack(self) -> None:
        host = self.host
        if host.addr is None:
            return
        pkt = Packet(host.addr, self.peer, host.uid, 0,
                     self._ack_seq, host.sim.now, _ACK, self.conn_id, self.expected)
        self._ack_seq += 1
        self.transmissions += 1
        host.transmit(pkt)
