"""Application-level acknowledgment machinery for datagram senders.

Wire format, version 1. An AppAck reports, per receiver flush:

    ranges        tuple of (lo, hi) inclusive packet-seq ranges received
                  since the previous flush
    highest_seen  highest packet seq the receiver has ever seen
    echo_ts       sender timestamp of the newest packet in this flush
    marked        count of congestion-marked packets in this flush

The receiver may flush per packet (max_acks=1) or batch up to max_acks
packets / max_delay seconds, whichever comes first.

The sender-side tracker turns each AppAck into one feedback report:
a sent packet is *lost* once it is at least REORDER_PACKETS older than
highest_seen and still unacknowledged. Late acks for a packet already
declared lost are dropped from accounting (cannot happen on FIFO paths,
but keeps nrecd <= nsent under reordering).

DatagramSender is the loop every datagram client of the controller runs:
it opens the flow, transmits one datagram per opportunity (tracker, Send
trace row, the packet, counters, then notify) and folds each AppAck into
an update. Its subclasses (UdpCcSocket and the layered and audio
sources) decide only when to send and what.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core import CongestionManager, FeedbackReport, FlowKey, LossMode
from ..sim import EventLoop, Packet, PacketKind, Path
from ..trace import TraceKind, Tracer

REORDER_PACKETS = 3
APP_ACK_SIZE = 60


@dataclass(frozen=True)
class AppAck:
    ranges: Tuple[Tuple[int, int], ...]
    highest_seen: int
    echo_ts: float
    marked: int = 0
    version: int = 1


def _compress(seqs: List[int]) -> Tuple[Tuple[int, int], ...]:
    if not seqs:
        return ()
    seqs = sorted(set(seqs))
    out: List[Tuple[int, int]] = []
    lo = hi = seqs[0]
    for s in seqs[1:]:
        if s == hi + 1:
            hi = s
        else:
            out.append((lo, hi))
            lo = hi = s
    out.append((lo, hi))
    return tuple(out)


class AppAckReceiver:
    """Receiver side: collects data packet seqs and flushes AppAcks."""

    def __init__(self, loop: EventLoop, ack_path: Path, flow: int,
                 max_acks: int = 1, max_delay: float = 0.0,
                 ack_size: int = APP_ACK_SIZE) -> None:
        self.loop = loop
        self.ack_path = ack_path
        self.flow = flow
        self.max_acks = max(1, int(max_acks))
        self.max_delay = float(max_delay)
        self.ack_size = ack_size
        self.highest_seen = -1
        self._pending: List[int] = []
        self._marked = 0
        self._last_echo = 0.0
        self._timer = None

    def on_data(self, pkt: Packet, now: float) -> None:
        if pkt.seq > self.highest_seen:
            self.highest_seen = pkt.seq
        if pkt.ecn_marked:
            self._marked += 1
        self._pending.append(pkt.seq)
        self._last_echo = pkt.sent_at
        if len(self._pending) >= self.max_acks:
            self._flush()
        elif self.max_delay > 0.0 and self._timer is None:
            self._timer = self.loop.schedule_after(self.max_delay, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        ack = AppAck(ranges=_compress(self._pending),
                     highest_seen=self.highest_seen,
                     echo_ts=self._last_echo,
                     marked=self._marked)
        self._pending.clear()
        self._marked = 0
        pkt = Packet(flow=self.flow, seq=self.highest_seen, size=self.ack_size,
                     kind=PacketKind.APP_ACK, sent_at=self.loop.now, meta=ack)
        self.ack_path.send(pkt)


class FeedbackTracker:
    """Sender side: maps AppAcks back to feedback reports."""

    def __init__(self, reorder_packets: int = REORDER_PACKETS) -> None:
        self.reorder_packets = reorder_packets
        self._unresolved: Dict[int, Tuple[int, float]] = {}  # seq -> (size, sent_at)
        self.lost_pkts = 0

    def on_sent(self, seq: int, size: int, now: float) -> None:
        self._unresolved[seq] = (size, now)

    def in_flight_pkts(self) -> int:
        return len(self._unresolved)

    def on_app_ack(self, ack: AppAck, now: float) -> Optional[FeedbackReport]:
        acked: List[int] = []
        for lo, hi in ack.ranges:
            for s in range(lo, hi + 1):
                if s in self._unresolved:
                    acked.append(s)
        acked_set = set(acked)
        horizon = ack.highest_seen - self.reorder_packets
        lost: List[int] = []
        for s in self._unresolved:  # insertion order == seq order
            if s > horizon:
                break
            if s not in acked_set:
                lost.append(s)
        nrecd = sum(self._unresolved[s][0] for s in acked)
        lost_bytes = sum(self._unresolved[s][0] for s in lost)
        rtt = None
        if acked:
            newest = max(acked)
            rtt = now - self._unresolved[newest][1]
        for s in acked:
            del self._unresolved[s]
        for s in lost:
            del self._unresolved[s]
        self.lost_pkts += len(lost)
        nsent = nrecd + lost_bytes
        if nsent == 0:
            return None
        # Loss dominates marks: a halving for the hole already covers the mark.
        if lost:
            mode = LossMode.TRANSIENT
        elif ack.marked > 0:
            mode = LossMode.ECN
        else:
            mode = LossMode.NO_LOSS
        return FeedbackReport(nsent=nsent, nrecd=nrecd, lossmode=mode, rtt=rtt)


class DatagramSender:
    """One controller flow sending datagrams, with app-level ack feedback.

    Subclasses register their callbacks on self.flow and call _transmit
    for each datagram they send."""

    def __init__(self, cm: CongestionManager, key: FlowKey, data_path: Path,
                 loop: EventLoop, tracer: Optional[Tracer] = None) -> None:
        self.cm = cm
        self.loop = loop
        self.path = data_path
        self.tracer = tracer
        self.flow = cm.open(key)
        self.tracker = FeedbackTracker()
        self.sent_packets = 0
        self.sent_bytes = 0

    def _transmit(self, seq: int, size: int, now: float,
                  meta: Any = None) -> None:
        """Put one datagram on the wire and charge it to the window.

        notify may run grant callbacks before it returns, so a caller's
        follow-up (a re-request, the next timer, on_sent) comes after
        this call and sees the datagram already charged."""
        self.tracker.on_sent(seq, size, now)
        if self.tracer is not None:
            self.tracer.emit(now, self.flow, TraceKind.SEND, seq, size)
        self.path.send(Packet(flow=self.flow, seq=seq, size=size,
                              kind=PacketKind.DATA, sent_at=now, meta=meta))
        self.sent_packets += 1
        self.sent_bytes += size
        self.cm.notify(self.flow, size)

    def on_feedback(self, pkt: Packet, now: float) -> None:
        report = self.tracker.on_app_ack(pkt.meta, now)
        if report is not None:
            self.cm.update(self.flow, report)
