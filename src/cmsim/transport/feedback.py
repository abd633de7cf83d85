"""Application-level acknowledgment machinery for datagram senders.

Wire format. An AppAck reports, per receiver flush:

    seqs          the packet seqs received since the previous flush,
                  in arrival order, duplicates kept
    highest_seen  highest packet seq the receiver has ever seen
    marked        count of congestion-marked packets in this flush

Its size on the wire is APP_ACK_SIZE, however many seqs it lists.

The receiver may flush per packet (max_acks=1) or batch up to max_acks
packets / max_delay seconds, whichever comes first; the delay is a
sim.Deadline armed by the first packet of a batch.

The sender-side tracker turns each AppAck into one feedback report.
Each listed seq it still holds is received; duplicates and seqs it never
sent count for nothing, so the order of the list does not matter. A
sent packet is *lost* once it is at least REORDER_PACKETS older than
highest_seen and still unacknowledged. Late acks for a packet already
declared lost are dropped from accounting (cannot happen on FIFO paths,
but keeps nrecd <= nsent under reordering). The RTT sample is taken
from the tracker's own send time of the highest seq acked, so the ack
carries no timestamp.

DatagramSender is the loop every datagram client of the controller runs:
it opens the flow, transmits one datagram per opportunity (tracker, Send
trace row, the packet, then notify) and folds each AppAck into an
update. Its subclasses (UdpCcSocket and the layered and audio sources)
decide only when to send and what.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import CongestionManager, FeedbackReport, FlowKey, LossMode
from ..sim import Deadline, EventLoop, Packet, PacketKind, Path
from ..trace import TraceKind, Tracer

REORDER_PACKETS = 3
APP_ACK_SIZE = 60


@dataclass(frozen=True)
class AppAck:
    seqs: Tuple[int, ...]
    highest_seen: int
    marked: int = 0


class AppAckReceiver:
    """Receiver side: collects data packet seqs and flushes AppAcks."""

    def __init__(self, loop: EventLoop, ack_path: Path, flow: int,
                 max_acks: int = 1, max_delay: float = 0.0) -> None:
        self.loop = loop
        self.ack_path = ack_path
        self.flow = flow
        self.max_acks = max(1, int(max_acks))
        self.max_delay = float(max_delay)
        self.highest_seen = -1
        self._pending: List[int] = []
        self._marked = 0
        # armed only with packets pending, which every flush clears
        self._timer = Deadline(loop, self._flush)

    def on_data(self, pkt: Packet, now: float) -> None:
        if pkt.seq > self.highest_seen:
            self.highest_seen = pkt.seq
        if pkt.ecn_marked:
            self._marked += 1
        self._pending.append(pkt.seq)
        if len(self._pending) >= self.max_acks:
            self._flush()
        elif self.max_delay > 0.0 and self._timer.at is None:
            self._timer.arm(self.max_delay)

    def _flush(self) -> None:
        self._timer.stop()
        ack = AppAck(seqs=tuple(self._pending),
                     highest_seen=self.highest_seen,
                     marked=self._marked)
        self._pending.clear()
        self._marked = 0
        pkt = Packet(flow=self.flow, seq=self.highest_seen, size=APP_ACK_SIZE,
                     kind=PacketKind.APP_ACK, meta=ack)
        self.ack_path.send(pkt)


class FeedbackTracker:
    """Sender side: maps AppAcks back to feedback reports."""

    def __init__(self) -> None:
        self._unresolved: Dict[int, Tuple[int, float]] = {}  # seq -> (size, sent_at)

    def on_sent(self, seq: int, size: int, now: float) -> None:
        self._unresolved[seq] = (size, now)

    def in_flight_pkts(self) -> int:
        return len(self._unresolved)

    def on_app_ack(self, ack: AppAck, now: float) -> Optional[FeedbackReport]:
        unresolved = self._unresolved
        nrecd = 0
        newest: Optional[int] = None   # highest seq acked; its send time
        newest_sent = 0.0              # gives the RTT sample
        for s in ack.seqs:
            entry = unresolved.pop(s, None)
            if entry is not None:
                nrecd += entry[0]
                if newest is None or s > newest:
                    newest, newest_sent = s, entry[1]
        horizon = ack.highest_seen - REORDER_PACKETS
        lost = lost_bytes = 0
        while unresolved:
            s = next(iter(unresolved))  # insertion order == seq order
            if s > horizon:
                break
            lost += 1
            lost_bytes += unresolved.pop(s)[0]
        nsent = nrecd + lost_bytes
        if nsent == 0:
            return None
        rtt = None if newest is None else now - newest_sent
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

    @staticmethod
    def _datagram_size(path: Path, size: int) -> int:
        """int(size); ValueError unless 1 <= size <= the MTU of the path's
        first link. Checked before any datagram of that size is queued or
        traced, and by the sources' constructors before the flow opens."""
        size = int(size)
        mtu = path.links[0].mtu
        if not 1 <= size <= mtu:
            raise ValueError(f"datagram size {size} must be in [1, {mtu}]")
        return size

    def _or_close(self, fn: Callable[[], Any]) -> Any:
        """fn(); if it raises, close the flow and re-raise, so that a
        constructor that raises leaves no flow open."""
        try:
            return fn()
        except BaseException:
            self.cm.close(self.flow)
            raise

    def _transmit(self, seq: int, size: int, now: float) -> None:
        """Put one datagram on the wire and charge it to the window.

        notify may run grant callbacks before it returns, so a caller's
        follow-up (a re-request, the next timer, on_sent) comes after
        this call and sees the datagram already charged."""
        self.tracker.on_sent(seq, size, now)
        if self.tracer is not None:
            self.tracer.emit(now, self.flow, TraceKind.SEND, seq, size)
        self.path.send(Packet(flow=self.flow, seq=seq, size=size,
                              kind=PacketKind.DATA))
        self.cm.notify(self.flow, size)

    def on_feedback(self, pkt: Packet, now: float) -> None:
        report = self.tracker.on_app_ack(pkt.meta, now)
        if report is not None:
            self.cm.update(self.flow, report)
