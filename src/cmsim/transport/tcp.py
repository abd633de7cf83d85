"""Reliable byte-stream transport driven by the congestion core.

The sender keeps sequencing, acknowledgment and retransmission state but
owns no congestion window: every segment goes out on a grant, and every
ACK, dupack or timeout is folded back into the shared controller:

  * new cumulative ACK      -> no-loss report for the newly acked bytes,
                               with an RTT sample when the timed segment
                               was never retransmitted (Karn's rule);
  * third duplicate ACK     -> transient-loss report for one segment, the
                               head is queued for retransmission and a
                               fresh grant is requested;
  * further duplicate ACKs  -> no-loss report crediting one MTU received,
                               which opens the shared window so
                               transmission continues during recovery;
  * ECN-echo ACK            -> the no-loss report becomes an ECN report;
  * retransmission timeout  -> persistent-loss report discharging the
                               flow's in-flight bytes, head retransmitted,
                               RTO doubles.

Retransmissions take priority over new data when a grant arrives.
Connection setup is a single SYN/SYNACK exchange carrying no data; it is
never charged to the controller, and grant requests wait for it.

The receiver ACKs every data segment at once. The SYN retry and RTO
timers are sim.Deadlines, so stopping one never cancels a heap entry.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, NamedTuple, Optional, Tuple

from ..core import (ECN, MAX_RTO, NO_LOSS, PERSISTENT, TRANSIENT,
                    CongestionManager, FeedbackReport, FlowKey)
from ..errors import ConnectionClosed
from ..sim import ACK, DATA, Deadline, EventLoop, Link, Packet
from ..trace import SEND, Tracer

ACK_SIZE = 40
SYN_RETRY = 1.0
# receiver's advertised window: bounds unacked sequence space so a
# recovery episode can only strand a bounded region behind a hole
MAX_WINDOW = 65535


class AckInfo(NamedTuple):
    ack: int
    ece: bool = False


class TcpReceiver:
    """Cumulative-ACK receiver with out-of-order buffering.

    Every data segment, in order, out of order or filling a hole, is
    acked at once with the cumulative ACK point rcv_nxt. A marked data
    packet sets the ECN echo on the next ACK.
    """

    def __init__(self, loop: EventLoop, ack_path: Link, flow: int) -> None:
        self.loop = loop
        self.ack_path = ack_path
        self.flow = flow
        self.rcv_nxt = 0
        self._ooo: List[Tuple[int, int]] = []   # disjoint [s, e), sorted
        self._ece_pending = False

    def on_data(self, pkt: Packet, now: float) -> None:
        if pkt.meta == "syn":
            self.ack_path.send(Packet(self.flow, 0, ACK_SIZE, ACK, "synack"))
            return
        if pkt.ecn_marked:
            self._ece_pending = True
        s, e = pkt.seq, pkt.seq + pkt.size
        if s <= self.rcv_nxt:
            if e > self.rcv_nxt:
                self.rcv_nxt = e
                while self._ooo and self._ooo[0][0] <= self.rcv_nxt:
                    self.rcv_nxt = max(self.rcv_nxt, self._ooo.pop(0)[1])
        else:
            self._insert_ooo(s, e)  # the ACK below is a duplicate for the hole
        self._ack_now()

    def _insert_ooo(self, s: int, e: int) -> None:
        self._ooo.append((s, e))
        self._ooo.sort()
        out: List[Tuple[int, int]] = []
        for a, b in self._ooo:
            if out and a <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], b))
            else:
                out.append((a, b))
        self._ooo = out

    def _ack_now(self) -> None:
        info = AckInfo(self.rcv_nxt, self._ece_pending)
        self._ece_pending = False
        self.ack_path.send(Packet(self.flow, self.rcv_nxt, ACK_SIZE, ACK,
                                  info))


class TcpSender:
    """Sender half of the reliable stream; windowing lives in the manager.
    tracer gets a Send row per data segment, retransmissions included."""

    def __init__(self, cm: CongestionManager, key: FlowKey, data_path: Link,
                 loop: EventLoop, tracer: Tracer,
                 on_complete: Optional[Callable[[float], None]] = None) -> None:
        self.cm = cm
        self.loop = loop
        self.path = data_path
        self.tracer = tracer
        self.on_complete = on_complete
        self.flow = cm.open(key)
        cm.register_send(self.flow, self._on_grant)
        self.mss = cm.mtu(self.flow)
        if self.mss > data_path.mtu:
            # every full segment would fail in Link.send, inside the grant
            # callback and after its grant was spent
            cm.close(self.flow)
            raise ValueError(f"segment size {self.mss} exceeds the link's "
                             f"mtu {data_path.mtu}")
        self.closed = False
        self.total = 0          # bytes written by the app so far
        self.snd_una = 0
        self.snd_nxt = 0
        self.dup_acks = 0
        self.backoff = 1
        self.rtx: Deque[Tuple[int, int]] = deque()
        self._requested = 0     # bytes covered by issued grants requests
        self._charged = 0       # bytes charged to the manager, not yet reported
        self._timed: Optional[Tuple[int, float]] = None
        self._timed_rtx = False
        self._rto = Deadline(loop, self._on_rto)
        self._syn = Deadline(loop, self._syn_retry)
        self._syn_wait = SYN_RETRY
        self.established = False
        self._completed = False

    def start(self) -> None:
        if not self.established:
            self._send_syn()

    # -- handshake --------------------------------------------------------

    def _send_syn(self) -> None:
        self.path.send(Packet(self.flow, 0, ACK_SIZE, ACK, "syn"))
        self._syn.arm(self._syn_wait)

    def _syn_retry(self) -> None:
        # stopped on establishment and on close, so it fires only while
        # the handshake is still open
        self._syn_wait = min(self._syn_wait * 2.0, MAX_RTO)
        self._send_syn()

    def _on_established(self) -> None:
        if self.established:
            return
        self.established = True
        self._syn.stop()
        self._top_up()

    # -- app side ---------------------------------------------------------

    def write(self, nbytes: int) -> None:
        """Queue nbytes of stream data; one grant request per MTU chunk.
        ValueError unless nbytes is a nonnegative int (a bool is not)."""
        if self.closed:
            raise ConnectionClosed()
        if type(nbytes) is not int or nbytes < 0:
            raise ValueError(f"write size {nbytes!r} must be an int >= 0")
        self.total += nbytes
        self._top_up()

    def _top_up(self) -> None:
        """Issue grant requests for queued data that fits the send window;
        none before the handshake completes."""
        if not self.established:
            return
        limit = min(self.total, self.snd_una + MAX_WINDOW)
        while self._requested < limit:
            self._requested += self.mss
            self.cm.request(self.flow)

    def close(self) -> None:
        self.closed = True
        self._rto.stop()
        self._syn.stop()
        self.cm.close(self.flow)

    # -- grants -----------------------------------------------------------

    def _on_grant(self, fid: int) -> None:
        now = self.loop.now
        # on_ack prunes rtx as snd_una advances, so every entry ends past it
        if self.rtx:
            s, e = self.rtx.popleft()
            s = max(s, self.snd_una)
            size = e - s
            if self._timed is not None and s < self._timed[0]:
                self._timed_rtx = True
            self._emit(s, size, now)
            return
        in_window = self.snd_nxt - self.snd_una < MAX_WINDOW
        if self.snd_nxt < self.total and in_window:
            size = min(self.mss, self.total - self.snd_nxt)
            if self._timed is None:
                self._timed = (self.snd_nxt + size, now)
                self._timed_rtx = False
            self._emit(self.snd_nxt, size, now)
            self.snd_nxt += size
            return
        if self.snd_nxt < self.total:
            # Window-blocked: hand the request back so _top_up can reissue
            # it once the window slides.
            self._requested = max(self.snd_nxt, self._requested - self.mss)
        self.cm.notify(self.flow, 0)

    def _emit(self, seq: int, size: int, now: float) -> None:
        self.tracer.emit(now, self.flow, SEND, seq, size)
        self.path.send(Packet(self.flow, seq, size, DATA))
        self._charged += size
        self.cm.notify(self.flow, size)
        if self._rto.at is None:
            self._rto.arm(min(self.cm.rto_estimate(self.flow) * self.backoff,
                              MAX_RTO))

    # -- timers -----------------------------------------------------------

    def _on_rto(self) -> None:
        if self.closed or self.snd_nxt <= self.snd_una:
            return
        # Queue the retransmission before reporting: the report can hand
        # out a grant on the spot, and that grant must resend the hole
        # rather than push new data past it.
        seg = min(self.mss, self.snd_nxt - self.snd_una)
        self.rtx.append((self.snd_una, self.snd_una + seg))
        if self._timed is not None:
            self._timed_rtx = True
        discharge = self._charged
        self._charged = 0
        self.cm.update(self.flow, FeedbackReport(discharge, 0, PERSISTENT))
        self.backoff = min(self.backoff * 2, 64)
        self.cm.request(self.flow)
        self._rto.arm(min(self.cm.rto_estimate(self.flow) * self.backoff,
                          MAX_RTO))

    # -- network side -----------------------------------------------------

    def on_ack(self, pkt: Packet, now: float) -> None:
        if self.closed:
            return
        info = pkt.meta
        if not isinstance(info, AckInfo):
            # typed first, so an ACK costs no AckInfo.__eq__
            if info == "synack":
                self._on_established()
            return
        ack = info.ack
        if ack < self.snd_una:
            return
        if ack == self.snd_una:
            if self.snd_nxt > self.snd_una:
                self.dup_acks += 1
                if self.dup_acks == 3:
                    seg = min(self.mss, self.snd_nxt - self.snd_una)
                    self.rtx.append((self.snd_una, self.snd_una + seg))
                    if self._timed is not None:
                        self._timed_rtx = True
                    # Never report more resolved bytes than were charged:
                    # dupacks and the later cumulative ACK cover the same
                    # window, so each credit is capped by what remains.
                    credit = min(seg, self._charged)
                    self._charged -= credit
                    self.cm.update(self.flow,
                                   FeedbackReport(credit, 0, TRANSIENT))
                    self.cm.request(self.flow)
                elif self.dup_acks > 3:
                    credit = min(self.mss, self._charged)
                    self._charged -= credit
                    if credit > 0:
                        self.cm.update(self.flow, FeedbackReport(
                            credit, credit, NO_LOSS))
            return
        sample = None
        if self._timed is not None and ack >= self._timed[0]:
            if not self._timed_rtx:
                sample = now - self._timed[1]
            self._timed = None
        self.snd_una = ack
        while self.rtx and self.rtx[0][1] <= self.snd_una:
            self.rtx.popleft()
        self.dup_acks = 0
        self.backoff = 1
        # Resolve every charge at or below the ack point, but none of the
        # bytes still in flight beyond it; this re-syncs the charge account
        # with the unacked sequence span after a recovery episode, where
        # dupack credits and retransmission charges have pulled them apart.
        credit = max(0, self._charged - (self.snd_nxt - self.snd_una))
        self._charged -= credit
        self.cm.update(self.flow, FeedbackReport(
            credit, credit, ECN if info.ece else NO_LOSS, sample))
        self._top_up()
        if self.snd_nxt > self.snd_una:
            self._rto.arm(min(self.cm.rto_estimate(self.flow) * self.backoff,
                              MAX_RTO))
        else:
            self._rto.stop()
        if not self._completed and self.total > 0 and self.snd_una >= self.total:
            self._completed = True
            if self.on_complete is not None:
                self.on_complete(now)
