"""Independent reference implementations used to check the real stack.

Two oracles live here, both deliberately written without importing the
congestion core:

  * aimd_reference: a straight-line recomputation of the window rules from
    a feedback-report sequence. Used to pin expected cwnd traces exactly.
  * RenoSender: a minimal self-contained Reno-style TCP sender with its own
    windowing and RTO machinery. It shares only packet/link/receiver
    plumbing with the artifact and provides the classic-TCP baseline for
    throughput comparisons and shared-bottleneck runs.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..sim import DATA, Deadline, EventLoop, Link, Packet
from ..trace import SEND, Tracer

# Mirrors of the controller constants; restated here on purpose so a drift
# in either implementation shows up as a test failure, not silent agreement.
_DEF_MTU = 1500
_DEF_SSTHRESH = 64 * 1024
_INITIAL_RTO = 1.0

NO_LOSS, TRANSIENT, PERSISTENT, ECN = "no_loss", "transient", "persistent", "ecn"


Update = Tuple[int, int, str, float, Optional[float], int, Optional[float]]


def aimd_reference(updates: Sequence[Update],
                   mtu: int = _DEF_MTU) -> List[int]:
    """Recompute the cwnd trace for a report sequence, one entry per update.

    Each update is (nsent, nrecd, lossmode, now, rtt, member,
    lost_sent_at): the clock's time at the update, an RTT sample or None,
    the id of the reporting member and the send time of the newest byte
    lost or None. Returns cwnd (integer bytes) after every update.

    Window rules, restated independently of the implementation under test:
      - srtt is the first RTT sample, then 7/8 srtt + 1/8 sample, folded
        in before the window rules;
      - growth applies to no-loss reports with nrecd > 0;
      - slow start (cwnd < ssthresh): cwnd += nrecd, in full;
      - congestion avoidance: one mtu per cwnd bytes acked via a byte
        accumulator, reset on cuts and when leaving slow start;
      - transient/ecn: halve (floor 2*mtu) at most once per recovery epoch,
        where an epoch ends after one post-cut window of reported nsent,
        or once now - (time of the last cut) >= srtt (1 s before any
        sample);
      - but a transient whose lost_sent_at is before the last cut, from
        a member other than the one whose report made that cut, never
        halves;
      - persistent: halve ssthresh (floor 2*mtu), cwnd to one mtu, always.
    """
    cwnd = mtu
    ssthresh = _DEF_SSTHRESH
    acc = 0
    recovery_left = 0
    srtt = 0.0
    last_cut = float("-inf")
    cutter = None       # member whose report made the last cut
    trace: List[int] = []
    for nsent, nrecd, mode, now, rtt, member, lost_at in updates:
        if rtt is not None:
            srtt = rtt if srtt <= 0.0 else 0.875 * srtt + 0.125 * rtt
        recovery_left = max(0, recovery_left - nsent)
        if mode == NO_LOSS:
            if nrecd > 0:
                if cwnd < ssthresh:
                    cwnd += nrecd
                    if cwnd >= ssthresh:
                        acc = 0
                else:
                    acc += nrecd
                    while acc >= cwnd:
                        acc -= cwnd
                        cwnd += mtu
        elif mode in (TRANSIENT, ECN):
            stale = mode == TRANSIENT and lost_at is not None and \
                lost_at < last_cut and member != cutter
            if not stale and (recovery_left == 0 or now - last_cut >=
                              (srtt if srtt > 0.0 else _INITIAL_RTO)):
                ssthresh = max(cwnd // 2, 2 * mtu)
                cwnd = ssthresh
                acc = 0
                recovery_left = cwnd
                last_cut, cutter = now, member
        elif mode == PERSISTENT:
            ssthresh = max(cwnd // 2, 2 * mtu)
            cwnd = mtu
            acc = 0
            recovery_left = cwnd
            last_cut, cutter = now, member
        else:
            raise ValueError(f"unknown lossmode {mode}")
        trace.append(cwnd)
    return trace


class RenoSender:
    """Classic Reno-style sender with private windowing (bytes, float cwnd).

    Slow start counts ACKs (one mss per ACK), congestion avoidance adds
    mss*mss/cwnd per ACK, fast retransmit on the third dupack halves the
    window, timeouts collapse to one mss and retransmit the head segment
    with a doubling RTO. An unbounded source: every new segment is a full
    mss, the MTU of its link. It reads the ACK number from an ACK
    packet's ``seq`` and ignores the ECN echo. Intentionally not built on
    the congestion core. Each segment sent gets a Send row in tracer."""

    def __init__(self, loop: EventLoop, flow_id: int, data_path: Link, *,
                 tracer: Tracer) -> None:
        self.loop = loop
        self.flow_id = flow_id
        self.path = data_path
        self.mss = mss = data_path.mtu
        self.tracer = tracer
        self.cwnd = float(mss)
        self.ssthresh = float(_DEF_SSTHRESH)
        self.snd_una = 0
        self.snd_nxt = 0
        self.dup_acks = 0
        self.srtt = 0.0
        self.rttvar = 0.0
        self.backoff = 1
        self._timed: Optional[Tuple[int, float]] = None  # (end_seq, sent_at)
        self._timed_rtx = False
        self._rto = Deadline(loop, self._on_rto)

    def start(self) -> None:
        self._fill_window()

    # -- sending ----------------------------------------------------------

    def _fill_window(self) -> None:
        """Send new segments while a full one fits the window, then arm the
        RTO while data is in flight, or stop it."""
        now = self.loop.now
        mss = self.mss
        while self.snd_nxt - self.snd_una + mss <= self.cwnd:
            seq = self.snd_nxt
            self.tracer.emit(now, self.flow_id, SEND, seq, mss)
            if self._timed is None:
                self._timed = (seq + mss, now)
                self._timed_rtx = False
            self.path.send(Packet(self.flow_id, seq, mss, DATA))
            self.snd_nxt = seq + mss
        if self.snd_nxt > self.snd_una:
            base = 1.0 if self.srtt <= 0.0 else self.srtt + 4.0 * self.rttvar
            self._rto.arm(min(max(base, 0.2), 60.0) * self.backoff)
        else:
            self._rto.stop()

    def _retransmit(self, size: int) -> None:
        """Resend ``size`` bytes from the head of the window."""
        seq = self.snd_una
        self.tracer.emit(self.loop.now, self.flow_id, SEND, seq, size)
        if self._timed is not None and seq < self._timed[0]:
            self._timed_rtx = True
        self.path.send(Packet(self.flow_id, seq, size, DATA))

    # -- timers ------------------------------------------------------------

    def _on_rto(self) -> None:
        flight = self.snd_nxt - self.snd_una
        if flight <= 0:
            return
        self.ssthresh = max(flight / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)
        self.dup_acks = 0
        self.backoff = min(self.backoff * 2, 64)
        self._retransmit(min(self.mss, flight))
        # a one-mss window has no room while data is in flight, so this
        # sends nothing and re-arms the RTO
        self._fill_window()

    # -- receiving ---------------------------------------------------------

    def on_ack(self, pkt: Packet, now: float) -> None:
        ack = pkt.seq
        if ack < self.snd_una:
            return
        if ack == self.snd_una:
            flight = self.snd_nxt - self.snd_una
            if flight > 0:
                self.dup_acks += 1
                if self.dup_acks == 3:
                    self.ssthresh = max(flight / 2.0, 2.0 * self.mss)
                    self.cwnd = self.ssthresh + 3.0 * self.mss
                    self._retransmit(min(self.mss, flight))
                elif self.dup_acks > 3:
                    self.cwnd += self.mss
                    self._fill_window()
            return
        # new data acked
        if self._timed is not None and ack >= self._timed[0]:
            if not self._timed_rtx:
                sample = now - self._timed[1]
                if self.srtt <= 0.0:
                    self.srtt = sample
                    self.rttvar = sample / 2.0
                else:
                    self.rttvar = 0.75 * self.rttvar + 0.25 * abs(sample - self.srtt)
                    self.srtt = 0.875 * self.srtt + 0.125 * sample
            self._timed = None
        if self.dup_acks >= 3:
            self.cwnd = self.ssthresh  # deflate on recovery exit
        elif self.cwnd < self.ssthresh:
            self.cwnd += self.mss
        else:
            self.cwnd += self.mss * self.mss / self.cwnd
        self.dup_acks = 0
        self.backoff = 1
        self.snd_una = ack
        self._fill_window()
