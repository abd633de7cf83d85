"""Application-level acknowledgment path: range compression, ack
batching by count and by timer, and the sender-side mapping from acks
back to feedback reports (loss horizon, RTT sampling, ECN echo).
"""
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmsim.core import FeedbackReport, LossMode
from cmsim.sim import EventLoop, Link, Packet, PacketKind, Path
from cmsim.transport.feedback import (REORDER_PACKETS, AppAck, AppAckReceiver,
                                      FeedbackTracker, _compress)


def data(seq, size=150, marked=False, sent_at=0.0):
    return Packet(flow=1, seq=seq, size=size, ecn_marked=marked,
                  sent_at=sent_at)


def fast_path(loop, sink=None):
    return Path([Link(loop, bandwidth_bps=1e9, prop_delay=0.0,
                      queue_limit=10**6)], sink=sink)


# -- range compression ----------------------------------------------------


def test_compress_merges_runs():
    assert _compress([1, 2, 3, 5, 7, 8]) == ((1, 3), (5, 5), (7, 8))


def test_compress_sorts_and_dedupes():
    assert _compress([4, 1, 2, 2, 4]) == ((1, 2), (4, 4))


def test_compress_empty():
    assert _compress([]) == ()


# -- receiver batching ----------------------------------------------------


def test_flush_after_max_acks():
    loop = EventLoop()
    acks = []
    rcv = AppAckReceiver(loop, fast_path(loop, lambda p, t: acks.append(p)),
                         flow=1, max_acks=3)
    for seq in (0, 1, 2):
        rcv.on_data(data(seq), loop.now)
    loop.run()
    assert len(acks) == 1
    ack = acks[0].meta
    assert isinstance(ack, AppAck)
    assert ack.ranges == ((0, 2),)
    assert ack.highest_seen == 2
    assert acks[0].kind == PacketKind.APP_ACK


def test_flush_on_timer_before_count_reached():
    loop = EventLoop()
    acks = []
    rcv = AppAckReceiver(loop, fast_path(loop, lambda p, t: acks.append(p)),
                         flow=1, max_acks=500, max_delay=0.25)
    rcv.on_data(data(0), 0.0)
    rcv.on_data(data(1), 0.0)
    loop.run_until(0.2)
    assert acks == []
    loop.run_until(0.3)
    assert len(acks) == 1
    assert acks[0].meta.ranges == ((0, 1),)


def test_flush_timer_fires_once_at_its_last_arming():
    """A flush by count stops the timer; the next packet arms it again,
    later than the stopped deadline, and it fires once, at the new one."""
    loop = EventLoop()
    acks = []
    rcv = AppAckReceiver(loop, fast_path(
        loop, lambda p, t: acks.append((p.sent_at, p.meta.ranges))),
        flow=1, max_acks=2, max_delay=0.25)
    for seq, t in enumerate((0.0, 0.0625, 0.125)):
        loop.schedule(t, rcv.on_data, data(seq), t)
    loop.run_until(2.0)
    assert acks == [(0.0625, ((0, 1),)), (0.125 + 0.25, ((2, 2),))]


def test_each_batch_reports_only_new_seqs():
    loop = EventLoop()
    acks = []
    rcv = AppAckReceiver(loop, fast_path(loop, lambda p, t: acks.append(p)),
                         flow=1, max_acks=2)
    for seq in (0, 1, 2, 3):
        rcv.on_data(data(seq), loop.now)
    loop.run()
    assert [a.meta.ranges for a in acks] == [((0, 1),), ((2, 3),)]


def test_receiver_counts_marked_packets():
    loop = EventLoop()
    acks = []
    rcv = AppAckReceiver(loop, fast_path(loop, lambda p, t: acks.append(p)),
                         flow=1, max_acks=3)
    rcv.on_data(data(0), 0.0)
    rcv.on_data(data(1, marked=True), 0.0)
    rcv.on_data(data(2, marked=True), 0.0)
    loop.run()
    assert acks[0].meta.marked == 2
    # the mark counter resets with each flush
    for seq in (3, 4, 5):
        rcv.on_data(data(seq), loop.now)
    loop.run()
    assert acks[1].meta.marked == 0


# -- sender-side tracker --------------------------------------------------


def ack(ranges, highest, marked=0):
    return AppAck(ranges=ranges, highest_seen=highest, marked=marked)


def test_clean_ack_yields_no_loss_report():
    tr = FeedbackTracker()
    for s in range(3):
        tr.on_sent(s, 150, now=0.0)
    rep = tr.on_app_ack(ack(((0, 2),), 2), now=0.05)
    assert rep.nsent == rep.nrecd == 450
    assert rep.lossmode == LossMode.NO_LOSS
    assert rep.rtt == pytest.approx(0.05)


def test_gap_beyond_reorder_horizon_is_lost():
    tr = FeedbackTracker()
    for s in range(6):
        tr.on_sent(s, 150, now=0.0)
    # seq 2 missing, highest 5: 5 - 3 >= 2, so it counts as lost
    rep = tr.on_app_ack(ack(((0, 1), (3, 5)), 5), now=0.1)
    assert rep.nrecd == 5 * 150
    assert rep.nsent == 6 * 150
    assert rep.lossmode == LossMode.TRANSIENT
    assert tr.in_flight_pkts() == 0  # seq 2 resolved as lost, not pending


def test_recent_gap_waits_for_reordering():
    tr = FeedbackTracker()
    for s in range(3):
        tr.on_sent(s, 150, now=0.0)
    # seq 1 missing but highest is 2: within the 3-packet horizon
    rep = tr.on_app_ack(ack(((0, 0), (2, 2)), 2), now=0.1)
    assert rep.lossmode == LossMode.NO_LOSS
    assert rep.nsent == rep.nrecd == 300
    assert tr.in_flight_pkts() == 1
    # the straggler can still be acked later
    rep = tr.on_app_ack(ack(((1, 1),), 2), now=0.2)
    assert rep.nrecd == 150
    assert rep.lossmode == LossMode.NO_LOSS
    assert tr.in_flight_pkts() == 0


def test_marked_ack_yields_ecn_report():
    tr = FeedbackTracker()
    tr.on_sent(0, 150, now=0.0)
    rep = tr.on_app_ack(ack(((0, 0),), 0, marked=1), now=0.1)
    assert rep.lossmode == LossMode.ECN
    assert rep.nrecd == 150


def test_loss_dominates_marks():
    tr = FeedbackTracker()
    for s in range(5):
        tr.on_sent(s, 150, now=0.0)
    rep = tr.on_app_ack(ack(((0, 0), (4, 4)), 4, marked=2), now=0.1)
    assert rep.lossmode == LossMode.TRANSIENT


def test_rtt_sample_comes_from_newest_acked():
    tr = FeedbackTracker()
    tr.on_sent(0, 150, now=0.0)
    tr.on_sent(1, 150, now=0.4)
    rep = tr.on_app_ack(ack(((0, 1),), 1), now=0.5)
    assert rep.rtt == pytest.approx(0.1)


def test_ack_covering_nothing_returns_none():
    tr = FeedbackTracker()
    assert tr.on_app_ack(ack(((5, 9),), 9), now=0.1) is None


def test_duplicate_ack_ranges_are_ignored():
    tr = FeedbackTracker()
    tr.on_sent(0, 150, now=0.0)
    assert tr.on_app_ack(ack(((0, 0),), 0), now=0.1) is not None
    assert tr.on_app_ack(ack(((0, 0),), 0), now=0.2) is None


# -- against the two-pass tracker -----------------------------------------


class TwoPassTracker:
    """The tracker before it resolved each ack in one pass: it listed the
    acked seqs, then the lost ones, summed each list and deleted both.
    Kept as the reference for the one-pass tracker."""

    def __init__(self, reorder_packets: int = REORDER_PACKETS) -> None:
        self.reorder_packets = reorder_packets
        self._unresolved: Dict[int, Tuple[int, float]] = {}

    def on_sent(self, seq: int, size: int, now: float) -> None:
        self._unresolved[seq] = (size, now)

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
        nsent = nrecd + lost_bytes
        if nsent == 0:
            return None
        if lost:
            mode = LossMode.TRANSIENT
        elif ack.marked > 0:
            mode = LossMode.ECN
        else:
            mode = LossMode.NO_LOSS
        return FeedbackReport(nsent=nsent, nrecd=nrecd, lossmode=mode, rtt=rtt)


SEND = st.tuples(st.just("send"), st.integers(1, 3), st.integers(1, 1500))
ACK = st.tuples(st.just("ack"), st.lists(st.integers(0, 40), max_size=12),
                st.integers(-1, 45), st.integers(0, 2), st.booleans())


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.one_of(SEND, ACK), max_size=30))
@example([("send", 1, 100), ("send", 1, 200), ("send", 1, 300),
          ("send", 1, 400), ("ack", [1, 4], 8, 0, True),
          ("ack", [2, 3], 9, 1, False)])
def test_one_pass_tracker_matches_two_pass_reference(steps):
    """Sends use increasing seqs with gaps; each ack acks a drawn set of
    seqs (some never sent, already acked or already lost) as disjoint
    ranges, sometimes in reverse order, with a drawn highest_seen."""
    new, ref = FeedbackTracker(), TwoPassTracker()
    seq, now = 0, 0.0
    for step in steps:
        now += 0.01
        if step[0] == "send":
            _, gap, size = step
            seq += gap
            new.on_sent(seq, size, now)
            ref.on_sent(seq, size, now)
            continue
        _, seqs, highest, marked, reverse = step
        ranges = _compress(seqs)
        if reverse:
            ranges = ranges[::-1]
        a = AppAck(ranges=ranges, highest_seen=highest, marked=marked)
        assert new.on_app_ack(a, now) == ref.on_app_ack(a, now)
        # same seqs still pending, so the same ones resolved as lost
        assert new._unresolved == ref._unresolved


# -- end-to-end over a link ----------------------------------------------


def test_batching_over_a_real_reverse_path():
    loop = EventLoop()
    reports = []
    tr = FeedbackTracker()
    fwd = Path([Link(loop, bandwidth_bps=1e6, prop_delay=0.01,
                     queue_limit=100)])
    rev = Path([Link(loop, bandwidth_bps=1e6, prop_delay=0.01,
                     queue_limit=100)])
    rcv = AppAckReceiver(loop, rev, flow=1, max_acks=4)
    fwd.set_sink(rcv.on_data)

    def on_ack(pkt, now):
        rep = tr.on_app_ack(pkt.meta, now)
        if rep is not None:
            reports.append(rep)

    rev.set_sink(on_ack)
    for s in range(8):
        tr.on_sent(s, 500, now=loop.now)
        fwd.send(Packet(flow=1, seq=s, size=500, sent_at=loop.now))
    loop.run()
    assert len(reports) == 2
    assert all(r.lossmode == LossMode.NO_LOSS for r in reports)
    assert sum(r.nrecd for r in reports) == 8 * 500
    assert all(r.rtt > 0.02 for r in reports)
