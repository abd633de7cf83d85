"""Application-level acknowledgment path: ack batching by count and by
timer, and the sender-side mapping from acks back to feedback reports
(loss horizon, RTT sampling, ECN echo). An ack lists its seqs in arrival
order; the range codec acks once used is kept here as a reference, and
the tracker must resolve any seq list as decoding its ranges did.
"""
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmsim.core import FeedbackReport, LossMode
from cmsim.sim import EventLoop, Link, Packet, PacketKind
from cmsim.transport.feedback import (REORDER_PACKETS, AppAck, AppAckReceiver,
                                      FeedbackTracker)


def data(seq, size=150, marked=False):
    return Packet(flow=1, seq=seq, size=size, ecn_marked=marked)


def fast_link(loop, sink=None):
    link = Link(loop, bandwidth_bps=1e9, prop_delay=0.0, queue_limit=10**6)
    link.sink = sink
    return link


# -- the reference range codec --------------------------------------------


def _compress(seqs: List[int]) -> Tuple[Tuple[int, int], ...]:
    """The seqs of a flush as sorted, disjoint (lo, hi) inclusive ranges,
    as acks once carried them."""
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
    rcv = AppAckReceiver(loop, fast_link(loop, lambda p, t: acks.append(p)),
                         flow=1, max_acks=3, max_delay=1.0)
    for seq in (0, 1, 2):
        rcv.on_data(data(seq), loop.now)
    loop.run_until(2.0)
    assert len(acks) == 1
    ack = acks[0].meta
    assert isinstance(ack, AppAck)
    assert ack.seqs == (0, 1, 2)
    assert ack.highest_seen == 2
    assert acks[0].kind == PacketKind.APP_ACK


def test_flush_on_timer_before_count_reached():
    loop = EventLoop()
    acks = []
    rcv = AppAckReceiver(loop, fast_link(loop, lambda p, t: acks.append(p)),
                         flow=1, max_acks=500, max_delay=0.25)
    rcv.on_data(data(0), 0.0)
    rcv.on_data(data(1), 0.0)
    loop.run_until(0.2)
    assert acks == []
    loop.run_until(0.3)
    assert len(acks) == 1
    assert acks[0].meta.seqs == (0, 1)


def test_flush_timer_fires_once_at_its_last_arming():
    """A flush by count stops the timer; the next packet arms it again,
    later than the stopped deadline, and it fires once, at the new one.
    The ack path records the instant of each flush."""
    loop = EventLoop()
    acks = []
    flushes = SimpleNamespace(
        send=lambda p: acks.append((loop.now, p.meta.seqs)))
    rcv = AppAckReceiver(loop, flushes, flow=1, max_acks=2, max_delay=0.25)
    for seq, t in enumerate((0.0, 0.0625, 0.125)):
        loop.schedule(t, rcv.on_data, data(seq), t)
    loop.run_until(2.0)
    assert acks == [(0.0625, (0, 1)), (0.125 + 0.25, (2,))]


@pytest.mark.parametrize("kwargs", [
    {"max_acks": 0}, {"max_acks": 2.9}, {"max_acks": True},
    {"max_delay": -1.0}, {"max_delay": float("nan")},
    {"max_acks": 4}, {"max_acks": 4, "max_delay": float("inf")},
], ids=["acks-0", "acks-float", "acks-bool", "delay-neg", "delay-nan",
        "batch-without-timer", "batch-with-endless-timer"])
def test_receiver_rejects_bad_batching(kwargs):
    """Each was once taken silently: 0 became 1, 2.9 became 2, and a
    negative or NaN delay was kept. A batch of more than one ack with no
    finite timer (delay 0 or inf) is never flushed once its sender's
    window is unacked, which wedges the sender."""
    loop = EventLoop()
    with pytest.raises(ValueError):
        AppAckReceiver(loop, fast_link(loop), flow=1, **kwargs)


def test_each_batch_reports_only_new_seqs():
    loop = EventLoop()
    acks = []
    rcv = AppAckReceiver(loop, fast_link(loop, lambda p, t: acks.append(p)),
                         flow=1, max_acks=2, max_delay=1.0)
    for seq in (0, 1, 2, 3):
        rcv.on_data(data(seq), loop.now)
    loop.run_until(2.0)
    assert [a.meta.seqs for a in acks] == [(0, 1), (2, 3)]


def test_ack_lists_seqs_in_arrival_order_with_duplicates():
    loop = EventLoop()
    acks = []
    rcv = AppAckReceiver(loop, fast_link(loop, lambda p, t: acks.append(p)),
                         flow=1, max_acks=4, max_delay=1.0)
    for seq in (3, 1, 3, 2):
        rcv.on_data(data(seq), loop.now)
    loop.run_until(2.0)
    assert acks[0].meta.seqs == (3, 1, 3, 2)
    assert acks[0].meta.highest_seen == 3


def test_receiver_counts_marked_packets():
    loop = EventLoop()
    acks = []
    rcv = AppAckReceiver(loop, fast_link(loop, lambda p, t: acks.append(p)),
                         flow=1, max_acks=3, max_delay=1.0)
    rcv.on_data(data(0), 0.0)
    rcv.on_data(data(1, marked=True), 0.0)
    rcv.on_data(data(2, marked=True), 0.0)
    loop.run_until(2.0)
    assert acks[0].meta.marked == 2
    # the mark counter resets with each flush
    for seq in (3, 4, 5):
        rcv.on_data(data(seq), loop.now)
    loop.run_until(4.0)
    assert acks[1].meta.marked == 0


# -- sender-side tracker --------------------------------------------------


def ack(seqs, highest, marked=0):
    return AppAck(seqs=seqs, highest_seen=highest, marked=marked)


def test_clean_ack_yields_no_loss_report():
    tr = FeedbackTracker()
    for s in range(3):
        tr.on_sent(s, 150, now=0.0)
    rep = tr.on_app_ack(ack((0, 1, 2), 2), now=0.05)
    assert rep.nsent == rep.nrecd == 450
    assert rep.lossmode == LossMode.NO_LOSS
    assert rep.rtt == pytest.approx(0.05)


def test_gap_beyond_reorder_horizon_is_lost():
    tr = FeedbackTracker()
    for s in range(6):
        tr.on_sent(s, 150, now=0.0)
    # seq 2 missing, highest 5: 5 - 3 >= 2, so it counts as lost
    rep = tr.on_app_ack(ack((0, 1, 3, 4, 5), 5), now=0.1)
    assert rep.nrecd == 5 * 150
    assert rep.nsent == 6 * 150
    assert rep.lossmode == LossMode.TRANSIENT
    # seq 2 was resolved as lost, not left pending: a late ack adds nothing
    assert tr.on_app_ack(ack((2,), 5), now=0.2) is None


def test_recent_gap_waits_for_reordering():
    tr = FeedbackTracker()
    for s in range(3):
        tr.on_sent(s, 150, now=0.0)
    # seq 1 missing but highest is 2: within the 3-packet horizon
    rep = tr.on_app_ack(ack((0, 2), 2), now=0.1)
    assert rep.lossmode == LossMode.NO_LOSS
    assert rep.nsent == rep.nrecd == 300
    # the straggler can still be acked later
    rep = tr.on_app_ack(ack((1,), 2), now=0.2)
    assert rep.nrecd == 150
    assert rep.lossmode == LossMode.NO_LOSS
    # and then nothing is pending: acking all three again adds nothing
    assert tr.on_app_ack(ack((0, 1, 2), 2), now=0.3) is None


def test_marked_ack_yields_ecn_report():
    tr = FeedbackTracker()
    tr.on_sent(0, 150, now=0.0)
    rep = tr.on_app_ack(ack((0,), 0, marked=1), now=0.1)
    assert rep.lossmode == LossMode.ECN
    assert rep.nrecd == 150


def test_loss_dominates_marks():
    tr = FeedbackTracker()
    for s in range(5):
        tr.on_sent(s, 150, now=0.0)
    rep = tr.on_app_ack(ack((0, 4), 4, marked=2), now=0.1)
    assert rep.lossmode == LossMode.TRANSIENT


def test_rtt_sample_comes_from_newest_acked():
    tr = FeedbackTracker()
    tr.on_sent(0, 150, now=0.0)
    tr.on_sent(1, 150, now=0.4)
    rep = tr.on_app_ack(ack((0, 1), 1), now=0.5)
    assert rep.rtt == pytest.approx(0.1)


def test_rtt_sample_comes_from_highest_seq_whatever_the_order():
    tr = FeedbackTracker()
    tr.on_sent(0, 150, now=0.0)
    tr.on_sent(1, 150, now=0.4)
    rep = tr.on_app_ack(ack((1, 0), 1), now=0.5)
    assert rep.rtt == pytest.approx(0.1)


def test_ack_covering_nothing_returns_none():
    tr = FeedbackTracker()
    assert tr.on_app_ack(ack((5, 6, 7, 8, 9), 9), now=0.1) is None


def test_duplicate_ack_ranges_are_ignored():
    tr = FeedbackTracker()
    tr.on_sent(0, 150, now=0.0)
    assert tr.on_app_ack(ack((0,), 0), now=0.1) is not None
    assert tr.on_app_ack(ack((0,), 0), now=0.2) is None


def test_duplicate_seq_in_one_ack_counts_once():
    tr = FeedbackTracker()
    tr.on_sent(0, 150, now=0.0)
    tr.on_sent(1, 150, now=0.0)
    rep = tr.on_app_ack(ack((1, 0, 1, 1), 1), now=0.1)
    assert rep.nsent == rep.nrecd == 300


# -- against the reference trackers ---------------------------------------


class RangeTracker:
    """The tracker when acks carried ranges: the receiver compressed the
    seqs of each flush with _compress and the tracker expanded the ranges
    again. Kept as the reference for resolving a seq list directly."""

    def __init__(self) -> None:
        self._unresolved: Dict[int, Tuple[int, float]] = {}

    def on_sent(self, seq: int, size: int, now: float) -> None:
        self._unresolved[seq] = (size, now)

    def on_app_ack(self, ack: AppAck, now: float) -> Optional[FeedbackReport]:
        unresolved = self._unresolved
        nrecd = 0
        newest: Optional[int] = None
        newest_sent = 0.0
        for lo, hi in _compress(list(ack.seqs)):
            for s in range(lo, hi + 1):
                entry = unresolved.pop(s, None)
                if entry is not None:
                    nrecd += entry[0]
                    if newest is None or s > newest:
                        newest, newest_sent = s, entry[1]
        horizon = ack.highest_seen - REORDER_PACKETS
        lost = lost_bytes = 0
        lost_sent_at = None
        while unresolved:
            s = next(iter(unresolved))
            if s > horizon:
                break
            lost += 1
            size, sent_at = unresolved.pop(s)
            lost_bytes += size
            lost_sent_at = sent_at if lost_sent_at is None \
                else max(lost_sent_at, sent_at)
        nsent = nrecd + lost_bytes
        if nsent == 0:
            return None
        rtt = None if newest is None else now - newest_sent
        if lost:
            mode = LossMode.TRANSIENT
        elif ack.marked > 0:
            mode = LossMode.ECN
        else:
            mode = LossMode.NO_LOSS
        return FeedbackReport(nsent=nsent, nrecd=nrecd, lossmode=mode, rtt=rtt,
                              lost_sent_at=lost_sent_at)


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
        acked = [s for s in dict.fromkeys(ack.seqs) if s in self._unresolved]
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
        lost_sent_at = max((self._unresolved[s][1] for s in lost),
                           default=None)
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
        return FeedbackReport(nsent=nsent, nrecd=nrecd, lossmode=mode, rtt=rtt,
                              lost_sent_at=lost_sent_at)


SEND = st.tuples(st.just("send"), st.integers(1, 3), st.integers(1, 1500))
ACK = st.tuples(st.just("ack"), st.lists(st.integers(0, 40), max_size=12),
                st.integers(-1, 45), st.integers(0, 2))
STEPS = st.lists(st.one_of(SEND, ACK), max_size=30)
EXAMPLE = [("send", 1, 100), ("send", 1, 200), ("send", 1, 300),
           ("send", 1, 400), ("ack", [4, 1, 4], 8, 0),
           ("ack", [3, 2, 99, 2], 9, 1)]


def replay(steps, ref) -> None:
    """Sends use increasing seqs with gaps; each ack lists a drawn seq
    list, in any order, with duplicates and seqs never sent, already
    acked or already lost, and a drawn highest_seen. After every ack the
    tracker and ref give the same report and hold the same seqs, in the
    same order, so the same ones resolve as lost later."""
    new = FeedbackTracker()
    seq, now = 0, 0.0
    for step in steps:
        now += 0.01
        if step[0] == "send":
            _, gap, size = step
            seq += gap
            new.on_sent(seq, size, now)
            ref.on_sent(seq, size, now)
            continue
        _, seqs, highest, marked = step
        a = AppAck(seqs=tuple(seqs), highest_seen=highest, marked=marked)
        assert new.on_app_ack(a, now) == ref.on_app_ack(a, now)
        assert list(new._unresolved.items()) == list(ref._unresolved.items())


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(STEPS)
@example(EXAMPLE)
def test_seq_list_tracker_matches_range_decoding(steps):
    replay(steps, RangeTracker())


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(STEPS)
@example(EXAMPLE)
def test_one_pass_tracker_matches_two_pass_reference(steps):
    replay(steps, TwoPassTracker())


# -- end-to-end over a link ----------------------------------------------


def test_batching_over_a_real_reverse_path():
    loop = EventLoop()
    reports = []
    tr = FeedbackTracker()
    fwd = Link(loop, bandwidth_bps=1e6, prop_delay=0.01, queue_limit=100)
    rev = Link(loop, bandwidth_bps=1e6, prop_delay=0.01, queue_limit=100)
    rcv = AppAckReceiver(loop, rev, flow=1, max_acks=4, max_delay=1.0)
    fwd.sink = rcv.on_data

    def on_ack(pkt, now):
        rep = tr.on_app_ack(pkt.meta, now)
        if rep is not None:
            reports.append(rep)

    rev.sink = on_ack
    for s in range(8):
        tr.on_sent(s, 500, now=loop.now)
        fwd.send(Packet(flow=1, seq=s, size=500))
    loop.run_until(2.0)
    assert len(reports) == 2
    assert all(r.lossmode == LossMode.NO_LOSS for r in reports)
    assert sum(r.nrecd for r in reports) == 8 * 500
    assert all(r.rtt > 0.02 for r in reports)
