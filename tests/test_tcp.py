"""Reliable stream transport with windowing delegated to the shared
manager: handshake, per-chunk grant requests, fast retransmit on triple
duplicate ACKs, timeout recovery with backoff, the retransmission
deadline after a long ACK run (also for the Reno reference sender),
Karn's rule for RTT samples, the receiver window bound, ECN echo,
immediate ACKs, timers that stop without cancelling heap entries, and
the segment size checked against the link's MTU.
"""
from types import SimpleNamespace

import pytest

from cmsim.core import CongestionManager, FlowKey, LossMode, Proto
from cmsim.errors import ConnectionClosed, UnknownFlow
from cmsim.harness.oracles import RenoSender
from cmsim.sim import EventLoop, Link, Packet, PacketKind, ScheduledEvent
from cmsim.trace import Tracer
from cmsim.transport import tcp
from cmsim.transport.tcp import MAX_RTO, TcpReceiver, TcpSender

MSS = 1500


class DropFilter:
    """Wraps a link, silently swallowing packets a predicate selects.

    Lets tests script exact loss patterns instead of relying on a
    seeded random stream.
    """

    def __init__(self, link, loop, should_drop):
        self.link = link
        self.mtu = link.mtu
        self.loop = loop
        self.should_drop = should_drop
        self.offered = []    # (seq, t) of every data packet handed to us
        self.dropped = []

    def send(self, pkt):
        if pkt.kind is PacketKind.DATA:
            self.offered.append((pkt.seq, self.loop.now))
        if self.should_drop(pkt, self.loop.now):
            self.dropped.append((pkt.seq, self.loop.now))
            return None
        return self.link.send(pkt)


def build(loop, total=None, loss=0.0, ecn=False, seed=1, handshake=False,
          drop=None, bw=10_000_000, delay=0.01, queue=100):
    """handshake=False starts the sender established, with no SYN
    exchange."""
    cm = CongestionManager(clock=lambda: loop.now)
    modes = []
    real_update = cm.update

    def spying_update(fid, rep):
        modes.append(rep.lossmode)
        real_update(fid, rep)

    cm.update = spying_update
    fwd = Link(loop, bw, delay, queue_limit=queue, loss_prob=loss,
               ecn_mode=ecn, seed=seed, name="fwd")
    rev = Link(loop, bw, delay, queue_limit=queue, name="rev")
    sender_path = DropFilter(fwd, loop, drop) if drop else fwd
    done = []
    s = TcpSender(cm, FlowKey("c", 1, "srv", 80, Proto.TCP), sender_path,
                  loop, Tracer(), on_complete=done.append)
    s.established = not handshake
    r = TcpReceiver(loop, rev, s.flow)
    fwd.sink = r.on_data
    rev.sink = s.on_ack
    if total is not None:
        s.write(total)
    s.start()
    return SimpleNamespace(cm=cm, s=s, r=r, done=done, modes=modes,
                           fwd=fwd, rev=rev,
                           filt=sender_path if drop else None)


def test_clean_transfer_completes_in_order():
    loop = EventLoop()
    b = build(loop, total=64 * 1024)
    loop.run_until(30.0)
    assert len(b.done) == 1
    assert b.r.rcv_nxt == 64 * 1024
    assert b.s.snd_una == 64 * 1024


def test_write_issues_one_request_per_mss_chunk():
    loop = EventLoop()
    b = build(loop)
    b.s.write(4500)
    assert b.cm.op_counts["request"] == 3


def test_handshake_defers_requests_until_established():
    loop = EventLoop()
    b = build(loop, total=3000, handshake=True)
    assert b.cm.op_counts.get("request", 0) == 0
    loop.run_until(10.0)
    assert b.cm.op_counts["request"] >= 2
    assert len(b.done) == 1


def test_syn_is_retried_until_answered():
    loop = EventLoop()
    drop = lambda pkt, now: pkt.meta == "syn" and now < 0.5
    b = build(loop, total=3000, handshake=True, drop=drop)
    loop.run_until(10.0)
    assert len(b.done) == 1
    # the syn at t=0 was swallowed; the retry after one second got through
    assert len(b.filt.dropped) == 1


def test_handshake_connection_cancels_no_event(monkeypatch):
    """Establishment and close stop the SYN timer and the RTO in place:
    their heap entries pop as no-ops, and none is cancelled."""
    cancelled = []
    real_cancel = ScheduledEvent.cancel

    def counting_cancel(ev):
        cancelled.append(ev.time)
        real_cancel(ev)

    monkeypatch.setattr(ScheduledEvent, "cancel", counting_cancel)
    loop = EventLoop()
    b = build(loop, total=MSS, handshake=True)
    loop.run_until(5.0)
    assert len(b.done) == 1
    b.s.close()
    loop.run_until(10.0)
    assert cancelled == []


def test_an_ack_carries_rcv_nxt_in_seq_and_the_ecn_echo_in_meta():
    """An ACK's seq is the receiver's rcv_nxt and its meta the ECN echo,
    a bool: a CE-marked segment sets it on the ACK that answers that
    segment only."""
    loop = EventLoop()
    acks = []
    rev = Link(loop, 1e9, 0.0, queue_limit=100)
    rev.sink = lambda p, t: acks.append((p.seq, p.meta))
    r = TcpReceiver(loop, rev, flow=1)
    r.on_data(Packet(flow=1, seq=0, size=1500), 0.0)
    r.on_data(Packet(flow=1, seq=1500, size=1500, ecn_marked=True), 0.0)
    r.on_data(Packet(flow=1, seq=3000, size=1500), 0.0)
    loop.run_until(1.0)
    assert acks == [(1500, False), (3000, True), (4500, False)]
    assert r.rcv_nxt == 4500
    assert all(type(meta) is bool for _, meta in acks)


def test_transfer_survives_random_loss():
    loop = EventLoop()
    b = build(loop, total=120 * 1024, loss=0.05, seed=9)
    loop.run_until(120.0)
    assert len(b.done) == 1
    assert b.r.rcv_nxt == 120 * 1024
    assert b.s._charged == 0
    assert b.s.snd_nxt == b.s.snd_una


def test_triple_dupack_triggers_one_fast_retransmit():
    loop = EventLoop()
    # Deep enough into the transfer that several segments follow the hole
    # and produce three duplicate ACKs before the retransmit timer fires.
    holes = {12000}

    def drop(pkt, now):
        if pkt.kind is PacketKind.DATA and pkt.seq in holes:
            holes.discard(pkt.seq)
            return True
        return False

    b = build(loop, total=60000, drop=drop)
    loop.run_until(30.0)
    assert len(b.done) == 1
    assert b.modes.count(LossMode.TRANSIENT) == 1
    assert LossMode.PERSISTENT not in b.modes
    # the hole was retransmitted exactly once
    assert len([1 for s, _ in b.filt.offered if s == 12000]) == 2


def test_timeout_reports_persistent_and_backs_off():
    loop = EventLoop()
    drop = lambda pkt, now: now < 2.5
    b = build(loop, total=1500, drop=drop)
    loop.run_until(30.0)
    assert len(b.done) == 1
    assert b.modes.count(LossMode.PERSISTENT) == 2
    times = [t for s, t in b.filt.offered if s == 0]
    # first send immediately, then timeouts at 1s and a doubled 2s later
    assert times == [pytest.approx(0.0, abs=0.05),
                     pytest.approx(1.0, abs=0.05),
                     pytest.approx(3.0, abs=0.05)]


def _first_retransmission(filt):
    """(seq, time) of the first data packet offered below the highest
    sequence already offered."""
    top = -1
    for seq, t in filt.offered:
        if seq < top:
            return seq, t
        top = max(top, seq)
    return None


def _ack_run_then_silence(loop, sender, filt, rev, rto_now):
    """Deliver every segment sent before t=1 s, then drop all data: the
    sender sees a long run of new-data ACKs, then nothing. Returns the
    arrival time of the last ACK and the RTO in force after it."""
    last = []
    real = sender.on_ack

    def on_ack(pkt, now):
        una = sender.snd_una
        real(pkt, now)
        if sender.snd_una > una:
            last[:] = [now, rto_now()]
    rev.sink = on_ack
    loop.run_until(20.0)
    assert len(filt.offered) > 500          # a long run: hundreds of re-arms
    return last


def test_timeout_follows_the_last_ack_of_a_long_run():
    loop = EventLoop()
    b = build(loop, total=10_000_000, drop=lambda pkt, now: now >= 1.0)
    t_last, rto = _ack_run_then_silence(
        loop, b.s, b.filt, b.rev,
        lambda: min(b.cm.rto_estimate(b.s.flow) * b.s.backoff, MAX_RTO))
    seq, t_rtx = _first_retransmission(b.filt)
    assert seq == b.s.snd_una
    assert t_rtx == t_last + rto
    assert b.modes.count(LossMode.PERSISTENT) >= 1


def test_reno_timeout_follows_the_last_ack_of_a_long_run():
    loop = EventLoop()
    fwd = Link(loop, 10_000_000, 0.01, queue_limit=100, name="fwd")
    rev = Link(loop, 10_000_000, 0.01, queue_limit=100, name="rev")
    filt = DropFilter(fwd, loop, lambda pkt, now: now >= 1.0)
    s = RenoSender(loop, 900, filt, tracer=Tracer())
    r = TcpReceiver(loop, rev, 900)
    fwd.sink = r.on_data
    s.start()
    t_last, rto = _ack_run_then_silence(
        loop, s, filt, rev,
        lambda: min(max(s.srtt + 4.0 * s.rttvar, 0.2), 60.0) * s.backoff)
    seq, t_rtx = _first_retransmission(filt)
    assert seq == s.snd_una
    assert t_rtx == t_last + rto


def test_no_rtt_sample_from_retransmitted_segment():
    loop = EventLoop()
    drop = lambda pkt, now: now < 0.5
    b = build(loop, total=1500, drop=drop)
    loop.run_until(5.0)
    assert len(b.done) == 1
    assert b.cm.rtt_estimate(b.s.flow)[0] == 0.0
    b.s.write(1500)          # a fresh, never-retransmitted segment
    loop.run_until(10.0)
    assert b.s.snd_una == 3000
    assert b.cm.rtt_estimate(b.s.flow)[0] > 0.0


def test_receiver_window_bounds_unacked_bytes(monkeypatch):
    monkeypatch.setattr(tcp, "MAX_WINDOW", 4500)
    loop = EventLoop()
    b = build(loop, total=60000)
    flights = []

    def sample():
        flights.append(b.s.snd_nxt - b.s.snd_una)
        if loop.now < 20.0:
            loop.schedule_after(0.002, sample)

    loop.schedule(0.0, sample)
    loop.run_until(30.0)
    assert len(b.done) == 1
    assert max(flights) <= 4500


def test_ecn_marks_cut_window_without_retransmission():
    loop = EventLoop()
    b = build(loop, total=90000, loss=0.2, ecn=True, seed=4)
    loop.run_until(60.0)
    assert len(b.done) == 1
    assert b.r.rcv_nxt == 90000
    assert LossMode.ECN in b.modes
    assert LossMode.TRANSIENT not in b.modes
    assert LossMode.PERSISTENT not in b.modes
    assert b.cm.macroflow_state(b.s.flow).ssthresh < 64 * 1024


def test_receiver_acks_out_of_order_data_immediately():
    loop = EventLoop()
    acks = []
    rev = Link(loop, 1e9, 0.0, queue_limit=100)
    rev.sink = lambda p, t: acks.append(p.seq)
    r = TcpReceiver(loop, rev, flow=1)
    r.on_data(Packet(flow=1, seq=1500, size=1500), 0.0)
    r.on_data(Packet(flow=1, seq=0, size=1500), 0.0)
    loop.run_until(1.0)
    assert acks == [0, 3000]


def test_write_after_close_raises():
    loop = EventLoop()
    b = build(loop, total=1500)
    loop.run_until(5.0)
    b.s.close()
    with pytest.raises(ConnectionClosed):
        b.s.write(100)
    with pytest.raises(UnknownFlow):
        b.cm.query(b.s.flow)


@pytest.mark.parametrize("nbytes", [-1, 2.9, 1500.0, True, "1500", None])
def test_write_refuses_a_size_that_is_no_nonnegative_int(nbytes):
    """A negative size would shrink the stream under data already sent,
    and a float would be truncated silently. The sender is left
    unchanged."""
    loop = EventLoop()
    b = build(loop, total=30000)
    with pytest.raises(ValueError):
        b.s.write(nbytes)
    assert b.s.total == 30000
    loop.run_until(5.0)
    assert b.r.rcv_nxt == 30000
    assert len(b.done) == 1


def test_write_of_zero_bytes_is_accepted():
    loop = EventLoop()
    b = build(loop, total=1500)
    b.s.write(0)
    loop.run_until(5.0)
    assert b.s.total == b.r.rcv_nxt == 1500
    assert len(b.done) == 1


def test_segment_larger_than_first_link_mtu_is_rejected_at_construction():
    """A core MTU above the link's would fail every full segment in
    Link.send, inside the grant callback and after its grant was spent.
    The sender refuses it up front and leaves its key free."""
    loop = EventLoop()
    cm = CongestionManager(mtu=1500)
    fwd = Link(loop, 10_000_000, 0.01, queue_limit=100, mtu=1000)
    key = FlowKey("c", 1, "srv", 80, Proto.TCP)
    with pytest.raises(ValueError):
        TcpSender(cm, key, fwd, loop, Tracer())
    assert cm.op_counts.get("cmapp_send", 0) == 0
    flow = cm.open(key)         # DuplicateFlow if the key were still held
    assert cm.macroflow_state(flow).members == (flow,)
