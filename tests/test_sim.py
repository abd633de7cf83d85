"""Event loop and link emulation: ordering, restartable deadlines,
serialization and propagation timing, drop-tail queueing, seeded
Bernoulli loss, ECN marking, bandwidth changes, multi-hop paths, and
packet conservation as seen through send outcomes, the sink and the
trace.
"""
import sys

import pytest

from cmsim.errors import PastTime
from cmsim.sim import (Deadline, Dispatcher, EventLoop, Link, LinkOutcome,
                       Packet, PacketKind, Path, ScheduledEvent)
from cmsim.trace import TraceKind, Tracer


NAN = float("nan")


def pkt(seq=0, size=1500, flow=1, kind=PacketKind.DATA):
    return Packet(flow=flow, seq=seq, size=size, kind=kind)


# -- event loop -----------------------------------------------------------


def test_events_run_in_time_order():
    loop = EventLoop()
    out = []
    loop.schedule(0.3, out.append, "late")
    loop.schedule(0.1, out.append, "early")
    loop.schedule(0.2, out.append, "mid")
    loop.run()
    assert out == ["early", "mid", "late"]


def test_simultaneous_events_keep_schedule_order():
    loop = EventLoop()
    out = []
    for i in range(5):
        loop.schedule(1.0, out.append, i)
    loop.run()
    assert out == [0, 1, 2, 3, 4]


def test_schedule_in_the_past_raises():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run_until(1.0)
    with pytest.raises(PastTime):
        loop.schedule(0.5, lambda: None)


def test_nan_time_is_refused_and_later_events_still_run():
    """A NaN time compares false with everything; once in the heap it
    would sort before every later event and leave them all unrun."""
    loop = EventLoop()
    out = []
    with pytest.raises(PastTime):
        loop.schedule(NAN, out.append, "nan")
    with pytest.raises(PastTime):
        loop.schedule_after(NAN, out.append, "nan")
    with pytest.raises(PastTime):
        loop.run_until(NAN)
    loop.schedule(1.0, out.append, "one")
    loop.run_until(2.0)
    assert out == ["one"]
    assert loop.now == 2.0


def test_run_until_is_inclusive_and_advances_clock():
    loop = EventLoop()
    out = []
    loop.schedule(2.0, out.append, "at")
    loop.schedule(2.00001, out.append, "after")
    loop.run_until(2.0)
    assert out == ["at"]
    assert loop.now == 2.0
    loop.run_until(3.0)
    assert out == ["at", "after"]
    assert loop.now == 3.0


def test_cancelled_event_does_not_fire():
    loop = EventLoop()
    out = []
    ev = loop.schedule(1.0, out.append, "no")
    loop.schedule(1.0, out.append, "yes")
    ev.cancel()
    loop.run()
    assert out == ["yes"]


def test_schedule_makes_one_python_call_and_the_handle_keeps_its_fields():
    # the handle is built without an __init__ frame; perfbench's spans
    # wrap ScheduledEvent.cancel and read the handle's cancelled and fn
    loop = EventLoop()
    loop.run_until(2.0)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        ev = loop.schedule(3.0, max, 1, 2)
    finally:
        sys.setprofile(None)
    assert calls == ["schedule"]
    assert (ev.time, ev.fn, ev.args, ev.cancelled, ev.inserted) == (
        3.0, max, (1, 2), False, 2.0)
    assert set(ScheduledEvent.__slots__) == {
        "time", "fn", "args", "cancelled", "inserted"}
    assert "cancel" in ScheduledEvent.__dict__
    ev.cancel()
    assert ev.cancelled is True


def test_schedule_after_is_relative_to_now():
    loop = EventLoop()
    times = []
    loop.schedule(1.5, lambda: loop.schedule_after(0.25, lambda: times.append(loop.now)))
    loop.run()
    assert times == [1.75]


def test_events_scheduled_from_a_running_event_queue_behind_equal_times():
    loop = EventLoop()
    out = []

    def first():
        out.append("first")
        loop.schedule(1.0, out.append, "nested-a")
        loop.schedule(1.0, out.append, "nested-b")

    loop.schedule(1.0, first)
    loop.schedule(1.0, out.append, "second")
    loop.schedule(1.0, out.append, "third")
    loop.run()
    assert out == ["first", "second", "third", "nested-a", "nested-b"]


def test_cancelled_head_is_skipped_by_run_until():
    loop = EventLoop()
    out = []
    loop.schedule(1.0, out.append, "head").cancel()
    loop.schedule(2.0, out.append, "next")
    loop.run_until(1.5)
    assert out == []
    assert loop.now == 1.5
    loop.run_until(2.0)
    assert out == ["next"]


def _mixed_schedule(loop, out):
    """Equal and distinct times, cancellations, and events that schedule
    more events at their own instant and later."""
    def spawn(tag, depth):
        out.append((loop.now, tag))
        if depth:
            loop.schedule_after(0.0, spawn, tag + "z", depth - 1)
            loop.schedule_after(0.5, spawn, tag + "l", depth - 1)

    for i in range(12):
        ev = loop.schedule(float(i % 4), spawn, f"e{i}", 2)
        if i % 5 == 3:
            ev.cancel()


def test_run_and_run_until_drain_the_same_sequence():
    a, b = EventLoop(), EventLoop()
    out_a, out_b = [], []
    for loop, out in ((a, out_a), (b, out_b)):
        _mixed_schedule(loop, out)
        loop.schedule(9.0, out.append, "cancelled").cancel()
    a.run()
    for t in (0.0, 0.5, 1.25, 2.0, 3.0, 10.0):
        b.run_until(t)
    assert out_a == out_b
    assert len(out_a) == 7 * 10      # 10 live roots, 7 calls per tree
    # run() stops at the last event it ran, run_until(t) at t; both leave
    # the insertion instant at +inf, since every due event has run
    assert a.now == out_a[-1][0] == 4.0
    assert b.now == 10.0
    assert a.inserted == b.inserted == float("inf")


# -- restartable deadline -------------------------------------------------


def _deadline(loop):
    fired = []
    return Deadline(loop, lambda: fired.append(loop.now)), fired


def _live_entries(loop):
    return sum(not ev.cancelled for _, _, ev in loop._heap)


def test_deadline_moved_later_fires_at_the_last_one_set():
    loop = EventLoop()
    d, fired = _deadline(loop)
    d.arm(1.0)
    loop.run_until(0.4)
    d.arm(1.0)                 # deadline 1.4
    loop.run_until(0.9)
    d.arm(1.0)                 # deadline 1.9
    loop.run_until(5.0)
    assert fired == [0.9 + 1.0]
    assert d.at is None


def test_deadline_moved_earlier_fires_at_the_earlier_time():
    loop = EventLoop()
    d, fired = _deadline(loop)
    d.arm(3.0)
    loop.run_until(0.5)
    d.arm(0.25)                # deadline 0.75, before the entry at 3.0
    loop.run_until(5.0)
    assert fired == [0.5 + 0.25]


def test_deadline_stop_then_rearm_fires_once():
    loop = EventLoop()
    d, fired = _deadline(loop)
    d.arm(1.0)
    loop.run_until(0.5)
    d.stop()
    assert d.at is None
    loop.run_until(0.8)
    d.arm(1.0)
    loop.run_until(5.0)
    assert fired == [0.8 + 1.0]


def test_stopped_deadline_never_fires():
    loop = EventLoop()
    d, fired = _deadline(loop)
    d.arm(1.0)
    d.stop()
    loop.run()
    assert fired == []


def test_deadline_callback_may_rearm():
    loop = EventLoop()
    fired = []

    def on_fire():
        fired.append(loop.now)
        if len(fired) < 3:
            d.arm(1.0)

    d = Deadline(loop, on_fire)
    d.arm(1.0)
    loop.run()
    assert fired == [1.0, 2.0, 3.0]


def test_thousand_rearms_leave_at_most_one_live_entry():
    loop = EventLoop()
    d, fired = _deadline(loop)
    for i in range(1000):
        loop.run_until(i * 0.01)
        d.arm(0.2 + (i % 7) * 0.01)     # later, and sometimes earlier
        assert _live_entries(loop) <= 1
    loop.run()
    assert fired == [999 * 0.01 + (0.2 + (999 % 7) * 0.01)]


@pytest.mark.parametrize("bad", [NAN, -0.5])
@pytest.mark.parametrize("pending", [True, False])
def test_refused_arm_leaves_the_deadline_as_it_was(bad, pending):
    loop = EventLoop()
    d, fired = _deadline(loop)
    if pending:
        d.arm(1.0)
    with pytest.raises(PastTime):
        d.arm(bad)
    assert d.at == (1.0 if pending else None)
    assert _live_entries(loop) == int(pending)
    d.arm(2.0)                 # later than the pending entry, if any
    loop.run_until(10.0)
    assert fired == [2.0]
    assert d.at is None


# -- link timing ----------------------------------------------------------


def test_serialization_plus_propagation():
    loop = EventLoop()
    got = []
    link = Link(loop, bandwidth_bps=10_000_000, prop_delay=0.03,
                sink=lambda p, t: got.append(t))
    link.send(pkt(size=1500))
    loop.run()
    # 1500 B at 10 Mbit/s serializes in 1.2 ms
    assert got == [pytest.approx(0.0312)]


def test_back_to_back_packets_queue_behind_each_other():
    loop = EventLoop()
    got = []
    link = Link(loop, bandwidth_bps=10_000_000, prop_delay=0.0,
                sink=lambda p, t: got.append((p.seq, t)))
    link.send(pkt(seq=0))
    link.send(pkt(seq=1))
    loop.run()
    assert got == [(0, pytest.approx(0.0012)), (1, pytest.approx(0.0024))]


def test_fifo_order_with_mixed_sizes():
    loop = EventLoop()
    order = []
    link = Link(loop, bandwidth_bps=1_000_000, prop_delay=0.01,
                sink=lambda p, t: order.append(p.seq))
    for seq, size in enumerate((1500, 100, 900, 40)):
        link.send(pkt(seq=seq, size=size))
    loop.run()
    assert order == [0, 1, 2, 3]


def test_bandwidth_change_applies_from_next_packet():
    loop = EventLoop()
    got = []
    link = Link(loop, bandwidth_bps=12_000, prop_delay=0.0,
                sink=lambda p, t: got.append(t))
    link.send(pkt(seq=0))          # 1 s on the wire at 12 kbit/s
    link.send(pkt(seq=1))
    link.send(pkt(seq=2))
    loop.schedule(0.5, link.set_bandwidth, 12_000_000)
    loop.run()
    assert got[0] == pytest.approx(1.0)      # in-service packet unaffected
    assert got[1] == pytest.approx(1.001)    # the queued ones at the new rate
    assert got[2] == pytest.approx(1.002)


def test_nan_bandwidth_change_is_refused_and_the_link_runs_on():
    loop = EventLoop()
    got = []
    link = Link(loop, bandwidth_bps=12_000, prop_delay=0.0,
                sink=lambda p, t: got.append(t))
    with pytest.raises(ValueError):
        link.set_bandwidth(NAN)
    assert link.bandwidth_bps == 12_000
    link.send(pkt())
    loop.schedule(2.0, got.append, "later")
    loop.run()
    assert got == [pytest.approx(1.0), "later"]


# -- one event per hop: ties at a finish instant --------------------------

RATE = 8192      # bit/s: a 64-byte packet serializes in 62.5 ms
TX = 0.0625


def test_send_at_a_finish_instant_follows_the_order_events_were_scheduled():
    # a full queue (limit 1) holds a packet in service from 0.5 s to
    # 0.5625 s; a send at exactly 0.5625 s finds it there if the sending
    # event was scheduled before that service began, and gone if after
    def probe(scheduled_at):
        loop = EventLoop()
        link = Link(loop, bandwidth_bps=RATE, prop_delay=0.0, queue_limit=1)
        out = []

        def send(seq):
            out.append(link.send(pkt(seq=seq, size=64)))
        loop.schedule(0.5, send, 0)
        loop.schedule(scheduled_at, loop.schedule, 0.5 + TX, send, 1)
        loop.run()
        return out

    assert probe(0.25) == [LinkOutcome.QUEUED, LinkOutcome.DROPPED]
    assert probe(0.53125) == [LinkOutcome.QUEUED, LinkOutcome.QUEUED]


def test_send_between_runs_at_a_finish_instant_sees_the_packet_gone():
    loop = EventLoop()
    got = []
    link = Link(loop, bandwidth_bps=RATE, prop_delay=0.25, queue_limit=1,
                sink=lambda p, t: got.append((p.seq, t)))
    assert link.send(pkt(seq=0, size=64)) == LinkOutcome.QUEUED
    assert link.send(pkt(seq=1, size=64)) == LinkOutcome.DROPPED
    loop.run_until(TX)
    assert link.send(pkt(seq=2, size=64)) == LinkOutcome.QUEUED
    loop.run()
    assert got == [(0, TX + 0.25), (2, 2 * TX + 0.25)]


class CountingLoop(EventLoop):
    def __init__(self):
        super().__init__()
        self.scheduled = 0

    def schedule(self, at, fn, *args):
        self.scheduled += 1
        return super().schedule(at, fn, *args)


def test_each_accepted_packet_schedules_one_event_per_hop():
    loop = CountingLoop()
    a = Link(loop, bandwidth_bps=1e6, prop_delay=0.01, queue_limit=3,
             name="a")
    b = Link(loop, bandwidth_bps=5e5, prop_delay=0.01, queue_limit=2,
             name="b")
    outcomes = {a: [], b: []}
    for link in (a, b):
        def send(p, link=link, send=link.send):
            outcomes[link].append(send(p))
        link.send = send
    delivered = []
    a.sink = lambda p, t: b.send(p)
    b.sink = lambda p, t: delivered.append(p.seq)
    for i in range(20):
        loop.schedule(i * 0.001, a.send, pkt(seq=i, size=1000))
    before = loop.scheduled
    loop.run()
    accepted = {link: outs.count(LinkOutcome.QUEUED)
                for link, outs in outcomes.items()}
    assert 0 < accepted[b] < accepted[a] < 20
    assert loop.scheduled - before == accepted[a] + accepted[b]
    assert len(delivered) == accepted[b]


# -- queueing and loss ----------------------------------------------------


def test_drop_tail_counts_packet_in_service():
    loop = EventLoop()
    delivered = []
    link = Link(loop, bandwidth_bps=1_000_000, prop_delay=0.0, queue_limit=2,
                sink=lambda p, t: delivered.append(p.seq))
    assert link.send(pkt(seq=0)) == LinkOutcome.QUEUED
    assert link.send(pkt(seq=1)) == LinkOutcome.QUEUED
    assert link.send(pkt(seq=2)) == LinkOutcome.DROPPED
    loop.run()
    assert delivered == [0, 1]


def test_queue_drains_and_accepts_again():
    loop = EventLoop()
    delivered = []
    link = Link(loop, bandwidth_bps=1_000_000, prop_delay=0.0, queue_limit=1,
                sink=lambda p, t: delivered.append(p.seq))
    link.send(pkt(seq=0))
    assert link.send(pkt(seq=1)) == LinkOutcome.DROPPED
    loop.run()
    assert link.send(pkt(seq=2)) == LinkOutcome.QUEUED
    loop.run()
    assert delivered == [0, 2]


def test_loss_pattern_is_seeded_and_reproducible():
    def outcomes(seed):
        loop = EventLoop()
        link = Link(loop, bandwidth_bps=1e9, prop_delay=0.0,
                    queue_limit=10**6, loss_prob=0.3, seed=seed, name="l")
        return [link.send(pkt(seq=i)) for i in range(200)]

    assert outcomes(7) == outcomes(7)
    assert outcomes(7) != outcomes(8)


def test_loss_frequency_near_nominal():
    loop = EventLoop()
    link = Link(loop, bandwidth_bps=1e9, prop_delay=0.0, queue_limit=10**6,
                loss_prob=0.1, seed=3, name="loss")
    n = 2000
    drops = sum(link.send(pkt(seq=i)) == LinkOutcome.DROPPED
                for i in range(n))
    sigma = (n * 0.1 * 0.9) ** 0.5
    assert abs(drops - n * 0.1) <= 3 * sigma


def test_ecn_marks_instead_of_dropping():
    loop = EventLoop()
    got = []
    link = Link(loop, bandwidth_bps=1e9, prop_delay=0.0, queue_limit=10**6,
                loss_prob=0.4, ecn_mode=True, seed=5,
                sink=lambda p, t: got.append(p))
    outs = [link.send(pkt(seq=i)) for i in range(300)]
    loop.run()
    assert LinkOutcome.DROPPED not in outs
    marked = [p for p in got if p.ecn_marked]
    assert len(got) == 300
    assert len(marked) == outs.count(LinkOutcome.MARKED)
    assert 0 < len(marked) < 300


def test_flow_accounting_conserves_packets():
    loop = EventLoop()
    tracer = Tracer()
    delivered = []
    link = Link(loop, bandwidth_bps=1e9, prop_delay=0.0, queue_limit=50,
                loss_prob=0.2, seed=11, tracer=tracer,
                sink=lambda p, t: delivered.append(p.seq))
    n = 500
    outs = [link.send(pkt(seq=i)) for i in range(n)]
    loop.run()
    queued = [i for i, o in enumerate(outs) if o == LinkOutcome.QUEUED]
    dropped = [i for i, o in enumerate(outs) if o == LinkOutcome.DROPPED]
    assert len(queued) + len(dropped) == n
    assert 0 < len(dropped) < n
    assert delivered == queued
    # the trace, the only per-flow accounting, tells the same story
    rows = {kind: [int(r.value1) for r in tracer.records if r.kind is kind]
            for kind in (TraceKind.DELIVER, TraceKind.DROP)}
    assert rows[TraceKind.DELIVER] == queued
    assert rows[TraceKind.DROP] == dropped


def test_oversized_data_packet_rejected():
    loop = EventLoop()
    link = Link(loop, bandwidth_bps=1e6, prop_delay=0.0, mtu=1500)
    with pytest.raises(ValueError):
        link.send(pkt(size=1501))
    # control packets are not bound by the data MTU
    link.send(pkt(size=4000, kind=PacketKind.ACK))


def test_constructor_validation():
    loop = EventLoop()
    with pytest.raises(ValueError):
        Link(loop, bandwidth_bps=0, prop_delay=0.0)
    with pytest.raises(ValueError):
        Link(loop, bandwidth_bps=1e6, prop_delay=0.0, loss_prob=1.0)
    with pytest.raises(ValueError):
        Link(loop, bandwidth_bps=1e6, prop_delay=0.0, queue_limit=0)
    with pytest.raises(ValueError):
        Link(loop, bandwidth_bps=1e6, prop_delay=-0.001)
    with pytest.raises(ValueError):
        Link(loop, bandwidth_bps=NAN, prop_delay=0.0)
    with pytest.raises(ValueError):
        Link(loop, bandwidth_bps=1e6, prop_delay=NAN)


# -- paths, dispatch, tracing ---------------------------------------------


def test_path_is_one_link_with_a_replaceable_sink():
    loop = EventLoop()
    got = []
    a = Link(loop, bandwidth_bps=1e8, prop_delay=0.01, name="a")
    path = Path([a], sink=lambda p, t: got.append(t))
    path.send(pkt(size=1000))
    loop.run()
    # one serialization of 80 us plus the propagation delay
    assert got == [pytest.approx(0.01008)]
    # set_sink replaces the sink; without one, deliveries drop
    replaced = []
    path.set_sink(lambda p, t: replaced.append(p.seq))
    path.send(pkt(seq=1, size=1000))
    bare = Path([Link(loop, bandwidth_bps=1e8, prop_delay=0.01, name="c")])
    bare.send(pkt(seq=2, size=1000))
    loop.run()
    assert (got, replaced) == ([pytest.approx(0.01008)], [1])
    for links in ([], [a, Link(loop, bandwidth_bps=1e8, prop_delay=0.0)]):
        with pytest.raises(ValueError):
            Path(links)


def test_dispatcher_routes_by_flow_and_ignores_unknown():
    seen = []
    d = Dispatcher()
    d.register(1, lambda p, t: seen.append(("one", p.seq)))
    d.register(2, lambda p, t: seen.append(("two", p.seq)))
    d(pkt(seq=5, flow=2), 0.0)
    d(pkt(seq=6, flow=1), 0.0)
    d(pkt(seq=7, flow=99), 0.0)
    assert seen == [("two", 5), ("one", 6)]


def test_trace_records_only_data_bearing_packets():
    loop = EventLoop()
    tracer = Tracer()
    link = Link(loop, bandwidth_bps=1e6, prop_delay=0.0, queue_limit=1,
                tracer=tracer)
    link.send(pkt(seq=0))
    link.send(pkt(seq=1))                      # tail-dropped
    link.send(pkt(seq=2, kind=PacketKind.ACK))
    loop.run()
    kinds = [(r.kind, r.value1) for r in tracer.records]
    assert (TraceKind.DROP, 1.0) in kinds
    assert (TraceKind.DELIVER, 0.0) in kinds
    assert all(r.value1 != 2.0 for r in tracer.records)


def test_identical_seeds_give_identical_traces():
    def run(seed):
        loop = EventLoop()
        tracer = Tracer()
        link = Link(loop, bandwidth_bps=2_000_000, prop_delay=0.01,
                    queue_limit=5, loss_prob=0.2, seed=seed, tracer=tracer)
        for i in range(100):
            loop.schedule(i * 0.001, link.send, pkt(seq=i))
        loop.run()
        return [(r.t, r.flow, r.kind, r.value1, r.value2)
                for r in tracer.records]

    assert run(21) == run(21)
    assert run(21) != run(22)
