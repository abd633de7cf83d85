"""Differential test of the link's one-event hop against the two-event
model it replaces.

``TwoEventLink`` below is that model: one event when a packet finishes
serialization, which schedules a second one for its arrival. It is a
test-only reference. Both links are fed the same drawn sends, and every
(seq, time) at the sink and every trace row, each drop and mark among
them, must match. Rates, sizes and instants are powers of two, so sends and
bandwidth changes land exactly on finish instants, where the order of
same-instant events decides whether a packet has left the queue.
"""
import random
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmsim.sim import EventLoop, Link, Packet, PacketKind
from cmsim.trace import TraceKind, Tracer


class TwoEventLink:
    """The link as it was: ``_finish_service`` then ``_arrive``."""

    def __init__(self, loop, bandwidth_bps, prop_delay, queue_limit=50,
                 loss_prob=0.0, ecn_mode=False, mtu=1500, seed=0,
                 name="link", tracer=None):
        self.loop = loop
        self.bandwidth_bps = float(bandwidth_bps)
        self.prop_delay = float(prop_delay)
        self.queue_limit = int(queue_limit)
        self.loss_prob = float(loss_prob)
        self.ecn_mode = bool(ecn_mode)
        self.mtu = int(mtu)
        self.name = name
        self.sink = None
        self.tracer = tracer
        self._rng = random.Random(f"{seed}:{name}")
        self._queue = deque()
        self._busy = False

    def _trace(self, pkt, kind):
        if self.tracer is not None and pkt.kind is PacketKind.DATA:
            self.tracer.emit(self.loop.now, pkt.flow, kind, pkt.seq, pkt.size)

    def set_bandwidth(self, bandwidth_bps):
        self.bandwidth_bps = float(bandwidth_bps)

    def send(self, pkt):
        if pkt.kind == PacketKind.DATA and pkt.size > self.mtu:
            raise ValueError("oversize")
        if len(self._queue) >= self.queue_limit:
            self._trace(pkt, TraceKind.DROP)
            return
        if self.loss_prob > 0.0 and self._rng.random() < self.loss_prob:
            if self.ecn_mode:
                pkt.ecn_marked = True
                self._trace(pkt, TraceKind.MARK)
            else:
                self._trace(pkt, TraceKind.DROP)
                return
        self._queue.append(pkt)
        if not self._busy:
            self._start_service()

    def _start_service(self):
        pkt = self._queue[0]
        self._busy = True
        tx = pkt.size * 8.0 / self.bandwidth_bps
        self.loop.schedule_after(tx, self._finish_service)

    def _finish_service(self):
        pkt = self._queue.popleft()
        self.loop.schedule_after(self.prop_delay, self._arrive, pkt)
        if self._queue:
            self._start_service()
        else:
            self._busy = False

    def _arrive(self, pkt):
        self._trace(pkt, TraceKind.DELIVER)
        if self.sink is not None:
            self.sink(pkt, self.loop.now)


GRID = 1 / 64       # seconds; every drawn instant is a multiple of it
SIZES = (64, 128, 256, 512, 1024)
# past every arrival: at most 17 packets, each on the wire at most 2 s
# (1024 B at 4096 bit/s), the last sent by 1 s, with 0.5 s of delay
END = 64.0


@st.composite
def link_runs(draw):
    return {
        "bandwidth_bps": float(2 ** draw(st.integers(13, 17))),
        "prop_delay": draw(st.integers(0, 8)) / 16,
        "queue_limit": draw(st.integers(1, 4)),
        "loss_prob": draw(st.sampled_from([0.0, 0.25])),
        "ecn_mode": draw(st.booleans()),
        "seed": draw(st.integers(0, 3)),
        # (instant in GRID steps, size), scheduled before the run
        "sends": draw(st.lists(st.tuples(st.integers(0, 48),
                                         st.sampled_from(SIZES)),
                               min_size=1, max_size=12)),
        # the first ``echoes`` arrivals each send a packet at once
        "echoes": draw(st.integers(0, 4)),
        "echo_size": draw(st.sampled_from(SIZES)),
        # (instant in GRID steps, new rate exponent), or none
        "bandwidth_change": draw(st.none() | st.tuples(
            st.integers(0, 48), st.integers(12, 18))),
        # run_until(mid), one send from outside the loop, then to the end
        "mid": draw(st.integers(0, 64)),
        "mid_size": draw(st.sampled_from(SIZES)),
    }


def simulate(link_cls, run):
    loop = EventLoop()
    tracer = Tracer()
    sent, delivered = [], []
    echoes = [run["echoes"]]

    def send(label, size):
        pkt = Packet(flow=1, seq=len(sent), size=size)
        sent.append((label, pkt.seq))
        link.send(pkt)

    def sink(pkt, now):
        delivered.append((pkt.seq, now))
        if echoes[0] > 0:
            echoes[0] -= 1
            send(f"echo of {pkt.seq}", run["echo_size"])

    link = link_cls(loop, run["bandwidth_bps"], run["prop_delay"],
                    queue_limit=run["queue_limit"],
                    loss_prob=run["loss_prob"], ecn_mode=run["ecn_mode"],
                    seed=run["seed"], name="l", tracer=tracer)
    link.sink = sink
    for i, (at, size) in enumerate(run["sends"]):
        loop.schedule(at * GRID, send, f"send {i}", size)
    if run["bandwidth_change"] is not None:
        at, exp = run["bandwidth_change"]
        loop.schedule(at * GRID, link.set_bandwidth, float(2 ** exp))
    loop.run_until(run["mid"] * GRID)
    send("between runs", run["mid_size"])
    loop.run_until(END)
    assert all(ev.cancelled for _, _, ev in loop._heap)
    rows = [(r.t, r.flow, r.kind, r.value1, r.value2) for r in tracer.records]
    return sent, delivered, rows


def fates(rows):
    """The seqs delivered and the seqs dropped, from a run's trace rows."""
    return tuple([int(seq) for _, _, kind, seq, _ in rows if kind is k]
                 for k in (TraceKind.DELIVER, TraceKind.DROP))


# each naive "has it left?" rule fails one of these
NAIVE_NON_STRICT = {
    "bandwidth_bps": 16384.0, "prop_delay": 0.0, "queue_limit": 1,
    "loss_prob": 0.0, "ecn_mode": False, "seed": 0,
    "sends": [(0, 512), (16, 512)], "echoes": 0, "echo_size": 64,
    "bandwidth_change": None, "mid": 64, "mid_size": 64}
NAIVE_STRICT = dict(NAIVE_NON_STRICT, sends=[(0, 512)], mid=16)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(link_runs())
@example(NAIVE_NON_STRICT)
@example(NAIVE_STRICT)
def test_one_event_link_matches_two_event_model(run):
    assert simulate(Link, run) == simulate(TwoEventLink, run)


def test_naive_examples_hit_exact_finish_instants():
    # 512 B at 16384 bit/s finish at 0.25 s: the second send and the send
    # between runs land exactly on that instant
    assert fates(simulate(Link, NAIVE_NON_STRICT)[2]) == ([0, 2], [1])
    assert fates(simulate(Link, NAIVE_STRICT)[2]) == ([0, 1], [])


# -- the divergences left ---------------------------------------------------
# The one-event link knows the instant at which the two-event model
# scheduled each of its events, but not the order of two schedulings made
# at one instant. Each case below is built to hit that gap; what the two
# models do is pinned so that a change to either shows.


def tie_at_service_start(link_cls):
    """Two 8192 bit/s links in series, the second with queue limit 1. The
    second link starts serializing packet 0 at 0.125 s, the instant at
    which the first link's arrival of packet 1 was scheduled, and that
    arrival comes exactly at packet 0's finish. Returns the seqs that the
    second link delivers and those it drops."""
    loop = EventLoop()
    tracer = Tracer()
    a = link_cls(loop, 8192, 0.0625, name="a")
    b = link_cls(loop, 8192, 0.0, queue_limit=1, name="b", tracer=tracer)
    a.sink = lambda p, t: b.send(p)
    for seq in range(2):
        a.send(Packet(flow=1, seq=seq, size=64))
    loop.run_until(1.0)
    rows = [(r.t, r.flow, r.kind, r.value1, r.value2) for r in tracer.records]
    return fates(rows)


def event_scheduled_in_flight_at_the_arrival_instant(link_cls):
    """An event scheduled while a packet is on the link, for exactly the
    instant the packet arrives."""
    loop = EventLoop()
    order = []
    link = link_cls(loop, 8192, 0.0625)
    link.sink = lambda p, t: order.append("arrival")
    link.send(Packet(flow=1, seq=0, size=64))      # finish 0.0625, arrive 0.125
    loop.schedule(0.03125, loop.schedule, 0.125, order.append, "event")
    loop.run_until(1.0)
    return order


def test_same_instant_service_start_counts_the_packet_still_there():
    assert tie_at_service_start(TwoEventLink) == ([0, 1], [])
    assert tie_at_service_start(Link) == ([0], [1])


def test_arrival_runs_before_events_scheduled_later_for_its_instant():
    assert event_scheduled_in_flight_at_the_arrival_instant(TwoEventLink) == [
        "event", "arrival"]
    assert event_scheduled_in_flight_at_the_arrival_instant(Link) == [
        "arrival", "event"]
