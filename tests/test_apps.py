"""Adaptive application behavior: layer selection from the shared rate
estimate, grant-clocked versus self-paced transmission, token-bucket
policing, and the drop-from-head freshness rules of the audio source.
"""
import random
from math import inf, nextafter
from types import SimpleNamespace

import pytest

from cmsim.apps.audio import STALE_EPS, CbrAudioSource, TokenBucket
from cmsim.apps.layered import (AlfLayeredSource, LayerConfig,
                                PacedLayeredSource)
from cmsim.core import CongestionManager, FeedbackReport, FlowKey, LossMode
from cmsim.core import Proto
from cmsim.errors import InvalidThreshold
from cmsim.sim import DEFAULT_MTU, EventLoop
from cmsim.trace import TraceKind, Tracer


class CollectLink:
    """Stands in for a network link; just records what was sent. It has
    the default MTU, which datagram senders check sizes against."""

    def __init__(self):
        self.packets = []
        self.mtu = DEFAULT_MTU

    def send(self, pkt):
        self.packets.append(pkt)


def key(port=7000):
    return FlowKey("client", port, "server", 1234, Proto.UDP)


def layers_sent(records):
    """The layer in force at each Send row: the value1 of the last
    LayerChange row before it."""
    layer, out = None, []
    for r in records:
        if r.kind is TraceKind.LAYER_CHANGE:
            layer = r.value1
        elif r.kind is TraceKind.SEND:
            out.append(layer)
    return out


def grow(cm, fid, reports, rtt=0.1):
    """Each report covers 1500 B, all delivered: slow start grows cwnd by
    1500 and the loss estimate stays 0. Nothing was charged by notify, so
    outstanding stays 0."""
    for _ in range(reports):
        cm.update(fid, FeedbackReport(1500, 1500, LossMode.NO_LOSS, rtt=rtt))


# -- layer table ----------------------------------------------------------

def test_layer_config_pick_boundaries():
    cfg = LayerConfig()
    assert cfg.pick(0.0) == 0
    assert cfg.pick(16384 / 0.9 - 3) == 0
    # layer 1 (32768) fits once rate * 0.9 reaches it
    assert cfg.pick(32768 / 0.9 - 3) == 0
    assert cfg.pick(32768 / 0.9 + 3) == 1
    assert cfg.pick(131072 / 0.9 + 3) == 3
    assert cfg.pick(1e9) == 3
    assert cfg.rates[2] == 65536


def test_layer_config_rejects_bad_tables():
    with pytest.raises(ValueError):
        LayerConfig(rates=())
    with pytest.raises(ValueError):
        LayerConfig(rates=(100, 100))
    with pytest.raises(ValueError):
        LayerConfig(rates=(200, 100))
    # a paced source at a lowest rate of 0 divides by zero, and at a
    # negative one schedules its next frame in the past
    for rates in ((0, 16384), (-5, 16384), (float("nan"), 16384)):
        with pytest.raises(ValueError):
            LayerConfig(rates=rates)
    with pytest.raises(ValueError):
        LayerConfig(safety=0.0)
    with pytest.raises(ValueError):
        LayerConfig(safety=1.5)
    assert LayerConfig(rates=(1000,), safety=1.0).pick(999) == 0


# -- grant-clocked layered source -----------------------------------------

def test_alf_start_traces_base_layer_and_sends_on_grant():
    loop = EventLoop()
    cm = CongestionManager()
    link = CollectLink()
    tracer = Tracer()
    src = AlfLayeredSource(cm, key(), link, loop, tracer=tracer)
    src.start()
    first = tracer.records[0]
    assert first.kind is TraceKind.LAYER_CHANGE
    assert (first.value1, first.value2) == (0.0, 0.0)
    # no rate estimate yet, so the base layer goes out; the initial
    # window admits exactly one packet
    assert len(link.packets) == 1
    assert layers_sent(tracer.records) == [0.0]


def test_alf_repicks_layer_from_rate_at_each_grant():
    loop = EventLoop()
    cm = CongestionManager()
    link = CollectLink()
    tracer = Tracer()
    src = AlfLayeredSource(cm, key(), link, loop, tracer=tracer)
    grow(cm, src.flow, 3)            # cwnd 6000, srtt 0.1 -> 60 kB/s
    src.start()
    assert len(link.packets) == 4    # window admits four packets
    assert layers_sent(tracer.records) == [1.0] * 4
    layers = [r.value1 for r in tracer.records
              if r.kind is TraceKind.LAYER_CHANGE]
    assert layers == [0.0, 1.0]


def test_alf_requests_no_grant_before_start():
    """ALF requests only in start() and after each datagram it sends, so
    no grant reaches it before it starts."""
    loop = EventLoop()
    cm = CongestionManager()
    link = CollectLink()
    AlfLayeredSource(cm, key(), link, loop, tracer=Tracer())
    assert cm.op_counts.get("request", 0) == 0
    assert link.packets == []


# -- self-paced layered source --------------------------------------------

def test_paced_sends_at_layer_rate():
    loop = EventLoop()
    cm = CongestionManager()
    link = CollectLink()
    tracer = Tracer()
    src = PacedLayeredSource(cm, key(), link, loop, tracer=tracer)
    assert src.interval == pytest.approx(1500 / 16384)
    src.start()
    loop.run_until(0.3)
    times = [r.t for r in tracer.records if r.kind is TraceKind.SEND]
    assert len(times) == 4
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g == pytest.approx(1500 / 16384) for g in gaps)
    loop.run_until(0.6)
    assert len(link.packets) == 7    # the cadence holds, with no grants


def test_paced_repicks_layer_only_on_rate_callback():
    loop = EventLoop()
    cm = CongestionManager()
    link = CollectLink()
    tracer = Tracer()
    src = PacedLayeredSource(cm, key(), link, loop, tracer=tracer)
    grow(cm, src.flow, 1)            # rate 30 kB/s: first callback, layer 0
    assert src.layer == 0
    grow(cm, src.flow, 1)            # rate 45 kB/s: above 1.4x, layer 1
    assert src.layer == 1
    assert src.interval == pytest.approx(1500 / 32768)
    changes = [r for r in tracer.records
               if r.kind is TraceKind.LAYER_CHANGE]
    assert [c.value1 for c in changes] == [1.0]
    assert changes[0].value2 == pytest.approx(45000.0)


def test_paced_direct_rate_hint_switches_layers():
    loop = EventLoop()
    cm = CongestionManager()
    link = CollectLink()
    src = PacedLayeredSource(cm, key(), link, loop, tracer=Tracer())
    src._on_rate(src.flow, 150000.0, 0.1, 0.0)
    assert src.layer == 3
    assert src.interval == pytest.approx(1500 / 131072)


# -- token bucket ---------------------------------------------------------

def test_token_bucket_depth_and_refill():
    tb = TokenBucket(rate=8000.0, depth=320.0, now=0.0)
    assert tb.take(160, 0.0)
    assert tb.take(160, 0.0)
    assert not tb.take(160, 0.0)     # bucket drained
    assert tb.take(160, 0.02)        # one frame interval refills one frame
    assert not tb.take(501, 10.0)    # tokens cap at the configured depth


def test_token_bucket_rate_change_accrues_at_old_rate_first():
    tb = TokenBucket(rate=100.0, depth=1000.0, now=0.0)
    assert tb.take(1000, 0.0)
    tb.set_rate(0.0, 1.0)            # one second of credit at the old rate
    assert tb.take(100, 2.0)
    assert not tb.take(1, 3.0)


def test_token_bucket_take_matches_a_separate_refill_then_take():
    """take refills in its own body. Against a reference that refills as
    a step of its own (tokens = min(depth, tokens + rate * elapsed)) and
    then takes, every outcome and every token count is the same float,
    across rate changes and calls at one instant."""
    rng = random.Random(28)
    tb = TokenBucket(rate=8000.0, depth=320.0, now=0.0)
    ref = SimpleNamespace(rate=8000.0, tokens=320.0, last=0.0)

    def refill(now):
        if now > ref.last:
            ref.tokens = min(320.0, ref.tokens + ref.rate * (now - ref.last))
            ref.last = now

    now = 0.0
    for _ in range(2000):
        now += rng.choice((0.0, 0.001, 0.0137, 0.02, 0.3))
        if rng.random() < 0.1:
            rate = rng.choice((0.0, 4000.0, 8000.0, 12345.6))
            tb.set_rate(rate, now)
            refill(now)
            ref.rate = rate
            continue
        amount = rng.choice((1, 80, 160, 321))
        refill(now)
        took = ref.tokens >= amount
        if took:
            ref.tokens -= amount
        assert tb.take(amount, now) is took
        assert tb.tokens == ref.tokens


# -- constant-bit-rate audio ----------------------------------------------

# each frame the source generates is policed, buffer-dropped, sent, or
# still held in its buffer
_FRAME_FATES = (TraceKind.POLICER_DROP, TraceKind.BUF_DROP, TraceKind.SEND)


def buffered(src, tracer):
    """The frames ``src`` still holds, from its generated count and its
    trace rows."""
    return src.generated - sum(r.flow == src.flow and r.kind in _FRAME_FATES
                               for r in tracer.records)


def test_audio_overflow_drops_oldest_frame_first():
    loop = EventLoop()
    cm = CongestionManager()
    link = CollectLink()
    tracer = Tracer()
    src = CbrAudioSource(cm, key(), link, loop, tracer=tracer)
    src.start()
    loop.run_until(0.21)             # frames 0..10; only frame 0 fit the window
    assert src.generated == 11
    assert len(link.packets) == 1
    drops = [int(r.value1) for r in tracer.records
             if r.kind is TraceKind.BUF_DROP]
    assert drops == [1, 2, 3, 4, 5, 6]
    assert buffered(src, tracer) == 4
    # freeing the window releases the head, i.e. the oldest frame still
    # fresh. The ack takes outstanding to 0 and slow start takes cwnd from
    # 1500 to 1660; outstanding + MTU <= cwnd then admits a grant at
    # outstanding 0 and another at 160, but not at 320.
    cm.update(src.flow, FeedbackReport(160, 160, LossMode.NO_LOSS, rtt=0.02))
    sent = [int(r.value1) for r in tracer.records
            if r.kind is TraceKind.SEND]
    assert sent == [0, 7, 8]
    assert buffered(src, tracer) == 2
    assert cm.macroflow_state(src.flow).outstanding == 320
    assert sent[-1] >= src.generated - src.app_buf_limit


def test_audio_evicts_stale_frames_without_overflow():
    loop = EventLoop()
    cm = CongestionManager()
    link = CollectLink()
    tracer = Tracer()
    src = CbrAudioSource(cm, key(), link, loop, tracer=tracer)
    cm.notify(src.flow, 1500)        # wedge the window shut
    src.start()                      # frame 0 buffered, then the policer
    src._on_rate(src.flow, 0.0, 0.0, 0.0)    # stops admitting new ones
    loop.run_until(0.13)
    assert link.packets == []
    policed = [int(r.value1) for r in tracer.records
               if r.kind is TraceKind.POLICER_DROP]
    assert policed == [2, 3, 4, 5, 6]   # never reached the buffer
    drops = [(round(r.t, 2), int(r.value1)) for r in tracer.records
             if r.kind is TraceKind.BUF_DROP]
    # frames 0 and 1 aged out at four frame intervals despite a near-empty
    # buffer
    assert drops == [(0.1, 0), (0.12, 1)]
    assert buffered(src, tracer) == 0


@pytest.mark.parametrize("past", [False, True],
                         ids=["at-the-limit", "one-float-past"])
def test_audio_tick_stale_test_at_the_boundary(past):
    """The tick keeps a head frame exactly app_buf_limit * frame_interval
    + STALE_EPS old, and drops one a float older with a BufDrop row at the
    tick's instant."""
    loop = EventLoop()
    cm = CongestionManager()
    tracer = Tracer()
    src = CbrAudioSource(cm, key(), CollectLink(), loop, tracer=tracer)
    cm.notify(src.flow, 1500)        # wedge the window shut
    src.start()                      # frame 0, generated at t = 0.0
    src._on_rate(src.flow, 0.0, 0.0, 0.0)   # the policer admits frame 1 only
    at = src.app_buf_limit * src.frame_interval + STALE_EPS
    if past:
        at = nextafter(at, inf)
    loop.schedule(at, src._tick)     # a tick at the boundary instant
    loop.run_until(at)
    drops = [(r.t, int(r.value1)) for r in tracer.records
             if r.kind is TraceKind.BUF_DROP]
    assert drops == ([(at, 0)] if past else [])
    assert buffered(src, tracer) == (1 if past else 2)


def test_audio_grant_on_empty_buffer_declines():
    loop = EventLoop()
    cm = CongestionManager()
    link = CollectLink()
    src = CbrAudioSource(cm, key(), link, loop, tracer=Tracer())
    before = cm.op_counts.get("notify", 0)
    src._on_grant(src.flow)
    assert cm.op_counts["notify"] == before + 1
    assert link.packets == []


def test_audio_rate_callback_retunes_policer():
    loop = EventLoop()
    cm = CongestionManager()
    src = CbrAudioSource(cm, key(), CollectLink(), loop, tracer=Tracer())
    assert src.policer.rate == pytest.approx(8000.0)
    src._on_rate(src.flow, 4000.0, 0.02, 0.0)
    assert src.policer.rate == pytest.approx(4000.0)


# -- datagram sizes -------------------------------------------------------

SOURCES = {
    "paced": lambda cm, loop, n: PacedLayeredSource(
        cm, key(), CollectLink(), loop, packet_size=n, tracer=Tracer()),
    "alf": lambda cm, loop, n: AlfLayeredSource(
        cm, key(), CollectLink(), loop, packet_size=n, tracer=Tracer()),
    "audio": lambda cm, loop, n: CbrAudioSource(
        cm, key(), CollectLink(), loop, frame_size=n, tracer=Tracer()),
}


@pytest.mark.parametrize("size", [0, DEFAULT_MTU + 1])
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_size_outside_first_hop_mtu_is_rejected_at_construction(source, size):
    """A size of 0 would re-arm the paced frame timer at the same instant
    for ever (or, for ALF, silently become the MTU); one above the MTU
    would fail only at the first send, after the tracker and the trace
    had recorded it."""
    with pytest.raises(ValueError):
        SOURCES[source](CongestionManager(), EventLoop(), size)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_sizes_at_the_bounds_are_accepted(source):
    for size in (1, DEFAULT_MTU):
        SOURCES[source](CongestionManager(), EventLoop(), size)


# The core's MTU is above the link's, so ALF's default size, which
# it takes from cm.mtu after the flow opens, is rejected too.
REJECTED = [
    (PacedLayeredSource, {"thresh": (1.5, 2.0)}, InvalidThreshold),
    (CbrAudioSource, {"thresh": (1.5, 2.0)}, InvalidThreshold),
    (PacedLayeredSource, {"packet_size": 0}, ValueError),
    (AlfLayeredSource, {"packet_size": 0}, ValueError),
    (CbrAudioSource, {"frame_size": 0}, ValueError),
    (AlfLayeredSource, {}, ValueError),
    # an empty app buffer would pop from an empty deque at the first
    # frame, a policer shallower than one frame would drop every frame,
    # and a frame interval not > 0 would divide by zero or schedule the
    # next frame in the past
    (CbrAudioSource, {"app_buf_limit": 0}, ValueError),
    (CbrAudioSource, {"policer_depth_frames": 0}, ValueError),
    (CbrAudioSource, {"frame_interval": 0}, ValueError),
    (CbrAudioSource, {"frame_interval": -0.02}, ValueError),
    (CbrAudioSource, {"frame_interval": float("nan")}, ValueError),
]


@pytest.mark.parametrize("cls,kwargs,error", REJECTED,
                         ids=["paced-thresh", "audio-thresh", "paced-size",
                              "alf-size", "audio-size", "alf-cm-mtu",
                              "audio-buf", "audio-depth", "audio-interval-0",
                              "audio-interval-neg", "audio-interval-nan"])
def test_rejected_construction_leaves_no_flow_open(cls, kwargs, error):
    """The rejected source's flow is closed: its key opens again, it is no
    member of the macroflow, and no callback of it is left registered for
    a sibling's update to run on a half-built object."""
    cm, loop = CongestionManager(mtu=DEFAULT_MTU + 1), EventLoop()
    sibling = cm.open(key(7001))
    with pytest.raises(error):
        cls(cm, key(), CollectLink(), loop, tracer=Tracer(), **kwargs)
    assert cm.macroflow_state(sibling).members == (sibling,)
    cm.update(sibling, FeedbackReport(1500, 1500, LossMode.NO_LOSS, rtt=0.1))
    ok = {"packet_size": DEFAULT_MTU} if cls is AlfLayeredSource else {}
    # the key opens again
    src = cls(cm, key(), CollectLink(), loop, tracer=Tracer(), **ok)
    assert cm.macroflow_state(sibling).members == (sibling, src.flow)
