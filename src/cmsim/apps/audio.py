"""Interactive constant-bit-rate audio source with adaptive thinning.

Frames are produced at a fixed rate regardless of network state. Two
mechanisms reconcile that with the available bandwidth:

  * a token-bucket policer whose rate follows the controller's rate
    callbacks drops excess frames before they are buffered (long-term
    adaptation);
  * a small drop-from-head application buffer absorbs short-term grant
    jitter while guaranteeing freshness: when the buffer overflows or a
    queued frame outlives app_buf_limit frame intervals, the oldest
    frame is discarded, never a newer one.

At most one grant request is outstanding at a time; each grant sends the
current head frame. Frames are generated from start() until the run
ends.

The frame tick is the most frequent event of a run with audio sources
(one per frame_interval per source, grant or no grant), so it runs in
one frame: it tests the buffer's head for staleness inline, entering
the eviction loop only when the head is stale, drops on overflow
inline, makes one policer call, and re-arms through loop.schedule at
now + frame_interval.
"""
from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..core import CongestionManager, FlowKey
from ..sim import EventLoop, Link
from ..trace import BUF_DROP, POLICER_DROP, Tracer
from ..transport.feedback import DatagramSender

STALE_EPS = 1e-9


class TokenBucket:
    def __init__(self, rate: float, depth: float, now: float = 0.0) -> None:
        self.rate = float(rate)
        self.depth = float(depth)
        self.tokens = float(depth)
        self._last = now

    def set_rate(self, rate: float, now: float) -> None:
        # accrue at the old rate up to the change instant; a take of
        # nothing only refills
        self.take(0.0, now)
        self.rate = float(rate)

    def take(self, amount: float, now: float) -> bool:
        """Refill at rate since the last call, capped at depth, then take
        amount if that many tokens are there."""
        if now > self._last:
            self.tokens = min(self.depth,
                              self.tokens + self.rate * (now - self._last))
            self._last = now
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


class CbrAudioSource(DatagramSender):
    """Fixed-rate frame source feeding a policed, freshness-bounded buffer.
    tracer gets a row per frame sent or dropped. ValueError, before the
    flow opens, for a setting that would crash or starve the source."""

    def __init__(self, cm: CongestionManager, key: FlowKey, data_path: Link,
                 loop: EventLoop, frame_size: int = 160,
                 frame_interval: float = 0.02, app_buf_limit: int = 4,
                 policer_depth_frames: int = 2,
                 thresh: Tuple[float, float] = (0.9, 1.1), *,
                 tracer: Tracer) -> None:
        self.frame_size = self._datagram_size(data_path, frame_size)
        # written so that NaN, which compares false, is refused
        if not (frame_interval > 0 and app_buf_limit >= 1
                and policer_depth_frames >= 1):
            raise ValueError("frame_interval must be > 0, app_buf_limit and "
                             "policer_depth_frames >= 1")
        super().__init__(cm, key, data_path, loop, tracer)
        self.frame_interval = frame_interval
        self.app_buf_limit = app_buf_limit
        # a buffered frame older than this is stale
        self._max_age = app_buf_limit * frame_interval + STALE_EPS
        cm.register_send(self.flow, self._on_grant)
        cm.register_update(self.flow, self._on_rate)
        self._or_close(lambda: cm.thresh(self.flow, thresh[0], thresh[1]))
        self.policer = TokenBucket(frame_size / frame_interval,
                                   policer_depth_frames * frame_size,
                                   now=loop.now)
        self._buf: Deque[Tuple[int, float]] = deque()   # (frame seq, t generated)
        self._pending_request = False
        self.generated = 0

    def start(self) -> None:
        self._tick()

    def _tick(self) -> None:
        now = self.loop.now
        seq = self.generated
        self.generated += 1
        buf = self._buf
        if buf and now - buf[0][1] > self._max_age:
            self._evict_stale(now)
        if self.policer.take(self.frame_size, now):
            if len(buf) >= self.app_buf_limit:
                self.tracer.emit(now, self.flow, BUF_DROP,
                                 buf.popleft()[0], self.frame_size)
            buf.append((seq, now))
            if not self._pending_request:
                self._pending_request = True
                self.cm.request(self.flow)
        else:
            self.tracer.emit(now, self.flow, POLICER_DROP,
                             seq, self.frame_size)
        # not a sim.Deadline: perfbench's spans would then count each
        # _tick, the apps layer's largest self time, under sim's _fire
        self.loop.schedule(now + self.frame_interval, self._tick)

    def _evict_stale(self, now: float) -> None:
        buf = self._buf
        while buf and now - buf[0][1] > self._max_age:
            self.tracer.emit(now, self.flow, BUF_DROP,
                             buf.popleft()[0], self.frame_size)

    def _on_grant(self, fid: int) -> None:
        now = self.loop.now
        buf = self._buf
        if buf and now - buf[0][1] > self._max_age:
            self._evict_stale(now)
        if not buf:
            self._pending_request = False
            self.cm.notify(self.flow, 0)
            return
        seq, _ = buf.popleft()
        self._transmit(seq, self.frame_size, now)
        if buf:
            self.cm.request(self.flow)
        else:
            self._pending_request = False

    def _on_rate(self, fid: int, rate: float, srtt: float,
                 loss_rate: float) -> None:
        self.policer.set_rate(rate, self.loop.now)

    # own attribute: perfbench/spans.py METHODS wraps it via cls.__dict__
    on_feedback = DatagramSender.on_feedback
