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
"""
from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..core import CongestionManager, FlowKey
from ..sim import EventLoop, Path
from ..trace import TraceKind, Tracer
from ..transport.feedback import DatagramSender

STALE_EPS = 1e-9


class TokenBucket:
    def __init__(self, rate: float, depth: float, now: float = 0.0) -> None:
        self.rate = float(rate)
        self.depth = float(depth)
        self.tokens = float(depth)
        self._last = now

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(self.depth, self.tokens + self.rate * (now - self._last))
            self._last = now

    def set_rate(self, rate: float, now: float) -> None:
        # accrue at the old rate up to the change instant
        self._refill(now)
        self.rate = float(rate)

    def take(self, amount: float, now: float) -> bool:
        self._refill(now)
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


class CbrAudioSource(DatagramSender):
    """Fixed-rate frame source feeding a policed, freshness-bounded buffer."""

    def __init__(self, cm: CongestionManager, key: FlowKey, data_path: Path,
                 loop: EventLoop, frame_size: int = 160,
                 frame_interval: float = 0.02, app_buf_limit: int = 4,
                 policer_depth_frames: int = 2,
                 thresh: Tuple[float, float] = (0.9, 1.1),
                 tracer: Optional[Tracer] = None) -> None:
        self.frame_size = self._datagram_size(data_path, frame_size)
        self.source_rate = frame_size / frame_interval
        super().__init__(cm, key, data_path, loop, tracer)
        self.frame_interval = frame_interval
        self.app_buf_limit = app_buf_limit
        cm.register_send(self.flow, self._on_grant)
        cm.register_update(self.flow, self._on_rate)
        self._or_close(lambda: cm.thresh(self.flow, thresh[0], thresh[1]))
        self.policer = TokenBucket(self.source_rate,
                                   policer_depth_frames * frame_size,
                                   now=loop.now)
        self._buf: Deque[Tuple[int, float]] = deque()   # (frame seq, t generated)
        self._pending_request = False
        self.generated = 0

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def start(self) -> None:
        self._tick()

    def _tick(self) -> None:
        now = self.loop.now
        seq = self.generated
        self.generated += 1
        self._evict_stale(now)
        if self.policer.take(self.frame_size, now):
            if len(self._buf) >= self.app_buf_limit:
                self._drop_head(now)
            self._buf.append((seq, now))
            if not self._pending_request:
                self._pending_request = True
                self.cm.request(self.flow)
        elif self.tracer is not None:
            self.tracer.emit(now, self.flow, TraceKind.POLICER_DROP,
                             seq, self.frame_size)
        # not a sim.Deadline: perfbench's spans would then count each
        # _tick, the apps layer's largest self time, under sim's _fire
        self.loop.schedule_after(self.frame_interval, self._tick)

    def _drop_head(self, now: float) -> None:
        seq, _ = self._buf.popleft()
        if self.tracer is not None:
            self.tracer.emit(now, self.flow, TraceKind.BUF_DROP,
                             seq, self.frame_size)

    def _evict_stale(self, now: float) -> None:
        horizon = self.app_buf_limit * self.frame_interval
        while self._buf and now - self._buf[0][1] > horizon + STALE_EPS:
            self._drop_head(now)

    def _on_grant(self, fid: int) -> None:
        now = self.loop.now
        self._evict_stale(now)
        if not self._buf:
            self._pending_request = False
            self.cm.notify(self.flow, 0)
            return
        seq, _ = self._buf.popleft()
        self._transmit(seq, self.frame_size, now)
        if self._buf:
            self.cm.request(self.flow)
        else:
            self._pending_request = False

    def _on_rate(self, fid: int, rate: float, srtt: float,
                 loss_rate: float) -> None:
        self.policer.set_rate(rate, self.loop.now)

    # own attribute: perfbench/spans.py METHODS wraps it via cls.__dict__
    on_feedback = DatagramSender.on_feedback
