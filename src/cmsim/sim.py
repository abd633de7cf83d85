"""Deterministic discrete-event network simulation.

Virtual time only advances through the event loop; ties are broken by
insertion order, so a run is a pure function of its inputs and seeds.
The loop's heap holds ``(time, seq, event)`` tuples, with ``seq`` the
insertion count, so the heap orders entries by tuple comparison alone
and never compares two events. A cancelled event keeps its entry and is
skipped when popped.

A ``Deadline`` is a restartable one-shot timer for deadlines that move
on nearly every packet, such as a retransmission timeout. It keeps at
most one heap entry. Moving the deadline later only records the new
time; an entry that pops before the recorded deadline pushes itself
again at that deadline. Moving it earlier cancels the entry and pushes
a new one. The callback runs at the last deadline set, as a cancel and
re-schedule on every arm would run it, but without leaving a dead entry
in the heap per arm.

Links model serialization at a configured bandwidth, fixed propagation
delay, a drop-tail queue bounded in packets (the in-service packet counts),
i.i.d. Bernoulli loss from a per-link RNG stream, and an optional ECN mode
where would-be random losses are delivered marked instead.
"""
from __future__ import annotations

import enum
import heapq
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .errors import PastTime
from .trace import TraceKind, Tracer

DEFAULT_QUEUE_LIMIT = 50
DEFAULT_MTU = 1500


class PacketKind(enum.Enum):
    DATA = "data"
    ACK = "ack"
    APP_ACK = "app_ack"


@dataclass(slots=True)
class Packet:
    flow: int
    seq: int
    size: int
    kind: PacketKind = PacketKind.DATA
    ecn_marked: bool = False
    sent_at: float = 0.0
    meta: Any = None

    @property
    def data_bearing(self) -> bool:
        return self.kind == PacketKind.DATA


class ScheduledEvent:
    """Handle of one scheduled call; ``cancel`` stops it from running."""
    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable, args: tuple) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """Virtual-time event queue; (time, insertion seq) ordering."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = 0

    def schedule(self, at: float, fn: Callable, *args) -> ScheduledEvent:
        if at < self.now:
            raise PastTime(f"schedule at {at} < now {self.now}")
        ev = ScheduledEvent(at, fn, args)
        heapq.heappush(self._heap, (at, self._seq, ev))
        self._seq += 1
        return ev

    def schedule_after(self, delay: float, fn: Callable, *args) -> ScheduledEvent:
        return self.schedule(self.now + delay, fn, *args)

    def run_until(self, t_end: float) -> None:
        if t_end < self.now:
            raise PastTime(f"run_until {t_end} < now {self.now}")
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            at, _, ev = pop(heap)
            if ev.cancelled:
                continue
            self.now = at
            ev.fn(*ev.args)
        self.now = t_end

    def run(self) -> None:
        """Drain every pending event."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            at, _, ev = pop(heap)
            if ev.cancelled:
                continue
            self.now = at
            ev.fn(*ev.args)


class Deadline:
    """Restartable one-shot timer with at most one entry in the heap.

    ``arm(delay)`` sets the deadline to ``now + delay``, replacing the
    pending one, whether that was earlier or later; ``stop()`` clears it. ``at`` is the pending deadline, or
    None. When the deadline is reached the timer clears it and calls
    ``fn()``, which may arm it again.
    """
    __slots__ = ("loop", "fn", "at", "_ev")

    def __init__(self, loop: EventLoop, fn: Callable[[], None]) -> None:
        self.loop = loop
        self.fn = fn
        self.at: Optional[float] = None
        self._ev: Optional[ScheduledEvent] = None

    def arm(self, delay: float) -> None:
        at = self.loop.now + delay
        self.at = at
        ev = self._ev
        if ev is not None:
            if ev.time <= at:
                return          # pops early and moves itself to ``at``
            ev.cancel()
        self._ev = self.loop.schedule(at, self._fire)

    def stop(self) -> None:
        # The entry stays: a later arm may reuse it, else it pops as a no-op.
        self.at = None

    def _fire(self) -> None:
        self._ev = None
        at = self.at
        if at is None:
            return
        if at > self.loop.now:
            self._ev = self.loop.schedule(at, self._fire)
            return
        self.at = None
        self.fn()


class LinkOutcome(enum.Enum):
    QUEUED = "queued"
    DROPPED = "dropped"
    MARKED = "marked"   # accepted and queued, ECN-marked


class Link:
    """One directional link: serialization + propagation + drop-tail queue.

    Random loss draws come from this link's own RNG stream, seeded from the
    master seed and the link name, so adding traffic elsewhere never
    perturbs the loss pattern here.
    """

    def __init__(self, loop: EventLoop, bandwidth_bps: float, prop_delay: float,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT, loss_prob: float = 0.0,
                 ecn_mode: bool = False, mtu: int = DEFAULT_MTU,
                 seed: int = 0, name: str = "link",
                 sink: Optional[Callable[[Packet, float], None]] = None,
                 tracer: Optional[Tracer] = None) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not (0.0 <= loss_prob < 1.0):
            raise ValueError("loss_prob must be in [0, 1)")
        self.loop = loop
        self.bandwidth_bps = float(bandwidth_bps)
        self.prop_delay = float(prop_delay)
        self.queue_limit = int(queue_limit)
        self.loss_prob = float(loss_prob)
        self.ecn_mode = bool(ecn_mode)
        self.mtu = int(mtu)
        self.name = name
        self.sink = sink
        self.tracer = tracer
        self._rng = random.Random(f"{seed}:{name}")
        self._queue: Deque[Packet] = deque()
        self._busy = False

    def _trace(self, pkt: Packet, kind: TraceKind) -> None:
        # Ack-type packets stay out of the trace to keep it data-plane only.
        if self.tracer is not None and pkt.data_bearing:
            self.tracer.emit(self.loop.now, pkt.flow, kind, pkt.seq, pkt.size)

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Applies from the next service start; the packet currently being
        serialized finishes at its old pace."""
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = float(bandwidth_bps)

    # -- datapath ---------------------------------------------------------

    def send(self, pkt: Packet) -> LinkOutcome:
        if pkt.kind == PacketKind.DATA and pkt.size > self.mtu:
            raise ValueError(f"packet size {pkt.size} exceeds link mtu {self.mtu}")
        if len(self._queue) >= self.queue_limit:
            self._trace(pkt, TraceKind.DROP)
            return LinkOutcome.DROPPED
        outcome = LinkOutcome.QUEUED
        if self.loss_prob > 0.0 and self._rng.random() < self.loss_prob:
            if self.ecn_mode:
                pkt.ecn_marked = True
                self._trace(pkt, TraceKind.MARK)
                outcome = LinkOutcome.MARKED
            else:
                self._trace(pkt, TraceKind.DROP)
                return LinkOutcome.DROPPED
        self._queue.append(pkt)
        if not self._busy:
            self._start_service()
        return outcome

    def forward(self, pkt: Packet, now: float) -> None:
        """Sink adapter so links can be chained into multi-hop paths."""
        self.send(pkt)

    def _start_service(self) -> None:
        pkt = self._queue[0]
        self._busy = True
        tx = pkt.size * 8.0 / self.bandwidth_bps
        self.loop.schedule_after(tx, self._finish_service)

    def _finish_service(self) -> None:
        pkt = self._queue.popleft()
        self.loop.schedule_after(self.prop_delay, self._arrive, pkt)
        if self._queue:
            self._start_service()
        else:
            self._busy = False

    def _arrive(self, pkt: Packet) -> None:
        self._trace(pkt, TraceKind.DELIVER)
        if self.sink is not None:
            self.sink(pkt, self.loop.now)


class Path:
    """A unidirectional sequence of links; delivery chains hop by hop and
    the final hop feeds the configured sink."""

    def __init__(self, links: List[Link],
                 sink: Optional[Callable[[Packet, float], None]] = None) -> None:
        if not links:
            raise ValueError("path needs at least one link")
        self.links = links
        for a, b in zip(links, links[1:]):
            a.sink = b.forward
        self._sink = sink
        links[-1].sink = self._deliver

    def _deliver(self, pkt: Packet, now: float) -> None:
        if self._sink is not None:
            self._sink(pkt, now)

    def set_sink(self, sink: Callable[[Packet, float], None]) -> None:
        self._sink = sink

    def send(self, pkt: Packet) -> LinkOutcome:
        return self.links[0].send(pkt)


class Dispatcher:
    """Routes delivered packets to per-flow handlers."""

    def __init__(self) -> None:
        self._handlers: Dict[int, Callable[[Packet, float], None]] = {}

    def register(self, flow: int, handler: Callable[[Packet, float], None]) -> None:
        self._handlers[flow] = handler

    def __call__(self, pkt: Packet, now: float) -> None:
        handler = self._handlers.get(pkt.flow)
        if handler is not None:
            handler(pkt, now)
