"""Deterministic discrete-event network simulation.

Virtual time only advances through the event loop; ties are broken by
insertion order, so a run is a pure function of its inputs and seeds.
The loop's heap holds ``(time, seq, event)`` tuples, with ``seq`` the
insertion count, so the heap orders entries by tuple comparison alone
and never compares two events. A cancelled event keeps its entry and is
skipped when popped. ``ScheduledEvent`` defines no ``__init__``, so
building a handle runs ``object``'s constructor at C level, and
``schedule`` stores the handle's five slots itself: a scheduled event
costs no Python frame beyond ``schedule``'s own. Every event, the
``Deadline`` and link ones too, is scheduled through ``schedule``.

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

A link hop costs one heap event per packet, its arrival. ``Link.send``
computes the instant the packet finishes serialization, ``max(now, last
finish) + size·8/bandwidth``, and schedules the arrival at ``finish +
prop_delay``. These are the same floats as in a model that runs a
separate event when serialization finishes and schedules the arrival
from it, and the outputs are the same as that model's, but for the two
cases named at the end.

Whether a packet is still on the link when another is sent decides the
drop-tail test, and is in doubt only when the send falls exactly on the
packet's finish instant. The two-event model scheduled the finish event
when serialization began, so it had run by then iff it was scheduled
before the event now running. The link therefore keeps each packet's
service start, every ``ScheduledEvent`` records the instant at which it
was scheduled (``inserted``; an arrival is stamped with its finish, the
instant at which the two-event model scheduled it), and the loop exposes
that of the running event (``EventLoop.inserted``). The rule: a packet
finishing exactly now has left iff its service began before the running
event's insertion instant. Between runs that instant counts as +inf,
since every event at or before ``now`` has run, and before the first
run as -inf. A bandwidth change re-times the packets queued behind the
one in service, so it still applies from the next service start.

The link knows the instant of each scheduling but not the order of two
schedulings made at one instant, so two cases still differ from the
two-event model:

  * a send at a packet's finish instant, by an event scheduled at the
    very instant the packet's service began, finds the packet still
    there, even when that event was scheduled after the service began.
    On two 8192 bit/s links in series, the second with queue limit 1
    and the first with 62.5 ms of delay, two 64-byte packets sent
    together meet this: the second link drops the second packet, which
    the two-event model queued;
  * an arrival is scheduled at ``send``, so an event scheduled later,
    while the packet is on the link, for exactly the arrival's instant
    now runs after the arrival instead of before it.

Neither changes an output of the eight scenarios or the benchmark
workloads; ``tests/test_link_model.py`` pins both.

Enum members on the per-packet path. Loading a member through its class,
as in ``PacketKind.DATA``, goes through ``EnumType``'s metaclass
``__getattr__``: on CPython 3.11 that is about 110 ns, against about 10
for a module global. So each enum that the per-packet path reads is
unpacked into module-level names right below its class, in definition
order (``DATA, ACK, APP_ACK = PacketKind``), and the hot path imports and
reads those names, comparing members with ``is``. This holds for
``PacketKind`` here, ``TraceKind`` in ``cmsim.trace`` and ``LossMode`` in
``cmsim.core``.
"""
from __future__ import annotations

import enum
import heapq
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .errors import PastTime
from .trace import DELIVER, DROP, MARK, Tracer

DEFAULT_QUEUE_LIMIT = 50
DEFAULT_MTU = 1500
INF = float("inf")


class PacketKind(enum.Enum):
    DATA = "data"
    ACK = "ack"
    APP_ACK = "app_ack"


DATA, ACK, APP_ACK = PacketKind


@dataclass(slots=True)
class Packet:
    flow: int
    seq: int
    size: int
    kind: PacketKind = DATA
    # senders build packets positionally up to meta; the link sets the flag
    meta: Any = None
    ecn_marked: bool = False


class ScheduledEvent:
    """Handle of one scheduled call; ``cancel`` stops it from running.

    ``EventLoop.schedule`` builds every handle and sets its five slots
    itself; an ``__init__`` here would cost each event a Python frame
    (see the module docstring). ``inserted`` is the virtual instant at
    which the call was scheduled.
    """
    __slots__ = ("time", "fn", "args", "cancelled", "inserted")

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """Virtual-time event queue; (time, insertion seq) ordering.

    ``inserted`` is the instant at which the event now running was
    scheduled. Outside a run it is -inf before the first run, when no
    event has run yet, and +inf after one returns, when every event at or
    before ``now`` has run.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.inserted = -INF
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = 0

    def schedule(self, at: float, fn: Callable, *args) -> ScheduledEvent:
        # written so that a NaN time, which compares false, is refused
        if not at >= self.now:
            raise PastTime(f"schedule at {at}: not at or after now {self.now}")
        ev = ScheduledEvent()
        ev.time = at
        ev.fn = fn
        ev.args = args
        ev.cancelled = False
        ev.inserted = self.now
        heapq.heappush(self._heap, (at, self._seq, ev))
        self._seq += 1
        return ev

    def schedule_after(self, delay: float, fn: Callable, *args) -> ScheduledEvent:
        return self.schedule(self.now + delay, fn, *args)

    def run_until(self, t_end: float) -> None:
        """Run every event due by ``t_end``; ``now`` is then ``t_end``."""
        if not t_end >= self.now:
            raise PastTime(f"run_until {t_end}: not at or after now {self.now}")
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            at, _, ev = pop(heap)
            if ev.cancelled:
                continue
            self.now = at
            self.inserted = ev.inserted
            ev.fn(*ev.args)
        self.inserted = INF
        self.now = t_end


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
        """Set the deadline to ``now + delay``. A time the loop refuses
        (NaN, or in the past) raises PastTime and leaves the timer as it
        was: the new entry is scheduled before the old one is cancelled."""
        at = self.loop.now + delay
        ev = self._ev
        if ev is not None and ev.time <= at:
            self.at = at        # the entry pops early and moves itself to ``at``
            return
        self._ev = self.loop.schedule(at, self._fire)
        if ev is not None:
            ev.cancel()
        self.at = at

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


class Link:
    """One directional link: serialization + propagation + drop-tail queue.

    A packet costs one heap event per hop, its arrival. ``send`` works out
    when the packet finishes serialization, ``max(now, last finish) +
    size·8/bandwidth``, and schedules the arrival at ``finish +
    prop_delay``. The backlog holds ``(finish, start, packet, arrival)``
    for each packet still being serialized or waiting, in FIFO order; the
    head is the one being serialized, and it counts toward
    ``queue_limit``. See the module docstring for when a packet whose
    finish is exactly ``now`` has left. Each packet that arrives goes to
    ``sink``, which starts as None and may be assigned at any time; with
    none, the packet is lost. ``send`` returns nothing: a drop or an ECN
    mark of a data packet is recorded as a Drop or Mark row in the trace.

    Random loss draws come from this link's own RNG stream, seeded from the
    master seed and the link name, so adding traffic elsewhere never
    perturbs the loss pattern here.
    """

    def __init__(self, loop: EventLoop, bandwidth_bps: float, prop_delay: float,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT, loss_prob: float = 0.0,
                 ecn_mode: bool = False, mtu: int = DEFAULT_MTU,
                 seed: int = 0, name: str = "link",
                 tracer: Optional[Tracer] = None) -> None:
        # the negated tests refuse NaN too, which compares false
        if not bandwidth_bps > 0:
            raise ValueError("bandwidth must be positive")
        if not (0.0 <= loss_prob < 1.0):
            raise ValueError("loss_prob must be in [0, 1)")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if not prop_delay >= 0:
            raise ValueError("prop_delay must be non-negative")
        self.loop = loop
        self.bandwidth_bps = float(bandwidth_bps)
        self.prop_delay = float(prop_delay)
        self.queue_limit = int(queue_limit)
        self.loss_prob = float(loss_prob)
        self.ecn_mode = bool(ecn_mode)
        self.mtu = int(mtu)
        self.name = name
        self.sink: Optional[Callable[[Packet, float], None]] = None
        self.tracer = tracer
        self._rng = random.Random(f"{seed}:{name}")
        self._backlog: Deque[Tuple[float, float, Packet,
                                   ScheduledEvent]] = deque()

    def _leave(self) -> None:
        """Drop the packets that have finished serialization. One that
        finishes exactly now has finished iff its service began before
        the running event was scheduled (see the module docstring)."""
        backlog = self._backlog
        loop = self.loop
        while backlog:
            finish, start = backlog[0][:2]
            if finish > loop.now or (finish == loop.now
                                     and start >= loop.inserted):
                return
            backlog.popleft()

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Applies from the next service start; the packet currently being
        serialized finishes at its old pace, and the packets queued behind
        it are re-timed."""
        if not bandwidth_bps > 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = float(bandwidth_bps)
        self._leave()
        backlog = self._backlog
        if len(backlog) < 2:
            return
        head, *queued = backlog
        backlog.clear()
        backlog.append(head)
        for _, _, pkt, ev in queued:
            ev.cancel()
            self._enqueue(pkt)

    def _enqueue(self, pkt: Packet) -> None:
        """Queue ``pkt`` at the tail and schedule its arrival."""
        backlog = self._backlog
        start = backlog[-1][0] if backlog else self.loop.now
        finish = start + pkt.size * 8.0 / self.bandwidth_bps
        ev = self.loop.schedule(finish + self.prop_delay, self._arrive, pkt)
        ev.inserted = finish    # when the two-event model scheduled it
        backlog.append((finish, start, pkt, ev))

    # -- datapath ---------------------------------------------------------

    def send(self, pkt: Packet) -> None:
        if pkt.size > self.mtu and pkt.kind is DATA:
            raise ValueError(f"packet size {pkt.size} exceeds link mtu {self.mtu}")
        backlog = self._backlog
        if backlog and backlog[0][0] <= self.loop.now:
            self._leave()
        if len(backlog) >= self.queue_limit:
            marked = False
        elif self.loss_prob > 0.0 and self._rng.random() < self.loss_prob:
            marked = self.ecn_mode
        else:
            self._enqueue(pkt)
            return
        # Ack-type packets stay out of the trace to keep it data-plane only.
        if self.tracer is not None and pkt.kind is DATA:
            self.tracer.emit(self.loop.now, pkt.flow,
                             MARK if marked else DROP, pkt.seq, pkt.size)
        if marked:
            pkt.ecn_marked = True
            self._enqueue(pkt)

    def _arrive(self, pkt: Packet) -> None:
        if self.tracer is not None and pkt.kind is DATA:
            self.tracer.emit(self.loop.now, pkt.flow, DELIVER, pkt.seq,
                             pkt.size)
        if self.sink is not None:
            self.sink(pkt, self.loop.now)


def Path(links: List[Link],
         sink: Optional[Callable[[Packet, float], None]] = None) -> Link:
    """The one link in ``links``, with ``sink`` set as its sink. Clients
    and builders hold their ``Link`` itself; only perfbench's
    ``workloads.py`` still builds through here, and ROADMAP item 17
    deletes this function with that call."""
    if len(links) != 1:
        raise ValueError("a path is exactly one link")
    links[0].sink = sink
    return links[0]


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
