"""Shared per-destination congestion control with an adaptation API.

All flows a host opens to the same destination address join one *macroflow*
that owns the congestion state: one AIMD window, one smoothed RTT estimate,
one loss-rate estimate. Clients never send on their own schedule; they ask
for transmission grants (request/callback), or pace themselves off rate
change notifications (register_update + thresh), and report what happened
to the network back through update().

Window rules (integer bytes throughout):

  * slow start while cwnd < ssthresh: cwnd grows by the bytes acked;
  * congestion avoidance: one MTU of growth per cwnd bytes acked, tracked
    with a byte accumulator so growth is independent of how acks are split
    across reports; growth is deliberately optimistic (no utilization
    check), so a self-paced client's estimate can rise past its own send
    rate and discover newly available bandwidth; losses pull it back;
  * transient loss / ECN: ssthresh = max(cwnd/2, 2*MTU), cwnd = ssthresh,
    at most once per recovery epoch. An epoch ends when one post-cut
    window's worth of traffic has been reported (the traffic-clock
    equivalent of one RTT at a steady rate) or when one smoothed RTT of
    wall time has passed, whichever comes first; the time release keeps
    an epoch from outliving a real round trip when the send rate has
    just collapsed;
  * persistent loss: same ssthresh cut, cwnd back to one MTU.

Grants are issued round-robin over flows with pending requests whenever
outstanding + MTU <= cwnd. Grant and rate callbacks are synchronous but
never nest inside a client API call; _api states that boundary.

The scheduler keeps its state as calls arrive instead of scanning every
destination or member on every call: a min-heap of macroflows that may be
ready for a grant (lowest id served first), a per-macroflow sorted list of
the ids of members with pending requests, a per-macroflow band index of the
members registered for rate callbacks, and a heap of idle-decay deadlines.
The clock must never run backwards.

Rate callbacks. A registered member is notified when its macroflow's
rate, which every member shares, leaves its band: rate != r0 and
(rate <= r0 * down or rate >= r0 * up), where r0 is the rate it was last
notified of (0 before the first) and (down, up) its thresh. At r0 = 0
every band notifies the first nonzero rate, up = inf included (whose
0 * inf is NaN, which no rate reaches). The band
index holds, per macroflow, a min-heap of each member's high edge and a
max-heap of its low edge, so an update pops only the members whose edge
the rate has crossed; see _Macroflow.index for the exact keys.
"""
from __future__ import annotations

import enum
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import inf, nextafter
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .errors import (DuplicateFlow, InvalidReport, InvalidThreshold,
                     NoCallbackRegistered, UnknownFlow)
from .trace import TraceKind, Tracer

DEFAULT_MTU = 1500
DEFAULT_SSTHRESH = 64 * 1024
MIN_RTO = 0.2
MAX_RTO = 60.0
INITIAL_RTO = 1.0
RTT_GAIN = 0.125        # srtt <- 7/8 srtt + 1/8 sample
RTTVAR_GAIN = 0.25      # rttvar <- 3/4 rttvar + 1/4 |sample - srtt|
LOSS_RATE_GAIN = 0.125
IDLE_RTO_MULTIPLE = 4   # idle longer than 4*RTO decays cwnd to the initial window
BASE_TICK = 0.010


class Proto(enum.Enum):
    TCP = "tcp"
    UDP = "udp"


class Phase(enum.Enum):
    SLOW_START = "slow_start"
    CONGESTION_AVOIDANCE = "congestion_avoidance"


class LossMode(enum.Enum):
    NO_LOSS = "no_loss"
    TRANSIENT = "transient"
    PERSISTENT = "persistent"
    ECN = "ecn"


@dataclass(frozen=True)
class FlowKey:
    src_addr: str
    src_port: int
    dst_addr: str
    dst_port: int
    proto: Proto = Proto.UDP


@dataclass(frozen=True)
class FeedbackReport:
    """What a client learned from the network over one feedback interval.

    nsent is the bytes the report covers; update() discharges them from
    the macroflow's outstanding bytes. nrecd is the part of them that
    arrived, so 0 <= nrecd <= nsent. lossmode is the kind of loss seen and
    rtt an optional fresh RTT sample (seconds)."""
    nsent: int
    nrecd: int
    lossmode: LossMode = LossMode.NO_LOSS
    rtt: Optional[float] = None


@dataclass(frozen=True)
class QueryResult:
    rate: float        # bytes/s available to this flow right now
    srtt: float        # seconds; 0.0 until the first sample
    loss_rate: float   # smoothed loss fraction


@dataclass(frozen=True)
class MacroflowState:
    """Read-only snapshot for tests and instrumentation."""
    id: int
    dst_addr: str
    cwnd: int
    ssthresh: int
    outstanding: int
    mtu: int
    srtt: float
    rttvar: float
    loss_rate: float
    phase: Phase
    members: Tuple[int, ...]


SendCallback = Callable[[int], None]
UpdateCallback = Callable[[int, float, float, float], None]

_by_id = attrgetter("id")


class _Flow:
    __slots__ = ("id", "key", "mf", "pending_requests", "outstanding",
                 "send_cb", "update_cb", "thresh_down", "thresh_up",
                 "last_notified_rate", "band")

    def __init__(self, fid: int, key: FlowKey, mf: "_Macroflow") -> None:
        self.id = fid
        self.key = key
        self.mf = mf
        self.pending_requests = 0
        self.outstanding = 0    # bytes notified, not yet reported by update
        self.send_cb: Optional[SendCallback] = None
        self.update_cb: Optional[UpdateCallback] = None
        self.thresh_down = 1.0
        self.thresh_up = 1.0
        self.last_notified_rate = 0.0
        # seq of the flow's live band-index entries; None while it has no
        # update callback
        self.band: Optional[int] = None


class _Macroflow:
    __slots__ = ("id", "dst", "mtu", "cwnd", "ssthresh", "outstanding",
                 "srtt", "rttvar", "loss_rate", "ca_acc", "recovery_left",
                 "last_cut_time", "members", "wanting", "rr_next",
                 "last_send_time", "nrated", "up_edges", "down_edges",
                 "band_seq", "in_ready", "decay_key")

    def __init__(self, mfid: int, dst: str, mtu: int, ssthresh: int,
                 now: float) -> None:
        self.id = mfid
        self.dst = dst
        self.mtu = mtu
        self.cwnd = mtu
        self.ssthresh = ssthresh
        self.outstanding = 0
        self.srtt = 0.0
        self.rttvar = 0.0
        self.loss_rate = 0.0
        self.ca_acc = 0            # CA byte accumulator toward the next +MTU
        self.recovery_left = 0     # reported bytes until another cut is allowed
        self.last_cut_time = float("-inf")
        self.members: List[_Flow] = []  # in id order, as open appends
        self.wanting: List[int] = []    # sorted ids, pending_requests > 0
        self.rr_next = 0           # least id the next grant may go to
        self.last_send_time = now
        self.nrated = 0            # members with an update callback
        # the band index (see index): (high edge, seq, flow), least on
        # top, and (-low edge, seq, flow), greatest edge on top
        self.up_edges: List[Tuple[float, int, _Flow]] = []
        self.down_edges: List[Tuple[float, int, _Flow]] = []
        self.band_seq = 0
        self.in_ready = False      # on the manager's ready heap
        # key of this macroflow's live entry on the decay heap; None when it
        # has none, which happens only while cwnd <= mtu
        self.decay_key: Optional[float] = None

    @property
    def phase(self) -> Phase:
        if self.cwnd < self.ssthresh:
            return Phase.SLOW_START
        return Phase.CONGESTION_AVOIDANCE

    def rto(self) -> float:
        if self.srtt <= 0.0:
            return INITIAL_RTO
        return min(max(self.srtt + 4.0 * self.rttvar, MIN_RTO), MAX_RTO)

    def idle_deadline(self) -> float:
        return self.last_send_time + IDLE_RTO_MULTIPLE * self.rto()

    def index(self, fl: _Flow) -> None:
        """Key fl's band edges around r0 = fl.last_notified_rate; the
        entries of its earlier keying go stale.

        A rate crosses an entry's key exactly when the notification rule
        (module docstring) fires on that side: rate >= key on the high
        side, rate <= key on the low side, the keys being the rule's own
        products r0 * up and r0 * down. An edge that equals r0 (up or down
        1.0, r0 0 or inf) is moved one float off r0, since rate == r0
        never fires. At r0 = 0 the high edge is the least positive float
        whatever up is, so the first nonzero rate fires (module
        docstring). A high edge that no rate can cross (r0 inf) gets no
        entry."""
        r0 = fl.last_notified_rate
        self.band_seq += 1
        fl.band = seq = self.band_seq
        hi = r0 * fl.thresh_up
        if hi == r0 or r0 == 0.0:
            hi = nextafter(r0, inf)
        if hi > r0:
            heappush(self.up_edges, (hi, seq, fl))
        lo = r0 * fl.thresh_down
        if lo == r0:
            lo = nextafter(r0, -inf)
        heappush(self.down_edges, (-lo, seq, fl))

    def unindex(self, fl: _Flow) -> None:
        fl.band = None
        self.nrated -= 1
        self.trim()

    def trim(self) -> None:
        """Drop the stale entries of a heap once they outnumber its live
        ones, so each heap holds at most 2 * nrated entries."""
        limit = 2 * self.nrated
        for edges in (self.up_edges, self.down_edges):
            if len(edges) > limit:
                edges[:] = [e for e in edges if e[2].band == e[1]]
                heapify(edges)


_UNSET = object()


def _api(name: str, impl: Callable) -> Callable:
    """Bind the body impl as the client API call name: the one boundary.

    Each call counts once in op_counts, whether it returns or raises.
    Grants and rate callbacks that the body makes due are queued and run
    when the outermost call returns or raises, so no callback nests inside
    a call; the core never calls its own API, so a call made outside a
    dispatch is the outermost one. Arguments pass on positionally: sentinel
    defaults cost less than forwarding *args."""
    def call(self, a, b=_UNSET, c=_UNSET):
        self.op_counts[name] += 1
        try:
            if b is _UNSET:
                return impl(self, a)
            if c is _UNSET:
                return impl(self, a, b)
            return impl(self, a, b, c)
        finally:
            if not self._in_dispatch:
                self._dispatch()
    call.__name__ = name
    call.__qualname__ = f"CongestionManager.{name}"
    call.__doc__ = impl.__doc__
    return call


class CongestionManager:
    """The congestion-control core shared by every flow on a host.

    Args:
        mtu: path MTU used for every destination.
        initial_ssthresh: slow-start threshold for a fresh macroflow.
        clock: callable returning current virtual time, never decreasing;
            defaults to a constant 0.0 for purely call-driven use.
        tracer: optional Tracer receiving Grant/CwndChange/RateCallback rows.

    A grant callback that raises uses its grant up: the Grant row and the
    ``cmapp_send`` count are recorded and the pending request is spent,
    but nothing is charged. The exception leaves the outermost API call
    that dispatched the grant, which may belong to another flow, such as
    a sibling's update that opened the window. The dispatch state is
    reset and the macroflow stays on the ready heap, so the next API call
    or tick grants the requests that remain.

    The client API calls take their arguments positionally (see _api);
    passing one by keyword raises TypeError.
    """

    def __init__(self, mtu: int = DEFAULT_MTU,
                 initial_ssthresh: int = DEFAULT_SSTHRESH,
                 clock: Optional[Callable[[], float]] = None,
                 tracer: Optional[Tracer] = None) -> None:
        if mtu <= 0:
            raise ValueError("mtu must be positive")
        self._mtu = int(mtu)
        self._initial_ssthresh = int(initial_ssthresh)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._tracer = tracer
        self._flows: Dict[int, _Flow] = {}
        self._open_keys: Set[FlowKey] = set()
        self._macroflows: Dict[int, _Macroflow] = {}
        self._mf_by_dst: Dict[str, _Macroflow] = {}
        self._next_flow_id = 1     # ids below this were issued
        self._in_dispatch = False
        self._update_queue: deque = deque()
        # ids of macroflows that may have a grant to give; every macroflow
        # that has one is here (see _mark_ready)
        self._ready: List[int] = []
        # (idle deadline lower bound, macroflow id); see _update
        self._decay: List[Tuple[float, int]] = []
        # macroflows whose srtt / 2 < BASE_TICK, for tick_period
        self._fast: Set[_Macroflow] = set()
        self.op_counts: Counter = Counter()

    # -- plumbing ---------------------------------------------------------

    def _flow(self, flow_id: int) -> _Flow:
        # an id is an int that open issued: True == 1 and 1.0 == 1 would
        # otherwise find flow 1
        fl = self._flows.get(flow_id)
        if fl is None or type(flow_id) is not int:
            raise UnknownFlow(f"flow {flow_id}")
        return fl

    def _trace(self, flow: int, kind: TraceKind, v1: float, v2: float) -> None:
        if self._tracer is not None:
            self._tracer.emit(self._clock(), flow, kind, v1, v2)

    @property
    def boundary_crossings(self) -> int:
        """Total client API calls plus callback invocations so far."""
        return sum(self.op_counts.values())

    # -- flow lifecycle ---------------------------------------------------

    def open(self, key: FlowKey) -> int:
        """Admit a flow, creating or joining the destination's macroflow."""
        if key in self._open_keys:
            raise DuplicateFlow(f"{key} already open")
        mf = self._mf_by_dst.get(key.dst_addr)
        if mf is None:
            # macroflows are never dropped, so ids run 1, 2, ... in order
            mf = _Macroflow(len(self._macroflows) + 1, key.dst_addr,
                            self._mtu, self._initial_ssthresh, self._clock())
            self._macroflows[mf.id] = self._mf_by_dst[key.dst_addr] = mf
        fid = self._next_flow_id
        self._next_flow_id += 1
        fl = _Flow(fid, key, mf)
        self._flows[fid] = fl
        self._open_keys.add(key)
        mf.members.append(fl)
        return fid
    open = _api("open", open)

    def close(self, flow_id: int) -> None:
        """Idempotent for an issued id; UnknownFlow for anything else, such
        as a never-issued id or a bool. The flow's record is dropped: an
        issued id that is no longer open is a closed one. Bytes the flow
        still has outstanding are discharged from the macroflow, since no
        report will cover them."""
        if type(flow_id) is not int or not 0 < flow_id < self._next_flow_id:
            raise UnknownFlow(f"flow {flow_id}")
        fl = self._flows.pop(flow_id, None)
        if fl is None:
            return
        self._open_keys.remove(fl.key)
        mf = fl.mf
        mf.outstanding = max(0, mf.outstanding - fl.outstanding)
        if fl.pending_requests > 0:
            del mf.wanting[bisect_left(mf.wanting, flow_id)]
        if fl.update_cb is not None:
            mf.unindex(fl)
        members = mf.members
        del members[bisect_left(members, flow_id, key=_by_id)]
        # the macroflow stays, so later flows inherit cwnd/srtt; past the
        # last member the next grant wraps, and a later member waits its turn
        if not members or mf.rr_next > members[-1].id:
            mf.rr_next = 0
        self._mark_ready(mf)
    close = _api("close", close)

    def mtu(self, flow_id: int) -> int:
        return self._flow(flow_id).mf.mtu
    mtu = _api("mtu", mtu)

    # -- registrations ----------------------------------------------------

    def register_send(self, flow_id: int, cb: SendCallback) -> None:
        """Register cb for grants; TypeError unless cb is callable, so
        every member with a pending request has a callback."""
        fl = self._flow(flow_id)
        if not callable(cb):
            raise TypeError(f"send callback {cb!r} is not callable")
        fl.send_cb = cb
    register_send = _api("register_send", register_send)

    def register_update(self, flow_id: int, cb: UpdateCallback) -> None:
        """Register cb for rate callbacks, or drop the registration with
        None; a new registration's band is around the rate last notified."""
        fl = self._flow(flow_id)
        mf = fl.mf
        if fl.update_cb is None and cb is not None:
            mf.nrated += 1
            mf.index(fl)
        elif fl.update_cb is not None and cb is None:
            mf.unindex(fl)
        fl.update_cb = cb
    register_update = _api("register_update", register_update)

    def thresh(self, flow_id: int, down: float, up: float) -> None:
        """Set the rate-change notification band: callbacks fire when the
        flow's rate leaves [last_notified * down, last_notified * up]."""
        fl = self._flow(flow_id)
        if not (0.0 < down <= 1.0 <= up):
            raise InvalidThreshold(f"down={down} up={up}")
        fl.thresh_down = float(down)
        fl.thresh_up = float(up)
        if fl.update_cb is not None:
            fl.mf.index(fl)
            fl.mf.trim()
    thresh = _api("thresh", thresh)

    # -- transmission control --------------------------------------------

    def _request(self, flow_id: int) -> None:
        """Ask for one grant of up to MTU bytes; granted at the next
        dispatch once the window admits it."""
        fl = self._flow(flow_id)
        if fl.send_cb is None:
            raise NoCallbackRegistered(f"flow {flow_id}")
        fl.pending_requests += 1
        if fl.pending_requests == 1:
            insort(fl.mf.wanting, flow_id)
        self._mark_ready(fl.mf)
    request = _api("request", _request)

    def _notify(self, flow_id: int, nsent: int) -> None:
        """Charge nsent bytes actually put on the wire; nsent == 0 declines
        a grant so the scheduler can offer it to the next flow. Raises
        InvalidReport unless nsent is finite and nonnegative."""
        fl = self._flow(flow_id)
        if not 0 <= nsent < inf:
            raise InvalidReport(f"nsent={nsent}")
        if nsent > 0:
            fl.outstanding += int(nsent)
            fl.mf.outstanding += int(nsent)
            fl.mf.last_send_time = self._clock()
    notify = _api("notify", _notify)

    def _update(self, flow_id: int, report: FeedbackReport) -> None:
        """Fold a feedback report into the macroflow's shared state.

        report.nsent bytes are discharged from outstanding and report.nrecd
        of them count as delivered. The discharge lowers both the flow's
        own charge and the macroflow's, each clamped at 0: a report that
        exceeds the flow's charge still discharges bytes its siblings
        notified, and leaves the flow nothing for close to return. Raises
        InvalidReport, before any state changes, unless
        0 <= nrecd <= nsent < inf, any rtt sample is in (0, inf) and
        lossmode is a LossMode."""
        fl = self._flow(flow_id)
        nsent, nrecd = report.nsent, report.nrecd
        if not 0 <= nrecd <= nsent < inf:
            raise InvalidReport(f"nsent={nsent} nrecd={nrecd}")
        nsent, nrecd = int(nsent), int(nrecd)
        if report.rtt is not None and not 0.0 < report.rtt < inf:
            raise InvalidReport(f"rtt={report.rtt}")
        mode = report.lossmode
        if not isinstance(mode, LossMode):
            raise InvalidReport(f"lossmode={mode}")
        mf = fl.mf
        fl.outstanding = max(0, fl.outstanding - nsent)
        mf.outstanding = max(0, mf.outstanding - nsent)

        if report.rtt is not None:
            sample = float(report.rtt)
            if mf.srtt <= 0.0:
                mf.srtt = sample
                mf.rttvar = sample / 2.0
            else:
                mf.rttvar = ((1.0 - RTTVAR_GAIN) * mf.rttvar
                             + RTTVAR_GAIN * abs(sample - mf.srtt))
                mf.srtt = (1.0 - RTT_GAIN) * mf.srtt + RTT_GAIN * sample
            if mf.srtt / 2.0 < BASE_TICK:
                self._fast.add(mf)
            else:
                self._fast.discard(mf)

        if nsent > 0:
            frac = (nsent - nrecd) / nsent
            mf.loss_rate += LOSS_RATE_GAIN * (frac - mf.loss_rate)

        old_cwnd, old_ssthresh = mf.cwnd, mf.ssthresh
        mf.recovery_left = max(0, mf.recovery_left - nsent)
        now = self._clock()
        if mode == LossMode.NO_LOSS:
            if nrecd > 0:
                if mf.cwnd < mf.ssthresh:
                    mf.cwnd += nrecd
                    if mf.cwnd >= mf.ssthresh:
                        mf.ca_acc = 0
                else:
                    mf.ca_acc += nrecd
                    while mf.ca_acc >= mf.cwnd:
                        mf.ca_acc -= mf.cwnd
                        mf.cwnd += mf.mtu
        else:       # PERSISTENT always cuts, TRANSIENT/ECN once per epoch
            persistent = mode == LossMode.PERSISTENT
            spacing = mf.srtt if mf.srtt > 0 else INITIAL_RTO
            if persistent or mf.recovery_left == 0 or \
                    now - mf.last_cut_time >= spacing:
                mf.ssthresh = max(mf.cwnd // 2, 2 * mf.mtu)
                mf.cwnd = mf.mtu if persistent else mf.ssthresh
                mf.ca_acc = 0
                mf.recovery_left = mf.cwnd
                mf.last_cut_time = now

        if mf.cwnd != old_cwnd or mf.ssthresh != old_ssthresh:
            self._trace(flow_id, TraceKind.CWND_CHANGE, mf.cwnd, mf.ssthresh)
        self._eval_thresholds(mf)
        self._mark_ready(mf)
        # Keep the decay key at or before the idle deadline. Only this
        # method shrinks the RTO (with an rtt sample) or lifts cwnd above
        # the MTU; notify only moves the deadline later, and tick re-keys
        # what it pops early.
        if mf.cwnd > mf.mtu and (mf.decay_key is None
                                 or report.rtt is not None):
            deadline = mf.idle_deadline()
            if mf.decay_key is None or deadline < mf.decay_key:
                mf.decay_key = deadline
                heappush(self._decay, (deadline, mf.id))
    update = _api("update", _update)

    # -- introspection ----------------------------------------------------

    def _query(self, flow_id: int) -> QueryResult:
        mf = self._flow(flow_id).mf
        return QueryResult(rate=self._flow_rate(mf), srtt=mf.srtt,
                           loss_rate=mf.loss_rate)
    query = _api("query", _query)

    def rtt_estimate(self, flow_id: int) -> Tuple[float, float]:
        """(srtt, rttvar) of the flow's macroflow; in-process clients such
        as the reliable transport read this for retransmission timers."""
        mf = self._flow(flow_id).mf
        return mf.srtt, mf.rttvar

    def rto_estimate(self, flow_id: int) -> float:
        return self._flow(flow_id).mf.rto()

    def macroflow_state(self, flow_id: int) -> MacroflowState:
        mf = self._flow(flow_id).mf
        return MacroflowState(id=mf.id, dst_addr=mf.dst, cwnd=mf.cwnd,
                              ssthresh=mf.ssthresh, outstanding=mf.outstanding,
                              mtu=mf.mtu, srtt=mf.srtt, rttvar=mf.rttvar,
                              loss_rate=mf.loss_rate, phase=mf.phase,
                              members=tuple(fl.id for fl in mf.members))

    # -- batched variants (one boundary crossing each) --------------------

    def bulk_request(self, flow_ids: Sequence[int]) -> None:
        """request() element-wise in list order; the first failing element
        aborts the remainder, earlier elements stay applied."""
        for fid in flow_ids:
            self._request(fid)
    bulk_request = _api("bulk_request", bulk_request)

    def bulk_notify(self, pairs: Sequence[Tuple[int, int]]) -> None:
        for fid, nsent in pairs:
            self._notify(fid, nsent)
    bulk_notify = _api("bulk_notify", bulk_notify)

    def bulk_update(self, pairs: Sequence[Tuple[int, FeedbackReport]]) -> None:
        for fid, report in pairs:
            self._update(fid, report)
    bulk_update = _api("bulk_update", bulk_update)

    def bulk_query(self, flow_ids: Sequence[int]) -> List[QueryResult]:
        return [self._query(fid) for fid in flow_ids]
    bulk_query = _api("bulk_query", bulk_query)

    # -- scheduler --------------------------------------------------------

    def tick(self, now: float) -> None:
        """Periodic maintenance: decay idle windows, re-dispatch grants
        that may have been lost to a stuck client. Driven by the host's
        timer, so it does not count as an API boundary crossing."""
        try:
            # Decay keys never exceed the idle deadline, so every macroflow
            # due now has an entry up to now; the slack covers the rounding
            # between the key's sum and the predicate's difference.
            limit = now + 1e-9 * (1.0 + abs(now))
            decay = self._decay
            due: List[_Macroflow] = []
            early: List[_Macroflow] = []
            while decay and decay[0][0] <= limit:
                key, mfid = heappop(decay)
                mf = self._macroflows[mfid]
                if mf.decay_key != key:             # superseded entry
                    continue
                mf.decay_key = None
                if mf.cwnd <= mf.mtu:
                    continue
                if now - mf.last_send_time >= IDLE_RTO_MULTIPLE * mf.rto():
                    due.append(mf)
                else:
                    early.append(mf)
            # re-keyed after the loop: a key within the slack would pop again
            for mf in early:
                mf.decay_key = mf.idle_deadline()
                heappush(decay, (mf.decay_key, mf.id))
            due.sort(key=_by_id)
            for mf in due:
                mf.cwnd = mf.mtu
                mf.ca_acc = 0
                mf.last_send_time = now
                if mf.members:
                    self._trace(mf.members[0].id, TraceKind.CWND_CHANGE,
                                mf.cwnd, mf.ssthresh)
                self._eval_thresholds(mf)
        finally:
            if not self._in_dispatch:
                self._dispatch()

    def tick_period(self) -> float:
        """Suggested interval until the next tick()."""
        period = BASE_TICK
        for mf in self._fast:
            period = min(period, mf.srtt / 2.0)
        return period

    # -- rate notifications ----------------------------------------------

    def _flow_rate(self, mf: _Macroflow) -> float:
        if mf.srtt <= 0.0:
            return 0.0
        return (mf.cwnd / mf.srtt) / max(1, len(mf.wanting))

    def _eval_thresholds(self, mf: _Macroflow) -> None:
        """Queue a rate callback for each registered member of mf whose
        band the current rate has left, in member id order, and re-key it
        around that rate.

        The band index pops only the entries the rate crosses: the high
        edges up to rate and the low edges down to it. Each live entry
        popped is a member that fires (see _Macroflow.index); a stale one
        is dropped. An update that crosses no edge pops nothing."""
        if not mf.nrated:
            return
        rate = self._flow_rate(mf)
        up, down = mf.up_edges, mf.down_edges
        fired = []
        while up and up[0][0] <= rate:
            _, seq, fl = heappop(up)
            if fl.band == seq:
                fired.append(fl)
        neg = -rate
        while down and down[0][0] <= neg:
            _, seq, fl = heappop(down)
            if fl.band == seq:
                fired.append(fl)
        if not fired:
            return
        fired.sort(key=_by_id)
        for fl in fired:
            fl.last_notified_rate = rate
            mf.index(fl)
            self._update_queue.append((fl.id, rate, mf.srtt, mf.loss_rate))
        mf.trim()

    # -- dispatch ---------------------------------------------------------

    def _mark_ready(self, mf: _Macroflow) -> None:
        """Put mf on the ready heap if it has a grant to give. Called
        wherever a member starts wanting or the window opens (request,
        update, close), so the heap holds every macroflow that is ready."""
        if not mf.in_ready and mf.wanting and \
                mf.outstanding + mf.mtu <= mf.cwnd:
            mf.in_ready = True
            heappush(self._ready, mf.id)

    def _dispatch(self) -> None:
        self._in_dispatch = True
        try:
            while True:
                if self._update_queue:
                    fid, rate, srtt, lr = self._update_queue.popleft()
                    fl = self._flows.get(fid)
                    if fl is not None and fl.update_cb:
                        self.op_counts["cmapp_update"] += 1
                        self._trace(fid, TraceKind.RATE_CALLBACK, rate, srtt)
                        fl.update_cb(fid, rate, srtt, lr)
                    continue
                if not self._grant_one():
                    break
        finally:
            self._in_dispatch = False

    def _grant_one(self) -> bool:
        """Grant to the lowest-id ready macroflow, round-robin over its
        wanting members: the least wanting id at or after rr_next, else
        the least one. A macroflow stays on the heap while it is being
        served, so a grant callback that raises strands nothing."""
        ready = self._ready
        while ready:
            mf = self._macroflows[ready[0]]
            wanting = mf.wanting
            if wanting and mf.outstanding + mf.mtu <= mf.cwnd:
                i = bisect_left(wanting, mf.rr_next)
                if i == len(wanting):
                    i = 0
                fl = self._flows[wanting[i]]
                fl.pending_requests -= 1
                if fl.pending_requests == 0:
                    del wanting[i]
                mf.rr_next = 0 if fl is mf.members[-1] else fl.id + 1
                self.op_counts["cmapp_send"] += 1
                self._trace(fl.id, TraceKind.GRANT, mf.cwnd, mf.outstanding)
                fl.send_cb(fl.id)
                return True
            heappop(ready)
            mf.in_ready = False
        return False
