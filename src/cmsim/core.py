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
outstanding + MTU <= cwnd. Callbacks are synchronous but never nest inside
a client API call: work triggered inside open/request/notify/update/... is
queued and dispatched when the outermost call returns.

The scheduler keeps its state as calls arrive instead of scanning every
destination on every call: a min-heap of macroflows that may be ready for
a grant (lowest id served first), a per-macroflow count of members with
pending requests, the members registered for rate callbacks, and a heap
of idle-decay deadlines. The clock must never run backwards.
"""
from __future__ import annotations

import enum
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass
from heapq import heappop, heappush
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
                 "last_notified_rate")

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


class _Macroflow:
    __slots__ = ("id", "dst", "mtu", "cwnd", "ssthresh", "outstanding",
                 "srtt", "rttvar", "loss_rate", "ca_acc", "recovery_left",
                 "last_cut_time", "members", "rr_cursor", "last_send_time",
                 "demand", "rated", "in_ready", "decay_key")

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
        self.members: List[int] = []
        self.rr_cursor = 0
        self.last_send_time = now
        self.demand = 0            # members with pending_requests > 0
        self.rated: List[_Flow] = []   # members with an update callback, by id
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


class CongestionManager:
    """The congestion-control core shared by every flow on a host.

    Args:
        mtu: path MTU used for every destination.
        initial_ssthresh: slow-start threshold for a fresh macroflow.
        clock: callable returning current virtual time, never decreasing;
            defaults to a constant 0.0 for purely call-driven use.
        tracer: optional Tracer receiving Grant/CwndChange/RateCallback rows.
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
        self._open_keys: Dict[FlowKey, int] = {}
        self._macroflows: Dict[int, _Macroflow] = {}
        self._mf_by_dst: Dict[str, int] = {}
        self._next_flow_id = 1     # ids below this were issued
        self._next_mf_id = 1
        self._depth = 0
        self._in_dispatch = False
        self._update_queue: deque = deque()
        # ids of macroflows that may have a grant to give; every macroflow
        # that has one is here (see _mark_ready)
        self._ready: List[int] = []
        # (idle deadline lower bound, macroflow id); see _update_impl
        self._decay: List[Tuple[float, int]] = []
        # macroflows whose srtt / 2 < BASE_TICK, for tick_period
        self._fast: Set[_Macroflow] = set()
        self.op_counts: Counter = Counter()

    # -- plumbing ---------------------------------------------------------

    def _enter(self, opname: Optional[str]) -> None:
        if opname is not None:
            self.op_counts[opname] += 1
        self._depth += 1

    def _exit(self) -> None:
        self._depth -= 1
        if self._depth == 0 and not self._in_dispatch:
            self._dispatch()

    def _flow(self, flow_id: int) -> _Flow:
        fl = self._flows.get(flow_id)
        if fl is None:
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
        self._enter("open")
        try:
            if key in self._open_keys:
                raise DuplicateFlow(f"{key} already open")
            mfid = self._mf_by_dst.get(key.dst_addr)
            if mfid is None:
                mfid = self._next_mf_id
                self._next_mf_id += 1
                mf = _Macroflow(mfid, key.dst_addr, self._mtu,
                                self._initial_ssthresh, self._clock())
                self._macroflows[mfid] = mf
                self._mf_by_dst[key.dst_addr] = mfid
            else:
                mf = self._macroflows[mfid]
            fid = self._next_flow_id
            self._next_flow_id += 1
            fl = _Flow(fid, key, mf)
            self._flows[fid] = fl
            self._open_keys[key] = fid
            mf.members.append(fid)
            return fid
        finally:
            self._exit()

    def close(self, flow_id: int) -> None:
        """Idempotent for a known flow; UnknownFlow for a never-issued id.
        The flow's record is dropped: an issued id that is no longer open
        is a closed one. Bytes the flow still has outstanding are
        discharged from the macroflow, since no report will cover them."""
        self._enter("close")
        try:
            fl = self._flows.pop(flow_id, None)
            if fl is None:
                if isinstance(flow_id, int) and \
                        0 < flow_id < self._next_flow_id:
                    return
                raise UnknownFlow(f"flow {flow_id}")
            del self._open_keys[fl.key]
            mf = fl.mf
            mf.outstanding = max(0, mf.outstanding - fl.outstanding)
            if fl.pending_requests > 0:
                mf.demand -= 1
            if fl.update_cb is not None:
                del mf.rated[bisect_left(mf.rated, fl.id, key=_by_id)]
            idx = mf.members.index(flow_id)
            mf.members.pop(idx)
            if idx < mf.rr_cursor:
                mf.rr_cursor -= 1
            if mf.members:
                mf.rr_cursor %= len(mf.members)
            else:
                # keep the macroflow: destination state survives its last
                # member so later flows inherit cwnd/srtt instead of
                # restarting cold; it ages only via idle decay
                mf.rr_cursor = 0
            self._mark_ready(mf)
        finally:
            self._exit()

    def mtu(self, flow_id: int) -> int:
        self._enter("mtu")
        try:
            return self._flow(flow_id).mf.mtu
        finally:
            self._exit()

    # -- registrations ----------------------------------------------------

    def register_send(self, flow_id: int, cb: SendCallback) -> None:
        self._enter("register_send")
        try:
            fl = self._flow(flow_id)
            fl.send_cb = cb
            self._mark_ready(fl.mf)
        finally:
            self._exit()

    def register_update(self, flow_id: int, cb: UpdateCallback) -> None:
        self._enter("register_update")
        try:
            fl = self._flow(flow_id)
            rated = fl.mf.rated
            if fl.update_cb is None and cb is not None:
                insort(rated, fl, key=_by_id)
            elif fl.update_cb is not None and cb is None:
                del rated[bisect_left(rated, fl.id, key=_by_id)]
            fl.update_cb = cb
        finally:
            self._exit()

    def thresh(self, flow_id: int, down: float, up: float) -> None:
        """Set the rate-change notification band: callbacks fire when the
        flow's rate leaves [last_notified * down, last_notified * up]."""
        self._enter("thresh")
        try:
            fl = self._flow(flow_id)
            if not (0.0 < down <= 1.0 <= up):
                raise InvalidThreshold(f"down={down} up={up}")
            fl.thresh_down = float(down)
            fl.thresh_up = float(up)
        finally:
            self._exit()

    # -- transmission control --------------------------------------------

    def request(self, flow_id: int) -> None:
        """Ask for one grant of up to MTU bytes; granted at the next
        dispatch once the window admits it."""
        self._enter("request")
        try:
            self._request_impl(flow_id)
        finally:
            self._exit()

    def _request_impl(self, flow_id: int) -> None:
        fl = self._flow(flow_id)
        if fl.send_cb is None:
            raise NoCallbackRegistered(f"flow {flow_id}")
        fl.pending_requests += 1
        if fl.pending_requests == 1:
            fl.mf.demand += 1
        self._mark_ready(fl.mf)

    def notify(self, flow_id: int, nsent: int) -> None:
        """Charge nsent bytes actually put on the wire; nsent == 0 declines
        a grant so the scheduler can offer it to the next flow."""
        self._enter("notify")
        try:
            self._notify_impl(flow_id, nsent)
        finally:
            self._exit()

    def _notify_impl(self, flow_id: int, nsent: int) -> None:
        fl = self._flow(flow_id)
        if nsent < 0:
            raise InvalidReport(f"nsent={nsent}")
        if nsent > 0:
            fl.outstanding += int(nsent)
            fl.mf.outstanding += int(nsent)
            fl.mf.last_send_time = self._clock()

    def update(self, flow_id: int, report: FeedbackReport) -> None:
        """Fold a feedback report into the macroflow's shared state.

        report.nsent bytes are discharged from outstanding and report.nrecd
        of them count as delivered. The discharge lowers both the flow's
        own charge and the macroflow's, each clamped at 0: a report that
        exceeds the flow's charge still discharges bytes its siblings
        notified, and leaves the flow nothing for close to return. Raises
        InvalidReport, before any state changes, unless
        0 <= nrecd <= nsent, any rtt sample is positive and lossmode is a
        LossMode."""
        self._enter("update")
        try:
            self._update_impl(flow_id, report)
        finally:
            self._exit()

    def _update_impl(self, flow_id: int, report: FeedbackReport) -> None:
        fl = self._flow(flow_id)
        nsent, nrecd = int(report.nsent), int(report.nrecd)
        if nsent < 0 or nrecd < 0 or nrecd > nsent:
            raise InvalidReport(f"nsent={nsent} nrecd={nrecd}")
        if report.rtt is not None and report.rtt <= 0.0:
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
        elif mode in (LossMode.TRANSIENT, LossMode.ECN):
            spacing = mf.srtt if mf.srtt > 0 else INITIAL_RTO
            if mf.recovery_left == 0 or now - mf.last_cut_time >= spacing:
                mf.ssthresh = max(mf.cwnd // 2, 2 * mf.mtu)
                mf.cwnd = mf.ssthresh
                mf.ca_acc = 0
                mf.recovery_left = mf.cwnd
                mf.last_cut_time = now
        else:                                       # PERSISTENT
            mf.ssthresh = max(mf.cwnd // 2, 2 * mf.mtu)
            mf.cwnd = mf.mtu
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

    # -- introspection ----------------------------------------------------

    def query(self, flow_id: int) -> QueryResult:
        self._enter("query")
        try:
            return self._query_impl(flow_id)
        finally:
            self._exit()

    def _query_impl(self, flow_id: int) -> QueryResult:
        mf = self._flow(flow_id).mf
        return QueryResult(rate=self._flow_rate(mf), srtt=mf.srtt,
                           loss_rate=mf.loss_rate)

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
                              members=tuple(mf.members))

    # -- batched variants (one boundary crossing each) --------------------

    def bulk_request(self, flow_ids: Sequence[int]) -> None:
        """request() element-wise in list order; the first failing element
        aborts the remainder, earlier elements stay applied."""
        self._enter("bulk_request")
        try:
            for fid in flow_ids:
                self._request_impl(fid)
        finally:
            self._exit()

    def bulk_notify(self, pairs: Sequence[Tuple[int, int]]) -> None:
        self._enter("bulk_notify")
        try:
            for fid, nsent in pairs:
                self._notify_impl(fid, nsent)
        finally:
            self._exit()

    def bulk_update(self, pairs: Sequence[Tuple[int, FeedbackReport]]) -> None:
        self._enter("bulk_update")
        try:
            for fid, report in pairs:
                self._update_impl(fid, report)
        finally:
            self._exit()

    def bulk_query(self, flow_ids: Sequence[int]) -> List[QueryResult]:
        self._enter("bulk_query")
        try:
            return [self._query_impl(fid) for fid in flow_ids]
        finally:
            self._exit()

    # -- scheduler --------------------------------------------------------

    def tick(self, now: float) -> None:
        """Periodic maintenance: decay idle windows, re-dispatch grants
        that may have been lost to a stuck client. Driven by the host's
        timer, so it does not count as an API boundary crossing."""
        self._enter(None)
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
                    self._trace(mf.members[0], TraceKind.CWND_CHANGE,
                                mf.cwnd, mf.ssthresh)
                self._eval_thresholds(mf)
        finally:
            self._exit()

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
        return (mf.cwnd / mf.srtt) / max(1, mf.demand)

    def _eval_thresholds(self, mf: _Macroflow) -> None:
        if not mf.rated:
            return
        rate = self._flow_rate(mf)
        for fl in mf.rated:
            r0 = fl.last_notified_rate
            if rate == r0:
                continue
            if rate <= r0 * fl.thresh_down or rate >= r0 * fl.thresh_up:
                fl.last_notified_rate = rate
                self._update_queue.append((fl.id, rate, mf.srtt, mf.loss_rate))

    # -- dispatch ---------------------------------------------------------

    def _mark_ready(self, mf: _Macroflow) -> None:
        """Put mf on the ready heap if it has a grant to give. Called
        wherever demand rises or the window opens (request, update,
        register_send), so the heap holds every macroflow that is ready."""
        if not mf.in_ready and mf.demand and \
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
        members from rr_cursor. A macroflow stays on the heap while it is
        being served, so a grant callback that raises strands nothing."""
        ready = self._ready
        while ready:
            mf = self._macroflows[ready[0]]
            if mf.demand and mf.outstanding + mf.mtu <= mf.cwnd:
                n = len(mf.members)
                for i in range(n):
                    idx = (mf.rr_cursor + i) % n
                    fl = self._flows[mf.members[idx]]
                    if fl.pending_requests > 0 and fl.send_cb is not None:
                        fl.pending_requests -= 1
                        if fl.pending_requests == 0:
                            mf.demand -= 1
                        mf.rr_cursor = (idx + 1) % n
                        self.op_counts["cmapp_send"] += 1
                        self._trace(fl.id, TraceKind.GRANT, mf.cwnd,
                                    mf.outstanding)
                        fl.send_cb(fl.id)
                        return True
            heappop(ready)
            mf.in_ready = False
        return False
