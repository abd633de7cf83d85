"""Stateful check of the core scheduler against a reference of its rules.

A hypothesis state machine drives open, close, request, bulk_request,
notify, update in all four loss modes and tick with an advancing clock
(by fixed steps or to a macroflow's idle deadline), over three
destinations, with clients that accept or decline their grants and may
request again from inside the grant callback. A small model keeps the
rules the scheduler must follow:

  * a grant goes to the lowest-id macroflow that has a pending request and
    window room (outstanding + mtu <= cwnd), round-robin over its members
    from the cursor its last grant left;
  * tick(now) decays exactly the macroflows with cwnd > mtu that have been
    idle for IDLE_RTO_MULTIPLE * rto, in macroflow id order;
  * a flow's rate is cwnd / srtt split over the members with pending
    requests, and tick_period is BASE_TICK or the least srtt / 2.

Each grant is compared with the model's choice when it happens, and after
every step no grant may remain that the model would still give. The model
reads cwnd, outstanding and the RTO from the core itself: the window
arithmetic has its own tests (test_core_window.py, the aimd_oracle check).
"""
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from cmsim.core import (BASE_TICK, IDLE_RTO_MULTIPLE, CongestionManager,
                        FeedbackReport, FlowKey, LossMode)
from cmsim.errors import UnknownFlow
from cmsim.trace import TraceKind, Tracer

MTU = 1500
DESTS = ("d0", "d1", "d2")
MAX_FLOWS = 6
REREQUESTS_PER_STEP = 3
CLIENTS = ("accept", "decline", "accept_again", "decline_again")


class _ModelFlow:
    def __init__(self, mfid, client):
        self.mfid = mfid
        self.client = client
        self.pending = 0


class _ModelMacroflow:
    def __init__(self, now):
        self.members = []
        self.cursor = 0
        self.last_send = now


class CoreScheduler(RuleBasedStateMachine):

    @initialize()
    def start(self):
        self.now = 0.0
        self.tracer = Tracer()
        self.cm = CongestionManager(mtu=MTU, clock=lambda: self.now,
                                    tracer=self.tracer)
        self.flows = {}           # open flow id -> _ModelFlow
        self.closed = []
        self.mfs = {}             # macroflow id -> _ModelMacroflow
        self.mf_of_dst = {}
        self.port = 0
        self.rerequests = 0

    # -- the model --------------------------------------------------------

    def real(self, mfid):
        return self.cm._macroflows[mfid]

    def next_grant(self):
        """(macroflow id, member index) the rules say is granted next."""
        for mfid in sorted(self.mfs):
            m, mf = self.mfs[mfid], self.real(mfid)
            if mf.outstanding + mf.mtu > mf.cwnd:
                continue
            n = len(m.members)
            for i in range(n):
                idx = (m.cursor + i) % n
                if self.flows[m.members[idx]].pending > 0:
                    return mfid, idx
        return None

    def on_grant(self, fid):
        mf = self.real(self.flows[fid].mfid)
        assert mf.outstanding + mf.mtu <= mf.cwnd
        want = self.next_grant()
        assert want is not None, f"flow {fid} granted, none expected"
        mfid, idx = want
        m = self.mfs[mfid]
        assert m.members[idx] == fid, \
            f"granted flow {fid}, expected {m.members[idx]}"
        self.flows[fid].pending -= 1
        m.cursor = (idx + 1) % len(m.members)
        client = self.flows[fid].client
        if client.startswith("accept"):
            m.last_send = self.now
            self.cm.notify(fid, MTU)
        else:
            self.cm.notify(fid, 0)
        if client.endswith("again") and self.rerequests < REREQUESTS_PER_STEP:
            self.rerequests += 1
            self.flows[fid].pending += 1
            self.cm.request(fid)

    def pick(self, i):
        fids = sorted(self.flows)
        return fids[i % len(fids)]

    # -- rules ------------------------------------------------------------

    def setup_step(self):
        """Each rule is one step; clients may re-request a few times per
        step, so that a declining client cannot loop for ever."""
        self.rerequests = 0

    @precondition(lambda self: len(self.flows) < MAX_FLOWS)
    @rule(dst=st.sampled_from(DESTS), client=st.sampled_from(CLIENTS))
    def open(self, dst, client):
        self.setup_step()
        self.port += 1
        fid = self.cm.open(FlowKey("c", self.port, dst, 9))
        if dst not in self.mf_of_dst:
            self.mf_of_dst[dst] = len(self.mf_of_dst) + 1
            self.mfs[self.mf_of_dst[dst]] = _ModelMacroflow(self.now)
        mfid = self.mf_of_dst[dst]
        assert self.cm.macroflow_state(fid).id == mfid
        self.flows[fid] = _ModelFlow(mfid, client)
        self.mfs[mfid].members.append(fid)
        self.cm.register_send(fid, self.on_grant)

    @precondition(lambda self: self.flows)
    @rule(i=st.integers(0, MAX_FLOWS - 1))
    def close(self, i):
        self.setup_step()
        fid = self.pick(i)
        m = self.mfs[self.flows.pop(fid).mfid]
        idx = m.members.index(fid)
        m.members.pop(idx)
        if idx < m.cursor:
            m.cursor -= 1
        m.cursor = m.cursor % len(m.members) if m.members else 0
        self.closed.append(fid)
        self.cm.close(fid)

    @precondition(lambda self: self.closed)
    @rule(i=st.integers(0, 100))
    def close_again(self, i):
        self.setup_step()
        self.cm.close(self.closed[i % len(self.closed)])
        try:
            self.cm.close(self.port + 1000)
        except UnknownFlow:
            pass
        else:
            raise AssertionError("closing a never-issued id must raise")

    @precondition(lambda self: self.flows)
    @rule(i=st.integers(0, MAX_FLOWS - 1), times=st.integers(1, 3))
    def request(self, i, times):
        self.setup_step()
        fid = self.pick(i)
        for _ in range(times):
            self.flows[fid].pending += 1
            self.cm.request(fid)

    @precondition(lambda self: self.flows)
    @rule(picks=st.lists(st.integers(0, MAX_FLOWS - 1), min_size=1,
                         max_size=4))
    def bulk_request(self, picks):
        """Requests on several macroflows in one call, so that more than
        one is ready when the grants are dispatched."""
        self.setup_step()
        fids = [self.pick(i) for i in picks]
        for fid in fids:
            self.flows[fid].pending += 1
        self.cm.bulk_request(fids)

    @precondition(lambda self: self.flows)
    @rule(i=st.integers(0, MAX_FLOWS - 1),
          nbytes=st.sampled_from((0, 700, MTU)))
    def notify(self, i, nbytes):
        self.setup_step()
        fid = self.pick(i)
        if nbytes:
            self.mfs[self.flows[fid].mfid].last_send = self.now
        self.cm.notify(fid, nbytes)

    @precondition(lambda self: self.flows)
    @rule(i=st.integers(0, MAX_FLOWS - 1),
          nsent=st.sampled_from((0, MTU, 3 * MTU, 8 * MTU)),
          lost=st.sampled_from((0.0, 0.5, 1.0)),
          mode=st.sampled_from(LossMode),
          rtt=st.sampled_from((None, 0.004, 0.05, 2.0)))
    def update(self, i, nsent, lost, mode, rtt):
        self.setup_step()
        nrecd = nsent - int(nsent * lost)
        self.cm.update(self.pick(i), FeedbackReport(nsent, nrecd, mode, rtt))

    @rule(dt=st.sampled_from((0.01, 0.5, 1.0, 4.0)))
    def tick(self, dt):
        self.tick_to(self.now + dt)

    @precondition(lambda self: any(self.real(m).cwnd > MTU for m in self.mfs))
    @rule(i=st.integers(0, len(DESTS) - 1))
    def tick_at_deadline(self, i):
        """Tick at one macroflow's idle deadline, where a decay key that
        missed a moved deadline shows."""
        mfids = [m for m in sorted(self.mfs) if self.real(m).cwnd > MTU]
        mfid = mfids[i % len(mfids)]
        self.tick_to(max(self.now, self.mfs[mfid].last_send
                         + IDLE_RTO_MULTIPLE * self.real(mfid).rto()))

    def tick_to(self, now):
        self.setup_step()
        self.now = now
        due = [mfid for mfid in sorted(self.mfs)
               if self.real(mfid).cwnd > MTU
               and self.now - self.mfs[mfid].last_send
               >= IDLE_RTO_MULTIPLE * self.real(mfid).rto()]
        before = {mfid: self.real(mfid).cwnd for mfid in self.mfs}
        rows = len(self.tracer.records)
        self.cm.tick(self.now)
        decayed = [mfid for mfid in sorted(self.mfs)
                   if before[mfid] > MTU and self.real(mfid).cwnd == MTU]
        assert decayed == due
        # one CwndChange row per decayed macroflow that has members, in
        # macroflow id order
        cuts = [r.flow for r in self.tracer.records[rows:]
                if r.kind == TraceKind.CWND_CHANGE]
        assert cuts == [self.mfs[mfid].members[0] for mfid in due
                        if self.mfs[mfid].members]
        for mfid in due:
            self.mfs[mfid].last_send = self.now

    # -- after every step ---------------------------------------------------

    @invariant()
    def nothing_left_to_grant(self):
        assert self.next_grant() is None

    @invariant()
    def membership_matches(self):
        assert set(self.cm._flows) == set(self.flows)  # closed ones reclaimed
        for mfid, m in self.mfs.items():
            if m.members:
                snap = self.cm.macroflow_state(m.members[0])
                assert snap.id == mfid
                assert list(snap.members) == m.members

    @invariant()
    def rates_and_tick_period(self):
        srtts = [self.real(mfid).srtt for mfid in self.mfs]
        assert self.cm.tick_period() == min(
            [BASE_TICK] + [s / 2.0 for s in srtts if s > 0.0])
        for fid, fl in self.flows.items():
            mf = self.real(fl.mfid)
            demand = sum(self.flows[g].pending > 0
                         for g in self.mfs[fl.mfid].members)
            want = (mf.cwnd / mf.srtt) / max(1, demand) if mf.srtt > 0 else 0.0
            assert self.cm.query(fid).rate == want


CoreScheduler.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=60,
    stateful_step_count=40)
TestCoreScheduler = CoreScheduler.TestCase
