"""Stateful check of the core scheduler against a reference of its rules.

A hypothesis state machine drives open, close, request, bulk_request,
notify, update in all four loss modes, register_update, thresh and tick
with an advancing clock (by fixed steps or to a macroflow's idle
deadline), over three destinations, with clients that accept or decline
their grants and may request again from inside the grant callback. Three
rules aim at the round robin's wraps: open adds up to three members at
once, replace_next closes the member the cursor points at (the last
member included) and opens another in its place, and request_all has
every member of a macroflow request in one call, so that a member opened
after a wrap competes with the older ones. A small model keeps the rules
the scheduler must follow:

  * a grant goes to the lowest-id macroflow that has a pending request and
    window room (outstanding + mtu <= cwnd), round-robin over its members
    from the cursor its last grant left: the index after the member
    granted, 0 past the last member, kept on the same member when an
    earlier one closes and wrapped to 0 when the last one closes under
    it (the core keeps ids, not indexes; this is the reference);
  * tick(now) decays exactly the macroflows with cwnd > mtu that have been
    idle for IDLE_RTO_MULTIPLE * rto, in macroflow id order;
  * a flow's rate is cwnd / srtt split over the members with pending
    requests, and tick_period is BASE_TICK whatever the srtts.

  * each flow carries the bytes it notified; update discharges the
    reporting flow's charge and the macroflow's, each clamped at 0, and
    close discharges what the flow still carries.

  * rate callbacks follow a linear walk over the members, which the
    core's band groups replace: after an update, and for each macroflow a
    tick decays, every member registered for them, in id order, whose
    last notified rate r0 differs from the rate and has r0 == 0,
    rate <= r0 * down or rate >= r0 * up is notified of (flow, rate,
    srtt, loss_rate) and r0 becomes the rate. The core groups its
    registered members by (r0, down, up), exactly as the model's are.
    r0 survives a dropped registration. The thresh draws include down
    and up of 1.0 and up of inf, and the RTT samples are powers of two,
    so that a rate often lands exactly on a band edge.

Each grant is compared with the model's choice when it happens, and after
every step no grant may remain that the model would still give, each
macroflow's outstanding equals the model's and the rate callbacks so far
are the model's, in order. The model reads cwnd and the RTO from the core
itself: the window arithmetic has its own tests (test_core_window.py, the
aimd_oracle check).
"""
from math import inf

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
# (down, up) notification bands
BANDS = ((1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (0.5, 2.0), (0.5, inf))


class _ModelFlow:
    def __init__(self, mfid, client):
        self.mfid = mfid
        self.client = client
        self.pending = 0
        self.charge = 0
        self.rated = False
        self.down = self.up = 1.0
        self.last = 0.0           # rate last notified


class _ModelMacroflow:
    def __init__(self, now):
        self.members = []
        self.cursor = 0
        self.last_send = now
        self.outstanding = 0


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
        self.got = []             # rate callbacks made
        self.want = []            # rate callbacks the walk makes

    # -- the model --------------------------------------------------------

    def real(self, mfid):
        """The core's macroflow for model macroflow mfid, found by its
        destination: one whose members all closed has no flow to reach it
        through."""
        dst = next(d for d, m in self.mf_of_dst.items() if m == mfid)
        mf = self.cm._mf_by_dst[dst]
        assert mf.id == mfid
        return mf

    def next_grant(self):
        """(macroflow id, member index) the rules say is granted next."""
        for mfid in sorted(self.mfs):
            m, mf = self.mfs[mfid], self.real(mfid)
            if m.outstanding + mf.mtu > mf.cwnd:
                continue
            n = len(m.members)
            for i in range(n):
                idx = (m.cursor + i) % n
                if self.flows[m.members[idx]].pending > 0:
                    return mfid, idx
        return None

    def charge(self, fid, nbytes):
        fl = self.flows[fid]
        fl.charge += nbytes
        self.mfs[fl.mfid].outstanding += nbytes

    def on_grant(self, fid):
        mf = self.real(self.flows[fid].mfid)
        assert self.mfs[self.flows[fid].mfid].outstanding + mf.mtu <= mf.cwnd
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
            self.charge(fid, MTU)
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

    def on_rate(self, fid, rate, srtt, loss_rate):
        self.got.append((fid, rate, srtt, loss_rate))

    def demands(self):
        return {mfid: sum(self.flows[f].pending > 0 for f in m.members)
                for mfid, m in self.mfs.items()}

    def walk(self, mfid, demand):
        """The rate callbacks mf's evaluation makes, by the linear walk
        over its members, at the demand it saw; cwnd and srtt do not
        change between the evaluation and the end of the call."""
        mf = self.real(mfid)
        rate = (mf.cwnd / mf.srtt) / max(1, demand) if mf.srtt > 0 else 0.0
        for fid in sorted(self.mfs[mfid].members):
            fl = self.flows[fid]
            if not fl.rated or rate == fl.last:
                continue
            if fl.last == 0.0 or rate <= fl.last * fl.down or \
                    rate >= fl.last * fl.up:
                fl.last = rate
                self.want.append((fid, rate, mf.srtt, mf.loss_rate))

    # -- rules ------------------------------------------------------------

    def setup_step(self):
        """Each rule is one step; clients may re-request a few times per
        step, so that a declining client cannot loop for ever."""
        self.rerequests = 0

    @precondition(lambda self: len(self.flows) < MAX_FLOWS)
    @rule(dst=st.sampled_from(DESTS), client=st.sampled_from(CLIENTS),
          band=st.sampled_from((None,) + BANDS), n=st.integers(1, 3))
    def open(self, dst, client, band, n):
        """Up to n flows to dst, so that macroflows often have several
        members to rotate over."""
        for _ in range(min(n, MAX_FLOWS - len(self.flows))):
            self.open_flow(dst, client, band)

    def open_flow(self, dst, client, band):
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
        if band is not None:
            self.flows[fid].rated = True
            self.cm.register_update(fid, self.on_rate)
            self.set_band(fid, band)

    @precondition(lambda self: self.flows)
    @rule(i=st.integers(0, MAX_FLOWS - 1))
    def close(self, i):
        self.close_flow(self.pick(i))

    @precondition(lambda self: any(fl.rated for fl in self.flows.values()))
    @rule(i=st.integers(0, MAX_FLOWS - 1))
    def close_rated(self, i):
        rated = sorted(f for f, fl in self.flows.items() if fl.rated)
        self.close_flow(rated[i % len(rated)])

    @precondition(lambda self: self.flows)
    @rule(i=st.integers(0, MAX_FLOWS - 1), client=st.sampled_from(CLIENTS))
    def replace_next(self, i, client):
        """Close the member the cursor points at, open another to its
        destination and have every member request. Whether the rotation
        wrapped at the last grant or wraps now, because the closed member
        was the last one, the new member waits behind the older ones."""
        mfid = self.flows[self.pick(i)].mfid
        m = self.mfs[mfid]
        fid = m.members[m.cursor]
        dst = self.cm.macroflow_state(fid).dst_addr
        self.close_flow(fid)
        self.open_flow(dst, client, None)
        self.request_members(mfid)

    def close_flow(self, fid):
        self.setup_step()
        fl = self.flows.pop(fid)
        m = self.mfs[fl.mfid]
        m.outstanding = max(0, m.outstanding - fl.charge)
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
    @rule(i=st.integers(0, MAX_FLOWS - 1))
    def request_all(self, i):
        self.setup_step()
        self.request_members(self.flows[self.pick(i)].mfid)

    def request_members(self, mfid):
        """Every member of the macroflow requests in one call, newest
        first, so that the rotation, not the call order, picks who is
        served first."""
        fids = self.mfs[mfid].members[::-1]
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
        self.charge(fid, nbytes)
        self.cm.notify(fid, nbytes)

    @precondition(lambda self: self.flows)
    @rule(i=st.integers(0, MAX_FLOWS - 1),
          nsent=st.sampled_from((0, MTU, 3 * MTU, 8 * MTU)),
          lost=st.sampled_from((0.0, 0.5, 1.0)),
          mode=st.sampled_from(LossMode),
          rtt=st.sampled_from((None, 2.0 ** -8, 2.0 ** -4, 2.0)))
    def update(self, i, nsent, lost, mode, rtt):
        self.setup_step()
        nrecd = nsent - int(nsent * lost)
        fid = self.pick(i)
        fl = self.flows[fid]
        m = self.mfs[fl.mfid]
        fl.charge = max(0, fl.charge - nsent)
        m.outstanding = max(0, m.outstanding - nsent)
        demand = self.demands()[fl.mfid]
        self.cm.update(fid, FeedbackReport(nsent, nrecd, mode, rtt))
        self.walk(fl.mfid, demand)

    @precondition(lambda self: self.flows)
    @rule(i=st.integers(0, MAX_FLOWS - 1), on=st.booleans())
    def register_update(self, i, on):
        self.setup_step()
        fid = self.pick(i)
        self.flows[fid].rated = on
        self.cm.register_update(fid, self.on_rate if on else None)

    @precondition(lambda self: self.flows)
    @rule(i=st.integers(0, MAX_FLOWS - 1), band=st.sampled_from(BANDS))
    def thresh(self, i, band):
        self.setup_step()
        self.set_band(self.pick(i), band)

    def set_band(self, fid, band):
        self.flows[fid].down, self.flows[fid].up = band
        self.cm.thresh(fid, *band)

    @rule(dt=st.sampled_from((0.01, 0.5, 1.0, 4.0)))
    def tick(self, dt):
        self.tick_to(self.now + dt)

    @precondition(lambda self: any(self.real(m).cwnd > MTU for m in self.mfs))
    @rule(i=st.integers(0, len(DESTS) - 1))
    def tick_at_deadline(self, i):
        """Tick at one macroflow's idle deadline, where a decay that
        comes a tick early or late shows."""
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
        demands = self.demands()
        rows = len(self.tracer.records)
        self.cm.tick(self.now)
        for mfid in due:
            self.walk(mfid, demands[mfid])
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
    def rate_callbacks_match(self):
        assert self.got == self.want

    @invariant()
    def band_groups_match(self):
        """Each macroflow groups its rated members by (r0, down, up), the
        model's own, with no empty group and none left once all close."""
        for mfid, m in self.mfs.items():
            want = {}
            for fid in m.members:
                fl = self.flows[fid]
                if fl.rated:
                    want.setdefault((fl.last, fl.down, fl.up), []).append(fid)
            got = {band: sorted(f.id for f in group)
                   for band, group in self.real(mfid).bands.items()}
            assert got == want

    @invariant()
    def outstanding_matches(self):
        for mfid, m in self.mfs.items():
            assert self.real(mfid).outstanding == m.outstanding

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
        assert self.cm.tick_period() == BASE_TICK
        for fid, fl in self.flows.items():
            mf = self.real(fl.mfid)
            demand = sum(self.flows[g].pending > 0
                         for g in self.mfs[fl.mfid].members)
            want = (mf.cwnd / mf.srtt) / max(1, demand) if mf.srtt > 0 else 0.0
            assert self.cm.query(fid).rate == want


CoreScheduler.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=120,
    stateful_step_count=40)
TestCoreScheduler = CoreScheduler.TestCase
