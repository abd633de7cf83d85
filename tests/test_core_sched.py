"""Scheduler behavior: round-robin grant rotation, window gating on
outstanding bytes, declined grants, rate-threshold callbacks, and the
periodic tick (idle decay, liveness re-dispatch, suggested period).
"""
import random
from math import inf

import pytest

from cmsim import core
from cmsim.core import (BASE_TICK, CongestionManager, FeedbackReport, FlowKey,
                        LossMode, Proto)
from cmsim.trace import TraceKind, Tracer

MTU = 1500


def key(port):
    return FlowKey("c", port, "s", 9, Proto.UDP)


def make_flows(cm, n, cb):
    fids = []
    for p in range(1, n + 1):
        f = cm.open(key(p))
        cm.register_send(f, cb)
        fids.append(f)
    return fids


def test_grants_rotate_round_robin():
    cm = CongestionManager()
    order = []

    def accept(fid):
        order.append(fid)
        cm.notify(fid, MTU)

    a, b, c = make_flows(cm, 3, accept)
    cm.update(a, FeedbackReport(3000, 3000))   # cwnd 4500
    cm.notify(a, 4500)                         # window full: requests queue
    for f in (a, b, c):
        cm.request(f)
        cm.request(f)
    assert order == []
    cm.update(a, FeedbackReport(4500, 4500))   # frees 4500, cwnd 9000
    assert order == [a, b, c, a, b, c]


def test_rotation_resumes_where_it_left_off():
    cm = CongestionManager()
    order = []

    def accept(fid):
        order.append(fid)
        cm.notify(fid, MTU)

    a, b, c = make_flows(cm, 3, accept)        # cwnd 1500: one grant at a time
    cm.notify(a, MTU)
    for f in (a, b, c):
        cm.request(f)
    for _ in range(3):
        cm.update(a, FeedbackReport(MTU, 0))   # free exactly one packet
    assert order == [a, b, c]


def test_grant_blocked_until_window_has_room():
    cm = CongestionManager()
    granted = []
    (a,) = make_flows(cm, 1, granted.append)
    cm.notify(a, MTU)                          # outstanding == cwnd
    cm.request(a)
    assert granted == []
    cm.update(a, FeedbackReport(MTU, 0))
    assert granted == [a]


def test_declined_grant_moves_to_next_requester():
    cm = CongestionManager()
    order = []

    def decline(fid):
        order.append(("declined", fid))
        cm.notify(fid, 0)

    def accept(fid):
        order.append(("sent", fid))
        cm.notify(fid, MTU)

    a = cm.open(key(1))
    b = cm.open(key(2))
    cm.register_send(a, decline)
    cm.register_send(b, accept)
    cm.notify(a, MTU)
    cm.request(a)
    cm.request(b)
    cm.update(a, FeedbackReport(MTU, 0))
    assert order == [("declined", a), ("sent", b)]


def test_callbacks_never_nest():
    cm = CongestionManager()
    depth = [0]
    peak = [0]
    grants = [0]

    def cb(fid):
        depth[0] += 1
        peak[0] = max(peak[0], depth[0])
        grants[0] += 1
        if grants[0] < 4:
            cm.request(fid)                    # issued inside the callback
        cm.notify(fid, 0)
        depth[0] -= 1

    (a,) = make_flows(cm, 1, cb)
    cm.request(a)
    assert grants[0] == 4
    assert peak[0] == 1


def test_lowest_macroflow_id_is_served_first():
    cm = CongestionManager()
    order = []

    def accept(fid):
        order.append(fid)
        cm.notify(fid, MTU)

    fids = []
    for p in range(1, 4):
        f = cm.open(FlowKey("c", p, f"s{p}", 9, Proto.UDP))
        cm.register_send(f, accept)
        fids.append(f)
    cm.bulk_request(fids[::-1])                # all three ready at once
    assert order == fids


def test_grant_passes_flow_id_of_owner():
    cm = CongestionManager()
    seen = []
    a, b = make_flows(cm, 2, seen.append)
    cm.notify(a, MTU)
    cm.request(b)
    cm.update(a, FeedbackReport(MTU, 0))
    assert seen == [b]


def grant_one_at_a_time(cm, n):
    """n flows on one macroflow at cwnd MTU, each granted alone; returns
    the flows, the grant order and a call that frees the window for the
    next grant without growing it."""
    order = []

    def accept(fid):
        order.append(fid)
        cm.notify(fid, MTU)

    fids = make_flows(cm, n, accept)
    return fids, order, lambda: cm.update(fids[0], FeedbackReport(MTU, 0))


def test_closing_the_next_member_when_it_is_last_wraps_to_the_front():
    """The rotation stood at c, the last member, when c closed: it wraps
    to a, and d, opened later, waits its turn behind a."""
    cm = CongestionManager()
    (a, b, c), order, free = grant_one_at_a_time(cm, 3)
    cm.request(a)
    free()
    cm.request(b)
    free()
    cm.close(c)
    d = cm.open(key(4))
    cm.register_send(d, order.append)
    cm.bulk_request([d, a])
    assert order == [a, b, a]
    free()
    assert order == [a, b, a, d]


def test_a_member_opened_after_a_wrap_is_served_after_the_older_ones():
    cm = CongestionManager()
    (a, b), order, free = grant_one_at_a_time(cm, 2)
    cm.request(a)
    free()
    cm.request(b)                              # b is last: the rotation wraps
    free()
    c = cm.open(key(3))
    cm.register_send(c, order.append)
    cm.bulk_request([c, b, a])
    free()
    free()
    assert order == [a, b, a, b, c]


def test_closing_a_member_before_the_next_one_keeps_the_rotation():
    cm = CongestionManager()
    (a, b, c), order, free = grant_one_at_a_time(cm, 3)
    cm.request(a)
    free()
    cm.request(b)
    free()                                     # next up: c
    cm.close(a)
    cm.bulk_request([b, c])
    cm.update(b, FeedbackReport(MTU, 0))      # free() reports on a, closed
    assert order == [a, b, c, b]


def test_a_grant_reads_no_member_scan():
    """With 10^4 members and one of them wanting, a request and its grant
    read O(1) entries of the member list, not a scan of it."""
    class CountingList(list):
        reads = 0

        def __getitem__(self, i):
            CountingList.reads += 1
            return super().__getitem__(i)

        def __iter__(self):
            CountingList.reads += len(self)
            return super().__iter__()

    cm = CongestionManager()
    granted = []
    fids = make_flows(cm, 10 ** 4, granted.append)
    mf = cm._macroflows[1]
    mf.members = CountingList(mf.members)
    for fid in (fids[5000], fids[-1], fids[0], fids[5000]):
        CountingList.reads = 0
        cm.request(fid)                       # granted before it returns
        assert granted[-1] == fid
        assert CountingList.reads <= 2


# -- rate-threshold callbacks ---------------------------------------------


def test_first_nonzero_rate_always_notifies():
    cm = CongestionManager()
    fid = cm.open(key(1))
    got = []
    cm.register_update(fid, lambda f, rate, srtt, lr: got.append(rate))
    cm.thresh(fid, 0.5, 2.0)
    cm.update(fid, FeedbackReport(0, 0, rtt=0.1))
    assert got == [pytest.approx(MTU / 0.1)]


def test_an_unbounded_band_set_before_the_first_rate_notifies_it():
    # r0 is 0 before the first notification, and 0 * inf is NaN, which no
    # rate reaches: the first nonzero rate must fire whatever up is
    cm = CongestionManager()
    fid = cm.open(key(1))
    got = []
    cm.register_update(fid, lambda f, rate, srtt, lr: got.append(rate))
    cm.thresh(fid, 0.5, inf)
    cm.update(fid, FeedbackReport(0, 0, rtt=0.1))      # 15000: first rate
    assert got == [MTU / 0.1]
    cm.update(fid, FeedbackReport(1500, 1500))         # 30000: no ceiling
    assert got == [MTU / 0.1]
    cm.update(fid, FeedbackReport(0, 0, rtt=10.0))     # under 0.5x
    assert len(got) == 2 and got[1] < 0.5 * MTU / 0.1


def test_rate_changes_inside_band_stay_quiet():
    cm = CongestionManager()
    fid = cm.open(key(1))
    got = []
    cm.register_update(fid, lambda f, rate, srtt, lr: got.append(rate))
    cm.thresh(fid, 0.1, 3.0)
    cm.update(fid, FeedbackReport(0, 0, rtt=0.1))   # baseline 15000
    cm.update(fid, FeedbackReport(1500, 1500))      # 30000: 2x, inside band
    assert len(got) == 1
    cm.update(fid, FeedbackReport(1500, 1500))      # 45000: 3x, at the edge
    assert len(got) == 2
    assert got[-1] == pytest.approx(45000.0)


def test_downward_crossing_notifies():
    cm = CongestionManager()
    fid = cm.open(key(1))
    got = []
    cm.register_update(fid, lambda f, rate, srtt, lr: got.append(rate))
    cm.thresh(fid, 0.7, 10.0)
    cm.update(fid, FeedbackReport(0, 0, rtt=0.1))
    cm.update(fid, FeedbackReport(28500, 28500))    # cwnd 30000: 20x, fires
    cm.update(fid, FeedbackReport(1500, 0, LossMode.TRANSIENT))
    # the cut halves cwnd, so rate falls to 0.5x baseline, under the 0.7 floor
    assert len(got) == 3
    assert got[-1] == pytest.approx(150000.0)


def test_callback_carries_srtt_and_loss_rate():
    cm = CongestionManager()
    fid = cm.open(key(1))
    got = []
    cm.register_update(fid, lambda f, r, s, l: got.append((f, r, s, l)))
    cm.update(fid, FeedbackReport(0, 0, rtt=0.2))
    f, rate, srtt, lr = got[0]
    assert f == fid
    assert srtt == pytest.approx(0.2)
    assert lr == 0.0


def test_default_thresholds_notify_on_any_change():
    cm = CongestionManager()
    fid = cm.open(key(1))
    got = []
    cm.register_update(fid, lambda f, rate, srtt, lr: got.append(rate))
    cm.update(fid, FeedbackReport(0, 0, rtt=0.1))
    cm.update(fid, FeedbackReport(100, 100))
    cm.update(fid, FeedbackReport(100, 100))
    assert len(got) == 3


# With srtt 0.125 s the rate is exactly 8 * cwnd: 12000 B/s at one MTU.
# In slow start an update with nrecd bytes raises cwnd by nrecd.

def rated_flows(cm, n, band):
    got = []
    fids = [cm.open(key(p)) for p in range(1, n + 1)]
    for f in fids:
        cm.register_update(f, lambda f, r, s, l: got.append((f, r)))
        cm.thresh(f, *band)
    return fids, got


def grow(cm, fid, nrecd):
    cm.update(fid, FeedbackReport(nrecd, nrecd))


def test_rate_exactly_on_either_edge_fires():
    cm = CongestionManager()
    (fid,), got = rated_flows(cm, 1, (0.5, 2.0))
    cm.update(fid, FeedbackReport(0, 0, rtt=0.125))
    assert got == [(fid, 12000.0)]
    grow(cm, fid, 1499)                             # 23992, just inside
    assert len(got) == 1
    grow(cm, fid, 1)                                # 24000 = 12000 * 2.0
    assert got[-1] == (fid, 24000.0)
    cm.update(fid, FeedbackReport(0, 0, LossMode.PERSISTENT))
    assert got[-1] == (fid, 12000.0)                # 12000 = 24000 * 0.5
    assert len(got) == 3


def test_unchanged_rate_never_fires():
    cm = CongestionManager()
    fids, got = rated_flows(cm, 3, (1.0, 1.0))
    for _ in range(3):                  # no rtt sample yet: rate == r0 == 0
        grow(cm, fids[0], MTU)
    assert got == []
    cm.update(fids[0], FeedbackReport(0, 0, rtt=0.125))
    assert [f for f, _ in got] == fids
    for _ in range(3):                  # up == down == 1.0, rate unchanged
        cm.update(fids[1], FeedbackReport(0, 0))
    assert len(got) == 3
    grow(cm, fids[0], 1)
    assert len(got) == 6


def test_thresh_mid_band_rekeys_around_the_last_notified_rate():
    cm = CongestionManager()
    (a, b), got = rated_flows(cm, 2, (0.5, 4.0))
    cm.update(a, FeedbackReport(0, 0, rtt=0.125))   # both notified at 12000
    grow(cm, a, 375)                                # 15000, inside the band
    cm.thresh(a, 0.9, 1.1)          # narrowed: 15000 is now above 13200
    cm.thresh(b, 0.25, 8.0)         # widened around 12000 too
    got.clear()
    cm.update(b, FeedbackReport(0, 0))              # rate unchanged
    assert got == [(a, 15000.0)]
    cm.thresh(a, 0.5, 4.0)          # widened: 59992 stays inside
    grow(cm, a, 3000 - 1875)                        # 24000
    grow(cm, a, 7499 - 3000)                        # 59992
    assert got == [(a, 15000.0)]
    grow(cm, a, 1)                                  # 60000 = 15000 * 4.0
    assert got == [(a, 15000.0), (a, 60000.0)]
    grow(cm, a, 12000 - 7500)                       # 96000 = 12000 * 8.0
    assert got[-1] == (b, 96000.0)


def test_reregistered_flow_keeps_its_last_notified_rate():
    cm = CongestionManager()
    (fid,), got = rated_flows(cm, 1, (0.5, 2.0))
    cm.update(fid, FeedbackReport(0, 0, rtt=0.125))  # notified at 12000
    cm.register_update(fid, None)
    grow(cm, fid, 750)                               # 18000, unregistered
    cm.register_update(fid, lambda f, r, s, l: got.append((f, r)))
    cm.update(fid, FeedbackReport(0, 0))             # inside [6000, 24000]
    assert got == [(fid, 12000.0)]
    grow(cm, fid, 750)                               # 24000
    assert got == [(fid, 12000.0), (fid, 24000.0)]


def test_closing_rated_members_drops_their_band_entries():
    cm = CongestionManager()
    fids, got = rated_flows(cm, 4, (0.5, 2.0))
    mf = cm._macroflows[1]
    cm.update(fids[0], FeedbackReport(0, 0, rtt=0.125))
    cm.close(fids[1])
    cm.close(fids[2])
    live = [e[2].id for h in (mf.up_edges, mf.down_edges) for e in h
            if e[2].band == e[1]]
    assert sorted(live) == [fids[0], fids[0], fids[3], fids[3]]
    got.clear()
    grow(cm, fids[0], MTU)                           # 24000: both fire
    assert [f for f, _ in got] == [fids[0], fids[3]]
    cm.close(fids[0])
    cm.close(fids[3])
    assert mf.up_edges == [] and mf.down_edges == []


# Cost guards for the band index, counted rather than timed: an update
# that crosses no member's band pops no heap entry and reads no member's
# band, where a walk over the members would read every one. These managers
# have no grant or decay to give, so every heappop the core makes is a
# band pop.

BAND_FIELDS = ("last_notified_rate", "thresh_down", "thresh_up")


def count_touches(monkeypatch):
    """Count the core's heappop calls and its reads of the band fields."""
    touches = [0]
    real = core.heappop

    def counting(heap):
        touches[0] += 1
        return real(heap)

    monkeypatch.setattr(core, "heappop", counting)
    for name in BAND_FIELDS:
        slot = core._Flow.__dict__[name]

        def get(fl, slot=slot):
            touches[0] += 1
            return slot.__get__(fl, core._Flow)

        monkeypatch.setattr(core._Flow, name,
                            property(get, slot.__set__))
    return touches


def test_update_inside_every_band_touches_no_member(monkeypatch):
    n = 10_000
    cm = CongestionManager()
    fids, got = rated_flows(cm, n, (1e-3, 1e3))
    pops = count_touches(monkeypatch)
    cm.update(fids[0], FeedbackReport(0, 0, rtt=0.125))
    assert len(got) == n
    fired = pops[0]
    for _ in range(3):                  # the rate moves inside every band
        grow(cm, fids[0], MTU)
        cm.update(fids[1], FeedbackReport(MTU, 0, LossMode.PERSISTENT))
    assert (pops[0], len(got)) == (fired, n)


def test_unchanged_rate_touches_no_member(monkeypatch):
    n = 10_000
    cm = CongestionManager()
    fids, got = rated_flows(cm, n, (1e-3, 1.0))
    pops = count_touches(monkeypatch)
    for _ in range(3):                  # rate == r0 == 0 before any rtt
        grow(cm, fids[0], MTU)
    assert pops[0] == 0 and got == []
    cm.update(fids[0], FeedbackReport(0, 0, rtt=0.125))
    assert len(got) == n
    fired = pops[0]
    for _ in range(3):                  # up == 1.0 and rate == r0
        cm.update(fids[-1], FeedbackReport(0, 0))
    assert (pops[0], len(got)) == (fired, n)


def test_band_index_stays_within_twice_the_rated_members():
    n = 100
    cm = CongestionManager()
    got = []
    fids = [cm.open(key(p)) for p in range(1, n + 1)]
    for k, f in enumerate(fids):
        cm.register_update(f, lambda *a: got.append(a))
        cm.thresh(f, 1.0 / (1.0 + 0.01 * k), 1.0 + 0.01 * k)
    mf = cm._macroflows[1]
    rng = random.Random(1)
    cm.update(fids[0], FeedbackReport(0, 0, rtt=0.125))
    steps = 0
    while len(got) < 10_000:
        steps += 1
        assert steps < 20_000
        if rng.random() < 0.2:
            cm.update(fids[0], FeedbackReport(MTU, 0, LossMode.TRANSIENT))
        else:
            grow(cm, fids[0], rng.randrange(0, 3 * MTU))
        assert len(mf.up_edges) <= 2 * n
        assert len(mf.down_edges) <= 2 * n


# -- tick -----------------------------------------------------------------


def test_tick_decays_idle_window_after_four_rtos():
    now = [0.0]
    cm = CongestionManager(clock=lambda: now[0])
    fid = cm.open(key(1))
    cm.update(fid, FeedbackReport(10500, 10500))    # cwnd 12000
    cm.notify(fid, 100)                             # marks last send at t=0
    cm.tick(3.9)                                    # rto is 1s before samples
    assert cm.macroflow_state(fid).cwnd == 12000
    cm.tick(4.0)
    assert cm.macroflow_state(fid).cwnd == MTU


def test_tick_decay_preserves_ssthresh():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.update(fid, FeedbackReport(10500, 10500))
    before = cm.macroflow_state(fid).ssthresh
    cm.tick(100.0)
    st = cm.macroflow_state(fid)
    assert st.cwnd == MTU
    assert st.ssthresh == before


def test_recent_send_prevents_decay():
    now = [3.5]
    cm = CongestionManager(clock=lambda: now[0])
    fid = cm.open(key(1))
    cm.update(fid, FeedbackReport(10500, 10500))
    cm.notify(fid, 100)                             # last send at t=3.5
    cm.tick(4.0)
    assert cm.macroflow_state(fid).cwnd == 12000


def test_decay_follows_a_shrinking_rto():
    now = [0.0]
    cm = CongestionManager(clock=lambda: now[0])
    fid = cm.open(key(1))
    cm.update(fid, FeedbackReport(1500, 1500))      # idle deadline 4 x 1 s
    cm.update(fid, FeedbackReport(0, 0, rtt=0.05))  # rto 0.2 s: deadline 0.8 s
    cm.tick(0.7)
    assert cm.macroflow_state(fid).cwnd == 2 * MTU
    cm.tick(1.0)
    assert cm.macroflow_state(fid).cwnd == MTU


def test_decay_waits_for_the_deadline_a_later_send_set():
    now = [0.0]
    cm = CongestionManager(clock=lambda: now[0])
    fid = cm.open(key(1))
    cm.update(fid, FeedbackReport(1500, 1500))      # idle deadline 4 s
    now[0] = 3.0
    cm.notify(fid, 100)                             # deadline now 7 s
    cm.tick(4.0)
    assert cm.macroflow_state(fid).cwnd == 2 * MTU
    cm.tick(6.9)
    assert cm.macroflow_state(fid).cwnd == 2 * MTU
    cm.tick(7.0)
    assert cm.macroflow_state(fid).cwnd == MTU


def test_due_decays_apply_in_macroflow_id_order():
    now = [0.0]
    tracer = Tracer()
    cm = CongestionManager(clock=lambda: now[0], tracer=tracer)
    fids = [cm.open(FlowKey("c", p, f"s{p}", 9, Proto.UDP)) for p in (1, 2, 3)]
    for f, sent_at in zip(fids, (2.0, 0.0, 1.0)):  # deadlines 6, 4, 5 s
        now[0] = sent_at
        cm.notify(f, 100)
        cm.update(f, FeedbackReport(100, 100))
    cm.tick(10.0)
    cuts = [r.flow for r in tracer.records if r.kind == TraceKind.CWND_CHANGE
            and r.value1 == MTU]
    assert cuts == fids


def test_tick_redispatches_stranded_requests():
    cm = CongestionManager()
    granted = []

    def broken(fid):
        raise RuntimeError("client lost the grant")

    a = cm.open(key(1))
    b = cm.open(key(2))
    cm.register_send(a, broken)
    cm.register_send(b, granted.append)
    with pytest.raises(RuntimeError):
        cm.bulk_request([a, b])
    assert granted == []
    cm.tick(0.0)                                    # liveness backstop
    assert granted == [b]


def test_grant_callback_that_raises_uses_its_grant_up():
    """The rule in the CongestionManager docstring: the grant is recorded
    (Grant row, cmapp_send) and its request spent, but nothing is
    charged; the exception leaves the sibling's update that opened the
    window; the next call grants the requests that remain."""
    tracer = Tracer()
    cm = CongestionManager(tracer=tracer)
    granted = []

    def flaky(fid):
        granted.append(fid)
        if len(granted) == 1:
            raise RuntimeError("client fault")
        cm.notify(fid, MTU)

    a, b = make_flows(cm, 2, flaky)
    cm.notify(b, MTU)                               # window full
    cm.request(a)
    cm.request(a)
    cm.request(b)
    with pytest.raises(RuntimeError):
        cm.update(b, FeedbackReport(MTU, MTU))      # cwnd 3000, a granted
    st = cm.macroflow_state(a)
    assert (st.cwnd, st.outstanding) == (2 * MTU, 0)
    assert granted == [a]
    assert cm.op_counts["cmapp_send"] == 1
    assert [r.flow for r in tracer.records
            if r.kind is TraceKind.GRANT] == [a]
    cm.query(b)                                     # any API call resumes
    assert granted == [a, b, a]
    assert cm.macroflow_state(a).outstanding == 2 * MTU
    assert cm.op_counts["cmapp_send"] == 3
    cm.update(b, FeedbackReport(2 * MTU, 2 * MTU))  # room, but no request
    assert granted == [a, b, a]                     # is left to grant


def test_tick_period_tracks_half_srtt():
    cm = CongestionManager()
    assert cm.tick_period() == BASE_TICK
    fid = cm.open(key(1))
    assert cm.tick_period() == BASE_TICK
    cm.update(fid, FeedbackReport(0, 0, rtt=0.004))
    assert cm.tick_period() == pytest.approx(0.002)
    other = cm.open(FlowKey("c", 9, "elsewhere", 9, Proto.UDP))
    cm.update(other, FeedbackReport(0, 0, rtt=1.0))
    assert cm.tick_period() == pytest.approx(0.002)
    cm.update(fid, FeedbackReport(0, 0, rtt=1.0))  # srtt 0.1285
    assert cm.tick_period() == BASE_TICK


def test_tick_does_not_count_as_boundary_crossing():
    cm = CongestionManager()
    cm.open(key(1))
    before = cm.boundary_crossings
    cm.tick(0.0)
    assert cm.boundary_crossings == before
