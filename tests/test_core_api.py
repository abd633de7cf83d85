"""Client-facing API contract: flow lifecycle, callback registration,
report validation, bulk variants, and the per-destination shared state.
"""
from math import inf, nan

import pytest

from cmsim.core import (CongestionManager, FeedbackReport, FlowKey, LossMode,
                        Proto)
from cmsim.errors import (DuplicateFlow, InvalidReport, InvalidThreshold,
                          NoCallbackRegistered, UnknownFlow)

MTU = 1500


def key(port=1, dst="server", proto=Proto.UDP):
    return FlowKey("client", port, dst, 9, proto)


def grow(cm, fid, nbytes):
    """Clean fully-acked report; in slow start cwnd rises by nbytes."""
    cm.update(fid, FeedbackReport(nbytes, nbytes))


# -- lifecycle ------------------------------------------------------------


def test_open_returns_distinct_ids():
    cm = CongestionManager()
    ids = [cm.open(key(p)) for p in range(1, 4)]
    assert len(set(ids)) == 3


def test_open_same_key_twice_raises():
    cm = CongestionManager()
    cm.open(key(1))
    with pytest.raises(DuplicateFlow):
        cm.open(key(1))


def test_reopen_after_close_is_allowed():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.close(fid)
    assert cm.open(key(1)) != fid


def test_close_is_idempotent_for_known_flow():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.close(fid)
    cm.close(fid)


def test_close_never_issued_id_raises():
    cm = CongestionManager()
    with pytest.raises(UnknownFlow):
        cm.close(999)
    fid = cm.open(key(1))
    cm.close(fid)
    for never_issued in (0, fid + 1):
        with pytest.raises(UnknownFlow):
            cm.close(never_issued)


def test_api_on_closed_flow_raises():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.close(fid)
    with pytest.raises(UnknownFlow):
        cm.update(fid, FeedbackReport(0, 0))
    with pytest.raises(UnknownFlow):
        cm.query(fid)
    with pytest.raises(UnknownFlow):
        cm.notify(fid, 0)


def test_mtu_accessor():
    cm = CongestionManager(mtu=576)
    fid = cm.open(key(1))
    assert cm.mtu(fid) == 576
    with pytest.raises(UnknownFlow):
        cm.mtu(42)


# -- shared state per destination -----------------------------------------


def test_same_destination_shares_one_macroflow():
    cm = CongestionManager()
    a = cm.open(key(1))
    b = cm.open(key(2))
    sa, sb = cm.macroflow_state(a), cm.macroflow_state(b)
    assert sa.id == sb.id
    assert set(sa.members) == {a, b}


def test_different_destinations_are_independent():
    cm = CongestionManager()
    a = cm.open(key(1, dst="east"))
    b = cm.open(key(1, dst="west"))
    assert cm.macroflow_state(a).id != cm.macroflow_state(b).id
    grow(cm, a, 6000)
    assert cm.macroflow_state(a).cwnd == MTU + 6000
    assert cm.macroflow_state(b).cwnd == MTU


def test_loss_on_one_flow_affects_its_sibling():
    cm = CongestionManager()
    a = cm.open(key(1))
    b = cm.open(key(2))
    grow(cm, a, 10500)    # cwnd 12000
    cm.update(a, FeedbackReport(1500, 0, LossMode.TRANSIENT))
    assert cm.macroflow_state(b).cwnd == 6000


def test_destination_state_survives_last_close():
    cm = CongestionManager()
    a = cm.open(key(1))
    grow(cm, a, 10500)
    cm.update(a, FeedbackReport(0, 0, rtt=0.08))
    cm.close(a)
    b = cm.open(key(7))
    st = cm.macroflow_state(b)
    assert st.cwnd == 12000
    assert st.srtt == pytest.approx(0.08)
    assert st.members == (b,)


def test_initial_state_snapshot():
    cm = CongestionManager(initial_ssthresh=32000)
    fid = cm.open(key(1))
    st = cm.macroflow_state(fid)
    assert st.cwnd == MTU
    assert st.ssthresh == 32000
    assert st.outstanding == 0
    assert st.srtt == 0.0
    assert st.cwnd < st.ssthresh        # slow start


# -- registration and validation ------------------------------------------


def test_request_without_send_callback_raises():
    cm = CongestionManager()
    fid = cm.open(key(1))
    with pytest.raises(NoCallbackRegistered):
        cm.request(fid)


def test_request_after_register_send_grants():
    cm = CongestionManager()
    fid = cm.open(key(1))
    got = []
    cm.register_send(fid, got.append)
    cm.request(fid)
    assert got == [fid]


def test_register_send_refuses_a_callback_that_is_not_callable():
    """Every flow with a pending request therefore has a callback to
    grant to; the registration it had stays."""
    cm = CongestionManager()
    fid = cm.open(key(1))
    got = []
    cm.register_send(fid, got.append)
    for cb in (None, 42, "cb"):
        with pytest.raises(TypeError):
            cm.register_send(fid, cb)
    cm.request(fid)
    assert got == [fid]


def test_register_update_refuses_a_callback_that_is_not_callable():
    """A registration like register_send's: the bad callback joins no
    band, so a later rate change, which may come from a sibling's update,
    does not raise inside the dispatch; the registration it had stays."""
    cm = CongestionManager()
    fid, sib = cm.open(key(1)), cm.open(key(2))
    got = []
    cm.register_update(fid, lambda f, r, s, l: got.append((f, r)))
    for cb in (5, "cb"):
        with pytest.raises(TypeError):
            cm.register_update(fid, cb)
        with pytest.raises(TypeError):
            cm.register_update(sib, cb)
    cm.update(sib, FeedbackReport(0, 0, rtt=0.1))
    assert got == [(fid, MTU / 0.1)]


def test_thresh_validation():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.register_update(fid, lambda *a: None)
    cm.thresh(fid, 0.5, 2.0)
    cm.thresh(fid, 1.0, 1.0)
    for down, up in ((0.0, 2.0), (1.1, 2.0), (0.5, 0.9), (-0.2, 1.5)):
        with pytest.raises(InvalidThreshold):
            cm.thresh(fid, down, up)


def test_notify_rejects_negative():
    cm = CongestionManager()
    fid = cm.open(key(1))
    with pytest.raises(InvalidReport):
        cm.notify(fid, -1)


def test_update_rejects_bad_reports():
    cm = CongestionManager()
    fid = cm.open(key(1))
    with pytest.raises(InvalidReport):
        cm.update(fid, FeedbackReport(-1, 0))
    with pytest.raises(InvalidReport):
        cm.update(fid, FeedbackReport(100, 200))
    with pytest.raises(InvalidReport):
        cm.update(fid, FeedbackReport(100, 50, rtt=0.0))


@pytest.mark.parametrize("bad", [nan, inf, -inf])
def test_non_finite_report_values_are_rejected_before_any_change(bad):
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.update(fid, FeedbackReport(3000, 3000, rtt=0.1))
    cm.notify(fid, 3000)
    before = cm.macroflow_state(fid)
    for report in (FeedbackReport(1500, 1500, rtt=bad),
                   FeedbackReport(bad, 0), FeedbackReport(1500, bad)):
        with pytest.raises(InvalidReport):
            cm.update(fid, report)
    with pytest.raises(InvalidReport):
        cm.notify(fid, bad)
    assert cm.macroflow_state(fid) == before


def test_rejected_nan_rtt_leaves_every_destination_decaying():
    # an accepted NaN srtt would sit at the top of the decay heap as
    # (nan, 1) and stop the other destinations from decaying too
    now = 0.0
    cm = CongestionManager(clock=lambda: now)
    fids = [cm.open(key(1, dst=f"d{i}")) for i in range(6)]
    for fid in fids:
        grow(cm, fid, 3000)
    now = 0.5
    with pytest.raises(InvalidReport):
        cm.update(fids[0], FeedbackReport(0, 0, rtt=nan))
    for step in range(51, 3001):
        now = step / 100
        cm.tick(now)
    assert [cm.macroflow_state(f).cwnd for f in fids] == [MTU] * 6


def test_rejected_report_changes_no_state():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.update(fid, FeedbackReport(3000, 3000, rtt=0.1))
    cm.notify(fid, 3000)
    before = cm.macroflow_state(fid)
    with pytest.raises(InvalidReport):
        cm.update(fid, FeedbackReport(1500, 1000, lossmode="bogus", rtt=0.5))
    assert cm.macroflow_state(fid) == before


def test_notify_charges_outstanding_and_update_discharges():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.notify(fid, 1200)
    assert cm.macroflow_state(fid).outstanding == 1200
    cm.update(fid, FeedbackReport(1200, 1200))
    assert cm.macroflow_state(fid).outstanding == 0


def test_close_discharges_what_the_flow_still_has_outstanding():
    """No report will ever cover a closed flow's bytes; left charged, they
    would keep the destination's window shut for every later flow."""
    cm = CongestionManager()
    a = cm.open(key(1))
    cm.notify(a, 3000)
    cm.close(a)
    b = cm.open(key(2))
    assert cm.macroflow_state(b).outstanding == 0
    grants = []
    cm.register_send(b, grants.append)
    cm.request(b)
    cm.tick(100.0)
    assert grants == [b]


def test_close_discharges_only_the_flows_own_remaining_charge():
    cm = CongestionManager()
    a, b = cm.open(key(1)), cm.open(key(2))
    cm.notify(a, 1000)
    cm.notify(b, 2000)
    # a report beyond a's charge discharges the macroflow in full but
    # leaves a nothing to return at close
    cm.update(a, FeedbackReport(1500, 1500))
    assert cm.macroflow_state(a).outstanding == 1500
    cm.close(a)
    assert cm.macroflow_state(b).outstanding == 1500
    cm.update(b, FeedbackReport(500, 500))
    assert cm.macroflow_state(b).outstanding == 1000
    c = cm.open(key(3))
    cm.close(b)
    assert cm.macroflow_state(c).outstanding == 0   # clamped at 0


def test_notify_above_mtu_is_charged_in_full():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.notify(fid, 4000)
    assert cm.macroflow_state(fid).outstanding == 4000


# -- rtt and rate introspection -------------------------------------------


def test_first_rtt_sample_initializes_estimators():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.update(fid, FeedbackReport(0, 0, rtt=0.2))
    srtt, rttvar = cm.rtt_estimate(fid)
    assert srtt == pytest.approx(0.2)
    assert rttvar == pytest.approx(0.1)
    assert cm.rto_estimate(fid) == pytest.approx(0.2 + 4 * 0.1)


def test_rtt_ewma_converges_toward_samples():
    cm = CongestionManager()
    fid = cm.open(key(1))
    for _ in range(60):
        cm.update(fid, FeedbackReport(0, 0, rtt=0.05))
    srtt, _ = cm.rtt_estimate(fid)
    assert srtt == pytest.approx(0.05, rel=1e-6)


def test_rto_clamped_to_floor():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.update(fid, FeedbackReport(0, 0, rtt=0.001))
    assert cm.rto_estimate(fid) == 0.2


def test_rto_before_any_sample_is_one_second():
    cm = CongestionManager()
    fid = cm.open(key(1))
    assert cm.rto_estimate(fid) == 1.0


def test_query_rate_is_cwnd_over_srtt():
    cm = CongestionManager()
    fid = cm.open(key(1))
    grow(cm, fid, 10500)                       # cwnd 12000
    cm.update(fid, FeedbackReport(0, 0, rtt=0.1))
    q = cm.query(fid)
    assert q.rate == pytest.approx(120000.0)
    assert q.srtt == pytest.approx(0.1)


def test_query_rate_zero_before_first_rtt_sample():
    cm = CongestionManager()
    fid = cm.open(key(1))
    assert cm.query(fid).rate == 0.0


def test_query_rate_split_between_demanding_flows():
    cm = CongestionManager()
    a = cm.open(key(1))
    b = cm.open(key(2))
    for f in (a, b):
        cm.register_send(f, lambda fid: None)
    cm.update(a, FeedbackReport(0, 0, rtt=0.1))
    cm.notify(a, 1500)                         # window full: requests queue up
    cm.request(a)
    cm.request(b)
    assert cm.query(a).rate == pytest.approx((MTU / 0.1) / 2)


def test_loss_rate_tracks_report_fractions():
    cm = CongestionManager()
    fid = cm.open(key(1))
    for _ in range(200):
        cm.update(fid, FeedbackReport(1000, 900))
    assert cm.query(fid).loss_rate == pytest.approx(0.1, rel=1e-3)


# -- bulk variants --------------------------------------------------------


def test_bulk_notify_matches_elementwise():
    cm = CongestionManager()
    a, b = cm.open(key(1)), cm.open(key(2))
    cm.bulk_notify([(a, 1000), (b, 500)])
    assert cm.macroflow_state(a).outstanding == 1500


def test_bulk_update_matches_elementwise():
    cm = CongestionManager()
    a, b = cm.open(key(1)), cm.open(key(2))
    cm.bulk_update([(a, FeedbackReport(1500, 1500)),
                    (b, FeedbackReport(600, 600))])
    assert cm.macroflow_state(a).cwnd == MTU + 2100


def test_bulk_query_matches_single_queries():
    cm = CongestionManager()
    a, b = cm.open(key(1)), cm.open(key(2, dst="other"))
    cm.update(a, FeedbackReport(0, 0, rtt=0.1))
    res = cm.bulk_query([a, b])
    assert res[0] == cm.query(a)
    assert res[1] == cm.query(b)


def test_bulk_request_grants_like_single_requests():
    cm = CongestionManager()
    order = []

    def accept(fid):
        order.append(fid)
        cm.notify(fid, MTU)

    a, b = cm.open(key(1)), cm.open(key(2))
    for f in (a, b):
        cm.register_send(f, accept)
    grow(cm, a, 1500)          # cwnd 3000: both grants fit
    cm.bulk_request([a, b])
    assert order == [a, b]


def test_bulk_update_stops_at_first_failure_keeping_earlier_effects():
    cm = CongestionManager()
    a, b = cm.open(key(1)), cm.open(key(2, dst="other"))
    with pytest.raises(UnknownFlow):
        cm.bulk_update([(a, FeedbackReport(1500, 1500)),
                        (777, FeedbackReport(1500, 1500)),
                        (b, FeedbackReport(1500, 1500))])
    assert cm.macroflow_state(a).cwnd == MTU + 1500
    assert cm.macroflow_state(b).cwnd == MTU


def test_bulk_calls_count_one_boundary_crossing():
    cm = CongestionManager()
    a, b, c = cm.open(key(1)), cm.open(key(2)), cm.open(key(3))
    base = cm.boundary_crossings
    cm.bulk_notify([(a, 100), (b, 100), (c, 100)])
    assert cm.boundary_crossings == base + 1
    base = cm.boundary_crossings
    for f in (a, b, c):
        cm.notify(f, 100)
    assert cm.boundary_crossings == base + 3


def test_callback_invocations_count_as_crossings():
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.register_send(fid, lambda f: None)
    before = cm.op_counts.get("cmapp_send", 0)
    cm.request(fid)
    assert cm.op_counts["cmapp_send"] == before + 1


# -- the API boundary -----------------------------------------------------

NOBODY = 999
REPORT = FeedbackReport(0, 0)

# name: (arguments of a call that succeeds on open flow f,
#        arguments of one that raises DuplicateFlow for open, else UnknownFlow)
API_CALLS = {
    "open": (lambda f: (key(2),), (key(1),)),
    "close": (lambda f: (f,), (NOBODY,)),
    "mtu": (lambda f: (f,), (NOBODY,)),
    "register_send": (lambda f: (f, lambda g: None), (NOBODY, print)),
    "register_update": (lambda f: (f, lambda *a: None), (NOBODY, print)),
    "thresh": (lambda f: (f, 0.5, 2.0), (NOBODY, 0.5, 2.0)),
    "request": (lambda f: (f,), (NOBODY,)),
    "notify": (lambda f: (f, 0), (NOBODY, 0)),
    "update": (lambda f: (f, REPORT), (NOBODY, REPORT)),
    "query": (lambda f: (f,), (NOBODY,)),
    "bulk_request": (lambda f: ([f, f],), ([NOBODY],)),
    "bulk_notify": (lambda f: ([(f, 0), (f, 0)],), ([(NOBODY, 0)],)),
    "bulk_update": (lambda f: ([(f, REPORT), (f, REPORT)],),
                    ([(NOBODY, REPORT)],)),
    "bulk_query": (lambda f: ([f, f],), ([NOBODY],)),
}


def api_counts(cm):
    return {name: cm.op_counts[name] for name in API_CALLS}


def counted(before, after):
    return {name: after[name] - before[name] for name in API_CALLS
            if after[name] != before[name]}


@pytest.mark.parametrize("name", list(API_CALLS))
def test_each_api_call_counts_once_and_dispatches_even_when_it_raises(name):
    ok, bad = API_CALLS[name]
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.register_send(fid, lambda f: None)
    before = api_counts(cm)
    getattr(cm, name)(*ok(fid))
    assert counted(before, api_counts(cm)) == {name: 1}

    # a grant callback that raises leaves the flow's second request pending
    cm = CongestionManager()
    fid = cm.open(key(1))
    granted = []

    def on_grant(f):
        granted.append(f)
        if len(granted) == 1:
            raise RuntimeError("client fault")

    cm.register_send(fid, on_grant)
    cm.notify(fid, MTU)                    # window full: requests wait
    cm.request(fid)
    cm.request(fid)
    with pytest.raises(RuntimeError):
        grow(cm, fid, MTU)                 # opens the window
    assert granted == [fid]
    before = api_counts(cm)
    with pytest.raises(DuplicateFlow if name == "open" else UnknownFlow):
        getattr(cm, name)(*bad)
    assert counted(before, api_counts(cm)) == {name: 1}
    assert granted == [fid, fid]


@pytest.mark.parametrize("name", [n for n in API_CALLS if n != "open"])
def test_each_api_call_rejects_a_flow_id_that_is_no_int(name):
    # True == 1 and 1.0 == 1, so a lookup by value alone finds flow 1
    ok, _ = API_CALLS[name]
    cm = CongestionManager()
    fid = cm.open(key(1))
    cm.register_send(fid, lambda f: None)
    assert fid == 1
    for bad in (True, 1.0):
        before = api_counts(cm)
        with pytest.raises(UnknownFlow):
            getattr(cm, name)(*ok(bad))
        assert counted(before, api_counts(cm)) == {name: 1}
    assert cm.macroflow_state(fid).members == (fid,)


def test_getters_and_close_of_a_closed_flow_reject_a_bool():
    cm = CongestionManager()
    fid = cm.open(key(1))
    for getter in (cm.rtt_estimate, cm.rto_estimate, cm.macroflow_state):
        with pytest.raises(UnknownFlow):
            getter(True)
    cm.close(fid)
    cm.close(fid)                          # a closed, issued id: no-op
    for bad in (True, False, 1.0):
        with pytest.raises(UnknownFlow):
            cm.close(bad)
