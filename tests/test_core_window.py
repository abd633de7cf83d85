"""Window arithmetic: byte-counted slow start and congestion avoidance,
loss cuts with their floors, the one-cut-per-epoch rule, the rule that a
sibling's late report of a drop burst already cut for does not cut again,
and agreement with the independent straight-line recomputation in the
harness oracles.
"""
import random
from math import inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmsim.core import (CongestionManager, FeedbackReport, FlowKey, LossMode,
                        Proto)
from cmsim.errors import InvalidReport
from cmsim.harness.oracles import aimd_reference

MTU = 1500


def fresh(ssthresh=64 * 1024, clock=None):
    cm = CongestionManager(mtu=MTU, initial_ssthresh=ssthresh, clock=clock)
    fid = cm.open(FlowKey("c", 1, "s", 2, Proto.UDP))
    return cm, fid


def drive(cm, fid, seq):
    for nsent, nrecd, mode in seq:
        cm.update(fid, FeedbackReport(nsent, nrecd, mode))
    return cm.macroflow_state(fid)


def acked(n):
    return (n, n, LossMode.NO_LOSS)


# -- slow start -----------------------------------------------------------


def test_slow_start_doubles_each_window():
    cm, fid = fresh()
    seen = []
    for _ in range(4):
        cwnd = cm.macroflow_state(fid).cwnd
        cm.update(fid, FeedbackReport(cwnd, cwnd))
        seen.append(cm.macroflow_state(fid).cwnd)
    assert seen == [3000, 6000, 12000, 24000]


def test_slow_start_counts_bytes_not_acks():
    whole = drive(*fresh(), [acked(1500)]).cwnd
    split = drive(*fresh(), [acked(150)] * 10).cwnd
    assert whole == split == MTU + 1500


def test_unacked_bytes_do_not_grow_window():
    st_ = drive(*fresh(), [(3000, 0, LossMode.NO_LOSS)])
    assert st_.cwnd == MTU


def test_crossing_ssthresh_resets_byte_accumulator():
    cm, fid = fresh(ssthresh=12000)
    cm.update(fid, FeedbackReport(10501, 10501))
    st_ = cm.macroflow_state(fid)
    assert st_.cwnd == 12001
    assert st_.cwnd >= st_.ssthresh     # congestion avoidance
    # the 10501st byte crossed the threshold; none of the overshoot counts
    # toward the first avoidance window
    cm.update(fid, FeedbackReport(12000, 12000))
    assert cm.macroflow_state(fid).cwnd == 12001
    cm.update(fid, FeedbackReport(1, 1))
    assert cm.macroflow_state(fid).cwnd == 13501


# -- congestion avoidance -------------------------------------------------


def test_avoidance_adds_one_mtu_per_window():
    cm, fid = fresh(ssthresh=MTU)      # starts at cwnd == ssthresh
    cm.update(fid, FeedbackReport(1500, 1500))
    assert cm.macroflow_state(fid).cwnd == 3000
    cm.update(fid, FeedbackReport(3000, 3000))
    assert cm.macroflow_state(fid).cwnd == 4500


def test_avoidance_accumulator_carries_partial_windows():
    cm, fid = fresh(ssthresh=MTU)
    cm.update(fid, FeedbackReport(1499, 1499))
    assert cm.macroflow_state(fid).cwnd == MTU
    cm.update(fid, FeedbackReport(1, 1))
    assert cm.macroflow_state(fid).cwnd == 3000


# -- cuts -----------------------------------------------------------------


def test_transient_halves_window():
    cm, fid = fresh()
    drive(cm, fid, [acked(28500)])     # cwnd 30000 == 20 mtu
    cm.update(fid, FeedbackReport(1500, 0, LossMode.TRANSIENT))
    st_ = cm.macroflow_state(fid)
    assert st_.cwnd == 15000           # 10 mtu
    assert st_.ssthresh == 15000


def test_ecn_cut_equals_transient_cut():
    a = drive(*fresh(), [acked(28500), (1500, 0, LossMode.TRANSIENT)])
    b = drive(*fresh(), [acked(28500), (1500, 1500, LossMode.ECN)])
    assert (a.cwnd, a.ssthresh) == (b.cwnd, b.ssthresh)


def test_cut_floor_is_two_mtu():
    st_ = drive(*fresh(), [(1500, 0, LossMode.TRANSIENT)])
    assert st_.cwnd == 2 * MTU
    assert st_.ssthresh == 2 * MTU


def test_persistent_drops_to_one_mtu():
    cm, fid = fresh()
    drive(cm, fid, [acked(22500)])     # cwnd 24000
    cm.update(fid, FeedbackReport(1500, 0, LossMode.PERSISTENT))
    st_ = cm.macroflow_state(fid)
    assert st_.cwnd == MTU
    assert st_.ssthresh == 12000       # 8 mtu


def test_persistent_applies_even_inside_recovery():
    cm, fid = fresh()
    drive(cm, fid, [acked(22500), (1500, 0, LossMode.TRANSIENT)])
    cm.update(fid, FeedbackReport(1500, 0, LossMode.PERSISTENT))
    assert cm.macroflow_state(fid).cwnd == MTU


def test_one_transient_cut_per_post_cut_window():
    cm, fid = fresh()
    drive(cm, fid, [acked(22500)])     # cwnd 24000
    cm.update(fid, FeedbackReport(1500, 0, LossMode.TRANSIENT))
    assert cm.macroflow_state(fid).cwnd == 12000
    # still inside the recovery epoch: further transients are absorbed
    cm.update(fid, FeedbackReport(1500, 0, LossMode.TRANSIENT))
    assert cm.macroflow_state(fid).cwnd == 12000
    # one post-cut window of traffic ends the epoch
    cm.update(fid, FeedbackReport(10500, 0, LossMode.NO_LOSS))
    cm.update(fid, FeedbackReport(0, 0, LossMode.TRANSIENT))
    assert cm.macroflow_state(fid).cwnd == 6000


def test_wall_clock_also_releases_recovery_epoch():
    now = [0.0]
    cm, fid = fresh(clock=lambda: now[0])
    cm.update(fid, FeedbackReport(0, 0, rtt=0.1))       # srtt 0.1
    drive(cm, fid, [acked(22500)])
    cm.update(fid, FeedbackReport(100, 0, LossMode.TRANSIENT))
    assert cm.macroflow_state(fid).cwnd == 12000
    now[0] = 0.05   # less than one srtt since the cut: still held
    cm.update(fid, FeedbackReport(100, 0, LossMode.TRANSIENT))
    assert cm.macroflow_state(fid).cwnd == 12000
    now[0] = 0.15   # a full srtt elapsed: a fresh loss may cut again
    cm.update(fid, FeedbackReport(100, 0, LossMode.TRANSIENT))
    assert cm.macroflow_state(fid).cwnd == 6000


def test_growth_resumes_cleanly_after_cut():
    cm, fid = fresh()
    drive(cm, fid, [acked(28500), (30000, 0, LossMode.TRANSIENT)])
    assert cm.macroflow_state(fid).cwnd == 15000
    # now in avoidance at cwnd == ssthresh; one window adds one mtu
    cm.update(fid, FeedbackReport(15000, 15000))
    assert cm.macroflow_state(fid).cwnd == 16500


# -- stale losses: one drop burst, one cut per macroflow ------------------


def cut_by_a():
    """Members a and b on one macroflow with srtt 0.1 s and cwnd 24000;
    at t=1.0 a reports a loss of data sent at 0.9 and cuts to 12000.
    Returns (cm, a, b, now), now being the clock's settable cell."""
    now = [0.0]
    cm = CongestionManager(mtu=MTU, clock=lambda: now[0])
    a = cm.open(FlowKey("c", 1, "s", 2, Proto.UDP))
    b = cm.open(FlowKey("c", 3, "s", 2, Proto.UDP))
    cm.update(a, FeedbackReport(0, 0, rtt=0.1))
    cm.update(a, FeedbackReport(22500, 22500))
    now[0] = 1.0
    cm.update(a, FeedbackReport(1500, 0, LossMode.TRANSIENT, None, 0.9))
    assert cm.macroflow_state(a).cwnd == 12000
    return cm, a, b, now


def test_siblings_stale_loss_does_not_cut_but_is_accounted():
    """Past both epoch releases (one srtt of time, a post-cut window of
    bytes), b's report of data sent before the cut still does not cut;
    it discharges its bytes and raises the loss rate."""
    cm, a, b, now = cut_by_a()
    now[0] = 1.5
    cm.notify(b, 12000)
    before = cm.macroflow_state(b)
    cm.update(b, FeedbackReport(12000, 0, LossMode.TRANSIENT, None, 0.95))
    after = cm.macroflow_state(b)
    assert (after.cwnd, after.ssthresh) == (12000, 12000)
    assert after.outstanding == 0
    assert after.loss_rate > before.loss_rate


def test_cutting_members_own_stale_loss_follows_the_epoch_rule():
    cm, a, b, now = cut_by_a()
    now[0] = 1.05        # inside the epoch: held
    cm.update(a, FeedbackReport(100, 0, LossMode.TRANSIENT, None, 0.95))
    assert cm.macroflow_state(a).cwnd == 12000
    now[0] = 1.5         # one srtt on: a cuts again for its own old loss
    cm.update(a, FeedbackReport(100, 0, LossMode.TRANSIENT, None, 0.95))
    assert cm.macroflow_state(a).cwnd == 6000


def test_loss_sent_from_the_cut_on_cuts_and_moves_the_cutter():
    cm, a, b, now = cut_by_a()
    now[0] = 1.05        # a fresh loss inside the epoch is still held
    cm.update(b, FeedbackReport(100, 0, LossMode.TRANSIENT, None, 1.02))
    assert cm.macroflow_state(b).cwnd == 12000
    now[0] = 1.5         # data sent at the cut's instant is not before it
    cm.update(b, FeedbackReport(100, 0, LossMode.TRANSIENT, None, 1.0))
    assert cm.macroflow_state(b).cwnd == 6000
    # b made the last cut at 1.5, so a's loss of data sent at 1.4 is stale
    now[0] = 2.0
    cm.update(a, FeedbackReport(100, 0, LossMode.TRANSIENT, None, 1.4))
    assert cm.macroflow_state(a).cwnd == 6000


def test_persistent_always_cuts_even_for_a_siblings_stale_loss():
    cm, a, b, now = cut_by_a()
    now[0] = 1.05
    cm.update(b, FeedbackReport(100, 0, LossMode.PERSISTENT, None, 0.95))
    st_ = cm.macroflow_state(b)
    assert (st_.cwnd, st_.ssthresh) == (MTU, 6000)


@pytest.mark.parametrize("mode,lost_sent_at", [
    (LossMode.TRANSIENT, None), (LossMode.ECN, None), (LossMode.ECN, 0.95),
], ids=["transient-none", "ecn-none", "ecn-stale"])
def test_report_without_the_rule_keeps_the_epoch_rule(mode, lost_sent_at):
    """A report with no lost_sent_at, and any ECN report, is cut for or
    held exactly as before the rule: held inside the epoch, cut after."""
    cm, a, b, now = cut_by_a()
    now[0] = 1.05
    cm.update(b, FeedbackReport(100, 0, mode, None, lost_sent_at))
    assert cm.macroflow_state(b).cwnd == 12000
    now[0] = 1.5
    cm.update(b, FeedbackReport(100, 0, mode, None, lost_sent_at))
    assert cm.macroflow_state(b).cwnd == 6000


@pytest.mark.parametrize("lost_sent_at", [nan, inf, -inf, 1.5],
                         ids=["nan", "inf", "-inf", "after-clock"])
def test_bad_lost_sent_at_raises_before_any_state_change(lost_sent_at):
    cm, a, b, now = cut_by_a()
    now[0] = 1.25
    cm.notify(b, 3000)
    before = cm.macroflow_state(b)
    with pytest.raises(InvalidReport):
        cm.update(b, FeedbackReport(3000, 0, LossMode.TRANSIENT, 0.05,
                                    lost_sent_at))
    assert cm.macroflow_state(b) == before


# -- oracle agreement -----------------------------------------------------


MEMBERS = 3


def drive_timed(seq):
    """Drive a fresh core through ((nsent, nrecd, mode), dt, rtt, member,
    lost_ago) steps on a clock that advances dt before each update. The
    report comes from member (0 to MEMBERS - 1, all on one macroflow)
    and says its newest lost byte was sent lost_ago seconds before the
    update, or carries no lost_sent_at when lost_ago is None. Returns the
    cwnd after each update and the updates as the oracle takes them."""
    now = [0.0]
    cm, fid = fresh(clock=lambda: now[0])
    fids = [fid] + [cm.open(FlowKey("c", 10 + i, "s", 2, Proto.UDP))
                    for i in range(1, MEMBERS)]
    got, updates = [], []
    for (nsent, nrecd, mode), dt, rtt, member, lost_ago in seq:
        now[0] += dt
        lost = None if lost_ago is None else now[0] - lost_ago
        cm.update(fids[member], FeedbackReport(nsent, nrecd, mode, rtt, lost))
        got.append(cm.macroflow_state(fid).cwnd)
        updates.append((nsent, nrecd, mode.value, now[0], rtt, member, lost))
    return got, updates


def test_random_sequences_match_oracle_exactly():
    """Clock steps of up to 0.3 s against srtt samples of 0.01-0.3 s, so
    recovery epochs end by wall time as well as by reported bytes; losses
    sent up to 0.6 s back land on both sides of the last cut."""
    rng = random.Random(424242)
    modes = [LossMode.NO_LOSS] * 7 + [LossMode.TRANSIENT] * 2 + \
        [LossMode.ECN, LossMode.PERSISTENT]
    for _ in range(300):
        seq = []
        for _ in range(rng.randint(1, 80)):
            nsent = rng.randint(0, 4500)
            seq.append(((nsent, rng.randint(0, nsent), rng.choice(modes)),
                        rng.choice((0.0, rng.uniform(0.0, 0.3))),
                        rng.uniform(0.01, 0.3) if rng.random() < 0.3
                        else None,
                        rng.randrange(MEMBERS),
                        rng.choice((None, 0.0, rng.uniform(0.0, 0.6)))))
        got, updates = drive_timed(seq)
        assert got == aimd_reference(updates, mtu=MTU)


# -- properties -----------------------------------------------------------

report_st = st.integers(0, 4500).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(0, n),
        st.sampled_from([LossMode.NO_LOSS, LossMode.TRANSIENT,
                         LossMode.PERSISTENT, LossMode.ECN])))


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(report_st, min_size=1, max_size=60))
def test_property_cwnd_never_below_one_mtu(seq):
    cm, fid = fresh()
    for nsent, nrecd, mode in seq:
        cm.update(fid, FeedbackReport(nsent, nrecd, mode))
        assert cm.macroflow_state(fid).cwnd >= MTU


timed_report_st = st.tuples(
    report_st, st.floats(0.0, 0.3),
    st.one_of(st.none(), st.floats(0.01, 0.3)),
    st.integers(0, MEMBERS - 1),
    st.one_of(st.none(), st.floats(0.0, 0.6)))


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(timed_report_st, min_size=1, max_size=60))
def test_property_final_state_matches_oracle(seq):
    got, updates = drive_timed(seq)
    assert got[-1] == aimd_reference(updates, mtu=MTU)[-1]


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 4500), min_size=1, max_size=40))
def test_property_no_loss_growth_is_monotone(amounts):
    cm, fid = fresh()
    prev = cm.macroflow_state(fid).cwnd
    for n in amounts:
        cm.update(fid, FeedbackReport(n, n))
        cur = cm.macroflow_state(fid).cwnd
        assert cur >= prev
        prev = cur


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(1, 4000), min_size=1, max_size=30))
def test_property_partitions_equivalent_within_phase(chunks):
    total = sum(chunks)
    for ssthresh in (1 << 30, MTU):
        whole = drive(*fresh(ssthresh=ssthresh), [acked(total)]).cwnd
        split = drive(*fresh(ssthresh=ssthresh),
                      [acked(c) for c in chunks]).cwnd
        assert whole == split
