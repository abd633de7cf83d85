"""Contract of the records the client API hands around: FeedbackReport
(update's argument), QueryResult (query's answer) and AppAck (the
datagram receiver's flush). They are NamedTuples, built once per report,
grant or flush; the contract is that of the frozen dataclasses they
replaced: the same fields in the same order with the same defaults,
positional and keyword construction, no assignment, and update's checks
on every field of a report."""
from math import inf, nan

import pytest

from cmsim.core import (CongestionManager, FeedbackReport, FlowKey, LossMode,
                        QueryResult)
from cmsim.errors import InvalidReport
from cmsim.transport.feedback import AppAck

# class: (fields in order, defaults, one value per field)
RECORDS = {
    FeedbackReport: (("nsent", "nrecd", "lossmode", "rtt", "lost_sent_at"),
                     {"lossmode": LossMode.NO_LOSS, "rtt": None,
                      "lost_sent_at": None},
                     (3000, 1500, LossMode.TRANSIENT, 0.1, 0.5)),
    QueryResult: (("rate", "srtt", "loss_rate"), {}, (1.5e4, 0.1, 0.25)),
    AppAck: (("seqs", "highest_seen", "marked"), {"marked": 0},
             ((4, 5, 7), 7, 1)),
}
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_and_defaults(cls):
    names, defaults, _ = RECORDS[cls]
    assert cls._fields == names
    assert cls._field_defaults == defaults
    required = names[:len(names) - len(defaults)]
    rec = cls(*range(len(required)))
    for name, value in defaults.items():
        assert getattr(rec, name) == value


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    names, _, values = RECORDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    for name, value in zip(names, values):
        assert getattr(by_position, name) == value
    with pytest.raises(TypeError):
        cls(*values, "one too many")


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_attributes_cannot_be_assigned(cls):
    names, _, values = RECORDS[cls]
    rec = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        rec.extra = 0
    assert rec == cls(*values)


# clock at 1.0; a lost_sent_at at or before it, negative or not, is valid
BAD_REPORTS = {
    "nan-nsent": FeedbackReport(nan, 0),
    "nan-nrecd": FeedbackReport(1500, nan),
    "nan-rtt": FeedbackReport(1500, 1500, LossMode.NO_LOSS, nan),
    "nan-lost-sent-at": FeedbackReport(1500, 0, LossMode.TRANSIENT, None, nan),
    "negative-nsent": FeedbackReport(-1, 0),
    "negative-nrecd": FeedbackReport(1500, -1),
    "negative-rtt": FeedbackReport(1500, 1500, LossMode.NO_LOSS, -0.1),
    "zero-rtt": FeedbackReport(1500, 1500, LossMode.NO_LOSS, 0.0),
    "minus-inf-lost-sent-at": FeedbackReport(1500, 0, LossMode.TRANSIENT,
                                             None, -inf),
    "nrecd-above-nsent": FeedbackReport(1500, 3000),
    "lost-after-clock": FeedbackReport(1500, 0, LossMode.TRANSIENT, None, 1.5),
    # a no-loss report that dates a loss is checked against the clock too
    "no-loss-lost-after-clock": FeedbackReport(1500, 1500, LossMode.NO_LOSS,
                                               None, 1.5),
    "lossmode-not-a-mode": FeedbackReport(1500, 1500, "no_loss"),
}


@pytest.mark.parametrize("report", BAD_REPORTS.values(), ids=BAD_REPORTS)
def test_update_refuses_a_bad_field_before_any_change(report):
    cm = CongestionManager(clock=lambda: 1.0)
    fid = cm.open(FlowKey("client", 1, "server", 9))
    cm.update(fid, FeedbackReport(3000, 3000, LossMode.NO_LOSS, 0.1))
    cm.notify(fid, 3000)
    before = cm.macroflow_state(fid)
    with pytest.raises(InvalidReport):
        cm.update(fid, report)
    assert cm.macroflow_state(fid) == before
