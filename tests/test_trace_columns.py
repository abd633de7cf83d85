"""The columnar Tracer: its records view reads back the rows a list of
TraceRecords would hold, write_csv and summarize_trace give the same
output for both, and a row costs at most 64 bytes."""
import json
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmsim.harness import make_config, summarize_trace
from cmsim.trace import TraceKind, TraceRecord, Tracer, write_csv

# floats as they reach the trace, ints passed where a float is expected,
# and the values whose repr is easiest to get wrong; bounded so that
# summarize_trace's variance cannot overflow
number_st = st.one_of(
    st.floats(-1e22, 1e22, allow_nan=False),
    st.integers(-(2 ** 53), 2 ** 53),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e22, 1e16, 0.1, 1.0]),
)
row_st = st.tuples(number_st, st.integers(0, 10 ** 30),
                   st.sampled_from(TraceKind), number_st, number_st)

# every kind, ints, signed zero, the smallest subnormal and 1e22 in one
# example, so each appears whatever the draw
EVERY_KIND = [(i, i % 3, kind, -0.0 if i % 2 else 5e-324, 1e22 if i % 3 else 7)
              for i, kind in enumerate(TraceKind)]

SLICES = [slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
          slice(1, 7, 2), slice(-3, None), slice(5, 2)]


def exact(records):
    """Rows with floats by repr, so -0.0 and 0.0 differ."""
    return [(type(r), repr(r.t), r.flow, r.kind, repr(r.value1),
             repr(r.value2)) for r in records]


def csv_bytes(records):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trace.csv")
        write_csv(path, records)
        with open(path, "rb") as fh:
            return fh.read()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(row_st, max_size=30))
@example(EVERY_KIND)
def test_tracer_view_matches_a_list_of_records(rows):
    tracer = Tracer()
    for row in rows:
        tracer.emit(*row)
    # what the Tracer stores: t, value1 and value2 as floats
    ref = [TraceRecord(float(t), flow, kind, float(v1), float(v2))
           for t, flow, kind, v1, v2 in rows]
    view = tracer.records

    assert len(tracer) == len(view) == len(ref)
    assert exact(view) == exact(ref)
    assert exact(view[i] for i in range(len(ref))) == exact(ref)
    assert exact(view[-i - 1] for i in range(len(ref))) == exact(ref[::-1])
    for s in SLICES:
        assert isinstance(view[s], list)
        assert exact(view[s]) == exact(ref[s])
    for i in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            view[i]

    got = csv_bytes(view)
    assert got == csv_bytes(ref)
    assert got == csv_bytes([TraceRecord(*row) for row in rows])
    for scenario in ("udpcc_basic", "audio_cbr", "layered_alf"):
        cfg = make_config(scenario)
        assert json.dumps(summarize_trace(cfg, view), sort_keys=True) == \
            json.dumps(summarize_trace(cfg, ref), sort_keys=True)


def test_view_sees_rows_emitted_after_it_was_taken():
    tracer = Tracer()
    view = tracer.records
    assert len(view) == 0 and list(view) == []
    tracer.emit(0.5, 3, TraceKind.SEND, 0, 1500)
    assert view[-1] == TraceRecord(0.5, 3, TraceKind.SEND, 0.0, 1500.0)


@pytest.mark.parametrize("bad", ["1", None, 10 ** 400],
                         ids=["str", "none", "int-past-float-range"])
def test_emit_of_a_value_that_is_no_float_appends_no_part_of_its_row(bad):
    tracer = Tracer()
    tracer.emit(0.0, 1, TraceKind.SEND, 0, 1500)
    for t, v1, v2 in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
        with pytest.raises((TypeError, OverflowError)):
            tracer.emit(t, 2, TraceKind.DROP, v1, v2)
    tracer.emit(1.0, 3, TraceKind.DELIVER, 0, 1500)
    assert len(tracer) == 2
    assert csv_bytes(tracer.records) == csv_bytes(list(tracer.records))
    assert [r.flow for r in tracer.records] == [1, 3]


def test_a_row_costs_at_most_64_bytes():
    # tracemalloc counts the allocations the rows keep, which unlike RSS
    # is the same on every run; a TraceRecord with boxed floats kept ~150
    n = 100_000
    tracer = Tracer()
    kind = TraceKind.SEND
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            tracer.emit(i * 1e-3, 7, kind, i * 1500.0, 1500.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tracer) == n
    assert held / n <= 64
