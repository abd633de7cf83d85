"""The columnar Tracer: its records view reads back the rows a list of
TraceRecords would hold, write_csv and summarize_trace give the same
output for both, summarize_trace gives the bytes of the row-by-row pass it
replaced, a row costs at most 36 bytes, summarizing costs at most 32
bytes per row at its peak, and write_csv's peak stays under a fixed
bound however many rows it writes."""
import enum
import json
import math
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmsim.harness import make_config, summarize_trace
from cmsim.harness.scenarios import SERIES_CAP
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

    assert len(view) == len(ref)
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
    assert len(tracer.records) == 2
    assert csv_bytes(tracer.records) == csv_bytes(list(tracer.records))
    assert [r.flow for r in tracer.records] == [1, 3]


@pytest.mark.parametrize("bad", ["Send", None, 1, TraceKind.SEND.value,
                                 enum.Enum("Other", "SEND").SEND],
                         ids=["name", "none", "int", "value", "other-enum"])
def test_emit_of_a_kind_that_is_no_trace_kind_appends_nothing(bad):
    tracer = Tracer()
    tracer.emit(0.0, 1, TraceKind.SEND, 0, 1500)
    with pytest.raises(TypeError):
        tracer.emit(0.5, 2, bad, 1, 2)
    assert len(tracer.records) == 1
    assert [len(col) for col in tracer.records._columns] == [1] * 5
    assert csv_bytes(tracer.records) == csv_bytes(list(tracer.records))


def test_a_row_costs_at_most_36_bytes():
    # tracemalloc counts the allocations the rows keep, which unlike RSS
    # is the same on every run; a TraceRecord with boxed floats kept ~150,
    # and a kind column of references instead of one-byte codes ~40
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
    assert len(tracer.records) == n
    assert held / n <= 36


# -- summarize_trace against the row-by-row pass it replaced ---------------


def reference_downsample(series, cap=SERIES_CAP):
    if len(series) <= cap:
        return series
    stride = math.ceil(len(series) / cap)
    kept = series[::stride]
    if kept[-1] != series[-1]:
        kept.append(series[-1])
    return kept


def reference_stats(values):
    n = len(values)
    if n == 0:
        return {"count": 0, "mean": 0.0, "std": 0.0, "cov": 0.0}
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    std = math.sqrt(var)
    return {"count": n, "mean": mean, "std": std,
            "cov": std / mean if mean > 0 else 0.0}


def reference_summary(cfg, records):
    """summarize_trace as one Python pass that builds a [t, v] list per
    series row, kept as the reference for the columnar one."""
    per_flow = {}
    cwnd_series, layer_series, rate_cbs = {}, {}, {}
    transfers = []
    policer_drops = buf_drops = 0
    audio_sends = []
    keep_audio = cfg.scenario == "audio_cbr"

    def entry(flow):
        return per_flow.setdefault(flow, {
            "sent_pkts": 0, "sent_bytes": 0, "delivered_pkts": 0,
            "delivered_bytes": 0, "dropped_pkts": 0, "marked_pkts": 0})

    for t, flow, kind, v1, v2 in records:
        if kind is TraceKind.SEND:
            e = entry(flow)
            e["sent_pkts"] += 1
            e["sent_bytes"] += v2
            if keep_audio:
                audio_sends.append((t, v1))
        elif kind is TraceKind.DELIVER:
            e = entry(flow)
            e["delivered_pkts"] += 1
            e["delivered_bytes"] += v2
        elif kind is TraceKind.DROP:
            entry(flow)["dropped_pkts"] += 1
        elif kind is TraceKind.MARK:
            entry(flow)["marked_pkts"] += 1
        elif kind is TraceKind.CWND_CHANGE:
            cwnd_series.setdefault(flow, []).append([t, v1])
        elif kind is TraceKind.LAYER_CHANGE:
            layer_series.setdefault(flow, []).append([t, v1])
        elif kind is TraceKind.RATE_CALLBACK:
            rate_cbs.setdefault(flow, []).append([t, v1])
        elif kind is TraceKind.TRANSFER_DONE:
            transfers.append({"index": int(v1), "elapsed": v2,
                              "done_at": t})
        elif kind is TraceKind.POLICER_DROP:
            policer_drops += 1
        elif kind is TraceKind.BUF_DROP:
            buf_drops += 1

    for e in per_flow.values():
        e["throughput_bps"] = e["delivered_bytes"] * 8.0 / cfg.duration

    layer_occupancy = {}
    for fid, changes in layer_series.items():
        occ = {}
        for (t0, layer), (t1, _) in zip(
                changes, changes[1:] + [[cfg.duration, 0.0]]):
            occ[int(layer)] = occ.get(int(layer), 0.0) + max(0.0, t1 - t0)
        total = sum(occ.values())
        layer_occupancy[fid] = {
            "changes": max(0, len(changes) - 1),
            "fractions": {str(k): v / total for k, v in sorted(occ.items())}
            if total > 0 else {},
        }

    rate_stats = {}
    for fid, points in rate_cbs.items():
        st = reference_stats([p[1] for p in points])
        st["first_t"] = points[0][0]
        rate_stats[fid] = st

    out = {
        "per_flow": {str(k): per_flow[k] for k in sorted(per_flow)},
        "cwnd_series": {str(k): reference_downsample(v)
                        for k, v in sorted(cwnd_series.items())},
        "layer_occupancy": {str(k): v
                            for k, v in sorted(layer_occupancy.items())},
        "rate_callbacks": {str(k): v for k, v in sorted(rate_stats.items())},
        "transfers": transfers,
    }
    if keep_audio:
        generated = int(cfg.duration / cfg.frame_interval) + 1
        delays = [t - seq * cfg.frame_interval for t, seq in audio_sends]
        out["audio"] = {
            "generated_frames": generated,
            "sent_frames": len(audio_sends),
            "policer_drops": policer_drops,
            "buf_drops": buf_drops,
            "policer_drop_fraction": policer_drops / generated,
            "max_app_buf_delay": max(delays) if delays else 0.0,
        }
    return out


def series_rows(flow, kind, n, value=None):
    return [(i * 0.01, flow, kind, i * 1500 if value is None else value,
             2 * i) for i in range(n)]


# one flow past the cap whose last point is not on the stride (appended),
# one past it whose last point equals the last one kept (not appended),
# and one at the cap
LONG_SERIES = (series_rows(1, TraceKind.CWND_CHANGE, 2 * SERIES_CAP + 1)
               + [(5.0, 2, TraceKind.CWND_CHANGE, 3000, 0)] * (SERIES_CAP + 2)
               + series_rows(3, TraceKind.CWND_CHANGE, SERIES_CAP))
# layers that repeat, go back in time and run past the end of the run
LAYERS = [(t, flow, TraceKind.LAYER_CHANGE, layer, 0.0)
          for t, flow, layer in ((0.0, 1, 0), (1.5, 1, 2), (1.25, 1, 1),
                                 (4.0, 1, 2), (2.0, 2, 3), (90.0, 2, 0),
                                 (0.5, 3, 1))]
# frames sent late, early and on time, with policer and buffer drops
AUDIO = [(0.05, 1, TraceKind.SEND, 0, 160), (0.3, 1, TraceKind.SEND, 1, 160),
         (0.3, 1, TraceKind.POLICER_DROP, 2, 160),
         (0.31, 1, TraceKind.BUF_DROP, 3, 160),
         (0.32, 1, TraceKind.SEND, 4, 160), (0.4, 2, TraceKind.SEND, 9, 160),
         (0.4, 1, TraceKind.DELIVER, 0, 160), (0.5, 1, TraceKind.DROP, 1, 160)]
# byte counts whose float sum depends on the order of the additions:
# (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
SUMS = [(i, flow, kind, i, b) for i, (flow, kind, b) in enumerate(
    (f, k, b) for b in (0.1, 0.2, 0.3) for f in (1, 2)
    for k in (TraceKind.SEND, TraceKind.DELIVER))]

summary_row_st = st.tuples(number_st,
                           st.one_of(st.integers(0, 3),
                                     st.integers(0, 10 ** 30)),
                           st.sampled_from(TraceKind), number_st, number_st)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(summary_row_st, max_size=60))
@example(EVERY_KIND)
@example(LONG_SERIES)
@example(LAYERS)
@example(AUDIO)
@example(SUMS)
def test_summarize_trace_matches_the_row_by_row_pass(rows):
    tracer = Tracer()
    for row in rows:
        tracer.emit(*row)
    # the reference reads the rows as the columns hold them: as floats
    as_stored = [TraceRecord(float(t), flow, kind, float(v1), float(v2))
                 for t, flow, kind, v1, v2 in rows]
    as_given = [TraceRecord(*row) for row in rows]
    for scenario in ("udpcc_basic", "audio_cbr", "layered_alf"):
        cfg = make_config(scenario)
        want = json.dumps(reference_summary(cfg, as_stored), sort_keys=True)
        assert json.dumps(summarize_trace(cfg, tracer.records),
                          sort_keys=True) == want
        assert json.dumps(summarize_trace(cfg, as_given),
                          sort_keys=True) == want


def test_summarizing_costs_at_most_32_bytes_per_row_at_its_peak():
    # tracemalloc's peak while summarizing rate callbacks and window
    # changes of a few flows; a [t, v] list per row held ~129 bytes
    n = 200_000
    tracer = Tracer()
    rate, cwnd = TraceKind.RATE_CALLBACK, TraceKind.CWND_CHANGE
    for i in range(n // 2):
        tracer.emit(i * 1e-4, i % 4, rate, 1e5 + i, 0.1)
        tracer.emit(i * 1e-4, i % 4, cwnd, 1500.0 * (i % 64), 3000.0)
    cfg = make_config("udpcc_basic")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stats = summarize_trace(cfg, tracer.records)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert stats["rate_callbacks"]["3"]["count"] == n // 8
    assert peak / n <= 32


def write_csv_peak(n):
    """tracemalloc's peak while write_csv writes n rows whose value1 are
    all distinct, above what was held before it started."""
    tracer = Tracer()
    kinds = list(TraceKind)
    for i in range(n):
        tracer.emit(i * 1e-3, i % 7, kinds[i % len(kinds)], i * 1500.0, 1500.0)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trace.csv")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_csv(path, tracer.records)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak


def test_write_csv_peak_is_bounded_and_does_not_grow_with_the_trace():
    # one chunk's row strings and their join peak near 140 kB; strings
    # for a whole trace of 100k rows would hold several MB
    small, large = write_csv_peak(50_000), write_csv_peak(100_000)
    assert large <= 512 * 1024
    assert large <= small * 1.05
