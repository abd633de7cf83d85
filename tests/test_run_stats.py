"""run_stats: the controller's counts and its crossings per MB, with the
CM flows' bytes taken from summarize_trace's per-flow sent_bytes."""
from cmsim.core import CongestionManager, FlowKey
from cmsim.harness import make_config, run_stats, summarize_trace
from cmsim.trace import TraceKind, TraceRecord


def test_run_stats_counts_cm_flows_by_their_send_rows_only():
    cm = CongestionManager()
    a, b, c = (cm.open(FlowKey("h", p, "d", 9)) for p in (1, 2, 3))
    records = [
        TraceRecord(0.0, a, TraceKind.SEND, 0.0, 1500.0),
        TraceRecord(0.1, a, TraceKind.SEND, 1.0, 500.0),
        TraceRecord(0.1, c, TraceKind.DROP, 0.0, 1500.0),   # no Send row
        TraceRecord(0.2, 900, TraceKind.SEND, 0.0, 1500.0),  # reference
    ]
    stats = summarize_trace(make_config("udpcc_basic"), records)
    ctx = {"cm": cm, "cm_flows": [a, b, c], "ref_flows": [900]}
    got = run_stats(ctx, stats)
    assert got["cm_sent_bytes"] == 2000.0
    assert got["op_counts"] == {"open": 3}
    assert got["crossings_per_mb"] == 3 / 0.002
    for silent in ([b], [c]):               # no entry; an entry, no Send
        got = run_stats(dict(ctx, cm_flows=silent), stats)
        assert got["cm_sent_bytes"] == 0
        assert got["crossings_per_mb"] == 0.0
