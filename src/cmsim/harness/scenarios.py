"""Scenario builders and the experiment runner.

Each builder wires sources, transports, the shared controller, and links
into a single event loop; run_experiment() drives the loop to the
configured duration and derives two kinds of output:

  * trace_stats: recomputable offline from (config, trace records) alone;
  * run_stats: controller operation counts, which exist only in the live
    run (they measure API boundary crossings, not traffic).

Reverse (acknowledgment) links are fast and lossless so that the
dynamics under study stay on the forward bottleneck.
"""
from __future__ import annotations

import math
import os
from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, compress, repeat
from operator import mul, sub
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from ..apps import (AlfLayeredSource, CbrAudioSource, LayerConfig,
                    PacedLayeredSource)
from ..core import CongestionManager, FlowKey, Proto
from ..sim import Dispatcher, EventLoop, Link
from ..trace import TraceKind, TraceRecord, Tracer, columns, write_csv
from ..transport.feedback import AppAckReceiver, DatagramSender
from ..transport.tcp import TcpReceiver, TcpSender
from ..transport.udpcc import UdpCcSocket
from .config import ExperimentConfig, save_json, validate
from .oracles import RenoSender

REV_QUEUE = 100_000      # acks never tail-drop
RENO_FLOW_BASE = 900     # reference senders sit outside controller flow ids
SERIES_CAP = 400         # summary time series are downsampled to this length


@dataclass
class RunOutput:
    config: ExperimentConfig
    records: Sequence[TraceRecord]
    summary: Dict[str, Any]
    ctx: Dict[str, Any]


def _cm(cfg: ExperimentConfig, loop: EventLoop,
        tracer: Tracer) -> CongestionManager:
    cm = CongestionManager(mtu=cfg.mtu, clock=lambda: loop.now, tracer=tracer)

    def tick() -> None:
        cm.tick(loop.now)
        loop.schedule_after(cm.tick_period(), tick)

    loop.schedule_after(cm.tick_period(), tick)
    return cm


def _duplex(cfg: ExperimentConfig, loop: EventLoop, tracer: Tracer,
            name: str) -> Tuple[Link, Link]:
    fwd = Link(loop, cfg.bandwidth_bps, cfg.delay,
               queue_limit=cfg.queue_limit, loss_prob=cfg.loss_prob,
               ecn_mode=cfg.ecn, mtu=cfg.mtu, seed=cfg.seed,
               name=f"{name}-fwd", tracer=tracer)
    rev = Link(loop, cfg.ack_bandwidth_bps, cfg.delay, queue_limit=REV_QUEUE,
               mtu=cfg.mtu, seed=cfg.seed, name=f"{name}-rev")
    return fwd, rev


def _app_acks(cfg: ExperimentConfig, loop: EventLoop, fwd: Link, rev: Link,
              senders: List[DatagramSender]) -> Tuple[Dispatcher, Dispatcher]:
    """Route each datagram sender's packets to its own AppAckReceiver and
    the acks back to its on_feedback; returns the forward and reverse
    dispatchers so other flows can share the links."""
    route_fwd = Dispatcher()
    route_rev = Dispatcher()
    fwd.sink = route_fwd
    rev.sink = route_rev
    for s in senders:
        ackr = AppAckReceiver(loop, rev, s.flow, max_acks=cfg.max_acks,
                              max_delay=cfg.max_delay)
        route_fwd.register(s.flow, ackr.on_data)
        route_rev.register(s.flow, s.on_feedback)
    return route_fwd, route_rev


# -- builders -------------------------------------------------------------


def build_tcp_compare(cfg: ExperimentConfig, loop: EventLoop,
                      tracer: Tracer) -> Dict[str, Any]:
    """One controller-managed stream and one independent Reno stream on
    separate but identically configured lossy links."""
    cm = _cm(cfg, loop, tracer)
    fwd_c, rev_c = _duplex(cfg, loop, tracer, "cm")
    key = FlowKey("client", 4001, "server", 80, Proto.TCP)
    sender = TcpSender(cm, key, fwd_c, loop, tracer=tracer)
    receiver = TcpReceiver(loop, rev_c, sender.flow)
    fwd_c.sink = receiver.on_data
    rev_c.sink = sender.on_ack
    # enough backlog that the source can never run dry
    sender.write(int(cfg.duration * cfg.bandwidth_bps / 8) + cfg.mtu)
    sender.start()

    fwd_r, rev_r = _duplex(cfg, loop, tracer, "ref")
    reno = RenoSender(loop, RENO_FLOW_BASE, fwd_r, mss=cfg.mtu,
                      tracer=tracer)
    reno_rcv = TcpReceiver(loop, rev_r, RENO_FLOW_BASE)
    fwd_r.sink = reno_rcv.on_data
    rev_r.sink = reno.on_ack
    reno.start()

    return {"cm": cm, "cm_flows": [sender.flow],
            "ref_flows": [RENO_FLOW_BASE]}


def build_sharing(cfg: ExperimentConfig, loop: EventLoop,
                  tracer: Tracer) -> Dict[str, Any]:
    """Back-to-back transfers to one destination; each is a fresh
    connection but they all inherit the destination's shared state."""
    cm = _cm(cfg, loop, tracer)
    fwd, rev = _duplex(cfg, loop, tracer, "shr")
    route_fwd = Dispatcher()
    route_rev = Dispatcher()
    fwd.sink = route_fwd
    rev.sink = route_rev
    cm_flows: List[int] = []

    def start_transfer(i: int) -> None:
        t0 = loop.now
        key = FlowKey("client", 2000 + i, "server", 80, Proto.TCP)

        def done(now: float) -> None:
            tracer.emit(now, s.flow, TraceKind.TRANSFER_DONE, i, now - t0)
            s.close()
            if i + 1 < cfg.num_transfers:
                loop.schedule_after(cfg.transfer_gap, start_transfer, i + 1)

        s = TcpSender(cm, key, fwd, loop, tracer=tracer, on_complete=done)
        r = TcpReceiver(loop, rev, s.flow)
        route_fwd.register(s.flow, r.on_data)
        route_rev.register(s.flow, s.on_ack)
        cm_flows.append(s.flow)
        s.write(cfg.transfer_size)
        s.start()

    start_transfer(0)
    return {"cm": cm, "cm_flows": cm_flows, "ref_flows": []}


def _build_layered(cfg: ExperimentConfig, loop: EventLoop, tracer: Tracer,
                   paced: bool) -> Dict[str, Any]:
    cm = _cm(cfg, loop, tracer)
    fwd, rev = _duplex(cfg, loop, tracer, "lay")
    layers = LayerConfig(rates=tuple(cfg.layer_rates), safety=cfg.safety)
    key = FlowKey("app", 5001, "sink", 443)
    if paced:
        app: Any = PacedLayeredSource(
            cm, key, fwd, loop, layers=layers, packet_size=cfg.packet_size,
            thresh=(cfg.thresh_down, cfg.thresh_up), tracer=tracer)
    else:
        app = AlfLayeredSource(cm, key, fwd, loop, layers=layers,
                               packet_size=cfg.packet_size, tracer=tracer)
    _app_acks(cfg, loop, fwd, rev, [app])
    loop.schedule(cfg.step_down_t, fwd.set_bandwidth, cfg.low_bandwidth_bps)
    loop.schedule(cfg.step_up_t, fwd.set_bandwidth, cfg.bandwidth_bps)
    app.start()
    return {"cm": cm, "cm_flows": [app.flow], "ref_flows": []}


def build_delayed_feedback(cfg: ExperimentConfig, loop: EventLoop,
                           tracer: Tracer) -> Dict[str, Any]:
    """A greedy datagram flow whose receiver batches acknowledgments."""
    cm = _cm(cfg, loop, tracer)
    fwd, rev = _duplex(cfg, loop, tracer, "dly")
    key = FlowKey("app", 6001, "collector", 9)
    sock = UdpCcSocket(cm, key, fwd, loop, tracer=tracer)
    sock.on_sent = lambda seq, size: sock.send(cfg.packet_size)
    # rate callbacks with default thresholds fire on every rate change
    cm.register_update(sock.flow, lambda fid, rate, srtt, lr: None)
    _app_acks(cfg, loop, fwd, rev, [sock])
    for _ in range(cfg.queue_target):
        sock.send(cfg.packet_size)
    return {"cm": cm, "cm_flows": [sock.flow], "ref_flows": []}


def build_udpcc_basic(cfg: ExperimentConfig, loop: EventLoop,
                      tracer: Tracer) -> Dict[str, Any]:
    """num_flows greedy datagram flows to one destination, round-robin
    scheduled inside a single macroflow."""
    cm = _cm(cfg, loop, tracer)
    fwd, rev = _duplex(cfg, loop, tracer, "rr")
    socks: List[UdpCcSocket] = []
    for i in range(cfg.num_flows):
        key = FlowKey("host", 7000 + i, "peer", 9)
        sock = UdpCcSocket(cm, key, fwd, loop, tracer=tracer)
        sock.on_sent = (
            lambda s: lambda seq, size: s.send(cfg.packet_size))(sock)
        socks.append(sock)
    _app_acks(cfg, loop, fwd, rev, socks)
    for sock in socks:
        for _ in range(8):
            sock.send(cfg.packet_size)
    return {"cm": cm, "cm_flows": [s.flow for s in socks], "ref_flows": []}


def build_fairness_ensemble(cfg: ExperimentConfig, loop: EventLoop,
                            tracer: Tracer) -> Dict[str, Any]:
    """num_flows controller flows plus one independent Reno flow on a
    shared bottleneck. Queue top-ups, grant requests, and rate queries
    run through bulk calls when cfg.bulk is set, per-flow calls
    otherwise; the traffic pattern is identical either way."""
    cm = _cm(cfg, loop, tracer)
    fwd, rev = _duplex(cfg, loop, tracer, "ens")
    batch: List[int] = []
    socks = [UdpCcSocket(cm, FlowKey("host", 7100 + i, "server", 9), fwd,
                         loop, tracer=tracer, request_batch=batch)
             for i in range(cfg.num_flows)]
    route_fwd, route_rev = _app_acks(cfg, loop, fwd, rev, socks)

    def refill() -> None:
        for sock in socks:
            while sock.queue_len < cfg.queue_target:
                sock.send(cfg.packet_size)
        if batch:
            if cfg.bulk:
                cm.bulk_request(list(batch))
            else:
                for fid in batch:
                    cm.request(fid)
            batch.clear()
        loop.schedule_after(cfg.refill_interval, refill)

    def sample() -> None:
        fids = [s.flow for s in socks]
        if cfg.bulk:
            cm.bulk_query(fids)
        else:
            for fid in fids:
                cm.query(fid)
        loop.schedule_after(cfg.sample_interval, sample)

    refill()
    loop.schedule_after(cfg.sample_interval, sample)

    reno = RenoSender(loop, RENO_FLOW_BASE, fwd, mss=cfg.mtu, tracer=tracer)
    reno_rcv = TcpReceiver(loop, rev, RENO_FLOW_BASE)
    route_fwd.register(RENO_FLOW_BASE, reno_rcv.on_data)
    route_rev.register(RENO_FLOW_BASE, reno.on_ack)
    reno.start()
    return {"cm": cm, "cm_flows": [s.flow for s in socks],
            "ref_flows": [RENO_FLOW_BASE]}


def build_audio_cbr(cfg: ExperimentConfig, loop: EventLoop,
                    tracer: Tracer) -> Dict[str, Any]:
    cm = _cm(cfg, loop, tracer)
    fwd, rev = _duplex(cfg, loop, tracer, "aud")
    key = FlowKey("vat", 5004, "peer", 5004)
    app = CbrAudioSource(cm, key, fwd, loop, frame_size=cfg.frame_size,
                         frame_interval=cfg.frame_interval,
                         app_buf_limit=cfg.app_buf_limit,
                         policer_depth_frames=cfg.policer_depth_frames,
                         thresh=(cfg.thresh_down, cfg.thresh_up),
                         tracer=tracer)
    _app_acks(cfg, loop, fwd, rev, [app])
    app.start()
    return {"cm": cm, "cm_flows": [app.flow], "ref_flows": []}


BUILDERS: Dict[str, Callable] = {
    "tcp_compare": build_tcp_compare,
    "sharing": build_sharing,
    "layered_alf": partial(_build_layered, paced=False),
    "layered_rate": partial(_build_layered, paced=True),
    "delayed_feedback": build_delayed_feedback,
    "fairness_ensemble": build_fairness_ensemble,
    "udpcc_basic": build_udpcc_basic,
    "audio_cbr": build_audio_cbr,
}


# -- running --------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig) -> RunOutput:
    validate(cfg)
    loop = EventLoop()
    tracer = Tracer()
    ctx = BUILDERS[cfg.scenario](cfg, loop, tracer)
    loop.run_until(cfg.duration)
    trace_stats = summarize_trace(cfg, tracer.records)
    summary = {"trace_stats": trace_stats,
               "run_stats": run_stats(ctx, trace_stats)}
    return RunOutput(cfg, tracer.records, summary, ctx)


def write_outputs(out: RunOutput, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    save_json(asdict(out.config), os.path.join(outdir, "config.json"))
    write_csv(os.path.join(outdir, "trace.csv"), out.records)
    save_json(out.summary, os.path.join(outdir, "summary.json"))


# -- summaries ------------------------------------------------------------


# per kind code, the translate table that maps the code to 1 and every
# other byte to 0 (bytes(n) is n zero bytes): it turns the kind column
# into a selector for itertools.compress
_ONLY = [bytes(kind.code) + b"\x01" + bytes(255 - kind.code)
         for kind in TraceKind]


def _downsample(ts: array, vs: array) -> List[List[float]]:
    """The [t, v] points a summary keeps of a series: all of them up to
    SERIES_CAP, else every stride-th from the first, plus the last point
    unless the last one kept equals it."""
    stride = max(1, math.ceil(len(ts) / SERIES_CAP))
    kept = list(map(list, zip(ts[::stride], vs[::stride])))
    last = [ts[-1], vs[-1]]
    if kept[-1] != last:
        kept.append(last)
    return kept


def _stats(values: Sequence[float]) -> Dict[str, float]:
    n = len(values)
    if n == 0:
        return {"count": 0, "mean": 0.0, "std": 0.0, "cov": 0.0}
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    std = math.sqrt(var)
    return {"count": n, "mean": mean, "std": std,
            "cov": std / mean if mean > 0 else 0.0}


def _sums(rows: Iterable[Tuple[int, float]],
          flows: Iterable[int]) -> Dict[int, float]:
    """Per flow of flows, its rows' values added from 0 in row order."""
    out = dict.fromkeys(flows, 0)
    for flow, v in rows:
        out[flow] += v
    return out


def _series(rows: Iterable[Tuple[int, float, float]]
            ) -> Dict[int, Tuple[array, array]]:
    """Per flow, the t and value arrays of its (flow, t, value) rows."""
    out: Dict[int, Tuple[array, array]] = {}
    for flow, t, v in rows:
        s = out.get(flow)
        if s is None:
            s = out[flow] = (array("d"), array("d"))
        s[0].append(t)
        s[1].append(v)
    return out


def summarize_trace(cfg: ExperimentConfig,
                    records: Iterable[TraceRecord]) -> Dict[str, Any]:
    """Pure function of (config, trace): recomputable offline.

    It reads the trace's columns (``trace.columns``) and keeps no object
    per row. Each kind's rows are picked by a C-level ``compress`` whose
    selector, one 0/1 byte per row, ``translate`` makes from the kind
    codes; per-flow row counts come from ``Counter``. Send and
    Deliver bytes are summed per flow in trace order, so the float sums
    are those of a row-by-row pass. The CwndChange, LayerChange and
    RateCallback series are per-flow ``array("d")`` pairs; [t, v] lists
    are built only for the points the summary keeps."""
    t, flow, kinds, v1, v2 = columns(records)

    def picked(k: TraceKind, col: Iterable) -> Iterable:
        """col's items on the rows of kind k, in trace order."""
        if k.code not in kinds:
            return ()
        return compress(col, kinds.translate(_ONLY[k.code]))

    sent = Counter(picked(TraceKind.SEND, flow))
    delivered = Counter(picked(TraceKind.DELIVER, flow))
    dropped = Counter(picked(TraceKind.DROP, flow))
    marked = Counter(picked(TraceKind.MARK, flow))
    sent_bytes = _sums(picked(TraceKind.SEND, zip(flow, v2)), sent)
    delivered_bytes = _sums(picked(TraceKind.DELIVER, zip(flow, v2)),
                            delivered)
    per_flow = {
        str(f): {"sent_pkts": sent[f], "sent_bytes": sent_bytes.get(f, 0),
                 "delivered_pkts": delivered[f],
                 "delivered_bytes": delivered_bytes.get(f, 0),
                 "dropped_pkts": dropped[f], "marked_pkts": marked[f],
                 "throughput_bps":
                     delivered_bytes.get(f, 0) * 8.0 / cfg.duration}
        for f in sorted(sent.keys() | delivered.keys() | dropped.keys()
                        | marked.keys())}

    cwnd_series = _series(picked(TraceKind.CWND_CHANGE, zip(flow, t, v1)))
    layer_series = _series(picked(TraceKind.LAYER_CHANGE, zip(flow, t, v1)))
    rate_cbs = _series(picked(TraceKind.RATE_CALLBACK, zip(flow, t, v1)))

    layer_occupancy: Dict[str, Dict[str, Any]] = {}
    for fid in sorted(layer_series):
        ts, layers = layer_series[fid]
        occ: Dict[int, float] = {}
        for t0, layer, t1 in zip(ts, layers, chain(ts[1:], (cfg.duration,))):
            occ[int(layer)] = occ.get(int(layer), 0.0) + max(0.0, t1 - t0)
        total = sum(occ.values())
        layer_occupancy[str(fid)] = {
            "changes": max(0, len(ts) - 1),
            "fractions": {str(k): v / total for k, v in sorted(occ.items())}
            if total > 0 else {},
        }

    rate_stats: Dict[str, Dict[str, Any]] = {}
    for fid in sorted(rate_cbs):
        ts, rates = rate_cbs[fid]
        st = _stats(rates)
        st["first_t"] = ts[0]
        rate_stats[str(fid)] = st

    out: Dict[str, Any] = {
        "per_flow": per_flow,
        "cwnd_series": {str(k): _downsample(*cwnd_series[k])
                        for k in sorted(cwnd_series)},
        "layer_occupancy": layer_occupancy,
        "rate_callbacks": rate_stats,
        "transfers": [{"index": int(i), "elapsed": e, "done_at": done}
                      for done, i, e in picked(TraceKind.TRANSFER_DONE,
                                               zip(t, v1, v2))],
    }

    if cfg.scenario == "audio_cbr":
        generated = int(cfg.duration / cfg.frame_interval) + 1
        policer_drops = kinds.count(TraceKind.POLICER_DROP.code)
        # a frame's delay in the app buffer: its send time less the time
        # its seq was generated
        delays = map(sub, picked(TraceKind.SEND, t),
                     map(mul, picked(TraceKind.SEND, v1),
                         repeat(cfg.frame_interval)))
        out["audio"] = {
            "generated_frames": generated,
            "sent_frames": kinds.count(TraceKind.SEND.code),
            "policer_drops": policer_drops,
            "buf_drops": kinds.count(TraceKind.BUF_DROP.code),
            "policer_drop_fraction": policer_drops / generated,
            "max_app_buf_delay": max(delays, default=0.0),
        }
    return out


def run_stats(ctx: Dict[str, Any],
              trace_stats: Dict[str, Any]) -> Dict[str, Any]:
    """The controller's operation counts and its boundary crossings per
    MB that its flows sent. Those bytes are the CM flows' ``sent_bytes``
    in ``trace_stats`` (from summarize_trace); a CM flow without a Send
    row counts 0. Byte counts are integral, so the sum is exact."""
    cm = ctx["cm"]
    ops = cm.op_counts
    crossings = cm.boundary_crossings
    sent = {int(k): e["sent_bytes"]
            for k, e in trace_stats["per_flow"].items()}
    cm_bytes = sum(sent.get(f, 0) for f in set(ctx["cm_flows"]))
    mb = cm_bytes / 1e6
    return {
        "op_counts": {k: ops[k] for k in sorted(ops)},
        "boundary_crossings": crossings,
        "cm_sent_bytes": cm_bytes,
        "crossings_per_mb": crossings / mb if mb > 0 else 0.0,
    }
