"""Wire each workload's generated inputs into the public ``cmsim`` API.

``setup(workload, inputs, seed)`` builds a workload up to its first event
and returns a ``Prepared`` run; ``Prepared.run()`` drives it to the end
and summarizes the trace with the harness's ``summarize_trace``.
Everything here uses public classes only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Set, Tuple

from cmsim import (CongestionManager, Dispatcher, EventLoop, FlowKey, Link,
                   Path, Proto, TraceKind, TraceRecord, Tracer)
from cmsim import harness
from cmsim.apps import AlfLayeredSource, CbrAudioSource, PacedLayeredSource
from cmsim.harness import ExperimentConfig
from cmsim.transport import AppAckReceiver, TcpReceiver, TcpSender, UdpCcSocket

from inputs import ADAPTIVE_MIX, MSS, WEB_CHURN, Transfer

REV_QUEUE = 100_000       # reverse (ack) paths never tail-drop
STALL_WINDOW = 1.0        # a flow silent this long at the end has stalled


@dataclass
class Prepared:
    """A workload built up to its first event."""
    duration: float                      # simulated seconds the run covers
    mtu: int
    # runs to the end; returns the trace and the harness summary
    run: Callable[[], Tuple[List[TraceRecord], Dict[str, Any]]]
    # (ops attempted, ops failed) from the trace scan of checks.scan
    ops_fn: Callable[[Dict[str, Any]], Tuple[int, int]]
    ref_flows: Set[int] = field(default_factory=set)   # not CM-driven


def _attach_ticker(loop: EventLoop, cm: CongestionManager) -> None:
    """Drive the core's idle-decay maintenance at its suggested period."""
    def tick() -> None:
        cm.tick(loop.now)
        loop.schedule_after(cm.tick_period(), tick)

    loop.schedule_after(cm.tick_period(), tick)


def _duplex(loop: EventLoop, tracer: Tracer, params: Dict[str, object],
            seed: int, name: str) -> Tuple[Path, Path, Dispatcher, Dispatcher]:
    fwd = Link(loop, float(params["bandwidth_bps"]), float(params["delay"]),
               queue_limit=int(params["queue_limit"]), mtu=MSS, seed=seed,
               name=f"{name}-fwd", tracer=tracer)
    rev = Link(loop, float(params["ack_bandwidth_bps"]), float(params["delay"]),
               queue_limit=REV_QUEUE, mtu=MSS, seed=seed, name=f"{name}-rev")
    route_fwd, route_rev = Dispatcher(), Dispatcher()
    fwd_path, rev_path = Path([fwd], route_fwd), Path([rev], route_rev)
    return fwd_path, rev_path, route_fwd, route_rev


def _run_to_end(cfg: ExperimentConfig, loop: EventLoop, tracer: Tracer
            ) -> Callable[[], Tuple[List[TraceRecord], Dict[str, Any]]]:
    def run() -> Tuple[List[TraceRecord], Dict[str, Any]]:
        loop.run_until(cfg.duration)
        return tracer.records, harness.summarize_trace(cfg, tracer.records)
    return run


# -- workloads ------------------------------------------------------------


def setup_bulk_tcp(params: Dict[str, object]) -> Prepared:
    cfg = harness.make_config(**params)

    def run() -> Tuple[List[TraceRecord], Dict[str, Any]]:
        out = harness.run_experiment(cfg)
        prep.ref_flows = set(out.ctx["ref_flows"])
        return out.records, out.summary["trace_stats"]

    prep = Prepared(cfg.duration, cfg.mtu, run, lambda stats: (1, 0))
    return prep


def setup_web_churn(transfers: List[Transfer], seed: int) -> Prepared:
    p = WEB_CHURN
    duration = float(p["arrival_window"]) + float(p["drain"])
    loop, tracer = EventLoop(), Tracer()
    cm = CongestionManager(mtu=MSS, clock=lambda: loop.now, tracer=tracer)
    _attach_ticker(loop, cm)
    fwd, rev, route_fwd, route_rev = _duplex(loop, tracer, p, seed, "web")
    done: List[int] = []

    def arrive(i: int) -> None:
        tr = transfers[i]
        key = FlowKey("server", 80, f"client{tr.client}", 10_000 + i, Proto.TCP)

        def complete(now: float) -> None:
            tracer.emit(now, sender.flow, TraceKind.TRANSFER_DONE, i, now - tr.at)
            sender.close()
            done.append(i)

        sender = TcpSender(cm, key, fwd, loop, tracer=tracer, on_complete=complete)
        receiver = TcpReceiver(loop, rev, sender.flow)
        route_fwd.register(sender.flow, receiver.on_data)
        route_rev.register(sender.flow, sender.on_ack)
        sender.write(tr.size)
        sender.start()

    for i, tr in enumerate(transfers):
        loop.schedule(tr.at, arrive, i)
    cfg = ExperimentConfig(scenario="sharing", duration=duration, mtu=MSS)
    return Prepared(duration, MSS, _run_to_end(cfg, loop, tracer),
                    lambda stats: (len(transfers), len(transfers) - len(done)))


def _refill(sock: UdpCcSocket) -> Callable[[int, int], None]:
    """Keep a greedy socket backlogged: queue one datagram per one sent."""
    return lambda seq, size: sock.send(MSS)


def setup_adaptive_mix(starts: List[Tuple[str, float]], seed: int) -> Prepared:
    p = ADAPTIVE_MIX
    duration = float(p["duration"])
    loop, tracer = EventLoop(), Tracer()
    cm = CongestionManager(mtu=MSS, clock=lambda: loop.now, tracer=tracer)
    _attach_ticker(loop, cm)
    fwd, rev, route_fwd, route_rev = _duplex(loop, tracer, p, seed, "mix")
    backlog = int(p["greedy_backlog"])
    flows: List[int] = []

    def prime(sock: UdpCcSocket) -> None:
        for _ in range(backlog):
            sock.send(MSS)

    for i, (kind, at) in enumerate(starts):
        key = FlowKey("host", 5000 + i, "peer", 5004)
        if kind == "audio":
            app: Any = CbrAudioSource(cm, key, fwd, loop, tracer=tracer)
            loop.schedule(at, app.start)
        elif kind == "paced":
            app = PacedLayeredSource(cm, key, fwd, loop, tracer=tracer)
            loop.schedule(at, app.start)
        elif kind == "alf":
            app = AlfLayeredSource(cm, key, fwd, loop, tracer=tracer)
            loop.schedule(at, app.start)
        else:
            app = UdpCcSocket(cm, key, fwd, loop, tracer=tracer)
            app.on_sent = _refill(app)
            loop.schedule(at, prime, app)
        ackr = AppAckReceiver(loop, rev, app.flow)
        route_fwd.register(app.flow, ackr.on_data)
        route_rev.register(app.flow, app.on_feedback)
        flows.append(app.flow)

    cfg = ExperimentConfig(scenario="udpcc_basic", duration=duration, mtu=MSS)
    stall_from = duration - STALL_WINDOW

    def ops(stats: Dict[str, Any]) -> Tuple[int, int]:
        last = stats["last_send"]
        return len(flows), sum(1 for f in flows if last.get(f, -1.0) < stall_from)

    return Prepared(duration, MSS, _run_to_end(cfg, loop, tracer), ops)


def setup(workload: str, inputs: object, seed: int) -> Prepared:
    if workload == "bulk_tcp":
        return setup_bulk_tcp(inputs)  # type: ignore[arg-type]
    if workload == "web_churn":
        return setup_web_churn(inputs, seed)  # type: ignore[arg-type]
    if workload == "adaptive_mix":
        return setup_adaptive_mix(inputs, seed)  # type: ignore[arg-type]
    raise ValueError(f"unknown workload {workload!r}")
