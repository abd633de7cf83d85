"""One measurement in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py MODE WORKLOAD SEED WORKDIR

MODE is one of
  setup   import cmsim and build the workload up to its first event;
  timed   setup, then run it untraced and check the outputs;
  traced  the same run with span tracing installed (see spans.py);
  probes  the core scaling probes (WORKLOAD and SEED are ignored).

``run.py`` starts one worker at a time and aggregates their results.
Exit status 3 means the program under test could not be imported.
"""
from __future__ import annotations

import gc
import heapq
import json
import os
import random
import resource
import signal
import sys
import traceback
from time import perf_counter
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import checks  # noqa: E402  (standard library only)
import inputs  # noqa: E402  (standard library only)
import spans  # noqa: E402  (imports cmsim only when installed)

YARDSTICK_PERIOD_S = 0.2   # wall seconds between two yardstick samples
YARDSTICK_EVENTS = 2000    # events in one yardstick job (~2.5 ms)


class _Pkt:
    __slots__ = ("flow", "seq", "size")

    def __init__(self, flow: int, seq: int, size: int) -> None:
        self.flow = flow
        self.seq = seq
        self.size = size


def _yardstick_job() -> int:
    """A fixed event-loop-shaped job in plain Python: heap pops and
    pushes, one small object and one dict update per event."""
    rnd = random.Random(12345).random
    heap = [(rnd(), i, i % 64) for i in range(256)]
    heapq.heapify(heap)
    bytes_by_flow: Dict[int, int] = {}
    seq = len(heap)
    for _ in range(YARDSTICK_EVENTS):
        t, _, flow = heapq.heappop(heap)
        pkt = _Pkt(flow, seq, 1500)
        bytes_by_flow[pkt.flow] = bytes_by_flow.get(pkt.flow, 0) + pkt.size
        heapq.heappush(heap, (t + rnd(), seq, flow))
        seq += 1
    return len(bytes_by_flow)


class Yardstick:
    """Samples how fast this core runs plain Python while a run is timed.

    The host's speed drifts by tens of percent over seconds. Every
    ``YARDSTICK_PERIOD_S`` of wall time a timer signal interrupts the run
    between two bytecodes and times a short fixed job that shares no
    code with cmsim; ``seconds_per_job`` is the mean over the run and
    ``spent(t0, t1)`` the time the samples started in [t0, t1) took, which
    the caller subtracts from that interval.
    The cyclic collector is off during a sample, so the run's heap does
    not show in it.
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.samples: List[Tuple[float, float]] = []   # (start, seconds)
        self._old: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t = perf_counter()
        _yardstick_job()
        self.samples.append((t, perf_counter() - t))
        if collecting:
            gc.enable()

    def __enter__(self) -> "Yardstick":
        if self.active:
            self._sample(0, None)
            self._old = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, YARDSTICK_PERIOD_S,
                             YARDSTICK_PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)

    def spent(self, t0: float, t1: float) -> float:
        return sum(d for start, d in self.samples if t0 <= start < t1)

    @property
    def seconds_per_job(self) -> float:
        return sum(d for _, d in self.samples) / len(self.samples)


def _import_program() -> None:
    """Import cmsim from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import cmsim
    except ImportError as exc:
        print(f"cannot import cmsim from {SRC}: {exc}", file=sys.stderr)
        sys.exit(3)
    if not os.path.abspath(cmsim.__file__).startswith(SRC + os.sep):
        print(f"cmsim imported from {cmsim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(3)


def _setup(workload: str, seed: int, log: Any = None) -> Tuple[Any, float]:
    """(prepared run, set-up seconds): import cmsim and build the workload."""
    data = inputs.generate(workload, seed)
    t0 = perf_counter()
    _import_program()
    import workloads
    if log is not None:
        log.install()
    prep = workloads.setup(workload, data, seed)
    return prep, perf_counter() - t0


def _run(workload: str, seed: int, workdir: str, log: Any = None) -> Dict[str, Any]:
    prep, setup_s = _setup(workload, seed, log)
    import cmsim.trace
    csv_path = os.path.join(workdir, f"trace-{os.getpid()}.csv")
    # a traced run takes no yardstick samples: they would land in some span
    with Yardstick(active=log is None) as yardstick:
        t0 = perf_counter()
        records, _summary = prep.run()
        cmsim.trace.write_csv(csv_path, records)
        t1 = perf_counter()
    host_s = t1 - t0 - yardstick.spent(t0, t1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if log is not None:
        log.uninstall()
    scan = checks.scan(records, prep.mtu, prep.duration, prep.ref_flows)
    ops, ops_failed = prep.ops_fn(scan)
    sim = scan["sim"]
    trace_sha = checks.file_sha256(csv_path)
    os.remove(csv_path)
    out = {
        "setup_s": setup_s,
        "host_s": host_s,
        "pkts_per_s": sim["delivered_pkts"] / host_s,
        "peak_rss_mb": peak_rss_mb,
        "sim": sim,
        "trace_sha256": trace_sha,
        "sim_sha256": checks.json_sha256(sim),
        "check_failures": scan["failures"],
        "ops": ops,
        "ops_failed": ops_failed,
    }
    if log is None:
        out["yardstick_s"] = yardstick.seconds_per_job
    else:
        analysis = log.analyze(t0, t1)
        out["layers"] = _layer_metrics(analysis, sim)
        ranked = sorted(analysis["by_name"].items(), key=lambda kv: -kv[1][1])
        out["top"] = [[".".join(key), calls, self_s]
                      for key, (calls, self_s) in ranked[:12]]
    return out


def _layer_metrics(a: Dict[str, Any], sim: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from the span analysis of one traced run."""
    # calls and self seconds per method label, and per "layer.kind" for
    # events and client callbacks
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for (layer, kind, label), (n, s) in a["by_name"].items():
        key = label if kind == "call" else f"{layer}.{kind}"
        calls[key] = calls.get(key, 0) + n
        self_s[key] = self_s.get(key, 0.0) + s

    def us(key: str) -> float:
        return self_s[key] / calls[key] * 1e6 if calls.get(key) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count(suffix: str) -> int:
        return sum(n for k, n in calls.items() if k.endswith(suffix))

    pkts = max(1, sim["delivered_pkts"])
    rate_cbs, grant_cbs = count(".rate_cb"), count(".grant_cb")
    api = sum(calls.get(f"CongestionManager.{m}", 0) for m in spans.CORE_API)
    m = {f"{layer}.self_frac": s / a["window_s"]
         for layer, s in a["layer_self_s"].items()}
    m.update({
        "uncovered_frac": a["uncovered_s"] / a["window_s"],
        "sim.events_per_pkt": count(".event") / pkts,
        "sim.cancelled_frac": ratio(a["cancelled"],
                                    calls.get("EventLoop.schedule", 0)),
        "sim.schedule_us": us("EventLoop.schedule"),
        "sim.link_send_us": us("Link.send"),
        "core.request_us": us("CongestionManager.request"),
        "core.notify_us": us("CongestionManager.notify"),
        "core.tick_us": us("CongestionManager.tick"),
        "core.open_us": us("CongestionManager.open"),
        "core.close_us": us("CongestionManager.close"),
        "core.update_us": us("CongestionManager.update"),
        "core.rate_cbs_per_update":
            ratio(rate_cbs, calls.get("CongestionManager.update", 0)),
        "core.grant_useful_frac": ratio(a["grants_useful"], a["grants"]),
        "core.crossings_per_pkt": (api + rate_cbs + grant_cbs) / pkts,
        "transport.tcp_on_ack_us": us("TcpSender.on_ack"),
        "transport.tcp_rx_us": us("TcpReceiver.on_data"),
        "transport.app_ack_us": us("FeedbackTracker.on_app_ack"),
        "transport.ack_rx_us": us("AppAckReceiver.on_data"),
        "transport.retx_frac": sim["retx_frac"],
        "apps.rate_cb_us": us("apps.rate_cb"),
        "apps.grant_cb_us": us("apps.grant_cb"),
        "trace.emit_us": us("Tracer.emit"),
        "trace.records_per_pkt": sim["trace_rows"] / pkts,
        "trace.write_csv_s": self_s.get("write_csv", 0.0),
        "harness.summarize_s": self_s.get("summarize_trace", 0.0),
    })
    return m


def main(argv: list) -> int:
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), argv[3]
    try:
        if mode == "setup":
            out: Dict[str, Any] = {"setup_s": _setup(workload, seed)[1]}
        elif mode == "timed":
            out = _run(workload, seed, workdir)
        elif mode == "traced":
            log = spans.SpanLog()
            out = _run(workload, seed, workdir, log)
            out["spans"] = len(log)
        elif mode == "probes":
            _import_program()
            import probes
            out = {"probes": probes.run_all()}
        else:
            print(f"unknown mode {mode!r}", file=sys.stderr)
            return 2
    except Exception:  # report the program's failure as a failed run
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
