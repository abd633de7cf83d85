"""Executable acceptance checks for the whole stack.

Each check_* function runs one end-to-end verification and returns a
CheckResult carrying a pass flag plus the measured numbers, so a failure
message is diagnosable without rerunning. run_all drives them in order
and the CLI exposes them behind --check. tests/test_checks.py asserts
every check, but only the first 500 of aimd_oracle's sequences: its full
sweep takes seconds (how many depends on the host).

The checks deliberately re-derive their expectations (via the oracles in
this package or from first principles) instead of comparing against
recorded outputs, so they stay valid when scenario parameters change.
"""
from __future__ import annotations

import random
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from statistics import mean
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..apps.audio import APP_BUF_LIMIT, FRAME_INTERVAL
from ..core import CongestionManager, FeedbackReport, FlowKey, LossMode, Proto
from ..trace import TraceKind, TraceRecord
from .config import SCENARIO_NAMES, make_config
from .oracles import Update, aimd_reference
from .scenarios import (LOW_BANDWIDTH_BPS, NUM_TRANSFERS, STEP_DOWN_T,
                        STEP_UP_T, RunOutput, run_experiment, write_outputs)

_EPS = 1e-9

# Traffic-bearing record kinds; used when two runs must move identical bytes.
_TRAFFIC_KINDS = (TraceKind.SEND, TraceKind.DELIVER,
                  TraceKind.DROP, TraceKind.MARK)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.details}"


def _flow_key(port: int = 5000) -> FlowKey:
    return FlowKey("client", port, "server", 6000, Proto.UDP)


def _traffic(out: RunOutput) -> List[Tuple[float, int, str, float, float]]:
    return [(r.t, r.flow, r.kind.value, r.value1, r.value2)
            for r in out.records if r.kind in _TRAFFIC_KINDS]


# -- controller checks ----------------------------------------------------


def check_aimd_oracle(sequences: int = 10_000) -> CheckResult:
    """Random feedback sequences through a bare controller must reproduce
    the reference cwnd trace exactly, and do so inside the time budget.

    Two members share the macroflow and the clock stays at 0.0, so a
    loss report's lost_sent_at of -0.5 predates every cut, 0.0 none, and
    None opts out: each sequence mixes siblings' stale losses with the
    cutting member's own and with reports under the plain epoch rule."""
    rng = random.Random(1009)
    rnd = rng.random
    mtu = 1500
    t0 = time.perf_counter()
    checked = 0
    for i in range(sequences):
        updates: List[Update] = []
        reports: List[Tuple[int, FeedbackReport]] = []
        for _ in range(rng.randint(1, 200)):
            nsent = int(rnd() * (3 * mtu + 1))
            nrecd = int(rnd() * (nsent + 1))
            m = rnd()
            mode = (LossMode.NO_LOSS if m < 0.70 else
                    LossMode.TRANSIENT if m < 0.85 else
                    LossMode.ECN if m < 0.90 else LossMode.PERSISTENT)
            rtt = 0.01 + rnd() * 0.29 if rnd() < 0.3 else None
            member = 1 if rnd() < 0.5 else 0
            lost = None
            if m >= 0.70:
                r = rnd()
                lost = None if r < 0.4 else 0.0 if r < 0.6 else -0.5
            updates.append((nsent, nrecd, mode.value, 0.0, rtt, member, lost))
            reports.append((member,
                            FeedbackReport(nsent, nrecd, mode, rtt, lost)))
        want = aimd_reference(updates, mtu=mtu)
        cm = CongestionManager(mtu=mtu)
        fids = (cm.open(_flow_key()), cm.open(_flow_key(5001)))
        # Direct state read: a MacroflowState snapshot per update would put
        # the 10^4-sequence sweep over its runtime budget.
        mf = cm._flows[fids[0]].mf
        push = cm.update
        for step, ((member, rep), expect) in enumerate(zip(reports, want)):
            push(fids[member], rep)
            if mf.cwnd != expect:
                return CheckResult(
                    "aimd_oracle", False,
                    f"sequence {i} diverges at update {step}: "
                    f"cwnd {mf.cwnd} != oracle {expect} "
                    f"(report {updates[step]})")
        checked += len(updates)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    return CheckResult(
        "aimd_oracle", ok,
        f"{sequences} sequences / {checked} updates exact in {elapsed:.2f}s"
        + ("" if ok else " (budget 10s exceeded)"))


def check_ack_division() -> CheckResult:
    """Splitting one acked-byte total across many small reports must land
    on the same final cwnd as a single report, in both growth phases."""
    rng = random.Random(1013)
    mtu = 1500
    total = 64 * 1024

    def final_cwnd(parts: Sequence[int], ssthresh: int) -> int:
        cm = CongestionManager(mtu=mtu, initial_ssthresh=ssthresh)
        fid = cm.open(_flow_key())
        for p in parts:
            cm.notify(fid, p)
            cm.update(fid, FeedbackReport(p, p, LossMode.NO_LOSS))
        return cm.macroflow_state(fid).cwnd

    def random_partition() -> List[int]:
        parts, remaining = [], total
        while remaining:
            c = rng.randint(1, min(remaining, 4096))
            parts.append(c)
            remaining -= c
        return parts

    # initial_ssthresh == mtu starts the window in congestion avoidance;
    # a huge threshold keeps the whole total inside slow start.
    for phase, ssthresh in (("slow_start", 1 << 30),
                            ("congestion_avoidance", mtu)):
        ref = final_cwnd([total], ssthresh)
        for i in range(1000):
            parts = random_partition()
            got = final_cwnd(parts, ssthresh)
            if got != ref:
                return CheckResult(
                    "ack_division", False,
                    f"{phase} partition {i} ({len(parts)} parts): "
                    f"cwnd {got} != {ref}")
    return CheckResult(
        "ack_division", True,
        f"1000 partitions of {total} B exact in each phase")


# -- scenario checks ------------------------------------------------------


def check_tcp_compatibility() -> CheckResult:
    """Delegated-TCP throughput stays within 1.5x of the self-contained
    Reno baseline across loss rates, and falls as loss rises."""
    points = []
    for p in (0.001, 0.01, 0.04):
        cfg = make_config("tcp_compare", loss_prob=p)
        t0 = time.perf_counter()
        out = run_experiment(cfg)
        wall = time.perf_counter() - t0
        pf = out.summary["trace_stats"]["per_flow"]
        cm_thr = pf[str(out.ctx["cm_flows"][0])]["throughput_bps"]
        ref_thr = pf[str(out.ctx["ref_flows"][0])]["throughput_bps"]
        points.append((p, cm_thr, ref_thr, cm_thr / ref_thr, wall))
    ratios_ok = all(1 / 1.5 <= pt[3] <= 1.5 for pt in points)
    mono_ok = points[0][1] > points[1][1] > points[2][1]
    wall_ok = all(pt[4] < 30.0 for pt in points)
    desc = ", ".join(f"p={pt[0]}: ratio {pt[3]:.3f} ({pt[4]:.1f}s)"
                     for pt in points)
    return CheckResult(
        "tcp_compatibility", ratios_ok and mono_ok and wall_ok,
        desc + f"; monotone={mono_ok}")


def check_shared_state_reuse() -> CheckResult:
    """Later transfers to a warmed-up destination must beat the cold
    first transfer by at least 25% on mean completion time."""
    out = run_experiment(make_config("sharing"))
    transfers = sorted(out.summary["trace_stats"]["transfers"],
                       key=lambda tr: tr["index"])
    if len(transfers) != NUM_TRANSFERS:
        return CheckResult("shared_state_reuse", False,
                           f"only {len(transfers)}/{NUM_TRANSFERS} "
                           "transfers completed")
    first = transfers[0]["elapsed"]
    rest = mean(tr["elapsed"] for tr in transfers[1:])
    gain = 1.0 - rest / first
    return CheckResult(
        "shared_state_reuse", gain >= 0.25,
        f"first {first:.3f}s, mean of 2-{NUM_TRANSFERS} {rest:.3f}s, "
        f"gain {gain:.1%}")


def check_round_robin_fairness() -> CheckResult:
    """Four greedy sockets on one macroflow each move 25% +/- 2.5% of
    the delivered bytes."""
    out = run_experiment(make_config("udpcc_basic"))
    pf = out.summary["trace_stats"]["per_flow"]
    delivered = {fid: pf[str(fid)]["delivered_bytes"]
                 for fid in out.ctx["cm_flows"]}
    total = sum(delivered.values())
    shares = {fid: b / total for fid, b in delivered.items()}
    ok = all(abs(s - 0.25) <= 0.025 for s in shares.values())
    desc = ", ".join(f"{s:.2%}" for s in shares.values())
    return CheckResult("round_robin_fairness", ok, f"shares {desc}")


def check_ensemble_friendliness() -> CheckResult:
    """A macroflow of k flows takes about half a bottleneck from one
    Reno flow, nearly independent of k."""
    shares = {}
    for k in (1, 4):
        out = run_experiment(make_config("fairness_ensemble", num_flows=k))
        pf = out.summary["trace_stats"]["per_flow"]
        agg = sum(pf[str(f)]["delivered_bytes"] for f in out.ctx["cm_flows"])
        ref = sum(pf[str(f)]["delivered_bytes"] for f in out.ctx["ref_flows"])
        shares[k] = 100.0 * agg / (agg + ref)
    in_band = all(30.0 <= s <= 70.0 for s in shares.values())
    delta = abs(shares[1] - shares[4])
    return CheckResult(
        "ensemble_friendliness", in_band and delta <= 15.0,
        f"k=1 {shares[1]:.1f}%, k=4 {shares[4]:.1f}%, delta {delta:.1f}")


def _band_latency(records: Sequence[TraceRecord], step_t: float,
                  in_band: Callable[[int], bool]) -> Optional[float]:
    """Seconds after step_t until the layer trace enters the target band;
    0.0 if already there at the step, None if it never arrives."""
    changes = [(r.t, int(r.value1)) for r in records
               if r.kind is TraceKind.LAYER_CHANGE]
    at_step = None
    for t, layer in changes:
        if t > step_t + _EPS:
            break
        at_step = layer
    if at_step is not None and in_band(at_step):
        return 0.0
    for t, layer in changes:
        if t > step_t + _EPS and in_band(layer):
            return t - step_t
    return None


def _step_latencies(out: RunOutput) -> Tuple[Optional[float], Optional[float]]:
    down = _band_latency(out.records, STEP_DOWN_T, lambda l: l <= 1)
    up = _band_latency(out.records, STEP_UP_T, lambda l: l >= 2)
    return down, up


def check_layered_adaptation() -> CheckResult:
    """Both layered apps must settle into the band their step leaves
    sustainable, inside their respective reaction windows, and the
    grant-clocked app oscillates at least as much as the paced one."""
    results = {}
    for name in ("layered_alf", "layered_rate"):
        cfg = make_config(name)
        out = run_experiment(cfg)
        down, up = _step_latencies(out)
        occ = out.summary["trace_stats"]["layer_occupancy"]
        changes = occ[str(out.ctx["cm_flows"][0])]["changes"]
        results[name] = (cfg, down, up, changes)

    cfg_alf, down_a, up_a, osc_a = results["layered_alf"]
    _, down_r, up_r, osc_r = results["layered_rate"]
    # Reaction window: one feedback round trip on the slow side of the
    # step (propagation both ways plus a full queue ahead of the probe),
    # doubled. The paced app answers its rate callback within 1 s flat.
    bw_low = LOW_BANDWIDTH_BPS / 8.0
    rtt = 2 * cfg_alf.delay + (cfg_alf.queue_limit + 1) * cfg_alf.mtu / bw_low
    window = 2 * rtt

    def within(lat: Optional[float], bound: float) -> bool:
        return lat is not None and lat <= bound

    ok = (within(down_a, window) and within(up_a, window)
          and within(down_r, 1.0) and within(up_r, 1.0)
          and osc_a >= osc_r)

    def show(lat: Optional[float]) -> str:
        return "never" if lat is None else f"{lat:.2f}s"

    return CheckResult(
        "layered_adaptation", ok,
        f"alf down {show(down_a)} up {show(up_a)} (window {window:.2f}s), "
        f"rate down {show(down_r)} up {show(up_r)} (window 1.00s), "
        f"oscillations {osc_a} >= {osc_r}")


def check_delayed_feedback() -> CheckResult:
    """Batched feedback must delay the first rate callback past 1.5s and
    make the reported rate burstier than with per-packet feedback."""
    delayed = run_experiment(make_config("delayed_feedback"))
    prompt = run_experiment(make_config("delayed_feedback",
                                        max_acks=1, max_delay=0.0))

    def rate_cb(out: RunOutput) -> Dict[str, float]:
        stats = out.summary["trace_stats"]["rate_callbacks"]
        return stats[str(out.ctx["cm_flows"][0])]

    rc_d, rc_p = rate_cb(delayed), rate_cb(prompt)
    ok = rc_d["first_t"] >= 1.5 and rc_d["cov"] > rc_p["cov"]
    return CheckResult(
        "delayed_feedback", ok,
        f"first callback {rc_d['first_t']:.2f}s (>=1.5), "
        f"cov {rc_d['cov']:.3f} vs prompt {rc_p['cov']:.3f}")


def check_audio_pipeline() -> CheckResult:
    """Replay the audio trace: every frame leaving the app buffer (sent
    or dropped) must be the oldest one queued, no sent frame may sit
    longer than the buffer allows, and a half-rate link makes the
    policer shed half the frames."""
    cfg = make_config("audio_cbr")
    out = run_experiment(cfg)
    fid = out.ctx["cm_flows"][0]
    total_frames = int(cfg.duration / FRAME_INTERVAL) + 1
    policer_dropped = {int(r.value1) for r in out.records
                       if r.kind is TraceKind.POLICER_DROP and r.flow == fid}

    buffer: deque = deque()
    next_gen = 0
    max_delay = 0.0

    def admit_until(t: float) -> None:
        nonlocal next_gen
        while (next_gen < total_frames
               and next_gen * FRAME_INTERVAL <= t + _EPS):
            if next_gen not in policer_dropped:
                buffer.append(next_gen)
            next_gen += 1

    for r in out.records:
        if r.flow != fid or r.kind not in (TraceKind.SEND,
                                           TraceKind.BUF_DROP):
            continue
        admit_until(r.t)
        seq = int(r.value1)
        if not buffer or buffer[0] != seq:
            head = buffer[0] if buffer else None
            return CheckResult(
                "audio_pipeline", False,
                f"{r.kind.value} of frame {seq} at t={r.t:.3f} but buffer "
                f"head is {head}: not dropping/sending from the head")
        buffer.popleft()
        if r.kind is TraceKind.SEND:
            max_delay = max(max_delay, r.t - seq * FRAME_INTERVAL)

    delay_limit = APP_BUF_LIMIT * FRAME_INTERVAL
    frac = out.summary["trace_stats"]["audio"]["policer_drop_fraction"]
    ok = max_delay <= delay_limit + _EPS and abs(frac - 0.5) <= 0.05
    return CheckResult(
        "audio_pipeline", ok,
        f"head-drop order holds, max buffer delay {max_delay * 1000:.1f}ms "
        f"(limit {delay_limit * 1000:.0f}ms), "
        f"policer dropped {frac:.1%} (target 50% +/- 5%)")


# Shortened runs keep the two-pass determinism sweep quick; each scenario
# still exercises its full wiring.
_DETERMINISM_DURATION = {
    "tcp_compare": 6.0,
    "sharing": 10.0,
    "layered_alf": 9.0,
    "layered_rate": 9.0,
    "delayed_feedback": 6.0,
    "fairness_ensemble": 6.0,
    "udpcc_basic": 6.0,
    "audio_cbr": 8.0,
}


def check_determinism() -> CheckResult:
    """Re-running any scenario with the same config must write a
    byte-identical trace.csv (and identical summary/config files)."""
    for name in SCENARIO_NAMES:
        cfg = make_config(name, duration=_DETERMINISM_DURATION[name])
        blobs, files = [], ("trace.csv", "summary.json", "config.json")
        for _ in range(2):
            with tempfile.TemporaryDirectory() as d:
                write_outputs(run_experiment(cfg), d)
                blobs.append({fn: Path(d, fn).read_bytes() for fn in files})
        for fn in files:
            if blobs[0][fn] != blobs[1][fn]:
                return CheckResult(
                    "determinism", False,
                    f"{name}: {fn} differs between identical runs")
    return CheckResult(
        "determinism", True,
        f"all {len(SCENARIO_NAMES)} scenarios byte-identical across reruns")


def check_bulk_accounting() -> CheckResult:
    """Bulk API variants must move exactly the same traffic while
    crossing the client/controller boundary strictly less often."""
    outs = {}
    for bulk in (False, True):
        outs[bulk] = run_experiment(make_config("fairness_ensemble",
                                                bulk=bulk))
    same_traffic = _traffic(outs[False]) == _traffic(outs[True])
    per_flow = outs[False].summary["run_stats"]
    bulked = outs[True].summary["run_stats"]
    fewer = (bulked["boundary_crossings"] < per_flow["boundary_crossings"]
             and bulked["crossings_per_mb"] < per_flow["crossings_per_mb"])
    return CheckResult(
        "bulk_accounting", same_traffic and fewer,
        f"traffic identical={same_traffic}, crossings/MB "
        f"{bulked['crossings_per_mb']:.1f} < {per_flow['crossings_per_mb']:.1f}")


CHECKS: Dict[str, Callable[[], CheckResult]] = {
    "aimd_oracle": check_aimd_oracle,
    "ack_division": check_ack_division,
    "tcp_compatibility": check_tcp_compatibility,
    "shared_state_reuse": check_shared_state_reuse,
    "round_robin_fairness": check_round_robin_fairness,
    "ensemble_friendliness": check_ensemble_friendliness,
    "layered_adaptation": check_layered_adaptation,
    "delayed_feedback": check_delayed_feedback,
    "audio_pipeline": check_audio_pipeline,
    "determinism": check_determinism,
    "bulk_accounting": check_bulk_accounting,
}


def run_all(only: Optional[Sequence[str]] = None) -> List[CheckResult]:
    names = list(CHECKS) if only is None else list(only)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check(s): {', '.join(unknown)}")
    return [CHECKS[n]() for n in names]
