"""Core scaling probes: microbenchmarks through the public core API.

  grant_cycle_us(m)  request -> grant -> notify -> update on one flow while
                     m - 1 other macroflows (one idle member each) exist;
  update_us(n)       one member's update() while n - 1 other members of the
                     same macroflow are registered for rate callbacks with
                     a threshold band wide enough that none fires.

Background flows are opened from inside a grant callback: API calls made
during a callback are dispatched once, when the callback returns, so
building the probe costs O(m) instead of one dispatch scan per open.
Each probe reports the median over short timed batches.
"""
from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict, List

from cmsim import CongestionManager, FeedbackReport, FlowKey, LossMode

MSS = 1500
RTT = 0.05
WIDE_BAND = (1e-3, 1e3)
SIZES = (1, 100, 1000, 10000)
BATCH_S = 0.01          # seconds one timed batch lasts, roughly
PROBE_BUDGET_S = 0.3    # seconds of timed batches per probe


def _median_us(step: Callable[[], None]) -> float:
    """Median per-call microseconds over batches that each last ~BATCH_S."""
    step()                      # warm-up call, not timed
    reps = 1
    while True:                 # size a batch to roughly BATCH_S
        t = perf_counter()
        for _ in range(reps):
            step()
        if perf_counter() - t >= BATCH_S or reps >= 1 << 16:
            break
        reps *= 2
    samples: List[float] = []
    deadline = perf_counter() + PROBE_BUDGET_S
    while len(samples) < 5 or perf_counter() < deadline:
        t = perf_counter()
        for _ in range(reps):
            step()
        samples.append((perf_counter() - t) / reps * 1e6)
    return statistics.median(samples)


def _probe_flow(cm: CongestionManager, populate: Callable[[], None]) -> int:
    """Open the probed flow and run ``populate`` inside its first grant;
    later grants send one full segment."""
    fid = cm.open(FlowKey("probe", 1, "dst-0", 9))
    state = {"first": True}

    def on_grant(flow: int) -> None:
        if state["first"]:
            state["first"] = False
            populate()
            cm.notify(flow, 0)
        else:
            cm.notify(flow, MSS)

    cm.register_send(fid, on_grant)
    cm.request(fid)
    return fid


def grant_cycle_us(m: int) -> float:
    cm = CongestionManager(mtu=MSS)

    def populate() -> None:
        for j in range(1, m):
            cm.open(FlowKey("bg", j, f"dst-{j}", 9))

    fid = _probe_flow(cm, populate)
    report = FeedbackReport(MSS, MSS, LossMode.NO_LOSS, RTT)

    def cycle() -> None:
        cm.request(fid)
        cm.update(fid, report)

    return _median_us(cycle)


def update_us(n: int) -> float:
    cm = CongestionManager(mtu=MSS)

    def ignore(flow: int, rate: float, srtt: float, loss: float) -> None:
        pass

    def populate() -> None:
        for j in range(1, n):
            g = cm.open(FlowKey("bg", j, "dst-0", 9))
            cm.register_update(g, ignore)
            cm.thresh(g, *WIDE_BAND)

    fid = _probe_flow(cm, populate)
    report = FeedbackReport(MSS, MSS, LossMode.NO_LOSS, RTT)
    # the first rate of every member fires its callback; later ones stay
    # inside the band
    cm.update(fid, report)
    return _median_us(lambda: cm.update(fid, report))


def run_all() -> Dict[str, float]:
    out: Dict[str, float] = {}
    for m in SIZES:
        out[f"core.grant_cycle_us.m{m}"] = grant_cycle_us(m)
    for n in SIZES:
        out[f"core.update_us.n{n}"] = update_us(n)
    return out
