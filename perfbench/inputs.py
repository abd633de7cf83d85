"""Workload parameters and seeded input generators.

This module uses the standard library only and never imports ``cmsim``:
the program under test receives the generated inputs, not the seed, and a
worker can generate them before its set-up clock starts.

Three workloads, chosen to load different layers:

  bulk_tcp      the ``tcp_compare`` scenario at 0.1% random loss: one
                CM-driven TCP flow beside the Reno reference, ACK-clocked.
                The per-packet path dominates (event heap, link hop,
                per-ACK TCP work, trace emission); the core sees one
                macroflow with one member.
  web_churn     a Web server: open-loop Poisson transfer arrivals to
                Zipf-distributed clients, bounded-Pareto sizes, one TCP
                flow opened and closed per transfer. Loads the core's
                scans over many macroflows and flow open/close churn.
  adaptive_mix  128 adaptive datagram senders sharing one destination
                (one macroflow) with app-level ACK feedback. Loads the
                update and rate-callback path over many members, the
                apps and trace volume; no TCP at all.
"""
from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

MSS = 1500

BULK_TCP: Dict[str, object] = {
    "scenario": "tcp_compare",
    "loss_prob": 0.001,
    "duration": 60.0,
}

WEB_CHURN: Dict[str, object] = {
    "arrival_rate": 60.0,        # transfers per simulated second
    "arrival_window": 30.0,      # arrivals in [0, arrival_window)
    "drain": 30.0,               # simulated seconds after the last arrival
    "clients": 256,
    "zipf_exponent": 1.0,
    "min_size": 4 * MSS,
    "max_size": 2_000_000,
    "pareto_alpha": 1.2,
    "bandwidth_bps": 20_000_000,
    "ack_bandwidth_bps": 100_000_000,
    "delay": 0.02,
    "queue_limit": 50,
}

ADAPTIVE_MIX: Dict[str, object] = {
    "audio": 64,                 # CbrAudioSource
    "paced": 32,                 # PacedLayeredSource
    "alf": 16,                   # AlfLayeredSource
    "greedy": 16,                # UdpCcSocket, always backlogged
    "greedy_backlog": 8,         # datagrams kept queued per greedy socket
    "bandwidth_bps": 8_000_000,
    "ack_bandwidth_bps": 100_000_000,
    "delay": 0.03,
    "queue_limit": 64,
    "duration": 30.0,
    "start_jitter": 1.0,         # each flow starts at U(0, start_jitter) s
}

WORKLOADS = ("bulk_tcp", "web_churn", "adaptive_mix")

# One benchmark seed stands for this many input sets, each run once or
# more per invocation: simulated metrics are averaged over them, which
# narrows their seed-to-seed spread by about sqrt(INPUT_SETS).
INPUT_SETS = 4


def input_seeds(seed: int) -> List[int]:
    """The input-set seeds one benchmark seed expands to."""
    return [seed * 1000 + k for k in range(INPUT_SETS)]


@dataclass(frozen=True)
class Transfer:
    at: float          # scheduled arrival, simulated seconds
    client: int        # destination index in [0, clients)
    size: int          # bytes


def _bounded_pareto(u: float, lo: float, hi: float, alpha: float) -> float:
    """Inverse CDF of the Pareto(alpha) distribution truncated to [lo, hi]."""
    ratio = (lo / hi) ** alpha
    return lo / (1.0 - u * (1.0 - ratio)) ** (1.0 / alpha)


def web_churn_transfers(seed: int) -> List[Transfer]:
    """Open-loop arrivals for one web_churn run.

    The arrival count is fixed at rate * window and the arrival instants
    are i.i.d. uniform over the window, which is a Poisson process
    conditioned on its count. Sizes are a stratified sample of the
    bounded Pareto (one draw per quantile stratum, then shuffled), so
    every seed offers nearly the same bytes and only the order, timing
    and destinations change.
    """
    p = WEB_CHURN
    rng = random.Random(f"web_churn:{seed}")
    n = int(round(float(p["arrival_rate"]) * float(p["arrival_window"])))
    times = sorted(rng.uniform(0.0, float(p["arrival_window"])) for _ in range(n))
    lo, hi = float(p["min_size"]), float(p["max_size"])
    alpha = float(p["pareto_alpha"])
    sizes = [int(_bounded_pareto((i + rng.random()) / n, lo, hi, alpha))
             for i in range(n)]
    rng.shuffle(sizes)
    clients = int(p["clients"])
    cum: List[float] = []
    acc = 0.0
    for rank in range(1, clients + 1):
        acc += rank ** -float(p["zipf_exponent"])
        cum.append(acc)
    dests = [bisect.bisect_left(cum, rng.random() * acc) for _ in range(n)]
    return [Transfer(t, d, s) for t, d, s in zip(times, dests, sizes)]


def adaptive_mix_starts(seed: int) -> List[Tuple[str, float]]:
    """(kind, start time) for every flow of one adaptive_mix run, in the
    order the flows are opened."""
    p = ADAPTIVE_MIX
    rng = random.Random(f"adaptive_mix:{seed}")
    jitter = float(p["start_jitter"])
    out: List[Tuple[str, float]] = []
    for kind in ("audio", "paced", "alf", "greedy"):
        for _ in range(int(p[kind])):
            out.append((kind, rng.uniform(0.0, jitter)))
    return out


def generate(workload: str, seed: int) -> object:
    """The inputs one run of the workload receives."""
    if workload == "bulk_tcp":
        return dict(BULK_TCP, seed=seed)
    if workload == "web_churn":
        return web_churn_transfers(seed)
    if workload == "adaptive_mix":
        return adaptive_mix_starts(seed)
    raise ValueError(f"unknown workload {workload!r}")
