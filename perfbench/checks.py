"""Output checks, simulated metrics and digests for one run's trace.

One pass over the trace records re-checks the controller's invariants:

  * time is nondecreasing;
  * every Grant row has outstanding + mtu <= cwnd (value2 + mtu <= value1);
  * every CwndChange row has cwnd >= mtu and ssthresh >= 2 * mtu;
  * per flow, data packets delivered <= data packets sent.

The same pass derives the simulated metrics, which are deterministic for
a given seed: a pure speed-up must leave them, and the trace digest,
unchanged. Standard library only; record kinds are compared by value.
"""
from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Iterable, List, Set


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def scan(records: Iterable[Any], mtu: int, duration: float,
         ref_flows: Set[int]) -> Dict[str, Any]:
    """Check the invariants and collect the simulated metrics.

    Completion times are transfer completion times (TransferDone rows)
    when the run has transfers, else the Send-to-Deliver time of every
    delivered data packet. Goodput and retransmissions count CM-driven
    flows only, never the reference flows in ``ref_flows``.
    """
    failures: List[str] = []
    last_t = -math.inf
    sent: Dict[int, int] = {}
    delivered: Dict[int, int] = {}
    last_send: Dict[int, float] = {}
    high_end: Dict[int, float] = {}
    send_at: Dict[tuple, float] = {}
    pkt_delays: List[float] = []
    fcts: List[float] = []
    cm_bytes = 0.0
    cm_sends = retx = 0
    delivered_pkts = rows = 0
    for r in records:
        rows += 1
        t, flow, kind = r.t, r.flow, r.kind.value
        if t < last_t and len(failures) < 20:
            failures.append(f"time goes back at row {rows}: {t} < {last_t}")
        last_t = t
        if kind == "Send":
            sent[flow] = sent.get(flow, 0) + 1
            last_send[flow] = t
            send_at[(flow, r.value1)] = t
            if flow not in ref_flows:
                cm_sends += 1
                end = r.value1 + r.value2
                if end <= high_end.get(flow, -1.0):
                    retx += 1
                else:
                    high_end[flow] = end
        elif kind == "Deliver":
            delivered[flow] = delivered.get(flow, 0) + 1
            delivered_pkts += 1
            if flow not in ref_flows:
                cm_bytes += r.value2
            at = send_at.get((flow, r.value1))
            if at is None:
                if len(failures) < 20:
                    failures.append(f"Deliver at t={t} flow {flow} seq "
                                    f"{r.value1} was never sent")
            else:
                pkt_delays.append(t - at)
        elif kind == "Grant":
            if r.value2 + mtu > r.value1 and len(failures) < 20:
                failures.append(f"Grant at t={t} flow {flow}: outstanding "
                                f"{r.value2} + mtu {mtu} > cwnd {r.value1}")
        elif kind == "CwndChange":
            if (r.value1 < mtu or r.value2 < 2 * mtu) and len(failures) < 20:
                failures.append(f"CwndChange at t={t} flow {flow}: cwnd "
                                f"{r.value1} ssthresh {r.value2}")
        elif kind == "TransferDone":
            fcts.append(r.value2)
    for flow, n in delivered.items():
        if n > sent.get(flow, 0):
            failures.append(f"flow {flow} delivered {n} > sent {sent.get(flow, 0)}")
    samples = sorted(fcts) if fcts else sorted(pkt_delays)
    sim = {
        "goodput_mbps": cm_bytes * 8.0 / duration / 1e6,
        "fct_p50_ms": percentile(samples, 0.50) * 1e3,
        "fct_p99_ms": percentile(samples, 0.99) * 1e3,
        "fct_samples": len(samples),
        "fct_kind": "transfer" if fcts else "packet",
        "delivered_pkts": delivered_pkts,
        "trace_rows": rows,
        "retx_frac": retx / cm_sends if cm_sends else 0.0,
    }
    return {"failures": failures, "sim": sim, "last_send": last_send}


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def json_sha256(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
