"""Trace records emitted by every layer of the stack.

A trace is an append-only list of (t, flow, kind, value1, value2) rows.
The meaning of value1/value2 depends on the kind:

    Grant         cwnd, outstanding at grant time
    Send          seq (byte offset or packet seq), bytes
    Deliver       seq, bytes
    Drop          seq, bytes
    Mark          seq, bytes
    CwndChange    cwnd, ssthresh
    RateCallback  rate (bytes/s), srtt (s)
    LayerChange   layer index, rate at the change
    PolicerDrop   frame seq, bytes
    BufDrop       frame seq, bytes
    TransferDone  transfer index, elapsed seconds

Rows are appended in nondecreasing time order; CSV serialization lives here
so a trace written by one process can be recomputed offline by another.
"""
from __future__ import annotations

import csv
import enum
from typing import Iterable, List, NamedTuple


class TraceKind(enum.Enum):
    GRANT = "Grant"
    SEND = "Send"
    DELIVER = "Deliver"
    DROP = "Drop"
    MARK = "Mark"
    CWND_CHANGE = "CwndChange"
    RATE_CALLBACK = "RateCallback"
    LAYER_CHANGE = "LayerChange"
    POLICER_DROP = "PolicerDrop"
    BUF_DROP = "BufDrop"
    TRANSFER_DONE = "TransferDone"


class TraceRecord(NamedTuple):
    t: float
    flow: int
    kind: TraceKind
    value1: float
    value2: float


class Tracer:
    """Collects trace records in emission order."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def emit(self, t: float, flow: int, kind: TraceKind,
             value1: float, value2: float) -> None:
        self.records.append(TraceRecord(t, flow, kind, float(value1), float(value2)))

    def __len__(self) -> int:
        return len(self.records)


def write_csv(path: str, records: Iterable[TraceRecord]) -> None:
    """One CSV row per record, with the bytes ``csv.writer`` would write.

    repr() round-trips floats exactly and renders integral values as
    "N.0", keeping reruns byte-identical. No field ever needs quoting: a
    float repr, an int and a kind name hold no comma, quote or line break.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,flow,kind,value1,value2\r\n")
        fh.writelines(
            f"{float(t)!r},{flow},{kind.value},{float(v1)!r},{float(v2)!r}\r\n"
            for t, flow, kind, v1, v2 in records)


def read_csv(path: str) -> List[TraceRecord]:
    out: List[TraceRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        assert header == ["t", "flow", "kind", "value1", "value2"]
        for row in rd:
            out.append(TraceRecord(float(row[0]), int(row[1]), TraceKind(row[2]),
                                   float(row[3]), float(row[4])))
    return out
