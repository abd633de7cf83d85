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

A Tracer stores its rows as five columns rather than one object per row:
t, value1 and value2 in ``array("d")`` columns of unboxed doubles, flow
ids and kinds in lists of references to objects the caller already
holds. A row costs about 40 bytes (five 8-byte slots, plus the columns'
spare capacity) where a TraceRecord tuple with its boxed floats cost
about 150, and the columns are five objects for the garbage collector to
track instead of one per row. ``Tracer.records`` is a read-only
``Sequence[TraceRecord]`` view over the columns: indexing and iterating
build TraceRecords on demand. ``write_csv`` and ``summarize_trace`` read
the columns directly through ``rows``.
"""
from __future__ import annotations

import csv
import enum
from array import array
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple


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


class RecordView(Sequence[TraceRecord]):
    """A read-only view of a Tracer's columns as TraceRecords. It sees
    rows emitted after it was made; a slice is a list of TraceRecords."""
    __slots__ = ("_columns",)

    def __init__(self, columns: Tuple[array, List[int], List[TraceKind],
                                      array, array]) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[2])

    def __getitem__(self, i):  # an int gives a TraceRecord, a slice a list
        if isinstance(i, slice):
            return list(map(TraceRecord._make,
                            zip(*(col[i] for col in self._columns))))
        return TraceRecord._make(col[i] for col in self._columns)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord._make, zip(*self._columns))


class Tracer:
    """Collects trace records in emission order, as columns (see the
    module docstring). t, value1 and value2 are stored as floats."""
    __slots__ = ("_t", "_flow", "_kind", "_value1", "_value2", "records")

    def __init__(self) -> None:
        self._t = array("d")
        self._flow: List[int] = []
        self._kind: List[TraceKind] = []
        self._value1 = array("d")
        self._value2 = array("d")
        self.records: Sequence[TraceRecord] = RecordView(
            (self._t, self._flow, self._kind, self._value1, self._value2))

    def emit(self, t: float, flow: int, kind: TraceKind,
             value1: float, value2: float) -> None:
        try:
            self._t.append(t)
            self._value1.append(value1)
            self._value2.append(value2)
        except (TypeError, OverflowError):
            # a value that is no float appends no part of its row
            n = len(self._kind)
            del self._t[n:], self._value1[n:], self._value2[n:]
            raise
        self._flow.append(flow)
        self._kind.append(kind)

    def __len__(self) -> int:
        return len(self._kind)


def rows(records: Iterable[TraceRecord]
         ) -> Iterable[Tuple[float, int, TraceKind, float, float]]:
    """The (t, flow, kind, value1, value2) rows of a trace: zipped straight
    from the columns for a Tracer's records, else the records themselves."""
    if isinstance(records, RecordView):
        return zip(*records._columns)
    return records


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
            for t, flow, kind, v1, v2 in rows(records))


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
