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
t, value1 and value2 in ``array("d")`` columns of unboxed doubles, kinds
as one-byte codes in a ``bytearray``, and flow ids in a list of
references to ints the caller already holds. A row costs about 34 bytes
(four 8-byte slots and one byte, plus the columns' spare capacity) where
a TraceRecord tuple with its boxed floats cost about 150, and the columns
are five objects for the garbage collector to track instead of one per
row. Each TraceKind member carries its code as the plain attribute
``code`` (its index in ``KINDS``), set once at import, so ``emit`` reads
it without hashing the member. The members are also module-level names
(``SEND`` is ``TraceKind.SEND``), which the per-packet path imports and
passes to ``emit`` (see ``cmsim.sim`` on enum members). ``Tracer.records`` is a read-only
``Sequence[TraceRecord]`` view over the columns: indexing and iterating
build TraceRecords on demand, decoding codes through ``KINDS``.
``write_csv`` and ``summarize_trace`` read the columns themselves through
``columns``, which transposes any other TraceRecord iterable into the
same five columns.
"""
from __future__ import annotations

import csv
import enum
from array import array
from itertools import chain
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


# the kinds by code: KINDS[kind.code] is kind
KINDS: Tuple[TraceKind, ...] = tuple(TraceKind)
(GRANT, SEND, DELIVER, DROP, MARK, CWND_CHANGE, RATE_CALLBACK, LAYER_CHANGE,
 POLICER_DROP, BUF_DROP, TRANSFER_DONE) = KINDS
for _code, _kind in enumerate(KINDS):
    _kind.code = _code
del _code, _kind

# t, flow, kind code, value1, value2
Columns = Tuple[array, List[int], bytearray, array, array]


class TraceRecord(NamedTuple):
    t: float
    flow: int
    kind: TraceKind
    value1: float
    value2: float


def _records(t, flow, kind, value1, value2) -> Iterator[TraceRecord]:
    return map(TraceRecord._make,
               zip(t, flow, map(KINDS.__getitem__, kind), value1, value2))


class RecordView(Sequence[TraceRecord]):
    """A read-only view of a Tracer's columns as TraceRecords. It sees
    rows emitted after it was made; a slice is a list of TraceRecords."""
    __slots__ = ("_columns",)

    def __init__(self, columns: Columns) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[2])

    def __getitem__(self, i):  # an int gives a TraceRecord, a slice a list
        if isinstance(i, slice):
            return list(_records(*(col[i] for col in self._columns)))
        t, flow, kind, value1, value2 = (col[i] for col in self._columns)
        return TraceRecord(t, flow, KINDS[kind], value1, value2)

    def __iter__(self) -> Iterator[TraceRecord]:
        return _records(*self._columns)


class Tracer:
    """Collects trace records in emission order, as columns (see the
    module docstring). t, value1 and value2 are stored as floats."""
    __slots__ = ("_t", "_flow", "_kind", "_value1", "_value2", "records")

    def __init__(self) -> None:
        self._t = array("d")
        self._flow: List[int] = []
        # a bytearray, not an array("B"), whose append parses its argument
        # through a format string at about five times the cost
        self._kind = bytearray()
        self._value1 = array("d")
        self._value2 = array("d")
        self.records: Sequence[TraceRecord] = RecordView(
            (self._t, self._flow, self._kind, self._value1, self._value2))

    def emit(self, t: float, flow: int, kind: TraceKind,
             value1: float, value2: float) -> None:
        if type(kind) is not TraceKind:
            raise TypeError(f"trace kind {kind!r} is no TraceKind")
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
        self._kind.append(kind.code)

    def __len__(self) -> int:
        return len(self._kind)


def columns(records: Iterable[TraceRecord]) -> Columns:
    """The (t, flow, kind code, value1, value2) columns of a trace: a
    Tracer's own for its records, else the records emitted into a new
    Tracer, which stores t, value1 and value2 as floats."""
    if not isinstance(records, RecordView):
        tracer = Tracer()
        for r in records:
            tracer.emit(*r)
        records = tracer.records
    return records._columns


# rows per chunk of write_csv; no structure it builds outgrows one chunk
CSV_CHUNK = 1024
# each kind's CSV field and the comma after it, by code
_KIND_FIELDS = tuple(f"{kind.value}," for kind in KINDS)


class _Fields(dict):
    """One chunk's memo of a column: value -> its CSV field, with the
    separators a subclass's ``__missing__`` adds. ``__missing__`` is a
    bound ``str.format``, run at C level; it formats a value with no
    entry and stores nothing."""
    __slots__ = ()

    @classmethod
    def of(cls, values) -> "_Fields":
        """The field of each distinct value of a chunk's column, one
        format per value, built at C level. 0.0 and -0.0 are one key but
        print apart, so zero gets no entry; a NaN from the column equals
        no key, its own included. Either is formatted on lookup."""
        distinct = set(values)
        memo = cls(zip(distinct, map(cls.__missing__, distinct)))
        memo.pop(0.0, None)
        return memo


class _FlowFields(_Fields):
    __slots__ = ()
    __missing__ = ",{},".format


class _Value1Fields(_Fields):
    __slots__ = ()
    __missing__ = "{!r},".format


class _Value2Fields(_Fields):
    __slots__ = ()
    __missing__ = "{!r}\r\n".format


def write_csv(path: str, records: Iterable[TraceRecord]) -> None:
    """One CSV row per record, with the bytes ``csv.writer`` would write.

    repr() round-trips floats exactly and renders integral values as
    "N.0", keeping reruns byte-identical. No field ever needs quoting: a
    float repr, an int and a kind name hold no comma, quote or line break.

    The rows go out in chunks of ``CSV_CHUNK``, each taken as slices of
    the five columns and written at once. Flow ids, value1 and value2
    repeat a few values many times, so each chunk's fields for them come
    from a memo of its distinct values, one format per value
    (``_Fields.of``). Zeros and NaNs never take a memoised field and are
    formatted on their own: 0.0 and -0.0 hash and compare alike but print
    apart, and a NaN equals nothing. Flow ids are plain ints, which print
    alike when equal. t is mostly distinct and gets one repr per row. A
    flow field carries the commas on both its sides and every later field
    the separator after it, so a chunk is one C-level join of its fields,
    with no Python frame and no string per row. The memos and strings
    held at a time are one chunk's, whatever the trace's length.
    """
    ts, flows, kinds, v1s, v2s = columns(records)
    kind_field = _KIND_FIELDS.__getitem__
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,flow,kind,value1,value2\r\n")
        for i in range(0, len(kinds), CSV_CHUNK):
            j = i + CSV_CHUNK
            flow, v1, v2 = flows[i:j], v1s[i:j], v2s[i:j]
            rows = zip(map(repr, ts[i:j]),
                       map(_FlowFields.of(flow).__getitem__, flow),
                       map(kind_field, kinds[i:j]),
                       map(_Value1Fields.of(v1).__getitem__, v1),
                       map(_Value2Fields.of(v2).__getitem__, v2))
            fh.write("".join(chain.from_iterable(rows)))


def read_csv(path: str) -> List[TraceRecord]:
    """The rows of a write_csv file; ValueError on any other header."""
    out: List[TraceRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != ["t", "flow", "kind", "value1", "value2"]:
            raise ValueError(f"{path}: not a trace header: {header}")
        for row in rd:
            out.append(TraceRecord(float(row[0]), int(row[1]), TraceKind(row[2]),
                                   float(row[3]), float(row[4])))
    return out
