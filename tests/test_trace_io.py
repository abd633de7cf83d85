"""Trace CSV round trip: write_csv gives exactly the bytes csv.writer
writes for the same rows, and read_csv gives the rows back and refuses a
foreign header or a row without five fields."""
import csv
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmsim import trace
from cmsim.trace import TraceKind, TraceRecord, read_csv, write_csv

# floats as they reach the trace, ints passed where a float is expected,
# and the values whose repr is easiest to get wrong
number_st = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-(2 ** 53), 2 ** 53),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e22, 1e16, 0.1, 1.0]),
)
row_st = st.builds(TraceRecord, number_st, st.integers(0, 10 ** 30),
                   st.sampled_from(TraceKind), number_st, number_st)


def reference_csv(path, records):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "flow", "kind", "value1", "value2"])
        for r in records:
            w.writerow([repr(float(r.t)), r.flow, r.kind.value,
                        repr(float(r.value1)), repr(float(r.value2))])


# every kind, ints, signed zero, the smallest subnormal, 1e22 and a flow id
# past 64 bits in one example, so each appears whatever the draw
EVERY_KIND = [TraceRecord(i, 10 ** 30 + i, kind, -0.0 if i % 2 else 5e-324,
                          1e22 if i % 3 else 7)
              for i, kind in enumerate(TraceKind)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(row_st, max_size=30))
@example(EVERY_KIND)
def test_write_csv_matches_csv_writer_and_round_trips(rows):
    with tempfile.TemporaryDirectory() as d:
        got, ref = os.path.join(d, "got.csv"), os.path.join(d, "ref.csv")
        write_csv(got, rows)
        reference_csv(ref, rows)
        with open(got, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read()
        assert read_csv(got) == rows


WRONG_HEADER = "a,b,c,d,e\r\n0.0,1,Send,0.0,1500.0\r\n"


def test_read_csv_refuses_a_file_without_the_trace_header():
    with tempfile.TemporaryDirectory() as d:
        for text in (WRONG_HEADER, ""):
            path = os.path.join(d, "bad.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            with pytest.raises(ValueError):
                read_csv(path)


def test_read_csv_refuses_a_wrong_header_under_python_O():
    """The header check is no assert, which python -O strips."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(trace.__file__)))
    code = ("import sys\n"
            "from cmsim.trace import read_csv\n"
            "try:\n"
            "    read_csv(sys.argv[1])\n"
            "except ValueError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "bad.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(WRONG_HEADER)
        done = subprocess.run([sys.executable, "-O", "-c", code, path],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("row", ["0.0,1,Send,0.0", "0.0,1,Send,0.0,1.0,2.0"],
                         ids=["four-fields", "six-fields"])
def test_read_csv_refuses_a_row_without_five_fields(row):
    """A row with fewer or more than five fields is refused, naming the
    file and the line, rather than read in part."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "bad.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"t,flow,kind,value1,value2\r\n"
                     f"0.0,1,Send,0.0,1500.0\r\n{row}\r\n")
        with pytest.raises(ValueError, match=r"bad\.csv, line 3"):
            read_csv(path)


def chunk_rows():
    """About 2.5 of write_csv's chunks. Both zeros share the first chunk,
    one of them right at its end, and each value whose repr is easiest to
    get wrong (NaN, the infinities, a subnormal, 1e16, 1e22 and both
    zeros) appears in value1 and value2 of every chunk."""
    n = 2 * trace.CSV_CHUNK + trace.CSV_CHUNK // 2
    special = [float("nan"), float("inf"), -float("inf"), 5e-324, 1e16,
               1e22, 0.0, -0.0]
    kinds = list(TraceKind)
    rows = []
    for i in range(n):
        v1 = special[i % len(special)] if i % 3 == 0 else float(i % 50)
        v2 = special[(i // 5) % len(special)] if i % 5 == 0 else 1500.0
        rows.append(TraceRecord(i // 4 * 1e-3, i % 9, kinds[i % len(kinds)],
                                v1, v2))
    rows[trace.CSV_CHUNK - 1] = rows[trace.CSV_CHUNK - 1]._replace(
        value1=0.0, value2=-0.0)
    rows[trace.CSV_CHUNK] = rows[trace.CSV_CHUNK]._replace(
        value1=-0.0, value2=0.0)
    return rows


def test_write_csv_matches_csv_writer_across_chunks():
    rows = chunk_rows()
    first = rows[:trace.CSV_CHUNK]
    for col in ("value1", "value2"):
        signs = {math.copysign(1.0, getattr(r, col)) for r in first
                 if getattr(r, col) == 0.0}
        assert signs == {1.0, -1.0}
    with tempfile.TemporaryDirectory() as d:
        got, ref = os.path.join(d, "got.csv"), os.path.join(d, "ref.csv")
        write_csv(got, rows)
        reference_csv(ref, rows)
        with open(got, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read()
