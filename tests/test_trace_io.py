"""Trace CSV round trip: write_csv gives exactly the bytes csv.writer
writes for the same rows, and read_csv gives the rows back."""
import csv
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
