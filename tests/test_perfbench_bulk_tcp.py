"""bulk_tcp input set 2002, built as the benchmark builds it but run for
20 s of its 60: the ``tcp_compare`` scenario at 0.1% random loss, one
CM-driven TCP flow beside the Reno reference. Its trace digest pins the
bytes of the per-packet path (event heap, link hop, per-ACK TCP, trace)
for every change meant to keep them, beside the pins of the other two
workloads. The workload is loaded read-only with the adaptive_mix test's
loader; nothing under perfbench/ changes."""
import hashlib

import pytest

from cmsim.trace import TraceKind, write_csv
from test_perfbench_adaptive_mix import load

INPUT_SET = 2002
DURATION = 20.0
# sha256 of the shortened run's trace as perfbench/worker.py writes it
TRACE_SHA256 = \
    "687a2f7142042a0e4bb2e46050e9a01f4b28967cf8521528bdb22b4ffd712ed5"


@pytest.fixture(scope="module")
def run():
    """(workload parameters, prepared run, trace records), run once."""
    with pytest.MonkeyPatch.context() as mp:
        inputs = load("inputs", mp)
        workloads = load("workloads", mp)
        params = dict(inputs.generate("bulk_tcp", INPUT_SET),
                      duration=DURATION)
        prep = workloads.setup("bulk_tcp", params, INPUT_SET)
        records, _ = prep.run()
        yield params, prep, records


def test_the_run_is_the_benchmark_config_shortened(run):
    params, prep, records = run
    assert params == {"scenario": "tcp_compare", "loss_prob": 0.001,
                      "duration": DURATION, "seed": INPUT_SET}
    assert prep.duration == DURATION
    # both flows move data, and the random loss drops some of it
    sends = {r.flow for r in records if r.kind is TraceKind.SEND}
    assert len(sends) == 2 and prep.ref_flows < sends
    assert any(r.kind is TraceKind.DROP for r in records)


def test_the_benchmark_scan_finds_no_failure(run):
    with pytest.MonkeyPatch.context() as mp:
        checks = load("checks", mp)
    _, prep, records = run
    scan = checks.scan(records, prep.mtu, prep.duration, prep.ref_flows)
    assert scan["failures"] == []


def test_trace_bytes_are_unchanged(run, tmp_path):
    path = tmp_path / "trace.csv"
    write_csv(str(path), run[2])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256
