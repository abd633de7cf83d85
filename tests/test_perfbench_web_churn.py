"""web_churn input set 2002, built as the benchmark builds it: 1800 TCP
transfers to Zipf-drawn clients, one macroflow per client, opened and
closed as transfers arrive and complete. It is the workload whose
macroflows decay most, so its trace digest pins the bytes of every
change meant to keep tick's idle decay. The workload is loaded read-only
from perfbench/ with the adaptive_mix test's loader; nothing under
perfbench/ changes."""
import hashlib

import pytest

from cmsim.trace import write_csv
from test_perfbench_adaptive_mix import load

INPUT_SET = 2002
# sha256 of the set's trace as perfbench/worker.py writes it
TRACE_SHA256 = \
    "dc9016ca3c30b7555a62a2d6a1735b4b89c2eaa256a7fa2bca48d5542f65a1ee"


@pytest.fixture(scope="module")
def run():
    """(checks module, prepared run, trace records), run once."""
    with pytest.MonkeyPatch.context() as mp:
        inputs = load("inputs", mp)
        workloads = load("workloads", mp)
        checks = load("checks", mp)
        prep = workloads.setup("web_churn",
                               inputs.generate("web_churn", INPUT_SET),
                               INPUT_SET)
        records, _ = prep.run()
        yield checks, prep, records


def test_every_transfer_completes(run):
    checks, prep, records = run
    scan = checks.scan(records, prep.mtu, prep.duration, prep.ref_flows)
    assert scan["failures"] == []
    assert prep.ops_fn(scan) == (1800, 0)


def test_trace_bytes_are_unchanged(run, tmp_path):
    path = tmp_path / "trace.csv"
    write_csv(str(path), run[2])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256
