"""adaptive_mix input set 2002, built as the benchmark builds it: 128
datagram senders (audio, layered and greedy) on one macroflow. Members
see a drop burst up to 0.35 s apart, and each late report once cut the
shared window again, three cuts in 0.25 s from ~88 kB to 13 kB, which
silenced 26 flows for the rest of the run. The workload is loaded
read-only from perfbench/inputs.py and perfbench/workloads.py, as
tests/test_perfbench_spans.py loads spans.py; nothing under perfbench/
changes. The workload also drives 96 rate-callback members, so its
trace digest pins the bytes of every change meant to keep them."""
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cmsim.trace import TraceKind, write_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INPUT_SET = 2002
# sha256 of the set's trace as perfbench/worker.py writes it
TRACE_SHA256 = \
    "9744e1eab58c46bcc472cb99905751c71d2977711d0903dbd6705db78df82875"


def load(name, monkeypatch):
    """perfbench/<name>.py as the module <name>, listed in sys.modules
    while the tests run: workloads.py imports inputs by that name,
    and dataclasses look their module up there."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def run():
    """(workloads module, prepared run, trace records), run once."""
    with pytest.MonkeyPatch.context() as mp:
        inputs = load("inputs", mp)
        workloads = load("workloads", mp)
        prep = workloads.setup("adaptive_mix",
                               inputs.generate("adaptive_mix", INPUT_SET),
                               INPUT_SET)
        records, _ = prep.run()
        yield workloads, prep, records


def test_no_flow_is_silent_in_the_last_second(run):
    workloads, prep, records = run
    last_send = {}
    for r in records:
        if r.kind is TraceKind.SEND:
            last_send[r.flow] = r.t
    silent = sorted(f for f, t in last_send.items()
                    if t < prep.duration - workloads.STALL_WINDOW)
    # the benchmark's own count: every flow it opened, and the silent ones
    assert prep.ops_fn({"last_send": last_send}) == (128, 0), \
        f"flows silent since: {[(f, last_send[f]) for f in silent]}"


def test_trace_bytes_are_unchanged(run, tmp_path):
    path = tmp_path / "trace.csv"
    write_csv(str(path), run[2])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256
