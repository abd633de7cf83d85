"""adaptive_mix input set 2002, built as the benchmark builds it: 128
datagram senders (audio, layered and greedy) on one macroflow. Members
see a drop burst up to 0.35 s apart, and each late report once cut the
shared window again, three cuts in 0.25 s from ~88 kB to 13 kB, which
silenced 26 flows for the rest of the run. The workload is loaded
read-only from perfbench/inputs.py and perfbench/workloads.py, as
tests/test_perfbench_spans.py loads spans.py; nothing under perfbench/
changes."""
import importlib.util
import sys
from pathlib import Path

from cmsim.trace import TraceKind

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INPUT_SET = 2002


def load(name, monkeypatch):
    """perfbench/<name>.py as the module <name>, listed in sys.modules
    for the test's duration: workloads.py imports inputs by that name,
    and dataclasses look their module up there."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_no_flow_is_silent_in_the_last_second(monkeypatch):
    inputs = load("inputs", monkeypatch)
    workloads = load("workloads", monkeypatch)
    prep = workloads.setup("adaptive_mix",
                           inputs.generate("adaptive_mix", INPUT_SET),
                           INPUT_SET)
    records, _ = prep.run()
    last_send = {}
    for r in records:
        if r.kind is TraceKind.SEND:
            last_send[r.flow] = r.t
    silent = sorted(f for f, t in last_send.items()
                    if t < prep.duration - workloads.STALL_WINDOW)
    # the benchmark's own count: every flow it opened, and the silent ones
    assert prep.ops_fn({"last_send": last_send}) == (128, 0), \
        f"flows silent since: {[(f, last_send[f]) for f in silent]}"
