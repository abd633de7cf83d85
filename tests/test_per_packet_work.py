"""Guard on the work each delivered packet costs, in counts rather than
wall time: API crossings (client calls plus grant and rate callbacks,
from the core's op_counts) per delivered packet of the CM flows, and
trace rows per delivered packet, and events scheduled per delivered
packet (every event goes through EventLoop.schedule, which the test
wraps to count them), and Python-level calls (frames) per delivered
packet of tcp_compare, counted by tools/count_calls.py. The counts are
deterministic, so each bound is exact: the value these scenarios read
when the guard was added, at 5 simulated seconds. A client style that
adds a crossing or a row per packet fails here, and so does a change
that adds a frame per packet; a change that adds one on purpose moves
the bound and says why in CHANGES.md."""
import importlib.util
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from cmsim.harness import make_config, run_experiment
from cmsim.sim import EventLoop
from cmsim.trace import TraceKind

DURATION = 5.0

# scenario: (crossings / CM packets delivered, rows / packets delivered)
BOUNDS = {
    "tcp_compare": (Fraction(2614, 639), Fraction(4736, 1973)),
    "sharing": (Fraction(2271, 528), Fraction(1730, 528)),
    "udpcc_basic": (Fraction(6493, 1582), Fraction(4919, 1582)),
    "audio_cbr": (Fraction(473, 109), Fraction(537, 109)),
}


@pytest.mark.parametrize("scenario", list(BOUNDS))
def test_crossings_and_trace_rows_per_delivered_packet(scenario):
    out = run_experiment(make_config(scenario, duration=DURATION))
    cm_flows = set(out.ctx["cm_flows"])
    delivered = [r.flow for r in out.records if r.kind is TraceKind.DELIVER]
    cm_delivered = sum(1 for f in delivered if f in cm_flows)
    crossings = sum(out.ctx["cm"].op_counts.values())
    max_crossings, max_rows = BOUNDS[scenario]
    assert cm_delivered > 0
    assert Fraction(crossings, cm_delivered) <= max_crossings
    assert Fraction(len(out.records), len(delivered)) <= max_rows


# scenario: events scheduled / packets delivered
EVENT_BOUNDS = {
    "tcp_compare": Fraction(4511, 1973),
    "sharing": Fraction(273, 88),
    "udpcc_basic": Fraction(3707, 1582),
    "audio_cbr": Fraction(971, 109),
}


@pytest.mark.parametrize("scenario", list(EVENT_BOUNDS))
def test_events_scheduled_per_delivered_packet(scenario, monkeypatch):
    scheduled = 0
    schedule = EventLoop.schedule

    def counting(self, at, fn, *args):
        nonlocal scheduled
        scheduled += 1
        return schedule(self, at, fn, *args)

    monkeypatch.setattr(EventLoop, "schedule", counting)
    out = run_experiment(make_config(scenario, duration=DURATION))
    delivered = sum(1 for r in out.records if r.kind is TraceKind.DELIVER)
    assert delivered > 0
    assert Fraction(scheduled, delivered) <= EVENT_BOUNDS[scenario]


TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_calls.py"
# tcp_compare: Python-level calls / packets delivered
FRAME_BOUND = Fraction(40191, 1973)


def test_python_calls_per_delivered_packet_of_tcp_compare():
    spec = importlib.util.spec_from_file_location("count_calls", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cfg = make_config("tcp_compare", duration=DURATION)
    # the first run in a process also fills the ABC subclass caches, so
    # the counted run follows one
    run_experiment(cfg)
    python, _, out = tool.count_calls(partial(run_experiment, cfg))
    delivered = sum(1 for r in out.records if r.kind is TraceKind.DELIVER)
    assert delivered > 0
    assert Fraction(sum(python.values()), delivered) <= FRAME_BOUND
