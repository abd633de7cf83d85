"""perfbench's span tracing wraps cmsim methods and functions by name
(perfbench/spans.py, METHODS and FUNCTIONS). A wrapped method must be
defined on the named class itself, since spans.py reads it from the
class's own __dict__; moving it to a base class or renaming it breaks the
traced benchmark run. This guard reads perfbench/ and changes nothing
there."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_wrapped_methods_are_defined_on_their_classes():
    spans = load_spans()
    for modname, clsname, methods in spans.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        for m in methods:
            assert m in cls.__dict__, f"{modname}.{clsname}.{m}"


def test_wrapped_functions_exist_in_every_target_module():
    spans = load_spans()
    for modname, fname, targets in spans.FUNCTIONS:
        for target in (modname,) + targets:
            assert hasattr(importlib.import_module(target), fname), \
                f"{target}.{fname}"


def test_span_tracing_installs_and_uninstalls():
    from cmsim.core import CongestionManager
    spans = load_spans()
    before = dict(CongestionManager.__dict__)
    log = spans.SpanLog()
    try:
        log.install()
    finally:
        log.uninstall()
    assert dict(CongestionManager.__dict__) == before


def test_each_link_arrival_runs_as_an_event_span():
    # an arrival pushed past EventLoop.schedule would run outside any span
    # and drop out of sim.events_per_pkt
    from cmsim.sim import EventLoop, Link, Packet
    spans = load_spans()
    log = spans.SpanLog()
    log.install()
    try:
        loop = EventLoop()
        got = []
        link = Link(loop, bandwidth_bps=1e6, prop_delay=0.01)
        link.sink = lambda p, t: got.append(p.seq)
        for seq in range(2):
            link.send(Packet(flow=1, seq=seq, size=1000))
        loop.run_until(1.0)
    finally:
        log.uninstall()
    assert got == [0, 1]
    by_name = log.analyze(0.0, 1.0)["by_name"]
    assert by_name[("sim", "event", "Link._arrive")][0] == 2
    assert by_name[("sim", "call", "EventLoop.schedule")][0] == 2
