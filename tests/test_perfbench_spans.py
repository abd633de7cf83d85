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
