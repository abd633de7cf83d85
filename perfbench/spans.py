"""Span tracing for the traced run: who spends the host time, by layer.

``install()`` wraps, for the current process only, the calls that cross
into each layer of ``cmsim`` (the layers are its modules: sim, core,
transport, apps, trace, harness):

  * ``EventLoop.schedule``: the scheduled callable is wrapped, so running
    the event becomes a span attributed to the module of its owner;
  * ``ScheduledEvent.cancel``, to count events cancelled before they ran;
  * the callbacks passed to ``register_send`` / ``register_update``,
    attributed to the module of their owner;
  * the public methods listed in ``METHODS`` and the harness and trace
    functions in ``FUNCTIONS``.

Each span records its name, start, end and parent in flat arrays kept in
memory; nothing is aggregated until ``SpanLog.analyze`` runs after the
traced run ends. Self time is a span's duration minus that of its
children, so time in a callback dispatched into a client counts for the
client, not for the core. Time that no span covers at all is reported
separately so gaps in the attribution show.

Code outside ``cmsim`` (the benchmark's own workload generators) is
attributed to the pseudo-layer ``bench``.
"""
from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("sim", "core", "transport", "apps", "trace", "harness")

# Calls of the core that count as an API boundary crossing in the paper's
# overhead count; tick() and the estimate getters do not.
CORE_API = ("open", "close", "mtu", "register_send", "register_update",
            "thresh", "request", "notify", "update", "query", "bulk_request",
            "bulk_notify", "bulk_update", "bulk_query")

# (module, class, method names) wrapped as spans of the class's layer.
METHODS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("cmsim.sim", "EventLoop", ("run_until",)),
    ("cmsim.sim", "Link", ("send",)),
    ("cmsim.sim", "Dispatcher", ("__call__",)),
    # register_send, register_update and notify get wrappers of their own
    ("cmsim.core", "CongestionManager",
     tuple(m for m in CORE_API
           if m not in ("register_send", "register_update", "notify"))
     + ("tick", "tick_period", "rtt_estimate", "rto_estimate")),
    ("cmsim.transport.tcp", "TcpSender", ("on_ack", "write", "start", "close")),
    ("cmsim.transport.tcp", "TcpReceiver", ("on_data",)),
    ("cmsim.transport.feedback", "AppAckReceiver", ("on_data",)),
    ("cmsim.transport.feedback", "FeedbackTracker", ("on_app_ack", "on_sent")),
    ("cmsim.transport.udpcc", "UdpCcSocket", ("send", "on_feedback")),
    ("cmsim.apps.audio", "CbrAudioSource", ("start", "on_feedback")),
    ("cmsim.apps.layered", "AlfLayeredSource", ("start", "on_feedback")),
    ("cmsim.apps.layered", "PacedLayeredSource", ("start", "on_feedback")),
    ("cmsim.trace", "Tracer", ("emit",)),
    ("cmsim.harness.oracles", "RenoSender", ("start", "on_ack")),
)

# (module, function name, modules whose global of that name is replaced)
FUNCTIONS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("cmsim.trace", "write_csv",
     ("cmsim.trace", "cmsim.harness.scenarios")),
    ("cmsim.harness.scenarios", "summarize_trace",
     ("cmsim.harness.scenarios", "cmsim.harness")),
    ("cmsim.harness.scenarios", "run_stats",
     ("cmsim.harness.scenarios", "cmsim.harness")),
    ("cmsim.harness.scenarios", "run_experiment",
     ("cmsim.harness.scenarios", "cmsim.harness")),
)


def layer_of(module: str) -> str:
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "cmsim" and parts[1] in LAYERS:
        return parts[1]
    return "bench"


def _owner(fn: Callable) -> Tuple[str, str]:
    """(layer, label) of a callable: a bound method belongs to its
    instance's class, anything else to the module defining it."""
    target = getattr(fn, "__func__", fn)
    inst = getattr(fn, "__self__", None)
    name = getattr(target, "__qualname__", type(target).__name__)
    if inst is not None and not isinstance(inst, type(sys)):
        cls = type(inst)
        return layer_of(cls.__module__), f"{cls.__name__}.{target.__name__}"
    return layer_of(getattr(target, "__module__", None) or ""), name


class SpanLog:
    """Spans in flat arrays: name id, parent index, start, end."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str, str]] = []   # (layer, kind, label)
        self._ids: Dict[Tuple[str, str, str], int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.scheduled_cancelled = 0
        self.grants = 0
        self.grants_useful = 0
        self._restore: List[Callable[[], None]] = []

    def name_id(self, layer: str, kind: str, label: str) -> int:
        key = (layer, kind, label)
        nid = self._ids.get(key)
        if nid is None:
            nid = len(self.names)
            self.names.append(key)
            self._ids[key] = nid
        return nid

    def __len__(self) -> int:
        return len(self.name)

    # -- recording --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries; ``uninstall`` puts the originals back."""
        import importlib

        from cmsim.core import CongestionManager
        from cmsim.sim import EventLoop, ScheduledEvent

        name_, parent_, start_, end_, stack = (
            self.name, self.parent, self.start, self.end, self.stack)

        def span(nid: int, fn: Callable, *args: Any, **kwargs: Any) -> Any:
            idx = len(name_)
            name_.append(nid)
            parent_.append(stack[-1])
            end_.append(0.0)
            stack.append(idx)
            start_.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end_[idx] = perf_counter()
                stack.pop()

        def patch(owner: Any, attr: str, new: Any) -> None:
            old = owner.__dict__[attr]
            setattr(owner, attr, new)
            self._restore.append(lambda: setattr(owner, attr, old))

        def spanned(orig: Callable, nid: int) -> Callable:
            @functools.wraps(orig)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return span(nid, orig, *args, **kwargs)
            return wrapper

        for modname, clsname, methods in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            for m in methods:
                nid = self.name_id(layer_of(modname), "call", f"{clsname}.{m}")
                patch(cls, m, spanned(cls.__dict__[m], nid))
        for modname, fname, targets in FUNCTIONS:
            nid = self.name_id(layer_of(modname), "call", fname)
            wrapper = spanned(getattr(importlib.import_module(modname), fname), nid)
            for target in targets:
                patch(importlib.import_module(target), fname, wrapper)

        # -- events ------------------------------------------------------
        owners: Dict[Any, int] = {}
        log = self

        class Event:
            """A scheduled callable run as a span of its owner's layer."""
            __slots__ = ("fn", "nid", "ran")

            def __init__(self, fn: Callable, nid: int) -> None:
                self.fn = fn
                self.nid = nid
                self.ran = False

            def __call__(self, *args: Any) -> Any:
                self.ran = True
                return span(self.nid, self.fn, *args)

        def nid_for(fn: Callable, kind: str) -> int:
            key = (getattr(fn, "__func__", fn),
                   type(getattr(fn, "__self__", None)), kind)
            nid = owners.get(key)
            if nid is None:
                layer, label = _owner(fn)
                nid = owners[key] = self.name_id(layer, kind, label)
            return nid

        schedule = EventLoop.__dict__["schedule"]
        schedule_nid = self.name_id("sim", "call", "EventLoop.schedule")

        def traced_schedule(loop: Any, at: float, fn: Callable, *args: Any) -> Any:
            ev = Event(fn, nid_for(fn, "event"))
            return span(schedule_nid, schedule, loop, at, ev, *args)
        patch(EventLoop, "schedule", functools.wraps(schedule)(traced_schedule))

        cancel = ScheduledEvent.__dict__["cancel"]

        def traced_cancel(ev: Any) -> None:
            if not ev.cancelled and isinstance(ev.fn, Event) and not ev.fn.ran:
                log.scheduled_cancelled += 1
            cancel(ev)
        patch(ScheduledEvent, "cancel", functools.wraps(cancel)(traced_cancel))

        # -- client callbacks and grant usefulness ------------------------
        carried = [False]

        def grant_cb(cb: Callable) -> Callable:
            nid = nid_for(cb, "grant_cb")

            def on_grant(fid: int) -> None:
                outer, carried[0] = carried[0], False
                try:
                    span(nid, cb, fid)
                finally:
                    log.grants += 1
                    log.grants_useful += carried[0]
                    carried[0] = outer
            return on_grant

        def rate_cb(cb: Callable) -> Callable:
            nid = nid_for(cb, "rate_cb")
            return lambda *a: span(nid, cb, *a)

        for attr, wrap_cb in (("register_send", grant_cb),
                              ("register_update", rate_cb)):
            orig = CongestionManager.__dict__[attr]
            nid = self.name_id("core", "call", f"CongestionManager.{attr}")

            def make_reg(orig: Callable = orig, nid: int = nid,
                         wrap_cb: Callable = wrap_cb) -> Callable:
                @functools.wraps(orig)
                def register(cm: Any, flow_id: int, cb: Callable) -> None:
                    return span(nid, orig, cm, flow_id, wrap_cb(cb))
                return register
            patch(CongestionManager, attr, make_reg())

        notify = CongestionManager.__dict__["notify"]
        notify_nid = self.name_id("core", "call", "CongestionManager.notify")

        def traced_notify(cm: Any, flow_id: int, nsent: int) -> None:
            if nsent > 0:
                carried[0] = True
            return span(notify_nid, notify, cm, flow_id, nsent)
        patch(CongestionManager, "notify", functools.wraps(notify)(traced_notify))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- analysis ---------------------------------------------------------

    def analyze(self, t0: float, t1: float) -> Dict[str, Any]:
        """Aggregate the spans after the run.

        Per span name: calls and total self seconds, over
        the whole process (set-up included). Per layer: self seconds of
        the spans that started inside the measured window [t0, t1], and
        the part of the window no top-level span covers.
        """
        n = len(self.name)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        window_self = [0.0] * k
        covered = 0.0
        for i in range(n):
            nid = name[i]
            dur = end[i] - start[i]
            own = dur - child[i]
            calls[nid] += 1
            self_s[nid] += own
            if start[i] >= t0:
                window_self[nid] += own
                if parent[i] < 0:
                    covered += dur
        by_name = {}
        layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for nid, (layer, kind, label) in enumerate(self.names):
            by_name[(layer, kind, label)] = (calls[nid], self_s[nid])
            layer_self[layer] += window_self[nid]
        window = t1 - t0
        return {
            "spans": n,
            "window_s": window,
            "by_name": by_name,
            "layer_self_s": layer_self,
            "uncovered_s": window - covered,
            "cancelled": self.scheduled_cancelled,
            "grants": self.grants,
            "grants_useful": self.grants_useful,
        }
