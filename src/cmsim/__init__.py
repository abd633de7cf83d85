"""cmsim: shared per-destination congestion control plus the deterministic
network simulation, transports, and adaptive applications that exercise it."""

from .core import (CongestionManager, FeedbackReport, FlowKey, LossMode,
                   MacroflowState, Proto, QueryResult)
from .sim import Dispatcher, EventLoop, Link, Packet, PacketKind, Path
from .trace import TraceKind, TraceRecord, Tracer

__version__ = "0.1.0"

__all__ = [
    "CongestionManager", "FeedbackReport", "FlowKey", "LossMode",
    "MacroflowState", "Proto", "QueryResult",
    "Dispatcher", "EventLoop", "Link", "Packet", "PacketKind", "Path",
    "TraceKind", "TraceRecord", "Tracer",
]
