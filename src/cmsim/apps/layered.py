"""Layered streaming sources built on the shared congestion controller.

Both sources encode their content in cumulative layers and pick how many
layers to send from the controller's rate estimate. They differ in how
they learn that estimate:

  * AlfLayeredSource transmits on grants, queries the rate at every
    transmission opportunity, and re-picks the layer each time. It sends
    as fast as the shared window allows, so its layer choice rides the
    congestion sawtooth directly. It requests a grant only in start()
    and after each datagram it sends, so every grant finds it started.

  * PacedLayeredSource never requests grants. It sends on its own timer
    at the chosen layer's rate and re-picks the layer only when a rate
    callback fires, i.e. when the estimate leaves the THRESH band.
    Between callbacks it keeps its clock unchanged.

Both climb one layer ladder, LAYER_RATES, through pick(rate): the highest
layer that fits under SAFETY times the rate. Each source sends from
start() until the run ends. The datagrams do not carry the layer; a
LayerChange trace row records each change of it.
"""
from __future__ import annotations

from typing import Optional

from ..core import CongestionManager, FlowKey
from ..sim import EventLoop, Link
from ..trace import LAYER_CHANGE, Tracer
from ..transport.feedback import DatagramSender

# cumulative layer rates in bytes/second, lowest first
LAYER_RATES = (16384, 32768, 65536, 131072)
SAFETY = 0.9
THRESH = (0.7, 1.4)     # PacedLayeredSource's (down, up) rate-callback band


def pick(rate: float) -> int:
    """Highest index whose rate fits under rate*SAFETY; floor is 0.

    The bound is inclusive: a layer whose rate equals rate*SAFETY fits."""
    budget = rate * SAFETY
    best = 0
    for i, r in enumerate(LAYER_RATES):
        if r <= budget:
            best = i
    return best


class AlfLayeredSource(DatagramSender):
    """Grant-clocked source: one packet per grant, layer re-picked each time.
    tracer gets a Send row per packet, a LayerChange row per layer taken."""

    def __init__(self, cm: CongestionManager, key: FlowKey, data_path: Link,
                 loop: EventLoop, packet_size: Optional[int] = None, *,
                 tracer: Tracer) -> None:
        if packet_size is not None:
            packet_size = self._datagram_size(data_path, packet_size)
        super().__init__(cm, key, data_path, loop, tracer)
        cm.register_send(self.flow, self._on_grant)
        if packet_size is None:
            packet_size = self._or_close(lambda: self._datagram_size(
                data_path, cm.mtu(self.flow)))
        self.packet_size = packet_size
        self.layer = 0
        self._seq = 0

    def start(self) -> None:
        self.tracer.emit(self.loop.now, self.flow, LAYER_CHANGE,
                         self.layer, 0.0)
        self.cm.request(self.flow)

    def _on_grant(self, fid: int) -> None:
        now = self.loop.now
        q = self.cm.query(self.flow)
        layer = pick(q.rate)
        if layer != self.layer:
            self.layer = layer
            self.tracer.emit(now, self.flow, LAYER_CHANGE,
                             layer, q.rate)
        seq = self._seq
        self._seq += 1
        self._transmit(seq, self.packet_size, now)
        self.cm.request(self.flow)

    # own attribute: perfbench/spans.py METHODS wraps it via cls.__dict__
    on_feedback = DatagramSender.on_feedback


class PacedLayeredSource(DatagramSender):
    """Self-clocked source: sends at the layer rate, adapts on rate callbacks.
    tracer gets a Send row per packet, a LayerChange row per layer taken."""

    def __init__(self, cm: CongestionManager, key: FlowKey, data_path: Link,
                 loop: EventLoop, packet_size: int = 1500, *,
                 tracer: Tracer) -> None:
        self.packet_size = self._datagram_size(data_path, packet_size)
        super().__init__(cm, key, data_path, loop, tracer)
        cm.register_update(self.flow, self._on_rate)
        cm.thresh(self.flow, *THRESH)
        self.layer = 0
        self._seq = 0

    @property
    def interval(self) -> float:
        return self.packet_size / LAYER_RATES[self.layer]

    def start(self) -> None:
        self.tracer.emit(self.loop.now, self.flow, LAYER_CHANGE,
                         self.layer, 0.0)
        self._send_frame()

    def _send_frame(self) -> None:
        seq = self._seq
        self._seq += 1
        now = self.loop.now
        self._transmit(seq, self.packet_size, now)
        # new period takes effect here if the layer changed mid-interval.
        # Not a sim.Deadline: perfbench's spans would then count each
        # frame under sim's Deadline._fire instead of the apps layer.
        self.loop.schedule(now + self.interval, self._send_frame)

    def _on_rate(self, fid: int, rate: float, srtt: float,
                 loss_rate: float) -> None:
        now = self.loop.now
        layer = pick(rate)
        if layer != self.layer:
            self.layer = layer
            self.tracer.emit(now, self.flow, LAYER_CHANGE,
                             layer, rate)

    # own attribute: perfbench/spans.py METHODS wraps it via cls.__dict__
    on_feedback = DatagramSender.on_feedback
