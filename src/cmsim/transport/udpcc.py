"""Datagram socket whose transmissions are paced by the shared controller.

Each send() queues one datagram and asks the controller for a grant;
datagrams leave in FIFO order, one per grant. Reliability is not
provided. Loss and RTT information comes back through application-level
ACK packets, which DatagramSender folds into feedback reports for the
controller. A datagram must fit the MTU of the link it is sent on; send()
rejects one that does not before it is queued, since a grant spent on a
datagram the link refuses would never be notified. Each datagram sent
gets a Send row in the socket's tracer.

Given a request_batch list, the socket does not request grants itself;
it appends its flow to that list once per datagram, so the owner can
issue one bulk request covering many sockets. An owner that sets the
on_sent attribute is called with (seq, size) after each datagram goes
out and is charged to the window.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..core import CongestionManager, FlowKey
from ..errors import SocketClosed
from ..sim import EventLoop, Link
from ..trace import Tracer
from .feedback import DatagramSender


class UdpCcSocket(DatagramSender):
    def __init__(self, cm: CongestionManager, key: FlowKey, data_path: Link,
                 loop: EventLoop, tracer: Tracer,
                 request_batch: Optional[List[int]] = None) -> None:
        super().__init__(cm, key, data_path, loop, tracer)
        self.request_batch = request_batch
        self.on_sent: Optional[Callable[[int, int], None]] = None
        cm.register_send(self.flow, self._on_grant)
        self.closed = False
        self._queue: Deque[Tuple[int, int]] = deque()
        self._next_seq = 0

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def send(self, size: int) -> int:
        """Queue one datagram of the given size; returns its sequence number."""
        if self.closed:
            raise SocketClosed()
        size = self._datagram_size(self.path, size)
        seq = self._next_seq
        self._next_seq += 1
        self._queue.append((seq, size))
        if self.request_batch is not None:
            self.request_batch.append(self.flow)
        else:
            self.cm.request(self.flow)
        return seq

    def _on_grant(self, fid: int) -> None:
        if not self._queue:
            self.cm.notify(self.flow, 0)
            return
        seq, size = self._queue.popleft()
        self._transmit(seq, size, self.loop.now)
        if self.on_sent is not None:
            self.on_sent(seq, size)

    # own attribute: perfbench/spans.py METHODS wraps it via cls.__dict__
    on_feedback = DatagramSender.on_feedback

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.cm.close(self.flow)
