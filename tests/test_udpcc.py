"""Datagram socket behavior: one grant request per queued packet, FIFO
draining, declining empty grants, batched requests, rejecting empty,
negative and oversize datagrams, and end-to-end delivery with app-level
ack feedback.
"""
import pytest

from cmsim.core import CongestionManager, FlowKey, LossMode, Proto
from cmsim.core import FeedbackReport
from cmsim.errors import SocketClosed, UnknownFlow
from cmsim.sim import DEFAULT_MTU, EventLoop, Link
from cmsim.transport.feedback import AppAck, AppAckReceiver
from cmsim.trace import TraceKind, Tracer
from cmsim.transport.udpcc import UdpCcSocket


def key(port=9000):
    return FlowKey("client", port, "server", 9, Proto.UDP)


def sends(tracer):
    """(seq, size) of each traced Send row."""
    return [(int(r.value1), int(r.value2)) for r in tracer.records
            if r.kind is TraceKind.SEND]


def wire(loop, cm, max_acks=1, on_sent=None, **sock_kwargs):
    fwd = Link(loop, 10_000_000, 0.01, queue_limit=100, name="fwd")
    rev = Link(loop, 10_000_000, 0.01, queue_limit=100, name="rev")
    sock_kwargs.setdefault("tracer", Tracer())
    sock = UdpCcSocket(cm, key(), fwd, loop, **sock_kwargs)
    sock.on_sent = on_sent
    recv = AppAckReceiver(loop, rev, sock.flow, max_acks=max_acks)
    fwd.sink = recv.on_data
    rev.sink = sock.on_feedback
    return sock, fwd, recv


def test_each_send_requests_one_grant():
    loop = EventLoop()
    cm = CongestionManager()
    sock, _, _ = wire(loop, cm)
    for _ in range(3):
        sock.send(500)
    assert cm.op_counts["request"] == 3


def test_grants_drain_queue_in_fifo_order():
    loop = EventLoop()
    cm = CongestionManager()
    sent = []
    sock, _, _ = wire(loop, cm, on_sent=lambda seq, size: sent.append(size))
    cm.notify(sock.flow, 1500)       # fill the initial window
    for size in (300, 600, 900):
        sock.send(size)
    assert sock.queue_len == 3
    assert sent == []
    cm.update(sock.flow, FeedbackReport(1500, 1500, LossMode.NO_LOSS))
    assert sent == [300, 600, 900]
    assert sock.queue_len == 0


def test_grant_with_empty_queue_is_declined():
    loop = EventLoop()
    tracer = Tracer()
    cm = CongestionManager()
    sock, _, _ = wire(loop, cm, tracer=tracer)
    before = cm.op_counts.get("notify", 0)
    sock._on_grant(sock.flow)
    assert cm.op_counts["notify"] == before + 1
    assert sends(tracer) == []


def test_deferred_requests_collect_into_batch():
    loop = EventLoop()
    cm = CongestionManager()
    batch = []
    sent = []
    sock, _, _ = wire(loop, cm, request_batch=batch,
                      on_sent=lambda seq, size: sent.append(seq))
    for _ in range(3):
        sock.send(1000)
    assert cm.op_counts.get("request", 0) == 0
    assert batch == [sock.flow] * 3
    cm.bulk_request(batch)
    assert cm.op_counts["bulk_request"] == 1
    assert cm.op_counts.get("request", 0) == 0
    assert sent == [0]               # window admits one packet for now
    assert sock.queue_len == 2


def _assert_rejected_before_queueing(size):
    loop = EventLoop()
    tracer = Tracer()
    cm = CongestionManager(tracer=tracer)
    sock, _, _ = wire(loop, cm, tracer=tracer)
    ops = dict(cm.op_counts)
    rows = len(tracer.records)
    with pytest.raises(ValueError):
        sock.send(size)
    assert sock.queue_len == 0
    # the tracker recorded no send: an ack of seq 0 finds nothing pending
    assert sock.tracker.on_app_ack(AppAck((0,), 0, 0), loop.now) is None
    assert len(tracer.records) == rows
    assert cm.op_counts == ops
    loop.run_until(1.0)
    assert sends(tracer) == []
    # the open window still admits the next valid datagram, as seq 0
    assert sock.send(500) == 0
    assert sends(tracer) == [(0, 500)]


@pytest.mark.parametrize("size", [0, -100])
def test_non_positive_size_is_rejected_before_anything_is_queued(size):
    _assert_rejected_before_queueing(size)


def test_oversize_datagram_is_rejected_before_anything_is_queued():
    # one byte past the first hop's MTU: the link would refuse it only
    # after its grant was spent and its Send row traced
    _assert_rejected_before_queueing(DEFAULT_MTU + 1)


def test_close_is_final():
    loop = EventLoop()
    cm = CongestionManager()
    sock, _, _ = wire(loop, cm)
    sock.close()
    with pytest.raises(SocketClosed):
        sock.send(100)
    with pytest.raises(UnknownFlow):
        cm.query(sock.flow)


def test_clean_link_delivers_everything_in_order():
    loop = EventLoop()
    tracer = Tracer()
    cm = CongestionManager()
    sock, fwd, recv = wire(loop, cm, tracer=tracer)
    delivered = []
    fwd.sink = (
        lambda p, t: (delivered.append((p.seq, p.size)), recv.on_data(p, t)))
    for _ in range(40):
        sock.send(1000)
    loop.run_until(10.0)
    assert sends(tracer) == [(seq, 1000) for seq in range(40)]
    assert [s for s, _ in delivered] == list(range(40))
    assert sum(sz for _, sz in delivered) == 40_000
    assert sock.queue_len == 0


def test_feedback_grows_window_and_sets_rtt():
    loop = EventLoop()
    cm = CongestionManager()
    sock, _, _ = wire(loop, cm)
    for _ in range(20):
        sock.send(1000)
    loop.run_until(10.0)
    assert cm.op_counts["update"] > 0
    assert cm.macroflow_state(sock.flow).cwnd > 1500
    srtt, _ = cm.rtt_estimate(sock.flow)
    assert srtt > 0.0
