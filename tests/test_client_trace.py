"""Every client of the network traces what it puts on the wire: the
tracer is a required argument of each sender and source, and each data
packet a client hands to its link has exactly one Send row, with the
packet's flow, seq and size, at the instant it was handed over."""
import inspect

import pytest

from cmsim.apps.audio import CbrAudioSource
from cmsim.apps.layered import AlfLayeredSource, PacedLayeredSource
from cmsim.core import CongestionManager, FlowKey, Proto
from cmsim.harness.oracles import RenoSender
from cmsim.sim import EventLoop, Link, PacketKind
from cmsim.trace import TraceKind, Tracer
from cmsim.transport.feedback import AppAckReceiver, DatagramSender
from cmsim.transport.tcp import TcpReceiver, TcpSender
from cmsim.transport.udpcc import UdpCcSocket

CLIENTS = (DatagramSender, UdpCcSocket, AlfLayeredSource, PacedLayeredSource,
           CbrAudioSource, TcpSender, RenoSender)


@pytest.mark.parametrize("cls", CLIENTS, ids=lambda c: c.__name__)
def test_tracer_is_a_required_argument(cls):
    tracer = inspect.signature(cls).parameters["tracer"]
    assert tracer.default is inspect.Parameter.empty


class Recorder:
    """Wraps a link and records (t, flow, seq, size) of each data packet
    handed to it before passing the packet on."""

    def __init__(self, link, loop):
        self.link = link
        self.mtu = link.mtu
        self.loop = loop
        self.data = []

    def send(self, pkt):
        if pkt.kind is PacketKind.DATA:
            self.data.append((self.loop.now, pkt.flow, pkt.seq, pkt.size))
        return self.link.send(pkt)


def _tcp(cm, key, fwd, rev, loop, tracer):
    s = TcpSender(cm, key, fwd, loop, tracer)
    rev.sink = s.on_ack
    fwd.link.sink = TcpReceiver(loop, rev, s.flow).on_data
    s.write(10**6)
    s.start()


def _reno(cm, key, fwd, rev, loop, tracer):
    s = RenoSender(loop, 900, fwd, tracer=tracer)
    rev.sink = s.on_ack
    fwd.link.sink = TcpReceiver(loop, rev, 900).on_data
    s.start()


def _datagram(make):
    def build(cm, key, fwd, rev, loop, tracer):
        app = make(cm, key, fwd, loop, tracer)
        rev.sink = app.on_feedback
        fwd.link.sink = AppAckReceiver(loop, rev, app.flow).on_data
        app.start()
    return build


class _Greedy(UdpCcSocket):
    """A socket that keeps eight datagrams queued from start() on."""

    def start(self):
        self.on_sent = lambda seq, size: self.send(1000)
        for _ in range(8):
            self.send(1000)


BUILDERS = {
    "tcp": _tcp,
    "reno": _reno,
    "udpcc": _datagram(lambda cm, key, fwd, loop, tracer: _Greedy(
        cm, key, fwd, loop, tracer)),
    "alf": _datagram(lambda cm, key, fwd, loop, tracer: AlfLayeredSource(
        cm, key, fwd, loop, packet_size=1000, tracer=tracer)),
    "paced": _datagram(lambda cm, key, fwd, loop, tracer: PacedLayeredSource(
        cm, key, fwd, loop, packet_size=1000, tracer=tracer)),
    "audio": _datagram(lambda cm, key, fwd, loop, tracer: CbrAudioSource(
        cm, key, fwd, loop, tracer=tracer)),
}


@pytest.mark.parametrize("client", sorted(BUILDERS))
def test_each_data_packet_sent_has_one_send_row(client):
    """On a lossy link, so that the TCP senders retransmit too."""
    loop, tracer = EventLoop(), Tracer()
    cm = CongestionManager(clock=lambda: loop.now, tracer=tracer)
    fwd = Recorder(Link(loop, 1_000_000, 0.02, queue_limit=20,
                        loss_prob=0.02, seed=3), loop)
    rev = Link(loop, 10_000_000, 0.02, queue_limit=1000)
    key = FlowKey("client", 4000, "server", 80, Proto.TCP)
    BUILDERS[client](cm, key, fwd, rev, loop, tracer)
    loop.run_until(3.0)
    sends = [(r.t, r.flow, r.value1, r.value2) for r in tracer.records
             if r.kind is TraceKind.SEND]
    assert len(fwd.data) > 20
    assert sends == fwd.data
