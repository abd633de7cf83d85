"""Transports built on the congestion core: a reliable byte stream and a
congestion-controlled datagram socket, plus the app-level ack machinery
they share."""

from .feedback import AppAck, AppAckReceiver, FeedbackTracker
from .tcp import TcpReceiver, TcpSender
from .udpcc import UdpCcSocket

__all__ = ["AppAck", "AppAckReceiver", "FeedbackTracker", "TcpReceiver",
           "TcpSender", "UdpCcSocket"]
