"""Local publish/subscribe hub for event connectors.

One broker serves a whole run over a UNIX stream socket.  Clients send
REG frames to subscribe to topics and EVT frames to publish.  Every
publish is pushed, synchronously with receipt, to each other connection
currently registered for that topic, so per-announcer order falls out of
the per-connection reader thread.  An announcer never hears its own
events back.
"""

from __future__ import annotations

import queue
import socket
import threading

from .diagnostics import ArchonError, fail
from .frames import EVT, REG, Frame, read_frame, write_frame
from .server import SocketClient, SocketServer


class _Conn:
    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.topics: set[str] = set()
        self.write_lock = threading.Lock()

    def send(self, frame: Frame) -> None:
        with self.write_lock:
            write_frame(self.sock, frame)


class EventBroker(SocketServer):
    def __init__(self, endpoint: str) -> None:
        super().__init__("broker endpoint", endpoint)
        self.endpoint = endpoint
        self._conns: set[_Conn] = set()

    def registered(self, topic: str) -> int:
        """How many live connections are subscribed; lets callers sync up."""
        with self._lock:
            return sum(1 for c in self._conns if topic in c.topics)

    def _serve(self, sock: socket.socket) -> None:
        conn = _Conn(sock)
        with self._lock:
            self._conns.add(conn)
        try:
            while (frame := read_frame(sock)) is not None:
                if frame.kind == REG:
                    with self._lock:
                        conn.topics.add(frame.topic)
                elif frame.kind == EVT:
                    with self._lock:
                        targets = [
                            c for c in self._conns if c is not conn and frame.topic in c.topics
                        ]
                    for target in targets:
                        try:
                            target.send(frame)
                        except OSError:
                            self._count_error()
        finally:
            with self._lock:
                self._conns.discard(conn)


class BrokerClient(SocketClient):
    """Test and component-side client: subscribe, publish, drain events."""

    def __init__(self, endpoint: str) -> None:
        # events, then the error that stopped the reader: a bad frame, or
        # BrokerUnavailable when the broker went away
        self._events: queue.Queue[tuple[str, bytes] | ArchonError] = queue.Queue()
        super().__init__(endpoint, "BrokerUnavailable", "broker")

    def subscribe(self, topic: str) -> None:
        self._send(Frame(REG, topic=topic))

    def publish(self, topic: str, payload: bytes) -> None:
        self._send(Frame(EVT, payload, topic=topic))

    def next_event(self, timeout: float | None = None) -> tuple[str, bytes] | None:
        try:
            item = self._events.get(timeout=timeout)
        except queue.Empty:
            return None
        if isinstance(item, ArchonError):
            self._events.put(item)  # every later call raises it too
            raise ArchonError(item.diagnostic)
        return item

    def _on_frame(self, frame: Frame) -> None:
        if frame.kind == EVT:
            self._events.put((frame.topic, frame.payload))

    def _on_end(self, failure: ArchonError | None) -> None:
        self._events.put(failure or fail("BrokerUnavailable", "connection closed"))
