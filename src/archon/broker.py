"""Local publish/subscribe hub for event connectors.

One broker serves a whole run over a UNIX stream socket.  Clients send
REG frames to subscribe to topics and EVT frames to publish; any other
frame is counted in ``errors`` and the connection is served on.  The
broker keeps an index from each topic to its subscribed connections,
and counts in ``unheard`` each event that no connection but its sender
was subscribed to when it arrived.
Every publish is pushed, synchronously with receipt, to each other
connection currently registered for that topic: the broker reads a
connection in bursts, encodes each event once, and writes each target
the events of one burst with one write, in arrival order, so
per-announcer order falls out of the per-connection reader thread.  An
announcer never hears its own events back.  A client packs what it sends
with ``pack_topic`` and builds no ``Frame`` for it.
"""

from __future__ import annotations

import queue
import socket
import threading

from .diagnostics import ArchonError, fail
from .frames import EVT, REG, Frame, bursts, encode, pack_topic
from .server import SocketClient, SocketServer


class _Conn:
    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.topics: set[str] = set()
        self.write_lock = threading.Lock()


class EventBroker(SocketServer):
    def __init__(self, endpoint: str) -> None:
        super().__init__("broker endpoint", endpoint)
        self.endpoint = endpoint
        # topic -> its subscribers; a set is replaced, never changed, so a
        # publisher reads the one it gets without holding the lock
        self._topics: dict[str, frozenset[_Conn]] = {}
        self.unheard = 0  # events that reached no listener; written under the lock

    def registered(self, topic: str) -> int:
        """How many live connections are subscribed; lets callers sync up."""
        return len(self._topics.get(topic, ()))

    def _serve(self, sock: socket.socket) -> None:
        conn = _Conn(sock)
        try:
            for burst in bursts(sock):
                self._fan_out(conn, burst)
                del burst  # the next read waits holding no frame
        finally:
            with self._lock:
                for topic in conn.topics:
                    left = self._topics[topic] - {conn}
                    if left:
                        self._topics[topic] = left
                    else:
                        del self._topics[topic]

    def _fan_out(self, conn: _Conn, burst: list[Frame]) -> None:
        """Serve one burst: each target gets its events of the burst in one write."""
        out: dict[_Conn, list[bytes]] = {}
        unheard = 0
        for frame in burst:
            if frame.kind == EVT:
                targets = self._topics.get(frame.topic, ())
                if len(targets) > (conn in targets):  # a subscriber besides the sender
                    wire = encode(frame)
                    for target in targets:
                        if target is not conn:
                            out.setdefault(target, []).append(wire)
                else:
                    unheard += 1
            elif frame.kind == REG:
                self._subscribe(conn, frame.topic)
            else:
                self._count_error()
        if unheard:
            with self._lock:
                self.unheard += unheard
        for target, wires in out.items():
            try:
                with target.write_lock:
                    target.sock.sendall(b"".join(wires))
            except OSError:
                self._count_error()

    def _subscribe(self, conn: _Conn, topic: str) -> None:
        with self._lock:
            conn.topics.add(topic)
            self._topics[topic] = self._topics.get(topic, frozenset()) | {conn}


class BrokerClient(SocketClient):
    """Test and component-side client: subscribe, publish, drain events.

    Events are pushed by the broker whether or not anyone is waiting, so a
    reader thread of its own reads them into a queue as they arrive.
    """

    def __init__(self, endpoint: str) -> None:
        # events, then the error that stopped the reader: a bad frame, or
        # BrokerUnavailable when the broker went away
        self._events: queue.SimpleQueue[tuple[str, bytes] | ArchonError] = queue.SimpleQueue()
        super().__init__(endpoint, "BrokerUnavailable", "broker")
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def subscribe(self, topic: str) -> None:
        self._send(pack_topic(REG, topic, b""))

    def publish(self, topic: str, payload: bytes) -> None:
        self._send(pack_topic(EVT, topic, payload))

    def next_event(self, timeout: float | None = None) -> tuple[str, bytes] | None:
        try:
            item = self._events.get(timeout=timeout)
        except queue.Empty:
            return None
        if isinstance(item, ArchonError):
            self._events.put(item)  # every later call raises it too
            raise ArchonError(item.diagnostic)
        return item

    def _read_loop(self) -> None:
        while (burst := self._read()) is not None:
            for kind, payload, topic, _, _, _ in burst:
                if kind == EVT:
                    self._events.put((topic, payload))
        self._events.put(self._failure or fail("BrokerUnavailable", "connection closed"))

    def _settle(self) -> None:
        self._reader.join(timeout=2)
