"""Request/response channels with correlation ids.

A definer listens on a UNIX stream socket and answers REQ frames with
RSP frames carrying the same 8-byte correlation id.  Callers may
pipeline; responses are matched by id, never by arrival order.  The
server reads each connection in bursts and answers all the requests a
burst completed with one write; a frame that is not a REQ is counted in
``errors`` and the connection is served on.  The server side is
scriptable for tests: a handler maps request payload to response
payload, and ``batch=n`` holds n requests, across bursts, and answers
them in reverse arrival order to exercise out-of-order matching.

Each call waits on a slot of its own: a lock taken when the call is made
and released by the reader when the answer, or the end of the
connection, arrives.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Callable, Optional

from .diagnostics import ArchonError, fail
from .frames import REQ, RSP, Frame, bursts, encode
from .server import SocketClient, SocketServer


class RpcServer(SocketServer):
    def __init__(
        self,
        endpoint: str,
        handler: Optional[Callable[[bytes], bytes]] = None,
        batch: int = 1,
    ) -> None:
        super().__init__("rpc endpoint", endpoint)
        self.endpoint = endpoint
        self.handler = handler or (lambda payload: payload)
        self.batch = max(batch, 1)

    def _serve(self, sock: socket.socket) -> None:
        held: list[Frame] = []
        for burst in bursts(sock):
            answers = []
            for frame in burst:
                if frame.kind != REQ:
                    self._count_error()
                    continue
                held.append(frame)
                if len(held) == self.batch:
                    answers += [
                        encode(Frame(RSP, self.handler(req.payload), correlation=req.correlation))
                        for req in reversed(held)
                    ]
                    held.clear()
            if answers:
                sock.sendall(b"".join(answers))
            del burst, frame, answers  # the next read waits holding no frame


_CLOSED = object()


class _Slot:
    """One call's answer: ``done`` is held until ``value`` is set."""

    __slots__ = ("done", "value")

    def __init__(self) -> None:
        self.done = threading.Lock()
        self.done.acquire()
        self.value = _CLOSED


class RpcClient(SocketClient):
    """Caller side. Accepts an endpoint path or any socket-like transport."""

    def __init__(self, endpoint) -> None:
        self._ids = itertools.count(1)
        # _pending is consumed by the reader on delivery, so a second RSP
        # with the same id shows up as unknown; _slots lives until result().
        self._pending: dict[int, _Slot] = {}
        self._slots: dict[int, _Slot] = {}
        self._lock = threading.Lock()
        super().__init__(endpoint, "DefinerUnavailable", "definer")

    def call(self, payload: bytes, timeout: float | None = 10.0) -> bytes:
        return self.result(self.call_async(payload), timeout=timeout)

    def call_async(self, payload: bytes) -> int:
        corr = next(self._ids)
        slot = _Slot()
        with self._lock:
            # checked under the lock, so a violation found after this
            # point drains the new slot too
            self._raise_failure()
            self._pending[corr] = slot
            self._slots[corr] = slot
        try:
            self._send(Frame(REQ, payload, correlation=corr))
        except ArchonError:
            with self._lock:
                self._pending.pop(corr, None)
                self._slots.pop(corr, None)
            raise
        return corr

    def result(self, corr: int, timeout: float | None = 10.0) -> bytes:
        with self._lock:
            slot = self._slots.get(corr)
        if slot is None:
            self._raise_failure()
            raise fail("CorrelationViolation", f"no outstanding request with id {corr}")
        if not slot.done.acquire(timeout=-1 if timeout is None else timeout):
            raise fail("DefinerUnavailable", f"no response for id {corr} within {timeout}s")
        with self._lock:
            self._slots.pop(corr, None)
        value = slot.value
        if value is _CLOSED:
            self._raise_failure()
            raise fail("DefinerUnavailable", "connection closed before response")
        return value

    def _on_frame(self, frame: Frame) -> None:
        if frame.kind != RSP:
            return
        with self._lock:
            slot = self._pending.pop(frame.correlation, None)
        if slot is None:
            why = f"response with unknown or already answered id {frame.correlation}"
            raise fail("CorrelationViolation", why)
        slot.value = frame.payload
        slot.done.release()

    def _on_end(self, failure: ArchonError | None) -> None:
        # only unanswered slots: a delivered response stays until result()
        with self._lock:
            slots = list(self._pending.values())
            self._pending.clear()
        for slot in slots:
            slot.done.release()  # its value is still _CLOSED
