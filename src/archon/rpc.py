"""Request/response channels with correlation ids.

A definer listens on a UNIX stream socket and answers REQ frames with
RSP frames carrying the same 8-byte correlation id.  Callers may
pipeline; responses are matched by id, never by arrival order.  The
server side is scriptable for tests: a handler maps request payload to
response payload, and ``batch=n`` holds n requests and answers them in
reverse arrival order to exercise out-of-order matching.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
from typing import Callable, Optional

from .diagnostics import ArchonError, fail
from .frames import REQ, RSP, Frame, read_frame, write_frame
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
        while (frame := read_frame(sock)) is not None:
            if frame.kind != REQ:
                continue
            held.append(frame)
            if len(held) < self.batch:
                continue
            for req in reversed(held):
                rsp = Frame(RSP, self.handler(req.payload), correlation=req.correlation)
                write_frame(sock, rsp)
            held.clear()


_CLOSED = object()


class RpcClient(SocketClient):
    """Caller side. Accepts an endpoint path or any socket-like transport."""

    def __init__(self, endpoint) -> None:
        self._ids = itertools.count(1)
        # _pending is consumed by the reader on delivery, so a second RSP
        # with the same id shows up as unknown; _slots lives until result().
        self._pending: dict[int, queue.Queue] = {}
        self._slots: dict[int, queue.Queue] = {}
        self._lock = threading.Lock()
        super().__init__(endpoint, "DefinerUnavailable", "definer")

    def call(self, payload: bytes, timeout: float | None = 10.0) -> bytes:
        return self.result(self.call_async(payload), timeout=timeout)

    def call_async(self, payload: bytes) -> int:
        corr = next(self._ids)
        slot: queue.Queue = queue.Queue(maxsize=1)
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
        try:
            value = slot.get(timeout=timeout)
        except queue.Empty:
            raise fail("DefinerUnavailable", f"no response for id {corr} within {timeout}s")
        with self._lock:
            self._slots.pop(corr, None)
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
        slot.put(frame.payload)

    def _on_end(self, failure: ArchonError | None) -> None:
        # only unanswered slots: a delivered response stays until result()
        with self._lock:
            slots = list(self._pending.values())
            self._pending.clear()
        for slot in slots:
            slot.put_nowait(_CLOSED)
