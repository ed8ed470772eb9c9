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
from .server import SocketServer, dial, hang_up, shut


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


class RpcClient:
    """Caller side. Accepts an endpoint path or any socket-like transport."""

    def __init__(self, endpoint) -> None:
        if isinstance(endpoint, str):
            endpoint = dial(endpoint, "DefinerUnavailable", "definer")
        self.sock = endpoint
        self._ids = itertools.count(1)
        # _pending is consumed by the reader on delivery, so a second RSP
        # with the same id shows up as unknown; _slots lives until result().
        self._pending: dict[int, queue.Queue] = {}
        self._slots: dict[int, queue.Queue] = {}
        self._lock = threading.Lock()
        # why the reader stopped early: a correlation violation or a bad frame
        self._failure: ArchonError | None = None
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def call(self, payload: bytes, timeout: float | None = 10.0) -> bytes:
        return self.result(self.call_async(payload), timeout=timeout)

    def call_async(self, payload: bytes) -> int:
        corr = next(self._ids)
        slot: queue.Queue = queue.Queue(maxsize=1)
        with self._lock:
            # checked under the lock, so a violation found after this
            # point drains the new slot too
            self._check_failure()
            self._pending[corr] = slot
            self._slots[corr] = slot
        try:
            write_frame(self.sock, Frame(REQ, payload, correlation=corr))
        except OSError:
            # reader exits once it hits EOF or a violation; let it settle
            # so we can report the real cause rather than the broken pipe
            self._reader.join(timeout=2)
            with self._lock:
                self._pending.pop(corr, None)
                self._slots.pop(corr, None)
            self._check_failure()
            raise fail("DefinerUnavailable", "connection closed while sending request")
        return corr

    def result(self, corr: int, timeout: float | None = 10.0) -> bytes:
        with self._lock:
            slot = self._slots.get(corr)
        if slot is None:
            self._check_failure()
            raise fail("CorrelationViolation", f"no outstanding request with id {corr}")
        try:
            value = slot.get(timeout=timeout)
        except queue.Empty:
            raise fail("DefinerUnavailable", f"no response for id {corr} within {timeout}s")
        with self._lock:
            self._slots.pop(corr, None)
        if value is _CLOSED:
            self._check_failure()
            raise fail("DefinerUnavailable", "connection closed before response")
        return value

    def close(self) -> None:
        hang_up(self.sock, self._reader)

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise ArchonError(self._failure.diagnostic)

    def _read_loop(self) -> None:
        while True:
            try:
                frame = read_frame(self.sock)
            except ArchonError as exc:  # a malformed or oversized frame
                self._fail(exc)
                return
            except Exception:
                frame = None
            if frame is None:
                self._drain()
                return
            if frame.kind != RSP:
                continue
            with self._lock:
                slot = self._pending.pop(frame.correlation, None)
            if slot is None:
                why = f"response with unknown or already answered id {frame.correlation}"
                self._fail(fail("CorrelationViolation", why))
                return
            slot.put(frame.payload)

    def _fail(self, exc: ArchonError) -> None:
        self._failure = exc
        shut(self.sock)
        self._drain()

    def _drain(self) -> None:
        # only unanswered slots: a delivered response stays until result()
        with self._lock:
            slots = list(self._pending.values())
            self._pending.clear()
        for slot in slots:
            slot.put_nowait(_CLOSED)
