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

Both sides send bytes packed by ``pack_correlated``, with no ``Frame``.
The client reads on the caller's thread: a caller waiting in
``result()`` reads the connection itself, one reader at a time.  The
reader files every answer of its burst under its correlation id and
wakes the other waiters, if any; one whose answer is filed returns, and
another becomes the next reader.  A caller waits for the connection to
become readable only for the time it has left, so its timeout holds even
while the peer has sent half a frame, which is kept for the next read.
"""

from __future__ import annotations

import itertools
import select
import socket
import threading
from time import monotonic
from typing import Callable, Optional

from .diagnostics import ArchonError, fail
from .frames import REQ, RSP, bursts, pack_correlated
from .server import SocketClient, SocketServer, shut


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
        held: list[tuple[int, bytes]] = []  # (correlation, payload)
        for burst in bursts(sock):
            answers = []
            for kind, payload, _, corr, _, _ in burst:
                if kind != REQ:
                    self._count_error()
                    continue
                held.append((corr, payload))
                if len(held) == self.batch:
                    for corr, payload in reversed(held):
                        answers.append(pack_correlated(RSP, corr, self.handler(payload)))
                    held.clear()
            if answers:
                sock.sendall(b"".join(answers))
            del burst, payload, answers  # the next read waits holding no frame


class RpcClient(SocketClient):
    """Caller side. Accepts an endpoint path or any socket-like transport."""

    def __init__(self, endpoint) -> None:
        super().__init__(endpoint, "DefinerUnavailable", "definer")
        self._ids = itertools.count(1)
        # an id is pending from its send until its answer is filed, and its
        # answer is kept until result() takes it; a second RSP with the same
        # id is then unknown
        self._pending: set[int] = set()
        self._answers: dict[int, bytes] = {}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)  # only to wait on
        self._waiters = 0  # callers in _cond.wait; a reader wakes them only if any
        self._reading = False  # a caller is reading, with the lock released
        self._ended = False  # EOF, a frame error, or close()
        self._poll = select.poll()
        self._poll.register(self.sock.fileno(), select.POLLIN)

    def call(self, payload: bytes, timeout: float | None = 10.0) -> bytes:
        return self.result(self.call_async(payload), timeout=timeout)

    def call_async(self, payload: bytes) -> int:
        corr = next(self._ids)
        with self._lock:
            self._raise_failure()
            self._pending.add(corr)
        try:
            self._send(pack_correlated(REQ, corr, payload))
        except ArchonError:
            with self._lock:
                self._pending.discard(corr)
            raise
        return corr

    def result(self, corr: int, timeout: float | None = 10.0) -> bytes:
        deadline = None if timeout is None else monotonic() + timeout
        left = timeout
        expired = False
        with self._lock:
            while corr not in self._answers:
                if corr not in self._pending:
                    self._raise_failure()
                    raise fail("CorrelationViolation", f"no outstanding request with id {corr}")
                if self._ended:
                    self._pending.discard(corr)
                    self._raise_failure()
                    raise fail("DefinerUnavailable", "connection closed before response")
                if expired:
                    raise fail("DefinerUnavailable", f"no response for id {corr} within {timeout}s")
                if deadline is not None:
                    left = max(deadline - monotonic(), 0)
                if self._reading:
                    self._waiters += 1
                    progressed = self._cond.wait(left)
                    self._waiters -= 1
                else:
                    progressed = self._read_burst(left)
                # with no time left, one last look at what is already there
                expired = not progressed or left == 0
            return self._answers.pop(corr)

    def close(self) -> None:
        with self._lock:
            self._ended = True  # waiting calls raise DefinerUnavailable
        super().close()

    def _read_burst(self, timeout: float | None) -> bool:
        """Read one burst if the peer sends within ``timeout`` seconds and file
        its answers; False if it sent nothing.  Called, and returns, holding
        the lock, which is released while reading.
        """
        self._reading = True
        self._lock.release()
        try:
            ready = self._poll.poll(None if timeout is None else timeout * 1000)
            # readable may mean only a relay's answer to a stream open, with
            # no reply behind it yet: the read must not wait for one
            burst = self._read(socket.MSG_DONTWAIT) if ready else []
        finally:
            self._lock.acquire()
            self._reading = False
            if self._waiters:
                self._cond.notify_all()
        if burst is None:
            self._ended = True
        for kind, payload, _, corr, _, _ in burst or ():
            if kind != RSP:
                continue
            if corr not in self._pending:
                why = f"response with unknown or already answered id {corr}"
                self._failure = fail("CorrelationViolation", why)
                self._ended = True
                shut(self.sock)  # the peer sees this end hang up
                break
            self._pending.remove(corr)
            self._answers[corr] = payload
        return bool(ready)

    def _settle(self) -> None:
        # what the peer sent before it went, read without blocking
        with self._lock:
            self._waiters += 1
            self._cond.wait_for(lambda: not self._reading, timeout=2)
            self._waiters -= 1
            while not (self._reading or self._ended) and self._read_burst(0):
                pass
