import os
import socket
import struct
import sys
import tempfile
import threading
import time

import pytest

from archon.diagnostics import ArchonError
from archon.frames import EVT, MAX_FRAME_BYTES, REQ, RSP, Frame, encode, read_frame, write_frame
from archon.rpc import RpcClient, RpcServer


@pytest.fixture
def endpoint():
    root = tempfile.mkdtemp(prefix="archon-")
    yield os.path.join(root, "r.sock")


def test_echo_round_trip(endpoint):
    with RpcServer(endpoint):
        client = RpcClient(endpoint)
        assert client.call(b"x") == b"x"
        client.close()


def test_handler_transforms_payload(endpoint):
    with RpcServer(endpoint, handler=lambda p: p.upper()):
        client = RpcClient(endpoint)
        assert client.call(b"quiet") == b"QUIET"
        client.close()


def test_pipelined_requests_matched_by_id_not_order(endpoint):
    with RpcServer(endpoint, batch=2):
        client = RpcClient(endpoint)
        first = client.call_async(b"first")
        second = client.call_async(b"second")
        # server answers in reverse arrival order; matching must not care
        assert client.result(first) == b"first"
        assert client.result(second) == b"second"
        client.close()


def test_a_result_for_an_id_never_issued_is_a_violation_and_calls_go_on(endpoint):
    with RpcServer(endpoint):
        client = RpcClient(endpoint)
        with pytest.raises(ArchonError) as exc:
            client.result(12345, timeout=5)
        assert exc.value.code == "CorrelationViolation"
        assert client.call(b"after", timeout=5) == b"after"
        client.close()


def test_definer_unavailable(endpoint):
    with pytest.raises(ArchonError) as exc:
        RpcClient(endpoint)
    assert exc.value.code == "DefinerUnavailable"


def test_unknown_correlation_id_is_violation(endpoint):
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(endpoint)
    listener.listen()

    def rogue():
        sock, _ = listener.accept()
        read_frame(sock)  # swallow the request
        write_frame(sock, Frame(RSP, b"?", correlation=999))
        sock.close()

    thread = threading.Thread(target=rogue)
    thread.start()
    client = RpcClient(endpoint)
    corr = client.call_async(b"hello")
    with pytest.raises(ArchonError) as exc:
        client.result(corr, timeout=5)
    assert exc.value.code == "CorrelationViolation"
    thread.join()
    client.close()
    listener.close()


def test_duplicate_response_id_is_violation(endpoint):
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(endpoint)
    listener.listen()
    served = threading.Event()

    def doubler():
        sock, _ = listener.accept()
        req = read_frame(sock)
        write_frame(sock, Frame(RSP, b"one", correlation=req.correlation))
        write_frame(sock, Frame(RSP, b"two", correlation=req.correlation))
        served.set()
        sock.close()

    thread = threading.Thread(target=doubler)
    thread.start()
    client = RpcClient(endpoint)
    assert client.call(b"q") == b"one"
    served.wait(5)
    with pytest.raises(ArchonError) as exc:
        client.call(b"again")
    assert exc.value.code == "CorrelationViolation"
    thread.join()
    client.close()
    listener.close()


def test_many_pipelined_calls(endpoint):
    with RpcServer(endpoint, handler=lambda p: p[::-1], batch=5):
        client = RpcClient(endpoint)
        ids = [client.call_async(b"msg%d" % i) for i in range(10)]
        for i, corr in enumerate(ids):
            assert client.result(corr) == (b"msg%d" % i)[::-1]
        client.close()


def test_concurrent_clients(endpoint):
    with RpcServer(endpoint, handler=lambda p: b"ack:" + p):
        clients = [RpcClient(endpoint) for _ in range(4)]
        for i, client in enumerate(clients):
            assert client.call(b"c%d" % i) == b"ack:c%d" % i
        for client in clients:
            client.close()


def test_oversized_frame_is_counted_and_server_keeps_serving(endpoint):
    with RpcServer(endpoint) as server:
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(endpoint)
        raw.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        assert raw.recv(1) == b""  # the server hangs up on this connection only
        raw.close()
        assert server.errors == 1
        client = RpcClient(endpoint)
        assert client.call(b"still here") == b"still here"
        client.close()
        assert server.errors == 1


def test_oversized_response_raises_frame_too_large(endpoint):
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(endpoint)
    listener.listen()
    hung_up = threading.Event()

    def rogue():
        sock, _ = listener.accept()
        read_frame(sock)  # swallow the request, announce a body over the cap
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        if sock.recv(1) == b"":  # the client shuts its end
            hung_up.set()
        sock.close()

    thread = threading.Thread(target=rogue)
    thread.start()
    client = RpcClient(endpoint)
    with pytest.raises(ArchonError) as exc:
        client.call(b"hello", timeout=5)
    assert exc.value.code == "FrameTooLarge"
    with pytest.raises(ArchonError) as exc:
        client.call(b"again", timeout=5)
    assert exc.value.code == "FrameTooLarge"
    thread.join(5)
    assert hung_up.is_set()
    client.close()
    listener.close()


def test_dead_definer_is_reported_as_definer_unavailable(endpoint):
    server = RpcServer(endpoint, batch=2).start()
    client = RpcClient(endpoint)
    held = client.call_async(b"held")  # the server waits for a second request
    server.stop()
    with pytest.raises(ArchonError) as exc:
        client.result(held, timeout=2)
    assert exc.value.code == "DefinerUnavailable"
    for _ in range(2):
        with pytest.raises(ArchonError) as exc:
            client.call(b"late", timeout=2)
        assert exc.value.code == "DefinerUnavailable"
    client.close()


def test_wrong_kind_frame_is_counted_and_the_connection_served_on(endpoint):
    with RpcServer(endpoint) as server:
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(endpoint)
        for frame in (Frame(EVT, b"stray", topic="t"), Frame(RSP, b"", correlation=1)):
            write_frame(raw, frame)
        write_frame(raw, Frame(REQ, b"still here", correlation=7))
        assert read_frame(raw) == Frame(RSP, b"still here", correlation=7)
        assert server.errors == 2
        raw.close()


class _CountedReads:
    """A server connection that counts the reads made on it."""

    def __init__(self, sock, server) -> None:
        self._sock = sock
        self._server = server

    def recv(self, n):
        self._server.reads += 1
        return self._sock.recv(n)

    def recv_into(self, buffer, nbytes=0):
        self._server.reads += 1
        return self._sock.recv_into(buffer, nbytes)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _ReadCountingServer(RpcServer):
    reads = 0

    def _serve(self, sock):
        super()._serve(_CountedReads(sock, self))


def test_pipelined_requests_cost_at_most_one_read_each(endpoint):
    calls, window = 1000, 32
    server = _ReadCountingServer(endpoint).start()
    try:
        client = RpcClient(endpoint)
        pending = []
        for i in range(calls):
            pending.append((client.call_async(b"%d" % i), b"%d" % i))
            if len(pending) == window:
                corr, payload = pending.pop(0)
                assert client.result(corr) == payload
        for corr, payload in pending:
            assert client.result(corr) == payload
        client.close()
    finally:
        server.stop()  # the connection's last read is its EOF
    assert server.reads <= calls + 1


def test_one_client_shared_by_many_threads_matches_every_answer(endpoint):
    workers, calls = 6, 200
    mismatched = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with RpcServer(endpoint, batch=3):
            client = RpcClient(endpoint)

            def caller(w):
                wants = [b"%d:%d" % (w, i) for i in range(calls)]
                ids = [client.call_async(want) for want in wants]
                mismatched.extend(want for corr, want in zip(ids, wants) if client.result(corr) != want)

            threads = [threading.Thread(target=caller, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
            client.close()
    finally:
        sys.setswitchinterval(interval)
    assert mismatched == []


def _scripted_definer(endpoint, script):
    """Runs ``script(sock)`` on the first connection to ``endpoint``, in a thread."""
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(endpoint)
    listener.listen()

    def serve():
        sock, _ = listener.accept()
        try:
            script(sock)
            sock.recv(1)  # until the client closes its end
        finally:
            sock.close()
            listener.close()

    thread = threading.Thread(target=serve, daemon=True)  # a failed test leaves it waiting
    thread.start()
    return thread


def test_a_client_starts_no_thread(endpoint, monkeypatch):
    caller = threading.current_thread()
    started = []
    real_start = threading.Thread.start

    def start(thread):
        if threading.current_thread() is caller:  # not the server's own threads
            started.append(thread)
        real_start(thread)

    with RpcServer(endpoint):
        monkeypatch.setattr(threading.Thread, "start", start)
        client = RpcClient(endpoint)
        for i in range(100):
            assert client.call(b"%d" % i) == b"%d" % i
        client.close()
        monkeypatch.undo()
    assert started == []


def test_the_deadline_holds_mid_frame_and_the_partial_frame_is_kept(endpoint):
    rest = threading.Event()

    def stall(sock):
        req = read_frame(sock)
        wire = encode(Frame(RSP, b"late answer", correlation=req.correlation))
        half = 4 + (len(wire) - 4) // 2
        sock.sendall(wire[:half])  # the header and half of the body
        rest.wait(10)
        sock.sendall(wire[half:])

    definer = _scripted_definer(endpoint, stall)
    client = RpcClient(endpoint)
    corr = client.call_async(b"q")
    t0 = time.monotonic()
    with pytest.raises(ArchonError) as exc:
        client.result(corr, timeout=0.5)
    assert exc.value.code == "DefinerUnavailable"
    assert time.monotonic() - t0 < 1.5
    rest.set()
    assert client.result(corr, timeout=5) == b"late answer"
    client.close()
    definer.join(5)
    assert not definer.is_alive()


def test_an_answer_read_by_another_caller_is_handed_to_its_own(endpoint):
    def b_now_a_later(sock):
        a, b = read_frame(sock), read_frame(sock)
        write_frame(sock, Frame(RSP, b"b", correlation=b.correlation))
        time.sleep(2)
        write_frame(sock, Frame(RSP, b"a", correlation=a.correlation))

    definer = _scripted_definer(endpoint, b_now_a_later)
    client = RpcClient(endpoint)
    got = []
    corr_a = client.call_async(b"a")
    caller_a = threading.Thread(target=lambda: got.append(client.result(corr_a, timeout=10)))
    caller_a.start()
    time.sleep(0.2)  # A is now reading, waiting for its answer
    t0 = time.monotonic()
    assert client.call(b"b", timeout=10) == b"b"
    assert time.monotonic() - t0 < 0.5
    caller_a.join(10)
    assert not caller_a.is_alive()
    assert got == [b"a"]
    client.close()
    definer.join(5)
    assert not definer.is_alive()
