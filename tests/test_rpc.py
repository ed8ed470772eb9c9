import os
import socket
import struct
import tempfile
import threading

import pytest

from archon.diagnostics import ArchonError
from archon.frames import MAX_FRAME_BYTES, REQ, RSP, Frame, read_frame, write_frame
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
