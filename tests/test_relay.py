import os
import random
import socket
import struct
import tempfile
import threading

import pytest

from archon.diagnostics import ArchonError
from archon.frames import MAX_FRAME_BYTES, read_frame
from archon.relay import (
    Relay,
    RelayConnection,
    RelayLink,
    make_site,
    register_service,
    resolve,
)
from archon.rpc import RpcClient, RpcServer


@pytest.fixture
def roots():
    base = tempfile.mkdtemp(prefix="archon-")
    return os.path.join(base, "a"), os.path.join(base, "b")


def _echo_server(path):
    """Raw byte echo on a UNIX socket, one connection at a time."""
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen()

    def serve():
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                return
            while True:
                try:
                    chunk = sock.recv(1 << 16)
                except OSError:
                    break
                if not chunk:
                    break
                sock.sendall(chunk)
            sock.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener


def test_register_and_duplicate(roots):
    site = make_site("A", roots[0])
    site = register_service(site, "db", "db.sock")
    assert site.registry == {"db": "db.sock"}
    with pytest.raises(ArchonError) as exc:
        register_service(site, "db", "other.sock")
    assert exc.value.code == "DuplicateLogicalName"


def test_overlapping_endpoint_values_are_legal(roots):
    a = register_service(make_site("A", roots[0]), "db", "svc.sock")
    b = register_service(make_site("B", roots[1]), "cache", "svc.sock")
    assert a.registry["db"] == b.registry["cache"] == "svc.sock"
    assert a.endpoint_path("db") != b.endpoint_path("cache")


def test_endpoint_must_stay_in_namespace(roots):
    site = make_site("A", roots[0])
    for bad in ("/etc/passwd", "../escape.sock"):
        with pytest.raises(ArchonError) as exc:
            register_service(site, "svc", bad)
        assert exc.value.code == "BadEndpoint"


def test_resolve_direct_relay_notfound_ambiguous(roots):
    a = register_service(make_site("A", roots[0]), "db", "db.sock")
    a = register_service(a, "both", "x.sock")
    b = register_service(make_site("B", roots[1]), "svc", "svc.sock")
    b = register_service(b, "both", "y.sock")
    link = RelayLink(a, b)

    direct = resolve(link, "A", "db")
    assert direct.kind == "direct"
    assert direct.endpoint == os.path.join(roots[0], "db.sock")

    via = resolve(link, "A", "svc")
    assert via.kind == "via-relay"
    assert via.service == "svc"
    assert via.endpoint.startswith(roots[0])  # never the remote endpoint

    with pytest.raises(ArchonError) as exc:
        resolve(link, "A", "nope")
    assert exc.value.code == "NotFound"
    with pytest.raises(ArchonError) as exc:
        resolve(link, "A", "both")
    assert exc.value.code == "AmbiguousName"


def test_echo_round_trip_64k(roots):
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "echo", "echo.sock")
    listener = _echo_server(b.endpoint_path("echo"))
    link = RelayLink(a, b)
    with Relay(link):
        route = resolve(link, "A", "echo")
        conn = RelayConnection(route.endpoint)
        stream = conn.open_stream(route.service)
        payload = random.Random(5).randbytes(64 * 1024)
        stream.sendall(payload)
        stream.close()
        got = bytearray()
        while len(got) < len(payload):
            chunk = stream.recv(1 << 16)
            if not chunk:
                break
            got.extend(chunk)
        assert bytes(got) == payload
        conn.close()
    listener.close()


def test_interleaved_streams_stay_intact(roots):
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "echo", "echo.sock")
    listener = _echo_server(b.endpoint_path("echo"))
    link = RelayLink(a, b)
    with Relay(link):
        conn = RelayConnection(resolve(link, "A", "echo").endpoint)
        streams = [conn.open_stream("echo") for _ in range(2)]
        payloads = [bytes([i]) * 5000 for i in range(2)]
        for i in range(5):
            for stream, payload in zip(streams, payloads):
                stream.sendall(payload[i * 1000 : (i + 1) * 1000])
        for stream in streams:
            stream.close()
        for stream, payload in zip(streams, payloads):
            got = bytearray()
            while len(got) < 5000:
                chunk = stream.recv(4096)
                if not chunk:
                    break
                got.extend(chunk)
            assert bytes(got) == payload
        conn.close()
    listener.close()


def test_unknown_service_error_frame(roots):
    a, b = make_site("A", roots[0]), make_site("B", roots[1])
    link = RelayLink(a, b)
    with Relay(link):
        conn = RelayConnection(os.path.join(roots[0], "relay.sock"))
        stream = conn.open_stream("ghost")
        with pytest.raises(ArchonError) as exc:
            stream.recv(16)
        assert exc.value.code == "UnknownService"
        conn.close()


def test_rpc_transparency_across_sites(roots):
    """Caller sees identical behavior whether the definer is local or remote."""
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "svc", "svc.sock")
    link = RelayLink(a, b)
    with RpcServer(b.endpoint_path("svc"), handler=lambda p: p[::-1], batch=2):
        with Relay(link):
            route = resolve(link, "A", "svc")
            conn = RelayConnection(route.endpoint)
            client = RpcClient(conn.open_stream(route.service))
            first = client.call_async(b"abc")
            second = client.call_async(b"defg")
            assert client.result(first) == b"cba"
            assert client.result(second) == b"gfed"
            client.close()
            conn.close()


def test_remote_endpoint_never_exposed(roots):
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "svc", "secret-name.sock")
    route = resolve(RelayLink(a, b), "A", "svc")
    for value in vars(route).values():
        assert "secret-name" not in str(value)
        assert roots[1] not in str(value)


def test_oversized_frame_from_relay_fails_its_streams(roots):
    os.makedirs(roots[0])
    path = os.path.join(roots[0], "relay.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen()

    def rogue():
        sock, _ = listener.accept()
        read_frame(sock)  # the stream's open frame
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        sock.recv(1)  # until the client shuts its end
        sock.close()

    thread = threading.Thread(target=rogue)
    thread.start()
    conn = RelayConnection(path)
    stream = conn.open_stream("svc")
    with pytest.raises(ArchonError) as exc:
        stream.recv(16)
    assert exc.value.code == "FrameTooLarge"
    thread.join(5)
    assert not thread.is_alive()
    conn.close()
    listener.close()


def test_dead_relay_ends_streams_and_fails_sends(roots):
    a = make_site("A", roots[0])
    b = register_service(make_site("B", roots[1]), "echo", "echo.sock")
    listener = _echo_server(b.endpoint_path("echo"))
    link = RelayLink(a, b)
    relay = Relay(link).start()
    conn = RelayConnection(resolve(link, "A", "echo").endpoint)
    stream = conn.open_stream("echo")
    stream.sendall(b"ping")
    assert stream.recv(4) == b"ping"
    relay.stop()
    assert stream.recv(4) == b""
    with pytest.raises(ArchonError) as exc:
        stream.sendall(b"late")
    assert exc.value.code == "PeerDown"
    with pytest.raises(ArchonError) as exc:
        conn.open_stream("echo")
    assert exc.value.code == "PeerDown"
    stream.close()  # no relay left to tell; not an error
    assert not conn._streams  # neither the ended stream nor the failed open is kept
    conn.close()
    listener.close()
