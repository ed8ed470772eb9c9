import os
import socket
import struct
import tempfile
import threading
import time

import pytest

from archon.broker import BrokerClient, EventBroker
from archon.diagnostics import ArchonError
from archon.frames import EVT, MAX_FRAME_BYTES, Frame, write_frame


@pytest.fixture
def endpoint():
    # Short path: UNIX socket paths cap out around 108 bytes.
    root = tempfile.mkdtemp(prefix="archon-")
    yield os.path.join(root, "b.sock")


def _wait_registered(broker, topic, count, deadline=5.0):
    end = time.monotonic() + deadline
    while broker.registered(topic) < count:
        if time.monotonic() > end:
            raise AssertionError(f"only {broker.registered(topic)} registered for {topic}")
        time.sleep(0.005)


def test_publish_reaches_both_listeners_in_order(endpoint):
    with EventBroker(endpoint) as broker:
        announcer = BrokerClient(endpoint)
        listeners = [BrokerClient(endpoint) for _ in range(2)]
        for listener in listeners:
            listener.subscribe("t")
        _wait_registered(broker, "t", 2)
        for i in range(3):
            announcer.publish("t", b"e%d" % i)
        for listener in listeners:
            got = [listener.next_event(timeout=2) for _ in range(3)]
            assert got == [("t", b"e0"), ("t", b"e1"), ("t", b"e2")]
            assert listener.next_event(timeout=0.1) is None
        announcer.close()
        for listener in listeners:
            listener.close()


def test_no_listeners_does_not_block(endpoint):
    with EventBroker(endpoint):
        announcer = BrokerClient(endpoint)
        announcer.publish("t", b"spoken to the void")
        announcer.close()


def test_topic_isolation(endpoint):
    with EventBroker(endpoint) as broker:
        announcer = BrokerClient(endpoint)
        listener = BrokerClient(endpoint)
        listener.subscribe("t")
        _wait_registered(broker, "t", 1)
        announcer.publish("u", b"wrong topic")
        announcer.publish("t", b"right topic")
        assert listener.next_event(timeout=2) == ("t", b"right topic")
        announcer.close()
        listener.close()


def test_announcer_does_not_hear_itself(endpoint):
    with EventBroker(endpoint) as broker:
        both = BrokerClient(endpoint)
        other = BrokerClient(endpoint)
        both.subscribe("t")
        other.subscribe("t")
        _wait_registered(broker, "t", 2)
        both.publish("t", b"mine")
        other.publish("t", b"yours")
        assert both.next_event(timeout=2) == ("t", b"yours")
        assert both.next_event(timeout=0.1) is None
        both.close()
        other.close()


def test_endpoint_in_use(endpoint):
    with EventBroker(endpoint):
        with pytest.raises(ArchonError) as exc:
            EventBroker(endpoint).start()
        assert exc.value.code == "EndpointInUse"


def test_multiple_announcers_each_in_order(endpoint):
    with EventBroker(endpoint) as broker:
        announcers = [BrokerClient(endpoint) for _ in range(3)]
        listener = BrokerClient(endpoint)
        listener.subscribe("t")
        _wait_registered(broker, "t", 1)
        for idx, announcer in enumerate(announcers):
            for seq in range(10):
                announcer.publish("t", b"%d:%d" % (idx, seq))
        got = []
        for _ in range(30):
            event = listener.next_event(timeout=2)
            assert event is not None
            got.append(event[1])
        per_announcer = {0: [], 1: [], 2: []}
        for payload in got:
            idx, seq = payload.split(b":")
            per_announcer[int(idx)].append(int(seq))
        for seqs in per_announcer.values():
            assert seqs == sorted(seqs) == list(range(10))
        for announcer in announcers:
            announcer.close()
        listener.close()


def test_oversized_frame_from_broker_raises_frame_too_large(endpoint):
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(endpoint)
    listener.listen()

    def rogue():
        sock, _ = listener.accept()
        write_frame(sock, Frame(EVT, b"fine", topic="t"))
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        sock.recv(1)  # until the client shuts its end
        sock.close()

    thread = threading.Thread(target=rogue)
    thread.start()
    client = BrokerClient(endpoint)
    assert client.next_event(timeout=5) == ("t", b"fine")
    for _ in range(2):
        with pytest.raises(ArchonError) as exc:
            client.next_event(timeout=5)
        assert exc.value.code == "FrameTooLarge"
    thread.join(5)
    assert not thread.is_alive()
    client.close()
    listener.close()


def test_dead_broker_is_reported_to_blocked_readers_and_publishers(endpoint):
    broker = EventBroker(endpoint).start()
    announcer = BrokerClient(endpoint)
    listener = BrokerClient(endpoint)
    listener.subscribe("t")
    _wait_registered(broker, "t", 1)
    got = []

    def drain():
        try:
            while True:
                got.append(listener.next_event(timeout=None))
        except ArchonError as exc:
            got.append(exc.code)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    announcer.publish("t", b"e0")
    announcer.publish("t", b"e1")
    deadline = time.monotonic() + 5
    while len(got) < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    broker.stop()
    reader.join(2)
    assert not reader.is_alive(), "next_event(timeout=None) still blocked"
    assert got == [("t", b"e0"), ("t", b"e1"), "BrokerUnavailable"]
    with pytest.raises(ArchonError) as exc:
        listener.next_event(timeout=None)  # every later call raises too
    assert exc.value.code == "BrokerUnavailable"
    for client in (announcer, listener):
        with pytest.raises(ArchonError) as exc:
            client.publish("t", b"late")
        assert exc.value.code == "BrokerUnavailable"
        client.close()
