import os
import socket
import struct
import sys
import tempfile
import threading
import time

import pytest

from archon import broker as broker_module
from archon.broker import BrokerClient, EventBroker
from archon.diagnostics import ArchonError
from archon.frames import EVT, MAX_FRAME_BYTES, REG, REQ, Frame, read_frame, write_frame


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


def _wait_unheard(broker, count, deadline=5.0):
    end = time.monotonic() + deadline
    while broker.unheard < count:
        if time.monotonic() > end:
            raise AssertionError(f"only {broker.unheard} events counted unheard")
        time.sleep(0.005)


def test_an_event_with_no_subscriber_is_counted_unheard(endpoint):
    with EventBroker(endpoint) as broker:
        announcer = BrokerClient(endpoint)
        announcer.publish("t", b"spoken to the void")
        _wait_unheard(broker, 1)
        announcer.close()
    assert broker.unheard == 1


def test_an_event_only_its_sender_subscribed_to_is_counted_unheard(endpoint):
    with EventBroker(endpoint) as broker:
        announcer = BrokerClient(endpoint)
        announcer.subscribe("t")
        _wait_registered(broker, "t", 1)
        announcer.publish("t", b"mine")
        _wait_unheard(broker, 1)
        announcer.close()
    assert broker.unheard == 1


def test_an_event_another_subscriber_hears_is_not_counted_unheard(endpoint):
    with EventBroker(endpoint) as broker:
        announcer, listener = BrokerClient(endpoint), BrokerClient(endpoint)
        announcer.subscribe("t")
        listener.subscribe("t")
        _wait_registered(broker, "t", 2)
        announcer.publish("t", b"heard")
        assert listener.next_event(timeout=2) == ("t", b"heard")
        announcer.close()
        listener.close()
    assert broker.unheard == 0


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


def test_wrong_kind_frame_is_counted_and_the_connection_served_on(endpoint):
    with EventBroker(endpoint) as broker:
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(endpoint)
        write_frame(raw, Frame(REQ, b"stray", correlation=1))
        write_frame(raw, Frame(REG, topic="t"))
        _wait_registered(broker, "t", 1)
        assert broker.errors == 1
        announcer = BrokerClient(endpoint)
        announcer.publish("t", b"heard")
        assert read_frame(raw) == Frame(EVT, b"heard", topic="t")
        announcer.close()
        raw.close()


def test_an_event_is_encoded_once_for_all_its_subscribers(endpoint, monkeypatch):
    encoded = []
    real = broker_module.encode

    def counting(frame):
        encoded.append(frame)
        return real(frame)

    monkeypatch.setattr(broker_module, "encode", counting)
    published = 20
    with EventBroker(endpoint) as broker:
        listeners = [BrokerClient(endpoint) for _ in range(3)]
        others = [BrokerClient(endpoint) for _ in range(61)]
        for listener in listeners:
            listener.subscribe("t")
        for i, other in enumerate(others):
            other.subscribe("o%d" % (i % 8))
        _wait_registered(broker, "t", 3)
        for i in range(8):
            _wait_registered(broker, "o%d" % i, len(others[i::8]))
        announcer = BrokerClient(endpoint)
        for i in range(published):
            announcer.publish("t", b"e%d" % i)
        delivered = 0
        for listener in listeners:
            got = [listener.next_event(timeout=5) for _ in range(published)]
            assert got == [("t", b"e%d" % i) for i in range(published)]
            delivered += len(got)
        assert delivered == published * len(listeners)
        assert len(encoded) == published
        for client in (announcer, *listeners, *others):
            client.close()


def test_concurrent_subscribes_and_hang_ups_keep_the_topic_index_exact(endpoint):
    workers, each = 8, 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with EventBroker(endpoint) as broker:
            clients = [[BrokerClient(endpoint) for _ in range(each)] for _ in range(workers)]

            def subscribe(mine):
                for client in mine:
                    client.subscribe("t")

            threads = [threading.Thread(target=subscribe, args=(mine,)) for mine in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert not any(thread.is_alive() for thread in threads)
            _wait_registered(broker, "t", workers * each)
            for mine in clients[::2]:  # half the workers hang up, all at once
                for client in mine:
                    client.close()
            end = time.monotonic() + 5
            while broker.registered("t") > workers * each // 2 and time.monotonic() < end:
                time.sleep(0.005)
            assert broker.registered("t") == workers * each // 2
            for mine in clients[1::2]:
                for client in mine:
                    client.close()
    finally:
        sys.setswitchinterval(interval)
