import socket
import threading

import pytest
from hypothesis import given, strategies as st

from archon.diagnostics import ArchonError
from archon.frames import (
    EVT,
    FWD,
    MAX_FRAME_BYTES,
    REG,
    REQ,
    RSP,
    Frame,
    bursts,
    decode,
    encode,
    pack_correlated,
    pack_topic,
    read_frame,
    write_frame,
)


def test_event_frame_golden_bytes():
    assert encode(Frame(EVT, b"x", topic="t")) == b"\x00\x00\x00\x05\x01\x00\x01tx"


def test_register_frame_golden_bytes():
    assert encode(Frame(REG, topic="alerts")) == b"\x00\x00\x00\x09\x04\x00\x06alerts"


def test_request_frame_golden_bytes():
    got = encode(Frame(REQ, b"hi", correlation=0x0102030405060708))
    assert got == b"\x00\x00\x00\x0b\x02\x01\x02\x03\x04\x05\x06\x07\x08hi"


def test_forward_frame_golden_bytes():
    got = encode(Frame(FWD, b"z", name="svc", stream_id=7))
    assert got == (
        b"\x00\x00\x00\x0f\x05\x00\x03svc" + b"\x00\x00\x00\x00\x00\x00\x00\x07" + b"z"
    )


def test_response_frame_golden_bytes():
    golden = b"\x00\x00\x00\x0b\x03\x00\x00\x00\x00\x00\x00\x01\x2aok"
    assert pack_correlated(RSP, 0x12A, b"ok") == golden
    assert encode(Frame(RSP, b"ok", correlation=0x12A)) == golden


@pytest.mark.parametrize(
    "packed, frame, golden",
    [
        (
            pack_correlated(REQ, 7, b"hi"),
            Frame(REQ, b"hi", correlation=7),
            b"\x00\x00\x00\x0b\x02" + b"\x00" * 7 + b"\x07hi",
        ),
        (
            pack_correlated(RSP, 2**64 - 1, b""),
            Frame(RSP, correlation=2**64 - 1),
            b"\x00\x00\x00\x09\x03" + b"\xff" * 8,
        ),
        (
            pack_topic(EVT, "t\u00e9", b"xy"),
            Frame(EVT, b"xy", topic="t\u00e9"),
            b"\x00\x00\x00\x08\x01\x00\x03t\xc3\xa9xy",
        ),
        (
            pack_topic(REG, "alerts", b""),
            Frame(REG, topic="alerts"),
            b"\x00\x00\x00\x09\x04\x00\x06alerts",
        ),
    ],
    ids=["REQ", "RSP", "EVT", "REG"],
)
def test_packer_bytes_equal_encode_and_golden_bytes(packed, frame, golden):
    assert packed == encode(frame) == golden


@pytest.mark.parametrize(
    "body, why",
    [
        (b"\x02" + bytes(7), "truncated correlation id"),
        (b"\x01\x00", "truncated topic header"),
        (b"\x04\x00\x03ab", "truncated topic"),
        (b"\x05\x00", "truncated name header"),
        (b"\x05\x00\x03svc" + bytes(7), "truncated forward header"),
    ],
)
def test_a_header_one_byte_short_is_a_bad_frame(body, why):
    with pytest.raises(ArchonError) as exc:
        decode(body)
    assert exc.value.code == "BadFrame"
    assert exc.value.diagnostic.message == why
    try:
        decode(body + b"\x00")
    except ArchonError as longer:  # only a name length is followed by more header
        assert longer.diagnostic.message == "truncated forward header" != why


@pytest.mark.parametrize("sent", [b"\x00\x00", b"\x00\x00\x00\x05"])
def test_read_frame_eof_in_the_header_or_before_the_body_is_a_bad_frame(sent):
    left, right = socket.socketpair()
    try:
        left.sendall(sent)
        left.close()
        with pytest.raises(ArchonError) as exc:
            read_frame(right)
        assert exc.value.code == "BadFrame"
        assert exc.value.diagnostic.message == "connection closed mid-frame"
    finally:
        right.close()


@pytest.mark.parametrize(
    "longest, too_long, why",
    [
        (Frame(EVT, topic="t" * 0xFFFF), Frame(EVT, topic="t" * 0x10000), "topic"),
        # the length counts UTF-8 bytes, not characters
        (Frame(REG, topic="\u00e9" * 0x7FFF + "x"), Frame(REG, topic="\u00e9" * 0x8000), "topic"),
        (Frame(FWD, name="n" * 0xFFFF), Frame(FWD, name="n" * 0x10000), "service name"),
    ],
)
def test_encode_refuses_a_topic_or_name_longer_than_its_length_field(longest, too_long, why):
    assert decode(encode(longest)[4:]) == longest
    with pytest.raises(ArchonError) as exc:
        encode(too_long)
    assert exc.value.code == "BadFrame"
    assert exc.value.diagnostic.message == f"{why} longer than 65535 bytes"


@pytest.mark.parametrize(
    "pack, header",
    [
        (lambda payload: pack_correlated(REQ, 1, payload), 9),
        (lambda payload: pack_correlated(RSP, 1, payload), 9),
        (lambda payload: pack_topic(EVT, "t", payload), 4),
        (lambda payload: pack_topic(REG, "t", payload), 4),
        (lambda payload: encode(Frame(FWD, payload, name="s")), 12),
    ],
    ids=["REQ", "RSP", "EVT", "REG", "FWD"],
)
def test_each_packer_caps_the_frame_body(pack, header):
    """A body of MAX_FRAME_BYTES is sent; one byte more is FrameTooLarge."""
    assert len(pack(bytes(MAX_FRAME_BYTES - header))) == 4 + MAX_FRAME_BYTES
    with pytest.raises(ArchonError) as exc:
        pack(bytes(MAX_FRAME_BYTES - header + 1))
    assert exc.value.code == "FrameTooLarge"


def test_oversize_payload_rejected():
    with pytest.raises(ArchonError) as exc:
        encode(Frame(EVT, b"x" * MAX_FRAME_BYTES, topic="t"))
    assert exc.value.code == "FrameTooLarge"


def test_largest_legal_frame_round_trips():
    payload = b"x" * (MAX_FRAME_BYTES - 1 - 2 - 1)  # kind + topic header + 1-byte topic
    frame = Frame(EVT, payload, topic="t")
    assert decode(encode(frame)[4:]) == frame


def test_oversize_announced_length_rejected_by_reader():
    left, right = socket.socketpair()
    try:
        left.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ArchonError) as exc:
            read_frame(right)
        assert exc.value.code == "FrameTooLarge"
    finally:
        left.close()
        right.close()


def test_truncated_body_rejected():
    with pytest.raises(ArchonError):
        decode(b"\x01\x00\x05ab")  # claims 5-byte topic, has 2


def test_text_that_is_not_utf8_is_a_bad_frame():
    for body in (b"\x01\x00\x01\xff", b"\x05\x00\x01\xff" + bytes(8)):  # EVT topic, FWD name
        with pytest.raises(ArchonError) as exc:
            decode(body)
        assert exc.value.code == "BadFrame"


def test_unknown_kind_rejected():
    with pytest.raises(ArchonError):
        decode(b"\x09abc")
    with pytest.raises(ArchonError):
        Frame(9)


def test_socket_round_trip_multiple_frames():
    left, right = socket.socketpair()
    frames = [
        Frame(EVT, b"one", topic="a"),
        Frame(REQ, b"two", correlation=42),
        Frame(RSP, b"", correlation=42),
        Frame(FWD, b"chunk", name="echo", stream_id=3),
    ]

    def feed():
        for frame in frames:
            write_frame(left, frame)
        left.close()

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        got = []
        while True:
            frame = read_frame(right)
            if frame is None:
                break
            got.append(frame)
        assert got == frames
    finally:
        thread.join()
        right.close()


def test_mid_frame_eof_is_an_error():
    left, right = socket.socketpair()
    try:
        left.sendall(b"\x00\x00\x00\x0a\x01\x00\x01t")  # promises 10, sends 4
        left.close()
        with pytest.raises(ArchonError):
            read_frame(right)
    finally:
        right.close()


class _Pieces:
    """Socket-like: ``recv_into`` hands out ``data`` in pieces of the given sizes."""

    def __init__(self, data: bytes, sizes=()) -> None:
        self.data = memoryview(data)
        self.sizes = iter(sizes)
        self.buffers = []  # the size of the whole buffer behind each read

    def recv_into(self, buffer, nbytes=0):
        self.buffers.append(len(buffer.obj))
        n = min(len(buffer), next(self.sizes, len(buffer)), len(self.data))
        buffer[:n] = self.data[:n]
        self.data = self.data[n:]
        return n


def test_burst_reader_yields_every_frame_a_read_completed():
    frames = [Frame(REQ, b"r%d" % i, correlation=i) for i in range(5)]
    sock = _Pieces(b"".join(encode(f) for f in frames))
    assert list(bursts(sock)) == [frames]
    assert len(sock.buffers) == 2  # one read for all five frames, one for EOF


def test_burst_reader_delivers_good_frames_before_an_oversized_header():
    good = [Frame(EVT, b"fine", topic="t"), Frame(EVT, b"also", topic="t")]
    raw = b"".join(encode(f) for f in good) + (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    reader = bursts(_Pieces(raw + bytes(64)))
    assert next(reader) == good
    with pytest.raises(ArchonError) as exc:
        next(reader)
    assert exc.value.code == "FrameTooLarge"


def test_burst_reader_delivers_good_frames_before_a_bad_body():
    good = Frame(RSP, b"ok", correlation=1)
    reader = bursts(_Pieces(encode(good) + b"\x00\x00\x00\x02\x09x"))  # kind 9
    assert next(reader) == [good]
    with pytest.raises(ArchonError) as exc:
        next(reader)
    assert exc.value.code == "BadFrame"


@pytest.mark.parametrize("cut", [2, 4, 9])  # inside the header, after it, inside the body
def test_burst_reader_eof_mid_frame_is_a_bad_frame(cut):
    good = Frame(REQ, b"whole", correlation=3)
    raw = encode(good) + encode(Frame(REQ, b"cut short", correlation=4))[:cut]
    reader = bursts(_Pieces(raw))
    assert next(reader) == [good]
    with pytest.raises(ArchonError) as exc:
        next(reader)
    assert exc.value.code == "BadFrame"


def test_burst_reader_grows_for_the_largest_frame_and_shrinks_back():
    big = Frame(EVT, b"x" * (MAX_FRAME_BYTES - 4), topic="t")  # body of exactly the cap
    after = Frame(EVT, b"after", topic="t")
    raw = encode(big)
    assert len(raw) == 4 + MAX_FRAME_BYTES
    sock = _Pieces(raw + encode(after), sizes=[100, 1 << 16, 1 << 20, 50])
    got = [frame for burst in bursts(sock) for frame in burst]
    assert got == [big, after]
    assert max(sock.buffers) == 4 + MAX_FRAME_BYTES
    assert sock.buffers[0] == sock.buffers[-1] == 1 << 14


_topics = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=40
)
_payloads = st.binary(max_size=200)


@given(kind=st.sampled_from([EVT, REG]), topic=_topics, payload=_payloads)
def test_topic_frames_round_trip(kind, topic, payload):
    frame = Frame(kind, payload, topic=topic)
    assert decode(encode(frame)[4:]) == frame


@given(kind=st.sampled_from([REQ, RSP]), corr=st.integers(0, 2**64 - 1), payload=_payloads)
def test_correlated_frames_round_trip(kind, corr, payload):
    frame = Frame(kind, payload, correlation=corr)
    assert decode(encode(frame)[4:]) == frame


@given(name=_topics, stream_id=st.integers(0, 2**64 - 1), payload=_payloads)
def test_forward_frames_round_trip(name, stream_id, payload):
    frame = Frame(FWD, payload, name=name, stream_id=stream_id)
    assert decode(encode(frame)[4:]) == frame


@given(payload=_payloads)
def test_length_prefix_counts_body(payload):
    raw = encode(Frame(EVT, payload, topic="tp"))
    assert int.from_bytes(raw[:4], "big") == len(raw) - 4


_any_frame = st.one_of(
    st.builds(Frame, st.sampled_from([EVT, REG]), _payloads, topic=_topics),
    st.builds(Frame, st.sampled_from([REQ, RSP]), _payloads, correlation=st.integers(0, 2**64 - 1)),
    st.builds(Frame, st.just(FWD), _payloads, name=_topics, stream_id=st.integers(0, 2**64 - 1)),
    # larger than the reader's 16 KiB buffer: it grows for the frame and shrinks back
    st.builds(Frame, st.just(EVT), st.integers(0, 40_000).map(bytes), topic=st.just("big")),
)


@given(
    frames=st.lists(_any_frame, max_size=30),
    sizes=st.lists(st.integers(1, 300), max_size=60),
)
def test_burst_reader_reassembles_any_split_of_a_stream(frames, sizes):
    sock = _Pieces(b"".join(encode(f) for f in frames), sizes)
    got = []
    for burst in bursts(sock):
        assert burst  # a read that completes no frame yields nothing
        got += burst
    assert got == frames
