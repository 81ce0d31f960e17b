import socket
import struct
import threading
import time

import pytest

from corridorsim import sim
from corridorsim.core import load_config_file
from corridorsim.v2x.broker import (
    MAX_FRAME,
    READ_SIZE,
    Broker,
    BrokerClient,
    FrameReader,
    ProtocolError,
    encode_publish,
    encode_subscribe,
    parse_frames,
)
from corridorsim.v2x.bsm import encode_bsm
from corridorsim.v2x.headunit import BSM_TOPICS
from corridorsim.v2x.replay import frames_from_trace, publish_frames


@pytest.fixture()
def broker():
    b = Broker(port=0).start()
    yield b
    b.stop()


def test_publish_reaches_subscriber(broker):
    sub = BrokerClient(broker.address, timeout=5.0)
    sub.subscribe("bsm/1")
    sub.sync()
    pub = BrokerClient(broker.address, timeout=5.0)
    pub.publish("bsm/1", b"hello")
    assert sub.recv() == ("bsm/1", b"hello")
    sub.close()
    pub.close()


def test_two_subscribers_see_identical_order(broker):
    subs = [BrokerClient(broker.address, timeout=5.0) for _ in range(2)]
    for s in subs:
        s.subscribe("t")
        s.sync()
    pub = BrokerClient(broker.address, timeout=5.0)
    sent = [struct.pack(">I", i) for i in range(300)]
    for payload in sent:
        pub.publish("t", payload)
    for s in subs:
        got = [s.recv()[1] for _ in range(300)]
        assert got == sent
    pub.close()
    for s in subs:
        s.close()


def test_unsubscribed_topic_not_delivered(broker):
    sub = BrokerClient(broker.address, timeout=5.0)
    sub.subscribe("bsm/1")
    sub.sync()
    pub = BrokerClient(broker.address, timeout=5.0)
    pub.publish("bsm/2", b"other")
    pub.publish("bsm/1", b"mine")
    assert sub.recv() == ("bsm/1", b"mine")
    sub.close()
    pub.close()


def test_publish_without_subscribers_is_dropped(broker):
    pub = BrokerClient(broker.address, timeout=5.0)
    pub.publish("void", b"x")
    pub.publish("void", b"y")
    # frames on two connections have no order between them: wait until the
    # broker has handled these before the subscriber arrives
    pub.sync()
    # a subscriber arriving later sees nothing from the past
    sub = BrokerClient(broker.address, timeout=5.0)
    sub.subscribe("void")
    sub.sync()
    pub.publish("void", b"z")
    assert sub.recv() == ("void", b"z")
    sub.settimeout(0.2)
    with pytest.raises(TimeoutError):
        sub.recv()
    sub.close()
    pub.close()


def test_malformed_frame_closes_connection(broker):
    client = BrokerClient(broker.address, timeout=5.0)
    client.send_raw(b"\x7fgarbage")
    assert client.recv() is None
    client.close()


def test_oversized_length_prefix_closes_connection(broker):
    raw = socket.create_connection(broker.address, timeout=5.0)
    raw.sendall(struct.pack(">I", 1 << 30))
    assert raw.recv(1) == b""
    raw.close()


def test_dead_subscriber_is_pruned(broker):
    sub = BrokerClient(broker.address, timeout=5.0)
    sub.subscribe("t")
    sub.sync()
    sub.close()
    time.sleep(0.05)
    pub = BrokerClient(broker.address, timeout=5.0)
    for _ in range(3):
        pub.publish("t", b"x")
    pub.sync()  # drain this connection's queue before the next subscriber
    # broker must survive and keep serving others
    other = BrokerClient(broker.address, timeout=5.0)
    other.subscribe("t")
    other.sync()
    pub.publish("t", b"y")
    assert other.recv() == ("t", b"y")
    pub.close()
    other.close()


def test_sync_echo_survives_total_loss():
    # drop injection models a lossy V2X link; the sync echo is control
    # traffic and must still come back, or sync() would wait forever
    broker = Broker(port=0, drop_prob=1.0).start()
    try:
        with BrokerClient(broker.address, timeout=5.0) as client:
            client.subscribe("t")
            client.sync()
            client.sync()
        assert broker.counters()["dropped"] == 0
    finally:
        broker.stop()


def test_drop_injection_discards_everything():
    broker = Broker(port=0, drop_prob=1.0).start()
    try:
        sub = BrokerClient(broker.address, timeout=5.0)
        sub.subscribe("t")
        sub.sync()
        pub = BrokerClient(broker.address, timeout=5.0)
        for _ in range(20):
            pub.publish("t", b"x")
        sub.settimeout(0.3)
        with pytest.raises(TimeoutError):
            sub.recv()
        assert broker.dropped == 20
        pub.close()
        sub.close()
    finally:
        broker.stop()


def test_concurrent_publishers_interleave_without_loss(broker):
    sub = BrokerClient(broker.address, timeout=5.0)
    sub.subscribe("t")
    sub.sync()

    def blast(tag: bytes):
        pub = BrokerClient(broker.address, timeout=5.0)
        for i in range(200):
            pub.publish("t", tag + struct.pack(">I", i))
        pub.close()

    threads = [threading.Thread(target=blast, args=(t,)) for t in (b"a", b"b")]
    for th in threads:
        th.start()
    got = [sub.recv()[1] for _ in range(400)]
    for th in threads:
        th.join()
    # per-publisher order must hold even when the streams interleave
    for tag in (b"a", b"b"):
        seq = [struct.unpack(">I", p[1:])[0] for p in got if p[:1] == tag]
        assert seq == list(range(200))
    sub.close()


def test_payload_parser_rejects_junk():
    junk = [b"", b"\x02\x00", b"\x02\x00\x09abc", b"\x07topic"]
    good = [encode_publish("bsm/2", b"\x00\x01"), encode_subscribe("bsm/2")]
    parsed = parse_frames([_framed(p) for p in junk + good])
    assert [type(p) for p in parsed[:4]] == [ProtocolError] * 4
    assert parsed[4:] == [("bsm/2", b"\x00\x01"), ("bsm/2", None)]


def _topics(broker):
    with broker._lock:
        return list(broker._subs)


def _eventually(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not cond():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_sync_topics_do_not_accumulate(broker):
    client = BrokerClient(broker.address, timeout=5.0)
    for _ in range(100):
        client.sync()
    assert sum(t.startswith("__sync/") for t in _topics(broker)) <= 1
    client.close()
    assert _eventually(lambda: not any(t.startswith("__sync/") for t in _topics(broker)))


def test_closed_subscriber_leaves_no_empty_topic(broker):
    client = BrokerClient(broker.address, timeout=5.0)
    client.subscribe("bsm/1")
    client.sync()
    assert "bsm/1" in _topics(broker)
    client.close()
    assert _eventually(lambda: "bsm/1" not in _topics(broker))


def test_finished_connection_threads_are_pruned(broker):
    for _ in range(20):
        client = BrokerClient(broker.address, timeout=5.0)
        client.sync()
        client.close()
    # every reader thread has seen its hang-up; only the acceptor runs
    assert _eventually(lambda: sum(t.is_alive() for t in list(broker._threads)) <= 1)
    last = BrokerClient(broker.address, timeout=5.0)
    last.sync()
    # its accept prunes the finished readers: the acceptor and the new reader stay
    assert _eventually(lambda: len(broker._threads) <= 2)
    last.close()


# ---------------------------------------------------------------------------
# framing


def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


class _ScriptedSocket:
    """Stands in for a socket: each recv returns the next scripted chunk (or
    raises it, if it is an exception), then b"" as an orderly close."""

    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.calls = 0

    def recv(self, n: int) -> bytes:
        self.calls += 1
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if isinstance(chunk, BaseException):
            raise chunk
        assert len(chunk) <= n
        return chunk


def _read_all(reader: FrameReader) -> list[bytes]:
    out = []
    while (frames := reader.read()) is not None:
        out.extend(frames)
    return out


def test_reader_reassembles_frames_written_one_byte_at_a_time():
    wire = [_framed(encode_publish("bsm/1", bytes([i]) * i)) for i in range(6)]
    stream = b"".join(wire)
    sock = _ScriptedSocket(stream[i:i + 1] for i in range(len(stream)))
    assert _read_all(FrameReader(sock)) == wire
    assert sock.calls == len(stream) + 1


def test_reader_hands_out_many_frames_from_one_recv():
    wire = [_framed(encode_publish("t", struct.pack(">I", i))) for i in range(1000)]
    stream = b"".join(wire)
    assert len(stream) <= READ_SIZE
    sock = _ScriptedSocket([stream])
    reader = FrameReader(sock)
    assert reader.read() == wire
    assert sock.calls == 1
    assert reader.read() is None


def test_reader_serves_frames_before_an_oversized_length_prefix():
    good = _framed(encode_publish("t", b"ok"))
    reader = FrameReader(_ScriptedSocket([good + struct.pack(">I", MAX_FRAME + 1)]))
    assert reader.read() == [good]
    with pytest.raises(ProtocolError, match="exceeds cap"):
        reader.read()


def test_reader_keeps_a_partial_frame_across_a_timeout():
    wire = _framed(encode_publish("t", b"payload"))
    sock = _ScriptedSocket([wire[:6], TimeoutError("timed out"), wire[6:]])
    reader = FrameReader(sock)
    with pytest.raises(TimeoutError):
        reader.read()
    assert reader.read() == [wire]


def test_reader_returns_none_on_close_mid_frame():
    wire = _framed(encode_publish("t", b"payload"))
    assert FrameReader(_ScriptedSocket([wire + wire[:5]])).read() == [wire]
    reader = FrameReader(_ScriptedSocket([wire[:5]]))
    assert reader.read() is None


@pytest.fixture()
def fake_broker():
    """A listening socket the test plays the broker on."""
    server = socket.create_server(("127.0.0.1", 0))
    yield server
    server.close()


def test_client_timeout_mid_frame_then_next_recv_completes_it(fake_broker):
    client = BrokerClient(fake_broker.getsockname(), timeout=5.0)
    conn, _ = fake_broker.accept()
    wire = _framed(encode_publish("bsm/2", b"x" * 28))
    conn.sendall(wire[:10])
    client.settimeout(0.2)
    with pytest.raises(TimeoutError):
        client.recv()
    conn.sendall(wire[10:])
    client.settimeout(5.0)
    assert client.recv() == ("bsm/2", b"x" * 28)
    conn.close()
    assert client.recv() is None
    client.close()


def test_client_recv_returns_none_on_close_mid_frame(fake_broker):
    client = BrokerClient(fake_broker.getsockname(), timeout=5.0)
    conn, _ = fake_broker.accept()
    wire = _framed(encode_publish("t", b"whole"))
    conn.sendall(wire + wire[:7])
    conn.close()
    assert client.recv() == ("t", b"whole")
    assert client.recv() is None
    client.close()


def test_client_reads_many_deliveries_from_one_write(fake_broker):
    client = BrokerClient(fake_broker.getsockname(), timeout=5.0)
    conn, _ = fake_broker.accept()
    sent = [struct.pack(">I", i) for i in range(2000)]
    conn.sendall(b"".join(_framed(encode_publish("t", p)) for p in sent))
    assert [client.recv() for _ in sent] == [("t", p) for p in sent]
    conn.close()
    client.close()


def test_client_recv_raises_at_each_malformed_delivery_in_its_turn(fake_broker):
    client = BrokerClient(fake_broker.getsockname(), timeout=5.0)
    conn, _ = fake_broker.accept()
    good = [("bsm/1", b"a" * 28), ("bsm/2", b""), ("bsm/1", b"b" * 3)]
    bad_topic = b"\x02\x00\x02\xff\xfe" + b"data"
    conn.sendall(b"".join(_framed(encode_publish(*m)) for m in good[:2])
                 + _framed(encode_subscribe("bsm/1"))
                 + _framed(bad_topic)
                 + _framed(encode_publish(*good[2])))
    assert client.recv() == good[0]
    assert client.recv() == good[1]
    with pytest.raises(ProtocolError, match="non-publish"):
        client.recv()
    with pytest.raises(UnicodeDecodeError):
        client.recv()
    assert client.recv() == good[2]
    conn.close()
    assert client.recv() is None
    client.close()


def test_publish_many_sends_each_message_as_its_own_frame(fake_broker):
    client = BrokerClient(fake_broker.getsockname(), timeout=5.0)
    conn, _ = fake_broker.accept()
    topics = ["bsm/1", "bsm/2", "zone/\u00e9t\u00e9", "t"]
    messages = [(topics[i % len(topics)], bytes([i % 251]) * (i * 7 % 90))
                for i in range(3000)]
    assert any(not payload for _, payload in messages)
    want = b"".join(struct.pack(">I", len(d)) + d for d in
                    (encode_publish(t, p) for t, p in messages))
    assert len(want) > 2 * READ_SIZE    # spans several coalesced writes
    got: list[bytes] = []
    reader = threading.Thread(target=_drain, args=(conn, len(want) + 1, got))
    reader.start()
    assert client.publish_many(messages) == len(messages)
    client.close()
    reader.join(timeout=30.0)
    assert not reader.is_alive()
    assert got == [want]
    conn.close()


def test_oversized_length_prefix_closes_only_that_connection(broker):
    sub = BrokerClient(broker.address, timeout=5.0)
    sub.subscribe("t")
    sub.sync()
    pub = BrokerClient(broker.address, timeout=5.0)
    pub.publish("t", b"before")
    assert sub.recv() == ("t", b"before")
    bad = socket.create_connection(broker.address, timeout=5.0)
    # the frame ahead of the bad prefix, in the same write, is still served
    bad.sendall(_framed(encode_publish("t", b"last words"))
                + struct.pack(">I", MAX_FRAME + 1))
    assert sub.recv() == ("t", b"last words")
    assert bad.recv(1) == b""
    bad.close()
    for i in range(3):
        pub.publish("t", bytes([i]))
    assert [sub.recv() for _ in range(3)] == [("t", bytes([i])) for i in range(3)]
    pub.close()
    sub.close()


# ---------------------------------------------------------------------------
# bytes on the wire


@pytest.fixture(scope="module")
def bench_frames():
    cfg = load_config_file("configs/bench.yaml")
    result = sim.run(cfg)
    return list(frames_from_trace(result.rows, cfg, result.schedule))


def _expected_wire(frames) -> bytes:
    return b"".join(_framed(encode_publish(f"bsm/{f.cz}", encode_bsm(f))) for f in frames)


def _drain(sock: socket.socket, n: int, out: list) -> None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            break
        buf += chunk
    out.append(bytes(buf))


def test_flood_reaches_a_raw_subscriber_byte_for_byte(broker, bench_frames):
    raw = socket.create_connection(broker.address, timeout=10.0)
    echo = _framed(encode_publish("echo", b""))
    raw.sendall(b"".join(_framed(encode_subscribe(t)) for t in (*BSM_TOPICS, "echo"))
                + echo)
    got: list[bytes] = []
    _drain(raw, len(echo), got)
    assert got == [echo]
    want = _expected_wire(bench_frames)
    reader = threading.Thread(target=_drain, args=(raw, len(want), got))
    reader.start()
    assert publish_frames(bench_frames, broker.address, rate=0.0) == len(bench_frames)
    reader.join(timeout=30.0)
    assert not reader.is_alive()
    assert got[1] == want
    raw.settimeout(0.2)
    with pytest.raises(TimeoutError):
        raw.recv(1)
    raw.close()
    counts = broker.counters()
    assert counts["published"] == counts["delivered"] == len(bench_frames) + 1


def test_subscribe_publishes_and_sync_in_one_write(broker, bench_frames):
    raw = socket.create_connection(broker.address, timeout=10.0)
    sync = "__sync/one-write"
    echo = _framed(encode_publish(sync, b""))
    want = _expected_wire(bench_frames) + echo
    got: list[bytes] = []
    reader = threading.Thread(target=_drain, args=(raw, len(want), got))
    reader.start()
    raw.sendall(b"".join(_framed(encode_subscribe(t)) for t in BSM_TOPICS)
                + _expected_wire(bench_frames)
                + _framed(encode_subscribe(sync)) + echo)
    reader.join(timeout=30.0)
    assert not reader.is_alive()
    assert got == [want]
    raw.close()
    # read under the dispatch lock: the last write can be drained before
    # the broker thread counts it
    counts = broker.counters()
    assert counts["published"] == counts["delivered"] == len(bench_frames) + 1
    assert sync not in _topics(broker)


def test_paced_publish_puts_each_frame_out_before_the_next(broker, bench_frames,
                                                           monkeypatch):
    sub = BrokerClient(broker.address, timeout=5.0)
    for topic in BSM_TOPICS:
        sub.subscribe(topic)
    sub.sync()
    published, received = [], []
    publish = BrokerClient.publish

    def stamped(self, topic, payload):
        published.append(time.monotonic())
        publish(self, topic, payload)

    monkeypatch.setattr(BrokerClient, "publish", stamped)

    def listen():
        for _ in range(5):
            sub.recv()
            received.append(time.monotonic())

    listener = threading.Thread(target=listen)
    listener.start()
    assert publish_frames(bench_frames[:5], broker.address, rate=50.0) == 5
    listener.join(timeout=5.0)
    assert not listener.is_alive()
    assert len(published) == len(received) == 5
    for k in range(4):
        assert received[k] < published[k + 1]
    sub.close()
