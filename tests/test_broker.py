import socket
import struct
import threading
import time

import pytest

from corridorsim.v2x.broker import (
    Broker,
    BrokerClient,
    ProtocolError,
    encode_publish,
    parse_payload,
)


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


def test_drop_injection_discards_everything():
    broker = Broker(port=0, drop_prob=1.0, seed=7).start()
    try:
        sub = BrokerClient(broker.address, timeout=5.0)
        sub.subscribe("t")
        # sync() echo would be dropped too, so settle the race with a pause
        time.sleep(0.1)
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
    with pytest.raises(ProtocolError):
        parse_payload(b"")
    with pytest.raises(ProtocolError):
        parse_payload(b"\x02\x00")
    with pytest.raises(ProtocolError):
        parse_payload(b"\x02\x00\x09abc")
    op, topic, data = parse_payload(encode_publish("bsm/2", b"\x00\x01"))
    assert (op, topic, data) == ("publish", "bsm/2", b"\x00\x01")


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
