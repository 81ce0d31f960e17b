import re

import numpy as np
import pytest

from corridorsim.v2x.bsm import (
    DIST_UNIT,
    FRAME_SIZE,
    MSG_BSM,
    MSG_SPAT,
    BsmFrame,
    FrameError,
    decode_bsm,
    encode_bsm,
)
from oracles import frame_from_state


def test_worked_example_roundtrip():
    # 13.4 m/s = code 670, merging time 11.2 s, 52.3 m to the zone, zone 1
    frame = BsmFrame(vehicle_id=42, speed_code=670, tm_ms=11200,
                     dist_dm=523, cz=1, seq=9, timestamp_ms=60000)
    wire = encode_bsm(frame)
    assert len(wire) == FRAME_SIZE == 28
    back = decode_bsm(wire)
    assert back == frame
    assert back.speed_mps == pytest.approx(13.4)
    assert back.dist_dm * DIST_UNIT == pytest.approx(52.3)
    assert back.tm_s == pytest.approx(11.2)


def test_layout_is_pinned():
    # field order and widths must never drift; hex spelled out by hand
    frame = BsmFrame(vehicle_id=42, speed_code=670, tm_ms=11200,
                     dist_dm=523, cz=1, seq=9, timestamp_ms=60000)
    expected = bytes.fromhex(
        "14" "0000002a" "00000000" "00000000" "029e"
        "00002bc0" "020b" "0001" "09" "0000ea60")
    assert encode_bsm(frame) == expected


def test_zero_fields_roundtrip():
    frame = BsmFrame()
    assert decode_bsm(encode_bsm(frame)) == frame


def test_all_zero_buffer_rejected():
    # msg_id 0 is not a known type
    with pytest.raises(FrameError):
        decode_bsm(bytes(28))


def test_zone_id_range_checked_both_ways():
    with pytest.raises(FrameError):
        encode_bsm(BsmFrame(cz=7))
    wire = bytearray(encode_bsm(BsmFrame(cz=3)))
    wire[22] = 7  # low byte of the zone field
    with pytest.raises(FrameError):
        decode_bsm(bytes(wire))


def test_short_frame_rejected():
    wire = encode_bsm(BsmFrame())
    with pytest.raises(FrameError):
        decode_bsm(wire[:27])
    with pytest.raises(FrameError):
        decode_bsm(wire + b"\x00")


def test_unknown_msg_id_rejected():
    with pytest.raises(FrameError):
        encode_bsm(BsmFrame(msg_id=0x20))
    wire = bytearray(encode_bsm(BsmFrame()))
    wire[0] = 0x20
    with pytest.raises(FrameError):
        decode_bsm(bytes(wire))


def test_phase_marker_keeps_only_id_and_timestamp():
    # a 0x13 frame is parsed as a marker even if the body carries junk
    junk = BsmFrame(msg_id=MSG_SPAT, vehicle_id=99, speed_code=500,
                    tm_ms=1234, dist_dm=10, cz=2, seq=7, timestamp_ms=5000)
    back = decode_bsm(encode_bsm(junk))
    assert back.msg_id == MSG_SPAT
    assert back.timestamp_ms == 5000
    assert back.vehicle_id == 0 and back.speed_code == 0 and back.cz == 0


# every range check, with the exact message it raises; where two fields are
# out of range, or not integers, the first in field order names the error
ENCODE_ERRORS = [
    (dict(msg_id=0x20), "unknown msg_id 0x20"),
    (dict(vehicle_id=-1), "vehicle_id out of u32 range"),
    (dict(vehicle_id=2**32), "vehicle_id out of u32 range"),
    (dict(latitude=2**31), "latitude out of i32 range"),
    (dict(longitude=-(2**31) - 1), "longitude out of i32 range"),
    (dict(speed_code=-5), "speed out of u16 range"),
    (dict(speed_code=70000), "speed out of u16 range"),
    (dict(tm_ms=2**31), "merging time out of i32 range"),
    (dict(dist_dm=-1), "distance out of u16 range"),
    (dict(cz=7), "zone id 7 out of range 0..3"),
    (dict(cz=-1), "zone id -1 out of range 0..3"),
    (dict(seq=256), "seq out of u8 range"),
    (dict(timestamp_ms=2**32), "timestamp out of u32 range"),
    (dict(msg_id=0x20, cz=7), "unknown msg_id 0x20"),
    (dict(speed_code=-1, seq=256), "speed out of u16 range"),
    (dict(speed_code=1.5), "speed_code is not an integer: 1.5"),
    (dict(vehicle_id="7"), "vehicle_id is not an integer: '7'"),
    (dict(cz=None), "cz is not an integer: None"),
    (dict(msg_id=0x20, speed_code=1.5), "unknown msg_id 0x20"),
    (dict(vehicle_id=2.0, cz=7), "vehicle_id is not an integer: 2.0"),
    (dict(dist_dm=-1, timestamp_ms=0.5), "distance out of u16 range"),
]


def test_encode_range_checks():
    for fields, message in ENCODE_ERRORS:
        frame = BsmFrame(**fields)
        for given in (frame, tuple(frame)):    # a plain field tuple encodes alike
            with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
                encode_bsm(given)
    with pytest.raises(FrameError, match=r"^frame has 9 fields, expected 10$"):
        encode_bsm(tuple(BsmFrame())[:9])
    assert encode_bsm(tuple(BsmFrame(cz=3))) == encode_bsm(BsmFrame(cz=3))


def _wire(**fields) -> bytes:
    return encode_bsm(BsmFrame(**fields))


@pytest.mark.parametrize("data, message", [
    (bytes(28), "unknown msg_id 0x0"),
    (_wire()[:27], "frame is 27 bytes, expected 28"),
    (_wire() + b"\x00", "frame is 29 bytes, expected 28"),
    (b"\x20" + _wire()[1:], "unknown msg_id 0x20"),
    (_wire()[:21] + b"\x00\x07" + _wire()[23:], "zone id 7 out of range 0..3"),
])
def test_decode_errors(data, message):
    with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
        decode_bsm(data)


def test_field_order_and_defaults():
    assert BsmFrame._fields == ("msg_id", "vehicle_id", "latitude", "longitude",
                                "speed_code", "tm_ms", "dist_dm", "cz", "seq",
                                "timestamp_ms")
    assert BsmFrame() == BsmFrame(MSG_BSM, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    frame = BsmFrame(*range(10))
    assert [getattr(frame, name) for name in BsmFrame._fields] == list(range(10))
    assert BsmFrame(cz=2, seq=5) == BsmFrame(MSG_BSM, 0, 0, 0, 0, 0, 0, 2, 5, 0)


def test_golden_wire_bytes():
    # hex recorded from the frozen-dataclass codec; the reference quantizer
    # rounds half to even
    frames = [
        frame_from_state(vehicle_id=42, speed=13.407, tm=11.2004, dist=52.34,
                         cz=1, seq=300, timestamp=0.1),
        frame_from_state(vehicle_id=4_000_000_000, speed=0.03, tm=-2.5e-3,
                         dist=6553.46, cz=3, seq=255, timestamp=4294967.2945),
        BsmFrame(msg_id=MSG_SPAT, vehicle_id=99, speed_code=500, timestamp_ms=123456),
    ]
    assert [encode_bsm(f).hex() for f in frames] == [
        "14" "0000002a" "00000000" "00000000" "029e" "00002bc0" "020b" "0001" "2c" "00000064",
        "14" "ee6b2800" "00000000" "00000000" "0002" "fffffffe" "ffff" "0003" "ff" "fffffffe",
        "13" "00000063" "00000000" "00000000" "01f4" "00000000" "0000" "0000" "00" "0001e240",
    ]
    assert [decode_bsm(encode_bsm(f)) for f in frames[:2]] == frames[:2]
    assert decode_bsm(encode_bsm(frames[2])) == BsmFrame(msg_id=MSG_SPAT,
                                                         timestamp_ms=123456)


def test_from_state_quantizes():
    frame = frame_from_state(vehicle_id=1, speed=13.407, tm=11.2004,
                             dist=52.34, cz=1, seq=300, timestamp=0.1)
    assert frame.speed_code == 670
    assert frame.tm_ms == 11200
    assert frame.dist_dm == 523
    assert frame.seq == 300 & 0xFF
    # negative kinematics clamp to zero rather than wrapping
    clamped = frame_from_state(vehicle_id=1, speed=-0.3, tm=0.0,
                               dist=-2.0, cz=0, seq=0, timestamp=0.0)
    assert clamped.speed_code == 0 and clamped.dist_dm == 0


def test_ten_thousand_random_roundtrips():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        frame = BsmFrame(
            msg_id=MSG_BSM,
            vehicle_id=int(rng.integers(0, 2**32)),
            latitude=int(rng.integers(-(2**31), 2**31)),
            longitude=int(rng.integers(-(2**31), 2**31)),
            speed_code=int(rng.integers(0, 2**16)),
            tm_ms=int(rng.integers(-(2**31), 2**31)),
            dist_dm=int(rng.integers(0, 2**16)),
            cz=int(rng.integers(0, 4)),
            seq=int(rng.integers(0, 256)),
            timestamp_ms=int(rng.integers(0, 2**32)),
        )
        assert decode_bsm(encode_bsm(frame)) == frame
