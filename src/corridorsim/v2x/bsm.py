"""Fixed-layout basic safety message codec.

Every frame is exactly 28 bytes, big-endian, in this field order:

====== ====  ======  ==============================================
offset size  type    field
====== ====  ======  ==============================================
0      1     u8      msg_id: 0x14 safety message, 0x13 phase marker
1      4     u32     vehicle_id
5      4     i32     latitude, 1e-7 degree units
9      4     i32     longitude, 1e-7 degree units
13     2     u16     speed, 0.02 m/s units
15     4     i32     merging time, milliseconds
19     2     u16     distance to coordination zone entry, decimeters
21     2     u16     coordination zone id, 0 through 3
23     1     u8      sequence number
24     4     u32     frame timestamp, milliseconds
====== ====  ======  ==============================================

Speed, distance, and position fields are stored in their wire units so a
decode(encode(frame)) round trip is exact; helpers convert to SI.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

MSG_BSM = 0x14
MSG_SPAT = 0x13

FRAME_SIZE = 28
_LAYOUT = struct.Struct(">BIiiHiHHBI")
assert _LAYOUT.size == FRAME_SIZE

SPEED_UNIT = 0.02  # m/s per speed count
DIST_UNIT = 0.1  # meters per decimeter

_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
_CZ_MAX = 3
_MSG_IDS = (MSG_BSM, MSG_SPAT)

# The broker topic of each zone id's frames; matching is exact, so a
# subscriber to every zone subscribes to each.
BSM_TOPICS = tuple(f"bsm/{cz}" for cz in range(_CZ_MAX + 1))


# builds a frame straight from a field tuple, skipping the keyword parsing
_new = tuple.__new__


class FrameError(ValueError):
    """Raised when a frame cannot be encoded or decoded."""


class BsmFrame(NamedTuple):
    msg_id: int = MSG_BSM
    vehicle_id: int = 0
    latitude: int = 0
    longitude: int = 0
    speed_code: int = 0
    tm_ms: int = 0
    dist_dm: int = 0
    cz: int = 0
    seq: int = 0
    timestamp_ms: int = 0

    @property
    def speed_mps(self) -> float:
        return self.speed_code * SPEED_UNIT

    @property
    def dist_m(self) -> float:
        return self.dist_dm * DIST_UNIT

    @property
    def tm_s(self) -> float:
        return self.tm_ms / 1000.0

    @staticmethod
    def from_state(
        vehicle_id: int,
        speed: float,
        tm: float,
        dist: float,
        cz: int,
        seq: int,
        timestamp: float,
    ) -> "BsmFrame":
        """Quantize SI values (m/s, s, m) into wire units.

        The one place frames are quantized.  Negative speed and distance
        clamp to zero (as ``max(x, 0.0)``); ``round`` halves to even.
        """
        return _new(BsmFrame, (
            MSG_BSM,
            vehicle_id,
            0,
            0,
            round((0.0 if speed < 0.0 else speed) / SPEED_UNIT),
            round(tm * 1000.0),
            round((0.0 if dist < 0.0 else dist) / DIST_UNIT),
            cz,
            seq & 0xFF,
            round(timestamp * 1000.0),
        ))


def _encode_error(frame: BsmFrame) -> str:
    """The message of the first range check ``frame`` fails, in field order."""
    checks = (
        (frame.msg_id in _MSG_IDS, f"unknown msg_id {frame.msg_id:#x}"),
        (0 <= frame.vehicle_id <= _U32_MAX, "vehicle_id out of u32 range"),
        (_I32_MIN <= frame.latitude <= _I32_MAX, "latitude out of i32 range"),
        (_I32_MIN <= frame.longitude <= _I32_MAX, "longitude out of i32 range"),
        (0 <= frame.speed_code <= _U16_MAX, "speed out of u16 range"),
        (_I32_MIN <= frame.tm_ms <= _I32_MAX, "merging time out of i32 range"),
        (0 <= frame.dist_dm <= _U16_MAX, "distance out of u16 range"),
        (0 <= frame.cz <= _CZ_MAX, f"zone id {frame.cz} out of range 0..{_CZ_MAX}"),
        (0 <= frame.seq <= 0xFF, "seq out of u8 range"),
        (0 <= frame.timestamp_ms <= _U32_MAX, "timestamp out of u32 range"),
    )
    return next(message for ok, message in checks if not ok)


def encode_bsm(frame: BsmFrame) -> bytes:
    msg_id, vid, lat, lon, speed, tm_ms, dist, cz, seq, ts = frame
    if (msg_id in _MSG_IDS and 0 <= vid <= _U32_MAX
            and _I32_MIN <= lat <= _I32_MAX and _I32_MIN <= lon <= _I32_MAX
            and 0 <= speed <= _U16_MAX and _I32_MIN <= tm_ms <= _I32_MAX
            and 0 <= dist <= _U16_MAX and 0 <= cz <= _CZ_MAX
            and 0 <= seq <= 0xFF and 0 <= ts <= _U32_MAX):
        return _LAYOUT.pack(*frame)
    raise FrameError(_encode_error(frame))


def decode_bsm(data: bytes) -> BsmFrame:
    if len(data) != FRAME_SIZE:
        raise FrameError(f"frame is {len(data)} bytes, expected {FRAME_SIZE}")
    fields = _LAYOUT.unpack(data)
    msg_id = fields[0]
    if msg_id == MSG_BSM and fields[7] <= _CZ_MAX:
        return _new(BsmFrame, fields)
    if msg_id == MSG_SPAT:
        # Phase markers carry only their id and timestamp; body is ignored.
        return BsmFrame(msg_id=MSG_SPAT, timestamp_ms=fields[9])
    if msg_id != MSG_BSM:
        raise FrameError(f"unknown msg_id {msg_id:#x}")
    raise FrameError(f"zone id {fields[7]} out of range 0..{_CZ_MAX}")
