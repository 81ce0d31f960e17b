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
decode(encode(frame)) round trip is exact; helpers convert to SI.  Trace
rows are quantized into these units in one place, ``replay.wire_fields``.
"""

from __future__ import annotations

import operator
import struct
from typing import NamedTuple

MSG_BSM = 0x14
MSG_SPAT = 0x13

FRAME_SIZE = 28
_LAYOUT = struct.Struct(">BIiiHiHHBI")
assert _LAYOUT.size == FRAME_SIZE
_pack = _LAYOUT.pack

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
    def tm_s(self) -> float:
        return self.tm_ms / 1000.0


# Each field's encodable values, in field order, and the message a value
# outside them raises.  ``struct`` enforces the widths; this table only names
# the field at fault once a pack has failed.
_ALLOWED = (
    (_MSG_IDS, "unknown msg_id {:#x}"),
    (range(_U32_MAX + 1), "vehicle_id out of u32 range"),
    (range(_I32_MIN, _I32_MAX + 1), "latitude out of i32 range"),
    (range(_I32_MIN, _I32_MAX + 1), "longitude out of i32 range"),
    (range(_U16_MAX + 1), "speed out of u16 range"),
    (range(_I32_MIN, _I32_MAX + 1), "merging time out of i32 range"),
    (range(_U16_MAX + 1), "distance out of u16 range"),
    (range(_CZ_MAX + 1), "zone id {} out of range 0.." + str(_CZ_MAX)),
    (range(0x100), "seq out of u8 range"),
    (range(_U32_MAX + 1), "timestamp out of u32 range"),
)


def _encode_error(frame: tuple) -> str:
    """The message of the first field of ``frame``, in field order, that
    cannot be encoded."""
    for name, value, (allowed, message) in zip(BsmFrame._fields, frame, _ALLOWED):
        try:
            value = operator.index(value)
        except TypeError:
            return f"{name} is not an integer: {value!r}"
        if value not in allowed:
            return message.format(value)
    return f"frame has {len(frame)} fields, expected {len(BsmFrame._fields)}"


def encode_bsm(frame: tuple) -> bytes:
    """The wire bytes of ``frame``: a ``BsmFrame`` or any tuple of its
    fields in wire units.  ``struct`` enforces the field widths; a value
    that does not fit, is not an integer, or is not a known msg_id or zone
    id raises ``FrameError`` naming the first such field."""
    try:
        data = _pack(*frame)
    except struct.error:
        raise FrameError(_encode_error(frame)) from None
    if frame[0] in _MSG_IDS and frame[7] <= _CZ_MAX:   # u16 keeps cz >= 0
        return data
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
