"""Per-zone scheduling: FIFO queues, merging-time assignment, MZ occupancy.

Each conflict zone runs one independent coordinator. A coordinator is an
information relay: it assigns merging times from the predecessor recursion
and books merging-zone occupancy intervals, but never computes control.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

from corridorsim.core import Bounds, ConflictZoneSpec

__all__ = [
    "RELATION_NONE",
    "RELATION_SAME_LANE",
    "RELATION_CONFLICT_LANE",
    "ScheduleEntry",
    "MzOccupancy",
    "OccupancyInterval",
    "ConflictPair",
    "DuplicateRegistrationError",
    "UnknownVehicleError",
    "merging_time",
    "occupancy_check",
    "ZoneCoordinator",
]

log = logging.getLogger(__name__)

RELATION_NONE = "none"
RELATION_SAME_LANE = "same_lane"
RELATION_CONFLICT_LANE = "conflict_lane"


class DuplicateRegistrationError(ValueError):
    pass


class UnknownVehicleError(KeyError):
    pass


@dataclass
class ScheduleEntry:
    """Coordinator record for one vehicle in one zone. Times absolute."""

    vehicle_id: int
    zone: int
    t0: float
    tm: float
    tf: float
    v_at_tm: float
    relation: str
    lane: str
    truncated: bool = False


@dataclass(frozen=True)
class OccupancyInterval:
    vehicle_id: int
    t_enter: float
    t_exit: float
    lane: str


@dataclass
class MzOccupancy:
    """All merging-zone intervals booked for one zone, kept after release."""

    zone: int
    intervals: list[OccupancyInterval] = field(default_factory=list)


@dataclass(frozen=True)
class ConflictPair:
    zone: int
    vehicle_a: int
    vehicle_b: int
    overlap_start: float
    overlap_end: float


def merging_time(t0: float, v0: float, dist: float,
                 prev: Optional[tuple[float, float]], same_lane: bool,
                 mz_length: float, bounds: Bounds, headway: float) -> tuple[float, bool]:
    """Absolute merging time for a vehicle ``dist`` before the MZ line at
    (t0, v0), and whether the kinematic ceiling truncated its gap term.

    ``prev`` is the FIFO predecessor's booked (tm, v_at_tm), or None. Its
    gap term is headway*v0/v_prev on a shared lane and S/v_prev across
    lanes (S = ``mz_length``), clamped below the L/v_min ceiling and above
    the kinematic floors L/v0 and L/v_max (L = ``dist``); without a
    predecessor, only the clamps apply.
    """
    if v0 <= 0:
        raise ValueError("v0 must be positive to schedule a merging time")
    floor_v0 = dist / v0
    floor_vmax = dist / bounds.v_max
    ceiling = dist / bounds.v_min if bounds.v_min > 0 else math.inf
    if prev is None:
        return t0 + min(max(floor_v0, floor_vmax), ceiling), False

    tm_prev, v_prev = prev
    if v_prev <= 0:
        raise ValueError("predecessor merging speed must be positive")
    gap = headway * v0 / v_prev if same_lane else mz_length / v_prev
    candidate = (tm_prev - t0) + gap
    truncated = candidate > ceiling
    return t0 + max(min(candidate, ceiling), floor_v0, floor_vmax), truncated


def occupancy_check(occ: MzOccupancy, tol: float = 1e-9) -> list[ConflictPair]:
    """All pairs of cross-lane intervals that overlap in time.

    Same-lane pairs are exempt: following through the MZ is legal and the
    rear-end check owns that spacing. Intervals are half-open, so touching
    endpoints do not conflict.
    """
    pairs: list[ConflictPair] = []
    ivs = sorted(occ.intervals, key=lambda iv: iv.t_enter)
    for i, a in enumerate(ivs):
        for b in ivs[i + 1:]:
            if b.t_enter >= a.t_exit - tol:
                break
            if a.lane == b.lane:
                continue
            start = max(a.t_enter, b.t_enter)
            end = min(a.t_exit, b.t_exit)
            if end - start > tol:
                pairs.append(ConflictPair(occ.zone, a.vehicle_id, b.vehicle_id,
                                          start, end))
    return pairs


class ZoneCoordinator:
    """FIFO schedule keeper for a single conflict zone.

    ``history`` is the one booking record: every entry ever registered, in
    registration order, updated in place. The MZ occupancy book is read off
    it; ``_by_id`` holds the entries still queued, in FIFO order.
    """

    def __init__(self, zone: ConflictZoneSpec, bounds: Bounds, headway: float):
        self.zone = zone
        self.bounds = bounds
        self.headway = headway
        self.history: list[ScheduleEntry] = []
        self._by_id: dict[int, ScheduleEntry] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def occupancy(self) -> MzOccupancy:
        """Booked MZ intervals of every registration, released ones included."""
        return MzOccupancy(self.zone.index, [
            OccupancyInterval(e.vehicle_id, e.tm, e.tf, e.lane) for e in self.history])

    def entry(self, vehicle_id: int) -> ScheduleEntry:
        try:
            return self._by_id[vehicle_id]
        except KeyError:
            raise UnknownVehicleError(
                f"vehicle {vehicle_id} not queued in zone {self.zone.index}") from None

    def register_arrival(self, vehicle_id: int, t0: float, v0: float,
                         lane: str) -> ScheduleEntry:
        """Append a vehicle to the FIFO queue and assign its merging time."""
        if vehicle_id in self._by_id:
            raise DuplicateRegistrationError(
                f"vehicle {vehicle_id} already queued in zone {self.zone.index}")
        prev = next(reversed(self._by_id.values()), None)
        if prev is None:
            relation = RELATION_NONE
        elif prev.lane == lane:
            relation = RELATION_SAME_LANE
        else:
            relation = RELATION_CONFLICT_LANE
        tm, truncated = merging_time(
            t0, v0, self.zone.cz_length,
            None if prev is None else (prev.tm, prev.v_at_tm),
            relation == RELATION_SAME_LANE, self.zone.mz_length,
            self.bounds, self.headway)
        if truncated:
            log.warning("zone %d: gap term for vehicle %d truncated by the "
                        "kinematic ceiling; rear-end spacing not guaranteed",
                        self.zone.index, vehicle_id)
        # provisional merging speed until the planner reports the real one
        v_at_tm = self.zone.mz_speed
        entry = ScheduleEntry(vehicle_id=vehicle_id, zone=self.zone.index,
                              t0=t0, tm=tm, tf=tm + self.zone.mz_length / v_at_tm,
                              v_at_tm=v_at_tm, relation=relation, lane=lane,
                              truncated=truncated)
        self.history.append(entry)
        self._by_id[vehicle_id] = entry
        return entry

    def adjust_merging_time(self, vehicle_id: int, tm: float) -> ScheduleEntry:
        """Relax a merging time upward (infeasible-horizon retries)."""
        entry = self.entry(vehicle_id)
        if tm < entry.tm - 1e-12:
            raise ValueError("merging times may only be relaxed later, "
                             f"{tm:.3f} < {entry.tm:.3f}")
        entry.tm = tm
        entry.tf = tm + self.zone.mz_length / max(entry.v_at_tm, 1e-9)
        return entry

    def set_terminal_speed(self, vehicle_id: int, v_at_tm: float) -> ScheduleEntry:
        """Record the planned MZ-crossing speed and the MZ exit it books."""
        if v_at_tm <= 0:
            raise ValueError("merging speed must be positive")
        entry = self.entry(vehicle_id)
        entry.v_at_tm = v_at_tm
        entry.tf = entry.tm + self.zone.mz_length / v_at_tm
        return entry

    def release(self, vehicle_id: int, tf: float) -> ScheduleEntry:
        """Remove a vehicle from the queue, closing its MZ interval at tf.

        The entry stays in ``history`` for post-hoc occupancy checks; a later
        re-registration of the same vehicle books a fresh one.
        """
        entry = self.entry(vehicle_id)
        if tf < entry.tm:
            raise ValueError(f"exit at {tf:.3f} s precedes MZ entry {entry.tm:.3f} s")
        entry.tf = tf
        del self._by_id[vehicle_id]
        return entry
