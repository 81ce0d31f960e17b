"""On-board head unit: plans ego speed commands from received safety messages.

The unit models one ghost vehicle driving the configured main route alongside
the broadcast traffic.  Each tick it

1. integrates ego distance at the last commanded speed,
2. locates the current coordination zone from hard-coded route geometry,
3. filters buffered frames to that zone (the buffer holds each vehicle's
   latest frame; a frame stamped more than ``stale_after`` before the tick
   is dropped, with the buffer swept only on ticks where such a frame can
   be in it),
4. picks the frame immediately ahead by distance-to-zone as putative leader
   (nearest larger distance below ego's own; ties break on lower vehicle id),
5. schedules its merging time with ``coordinator.merging_time``, the
   recursion the zone coordinators run: behind the leader's broadcast
   merging time, or from its own kinematics with no leader,
6. solves the energy-optimal trajectory and emits the planned speed.

Plans are recomputed only when the leader identity or its merging time
changes, so the command stream is a deterministic function of the frame
stream and the tick grid.  Ticks are driven by a data clock derived from
frame timestamps; wall pacing upstream changes nothing downstream.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable, Iterator

from corridorsim.coordinator import merging_time
from corridorsim.core import Approach, ConflictZoneSpec, CorridorConfig
from corridorsim.sim import MIN_MERGE_SPEED, MIN_SCHED_SPEED, MergePlan, plan_merge
# solve_bounded is unused here; benchmarks/layers.py patches this name
from corridorsim.trajectory import evaluate, solve_bounded  # noqa: F401
from corridorsim.v2x.broker import BrokerClient
from corridorsim.v2x.bsm import BSM_TOPICS, DIST_UNIT, MSG_SPAT, BsmFrame, FrameError, decode_bsm

log = logging.getLogger(__name__)

__all__ = [
    "HeadUnitCore",
    "command_stream",
    "socket_frames",
    "run_over_socket",
    "BSM_TOPICS",
]

_DIST_EPS = 1e-9


class HeadUnitCore:
    """Pure planning logic; clock and transport agnostic.

    Feed frames with :meth:`ingest`, then call :meth:`tick` with monotone
    timestamps; every tick returns the speed command in m/s.
    """

    def __init__(self, config: CorridorConfig, stale_after: float = 1.0):
        self.cfg = config
        self.route = config.route(config.main_route)
        self.zones = config.zones_on(self.route.name)
        self.bounds = config.bounds
        self.headway = config.headway
        self.stale_after = stale_after

        self.dist = 0.0
        self.v_cmd = self.route.limit_at(0.0)
        self.buffer: dict[int, BsmFrame] = {}
        # at most the oldest buffered timestamp_ms; inf for an empty buffer
        self._oldest_ms: float = math.inf
        self.t_last_rx: float | None = None
        self._t_prev: float | None = None

        # the plan followed, and the (zone, leader id, leader tm_ms) it is for
        self.plan: MergePlan | None = None
        self.plan_key: tuple | None = None

        self.decode_errors = 0
        self.spat_frames = 0
        self.stale = False
        self.stale_ticks = 0
        self.replans = 0
        self.clamped_plans = 0

    # ------------------------------------------------------------------
    # intake

    def ingest(self, frame: BsmFrame, t: float) -> None:
        if frame.msg_id == MSG_SPAT:
            self.spat_frames += 1
            return
        self.buffer[frame.vehicle_id] = frame
        if frame.timestamp_ms < self._oldest_ms:
            self._oldest_ms = frame.timestamp_ms
        self.t_last_rx = t

    @property
    def v_hold(self) -> float | None:
        """Speed the plan followed holds through the merging zone."""
        return None if self.plan is None else self.plan.v_hold

    @property
    def leader_id(self) -> int | None:
        """Vehicle the plan followed is scheduled behind."""
        return None if self.plan_key is None else self.plan_key[1]

    # ------------------------------------------------------------------
    # per-tick planning

    def tick(self, t: float) -> float:
        if self._t_prev is not None and t > self._t_prev:
            self.dist += self.v_cmd * (t - self._t_prev)
        self._t_prev = t
        self._expire(t)

        hit = self._locate(self.dist)
        if hit is None:
            self.plan = self.plan_key = None
            self.v_cmd = self.route.limit_at(self.dist)
            return self.v_cmd
        zone, ap = hit

        if self.dist >= ap.mz_start:
            # merging zone is crossed at the planned constant speed
            self.v_cmd = zone.mz_speed if self.plan is None else self.plan.v_hold
            return self.v_cmd

        # feed loss: hold the last command rather than replan on thin air
        self.stale = (self.t_last_rx is not None
                      and t - self.t_last_rx > self.stale_after)
        if self.stale:
            self.stale_ticks += 1
            return self.v_cmd

        leader = self._leader(zone, ap)
        key = (zone.index,
               leader.vehicle_id if leader else None,
               leader.tm_ms if leader else None)
        if self.plan is None or key != self.plan_key:
            self._replan(zone, ap, leader, t)
            self.plan_key = key
        coeffs = self.plan.coeffs
        _, v, _ = evaluate(coeffs, min(t, coeffs.tm))
        self.v_cmd = min(max(v, 0.0), self.bounds.v_max)
        return self.v_cmd

    # ------------------------------------------------------------------
    # internals

    def _expire(self, t: float) -> None:
        """Drop frames stamped more than ``stale_after`` before ``t``.

        The buffer is swept only when the lower bound on its timestamps is
        itself stale: the test is monotone in the timestamp, so while the
        bound is fresh every frame is.  Each sweep sets the bound to the
        oldest frame left; ``ingest`` lowers it.
        """
        cutoff = t - self.stale_after
        if not self._oldest_ms / 1000.0 < cutoff:
            return
        buffer = self.buffer
        for vid in [vid for vid, f in buffer.items()
                    if f.timestamp_ms / 1000.0 < cutoff]:
            del buffer[vid]
        self._oldest_ms = min((f.timestamp_ms for f in buffer.values()),
                              default=math.inf)

    def _locate(self, d: float):
        for zone, ap in self.zones:
            if ap.cz_start <= d < ap.mz_start + zone.mz_length:
                return zone, ap
        return None

    def _leader(self, zone: ConflictZoneSpec, ap: Approach) -> BsmFrame | None:
        """Closest frame strictly ahead by distance-to-zone; ties on lower id.

        The scan is order independent: the (distance, id) key is total, so
        frame arrival order within a tick cannot change the choice.
        """
        cz = zone.index
        limit = ap.mz_start - self.dist - _DIST_EPS
        best = None
        for frame in self.buffer.values():
            if frame.cz != cz or frame.dist_dm * DIST_UNIT >= limit:
                continue
            if (best is None or frame.dist_dm > best.dist_dm
                    or (frame.dist_dm == best.dist_dm
                        and frame.vehicle_id < best.vehicle_id)):
                best = frame
        return best

    def _replan(self, zone: ConflictZoneSpec, ap: Approach,
                leader: BsmFrame | None, t: float) -> None:
        self.replans += 1
        # the frame carries no lane: in a shared-lane zone any leader is a
        # same-lane one
        tm, _ = merging_time(
            t, max(self.v_cmd, MIN_SCHED_SPEED), max(ap.mz_start - self.dist, 1e-6),
            None if leader is None else (leader.tm_s, max(leader.speed_mps, MIN_MERGE_SPEED)),
            zone.shared_lane, zone.mz_length, self.bounds, self.headway)
        plan = plan_merge(self.dist, self.v_cmd, t, ap.mz_start, zone, tm, self.bounds)
        if not plan.clean:
            self.clamped_plans += 1
            log.warning("headunit: no clean plan at d=%.1f m; clamping", self.dist)
        self.plan = plan


def command_stream(frames: Iterable[BsmFrame], core: HeadUnitCore,
                   rate: float = 100.0) -> Iterator[tuple[float, float]]:
    """Drive core ticks from frame timestamps; yield (t, command) pairs.

    Ticks fire every 1/rate seconds of data time starting at the first
    frame's timestamp.  A frame stamped at or before a tick instant is
    ingested before that tick fires, so the stream is reproducible no
    matter how the frames were paced on the wire.
    """
    dt = 1.0 / rate
    t0 = None
    n = 0
    for frame in frames:
        ts = frame.timestamp_ms / 1000.0
        if t0 is None:
            t0 = ts
        while t0 + n * dt < ts - 1e-9:
            t = t0 + n * dt
            yield (t, core.tick(t))
            n += 1
        core.ingest(frame, ts)
    if t0 is not None:
        t = t0 + n * dt
        yield (t, core.tick(t))


def socket_frames(client: BrokerClient, core: HeadUnitCore,
                  idle_timeout: float = 2.0) -> Iterator[BsmFrame]:
    """Decode broker deliveries into frames; stop after idle_timeout of quiet.

    Undecodable payloads are dropped and counted on the core.
    """
    client.settimeout(idle_timeout)
    while True:
        try:
            msg = client.recv()
        except (TimeoutError, OSError):
            return
        if msg is None:
            return
        try:
            yield decode_bsm(msg[1])
        except FrameError:
            core.decode_errors += 1


def run_over_socket(address: tuple[str, int], core: HeadUnitCore,
                    idle_timeout: float = 2.0) -> Iterator[tuple[float, float]]:
    """Subscribe to every BSM topic, then stream (t, command) at 100 ticks
    per second of data time until the feed goes quiet.

    Subscriptions are sent before this returns (the broker keeps no
    history, so they must land before the publisher starts).
    """
    client = BrokerClient(address)
    for topic in BSM_TOPICS:
        client.subscribe(topic)
    client.sync()

    def _stream():
        try:
            yield from command_stream(
                socket_frames(client, core, idle_timeout), core)
        finally:
            client.close()

    return _stream()
