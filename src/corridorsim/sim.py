"""Deterministic fixed-step corridor simulation.

Two driving modes share one integrator. Baseline vehicles run an
intelligent-driver car follower with anticipatory limit braking and
yield-at-the-line priority rules. Optimal vehicles register with the zone
coordinators at control-zone entry, receive a merging time, and track the
closed-form minimum-energy plan; outside control zones they fall back to
the baseline follower with yielding disabled.

Every step: spawn due arrivals, locate every vehicle once (one bisect into
its route's cells gives the zone windows, the speed limit and the limit
drops ahead; neighbour rows, control-zone entrants, which register in
optimal mode), compute each control from that snapshot and its trace row,
then integrate semi-implicitly (v first, then p with the new v). The step's
rows, controls first and then the rows of vehicles that left their route,
reach the trace sink in one ``extend``. Time is always step * dt computed
from the integer step, never accumulated.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

from corridorsim.core import (
    Approach,
    BaselineParams,
    Bounds,
    ConflictZoneSpec,
    CorridorConfig,
    RouteSpec,
    VehicleState,
)
from corridorsim.coordinator import ScheduleEntry, ZoneCoordinator
from corridorsim.trajectory import (
    BoundaryConditions,
    DegenerateHorizonError,
    InfeasibleHorizonError,
    TrajectoryCoefficients,
    evaluate,
    solve_bounded,
    terminal_speed,
)

__all__ = [
    "Spawner",
    "StepContext",
    "baseline_step",
    "MergePlan",
    "plan_merge",
    "optimal_step",
    "SimResult",
    "Simulation",
    "run",
]

log = logging.getLogger(__name__)

TM_RELAX_STEP = 0.1
TM_RELAX_LIMIT = 50
REANCHOR_TOLERANCE = 0.3   # m of tracking drift before a replan
MIN_SCHED_SPEED = 0.5      # floor for the scheduling speed of a crawling entrant
MIN_MERGE_SPEED = 0.05     # floor for a merging speed held or booked through the MZ
YIELD_CROSS_MARGIN = 1.0   # s added to the kinematic crossing time at a yield line
LINE_SETBACK = 0.2         # m short of the merging-zone line a yielder stops
GOVERNOR_MARGIN = 0.01     # m kept above the headway envelope by the governor


# ---------------------------------------------------------------------------
# spawning


class Spawner:
    """Pre-generated Poisson arrival streams, one independent seeded stream
    per route so adding a route never perturbs the others."""

    def __init__(self, config: CorridorConfig):
        self.config = config
        self._pending: dict[str, list[float]] = {}
        for idx, route in enumerate(config.routes):
            if config.spawn.probe_only:
                times = [0.0] if route.name == config.main_route else []
            else:
                times = self._draw(config.seed, idx, route.flow_vps, config.horizon)
            self._pending[route.name] = times

    @staticmethod
    def _draw(seed: int, route_index: int, rate: float, horizon: float) -> list[float]:
        if rate <= 0:
            return []
        import numpy as np   # here, so verbs that never spawn skip its import
        rng = np.random.default_rng(np.random.SeedSequence([seed, route_index]))
        times = []
        t = float(rng.exponential(1.0 / rate))
        while t < horizon:
            times.append(t)
            t += float(rng.exponential(1.0 / rate))
        return times

    def arrival_times(self, route: str) -> list[float]:
        return list(self._pending[route])

    def due(self, route: str, t: float) -> bool:
        q = self._pending[route]
        return bool(q) and q[0] <= t

    def pop(self, route: str) -> float:
        return self._pending[route].pop(0)


# ---------------------------------------------------------------------------
# baseline controller


class StepContext(NamedTuple):
    """Per-vehicle snapshot data the baseline follower needs beyond its own
    route leader: desired speed, upcoming limit drops, the projected
    cross-route leader inside a shared-lane merging zone, and yield state."""

    v_des: float
    dt: float
    bounds: Bounds
    limit_cuts: tuple[tuple[float, float], ...] = ()   # (distance, lower limit)
    projected: Optional[tuple[float, float]] = None     # (gap, leader speed)
    yield_blocked: bool = False
    line_gap: Optional[float] = None                    # distance to the stop point


# b if b > a else a is max(a, b) and b if b < a else a is min(a, b), signed
# zeros and NaN included; each clamp below keeps its max/min's argument order


def _idm_brake(v: float, params: BaselineParams, gap: float, dv: float) -> float:
    """Interaction term the IDM subtracts from the free-road acceleration."""
    a = params.max_accel
    min_gap = params.min_gap
    s_star = min_gap + v * params.headway \
        + v * dv / (2.0 * math.sqrt(a * params.comfort_decel))
    if min_gap > s_star:    # max(s_star, min_gap)
        s_star = min_gap
    return a * (s_star / (0.1 if 0.1 > gap else gap)) ** 2   # max(gap, 0.1)


def baseline_step(vehicle: VehicleState, leader: Optional[VehicleState],
                  params: BaselineParams, ctx: StepContext) -> float:
    """Car-following acceleration for one step, clipped to the global bounds."""
    v = vehicle.v
    v_des = ctx.v_des
    u = free = params.max_accel * (1.0 - (v / (0.1 if 0.1 > v_des else v_des))
                                   ** params.speed_exponent)
    if leader is not None:
        w = free - _idm_brake(v, params, leader.s - vehicle.s, v - leader.v)
        if w < u:
            u = w
    if ctx.projected is not None:
        gap, v_lead = ctx.projected
        w = free - _idm_brake(v, params, gap, v - v_lead)
        if w < u:
            u = w
    if ctx.limit_cuts:
        b = params.comfort_decel
        dt = ctx.dt
        for dist, lim in ctx.limit_cuts:
            if v > lim + 1e-9 and dist <= (v * v - lim * lim) / (2.0 * b) + v * dt:
                w = (lim - v) / dt
                if not w > -b:     # max(-b, w)
                    w = -b
                if w < u:
                    u = w
    if ctx.yield_blocked and ctx.line_gap is not None:
        gap = ctx.line_gap
        w = free - _idm_brake(v, params, 0.01 if 0.01 > gap else gap, v)
        if w < u:
            u = w
    bounds = ctx.bounds
    u_min = bounds.u_min
    if u_min > u:
        u = u_min
    u_max = bounds.u_max
    return u_max if u_max < u else u


def _time_to_cover(dist: float, v: float, accel: float, v_cap: float) -> float:
    """Time to cover dist starting at v, accelerating at accel up to v_cap."""
    if dist <= 0:
        return 0.0
    v = min(v, v_cap)
    if accel <= 0 or v >= v_cap - 1e-9:
        return dist / max(v_cap, 0.1)
    d_acc = (v_cap * v_cap - v * v) / (2.0 * accel)
    if dist <= d_acc:
        return (-v + math.sqrt(v * v + 2.0 * accel * dist)) / accel
    return (v_cap - v) / accel + (dist - d_acc) / v_cap


# ---------------------------------------------------------------------------
# optimal controller


class MergePlan(NamedTuple):
    """A minimum-energy plan to the MZ line: ``tm`` is the merging time it
    meets after ``relaxations`` relaxations of the booked one, ``v_hold`` the
    speed held through the MZ. ``clean`` is False when relaxation ran out and
    ``coeffs`` is the last attempt's partial plan, whose control clamps."""

    coeffs: TrajectoryCoefficients
    tm: float
    v_hold: float
    relaxations: int
    clean: bool


def plan_merge(p0: float, v0: float, t0: float, p_mz: float, zone: ConflictZoneSpec,
               tm: float, bounds: Bounds) -> MergePlan:
    """Plan from (p0, v0) at t0 to the MZ line p_mz at the booked merging
    time tm, adding TM_RELAX_STEP to tm until a clean plan exists, at most
    TM_RELAX_LIMIT times. The terminal speed is the zone's ``mz_speed`` or
    free, by its terminal rule. Out of relaxations, the last ``partial`` plan
    is returned: every relaxed horizon is well above the degenerate limit,
    and ``solve_bounded`` attaches a partial to every InfeasibleHorizonError
    it raises."""
    vt = zone.mz_speed if zone.terminal_rule == "mz_speed" else None
    coeffs = None
    clean = False
    for relaxations in range(TM_RELAX_LIMIT + 1):
        if relaxations:
            tm += TM_RELAX_STEP
        bc = BoundaryConditions(p0=p0, v0=v0, t0=t0, p_mz=p_mz, tm=tm, terminal_speed=vt)
        try:
            coeffs = solve_bounded(bc, bounds)
            clean = True
            break
        except DegenerateHorizonError:
            pass
        except InfeasibleHorizonError as exc:
            coeffs = exc.partial
    v_hold = max(terminal_speed(coeffs), MIN_MERGE_SPEED)
    return MergePlan(coeffs, tm, v_hold, relaxations, clean)


def optimal_step(vehicle: VehicleState, coeffs: TrajectoryCoefficients,
                 t: float, dt: float, bounds: Bounds,
                 v_hold: float) -> tuple[float, bool, float]:
    """Position-tracking realization of a planned trajectory.

    The command targets the plan position at the end of the step, which
    makes the integrated gridpoint positions exact and keeps the executed
    control at the midpoint sample of the planned linear control. Past tm
    the target extrapolates at the held merging speed. Returns (u, clamped,
    p_plan), where p_plan is the plan position at min(t + dt, tm): the
    reference the next step's position is checked against for drift.
    """
    tm = coeffs.tm
    t_next = t + dt
    if t_next <= tm + 1e-12:
        p_target = p_plan = evaluate(coeffs, t_next)[2]
    else:
        p_plan = evaluate(coeffs, tm)[2]
        p_target = p_plan + v_hold * (t_next - tm)
    v_target = (p_target - vehicle.s) / dt
    if 0.0 > v_target:      # max(v_target, 0.0)
        v_target = 0.0
    u = (v_target - vehicle.v) / dt
    u_min = bounds.u_min
    u_clipped = u_min if u_min > u else u
    u_max = bounds.u_max
    if u_max < u_clipped:
        u_clipped = u_max
    return u_clipped, abs(u - u_clipped) > 1e-9, p_plan


# ---------------------------------------------------------------------------
# simulation


@dataclass
class SimResult:
    rows: list[tuple]                 # (t, id, route, s, v, u, zone), or the sink given to run
    schedule: list[ScheduleEntry]     # sorted by (vehicle_id, zone)
    events: Counter
    spawned: int
    exited: int
    active_at_end: int

    @property
    def conserved(self) -> bool:
        return self.spawned == self.exited + self.active_at_end


def _least_float(pred, guess: float) -> float:
    """Least float at which ``pred`` holds, for a predicate that is false
    below and true above one point a few ulps from ``guess``."""
    s = guess
    while pred(s):
        s = math.nextafter(s, -math.inf)
    while not pred(s):
        s = math.nextafter(s, math.inf)
    return s


class _Slot:
    """One route's approach to one zone. Rebuilt every step: ``rows``, the
    route's (x, v, priority) inside the zone window, x measured from its MZ
    line; ``others``, the peers' rows (yielding only); ``mz_x``/``mz_v``, the
    peers inside the MZ sorted by x (shared lanes only)."""

    def __init__(self, zone: ConflictZoneSpec, ap: Approach, config: CorridorConfig):
        self.zone = zone
        self.ap = ap
        self.same_lane = zone.shared_lane
        self.v_cap = min(config.route(ap.route).limit_at(ap.mz_start - 1e-6),
                         config.bounds.v_max)
        # virtual stopped leader just past the line; the follower's
        # equilibrium gap then puts its nose a step short of the line
        self.stop_at = ap.mz_start + config.baseline.min_gap - LINE_SETBACK
        self.peers: tuple[_Slot, ...] = ()      # other routes into the zone


class _Route:
    """Per-route lookups built once, and the route's vehicles front first.

    ``cells[bisect_right(edges, s)]`` is (zone column, the slots whose window
    -cz_length <= s - mz_start < mz_length holds s, the first slot whose
    [cz_start, mz_start) holds s or None, ``spec.limit_at(s)``, the index
    ``bisect_right(cuts, (s, inf))`` of the first limit drop past s). Window
    ends are the least floats at which each comparison turns, and every
    segment join is an edge, so the lookup matches each comparison, the
    limit and the cut index at every float.
    """

    def __init__(self, spec: RouteSpec, slots: list[_Slot]):
        self.name = spec.name
        self.spec = spec
        self.end = spec.length - 1e-9
        self.v_enter = spec.limit_at(0.0)
        bnds = spec.limit_boundaries()
        self.cuts = tuple((pos, lim) for (pos, lim), (_, prev) in zip(bnds[1:], bnds)
                          if lim < prev)
        self.slots = slots
        self.order: list[VehicleState] = []
        wins = []
        for sl in slots:
            zone, ap = sl.zone, sl.ap
            mz = ap.mz_start
            frame = (_least_float(lambda s: -zone.cz_length <= s - mz, ap.cz_start),
                     _least_float(lambda s: not s - mz < zone.mz_length, mz + zone.mz_length))
            wins.append((sl, frame, (ap.cz_start, ap.mz_start + zone.mz_length),
                         (ap.cz_start, ap.mz_start)))
        self.edges = sorted({e for w in wins for lo_hi in w[1:] for e in lo_hi}
                            | {pos for pos, _ in bnds[1:]})
        self.cells = []
        for e in [-math.inf] + self.edges:     # each cell from its least float
            self.cells.append((
                next((w[0].zone.index for w in wins if w[2][0] <= e < w[2][1]), 0),
                tuple(w[0] for w in wins if w[1][0] <= e < w[1][1]),
                next((w[0] for w in wins if w[3][0] <= e < w[3][1]), None),
                spec.limit_at(e),
                bisect_right(self.cuts, (e, math.inf))))


@dataclass(slots=True)
class _Passage:
    """Progress of one vehicle through one zone."""

    slot: _Slot
    phase: str                        # cz | mz
    plan: Optional[MergePlan] = None  # not clean: relaxation gave up, drift is expected
    p_plan: Optional[float] = None    # plan position now; None right after planning


class Simulation:
    def __init__(self, config: CorridorConfig, rows=None):
        self.cfg = config
        self.bounds = config.bounds
        self.dt = config.dt
        self.spawner = Spawner(config)
        self.routes = [_Route(r, [_Slot(zone, ap, config) for zone, ap in config.zones_on(r.name)])
                       for r in config.routes]
        self.slots = [sl for rt in self.routes for sl in rt.slots]
        for sl in self.slots:
            sl.peers = tuple(o for ap in sl.zone.approaches if ap.route != sl.ap.route
                             for o in self.slots if o.zone is sl.zone and o.ap is ap)
        self.coordinators = {z.index: ZoneCoordinator(z, config.bounds, config.headway)
                             for z in config.zones}
        self.passages: dict[int, _Passage] = {}
        self.rows = [] if rows is None else rows
        self.events: Counter = Counter()
        self._next_id = 1
        self._spawned = 0
        self._exited = 0

    # -- spawning ----------------------------------------------------------

    def _spawn_due(self, t: float) -> None:
        b = -self.bounds.u_min
        h = self.cfg.headway
        for rt in self.routes:
            while self.spawner.due(rt.name, t):
                v0 = rt.v_enter
                order = rt.order
                if order:
                    # insertion speed capped so the new vehicle starts inside
                    # the headway envelope and could still stop behind the
                    # back of the queue at full braking
                    back = order[-1]
                    headroom = back.s - self.cfg.spawn.min_lead \
                        + back.v * back.v / (2.0 * b)
                    v_safe = 0.0
                    if headroom > 0.0:
                        v_quad = b * (-h + math.sqrt(h * h + 2.0 * headroom / b))
                        v_safe = min(v_quad, (back.s - self.cfg.spawn.min_lead) / h)
                    if v_safe < 0.5:
                        self.events["spawn_withheld"] += 1
                        break
                    v0 = min(v0, v_safe)
                self.spawner.pop(rt.name)
                order.append(VehicleState(vehicle_id=self._next_id, route=rt.name,
                                          s=0.0, v=v0))
                self._next_id += 1
                self._spawned += 1

    # -- optimal-mode planning ----------------------------------------------

    def _plan(self, state: VehicleState, slot: _Slot, t: float) -> None:
        coord = self.coordinators[slot.zone.index]
        entry = coord.register_arrival(state.vehicle_id, t0=t,
                                       v0=max(state.v, MIN_SCHED_SPEED), lane=slot.ap.lane)
        if entry.truncated:
            self.events["gap_truncations"] += 1
        passage = self.passages[state.vehicle_id] = _Passage(slot=slot, phase="cz")
        self._solve(state, passage, coord, entry, t)

    def _solve(self, state: VehicleState, passage: _Passage, coord: ZoneCoordinator,
               entry: ScheduleEntry, t: float) -> None:
        """Plan ``passage`` from the current state and book the plan's
        merging time and speed."""
        vid, zone = state.vehicle_id, passage.slot.zone
        plan = passage.plan = plan_merge(state.s, state.v, t, passage.slot.ap.mz_start,
                                         zone, entry.tm, self.bounds)
        if plan.relaxations:
            coord.adjust_merging_time(vid, plan.tm)
            self.events["tm_relaxations"] += plan.relaxations
        if not plan.clean:
            self.events["relax_exhausted"] += 1
            log.warning("vehicle %d zone %d: no clean plan after %d relaxations; "
                        "executing with control clamped", vid, zone.index, TM_RELAX_LIMIT)
        coord.set_terminal_speed(vid, plan.v_hold)

    def _replan(self, state: VehicleState, passage: _Passage, t: float) -> None:
        coord = self.coordinators[passage.slot.zone.index]
        entry = coord.entry(state.vehicle_id)
        if entry.tm - t < 2 * self.dt:
            return   # too close to the merge to re-pose the problem
        self.events["replans"] += 1
        self._solve(state, passage, coord, entry, t)

    # -- per-step snapshot ---------------------------------------------------

    def _snapshot(self, t: float, optimal: bool) -> list[list[tuple]]:
        """Locate every vehicle once: fill the slots' rows, register control-
        zone entrants (optimal mode) and build each slot's view of its peers.
        Returns every route's cells in route order."""
        for sl in self.slots:
            sl.rows = []
        passages = self.passages
        entrants = []
        located = []
        for rt in self.routes:
            edges, cells = rt.edges, rt.cells
            here = []
            for st in rt.order:
                s = st.s
                cell = cells[bisect_right(edges, s)]
                here.append(cell)
                for sl in cell[1]:
                    sl.rows.append((s - sl.ap.mz_start, st.v, sl.ap.priority))
                if optimal and cell[2] is not None and st.vehicle_id not in passages:
                    entrants.append((st.route != self.cfg.main_route, st.route,
                                     st.vehicle_id, st, cell[2]))
            located.append(here)
        entrants.sort(key=lambda e: (e[0], e[1], e[2]))
        for _, _, _, st, sl in entrants:
            self._plan(st, sl, t)
        for sl in self.slots:
            if not optimal:
                sl.others = [row for peer in sl.peers for row in peer.rows]
            if sl.same_lane:
                # stable: among equal x the first in scan order comes first
                mz = sorted((row for peer in sl.peers for row in peer.rows if 0.0 <= row[0]),
                            key=lambda row: row[0])
                sl.mz_x = [row[0] for row in mz]
                sl.mz_v = [row[1] for row in mz]
        return located

    def _context(self, rt: _Route, cell: tuple, slot: Optional[_Slot], s: float, v: float,
                 x: float, ahead: int, yielding: bool) -> StepContext:
        i = cell[4]     # the first limit drop past s
        cuts = tuple([(pos - s, lim) for pos, lim in rt.cuts[i:]]) if i < len(rt.cuts) else ()
        projected = None
        blocked = False
        line_gap = None
        if slot is not None:
            if slot.same_lane:
                if ahead >= 0:   # nearest peer ahead inside the MZ, slowest of equals
                    ox, ov = min(zip(slot.mz_x[ahead:], slot.mz_v[ahead:]))
                    projected = (ox - x, ov)
                if yielding and not slot.ap.priority and x < 0.0:
                    blocked = self._same_lane_blocked(v, x, slot.others)
            elif yielding and x < 0.0:
                if slot.ap.priority:
                    blocked = any(0.0 <= ox and not opri for ox, _, opri in slot.others)
                else:
                    blocked = self._conflict_blocked(v, x, slot)
            if blocked:
                line_gap = slot.stop_at - s
        return StepContext(cell[3], self.dt, self.bounds, cuts, projected, blocked, line_gap)

    def _same_lane_blocked(self, v: float, x: float, others) -> bool:
        p = self.cfg.baseline
        tau_me = -x / max(v, 0.3)
        for ox, ov, _ in others:
            if ox >= 0.0:
                # someone just past the join, too close to slot in behind
                if ox < p.headway * v + p.min_gap:
                    return True
            else:
                tau_o = -ox / max(ov, 0.3)
                if abs(tau_o - tau_me) < p.headway:
                    return True
        return False

    def _conflict_blocked(self, v: float, x: float, slot: _Slot) -> bool:
        p = self.cfg.baseline
        if any(0.0 <= ox for ox, _, _ in slot.others):
            return True
        crossing = _time_to_cover(-x + slot.zone.mz_length, v, p.max_accel, slot.v_cap)
        window = max(p.yield_gap, crossing + YIELD_CROSS_MARGIN)
        for ox, ov, _ in slot.others:
            if ox < 0.0 and -ox / max(ov, 0.3) < window:
                return True
        return False

    # -- safety governor -----------------------------------------------------

    def _headway_ceiling(self):
        """ceiling(gap, v_f, v_lead, u_lead): largest control that keeps the
        pair safe after this step. The gap must stay above headway * own speed
        and the braking differential (v_f^2 - v_l^2) / 2b on top of it, so the
        envelope remains achievable even if the leader brakes to a stop at
        the hardest rate anyone can."""
        dt = self.dt
        b = -self.bounds.u_min
        h_dt = self.cfg.headway + dt
        h_dt_sq = h_dt ** 2
        two_b = 2.0 * b

        def ceiling(gap: float, v_f: float, v_lead: float, u_lead: float) -> float:
            v_lead_next = v_lead + u_lead * dt
            if 0.0 > v_lead_next:
                v_lead_next = 0.0
            avail = gap + v_lead_next * dt - GOVERNOR_MARGIN
            v_linear = avail / h_dt
            disc = h_dt_sq + 2.0 * (avail + v_lead_next ** 2 / two_b) / b
            v_quad = b * (-h_dt + math.sqrt(0.0 if 0.0 > disc else disc))
            return ((v_quad if v_quad < v_linear else v_linear) - v_f) / dt

        return ceiling

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimResult:
        optimal = self.cfg.mode == "optimal"
        n_steps = int(round(self.cfg.horizon / self.dt))
        ceiling = self._headway_ceiling()
        sink = self.rows
        for step in range(n_steps):
            t = step * self.dt
            self._spawn_due(t)
            located = self._snapshot(t, optimal)
            rows: list[tuple] = []
            self._control(t, optimal, located, ceiling, rows)
            self._integrate((step + 1) * self.dt, optimal, rows)
            sink.extend(rows)
        schedule = sorted((e for coord in self.coordinators.values() for e in coord.history),
                          key=lambda e: (e.vehicle_id, e.zone))
        return SimResult(rows=self.rows, schedule=schedule, events=self.events,
                         spawned=self._spawned, exited=self._exited,
                         active_at_end=sum(len(rt.order) for rt in self.routes))

    def _control(self, t: float, optimal: bool, located: list[list[tuple]],
                 ceiling, rows: list[tuple]) -> None:
        """Every control from the snapshot, in route order, each followed by
        its trace row in ``rows``. In optimal mode a headway governor caps
        the control behind the route leader and behind the projected MZ peer
        (whose control is unknown: full braking is assumed). It is meant to
        idle in correctly scheduled traffic and bind only on degraded plans."""
        dt = self.dt
        bounds = self.bounds
        u_min, u_max = bounds.u_min, bounds.u_max
        params = self.cfg.baseline
        passages = self.passages
        events = self.events
        for rt, cells in zip(self.routes, located):
            name = rt.name
            leader = None
            u_lead = u_min
            for st, cell in zip(rt.order, cells):
                s, v, vid = st.s, st.v, st.vehicle_id
                slot = cell[1][0] if cell[1] else None
                x = s - slot.ap.mz_start if slot is not None else 0.0
                ahead = -1      # index of the projected MZ peer, if any
                if slot is not None and slot.same_lane:
                    ahead = bisect_right(slot.mz_x, x)
                    if ahead == len(slot.mz_x):
                        ahead = -1
                passage = passages.get(vid) if optimal else None
                if passage is None:
                    u = baseline_step(st, leader, params,
                                      self._context(rt, cell, slot, s, v, x, ahead, not optimal))
                elif passage.phase == "mz":
                    v_hold = passage.plan.v_hold
                    u = (v_hold - v) / dt
                    if u_min > u:       # min(max(u, u_min), u_max)
                        u = u_min
                    if u_max < u:
                        u = u_max
                    if v < 0.3 and v_hold < 0.3:
                        u = 0.5 if 0.5 < u_max else u_max     # min(u_max, 0.5)
                        events["mz_crawl_steps"] += 1
                else:
                    if (passage.p_plan is not None and passage.plan.clean
                            and abs(s - passage.p_plan) > REANCHOR_TOLERANCE):
                        self._replan(st, passage, t)
                    plan = passage.plan
                    u, clamped, passage.p_plan = optimal_step(
                        st, plan.coeffs, t, dt, bounds, plan.v_hold)
                    if clamped:
                        events["control_clamps"] += 1
                if optimal:
                    cap = math.inf
                    if leader is not None:
                        cap = ceiling(leader.s - s, v, leader.v, u_lead)
                    if ahead >= 0:
                        c = ceiling(slot.mz_x[ahead] - x, v, slot.mz_v[ahead], u_min)
                        if c < cap:     # min(cap, c)
                            cap = c
                    if u > cap:
                        events["governor_caps"] += 1
                        u = u_min if u_min > cap else cap     # max(cap, u_min)
                st.u = u
                rows.append((t, vid, name, s, v, u, cell[0]))
                leader = st
                u_lead = u

    def _integrate(self, t_next: float, optimal: bool, rows: list[tuple]) -> None:
        """Advance every vehicle one step; a vehicle that leaves its route
        appends its terminal row at ``t_next`` to ``rows``."""
        dt = self.dt
        passages = self.passages
        for rt in self.routes:
            end = rt.end
            gone = False
            for st in rt.order:
                u = st.u
                v_new = st.v + u * dt
                if 0.0 > v_new:     # max(v_new, 0.0)
                    v_new = 0.0
                st.s += v_new * dt
                st.v = v_new
                passage = passages.get(st.vehicle_id) if optimal else None
                if passage is not None:
                    ap, zone = passage.slot.ap, passage.slot.zone
                    if passage.phase == "cz" and st.s >= ap.mz_start - 1e-9:
                        passage.phase = "mz"
                    if passage.phase == "mz" and st.s >= ap.mz_start + zone.mz_length - 1e-9:
                        self.coordinators[zone.index].release(st.vehicle_id, t_next)
                        del passages[st.vehicle_id]
                if st.s >= end:
                    rows.append((t_next, st.vehicle_id, rt.name, st.s, v_new, u,
                                 rt.cells[bisect_right(rt.edges, st.s)][0]))
                    passages.pop(st.vehicle_id, None)
                    self._exited += 1
                    gone = True
            if gone:
                rt.order = [st for st in rt.order if st.s < end]


def run(config: CorridorConfig, rows=None) -> SimResult:
    """Run one seeded simulation to the horizon. Trace rows go to ``rows``,
    anything with an ``extend`` (a new list when not given): one call per
    step with that step's rows in trace order."""
    return Simulation(config, rows).run()
