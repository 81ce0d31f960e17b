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
from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from corridorsim.core import (
    Approach,
    Bounds,
    ConflictZoneSpec,
    CorridorConfig,
    HEADWAY,
    RouteSpec,
    VehicleState,
    crossed,
    crossing_time,
)
from corridorsim.coordinator import ScheduleEntry, ZoneCoordinator
from corridorsim.trajectory import (
    BoundaryConditions,
    DegenerateHorizonError,
    InfeasibleHorizonError,
    TrajectoryCoefficients,
    evaluate,
    horizon_edges,
    solve_bounded,
    terminal_speed,
)

__all__ = [
    "arrival_times",
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

REANCHOR_TOLERANCE = 0.3   # m of tracking drift before a replan
MIN_SCHED_SPEED = 0.5      # floor for the scheduling speed of a crawling entrant
MIN_MERGE_SPEED = 0.05     # floor for a merging speed held or booked through the MZ
_SNAP_ULPS = 256           # the most floats _least_float walks from its guess
YIELD_CROSS_MARGIN = 1.0   # s added to the kinematic crossing time at a yield line
LINE_SETBACK = 0.2         # m short of the merging-zone line a yielder stops
GOVERNOR_MARGIN = 0.01     # m kept above the headway envelope by the governor

# baseline car following (IDM) and yielding at the merging-zone line
MAX_ACCEL = 1.5            # m/s2, the follower's free-road acceleration
COMFORT_DECEL = 3.0        # m/s2, its comfortable braking, also for limit drops
MIN_GAP = 2.0              # m, the standstill gap; it also places a yield line's stop
FOLLOW_HEADWAY = 1.2       # s of time gap the IDM follower keeps
YIELD_GAP = 4.0            # s, the least window in which a crossing peer blocks the line
SPEED_EXPONENT = 4.0       # exponent of the free-road term (v / v_des) ** 4.0
_IDM_BRAKE_SCALE = 2.0 * math.sqrt(MAX_ACCEL * COMFORT_DECEL)   # m/s2

# spawning: a new vehicle enters this far behind the back of its queue, and
# is withheld where that allows it less than the speed floor
SPAWN_MIN_LEAD = 2.0       # m
SPAWN_MIN_SPEED = 0.5      # m/s


# ---------------------------------------------------------------------------
# spawning


def arrival_times(config: CorridorConfig, route_index: int) -> list[float]:
    """Spawn times of ``config.routes[route_index]`` before the horizon, in
    order: a Poisson stream of the route's flow from its own seeded
    generator, so adding a route never perturbs the others."""
    rate = config.routes[route_index].flow_vps
    if rate <= 0:
        return []
    import numpy as np   # here, so verbs that never spawn skip its import
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, route_index]))
    times = []
    t = float(rng.exponential(1.0 / rate))
    while t < config.horizon:
        times.append(t)
        t += float(rng.exponential(1.0 / rate))
    return times


# ---------------------------------------------------------------------------
# baseline controller


class StepContext(NamedTuple):
    """Per-vehicle snapshot data the baseline follower needs beyond its own
    route leader: desired speed, upcoming limit drops, the projected
    cross-route leader inside a shared-lane merging zone, and, for a
    vehicle that must yield at the merging-zone line, its distance to the
    stop point."""

    v_des: float
    dt: float
    bounds: Bounds
    limit_cuts: tuple[tuple[float, float], ...] = ()   # (distance, lower limit)
    projected: Optional[tuple[float, float]] = None     # (gap, leader speed)
    line_gap: Optional[float] = None                    # distance to the stop point, if yielding


# b if b > a else a is max(a, b) and b if b < a else a is min(a, b), signed
# zeros and NaN included; each clamp below keeps its max/min's argument order


def _idm_brake(v: float, gap: float, dv: float) -> float:
    """Interaction term the IDM subtracts from the free-road acceleration."""
    s_star = MIN_GAP + v * FOLLOW_HEADWAY + v * dv / _IDM_BRAKE_SCALE
    if MIN_GAP > s_star:    # max(s_star, MIN_GAP)
        s_star = MIN_GAP
    return MAX_ACCEL * (s_star / (0.1 if 0.1 > gap else gap)) ** 2   # max(gap, 0.1)


def baseline_step(vehicle: VehicleState, leader: Optional[VehicleState],
                  ctx: StepContext) -> float:
    """Car-following acceleration for one step, clipped to the global bounds."""
    v = vehicle.v
    v_des = ctx.v_des
    u = free = MAX_ACCEL * (1.0 - (v / (0.1 if 0.1 > v_des else v_des)) ** SPEED_EXPONENT)
    if leader is not None:
        w = free - _idm_brake(v, leader.s - vehicle.s, v - leader.v)
        if w < u:
            u = w
    if ctx.projected is not None:
        gap, v_lead = ctx.projected
        w = free - _idm_brake(v, gap, v - v_lead)
        if w < u:
            u = w
    if ctx.limit_cuts:
        b = COMFORT_DECEL
        dt = ctx.dt
        for dist, lim in ctx.limit_cuts:
            if v > lim + 1e-9 and dist <= (v * v - lim * lim) / (2.0 * b) + v * dt:
                w = (lim - v) / dt
                if not w > -b:     # max(-b, w)
                    w = -b
                if w < u:
                    u = w
    if ctx.line_gap is not None:
        gap = ctx.line_gap
        w = free - _idm_brake(v, 0.01 if 0.01 > gap else gap, v)
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
    meets, the least one at or after the booked time that has a clean plan,
    and ``v_hold`` the speed held through the MZ. ``clean`` is False when no
    horizon at or after the booked one has a clean plan: ``tm`` is then the
    booked time and ``coeffs`` its partial plan, whose control clamps. A
    booked horizon too short to pose (under 1 us) has no partial; ``tm`` is
    then the first later horizon that has one, so such a plan is both moved
    later and not clean."""

    coeffs: TrajectoryCoefficients
    tm: float
    v_hold: float
    clean: bool


def plan_merge(p0: float, v0: float, t0: float, p_mz: float, zone: ConflictZoneSpec,
               tm: float, bounds: Bounds) -> MergePlan:
    """Plan from (p0, v0) at t0 to the MZ line p_mz at the least merging
    time at or after the booked tm at which ``solve_bounded`` returns a
    clean plan. The terminal speed is the zone's ``mz_speed`` or free, by
    its terminal rule.

    ``horizon_edges`` cuts the later horizons into spans on each of which
    the solve is clean everywhere or nowhere. One solve inside each span,
    in ascending order, finds the first clean one; its lower edge is
    snapped to the least float at which the solve is clean. When no span is
    clean, the plan is ``solve_bounded``'s partial at tm itself. (A booked
    horizon too short to pose has no partial; it takes the first span's.)"""
    vt = zone.mz_speed if zone.terminal_rule == "mz_speed" else None

    def attempt(tm: float) -> tuple[Optional[TrajectoryCoefficients], bool]:
        """The plan at merging time tm and whether it is clean; the partial
        plan, or None for a horizon too short to pose, when it is not."""
        bc = BoundaryConditions(p0=p0, v0=v0, t0=t0, p_mz=p_mz, tm=tm, terminal_speed=vt)
        try:
            return solve_bounded(bc, bounds), True
        except DegenerateHorizonError:
            return None, False
        except InfeasibleHorizonError as exc:
            return exc.partial, False

    coeffs, clean = attempt(tm)
    if not clean:
        starts = [tm] + [t0 + e for e in horizon_edges(p0, v0, p_mz, vt, bounds) if t0 + e > tm]
        for start, end in zip(starts, starts[1:] + [starts[-1] + 2.0]):
            probe = 0.5 * (start + end)
            partial, clean = attempt(probe)
            if clean:   # not clean at the span before, so the walk stays in this one
                tm = _least_float(lambda s: attempt(s)[1], start)
                coeffs = attempt(tm)[0]
                break
            if coeffs is None:
                coeffs, tm = partial, probe
    v_hold = max(terminal_speed(coeffs), MIN_MERGE_SPEED)
    return MergePlan(coeffs, tm, v_hold, clean)


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


def _least_float(pred, guess: float) -> float:
    """Least float at which ``pred`` holds, for a predicate that is false
    below and true above one point a few ulps from ``guess``. Raises
    RuntimeError when the walk passes _SNAP_ULPS floats: ``guess`` was not
    near the switch."""
    s = guess
    walked = 0

    def step(s: float, to: float) -> float:
        nonlocal walked
        walked += 1
        if walked > _SNAP_ULPS:
            raise RuntimeError(f"no switch within {_SNAP_ULPS} floats of {guess!r}")
        return math.nextafter(s, to)

    while pred(s):
        s = step(s, -math.inf)
    while not pred(s):
        s = step(s, math.inf)
    return s


class _Slot:
    """One route's approach to one zone. Rebuilt every step: ``rows``, the
    route's (x, v, priority) at every s in [cz_start, mz_start +
    mz_length), the window of the trace's zone column, with x = s - mz_start;
    ``others``, the peers' rows (yielding only); ``mz_x``/``mz_v``, the
    peers inside the MZ sorted by x (shared lanes only)."""

    def __init__(self, zone: ConflictZoneSpec, ap: Approach, config: CorridorConfig):
        self.zone = zone
        self.ap = ap
        self.same_lane = zone.shared_lane
        self.v_cap = min(config.route(ap.route).limit_at(ap.mz_start - 1e-6),
                         config.bounds.v_max)
        # virtual stopped leader just past the line; the follower's
        # equilibrium gap then puts its nose a step short of the line
        self.stop_at = ap.mz_start + MIN_GAP - LINE_SETBACK
        self.peers: tuple[_Slot, ...] = ()      # other routes into the zone


class _Route:
    """Per-route lookups built once, the route's vehicles front first, and
    its arrival times (``arrival_times``) not yet spawned, next first.

    ``cells[bisect_right(edges, s)]`` is (zone column, the slots whose
    window [cz_start, mz_start + mz_length) holds s, the first slot whose
    [cz_start, mz_start) holds s or None, ``spec.limit_at(s)``, the index
    ``bisect_right(cuts, (s, inf))`` of the first limit drop past s). The
    zone column is the index of the first slot whose window holds s, or 0.
    Every window end and segment join is an edge, so the lookup matches
    each comparison, the limit and the cut index at every float.
    """

    def __init__(self, spec: RouteSpec, slots: list[_Slot], arrivals: list[float]):
        self.name = spec.name
        self.spec = spec
        self.v_enter = spec.limit_at(0.0)
        bnds = spec.limit_boundaries()
        self.cuts = tuple((pos, lim) for (pos, lim), (_, prev) in zip(bnds[1:], bnds)
                          if lim < prev)
        self.slots = slots
        self.order: list[VehicleState] = []
        self.arrivals = deque(arrivals)
        wins = [(sl, sl.ap.cz_start, sl.ap.mz_start, sl.ap.mz_start + sl.zone.mz_length)
                for sl in slots]
        self.edges = sorted({e for w in wins for e in w[1:]} | {pos for pos, _ in bnds[1:]})
        self.cells = []
        for e in [-math.inf] + self.edges:     # each cell from its least float
            inside = tuple(sl for sl, lo, _, hi in wins if lo <= e < hi)
            self.cells.append((
                inside[0].zone.index if inside else 0,
                inside,
                next((sl for sl, lo, mz, _ in wins if lo <= e < mz), None),
                spec.limit_at(e),
                bisect_right(self.cuts, (e, math.inf))))


@dataclass(slots=True)
class _Passage:
    """Progress of one vehicle through one zone."""

    slot: _Slot
    state: VehicleState
    phase: str                        # cz | mz
    plan: Optional[MergePlan] = None  # not clean: a clamped partial, drift is expected
    p_plan: Optional[float] = None    # plan position now; None right after planning


class Simulation:
    def __init__(self, config: CorridorConfig, rows=None):
        self.cfg = config
        self.bounds = config.bounds
        self.dt = config.dt
        self.routes = [_Route(r, [_Slot(zone, ap, config) for zone, ap in config.zones_on(r.name)],
                              arrival_times(config, i))
                       for i, r in enumerate(config.routes)]
        self.slots = [sl for rt in self.routes for sl in rt.slots]
        for sl in self.slots:
            sl.peers = tuple(o for ap in sl.zone.approaches if ap.route != sl.ap.route
                             for o in self.slots if o.zone is sl.zone and o.ap is ap)
        self.coordinators = {z.index: ZoneCoordinator(z, config.bounds) for z in config.zones}
        self.passages: dict[int, _Passage] = {}
        self.rows = [] if rows is None else rows
        self.events: Counter = Counter()
        self._next_id = 1
        self._spawned = 0
        self._exited = 0

    # -- spawning ----------------------------------------------------------

    def _spawn_due(self, t: float) -> None:
        b = -self.bounds.u_min
        h = HEADWAY
        for rt in self.routes:
            arrivals = rt.arrivals
            while arrivals and arrivals[0] <= t:
                v0 = rt.v_enter
                order = rt.order
                if order:
                    # insertion speed capped so the new vehicle starts inside
                    # the headway envelope and could still stop behind the
                    # back of the queue at full braking
                    back = order[-1]
                    headroom = back.s - SPAWN_MIN_LEAD + back.v * back.v / (2.0 * b)
                    v_safe = 0.0
                    if headroom > 0.0:
                        v_quad = b * (-h + math.sqrt(h * h + 2.0 * headroom / b))
                        v_safe = min(v_quad, (back.s - SPAWN_MIN_LEAD) / h)
                    if v_safe < SPAWN_MIN_SPEED:
                        self.events["spawn_withheld"] += 1
                        break
                    v0 = min(v0, v_safe)
                arrivals.popleft()
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
        passage = self.passages[state.vehicle_id] = _Passage(slot=slot, state=state, phase="cz")
        self._solve(passage, coord, entry, t)

    def _solve(self, passage: _Passage, coord: ZoneCoordinator, entry: ScheduleEntry,
               t: float) -> None:
        """Plan ``passage`` from the current state and book the plan's
        merging time and speed. A follower whose recursion now asks for a
        later merging time is pushed to it and replanned in turn, while it
        is still in the control zone and at least two steps from its merge;
        the first follower left in place ends the cascade."""
        state, zone = passage.state, passage.slot.zone
        vid = state.vehicle_id
        plan = passage.plan = plan_merge(state.s, state.v, t, passage.slot.ap.mz_start,
                                         zone, entry.tm, self.bounds)
        if plan.tm != entry.tm:
            coord.adjust_merging_time(vid, plan.tm)
            self.events["tm_relaxations"] += 1
        if not plan.clean:
            self.events["relax_exhausted"] += 1
            log.debug("vehicle %d zone %d: no clean plan at or after the booked "
                      "merging time; executing with control clamped", vid, zone.index)
        coord.set_terminal_speed(vid, plan.v_hold)
        behind = coord.follower(vid)
        if behind is None:
            return
        follower, tm = behind
        nxt = self.passages[follower.vehicle_id]
        if tm > follower.tm and nxt.phase == "cz" and follower.tm - t >= 2 * self.dt:
            coord.adjust_merging_time(follower.vehicle_id, tm)
            self.events["follower_pushes"] += 1
            nxt.p_plan = None
            self._solve(nxt, coord, follower, t)

    def _replan(self, passage: _Passage, t: float) -> None:
        coord = self.coordinators[passage.slot.zone.index]
        entry = coord.entry(passage.state.vehicle_id)
        if entry.tm - t < 2 * self.dt:
            return   # too close to the merge to re-pose the problem
        self.events["replans"] += 1
        self._solve(passage, coord, entry, t)

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
        return StepContext(cell[3], self.dt, self.bounds, cuts, projected, line_gap)

    def _same_lane_blocked(self, v: float, x: float, others) -> bool:
        tau_me = -x / max(v, 0.3)
        for ox, ov, _ in others:
            if ox >= 0.0:
                # someone just past the join, too close to slot in behind
                if ox < HEADWAY * v + MIN_GAP:
                    return True
            else:
                tau_o = -ox / max(ov, 0.3)
                if abs(tau_o - tau_me) < HEADWAY:
                    return True
        return False

    def _conflict_blocked(self, v: float, x: float, slot: _Slot) -> bool:
        if any(0.0 <= ox for ox, _, _ in slot.others):
            return True
        crossing = _time_to_cover(-x + slot.zone.mz_length, v, MAX_ACCEL, slot.v_cap)
        window = max(YIELD_GAP, crossing + YIELD_CROSS_MARGIN)
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
        h_dt = HEADWAY + dt
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
            self._integrate(t, (step + 1) * self.dt, optimal, rows)
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
                    u = baseline_step(st, leader,
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
                        self._replan(passage, t)
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

    def _integrate(self, t: float, t_next: float, optimal: bool, rows: list[tuple]) -> None:
        """Advance every vehicle one step; a vehicle that leaves its route
        appends its terminal row at ``t_next`` to ``rows``."""
        dt = self.dt
        passages = self.passages
        for rt in self.routes:
            end = rt.spec.length
            gone = False
            for st in rt.order:
                s = st.s
                u = st.u
                v_new = st.v + u * dt
                if 0.0 > v_new:     # max(v_new, 0.0)
                    v_new = 0.0
                st.s = s + v_new * dt
                st.v = v_new
                passage = passages.get(st.vehicle_id) if optimal else None
                if passage is not None:
                    ap, zone = passage.slot.ap, passage.slot.zone
                    if passage.phase == "cz" and crossed(st.s, ap.mz_start):
                        passage.phase = "mz"
                    mz_end = ap.mz_start + zone.mz_length
                    if passage.phase == "mz" and crossed(st.s, mz_end):
                        self.coordinators[zone.index].release(
                            st.vehicle_id, crossing_time(t, t_next, s, v_new, mz_end))
                        del passages[st.vehicle_id]
                if crossed(st.s, end):
                    rows.append((t_next, st.vehicle_id, rt.name, st.s, v_new, u,
                                 rt.cells[bisect_right(rt.edges, st.s)][0]))
                    passages.pop(st.vehicle_id, None)
                    self._exited += 1
                    gone = True
            if gone:
                rt.order = [st for st in rt.order if not crossed(st.s, end)]


def run(config: CorridorConfig, rows=None) -> SimResult:
    """Run one seeded simulation to the horizon. Trace rows go to ``rows``,
    anything with an ``extend`` (a new list when not given): one call per
    step with that step's rows in trace order."""
    return Simulation(config, rows).run()
