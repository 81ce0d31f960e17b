"""Independent numerical references used only by the test suite.

The production solver returns closed-form polynomial trajectories. These
oracles solve the same boundary-value problems a completely different way:
zero-order-hold discretization with N piecewise-constant control samples,
followed by a constrained least-squares or SLSQP solve. Discretization is
exact for piecewise-constant input, so every oracle solution is feasible
for the continuous problem and its cost is an upper bound on the true
optimum. As N grows the bound tightens from above.

``least_clean_horizon`` finds the least merging horizon with a clean plan
by brute force: every horizon of a 1 ms grid at once, then bisection.

The trace checks at the end are the list-based reference versions of
``rear_end_check``, ``occupancy_from_trace`` and ``compute_metrics``: they
hold every row, group them by time step and by vehicle, and walk each group
(``crossing`` walks one vehicle's rows to the instant it crosses a line).
The program computes the same results in one pass; these are written apart
from it so that every result, its order and its floats can be compared with
``==``.

Then come the step loop's arithmetic written with builtin ``min``/``max``
(``evaluate``, ``optimal_step``, ``baseline_step``) and the trace text of a
whole row list at once (``trace_text``): the program's plain clamps and its
batched, chunked trace writer must give the same bits and bytes.

Last is the reference quantizer of safety-message frames
(``frame_from_state``) and the frame of each trace row built with it
(``frames_from_trace``): the replay's wire tuples must encode to the same
bytes, and fail with the same messages.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from corridorsim.coordinator import OccupancyInterval, occupancy_check
from corridorsim.core import HEADWAY, CorridorConfig
from corridorsim.metrics import STOP_SPEED, TRACE_HEADER, Metrics
from corridorsim.sim import (COMFORT_DECEL, FOLLOW_HEADWAY, MAX_ACCEL, MIN_GAP,
                             SPEED_EXPONENT)
from corridorsim.trajectory import (BoundaryConditions, DegenerateHorizonError,
                                    EvaluationWindowError, InfeasibleHorizonError,
                                    solve_bounded)
from corridorsim.v2x.bsm import DIST_UNIT, MSG_BSM, SPEED_UNIT, BsmFrame

__all__ = ["DiscreteSolution", "solve_discrete", "solve_discrete_bounded",
           "clean_horizons", "least_clean_horizon",
           "crossing", "compute_metrics", "rear_end_check", "occupancy_from_trace",
           "evaluate", "optimal_step", "baseline_step", "trace_text",
           "frame_from_state", "frames_from_trace"]


@dataclass(frozen=True)
class DiscreteSolution:
    h: float
    u: np.ndarray       # (N,) control per interval
    v: np.ndarray       # (N+1,) speed at gridpoints
    p: np.ndarray       # (N+1,) position at gridpoints

    @property
    def cost(self) -> float:
        return 0.5 * float(np.sum(self.u ** 2)) * self.h


def _rollout(p0: float, v0: float, u: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    n = len(u)
    v = np.empty(n + 1)
    p = np.empty(n + 1)
    v[0], p[0] = v0, p0
    for k in range(n):
        p[k + 1] = p[k] + v[k] * h + 0.5 * u[k] * h * h
        v[k + 1] = v[k] + u[k] * h
    return v, p


def solve_discrete(p0: float, v0: float, p_end: float, horizon: float,
                   end_speed: float | None = None, n: int = 2000) -> DiscreteSolution:
    """Minimum-energy piecewise-constant control hitting p_end at t0+horizon.

    end_speed=None leaves the terminal speed free (position constraint only),
    matching the free-terminal boundary-value problem.
    """
    h = horizon / n
    k = np.arange(n)
    a_pos = h * h * (n - k - 0.5)
    rows = [a_pos]
    rhs = [p_end - p0 - v0 * horizon]
    if end_speed is not None:
        rows.append(np.full(n, h))
        rhs.append(end_speed - v0)
    a = np.vstack(rows)
    b = np.array(rhs)
    # minimum-norm solution of the underdetermined equality system
    u, *_ = np.linalg.lstsq(a, b, rcond=None)
    v, p = _rollout(p0, v0, u, h)
    return DiscreteSolution(h=h, u=u, v=v, p=p)


def solve_discrete_bounded(p0: float, v0: float, p_end: float, horizon: float,
                           end_speed: float | None = None,
                           v_min: float | None = None, v_max: float | None = None,
                           n: int = 80) -> DiscreteSolution:
    """Same problem with gridpoint speed bounds, solved by SLSQP.

    Small n keeps the nonlinear solve reliable; use only as an upper-bound
    cross-check, never for tight equality assertions.
    """
    from scipy.optimize import minimize

    h = horizon / n
    k = np.arange(n)
    a_pos = h * h * (n - k - 0.5)
    lower = np.tril(np.ones((n, n))) * h   # v gridpoints 1..n from u

    def cost(u):
        return 0.5 * float(u @ u) * h

    def jac(u):
        return u * h

    cons = [{"type": "eq",
             "fun": lambda u: a_pos @ u - (p_end - p0 - v0 * horizon),
             "jac": lambda u: a_pos}]
    if end_speed is not None:
        cons.append({"type": "eq",
                     "fun": lambda u: h * np.sum(u) - (end_speed - v0),
                     "jac": lambda u: np.full(n, h)})
    if v_max is not None:
        cons.append({"type": "ineq",
                     "fun": lambda u: v_max - (v0 + lower @ u),
                     "jac": lambda u: -lower})
    if v_min is not None:
        cons.append({"type": "ineq",
                     "fun": lambda u: (v0 + lower @ u) - v_min,
                     "jac": lambda u: lower})

    u0 = np.zeros(n)
    res = minimize(cost, u0, jac=jac, constraints=cons, method="SLSQP",
                   options={"maxiter": 600, "ftol": 1e-12})
    if not res.success:
        raise RuntimeError(f"oracle SLSQP failed: {res.message}")
    v, p = _rollout(p0, v0, res.x, h)
    return DiscreteSolution(h=h, u=res.x, v=v, p=p)


# ---------------------------------------------------------------------------
# least clean merging horizon, by scan


def clean_horizons(bc, bounds, horizons: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Whether ``solve_bounded`` gives a clean plan from ``bc`` at each
    horizon of an array, all at once: the unconstrained plan, then the plan
    pieced with a cruise arc on the one speed bound it breaks, each checked
    at its arcs' ends and speed vertex."""
    T = np.asarray(horizons, dtype=float)
    d, v0, vt = bc.distance, bc.v0, bc.terminal_speed
    with np.errstate(divide="ignore", invalid="ignore"):
        if vt is None:
            a = 3.0 * (v0 * T - d) / T ** 3
            b = -a * T
        else:
            p, dv = d - v0 * T, vt - v0
            a = 6.0 * dv / T ** 2 - 12.0 * p / T ** 3
            b = 6.0 * p / T ** 2 - 2.0 * dv / T
        u_end = a * T + b
        v_end = 0.5 * a * T * T + b * T + v0
        vx = -b / a
        inside = (np.abs(0.5 * a) > 1e-15) & (vx > 0.0) & (vx < T)
        v_vertex = np.where(inside, v0 - b * b / (2.0 * a), v0)
        v_hi = np.maximum(np.maximum(v0, v_end), v_vertex)
        v_lo = np.minimum(np.minimum(v0, v_end), v_vertex)
        u_ok = (np.maximum(b, u_end) - bounds.u_max <= tol) \
            & (bounds.u_min - np.minimum(b, u_end) <= tol)
        over = v_hi - bounds.v_max > tol
        under = bounds.v_min - v_lo > tol
        ok = u_ok & ~over & ~under
        for v_b, hit in ((bounds.v_max, over & ~under), (bounds.v_min, under & ~over)):
            ok |= hit & _pieced_clean(d, v0, vt, v_b, T, bounds, tol)
    return ok & (T >= 1e-6)


def _pieced_clean(d, v0, vt, v_b, T, bounds, tol):
    """Clean verdicts of the plan that cruises on the speed bound v_b: an
    entry arc from v0 to v_b (u from -2*(v0 - v_b)/t1 to 0), the cruise,
    and an exit arc from v_b to vt (u from 0 to 2*(vt - v_b)/t3)."""
    eps = 1e-9
    speeds = [v0] + ([] if vt is None else [vt])
    if any(v - bounds.v_max > tol or bounds.v_min - v > tol for v in speeds):
        return np.zeros_like(T, dtype=bool)
    off0 = v0 - v_b
    off_t = None if vt is None else vt - v_b
    entry_flat = abs(off0) < eps
    exit_flat = off_t is None or abs(off_t) < eps
    rest = d - v_b * T
    if entry_flat and exit_flat:
        return np.abs(rest) <= 1e-6
    controls = []
    if entry_flat:
        t3 = 3.0 * rest / off_t
        fits = (t3 >= -eps) & (t3 <= T + eps)
        controls.append(2.0 * off_t / np.clip(t3, 1e-6, T))
    elif exit_flat:
        t1 = 3.0 * rest / off0
        fits = (t1 >= -eps) & (t1 <= T + eps)
        controls.append(-2.0 * off0 / np.clip(t1, 1e-6, T))
    elif off_t / off0 < 0.0:
        return np.zeros_like(T, dtype=bool)
    else:
        k = math.sqrt(off_t / off0)
        t1 = 3.0 * rest / (off0 + k * off_t)
        t3 = k * t1
        fits = (t1 >= eps) & (t3 >= 0.0) & (t1 + t3 <= T + eps)
        controls += [-2.0 * off0 / t1, 2.0 * off_t / t3]
    for u in controls:
        fits &= (u - bounds.u_max <= tol) & (bounds.u_min - u <= tol)
    return fits


def least_clean_horizon(bc, bounds, reach: float = 10.0, step: float = 1e-3,
                        tol: float = 1e-9) -> float | None:
    """Least horizon in [bc.horizon, bc.horizon + reach] at which
    ``solve_bounded`` gives a clean plan, or None: ``clean_horizons`` on a
    ``step`` grid, then bisection to ``tol`` between the last grid point
    that is not clean and the first that is, each solved one at a time."""
    def clean(h: float) -> bool:
        try:
            solve_bounded(BoundaryConditions(bc.p0, bc.v0, bc.t0, bc.p_mz, bc.t0 + h,
                                             bc.terminal_speed), bounds)
            return True
        except (DegenerateHorizonError, InfeasibleHorizonError):
            return False

    grid = bc.horizon + step * np.arange(round(reach / step) + 1)
    hits = np.flatnonzero(clean_horizons(bc, bounds, grid, tol))
    if not len(hits):
        return None
    k = int(hits[0])
    if k == 0:
        return float(grid[0])
    lo, hi = float(grid[k - 1]), float(grid[k])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if clean(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# trace checks, list-based


def _per_vehicle(rows: list[tuple]) -> dict[int, list[tuple]]:
    by_vehicle: dict[int, list[tuple]] = defaultdict(list)
    for row in rows:
        by_vehicle[row[1]].append(row)
    return by_vehicle


def crossing(vrows: list[tuple], line: float) -> float | None:
    """The instant the vehicle first counts as past ``line`` (a position at
    least ``line - 1e-9``), placed within the step that crossed it at
    t + (line - s) / v from the row before and the new speed in the row at
    it, held inside the step; a first row already past the line crosses it
    at its own time. None if no row is past it."""
    if vrows[0][3] >= line - 1e-9:
        return vrows[0][0]
    for prev, row in zip(vrows, vrows[1:]):
        if row[3] >= line - 1e-9:
            if line - prev[3] > 0.0 and row[4] > 0.0:
                return min(prev[0] + (line - prev[3]) / row[4], row[0])
            return prev[0]
    return None


def compute_metrics(rows: list[tuple], config: CorridorConfig) -> Metrics:
    dt = config.dt
    m = Metrics()
    zone_samples: dict[int, list[float]] = defaultdict(list)
    corridor_samples: list[float] = []
    efforts: list[float] = []
    works: list[float] = []
    stops: list[int] = []
    for vid, vrows in _per_vehicle(rows).items():
        route = vrows[0][2]
        m.spawned_per_route[route] = m.spawned_per_route.get(route, 0) + 1
        t_done = crossing(vrows, config.route(route).length)
        if t_done is None:
            m.censored += 1
            continue
        m.completed += 1
        m.completed_per_route[route] = m.completed_per_route.get(route, 0) + 1
        if route == config.main_route:
            corridor_samples.append(t_done - vrows[0][0])
        effort = 0.0
        work = 0.0
        stop_count = 0
        below = vrows[0][4] < STOP_SPEED
        for row in vrows[:-1]:
            _, _, _, _, v, u, _ = row
            effort += u * u * dt
            work += max(0.0, u * v) * dt
        for row in vrows:
            now_below = row[4] < STOP_SPEED
            if now_below and not below:
                stop_count += 1
            below = now_below
        if vrows[0][4] < STOP_SPEED:
            stop_count += 1
        efforts.append(effort)
        works.append(work)
        stops.append(stop_count)
        for zone, ap in config.zones_on(route):
            t_out = crossing(vrows, ap.mz_start + zone.mz_length)
            if t_out is not None:
                zone_samples[zone.index].append(t_out - crossing(vrows, ap.cz_start))
    if corridor_samples:
        m.corridor_time = sum(corridor_samples) / len(corridor_samples)
    m.zone_time = {z: sum(v) / len(v) for z, v in zone_samples.items()}
    if efforts:
        m.mean_effort = sum(efforts) / len(efforts)
        m.mean_work = sum(works) / len(works)
        m.mean_stops = sum(stops) / len(stops)
    return m


def rear_end_check(rows: list[tuple], config: CorridorConfig,
                   tol: float = 1e-6) -> list[tuple]:
    """Headway violations: same-route consecutive pairs everywhere, plus
    cross-route pairs inside the merging zone of a shared-lane zone. The
    required gap is headway * follower speed. Returns
    (t, follower, leader, gap, required) tuples."""
    h = HEADWAY
    shared = [zone for zone in config.zones if zone.shared_lane]
    by_time: dict[float, list[tuple]] = defaultdict(list)
    for row in rows:
        by_time[row[0]].append(row)
    violations = []
    for t in sorted(by_time):
        group = by_time[t]
        per_route: dict[str, list[tuple]] = defaultdict(list)
        for row in group:
            per_route[row[2]].append(row)
        for route_rows in per_route.values():
            route_rows.sort(key=lambda r: -r[3])
            for lead, foll in zip(route_rows, route_rows[1:]):
                gap = lead[3] - foll[3]
                required = h * foll[4]
                if gap < required - tol:
                    violations.append((t, foll[1], lead[1], gap, required))
        for zone in shared:
            merged = []
            for ap in zone.approaches:
                for row in per_route.get(ap.route, []):
                    x = row[3] - ap.mz_start
                    if 0.0 <= x < zone.mz_length:
                        merged.append((x, row))
            merged.sort(key=lambda e: -e[0])
            for (x_lead, lead), (x_foll, foll) in zip(merged, merged[1:]):
                if lead[2] == foll[2]:
                    continue   # same route already covered above
                gap = x_lead - x_foll
                required = h * foll[4]
                if gap < required - tol:
                    violations.append((t, foll[1], lead[1], gap, required))
    return violations


def occupancy_from_trace(rows: list[tuple], config: CorridorConfig,
                         tol: float = 1e-2) -> list:
    """Lateral-exclusion check on actual motion: merging-zone entry and exit
    are the crossings of its two lines, vehicles still inside at the end of
    the data are treated as occupying until the last timestamp plus dt, and
    overlapping cross-lane stays are reported via the same pairwise check
    the coordinator uses."""
    if not rows:
        return []
    t_end = max(row[0] for row in rows) + config.dt
    by_vehicle = _per_vehicle(rows)
    conflicts = []
    for zone in config.zones:
        if zone.shared_lane:
            continue   # single shared lane: rear-end rules govern, not exclusion
        intervals = []
        for ap in zone.approaches:
            mz_end = ap.mz_start + zone.mz_length
            for vid, vrows in by_vehicle.items():
                if vrows[0][2] != ap.route:
                    continue
                t_in = crossing(vrows, ap.mz_start)
                if t_in is None:
                    continue
                t_out = crossing(vrows, mz_end)
                if t_out is None:
                    t_out = t_end
                intervals.append(OccupancyInterval(vehicle_id=vid, t_enter=t_in,
                                                   t_exit=t_out, lane=ap.lane))
        conflicts.extend(occupancy_check(zone.index, intervals, tol=tol))
    return conflicts


# ---------------------------------------------------------------------------
# step-loop arithmetic with builtin min/max, and the trace text in one piece

_TIME_EPS = 1e-9
_ROW_FORMAT = "%.3f,%d,%s,%.9f,%.9f,%.9f,%d\n"


def trace_text(rows: list[tuple]) -> str:
    """The trace file's text, each row formatted whole."""
    return TRACE_HEADER + "\n" + "".join(_ROW_FORMAT % row for row in rows)


def _segment_at(coeffs, t: float):
    for seg in coeffs.segments:
        if t <= seg.t_end + _TIME_EPS:
            return seg
    return coeffs.segments[-1]


def evaluate(coeffs, t: float) -> tuple[float, float, float]:
    if t < coeffs.t0 - _TIME_EPS or t > coeffs.tm + _TIME_EPS:
        raise EvaluationWindowError(
            f"t={t:.6f} outside plan window [{coeffs.t0:.6f}, {coeffs.tm:.6f}]")
    t = min(max(t, coeffs.t0), coeffs.tm)
    seg = _segment_at(coeffs, t)
    tau = min(max(t - seg.t_start, 0.0), seg.span)
    return seg.control(tau), seg.speed(tau), seg.position(tau)


def optimal_step(vehicle, coeffs, t: float, dt: float, bounds,
                 v_hold: float) -> tuple[float, bool, float]:
    tm = coeffs.tm
    if t + dt <= tm + 1e-12:
        p_target = p_plan = evaluate(coeffs, t + dt)[2]
    else:
        p_plan = evaluate(coeffs, tm)[2]
        p_target = p_plan + v_hold * (t + dt - tm)
    v_target = max((p_target - vehicle.s) / dt, 0.0)
    u = (v_target - vehicle.v) / dt
    u_clipped = min(max(u, bounds.u_min), bounds.u_max)
    return u_clipped, abs(u - u_clipped) > 1e-9, p_plan


def _idm_brake(v: float, gap: float, dv: float) -> float:
    a = MAX_ACCEL
    s_star = MIN_GAP + v * FOLLOW_HEADWAY \
        + v * dv / (2.0 * math.sqrt(a * COMFORT_DECEL))
    s_star = max(s_star, MIN_GAP)
    return a * (s_star / max(gap, 0.1)) ** 2


def baseline_step(vehicle, leader, v_des, cuts, dt, bounds, projected, line_gap) -> float:
    v = vehicle.v
    u = free = MAX_ACCEL * (1.0 - (v / max(v_des, 0.1)) ** SPEED_EXPONENT)
    if leader is not None:
        u = min(u, free - _idm_brake(v, leader.s - vehicle.s, v - leader.v))
    if projected is not None:
        gap, v_lead = projected
        u = min(u, free - _idm_brake(v, gap, v - v_lead))
    b = COMFORT_DECEL
    for pos, lim in cuts:
        if v > lim + 1e-9 and pos - vehicle.s <= (v * v - lim * lim) / (2.0 * b) + v * dt:
            u = min(u, max(-b, (lim - v) / dt))
    if line_gap is not None:
        u = min(u, free - _idm_brake(v, max(line_gap, 0.01), v))
    return min(max(u, bounds.u_min), bounds.u_max)


# ---------------------------------------------------------------------------
# safety-message frames from SI values, one row at a time


def frame_from_state(vehicle_id: int, speed: float, tm: float, dist: float,
                     cz: int, seq: int, timestamp: float) -> BsmFrame:
    """Quantize SI values (m/s, s, m) into a frame in wire units.

    Negative speed and distance clamp to zero; ``round`` halves to even;
    the sequence number wraps at 256.  No range is checked here.
    """
    return BsmFrame(msg_id=MSG_BSM, vehicle_id=vehicle_id,
                    speed_code=round(max(speed, 0.0) / SPEED_UNIT),
                    tm_ms=round(tm * 1000.0),
                    dist_dm=round(max(dist, 0.0) / DIST_UNIT),
                    cz=cz, seq=seq & 0xFF,
                    timestamp_ms=round(timestamp * 1000.0))


def frames_from_trace(rows: list[tuple], config: CorridorConfig,
                      schedule: list | None = None) -> list[BsmFrame]:
    """One frame per trace row: distance to the row's MZ line and the
    scheduled merging time inside a zone, zeros outside one, and each
    vehicle's rows counted for its sequence number."""
    mz = {(route.name, zone.index): ap.mz_start
          for route in config.routes for zone, ap in config.zones_on(route.name)}
    tm = {(e.vehicle_id, e.zone): e.tm for e in schedule or ()}
    count: dict[int, int] = defaultdict(int)
    frames = []
    for t, vid, route, s, v, _u, zone in rows:
        if zone > 0:
            frame = frame_from_state(vid, v, tm.get((vid, zone), 0.0),
                                     mz[(route, zone)] - s, zone, count[vid], t)
        else:
            frame = frame_from_state(vid, v, 0.0, 0.0, zone, count[vid], t)
        count[vid] += 1
        frames.append(frame)
    return frames
