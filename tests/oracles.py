"""Independent numerical references used only by the test suite.

The production solver returns closed-form polynomial trajectories. These
oracles solve the same boundary-value problems a completely different way:
zero-order-hold discretization with N piecewise-constant control samples,
followed by a constrained least-squares or SLSQP solve. Discretization is
exact for piecewise-constant input, so every oracle solution is feasible
for the continuous problem and its cost is an upper bound on the true
optimum. As N grows the bound tightens from above.

The trace checks at the end are the list-based reference versions of
``rear_end_check``, ``occupancy_from_trace`` and ``compute_metrics``: they
hold every row, group them by time step and by vehicle, and walk each group.
The program computes the same results in one pass; these stay as they were
so that every result, its order and its floats can be compared with ``==``.

Last come the step loop's arithmetic written with builtin ``min``/``max``
(``evaluate``, ``optimal_step``, ``baseline_step``) and the trace text of a
whole row list at once (``trace_text``): the program's plain clamps and its
batched, chunked trace writer must give the same bits and bytes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from corridorsim.coordinator import MzOccupancy, OccupancyInterval, occupancy_check
from corridorsim.core import CorridorConfig
from corridorsim.metrics import STOP_SPEED, TRACE_HEADER, Metrics
from corridorsim.trajectory import EvaluationWindowError

__all__ = ["DiscreteSolution", "solve_discrete", "solve_discrete_bounded",
           "compute_metrics", "rear_end_check", "occupancy_from_trace",
           "evaluate", "optimal_step", "baseline_step", "trace_text"]


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
# trace checks, list-based


def _per_vehicle(rows: list[tuple]) -> dict[int, list[tuple]]:
    by_vehicle: dict[int, list[tuple]] = defaultdict(list)
    for row in rows:
        by_vehicle[row[1]].append(row)
    return by_vehicle


def compute_metrics(rows: list[tuple], config: CorridorConfig) -> Metrics:
    dt = config.dt
    m = Metrics(mode=config.mode, seed=config.seed)
    lengths = {r.name: r.length for r in config.routes}
    zone_samples: dict[int, list[float]] = defaultdict(list)
    corridor_samples: list[float] = []
    efforts: list[float] = []
    works: list[float] = []
    stops: list[int] = []
    for vid, vrows in _per_vehicle(rows).items():
        route = vrows[0][2]
        m.spawned_per_route[route] = m.spawned_per_route.get(route, 0) + 1
        completed = vrows[-1][3] >= lengths[route] - 1e-6
        if not completed:
            m.censored += 1
            continue
        m.completed += 1
        m.completed_per_route[route] = m.completed_per_route.get(route, 0) + 1
        travel = vrows[-1][0] - vrows[0][0]
        if route == config.main_route:
            corridor_samples.append(travel)
        effort = 0.0
        work = 0.0
        zone_dwell: dict[int, int] = defaultdict(int)
        stop_count = 0
        below = vrows[0][4] < STOP_SPEED
        for row in vrows[:-1]:
            _, _, _, _, v, u, zone = row
            effort += u * u * dt
            work += max(0.0, u * v) * dt
            if zone:
                zone_dwell[zone] += 1
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
        for zone, n in zone_dwell.items():
            zone_samples[zone].append(n * dt)
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
    h = config.headway
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


def _crossing_time(vrows: list[tuple], boundary: float) -> float | None:
    """Linear-interpolated time at which the vehicle position crosses the
    boundary; None if it never does within its rows."""
    prev = vrows[0]
    if prev[3] >= boundary:
        return prev[0]
    for row in vrows[1:]:
        if row[3] >= boundary:
            span = row[3] - prev[3]
            frac = 0.0 if span <= 0 else (boundary - prev[3]) / span
            return prev[0] + frac * (row[0] - prev[0])
        prev = row
    return None


def occupancy_from_trace(rows: list[tuple], config: CorridorConfig,
                         tol: float = 1e-2) -> list:
    """Lateral-exclusion check on actual motion: merging-zone entry and exit
    times are interpolated from the trace, vehicles still inside at the end
    of the data are treated as occupying until the last timestamp, and
    overlapping cross-lane stays are reported via the same pairwise check
    the coordinator uses. The tolerance absorbs interpolation error so
    touching intervals stay legal."""
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
                t_in = _crossing_time(vrows, ap.mz_start)
                if t_in is None:
                    continue
                t_out = _crossing_time(vrows, mz_end)
                if t_out is None:
                    t_out = t_end
                intervals.append(OccupancyInterval(vehicle_id=vid, t_enter=t_in,
                                                   t_exit=t_out, lane=ap.lane))
        occ = MzOccupancy(zone=zone.index, intervals=intervals)
        conflicts.extend(occupancy_check(occ, tol=tol))
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


def _idm_brake(v: float, params, gap: float, dv: float) -> float:
    a = params.max_accel
    s_star = params.min_gap + v * params.headway \
        + v * dv / (2.0 * math.sqrt(a * params.comfort_decel))
    s_star = max(s_star, params.min_gap)
    return a * (s_star / max(gap, 0.1)) ** 2


def baseline_step(vehicle, leader, params, ctx) -> float:
    v = vehicle.v
    u = free = params.max_accel * (1.0 - (v / max(ctx.v_des, 0.1)) ** params.speed_exponent)
    if leader is not None:
        u = min(u, free - _idm_brake(v, params, leader.s - vehicle.s, v - leader.v))
    if ctx.projected is not None:
        gap, v_lead = ctx.projected
        u = min(u, free - _idm_brake(v, params, gap, v - v_lead))
    b = params.comfort_decel
    for dist, lim in ctx.limit_cuts:
        if v > lim + 1e-9 and dist <= (v * v - lim * lim) / (2.0 * b) + v * ctx.dt:
            u = min(u, max(-b, (lim - v) / ctx.dt))
    if ctx.yield_blocked and ctx.line_gap is not None:
        u = min(u, free - _idm_brake(v, params, max(ctx.line_gap, 0.01), v))
    return min(max(u, ctx.bounds.u_min), ctx.bounds.u_max)
