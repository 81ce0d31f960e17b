"""Closed-form minimum-energy trajectories for a double integrator.

A vehicle entering a control zone gets a control law u(t) = a*(t-t0) + b
minimizing (1/2) * integral of u^2 between entry and its scheduled merging
time. The four integration constants follow from the boundary conditions;
the terminal condition is either u(tm) = 0 (free terminal speed) or
v(tm) = terminal_speed. When the unconstrained solution leaves the speed
envelope, the trajectory is pieced with a constant-speed arc riding the
violated bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from corridorsim.core import Bounds

__all__ = [
    "BoundaryConditions",
    "ArcSegment",
    "TrajectoryCoefficients",
    "DegenerateHorizonError",
    "InfeasibleHorizonError",
    "EvaluationWindowError",
    "solve_unconstrained",
    "evaluate",
    "check_feasibility",
    "solve_with_speed_arc",
    "horizon_edges",
    "solve_bounded",
    "control_effort",
    "terminal_speed",
]

ARC_UNCONSTRAINED = "unconstrained"
ARC_VMAX = "v_max_cruise"
ARC_VMIN = "v_min_cruise"

_MIN_HORIZON = 1e-6
_SPEED_EPS = 1e-9
_TIME_EPS = 1e-9
_POS_TOL = 1e-6
_FEAS_TOL = 1e-9   # bound exceedance that check_feasibility forgives


class DegenerateHorizonError(ValueError):
    """Planning window too short to pose the boundary-value problem."""


class InfeasibleHorizonError(ValueError):
    """No arc layout meets the boundary conditions; the merging time must
    be adjusted upstream.

    ``partial`` carries the best-effort plan found before giving up, when
    one exists. A planner that finds no clean horizon at or after the booked
    merging time executes the partial at the booked time, with the control
    clamped, rather than having nothing at all.
    """

    def __init__(self, msg: str, partial: "TrajectoryCoefficients | None" = None):
        super().__init__(msg)
        self.partial = partial


class EvaluationWindowError(ValueError):
    """Trajectory evaluated outside [t0, tm]."""


@dataclass(frozen=True)
class BoundaryConditions:
    """Endpoint data for one control-zone plan, absolute times in seconds."""

    p0: float
    v0: float
    t0: float
    p_mz: float
    tm: float
    terminal_speed: Optional[float] = None

    def __post_init__(self):
        if not self.tm > self.t0:
            raise ValueError("tm must exceed t0")
        if not self.p_mz > self.p0:
            raise ValueError("p_mz must exceed p0")
        if self.v0 < 0:
            raise ValueError("v0 must be non-negative")

    @property
    def horizon(self) -> float:
        return self.tm - self.t0

    @property
    def distance(self) -> float:
        return self.p_mz - self.p0


@dataclass(frozen=True)
class ArcSegment:
    """One polynomial piece; coefficients are local to tau = t - t_start."""

    kind: str
    t_start: float
    t_end: float
    a: float
    b: float
    c: float
    d: float

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    def control(self, tau: float) -> float:
        return self.a * tau + self.b

    def speed(self, tau: float) -> float:
        return 0.5 * self.a * tau * tau + self.b * tau + self.c

    def position(self, tau: float) -> float:
        return ((self.a * tau / 6.0 + 0.5 * self.b) * tau + self.c) * tau + self.d

    def effort(self) -> float:
        ts = self.span
        return 0.5 * (self.a ** 2 * ts ** 3 / 3.0 + self.a * self.b * ts ** 2 + self.b ** 2 * ts)


@dataclass(frozen=True)
class TrajectoryCoefficients:
    """Solved plan over [t0, tm]: the arc chain, first arc first."""

    t0: float
    tm: float
    segments: tuple[ArcSegment, ...]


def _single(bc: BoundaryConditions, a: float, b: float) -> TrajectoryCoefficients:
    seg = ArcSegment(ARC_UNCONSTRAINED, bc.t0, bc.tm, a, b, bc.v0, bc.p0)
    return TrajectoryCoefficients(bc.t0, bc.tm, (seg,))


def solve_unconstrained(bc: BoundaryConditions) -> TrajectoryCoefficients:
    """Solve the 4x4 boundary system in closed form.

    Times are shifted to tau = t - t0 before solving; absolute seconds make
    the cubic terms ill-conditioned.
    """
    t = bc.horizon
    if t < _MIN_HORIZON:
        raise DegenerateHorizonError(f"horizon {t:.3g} s below {_MIN_HORIZON} s")
    dp = bc.distance
    if bc.terminal_speed is None:
        # terminal condition u(tm) = 0
        a = 3.0 * (bc.v0 * t - dp) / t ** 3
        b = -a * t
    else:
        p = dp - bc.v0 * t
        v = bc.terminal_speed - bc.v0
        a = 6.0 * v / t ** 2 - 12.0 * p / t ** 3
        b = 6.0 * p / t ** 2 - 2.0 * v / t
    return _single(bc, a, b)


def evaluate(coeffs: TrajectoryCoefficients, t: float) -> tuple[float, float, float]:
    """Return (u, v, p) at absolute time t within [t0, tm]."""
    t0, tm = coeffs.t0, coeffs.tm
    if not (t0 - _TIME_EPS <= t <= tm + _TIME_EPS):   # a NaN time is outside too
        raise EvaluationWindowError(
            f"t={t:.6f} outside plan window [{t0:.6f}, {tm:.6f}]")
    # the clamps are min(max(t, t0), tm) and min(max(tau, 0.0), span): b if
    # b > a else a is max(a, b), b if b < a else a is min(a, b), signed
    # zeros and NaN included
    if t0 > t:
        t = t0
    if tm < t:
        t = tm
    for seg in coeffs.segments:   # the first arc ending at t or later, else the last
        if t <= seg.t_end + _TIME_EPS:
            break
    tau = t - seg.t_start
    if 0.0 > tau:
        tau = 0.0
    span = seg.span
    if span < tau:
        tau = span
    return seg.control(tau), seg.speed(tau), seg.position(tau)


def terminal_speed(coeffs: TrajectoryCoefficients) -> float:
    last = coeffs.segments[-1]
    return last.speed(last.span)


def control_effort(coeffs: TrajectoryCoefficients) -> float:
    """Integral of u^2/2 over the plan window."""
    return sum(seg.effort() for seg in coeffs.segments)


# ---------------------------------------------------------------------------
# feasibility


def _peak_quad(qa: float, qb: float, qc: float, span: float) -> float:
    """Largest value of qa*x^2 + qb*x + qc over [0, span]: an endpoint, or
    the vertex when it lies inside."""
    vals = [qa * x * x + qb * x + qc for x in (0.0, span)]
    if abs(qa) > 1e-15:
        vx = -qb / (2.0 * qa)
        if 0.0 < vx < span:
            vals.append(qa * vx * vx + qb * vx + qc)
    return max(vals)


def check_feasibility(coeffs: TrajectoryCoefficients, bounds: Bounds) -> set[str]:
    """Names of the bounds (u_min, u_max, v_min, v_max) that u or v exceeds
    by more than ``_FEAS_TOL`` somewhere in the plan window: the tolerance
    ``horizon_edges`` moves the control bounds by, so the verdict turns at
    the edges it computes.

    Each arc's extremum is exact, not sampled, so a graze at exactly the
    limit is not a violation.
    """
    broken: set[str] = set()
    for seg in coeffs.segments:
        span = seg.span
        if span <= 0:
            continue
        # each check is the exceedance polynomial qa*tau^2 + qb*tau + qc,
        # positive where the bound is exceeded
        checks = (
            ("u_max", 0.0, seg.a, seg.b - bounds.u_max),
            ("u_min", 0.0, -seg.a, bounds.u_min - seg.b),
            ("v_max", 0.5 * seg.a, seg.b, seg.c - bounds.v_max),
            ("v_min", -0.5 * seg.a, -seg.b, bounds.v_min - seg.c),
        )
        broken.update(name for name, qa, qb, qc in checks
                      if _peak_quad(qa, qb, qc, span) > _FEAS_TOL)
    return broken


# ---------------------------------------------------------------------------
# speed-arc piecing


def _arc_spans(free: float, v0_off: float, vt_off: Optional[float]
               ) -> Optional[tuple[Optional[float], Optional[float]]]:
    """Spans (T1, T3) of the entry and exit arcs around a cruise arc at a
    speed bound v_b, for free = 3*(D - v_b*T) and the boundary speeds less
    the bound (vt_off None: free terminal speed). An arc the plan lacks is
    None, so (None, None) is a cruise-only plan; None when the boundary
    speeds straddle the bound and no single cruise arc fits. Each span is
    free/sigma for a sigma of its own, and the arc changes the speed by
    v0_off (entry) or vt_off (exit)."""
    entry_flat = abs(v0_off) < _SPEED_EPS
    exit_flat = vt_off is None or abs(vt_off) < _SPEED_EPS
    if entry_flat and exit_flat:
        return None, None
    if entry_flat:
        return None, free / vt_off
    if exit_flat:
        return free / v0_off, None
    ratio = vt_off / v0_off
    if ratio < 0:
        return None
    k = math.sqrt(ratio)
    t1 = free / (v0_off + k * vt_off)
    return t1, k * t1


def solve_with_speed_arc(bc: BoundaryConditions, bounds: Bounds,
                         which: str) -> TrajectoryCoefficients:
    """Piece the plan with a constant-speed arc riding v_max or v_min.

    The layout is an entry arc, the cruise arc and an exit arc, where
    ``_arc_spans`` says which arcs the plan has and how long they are.
    Junctions are smooth: v equals the bound and u equals zero where the
    unconstrained arcs meet the cruise arc, and the entry/exit control
    slopes are equal (the position costate is constant across arcs). A
    lone entry or exit arc whose span lies just outside the window is
    clamped into it. Raises InfeasibleHorizonError when no switch times fit
    the window; the caller adjusts tm and retries.
    """
    if which not in ("v_max", "v_min"):
        raise ValueError("which must be 'v_max' or 'v_min'")
    v_b = bounds.v_max if which == "v_max" else bounds.v_min
    cruise_kind = ARC_VMAX if which == "v_max" else ARC_VMIN
    t = bc.horizon
    if t < _MIN_HORIZON:
        raise DegenerateHorizonError(f"horizon {t:.3g} s below {_MIN_HORIZON} s")
    dp = bc.distance
    v0_off = bc.v0 - v_b
    vt = bc.terminal_speed
    vt_off = None if vt is None else vt - v_b

    spans = _arc_spans(3.0 * (dp - v_b * t), v0_off, vt_off)
    if spans is None:
        raise InfeasibleHorizonError(
            "boundary speeds straddle the bound; no single cruise arc fits")
    t1, t3 = spans
    if t1 is None and t3 is None:
        if abs(dp - v_b * t) > _POS_TOL:
            raise InfeasibleHorizonError(
                f"cruise at {v_b:.3f} m/s covers {v_b * t:.3f} m, needs {dp:.3f} m")
    elif t1 is None or t3 is None:
        span = t3 if t1 is None else t1
        if span < -_TIME_EPS or span > t + _TIME_EPS:
            raise InfeasibleHorizonError(f"{'exit' if t1 is None else 'entry'} arc span "
                                         f"{span:.3f} s outside window {t:.3f} s")
        span = min(max(span, _MIN_HORIZON), t)
        t1, t3 = (None, span) if t1 is None else (span, None)
    elif t1 < _TIME_EPS or t3 < 0 or t1 + t3 > t + _TIME_EPS:
        raise InfeasibleHorizonError(
            f"arc spans T1={t1:.3f} s, T3={t3:.3f} s do not fit window {t:.3f} s")

    segments = []
    start, p = bc.t0, bc.p0     # the cruise arc's start
    if t1 is not None:
        a1 = 2.0 * v0_off / (t1 * t1)
        start = bc.t0 + t1
        segments.append(ArcSegment(ARC_UNCONSTRAINED, bc.t0, start, a1, -a1 * t1, bc.v0, bc.p0))
        p += t1 * (bc.v0 + 2.0 * v_b) / 3.0
    if t3 is None:
        segments.append(ArcSegment(cruise_kind, start, bc.tm, 0.0, 0.0, v_b, p))
    else:
        if t1 is None:
            cruise_span = t - t3
            end = bc.tm - t3
        else:
            cruise_span = max(t - t1 - t3, 0.0)
            end = start + cruise_span
        segments.append(ArcSegment(cruise_kind, start, end, 0.0, 0.0, v_b, p))
        segments.append(ArcSegment(ARC_UNCONSTRAINED, bc.tm - t3, bc.tm,
                                   2.0 * vt_off / (t3 * t3), 0.0, v_b, p + v_b * cruise_span))
    return TrajectoryCoefficients(bc.t0, bc.tm, tuple(segments))


def _roots(qa: float, qb: float, qc: float) -> list[float]:
    """Real roots of qa*x^2 + qb*x + qc, qa != 0, without cancellation."""
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    return [q / qa] + ([qc / q] if q != 0.0 else [])


def horizon_edges(p0: float, v0: float, p_mz: float, terminal_speed: Optional[float],
                  bounds: Bounds) -> list[float]:
    """Horizons T, ascending, at which ``solve_bounded`` from (p0, v0) to
    p_mz may turn clean or unclean: between two neighbours, and past the
    last, it is clean at every horizon or at none.

    Each edge is a closed-form root in T of one bound, widened by the
    feasibility check's tolerance. On the unconstrained shape u at each end
    is quadratic in T: with a fixed terminal speed vt, u(t0) <= u_max holds
    where u_max*T^2 + (4*v0 + 2*vt)*T - 6*D >= 0, with a free one where
    u_max*T^2 + 3*v0*T - 3*D >= 0. On a cruise shape every arc span is
    proportional to 3*(D - v_b*T) (``_arc_spans``), so the horizons at
    which an arc's end control meets a bound are linear in T. Where the
    unconstrained speed just touches v_b, the cruise shape that takes over
    is the same plan, so the verdict does not turn there.
    """
    d = p_mz - p0
    vt = terminal_speed
    u_lims = (bounds.u_max + _FEAS_TOL, bounds.u_min - _FEAS_TOL)
    edges = [_MIN_HORIZON]
    # unconstrained shape: u at each end
    for u in u_lims:
        if vt is None:
            edges += _roots(u, 3.0 * v0, -3.0 * d)
        else:
            edges += _roots(u, 4.0 * v0 + 2.0 * vt, -6.0 * d) \
                + _roots(u, -(4.0 * vt + 2.0 * v0), 6.0 * d)
    # cruise shapes
    for v_b in (bounds.v_max, bounds.v_min):
        if not v_b:
            continue    # the spans do not move with T
        offs = (v0 - v_b, None if vt is None else vt - v_b)
        spans = _arc_spans(1.0, *offs)    # each arc's span per unit of 3*(D - v_b*T)
        if spans is None:
            continue    # never pieced
        if spans == (None, None):    # cruise only, within _POS_TOL of the line
            edges += [(d - _POS_TOL) / v_b, (d + _POS_TOL) / v_b]
            continue
        # the spans at which an arc's end control, 2*dv/span in size, meets
        # a control bound
        edges += [(3.0 * d - 2.0 * abs(dv / u) / c) / (3.0 * v_b)
                  for c, dv in zip(spans, offs) if c is not None for u in u_lims]
    return sorted(e for e in edges if e >= _MIN_HORIZON and math.isfinite(e))


def solve_bounded(bc: BoundaryConditions, bounds: Bounds) -> TrajectoryCoefficients:
    """One full solve attempt: unconstrained shape, then a cruise arc if a
    single speed bound binds.

    Returns a plan with no bound violations. Raises InfeasibleHorizonError
    when the window cannot be met cleanly; its ``partial`` attribute holds
    the least-bad plan (arc-pieced if that step succeeded, otherwise the
    unconstrained shape) for callers that must execute something anyway.
    """
    coeffs = solve_unconstrained(bc)
    broken = check_feasibility(coeffs, bounds)
    speed_hits = broken & {"v_max", "v_min"}
    try:
        if len(speed_hits) == 2:
            raise InfeasibleHorizonError("both speed bounds violated")
        if speed_hits:
            coeffs = solve_with_speed_arc(bc, bounds, speed_hits.pop())
            broken = check_feasibility(coeffs, bounds)
    except InfeasibleHorizonError as exc:
        if exc.partial is None:
            exc.partial = coeffs
        raise
    if broken:
        raise InfeasibleHorizonError(
            f"{', '.join(sorted(broken))} violated over the window", partial=coeffs)
    return coeffs
