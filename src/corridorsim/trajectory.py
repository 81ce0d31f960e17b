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


class DegenerateHorizonError(ValueError):
    """Planning window too short to pose the boundary-value problem."""


class InfeasibleHorizonError(ValueError):
    """No arc layout meets the boundary conditions; the merging time must
    be adjusted upstream.

    ``partial`` carries the best-effort plan found before giving up, when
    one exists, so a caller out of relaxation budget can execute it with
    the control clamped rather than having nothing at all.
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
    if t < t0 - _TIME_EPS or t > tm + _TIME_EPS:
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


def check_feasibility(coeffs: TrajectoryCoefficients, bounds: Bounds,
                      tol: float = 1e-9) -> set[str]:
    """Names of the bounds (u_min, u_max, v_min, v_max) that u or v exceeds
    by more than tol somewhere in the plan window.

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
                      if _peak_quad(qa, qb, qc, span) > tol)
    return broken


# ---------------------------------------------------------------------------
# speed-arc piecing


def _entry_arc(bc: BoundaryConditions, v_b: float, t1: float) -> ArcSegment:
    a1 = 2.0 * (bc.v0 - v_b) / (t1 * t1)
    return ArcSegment(ARC_UNCONSTRAINED, bc.t0, bc.t0 + t1, a1, -a1 * t1, bc.v0, bc.p0)


def solve_with_speed_arc(bc: BoundaryConditions, bounds: Bounds,
                         which: str) -> TrajectoryCoefficients:
    """Piece the plan with a constant-speed arc riding v_max or v_min.

    Junctions are smooth: v equals the bound and u equals zero where the
    unconstrained arcs meet the cruise arc, and the entry/exit control
    slopes are equal (the position costate is constant across arcs). Raises
    InfeasibleHorizonError when no switch times fit the window; the caller
    adjusts tm and retries.
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

    def cruise_only() -> TrajectoryCoefficients:
        if abs(dp - v_b * t) > _POS_TOL:
            raise InfeasibleHorizonError(
                f"cruise at {v_b:.3f} m/s covers {v_b * t:.3f} m, needs {dp:.3f} m")
        seg = ArcSegment(cruise_kind, bc.t0, bc.tm, 0.0, 0.0, v_b, bc.p0)
        return TrajectoryCoefficients(bc.t0, bc.tm, (seg,))

    entry_flat = abs(v0_off) < _SPEED_EPS
    exit_flat = vt_off is None or abs(vt_off) < _SPEED_EPS

    if entry_flat and exit_flat:
        return cruise_only()

    if entry_flat:
        # cruise from t0, single exit arc to the fixed terminal speed
        t3 = 3.0 * (dp - v_b * t) / vt_off
        if t3 < -_TIME_EPS or t3 > t + _TIME_EPS:
            raise InfeasibleHorizonError(f"exit arc span {t3:.3f} s outside window {t:.3f} s")
        t3 = min(max(t3, _MIN_HORIZON), t)
        d_cruise = v_b * (t - t3)
        a3 = 2.0 * vt_off / (t3 * t3)
        cruise = ArcSegment(cruise_kind, bc.t0, bc.tm - t3, 0.0, 0.0, v_b, bc.p0)
        exit_arc = ArcSegment(ARC_UNCONSTRAINED, bc.tm - t3, bc.tm,
                              a3, 0.0, v_b, bc.p0 + d_cruise)
        return TrajectoryCoefficients(bc.t0, bc.tm, (cruise, exit_arc))

    if exit_flat:
        # entry arc, then cruise rides the bound to tm (free terminal lands
        # on the bound; fixed terminal equal to the bound is the same shape)
        t1 = 3.0 * (dp - v_b * t) / v0_off
        if t1 < -_TIME_EPS or t1 > t + _TIME_EPS:
            raise InfeasibleHorizonError(f"entry arc span {t1:.3f} s outside window {t:.3f} s")
        t1 = min(max(t1, _MIN_HORIZON), t)
        entry = _entry_arc(bc, v_b, t1)
        d_entry = t1 * (bc.v0 + 2.0 * v_b) / 3.0
        cruise = ArcSegment(cruise_kind, bc.t0 + t1, bc.tm, 0.0, 0.0, v_b, bc.p0 + d_entry)
        return TrajectoryCoefficients(bc.t0, bc.tm, (entry, cruise))

    ratio = vt_off / v0_off
    if ratio < 0:
        raise InfeasibleHorizonError(
            "boundary speeds straddle the bound; no single cruise arc fits")
    k = math.sqrt(ratio)
    t1 = 3.0 * (dp - v_b * t) / (v0_off + k * vt_off)
    t3 = k * t1
    if t1 < _TIME_EPS or t3 < 0 or t1 + t3 > t + _TIME_EPS:
        raise InfeasibleHorizonError(
            f"arc spans T1={t1:.3f} s, T3={t3:.3f} s do not fit window {t:.3f} s")
    cruise_span = max(t - t1 - t3, 0.0)
    entry = _entry_arc(bc, v_b, t1)
    d_entry = t1 * (bc.v0 + 2.0 * v_b) / 3.0
    d_cruise = v_b * cruise_span
    a3 = 2.0 * vt_off / (t3 * t3)
    cruise = ArcSegment(cruise_kind, bc.t0 + t1, bc.t0 + t1 + cruise_span,
                        0.0, 0.0, v_b, bc.p0 + d_entry)
    exit_arc = ArcSegment(ARC_UNCONSTRAINED, bc.tm - t3, bc.tm,
                          a3, 0.0, v_b, bc.p0 + d_entry + d_cruise)
    return TrajectoryCoefficients(bc.t0, bc.tm, (entry, cruise, exit_arc))


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
