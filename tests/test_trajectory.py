"""Closed-form trajectory solver vs independent discretized oracles.

Expected literals below were frozen from tests/oracles.py (zero-order-hold
minimum-norm program) and an independent dense 4x4 linear solve; the
implementation under test never produced them.
"""

import math

import numpy as np
import pytest

from corridorsim import trajectory
from corridorsim.core import Bounds, ConflictZoneSpec
from corridorsim.sim import plan_merge
from corridorsim.trajectory import (
    ArcSegment,
    BoundaryConditions,
    DegenerateHorizonError,
    EvaluationWindowError,
    InfeasibleHorizonError,
    TrajectoryCoefficients,
    check_feasibility,
    control_effort,
    evaluate,
    horizon_edges,
    solve_bounded,
    solve_unconstrained,
    solve_with_speed_arc,
    terminal_speed,
)

from oracles import clean_horizons, least_clean_horizon, solve_discrete, solve_discrete_bounded

WIDE = Bounds(u_min=-10.0, u_max=10.0, v_min=0.0, v_max=60.0)
TABLE = Bounds(u_min=-3.0, u_max=1.5, v_min=0.0, v_max=17.8816)


def residuals(coeffs, bc):
    u0, v0, p0 = evaluate(coeffs, bc.t0)
    um, vm, pm = evaluate(coeffs, bc.tm)
    out = [p0 - bc.p0, v0 - bc.v0, pm - bc.p_mz]
    if bc.terminal_speed is None:
        out.append(um)
    else:
        out.append(vm - bc.terminal_speed)
    return out


# ---------------------------------------------------------------------------
# solve_unconstrained


def test_cruise_solution_is_zero_control():
    bc = BoundaryConditions(p0=0.0, v0=10.0, t0=0.0, p_mz=100.0, tm=10.0)
    coeffs = solve_unconstrained(bc)
    assert coeffs.segments[0].a == pytest.approx(0.0, abs=1e-12)
    assert coeffs.segments[0].b == pytest.approx(0.0, abs=1e-12)
    assert coeffs.segments[0].c == 10.0
    assert coeffs.segments[0].d == 0.0
    assert [seg.kind for seg in coeffs.segments] == ["unconstrained"]


def test_cruise_at_onramp_limit():
    v = 17.88
    bc = BoundaryConditions(p0=0.0, v0=v, t0=0.0, p_mz=100.0, tm=100.0 / v)
    coeffs = solve_unconstrained(bc)
    for t in np.linspace(0.0, bc.tm, 23):
        u, vv, _ = evaluate(coeffs, t)
        assert abs(u) < 1e-12
        assert vv == pytest.approx(v, abs=1e-12)


def test_scheduled_follower_matches_discretized_program():
    # entry at 13.4 m/s behind a leader merging 10 s later at 10 m/s:
    # scheduled window is 10 + (1.2 * 13.4)/10 = 11.608 s over 100 m
    bc = BoundaryConditions(p0=0.0, v0=13.4, t0=0.0, p_mz=100.0, tm=11.608)
    coeffs = solve_unconstrained(bc)
    assert coeffs.segments[0].a == pytest.approx(0.10653964087456023, rel=1e-12)
    assert coeffs.segments[0].b == pytest.approx(-1.2367121512718955, rel=1e-12)
    assert control_effort(coeffs) == pytest.approx(2.9589893697936898, rel=1e-12)
    assert terminal_speed(coeffs) == pytest.approx(6.2221226740179185, rel=1e-12)

    oracle = solve_discrete(0.0, 13.4, 100.0, 11.608, None, n=2000)
    grid = np.arange(2001) * oracle.h
    p_closed = np.array([evaluate(coeffs, t)[2] for t in grid])
    assert np.max(np.abs(oracle.p - p_closed)) < 1e-2
    # the discrete program can never beat the continuum optimum
    assert control_effort(coeffs) <= oracle.cost + 1e-9
    assert oracle.cost - control_effort(coeffs) < 0.01 * oracle.cost


def test_fixed_terminal_speed_matches_discretized_program():
    bc = BoundaryConditions(p0=0.0, v0=11.176, t0=0.0, p_mz=100.0, tm=10.0,
                            terminal_speed=8.314944)
    coeffs = solve_unconstrained(bc)
    assert coeffs.segments[0].a == pytest.approx(-0.03054336, rel=1e-9)
    assert coeffs.segments[0].b == pytest.approx(-0.1333888, rel=1e-9)
    assert control_effort(coeffs) == pytest.approx(0.4481527734272, rel=1e-9)
    assert max(abs(r) for r in residuals(coeffs, bc)) < 1e-9

    oracle = solve_discrete(0.0, 11.176, 100.0, 10.0, 8.314944, n=2000)
    grid = np.arange(2001) * oracle.h
    p_closed = np.array([evaluate(coeffs, t)[2] for t in grid])
    assert np.max(np.abs(oracle.p - p_closed)) < 1e-2
    assert control_effort(coeffs) <= oracle.cost + 1e-9


def test_degenerate_horizon_rejected():
    bc = BoundaryConditions(p0=0.0, v0=5.0, t0=100.0, p_mz=1.0, tm=100.0 + 1e-8)
    with pytest.raises(DegenerateHorizonError):
        solve_unconstrained(bc)


def test_invalid_boundary_conditions():
    with pytest.raises(ValueError):
        BoundaryConditions(p0=0.0, v0=5.0, t0=10.0, p_mz=100.0, tm=9.0)
    with pytest.raises(ValueError):
        BoundaryConditions(p0=50.0, v0=5.0, t0=0.0, p_mz=10.0, tm=5.0)
    with pytest.raises(ValueError):
        BoundaryConditions(p0=0.0, v0=-1.0, t0=0.0, p_mz=10.0, tm=5.0)


# ---------------------------------------------------------------------------
# evaluate


def test_eval_cruise_midpoint():
    bc = BoundaryConditions(p0=0.0, v0=10.0, t0=0.0, p_mz=100.0, tm=10.0)
    u, v, p = evaluate(solve_unconstrained(bc), 5.0)
    assert (u, v, p) == pytest.approx((0.0, 10.0, 50.0), abs=1e-12)


def test_eval_position_boundary_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p0 = float(rng.uniform(-200, 200))
        v0 = float(rng.uniform(0.5, 18))
        t0 = float(rng.uniform(0, 500))
        length = float(rng.uniform(20, 200))
        horizon = float(rng.uniform(1.0, 1.6)) * length / v0
        vt = float(rng.uniform(3, 17)) if rng.random() < 0.5 else None
        bc = BoundaryConditions(p0=p0, v0=v0, t0=t0, p_mz=p0 + length,
                                tm=t0 + horizon, terminal_speed=vt)
        coeffs = solve_unconstrained(bc)
        assert abs(evaluate(coeffs, t0)[2] - p0) < 1e-9


def test_eval_braking_case_transversality():
    v0 = 17.88
    tm = 1.2 * 100.0 / v0
    bc = BoundaryConditions(p0=0.0, v0=v0, t0=0.0, p_mz=100.0, tm=tm)
    coeffs = solve_unconstrained(bc)
    u_tm, v_tm, p_tm = evaluate(coeffs, tm)
    assert abs(u_tm) <= 1e-9
    assert v_tm == pytest.approx(13.41, rel=1e-12)
    assert p_tm == pytest.approx(100.0, abs=1e-9)


def test_eval_outside_window_raises():
    bc = BoundaryConditions(p0=0.0, v0=10.0, t0=0.0, p_mz=100.0, tm=10.0)
    coeffs = solve_unconstrained(bc)
    with pytest.raises(EvaluationWindowError):
        evaluate(coeffs, -0.5)
    with pytest.raises(EvaluationWindowError):
        evaluate(coeffs, 10.5)


# ---------------------------------------------------------------------------
# check_feasibility


def test_cruise_is_feasible():
    bc = BoundaryConditions(p0=0.0, v0=10.0, t0=0.0, p_mz=100.0, tm=10.0)
    assert check_feasibility(solve_unconstrained(bc), TABLE) == set()


def test_control_peak_violation_interval():
    # window tuned so the initial control is exactly 2.0 m/s^2
    tm = (-15.0 + math.sqrt(825.0)) / 2.0
    bc = BoundaryConditions(p0=0.0, v0=10.0, t0=0.0, p_mz=100.0, tm=tm)
    coeffs = solve_unconstrained(bc)
    assert coeffs.segments[0].b == pytest.approx(2.0, rel=1e-12)
    assert check_feasibility(coeffs, TABLE) == {"u_max"}
    # at a looser control envelope the same plan is clean
    assert check_feasibility(coeffs, WIDE) == set()


def test_speed_dip_below_floor_detected():
    bc = BoundaryConditions(p0=0.0, v0=10.0, t0=0.0, p_mz=100.0, tm=35.0)
    coeffs = solve_unconstrained(bc)
    assert "v_min" in check_feasibility(coeffs, WIDE)


def test_exact_graze_is_not_a_violation():
    # peak control exactly at the bound must not be reported
    tm = (-15.0 + math.sqrt(825.0)) / 2.0
    bc = BoundaryConditions(p0=0.0, v0=10.0, t0=0.0, p_mz=100.0, tm=tm)
    coeffs = solve_unconstrained(bc)
    graze = Bounds(u_min=-3.0, u_max=2.0, v_min=0.0, v_max=60.0)
    assert "u_max" not in check_feasibility(coeffs, graze)


# ---------------------------------------------------------------------------
# solve_with_speed_arc


def junctions(coeffs):
    out = []
    for prev, nxt in zip(coeffs.segments, coeffs.segments[1:]):
        t = prev.t_end
        out.append((prev.control(prev.span), prev.speed(prev.span),
                    prev.position(prev.span), nxt.control(0.0), nxt.speed(0.0),
                    nxt.position(0.0), t))
    return out


def test_three_arc_at_speed_ceiling():
    bc = BoundaryConditions(p0=0.0, v0=11.176, t0=0.0, p_mz=100.0, tm=6.0,
                            terminal_speed=11.176)
    # unconstrained peak speed 19.41 m/s exceeds the 17.8816 ceiling
    assert "v_max" in check_feasibility(solve_unconstrained(bc), TABLE)

    coeffs = solve_with_speed_arc(bc, TABLE, "v_max")
    kinds = [seg.kind for seg in coeffs.segments]
    assert kinds == ["unconstrained", "v_max_cruise", "unconstrained"]

    entry, cruise, exit_arc = coeffs.segments
    assert entry.span == pytest.approx(1.630637079455976, rel=1e-12)
    assert exit_arc.span == pytest.approx(1.630637079455976, rel=1e-12)
    assert cruise.span == pytest.approx(2.7387258410880477, rel=1e-12)
    assert entry.a == pytest.approx(-5.043743726649001, rel=1e-12)
    assert entry.b == pytest.approx(8.224515539947326, rel=1e-12)
    # constant position costate forces equal control slopes on both sides
    assert exit_arc.a == pytest.approx(entry.a, rel=1e-12)
    assert control_effort(coeffs) == pytest.approx(36.766874269780516, rel=1e-12)

    for u_l, v_l, p_l, u_r, v_r, p_r, _ in junctions(coeffs):
        assert abs(u_l) < 1e-9 and abs(u_r) < 1e-9
        assert v_l == pytest.approx(17.8816, abs=1e-9)
        assert v_r == pytest.approx(17.8816, abs=1e-9)
        assert p_l == pytest.approx(p_r, abs=1e-9)
    assert max(abs(r) for r in residuals(coeffs, bc)) < 1e-9
    # the pieced bound itself is respected everywhere
    assert "v_max" not in check_feasibility(coeffs, TABLE)

    oracle = solve_discrete_bounded(0.0, 11.176, 100.0, 6.0, 11.176,
                                    v_max=17.8816, n=120)
    assert control_effort(coeffs) <= oracle.cost + 1e-9
    assert oracle.cost - control_effort(coeffs) < 0.01 * oracle.cost


def test_three_arc_at_standstill_floor():
    bc = BoundaryConditions(p0=0.0, v0=8.0, t0=0.0, p_mz=100.0, tm=40.0,
                            terminal_speed=8.314944)
    assert "v_min" in check_feasibility(solve_unconstrained(bc), TABLE)

    coeffs = solve_with_speed_arc(bc, TABLE, "v_min")
    kinds = [seg.kind for seg in coeffs.segments]
    assert kinds == ["unconstrained", "v_min_cruise", "unconstrained"]
    entry, cruise, exit_arc = coeffs.segments
    assert entry.span == pytest.approx(18.207158736582205, rel=1e-12)
    assert exit_arc.span == pytest.approx(18.562088945799555, rel=1e-12)
    assert entry.a == pytest.approx(0.04826536841199888, rel=1e-12)
    assert exit_arc.a == pytest.approx(entry.a, rel=1e-12)
    assert control_effort(coeffs) == pytest.approx(4.8265368411998875, rel=1e-12)
    assert max(abs(r) for r in residuals(coeffs, bc)) < 1e-9
    assert "v_min" not in check_feasibility(coeffs, TABLE)

    oracle = solve_discrete_bounded(0.0, 8.0, 100.0, 40.0, 8.314944,
                                    v_min=0.0, n=120)
    assert control_effort(coeffs) <= oracle.cost + 1e-9
    assert oracle.cost - control_effort(coeffs) < 0.01 * oracle.cost


def test_entry_at_bound_collapses_to_single_cruise():
    v = TABLE.v_max
    bc = BoundaryConditions(p0=0.0, v0=v, t0=2.0, p_mz=100.0, tm=2.0 + 100.0 / v)
    coeffs = solve_with_speed_arc(bc, TABLE, "v_max")
    assert [(seg.kind, seg.t_start) for seg in coeffs.segments] == [("v_max_cruise", 2.0)]
    assert coeffs.segments[0].t_end == bc.tm
    assert max(abs(r) for r in residuals(coeffs, bc)) < 1e-9


def test_free_terminal_rides_bound_to_merge():
    bc = BoundaryConditions(p0=0.0, v0=11.176, t0=0.0, p_mz=100.0, tm=6.0)
    coeffs = solve_with_speed_arc(bc, TABLE, "v_max")
    kinds = [seg.kind for seg in coeffs.segments]
    assert kinds == ["unconstrained", "v_max_cruise"]
    assert coeffs.segments[-1].t_end == pytest.approx(6.0)
    assert terminal_speed(coeffs) == pytest.approx(17.8816, abs=1e-9)
    assert max(abs(r) for r in residuals(coeffs, bc)) < 1e-9

    oracle = solve_discrete_bounded(0.0, 11.176, 100.0, 6.0, None,
                                    v_max=17.8816, n=120)
    assert control_effort(coeffs) <= oracle.cost + 1e-9


def test_quoted_merge_window_needs_no_piecing():
    # 25 mph entry, window 10% tighter than free flow: peak speed stays
    # at 13.04 m/s, well under the 40 mph ceiling, so the unconstrained
    # solution already passes and no arc insertion is warranted
    v0 = 11.18
    bc = BoundaryConditions(p0=0.0, v0=v0, t0=0.0, p_mz=100.0, tm=0.9 * 100.0 / v0)
    coeffs = solve_unconstrained(bc)
    bounds = Bounds(u_min=-10.0, u_max=10.0, v_min=0.0, v_max=17.88)
    assert check_feasibility(coeffs, bounds) == set()
    assert terminal_speed(coeffs) == pytest.approx(13.04333333, rel=1e-6)


def test_infeasible_window_below_kinematic_floor():
    bc = BoundaryConditions(p0=0.0, v0=11.176, t0=0.0, p_mz=100.0, tm=4.0,
                            terminal_speed=11.176)
    with pytest.raises(InfeasibleHorizonError):
        solve_with_speed_arc(bc, TABLE, "v_max")


def test_every_speed_arc_layout_meets_its_boundary_and_joins_smoothly():
    # random states on both bounds, drawn so that each layout (cruise only,
    # entry arc, exit arc, both arcs) turns up on each: entry and terminal
    # speeds on the bound or off it, and a distance the bound covers in
    # exactly the horizon or not. From t0 = 0 and p0 = 0 the spans are exact
    # in floats. A lone arc whose span falls under the 1 us floor is clamped
    # to it, which moves p(tm) by up to a third of its speed change times
    # 1 us, and a 1 us exit arc ending at tm is not exact in floats; such a
    # plan is held to its speed change times 1 us.
    rng = np.random.default_rng(18)
    floor = Bounds(u_min=-3.0, u_max=1.5, v_min=5.0, v_max=17.8816)
    layouts = set()
    for trial in range(6000):
        bounds = TABLE if trial % 2 else floor
        which = ("v_max", "v_min")[trial // 2 % 2]
        v_b = getattr(bounds, which)
        v0 = v_b if rng.random() < 0.3 else float(rng.uniform(0.0, 22.0))
        pick = rng.random()
        vt = None if pick < 0.3 else v_b if pick < 0.5 else float(rng.uniform(0.5, 22.0))
        if v_b > 0 and rng.random() < 0.2:
            tm = float(rng.uniform(1.0, 40.0))
            dist = v_b * tm
        else:
            dist = float(rng.uniform(1.0, 300.0))
            tm = dist / float(rng.uniform(0.5, 30.0))
        bc = BoundaryConditions(p0=0.0, v0=v0, t0=0.0, p_mz=dist, tm=tm, terminal_speed=vt)
        try:
            plan = solve_with_speed_arc(bc, bounds, which)
        except InfeasibleHorizonError:
            continue
        layouts.add((which, tuple(seg.kind for seg in plan.segments)))
        assert plan.t0 == 0.0 and plan.tm == tm
        arcs = [seg for seg in plan.segments if seg.kind == "unconstrained"]
        tol = 1e-9
        if len(arcs) == 1 and arcs[0].span < 2e-6:
            tol += abs(arcs[0].speed(arcs[0].span) - arcs[0].speed(0.0)) * 1e-6
        _, v_start, p_start = evaluate(plan, 0.0)
        um, v_end, p_end = evaluate(plan, tm)
        assert abs(p_start) < tol and abs(v_start - v0) < tol, bc
        assert abs(p_end - dist) < tol, bc
        assert abs(um) < tol if vt is None else abs(v_end - vt) < tol, bc
        for u_l, v_l, p_l, u_r, v_r, p_r, _ in junctions(plan):
            assert abs(u_l) < tol and abs(u_r) < tol, bc
            assert abs(v_l - v_b) < tol and abs(v_r - v_b) < tol, bc
            assert abs(p_l - p_r) < tol, bc
    assert len(layouts) == 8, layouts


def _random_states(n):
    """n (bc, bounds) draws that cover each way the unconstrained shape can
    fail: v_max, v_min, both, or a control bound."""
    rng = np.random.default_rng(11)
    floor = Bounds(u_min=-3.0, u_max=1.5, v_min=5.0, v_max=17.8816)
    for trial in range(n):
        bounds = TABLE if trial % 2 else floor
        v0 = float(rng.uniform(0.0, 22.0))
        vt = float(rng.uniform(0.5, 22.0)) if trial % 3 else None
        dist = float(rng.uniform(1.0, 300.0))
        tm = float(rng.uniform(0.1, 5.0)) if trial % 4 == 0 \
            else dist / float(rng.uniform(0.5, 30.0))
        yield BoundaryConditions(p0=0.0, v0=v0, t0=0.0, p_mz=dist, tm=tm,
                                 terminal_speed=vt), bounds


def test_every_infeasible_solve_carries_a_partial_plan():
    # a planner with no clean horizon at or after the booked merging time
    # executes exc.partial with no other fallback, so every raise must
    # carry one
    raised = {"v_max": 0, "v_min": 0, "both": 0, "control": 0}
    for bc, bounds in _random_states(3000):
        hits = check_feasibility(solve_unconstrained(bc), bounds)
        speed = hits & {"v_max", "v_min"}
        kind = ("both" if len(speed) == 2 else speed.pop() if speed
                else "control" if hits else None)
        try:
            solve_bounded(bc, bounds)
        except InfeasibleHorizonError as exc:
            assert exc.partial is not None, (bc, bounds)
            raised[kind] += 1
    assert min(raised.values()) >= 20, raised


def test_plan_merge_books_what_a_scan_finds():
    # the least clean horizon at or after the booked one, from the closed-form
    # edges, against a 1 ms scan and bisection that knows nothing of them.
    # The scan reaches 10 s past the booking, and past the planner's horizon
    # where that lies farther (up to 22 s here)
    found = moved = far = 0
    for bc, bounds in _random_states(2000):
        vt = bc.terminal_speed
        zone = ConflictZoneSpec(index=1, kind="merge", cz_length=100.0, mz_length=15.0,
                                mz_speed=17.8816 if vt is None else vt, approaches=(),
                                terminal_rule="free" if vt is None else "mz_speed")
        plan = plan_merge(bc.p0, bc.v0, bc.t0, bc.p_mz, zone, bc.tm, bounds)
        reach = 10.0
        if plan.clean and plan.tm - bc.tm > reach:
            reach = math.ceil(plan.tm - bc.tm) + 1.0
            far += 1
        want = least_clean_horizon(bc, bounds, reach=reach)
        if want is None:
            assert not plan.clean, (bc, bounds, plan.tm)
            assert plan.tm == bc.tm
            continue
        assert plan.clean, (bc, bounds, want)
        assert plan.tm - bc.t0 == pytest.approx(want, abs=1e-6), (bc, bounds)
        assert plan.coeffs.tm == plan.tm
        found += 1
        if plan.tm > bc.tm:     # a booking moved later sits on a closed-form edge
            edges = horizon_edges(bc.p0, bc.v0, bc.p_mz, vt, bounds)
            assert min(abs(e - want) for e in edges) < 1e-9, (bc, bounds, want)
            moved += 1
    assert found >= 500 and moved >= 300 and far >= 20, (found, moved, far)


def test_the_scan_oracle_agrees_with_solve_bounded():
    # clean_horizons decides every grid horizon at once; spot-check it
    # against solve_bounded one horizon at a time
    rng = np.random.default_rng(3)
    n_clean = 0
    for bc, bounds in _random_states(500):
        horizons = bc.horizon + rng.uniform(0.0, 30.0, 20)
        for h, ok in zip(horizons, clean_horizons(bc, bounds, horizons)):
            try:
                solve_bounded(BoundaryConditions(bc.p0, bc.v0, bc.t0, bc.p_mz,
                                                 bc.t0 + h, bc.terminal_speed), bounds)
                clean = True
            except InfeasibleHorizonError:
                clean = False
            assert clean == ok, (bc, bounds, h)
            n_clean += clean
    assert n_clean >= 1000


def test_terminal_speed_past_the_ceiling_is_a_violation():
    # entry exactly on a 20 mph ceiling with a 25 mph terminal speed: the
    # pieced plan cruises on the bound, then its exit arc leaves the bound
    # with zero slope and ends 2.236 m/s above it
    ceiling = Bounds(u_min=-3.0, u_max=1.5, v_min=0.0, v_max=8.9408)
    bc = BoundaryConditions(p0=1100.0, v0=8.9408, t0=0.0, p_mz=1200.0, tm=10.5,
                            terminal_speed=11.176)
    pieced = solve_with_speed_arc(bc, ceiling, "v_max")
    assert [seg.kind for seg in pieced.segments] == ["v_max_cruise", "unconstrained"]
    assert terminal_speed(pieced) == pytest.approx(11.176, abs=1e-9)
    assert "v_max" in check_feasibility(pieced, ceiling)
    with pytest.raises(InfeasibleHorizonError, match="v_max") as info:
        solve_bounded(bc, ceiling)
    assert info.value.partial is not None


def _sampled_excess(coeffs, bounds, n=4001):
    """Largest amount by which a dense sample of u or v passes each bound."""
    excess = dict.fromkeys(("u_max", "u_min", "v_max", "v_min"), -math.inf)
    for seg in coeffs.segments:
        if seg.span <= 0:
            continue
        tau = np.linspace(0.0, seg.span, n)
        u, v = seg.control(tau), seg.speed(tau)
        for name, value in (("u_max", np.max(u) - bounds.u_max),
                            ("u_min", bounds.u_min - np.min(u)),
                            ("v_max", np.max(v) - bounds.v_max),
                            ("v_min", bounds.v_min - np.min(v))):
            excess[name] = max(excess[name], float(value))
    return excess


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_feasibility_names_the_bounds_a_dense_sample_exceeds(tol, monkeypatch):
    # unconstrained and arc-pieced plans; plans whose sampled excess lies
    # within 1e-6 of tol are too close to call by sampling and are skipped,
    # which at the default tol includes every plan riding a bound exactly
    monkeypatch.setattr(trajectory, "_FEAS_TOL", tol)
    rng = np.random.default_rng(5)
    floor = Bounds(u_min=-3.0, u_max=1.5, v_min=5.0, v_max=17.8816)
    checked = skipped = 0
    named = set()
    for trial in range(600):
        bounds = TABLE if trial % 2 else floor
        vt = float(rng.uniform(0.5, 22.0)) if trial % 3 else None
        if trial % 5 in (1, 2):
            # entry exactly on a bound and a mean speed between it and the
            # terminal speed: when the terminal speed lies past the bound,
            # the pieced plan cruises on it and its exit arc ends past it
            v0 = bounds.v_max if trial % 5 == 1 else bounds.v_min
            v_end = vt if vt is not None else float(rng.uniform(0.5, 22.0))
            mean = v0 + float(rng.uniform(0.05, 1.0)) * (v_end - v0)
        else:
            v0 = float(rng.uniform(0.0, 22.0))
            mean = float(rng.uniform(0.5, 30.0))
        dist = float(rng.uniform(1.0, 300.0))
        bc = BoundaryConditions(p0=0.0, v0=v0, t0=0.0, p_mz=dist, tm=dist / mean,
                                terminal_speed=vt)
        plans = [solve_unconstrained(bc)]
        for which in ("v_max", "v_min"):
            try:
                plans.append(solve_with_speed_arc(bc, bounds, which))
            except InfeasibleHorizonError:
                pass
        for coeffs in plans:
            excess = _sampled_excess(coeffs, bounds)
            if any(abs(e - tol) <= 1e-6 for e in excess.values()):
                skipped += 1
                continue
            expected = {name for name, e in excess.items() if e > tol}
            assert check_feasibility(coeffs, bounds) == expected, (bc, bounds, coeffs)
            named |= expected
            checked += 1
    assert named == {"u_max", "u_min", "v_max", "v_min"}
    assert checked > skipped, (checked, skipped)


# ---------------------------------------------------------------------------
# randomized sweep against the oracle


def test_randomized_instances_match_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        v0 = float(rng.uniform(5.0, 18.0))
        length = 100.0
        stretch = float(rng.uniform(1.0, 1.6))
        tm = stretch * length / v0
        vt = float(rng.uniform(5.0, 15.0)) if trial % 2 else None
        bc = BoundaryConditions(p0=0.0, v0=v0, t0=0.0, p_mz=length, tm=tm,
                                terminal_speed=vt)
        coeffs = solve_unconstrained(bc)
        assert max(abs(r) for r in residuals(coeffs, bc)) <= 1e-9
        if vt is None:
            assert abs(evaluate(coeffs, tm)[0]) <= 1e-9

        oracle = solve_discrete(0.0, v0, length, tm, vt, n=400)
        cost = control_effort(coeffs)
        assert cost <= oracle.cost + 1e-9
        if oracle.cost > 1e-9:
            assert (oracle.cost - cost) / oracle.cost < 0.01
        grid = np.arange(401) * oracle.h
        p_closed = np.array([evaluate(coeffs, t)[2] for t in grid])
        np.testing.assert_allclose(oracle.p, p_closed, atol=1e-2)


def test_free_terminal_minimizes_over_terminal_speed_family():
    bc = BoundaryConditions(p0=0.0, v0=13.4, t0=0.0, p_mz=100.0, tm=11.608)
    free = solve_unconstrained(bc)
    base = control_effort(free)
    v_free = terminal_speed(free)
    for eps in (-0.5, -0.05, 0.05, 0.5):
        pinned = solve_unconstrained(
            BoundaryConditions(p0=0.0, v0=13.4, t0=0.0, p_mz=100.0, tm=11.608,
                               terminal_speed=v_free + eps))
        assert control_effort(pinned) > base
