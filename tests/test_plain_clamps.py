"""The step loop's plain clamps give the bits the builtin ``min``/``max``
gave: ``evaluate``, ``optimal_step`` and ``baseline_step`` against their
references in ``oracles``, on random plans and states, at the plan window's
ends and arc joints, with signed zeros and NaN. A NaN time is the one
probe where they part: ``evaluate`` raises ``EvaluationWindowError``, as
for any time outside the window, where the reference returned NaN."""

import math
import random

import pytest

import oracles
from corridorsim.core import Bounds, VehicleState
from corridorsim.sim import StepContext, baseline_step, optimal_step
from corridorsim.trajectory import (
    ArcSegment,
    EvaluationWindowError,
    TrajectoryCoefficients,
    evaluate,
)

NAN = float("nan")


def same(a, b) -> bool:
    """Equal, telling 0.0 from -0.0 and taking NaN as equal to NaN."""
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return type(a) is type(b) and a == b


def outcome(fn, *args):
    try:
        return fn(*args)
    except EvaluationWindowError:
        return EvaluationWindowError


def draw(rng, lo, hi, zeros=0.1, nan=0.0):
    """A float in [lo, hi), or now and then a signed zero or NaN."""
    r = rng.random()
    if r < zeros:
        return rng.choice((0.0, -0.0))
    if r < zeros + nan:
        return NAN
    return rng.uniform(lo, hi)


def random_plan(rng, arcs, zeros=0.1):
    t = rng.choice((0.0, -0.0)) if rng.random() < zeros else rng.uniform(-5.0, 500.0)
    t0 = t
    segments = []
    for _ in range(arcs):
        end = t + rng.uniform(0.05, 20.0)
        segments.append(ArcSegment("unconstrained", t, end, *(draw(rng, -5.0, 5.0, zeros)
                                                             for _ in range(4))))
        t = end
    return TrajectoryCoefficients(t0, t, tuple(segments))


def probe_times(rng, coeffs):
    """The window's ends and just past them, each joint and 1 ulp either
    side of it and of where the arc lookup turns, interior points, NaN."""
    t0, tm = coeffs.t0, coeffs.tm
    times = [t0, tm, t0 - 5e-10, tm + 5e-10, -t0, NAN]
    for seg in coeffs.segments[:-1]:
        for joint in (seg.t_end, seg.t_end + 1e-9):
            times += [math.nextafter(joint, -math.inf), joint, math.nextafter(joint, math.inf)]
    times += [rng.uniform(t0, tm) for _ in range(5)]
    return times


@pytest.mark.parametrize("arcs", [1, 2, 3])
def test_evaluate_matches_min_max_reference(arcs):
    rng = random.Random(arcs)
    for _ in range(300):
        coeffs = random_plan(rng, arcs)
        for t in probe_times(rng, coeffs):
            if math.isnan(t):   # outside every window; the reference passes it through
                with pytest.raises(EvaluationWindowError):
                    evaluate(coeffs, t)
                continue
            assert same(outcome(evaluate, coeffs, t), outcome(oracles.evaluate, coeffs, t)), t


def test_evaluate_raises_outside_the_window():
    rng = random.Random(4)
    for arcs in (1, 2, 3):
        coeffs = random_plan(rng, arcs)
        for t in (coeffs.t0 - 2e-9, coeffs.tm + 2e-9, coeffs.t0 - 7.0, coeffs.tm + 7.0):
            with pytest.raises(EvaluationWindowError):
                evaluate(coeffs, t)
            with pytest.raises(EvaluationWindowError):
                oracles.evaluate(coeffs, t)
        with pytest.raises(EvaluationWindowError):
            evaluate(coeffs, NAN)


def test_evaluate_keeps_signed_zeros():
    # every coefficient and time a signed zero: the sign of each result is
    # decided by the clamps' argument order
    for bits in range(1 << 7):
        z = [-0.0 if bits >> i & 1 else 0.0 for i in range(7)]
        seg = ArcSegment("unconstrained", z[0], 1.0, *z[1:5])
        coeffs = TrajectoryCoefficients(z[0], 1.0, (seg,))
        for t in (z[5], z[6], 5e-10, -5e-10):
            assert same(evaluate(coeffs, t), oracles.evaluate(coeffs, t)), (bits, t)


@pytest.mark.parametrize("arcs", [1, 2, 3])
def test_optimal_step_matches_min_max_reference(arcs):
    rng = random.Random(10 + arcs)
    for _ in range(300):
        coeffs = random_plan(rng, arcs, zeros=0.3)
        bounds = Bounds(u_min=draw(rng, -5.0, -0.5, 0.2), u_max=draw(rng, 0.5, 3.0, 0.2),
                        v_min=0.0, v_max=30.0)
        dt = rng.choice((0.1, 0.05, 0.5))
        for t in probe_times(rng, coeffs):
            t = t - dt if rng.random() < 0.5 else t
            veh = VehicleState(1, "main", s=draw(rng, -5.0, 5.0, 0.3),
                               v=draw(rng, -1.0, 20.0, 0.3))
            v_hold = draw(rng, 0.0, 20.0, 0.3)
            assert same(outcome(optimal_step, veh, coeffs, t, dt, bounds, v_hold),
                        outcome(oracles.optimal_step, veh, coeffs, t, dt, bounds, v_hold))


def test_optimal_step_keeps_signed_zeros():
    # a plan, state and bounds of signed zeros only: the target speed, the
    # control and its clamp each land on a zero whose sign the order decides
    plan = TrajectoryCoefficients(0.0, 1.0, (ArcSegment("unconstrained", 0.0, 1.0,
                                                        -0.0, -0.0, -0.0, -0.0),))
    for bits in range(1 << 5):
        z = [-0.0 if bits >> i & 1 else 0.0 for i in range(5)]
        veh = VehicleState(1, "main", s=z[0], v=z[1])
        bounds = Bounds(u_min=z[2], u_max=z[3], v_min=0.0, v_max=30.0)
        for t in (0.0, 0.95):
            assert same(optimal_step(veh, plan, t, 0.1, bounds, z[4]),
                        oracles.optimal_step(veh, plan, t, 0.1, bounds, z[4])), (bits, t)


def test_baseline_step_keeps_signed_zeros():
    # at the desired speed the free-road control is 0.0; zero bounds of
    # either sign then decide the result's sign by the clamps' order
    veh = VehicleState(1, "main", s=0.0, v=10.0)
    for bits in range(1 << 2):
        z = [-0.0 if bits >> i & 1 else 0.0 for i in range(2)]
        bounds = Bounds(u_min=z[0], u_max=z[1], v_min=0.0, v_max=30.0)
        for leader in (None, VehicleState(2, "main", s=50.0, v=10.0)):
            ctx = StepContext(v_des=10.0, dt=0.1, bounds=bounds)
            assert same(baseline_step(veh, leader, ctx),
                        oracles.baseline_step(veh, leader, ctx)), bits


def test_baseline_step_matches_min_max_reference():
    rng = random.Random(20)
    for _ in range(5000):
        # four draws that once gave the follower's parameters, now constants:
        # they keep every state below the one this seed has always drawn
        rng.uniform(0.5, 3.0), rng.uniform(1.0, 5.0), draw(rng, 0.0, 4.0, 0.2)
        rng.uniform(0.5, 2.0)
        bounds = Bounds(u_min=draw(rng, -5.0, -0.5, 0.2), u_max=draw(rng, 0.5, 3.0, 0.2),
                        v_min=0.0, v_max=30.0)
        s = draw(rng, -5.0, 500.0, 0.2)
        veh = VehicleState(1, "main", s=s, v=draw(rng, 0.0, 25.0, 0.2, 0.01))
        leader = None
        if rng.random() < 0.7:
            leader = VehicleState(2, "main", s=s + draw(rng, -1.0, 80.0, 0.2, 0.01),
                                  v=draw(rng, 0.0, 25.0, 0.2))
        cuts = tuple((draw(rng, -5.0, 150.0, 0.1), draw(rng, 0.0, 20.0, 0.1))
                     for _ in range(rng.randrange(3)))
        projected = None
        if rng.random() < 0.3:
            projected = (draw(rng, -1.0, 60.0, 0.2, 0.01), draw(rng, 0.0, 20.0, 0.2))
        line_gap = draw(rng, -1.0, 30.0, 0.3, 0.01) if rng.random() < 0.4 else None
        ctx = StepContext(v_des=draw(rng, -1.0, 20.0, 0.1, 0.01),
                          dt=rng.choice((0.1, 0.05)), bounds=bounds, limit_cuts=cuts,
                          projected=projected, line_gap=line_gap)
        assert same(baseline_step(veh, leader, ctx),
                    oracles.baseline_step(veh, leader, ctx))
