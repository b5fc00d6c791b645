"""Reference-trajectory oracles: profile arithmetic, continuity, closure,
and the TRAJECTORIES table that config, run and metrics read."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slungsim.metrics import compute_run_metrics
from slungsim.simloop import LOG_WIDTH, SimConfig, SimLog, run
from slungsim.trajectory import (
    A_PEAK,
    LEG_LENGTH,
    START_POS,
    T_ACCEL,
    T_CRUISE,
    T_LEG,
    TRAJECTORIES,
    ReferencePoint,
    V_CRUISE,
    leg_sample,
    square_reference,
)

REST = (0.0, 0.0, 0.0)
# each trajectory's (x, y) waypoints, restated from its definition
WAYPOINTS = {"square": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                        (0.0, 0.0)],
             "single_leg": [(0.0, 0.0), (1.0, 0.0)],
             "hover": [(0.0, 0.0)]}


class TestProfile:
    def test_defaults_integrate_to_one_metre(self):
        assert LEG_LENGTH == pytest.approx(1.0, rel=1e-12)
        assert T_LEG == 15.0

    def test_cruise_speed_is_ramp_end_speed(self):
        assert V_CRUISE == pytest.approx(A_PEAK * T_ACCEL, rel=1e-9)

    def test_sample_midpoints(self):
        d, v, a = leg_sample(1.25)
        assert v == pytest.approx(0.04)
        assert a == 0.032
        d, v, a = leg_sample(7.0)
        assert v == 0.08 and a == 0.0
        d, v, a = leg_sample(13.75)
        assert a == -0.032

    def test_leg_ends_at_rest(self):
        d, v, a = leg_sample(15.0)
        assert d == pytest.approx(1.0, rel=1e-12)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            leg_sample(-0.1)
        with pytest.raises(ValueError):
            leg_sample(15.001)


class TestSquare:
    def test_start(self):
        ref = square_reference(0.0)
        assert ref.pos == pytest.approx([0.0, 0.0, 1.5])
        assert ref.vel == pytest.approx([0, 0, 0], abs=0.0)
        assert ref.acc == pytest.approx([0.032, 0.0, 0.0])

    def test_cruise(self):
        ref = square_reference(7.0)
        assert ref.vel == pytest.approx([0.08, 0.0, 0.0])
        assert ref.acc == pytest.approx([0, 0, 0], abs=0.0)

    def test_first_corner(self):
        ref = square_reference(15.0)
        assert ref.pos == pytest.approx([1.0, 0.0, 1.5], rel=1e-12)
        assert ref.vel == pytest.approx([0, 0, 0], abs=1e-15)

    def test_closure_at_60s(self):
        ref = square_reference(60.0)
        start = square_reference(0.0)
        assert ref.pos == start.pos

    def test_hold_stage(self):
        for t in (61.0, 70.0, 75.0):
            ref = square_reference(t)
            assert ref.pos == pytest.approx([0.0, 0.0, 1.5], abs=0.0)
            assert ref.vel == REST and ref.acc == REST

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            square_reference(-0.1)
        with pytest.raises(ValueError):
            square_reference(75.001)

    def test_continuity_on_millisecond_grid(self):
        ts = np.arange(0.0, 75.0 + 1e-9, 1e-3)
        refs = [square_reference(t) for t in ts]
        pos = np.array([r.pos for r in refs])
        vel = np.array([r.vel for r in refs])
        dpos = np.abs(np.diff(pos, axis=0)).max()
        dvel = np.abs(np.diff(vel, axis=0)).max()
        assert dpos <= 1e-3 * 0.08 + 1e-12
        assert dvel <= 1e-3 * 0.032 + 1e-12

    def test_stage3_antisymmetric_to_stage1(self):
        for t in np.linspace(0.0, 14.999, 50):
            v1 = square_reference(t).vel
            v3 = square_reference(t + 30.0).vel
            assert v3[0] == pytest.approx(-v1[0], abs=1e-15)
            assert v3[1] == pytest.approx(0.0, abs=0.0)

    def test_velocity_integrates_to_position(self):
        # trapezoid arithmetic consistency: numeric integral of vel matches
        # pos along the whole figure
        ts = np.arange(0.0, 60.0 + 1e-9, 1e-3)
        vel = np.array([square_reference(t).vel for t in ts])
        pos = np.array([square_reference(t).pos for t in ts])
        integ = pos[0, :2] + np.cumsum(
            0.5 * (vel[1:, :2] + vel[:-1, :2]) * 1e-3, axis=0)
        assert np.abs(integ - pos[1:, :2]).max() < 1e-6


class TestSingleLeg:
    def test_hold_after_arrival(self):
        ref = TRAJECTORIES["single_leg"].reference(20.0)
        assert ref.pos == pytest.approx([1.0, 0.0, 1.5], rel=1e-12)
        assert ref.vel == REST and ref.acc == REST

    def test_start(self):
        ref = TRAJECTORIES["single_leg"].reference(0.0)
        assert ref.pos == pytest.approx([0.0, 0.0, 1.5])

    def test_deceleration_midpoint(self):
        ref = TRAJECTORIES["single_leg"].reference(13.75)
        assert ref.acc == pytest.approx([-0.032, 0.0, 0.0])

    def test_matches_square_first_leg(self):
        for t in (0.5, 3.0, 9.9, 14.2):
            a = TRAJECTORIES["single_leg"].reference(t)
            b = square_reference(t)
            assert a.pos == b.pos
            assert a.vel == b.vel


class TestTable:
    def test_names_in_order(self):
        assert list(TRAJECTORIES) == ["square", "single_leg", "hover"]

    def test_references(self):
        assert TRAJECTORIES["square"].reference is square_reference

    def test_square_leg_boundaries(self):
        assert TRAJECTORIES["square"].transitions == (
            15.0, 30.0, 45.0, 60.0)

    def test_single_leg_handover(self):
        assert TRAJECTORIES["single_leg"].transitions == (15.0,)

    def test_hover_has_none(self):
        assert TRAJECTORIES["hover"].transitions == ()

    def test_windows(self):
        assert [tr.window for tr in TRAJECTORIES.values()] == [
            75.0, 75.0, math.inf]

    def test_only_single_leg_scores_arrival(self):
        assert [n for n, tr in TRAJECTORIES.items() if tr.arrival] == [
            "single_leg"]

    def test_unknown_trajectory(self):
        log = SimLog(rows=np.zeros((3, LOG_WIDTH)))
        with pytest.raises(KeyError):
            compute_run_metrics(log, trajectory="zigzag")


@pytest.mark.parametrize("name", list(TRAJECTORIES))
def test_table_entry(name):
    entry = TRAJECTORIES[name]
    # a run samples the entry's reference at every tick, past the first
    # stage change (square and single_leg share their first leg)
    log = run(SimConfig(trajectory=name, duration=T_LEG + 1.0))
    assert [tuple(r) for r in log.ref] == [entry.reference(t).pos
                                           for t in log.t]
    ref = entry.reference(0.0)
    assert ref.pos == START_POS and ref.vel == REST
    ts = (0.0, *entry.transitions, entry.window)
    assert all(a < b for a, b in zip(ts, ts[1:]))
    # a settled log: 75 s at rest on the reference, every angle zero
    rows = np.zeros((751, LOG_WIDTH))
    rows[:, 0] = np.arange(751) * 0.1
    m = compute_run_metrics(SimLog(rows=rows), trajectory=name)
    assert math.isfinite(m.arrival_time) == entry.arrival
    assert m.stage_times == (0.0,) * len(entry.transitions)
    # the one waypoint path: each stage change is the next waypoint, at
    # rest, and from the last one on the reference holds it
    waypoints = [(*xy, START_POS[2]) for xy in WAYPOINTS[name]]
    assert len(entry.transitions) == len(waypoints) - 1
    for t, pos in zip(entry.transitions, waypoints[1:]):
        ref = entry.reference(t)
        assert ref.pos == pos and ref.vel == REST
    hold = (entry.transitions or (0.0,))[-1]
    for t in (hold, hold + 0.01, hold + 7.5, min(entry.window, 75.0)):
        assert entry.reference(t) == (waypoints[-1], REST, REST)
    with pytest.raises(ValueError):
        entry.reference(-0.1)
    if math.isfinite(entry.window):
        with pytest.raises(ValueError):
            entry.reference(entry.window + 1e-3)


def test_hover_reference_constant():
    a = TRAJECTORIES["hover"].reference(0.0)
    b = TRAJECTORIES["hover"].reference(123.0)
    assert a.pos == b.pos
    assert a.vel == REST and a.acc == REST


@pytest.mark.parametrize("name", ["pos", "vel", "acc"])
def test_reference_point_is_read_only(name):
    # one point is shared by the controller step and the log row of a tick
    ref = square_reference(20.0)
    with pytest.raises(AttributeError):
        setattr(ref, name, REST)


def _leg_sample_as_written(tau):
    """leg_sample with its ramp displacements formed on every call."""
    a, v, ta, tc = A_PEAK, V_CRUISE, T_ACCEL, T_CRUISE
    if tau < 0.0 or tau > T_LEG:
        raise ValueError(f"leg time {tau} outside [0, {T_LEG}]")
    if tau < ta:
        return 0.5 * a * tau * tau, a * tau, a
    d_ramp = 0.5 * a * ta * ta
    if tau < ta + tc:
        t1 = tau - ta
        return d_ramp + v * t1, v, 0.0
    t2 = tau - ta - tc
    d_cruise = d_ramp + v * tc
    return d_cruise + v * t2 - 0.5 * a * t2 * t2, v - a * t2, -a


def _reference_as_written(name, t):
    """The reference of WAYPOINTS[name], its ReferencePoint by keyword."""
    corners, window = WAYPOINTS[name], TRAJECTORIES[name].window
    z = START_POS[2]
    legs = [(x0, y0, (x1 - x0) / LEG_LENGTH, (y1 - y0) / LEG_LENGTH)
            for (x0, y0), (x1, y1) in zip(corners, corners[1:])]
    if t < 0.0 or t > window:
        raise ValueError(f"reference time {t} outside [0, {window}]")
    if t >= len(legs) * T_LEG:
        return ReferencePoint(pos=(*corners[-1], z), vel=REST, acc=REST)
    k = int(t // T_LEG)
    x0, y0, dx, dy = legs[k]
    d, v, a = _leg_sample_as_written(t - k * T_LEG)
    return ReferencePoint(pos=(x0 + dx * d, y0 + dy * d, z),
                          vel=(dx * v, dy * v, 0.0),
                          acc=(dx * a, dy * a, 0.0))


def _sample(reference, t):
    """repr of the point, which tells -0.0 from 0.0, or the error text."""
    try:
        return repr(reference(t))
    except ValueError as exc:
        return f"ValueError: {exc}"


# the window of each reference a run samples; hover's is unbounded, and
# its longest tested run is 200 s
TICKED_SPAN = {"square": 75.0, "single_leg": 75.0, "hover": 200.0}


@pytest.mark.parametrize("name", list(TRAJECTORIES))
def test_reference_equals_its_formula_at_every_tick(name):
    reference = TRAJECTORIES[name].reference
    for k in range(round(TICKED_SPAN[name] / 0.01) + 1):
        t = k * 0.01    # as run forms each tick's time
        assert _sample(reference, t) == _sample(
            partial(_reference_as_written, name), t)


# the ends and ramp changes of every leg, and times just past them
_LEG_EDGES = [k * T_LEG + d + e for k in range(6)
              for d in (0.0, T_ACCEL, T_ACCEL + T_CRUISE)
              for e in (0.0, 1e-12, -1e-12)]


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(list(TRAJECTORIES)),
       t=st.one_of(st.floats(-1.0, 80.0), st.floats(),
                   st.sampled_from([-0.0, 5e-324, -5e-324, *_LEG_EDGES])))
def test_reference_equals_its_formula_at_any_time(name, t):
    # bit for bit, the sign of zero included, and the same ValueError
    # outside the window
    assert _sample(TRAJECTORIES[name].reference, t) == _sample(
        partial(_reference_as_written, name), t)
