"""Reference-trajectory oracles: profile arithmetic, continuity, closure,
and the TRAJECTORIES table that config, run and metrics read."""

import math

import numpy as np
import pytest

from slungsim.metrics import compute_run_metrics
from slungsim.simloop import LOG_WIDTH, SimConfig, SimLog, reference_function
from slungsim.trajectory import (
    A_PEAK,
    LEG_LENGTH,
    START_POS,
    T_ACCEL,
    T_LEG,
    TRAJECTORIES,
    V_CRUISE,
    hover_reference,
    leg_sample,
    single_leg_reference,
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
        ref = single_leg_reference(20.0)
        assert ref.pos == pytest.approx([1.0, 0.0, 1.5], rel=1e-12)
        assert ref.vel == REST and ref.acc == REST

    def test_start(self):
        ref = single_leg_reference(0.0)
        assert ref.pos == pytest.approx([0.0, 0.0, 1.5])

    def test_deceleration_midpoint(self):
        ref = single_leg_reference(13.75)
        assert ref.acc == pytest.approx([-0.032, 0.0, 0.0])

    def test_matches_square_first_leg(self):
        for t in (0.5, 3.0, 9.9, 14.2):
            a = single_leg_reference(t)
            b = square_reference(t)
            assert a.pos == b.pos
            assert a.vel == b.vel


class TestTable:
    def test_names_in_order(self):
        assert list(TRAJECTORIES) == ["square", "single_leg", "hover"]

    def test_references(self):
        assert [tr.reference for tr in TRAJECTORIES.values()] == [
            square_reference, single_leg_reference, hover_reference]

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
    cfg = SimConfig(trajectory=name)
    assert reference_function(cfg) is entry.reference
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
    a = hover_reference(0.0)
    b = hover_reference(123.0)
    assert a.pos == b.pos
    assert a.vel == REST and a.acc == REST


@pytest.mark.parametrize("name", ["pos", "vel", "acc"])
def test_reference_point_is_read_only(name):
    # one point is shared by the controller step and the log row of a tick
    ref = square_reference(20.0)
    with pytest.raises(AttributeError):
        setattr(ref, name, REST)
