"""Metric oracles: synthetic logs with known answers, thrust-budget formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from slungsim.cli import EXIT_OK, main
from slungsim.metrics import (
    BAND_DEG,
    DWELL_S,
    arrival_time,
    compute_run_metrics,
    critical_motion_mass,
    max_attitude,
    max_feasible_accel,
    max_tracking_error,
    stabilization_times,
)
from slungsim.simloop import LOG_WIDTH, SimConfig, SimLog, run

G = 9.81


def critical_mass_verb(capsys, u1max, accel):
    """(m_cm, its feasibility, a_cm) as the critical-mass verb prints them."""
    assert main(["critical-mass", "--u1max", repr(u1max),
                 "--accel", repr(accel)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    m_cm, state = lines[0].removeprefix("m_cm = ").split(" kg ")
    assert lines[1].startswith("a_cm = ") and lines[1].endswith(" m/s^2")
    a_cm = lines[1].removeprefix("a_cm = ").removesuffix(" m/s^2")
    return float(m_cm), state == "(feasible)", float(a_cm)


def make_log(t, err_x=None, err_y=None, phi_deg=None, theta_deg=None,
             sat=None):
    """Synthetic log with everything not under test zeroed."""
    log = SimLog(rows=np.zeros((len(t), LOG_WIDTH)))
    log.t[:] = t
    if err_x is not None:
        log.err[:, 0] = err_x
    if err_y is not None:
        log.err[:, 1] = err_y
    if phi_deg is not None:
        log.quad[:, 6] = np.radians(phi_deg)
    if theta_deg is not None:
        log.quad[:, 7] = np.radians(theta_deg)
    if sat is not None:
        log.sat[:] = sat
    return log


def empty_log():
    return SimLog(rows=np.zeros((0, LOG_WIDTH)))


class TestTrackingError:
    def test_constant_offset(self):
        log = make_log(np.arange(0, 1, 0.01), err_x=0.02)
        ex, ey, e_max = max_tracking_error(log)
        assert ex == 0.02
        assert ey == 0.0
        assert e_max == 0.02

    def test_zero_error(self):
        log = make_log(np.arange(0, 1, 0.01))
        assert max_tracking_error(log) == (0.0, 0.0, 0.0)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            max_tracking_error(empty_log())


class TestAttitude:
    def test_sine_roll(self):
        t = np.arange(0, 10, 0.01)
        log = make_log(t, phi_deg=2.0 * np.sin(t))
        phi_max, theta_max = max_attitude(log)
        assert abs(phi_max - 2.0) < 1e-3
        assert theta_max == 0.0

    def test_level_flight(self):
        log = make_log(np.arange(0, 5, 0.01))
        assert max_attitude(log) == (0.0, 0.0)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            max_attitude(empty_log())


class TestStabilization:
    def test_exponential_decay_crossing(self):
        t = np.arange(0, 8.0, 0.01)
        log = make_log(t, phi_deg=5.0 * np.exp(-t))
        stage_times, unstable = stabilization_times(log, [0.0])
        # 5 e^{-t} falls to 0.2 deg at ln(25) = 3.219 s
        assert abs(stage_times[0] - math.log(25.0)) < 0.02
        assert unstable == (False,)

    def test_identically_zero_angle(self):
        log = make_log(np.arange(0, 5, 0.01))
        stage_times, _ = stabilization_times(log, [1.0])
        assert stage_times == (0.0,)

    def test_never_reentering_flagged(self):
        t = np.arange(0, 5, 0.01)
        log = make_log(t, phi_deg=np.full(len(t), 1.0))
        stage_times, unstable = stabilization_times(log, [1.0])
        assert unstable == (True,)
        # remaining duration from the exit sample just after the transition
        assert abs(stage_times[0] - (t[-1] - 1.01)) < 1e-9

    def test_dwell_skips_brief_dips(self):
        # angle dips inside the band for 0.5 s, pops out, then settles;
        # with a 1 s dwell the brief dip must not count as the end
        t = np.arange(0, 10, 0.01)
        ang = np.full(len(t), 1.0)
        ang[(t >= 2.0) & (t < 2.5)] = 0.0
        ang[t >= 4.0] = 0.0
        log = make_log(t, phi_deg=ang)
        stage_times, _ = stabilization_times(log, [0.0])
        assert abs(stage_times[0] - (4.0 - 0.01)) < 1e-9

    def test_roll_and_pitch_take_slower(self):
        t = np.arange(0, 8.0, 0.01)
        log = make_log(t, phi_deg=5.0 * np.exp(-t),
                       theta_deg=5.0 * np.exp(-0.5 * t))
        stage_times, _ = stabilization_times(log, [0.0])
        assert abs(stage_times[0] - 2.0 * math.log(25.0)) < 0.02


def recovery_by_sample(t, ang, transition, need):
    """(time, unstable): the stage-recovery rule restated one sample at a
    time, with a recovery needing an in-band run of need samples."""
    exit_k = next((k for k in range(len(t))
                   if t[k] > transition and abs(ang[k]) > BAND_DEG), None)
    if exit_k is None:
        return 0.0, False
    run = 0
    for k in range(exit_k + 1, len(t)):
        run = run + 1 if abs(ang[k]) <= BAND_DEG else 0
        if run == need:
            return float(t[k - need + 1] - t[exit_k]), False
    return float(t[-1] - t[exit_k]), True


@st.composite
def recovery_cases(draw):
    """(dt, roll_deg, pitch_deg, transitions): angles built from in-band
    and out-of-band runs, many of them one sample either side of the
    dwell."""
    dt = draw(st.sampled_from([1.0, 0.5, 0.25, 0.3, 0.1, 0.01, 2.0,
                               5e-324]) | st.floats(0.05, 3.0))
    need = math.floor(DWELL_S / dt + 1e-9) + 1 if dt > 1e-9 else 3
    lengths = st.sampled_from([need - 1, need, need + 1]) | st.integers(0, 3)

    def angles():
        runs = draw(st.lists(st.tuples(st.booleans(), lengths), max_size=6))
        return [draw(st.sampled_from(
            [1.0, -0.5, 0.2000001, 5.0] if out else [0.0, 0.1, -0.2, 0.2]))
            for out, n in runs for _ in range(n)]

    roll, pitch = angles(), angles()
    n = max(len(roll), len(pitch), 1)
    roll += [0.0] * (n - len(roll))
    pitch += [0.0] * (n - len(pitch))
    transitions = draw(st.lists(
        st.integers(-1, n).map(lambda k: k * dt)
        | st.floats(-dt, (n + 1) * dt), min_size=1, max_size=4))
    return dt, roll, pitch, transitions


class TestStabilizationRule:
    @given(recovery_cases())
    @example((0.01, [1.0], [0.0], [-1.0]))              # a one-row log
    @example((5e-324, [0.0, 1.0, 0.0, 0.0], [0.0] * 4, [0.0]))
    @example((0.25, [1.0] + [0.0] * 4, [0.0] * 5, [-1.0]))   # need - 1
    @example((0.25, [1.0] + [0.0] * 5, [0.0] * 6, [-1.0]))   # need
    @example((0.25, [1.0] + [0.0] * 6, [0.0] * 7, [-1.0]))   # need + 1
    def test_matches_sample_by_sample_rule(self, case):
        dt, roll, pitch, transitions = case
        t = dt * np.arange(len(roll))
        log = make_log(t, phi_deg=roll, theta_deg=pitch)
        # the rule's own statement of how many in-band samples span
        # DWELL_S: at most one more than the log has
        need = int(math.floor(min(DWELL_S / dt + 1e-9, len(t)))) + 1
        want = []
        for tr in transitions:
            (a, ua), (b, ub) = (
                recovery_by_sample(t, np.degrees(log.quad[:, i]), tr, need)
                for i in (6, 7))
            want.append((max(a, b), ua or ub))
        times, unstable = stabilization_times(log, transitions)
        assert list(zip(times, unstable)) == want


class TestArrival:
    def test_decaying_error(self):
        t = np.arange(0, 10, 0.01)
        log = make_log(t, err_x=0.05 * np.exp(-t))
        # 0.05 e^{-t} < 0.01 from t = ln 5 onwards
        assert abs(arrival_time(log) - math.log(5.0)) < 0.02

    def test_never_settles(self):
        t = np.arange(0, 10, 0.01)
        log = make_log(t, err_x=0.02)
        assert math.isnan(arrival_time(log))

    def test_settled_from_start(self):
        log = make_log(np.arange(0, 5, 0.01), err_x=0.001)
        assert arrival_time(log) == 0.0

    def test_late_excursion_resets_arrival(self):
        t = np.arange(0, 10, 0.01)
        err = np.full(len(t), 0.001)
        err[(t >= 6.0) & (t < 6.5)] = 0.05
        log = make_log(t, err_x=err)
        assert abs(arrival_time(log) - 6.5) < 1e-9


class TestCriticalMass:
    def test_zero_accel_closed_form(self):
        assert abs(critical_motion_mass(14.72, 0.0) -
                   (14.72 / G - 1.0)) < 1e-12

    def test_zero_margin(self, capsys):
        assert critical_motion_mass(G, 0.0) == 0.0
        m_cm, feasible, a_cm = critical_mass_verb(capsys, G, 0.0)
        assert not feasible
        assert m_cm == 0.0 and a_cm == 0.0

    def test_half_kilogram_budget(self):
        m_cm = critical_motion_mass(14.72, 0.032)
        assert abs(m_cm - 0.500) < 0.005

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            critical_motion_mass(0.0, 0.1)
        with pytest.raises(ValueError):
            critical_motion_mass(10.0, -0.1)

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.01, max_value=5.0))
    def test_strictly_decreasing_in_accel(self, a, da):
        hi = critical_motion_mass(14.72, a + da)
        lo = critical_motion_mass(14.72, a)
        assert hi < lo


class TestMaxAccel:
    def test_exact_hover_limit(self):
        assert max_feasible_accel((1.0 + 0.5) * G, 1.0, 0.5) == 0.0

    def test_half_kilogram_value(self):
        a = max_feasible_accel(14.72, 1.0, 0.5)
        assert abs(a - 0.256) < 0.001

    def test_overload_rejected(self):
        with pytest.raises(ValueError):
            max_feasible_accel(14.72, 1.0, 0.55)

    def test_huge_ceiling_is_finite(self):
        # U1_max^2 overflows above about 1.34e154
        a = max_feasible_accel(1e200, 1.0, 0.005)
        assert a == pytest.approx(1e200 / 1.005, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.4),
           st.floats(min_value=0.01, max_value=0.09))
    def test_strictly_decreasing_in_mass(self, m, dm):
        a_light = max_feasible_accel(14.72, 1.0, m)
        a_heavy = max_feasible_accel(14.72, 1.0, m + dm)
        assert a_heavy < a_light

    def test_budget_consistency(self, capsys):
        # carrying exactly the critical mass still affords the design
        # acceleration up to the small-angle gap between the two formulas
        _, feasible, a_cm = critical_mass_verb(capsys, 14.72, 0.032)
        assert feasible
        assert a_cm >= 0.9 * 0.032
        # here (m_q + m_cm) g rounds to just above U1_max = 11
        _, feasible, a_cm = critical_mass_verb(capsys, 11.0, 0.0)
        assert feasible and a_cm == 0.0


class TestRunMetricsBundle:
    def test_totality_on_real_run(self):
        log = run(SimConfig(controller="SMC", m_L=0.3, duration=20.0))
        m = compute_run_metrics(log, trajectory="square")
        for v in (m.e_max, m.err_x_max, m.err_y_max, m.phi_max,
                  m.theta_max, m.t_smax):
            assert math.isfinite(v)
        assert m.t_smax == max(m.stage_times)
        assert m.saturation_count >= 0
        assert not m.failed
        assert math.isnan(m.arrival_time)

    def test_single_leg_reports_arrival(self):
        log = run(SimConfig(controller="SMC", m_L=0.1, duration=30.0,
                            trajectory="single_leg"))
        m = compute_run_metrics(log, trajectory="single_leg")
        assert math.isfinite(m.arrival_time)
        assert 0.0 < m.arrival_time < 30.0

    def test_hover_has_no_stages(self):
        log = run(SimConfig(controller="PD", m_L=0.0, duration=5.0,
                            trajectory="hover"))
        m = compute_run_metrics(log, trajectory="hover")
        assert m.stage_times == ()
        assert m.t_smax == 0.0
