"""Controller oracles: tilt extraction, gain arithmetic, reaching behavior."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slungsim.controllers import (
    ANGLE_CAP,
    U1_FLOOR,
    PdController,
    PdGains,
    SmcController,
    SmcGains,
    _limit,
    _switch,
    desired_angles,
)
from slungsim.dynamics import VehicleParams
from slungsim.mpc import HORIZON, MOVE_ATT, MpcController
from slungsim.simloop import SimConfig, advance_tick, make_controller
from slungsim.trajectory import TRAJECTORIES, ReferencePoint, square_reference

from test_dynamics import vehicle_state

REST = (0.0, 0.0, 0.0)


@pytest.fixture
def params():
    return VehicleParams()


def hover_state(z=1.5):
    return vehicle_state(z=z)


class TestDesiredAngles:
    def test_zero_input(self, params):
        phi, theta, clamped = desired_angles(0.0, 0.0, 9.81, 1.0)
        assert phi == 0.0 and theta == 0.0 and not clamped

    def test_asin_round_trip(self, params):
        U1, m_q = 9.81, 1.0
        Uy = -(U1 / m_q) * math.sin(0.3)
        phi, theta, clamped = desired_angles(0.0, Uy, U1, m_q)
        assert phi == pytest.approx(0.3, rel=1e-12)
        assert not clamped

    def test_argument_clamp_hits_angle_cap(self, params):
        # m_q*Ux/U1 = 1.5: asin argument clamped, then angle capped
        phi, theta, clamped = desired_angles(1.5 * 9.81, 0.0, 9.81, 1.0)
        assert theta == ANGLE_CAP
        assert clamped

    def test_zero_thrust_rejected(self):
        with pytest.raises(ValueError):
            desired_angles(0.1, 0.1, 0.0, 1.0)

    def test_full_round_trip_through_plant_rows(self, params):
        # angles -> thrust-vector accelerations via the translational model
        # -> back through desired_angles recovers the angles to 1e-12
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = rng.uniform(-ANGLE_CAP, ANGLE_CAP)
            theta = rng.uniform(-ANGLE_CAP, ANGLE_CAP)
            U1 = rng.uniform(0.5, 20.0)
            m_q = params.m_q
            ax = math.cos(phi) * math.sin(theta) * U1 / m_q
            ay = -math.sin(phi) * U1 / m_q
            phi_r, theta_r, clamped = desired_angles(ax, ay, U1, m_q)
            assert phi_r == pytest.approx(phi, abs=1e-12)
            assert theta_r == pytest.approx(theta, abs=1e-12)
            assert not clamped


@settings(max_examples=80, deadline=None)
@given(ax=st.floats(-100, 100), ay=st.floats(-100, 100),
       U1=st.floats(0.01, 30.0))
def test_desired_angles_always_capped(ax, ay, U1):
    phi, theta, _ = desired_angles(ax, ay, U1, 1.0)
    assert abs(phi) <= ANGLE_CAP and abs(theta) <= ANGLE_CAP


class TestLimit:
    def test_clips_and_flags(self):
        assert _limit(0.5, -1.0, 1.0) == (0.5, False)
        assert _limit(-1.0, -1.0, 1.0) == (-1.0, False)
        assert _limit(2.0, -1.0, 1.0) == (1.0, True)
        assert _limit(-math.inf, -1.0, 1.0) == (-1.0, True)

    def test_ceiling_below_floor_wins(self):
        for v in (0.0, 1.5, 3.0):
            assert _limit(v, 2.0, 1.0) == (1.0, True)

    def test_nan_raises(self):
        with pytest.raises(FloatingPointError, match="NaN demand"):
            _limit(math.nan, -1.0, 1.0)
        with pytest.raises(FloatingPointError):
            _limit(math.nan, -math.inf, math.inf)


def test_overflowing_torque_raises():
    # a subnormal arm turns the MPC's rotor-force conversion into inf
    ctrl = MpcController(VehicleParams(l=5e-324), 0.01, HORIZON, None,
                         MOVE_ATT)
    s = vehicle_state(z=1.5, phi=0.1, theta=0.1)
    ctrl.step(s, TRAJECTORIES["hover"].reference(0.0))
    with pytest.raises(FloatingPointError, match="torque"):
        ctrl.step(s, TRAJECTORIES["hover"].reference(0.0))


class TestSwitch:
    def test_sign_zero_is_zero(self):
        assert _switch(0.0, 0.0) == 0.0
        assert _switch(1e-300, 0.0) == 1.0
        assert _switch(-2.0, 0.0) == -1.0

    def test_boundary_layer_ramp(self):
        assert _switch(0.05, 0.1) == pytest.approx(0.5)
        assert _switch(-0.2, 0.1) == -1.0


class TestGainValidation:
    def test_pd_positive(self):
        for v in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="PdGains.Kpx must be "
                               "positive"):
                PdGains(Kpx=v)

    def test_smc_positive(self):
        for v in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be positive"):
                SmcGains(k=(0.4, 0.4, 0.4, 0.6, 0.6, v))
            with pytest.raises(ValueError, match="must be positive"):
                SmcGains(k=(v,) * 6)
            with pytest.raises(ValueError, match="must be positive"):
                SmcGains(lam=(v, 0.5, 0.5, 2.25, 2.25, 5.0))

    def test_smc_boundary_layer_and_dt(self):
        SmcGains(boundary_layer=0.0)
        for v in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="boundary_layer"):
                SmcGains(boundary_layer=v)
        for dt in (0.0, -0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be positive"):
                SmcController(SmcGains(), VehicleParams(), dt)

    def test_smc_shape(self):
        with pytest.raises(ValueError):
            SmcGains(k=(1.0, 1.0))

    def test_smc_list_named(self):
        # each bad list's message names that list
        for name in ("k", "lam"):
            for bad in ((1.0, 1.0), (0.0, 1.0, 1.0, 1.0, 1.0, 1.0)):
                with pytest.raises(ValueError, match=f"^SmcGains.{name} "):
                    SmcGains(**{name: bad})


class TestPdController:
    def test_hover_fixed_point(self, params):
        ctrl = PdController(PdGains(), params)
        U1, U2, U3, U4, phi_d, theta_d, saturated = ctrl.step(
            hover_state(), TRAJECTORIES["hover"].reference(0.0))
        assert U1 == params.m_q * params.g
        assert U2 == 0.0 and U3 == 0.0 and U4 == 0.0
        assert phi_d == 0.0 and theta_d == 0.0
        assert not saturated

    def test_x_error_tilt(self, params):
        # 0.1 m x-error => a_cx = 1.0 m/s^2 => theta_d = asin(a_cx/g^2)
        ctrl = PdController(PdGains(), params)
        ref = ReferencePoint(pos=(0.1, 0.0, 1.5), vel=REST, acc=REST)
        out = ctrl.step(hover_state(), ref)
        expected = math.asin(1.0 / (params.g * params.g))
        assert out[5] == pytest.approx(expected, rel=1e-12)
        assert out[4] == 0.0

    def test_z_error_thrust(self, params):
        # 0.1 m z-error => a_cz = 2.0 m/s^2 => U1 = m_q*(g + 2)
        ctrl = PdController(PdGains(), params)
        ref = ReferencePoint(pos=(0.0, 0.0, 1.6), vel=REST, acc=REST)
        out = ctrl.step(hover_state(), ref)
        assert out[0] == pytest.approx(params.m_q * (params.g + 2.0),
                                       rel=1e-12)

    def test_attitude_roll_torque(self, params):
        # at the hover reference the tilt command is level, so a -0.1 rad
        # roll is 0.1 rad of roll error
        ctrl = PdController(PdGains(), params)
        out = ctrl.step(vehicle_state(z=1.5, phi=-0.1),
                        TRAJECTORIES["hover"].reference(0.0))
        assert out[1] == pytest.approx(0.15, rel=1e-12)
        assert out[2] == 0.0

    def test_attitude_yaw_torque(self, params):
        # 0.1 rad of yaw error
        ctrl = PdController(PdGains(), params)
        out = ctrl.step(vehicle_state(z=1.5, psi=-0.1),
                        TRAJECTORIES["hover"].reference(0.0))
        assert out[3] == pytest.approx(0.026, rel=1e-12)

    def test_thrust_cap_flagged(self, params):
        ctrl = PdController(PdGains(), params)
        ref = ReferencePoint(pos=(0.0, 0.0, 3.0), vel=REST, acc=REST)
        out = ctrl.step(hover_state(), ref)  # 1.5 m z error -> 39.8 N
        assert out[0] == params.U1_max
        assert out[6]

    def test_thrust_floor_flagged(self, params):
        ctrl = PdController(PdGains(), params)
        ref = ReferencePoint(pos=(0.0, 0.0, 0.0), vel=REST, acc=REST)
        out = ctrl.step(hover_state(), ref)  # -1.5 m error -> negative
        assert out[0] > 0.0
        assert out[6]


class TestSmcController:
    def test_hover_fixed_point_matches_pd(self, params):
        smc = SmcController(SmcGains(), params, 0.01)
        pd = PdController(PdGains(), params)
        ref = TRAJECTORIES["hover"].reference(0.0)
        a = smc.step(hover_state(), ref)
        b = pd.step(hover_state(), ref)
        assert a[0] == b[0] == params.m_q * params.g
        assert a[:4] == b[:4]

    def test_thrust_reaching_term(self, params):
        # e_z = 0.02 m with zero rate puts S_z at +0.1, outside the layer:
        # the switch saturates and U1 = m_q*(g + k_z)
        smc = SmcController(SmcGains(boundary_layer=0.0), params, 0.01)
        ref = ReferencePoint(pos=(0.0, 0.0, 1.52), vel=REST, acc=REST)
        out = smc.step(hover_state(), ref)
        U1, U2, U3, U4, phi_d, theta_d, _ = out
        assert U1 == pytest.approx(params.m_q * (params.g + 0.4), rel=1e-12)
        # horizontal surfaces were zero: no tilt, no torques on first tick
        assert phi_d == 0.0 and theta_d == 0.0
        assert U2 == 0.0 and U3 == 0.0 and U4 == 0.0

    def test_thrust_ramps_inside_layer(self, params):
        # e_z = 0.008 m -> S_z = 0.04, half the default 0.08 layer:
        # the switch contributes k_z/2
        smc = SmcController(SmcGains(), params, 0.01)
        bl = smc.gains.boundary_layer
        ref = ReferencePoint(pos=(0.0, 0.0, 1.508), vel=REST, acc=REST)
        out = smc.step(hover_state(), ref)
        expected = params.m_q * (params.g + 0.4 * (0.04 / bl))
        assert out[0] == pytest.approx(expected, rel=1e-12)

    def test_two_instances_agree_bitwise(self, params):
        # the controller keeps previous tilt commands for the discrete
        # command-rate term; that memory must start the same in every
        # instance, so two fresh controllers give the same outputs
        refs = [ReferencePoint(pos=(x, 0.0, 1.5), vel=REST, acc=REST)
                for x in (0.3, 0.2, 0.25)]
        outs = []
        for _ in range(2):
            smc = SmcController(SmcGains(), params, 0.01)
            outs.append([smc.step(hover_state(), r) for r in refs])
        assert outs[0] == outs[1]

    def test_command_rate_memory_feeds_attitude(self, params):
        # a moving tilt command adds a rate term to the attitude surfaces,
        # so the second tick differs from a fresh controller's first tick
        smc = SmcController(SmcGains(), params, 0.01)
        ref_a = ReferencePoint(pos=(0.3, 0.0, 1.5), vel=REST, acc=REST)
        ref_b = ReferencePoint(pos=(-0.3, 0.0, 1.5), vel=REST, acc=REST)
        smc.step(hover_state(), ref_a)
        warm = smc.step(hover_state(), ref_b)
        fresh = SmcController(SmcGains(), params, 0.01).step(hover_state(),
                                                             ref_b)
        assert warm[2] != fresh[2]

    def test_overload_starves_tilt(self, params):
        # a large climb-rate demand pushes U1 past the ceiling: the tilt
        # command shrinks by the achieved fraction, floored by the demand
        # conditioning at U1_max/(DEMAND_CEILING*U1_max)
        from slungsim.controllers import DEMAND_CEILING

        gains = SmcGains(boundary_layer=0.0)
        ref = ReferencePoint(pos=(0.1, 0.0, 1.5),
                             vel=(0.0, 0.0, 6.0), acc=REST)
        out = SmcController(gains, params, 0.01).step(
            hover_state(), ref)
        # z demand: m_q*(g + 5*6 + 0.4) = 40.2 N, conditioned to 1.5*U1_max
        assert out[0] == params.U1_max
        assert out[6]
        # x channel: S_x > 0 -> a_cx = k_x = 0.6, tilt scaled by 1/1.5
        frac = 1.0 / DEMAND_CEILING
        expected = math.asin(frac * 0.6 / (params.g * params.g))
        assert out[5] == pytest.approx(expected, rel=1e-12)


def _offset(z=0.0, vz=0.0):
    return [0.0, 0.0, z, 0.0, 0.0, vz] + [0.0] * 6


def _step_as_run(ctrl, s, ref):
    """ctrl.step under run's float errors; None if it raised one."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            return ctrl.step(s, ref)
        except ArithmeticError:
            return None


@pytest.mark.parametrize("controller", ["PD", "SMC", "MPC"])
@settings(max_examples=100, deadline=None)
@given(s=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
       scales=st.lists(st.sampled_from([0.0, 1.0, 1e6, 1e308]),
                       min_size=3, max_size=3),
       t=st.floats(0.0, 75.0),
       U1_max=st.one_of(st.floats(0.0, U1_FLOOR, exclude_min=True),
                        st.floats(U1_FLOOR, 30.0)))
# level and over the reference: 1e6 m high and climbing at 1e6 m/s, clipped
# at the floor; 5 cm low, asking 10.2-11.6 N of a 10 N ceiling; a ceiling
# below the floor; 1e308 m low and climbing at 1e308 m/s, where PD's
# thrust demand is inf - inf, SMC's is clipped at the floor and the MPC's
# gain product overflows
@example(s=_offset(z=1.0, vz=1.0), scales=[0.0, 1e6, 0.0], t=0.0,
         U1_max=20.0)
@example(s=_offset(z=-0.05), scales=[0.0, 1.0, 0.0], t=0.0, U1_max=10.0)
@example(s=_offset(z=-0.05), scales=[0.0, 1.0, 0.0], t=0.0, U1_max=1e-4)
@example(s=_offset(z=-1.0, vz=1.0), scales=[0.0, 1e308, 0.0], t=0.0,
         U1_max=20.0)
def test_thrust_stays_in_range_and_clips_are_flagged(controller, s, scales,
                                                    t, U1_max):
    # the loop applies U1 as returned, so each controller bounds its own
    # thrust to [min(U1_FLOOR, U1_max), U1_max] and flags a clip.  A twin
    # on a vehicle without a working ceiling shows a clip at U1_max; MPC
    # applies on its second tick the input it decided on the first, and
    # the twins share that history only while their thrusts agree.  The
    # state is drawn as an offset from the reference with its horizontal,
    # vertical and attitude parts scaled apart, so a thrust clip also
    # comes without a tilt clamp that would set the flag anyway.  Each
    # step runs under run's float errors and either returns finite floats
    # or raises an arithmetic error, which run turns into an abort; a NaN
    # demand, which no comparison clips, raises.
    ctrl = make_controller(SimConfig(
        controller=controller, params=VehicleParams(U1_max=U1_max)))
    twin = make_controller(SimConfig(
        controller=controller, params=VehicleParams(U1_max=1e300)))
    ref = square_reference(t)
    h, v, a = scales
    s = [f * x for f, x in zip((h, h, v, h, h, v) + (a,) * 6, s)]
    s[:3] = [r + d for r, d in zip(ref.pos, s[:3])]
    for _ in range(2):
        out = _step_as_run(ctrl, s, ref)
        if out is None:
            break
        U1, *_, saturated = out
        assert all(map(math.isfinite, out[:6]))
        assert min(U1_FLOOR, U1_max) <= U1 <= U1_max
        out_twin = _step_as_run(twin, s, ref)
        if out_twin is None:
            break
        if U1 == U1_FLOOR or U1 != out_twin[0]:
            assert saturated
        if U1 != out_twin[0]:
            break


def _closed_loop_nominal(ctrl, duration, dt_c=0.01, n_sub=10, start=None,
                         ref_fn=square_reference):
    """Load-free closed loop (massless load); returns per-tick records."""
    params = ctrl.params
    y = [0.0] * 16
    y[:3] = (0.0, 0.0, 1.5) if start is None else start
    dt_p = dt_c / n_sub
    records = []
    for k in range(int(round(duration / dt_c))):
        t = k * dt_c
        state = y[:12]
        ref = ref_fn(t)
        out = ctrl.step(state, ref)
        records.append((t, state, ref, out))
        y, _ = advance_tick(y, out[:4], 0.0, params, dt_p, n_sub)
    return records


class TestClosedLoopNominal:
    def test_smc_reaching_condition(self, params):
        """S_i * dS_i <= 0 at >= 99% of samples outside the boundary layer.

        Regulation experiment: the vehicle starts half a meter from a fixed
        hover target, so the translational surfaces begin well outside the
        layer and a genuine reaching phase exists.  Reaching is claimed for
        that phase only: from the start until the surface first enters the
        layer.  Once inside, the law is a linear ramp and carries no
        reaching information.  Axes that start inside the layer are skipped
        rather than passed vacuously.
        """
        gains = SmcGains()
        ctrl = SmcController(gains, params, 0.01)
        records = _closed_loop_nominal(ctrl, duration=20.0,
                                       start=(-0.5, 0.4, 1.2),
                                       ref_fn=TRAJECTORIES["hover"].reference)

        lam = np.array(gains.lam)
        S_hist = []
        for t, state, ref, out in records:
            x, y, z, vx, vy, vz, phi, theta, psi, p, q, r = state
            e = np.array([out[4] - phi,
                          out[5] - theta,
                          -psi,
                          ref.pos[0] - x,
                          ref.pos[1] - y,
                          ref.pos[2] - z])
            # rates: command-side derivative unknown here; reaching is
            # evaluated on the measured-error part of each surface
            ed = np.array([-p, -q, -r,
                           ref.vel[0] - vx,
                           ref.vel[1] - vy,
                           ref.vel[2] - vz])
            # sliding surfaces S_i = e_dot_i + lambda_i * e_i
            S_hist.append(ed + lam * e)
        S_hist = np.array(S_hist)

        band = max(0.01, gains.boundary_layer)
        exercised = 0
        for axis in range(6):
            S = S_hist[:, axis]
            inside = np.abs(S) <= band
            first_entry = int(np.argmax(inside)) if np.any(inside) else len(S)
            if first_entry < 10:
                continue
            exercised += 1
            reach = S[:first_entry]
            products = reach[:-1] * np.diff(reach)
            ok = np.mean(products <= 0.0)
            assert ok >= 0.99, f"axis {axis}: reaching ratio {ok:.3f}"
        assert exercised >= 3  # x, y, z all start outside the layer

    def test_pd_tracks_square_nominally(self, params):
        ctrl = PdController(PdGains(), params)
        records = _closed_loop_nominal(ctrl, duration=20.0)
        err = max(abs(ref.pos[0] - s[0]) for _, s, ref, _ in records)
        erry = max(abs(ref.pos[1] - s[1]) for _, s, ref, _ in records)
        assert max(err, erry) < 0.1

    def test_smc_tracks_square_nominally(self, params):
        ctrl = SmcController(SmcGains(), params, 0.01)
        records = _closed_loop_nominal(ctrl, duration=20.0)
        err = max(max(abs(ref.pos[0] - s[0]), abs(ref.pos[1] - s[1]))
                  for _, s, ref, _ in records)
        assert err < 0.1
