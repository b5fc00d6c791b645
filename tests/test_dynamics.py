"""Dynamics oracles: coupled-system residuals, physical limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slungsim.dynamics import (
    COUPLED_DIM,
    CableForce,
    ControlInputs,
    GimbalLockError,
    LoadState,
    QuadState,
    SystemState,
    TautCableError,
    VehicleParams,
    cable_force,
    cable_offset,
    coupled_accelerations,
    coupled_derivative,
    coupled_derivative_array,
    pendulum_accelerations,
    pendulum_energy,
    quad_derivative_array,
    quad_only_derivative,
    zeta_derivatives,
)


@pytest.fixture
def params():
    return VehicleParams()


def make_state(phi=0.0, theta=0.0, r=0.0, s=0.0, r_dot=0.0, s_dot=0.0,
               m_L=0.0, **quad_kw):
    quad = QuadState(phi=phi, theta=theta, **quad_kw)
    load = LoadState(r=r, s=s, r_dot=r_dot, s_dot=s_dot, m_L=m_L)
    return SystemState(quad=quad, load=load)


def coupling_residuals(state, accels, U1, params):
    """Independent re-statement of the five coupled relations.

    Returns the per-relation residual |lhs - rhs| normalized by
    max(1, |rhs|), evaluated directly from the written equations rather
    than through the solver's matrix assembly.
    """
    q, ld = state.quad, state.load
    L, g = params.L, params.g
    M = params.m_q + ld.m_L
    mu = ld.m_L / M
    r, s, vr, vs = ld.r, ld.s, ld.r_dot, ld.s_dot
    zeta = math.sqrt(L * L - r * r - s * s)
    ax, ay, az, ar, as_ = accels
    B = ((L * L - s * s) * vr ** 2 + (L * L - r * r) * vs ** 2
         + 2 * r * s * vr * vs)

    pairs = [
        (ax + mu * ar,
         math.cos(q.phi) * math.sin(q.theta) * U1 / M),
        (ay + mu * as_,
         -math.sin(q.phi) * U1 / M),
        (az + mu * (r * ar + s * as_) / zeta,
         math.cos(q.phi) * math.cos(q.theta) * U1 / M
         - mu * (vr ** 2 + vs ** 2) / zeta
         - mu * (r * vr + s * vs) ** 2 / zeta ** 3
         - g * (ld.m_L * zeta / L + params.m_q) / M),
        ((s * s - L * L) * zeta ** 2 * ar - zeta ** 4 * ax
         - r * zeta ** 3 * az - r * s * zeta ** 2 * as_,
         r * B + r * g * zeta ** 3),
        ((r * r - L * L) * zeta ** 2 * as_ - zeta ** 4 * ay
         - s * zeta ** 3 * az - r * s * zeta ** 2 * ar,
         s * B + s * g * zeta ** 3),
    ]
    return [abs(lhs - rhs) / max(1.0, abs(rhs)) for lhs, rhs in pairs]


class TestVehicleParams:
    def test_defaults_positive(self, params):
        assert params.m_q == 1.0 and params.g == 9.81

    @pytest.mark.parametrize("field", ["m_q", "I_x", "L", "g", "l"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(ValueError):
            VehicleParams(**{field: 0.0})


class TestCoupledAccelerations:
    def test_hover_equilibrium_exact(self, params):
        m_L = 0.3
        state = make_state(m_L=m_L)
        U1 = (params.m_q + m_L) * params.g
        accels = coupled_accelerations(state, U1, params)
        assert np.all(accels == 0.0)

    def test_free_fall(self, params):
        state = make_state(m_L=0.3)
        accels = coupled_accelerations(state, 0.0, params)
        assert accels[:2] == pytest.approx([0, 0], abs=0.0)
        assert accels[3:] == pytest.approx([0, 0], abs=0.0)
        assert accels[2] == pytest.approx(-params.g, rel=1e-15)

    def test_free_fall_massless_exact(self, params):
        state = make_state(m_L=0.0)
        accels = coupled_accelerations(state, 0.0, params)
        assert accels[2] == -params.g

    def test_generic_state_residual(self, params):
        state = make_state(phi=0.05, theta=-0.03, r=0.1, s=-0.05,
                           r_dot=0.2, s_dot=0.1, m_L=0.3)
        accels = coupled_accelerations(state, 12.0, params)
        assert np.all(np.isfinite(accels))
        res = coupling_residuals(state, accels, 12.0, params)
        assert max(res) < 1e-10

    def test_residual_on_random_states(self, params):
        # 1000 random valid states: residual <= 1e-10 in all five relations,
        # and agreement with a dense library solve of the same system.
        rng = np.random.default_rng(20240814)
        worst = 0.0
        for _ in range(1000):
            rho = 0.95 * params.L * math.sqrt(rng.uniform(0, 1))
            ang = rng.uniform(0, 2 * math.pi)
            state = make_state(
                phi=rng.uniform(-0.5, 0.5), theta=rng.uniform(-0.5, 0.5),
                r=rho * math.cos(ang), s=rho * math.sin(ang),
                r_dot=rng.uniform(-1, 1), s_dot=rng.uniform(-1, 1),
                m_L=rng.uniform(0.0, 0.6))
            U1 = rng.uniform(0.0, params.U1_max)
            accels = coupled_accelerations(state, U1, params)
            worst = max(worst, max(coupling_residuals(state, accels, U1,
                                                      params)))
            # cross-check the closed form against numpy on the same rows
            A, b = _assemble_np(state, U1, params)
            ref = np.linalg.solve(A, b)
            assert accels == pytest.approx(ref, rel=1e-9, abs=1e-12)
        assert worst <= 1e-10

    def test_taut_cable_guard(self, params):
        state = make_state(r=0.49999, s=0.0, m_L=0.3)
        with pytest.raises(TautCableError):
            coupled_accelerations(state, 10.0, params)

    def test_cable_offset_valid_near_edge(self, params):
        # still meaningfully above the floor: no error
        assert cable_offset(0.49, 0.0, params.L) > 0.0


def _assemble_np(state, U1, params):
    """The full 5x5 system in numpy, to cross-check the closed form."""
    q, ld = state.quad, state.load
    L, g = params.L, params.g
    M = params.m_q + ld.m_L
    mu = ld.m_L / M
    r, s, vr, vs = ld.r, ld.s, ld.r_dot, ld.s_dot
    zeta = math.sqrt(L * L - r * r - s * s)
    z2, z3, z4 = zeta ** 2, zeta ** 3, zeta ** 4
    B = ((L * L - s * s) * vr ** 2 + (L * L - r * r) * vs ** 2
         + 2 * r * s * vr * vs)
    A = np.array([
        [1, 0, 0, mu, 0],
        [0, 1, 0, 0, mu],
        [0, 0, 1, mu * r / zeta, mu * s / zeta],
        [-z4, 0, -r * z3, (s * s - L * L) * z2, -r * s * z2],
        [0, -z4, -s * z3, -r * s * z2, (r * r - L * L) * z2],
    ])
    b = np.array([
        math.cos(q.phi) * math.sin(q.theta) * U1 / M,
        -math.sin(q.phi) * U1 / M,
        math.cos(q.phi) * math.cos(q.theta) * U1 / M
        - mu * (vr ** 2 + vs ** 2) / zeta
        - mu * (r * vr + s * vs) ** 2 / z3
        - g * (ld.m_L * zeta / L + params.m_q) / M,
        r * B + r * g * z3,
        s * B + s * g * z3,
    ])
    return A, b


class TestCableForce:
    def test_hover_static_weight(self, params):
        m_L = 0.3
        state = make_state(m_L=m_L)
        U1 = (params.m_q + m_L) * params.g
        accels = coupled_accelerations(state, U1, params)
        fc = cable_force(state, params, accels)
        assert fc.Fcx == pytest.approx(0.0, abs=1e-12)
        assert fc.Fcy == pytest.approx(0.0, abs=1e-12)
        assert fc.Fcz == pytest.approx(m_L * params.g, rel=1e-12)

    def test_massless_is_zero(self, params):
        state = make_state(phi=0.1, r=0.2, s=-0.1, r_dot=0.3, m_L=0.0)
        accels = coupled_accelerations(state, 9.0, params)
        fc = cable_force(state, params, accels)
        assert fc.as_array() == pytest.approx([0, 0, 0], abs=0.0)

    def test_kinematic_oracle(self, params):
        # Differentiate the integrated trajectory instead of trusting the
        # closed forms: central differences of the velocity/offset series
        # around t0 must reproduce the acceleration combinations the force
        # formula consumes.
        m_L = 0.3
        y0 = np.array([0.0, 0.0, 1.5, 0.1, -0.2, 0.05,
                       0.05, -0.03, 0.0, 0.0, 0.0, 0.0,
                       0.1, -0.05, 0.2, 0.1])
        u = np.array([12.0, 0.0, 0.0, 0.0])
        h = 1e-4

        def deriv(y):
            return np.asarray(coupled_derivative_array(y, u, m_L, params))

        def rk4(y, dt):
            k1 = deriv(y)
            k2 = deriv(y + 0.5 * dt * k1)
            k3 = deriv(y + 0.5 * dt * k2)
            k4 = deriv(y + dt * k3)
            return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        y_prev = rk4(y0, -h)
        y_next = rk4(y0, +h)

        # d/dt of (vx + vr), (vy + vs) by central difference
        ddx = ((y_next[3] + y_next[14]) - (y_prev[3] + y_prev[14])) / (2 * h)
        ddy = ((y_next[4] + y_next[15]) - (y_prev[4] + y_prev[15])) / (2 * h)
        # zeta_dd by second central difference of the offset series
        zs = [cable_offset(y[12], y[13], params.L)
              for y in (y_prev, y0, y_next)]
        zeta_dd_fd = (zs[2] - 2 * zs[1] + zs[0]) / (h * h)
        ddz = (y_next[5] - y_prev[5]) / (2 * h)

        state = make_state(phi=0.05, theta=-0.03, r=0.1, s=-0.05,
                           r_dot=0.2, s_dot=0.1, m_L=m_L,
                           x=0.0, y=0.0, z=1.5, vx=0.1, vy=-0.2, vz=0.05)
        accels = coupled_accelerations(state, 12.0, params)
        fc = cable_force(state, params, accels)
        zeta = cable_offset(0.1, -0.05, params.L)

        assert fc.Fcx == pytest.approx(-m_L * ddx, abs=1e-7)
        assert fc.Fcy == pytest.approx(-m_L * ddy, abs=1e-7)
        expected_z = -m_L * (ddz + zeta_dd_fd - params.g * zeta / params.L)
        assert fc.Fcz == pytest.approx(expected_z, abs=1e-5)

    def test_zeta_second_derivative_analytic(self, params):
        # polynomial test path with known derivatives at t=0
        r0, vr, ar = 0.12, 0.2, 0.08
        s0, vs, as_ = -0.06, 0.15, -0.1
        h = 1e-5
        zs = []
        for t in (-h, 0.0, h):
            r = r0 + vr * t + 0.5 * ar * t * t
            s = s0 + vs * t + 0.5 * as_ * t * t
            zs.append(cable_offset(r, s, params.L))
        fd = (zs[2] - 2 * zs[1] + zs[0]) / (h * h)
        _, zdd = zeta_derivatives(r0, s0, vr, vs, ar, as_, params.L)
        assert zdd == pytest.approx(fd, rel=1e-5)


class TestQuadOnly:
    def test_hover(self, params):
        state = QuadState(z=1.5)
        u = ControlInputs(U1=params.m_q * params.g)
        d = quad_only_derivative(state, u, params)
        assert np.all(d == 0.0)

    def test_pure_yaw_torque(self, params):
        state = QuadState()
        u = ControlInputs(U1=params.m_q * params.g, U4=0.013)
        d = quad_only_derivative(state, u, params)
        assert d[11] == pytest.approx(1.0, rel=1e-12)

    def test_pitch_tilt_acceleration(self, params):
        state = QuadState(theta=0.1)
        u = ControlInputs(U1=params.m_q * params.g)
        d = quad_only_derivative(state, u, params)
        assert d[3] == pytest.approx(params.g * math.sin(0.1), rel=1e-12)

    def test_gyroscopic_cross_terms(self, params):
        state = QuadState(p_rate=1.0, q_rate=2.0, r_rate=3.0)
        u = ControlInputs(U1=0.0)
        d = quad_only_derivative(state, u, params)
        p = params
        assert d[9] == pytest.approx((p.I_y - p.I_z) / p.I_x * 2.0 * 3.0)
        assert d[10] == pytest.approx((p.I_z - p.I_x) / p.I_y * 1.0 * 3.0)
        assert d[11] == pytest.approx((p.I_x - p.I_y) / p.I_z * 2.0 * 1.0)

    def test_gimbal_guard(self, params):
        state = QuadState(phi=1.6)
        with pytest.raises(GimbalLockError):
            quad_only_derivative(state, ControlInputs(U1=5.0), params)


class TestCoupledDerivative:
    def test_hover_zero_vector(self, params):
        m_L = 0.2
        state = make_state(m_L=m_L, z=1.5)
        u = ControlInputs(U1=(params.m_q + m_L) * params.g)
        d = coupled_derivative(state, u, params)
        assert d.shape == (COUPLED_DIM,)
        assert np.all(d == 0.0)

    def test_rotational_rows_bitwise_equal(self, params):
        rng = np.random.default_rng(7)
        for _ in range(20):
            quad_kw = dict(
                x=rng.normal(), y=rng.normal(), z=1.5 + rng.normal(),
                vx=rng.normal(), vy=rng.normal(), vz=rng.normal(),
                phi=rng.uniform(-0.4, 0.4), theta=rng.uniform(-0.4, 0.4),
                psi=rng.uniform(-0.4, 0.4),
                p_rate=rng.normal(), q_rate=rng.normal(),
                r_rate=rng.normal())
            u = ControlInputs(U1=rng.uniform(0, 14), U2=rng.normal(),
                              U3=rng.normal(), U4=rng.normal())
            quad = QuadState(**quad_kw)
            state = SystemState(
                quad=quad,
                load=LoadState(r=0.1, s=-0.2, r_dot=0.3, s_dot=0.1, m_L=0.4))
            dc = coupled_derivative(state, u, params)
            dq = quad_only_derivative(quad, u, params)
            assert np.array_equal(dc[9:12], dq[9:12])

    def test_small_mass_limit_half_percent(self, params):
        # load at rest under the vehicle: coupled translational accelerations
        # within 0.5% of the load-free model, normalized by the dominant
        # thrust acceleration scale U1/m_q
        state = make_state(phi=0.05, theta=-0.03, m_L=0.005)
        U1 = 12.0
        u = ControlInputs(U1=U1)
        dc = coupled_derivative(state, u, params)
        dq = quad_only_derivative(state.quad, u, params)
        scale = U1 / params.m_q
        for i in (3, 4, 5):
            denom = max(abs(dq[i]), scale)
            assert abs(dc[i] - dq[i]) / denom <= 0.005

    def test_massless_limit(self, params):
        state = make_state(phi=0.05, theta=-0.03, r=0.1, s=-0.05,
                           r_dot=0.2, s_dot=0.1, m_L=1e-6)
        u = ControlInputs(U1=12.0)
        dc = coupled_derivative(state, u, params)
        dq = quad_only_derivative(state.quad, u, params)
        for i in (3, 4, 5):
            assert abs(dc[i] - dq[i]) / max(abs(dq[i]), 1e-9) < 1e-4


@settings(max_examples=60, deadline=None)
@given(
    phi=st.floats(-0.5, 0.5),
    theta=st.floats(-0.5, 0.5),
    rho=st.floats(0.0, 0.4),
    ang=st.floats(0.0, 2 * math.pi),
    vr=st.floats(-0.8, 0.8),
    vs=st.floats(-0.8, 0.8),
    U1=st.floats(0.0, 14.72),
    m_L=st.floats(0.0, 0.6),
)
def test_mirror_symmetry(phi, theta, rho, ang, vr, vs, U1, m_L):
    """Swapping the x and y axes maps solutions onto each other.

    The mirrored attitude is the exact one tilting the thrust vector's
    world components (tx, ty) to (ty, tx): phi' = asin(-cos(phi)sin(theta)),
    theta' = atan2(-sin(phi), cos(phi)cos(theta)).
    """
    params = VehicleParams()
    r = rho * math.cos(ang)
    s = rho * math.sin(ang)
    state = make_state(phi=phi, theta=theta, r=r, s=s, r_dot=vr, s_dot=vs,
                       m_L=m_L)
    a = coupled_accelerations(state, U1, params)

    phi_m = math.asin(-math.cos(phi) * math.sin(theta))
    theta_m = math.atan2(-math.sin(phi), math.cos(phi) * math.cos(theta))
    mirrored = make_state(phi=phi_m, theta=theta_m, r=s, s=r,
                          r_dot=vs, s_dot=vr, m_L=m_L)
    am = coupled_accelerations(mirrored, U1, params)

    assert am[0] == pytest.approx(a[1], rel=1e-9, abs=1e-9)
    assert am[1] == pytest.approx(a[0], rel=1e-9, abs=1e-9)
    assert am[2] == pytest.approx(a[2], rel=1e-9, abs=1e-9)
    assert am[3] == pytest.approx(a[4], rel=1e-9, abs=1e-9)
    assert am[4] == pytest.approx(a[3], rel=1e-9, abs=1e-9)


class TestPinnedPendulum:
    def test_energy_conservation(self, params):
        # pinned-pivot load swing: mechanical energy drift below 1e-6 J
        # over 10 s of fine RK4 integration
        m_L = 0.3
        y = np.array([0.2, 0.1, 0.0, 0.25])
        dt = 1e-4
        steps = int(round(10.0 / dt))

        def deriv(yv):
            ar, as_ = pendulum_accelerations(yv[0], yv[1], yv[2], yv[3],
                                             params)
            return np.array([yv[2], yv[3], ar, as_])

        e0 = pendulum_energy(y[0], y[1], y[2], y[3], m_L, params)
        drift = 0.0
        for _ in range(steps):
            k1 = deriv(y)
            k2 = deriv(y + 0.5 * dt * k1)
            k3 = deriv(y + 0.5 * dt * k2)
            k4 = deriv(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        e1 = pendulum_energy(y[0], y[1], y[2], y[3], m_L, params)
        drift = abs(e1 - e0)
        assert drift < 1e-6

    def test_small_oscillation_frequency(self, params):
        # near the bottom the load behaves as a planar pendulum of length L
        ar, _ = pendulum_accelerations(0.01, 0.0, 0.0, 0.0, params)
        assert ar == pytest.approx(-params.g / params.L * 0.01, rel=1e-3)
