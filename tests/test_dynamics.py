"""Dynamics oracles: coupled-system residuals, physical limits.

Every test evaluates the one physics entry point, coupled_derivative_array,
on plain 16-float states.  The vehicle alone is the coupled model at
m_L = 0 with the load hanging at rest.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slungsim.dynamics import (
    COUPLED_DIM,
    GimbalLockError,
    TautCableError,
    VehicleParams,
    cable_offset,
    coupled_derivative_array,
    pendulum_accelerations,
    pendulum_energy,
    zeta_derivatives,
)


@pytest.fixture
def params():
    return VehicleParams()


VEHICLE_NAMES = ("x", "y", "z", "vx", "vy", "vz", "phi", "theta", "psi",
                 "p_rate", "q_rate", "r_rate")


def vehicle_state(**kw):
    """The 12 vehicle floats of the state vector, zero unless named."""
    unknown = kw.keys() - set(VEHICLE_NAMES)
    if unknown:
        raise TypeError(f"unknown vehicle state names {sorted(unknown)}")
    return [kw.get(name, 0.0) for name in VEHICLE_NAMES]


def make_state(r=0.0, s=0.0, r_dot=0.0, s_dot=0.0, **quad_kw):
    """16-float coupled state: the vehicle floats, then the load offsets."""
    return [*vehicle_state(**quad_kw), r, s, r_dot, s_dot]


def accelerations(y, U1, m_L, params):
    """(x_dd, y_dd, z_dd, r_dd, s_dd): rows 3, 4, 5, 14, 15 of the model."""
    d = coupled_derivative_array(y, (U1, 0.0, 0.0, 0.0), m_L, params)
    return np.array([d[3], d[4], d[5], d[14], d[15]])


def coupling_residuals(y, m_L, accels, U1, params):
    """Independent re-statement of the five coupled relations.

    Returns the per-relation residual |lhs - rhs| normalized by
    max(1, |rhs|), evaluated directly from the written equations rather
    than through the solver's matrix assembly.
    """
    phi, theta = y[6], y[7]
    L, g = params.L, params.g
    M = params.m_q + m_L
    mu = m_L / M
    r, s, vr, vs = y[12:16]
    zeta = math.sqrt(L * L - r * r - s * s)
    ax, ay, az, ar, as_ = accels
    B = ((L * L - s * s) * vr ** 2 + (L * L - r * r) * vs ** 2
         + 2 * r * s * vr * vs)

    pairs = [
        (ax + mu * ar,
         math.cos(phi) * math.sin(theta) * U1 / M),
        (ay + mu * as_,
         -math.sin(phi) * U1 / M),
        (az + mu * (r * ar + s * as_) / zeta,
         math.cos(phi) * math.cos(theta) * U1 / M
         - mu * (vr ** 2 + vs ** 2) / zeta
         - mu * (r * vr + s * vs) ** 2 / zeta ** 3
         - g * (m_L * zeta / L + params.m_q) / M),
        ((s * s - L * L) * zeta ** 2 * ar - zeta ** 4 * ax
         - r * zeta ** 3 * az - r * s * zeta ** 2 * as_,
         r * B + r * g * zeta ** 3),
        ((r * r - L * L) * zeta ** 2 * as_ - zeta ** 4 * ay
         - s * zeta ** 3 * az - r * s * zeta ** 2 * ar,
         s * B + s * g * zeta ** 3),
    ]
    return [abs(lhs - rhs) / max(1.0, abs(rhs)) for lhs, rhs in pairs]


def newton_two_body(y, U1, m_L, params, F):
    """(x_dd, y_dd, z_dd, r_dd, s_dd) and the cable tension T of a
    point-mass vehicle and a point load on a massless rigid cable, from
    Newton's laws alone, with an extra upward force F on the vehicle.

    The seven unknowns a_q, a_L and T solve, with d = (r, s, -zeta) the
    cable from vehicle to load and n = d / L (yaw = 0, as in the model),

        m_q a_q - T n   = U1 (cphi stheta, -sphi, cphi ctheta)
                          - m_q g z_hat + F z_hat
        m_L a_L + T n   = -m_L g z_hat
        d . (a_L - a_q) = -|d_dot|^2      (the cable keeps its length)
    """
    phi, theta = y[6], y[7]
    m_q, g, L = params.m_q, params.g, params.L
    r, s, vr, vs = y[12:16]
    zeta = math.sqrt(L * L - r * r - s * s)
    d = np.array([r, s, -zeta])
    d_dot = np.array([vr, vs, (r * vr + s * vs) / zeta])
    A = np.zeros((7, 7))
    A[:3, :3] = m_q * np.eye(3)
    A[3:6, 3:6] = m_L * np.eye(3)
    A[:3, 6] = -d / L
    A[3:6, 6] = d / L
    A[6, :3] = -d
    A[6, 3:6] = d
    b = np.array([
        math.cos(phi) * math.sin(theta) * U1,
        -math.sin(phi) * U1,
        math.cos(phi) * math.cos(theta) * U1 - m_q * g + F,
        0.0, 0.0, -m_L * g,
        -d_dot @ d_dot])
    sol = np.linalg.solve(A, b)
    a_q, a_L, T = sol[:3], sol[3:6], sol[6]
    return np.array([*a_q, *(a_L - a_q)[:2]]), T


def load_free_translational(y, U1, params):
    """Translational accelerations of the vehicle with no load, restated.

    Thrust U1 along the body z axis (yaw included) minus gravity.
    """
    phi, theta, psi = y[6], y[7], y[8]
    cphi, sphi = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cpsi, spsi = math.cos(psi), math.sin(psi)
    a = U1 / params.m_q
    return ((cphi * sth * cpsi + sphi * spsi) * a,
            (cphi * sth * spsi - sphi * cpsi) * a,
            cphi * cth * a - params.g)


def cable_force_on_load(y, u, m_L, params):
    """Force of the cable on the load, m_L (a_L + g z_hat).

    a_L = (x_dd + r_dd, y_dd + s_dd, z_dd - zeta_dd) is the load's world
    acceleration, built from the model's rows and zeta_derivatives.
    """
    d = coupled_derivative_array(y, u, m_L, params)
    r, s, vr, vs = y[12:16]
    _, zeta_dd = zeta_derivatives(r, s, vr, vs, d[14], d[15], params.L)
    return m_L * np.array([d[3] + d[14], d[4] + d[15],
                           d[5] - zeta_dd + params.g])


class TestVehicleParams:
    def test_defaults_positive(self, params):
        assert params.m_q == 1.0 and params.g == 9.81

    @pytest.mark.parametrize("field", ["m_q", "I_x", "L", "g", "l"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(ValueError):
            VehicleParams(**{field: 0.0})

    def test_derived_constants_follow_replace(self, params):
        # the per-vehicle constants are an attribute, not a field (so not
        # a config key), and replace() recomputes them from the new fields
        assert "derived" not in {f.name for f in fields(VehicleParams)}
        q = replace(params, I_x=9.0e-3, L=0.7)
        assert q.derived == VehicleParams(I_x=9.0e-3, L=0.7).derived
        assert q.derived != params.derived
        L, LL, floor2, m_q, g, cx, lx, cy, ly, cz, I_z = q.derived
        assert (L, LL, m_q, g, I_z) == (0.7, 0.7 * 0.7, 1.0, 9.81, 1.3e-2)
        assert floor2 == (0.01 * 0.7) * (0.01 * 0.7)
        assert (cx, lx) == ((7.5e-3 - 1.3e-2) / 9.0e-3, 0.25 / 9.0e-3)
        assert (cy, ly) == ((1.3e-2 - 9.0e-3) / 7.5e-3, 0.25 / 7.5e-3)
        assert cz == (9.0e-3 - 7.5e-3) / 1.3e-2


class TestCoupledAccelerations:
    def test_hover_equilibrium_exact(self, params):
        m_L = 0.3
        U1 = (params.m_q + m_L) * params.g
        accels = accelerations(make_state(), U1, m_L, params)
        assert np.all(accels == 0.0)

    def test_free_fall(self, params):
        accels = accelerations(make_state(), 0.0, 0.3, params)
        assert accels[:2] == pytest.approx([0, 0], abs=0.0)
        assert accels[3:] == pytest.approx([0, 0], abs=0.0)
        assert accels[2] == pytest.approx(-params.g, rel=1e-15)

    def test_free_fall_massless_exact(self, params):
        accels = accelerations(make_state(), 0.0, 0.0, params)
        assert accels[2] == -params.g

    def test_generic_state_residual(self, params):
        y = make_state(phi=0.05, theta=-0.03, r=0.1, s=-0.05,
                       r_dot=0.2, s_dot=0.1)
        accels = accelerations(y, 12.0, 0.3, params)
        assert np.all(np.isfinite(accels))
        res = coupling_residuals(y, 0.3, accels, 12.0, params)
        assert max(res) < 1e-10

    def test_residual_on_random_states(self, params):
        # 1000 random valid states: residual <= 1e-10 in all five relations,
        # and agreement with a dense library solve of the same system.
        rng = np.random.default_rng(20240814)
        worst = 0.0
        for _ in range(1000):
            rho = 0.95 * params.L * math.sqrt(rng.uniform(0, 1))
            ang = rng.uniform(0, 2 * math.pi)
            y = make_state(
                phi=rng.uniform(-0.5, 0.5), theta=rng.uniform(-0.5, 0.5),
                r=rho * math.cos(ang), s=rho * math.sin(ang),
                r_dot=rng.uniform(-1, 1), s_dot=rng.uniform(-1, 1))
            m_L = rng.uniform(0.0, 0.6)
            U1 = rng.uniform(0.0, params.U1_max)
            accels = accelerations(y, U1, m_L, params)
            worst = max(worst, max(coupling_residuals(y, m_L, accels, U1,
                                                      params)))
            # cross-check the closed form against numpy on the same rows
            A, b = _assemble_np(y, m_L, U1, params)
            ref = np.linalg.solve(A, b)
            assert accels == pytest.approx(ref, rel=1e-9, abs=1e-12)
        assert worst <= 1e-10

    def test_taut_cable_guard(self, params):
        with pytest.raises(TautCableError):
            accelerations(make_state(r=0.49999, s=0.0), 10.0, 0.3, params)

    def test_cable_offset_valid_near_edge(self, params):
        # still meaningfully above the floor: no error
        assert cable_offset(0.49, 0.0, params.L) > 0.0


class TestNewtonOracle:
    """The model against two bodies on a rigid cable, by Newton's laws.

    The model is that system plus an upward force m_L g (1 - zeta/L) on
    the vehicle, from the z row's gravity term g (m_L zeta / L + m_q) / M.
    """

    def _states(self, params, n):
        # m_L from 0.01 kg: at m_L = 0 the load rows of the oracle are
        # singular
        rng = np.random.default_rng(20261019)
        for _ in range(n):
            rho = 0.95 * params.L * math.sqrt(rng.uniform(0, 1))
            ang = rng.uniform(0, 2 * math.pi)
            y = make_state(
                phi=rng.uniform(-0.5, 0.5), theta=rng.uniform(-0.5, 0.5),
                r=rho * math.cos(ang), s=rho * math.sin(ang),
                r_dot=rng.uniform(-1, 1), s_dot=rng.uniform(-1, 1))
            m_L = rng.uniform(0.01, 0.6)
            U1 = rng.uniform(0.0, params.U1_max)
            zeta = cable_offset(y[12], y[13], params.L)
            yield y, U1, m_L, m_L * params.g * (1.0 - zeta / params.L), zeta

    def test_model_is_newton_with_the_upward_force(self, params):
        worst = 0.0
        for y, U1, m_L, F, zeta in self._states(params, 3000):
            want, T = newton_two_body(y, U1, m_L, params, F)
            got = accelerations(y, U1, m_L, params)
            worst = max(worst, float(np.max(
                np.abs(got - want) / np.maximum(1.0, np.abs(want)))))
            # the cable pulls the load along -n with the oracle's tension
            pull = cable_force_on_load(y, (U1, 0.0, 0.0, 0.0), m_L, params)
            n = np.array([y[12], y[13], -zeta]) / params.L
            assert pull == pytest.approx(-T * n, rel=1e-12, abs=1e-12)
        assert worst <= 1e-12

    def test_without_it_only_row_3_misses_by_it(self, params):
        for y, U1, m_L, F, zeta in self._states(params, 3000):
            accels, _ = newton_two_body(y, U1, m_L, params, 0.0)
            res = coupling_residuals(y, m_L, accels, U1, params)
            assert max(res[0], res[1], res[3], res[4]) <= 1e-12
            # row 3 restated with its sign: lhs - rhs
            phi, theta = y[6], y[7]
            r, s, vr, vs = y[12:16]
            M = params.m_q + m_L
            mu = m_L / M
            az, ar, as_ = accels[2:]
            lhs = az + mu * (r * ar + s * as_) / zeta
            rhs = (math.cos(phi) * math.cos(theta) * U1 / M
                   - mu * (vr ** 2 + vs ** 2) / zeta
                   - mu * (r * vr + s * vs) ** 2 / zeta ** 3
                   - params.g * (m_L * zeta / params.L + params.m_q) / M)
            assert lhs - rhs == pytest.approx(-F / M, rel=0.0, abs=1e-12)


def _assemble_np(y, m_L, U1, params):
    """The full 5x5 system in numpy, to cross-check the closed form."""
    phi, theta = y[6], y[7]
    L, g = params.L, params.g
    M = params.m_q + m_L
    mu = m_L / M
    r, s, vr, vs = y[12:16]
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
        math.cos(phi) * math.sin(theta) * U1 / M,
        -math.sin(phi) * U1 / M,
        math.cos(phi) * math.cos(theta) * U1 / M
        - mu * (vr ** 2 + vs ** 2) / zeta
        - mu * (r * vr + s * vs) ** 2 / z3
        - g * (m_L * zeta / L + params.m_q) / M,
        r * B + r * g * z3,
        s * B + s * g * z3,
    ])
    return A, b


class TestCableForce:
    """The cable force on the load, restated from the model's rows."""

    def test_hover_static_weight(self, params):
        m_L = 0.3
        U1 = (params.m_q + m_L) * params.g
        F = cable_force_on_load(make_state(), (U1, 0.0, 0.0, 0.0), m_L,
                                params)
        assert F[0] == pytest.approx(0.0, abs=1e-12)
        assert F[1] == pytest.approx(0.0, abs=1e-12)
        assert F[2] == pytest.approx(m_L * params.g, rel=1e-12)

    def test_massless_is_zero(self, params):
        y = make_state(phi=0.1, r=0.2, s=-0.1, r_dot=0.3)
        F = cable_force_on_load(y, (9.0, 0.0, 0.0, 0.0), 0.0, params)
        assert F == pytest.approx([0, 0, 0], abs=0.0)

    def test_parallel_to_cable(self, params):
        # a taut massless cable can only pull along itself: the force on
        # the load is parallel to n = (-r, -s, zeta)/L at any swung state
        rng = np.random.default_rng(20261018)
        for _ in range(500):
            rho = 0.9 * params.L * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            r, s = rho * math.cos(ang), rho * math.sin(ang)
            y = make_state(phi=rng.uniform(-0.4, 0.4),
                           theta=rng.uniform(-0.4, 0.4), r=r, s=s,
                           r_dot=rng.uniform(-1, 1), s_dot=rng.uniform(-1, 1))
            u = (rng.uniform(0.0, params.U1_max), 0.0, 0.0, 0.0)
            F = cable_force_on_load(y, u, rng.uniform(0.01, 0.6), params)
            n = np.array([-r, -s, cable_offset(r, s, params.L)]) / params.L
            assert (np.linalg.norm(np.cross(F, n))
                    <= 1e-12 * np.linalg.norm(F))

    def test_kinematic_oracle(self, params):
        # Differentiate the integrated trajectory instead of trusting the
        # closed forms: central differences of the velocity/offset series
        # around t0 must reproduce the load acceleration the force uses.
        m_L = 0.3
        y0 = np.array(make_state(phi=0.05, theta=-0.03, r=0.1, s=-0.05,
                                 r_dot=0.2, s_dot=0.1, z=1.5, vx=0.1,
                                 vy=-0.2, vz=0.05))
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

        F = cable_force_on_load(y0.tolist(), u.tolist(), m_L, params)

        assert F[0] == pytest.approx(m_L * ddx, abs=1e-7)
        assert F[1] == pytest.approx(m_L * ddy, abs=1e-7)
        expected_z = m_L * (ddz - zeta_dd_fd + params.g)
        assert F[2] == pytest.approx(expected_z, abs=1e-5)

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
    """The vehicle alone: m_L = 0 with the load hanging at rest."""

    def test_hover(self, params):
        u = (params.m_q * params.g, 0.0, 0.0, 0.0)
        d = coupled_derivative_array(make_state(z=1.5), u, 0.0, params)
        assert np.all(np.array(d) == 0.0)

    def test_pure_yaw_torque(self, params):
        u = (params.m_q * params.g, 0.0, 0.0, 0.013)
        d = coupled_derivative_array(make_state(), u, 0.0, params)
        assert d[11] == pytest.approx(1.0, rel=1e-12)

    def test_pitch_tilt_acceleration(self, params):
        u = (params.m_q * params.g, 0.0, 0.0, 0.0)
        d = coupled_derivative_array(make_state(theta=0.1), u, 0.0, params)
        assert d[3] == pytest.approx(params.g * math.sin(0.1), rel=1e-12)

    def test_gyroscopic_cross_terms(self, params):
        y = make_state(p_rate=1.0, q_rate=2.0, r_rate=3.0)
        d = coupled_derivative_array(y, (0.0, 0.0, 0.0, 0.0), 0.0, params)
        p = params
        assert d[9] == pytest.approx((p.I_y - p.I_z) / p.I_x * 2.0 * 3.0)
        assert d[10] == pytest.approx((p.I_z - p.I_x) / p.I_y * 1.0 * 3.0)
        assert d[11] == pytest.approx((p.I_x - p.I_y) / p.I_z * 2.0 * 1.0)

    def test_gimbal_guard(self, params):
        with pytest.raises(GimbalLockError):
            coupled_derivative_array(make_state(phi=1.6),
                                     (5.0, 0.0, 0.0, 0.0), 0.0, params)


class TestCoupledDerivative:
    def test_hover_zero_vector(self, params):
        m_L = 0.2
        u = ((params.m_q + m_L) * params.g, 0.0, 0.0, 0.0)
        d = coupled_derivative_array(make_state(z=1.5), u, m_L, params)
        assert len(d) == COUPLED_DIM
        assert np.all(np.array(d) == 0.0)

    def test_rotational_rows_bitwise_equal(self, params):
        # the load acts at the centre of gravity and does not torque the
        # body: a swinging load leaves the rotational rows of the vehicle
        # alone unchanged, bit for bit
        rng = np.random.default_rng(7)
        for _ in range(20):
            quad_kw = dict(
                x=rng.normal(), y=rng.normal(), z=1.5 + rng.normal(),
                vx=rng.normal(), vy=rng.normal(), vz=rng.normal(),
                phi=rng.uniform(-0.4, 0.4), theta=rng.uniform(-0.4, 0.4),
                psi=rng.uniform(-0.4, 0.4),
                p_rate=rng.normal(), q_rate=rng.normal(),
                r_rate=rng.normal())
            u = (rng.uniform(0, 14), rng.normal(), rng.normal(), rng.normal())
            swung = make_state(r=0.1, s=-0.2, r_dot=0.3, s_dot=0.1,
                               **quad_kw)
            dc = coupled_derivative_array(swung, u, 0.4, params)
            dq = coupled_derivative_array(make_state(**quad_kw), u, 0.0,
                                          params)
            assert dc[9:12] == dq[9:12]

    def test_small_mass_limit_half_percent(self, params):
        # load at rest under the vehicle: coupled translational accelerations
        # within 0.5% of the load-free model, normalized by the dominant
        # thrust acceleration scale U1/m_q
        y = make_state(phi=0.05, theta=-0.03)
        U1 = 12.0
        dc = coupled_derivative_array(y, (U1, 0.0, 0.0, 0.0), 0.005, params)
        dq = load_free_translational(y, U1, params)
        scale = U1 / params.m_q
        for i in (0, 1, 2):
            denom = max(abs(dq[i]), scale)
            assert abs(dc[3 + i] - dq[i]) / denom <= 0.005

    def test_massless_limit(self, params):
        y = make_state(phi=0.05, theta=-0.03, r=0.1, s=-0.05,
                       r_dot=0.2, s_dot=0.1)
        dc = coupled_derivative_array(y, (12.0, 0.0, 0.0, 0.0), 1e-6, params)
        dq = load_free_translational(y, 12.0, params)
        for i in (0, 1, 2):
            assert abs(dc[3 + i] - dq[i]) / max(abs(dq[i]), 1e-9) < 1e-4


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
    y = make_state(phi=phi, theta=theta, r=r, s=s, r_dot=vr, s_dot=vs)
    a = accelerations(y, U1, m_L, params)

    phi_m = math.asin(-math.cos(phi) * math.sin(theta))
    theta_m = math.atan2(-math.sin(phi), math.cos(phi) * math.cos(theta))
    mirrored = make_state(phi=phi_m, theta=theta_m, r=s, s=r,
                          r_dot=vs, s_dot=vr)
    am = accelerations(mirrored, U1, m_L, params)

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
