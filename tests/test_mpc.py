"""MPC oracles: models, Riccati, prediction, solver, gain, loop."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slungsim.controllers import ANGLE_CAP
from slungsim.dynamics import VehicleParams
from slungsim.mpc import (
    _pack_gain_input,
    HORIZON,
    DiscreteModel,
    MOVE_ATT,
    EstimatorConfig,
    MpcController,
    MpcWeights,
    build_prediction,
    dare_residual,
    discretize_rotational,
    discretize_translational,
    mpc_cost,
    mpc_solve,
    solve_dare,
)
from slungsim.simloop import SimConfig, run
from slungsim.trajectory import ReferencePoint, square_reference

from test_dynamics import vehicle_state


@pytest.fixture
def params():
    return VehicleParams()


def scalar_model(a, b, c):
    return DiscreteModel(A=np.array([[float(a)]]), B=np.array([[float(b)]]),
                         C=np.array([[float(c)]]))


def hover_ref(pos=(0.0, 0.0, 1.5)):
    return ReferencePoint(pos=pos, vel=(0.0, 0.0, 0.0), acc=(0.0, 0.0, 0.0))


def default_mpc(params):
    """The controller with the settings a default SimConfig runs."""
    return MpcController(params, 0.01, HORIZON, None, MOVE_ATT)


class TestDiscretization:
    def test_translational_structure(self, params):
        dt = 0.01
        md = discretize_translational(dt, params)
        A_want = np.eye(6)
        A_want[0, 1] = A_want[2, 3] = A_want[4, 5] = dt
        assert np.array_equal(md.A, A_want)
        B_want = np.zeros((6, 3))
        B_want[1, 0] = params.g * dt
        B_want[3, 1] = -params.g * dt
        B_want[5, 2] = -dt
        assert np.array_equal(md.B, B_want)
        assert md.B[1, 0] == pytest.approx(0.0981)
        C_want = np.zeros((3, 6))
        C_want[0, 0] = C_want[1, 2] = C_want[2, 4] = 1.0
        assert np.array_equal(md.C, C_want)

    def test_rotational_structure(self, params):
        dt = 0.01
        md = discretize_rotational(dt, params)
        assert md.B[1, 0] == pytest.approx(dt / params.I_x)
        assert md.B[1, 0] == pytest.approx(1.3333, rel=1e-4)
        assert md.B[3, 1] == pytest.approx(dt / params.I_y)
        assert md.B[5, 2] == pytest.approx(dt / params.I_z)
        assert np.count_nonzero(md.B) == 3
        assert md.A[0, 1] == dt and md.A[2, 3] == dt and md.A[4, 5] == dt

    def test_zero_step_degenerates(self, params):
        md = discretize_translational(0.0, params)
        assert np.array_equal(md.A, np.eye(6))
        assert not md.B.any()


class TestRiccati:
    def test_memoryless_state(self):
        # A = 0: the prediction covariance is just the process noise
        md = scalar_model(0.0, 1.0, 1.0)
        cfg = EstimatorConfig(w=1.0, v=1.0)
        P = solve_dare(md, cfg)
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_golden_ratio_fixed_point(self):
        # A = C = W = V = 1 gives P^2 - P - 1 = 0
        md = scalar_model(1.0, 1.0, 1.0)
        cfg = EstimatorConfig(w=1.0, v=1.0)
        P = solve_dare(md, cfg)
        assert P[0, 0] == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-9)

    @pytest.mark.parametrize("dt", [0.005, 0.01, 0.02])
    @pytest.mark.parametrize("build", [discretize_translational,
                                       discretize_rotational])
    def test_production_models_converge(self, params, dt, build):
        md = build(dt, params)
        cfg = EstimatorConfig()
        P = solve_dare(md, cfg)
        assert dare_residual(md, cfg, P) <= 1e-8


class TestPrediction:
    def test_single_step(self, params):
        md = discretize_translational(0.01, params)
        pm = build_prediction(md, 1)
        assert np.array_equal(pm.Lam, md.C)
        assert not pm.Gam.any()

    def test_two_step(self, params):
        md = discretize_translational(0.01, params)
        pm = build_prediction(md, 2)
        assert np.array_equal(pm.Lam[3:], md.C @ md.A)
        assert np.allclose(pm.Gam[3:, :3], md.C @ md.B)
        assert not pm.Gam[3:, 3:].any()

    def test_diagonal_blocks_zero(self, params):
        md = discretize_rotational(0.01, params)
        pm = build_prediction(md, HORIZON)
        for i in range(HORIZON):
            blk = pm.Gam[3 * i:3 * (i + 1), 3 * i:3 * (i + 1)]
            assert not blk.any()

    @pytest.mark.parametrize("N", [0, -1])
    def test_horizon_below_one_rejected(self, params, N):
        md = discretize_translational(0.01, params)
        with pytest.raises(ValueError, match="^horizon must be >= 1$"):
            build_prediction(md, N)

    def test_matches_recursion(self, params):
        md = discretize_translational(0.01, params)
        N = HORIZON
        pm = build_prediction(md, N)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6)
        U = 0.1 * rng.standard_normal((N, 3))
        stacked = pm.Lam @ x + pm.Gam @ U.ravel()
        xi = x.copy()
        ys = []
        for i in range(N):
            ys.append(md.C @ xi)
            xi = md.A @ xi + md.B @ U[i]
        assert np.max(np.abs(stacked - np.concatenate(ys))) < 1e-12


class TestSolver:
    def test_free_response_needs_no_input(self, params):
        md = discretize_translational(0.01, params)
        pm = build_prediction(md, HORIZON)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(6)
        refs = pm.Lam @ x
        U = mpc_solve(pm, MpcWeights(), x, refs, np.zeros(3))
        assert np.max(np.abs(U)) < 1e-12

    def test_gradient_vanishes_at_solution(self, params):
        md = discretize_rotational(0.01, params)
        pm = build_prediction(md, 10)
        w = MpcWeights()
        rng = np.random.default_rng(5)
        x = 0.1 * rng.standard_normal(6)
        refs = 0.05 * rng.standard_normal(30)
        u_prev = 0.01 * rng.standard_normal(3)
        U = mpc_solve(pm, w, x, refs, u_prev)

        def grad(at):
            h = 1e-6
            g = np.empty_like(at)
            for i in range(at.size):
                dp = at.copy()
                dm = at.copy()
                dp[i] += h
                dm[i] -= h
                g[i] = (mpc_cost(pm, w, x, refs, u_prev, dp)
                        - mpc_cost(pm, w, x, refs, u_prev, dm)) / (2 * h)
            return g

        scale = 1.0 + np.linalg.norm(grad(np.zeros_like(U)))
        assert np.linalg.norm(grad(U)) <= 1e-6 * scale

    def test_scalar_toy_reaches_in_two_steps(self):
        md = scalar_model(1.0, 1.0, 1.0)
        pm = build_prediction(md, 2)
        w = MpcWeights(s=1e-9)
        x = np.array([0.7])
        r2 = 3.0
        refs = np.array([md.C[0, 0] * x[0], r2])  # first output is free
        U = mpc_solve(pm, w, x, refs, np.zeros(1))
        # one step of the model under the first input lands on the target
        x1 = md.A @ x + md.B @ U[:1]
        assert md.C @ x1 == pytest.approx(r2, rel=1e-6)

    def test_beats_random_perturbations(self, params):
        md = discretize_translational(0.01, params)
        pm = build_prediction(md, 8)
        w = MpcWeights()
        rng = np.random.default_rng(17)
        x = 0.2 * rng.standard_normal(6)
        refs = 0.1 * rng.standard_normal(24)
        u_prev = 0.01 * rng.standard_normal(3)
        U = mpc_solve(pm, w, x, refs, u_prev)
        J0 = mpc_cost(pm, w, x, refs, u_prev, U)
        for _ in range(1000):
            J = mpc_cost(pm, w, x, refs, u_prev,
                         U + 1e-3 * rng.standard_normal(U.size))
            assert J0 <= J

    def test_receding_horizon_settles_on_linear_model(self, params):
        md = discretize_translational(0.01, params)
        pm = build_prediction(md, HORIZON)
        # the production position weights; a uniform move weight starves
        # the low-authority vertical channel into a limit cycle
        w = MpcWeights(s=(0.05, 0.05, 0.05 / params.g ** 2))
        x = np.zeros(6)
        target = np.array([0.4, -0.2, 1.5])
        refs = np.tile(target, HORIZON)
        u = np.zeros(3)
        last = None
        steps = 600
        for k in range(steps):
            # the solve starts from the one-step prediction under the
            # input already committed, mirroring the estimator output
            xhat = md.A @ x + md.B @ u
            U = mpc_solve(pm, w, xhat, refs, u)
            u_next = U[:3]
            x = md.A @ x + md.B @ u
            if last is not None and k == steps - 1:
                assert np.linalg.norm(u_next - last) < 1e-9
            last = u_next
            u = u_next
        assert np.allclose(md.C @ x, target, atol=1e-6)


class TestRecedingGain:
    """The constant gain reproduces the first block of the stacked solve.

    The receding-horizon definition, mpc_solve from the one-step
    prediction A x + B u with the reference held over the horizon, is the
    reference the controller's collapsed law is checked against.
    """

    @pytest.mark.parametrize("horizon, move_pos, move_att", [
        (HORIZON, None, MOVE_ATT),
        (7, (0.3, 0.6, 0.01), (0.001, 0.0005, 0.002)),
    ], ids=["default", "custom"])
    def test_matches_first_block_of_solve(self, params, horizon,
                                          move_pos, move_att):
        ctrl = MpcController(params, 0.01, horizon, move_pos, move_att)
        # the controller's tilt-equalised default, restated
        if move_pos is None:
            move_pos = (0.4, 0.4, 0.05 / params.g ** 2)
        weights_pos = MpcWeights(s=move_pos)
        weights_att = MpcWeights(s=move_att)
        rng = np.random.default_rng(23)
        for K, md, w in ((ctrl.K_pos, discretize_translational(0.01, params),
                          weights_pos),
                         (ctrl.K_att, discretize_rotational(0.01, params),
                          weights_att)):
            assert K.shape == (3, 12)
            pm = build_prediction(md, horizon)
            for _ in range(20):
                ref = rng.standard_normal(3)
                x = rng.standard_normal(6)
                u = 0.1 * rng.standard_normal(3)
                want = mpc_solve(pm, w, md.A @ x + md.B @ u,
                                 np.tile(ref, horizon), u)[:3]
                got = K @ np.concatenate([ref, x, u])
                assert np.max(np.abs(got - want)) <= \
                    1e-12 * np.max(np.abs(want))


class TestController:
    def test_first_tick_is_hover(self, params):
        ctrl = default_mpc(params)
        U1, U2, U3, U4, phi_d, theta_d, saturated = ctrl.step(
            vehicle_state(z=1.5), hover_ref())
        assert U1 == pytest.approx(params.m_q * params.g)
        assert U2 == 0.0 and U3 == 0.0 and U4 == 0.0
        assert phi_d == 0.0 and theta_d == 0.0
        assert not saturated

    def test_hover_is_fixed_point(self, params):
        # at the reference with zero velocity the loop never leaves hover
        ctrl = default_mpc(params)
        st = vehicle_state(z=1.5)
        for _ in range(50):
            out = ctrl.step(st, hover_ref())
            assert out[0] == pytest.approx(params.m_q * params.g, abs=1e-12)
            assert abs(out[4]) < 1e-12 and abs(out[5]) < 1e-12

    def test_displacement_tilts_toward_target(self, params):
        ctrl = default_mpc(params)
        st = vehicle_state(x=-0.5, z=1.5)
        ctrl.step(st, hover_ref())
        out = ctrl.step(st, hover_ref())
        # positive pitch command accelerates +x, toward the target
        assert out[5] > 0.0
        assert abs(out[4]) < 1e-9

    def test_angle_and_thrust_caps(self, params):
        ctrl = default_mpc(params)
        far = hover_ref(pos=(50.0, -50.0, 80.0))
        st = vehicle_state(z=1.5)
        saturated = False
        for _ in range(20):
            out = ctrl.step(st, far)
            assert abs(out[4]) <= ANGLE_CAP + 1e-12
            assert abs(out[5]) <= ANGLE_CAP + 1e-12
            assert 0.0 < out[0] <= params.U1_max
            saturated = saturated or out[6]
        assert saturated

    def test_two_instances_agree_bitwise(self, params):
        seq = [vehicle_state(x=0.01 * k, y=-0.005 * k, z=1.5)
               for k in range(10)]
        outs = []
        for _ in range(2):
            ctrl = default_mpc(params)
            outs.append([ctrl.step(s, hover_ref()) for s in seq])
        assert outs[0] == outs[1]


    def test_alternated_instances_step_as_each_alone(self, params):
        # each controller owns its gain-product buffers, so stepping two
        # in turn gives each one's outputs of stepping it alone
        log = run(SimConfig(controller="MPC", m_L=0.3, duration=2.0))
        ticks = list(zip(log.quad.tolist(), map(square_reference, log.t)))

        def pair():
            return (default_mpc(params),
                    MpcController(params, 0.01, 10, (0.2, 0.2, 0.001), 1e-3))

        alone = [[repr(c.step(s, ref)) for s, ref in ticks] for c in pair()]
        a, b = pair()
        assert a._v is not b._v and a._Kv is not b._Kv
        turns = [[], []]
        for s, ref in ticks:
            turns[0].append(repr(a.step(s, ref)))
            turns[1].append(repr(b.step(s, ref)))
        assert alone[0] != alone[1]
        assert turns == alone

    @pytest.mark.parametrize("v, text", [(1e308, "overflow"),
                                         (math.inf, "invalid value")])
    def test_raised_product_error_names_matmul(self, params, v, text):
        # np.dot words its error "... in dot"; the step hands the product
        # to @ so that a run's abort reason reads as it always has
        ctrl = default_mpc(params)
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError, match="^" + text
                               + " encountered in matmul$"):
                ctrl.step([v] * 12, hover_ref())


# what a gain product meets at the edges: signed zeros, subnormals, the
# smallest normal, huge values whose products overflow, and non-finites
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf,
               math.nan)
_MPC = default_mpc(VehicleParams())


def _product_outcome(product):
    """The product's bytes, or the text of the FloatingPointError it raised."""
    try:
        return np.array(product()).tobytes()
    except FloatingPointError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(v=st.lists(st.one_of(st.floats(-1e3, 1e3),
                            st.sampled_from(EDGE_FLOATS)),
                  min_size=12, max_size=12),
       errors=st.sampled_from(("ignore", "raise")))
@example(v=[1e300] * 12, errors="ignore")
@example(v=[1.7976931348623157e308] * 12, errors="raise")
@example(v=[math.inf, -0.0] * 6, errors="raise")
def test_buffered_gain_product_is_the_matmul(v, errors):
    # both gains, written through the controller's buffers, against
    # K @ np.array(v): the same bits, or the same error text
    for K in (_MPC.K_pos, _MPC.K_att):
        with np.errstate(all=errors):
            _pack_gain_input(_MPC._v_bytes, 0, *v)
            got = _product_outcome(lambda: _MPC._gain_product(K))
            want = _product_outcome(lambda: (K @ np.array(v)).tolist())
        assert got == want
