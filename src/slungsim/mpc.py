"""Model-predictive position and attitude control.

Two independent receding-horizon loops share one machinery: a linear
discrete model, a stacked prediction over an N-step horizon, and an
unconstrained least-squares solve penalizing tracking error (identity
weight) and input moves.  The move weights are the only weights; config
sets them per loop with mpc.move_pos and mpc.move_att.

The position loop models the translational states [x, vx, y, vy, z, vz]
as three double integrators driven by (theta_d, phi_d, G), where small
tilt angles produce horizontal specific force (x_dd ~ g*theta,
y_dd ~ -g*phi) and G = g - U1/m_q is the vertical specific-force deficit
(z_dd ~ -G).  The attitude loop models [phi, p, theta, q, psi, r] driven
by the rotor difference channels (U2, U3, U4) through the inverse
inertias.  Both models ignore the slung load and the angular cross
terms; the load acts on them only through the measured state, which
every tick re-reads in full.

Timing convention: the input applied during tick k is the one decided at
tick k-1 (the first tick applies the hover input).  Each step predicts
the state one tick ahead under the currently applied input, then solves
for the input to apply next tick, with the move penalty anchored at the
currently applied value.  Saturated values (angle caps, thrust ceiling)
are what the prediction is told was applied.

With the reference held over the horizon, that solve is linear in the
reference r, the measured state x and the applied input u, so each loop
reduces to one constant gain computed at construction:
u_next = K @ [r, x, u].  `mpc_solve` keeps the stacked problem as the
reference that gain is tested against.  Each step packs [r, x, u] into a
12-entry buffer that the controller owns and forms the product with one
np.dot into a 3-entry buffer it owns: the same BLAS gemv call that
K @ np.array([r, x, u]) makes, so the bits are the same, and no array is
built per step.  Scalar dot products would sum in another order and move
the rounding.  The product is read back as Python floats, so step returns
the float tuple of the controllers interface.

The steady-state Riccati solution (`solve_dare`, `dare_residual`) serves
the numerical-core checks; the controller does not use it, because it
measures the full state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .controllers import ANGLE_CAP, U1_FLOOR, _check_torques, _limit
from .dynamics import VehicleParams, store_positive_floats
from .trajectory import ReferencePoint

HORIZON = 25
# The attitude move weight must sit far below the tilt move weight: the
# position loop crosses over near the attitude bandwidth, and a sluggish
# inner loop eats the cascade phase margin and pumps a growing swing at
# every load mass.  The tilt weight cannot rescue that (a move penalty adds
# lag without cutting gain), so the inner loop is made fast instead.
# Stable plateau measured at tilt move weight 0.2-0.8 x attitude move
# weight 1e-4 to 5e-4.
MOVE_ATT = 0.0002

# writes one loop's [r, x, u] as native float64s into a byte buffer
_pack_gain_input = struct.Struct("12d").pack_into


@dataclass(frozen=True)
class DiscreteModel:
    """Linear discrete-time model x+ = A x + B u, y = C x."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def _double_integrators(dt: float, b) -> DiscreteModel:
    """Three Euler double integrators [q0, dq0, q1, dq1, q2, dq2] with
    outputs (q0, q1, q2); input i enters row 2i+1 through b[i] (dt folded in).
    """
    A = np.eye(6)
    A[0, 1] = A[2, 3] = A[4, 5] = dt
    B = np.zeros((6, 3))
    B[1, 0], B[3, 1], B[5, 2] = b
    C = np.zeros((3, 6))
    C[0, 0] = C[1, 2] = C[2, 4] = 1.0
    return DiscreteModel(A=A, B=B, C=C)


def discretize_translational(dt: float, params: VehicleParams) -> DiscreteModel:
    """Euler-discretized translational model, inputs (theta_d, phi_d, G).

    State [x, vx, y, vy, z, vz]; outputs (x, y, z).  A positive pitch
    command accelerates +x, a positive roll command accelerates -y, and a
    positive thrust deficit G accelerates -z, so the input columns carry
    (+g dt, -g dt, -dt) into the respective velocity rows, g from params.
    """
    return _double_integrators(dt, (params.g * dt, -params.g * dt, -dt))


def discretize_rotational(dt: float, params: VehicleParams) -> DiscreteModel:
    """Euler-discretized attitude model, inputs (U2, U3, U4).

    State [phi, p, theta, q, psi, r]; outputs (phi, theta, psi).  The
    angular cross terms are dropped and each rate row is driven through
    the corresponding inverse inertia of params.
    """
    return _double_integrators(
        dt, (dt / params.I_x, dt / params.I_y, dt / params.I_z))


@dataclass(frozen=True)
class EstimatorConfig:
    """Noise covariances shaping the steady-state estimator gain.

    w and v scale identity process/measurement covariances.
    """

    w: float = 1e-4
    v: float = 1e-4

    def covariances(self, model: DiscreteModel):
        return (self.w * np.eye(model.A.shape[0]),
                self.v * np.eye(model.C.shape[0]))


def solve_dare(model: DiscreteModel, cfg: EstimatorConfig,
               tol: float = 1e-12, max_iter: int = 100000) -> np.ndarray:
    """Steady-state predictive Riccati solution by fixed-point iteration.

    P <- W + A P A' - A P C' (C P C' + V)^-1 C P A',
    started at P = W, symmetrized each sweep, stopping when the update
    falls below tol in max norm.
    """
    P = cfg.covariances(model)[0]
    for _ in range(max_iter):
        P_next = _riccati_sweep(model, cfg, P)
        P_next = 0.5 * (P_next + P_next.T)
        delta = np.max(np.abs(P_next - P))
        P = P_next
        if delta < tol:
            return P
    raise RuntimeError(f"Riccati iteration did not converge in {max_iter} sweeps")


def _riccati_sweep(model: DiscreteModel, cfg: EstimatorConfig,
                   P: np.ndarray) -> np.ndarray:
    A, C = model.A, model.C
    W, V = cfg.covariances(model)
    G = A @ P @ C.T
    S = C @ P @ C.T + V
    return W + A @ P @ A.T - G @ np.linalg.solve(S, G.T)


def dare_residual(model: DiscreteModel, cfg: EstimatorConfig, P: np.ndarray) -> float:
    """Max-norm defect of P under one more Riccati sweep."""
    return float(np.max(np.abs(_riccati_sweep(model, cfg, P) - P)))


@dataclass(frozen=True)
class PredictionModel:
    """Stacked N-step output prediction y_stack = Lam xhat + Gam U.

    Block row i predicts the output i+1 ticks ahead of the estimate;
    Gam is strictly block lower triangular (the first predicted output
    precedes any decided input taking effect), so its diagonal blocks
    are zero.
    """

    Lam: np.ndarray
    Gam: np.ndarray
    N: int


def build_prediction(model: DiscreteModel, N: int) -> PredictionModel:
    """The model's stacked prediction over an N-step horizon, N >= 1."""
    if N < 1:
        raise ValueError("horizon must be >= 1")
    A, B, C = model.A, model.B, model.C
    (p, n), m = C.shape, B.shape[1]
    # C A^i blocks, i = 0..N-1
    CA = np.empty((N, p, n))
    CA[0] = C
    for i in range(1, N):
        CA[i] = CA[i - 1] @ A
    Lam = CA.reshape(N * p, n)
    Gam = np.zeros((N * p, N * m))
    for i in range(1, N):
        for j in range(i):
            Gam[i * p:(i + 1) * p, j * m:(j + 1) * m] = CA[i - j - 1] @ B
    return PredictionModel(Lam=Lam, Gam=Gam, N=N)


@dataclass(frozen=True)
class MpcWeights:
    """Diagonal move weight s: a float, or a tuple of one float per input.

    The tracking weight is the identity, so the move weights are the only
    weights.  Config sets them with mpc.move_pos and mpc.move_att.
    """

    s: object = 0.05

    def __post_init__(self):
        store_positive_floats(self, "MpcWeights.")


def _cost_terms(pm: PredictionModel, weights: MpcWeights):
    """Cost terms: D differences consecutive input blocks, E injects the
    applied input, sbar stacks the move weights, H is the cost Hessian."""
    N = pm.N
    m = pm.Gam.shape[1] // N
    sbar = np.tile(np.broadcast_to(np.asarray(weights.s, float), (m,)), N)
    D = np.eye(N * m) - np.eye(N * m, k=-m)
    E = np.eye(N * m, m)
    H = pm.Gam.T @ pm.Gam + D.T @ (sbar[:, None] * D)
    return D, E, sbar, H


def mpc_solve(pm: PredictionModel, weights: MpcWeights,
              xhat: np.ndarray, refs: np.ndarray,
              u_prev: np.ndarray) -> np.ndarray:
    """Minimize the stacked tracking plus input-move cost.

    J = 1/2 sum_i ||y_i - r_i||^2 + 1/2 sum_i ||u_i - u_{i-1}||^2_S
    with the first move taken against u_prev (the input already being
    applied).  Returns the stacked minimizer of length N * n_inputs; the
    caller applies only the first block and re-solves next tick.
    """
    D, E, sbar, H = _cost_terms(pm, weights)
    refs = np.asarray(refs, dtype=float).reshape(pm.Lam.shape[0])
    rhs = (pm.Gam.T @ (refs - pm.Lam @ np.asarray(xhat, dtype=float))
           + D.T @ (sbar * (E @ np.asarray(u_prev, dtype=float))))
    return np.linalg.solve(H, rhs)


def mpc_cost(pm: PredictionModel, weights: MpcWeights,
             xhat: np.ndarray, refs: np.ndarray,
             u_prev: np.ndarray, U: np.ndarray) -> float:
    """Cost functional evaluated at a stacked input sequence U."""
    D, E, sbar, _ = _cost_terms(pm, weights)
    refs = np.asarray(refs, dtype=float).reshape(pm.Lam.shape[0])
    U = np.asarray(U, dtype=float).reshape(pm.Gam.shape[1])
    e = pm.Lam @ np.asarray(xhat, dtype=float) + pm.Gam @ U - refs
    dU = D @ U - E @ np.asarray(u_prev, dtype=float)
    return 0.5 * float(e @ e + dU @ (sbar * dU))


def receding_gain(model: DiscreteModel, weights: MpcWeights,
                  N: int) -> np.ndarray:
    """Constant feedback of the receding-horizon law with the reference held.

    The solve starts from the one-step prediction A x + B u under the
    applied input u and tracks r at every step of the horizon, so the
    first block of the minimizer is linear in (r, x, u):

        u_next = M1 (stack(r) - Lam (A x + B u)) + M2 u = K @ [r, x, u]

    with M1, M2 the first input block of H^-1 [Gam', D' Sbar E].
    Returns K of shape (n_inputs, n_outputs + n_states + n_inputs).
    """
    pm = build_prediction(model, N)
    D, E, sbar, H = _cost_terms(pm, weights)
    m, p = model.B.shape[1], model.C.shape[0]
    M1 = np.linalg.solve(H, pm.Gam.T)[:m]
    M2 = np.linalg.solve(H, D.T @ (sbar[:, None] * E))[:m]
    M1_Lam = M1 @ pm.Lam
    held = np.tile(np.eye(p), (N, 1))
    return np.hstack([M1 @ held, -M1_Lam @ model.A, M2 - M1_Lam @ model.B])


class MpcController:
    """Cascaded receding-horizon position and attitude control.

    Matches the step interface of the other controllers.  The position
    loop tracks the current reference point held over its horizon and
    produces a tilt pair and a thrust deficit; the attitude loop tracks
    that tilt command the same way.  Both loops apply the input decided
    on the previous tick, so the very first tick flies the hover input.

    Each loop predicts from the measured full state, which compensates
    the one-tick input delay.  An output estimator free-running on
    position measurements instead leaves a steady velocity bias of about
    one second times any unmodeled force; the optimizer leans against
    that phantom velocity, the slung load leans back harder, and the loop
    runs away for heavy loads.

    move_pos and move_att are the move weights of the position and the
    attitude loop; move_pos None gives the tilt-equalised default below.
    """

    def __init__(self, params: VehicleParams, dt: float, horizon: int,
                 move_pos, move_att):
        self.params = params
        # the G channel moves the velocity 1/g as far per unit input as the
        # tilt channels do, so its move weight is scaled by 1/g^2 to give
        # all three position inputs equal authority per unit penalty; a
        # uniform move weight leaves the vertical loop oscillatory.  The
        # attitude weight sits far below these (see MOVE_ATT).
        if move_pos is None:
            move_pos = (0.4, 0.4, 0.05 / params.g ** 2)
        # u_next = K @ [ref(3), x(6), u(3)] per loop
        self.K_pos = receding_gain(discretize_translational(dt, params),
                                   MpcWeights(s=move_pos), horizon)
        self.K_att = receding_gain(discretize_rotational(dt, params),
                                   MpcWeights(s=move_att), horizon)
        self._u_pos = [0.0, 0.0, 0.0]  # (theta_d, phi_d, G) applied this tick
        self._u_att = [0.0, 0.0, 0.0]  # (U2, U3, U4) applied this tick
        # each loop's [r, x, u] and its product, reused every step
        self._v = np.empty(12)
        self._v_bytes = memoryview(self._v).cast("B")
        self._Kv = np.empty(3)

    def _gain_product(self, K):
        """K @ self._v as floats, by np.dot into self._Kv: the gemv call
        that K @ v makes.  np.dot words a FloatingPointError "... in dot",
        so the product is then formed again with @, whose error an abort
        reason has always quoted ("... in matmul")."""
        try:
            return np.dot(K, self._v, self._Kv).tolist()
        except FloatingPointError:
            return (K @ self._v).tolist()

    def step(self, s, ref: ReferencePoint):
        par = self.params
        # input decided last tick, applied now, saturated to what the
        # vehicle can actually do
        theta_d, phi_d, G = self._u_pos
        theta_d, cap_theta = _limit(theta_d, -ANGLE_CAP, ANGLE_CAP)
        phi_d, cap_phi = _limit(phi_d, -ANGLE_CAP, ANGLE_CAP)
        U1, clip_U1 = _limit(par.m_q * (par.g - G), U1_FLOOR, par.U1_max)
        saturated = cap_theta or cap_phi or clip_U1
        G_app = par.g - U1 / par.m_q
        U2, U3, U4 = self._u_att

        # position loop: the current reference point, held over the horizon,
        # the measured state and the applied input decide the next input
        x, y, z, vx, vy, vz, phi, theta, psi, p_rate, q_rate, r_rate = s
        rx, ry, rz = ref.pos
        _pack_gain_input(self._v_bytes, 0, rx, ry, rz, x, vx, y, vy, z, vz,
                         theta_d, phi_d, G_app)
        self._u_pos = self._gain_product(self.K_pos)

        # attitude loop tracks this tick's applied tilt, held over the horizon
        _pack_gain_input(self._v_bytes, 0, phi_d, theta_d, 0.0,
                         phi, p_rate, theta, q_rate, psi, r_rate, U2, U3, U4)
        self._u_att = self._gain_product(self.K_att)

        # the attitude model decides torques; the roll/pitch inputs are
        # rotor force differences with moment arm l, so those two are
        # converted (yaw moments pass straight through)
        F2, F3 = U2 / par.l, U3 / par.l
        _check_torques(F2, F3, U4)
        return U1, F2, F3, U4, phi_d, theta_d, saturated
