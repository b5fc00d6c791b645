"""Cascaded PD and sliding-mode flight controllers.

Controller interface, shared with mpc.MpcController: step(s, ref) takes
the 12 vehicle floats s = y[:12] of the state vector (x, y, z, vx, vy, vz,
phi, theta, psi, p, q, r; see dynamics) and the reference point, and
returns the plain tuple

    (U1, U2, U3, U4, phi_d, theta_d, saturated)

of six finite Python floats and a bool: the inputs to apply over the next
tick, the tilt command the attitude loop tracked (its yaw command is
always 0), and whether any demand was clipped.  A step that cannot keep
its floats finite raises an ArithmeticError instead.  Each run builds a
fresh controller, so controller state lives only as long as the run.

Both controllers share one architecture: an outer position loop turns the
tracking error into a collective-thrust demand and a pair of desired tilt
angles, and an inner attitude loop turns the angle errors into torques.
They are designed on the load-free vehicle model and never see the load
state or mass; the slung load acts purely as an unmodeled disturbance.

Position-loop composition: the loop produces commanded horizontal
accelerations (a_cx, a_cy) and a thrust demand U1_dem, and the tilt
extraction is evaluated against the nominal hover thrust m_q*g, so the
realized horizontal acceleration is roughly a_c/g.  The gain is then
independent of the (unknown) total mass, because under any steady load the
applied thrust self-regulates to carry the total weight and thrust/mass
stays near g.

The SMC extraction is additionally scaled by the achieved-thrust fraction
U1_applied/U1_dem (its printed law divides by the live thrust): the
fraction is exactly 1 while the demand is met, and starves horizontal
authority in favour of altitude when the load exceeds what the thrust
ceiling can lift, which produces the overload slow-arrival behaviour near
the vehicle's load limit.  PD skips that scaling: its thrust demand
integrates the altitude sag up against the ceiling even for statically
liftable loads, so the fraction is not an overload signal there.

All angle commands are capped well inside the asin/cascade validity region.
Every limit (thrust floor and ceilings, asin arguments, tilt caps, the
boundary-layer ramp) goes through one helper, `_limit`, which clips and
flags.  A NaN demand would pass any comparison, so `_limit` raises
FloatingPointError for it; the torques have no limit, and an overflowing
one raises the same error.  `simloop.run` makes that arithmetic error a
config error on the first step (tick 0) and an abort on any later tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import VehicleParams, store_positive_floats
from .trajectory import ReferencePoint

ANGLE_CAP = math.radians(20.0)
U1_FLOOR = 1e-3  # N; keeps the thrust demand positive for the tilt division
# Thrust demands are conditioned to at most this multiple of the ceiling
# before the achieved fraction is computed, so a diverging altitude demand
# cannot choke the lateral channel entirely: the fraction bottoms out at
# 1/DEMAND_CEILING instead of decaying toward zero.
DEMAND_CEILING = 1.5


def _limit(v: float, lo: float, hi: float):
    """(v clipped to lo, then to hi; whether it was clipped).

    A ceiling below the floor wins and flags.  A NaN raises
    FloatingPointError, because it would pass every comparison.
    """
    if lo <= v <= hi:
        return v, False
    if v != v:
        raise FloatingPointError("NaN demand")
    return min(hi, max(lo, v)), True


@dataclass(frozen=True)
class PdGains:
    Kpx: float = 10.0
    Kpy: float = 10.0
    Kpz: float = 20.0
    Kdx: float = 8.0
    Kdy: float = 8.0
    Kdz: float = 15.0
    Kpp: float = 50.0   # roll P
    Kpt: float = 50.0   # pitch P
    Kpps: float = 20.0  # yaw P
    Kdp: float = 20.0   # roll D
    Kdt: float = 20.0   # pitch D
    Kdps: float = 15.0  # yaw D

    def __post_init__(self):
        store_positive_floats(self, "PdGains.")


@dataclass(frozen=True)
class SmcGains:
    """Reaching gains k and surface slopes lambda, ordered (phi, theta,
    psi, x, y, z).  boundary_layer = 0 gives the pure sign law; > 0 ramps
    the switch linearly inside |S| < boundary_layer.

    The default layer is nonzero: at a finite control rate the pure sign
    law dithers the tilt command by its full reaching amplitude every
    tick, which the attitude loop (whose dominant pole is -lambda_phi)
    can neither follow nor average away, and the position loop limit
    cycles at the decimeter scale.  The ramp keeps the command smooth so
    the command-rate feedforward below stays meaningful; set 0 to study
    the raw switching behaviour.
    """

    k: tuple = (0.4, 0.4, 0.4, 0.6, 0.6, 0.4)
    lam: tuple = (0.5, 0.5, 0.5, 2.25, 2.25, 5.0)
    boundary_layer: float = 0.08

    def __post_init__(self):
        for name in ("k", "lam"):
            if len(getattr(self, name)) != 6:
                raise ValueError(f"SmcGains.{name} must have six entries")
        store_positive_floats(self, "SmcGains.", ("k", "lam"))
        if not 0.0 <= self.boundary_layer < math.inf:
            raise ValueError("boundary_layer must be >= 0")
        object.__setattr__(self, "boundary_layer", float(self.boundary_layer))


def _check_torques(U2: float, U3: float, U4: float):
    """No limit bounds the torques, so an overflow raises here instead."""
    if not math.isfinite(U2 + U3 + U4):
        raise FloatingPointError("torque demand overflows")


def desired_angles(ax_des: float, ay_des: float, U1: float, m_q: float):
    """Tilt angles that point the thrust vector at a desired specific force.

    phi_d = asin(-m_q*ay_des/U1); theta_d = asin(m_q*ax_des/(U1*cos(phi_d))).
    Arguments outside [-1, 1] are clamped and flagged, and the resulting
    angles are capped to +/-ANGLE_CAP; a NaN argument raises
    FloatingPointError.

    Returns:
        (phi_d, theta_d, clamped)
    """
    if U1 <= 0.0:
        raise ValueError("desired_angles requires U1 > 0")
    a, clip_a = _limit(-m_q * ay_des / U1, -1.0, 1.0)
    phi_d = math.asin(a)
    b, clip_b = _limit(m_q * ax_des / (U1 * math.cos(phi_d)), -1.0, 1.0)
    phi_d, cap_phi = _limit(phi_d, -ANGLE_CAP, ANGLE_CAP)
    theta_d, cap_theta = _limit(math.asin(b), -ANGLE_CAP, ANGLE_CAP)
    return phi_d, theta_d, clip_a or clip_b or cap_phi or cap_theta


def _switch(S: float, boundary_layer: float) -> float:
    """sgn(S), with sgn(0) = 0; linear ramp inside the boundary layer."""
    if boundary_layer > 0.0:
        return _limit(S / boundary_layer, -1.0, 1.0)[0]
    if S > 0.0:
        return 1.0
    if S < 0.0:
        return -1.0
    return 0.0


def _thrust_constants(params: VehicleParams):
    """_position_output's params-derived constants, set once per
    controller (params is frozen): (DEMAND_CEILING*U1_max, U1_max, hover
    thrust m_q*g, m_q, tilt prescale m_q/hover)."""
    hover = params.m_q * params.g
    return (DEMAND_CEILING * params.U1_max, params.U1_max, hover,
            params.m_q, params.m_q / hover)


def _position_output(a_cx: float, a_cy: float, U1_raw: float,
                     thrust: tuple, starve: bool):
    """Saturate the thrust demand and extract the tilt command.

    Returns (phi_d, theta_d, U1_applied, saturated).  `_limit` conditions
    the demand to [U1_FLOOR, DEMAND_CEILING*U1_max] and then applies at
    most U1_max; a NaN demand raises FloatingPointError.  thrust is
    _thrust_constants(params).

    The tilt extraction runs against the nominal hover thrust, so the
    horizontal loop gain stays independent of whatever load the thrust
    loop is implicitly carrying.  With starve=True the extraction is
    additionally scaled by the achieved fraction U1_applied/U1_dem of
    the conditioned demand: exactly 1 while the demand fits inside
    [0, U1_max], dropping toward the 1/DEMAND_CEILING floor when altitude
    consumes the whole thrust budget.  The demand of a rate-damped
    thrust law stays bounded under overload, which makes the fraction a
    usable overload signal; an integrating/proportional thrust law
    (the PD one) winds its demand up against the ceiling even for loads
    it could statically carry, so PD passes starve=False.
    """
    ceiling, U1_max, hover, m_q, pre = thrust
    U1_dem, clip_dem = _limit(U1_raw, U1_FLOOR, ceiling)
    U1_applied, clip_max = _limit(U1_dem, -math.inf, U1_max)
    if starve:
        pre *= U1_applied / U1_dem
    phi_d, theta_d, clamped = desired_angles(pre * a_cx, pre * a_cy,
                                             hover, m_q)
    return phi_d, theta_d, U1_applied, clip_dem or clip_max or clamped


class PdController:
    """Proportional-derivative cascade with acceleration feedforward."""

    def __init__(self, gains: PdGains, params: VehicleParams):
        self.gains = gains
        self.params = params
        # torque scales and thrust constants, set once: params is frozen
        self._I_x_l = params.I_x / params.l
        self._I_y_l = params.I_y / params.l
        self._thrust = _thrust_constants(params)

    def step(self, s, ref: ReferencePoint):
        g = self.gains
        p = self.params
        x, y, z, vx, vy, vz, phi, theta, psi, p_rate, q_rate, r_rate = s
        (rx, ry, rz), (rvx, rvy, rvz), (rax, ray, raz) = ref
        a_cx = rax + g.Kdx * (rvx - vx) + g.Kpx * (rx - x)
        a_cy = ray + g.Kdy * (rvy - vy) + g.Kpy * (ry - y)
        a_cz = raz + g.Kdz * (rvz - vz) + g.Kpz * (rz - z)
        U1_raw = p.m_q * (a_cz + p.g) / (math.cos(phi) * math.cos(theta))
        phi_d, theta_d, U1, saturated = _position_output(
            a_cx, a_cy, U1_raw, self._thrust, starve=False)

        U2 = self._I_x_l * (g.Kpp * (phi_d - phi) - g.Kdp * p_rate)
        U3 = self._I_y_l * (g.Kpt * (theta_d - theta) - g.Kdt * q_rate)
        # psi_d = 0; 0.0 - psi (not -psi) keeps U4 at +0.0 for psi = 0
        U4 = p.I_z * (g.Kpps * (0.0 - psi) - g.Kdps * r_rate)
        _check_torques(U2, U3, U4)
        return U1, U2, U3, U4, phi_d, theta_d, saturated


class SmcController:
    """Sliding-mode cascade with per-axis reaching laws.

    The attitude surface slope lambda_phi bounds how fast the inner loop
    can close an angle error on its own (on the surface the body rate is
    exactly lambda * error), so the commanded angle rate is fed forward
    by backward-differencing the tilt command between ticks.  With the
    default boundary layer the command is smooth and the difference is a
    faithful rate; with a zero layer the command dithers tick-to-tick
    and the feedforward (like the rest of the loop) degrades.  dt is
    the control period, the time between two tilt commands.
    """

    def __init__(self, gains: SmcGains, params: VehicleParams, dt: float):
        self.gains = gains
        self.params = params
        if not 0.0 < dt < math.inf:
            raise ValueError("dt must be positive")
        self.dt = dt
        self._prev_phi_d = None
        self._prev_theta_d = None
        # torque scales, gyroscopic cross-term ratios and thrust constants,
        # set once: params is frozen
        self._I_x_l = params.I_x / params.l
        self._I_y_l = params.I_y / params.l
        self._cross = ((params.I_y - params.I_z) / params.I_x,
                       (params.I_z - params.I_x) / params.I_y,
                       (params.I_x - params.I_y) / params.I_z)
        self._thrust = _thrust_constants(params)

    def step(self, s, ref: ReferencePoint):
        g = self.gains
        p = self.params
        x, y, z, vx, vy, vz, phi, theta, psi, p_rate, q_rate, r_rate = s
        (rx, ry, rz), (rvx, rvy, rvz), (rax, ray, raz) = ref
        k_phi, k_theta, k_psi, k_x, k_y, k_z = g.k
        l_phi, l_theta, l_psi, l_x, l_y, l_z = g.lam
        bl = g.boundary_layer

        # position loop
        e_x = rx - x
        e_y = ry - y
        e_z = rz - z
        ed_x = rvx - vx
        ed_y = rvy - vy
        ed_z = rvz - vz
        S_x = ed_x + l_x * e_x
        S_y = ed_y + l_y * e_y
        S_z = ed_z + l_z * e_z
        a_cx = rax + l_x * ed_x + k_x * _switch(S_x, bl)
        a_cy = ray + l_y * ed_y + k_y * _switch(S_y, bl)
        U1_raw = (p.m_q / (math.cos(phi) * math.cos(theta))
                  * (p.g + raz + l_z * ed_z + k_z * _switch(S_z, bl)))
        phi_d, theta_d, U1, saturated = _position_output(
            a_cx, a_cy, U1_raw, self._thrust, starve=True)

        # attitude loop with differenced command-rate feedforward
        if self._prev_phi_d is None:
            rate_phi_d = 0.0
            rate_theta_d = 0.0
        else:
            rate_phi_d = (phi_d - self._prev_phi_d) / self.dt
            rate_theta_d = (theta_d - self._prev_theta_d) / self.dt
        self._prev_phi_d = phi_d
        self._prev_theta_d = theta_d

        e_phi = phi_d - phi
        e_theta = theta_d - theta
        e_psi = 0.0 - psi  # psi_d = 0; +0.0, not -0.0, at psi = 0
        ed_phi = rate_phi_d - p_rate
        ed_theta = rate_theta_d - q_rate
        ed_psi = -r_rate  # psi_d is constant
        S_phi = ed_phi + l_phi * e_phi
        S_theta = ed_theta + l_theta * e_theta
        S_psi = ed_psi + l_psi * e_psi

        # each row cancels its gyroscopic cross term from the plant model
        c_x, c_y, c_z = self._cross
        U2 = self._I_x_l * (k_phi * _switch(S_phi, bl) + l_phi * ed_phi
                            - c_x * q_rate * r_rate)
        U3 = self._I_y_l * (k_theta * _switch(S_theta, bl)
                            + l_theta * ed_theta - c_y * p_rate * r_rate)
        U4 = p.I_z * (k_psi * _switch(S_psi, bl) + l_psi * ed_psi
                      - c_z * q_rate * p_rate)
        _check_torques(U2, U3, U4)
        return U1, U2, U3, U4, phi_d, theta_d, saturated
