"""Reference trajectories: trapezoidal-speed square legs and a single leg.

Each leg accelerates at a_peak for t_accel seconds, cruises at v_cruise for
t_cruise seconds, and decelerates back to rest over t_accel, covering
a_peak*t_accel^2 + v_cruise*t_cruise metres (1.0 m with the defaults).
The square visits (0,0) -> (1,0) -> (1,1) -> (0,1) -> (0,0) at constant
altitude, one leg per 15 s stage, then holds the origin for a fifth stage.
Yaw reference is identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReferencePoint:
    """Desired position, velocity, acceleration and yaw at one instant."""

    pos: np.ndarray
    vel: np.ndarray
    acc: np.ndarray
    yaw: float = 0.0


@dataclass(frozen=True)
class TrapezoidProfile:
    a_peak: float = 0.032      # m/s^2
    v_cruise: float = 0.08     # m/s
    t_accel: float = 2.5       # s
    t_cruise: float = 10.0     # s

    def __post_init__(self):
        if min(self.a_peak, self.v_cruise, self.t_accel, self.t_cruise) <= 0:
            raise ValueError("profile parameters must be positive")
        if not math.isclose(self.v_cruise, self.a_peak * self.t_accel,
                            rel_tol=1e-9):
            raise ValueError("v_cruise must equal a_peak * t_accel")

    @property
    def t_leg(self) -> float:
        return 2.0 * self.t_accel + self.t_cruise

    @property
    def leg_length(self) -> float:
        return self.a_peak * self.t_accel ** 2 + self.v_cruise * self.t_cruise

    def sample(self, tau: float):
        """(displacement, speed, accel) along one leg at local time tau."""
        a, v, ta, tc = self.a_peak, self.v_cruise, self.t_accel, self.t_cruise
        if tau < 0.0 or tau > self.t_leg:
            raise ValueError(f"leg time {tau} outside [0, {self.t_leg}]")
        if tau < ta:
            return 0.5 * a * tau * tau, a * tau, a
        d_ramp = 0.5 * a * ta * ta
        if tau < ta + tc:
            t1 = tau - ta
            return d_ramp + v * t1, v, 0.0
        t2 = tau - ta - tc
        d_cruise = d_ramp + v * tc
        return d_cruise + v * t2 - 0.5 * a * t2 * t2, v - a * t2, -a


# Square corners in traversal order; leg k runs corner[k] -> corner[k+1].
_CORNERS = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))

N_STAGES = 5

_DEFAULT_PROFILE = TrapezoidProfile()

_Z_HOLD = 1.5    # reference altitude of the square and the single leg, m


def _check_time(t: float, duration: float):
    if t < 0.0 or t > duration:
        raise ValueError(f"reference time {t} outside [0, {duration}]")


def square_reference(t: float) -> ReferencePoint:
    """Four trapezoid legs around the unit square, then hold at the origin.

    Stages (15 s each): 1 is +X, 2 is +Y, 3 is -X, 4 is -Y, 5 holds the
    start point.  Valid for t in [0, 5 * t_leg].
    """
    profile = _DEFAULT_PROFILE
    t_leg = profile.t_leg
    _check_time(t, N_STAGES * t_leg)
    stage = min(int(t // t_leg), N_STAGES - 1)

    if stage == N_STAGES - 1:
        x0, y0 = _CORNERS[4]
        return ReferencePoint(pos=np.array([x0, y0, _Z_HOLD]),
                              vel=np.zeros(3), acc=np.zeros(3), yaw=0.0)

    scale = profile.leg_length
    x0, y0 = _CORNERS[stage]
    x1, y1 = _CORNERS[stage + 1]
    dx = (x1 - x0) / scale
    dy = (y1 - y0) / scale
    d, v, a = profile.sample(t - stage * t_leg)
    return ReferencePoint(pos=np.array([x0 + dx * d, y0 + dy * d, _Z_HOLD]),
                          vel=np.array([dx * v, dy * v, 0.0]),
                          acc=np.array([dx * a, dy * a, 0.0]), yaw=0.0)


def single_leg_reference(t: float) -> ReferencePoint:
    """One +X trapezoid leg, then hold the end point.

    Valid over the same [0, 5 * t_leg] window as the square so the two
    scenarios share a simulation duration.
    """
    profile = _DEFAULT_PROFILE
    t_leg = profile.t_leg
    _check_time(t, N_STAGES * t_leg)

    if t >= t_leg:
        return ReferencePoint(pos=np.array([profile.leg_length, 0.0, _Z_HOLD]),
                              vel=np.zeros(3), acc=np.zeros(3), yaw=0.0)
    d, v, a = profile.sample(t)
    return ReferencePoint(pos=np.array([d, 0.0, _Z_HOLD]),
                          vel=np.array([v, 0.0, 0.0]),
                          acc=np.array([a, 0.0, 0.0]), yaw=0.0)


def hover_reference(t: float, pos_xyz=(0.0, 0.0, 1.5)) -> ReferencePoint:
    """Constant set-point; used for equilibrium-hold checks."""
    return ReferencePoint(pos=np.array(pos_xyz, dtype=float),
                          vel=np.zeros(3), acc=np.zeros(3), yaw=0.0)


def reference_window(trajectory: str) -> float:
    """Latest time at which the named default trajectory can be sampled."""
    if trajectory == "hover":
        return math.inf
    return N_STAGES * _DEFAULT_PROFILE.t_leg


def stage_transition_times(trajectory: str):
    """Instants at which the trajectory switches stages.

    For the square these are the four leg boundaries (each leg ends at rest
    and the next accelerates along a new axis); for the single leg, the one
    boundary where the leg hands over to the hold.  Attitude stabilization
    times are measured from these instants.
    """
    t_leg = _DEFAULT_PROFILE.t_leg
    if trajectory == "square":
        return [k * t_leg for k in range(1, N_STAGES)]
    if trajectory == "single_leg":
        return [t_leg]
    if trajectory == "hover":
        return []
    raise ValueError(f"unknown trajectory {trajectory!r}")
