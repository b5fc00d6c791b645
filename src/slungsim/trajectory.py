"""Reference trajectories: trapezoidal-speed square legs and a single leg.

Every leg has one constant profile: it accelerates at A_PEAK for T_ACCEL
seconds, cruises at V_CRUISE = A_PEAK * T_ACCEL for T_CRUISE seconds, and
decelerates back to rest over T_ACCEL, covering LEG_LENGTH = 1.0 m in
T_LEG = 15 s.  The square visits (0,0) -> (1,0) -> (1,1) -> (0,1) -> (0,0)
at constant altitude, one leg per stage, then holds the origin for a
fifth stage.  A ReferencePoint is a typing.NamedTuple of three (x, y, z)
float tuples, read-only like the tuples it holds; yaw is never commanded.

TRAJECTORIES declares each named trajectory once: its reference, the
window it can be sampled over, the stage changes (leg boundaries) that
attitude recovery is timed from, and whether its arrival is scored.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple


class ReferencePoint(NamedTuple):
    """Desired position, velocity and acceleration at one instant."""

    pos: tuple
    vel: tuple
    acc: tuple


A_PEAK = 0.032      # m/s^2
V_CRUISE = 0.08     # m/s
T_ACCEL = 2.5       # s
T_CRUISE = 10.0     # s
T_LEG = 2.0 * T_ACCEL + T_CRUISE
LEG_LENGTH = A_PEAK * T_ACCEL ** 2 + V_CRUISE * T_CRUISE


def leg_sample(tau: float):
    """(displacement, speed, accel) along one leg at local time tau."""
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


# Square corners in traversal order; leg k runs corner[k] -> corner[k+1].
_CORNERS = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))

N_STAGES = 5

START_POS = (0.0, 0.0, 1.5)    # where every run starts, at rest
_Z_HOLD = START_POS[2]    # altitude of the square and the single leg, m

_REST = (0.0, 0.0, 0.0)
_HOVER = ReferencePoint(pos=START_POS, vel=_REST, acc=_REST)


def _check_time(t: float, duration: float):
    if t < 0.0 or t > duration:
        raise ValueError(f"reference time {t} outside [0, {duration}]")


def square_reference(t: float) -> ReferencePoint:
    """Four trapezoid legs around the unit square, then hold at the origin.

    Stages (15 s each): 1 is +X, 2 is +Y, 3 is -X, 4 is -Y, 5 holds the
    start point.  Valid for t in [0, 5 * T_LEG].
    """
    _check_time(t, N_STAGES * T_LEG)
    stage = min(int(t // T_LEG), N_STAGES - 1)

    if stage == N_STAGES - 1:
        x0, y0 = _CORNERS[4]
        return ReferencePoint(pos=(x0, y0, _Z_HOLD), vel=_REST, acc=_REST)

    x0, y0 = _CORNERS[stage]
    x1, y1 = _CORNERS[stage + 1]
    dx = (x1 - x0) / LEG_LENGTH
    dy = (y1 - y0) / LEG_LENGTH
    d, v, a = leg_sample(t - stage * T_LEG)
    return ReferencePoint(pos=(x0 + dx * d, y0 + dy * d, _Z_HOLD),
                          vel=(dx * v, dy * v, 0.0),
                          acc=(dx * a, dy * a, 0.0))


def single_leg_reference(t: float) -> ReferencePoint:
    """One +X trapezoid leg, then hold the end point.

    Valid over the same [0, 5 * T_LEG] window as the square so the two
    scenarios share a simulation duration.
    """
    _check_time(t, N_STAGES * T_LEG)

    if t >= T_LEG:
        return ReferencePoint(pos=(LEG_LENGTH, 0.0, _Z_HOLD), vel=_REST,
                              acc=_REST)
    d, v, a = leg_sample(t)
    return ReferencePoint(pos=(d, 0.0, _Z_HOLD), vel=(v, 0.0, 0.0),
                          acc=(a, 0.0, 0.0))


def hover_reference(t: float) -> ReferencePoint:
    """The hover trajectory: hold START_POS at rest."""
    return _HOVER


class Trajectory(NamedTuple):
    """One named trajectory and the facts its run and metrics read."""

    reference: Callable[[float], ReferencePoint]
    window: float           # latest time reference can be sampled at
    transitions: tuple      # stage-change instants, rising
    arrival: bool           # whether its runs score an arrival time


TRAJECTORIES = {
    "square": Trajectory(square_reference, N_STAGES * T_LEG,
                         tuple(k * T_LEG for k in range(1, N_STAGES)), False),
    "single_leg": Trajectory(single_leg_reference, N_STAGES * T_LEG,
                             (T_LEG,), True),
    "hover": Trajectory(hover_reference, math.inf, (), False),
}
