"""Reference trajectories: waypoints joined by trapezoidal-speed legs.

Every leg has one constant profile: it accelerates at A_PEAK for T_ACCEL
seconds, cruises at V_CRUISE = A_PEAK * T_ACCEL for T_CRUISE seconds, and
decelerates back to rest over T_ACCEL, covering LEG_LENGTH = 1.0 m in
T_LEG = 15 s.  Each trajectory is a waypoint list flown by one path,
_waypoints: one leg per stage at constant altitude, then a hold at the
last waypoint at rest, so its stage changes are the leg ends.  A
ReferencePoint is a typing.NamedTuple of three (x, y, z) float tuples,
read-only like the tuples it holds; yaw is never commanded.

TRAJECTORIES declares each named trajectory once: its reference, the
window it can be sampled over, the stage changes that attitude recovery
is timed from, and whether its arrival is scored.
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
# displacement at the end of the acceleration ramp and of the cruise
_D_RAMP = 0.5 * A_PEAK * T_ACCEL * T_ACCEL
_D_CRUISE = _D_RAMP + V_CRUISE * T_CRUISE


def leg_sample(tau: float):
    """(displacement, speed, accel) along one leg at local time tau."""
    a, v, ta, tc = A_PEAK, V_CRUISE, T_ACCEL, T_CRUISE
    if tau < 0.0 or tau > T_LEG:
        raise ValueError(f"leg time {tau} outside [0, {T_LEG}]")
    if tau < ta:
        return 0.5 * a * tau * tau, a * tau, a
    if tau < ta + tc:
        t1 = tau - ta
        return _D_RAMP + v * t1, v, 0.0
    t2 = tau - ta - tc
    return _D_CRUISE + v * t2 - 0.5 * a * t2 * t2, v - a * t2, -a


START_POS = (0.0, 0.0, 1.5)    # where every run starts, at rest
_Z_HOLD = START_POS[2]    # altitude of every waypoint, m

_REST = (0.0, 0.0, 0.0)


class Trajectory(NamedTuple):
    """One named trajectory and the facts its run and metrics read."""

    reference: Callable[[float], ReferencePoint]
    window: float           # latest time reference can be sampled at
    transitions: tuple      # stage-change instants, rising
    arrival: bool           # whether its runs score an arrival time


def _waypoints(corners, window: float, arrival: bool = False) -> Trajectory:
    """The trajectory through corners, (x, y) waypoints at altitude _Z_HOLD.

    Stage k (T_LEG long) is the leg from corner k to corner k+1, and the
    last corner is held at rest after the last leg.  reference(t) raises
    ValueError for t outside [0, window].
    """
    legs = tuple((x0, y0, (x1 - x0) / LEG_LENGTH, (y1 - y0) / LEG_LENGTH)
                 for (x0, y0), (x1, y1) in zip(corners, corners[1:]))
    end = len(legs) * T_LEG
    hold = ReferencePoint(pos=(*corners[-1], _Z_HOLD), vel=_REST, acc=_REST)

    def reference(t: float) -> ReferencePoint:
        if t < 0.0 or t > window:
            raise ValueError(f"reference time {t} outside [0, {window}]")
        if t >= end:
            return hold
        k = int(t // T_LEG)
        x0, y0, dx, dy = legs[k]
        d, v, a = leg_sample(t - k * T_LEG)
        # positional, because a NamedTuple built by keyword is slower
        return ReferencePoint((x0 + dx * d, y0 + dy * d, _Z_HOLD),
                              (dx * v, dy * v, 0.0), (dx * a, dy * a, 0.0))

    transitions = tuple(k * T_LEG for k in range(1, len(legs) + 1))
    return Trajectory(reference, window, transitions, arrival)


# The square's four legs and its fifth, holding stage fill a 5 * T_LEG
# window; the single +X leg shares it, so the two share a duration.
TRAJECTORIES = {
    "square": _waypoints(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
                          (0.0, 0.0)), 5 * T_LEG),
    "single_leg": _waypoints(((0.0, 0.0), (1.0, 0.0)), 5 * T_LEG,
                             arrival=True),
    "hover": _waypoints((START_POS[:2],), math.inf),
}

square_reference = TRAJECTORIES["square"].reference
