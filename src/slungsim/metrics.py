"""Run evaluation: tracking error, attitude peaks, stabilization times,
arrival, and the thrust-budget critical-mass quantities.

All log-based metrics are pure functions over completed SimLogs.  Angles
are reported in degrees here even though logs store radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import VehicleParams
from .simloop import SimLog
from .trajectory import TRAJECTORIES

BAND_DEG = 0.2
DWELL_S = 1.0
ARRIVAL_THRESHOLD_M = 0.01


@dataclass(frozen=True)
class StabilizationReport:
    """Per stage-transition attitude recovery times.

    For each transition: the time from the first sample after it where the
    angle leaves the +-band until the first sample from which the angle
    stays inside the band for at least the dwell.  An angle that never
    leaves scores zero; one that never re-enters long enough scores the
    remaining log duration and is flagged unstable.  Each stage takes the
    slower of roll and pitch.
    """

    stage_times: tuple
    unstable: tuple
    t_smax: float


@dataclass(frozen=True)
class RunMetrics:
    e_max: float
    err_x_max: float
    err_y_max: float
    phi_max: float          # deg
    theta_max: float        # deg
    t_smax: float
    stage_times: tuple
    unstable: tuple
    arrival_time: float     # nan when the scenario has no arrival notion
    saturation_count: int
    failed: bool


def max_tracking_error(log: SimLog):
    """(err_x_max, err_y_max, e_max) over the horizontal axes, metres."""
    ex = float(np.abs(log.err[:, 0]).max())
    ey = float(np.abs(log.err[:, 1]).max())
    return ex, ey, max(ex, ey)


def max_attitude(log: SimLog):
    """(phi_max, theta_max) in degrees."""
    phi = float(np.degrees(np.abs(log.quad[:, 6]).max()))
    theta = float(np.degrees(np.abs(log.quad[:, 7]).max()))
    return phi, theta


def _recovery_time(t: np.ndarray, ang: np.ndarray, transition: float,
                   need: int):
    """(time, unstable) for one angle after one stage transition."""
    k0 = int(np.searchsorted(t, transition, side="right"))
    n = len(t)
    exit_k = -1
    for k in range(k0, n):
        if abs(ang[k]) > BAND_DEG:
            exit_k = k
            break
    if exit_k < 0:
        return 0.0, False
    run = 0
    for k in range(exit_k + 1, n):
        if abs(ang[k]) <= BAND_DEG:
            run += 1
            if run >= need:
                return float(t[k - need + 1] - t[exit_k]), False
        else:
            run = 0
    return float(t[-1] - t[exit_k]), True


def stabilization_times(log: SimLog,
                        transitions: Sequence[float]) -> StabilizationReport:
    """Attitude recovery per stage transition, band BAND_DEG, dwell DWELL_S."""
    t = log.t
    if len(t) > 1:
        dt = float(t[1] - t[0])
    else:
        dt = DWELL_S
    # samples spanning >= DWELL_S seconds of consecutive in-band time
    need = int(math.floor(DWELL_S / dt + 1e-9)) + 1
    roll = np.degrees(log.quad[:, 6])
    pitch = np.degrees(log.quad[:, 7])
    times = []
    flags = []
    for tr in transitions:
        tr_roll, u_roll = _recovery_time(t, roll, tr, need)
        tr_pitch, u_pitch = _recovery_time(t, pitch, tr, need)
        times.append(max(tr_roll, tr_pitch))
        flags.append(u_roll or u_pitch)
    t_smax = max(times) if times else 0.0
    return StabilizationReport(stage_times=tuple(times),
                               unstable=tuple(flags), t_smax=t_smax)


def arrival_time(log: SimLog) -> float:
    """First time from which the horizontal error stays under
    ARRIVAL_THRESHOLD_M.

    Sustained to the end of the log; nan if the error never settles.
    """
    norm = np.hypot(log.err[:, 0], log.err[:, 1])
    inside = norm < ARRIVAL_THRESHOLD_M
    if not inside[-1]:
        return float("nan")
    # last index where the error was outside; arrival is the next sample
    outside = np.flatnonzero(~inside)
    if len(outside) == 0:
        return float(log.t[0])
    k = outside[-1] + 1
    return float(log.t[k])


def compute_run_metrics(log: SimLog, trajectory: str = "square"
                        ) -> RunMetrics:
    """Bundle every per-run metric for one completed log."""
    ex, ey, e_max = max_tracking_error(log)
    phi_max, theta_max = max_attitude(log)
    traj = TRAJECTORIES[trajectory]
    stab = stabilization_times(log, traj.transitions)
    arr = arrival_time(log) if traj.arrival else float("nan")
    return RunMetrics(e_max=e_max, err_x_max=ex, err_y_max=ey,
                      phi_max=phi_max, theta_max=theta_max,
                      t_smax=stab.t_smax, stage_times=stab.stage_times,
                      unstable=stab.unstable, arrival_time=arr,
                      saturation_count=int(log.sat.sum()),
                      failed=log.failed)


def critical_motion_mass(U1_max: float, a_desired: float,
                         m_q: float = VehicleParams.m_q,
                         g: float = VehicleParams.g) -> float:
    """Largest load mass whose hover-plus-tilt thrust fits under U1_max.

    The thrust vector tilts by atan(a_desired/g) to produce the horizontal
    acceleration, leaving U1*cos(tilt) of vertical force to carry the
    total weight.
    """
    if U1_max <= 0.0:
        raise ValueError("U1_max must be positive")
    if a_desired < 0.0:
        raise ValueError("a_desired must be non-negative")
    tilt = math.atan2(a_desired, g)
    return U1_max * math.cos(tilt) / g - m_q


def max_feasible_accel(U1_max: float, m_q: float, m_L: float,
                       g: float = VehicleParams.g) -> float:
    """Horizontal acceleration the thrust ceiling affords at a given load.

    The vertical thrust component must hold the total weight; what is left
    of the thrust triangle accelerates the mass sideways.
    """
    total = (m_q + m_L) * g
    if total > U1_max:
        raise ValueError(f"load exceeds lift capacity "
                         f"({total:.3f} N needed, {U1_max:.3f} N available)")
    return math.sqrt(U1_max * U1_max - total * total) / (m_q + m_L)

