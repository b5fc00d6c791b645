"""Run evaluation: tracking error, attitude peaks, stabilization times,
arrival, and the thrust-budget critical-mass quantities.

All log-based metrics are pure functions over completed SimLogs.  Angles
are reported in degrees here even though logs store radians.  Annotations
are not postponed: cli parses each RunMetrics column by its field's type.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import VehicleParams
from .simloop import SimLog
from .trajectory import TRAJECTORIES

BAND_DEG = 0.2
DWELL_S = 1.0
ARRIVAL_THRESHOLD_M = 0.01
SWEPT = {"sweep.csv": True}          # a field that sweep.csv reports too
UNREPORTED = {"metrics.csv": False}  # the field that no file reports


@dataclass(frozen=True)
class RunMetrics:
    e_max: float = field(metadata=SWEPT)
    err_x_max: float
    err_y_max: float
    phi_max: float = field(metadata=SWEPT)          # deg
    theta_max: float = field(metadata=SWEPT)        # deg
    t_smax: float = field(metadata=SWEPT)
    stage_times: tuple
    unstable: tuple = field(metadata=UNREPORTED)
    arrival_time: float     # nan when the scenario has no arrival notion
    saturation_count: int
    failed: bool = field(metadata=SWEPT)


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


def _recovery_time(t: np.ndarray, out: np.ndarray, k0: int, dwell: float):
    """(time, unstable) for one angle after the stage transition before
    sample k0, from the indices of its out-of-band samples; an in-band run
    recovers once it is longer than dwell samples."""
    out = out[np.searchsorted(out, k0):]
    if len(out) == 0:
        return 0.0, False
    # the in-band run after each out-of-band sample, in samples
    long_enough = np.flatnonzero(np.diff(out, append=len(t)) - 1 > dwell)
    if len(long_enough) == 0:
        return float(t[-1] - t[out[0]]), True
    return float(t[out[long_enough[0]] + 1] - t[out[0]]), False


def stabilization_times(log: SimLog, transitions: Sequence[float]):
    """(stage_times, unstable): attitude recovery per stage transition.

    For each transition: the time from the first sample after it where the
    angle leaves the +-BAND_DEG band until the first sample from which the
    angle stays inside the band for at least DWELL_S.  An angle that never
    leaves scores zero; one that never re-enters long enough scores the
    remaining log duration and is flagged unstable.  Each stage takes the
    slower of roll and pitch.
    """
    t = log.t
    dt = float(t[1] - t[0]) if len(t) > 1 else DWELL_S
    # an in-band run of more samples than this spans >= DWELL_S seconds;
    # for a subnormal dt the ratio is inf, and no run is long enough
    dwell = DWELL_S / dt + 1e-9
    roll, pitch = (np.flatnonzero(np.abs(np.degrees(log.quad[:, i]))
                                  > BAND_DEG) for i in (6, 7))
    times = []
    flags = []
    for tr in transitions:
        k0 = int(np.searchsorted(t, tr, side="right"))
        tr_roll, u_roll = _recovery_time(t, roll, k0, dwell)
        tr_pitch, u_pitch = _recovery_time(t, pitch, k0, dwell)
        times.append(max(tr_roll, tr_pitch))
        flags.append(u_roll or u_pitch)
    return tuple(times), tuple(flags)


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
    stage_times, unstable = stabilization_times(log, traj.transitions)
    arr = arrival_time(log) if traj.arrival else float("nan")
    return RunMetrics(e_max=e_max, err_x_max=ex, err_y_max=ey,
                      phi_max=phi_max, theta_max=theta_max,
                      t_smax=max(stage_times, default=0.0),
                      stage_times=stage_times, unstable=unstable,
                      arrival_time=arr,
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
    # the difference of squares, factored so U1_max^2 cannot overflow
    return (math.sqrt(U1_max - total) * math.sqrt(U1_max + total)
            / (m_q + m_L))

