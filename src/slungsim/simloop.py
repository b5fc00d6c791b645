"""Fixed-step closed-loop simulation: reference -> controller -> plant -> log.

The control loop runs at dt_control; between ticks the coupled plant is
integrated with classical RK4 at dt_physics sub-steps under zero-order-hold
inputs.  Runs are pure float arithmetic with no random state, so identical
configs produce bit-identical logs.

The log is one preallocated float array with a row per tick, written once
per tick.  Its first 27 columns are the trace file's columns in file order
(TRACE_COLUMNS, with load_zeta from the taut-cable geometry of the logged
state); the last two are the load velocities r_dot and s_dot, which the
file does not carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import (VehicleParams, QuadState, TautCableError,
                       GimbalLockError, cable_offset,
                       coupled_derivative_array)
from .trajectory import (ReferencePoint, square_reference,
                         single_leg_reference, hover_reference,
                         reference_window)
from .controllers import PdController, SmcController, PdGains, SmcGains
from .mpc import MpcController, MpcWeights

CONTROLLERS = ("PD", "SMC", "MPC")
TRAJECTORIES = ("square", "single_leg", "hover")

START_POS = (0.0, 0.0, 1.5)

TRACE_COLUMNS = (
    "t", "x", "y", "z", "vx", "vy", "vz", "phi", "theta", "psi",
    "p", "q", "r_rate", "load_r", "load_s", "load_zeta",
    "U1", "U2", "U3", "U4", "ref_x", "ref_y", "ref_z",
    "err_x", "err_y", "err_z", "sat_flag",
)
# SimLog rows: the trace columns, then load_r_dot and load_s_dot
LOG_WIDTH = len(TRACE_COLUMNS) + 2

# Size caps, checked before anything is rounded or allocated.  Sub-steps:
# 1000 per tick (50x the default) already make a 75 s run take minutes.
MAX_SUBSTEPS = 1000
# Ticks: the log is one 232 MB array at 10**6 rows (the 200 s hover: 20,001).
MAX_TICKS = 10 ** 6
# Horizon: MPC prediction matrices grow as N^2 (N = 200: 0.4 s, 53 MB).
MAX_MPC_HORIZON = 200


@dataclass
class SimConfig:
    """One closed-loop scenario.

    The quadrotor starts at rest at START_POS with the load hanging
    straight down at rest.  Controller gain/weight blocks default to the
    tuned values baked into each controller class.
    """

    controller: str = "PD"
    m_L: float = 0.3
    dt_physics: float = 1e-3
    dt_control: float = 1e-2
    duration: float = 75.0
    trajectory: str = "square"
    params: VehicleParams = field(default_factory=VehicleParams)
    pd_gains: Optional[PdGains] = None
    smc_gains: Optional[SmcGains] = None
    mpc_horizon: Optional[int] = None
    mpc_weights_pos: Optional[MpcWeights] = None
    mpc_weights_att: Optional[MpcWeights] = None

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {CONTROLLERS}, "
                             f"got {self.controller!r}")
        if self.trajectory not in TRAJECTORIES:
            raise ValueError(f"trajectory must be one of {TRAJECTORIES}, "
                             f"got {self.trajectory!r}")
        if self.m_L < 0.0:
            raise ValueError("m_L must be non-negative")
        if self.m_L > self.params.M_max:
            raise ValueError(f"m_L={self.m_L} exceeds maximum payload "
                             f"{self.params.M_max}")
        if self.dt_physics <= 0.0 or self.dt_control <= 0.0:
            raise ValueError("time steps must be positive")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        # compared as floats first: a huge ratio overflows round()
        if not self.dt_control / self.dt_physics <= MAX_SUBSTEPS:
            raise ValueError(f"dt_control / dt_physics must be at most "
                             f"{MAX_SUBSTEPS} sub-steps")
        if not self.duration / self.dt_control <= MAX_TICKS:
            raise ValueError(f"duration / dt_control must be at most "
                             f"{MAX_TICKS} ticks")
        # control period must be a whole number of physics sub-steps
        n = round(self.dt_control / self.dt_physics)
        if n < 1 or abs(n * self.dt_physics - self.dt_control) > 1e-12:
            raise ValueError("dt_control must be an integer multiple of "
                             "dt_physics")
        n = self.n_ticks
        if n < 1 or abs(n * self.dt_control - self.duration) > 1e-9:
            raise ValueError("duration must be a positive integer multiple "
                             "of dt_control")
        # the last tick samples the reference at n * dt_control
        window = reference_window(self.trajectory)
        if n * self.dt_control > window:
            raise ValueError(f"duration {self.duration} exceeds the "
                             f"{self.trajectory} reference window "
                             f"[0, {window}]")
        if self.mpc_horizon is not None and not (
                1 <= self.mpc_horizon <= MAX_MPC_HORIZON):
            raise ValueError(f"mpc.horizon must be in [1, {MAX_MPC_HORIZON}]"
                             f", got {self.mpc_horizon}")

    @property
    def n_sub(self) -> int:
        return round(self.dt_control / self.dt_physics)

    @property
    def n_ticks(self) -> int:
        return round(self.duration / self.dt_control)


@dataclass
class SimLog:
    """Uniformly sampled closed-loop trace.

    rows is (n, LOG_WIDTH): row k holds the state at t[k] and the inputs
    applied over [t[k], t[k+1]); the final row's inputs are what the
    controller would apply next.  The named columns are views of rows, so
    an edit through one edits the log, except load, whose r, s, r_dot,
    s_dot are not adjacent and come back as a copy.  err is reference
    minus actual position; sat is 0.0 or 1.0.
    """

    rows: np.ndarray
    failed: bool = False
    failure_reason: str = ""

    n_rows = property(lambda self: len(self.rows))
    t = property(lambda self: self.rows[:, 0])
    quad = property(lambda self: self.rows[:, 1:13])    # (n, 12) state
    load = property(lambda self: self.rows[:, [13, 14, 27, 28]])
    u = property(lambda self: self.rows[:, 16:20])
    ref = property(lambda self: self.rows[:, 20:23])
    err = property(lambda self: self.rows[:, 23:26])
    sat = property(lambda self: self.rows[:, 26])


def make_controller(config: SimConfig):
    """Instantiate the configured controller with any gain overrides."""
    if config.controller == "PD":
        return PdController(gains=config.pd_gains, params=config.params)
    if config.controller == "SMC":
        return SmcController(gains=config.smc_gains, params=config.params,
                             dt=config.dt_control)
    kwargs = {}
    if config.mpc_horizon is not None:
        kwargs["horizon"] = config.mpc_horizon
    return MpcController(params=config.params, dt=config.dt_control,
                         weights_pos=config.mpc_weights_pos,
                         weights_att=config.mpc_weights_att, **kwargs)


def reference_function(config: SimConfig) -> Callable[[float], ReferencePoint]:
    if config.trajectory == "square":
        return square_reference
    if config.trajectory == "single_leg":
        return single_leg_reference
    return lambda t: hover_reference(t, START_POS)


def rk4_step(f: Callable, y, u, dt: float) -> list:
    """One classical Runge-Kutta step of y' = f(y, u) with u held constant.

    y and f's return values are float sequences of one length; the step
    returns a new list.  Each element is formed in the order numpy uses for
    y + (0.5*dt)*k and y + (dt/6)*(((k1 + 2k2) + 2k3) + k4), so it matches
    the vector form bit for bit.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    h = 0.5 * dt
    k1 = f(y, u)
    k2 = f([a + h * b for a, b in zip(y, k1)], u)
    k3 = f([a + h * b for a, b in zip(y, k2)], u)
    k4 = f([a + dt * b for a, b in zip(y, k3)], u)
    w = dt / 6.0
    return [a + w * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def run(config: SimConfig) -> SimLog:
    """Simulate one scenario tick by tick.

    A taut-cable or attitude singularity or a non-finite state aborts the
    run; the rows logged so far are returned with the failure marker set.
    """
    par = config.params
    ctrl = make_controller(config)
    ref_fn = reference_function(config)
    dt_c = config.dt_control
    dt_p = config.dt_physics
    n_sub = config.n_sub
    n_ticks = config.n_ticks
    m_L = config.m_L

    def deriv(y, u):
        return coupled_derivative_array(y, u, m_L, par)

    y = [*START_POS] + [0.0] * 13
    L = par.L
    zeta = cable_offset(y[12], y[13], L)

    n = n_ticks + 1
    rows = np.empty((n, LOG_WIDTH))
    failed = False
    reason = ""

    for k in range(n):
        t = k * dt_c
        ref = ref_fn(t)
        out = ctrl.step(t, QuadState(*y[:12]), ref)
        u = out.u
        U1, U2, U3, U4 = float(u.U1), float(u.U2), float(u.U3), float(u.U4)
        saturated = out.saturated
        # the loop enforces the physical thrust range regardless of what
        # the controller asked for
        if U1 < 0.0:
            U1 = 0.0
            saturated = True
        elif U1 > par.U1_max:
            U1 = par.U1_max
            saturated = True
        u_vec = [U1, U2, U3, U4]

        rx, ry, rz = ref.pos
        rows[k] = (t, *y[:14], zeta, U1, U2, U3, U4, rx, ry, rz,
                   rx - y[0], ry - y[1], rz - y[2],
                   1.0 if saturated else 0.0, y[14], y[15])
        if k == n_ticks:
            break

        try:
            for _ in range(n_sub):
                y = rk4_step(deriv, y, u_vec, dt_p)
            if not all(map(math.isfinite, y)):
                raise FloatingPointError("non-finite state")
            zeta = cable_offset(y[12], y[13], L)
        except (TautCableError, GimbalLockError, ArithmeticError,
                FloatingPointError) as exc:
            failed = True
            reason = f"{type(exc).__name__} at t={t + dt_c:.3f}: {exc}"
            rows = rows[:k + 1]
            break

    return SimLog(rows=rows, failed=failed, failure_reason=reason)
