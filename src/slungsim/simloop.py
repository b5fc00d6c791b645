"""Fixed-step closed-loop simulation: reference -> controller -> plant -> log.

The control loop runs at dt_control; between ticks the coupled plant is
integrated with classical RK4 at dt_physics sub-steps under zero-order-hold
inputs.  Runs are pure float arithmetic with no random state, so identical
configs produce bit-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import (VehicleParams, QuadState, ControlInputs,
                       TautCableError, GimbalLockError,
                       coupled_derivative_array)
from .trajectory import (ReferencePoint, square_reference,
                         single_leg_reference, hover_reference,
                         reference_window)
from .controllers import PdController, SmcController, PdGains, SmcGains
from .mpc import MpcController, MpcWeights

CONTROLLERS = ("PD", "SMC", "MPC")
TRAJECTORIES = ("square", "single_leg", "hover")

START_POS = (0.0, 0.0, 1.5)


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
        if self.mpc_horizon is not None and self.mpc_horizon < 1:
            raise ValueError(f"mpc.horizon must be >= 1, got "
                             f"{self.mpc_horizon}")

    @property
    def n_sub(self) -> int:
        return round(self.dt_control / self.dt_physics)

    @property
    def n_ticks(self) -> int:
        return round(self.duration / self.dt_control)


@dataclass
class SimLog:
    """Uniformly sampled closed-loop trace.

    Row k holds the state at t[k] and the inputs applied over
    [t[k], t[k+1]); the final row's inputs are what the controller would
    apply next.  err is reference minus actual position.
    """

    t: np.ndarray
    quad: np.ndarray        # (n, 12) position/velocity/attitude/rates
    load: np.ndarray        # (n, 4) r, s, r_dot, s_dot
    u: np.ndarray           # (n, 4) U1..U4
    ref: np.ndarray         # (n, 3) reference position
    err: np.ndarray         # (n, 3) ref - actual
    sat: np.ndarray         # (n,) saturation flag per tick
    failed: bool = False
    failure_reason: str = ""

    @property
    def n_rows(self) -> int:
        return len(self.t)


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

    n = n_ticks + 1
    t_col = np.empty(n)
    quad = np.empty((n, 12))
    load = np.empty((n, 4))
    u_col = np.empty((n, 4))
    ref_col = np.empty((n, 3))
    err_col = np.empty((n, 3))
    sat_col = np.zeros(n, dtype=np.int64)
    failed = False
    reason = ""

    rows = 0
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

        t_col[rows] = t
        quad[rows] = y[:12]
        load[rows] = y[12:16]
        u_col[rows] = u_vec
        ref_col[rows] = ref.pos
        err_col[rows] = ref.pos - y[:3]
        sat_col[rows] = 1 if saturated else 0
        rows += 1
        if k == n_ticks:
            break

        try:
            for _ in range(n_sub):
                y = rk4_step(deriv, y, u_vec, dt_p)
            if not all(map(math.isfinite, y)):
                raise FloatingPointError("non-finite state")
        except (TautCableError, GimbalLockError, ArithmeticError,
                FloatingPointError) as exc:
            failed = True
            reason = f"{type(exc).__name__} at t={t + dt_c:.3f}: {exc}"
            break

    return SimLog(t=t_col[:rows], quad=quad[:rows], load=load[:rows],
                  u=u_col[:rows], ref=ref_col[:rows], err=err_col[:rows],
                  sat=sat_col[:rows], failed=failed, failure_reason=reason)
