"""Fixed-step closed-loop simulation: reference -> controller -> plant -> log.

The control loop runs at dt_control; between ticks the coupled plant is
integrated with classical RK4 at dt_physics sub-steps under zero-order-hold
inputs.  Runs are pure float arithmetic with no random state, so identical
configs produce bit-identical logs.

Every tick k, tick 0 included, is one pass of run's loop body, which does
four things in order: advance the physics to k * dt_control (from tick 1
on), sample the reference there, step the controller, and pack log row k.
The reference is the trajectory's entry in trajectory.TRAJECTORIES (for the
square, this module's square_reference, looked up when the run starts).
The controller is built at tick 0; its step gets the 12 vehicle floats
y[:12], so the load stays hidden from it, and returns the float tuple
(U1, U2, U3, U4, phi_d, theta_d, saturated) described in controllers.  Each
controller keeps U1 within [min(U1_FLOOR, U1_max), U1_max] itself, so the
loop passes its first four floats to the physics as returned.
Each tick's physics is one advance_tick call.  Where a compiler built
_dynamics.c, that is one dynamics.fused_tick call, which runs the tick's
n_sub RK4 steps, the non-finite check and the cable offset in C with the
Python loop's bits.  The Python loop (n_sub rk4_step calls, each making
four calls of the Python coupled_derivative_array, the one model) runs a
tick where no compiler works, where fused_tick hands the tick back
because it raises, and on every tick of a run in which rk4_step or
coupled_derivative_array is rebound, as the benchmark's tracer does.  All
three names are looked up in this module at call time, so a rebound one
is seen.

The log is one preallocated float array with a row per tick, written once
per tick by packing the row's floats into a byte view of the array.  Its
first 27 columns are the trace file's columns in file order
(TRACE_COLUMNS, with load_zeta from the taut-cable geometry of the logged
state); the last two are the load velocities r_dot and s_dot, which the
file does not carry.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import (VehicleParams, TautCableError, GimbalLockError,
                       cable_offset, coupled_derivative_array, fused_tick,
                       store_positive_floats)
from .trajectory import START_POS, TRAJECTORIES, square_reference
from .controllers import PdController, SmcController, PdGains, SmcGains
from .mpc import HORIZON, MOVE_ATT, MpcController

CONTROLLERS = ("PD", "SMC", "MPC")

TRACE_COLUMNS = (
    "t", "x", "y", "z", "vx", "vy", "vz", "phi", "theta", "psi",
    "p", "q", "r_rate", "load_r", "load_s", "load_zeta",
    "U1", "U2", "U3", "U4", "ref_x", "ref_y", "ref_z",
    "err_x", "err_y", "err_z", "sat_flag",
)
# SimLog rows: the trace columns, then load_r_dot and load_s_dot
LOG_WIDTH = len(TRACE_COLUMNS) + 2
# writes one log row of native float64s into a byte buffer at an offset
_pack_row = struct.Struct(f"{LOG_WIDTH}d").pack_into

# Size caps, checked before anything is rounded or allocated.  Sub-steps:
# 1000 per tick (50x the default) already make a 75 s run take minutes.
MAX_SUBSTEPS = 1000
# Ticks: the log is one 232 MB array at 10**6 rows (the 200 s hover: 20,001).
MAX_TICKS = 10 ** 6
# Horizon: MPC prediction matrices grow as N^2 (N = 200: 0.4 s, 53 MB).
MAX_MPC_HORIZON = 200


class ConfigError(ValueError):
    """Bad config file, key or value; message names the key or controller."""


@dataclass(frozen=True)
class SimConfig:
    """One closed-loop scenario, frozen like every settings record.

    The quadrotor starts at rest at START_POS with the load hanging
    straight down at rest.  Every field holds the value the run uses,
    the tuned controller settings included, except mpc_move_pos: None
    there is the tilt-equalised default, which MpcController derives
    from params.g so that replacing params cannot leave it stale.  n_sub
    and n_ticks, a tick's sub-steps and the run's ticks, are set when the
    config is built.
    """

    controller: str = "PD"
    m_L: float = 0.3
    dt_physics: float = 1e-3
    dt_control: float = 1e-2
    duration: float = 75.0
    trajectory: str = "square"
    params: VehicleParams = field(default_factory=VehicleParams)
    pd_gains: PdGains = field(default_factory=PdGains)
    smc_gains: SmcGains = field(default_factory=SmcGains)
    mpc_horizon: int = HORIZON
    mpc_move_pos: Optional[tuple] = None
    mpc_move_att: float = MOVE_ATT

    def __post_init__(self):
        given = () if self.mpc_move_pos is None else ("mpc_move_pos",)
        store_positive_floats(self, names=given + (
            "mpc_move_att", "dt_physics", "dt_control", "duration"))
        if given and len(self.mpc_move_pos) != 3:
            raise ValueError("mpc_move_pos must have three entries")
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {CONTROLLERS}, "
                             f"got {self.controller!r}")
        if self.trajectory not in TRAJECTORIES:
            raise ValueError(f"trajectory must be one of "
                             f"{tuple(TRAJECTORIES)}, got {self.trajectory!r}")
        if not 0.0 <= self.m_L <= self.params.M_max:
            raise ValueError(f"m_L must be in [0, {self.params.M_max}], "
                             f"got {self.m_L}")
        object.__setattr__(self, "m_L", float(self.m_L))
        # compared as floats first: a huge ratio overflows round()
        if not self.dt_control / self.dt_physics <= MAX_SUBSTEPS:
            raise ValueError(f"dt_control / dt_physics must be at most "
                             f"{MAX_SUBSTEPS} sub-steps")
        if not self.duration / self.dt_control <= MAX_TICKS:
            raise ValueError(f"duration / dt_control must be at most "
                             f"{MAX_TICKS} ticks")
        object.__setattr__(self, "n_sub",
                           round(self.dt_control / self.dt_physics))
        object.__setattr__(self, "n_ticks",
                           round(self.duration / self.dt_control))
        # a tick is whole sub-steps and a run whole ticks, to 1e-9 of a step
        for n, step, span, message in (
                (self.n_sub, self.dt_physics, self.dt_control,
                 "dt_control must be an integer multiple of dt_physics"),
                (self.n_ticks, self.dt_control, self.duration,
                 "duration must be a positive integer multiple of "
                 "dt_control")):
            if n < 1 or abs(n * step - span) > 1e-9 * step:
                raise ValueError(message)
        # the last tick samples the reference at n_ticks * dt_control
        window = TRAJECTORIES[self.trajectory].window
        if self.n_ticks * self.dt_control > window:
            raise ValueError(f"duration {self.duration} exceeds the "
                             f"{self.trajectory} reference window "
                             f"[0, {window}]")
        # a bool passes operator.index, but is no horizon
        if isinstance(self.mpc_horizon, bool) or not hasattr(
                type(self.mpc_horizon), "__index__"):
            raise ValueError(f"mpc.horizon must be an integer, "
                             f"got {self.mpc_horizon!r}")
        if not 1 <= self.mpc_horizon <= MAX_MPC_HORIZON:
            raise ValueError(f"mpc.horizon must be in [1, {MAX_MPC_HORIZON}]"
                             f", got {self.mpc_horizon}")
        object.__setattr__(self, "mpc_horizon", int(self.mpc_horizon))


@dataclass
class SimLog:
    """Uniformly sampled closed-loop trace.

    rows is (n, LOG_WIDTH): row k holds the state at t[k] and the inputs
    applied over [t[k], t[k+1]); the final row's inputs are what the
    controller would apply next.  The named columns are views of rows, so
    an edit through one edits the log, except load, whose r, s, r_dot,
    s_dot are not adjacent and come back as a copy.  err is reference
    minus actual position; sat is 0.0 or 1.0.  A log has at least one row.
    A log that cli.read_trace reads back has zero load velocities.
    """

    rows: np.ndarray
    failed: bool = False
    failure_reason: str = ""

    def __post_init__(self):
        if len(self.rows) == 0:
            raise ValueError("empty log")

    n_rows = property(lambda self: len(self.rows))
    t = property(lambda self: self.rows[:, 0])
    quad = property(lambda self: self.rows[:, 1:13])    # (n, 12) state
    load = property(lambda self: self.rows[:, [13, 14, 27, 28]])
    u = property(lambda self: self.rows[:, 16:20])
    ref = property(lambda self: self.rows[:, 20:23])
    err = property(lambda self: self.rows[:, 23:26])
    sat = property(lambda self: self.rows[:, 26])
    # one view per trace column, by name
    columns = property(lambda self: {
        n: self.rows[:, i] for i, n in enumerate(TRACE_COLUMNS)})

    def to_log(self) -> SimLog:
        """The log itself, for callers that convert a parsed trace."""
        return self


def make_controller(config: SimConfig):
    """The configured controller, built from the config's settings."""
    if config.controller == "PD":
        return PdController(config.pd_gains, config.params)
    if config.controller == "SMC":
        return SmcController(config.smc_gains, config.params,
                             config.dt_control)
    return MpcController(config.params, config.dt_control, config.mpc_horizon,
                         config.mpc_move_pos, config.mpc_move_att)


def rk4_step(f: Callable, y, u, dt: float) -> tuple:
    """One classical Runge-Kutta step of y' = f(y, u), u held constant.

    f takes the state and u only; a model with more parameters is passed
    as a closure that binds them.  y and f's return values are float
    sequences of one length; the step returns a new tuple.  Each element is
    formed in the order numpy uses for y + (0.5*dt)*k and
    y + (dt/6)*(((k1 + 2k2) + 2k3) + k4), so it matches the vector form bit
    for bit.  This is also the order _dynamics.c's fused_tick copies.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    h = 0.5 * dt
    w = dt / 6.0
    k1 = f(y, u)
    k2 = f([a + h * b for a, b in zip(y, k1)], u)
    k3 = f([a + h * b for a, b in zip(y, k2)], u)
    k4 = f([a + dt * b for a, b in zip(y, k3)], u)
    return tuple([a + w * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])


def advance_tick(y, u, m_L: float, params: VehicleParams, dt: float,
                 n_sub: int):
    """Integrate one control tick: n_sub RK4 steps of the coupled model
    with load mass m_L, u held.

    Returns the new state and its cable offset zeta.  A non-finite state
    raises FloatingPointError, a slack or flat cable TautCableError, and
    the derivative's own guards propagate as it raises them.

    While rk4_step and coupled_derivative_array are this module's own
    objects and a compiler built _dynamics.c, the tick is one fused_tick
    call.  It hands the tick back (returns None) where a guard fails in a
    stage, the final state is non-finite or slack, or an input is not
    read; a division by zero is handed back because it ends non-finite.
    The Python loop below then runs the tick again from the same y and
    raises its own exception.  A traced or counted run rebinds those two
    names, so every one of its ticks takes the Python loop, which looks
    each name up here at call time.
    """
    if (fused_tick is not None and rk4_step is _RK4_STEP
            and coupled_derivative_array is _DERIVATIVE):
        out = fused_tick(y, u, m_L, params.derived, dt, n_sub)
        if out is not None:
            return out

    def f(v, w):
        return coupled_derivative_array(v, w, m_L, params)

    for _ in range(n_sub):
        y = rk4_step(f, y, u, dt)
    if not all(map(math.isfinite, y)):
        raise FloatingPointError("non-finite state")
    return y, cable_offset(y[12], y[13], params.L)


# the objects a run's ticks must still be bound to for the compiled path
_RK4_STEP = rk4_step
_DERIVATIVE = coupled_derivative_array


@np.errstate(over="raise", divide="raise", invalid="raise")
def run(config: SimConfig) -> SimLog:
    """Simulate one scenario tick by tick, one loop pass per logged row.

    Pass k advances the physics to k * dt_control (from tick 1 on),
    samples the reference there, steps the controller and packs row k.
    At tick 0 the controller is built first; a ValueError or an arithmetic
    error in its build or first step raises ConfigError, so a run never
    returns an empty log.  From tick 1 on, a taut-cable or attitude
    singularity, a non-finite state or such an error in the controller
    aborts the run at tick k: rows[:k] are returned with the failure
    marker set.  numpy arithmetic raises FloatingPointError here instead
    of warning, so a vehicle that the MPC gain products overflow on fails
    like one the scalar controllers divide by zero on.
    """
    par = config.params
    # The square's reference is this module's name, looked up here, because
    # the benchmark's tracer (perfbench/tracing.py) times the square's
    # reference samples by rebinding simloop.square_reference.
    ref_fn = (square_reference if config.trajectory == "square"
              else TRAJECTORIES[config.trajectory].reference)
    dt_c = config.dt_control
    dt_p = config.dt_physics
    n_sub = config.n_sub
    m_L = config.m_L
    y = [*START_POS] + [0.0] * 13
    zeta = cable_offset(y[12], y[13], par.L)
    rows = np.empty((config.n_ticks + 1, LOG_WIDTH))
    row_bytes = memoryview(rows).cast("B")
    stride = rows.strides[0]
    reason = ""

    for k in range(len(rows)):
        t = k * dt_c
        if k:
            try:
                y, zeta = advance_tick(y, u, m_L, par, dt_p, n_sub)
            except (TautCableError, GimbalLockError, ArithmeticError) as exc:
                reason = f"{type(exc).__name__} at t={t:.3f}: {exc}"
                break
        ref = ref_fn(t)
        try:
            if not k:
                ctrl = make_controller(config)
            # the controller sees the vehicle floats only, never the load
            out = ctrl.step(y[:12], ref)
        except (ValueError, ArithmeticError) as exc:
            if not k:
                raise ConfigError(
                    f"{config.controller} controller cannot be built from "
                    f"this config: {type(exc).__name__}: {exc}")
            reason = (f"{type(exc).__name__} in the {config.controller} "
                      f"controller at t={t:.3f}: {exc}")
            break
        u = out[:4]
        rx, ry, rz = ref.pos
        _pack_row(row_bytes, k * stride, t, *y[:14], zeta, *u,
                  rx, ry, rz, rx - y[0], ry - y[1], rz - y[2],
                  1.0 if out[6] else 0.0, y[14], y[15])

    # an abort at tick k keeps the rows logged before it
    return SimLog(rows=rows[:k] if reason else rows, failed=bool(reason),
                  failure_reason=reason)
