"""Closed-loop harness: integrator oracles, determinism, abort handling."""

import math
import re
from dataclasses import FrozenInstanceError, fields, is_dataclass

import numpy as np
import pytest

from slungsim import simloop
from slungsim.dynamics import (TautCableError, VehicleParams,
                               coupled_derivative_array)
from slungsim.simloop import (LOG_WIDTH, MAX_MPC_HORIZON, MAX_SUBSTEPS,
                              MAX_TICKS, ConfigError, SimConfig, SimLog,
                              advance_tick, make_controller, rk4_step, run)
from slungsim.controllers import (PdController, PdGains, SmcController,
                                  SmcGains)
from slungsim.mpc import MOVE_ATT, MpcController, MpcWeights
from slungsim.trajectory import square_reference

from test_dynamics import vehicle_state

CONTROLLER_CLASSES = {"PD": PdController, "SMC": SmcController,
                      "MPC": MpcController}


def _recording(monkeypatch, owner, name, record):
    """Rebind owner.name to a wrapper that appends each result to record."""
    fn = getattr(owner, name)

    def wrapper(*args):
        out = fn(*args)
        record.append(out)
        return out
    monkeypatch.setattr(owner, name, wrapper)


def _counting_physics(monkeypatch) -> dict:
    """Rebind simloop's three physics names to wrappers that count their
    calls in the returned dict."""
    calls = {"advance_tick": 0, "rk4_step": 0, "coupled_derivative_array": 0}

    def counting(name):
        fn = getattr(simloop, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(simloop, name, counting(name))
    return calls


def _numbers(record):
    """(field name, value) of each number a settings record holds: each
    numeric field, each tuple entry, and those of the records it holds."""
    for f in fields(record):
        v = getattr(record, f.name)
        if is_dataclass(v):
            yield from _numbers(v)
        elif isinstance(v, tuple):
            yield from ((f.name, x) for x in v)
        elif v is not None and not isinstance(v, str):
            yield f.name, v


# every setting given as a numpy scalar or array, or an int where one fits
NUMPY_SETTINGS = {
    "m_L": np.float64(0.3), "dt_physics": np.float64(1e-3),
    "pd_gains": PdGains(Kpx=10, Kpz=np.float64(20.0)),
    "smc_gains": SmcGains(k=np.array(SmcGains().k),
                          lam=np.array(SmcGains().lam),
                          boundary_layer=np.float64(0.08)),
    "mpc_horizon": np.int64(25), "mpc_move_att": np.float64(MOVE_ATT)}


class TestConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.n_sub == 10
        assert cfg.n_ticks == 7500

    def test_unknown_controller(self):
        with pytest.raises(ValueError):
            SimConfig(controller="LQR")

    def test_unknown_trajectory(self):
        with pytest.raises(ValueError):
            SimConfig(trajectory="helix")

    def test_overweight_load(self):
        with pytest.raises(ValueError):
            SimConfig(m_L=0.7)

    def test_negative_mass(self):
        SimConfig(m_L=0.0)
        for m_L in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                SimConfig(m_L=m_L)

    def test_non_multiple_steps(self):
        with pytest.raises(ValueError):
            SimConfig(dt_physics=3e-3, dt_control=1e-2)
        # tiny steps: 3 sub-steps cover 0.9 of a tick; 2 ticks, 1.5 asked
        with pytest.raises(ValueError, match="multiple of dt_physics"):
            SimConfig(dt_physics=3e-13, dt_control=1e-12, duration=1e-10)
        with pytest.raises(ValueError, match="multiple of dt_control"):
            SimConfig(dt_physics=1e-11, dt_control=1e-10, duration=1.5e-10)

    @pytest.mark.parametrize("field", ["dt_physics", "dt_control",
                                       "duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_time_named(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be positive and finite$"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("duration", [0.005, 1.005])
    def test_partial_tick_rejected(self, duration):
        with pytest.raises(ValueError, match="dt_control"):
            SimConfig(duration=duration)

    def test_duration_past_reference_window_rejected(self):
        SimConfig(duration=75.0, trajectory="single_leg")
        for trajectory in ("square", "single_leg"):
            with pytest.raises(ValueError, match="reference window"):
                SimConfig(duration=75.01, trajectory=trajectory)

    def test_hover_has_no_window(self):
        assert SimConfig(duration=200.0, trajectory="hover").n_ticks == 20000

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(controller="MPC", mpc_horizon=0)

    @pytest.mark.parametrize("horizon", [2.5, True])
    def test_non_integer_horizon_rejected(self, horizon):
        with pytest.raises(ValueError,
                           match=r"^mpc\.horizon must be an integer, got "):
            SimConfig(controller="MPC", mpc_horizon=horizon, duration=0.1)

    def test_index_horizon_accepted(self):
        """Any operator.index value but a bool is a horizon."""
        cfg = SimConfig(controller="MPC", mpc_horizon=np.int64(10),
                        duration=0.1)
        want = run(SimConfig(controller="MPC", mpc_horizon=10, duration=0.1))
        assert run(cfg).rows.tobytes() == want.rows.tobytes()
        # as an int, so that json can write the config
        assert type(cfg.mpc_horizon) is int

    @pytest.mark.parametrize("given, floats", [
        ({"m_L": np.float64(0.3)}, {"m_L": 0.3}),
        ({"m_L": 0}, {"m_L": 0.0}),
        ({"params": VehicleParams(m_q=1, U1_max=np.float64(15.0))},
         {"params": VehicleParams(m_q=1.0, U1_max=15.0)}),
        ({"dt_physics": np.float64(1e-3), "duration": 1},
         {"dt_physics": 1e-3, "duration": 1.0}),
        ({"controller": "PD", "pd_gains": NUMPY_SETTINGS["pd_gains"]},
         {"controller": "PD", "pd_gains": PdGains()}),
        ({"smc_gains": NUMPY_SETTINGS["smc_gains"]}, {}),
        ({"controller": "MPC", "mpc_horizon": np.int64(10),
          "mpc_move_pos": np.array([0.4, 0.4, 1]), "mpc_move_att": 1},
         {"controller": "MPC", "mpc_horizon": 10,
          "mpc_move_pos": (0.4, 0.4, 1.0), "mpc_move_att": 1.0}),
    ], ids=["numpy m_L", "int m_L", "vehicle", "times", "pd gains",
            "smc gains", "mpc settings"])
    def test_checked_values_stored_as_floats(self, given, floats):
        # the compiled derivative reads exact floats only: an int or a
        # numpy scalar kept as given would send every call to the slower
        # Python reference
        cfg = SimConfig(**{"controller": "SMC", "duration": 0.5, **given})
        numbers = list(_numbers(cfg))
        # SimConfig 6 or 9, VehicleParams 9, PdGains 12, SmcGains 13
        assert len(numbers) >= 40
        for name, v in numbers:
            assert type(v) is (int if name == "mpc_horizon" else float)
        assert all(type(v) is float for v in cfg.params.derived)
        want = SimConfig(**{"controller": "SMC", "duration": 0.5, **floats})
        assert cfg == want and hash(cfg) == hash(want)
        assert run(cfg).rows.tobytes() == run(want).rows.tobytes()

    @pytest.mark.parametrize("record, name, want", [
        (MpcWeights(s=np.array([0.4, 0.4, 1])), "s", (0.4, 0.4, 1.0)),
        (MpcWeights(s=np.float64(0.05)), "s", 0.05),
        (SmcGains(k=[1, 1, 1, 1, 1, np.float64(2)]), "k",
         (1.0, 1.0, 1.0, 1.0, 1.0, 2.0)),
    ], ids=["mpc ndarray", "mpc scalar", "smc list"])
    def test_records_store_float_tuples(self, record, name, want):
        # one rule for a setting and for each entry of a list of them
        v = getattr(record, name)
        assert v == want and type(v) is type(want)
        assert all(type(x) is float for x in (v if type(v) is tuple else [v]))
        assert hash(record) == hash(type(record)(**{name: want}))

    @pytest.mark.parametrize("build, name", [
        (lambda: MpcWeights(s=()), "MpcWeights.s"),
        (lambda: MpcWeights(s=[]), "MpcWeights.s"),
        (lambda: SimConfig(controller="MPC", mpc_move_pos=np.array([])),
         "mpc_move_pos"),
    ], ids=["mpc tuple", "mpc list", "move_pos ndarray"])
    def test_empty_list_rejected(self, build, name):
        # every entry of an empty list passes the rule, but there is none
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must "
                                             f"have at least one entry$"):
            build()

    @pytest.mark.parametrize("move_pos", [(0.4, 0.4), (0.4, 0.4, 1.0, 1.0)],
                             ids=["two", "four"])
    def test_move_pos_needs_three_entries(self, move_pos):
        with pytest.raises(ValueError,
                           match="^mpc_move_pos must have three entries$"):
            SimConfig(controller="MPC", mpc_move_pos=move_pos)

    def test_frozen(self):
        # a changed field would skip the checks its value needs
        cfg = SimConfig()
        for name, value in (("duration", 1e9), ("dt_physics", 0.0)):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, name, value)
        assert cfg == SimConfig() and cfg.n_ticks == 7500

    def test_text_values_still_rejected(self):
        with pytest.raises(TypeError):
            SimConfig(m_L="0.3")
        with pytest.raises(TypeError):
            SimConfig(duration="1")
        with pytest.raises(TypeError):
            VehicleParams(m_q="1")

    def test_size_caps_are_inclusive(self):
        assert SimConfig(dt_physics=1e-5).n_sub == MAX_SUBSTEPS
        assert SimConfig(trajectory="hover", duration=1e4).n_ticks == \
            MAX_TICKS
        SimConfig(controller="MPC", mpc_horizon=MAX_MPC_HORIZON)
        with pytest.raises(ValueError, match="sub-steps"):
            SimConfig(dt_physics=1e-2 / (MAX_SUBSTEPS + 1))
        with pytest.raises(ValueError, match="ticks"):
            SimConfig(trajectory="hover", duration=1e4 + 1e-2)
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(controller="MPC", mpc_horizon=MAX_MPC_HORIZON + 1)

    def test_factory_dispatch(self):
        assert isinstance(make_controller(SimConfig(controller="PD")),
                          PdController)
        assert isinstance(make_controller(SimConfig(controller="SMC")),
                          SmcController)
        assert isinstance(make_controller(SimConfig(controller="MPC")),
                          MpcController)


class TestRk4Step:
    def test_constant_derivative_exact(self):
        f = lambda y, u: np.array([3.0, -2.0])
        y1 = rk4_step(f, np.array([1.0, 1.0]), None, 0.25)
        assert np.array_equal(y1, [1.75, 0.5])

    def test_harmonic_oscillator_amplitude(self):
        # y = (q, v), q'' = -q; amplitude after one period should hold
        f = lambda y, u: np.array([y[1], -y[0]])
        y = np.array([1.0, 0.0])
        dt = 0.01
        n = int(round(2.0 * math.pi / dt))
        for _ in range(n):
            y = rk4_step(f, y, None, dt)
        # land exactly on 2*pi by taking the fractional remainder step
        rem = 2.0 * math.pi - n * dt
        y = rk4_step(f, y, None, rem)
        amplitude = math.hypot(y[0], y[1])
        assert abs(amplitude - 1.0) < 1e-8
        assert abs(y[0] - 1.0) < 1e-8

    def test_free_fall_quartic_exact(self):
        # gravity only, massless load at rest: z(t) = z0 - g t^2 / 2,
        # polynomial in t of degree 2, integrated exactly by a 4th-order rule
        p = VehicleParams()
        f = lambda y, u: coupled_derivative_array(y, u, 0.0, p)
        y = [0.0] * 16
        y[2] = 10.0
        u = [0.0] * 4
        for _ in range(100):
            y = rk4_step(f, y, u, 0.01)
        assert abs(y[2] - (10.0 - 0.5 * p.g)) < 1e-10

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            rk4_step(lambda y, u: y, np.zeros(2), None, 0.0)


def _vector_derivative(y, u, m_L, p):
    """Coupled derivative in its earlier ndarray form: the bitwise reference."""
    (x, yy, z, vx, vy, vz, phi, theta, psi, pr, qr, rr,
     r, s, vr, vs) = y.tolist()
    U1, U2, U3, U4 = u.tolist()
    L = p.L
    M = p.m_q + m_L
    mu = m_L / M
    zeta = math.sqrt(L * L - r * r - s * s)
    z2 = zeta * zeta
    cphi = math.cos(phi)
    U1_M = U1 / M
    rvr_svs = r * vr + s * vs
    LL = L * L
    Lr = LL - r * r
    Ls = LL - s * s
    B = Ls * vr * vr + Lr * vs * vs + 2.0 * r * s * vr * vs
    b1 = cphi * math.sin(theta) * U1_M
    b2 = -math.sin(phi) * U1_M
    b3 = (cphi * math.cos(theta) * U1_M - mu * (vr * vr + vs * vs) / zeta
          - mu * rvr_svs * rvr_svs / (z2 * zeta)
          - p.g * (m_L * zeta / L + p.m_q) / M)
    common = B / z2 + p.g * zeta + zeta * b3
    c1 = r * common + z2 * b1
    c2 = s * common + z2 * b2
    rs = r * s
    kdet = (p.m_q / M) * LL * z2
    r_dd = (rs * c2 - Lr * c1) / kdet
    s_dd = (rs * c1 - Ls * c2) / kdet
    phi_dd = (p.I_y - p.I_z) / p.I_x * qr * rr + p.l / p.I_x * U2
    theta_dd = (p.I_z - p.I_x) / p.I_y * pr * rr + p.l / p.I_y * U3
    psi_dd = (p.I_x - p.I_y) / p.I_z * qr * pr + U4 / p.I_z
    return np.array([vx, vy, vz, b1 - mu * r_dd, b2 - mu * s_dd,
                     b3 - mu * (r * r_dd + s * s_dd) / zeta, pr, qr, rr,
                     phi_dd, theta_dd, psi_dd, vr, vs, r_dd, s_dd])


def _vector_rk4(f, y, u, dt):
    k1 = f(y, u)
    k2 = f(y + 0.5 * dt * k1, u)
    k3 = f(y + 0.5 * dt * k2, u)
    k4 = f(y + dt * k3, u)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestScalarPhysics:
    """The list-based integrator and derivative against the vector forms."""

    # every constant differs from the defaults, and I_x != I_y makes the
    # yaw coupling (I_x - I_y)/I_z non-zero
    OTHER_VEHICLE = VehicleParams(m_q=1.3, I_x=6.1e-3, I_y=8.9e-3,
                                  I_z=1.7e-2, l=0.21, L=0.62, g=9.79)

    @staticmethod
    def _random_taut_states(n, seed, L=VehicleParams().L):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            rho = 0.9 * L * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            y = np.concatenate([
                rng.normal(size=3) + [0.0, 0.0, 1.5], rng.normal(size=3),
                rng.uniform(-0.4, 0.4, size=3), rng.normal(size=3),
                [rho * math.cos(ang), rho * math.sin(ang)],
                rng.uniform(-1.0, 1.0, size=2)])
            u = np.array([rng.uniform(0.0, 14.72), *rng.normal(0, 0.1, 3)])
            yield y, u, rng.uniform(0.0, 0.6)

    def test_ten_substeps_bitwise_equal_to_vector_rk4(self):
        for p in (VehicleParams(), self.OTHER_VEHICLE):
            for y, u, m_L in self._random_taut_states(250, seed=20261018,
                                                      L=p.L):
                ys, ul = y.tolist(), u.tolist()
                yv = y
                for _ in range(10):
                    ys = rk4_step(
                        lambda v, w: coupled_derivative_array(v, w, m_L, p),
                        ys, ul, 1e-3)
                    yv = _vector_rk4(
                        lambda v, w: _vector_derivative(v, w, m_L, p),
                        yv, u, 1e-3)
                assert list(ys) == yv.tolist()

    def test_array_and_list_inputs_agree(self):
        for p in (VehicleParams(), self.OTHER_VEHICLE):
            for y, u, m_L in self._random_taut_states(50, seed=7, L=p.L):
                from_list = coupled_derivative_array(y.tolist(), u.tolist(),
                                                     m_L, p)
                from_array = coupled_derivative_array(y, u, m_L, p)
                assert from_list == [float(v) for v in from_array]
                assert from_list == _vector_derivative(y, u, m_L, p).tolist()


    @pytest.mark.parametrize("rate, error, message", [
        (math.inf, FloatingPointError, "non-finite state"),
        (1.0, TautCableError, "load offset (r=1.0000, s=0.0000) leaves the "
                              "taut-cable regime (cable length 0.5)")],
        ids=["non-finite", "slack"])
    def test_advance_tick_checks_the_final_state(self, monkeypatch, rate,
                                                 error, message):
        # one 1 s sub-step moves only the load offset r, by rate
        monkeypatch.setattr(simloop, "coupled_derivative_array",
                            lambda y, u, m_L, p: [0.0] * 12 + [rate, 0.0,
                                                               0.0, 0.0])
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            advance_tick([0.0] * 16, None, 0.3, VehicleParams(), 1.0, 1)


class TestRun:
    @pytest.mark.parametrize("controller", ["PD", "SMC", "MPC"])
    def test_physics_goes_through_the_traced_names(self, monkeypatch,
                                                   controller):
        # the benchmark's tracer times physics by rebinding these module
        # names; a run must look each up on every call
        calls = _counting_physics(monkeypatch)
        cfg = SimConfig(controller=controller, duration=0.2)
        assert not run(cfg).failed
        n = cfg.n_ticks * cfg.n_sub
        assert calls == {"advance_tick": cfg.n_ticks, "rk4_step": n,
                         "coupled_derivative_array": 4 * n}

    def test_aborted_run_advances_once_per_logged_row(self, monkeypatch):
        # the tick that aborts is advanced too, so calls match the rows
        from slungsim.controllers import PdGains
        calls = _counting_physics(monkeypatch)
        bad = PdGains(Kpp=5e4, Kpt=5e4, Kdp=1e-3, Kdt=1e-3)
        log = run(SimConfig(controller="PD", m_L=0.5, duration=10.0,
                            pd_gains=bad))
        assert log.failure_reason.startswith("GimbalLockError at t=0.140")
        assert calls["advance_tick"] == log.n_rows == 14

    @pytest.mark.parametrize("name", ["PD", "SMC", "MPC"])
    def test_loop_goes_through_the_traced_names(self, monkeypatch, name):
        # the benchmark's tracer times the reference sample and the
        # controller step by rebinding simloop.square_reference and the
        # class's step; a run must call each once per logged row
        refs, steps = [], []
        _recording(monkeypatch, simloop, "square_reference", refs)
        _recording(monkeypatch, CONTROLLER_CLASSES[name], "step", steps)
        cfg = SimConfig(controller=name, duration=0.2)
        assert not run(cfg).failed
        assert len(refs) == len(steps) == cfg.n_ticks + 1

    @pytest.mark.parametrize("name", ["PD", "SMC", "MPC"])
    def test_step_returns_plain_floats(self, monkeypatch, name):
        # even from settings given as numpy scalars and arrays
        steps = []
        _recording(monkeypatch, CONTROLLER_CLASSES[name], "step", steps)
        assert not run(SimConfig(controller=name, duration=0.2,
                                 **NUMPY_SETTINGS)).failed
        for out in steps:
            assert len(out) == 7
            assert all(type(v) is float for v in out[:6])
            assert type(out[6]) is bool

    def test_row_count_and_times(self):
        log = run(SimConfig(controller="PD", duration=2.0))
        assert log.n_rows == 201
        assert np.all(np.diff(log.t) > 0)
        assert log.t[0] == 0.0
        assert abs(log.t[-1] - 2.0) < 1e-12
        assert not log.failed

    def test_determinism_bitwise(self):
        cfg = SimConfig(controller="SMC", m_L=0.25, duration=5.0)
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.quad, b.quad)
        assert np.array_equal(a.load, b.load)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.sat, b.sat)

    @pytest.mark.parametrize("name", ["PD", "SMC", "MPC"])
    def test_hover_equilibrium_hold(self, name):
        cfg = SimConfig(controller=name, m_L=0.0, duration=10.0,
                        trajectory="hover")
        log = run(cfg)
        drift = np.abs(log.quad[:, 0:3] - [0.0, 0.0, 1.5]).max()
        assert drift < 1e-6

    @pytest.mark.parametrize("name", ["PD", "SMC", "MPC"])
    def test_nominal_model_firewall(self, name):
        # controllers only see the 12 vehicle floats; the load mass must
        # not leak into any command, on the first tick or later ones
        states = [vehicle_state(x=-0.2 + 0.01 * k, y=0.1, z=1.4 + 0.005 * k,
                                vx=0.05, vz=-0.02, phi=0.02, theta=-0.01 * k,
                                q_rate=0.1)
                  for k in range(8)]
        outs = []
        for m in (0.0, 0.3):
            ctrl = make_controller(SimConfig(controller=name, m_L=m))
            outs.append([ctrl.step(s, square_reference(0.01 * k))
                         for k, s in enumerate(states)])
        assert outs[0] == outs[1]

    def test_abort_returns_partial_log(self):
        # a wildly overgained attitude loop escapes the attitude envelope
        # within a few ticks and the run must stop cleanly
        from slungsim.controllers import PdGains
        bad = PdGains(Kpp=5e4, Kpt=5e4, Kdp=1e-3, Kdt=1e-3)
        cfg = SimConfig(controller="PD", m_L=0.5, duration=75.0,
                        pd_gains=bad)
        log = run(cfg)
        assert log.failed
        assert log.failure_reason
        assert 0 < log.n_rows < 7501
        # rows logged before the abort are still coherent
        assert np.all(np.isfinite(log.quad))

    @pytest.mark.parametrize("aborted", [False, True])
    def test_log_is_a_writable_float_array(self, aborted):
        # rows are packed through a byte view of the preallocated array;
        # what run returns must still be a plain float64 array whose named
        # columns are views of it
        from slungsim.controllers import PdGains
        bad = PdGains(Kpp=5e4, Kpt=5e4, Kdp=1e-3, Kdt=1e-3)
        cfg = SimConfig(controller="PD", m_L=0.5, duration=2.0,
                        pd_gains=bad if aborted else PdGains())
        log = run(cfg)
        assert log.failed == aborted
        assert (log.n_rows < cfg.n_ticks + 1) == aborted
        rows = log.rows
        assert rows.dtype == np.float64
        assert rows.shape == (log.n_rows, LOG_WIDTH)
        assert rows.flags.c_contiguous and rows.flags.writeable
        log.t[-1] = -1.0
        assert log.rows[-1, 0] == -1.0

    @pytest.mark.parametrize("phase", ["build", "tick 0"])
    def test_controller_failing_before_any_row_is_a_config_error(
            self, monkeypatch, phase):
        # a ValueError or an arithmetic error in the build or the first
        # step raises instead of returning an empty log
        if phase == "build":
            def fail(*args, **kwargs):
                raise ValueError("bad gains")
            monkeypatch.setattr(simloop, "PdController", fail)
            reason = "ValueError: bad gains"
        else:
            def fail(self, s, ref):
                raise ZeroDivisionError("float division by zero")
            monkeypatch.setattr(PdController, "step", fail)
            reason = "ZeroDivisionError: float division by zero"
        with pytest.raises(ConfigError) as exc:
            run(SimConfig(controller="PD", duration=0.1))
        assert str(exc.value) == ("PD controller cannot be built from this "
                                  f"config: {reason}")

    @pytest.mark.parametrize("error", [ZeroDivisionError, ValueError])
    def test_controller_failing_at_tick_k_keeps_k_rows(self, monkeypatch,
                                                       error):
        cfg = SimConfig(controller="PD", duration=0.1)
        want = run(cfg).rows
        step, calls = PdController.step, []

        def fail_at_tick_3(self, s, ref):
            calls.append(None)
            if len(calls) == 4:
                raise error("no step")
            return step(self, s, ref)
        monkeypatch.setattr(PdController, "step", fail_at_tick_3)
        log = run(cfg)
        assert log.failure_reason == (f"{error.__name__} in the PD "
                                      "controller at t=0.030: no step")
        assert log.rows.tobytes() == want[:3].tobytes()

    def test_mpc_first_step_overflow_is_a_config_error(self):
        cfg = SimConfig(controller="MPC", duration=0.1,
                        params=VehicleParams(m_q=5e-324))
        with pytest.raises(ConfigError, match="^MPC controller cannot be "
                           "built from this config: FloatingPointError"):
            run(cfg)

    def test_smc_square_roll_bound(self):
        log = run(SimConfig(controller="SMC", m_L=0.3))
        assert not log.failed
        roll_deg = np.degrees(np.abs(log.quad[:, 6])).max()
        assert roll_deg <= 4.0

    def test_refinement_convergence(self):
        base = SimConfig(controller="PD", m_L=0.3, duration=75.0)
        fine = SimConfig(controller="PD", m_L=0.3, duration=75.0,
                         dt_physics=5e-4)
        ya = run(base)
        yb = run(fine)
        gap = np.linalg.norm(ya.quad[-1] - yb.quad[-1])
        assert gap < 1e-6

    def test_thrust_clamped_to_envelope(self):
        log = run(SimConfig(controller="SMC", m_L=0.5, duration=20.0,
                            trajectory="single_leg"))
        p = VehicleParams()
        assert np.all(log.u[:, 0] >= 0.0)
        assert np.all(log.u[:, 0] <= p.U1_max + 1e-12)
