"""The compiled control tick against the Python loop it copies.

dynamics.coupled_derivative_array is the one model, a Python function.
dynamics.fused_tick, built from _dynamics.c wherever a C compiler works,
runs a whole control tick; it must return the bits of n_sub rk4_step calls
of that function, or None wherever that tick raises or its input is not
read, so that simloop.advance_tick runs the Python loop and raises the
Python exception.  dynamics._load_kernel builds _dynamics.c into a cache
directory under a name tagged with the source and flags; a build removes
the finished builds of other tags there, and nothing else.
"""

import math
import shlex
import shutil
import subprocess
import sysconfig
import warnings
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest

from slungsim import dynamics, simloop
from slungsim.controllers import PdGains
from slungsim.dynamics import (GimbalLockError, TautCableError, VehicleParams,
                               cable_offset, coupled_derivative_array)
from slungsim.simloop import SimConfig, advance_tick, rk4_step, run

compiled = pytest.mark.skipif(dynamics.KERNEL != "c",
                              reason="no C compiler built the kernel")

VEHICLES = (
    VehicleParams(),
    VehicleParams(m_q=1.3, I_x=6.1e-3, I_y=8.9e-3, I_z=1.7e-2, l=0.21,
                  L=0.62, g=9.79),
    # m_q / M underflows to 0, so the Cramer solve divides by zero
    VehicleParams(m_q=5e-324),
    # the taut-cable floor^2 underflows to 0, so z^2 zeta can too
    VehicleParams(L=1e-160),
)
SPECIAL = (math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0,
           5e-324, math.pi / 2, -math.pi / 2)


def outcome(f, *args):
    """The bits of f's result, or the type and message of its exception."""
    try:
        return [float.hex(v) for v in f(*args)]
    except Exception as exc:
        return type(exc), str(exc)


def taut_state(rng, L):
    rho = 0.95 * L * math.sqrt(rng.uniform())
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return [*(rng.normal(size=3) + [0.0, 0.0, 1.5]), *rng.normal(size=3),
            *rng.uniform(-0.4, 0.4, size=3), *rng.normal(size=3),
            rho * math.cos(ang), rho * math.sin(ang),
            *rng.uniform(-1.0, 1.0, size=2)]


def random_cases(n, seed):
    """(y, u, m_L, params) draws: taut states, then edge states.

    The first half are taut states of the two ordinary vehicles with
    m_L in [0, 0.6] kg and swing up to 0.95 L.  The second half mixes in
    attitudes at and beyond 90 deg, slack cables, the two degenerate
    vehicles, odd load masses and special floats in random slots.
    """
    rng = np.random.default_rng(seed)
    for i in range(n):
        edge = i >= n // 2
        p = VEHICLES[rng.integers(4 if edge else 2)]
        y = taut_state(rng, p.L)
        u = [float(rng.uniform(0.0, 14.72)), *rng.normal(0.0, 0.1, 3)]
        m_L = float(rng.uniform(0.0, 0.6))
        if edge:
            if rng.uniform() < 0.3:
                y[6 + rng.integers(2)] = rng.choice([-1, 1]) * float(
                    rng.uniform(1.5, 1.65))
            if rng.uniform() < 0.2:
                y[12] = p.L * float(rng.uniform(0.9, 1.1))
            if rng.uniform() < 0.2:
                m_L = float(rng.choice([0.0, 5e-324, 1e308, -p.m_q, -0.5]))
            for _ in range(rng.integers(3)):
                vec = y if rng.uniform() < 0.8 else u
                vec[rng.integers(len(vec))] = float(rng.choice(SPECIAL))
        yield [float(v) for v in y], [float(v) for v in u], m_L, p


def test_compiler_on_path_means_compiled_kernel():
    # a silent fall-back to the slower Python function fails here
    ldshared = sysconfig.get_config_var("LDSHARED")
    if not ldshared or shutil.which(shlex.split(ldshared)[0]) is None:
        pytest.skip("no C compiler on PATH")
    assert dynamics.KERNEL == "c"


def test_kernel_names_what_runs():
    assert dynamics.KERNEL in ("c", "python")
    assert (dynamics.KERNEL == "python") == (dynamics.fused_tick is None)
    assert simloop.fused_tick is dynamics.fused_tick
    assert simloop.coupled_derivative_array is coupled_derivative_array


def reference_tick(y, u, m_L, p, dt, n_sub):
    """A tick through the Python loop: n_sub rk4_step calls of
    coupled_derivative_array, the non-finite check and the cable offset,
    as one flat list of the 16 state floats and zeta."""
    def f(v, w):
        return coupled_derivative_array(v, w, m_L, p)
    for _ in range(n_sub):
        y = rk4_step(f, y, u, dt)
    if not all(map(math.isfinite, y)):
        raise FloatingPointError("non-finite state")
    return [*y, cable_offset(y[12], y[13], p.L)]


def fused_outcome(tick, y, u, m_L, p, dt, n_sub):
    """What tick (a fused_tick) returns, in the form of reference_tick's
    outcome, or None where it hands the tick back."""
    got = tick(y, u, m_L, p.derived, dt, n_sub)
    if got is None:
        return None
    assert type(got[0]) is tuple
    return [float.hex(v) for v in (*got[0], got[1])]


def checked_tick(*args):
    """Assert that fused_tick returns reference_tick's bits on one tick, or
    None where that raises; the kind of the reference's outcome."""
    want = outcome(reference_tick, *args)
    raised = isinstance(want, tuple)
    assert fused_outcome(dynamics.fused_tick, *args) == (
        None if raised else want), args
    return want[0] if raised else "completed"


def tick_outcome(*args):
    """advance_tick's outcome in the form reference_tick's has."""
    def flat(*a):
        y, zeta = advance_tick(*a)
        return [*y, zeta]
    return outcome(flat, *args)


@compiled
def test_same_outcome_on_seeded_states():
    # one RK4 sub-step a case, so each derivative stage is held to the bits
    kinds = {checked_tick(y, u, m_L, p, 1e-3, 1)
             for y, u, m_L, p in random_cases(4000, seed=20261020)}
    assert kinds == {"completed", GimbalLockError, TautCableError,
                     ZeroDivisionError, FloatingPointError}


@compiled
def test_same_outcome_for_every_sequence_type():
    for y, u, m_L, p in random_cases(200, seed=5):
        want = fused_outcome(dynamics.fused_tick, y, u, m_L, p, 1e-3, 10)
        for yy, uu in ((tuple(y), tuple(u)), (y, tuple(u)), (tuple(y), u)):
            assert fused_outcome(dynamics.fused_tick, yy, uu, m_L, p, 1e-3,
                                 10) == want


@compiled
def test_fused_tick_equals_generic_rk4_steps():
    kinds = {checked_tick(y, u, m_L, p, dt, n_sub)
             for y, u, m_L, p in random_cases(600, seed=20261020)
             for dt, n_sub in ((1e-3, 10), (4e-3, 3), (1e-3, 1))}
    assert kinds == {"completed", GimbalLockError, TautCableError,
                     ZeroDivisionError, FloatingPointError}


@compiled
def test_fused_tick_checks_its_argument_count():
    with pytest.raises(TypeError):
        dynamics.fused_tick(TICK["y"], TICK["u"])


TICK = dict(y=[0.0, 0.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
               0.1, -0.05, 0.2, 0.1],
            u=[12.0, 0.0, 0.0, 0.0], m_L=0.3, p=VehicleParams(), dt=1e-3,
            n_sub=10)
# (changes to TICK: an int key sets that state entry, a name replaces that
# argument; the exception the Python tick raises, or None where it ends)
HAND_OFFS = {
    "gimbal lock": ({6: 1.6}, GimbalLockError),
    # theta crosses 90 deg in the second stage of the first step
    "gimbal lock mid-tick": ({7: 1.5705, 10: 10.0}, GimbalLockError),
    "slack cable": ({12: 0.5}, TautCableError),
    # every stage is taut, only the state the step ends in is slack
    "slack final state": ({12: 0.3418, 13: 0.3646, 14: 0.4, 15: -0.03,
                           "u": [8.76, 0.0, 0.0, 0.0], "dt": 1.4e-3,
                           "n_sub": 1}, TautCableError),
    "zero divisor": ({"p": VehicleParams(m_q=5e-324)}, ZeroDivisionError),
    "non-finite state": ({0: math.inf}, FloatingPointError),
    "int in state": ({2: 2}, None),
    "ndarray input": ({"u": np.array([12.0, 0.0, 0.0, 0.0])}, None),
    "numpy m_L": ({"m_L": np.float64(0.3)}, None),
    "numpy n_sub": ({"n_sub": np.int64(10)}, None),
    # the Python loop's unpacking raises for a short state or input
    "15-float state": ({"y": TICK["y"][:15]}, ValueError),
    "3-float input": ({"u": [12.0, 0.0, 0.0]}, ValueError),
}


@compiled
@pytest.mark.parametrize("case", HAND_OFFS)
def test_fused_tick_hands_off_to_python(case):
    changes, raised = HAND_OFFS[case]
    tick = dict(TICK, y=list(TICK["y"]))
    for key, value in changes.items():
        if isinstance(key, int):
            tick["y"][key] = value
        else:
            tick[key] = value
    args = tuple(tick.values())
    y, u, m_L, p, dt, n_sub = args
    assert dynamics.fused_tick(y, u, m_L, p.derived, dt, n_sub) is None
    want = outcome(reference_tick, *args)
    if raised is not None:
        assert want[0] is raised
    else:
        assert isinstance(want, list)
    assert tick_outcome(*args) == want


def runs_to_compare(controller):
    """The runs whose rows must not depend on the tick's path: four load
    masses on the square, hover and single_leg, and the aborts: a
    subnormal m_q, whose first tick divides by zero (MPC cannot be built
    for it), and for PD a gimbal lock.  The golden and fingerprint tests
    hold the sweep's whole 75 s runs."""
    cfgs = [SimConfig(controller=controller, trajectory=name, m_L=m,
                      duration=20.0)
            for name, m in (("square", 0.0), ("square", 0.005),
                            ("square", 0.3), ("square", 0.55),
                            ("hover", 0.3), ("single_leg", 0.3))]
    if controller != "MPC":
        cfgs.append(SimConfig(controller=controller, duration=1.0,
                              params=VehicleParams(m_q=5e-324)))
    if controller == "PD":
        cfgs.append(SimConfig(controller="PD", m_L=0.5, duration=10.0,
                              pd_gains=PdGains(Kpp=5e4, Kpt=5e4, Kdp=1e-3,
                                               Kdt=1e-3)))
    return cfgs


@compiled
@pytest.mark.parametrize("controller", ["PD", "SMC", "MPC"])
def test_fused_rows_equal_python_loop_rows(monkeypatch, controller):
    cfgs = runs_to_compare(controller)
    fast = [run(cfg) for cfg in cfgs]
    monkeypatch.setattr(simloop, "fused_tick", None)
    for cfg, log in zip(cfgs, fast):
        slow = run(cfg)
        assert log.failure_reason == slow.failure_reason
        assert log.rows.tobytes() == slow.rows.tobytes()
    assert [log.failed for log in fast].count(True) == {
        "PD": 2, "SMC": 1, "MPC": 0}[controller]


@compiled
@pytest.mark.parametrize("controller", ["PD", "SMC", "MPC"])
def test_default_run_takes_the_compiled_tick(monkeypatch, controller):
    # a run that silently went back to the Python loop fails here
    results = []

    def recording(*args):
        results.append(dynamics.fused_tick(*args))
        return results[-1]
    monkeypatch.setattr(simloop, "fused_tick", recording)
    cfg = SimConfig(controller=controller, duration=1.0)
    assert not run(cfg).failed
    assert len(results) == cfg.n_ticks
    assert None not in results


@compiled
def test_loader_builds_once_then_loads(tmp_path, monkeypatch):
    f = dynamics._load_kernel(cache_dir=str(tmp_path))
    assert f is not None
    built = [p.name for p in tmp_path.iterdir()]
    assert len(built) == 1 and built[0].startswith("_dynamics.")

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran on a warm cache")
    monkeypatch.setattr(subprocess, "run", no_compiler)
    g = dynamics._load_kernel(cache_dir=str(tmp_path))
    assert g is not None
    args = (*next(random_cases(2, seed=2)), 1e-3, 10)
    want = outcome(reference_tick, *args)
    assert isinstance(want, list)
    assert fused_outcome(f.fused_tick, *args) == want
    assert fused_outcome(g.fused_tick, *args) == want


@compiled
def test_build_removes_only_stale_builds(tmp_path):
    suffix = EXTENSION_SUFFIXES[0]
    stale = f"_dynamics.0123abcd{suffix}"
    # another process's build in progress, and a file that is no build
    kept = {f"_dynamics.89abcdef{suffix}.4242.tmp",
            f"_dynamics.notahex{suffix}"}
    for name in (stale, *kept):
        (tmp_path / name).write_bytes(b"x")
    assert dynamics._load_kernel(cache_dir=str(tmp_path)) is not None
    built = {p.name for p in tmp_path.iterdir()} - kept
    assert len(built) == 1 and stale not in built
    assert built.pop().startswith("_dynamics.")


@pytest.mark.parametrize("compiler", ["fails", "missing"])
def test_failing_compiler_leaves_python(tmp_path, monkeypatch, compiler):
    # a compiler that writes half its output and exits 1, or none at all
    script = tmp_path / "cc"
    script.write_text('#!/bin/sh\nfor out; do :; done\necho x > "$out"\n'
                      'exit 1\n')
    script.chmod(0o755)
    cc = str(script) if compiler == "fails" else str(tmp_path / "no-cc")
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: cc if name == "LDSHARED" else real(name))
    cache = tmp_path / "cache"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dynamics._load_kernel(cache_dir=str(cache)) is None
    assert caught == []
    assert list(cache.iterdir()) == []
