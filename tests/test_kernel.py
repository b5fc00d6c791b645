"""The compiled coupled derivative against its Python reference.

dynamics.coupled_derivative_array is the compiled twin from _dynamics.c
wherever a C compiler works, and coupled_derivative_python is the Python
function it copies.  The twin must return the same bits, or raise the same
exception type with the same message, on every input: taut states, guard
aborts, divisions by zero, non-finite values and every sequence type.
"""

import math
import shlex
import shutil
import subprocess
import sysconfig
import warnings

import numpy as np
import pytest

from slungsim import dynamics, simloop
from slungsim.controllers import PdGains
from slungsim.dynamics import (VehicleParams, coupled_derivative_array,
                               coupled_derivative_python)
from slungsim.simloop import SimConfig, run

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
    assert ((dynamics.KERNEL == "python")
            == (coupled_derivative_array is coupled_derivative_python))
    assert simloop.coupled_derivative_array is coupled_derivative_array


@compiled
def test_same_outcome_on_seeded_states():
    kinds = set()
    for y, u, m_L, p in random_cases(4000, seed=20261020):
        want = outcome(coupled_derivative_python, y, u, m_L, p)
        assert outcome(coupled_derivative_array, y, u, m_L, p) == want, \
            (y, u, m_L, p)
        kinds.add(want[0] if isinstance(want, tuple) else "completed")
    assert kinds == {"completed", dynamics.GimbalLockError,
                     dynamics.TautCableError, ZeroDivisionError}


@compiled
def test_same_outcome_for_every_sequence_type():
    for y, u, m_L, p in random_cases(200, seed=5):
        want = outcome(coupled_derivative_python, y, u, m_L, p)
        for yy, uu in ((tuple(y), tuple(u)), (y, tuple(u)), (tuple(y), u)):
            assert outcome(coupled_derivative_array, yy, uu, m_L, p) == want
    # numpy inputs take the Python function's own numpy arithmetic
    for y, u, m_L, p in random_cases(100, seed=6):
        ya, ua = np.array(y), np.array(u)
        assert (outcome(coupled_derivative_array, ya, ua, m_L, p)
                == outcome(coupled_derivative_python, ya, ua, m_L, p))
        assert (outcome(coupled_derivative_array, y, u, np.float64(m_L), p)
                == outcome(coupled_derivative_python, y, u, np.float64(m_L),
                           p))


@compiled
def test_same_errors_on_malformed_calls():
    y, u, m_L, p = next(random_cases(2, seed=1))
    for args in ((y[:15], u, m_L, p), (y + [0.0], u, m_L, p),
                 (y, u[:3], m_L, p), (y, u, m_L, object()),
                 (y, u, "0.3", p), (y, u, m_L), (None, u, m_L, p)):
        assert (outcome(coupled_derivative_array, *args)
                == outcome(coupled_derivative_python, *args))
    ints = [0] * 16
    ints[2] = 2
    assert (outcome(coupled_derivative_array, ints, [12, 0, 0, 0], 0, p)
            == outcome(coupled_derivative_python, ints, [12, 0, 0, 0], 0, p))
    assert (coupled_derivative_array(y=y, u=u, m_L=m_L, params=p)
            == coupled_derivative_python(y, u, m_L, p))


@compiled
@pytest.mark.parametrize("controller", ["PD", "SMC", "MPC"])
def test_whole_run_rows_identical(monkeypatch, controller):
    cfg = SimConfig(controller=controller, duration=5.0)
    fast = run(cfg)
    monkeypatch.setattr(simloop, "coupled_derivative_array",
                        coupled_derivative_python)
    slow = run(cfg)
    assert not fast.failed
    assert fast.rows.tobytes() == slow.rows.tobytes()


@compiled
def test_aborted_run_identical(monkeypatch):
    cfg = SimConfig(controller="PD", m_L=0.5, duration=10.0,
                    pd_gains=PdGains(Kpp=5e4, Kpt=5e4, Kdp=1e-3, Kdt=1e-3))
    logs = [run(cfg)]
    monkeypatch.setattr(simloop, "coupled_derivative_array",
                        coupled_derivative_python)
    logs.append(run(cfg))
    for log in logs:
        assert log.failure_reason.startswith("GimbalLockError at t=0.140")
        assert log.n_rows == 14
    assert logs[0].failure_reason == logs[1].failure_reason
    assert logs[0].rows.tobytes() == logs[1].rows.tobytes()


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
    y, u, m_L, p = next(random_cases(2, seed=2))
    assert f(y, u, m_L, p) == g(y, u, m_L, p) \
        == coupled_derivative_python(y, u, m_L, p)


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
