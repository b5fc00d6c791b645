"""The compiled control tick, trace formatter and trace parser against the
Python code they come from.

dynamics.coupled_derivative_array is the one model, a Python function,
and dynamics._kernel_source translates it into C for _dynamics.c, or
refuses it.  dynamics.fused_tick, built from that text wherever a C
compiler works, runs a whole control tick; it must return the bits of
n_sub rk4_step calls of that function, edited or not, or None wherever
that tick raises or its input is not read, so that simloop.advance_tick
runs the Python loop and raises the Python exception.
dynamics.format_rows, from the same build, must return the text
cli.write_trace's `%` gives a block of rows, or None wherever that `%`
writes or raises anything else; it computes the digits of most values
exactly and passes the rest to PyOS_double_to_string, so it is checked
where each path runs, on exact ties, at decade edges and in a build
without unsigned __int128.  dynamics.parse_rows must give the bits
float() gives each field of a block of trace lines, or None wherever the
line or field is outside its grammar, so that cli.read_trace reads the
file with numpy and gives what numpy gives; it computes values of at most
19 digits and |e| <= 27 exactly and passes the rest to
PyOS_string_to_double, so it is checked on ties, near ties and each side
of those limits, and against numpy's reader on odd traces.
dynamics._load_kernel builds into a cache directory under a name tagged
with _dynamics.c, dynamics.py and the flags; a build removes the
finished builds of other tags there, and nothing else, and a refused
model builds nothing.  Scratch builds go to a copy of dynamics.py in a
temporary directory, never to the package's own cache.
"""

import importlib.util
import math
import os
import shlex
import shutil
import struct
import subprocess
import sys
import sysconfig
import warnings
from decimal import Decimal
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slungsim import cli, dynamics, simloop
from slungsim.controllers import PdGains
from slungsim.dynamics import (GimbalLockError, TautCableError, VehicleParams,
                               cable_offset, coupled_derivative_array)
from slungsim.simloop import (LOG_WIDTH, TRACE_COLUMNS, SimConfig, SimLog,
                              advance_tick, rk4_step, run)

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
    assert (dynamics.fused_tick is None) == (dynamics.format_rows is None)
    assert simloop.fused_tick is dynamics.fused_tick
    assert cli.format_rows is dynamics.format_rows
    assert simloop.coupled_derivative_array is coupled_derivative_array


def reference_tick(y, u, m_L, p, dt, n_sub, model=coupled_derivative_array):
    """A tick through the Python loop: n_sub rk4_step calls of model,
    the non-finite check and the cable offset, as one flat list of the 16
    state floats and zeta."""
    def f(v, w):
        return model(v, w, m_L, p)
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
# a stand-in for VehicleParams whose I_z, the last derived entry, is 0
FLAT_YAW = SimpleNamespace(L=TICK["p"].L,
                           derived=(*TICK["p"].derived[:-1], 0.0))
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
    # one stage that divides by zero and passes both guards, so only the
    # final non-finite test hands these back: M = 0 (the determinant is
    # inf, but mu and U1 / M are not finite), and I_z = 0 with U4 = 1 and
    # U4 = 0
    "zero total mass": ({"m_L": -TICK["p"].m_q, "n_sub": 1},
                        ZeroDivisionError),
    "zero yaw inertia": ({"p": FLAT_YAW, "u": [12.0, 0.0, 0.0, 1.0],
                          "n_sub": 1}, ZeroDivisionError),
    "zero yaw inertia, no yaw input": ({"p": FLAT_YAW, "n_sub": 1},
                                       ZeroDivisionError),
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


N_COLS = len(TRACE_COLUMNS)
# the golden config whose PD run aborts on gimbal lock at t = 0.14 s
PD_ABORT = SimConfig(controller="PD", m_L=0.5,
                     pd_gains=PdGains(Kpp=5e4, Kpt=5e4, Kdp=1e-3, Kdt=1e-3))


def percent_text(block):
    """The text of block through `%`: each value but the last as
    "%.17g," and the last as "%d\\n", row by row."""
    row = "%.17g," * (block.shape[1] - 1) + "%d\n"
    return row * len(block) % tuple(block.ravel().tolist())


def assert_formats_as_percent(block):
    text = dynamics.format_rows(block)
    assert text is not None
    # line lists: pytest names the first line that differs, where a diff
    # of a whole log's text takes about a minute
    assert text.split("\n") == percent_text(block).split("\n")


def trace_outcome(rows, path):
    """The bytes write_trace writes for a log of rows, or the type and
    message of what it raises."""
    try:
        cli.write_trace(SimLog(rows=rows), str(path), VehicleParams())
    except Exception as exc:
        return type(exc), str(exc)
    return path.read_bytes()


def test_percent_text_is_the_trace_row():
    assert "%.17g," * (N_COLS - 1) + "%d\n" == cli._TRACE_ROW


@compiled
@pytest.mark.parametrize("cfg", [
    SimConfig(controller="PD", m_L=0.3, duration=5.0),
    SimConfig(controller="SMC", m_L=0.3, duration=5.0),
    SimConfig(controller="MPC", m_L=0.3, duration=5.0),
    PD_ABORT], ids=["PD", "SMC", "MPC", "pd-abort"])
def test_format_rows_equals_percent_on_logs(cfg):
    log = run(cfg)
    assert log.failed == (cfg is PD_ABORT)
    # whole logs, and the 256-row blocks write_trace passes, as views of
    # the trace columns
    assert_formats_as_percent(log.rows[:, :N_COLS])
    for k0 in range(0, log.n_rows, 256):
        assert_formats_as_percent(log.rows[k0:k0 + 256, :N_COLS])


@compiled
def test_format_rows_formats_a_view_in_place():
    # column slices of a run's log, and its rows reversed (a negative row
    # stride), are formatted as they are, not handed back for a copy
    log = run(SimConfig(controller="SMC", m_L=0.3, duration=3.0))
    assert log.rows.shape[1] == LOG_WIDTH
    for view in (log.rows[:, :N_COLS], log.rows[:, N_COLS - 3:N_COLS],
                 log.rows[::-1, :N_COLS]):
        assert not view.flags.c_contiguous
        assert dynamics.format_rows(view) == percent_text(view.copy())


NEGATIVE_NAN = struct.unpack("d", struct.pack("Q", 0xFFF8000000000000))[0]
# zeros, the smallest and largest subnormals, the extremes, non-finites
# and the edges of %g's fixed and exponent notations
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, 1e308,
               -1e308, math.inf, -math.inf, math.nan, NEGATIVE_NAN,
               0.1 + 0.2, 1e-5, -1.2345678901234567e-5, 1e16, 1e17)


@compiled
def test_format_rows_equals_percent_on_edge_values():
    n = len(EDGE_VALUES)
    block = np.zeros((n, 4))
    block[:, 0] = EDGE_VALUES
    block[:, 1] = EDGE_VALUES[::-1]
    block[:, 2] = [-0.0, 1.0] * (n // 2)
    assert np.signbit(block[EDGE_VALUES.index(NEGATIVE_NAN), 0])
    assert_formats_as_percent(block[:, :3])
    assert_formats_as_percent(block)
    assert_formats_as_percent(block[:, 2:3])    # the flags alone
    assert dynamics.format_rows(block[:0, :3]) == ""


@compiled
@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60),
       flags=st.lists(st.booleans(), min_size=30, max_size=30))
def test_format_rows_equals_percent_on_any_double(bits, flags):
    # raw 64-bit patterns draw every exponent range, subnormals and nans
    values = [struct.unpack("d", struct.pack("Q", b))[0] for b in bits]
    block = np.zeros((30, 3))
    block[:, :2] = np.resize(values, (30, 2))
    block[:, 2] = flags
    assert_formats_as_percent(block)


# the ends of the range _dynamics.c's exact_g17 formats: its least value
# (17 digits x 10^55, decimal exponent -39) and the first value above it
FAST_LOW, FAST_HIGH = 2.0 ** -129, 1e17


def value_block(values):
    """The values, their negations beside them and a flag column."""
    block = np.zeros((len(values), 3))
    block[:, 0] = values
    block[:, 1] = np.negative(values)
    return block


def neighbours(value, n=1):
    """value and the n doubles on either side of it."""
    below = above = value
    out = [value]
    for _ in range(n):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return out


def is_tie(value):
    """Whether value is halfway between two 17-digit decimals: it is n 2^-j
    (n odd, j > 0), so its exact decimal has the digits of n 5^j, the last
    a 5, and there are 18 of them."""
    n, d = value.as_integer_ratio()
    j = d.bit_length() - 1
    return j > 0 and 10**17 <= abs(n) * 5**j < 10**18


@compiled
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2**52 - 1),
                          st.integers(math.frexp(FAST_LOW)[1] - 1,
                                      math.frexp(FAST_HIGH)[1] - 1)),
                min_size=1, max_size=60))
def test_format_rows_equals_percent_in_the_fast_range(draws):
    # a sign, a 52-bit fraction and a binary exponent of the fast range,
    # where the raw patterns of the test above seldom land
    values = [struct.unpack("d", struct.pack(
        "Q", sign << 63 | (exp + 1023) << 52 | frac))[0]
        for sign, frac, exp in draws]
    assert_formats_as_percent(value_block(values))


@compiled
def test_format_rows_rounds_ties_to_even():
    # k 2^-j (k odd) and the quarter-integers m 2^-2 (m odd, just under
    # 2^53), kept where they are halfway between two 17-digit decimals
    ties = [v for v in (
        *(math.ldexp(k, -j) for k in range(1, 2000, 2) for j in range(90)),
        *(math.ldexp(m, -2) for m in range(2**53 - 2001, 2**53, 2)))
        if is_tie(v)]
    assert len(ties) > 1500
    assert FAST_LOW <= min(ties) and max(ties) < FAST_HIGH
    assert_formats_as_percent(value_block(ties))


@compiled
@pytest.mark.parametrize("values", [
    # each power of ten from either side of the range, 1 ulp about it
    [v for e in range(-39, 18) for v in neighbours(float(f"1e{e}"))],
    # where %g goes from exponent to fixed notation and back
    [v for x in (1e-5, 1e-4, 1e16, 1e17) for v in neighbours(x, 3)],
    [0.0, -0.0],
    # the last values inside, and the first outside, each end
    [*neighbours(FAST_LOW, 3), *neighbours(FAST_HIGH, 3),
     math.nextafter(FAST_LOW, 0.0), math.nextafter(FAST_HIGH, 0.0)],
], ids=["powers of ten", "notation switches", "zeros", "range ends"])
def test_format_rows_equals_percent_at_decade_edges(values):
    assert_formats_as_percent(value_block(values))


@compiled
def test_format_rows_carries_into_the_next_decade():
    # the doubles just below each power of ten of the range; those whose
    # 17 digits round up to 100000000000000000 read as the next decade
    values, carried = [], 0
    for e in range(-38, 17):
        power = Decimal(f"1e{e}")
        x = float(power)
        x = x if Decimal(x) < power else math.nextafter(x, 0.0)
        for _ in range(3):
            values.append(x)
            carried += Decimal("%.17g" % x) == power
            x = math.nextafter(x, 0.0)
    assert carried
    assert_formats_as_percent(value_block(values))


def flagged(value):
    rows = np.zeros((3, N_COLS))
    rows[1, N_COLS - 1] = value
    return rows


# logs of the trace's width whose blocks format_rows hands back, and
# whether write_trace then writes (True) or raises (False)
HANDED_BACK = {
    "float32": (np.ones((3, N_COLS), np.float32), True),
    "non-contiguous": (np.ones((3, 2 * N_COLS))[:, ::2], True),
    "reversed columns": (np.ones((3, N_COLS))[:, ::-1], True),
    "fortran order": (np.asfortranarray(np.ones((3, N_COLS))), True),
    "1-d": (np.ones(N_COLS), False),
    "3-d": (np.ones((3, N_COLS, 2)), False),
    "flag 0.5": (flagged(0.5), True),
    "flag 2": (flagged(2.0), True),
    "flag nan": (flagged(math.nan), False),
    "flag inf": (flagged(math.inf), False),
    "flag -inf": (flagged(-math.inf), False),
}


@compiled
@pytest.mark.parametrize("case", HANDED_BACK)
def test_format_rows_hands_off_to_percent(case, tmp_path, monkeypatch):
    rows, writes = HANDED_BACK[case]
    assert dynamics.format_rows(rows) is None
    fast = trace_outcome(rows, tmp_path / "fast.csv")
    monkeypatch.setattr(cli, "format_rows", None)
    assert isinstance(fast, bytes) == writes
    assert fast == trace_outcome(rows, tmp_path / "slow.csv")


def test_narrow_log_is_refused(tmp_path, monkeypatch):
    # a view whose base goes on past it: write_trace gives a log with
    # fewer columns than the trace to `%`, which raises, whichever
    # formatter it has
    rows = np.zeros((4, N_COLS - 1))[:3]
    fast = trace_outcome(rows, tmp_path / "fast.csv")
    monkeypatch.setattr(cli, "format_rows", None)
    assert fast == trace_outcome(rows, tmp_path / "slow.csv")
    assert fast[0] is TypeError
    assert not list(tmp_path.iterdir())


@compiled
def test_format_rows_checks_its_arguments():
    rows = np.zeros((2, N_COLS))
    with pytest.raises(TypeError):
        dynamics.format_rows(rows, N_COLS)
    for block in (rows.tolist(), rows[:, :0], b"\0" * 8 * N_COLS):
        assert dynamics.format_rows(block) is None


@pytest.mark.parametrize("cfg", [SimConfig(controller="MPC", duration=5.0),
                                 PD_ABORT], ids=["MPC", "pd-abort"])
def test_trace_bytes_do_not_depend_on_the_formatter(cfg, tmp_path,
                                                    monkeypatch):
    # where no compiler works, write_trace's `%` writes the same file
    log = run(cfg)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    cli.write_trace(log, str(fast), cfg.params)
    monkeypatch.setattr(cli, "format_rows", None)
    cli.write_trace(log, str(slow), cfg.params)
    assert fast.read_bytes() == slow.read_bytes()
    assert fast.read_bytes().count(b"\n") == log.n_rows + 1 + log.failed


@compiled
def test_default_trace_takes_the_formatter(tmp_path, monkeypatch):
    # a write that silently went back to `%` fails here
    results = []

    def recording(block):
        # a view of the log's rows, not a copy of them
        assert np.shares_memory(block, log.rows)
        results.append(dynamics.format_rows(block))
        return results[-1]
    monkeypatch.setattr(cli, "format_rows", recording)
    log = run(SimConfig(duration=5.0))            # 501 rows: two blocks
    cli.write_trace(log, str(tmp_path / "trace.csv"), VehicleParams())
    assert len(results) == 2 and None not in results


def read_outcome(path):
    """What read_trace gives path: its rows' bytes, failed and reason, or
    its TraceError's message."""
    try:
        log = cli.read_trace(str(path))
    except cli.TraceError as exc:
        return str(exc)
    return log.rows.tobytes(), log.failed, log.failure_reason


@pytest.fixture(scope="module")
def mpc_lines(tmp_path_factory):
    """The lines of a 1 s MPC trace, its header first."""
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    cli.write_trace(run(SimConfig(controller="MPC", duration=1.0)),
                    str(path), VehicleParams())
    return path.read_text().splitlines(keepends=True)


def with_field(lineno, text, col=5):
    """An edit that sets field col of file line lineno to text."""
    def edit(lines):
        fields = lines[lineno - 1].rstrip("\n").split(",")
        fields[col] = text
        lines[lineno - 1] = ",".join(fields) + "\n"
        return "".join(lines)
    return edit


# edits of a trace that parse_rows hands back, or takes as it is
ODD_TRACES = {
    "byte order mark": lambda lines: "\ufeff" + "".join(lines),
    "crlf": lambda lines: "".join(lines).replace("\n", "\r\n"),
    "blank lines": lambda lines: "".join(
        lines[:3] + ["\n"] + lines[3:7] + [" \t\n"] + lines[7:]),
    "comment": lambda lines: "".join(lines[:4] + ["# note\n"] + lines[4:]),
    "aborted": lambda lines: "".join(
        lines + ["# aborted: TautCableError at t=0.050: injected\n"]),
    "header spaces": lambda lines: "".join(
        [lines[0].replace("\n", " \n")] + lines[1:]),
    "header only": lambda lines: lines[0],
    "no final newline": lambda lines: "".join(lines)[:-1],
    "space-padded": with_field(3, " 0.5 "),
    "plus": with_field(3, "+1"),
    "no integer part": with_field(3, ".5"),
    "no fraction": with_field(3, "5."),
    "capital exponent": with_field(3, "1E5"),
    "inf": with_field(4, "inf"),
    "nan": with_field(4, "nan"),
    "underscore": with_field(4, "1_0"),
    "20 digits": with_field(3, "-1.2345678901234567891"),
    "25 digits": with_field(3, "1234567890123456789012345e-30"),
    "overflow": with_field(3, "1e400"),
    "underflow": with_field(3, "1e-400"),
    "minus zero": with_field(3, "-0"),
    "26 fields": lambda lines: "".join(
        lines[:4] + [lines[4].rsplit(",", 1)[0] + "\n"] + lines[5:]),
    "28 fields": lambda lines: "".join(
        lines[:4] + [lines[4].replace("\n", ",0\n")] + lines[5:]),
    "non-numeric last line": lambda lines: with_field(len(lines), "x")(
        lines),
}


@pytest.mark.parametrize("case", ODD_TRACES)
def test_read_trace_does_not_depend_on_the_parser(case, mpc_lines, tmp_path,
                                                  monkeypatch):
    # the same rows, or the same message, where no compiler works
    path = tmp_path / "trace.csv"
    path.write_bytes(ODD_TRACES[case](list(mpc_lines)).encode())
    fast = read_outcome(path)
    monkeypatch.setattr(cli, "parse_rows", None)
    assert fast == read_outcome(path)


@compiled
def test_default_trace_takes_the_parser(tmp_path, monkeypatch):
    # a read that silently went back to numpy's reader fails here
    results = []

    def recording(lines, n_cols):
        results.append(dynamics.parse_rows(lines, n_cols))
        return results[-1]

    def refused(*args, **kwargs):
        raise AssertionError("np.loadtxt read the trace")
    monkeypatch.setattr(cli, "parse_rows", recording)
    monkeypatch.setattr(cli.np, "loadtxt", refused)
    log = run(SimConfig())                      # 75 s
    path = str(tmp_path / "trace.csv")
    cli.write_trace(log, path, VehicleParams())
    assert cli.read_trace(path).rows.tobytes() == \
        log.rows[:, :N_COLS].tobytes()
    assert len(results) > 1 and None not in results


@compiled
def test_parse_rows_checks_its_arguments():
    line = "0," * (N_COLS - 1) + "1\n"
    with pytest.raises(TypeError):
        dynamics.parse_rows([line])
    assert dynamics.parse_rows([], N_COLS) == b""
    assert dynamics.parse_rows([line], N_COLS) == \
        struct.pack(f"{N_COLS}d", *[0.0] * (N_COLS - 1), 1.0)
    for lines, n_cols in (((line,), N_COLS), ([line.encode()], N_COLS),
                          ([line], float(N_COLS)), ([line], 0),
                          ([line], 2**70), ([line], N_COLS - 1),
                          (["\u0661" + line], N_COLS)):
        assert dynamics.parse_rows(lines, n_cols) is None


def decimal_exponent(text):
    """e of text read as w 10^e, w its digits with the point dropped."""
    mantissa, _, exponent = text.lower().partition("e")
    return int(exponent or 0) - len(mantissa.partition(".")[2])


def assert_parses_as_float(texts):
    values = dynamics.parse_rows([t + "\n" for t in texts], 1)
    assert values is not None
    got = struct.unpack(f"{len(texts)}d", values)
    # hex texts: pytest names the first value that differs
    assert [(t, x.hex()) for t, x in zip(texts, got)] == \
        [(t, float(t).hex()) for t in texts]


@compiled
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2**52 - 1),
                          st.integers(-29, 89)), min_size=1, max_size=60))
def test_parse_rows_equals_float_in_the_exact_range(draws):
    # 2^-29 <= |x| < 2^90: each text's e lies in [-27, 27], where
    # parse_rows computes the value itself
    values = [struct.unpack("d", struct.pack(
        "Q", sign << 63 | (exp + 1023) << 52 | frac))[0]
        for sign, frac, exp in draws]
    texts = [t for x in values for t in ("%.17g" % x, repr(x), "%.19g" % x)]
    assert all(abs(decimal_exponent(t)) <= 27 for t in texts)
    assert_parses_as_float(texts)


def tie_texts():
    """Decimals of at most 19 digits halfway between adjacent doubles,
    (2M + 1) 2^(b - 1) for 2^52 <= M < 2^53: integers for b >= 1, and
    with one to three decimals for b <= 0; each also negated and in
    exponent form."""
    texts = []
    for b in range(-2, 11):
        for k in range(40):
            odd = 2 * (2**52 + k * 0x1234567891 % 2**52) + 1
            tie = Decimal(odd) * Decimal(2) ** (b - 1)
            digits, exponent = tie.as_tuple()[1:]
            assert len(digits) <= 19
            w = "".join(map(str, digits))
            texts += [str(tie), f"-{tie}", f"{w}e{exponent}"]
    return texts


@compiled
def test_parse_rows_rounds_ties_to_even():
    texts = tie_texts()
    assert_parses_as_float(texts)
    # some round towards zero and some away, as their evens lie
    down = sum(abs(Decimal(float(t))) < abs(Decimal(t)) for t in texts)
    assert 0 < down < len(texts)


def near_tie_texts(e):
    """The 19-digit decimals w 10^e just below and just above the halfway
    points between adjacent doubles of [10^(e + 18), 10^(e + 19))."""
    texts = []
    for k in range(300):
        x = 10.0 ** (e + 18) * (1 + k / 37)
        ties = Fraction(x) + Fraction(math.ulp(x)) / 2
        scaled = ties / Fraction(10) ** e
        texts += [f"{math.floor(scaled)}e{e}", f"{math.ceil(scaled)}e{e}"]
    return texts


@compiled
@pytest.mark.parametrize("e", [-27, -26, -25, -1, 0, 1, 27])
def test_parse_rows_rounds_near_ties(e):
    # within a 19th digit of a halfway point; at e = -27 the quotient
    # parse_rows forms can end in exactly half with a nonzero remainder
    texts = near_tie_texts(e)
    assert all(len(t.partition("e")[0]) == 19 for t in texts)
    assert_parses_as_float(texts)


# 1, 10^19 - 1 (the largest 19-digit significand), the first 19 digits of
# 2^64 - 1, and 20-digit ones: 2^64 - 1 and 10^19
EDGE_SIGNIFICANDS = ("1", "9999999999999999999", "1844674407370955161",
                     "18446744073709551615", "10000000000000000000")


@compiled
def test_parse_rows_equals_float_at_the_range_edges():
    # each side of |e| = 27, the range parse_rows computes itself, and of
    # the 19 significant digits it keeps; leading zeros do not count
    texts = [f"{sign}{lead}{w}e{e}" for sign in ("", "-")
             for lead in ("", "000", "0.000") for w in EDGE_SIGNIFICANDS
             for e in range(-30, 31)]
    texts += ["0", "-0", "0.000", "-0e999", "0e-999", "1e-27", "1e27",
              "0.000000000000000000000000001", "1" + "0" * 27 + ".0"]
    assert_parses_as_float(texts)


def build_without_warnings(directory, *flags):
    """Build the text the loader builds, with its flags, flags and every
    warning an error, into directory; the extension's path."""
    path = directory / f"_dynamics{EXTENSION_SUFFIXES[0]}"
    build = subprocess.run(
        [*shlex.split(sysconfig.get_config_var("LDSHARED")),
         *dynamics._C_FLAGS, "-Wall", "-Wextra", "-Wno-unused-parameter",
         "-Werror", *flags, "-I", sysconfig.get_path("include"), "-x", "c",
         "-", "-o", str(path)],
        input=dynamics._kernel_source(), capture_output=True, text=True,
        timeout=60)
    assert build.returncode == 0, build.stderr
    return path


@compiled
def test_source_builds_without_warnings(tmp_path):
    # the text the loader builds, its translated model included; a
    # temporary or variable left unused by an edit fails here; a
    # METH_FASTCALL function does not use its module argument
    build_without_warnings(tmp_path)


@compiled
def test_kernel_builds_without_128_bit_integers(tmp_path):
    # a compiler with no unsigned __int128 builds the tick, and a
    # format_rows that sends every value to PyOS_double_to_string
    path = build_without_warnings(tmp_path, "-U__SIZEOF_INT128__")
    loader = ExtensionFileLoader("slungsim._dynamics", str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    block = run(SimConfig(controller="MPC", duration=5.0)).rows[:, :N_COLS]
    assert module.format_rows(block) == percent_text(block)
    args = (*next(random_cases(2, seed=2)), 1e-3, 10)
    assert fused_outcome(module.fused_tick, *args) == outcome(reference_tick,
                                                              *args)


@compiled
def test_parser_builds_without_128_bit_integers(tmp_path, monkeypatch):
    # a parse_rows that sends every nonzero value to PyOS_string_to_double
    path = build_without_warnings(tmp_path, "-U__SIZEOF_INT128__")
    loader = ExtensionFileLoader("slungsim._dynamics", str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    trace = tmp_path / "trace.csv"
    cli.write_trace(run(SimConfig(controller="MPC", duration=5.0)),
                    str(trace), VehicleParams())
    values = module.parse_rows(trace.read_text().splitlines(True)[1:],
                               N_COLS)
    monkeypatch.setattr(cli, "parse_rows", None)
    assert values == cli.read_trace(str(trace)).rows.tobytes()


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


def scratch_dynamics(tmp_path, monkeypatch, old="", new=""):
    """A copy of slungsim.dynamics imported from tmp_path, its text with
    old replaced by new; importing it builds its kernel, if it can, into
    tmp_path's __pycache__."""
    here = os.path.dirname(dynamics.__file__)
    with open(os.path.join(here, "dynamics.py")) as fh:
        text = fh.read()
    assert not old or text.count(old) == 1
    (tmp_path / "dynamics.py").write_text(text.replace(old, new))
    shutil.copy(os.path.join(here, "_dynamics.c"), tmp_path)
    spec = importlib.util.spec_from_file_location(
        "scratch_dynamics", tmp_path / "dynamics.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while it builds VehicleParams
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def kernel_builds(directory):
    return sorted(p.name for p in directory.glob("_dynamics.*"))


# edits to the model that the translator refuses: (old text, new text)
REFUSED = {
    "power": ("z2 = zeta * zeta\n\n", "z2 = zeta ** 2.0\n\n"),
    "floor division": ("rs = r * s", "rs = r // s"),
    "modulo": ("rs = r * s", "rs = r % s"),
    "other call": ("cphi = math.cos(phi)", "cphi = math.tan(phi)"),
    "chained comparison": ("if zsq <= floor2:", "if 0.0 <= zsq <= floor2:"),
    "if without raise": ("raise _slack_error(r, s, L)\n    zeta",
                         "zsq = floor2\n    zeta"),
    "int module name": ("mu = m_L / M\n", "mu = m_L / M / COUPLED_DIM\n"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_model_builds_nothing(tmp_path, monkeypatch, case):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scratch = scratch_dynamics(tmp_path, monkeypatch, *REFUSED[case])
        with pytest.raises(ImportError, match="^no C for "):
            scratch._kernel_source()
        cache = tmp_path / "cache"
        assert scratch._load_kernel(cache_dir=str(cache)) is None
    assert caught == []
    assert scratch.KERNEL == "python" and scratch.fused_tick is None
    assert kernel_builds(tmp_path / "__pycache__") == []
    assert not cache.exists()


@compiled
def test_model_edit_moves_the_compiled_tick(tmp_path, monkeypatch):
    # Newton's laws' gravity term in the z row, in place of the model's
    scratch = scratch_dynamics(tmp_path, monkeypatch,
                               "- g * (m_L * zeta / L + m_q) / M)", "- g)")
    assert scratch.KERNEL == "c"
    assert kernel_builds(tmp_path / "__pycache__") != []
    moved = set()
    for y, u, m_L, p in random_cases(200, seed=11):
        args = (y, u, m_L, p, 1e-3, 10)
        want = outcome(reference_tick, *args, scratch.coupled_derivative_array)
        got = fused_outcome(scratch.fused_tick, *args)
        assert got == (None if isinstance(want, tuple) else want), args
        if isinstance(want, list):
            moved.update(i for i, (a, b) in enumerate(zip(
                want, fused_outcome(dynamics.fused_tick, *args))) if a != b)
    # the translational and load entries and zeta move, the attitude not
    assert moved == {*range(6), 12, 13, 14, 15, 16}


@compiled
def test_edit_to_dynamics_py_rebuilds(tmp_path, monkeypatch):
    scratch = scratch_dynamics(tmp_path, monkeypatch)
    first = kernel_builds(tmp_path / "__pycache__")
    assert scratch.KERNEL == "c" and len(first) == 1
    with open(tmp_path / "dynamics.py", "a") as fh:
        fh.write("# an edit that moves no arithmetic\n")
    assert scratch._load_kernel() is not None
    second = kernel_builds(tmp_path / "__pycache__")
    assert len(second) == 1 and second != first
