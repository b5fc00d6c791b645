"""Tests of the benchmark itself: short runs, output names, checks, cleanup.

    python3 -m pytest -q perfbench/tests

Runs use `--duration 2` (201 trace rows per run) so every workload ends in
seconds; the contract checks that need the full 75 s square are covered by
feeding the check functions corrupted copies of real outputs.
"""

import contextlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from slungsim import cli, dynamics  # noqa: E402
from slungsim.simloop import SimConfig  # noqa: E402

SHORT = ["--duration", "2", "--seconds", "0.5"]
CHILD_TIMEOUT_S = 300

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def workdir():
    os.makedirs(bench_run.WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="tests-", dir=bench_run.WORK_ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def run_command(extra, cwd=ROOT):
    """The benchmark command in its own session; (returncode, stdout)."""
    cmd = [sys.executable, *SPEC["command"][1:], *extra]
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert not group_alive(proc.pid), "a process of the benchmark outlived it"
    return proc.returncode, out


# -- short runs of every workload --------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_names_every_metric(workload, trace):
    rc, out = run_command(["--workload", workload, "--seed", "3",
                           "--trace", str(trace), *SHORT])
    assert rc == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    per_round = workloads.WORKLOADS[workload].ops_per_round
    assert result["attempted"] >= per_round
    assert result["attempted"] % per_round == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    # every layer is measured on every workload, and nothing reads 0
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert m["value"] > 0, name


def test_layer_counts_are_whole_runs():
    rc, out = run_command(["--workload", "simulate", "--seed", "1",
                           "--trace", "1", *SHORT])
    assert rc == 0
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    # 2 s at 10 ms ticks: 201 ticks, 200 of them integrated with 10 RK4
    # sub-steps of four derivatives each
    assert metrics["simloop.ticks"]["value"] == 201
    assert metrics["dynamics.derivative_calls"]["value"] == 200 * 10 * 4


def test_missing_sources_exit_without_result(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(BENCH, os.path.join(bare, os.path.basename(BENCH)),
                    ignore=shutil.ignore_patterns(".work", "out",
                                                  "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, out = run_command(["--workload", "simulate", "--seed", "1",
                           "--trace", "0", *SHORT], cwd=bare)
    assert rc != 0
    assert '"correct"' not in out


def test_interrupt_leaves_no_process():
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "sweep",
           "--seed", "1", "--trace", "0", "--duration", "2",
           "--seconds", "120"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    try:
        time.sleep(6.0)
        os.killpg(proc.pid, signal.SIGINT)     # what Ctrl-C sends
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert '"correct"' not in out
    deadline = time.monotonic() + 10.0
    while group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not group_alive(proc.pid)


def _children():
    me = str(os.getpid())
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            found.append(int(pid))
    return found


def test_failed_check_leaves_no_process(monkeypatch):
    def reject(*args):
        raise CheckError("rejected for the test")

    monkeypatch.setattr(checks, "check_sweep_rows", reject)
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = bench_run.main(["--workload", "sweep", "--seed", "1",
                             "--trace", "0", *SHORT])
    assert rc == 1
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == workloads.Sweep.ops_per_round
    assert _children() == []


def test_host_speed_samples_through_work_and_restores_the_alarm(workdir):
    before = signal.getsignal(signal.SIGALRM)
    with bench_run.HostSpeed(workdir) as speed:
        t0 = time.monotonic()
        while time.monotonic() - t0 < 0.5:
            sum(i * i for i in range(1000))
        t1 = time.monotonic()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # samples were taken inside the busy loop, and their own time is
    # taken out of it
    busy = speed.busy_s(t0, t1)
    assert len(speed._inside(t0, t1)) >= 3
    assert 0 < busy < t1 - t0
    want = (t1 - t0 - busy) * speed.scale(t0, t1)
    assert bench_run.own_s(speed, [(t0, t1)], 1) == pytest.approx(want)
    assert bench_run.own_s(speed, [(t0, t1)], 2) > want


def _busy_child(seconds):
    t0 = time.monotonic()
    while time.monotonic() - t0 < seconds:
        sum(i * i for i in range(1000))


def test_host_speed_samples_in_forked_workers(workdir):
    import multiprocessing

    with bench_run.HostSpeed(workdir) as speed:
        with speed.in_workers():
            t0 = time.monotonic()
            with multiprocessing.get_context("fork").Pool(2) as pool:
                pool.map(_busy_child, [0.5, 0.5])
            t1 = time.monotonic()
        mine = len(speed._inside(t0, t1))
    # the two workers sampled while this process did not
    assert mine >= 6
    assert os.listdir(workdir) == []
    assert speed.starts == sorted(speed.starts)
    # a process forked outside in_workers() does not sample
    pid = os.fork()
    if pid == 0:
        os._exit(0 if signal.getitimer(signal.ITIMER_REAL)[0] == 0 else 1)
    assert os.waitpid(pid, 0)[1] == 0


# -- every check fails on a corrupted output ---------------------------------

@pytest.fixture
def simulated(workdir):
    cfg = os.path.join(workdir, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write("controller = PD\nm_L = 0.3\nduration = 2\n")
    out = os.path.join(workdir, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    cols, aborted = checks.parse_trace(os.path.join(out, "trace.csv"))
    return out, cols, aborted


def _check_trace(cols, aborted=False, n_rows=201):
    checks.check_trace(cols, aborted, n_rows, 0.01, 0.5)


def _corrupt(cols, name, k=100, delta=1e-9):
    bad = {n: c.copy() for n, c in cols.items()}
    bad[name][k] += delta
    return bad


def test_trace_check_passes_on_real_output(simulated):
    _, cols, aborted = simulated
    _check_trace(cols, aborted)


@pytest.mark.parametrize("column", ["err_x", "err_y", "err_z", "ref_x",
                                    "ref_y", "load_zeta", "t"])
def test_trace_check_rejects_perturbed_column(simulated, column):
    _, cols, _ = simulated
    with pytest.raises(CheckError):
        _check_trace(_corrupt(cols, column))


def test_trace_check_rejects_dropped_row(simulated):
    _, cols, _ = simulated
    dropped = {n: np.delete(c, 57) for n, c in cols.items()}
    with pytest.raises(CheckError, match="rows"):
        _check_trace(dropped)
    with pytest.raises(CheckError):
        _check_trace(dropped, n_rows=200)


def test_trace_check_rejects_abort_marker(simulated):
    _, cols, _ = simulated
    with pytest.raises(CheckError, match="abort"):
        _check_trace(cols, aborted=True)


def test_reference_closed_form_against_known_points():
    ref = checks.square_reference([0.0, 2.5, 7.5, 15.0, 22.5, 45.0, 60.0,
                                   75.0])
    v = 0.032 * 2.5
    np.testing.assert_allclose(ref[:, 0], [0, 0.1, 0.1 + 5 * v, 1, 1,
                                           0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(ref[:, 1], [0, 0, 0, 0, 0.5, 1, 0, 0],
                               atol=1e-12)
    assert np.all(ref[:, 2] == 1.5)


def test_metrics_csv_check_rejects_changed_e_max(simulated):
    out, cols, _ = simulated
    path = os.path.join(out, "metrics.csv")
    checks.check_metrics_csv(path, cols)
    with open(path, encoding="utf-8") as fh:
        header, row = fh.read().splitlines()
    e_max, rest = row.split(",", 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\n{float(e_max) * (1 + 1e-12)!r},{rest}\n")
    with pytest.raises(CheckError, match="e_max"):
        checks.check_metrics_csv(path, cols)


def test_coupling_check_rejects_a_wrong_solve(simulated):
    _, cols, _ = simulated
    params = SimConfig().params
    rows = range(1, 200, 20)
    checks.check_coupling(cols, rows, 0.01, 0.3, params,
                          dynamics.coupled_derivative_array)

    def off(y, u, m_L, p):
        d = dynamics.coupled_derivative_array(y, u, m_L, p)
        d[14] *= 1 + 1e-6
        return d

    with pytest.raises(CheckError, match="coupled"):
        checks.check_coupling(cols, rows, 0.01, 0.3, params, off)


GOOD_E_MAX = {"PD": 0.05, "SMC": 0.04, "MPC": 0.02}
GOOD_PEAK = {"PD": 1.0, "SMC": 1.0, "MPC": 1.0}


def test_contract_check():
    checks.check_controller_contract(GOOD_E_MAX, GOOD_PEAK)
    swapped = dict(GOOD_E_MAX, PD=0.02, MPC=0.05)
    for e_max, peak in ((swapped, GOOD_PEAK),
                        (dict(GOOD_E_MAX, MPC=0.035), GOOD_PEAK),
                        (dict(GOOD_E_MAX, PD=0.08), GOOD_PEAK),
                        (GOOD_E_MAX, dict(GOOD_PEAK, SMC=4.6))):
        with pytest.raises(CheckError):
            checks.check_controller_contract(e_max, peak)


def _sweep_rows():
    return [(c, m, GOOD_E_MAX[c] * (1 + m / 100), 1.0, 1.2, 1.9, False)
            for c in ("PD", "SMC", "MPC") for m in workloads.SWEEP_MASSES]


def _check_sweep(rows, contract=True):
    return checks.check_sweep_rows(rows, ("PD", "SMC", "MPC"),
                                   workloads.SWEEP_MASSES, contract)


def test_sweep_check_passes_and_counts_failed_rows():
    assert _check_sweep(_sweep_rows()) == 0
    rows = _sweep_rows()
    rows[4] = rows[4][:6] + (True,)
    assert _check_sweep(rows) == 1


def test_sweep_check_rejects_swapped_rows():
    rows = _sweep_rows()
    rows[0], rows[1] = rows[1], rows[0]
    with pytest.raises(CheckError, match="one per case"):
        _check_sweep(rows, contract=False)
    rows = _sweep_rows()
    pd, mpc = rows[0], rows[6]
    # the PD and MPC results at one mass exchanged
    rows[0], rows[6] = pd[:2] + mpc[2:], mpc[:2] + pd[2:]
    with pytest.raises(CheckError, match="ordered"):
        _check_sweep(rows)


@pytest.mark.parametrize("index,value", [(2, 0.06), (3, 6.5), (5, math.nan)])
def test_sweep_check_rejects_bad_values(index, value):
    rows = _sweep_rows()
    k = 1 if index == 2 else 4
    rows[k] = rows[k][:index] + (value,) + rows[k][index + 1:]
    with pytest.raises(CheckError):
        _check_sweep(rows)


def test_sweep_replay_rejects_changed_row(workdir):
    sweep = workloads.Sweep(workdir, seed=1, duration=2.0)
    c, m = sweep.replay
    cfg = SimConfig(controller=c, m_L=m, duration=2.0)
    log = cli.run(cfg)
    met = cli.compute_run_metrics(log)
    row = (c, m, met.e_max, met.phi_max, met.theta_max, met.t_smax, False)
    sweep.rows = [row]
    sweep.final_check()
    sweep.rows = [row[:3] + (row[3] * (1 + 1e-15) + 1e-300,) + row[4:]]
    with pytest.raises(CheckError, match="serial"):
        sweep.final_check()


def test_round_trip_checks(workdir):
    params = SimConfig().params
    log = cli.run(SimConfig(controller="SMC", duration=2.0))
    path = os.path.join(workdir, "t.csv")
    cli.write_trace(log, path, params)
    trace = cli.read_trace(path)
    checks.check_round_trip(trace.columns, log, params.L)
    want = cli.compute_run_metrics(log)
    checks.check_same_metrics(cli.compute_run_metrics(trace.to_log()), want)

    bad = _corrupt(trace.columns, "U3", k=10, delta=1e-12)
    with pytest.raises(CheckError, match="U3"):
        checks.check_round_trip(bad, log, params.L)
    short = {n: c[:-1] for n, c in trace.columns.items()}
    with pytest.raises(CheckError):
        checks.check_round_trip(short, log, params.L)
    log.err[50, 0] += 1.0
    with pytest.raises(CheckError, match="e_max"):
        checks.check_same_metrics(cli.compute_run_metrics(log), want)
