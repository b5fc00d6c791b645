"""The benchmark's workloads: inputs made from the seed, rounds, checks.

Every workload is a closed loop driven from this one process: an
operation starts when the previous one has returned.  A round is a fixed
set of operations, and a run repeats whole rounds until its time is up,
so the share of failed operations does not depend on the run length.

* simulate -- `slungsim simulate` once per controller (PD, SMC, MPC) at
  0.3 kg on the 75 s square: three operations per round.
* sweep -- `run_sweep` over masses 0.005, 0.3 and 0.5 kg and all three
  controllers on one worker per core: one operation per case.
* trace-io -- `write_trace`, then `analyze` (read, rebuild the log,
  metrics) of one 75 s log at 0.3 kg, made in set-up by the controller
  the seed draws: two operations per round.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import replace
from time import monotonic

import numpy as np

from slungsim import cli, dynamics
from slungsim.config import SweepSpec
from slungsim.simloop import CONTROLLERS, SimConfig

import checks

FULL_DURATION = 75.0
LOAD_MASS = 0.3
SWEEP_MASSES = (0.005, 0.3, 0.5)
COUPLING_SAMPLES = 8


class Workload:
    """Constructing one is the cheap set-up (configuration) that a fresh
    interpreter repeats; `make_inputs` is the rest of the set-up.

    `round()` runs one round and returns (the (start, end) of each
    operation on the `time.monotonic` clock, failed operations); a check
    that fails raises `checks.CheckError`.
    """

    workers = 1

    def __init__(self, workdir, seed, duration):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.base = SimConfig(m_L=LOAD_MASS, duration=duration)
        # the contract's bands and bounds hold on the full square only
        self.contract = duration == FULL_DURATION

    def make_inputs(self):
        pass

    def final_check(self):
        """Checks made once, after the timed rounds."""

    def complete_trace(self):
        """Call, in a traced run, the layers the rounds did not call."""


class Simulate(Workload):
    name = "simulate"
    ops_per_round = len(CONTROLLERS)

    def __init__(self, workdir, seed, duration):
        super().__init__(workdir, seed, duration)
        self.configs = {}
        for c in CONTROLLERS:
            path = os.path.join(workdir, f"{c}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"controller = {c}\nm_L = {LOAD_MASS!r}\n"
                         f"trajectory = square\nduration = {duration!r}\n")
            self.configs[c] = path

    def out_dir(self, c):
        return os.path.join(self.workdir, "out-" + c)

    def round(self):
        spans, failed, e_max, peak = [], 0, {}, {}
        for c in CONTROLLERS:
            argv = ["simulate", "--config", self.configs[c],
                    "--out", self.out_dir(c)]
            t0 = monotonic()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            spans.append((t0, monotonic()))
            if rc != 0:
                failed += 1
                continue
            e_max[c], peak[c] = self.check(c)
        if self.contract and not failed:
            checks.check_controller_contract(e_max, peak)
        return spans, failed

    def check(self, c):
        base = self.base
        out = self.out_dir(c)
        cols, aborted = checks.parse_trace(os.path.join(out, "trace.csv"))
        checks.check_trace(cols, aborted, base.n_ticks + 1, base.dt_control,
                           base.params.L)
        e_max = checks.check_metrics_csv(os.path.join(out, "metrics.csv"),
                                         cols)
        rows = self.rng.sample(range(1, len(cols["t"]) - 1),
                               COUPLING_SAMPLES)
        checks.check_coupling(cols, rows, base.dt_control, LOAD_MASS,
                              base.params, dynamics.coupled_derivative_array)
        return e_max, checks.peak_attitude_deg(cols)

    def complete_trace(self):
        for c in CONTROLLERS:
            cli.read_trace(os.path.join(self.out_dir(c), "trace.csv"))


class Sweep(Workload):
    name = "sweep"
    ops_per_round = len(SWEEP_MASSES) * len(CONTROLLERS)

    def __init__(self, workdir, seed, duration):
        super().__init__(workdir, seed, duration)
        self.spec = SweepSpec(masses=SWEEP_MASSES,
                              base=SimConfig(duration=duration))
        self.workers = len(os.sched_getaffinity(0))
        self.replay = (self.rng.choice(CONTROLLERS),
                       self.rng.choice(SWEEP_MASSES))
        self.rows = None
        self.replay_log = None

    def round(self):
        t0 = monotonic()
        rows = cli.run_sweep(self.spec, jobs=self.workers)
        t1 = monotonic()
        failed = checks.check_sweep_rows(rows, self.spec.controllers,
                                         self.spec.masses, self.contract)
        if self.rows is None:
            self.rows = rows
        elif rows != self.rows:
            raise checks.CheckError("sweep rows differ between rounds")
        return [(t0, t1)], failed

    def final_check(self):
        """One case, drawn from the seed, run serially: equal bit for bit."""
        c, m = self.replay
        cfg = replace(self.spec.base, controller=c, m_L=m)
        log = cli.run(cfg)
        met = cli.compute_run_metrics(log, trajectory=cfg.trajectory)
        serial = (c, m, met.e_max, met.phi_max, met.theta_max, met.t_smax,
                  log.failed)
        row = next(r for r in self.rows if (r[0], r[1]) == (c, m))
        if row != serial:
            raise checks.CheckError(f"sweep row {row} differs from the "
                                    f"serial run {serial}")
        own = float(np.abs(log.err[:, :2]).max())
        if row[2] != own:
            raise checks.CheckError(f"sweep e_max {row[2]!r} differs from "
                                    f"the serial log's max |err| {own!r}")
        self.replay_log = log

    def complete_trace(self):
        path = os.path.join(self.workdir, "replay.csv")
        cli.write_trace(self.replay_log, path, self.spec.base.params)
        cli.read_trace(path)


class TraceIO(Workload):
    name = "trace-io"
    ops_per_round = 2

    def make_inputs(self):
        self.controller = self.rng.choice(CONTROLLERS)
        self.log = cli.run(replace(self.base, controller=self.controller))
        if self.log.failed:
            raise checks.CheckError(f"set-up run {self.controller} aborted: "
                                    f"{self.log.failure_reason}")
        self.want = cli.compute_run_metrics(self.log, trajectory="square")

    def complete_trace(self):
        for c in CONTROLLERS:
            if c != self.controller:
                cli.run(replace(self.base, controller=c))

    def round(self):
        params = self.base.params
        path = os.path.join(self.workdir, "trace.csv")
        t0 = monotonic()
        cli.write_trace(self.log, path, params)
        t1 = monotonic()
        trace = cli.read_trace(path)
        got = cli.compute_run_metrics(trace.to_log(), trajectory="square")
        t2 = monotonic()
        checks.check_round_trip(trace.columns, self.log, params.L)
        checks.check_same_metrics(got, self.want)
        return [(t0, t1), (t1, t2)], 0


WORKLOADS = {w.name: w for w in (Simulate, Sweep, TraceIO)}
