"""Command-line front end: single runs, mass sweeps, trace analysis,
thrust-budget queries.  All outputs are plain CSV; no plotting.

Exit codes: 0 success, 2 configuration error, 3 simulation abort,
4 I/O error or malformed trace.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import multiprocessing
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .config import (DEFAULT_SWEEP_MASSES, ConfigError, SweepSpec,
                     load_config, load_sweep_spec)
from .dynamics import VehicleParams
from .metrics import (compute_run_metrics, critical_mass_report,
                      max_feasible_accel)
from .simloop import (CONTROLLERS, LOG_WIDTH, TRACE_COLUMNS, SimConfig,
                      SimLog, run)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_IO = 4

SWEEP_COLUMNS = ("controller", "m_L", "e_max", "phi_max", "theta_max",
                 "t_smax", "failed")


def _fmt(v: float) -> str:
    return "%.17g" % v


_TRACE_ROW = ",".join(["%.17g"] * (len(TRACE_COLUMNS) - 1)) + ",%d\n"


def write_trace(log: SimLog, path: str, params: VehicleParams):
    """Emit the trace CSV; aborted runs get a trailing comment marker.

    The log's rows are already in file order, so params is not needed; it
    stays in the signature for existing callers.
    """
    n_cols = len(TRACE_COLUMNS)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        # rows go out as Python floats, a block at a time to bound memory
        for k0 in range(0, log.n_rows, 64):
            block = log.rows[k0:k0 + 64, :n_cols].tolist()
            fh.write("".join([_TRACE_ROW % tuple(row) for row in block]))
        if log.failed:
            fh.write(f"# aborted: {log.failure_reason}\n")


@dataclass
class Trace:
    """Parsed trace file in SimLog row layout, plus the failure marker.

    Trace files do not carry the load velocities; metrics never read
    them, so those two columns are zero.
    """

    rows: np.ndarray
    failed: bool
    reason: str

    @property
    def columns(self) -> dict:
        """One view per trace column, by name."""
        return {name: self.rows[:, i] for i, name in enumerate(TRACE_COLUMNS)}

    def to_log(self) -> SimLog:
        return SimLog(rows=self.rows, failed=self.failed,
                      failure_reason=self.reason)


class TraceError(ValueError):
    """Malformed trace file; the message names the file."""


def _data_lines(fh, path: str, linenos: list, aborted: list):
    """Yield the stripped data lines of an open trace, as log rows.

    Each line gets a zero for every log column a trace does not carry
    (the load velocities), so the parsed rows are in SimLog layout.  The
    line numbers go to ``linenos`` and ``# aborted:`` reasons to
    ``aborted``; a wrong field count raises TraceError.
    """
    n_cols = len(TRACE_COLUMNS)
    pad = ",0" * (LOG_WIDTH - n_cols)
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        if line[0] == "#":
            if line.startswith("# aborted:"):
                aborted.append(line[len("# aborted:"):].strip())
            continue
        n_fields = line.count(",") + 1
        if n_fields != n_cols:
            raise TraceError(f"{path}:{lineno}: expected {n_cols} "
                             f"fields, got {n_fields}")
        linenos.append(lineno)
        yield line + pad


def _parse_rows(lines) -> np.ndarray:
    """numpy's C reader on an iterable of text rows: a 2-D float array."""
    return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)


@contextlib.contextmanager
def _open_trace(path: str):
    """The trace opened as text, past a checked header."""
    with open(path, "r", encoding="utf-8") as fh:
        if tuple(fh.readline().strip().split(",")) != TRACE_COLUMNS:
            raise TraceError(f"{path}: unexpected trace header")
        yield fh


def _first_unparsable_line(path: str) -> int:
    """Line number of the first data line numpy's reader refuses.

    Runs only after the streamed parse has failed, so every line up to
    the refused one already passed the field-count and UTF-8 checks.
    """
    linenos = []
    with _open_trace(path) as fh:
        for line in _data_lines(fh, path, linenos, []):
            try:
                _parse_rows((line,))
            except ValueError:
                return linenos[-1]
    raise AssertionError(f"{path}: numpy refused no single line")


def read_trace(path: str) -> Trace:
    """Parse a trace file written by `write_trace`, checking every line.

    A trace is a header naming `TRACE_COLUMNS`, then data rows of 27
    comma-separated numbers in UTF-8. Blank lines are skipped and ``#``
    lines are comments; the last ``# aborted: <reason>`` marker sets
    `failed` and `reason`. numpy's C reader parses the rows as they are
    streamed from the file, so a field must be a number as numpy reads
    it (ASCII digits, no ``_`` separators). Every value must be finite,
    ``sat_flag`` 0 or 1, and ``t`` must rise from row to row. Anything
    else raises TraceError naming the file and, for a row, its line.
    """
    n_cols = len(TRACE_COLUMNS)
    linenos = []
    aborted = []
    try:
        with _open_trace(path) as fh:
            lines = _data_lines(fh, path, linenos, aborted)
            # peek first: np.loadtxt warns on an input with no lines
            first = next(lines, None)
            if first is None:
                raise TraceError(f"{path}: no data rows")
            try:
                rows = _parse_rows(itertools.chain((first,), lines))
            except (TraceError, UnicodeDecodeError):
                # raised by the line generator; both are ValueErrors too
                raise
            except ValueError:
                raise TraceError(f"{path}:{_first_unparsable_line(path)}: "
                                 "non-numeric field") from None
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: not UTF-8 text ({exc.reason})") from None
    trace = rows[:, :n_cols]
    # write_trace emits only finite values, a 0/1 saturation flag and a
    # rising time column (the metrics divide by its first step)
    finite = np.isfinite(trace).all(axis=1)
    flag_ok = (trace[:, -1] == 0.0) | (trace[:, -1] == 1.0)
    rising = np.ones(len(trace), dtype=bool)
    rising[1:] = trace[1:, 0] > trace[:-1, 0]
    bad = ~(finite & flag_ok & rising)
    if bad.any():
        k = int(np.argmax(bad))
        what = ("non-finite field" if not finite[k]
                else "sat_flag must be 0 or 1" if not flag_ok[k]
                else "t must increase from row to row")
        raise TraceError(f"{path}:{linenos[k]}: {what}")
    return Trace(rows=rows, failed=bool(aborted),
                 reason=aborted[-1] if aborted else "")


def write_metrics(log: SimLog, path: str, trajectory: str):
    m = compute_run_metrics(log, trajectory=trajectory)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["e_max", "err_x_max", "err_y_max", "phi_max",
                    "theta_max", "t_smax", "stage_times", "arrival_time",
                    "saturation_count", "failed", "failure_reason"])
        w.writerow([_fmt(m.e_max), _fmt(m.err_x_max), _fmt(m.err_y_max),
                    _fmt(m.phi_max), _fmt(m.theta_max), _fmt(m.t_smax),
                    ";".join(_fmt(v) for v in m.stage_times),
                    _fmt(m.arrival_time), m.saturation_count,
                    int(m.failed), log.failure_reason])


def _sweep_case(case):
    """One sweep row; a case that raises becomes a flagged row of NaNs."""
    controller, m_L, base = case
    try:
        cfg = replace(base, controller=controller, m_L=m_L)
        log = run(cfg)
        met = compute_run_metrics(log, trajectory=cfg.trajectory)
    except Exception as exc:
        print(f"sweep case {controller} m_L={m_L:g} failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return (controller, m_L, math.nan, math.nan, math.nan, math.nan,
                True)
    return (controller, m_L, met.e_max, met.phi_max, met.theta_max,
            met.t_smax, log.failed)


def run_sweep(spec: SweepSpec, jobs: Optional[int] = None):
    """All (controller, mass) cases; failures become flagged rows.

    Rows come back sorted by controller (PD, SMC, MPC) then mass.  Worker
    processes only simulate; the caller writes any files.
    """
    cases = [(c, m, spec.base) for c in spec.controllers
             for m in spec.masses]
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(cases)))
    if jobs == 1:
        results = [_sweep_case(c) for c in cases]
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(_sweep_case, cases, chunksize=1)
    results.sort(key=lambda r: (CONTROLLERS.index(r[0]), r[1]))
    return results


def write_sweep(results, path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for controller, m_L, e_max, phi_max, theta_max, t_smax, failed in \
                results:
            fh.write("%s,%s,%s,%s,%s,%s,%d\n" % (
                controller, _fmt(m_L), _fmt(e_max), _fmt(phi_max),
                _fmt(theta_max), _fmt(t_smax), int(failed)))


def read_sweep(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            rows.append({
                "controller": row["controller"],
                "m_L": float(row["m_L"]),
                "e_max": float(row["e_max"]),
                "phi_max": float(row["phi_max"]),
                "theta_max": float(row["theta_max"]),
                "t_smax": float(row["t_smax"]),
                "failed": bool(int(row["failed"])),
            })
    return rows


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    log = run(cfg)
    trace_path = os.path.join(args.out, "trace.csv")
    metrics_path = os.path.join(args.out, "metrics.csv")
    write_trace(log, trace_path, cfg.params)
    write_metrics(log, metrics_path, cfg.trajectory)
    print(f"wrote {trace_path}")
    print(f"wrote {metrics_path}")
    if log.failed:
        print(f"run aborted: {log.failure_reason}", file=sys.stderr)
        return EXIT_ABORT
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.config)
    os.makedirs(args.out, exist_ok=True)
    results = run_sweep(spec, jobs=args.jobs)
    path = os.path.join(args.out, "sweep.csv")
    write_sweep(results, path)
    n_failed = sum(1 for r in results if r[6])
    print(f"wrote {path} ({len(results)} rows, {n_failed} failed)")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    trace = read_trace(args.trace)
    log = trace.to_log()
    m = compute_run_metrics(log, trajectory=args.trajectory)
    print(f"e_max = {m.e_max:.6f}")
    print(f"err_x_max = {m.err_x_max:.6f}")
    print(f"err_y_max = {m.err_y_max:.6f}")
    print(f"phi_max = {m.phi_max:.6f}")
    print(f"theta_max = {m.theta_max:.6f}")
    print(f"t_smax = {m.t_smax:.6f}")
    print("stage_times = " + ";".join(f"{v:.6f}" for v in m.stage_times))
    print(f"arrival_time = {m.arrival_time:.6f}")
    print(f"saturation_count = {m.saturation_count}")
    print(f"failed = {int(m.failed)}")
    return EXIT_OK


def _cmd_critical_mass(args) -> int:
    for flag, v in (("--u1max", args.u1max), ("--m-q", args.m_q),
                    ("--g", args.g)):
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{flag} must be positive and finite")
    if not (math.isfinite(args.accel) and args.accel >= 0.0):
        raise ConfigError("--accel must be non-negative and finite")
    rep = critical_mass_report(args.u1max, args.accel, m_q=args.m_q,
                               g=args.g)
    state = "feasible" if rep.feasible else "infeasible"
    print(f"m_cm = {rep.m_cm:.6f} kg ({state})")
    print(f"a_cm = {rep.a_cm:.6f} m/s^2")
    print("m_L,a_max")
    for m_L in DEFAULT_SWEEP_MASSES:
        try:
            a = max_feasible_accel(args.u1max, args.m_q, m_L, args.g)
            print(f"{m_L:.3f},{a:.6f}")
        except ValueError:
            print(f"{m_L:.3f},infeasible")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slungsim",
        description="Quadrotor slung-load control benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run the load-mass sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("analyze", help="recompute metrics from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--trajectory", default="square",
                   choices=("square", "single_leg", "hover"))
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("critical-mass",
                       help="thrust-budget mass and acceleration table")
    p.add_argument("--u1max", type=float, required=True)
    p.add_argument("--accel", type=float, required=True)
    p.add_argument("--m-q", type=float, default=1.0)
    p.add_argument("--g", type=float, default=9.81)
    p.set_defaults(func=_cmd_critical_mass)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
