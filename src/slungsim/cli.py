"""Command-line front end: single runs, mass sweeps, trace analysis,
thrust-budget queries.  All outputs are plain CSV; no plotting.

Exit codes: 0 success, 2 configuration error, 3 simulation abort,
4 I/O error or malformed trace, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import multiprocessing
import os
import signal
import sys
from dataclasses import fields
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .config import (DEFAULT_SWEEP_MASSES, ConfigError, SweepSpec,
                     load_config, load_sweep_spec)
from .dynamics import VehicleParams, format_rows
from .metrics import (SWEPT, UNREPORTED, RunMetrics, compute_run_metrics,
                      critical_motion_mass, max_feasible_accel)
from .simloop import LOG_WIDTH, TRACE_COLUMNS, SimConfig, SimLog, run
from .trajectory import TRAJECTORIES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_IO = 4
EXIT_INTERRUPT = 130

# metrics.csv's columns (then failure_reason) and analyze's lines: the
# RunMetrics fields in order, but the one marked UNREPORTED
RUN_FIELDS = tuple(f.name for f in fields(RunMetrics)
                   if f.metadata != UNREPORTED)
_SWEPT = {f.name: f.type for f in fields(RunMetrics) if f.metadata == SWEPT}
# sweep.csv's columns, each with the type that read_sweep parses it by:
# the case, its RunMetrics fields marked SWEPT, then the failure reason
SWEEP_COLUMNS = {"controller": str, "m_L": float, **_SWEPT,
                 "failure_reason": str}
_SWEEP_TUPLE = ("controller", "m_L", "e_max", "phi_max", "theta_max",
                "t_smax", "failed")         # run_sweep's fixed row


def _cell(v, fmt: str = "%.17g") -> str:
    """One value as text: floats by fmt, stage times joined by ';',
    counts and flags as integers, text as it is."""
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return ";".join(fmt % x for x in v)
    if isinstance(v, int):
        return "%d" % v
    return fmt % v


@contextlib.contextmanager
def _replacing(path: str):
    """A text file that replaces path whole, or leaves it as it was.

    The block writes a temporary file beside path, which is moved onto
    path when the block ends.  On any exception, KeyboardInterrupt
    included, the temporary file is removed and the exception goes on.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_TRACE_ROW = ",".join(["%.17g"] * (len(TRACE_COLUMNS) - 1)) + ",%d\n"
_BLOCK_ROWS = 256


def write_trace(log: SimLog, path: str, params: VehicleParams):
    """Emit the trace CSV, whole or not at all; aborted runs get a
    trailing comment marker.

    Rows go out 256 at a time, so memory stays bounded by one block.
    The compiled format_rows gives a block's text where a compiler built
    it; where it does not, or it hands the block back (a flag that is not
    0 or 1, a block that is no C-contiguous float64 array), one `%` of
    `_TRACE_ROW`, repeated once per row, formats the block's values as
    Python floats.  The two give the same text.  The log's rows are
    already in file order, so params is not needed; it stays in the
    signature for existing callers.
    """
    n_cols = len(TRACE_COLUMNS)
    with _replacing(path) as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for k0 in range(0, log.n_rows, _BLOCK_ROWS):
            block = log.rows[k0:k0 + _BLOCK_ROWS]
            text = format_rows(block, n_cols) if format_rows else None
            if text is None:
                text = _TRACE_ROW * len(block) % tuple(
                    block[:, :n_cols].ravel().tolist())
            fh.write(text)
        if log.failed:
            fh.write(f"# aborted: {log.failure_reason}\n")


class TraceError(ValueError):
    """Malformed trace file; the message names the file."""


def read_trace(path: str) -> SimLog:
    """Parse a trace file written by `write_trace` into a SimLog.

    A trace is a header naming `TRACE_COLUMNS`, then data rows of 27
    comma-separated numbers in UTF-8. Blank lines are skipped and ``#``
    lines are comments; the last ``# aborted: <reason>`` marker sets
    `failed` and `failure_reason`. The file carries no load velocities,
    so the log's load_r_dot and load_s_dot columns are zero. The file is
    read once: numpy's C reader converts the rows as they are streamed
    from it, so a field must be a number as numpy reads it (ASCII digits,
    no ``_`` separators). Every value must be finite, ``sat_flag`` 0 or
    1, and ``t`` must rise from row to row. Anything else raises
    TraceError naming the file and, for a row, the line of the first row
    refused.
    """
    n_cols = len(TRACE_COLUMNS)
    pad = ",0" * (LOG_WIDTH - n_cols)
    linenos = []
    aborted = []

    def data_lines(fh):
        # pad each row with zeros for the load velocities a trace lacks
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

    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            if tuple(fh.readline().strip().split(",")) != TRACE_COLUMNS:
                raise TraceError(f"{path}: unexpected trace header")
            lines = data_lines(fh)
            # peek first: np.loadtxt warns on an input with no lines
            first = next(lines, None)
            if first is None:
                raise TraceError(f"{path}: no data rows")
            try:
                rows = np.loadtxt(itertools.chain((first,), lines),
                                  delimiter=",", ndmin=2, comments=None)
            except (TraceError, UnicodeDecodeError):
                # raised by the line generator; both are ValueErrors too
                raise
            except ValueError:
                # numpy converts a row before it pulls the next one, so
                # the refused row is the last line the generator yielded
                raise TraceError(f"{path}:{linenos[-1]}: "
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
    return SimLog(rows=rows, failed=bool(aborted),
                  failure_reason=aborted[-1] if aborted else "")


def write_metrics(log: SimLog, path: str, trajectory: str):
    m = compute_run_metrics(log, trajectory=trajectory)
    with _replacing(path) as fh:
        w = csv.writer(fh)
        w.writerow(RUN_FIELDS + ("failure_reason",))
        w.writerow([_cell(getattr(m, f)) for f in RUN_FIELDS]
                   + [log.failure_reason])


def _sweep_case(cfg: SimConfig) -> dict:
    """One sweep.csv row, keyed by column name.

    A case that raises becomes a flagged row of NaNs whose reason is the
    error; an aborted run keeps its metrics and its abort reason.
    """
    try:
        log = run(cfg)
        met = vars(compute_run_metrics(log, trajectory=cfg.trajectory))
        reason = log.failure_reason
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
        print(f"sweep case {cfg.controller} m_L={cfg.m_L:g} failed: "
              f"{reason}", file=sys.stderr)
        met = {**dict.fromkeys(_SWEPT, math.nan), "failed": True}
    return {"controller": cfg.controller, "m_L": cfg.m_L,
            **{f: met[f] for f in _SWEPT}, "failure_reason": reason}


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _sweep_rows(spec: SweepSpec, jobs: Optional[int]):
    """The sweep.csv row of every case, in `run_sweep`'s order."""
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    cpus = _usable_cpus()
    jobs = min(cpus if jobs is None else jobs, cpus, len(spec.cases))
    if jobs == 1:
        return [_sweep_case(cfg) for cfg in spec.cases]
    # Ctrl-C reaches the workers too; they ignore it, and the pool's exit
    # terminates them once the interrupt stops the parent.  It is held
    # until the `with` block owns the pool: landing in Pool's constructor,
    # it would leave workers that nothing stops.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        with multiprocessing.Pool(
                processes=jobs, initializer=signal.signal,
                initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            return pool.map(_sweep_case, spec.cases, chunksize=1)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def run_sweep(spec: SweepSpec, jobs: Optional[int] = None):
    """All (controller, mass) cases; failures become flagged rows.

    Rows come back sorted by controller (PD, SMC, MPC) then mass, each
    the 7-tuple of its sweep.csv row's `_SWEEP_TUPLE` columns: a fixed
    API that the benchmark reads by position.  Worker processes only
    simulate; the caller writes any files.  jobs (default: the usable
    CPUs) is capped at them and at the case count; < 1 is a ConfigError.
    """
    return [tuple(r[c] for c in _SWEEP_TUPLE) for r in _sweep_rows(spec, jobs)]


def write_sweep(rows, path: str):
    """Write sweep.csv from rows as `read_sweep` returns them: dicts keyed
    by SWEEP_COLUMNS, each cell's text following from its value's type."""
    with _replacing(path) as fh:
        # csv quotes a "\r" in a cell only where lines end in "\r"
        lf = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        w = csv.writer(lf, lineterminator="\r\n")
        w.writerow(SWEEP_COLUMNS)
        w.writerows([_cell(row[c]) for c in SWEEP_COLUMNS] for row in rows)


def read_sweep(path: str):
    """The rows `write_sweep` wrote, each cell parsed by its column's type."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return [{c: bool(int(r[c])) if t is bool else t(r[c]) for c, t in
                 SWEEP_COLUMNS.items()} for r in csv.DictReader(fh)]


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    # run first, so a config error from the run leaves no output directory
    log = run(cfg)
    os.makedirs(args.out, exist_ok=True)
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
    # run first, so a config error from the sweep leaves no output directory
    rows = _sweep_rows(spec, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    write_sweep(rows, path)
    n_failed = sum(r["failed"] for r in rows)
    print(f"wrote {path} ({len(rows)} rows, {n_failed} failed)")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    log = read_trace(args.trace)
    m = compute_run_metrics(log, trajectory=args.trajectory)
    for f in RUN_FIELDS:
        print(f"{f} = {_cell(getattr(m, f), '%.6f')}")
    return EXIT_OK


def _cmd_critical_mass(args) -> int:
    for flag, v in (("--u1max", args.u1max), ("--m-q", args.m_q),
                    ("--g", args.g)):
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{flag} must be positive and finite")
    if not (math.isfinite(args.accel) and args.accel >= 0.0):
        raise ConfigError("--accel must be non-negative and finite")
    m_cm = critical_motion_mass(args.u1max, args.accel, args.m_q, args.g)
    feasible = m_cm > 0.0
    # At m_cm the weight takes U1_max cos(tilt), leaving g tan(tilt) =
    # accel; max_feasible_accel could round that weight above U1_max.
    a_cm = args.accel if feasible else 0.0
    state = "feasible" if feasible else "infeasible"
    print(f"m_cm = {m_cm:.6f} kg ({state})")
    print(f"a_cm = {a_cm:.6f} m/s^2")
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
                   choices=TRAJECTORIES)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("critical-mass",
                       help="thrust-budget mass and acceleration table")
    p.add_argument("--u1max", type=float, required=True)
    p.add_argument("--accel", type=float, required=True)
    p.add_argument("--m-q", type=float, default=VehicleParams.m_q)
    p.add_argument("--g", type=float, default=VehicleParams.g)
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


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    """The `slungsim` command: main, with Ctrl-C ending in one line on
    stderr and EXIT_INTERRUPT instead of a traceback.  main itself lets
    KeyboardInterrupt through to callers that run it in-process."""
    try:
        return main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(console_main())
