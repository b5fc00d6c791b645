"""Per-layer tracing from outside the program.

A traced run rebinds, in the benchmark process only, the module-level
names that `simloop.run` and `cli` look up at call time, so the program's
own files stay untouched.  Calls made once per run or per operation
(`run`, `write_trace`, `read_trace`, `compute_run_metrics`, MPC
construction) and the benchmark's own phases (set-up, rounds) are kept as
spans in memory.  Calls made every control tick or below it (the
reference sample, the controller step, the RK4 step, the derivative) are
only counted, with their inclusive and self time summed, so a traced
75 s run stores a handful of spans instead of 400,000.

Sweep workers are forked from the benchmark process and inherit the
rebound names.  Each worker writes its totals to a file in the run's work
directory after every span; the benchmark merges those files after the
sweep returns.  Workers started by another method (spawn, forkserver) do
not inherit the hooks, and only the benchmark process's own calls count.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import statistics
import time
from collections import defaultdict

from slungsim import cli, controllers, mpc, simloop

# (owner, attribute, aggregate key) of every per-tick hook
TICK_HOOKS = (
    (simloop, "rk4_step", "rk4_step"),
    (simloop, "coupled_derivative_array", "derivative"),
    (simloop, "square_reference", "reference"),
    (controllers.PdController, "step", "step.PD"),
    (controllers.SmcController, "step", "step.SMC"),
    (mpc.MpcController, "step", "step.MPC"),
)
# the part of a run that is not physics: reference sampling, controller
LOOP_KEYS = ("reference", "step.PD", "step.SMC", "step.MPC")
STEP_KEYS = ("step.PD", "step.SMC", "step.MPC")


class Tracer:
    """Counts, inclusive time and self time per hooked call, plus spans.

    Self time is a call's duration minus the time of the hooked calls it
    made, so `rk4_step` self time is the vector glue around its four
    derivative evaluations.
    """

    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []
        self._stack = []        # time of hooked children, per open call
        self._open = []         # ids of open spans
        self._saved = []
        self._ids = itertools.count()
        self._main_pid = self._pid = os.getpid()

    def _wrap(self, key, fn, span=False, attrs=None):
        calls, incl, self_time = self.calls, self.incl, self.self_time
        stack, perf = self._stack, time.perf_counter

        def hooked(*args, **kwargs):
            if span:
                self._enter_process()
                mark = self._loop_totals()
                sid = f"{os.getpid()}.{next(self._ids)}"
                parent = self._open[-1] if self._open else None
                self._open.append(sid)
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = stack.pop()
                calls[key] += 1
                incl[key] += dt
                self_time[key] += dt - inner
                if stack:
                    stack[-1] += dt
                if span:
                    self._open.pop()
            if span:
                extra = attrs(args, out, mark) if attrs else {}
                self.spans.append({"id": sid, "parent": parent, "name": key,
                                   "start": t0, "end": t0 + dt, **extra})
                self._dump_if_worker()
            return out

        return hooked

    def _set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        """Rebind the hooked names; `uninstall` restores them."""
        for owner, name, key in TICK_HOOKS:
            self._set(owner, name, self._wrap(key, getattr(owner, name)))
        self._set(mpc.MpcController, "__init__",
                  self._wrap("mpc.build", mpc.MpcController.__init__,
                             span=True))
        self._set(cli, "run", self._wrap("run", cli.run, span=True,
                                         attrs=self._run_attrs))
        self._set(cli, "write_trace",
                  self._wrap("write_trace", cli.write_trace, span=True,
                             attrs=_trace_bytes))
        for name in ("read_trace", "compute_run_metrics"):
            self._set(cli, name,
                      self._wrap(name, getattr(cli, name), span=True))

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def _loop_totals(self):
        return ({k: self.incl[k] for k in LOOP_KEYS},
                sum(self.calls[k] for k in STEP_KEYS))

    def _run_attrs(self, args, log, mark):
        incl0, ticks0 = mark
        incl1, ticks1 = self._loop_totals()
        return {"controller": args[0].controller, "m_L": args[0].m_L,
                "ticks": ticks1 - ticks0,
                "loop_s": sum(incl1[k] - incl0[k] for k in LOOP_KEYS),
                "failed": bool(log.failed)}

    def _enter_process(self):
        """A forked worker starts with a copy of the parent's totals."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            for table in (self.calls, self.incl, self.self_time):
                table.clear()
            self.spans.clear()
            self._open.clear()

    def _dump_if_worker(self):
        if os.getpid() == self._main_pid:
            return
        path = os.path.join(self.dump_dir, f"tracer-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.state(), fh)

    def state(self):
        return {"calls": dict(self.calls), "incl": dict(self.incl),
                "self": dict(self.self_time), "spans": self.spans}

    def merge_worker_dumps(self):
        """Fold every worker file into these totals and delete it.

        Worker spans hang off no span of this process, so each is given
        the phase open here as its parent.
        """
        parent = self._open[-1] if self._open else None
        for name in sorted(os.listdir(self.dump_dir)):
            if not (name.startswith("tracer-") and name.endswith(".json")):
                continue
            path = os.path.join(self.dump_dir, name)
            with open(path, encoding="utf-8") as fh:
                st = json.load(fh)
            os.remove(path)
            for table, key in ((self.calls, "calls"), (self.incl, "incl"),
                               (self.self_time, "self")):
                for k, v in st[key].items():
                    table[k] += v
            for s in st["spans"]:
                if s["parent"] is None:
                    s["parent"] = parent
                self.spans.append(s)

    @contextlib.contextmanager
    def phase(self, name, workers=1):
        """Span of one benchmark phase (set-up or round) with its workers."""
        sid = f"bench.{next(self._ids)}"
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._open.remove(sid)
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "start": t0, "end": t1, "workers": workers})

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.state(), fh)


def _trace_bytes(args, _out, _mark):
    return {"bytes": os.path.getsize(args[1])}


def _per_call(tracer, key, scale, table=None):
    n = tracer.calls.get(key, 0)
    table = tracer.incl if table is None else table
    return table[key] / n * scale if n else 0.0


def layer_metrics(tracer, round_times):
    """Every per-layer metric of BENCHMARK.json from the merged totals."""
    spans = tracer.spans
    runs = [s for s in spans if s["name"] == "run" and not s["failed"]]
    out = {
        "dynamics.derivative_us": (_per_call(tracer, "derivative", 1e6), "us"),
        "dynamics.derivative_calls": (
            tracer.calls["derivative"] // len(runs) if runs else 0, "count"),
        "simloop.rk4_step_us": (_per_call(tracer, "rk4_step", 1e6), "us"),
        "simloop.rk4_glue_us": (
            _per_call(tracer, "rk4_step", 1e6, tracer.self_time), "us"),
        "simloop.ticks": (
            int(statistics.median(r["ticks"] for r in runs)) if runs else 0,
            "count"),
        "controllers.step_us.PD": (_per_call(tracer, "step.PD", 1e6), "us"),
        "controllers.step_us.SMC": (_per_call(tracer, "step.SMC", 1e6), "us"),
        "mpc.step_us": (_per_call(tracer, "step.MPC", 1e6), "us"),
        "mpc.build_ms": (_per_call(tracer, "mpc.build", 1e3), "ms"),
        "trajectory.reference_us": (_per_call(tracer, "reference", 1e6),
                                    "us"),
        "metrics.compute_ms": (_per_call(tracer, "compute_run_metrics", 1e3),
                               "ms"),
        "cli.write_trace_ms": (_per_call(tracer, "write_trace", 1e3), "ms"),
        "cli.read_trace_ms": (_per_call(tracer, "read_trace", 1e3), "ms"),
    }
    for label in ("PD", "SMC", "MPC"):
        phys = [r["end"] - r["start"] - r["loop_s"] for r in runs
                if r["controller"] == label]
        out["simloop.physics_s." + label] = (
            statistics.median(phys) if phys else 0.0, "s")
    sizes = [s["bytes"] for s in spans if s["name"] == "write_trace"]
    out["cli.trace_bytes"] = (int(statistics.median(sizes)) if sizes else 0,
                              "bytes")
    busy, capacity, n_phases = _run_busy(spans)
    out["cli.run_busy_s"] = (busy / n_phases if n_phases else 0.0, "s")
    out["cli.run_efficiency"] = (busy / capacity if capacity else 0.0,
                                 "ratio")
    out["trace.round_s"] = (statistics.median(round_times), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def _run_busy(spans):
    """Run wall time in the phases that made runs, and those phases' capacity.

    Capacity is a phase's wall time times its workers, so for the sweep
    the ratio of the two is the share of the pool's time spent simulating.
    """
    phases = {s["id"]: s for s in spans if s["id"].startswith("bench.")}
    busy = defaultdict(float)
    for s in spans:
        if s["name"] == "run" and s["parent"] in phases:
            busy[s["parent"]] += s["end"] - s["start"]
    capacity = sum((phases[p]["end"] - phases[p]["start"])
                   * phases[p]["workers"] for p in busy)
    return sum(busy.values()), capacity, len(busy)
