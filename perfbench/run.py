"""Run one benchmark workload and print its result as one JSON line.

  python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the last line of standard output holds the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run (see
README.md).  Times are scaled to the host's speed (see HostSpeed).
Exit status: 0 when every check passed, 1 when one failed (the result
line then says `"correct": false`), 2 when the program's sources are
missing, 130 on Ctrl-C.
"""

import os

# one BLAS thread per process: the sweep already runs one worker per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK_ROOT = os.path.join(HERE, ".work")
SPAN_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("simulate", "sweep", "trace-io")

# Times are reported in reference seconds: wall seconds times REF_KERNEL_S
# over the kernel's mean time over the same stretch of the run (see
# HostSpeed).
REF_KERNEL_S = 0.001
KERNEL_STEPS = 400

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
# a fresh interpreter: imports, then the workload's configuration; it
# prints the system-wide monotonic clock when done, so the time read does
# not depend on how promptly the parent notices the exit
SETUP_PROBE = """
import sys, time
src, here, name, workdir, seed, duration = sys.argv[1:]
sys.path[:0] = [src, here]
import workloads
workloads.WORKLOADS[name](workdir, int(seed), float(duration))
print(repr(time.monotonic()))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="run whole rounds until this many seconds passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--duration", type=float, default=75.0,
                   help="simulated seconds per run; shorter runs skip the "
                        "contract checks (for the benchmark's own tests)")
    return p.parse_args(argv)


def measure_setup(args, workdir, speed):
    """Median set-up time of a fresh interpreter, over repeats, in
    reference seconds."""
    times = []
    for i in range(SETUP_REPEATS):
        child_dir = os.path.join(workdir, f"setup-{i}")
        os.makedirs(child_dir)
        cmd = [sys.executable, "-c", SETUP_PROBE, SRC, HERE, args.workload,
               child_dir, str(args.seed), repr(args.duration)]
        t0 = time.monotonic()
        # run() kills the child on timeout and on Ctrl-C, then waits
        done = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True)
        t1 = float(done.stdout)
        # the kernel ran in this process, beside the child: not taken out
        times.append((t1 - t0) * speed.scale(t0, t1))
    return statistics.median(times)


def kernel():
    """Fixed work like the program's: small-array numpy arithmetic, scalar
    math and `%.17g` float round trips.  It calls nothing of the program."""
    x, v, acc = np.linspace(0.0, 1.0, 12), np.zeros(12), 0.0
    for i in range(KERNEL_STEPS):
        a = -0.5 * x + 0.1 * v
        v = v + 0.001 * a
        x = x + 0.001 * v
        acc += math.sqrt(x[0] * x[0] + 1.0)
        if i % 8 == 0:
            acc = float("%.17g" % acc)
    return acc


class HostSpeed:
    """Times of the kernel all through a run, to scale the run's times by.

    The 2-vCPU virtual machine of the README's figures changes speed by
    20 to 40 % within a second and drifts over minutes, with no steal
    time: CPU time moves with wall time.  So a SIGALRM every INTERVAL_S
    runs the kernel once, inside whatever the program is doing, and a
    stretch of the run is scaled by the mean of the kernel times that
    started in it.  The kernel thus sees the same host as the program,
    and its time is taken back out of the stretch it ran in.

    Inside `in_workers()` this process stops sampling, and each process
    forked from it samples instead, inside its own work, and appends its
    samples to a file in `dump_dir`; they are merged when the block ends.
    """

    INTERVAL_S = 0.05

    def __init__(self, dump_dir):
        self.dump_dir = dump_dir
        self.starts, self.times = [], []
        self._old = None
        self._paused = False
        self._forking = False
        self._out = None
        os.register_at_fork(after_in_child=self._forked)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        return self

    def __exit__(self, *exc):
        self._paused = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _sample(self, *_signal):
        t0 = time.monotonic()
        kernel()
        dt = time.monotonic() - t0
        if self._out:
            self._out.write(f"{t0!r} {dt!r}\n")
        else:
            self.starts.append(t0)
            self.times.append(dt)
        # re-armed here, so a slow kernel never runs inside another
        if not self._paused:
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    def _forked(self):
        if not self._forking:
            return      # not inside in_workers(): the child does not sample
        self._out = open(os.path.join(self.dump_dir,
                                      f"host-{os.getpid()}.txt"),
                         "w", encoding="utf-8", buffering=1)
        self._paused = False
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    @contextlib.contextmanager
    def in_workers(self):
        """Sample in the processes forked in this block, not in this one."""
        self._paused = self._forking = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            self._forking = False
            self._merge_dumps()
            self._paused = False
            self._sample()

    def _merge_dumps(self):
        pairs = list(zip(self.starts, self.times))
        for name in os.listdir(self.dump_dir):
            if not (name.startswith("host-") and name.endswith(".txt")):
                continue
            path = os.path.join(self.dump_dir, name)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    fields = line.split()
                    # a worker killed by the pool may leave half a line
                    if len(fields) == 2 and line.endswith("\n"):
                        pairs.append((float(fields[0]), float(fields[1])))
            os.remove(path)
        pairs.sort()
        self.starts = [p[0] for p in pairs]
        self.times = [p[1] for p in pairs]

    def _inside(self, t0, t1):
        lo = bisect.bisect_left(self.starts, t0)
        return self.times[lo:bisect.bisect_left(self.starts, t1)]

    def busy_s(self, t0, t1):
        """Time spent in the kernel between t0 and t1, by this process or
        by its sampling workers."""
        return math.fsum(self._inside(t0, t1))

    def scale(self, t0=-math.inf, t1=math.inf):
        """Factor that turns seconds between t0 and t1 into reference
        seconds; the whole run's when no kernel started in between."""
        inside = self._inside(t0, t1) or self.times
        return REF_KERNEL_S / statistics.fmean(inside)

    def mean_s(self):
        return statistics.fmean(self.times)


def peak_rss_mb():
    """Peak RSS of this process plus the largest peak among the children
    it has waited for (set-up interpreters, sweep workers): not the peak
    of their sum, since getrusage keeps only the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def own_s(speed, spans, workers):
    """Reference seconds of operations that ran between their spans'
    first start and last end, less the kernel's share of their workers."""
    t0, t1 = spans[0][0], spans[-1][1]
    wall = math.fsum(end - start - speed.busy_s(start, end) / workers
                     for start, end in spans)
    return wall * speed.scale(t0, t1)


def run(args, workdir):
    import workloads
    from checks import CheckError
    from tracing import Tracer, layer_metrics

    with HostSpeed(workdir) as speed:
        # a traced run reports layer metrics only, so it skips these children
        setup_s = 0.0 if args.trace else measure_setup(args, workdir, speed)
        tracer = Tracer(workdir) if args.trace else None
        if tracer:
            tracer.install()
        rounds, attempted, failed, correct = [], 0, 0, True
        try:
            wl = workloads.WORKLOADS[args.workload](workdir, args.seed,
                                                    args.duration)
            t0 = time.monotonic()
            with _phase(tracer, "setup", 1):
                wl.make_inputs()
            setup_s += own_s(speed, [(t0, time.monotonic())], 1)

            start = time.monotonic()
            while True:
                attempted += wl.ops_per_round
                with _phase(tracer, "round", wl.workers), \
                        _sampling(speed, wl.workers):
                    spans, n_failed = wl.round()
                    if tracer:
                        tracer.merge_worker_dumps()
                rounds.append(own_s(speed, spans, wl.workers))
                failed += n_failed
                print(f"round {len(rounds)}: {rounds[-1]:.4f} s, "
                      f"{n_failed} failed", file=sys.stderr)
                if time.monotonic() - start >= args.seconds:
                    break
            wl.final_check()
            if tracer:
                wl.complete_trace()
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        finally:
            if tracer:
                tracer.uninstall()

    print(f"kernel mean {speed.mean_s() * 1e3:.3f} ms over "
          f"{len(speed.times)} samples; reference round median "
          f"{statistics.median(rounds or [0]):.4f} s, set-up {setup_s:.4f} s",
          file=sys.stderr)
    if tracer:
        metrics = layer_metrics(tracer, rounds) if rounds else {}
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracer.write(os.path.join(
            SPAN_DIR, f"spans-{args.workload}-{args.seed}.json"))
    else:
        metrics = {
            "round_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        } if rounds else {}
    return {"correct": correct and bool(rounds), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _sampling(speed, workers):
    return speed.in_workers() if workers > 1 else contextlib.nullcontext()


def _phase(tracer, name, workers):
    return tracer.phase(name, workers) if tracer else contextlib.nullcontext()


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slungsim", "simloop.py")):
        print(f"slungsim sources not found under {SRC}: run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        result = run(args, workdir)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
