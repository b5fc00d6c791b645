"""Behaviour fingerprint of the default mass sweep.

    python3 perfbench/fingerprint.py

Runs the default sweep (11 masses x PD, SMC, MPC, 75 s each) from the
checkout's `src/`, prints every row with `%.17g`, and last the SHA-256 of
those row lines.  A change that keeps the program's outputs keeps the
digest; a change that moves any digit changes it, and the printed rows
show which.  It is a record to compare by hand, not a gate of the
benchmark.
"""

import os

# one BLAS thread per process, as in run.py
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def row_lines(rows):
    return ["%s,%.17g,%.17g,%.17g,%.17g,%.17g,%d" % (
        c, m, e_max, phi, theta, t_smax, failed)
        for c, m, e_max, phi, theta, t_smax, failed in rows]


def main():
    from slungsim.cli import run_sweep
    from slungsim.config import SweepSpec

    lines = row_lines(run_sweep(SweepSpec(),
                                jobs=len(os.sched_getaffinity(0))))
    print("controller,m_L,e_max,phi_max,theta_max,t_smax,failed")
    for line in lines:
        print(line)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
