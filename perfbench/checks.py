"""Checks of the program's outputs, made apart from the program.

Each check restates what it compares against (the square's closed form,
the cable geometry, the coupled relations, the contract bands) instead of
calling the code it checks, and raises `CheckError` naming the first
violation.  The benchmark's tests feed each check a corrupted output to
show that it fails.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# the 27 trace columns the README documents, in file order
TRACE_COLUMNS = (
    "t", "x", "y", "z", "vx", "vy", "vz", "phi", "theta", "psi",
    "p", "q", "r_rate", "load_r", "load_s", "load_zeta",
    "U1", "U2", "U3", "U4", "ref_x", "ref_y", "ref_z",
    "err_x", "err_y", "err_z", "sat_flag",
)

# square reference: trapezoid legs around the unit square at 1.5 m
A_PEAK = 0.032          # m/s^2
T_ACCEL = 2.5           # s
T_CRUISE = 10.0         # s
Z_HOLD = 1.5            # m
CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                    [0.0, 0.0]])
REF_TOL = 1e-12         # m; the closed form sums in another order
COUPLING_TOL = 1e-10

# contract at 0.3 kg on the 75 s square, and over the mass sweep
E_MAX_BANDS = {"PD": (0.03, 0.07), "SMC": (0.02, 0.06), "MPC": (0.01, 0.03)}
PEAK_DEG_AT_03 = 4.5
PEAK_DEG = 6.0
E_MAX_SPREAD = 0.10


class CheckError(Exception):
    """An output of the program is wrong."""


def parse_trace(path):
    """(columns, aborted) of a trace CSV, parsed without the program."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if tuple(lines[0].split(",")) != TRACE_COLUMNS:
        raise CheckError(f"{path}: header is not the documented 27 columns")
    aborted = any(line.startswith("# aborted:") for line in lines[1:])
    rows = [line.split(",") for line in lines[1:]
            if line and not line.startswith("#")]
    data = np.array(rows, dtype=float).reshape(len(rows), len(TRACE_COLUMNS))
    return {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}, aborted


def square_reference(t):
    """Closed-form reference position (x, y, z) at each time in `t`."""
    t = np.asarray(t, dtype=float)
    v = A_PEAK * T_ACCEL
    t_leg = 2.0 * T_ACCEL + T_CRUISE
    leg = A_PEAK * T_ACCEL ** 2 + v * T_CRUISE
    stage = np.minimum(np.floor(t / t_leg), 4).astype(int)
    tau = t - stage * t_leg
    d = np.where(tau < T_ACCEL, 0.5 * A_PEAK * tau ** 2,
                 np.where(tau < T_ACCEL + T_CRUISE,
                          0.5 * A_PEAK * T_ACCEL ** 2 + v * (tau - T_ACCEL),
                          leg - 0.5 * A_PEAK * (t_leg - tau) ** 2))
    d = np.where(stage == 4, 0.0, d) / leg
    nxt = np.minimum(stage + 1, 4)
    xy = CORNERS[stage] + (CORNERS[nxt] - CORNERS[stage]) * d[:, None]
    return np.column_stack([xy, np.full(len(t), Z_HOLD)])


def check_trace(cols, aborted, n_rows, dt, L):
    """A whole run's trace: rows, time base, error, reference, cable."""
    if aborted:
        raise CheckError("trace ends with an abort marker")
    n = len(cols["t"])
    if n != n_rows:
        raise CheckError(f"trace has {n} rows, expected {n_rows}")
    if not np.array_equal(cols["t"], np.arange(n) * dt):
        raise CheckError("time column is not k * dt_control")
    for axis in "xyz":
        if not np.array_equal(cols["err_" + axis],
                              cols["ref_" + axis] - cols[axis]):
            raise CheckError(f"err_{axis} is not ref_{axis} - {axis}")
    ref = np.column_stack([cols["ref_x"], cols["ref_y"], cols["ref_z"]])
    worst = float(np.abs(ref - square_reference(cols["t"])).max())
    if worst > REF_TOL:
        raise CheckError(f"reference is {worst:.3g} m off the trapezoid "
                         "square")
    r, s = cols["load_r"], cols["load_s"]
    if not np.array_equal(cols["load_zeta"], np.sqrt(L * L - r * r - s * s)):
        raise CheckError("load_zeta is not sqrt(L^2 - r^2 - s^2)")


def check_metrics_csv(path, cols):
    """metrics.csv e_max against the largest horizontal error in the trace."""
    with open(path, encoding="utf-8", newline="") as fh:
        row = next(csv.DictReader(fh))
    own = max(float(np.abs(cols["err_x"]).max()),
              float(np.abs(cols["err_y"]).max()))
    if float(row["e_max"]) != own:
        raise CheckError(f"metrics.csv e_max {row['e_max']} differs from "
                         f"the trace's max |err| {own!r}")
    return own


def coupling_residuals(phi, theta, r, s, vr, vs, U1, m_L, accels, params):
    """The five relations of the coupled model, |lhs - rhs|/max(1, |rhs|).

    Restated from the relations' written form: three translational rows
    with the load's reaction, two rows of the taut-cable constraint.
    """
    L, g, m_q = params.L, params.g, params.m_q
    M = m_q + m_L
    mu = m_L / M
    z = math.sqrt(L * L - r * r - s * s)
    ax, ay, az, ar, as_ = accels
    B = ((L * L - s * s) * vr * vr + (L * L - r * r) * vs * vs
         + 2.0 * r * s * vr * vs)
    pairs = (
        (ax + mu * ar, math.cos(phi) * math.sin(theta) * U1 / M),
        (ay + mu * as_, -math.sin(phi) * U1 / M),
        (az + mu * (r / z) * ar + mu * (s / z) * as_,
         math.cos(phi) * math.cos(theta) * U1 / M
         - mu * (vr * vr + vs * vs) / z - mu * (r * vr + s * vs) ** 2 / z ** 3
         - g * (m_L * z / L + m_q) / M),
        ((s * s - L * L) * z * z * ar - z ** 4 * ax - r * z ** 3 * az
         - r * s * z * z * as_, r * B + r * g * z ** 3),
        ((r * r - L * L) * z * z * as_ - z ** 4 * ay - s * z ** 3 * az
         - r * s * z * z * ar, s * B + s * g * z ** 3),
    )
    return [abs(lhs - rhs) / max(1.0, abs(rhs)) for lhs, rhs in pairs]


def check_coupling(cols, rows, dt, m_L, params, derivative):
    """The coupled relations at logged states, to COUPLING_TOL.

    The trace holds the load offsets but not their rates, so each sampled
    row takes them by central difference of its neighbours.
    """
    names = TRACE_COLUMNS[1:13]
    for k in rows:
        r, s = cols["load_r"][k], cols["load_s"][k]
        vr = (cols["load_r"][k + 1] - cols["load_r"][k - 1]) / (2.0 * dt)
        vs = (cols["load_s"][k + 1] - cols["load_s"][k - 1]) / (2.0 * dt)
        y = np.array([cols[n][k] for n in names] + [r, s, vr, vs])
        u = np.array([cols[n][k] for n in ("U1", "U2", "U3", "U4")])
        d = derivative(y, u, m_L, params)
        accels = (d[3], d[4], d[5], d[14], d[15])
        res = coupling_residuals(y[6], y[7], r, s, vr, vs, u[0], m_L,
                                 accels, params)
        if max(res) > COUPLING_TOL:
            raise CheckError(f"coupled relations off by {max(res):.3g} at "
                             f"row {k}")


def peak_attitude_deg(cols):
    return math.degrees(max(float(np.abs(cols["phi"]).max()),
                            float(np.abs(cols["theta"]).max())))


def check_controller_contract(e_max, peak_deg):
    """At 0.3 kg on the 75 s square: ordering, bands, peak attitude."""
    if not e_max["MPC"] < e_max["SMC"] < e_max["PD"]:
        raise CheckError(f"e_max not ordered MPC < SMC < PD: {e_max}")
    for c, (lo, hi) in E_MAX_BANDS.items():
        if not lo <= e_max[c] <= hi:
            raise CheckError(f"{c} e_max {e_max[c]:.5f} outside "
                             f"[{lo}, {hi}]")
    for c, peak in peak_deg.items():
        if peak > PEAK_DEG_AT_03:
            raise CheckError(f"{c} peak attitude {peak:.3f} deg above "
                             f"{PEAK_DEG_AT_03}")


def check_sweep_rows(rows, controllers, masses, contract):
    """Sweep rows: one per case in order, finite, and with `contract` the
    ordering, spread and attitude bounds over the full 75 s square.

    Returns the number of failed rows; the contract is judged on the rest.
    """
    keys = [(r[0], r[1]) for r in rows]
    expected = [(c, m) for c in controllers for m in masses]
    if keys != expected:
        raise CheckError(f"sweep rows are not one per case in order: {keys}")
    ok = [r for r in rows if not r[6]]
    for r in ok:
        if not all(math.isfinite(v) for v in r[2:6]):
            raise CheckError(f"non-finite metric in sweep row {r}")
    if not contract:
        return len(rows) - len(ok)
    table = {(r[0], r[1]): r for r in ok}
    for m in masses:
        e = {c: table[(c, m)][2] for c in controllers if (c, m) in table}
        if len(e) == 3 and not e["MPC"] < e["SMC"] < e["PD"]:
            raise CheckError(f"e_max not ordered MPC < SMC < PD at "
                             f"{m} kg: {e}")
    for c in controllers:
        col = [table[(c, m)][2] for m in masses if (c, m) in table]
        if col and (max(col) - min(col)) / min(col) > E_MAX_SPREAD:
            raise CheckError(f"{c} e_max spread over masses above "
                             f"{E_MAX_SPREAD:.0%}: {col}")
    for r in ok:
        if max(r[3], r[4]) > PEAK_DEG:
            raise CheckError(f"peak attitude above {PEAK_DEG} deg in {r}")
    return len(rows) - len(ok)


def check_round_trip(columns, log, L):
    """Columns read back from a written trace equal the log exactly."""
    expected = {"t": log.t, "load_r": log.load[:, 0],
                "load_s": log.load[:, 1], "sat_flag": log.sat}
    for i, name in enumerate(TRACE_COLUMNS[1:13]):
        expected[name] = log.quad[:, i]
    for i, name in enumerate(("U1", "U2", "U3", "U4")):
        expected[name] = log.u[:, i]
    for i, axis in enumerate("xyz"):
        expected["ref_" + axis] = log.ref[:, i]
        expected["err_" + axis] = log.err[:, i]
    r, s = log.load[:, 0], log.load[:, 1]
    expected["load_zeta"] = np.sqrt(L * L - r * r - s * s)
    for name in TRACE_COLUMNS:
        if not np.array_equal(columns[name], expected[name]):
            raise CheckError(f"column {name} read back differs from the log")


METRIC_FIELDS = ("e_max", "err_x_max", "err_y_max", "phi_max", "theta_max",
                 "t_smax", "stage_times", "unstable", "saturation_count",
                 "failed")


def check_same_metrics(got, want):
    """Metrics of the read-back trace equal those of the original log."""
    for name in METRIC_FIELDS:
        if getattr(got, name) != getattr(want, name):
            raise CheckError(f"{name} from the read-back trace is "
                             f"{getattr(got, name)!r}, from the log "
                             f"{getattr(want, name)!r}")
