"""Acceptance checks for the benchmark as a whole.

One test per criterion, each printing the measured evidence.  Criteria
1-4 and the behaviour fingerprint share one full default sweep (11
masses x 3 controllers, 75 s each).
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from test_dynamics import accelerations, coupling_residuals, make_state

from slungsim.cli import main, run_sweep
from slungsim.config import DEFAULT_SWEEP_MASSES, SweepSpec
from slungsim.dynamics import (VehicleParams, pendulum_accelerations,
                               pendulum_energy)
from slungsim.metrics import compute_run_metrics
from slungsim.mpc import (EstimatorConfig, MpcWeights, build_prediction,
                          dare_residual, discretize_rotational,
                          discretize_translational, mpc_cost, mpc_solve,
                          solve_dare)
from slungsim.simloop import SimConfig, rk4_step, run

MASSES = DEFAULT_SWEEP_MASSES
HEAVY = [m for m in MASSES if m >= 0.05]


@pytest.fixture(scope="session")
def sweep():
    """Full default sweep plus its wall time; shared by criteria 1-4 and
    the behaviour fingerprint."""
    t0 = time.monotonic()
    results = run_sweep(SweepSpec(), jobs=None)
    wall = time.monotonic() - t0
    table = {(r[0], r[1]): {"e_max": r[2], "phi_max": r[3],
                            "theta_max": r[4], "t_smax": r[5],
                            "failed": r[6]}
             for r in results}
    return table, wall


def column(table, controller, field):
    return [table[(controller, m)][field] for m in MASSES]


def test_criterion_1_tracking_error_ordering_and_bands(sweep):
    table, wall = sweep
    ok = True
    for m in MASSES:
        pd = table[("PD", m)]["e_max"]
        smc = table[("SMC", m)]["e_max"]
        mpc = table[("MPC", m)]["e_max"]
        print(f"m={m:5.3f}  e_max PD={pd:.5f} SMC={smc:.5f} MPC={mpc:.5f}")
        ok = ok and (mpc < smc < pd)
    pd3 = table[("PD", 0.3)]["e_max"]
    smc3 = table[("SMC", 0.3)]["e_max"]
    mpc3 = table[("MPC", 0.3)]["e_max"]
    in_bands = (0.03 <= pd3 <= 0.07 and 0.02 <= smc3 <= 0.06
                and 0.01 <= mpc3 <= 0.03)
    print(f"bands at 0.3 kg: PD={pd3:.5f} SMC={smc3:.5f} MPC={mpc3:.5f}")
    print(f"sweep wall time {wall:.0f} s")
    verdict = ok and in_bands and wall < 300.0
    print(f"criterion 1 (error ordering, bands, runtime): "
          f"{'PASS' if verdict else 'FAIL'}")
    assert ok, "e_max ordering MPC < SMC < PD violated"
    assert in_bands, "e_max bands at 0.3 kg violated"
    assert wall < 300.0, f"sweep took {wall:.0f} s"


def test_criterion_2_mass_insensitivity(sweep):
    table, _ = sweep
    verdict = True
    for c in ("PD", "SMC", "MPC"):
        col = column(table, c, "e_max")
        spread = (max(col) - min(col)) / min(col)
        print(f"{c}: e_max spread {100 * spread:.2f}% "
              f"(min {min(col):.5f}, max {max(col):.5f})")
        verdict = verdict and spread <= 0.10
    print(f"criterion 2 (e_max spread <= 10% per controller): "
          f"{'PASS' if verdict else 'FAIL'}")
    assert verdict


def test_criterion_3_stabilization_time_ordering_and_growth(sweep):
    table, _ = sweep
    for c in ("PD", "SMC", "MPC"):
        col = [f"{v:.3f}" for v in column(table, c, "t_smax")]
        print(f"{c} t_smax: {col}")
    ordering = all(
        table[("MPC", m)]["t_smax"] < table[("SMC", m)]["t_smax"]
        < table[("PD", m)]["t_smax"] for m in HEAVY)
    increasing = {}
    for c in ("PD", "SMC"):
        vals = [table[(c, m)]["t_smax"] for m in HEAVY]
        increasing[c] = all(b > a for a, b in zip(vals, vals[1:]))
    mpc = column(table, "MPC", "t_smax")
    mpc_spread = ((max(mpc) - min(mpc)) / min(mpc)
                  if min(mpc) > 0 else 0.0)
    print(f"ordering MPC<SMC<PD at masses >= 0.05: {ordering}")
    print(f"strict increase 0.05->0.5: PD={increasing['PD']} "
          f"SMC={increasing['SMC']}")
    print(f"MPC t_smax spread {100 * mpc_spread:.1f}%")
    verdict = (ordering and increasing["PD"] and increasing["SMC"]
               and mpc_spread <= 0.20)
    print(f"criterion 3 (t_smax ordering and growth): "
          f"{'PASS' if verdict else 'FAIL'}")
    assert ordering, "t_smax ordering violated"
    assert increasing["PD"] and increasing["SMC"], \
        "PD/SMC t_smax not strictly increasing with mass"
    assert mpc_spread <= 0.20, f"MPC spread {100 * mpc_spread:.1f}%"


def test_criterion_4_attitude_bounds(sweep):
    table, _ = sweep
    worst = 0.0
    worst3 = 0.0
    any_failed = False
    for (c, m), row in table.items():
        peak = max(row["phi_max"], row["theta_max"])
        worst = max(worst, peak)
        if m == 0.3:
            worst3 = max(worst3, peak)
        any_failed = any_failed or row["failed"]
    print(f"worst |phi|,|theta| over sweep: {worst:.3f} deg "
          f"(at 0.3 kg: {worst3:.3f} deg)")
    verdict = (not any_failed) and worst <= 6.0 and worst3 <= 4.5
    print(f"criterion 4 (attitude bounds 6/4.5 deg): "
          f"{'PASS' if verdict else 'FAIL'}")
    assert not any_failed, "a sweep run aborted"
    assert worst <= 6.0
    assert worst3 <= 4.5


# The default sweep's rows as perfbench/fingerprint.py prints them (%.17g;
# sha256 93e6347c56626086597f1a8f1a2c8c2c30bb185dd991b1ae294414ac8db21b11).
FINGERPRINT = """\
PD,0.0050000000000000001,0.044160961407290644,0.31738983950059185,0.31739124361949894,1.8900000000000041,0
PD,0.050000000000000003,0.044191402636271082,0.31766744452960061,0.31766977843902966,1.8900000000000041,0
PD,0.10000000000000001,0.044215461567890801,0.31804582639421752,0.31804395607200825,1.8900000000000006,0
PD,0.14999999999999999,0.044253302851822829,0.31801275917327465,0.31802072642205614,1.8900000000000006,0
PD,0.20000000000000001,0.044287942148798609,0.31857727622273868,0.31857425470086714,1.8900000000000006,0
PD,0.25,0.044316832238384229,0.31870984965455662,0.31871318843887697,1.8900000000000006,0
PD,0.29999999999999999,0.044359056138595032,0.31908590782696356,0.31909645803036052,1.8900000000000006,0
PD,0.34999999999999998,0.044345871869691966,0.31896933881906919,0.31895535668909764,1.8900000000000006,0
PD,0.40000000000000002,0.044468756519867036,0.31975805039187416,0.31979260842045348,1.8900000000000006,0
PD,0.45000000000000001,0.044410329914261082,0.32007908809074931,0.32004352131280611,1.8999999999999986,0
PD,0.5,0.044449084075080636,0.32004560989551734,0.32004557626357427,1.8999999999999986,0
SMC,0.0050000000000000001,0.023941850267124795,0.28187068513317759,0.29322210244581381,1.7000000000000028,0
SMC,0.050000000000000003,0.023985923977915484,0.28261131020160768,0.29407235119941905,1.6900000000000048,0
SMC,0.10000000000000001,0.024045649976180243,0.28404047403521604,0.29519581043943716,1.7000000000000028,0
SMC,0.14999999999999999,0.024090735415655297,0.28412068420044523,0.29607414948615524,1.6900000000000013,0
SMC,0.20000000000000001,0.024130403425827313,0.28425973011177125,0.29680145642290795,1.6999999999999993,0
SMC,0.25,0.024168500404530724,0.28437653922291733,0.2974043009737557,1.6899999999999977,0
SMC,0.29999999999999999,0.024208030355963889,0.28456166901693142,0.29790921669345188,1.6899999999999977,0
SMC,0.34999999999999998,0.024251508588337897,0.28423011010160787,0.29835064305765158,1.7000000000000028,0
SMC,0.40000000000000002,0.024300558512184219,0.28448615681688327,0.29874200813275276,1.7000000000000028,0
SMC,0.45000000000000001,0.02435595434494732,0.28502314478086366,0.29910541132910456,1.7000000000000028,0
SMC,0.5,0.024417976988653098,0.28452141715255763,0.29946500744236282,1.6999999999999993,0
MPC,0.0050000000000000001,0.014000087843585085,0.25392118726948587,0.25392240058662274,1.240000000000002,0
MPC,0.050000000000000003,0.013999432913653909,0.2551089982842798,0.25512975026727364,1.9199999999999982,0
MPC,0.10000000000000001,0.014040557721738844,0.26934127026875238,0.26940029359400164,2.2100000000000009,0
MPC,0.14999999999999999,0.014081325970723646,0.30297362321283788,0.30305367769245972,2.220000000000006,0
MPC,0.20000000000000001,0.014160009981408428,0.32968718647441131,0.32977155136708658,2.2299999999999986,0
MPC,0.25,0.014213789108602382,0.33260191446954973,0.33262488028693354,2.2700000000000014,0
MPC,0.29999999999999999,0.014228768412397841,0.31859641396793764,0.31855287356628509,1.990000000000002,0
MPC,0.34999999999999998,0.014200081017614052,0.31608715767939799,0.31610312480210673,1.9800000000000004,0
MPC,0.40000000000000002,0.014219200405510612,0.32815830212787156,0.32802915413643963,1.9700000000000006,0
MPC,0.45000000000000001,0.01423096712928873,0.32438518227362811,0.3251144016039591,1.9599999999999991,0
MPC,0.5,0.014200697143721186,0.32227960529049626,0.32152684126077002,1.9299999999999997,0
"""


def test_behaviour_fingerprint(sweep):
    """Every default-sweep metric within 1e-9 of the recorded rows.

    A change that moves any metric by more fails here, listing each moved
    metric; the printed digest tells a bit-identical sweep (93e6347c...)
    from one that only stays within the tolerance.
    """
    table, _ = sweep
    fields = ("e_max", "phi_max", "theta_max", "t_smax")
    lines, moved, worst = [], [], 0.0
    for want in FINGERPRINT.splitlines():
        c, m, *metrics, failed = want.split(",")
        row = table[(c, float(m))]
        for name, w in zip(fields, map(float, metrics)):
            g = row[name]
            rel = abs(g - w) / abs(w) if w else abs(g)
            worst = max(worst, rel)
            if not rel <= 1e-9:
                moved.append(f"{c} m_L={m} {name}: {g!r} vs {w!r} "
                             f"(relative {rel:.3g})")
        assert bool(row["failed"]) == bool(int(failed)), (c, m)
        lines.append("%s,%.17g,%.17g,%.17g,%.17g,%.17g,%d" % (
            c, float(m), *(row[k] for k in fields), row["failed"]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"worst relative change {worst:.3g}; sha256 {digest}")
    assert len(table) == len(lines)
    assert not moved, "\n".join(moved)


def test_criterion_5_critical_mass_and_overload_arrival(capsys):
    assert main(["critical-mass", "--u1max", "14.72",
                 "--accel", "0.032"]) == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines() if ln.startswith("m_cm")][0]
    m_cm = float(line.split("=")[1].split("kg")[0])

    arrivals = {}
    for m_L in (0.5, 0.55):
        cfg = SimConfig(controller="SMC", m_L=m_L,
                        trajectory="single_leg")
        met = compute_run_metrics(run(cfg), trajectory="single_leg")
        arrivals[m_L] = met.arrival_time
    print(f"m_cm at 0.032 m/s^2: {m_cm:.4f} kg")
    print(f"arrival times: 0.50 kg -> {arrivals[0.5]:.2f} s, "
          f"0.55 kg -> {arrivals[0.55]:.2f} s")
    verdict = (abs(m_cm - 0.500) <= 0.005
               and arrivals[0.5] <= 16.0
               and 17.0 <= arrivals[0.55] <= 21.0)
    print(f"criterion 5 (critical mass, overload arrival): "
          f"{'PASS' if verdict else 'FAIL'}")
    assert abs(m_cm - 0.500) <= 0.005
    assert arrivals[0.5] <= 16.0
    assert 17.0 <= arrivals[0.55] <= 21.0


def test_criterion_6_numerical_core():
    params = VehicleParams()
    cfg = EstimatorConfig()

    dare_worst = 0.0
    for dt in (0.005, 0.01, 0.02):
        for make in (discretize_translational, discretize_rotational):
            model = make(dt, params)
            P = solve_dare(model, cfg)
            dare_worst = max(dare_worst, dare_residual(model, cfg, P))
    print(f"DARE residual worst: {dare_worst:.2e}")

    # quadratic cost: central differences at the solver's minimizer
    md = discretize_rotational(0.01, params)
    pm = build_prediction(md, 10)
    w = MpcWeights()
    rng = np.random.default_rng(5)
    x = 0.1 * rng.standard_normal(6)
    refs = 0.05 * rng.standard_normal(30)
    u_prev = 0.01 * rng.standard_normal(3)
    U = mpc_solve(pm, w, x, refs, u_prev)

    def grad(at):
        h = 1e-6
        g = np.empty_like(at)
        for i in range(at.size):
            dp = at.copy()
            dm = at.copy()
            dp[i] += h
            dm[i] -= h
            g[i] = (mpc_cost(pm, w, x, refs, u_prev, dp)
                    - mpc_cost(pm, w, x, refs, u_prev, dm)) / (2 * h)
        return g

    scale = 1.0 + np.linalg.norm(grad(np.zeros_like(U)))
    grad_rel = np.linalg.norm(grad(U)) / scale
    print(f"MPC gradient at minimizer (relative): {grad_rel:.2e}")

    rng = np.random.default_rng(20260815)
    res_worst = 0.0
    for _ in range(1000):
        rho = 0.95 * params.L * math.sqrt(rng.uniform(0, 1))
        ang = rng.uniform(0, 2 * math.pi)
        y = make_state(
            phi=rng.uniform(-0.5, 0.5), theta=rng.uniform(-0.5, 0.5),
            r=rho * math.cos(ang), s=rho * math.sin(ang),
            r_dot=rng.uniform(-1, 1), s_dot=rng.uniform(-1, 1))
        m_L = rng.uniform(0.0, 0.6)
        U1 = rng.uniform(0.0, params.U1_max)
        accels = accelerations(y, U1, m_L, params)
        res_worst = max(res_worst,
                        max(coupling_residuals(y, m_L, accels, U1, params)))
    print(f"coupled back-substitution residual worst: {res_worst:.2e}")

    def pend(y, _):
        r, s, vr, vs = y
        ar, as_ = pendulum_accelerations(r, s, vr, vs, params)
        return np.array([vr, vs, ar, as_])

    y = np.array([0.2, -0.1, 0.0, 0.0])
    e0 = pendulum_energy(*y, 0.3, params)
    drift = 0.0
    for _ in range(10000):
        y = rk4_step(pend, y, None, 1e-3)
        drift = max(drift, abs(pendulum_energy(*y, 0.3, params) - e0))
    print(f"pendulum energy drift over 10 s: {drift:.2e} J")

    hover_worst = 0.0
    for name in ("PD", "SMC", "MPC"):
        log = run(SimConfig(controller=name, m_L=0.0, duration=10.0,
                            trajectory="hover"))
        hover_worst = max(hover_worst,
                          np.abs(log.quad[:, 0:3] - [0, 0, 1.5]).max())
    print(f"hover hold worst drift: {hover_worst:.2e} m")

    deterministic = True
    for name, m_L in (("SMC", 0.3), ("MPC", 0.25)):
        cfg = SimConfig(controller=name, m_L=m_L, duration=3.0)
        a = run(cfg)
        b = run(cfg)
        deterministic = deterministic and (
            np.array_equal(a.quad, b.quad) and np.array_equal(a.u, b.u))
    print(f"bitwise determinism: {deterministic}")

    verdict = (dare_worst <= 1e-8 and grad_rel <= 1e-6
               and res_worst <= 1e-10 and drift < 1e-6
               and hover_worst < 1e-6 and deterministic)
    print(f"criterion 6 (numerical core): {'PASS' if verdict else 'FAIL'}")
    assert dare_worst <= 1e-8
    assert grad_rel <= 1e-6
    assert res_worst <= 1e-10
    assert drift < 1e-6
    assert hover_worst < 1e-6
    assert deterministic
