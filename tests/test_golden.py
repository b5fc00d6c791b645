"""Golden regression: short square runs must keep their recorded outputs.

The values are the final 16-element state (quad then load) and e_max of
5 s runs at m_L = 0.3 kg on the square, printed with %.17g from the
direct 5x5 elimination that preceded the closed-form coupled solve.  A
relative tolerance of 1e-9 is the behaviour-fingerprint bound: rounding
changes of a faster solver pass, a changed equation or integrator does not.
"""

import pytest

from slungsim.metrics import compute_run_metrics
from slungsim.simloop import SimConfig, run

GOLDEN = {
    "PD": (0.042748174518816406, [
        0.31930257897943837, 0, 1.3529297805824312, 0.097557215785543105,
        0, -0.00012123494971798462, 0, -0.0031584293232735112, 0, 0,
        -0.00097723128611009943, 0, 0.0016992828953665158, 0,
        0.00060244175276871737, 0]),
    "SMC": (0.024208030355963896, [
        0.30772032750829836, 0, -0.91512549436613688, 0.0744814756774798,
        0, -0.50859880317011363, 0, -0.0014202230399602174, 0, 0,
        0.0024413679924237268, 0, 0.00068781500000916578, 0,
        -0.0014303497891009975, 0]),
    "MPC": (0.014130607235094655, [
        0.28616142671160349, 0, 1.4741823845595159, 0.079864831875209097,
        0, -5.1107496290043931e-06, 0, -0.00051705515716387999, 0, 0,
        -0.00053637292691773952, 0, 0.00077523095254465786, 0,
        -0.0090532369305988524, 0]),
}


@pytest.mark.parametrize("controller", sorted(GOLDEN))
def test_five_second_square_run_matches_golden(controller):
    e_max, final_state = GOLDEN[controller]
    log = run(SimConfig(controller=controller, m_L=0.3, duration=5.0))
    assert not log.failed
    assert log.n_rows == 501
    state = list(log.quad[-1]) + list(log.load[-1])
    assert state == pytest.approx(final_state, rel=1e-9)
    met = compute_run_metrics(log, trajectory="square")
    assert met.e_max == pytest.approx(e_max, rel=1e-9)
