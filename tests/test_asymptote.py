"""Toy truncated-integral asymptotics: theta sums, branch constants, residuals."""

import math

import mpmath
import pytest
from scipy.special import exp1

from weylcone import asymptote as AS


def theta_oracle(x: float) -> float:
    # sum_n exp(-pi e^{2x} n^2) = jtheta_3(0, q) at q = exp(-pi e^{2x})
    with mpmath.workdps(40):
        q = mpmath.exp(-mpmath.pi * mpmath.exp(2 * mpmath.mpf(x)))
        return float(mpmath.jtheta(3, 0, q))


def c_plus_series(tail_bound: float = 1e-16) -> float:
    """C_plus with sum and integral swapped: integrating each lattice term
    exp(-pi e^{2x} n^2) over x in [0, inf) gives E_1(pi n^2)/2 per term, hence
    sum_{n>=1} E_1(pi n^2) overall."""
    total = 0.0
    n = 1
    while True:
        term = float(exp1(math.pi * n * n))
        total += term
        if term < tail_bound:
            return total
        n += 1


def test_theta_matches_jtheta_oracle():
    for x in (0.0, 0.3, 1.0, 2.5, -0.7, -2.0):
        assert abs(AS.theta_1d(x) - theta_oracle(x)) <= 1e-12 * theta_oracle(x)


def test_theta_transform_identity():
    for x in (0.4, 1.3, 2.0):
        assert AS.theta_1d(-x) == pytest.approx(math.exp(x) * AS.theta_1d(x), rel=1e-13)


def test_theta_domain_guard():
    with pytest.raises(ValueError):
        AS.theta_1d(10.5)
    with pytest.raises(ValueError):
        AS.theta_1d(-11.0)
    with pytest.raises(ValueError):
        AS.truncated_integral(12.0)


def test_truncated_integral_values():
    assert AS.truncated_integral(0.0) == (0.0, 0.0)
    val, err = AS.truncated_integral(1.5)
    assert err < 1e-9
    with mpmath.workdps(30):
        oracle = mpmath.quad(lambda u: theta_oracle(float(u)), [0, 0.5, 1.0, 1.5])
    assert abs(val - float(oracle)) <= 1e-9
    neg, _ = AS.truncated_integral(-2.0)
    assert neg < 0  # signed: theta > 0 and the interval is reversed


def test_branch_constants_agree():
    cp = AS.c_plus()
    assert abs(cp - 0.010906559198968598) <= 1e-12
    assert abs(cp - c_plus_series()) <= 1e-12
    assert AS.c_minus() > 0


def test_sign_convention_is_negated_formula():
    report = AS.sign_convention_report()
    assert report["orientation"] == -1
    assert max(report["negated_residuals"]) <= 1e-10
    assert min(report["printed_residuals"]) > 1.0


def test_limit_profile_branches():
    plus = AS.limit_profile("plus")
    assert plus.slope == 1.0 and plus.at(3.0) == pytest.approx(3.0 + AS.c_plus())
    minus = AS.limit_profile("minus")
    assert minus.orientation == -1
    with pytest.raises(ValueError):
        AS.limit_profile("sideways")


def test_minus_branch_profile_tracks_integral():
    prof = AS.limit_profile("minus")
    exp = AS.run_toy(-3.0, "minus", prof)
    assert exp.residual <= 1e-9
    assert math.isnan(exp.log10_tail)


def test_run_toy_plus_hits_linear_profile():
    exp = AS.run_toy(6.0)
    assert abs(exp.integral - (6.0 + AS.c_plus())) <= 1e-8
    assert exp.residual <= 1e-8
    assert exp.log10_tail < -200000  # doubly exponential approach


def test_log10_tail_residual_windows():
    windows = {2.0: (-80, -70), 3.0: (-560, -545), 4.0: (-4080, -4060)}
    for t, (lo, hi) in windows.items():
        assert lo < AS.log10_tail_residual_plus(t) < hi


def test_residual_table_and_slope():
    table = AS.residual_table()
    assert [e.t_value for e in table] == [2.0, 3.0, 4.0, 5.0, 6.0]
    tails = [e.log10_tail for e in table]
    assert all(a > b for a, b in zip(tails, tails[1:]))  # strictly decreasing
    assert AS.log_residual_slope(table) < -100


def test_log_residual_slope_needs_two_points():
    with pytest.raises(ValueError):
        AS.log_residual_slope((AS.run_toy(-2.0, "minus"),))
