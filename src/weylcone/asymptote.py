"""One-dimensional truncated-integral asymptotics for the Gaussian lattice sum.

The model problem integrates theta(x) = sum_n exp(-pi e^{2x} n^2) from 0 to a
truncation point T.  As T grows the integral approaches a linear profile
T + C_plus; as T decreases it blows up along an exponential profile whose
constant is computed from the transformed series.  Both profiles, residual
tables, and a sign-orientation report for the negative branch are provided;
everything is plain floating point backed by adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
from scipy.integrate import quad

TAIL_BOUND = 1e-14
QUAD_TOL = 1e-12
SIGN_SAMPLES = (-2.0, -3.0, -4.0)
_X_LIMIT = 10.0


def theta_1d(x: float) -> float:
    """The Gaussian lattice sum sum_n exp(-pi e^{2x} n^2).

    For negative x the direct series needs ~e^{-x} terms, so it is evaluated
    through the transform identity theta(x) = e^{-x} theta(-x) instead; the
    Gaussian is its own transform, so no second series is involved.  The tail
    is truncated only once a geometric bound drops below TAIL_BOUND."""
    if abs(x) > _X_LIMIT:
        raise ValueError(f"|x| must be at most {_X_LIMIT}")
    if x < 0:
        return math.exp(-x) * theta_1d(-x)
    r2 = math.exp(2 * x)
    total = 1.0
    n = 1
    while True:
        term = 2 * math.exp(-math.pi * r2 * n * n)
        total += term
        # terms shrink faster than the ratio exp(-pi r2 (2n+1)); bound the tail
        ratio = math.exp(-math.pi * r2 * (2 * n + 1))
        if term * ratio / (1 - ratio) < TAIL_BOUND:
            return total
        n += 1


def truncated_integral(t: float) -> tuple[float, float]:
    """Signed integral of theta_1d over [0, t] with its error estimate."""
    if abs(t) > _X_LIMIT:
        raise ValueError(f"|T| must be at most {_X_LIMIT}")
    if t == 0:
        return 0.0, 0.0
    value, err = quad(theta_1d, 0.0, t, epsabs=QUAD_TOL, limit=200)
    return value, err


def c_plus() -> float:
    """The positive-branch constant: integral of theta - 1 over [0, inf).

    The integrand is below 2 exp(-pi e^{2x}), so the tail past the domain
    limit is far under double precision and the integral stops there."""
    value, _ = quad(lambda x: theta_1d(x) - 1.0, 0.0, _X_LIMIT, epsabs=QUAD_TOL, limit=200)
    return value


def c_minus() -> float:
    """The negative-branch constant: integral of e^x (theta(x) - 1) over [0, inf).

    Truncated at the domain limit like c_plus; the e^x factor is no match
    for the double-exponential decay of the summand."""
    value, _ = quad(lambda x: math.exp(x) * (theta_1d(x) - 1.0), 0.0, _X_LIMIT, epsabs=QUAD_TOL, limit=200)
    return value


@dataclass(frozen=True)
class LimitProfile:
    """Predicted profile of the truncated integral on one branch.

    Positive branch: slope * T + constant.  Negative branch:
    orientation * ((e^{-T} - 1) * unit + constant); the orientation is +1 for
    the formula as printed and -1 for its negation, fixed by
    sign_convention_report."""

    branch: str
    slope: float
    constant: float
    orientation: int = 1

    def at(self, t: float) -> float:
        if self.branch == "plus":
            return self.slope * t + self.constant
        return self.orientation * ((math.exp(-t) - 1.0) * self.slope + self.constant)


def limit_profile(branch: str) -> LimitProfile:
    """The branch profile; slope is f(0) = transform(0) = 1 for the Gaussian."""
    if branch == "plus":
        return LimitProfile("plus", 1.0, c_plus())
    if branch == "minus":
        report = sign_convention_report()
        return LimitProfile("minus", 1.0, c_minus(), report["orientation"])
    raise ValueError("branch must be 'plus' or 'minus'")


def sign_convention_report() -> dict:
    """Decide the orientation of the negative-branch formula empirically.

    Evaluates the truncated integral at SIGN_SAMPLES and compares it against
    both orientations of (e^{-T} - 1) + C_minus; returns the residuals and
    the matching orientation."""
    cm = c_minus()
    plus_res = []
    minus_res = []
    for t in SIGN_SAMPLES:
        it, _ = truncated_integral(t)
        printed = (math.exp(-t) - 1.0) + cm
        plus_res.append(abs(it - printed))
        minus_res.append(abs(it + printed))
    orientation = 1 if max(plus_res) <= max(minus_res) else -1
    return {
        "samples": SIGN_SAMPLES,
        "printed_residuals": tuple(plus_res),
        "negated_residuals": tuple(minus_res),
        "orientation": orientation,
    }


def log10_tail_residual_plus(t: float) -> float:
    """log10 of the exact positive-branch residual at truncation t.

    The residual T + C_plus - I(T) equals the tail integral of theta - 1
    over [T, inf), i.e. sum_{n>=1} E_1(pi n^2 e^{2T}) exactly.  Direct
    subtraction underflows double precision already near T = 1.2 because the
    approach is doubly exponential, so the identity is evaluated in arbitrary
    precision and only the magnitude is returned."""
    with mp.workdps(50):
        u = mp.exp(2 * mp.mpf(t))
        total = mp.mpf(0)
        n = 1
        while True:
            term = mp.e1(mp.pi * n * n * u)
            total += term
            if total > 0 and term < total * mp.mpf(10) ** -40:
                break
            n += 1
        return float(mp.log10(total))


@dataclass
class ToyExperiment:
    """One truncation experiment: settings in, integral and residuals out."""

    t_value: float
    branch: str = "plus"
    integral: float = field(default=math.nan)
    quad_error: float = field(default=math.nan)
    profile_value: float = field(default=math.nan)
    residual: float = field(default=math.nan)
    log10_tail: float = field(default=math.nan)


def run_toy(t: float, branch: str = "plus", profile: LimitProfile | None = None) -> ToyExperiment:
    exp = ToyExperiment(t, branch)
    exp.integral, exp.quad_error = truncated_integral(t)
    prof = profile if profile is not None else limit_profile(branch)
    exp.profile_value = prof.at(t)
    exp.residual = abs(exp.integral - exp.profile_value)
    if branch == "plus":
        exp.log10_tail = log10_tail_residual_plus(t)
    return exp


def residual_table(
    ts: tuple[float, ...] = (2.0, 3.0, 4.0, 5.0, 6.0), branch: str = "plus"
) -> tuple[ToyExperiment, ...]:
    prof = limit_profile(branch)
    return tuple(run_toy(t, branch, prof) for t in ts)


def log_residual_slope(experiments: tuple[ToyExperiment, ...]) -> float:
    """Least-squares slope of log10-residual against T (negative = exponential decay)."""
    pts = [(e.t_value, e.log10_tail) for e in experiments if not math.isnan(e.log10_tail)]
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two measured residuals")
    mx = sum(t for t, _ in pts) / n
    my = sum(y for _, y in pts) / n
    num = sum((t - mx) * (y - my) for t, y in pts)
    den = sum((t - mx) ** 2 for t, _ in pts)
    return num / den
