"""Exact linear programming over the rationals.

A small dense two-phase tableau simplex with Bland's rule.  Problem sizes in
this package are tiny (tens of variables), so exactness trumps speed: every
feasibility answer doubles as a certificate for a geometric predicate and must
not depend on floating-point tolerances.

The driver works on the standard form

    minimize c.x   subject to  A x = b,  x >= 0,

and `solve` converts the caller's problem into that shape.  Its variables are
free by default, split x = u - w into two columns each; `nonneg=k` makes the
last k of them nonnegative, one column each.  Each inequality row adds a slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Vec, zeros

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: Vec | None = None  # optimal point in the caller's variables
    value: Fraction | None = None

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def _pivot(tab, basis, row, col):
    pv = tab[row][col]
    tab[row] = [x / pv for x in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
    basis[row] = col


def _simplex(tab, basis, ncols):
    """Minimize the objective in the last tableau row; Bland's rule, exact."""
    m = len(tab) - 1
    while True:
        obj = tab[m]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        row, best = None, None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][ncols] / tab[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row is None:
            return UNBOUNDED
        _pivot(tab, basis, row, col)


def _standard_simplex(a, b, c):
    """Solve min c.x, A x = b, x >= 0.  Returns (status, x, value)."""
    m, n = len(a), len(c)
    a = [list(map(Fraction, row)) for row in a]
    b = [Fraction(x) for x in b]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]

    # phase 1: artificials form the starting basis
    ncols = n + m
    tab = [a[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [b[i]] for i in range(m)]
    obj = [Fraction(0)] * (ncols + 1)
    for i in range(m):  # reduced costs of min sum(artificials)
        obj = [o - t for o, t in zip(obj, tab[i])]
    for j in range(n, ncols):
        obj[j] = Fraction(0)
    tab.append(obj)
    basis = list(range(n, ncols))
    _simplex(tab, basis, ncols)
    if -tab[m][ncols] > 0:
        return INFEASIBLE, None, None

    # drive remaining artificials out of the basis (or drop dependent rows)
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                del tab[i], basis[i]
            else:
                _pivot(tab, basis, i, col)

    # phase 2
    rows = len(tab) - 1
    tab = [row[:n] + [row[ncols]] for row in tab[:rows]]
    obj = [Fraction(x) for x in c] + [Fraction(0)]
    for i in range(rows):
        if obj[basis[i]] != 0:
            f = obj[basis[i]]
            obj = [x - f * y for x, y in zip(obj, tab[i])]
    tab.append(obj)
    status = _simplex(tab, basis, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i in range(rows):
        x[basis[i]] = tab[i][n]
    return OPTIMAL, tuple(x), -tab[rows][n]


def solve(
    objective: Sequence,
    n: int,
    *,
    minimize: bool = True,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    nonneg: int = 0,
) -> LPResult:
    """LP over n variables: the first n - nonneg free, the last nonneg >= 0.

    a_ub x <= b_ub, a_eq x = b_eq.  Free variables are split x = u - w,
    nonnegative variables enter the standard form as they are, and slacks
    close the inequalities.
    """
    if not 0 <= nonneg <= n:
        raise ValueError(f"nonneg={nonneg} must lie in 0..{n}")
    nfree = n - nonneg
    nub = len(a_ub)

    def columns(row):  # caller's coefficients -> u (nfree), w (nfree), x >= 0 (nonneg)
        r = [Fraction(x) for x in row]
        return r[:nfree] + [-x for x in r[:nfree]] + r[nfree:]

    rows_a, rows_b = [], []
    for i, row in enumerate(a_ub):
        rows_a.append(columns(row) + [Fraction(1 if j == i else 0) for j in range(nub)])
        rows_b.append(Fraction(b_ub[i]))
    for i, row in enumerate(a_eq):
        rows_a.append(columns(row) + [Fraction(0)] * nub)
        rows_b.append(Fraction(b_eq[i]))
    c = columns(objective)
    if not minimize:
        c = [-x for x in c]
    status, xs, val = _standard_simplex(rows_a, rows_b, c + [Fraction(0)] * nub)
    if status != OPTIMAL:
        return LPResult(status)
    x = tuple(xs[j] - xs[nfree + j] for j in range(nfree)) + xs[2 * nfree : nfree + n]
    return LPResult(OPTIMAL, x, val if minimize else -val)


def feasible_point(
    n: int,
    *,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    nonneg: int = 0,
) -> Vec | None:
    """A point of {a_ub x <= b_ub, a_eq x = b_eq, last nonneg coordinates >= 0}, or None."""
    res = solve(zeros(n), n, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=nonneg)
    return res.x if res.ok else None


def interior_point(
    n: int,
    *,
    a_strict: Sequence[Sequence] = (),
    b_strict: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
) -> Vec | None:
    """A point with a_strict x < b_strict (uniform positive margin), a_ub x <= b_ub, a_eq x = b_eq.

    Maximizes the margin t (capped at 1); a positive optimum certifies strict
    feasibility.  Correct for the polyhedral sets used here, where strict
    feasibility is equivalent to feasibility with some uniform margin.
    """
    rows = [list(r) + [Fraction(1)] for r in a_strict]
    rhs = list(b_strict)
    for r, b in zip(a_ub, b_ub):
        rows.append(list(r) + [Fraction(0)])
        rhs.append(b)
    rows.append([Fraction(0)] * n + [Fraction(1)])  # t <= 1
    rhs.append(Fraction(1))
    eq = [list(r) + [Fraction(0)] for r in a_eq]
    obj = [Fraction(0)] * n + [Fraction(-1)]  # minimize -t
    res = solve(obj, n + 1, a_ub=rows, b_ub=rhs, a_eq=eq, b_eq=b_eq)
    if not res.ok or res.x is None or res.x[n] <= 0:
        return None
    return res.x[:n]


def lexmin_point(
    objectives: Sequence[Sequence],
    n: int,
    *,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    nonneg: int = 0,
) -> Vec | None:
    """Lexicographic minimum over the objective sequence (`nonneg` as in `solve`); deterministic."""
    eqs = [list(r) for r in a_eq]
    erhs = list(b_eq)
    x = None
    for c in objectives:
        res = solve(c, n, a_ub=a_ub, b_ub=b_ub, a_eq=eqs, b_eq=erhs, nonneg=nonneg)
        if not res.ok:
            return None
        x = res.x
        eqs.append(list(c))
        erhs.append(res.value)
    return x
