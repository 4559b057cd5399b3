"""Exact linear programming over the rationals.

A small dense two-phase tableau simplex with Bland's rule.  Every feasibility
answer doubles as a certificate for a geometric predicate, so no float enters:
every coefficient and right-hand side must be a `numbers.Rational` (an int, a
Fraction, a numpy int), and anything else is a TypeError naming the argument
and the index.  Tableau rows are Python ints: each is its true rational row
times a positive scale, built straight from the numerators and denominators,
and divided by its gcd after every pivot (the fraction-free, row-scaled form
of exact elimination; Edmonds 1967, Bareiss 1968).  Bland's rule reads only the
signs of the objective row and the order of the ratios b/a, which positive
scales keep, so it makes the pivots of a plain Fraction tableau, and every
point and value is the same.

The driver works on the standard form

    minimize c.x   subject to  A x = b,  x >= 0,

and `solve` converts the caller's problem into that shape.  Its variables are
free by default, split x = u - w into two columns each; `nonneg=k` makes the
last k of them nonnegative, one column each.  Each inequality row adds a slack.
`strictly_feasible` decides a strict system by the dual of `interior_point`'s
margin LP, a second formulation handed to the same `solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Sequence

from .linalg import Vec, dot, eliminate, zeros

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


def _exact(values, name):
    """`values` as a list of ints and Fractions; any other rational becomes a Fraction."""
    out = list(values)
    for j, x in enumerate(out):
        if type(x) is not int and type(x) is not Fraction:
            if not isinstance(x, Rational):
                raise TypeError(f"{name}[{j}] = {x!r} is not a rational number; the LP is exact")
            out[j] = Fraction(int(x.numerator), int(x.denominator))
    return out


def _pivot(tab, basis, row, col):
    if tab[row][col] < 0:  # only the drive-out pivots of phase 1 can be negative
        tab[row] = [-x for x in tab[row]]
    prow = tab[row]
    tab[:] = [r if i == row or r[col] == 0 else eliminate(r, prow, col) for i, r in enumerate(tab)]
    basis[row] = col


def _priced(obj, tab, basis):
    """The cost row `obj` with every basic column eliminated: the reduced costs."""
    for row, j in zip(tab, basis):
        if obj[j] != 0:
            obj = eliminate(obj, row, j)
    return obj


def _simplex(tab, basis, ncols):
    """Minimize the objective in the last tableau row; Bland's rule, exact."""
    m = len(tab) - 1
    while True:
        obj = tab[m]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        row = None
        for i in range(m):
            if tab[i][col] > 0:
                # the ratio b/a of row i against the best row's, cross-multiplied (both a > 0)
                d = -1 if row is None else tab[i][ncols] * tab[row][col] - tab[row][ncols] * tab[i][col]
                if d < 0 or (d == 0 and basis[i] < basis[row]):
                    row = i
        if row is None:
            return UNBOUNDED
        _pivot(tab, basis, row, col)


def _standard_simplex(a, b, c):
    """Solve min c.x, A x = b, x >= 0 over the rationals.  Returns (status, x, value).

    Entries are ints or Fractions.  Each int row is its rational row times the
    lcm d of its denominators: phase-1 row i is d [s A_i | e_i | s b_i], s = sign b_i.
    """
    m, n = len(a), len(c)

    # phase 1: artificials form the starting basis
    ncols = n + m
    tab = []
    for i in range(m):
        d = lcm(b[i].denominator, *(x.denominator for x in a[i]))
        sd = -d if b[i] < 0 else d
        row = [x.numerator * (sd // x.denominator) for x in a[i]] + [0] * m
        row[n + i] = d
        row.append(b[i].numerator * (sd // b[i].denominator))
        tab.append(row)
    basis = list(range(n, ncols))
    tab.append(_priced([0] * n + [1] * m + [0], tab, basis))  # min sum(artificials)
    _simplex(tab, basis, ncols)
    if tab[m][ncols] < 0:
        return INFEASIBLE, None, None

    # drive remaining artificials out of the basis (or drop dependent rows)
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                del tab[i], basis[i]
            else:
                _pivot(tab, basis, i, col)

    # phase 2: x_j = b/a on the row where column j is basic
    tab = [row[:n] + [row[ncols]] for row in tab[:-1]]
    d = lcm(*(x.denominator for x in c))
    tab.append(_priced([x.numerator * (d // x.denominator) for x in c] + [0], tab, basis))
    if _simplex(tab, basis, n) == UNBOUNDED:
        return UNBOUNDED, None, None
    xb = {j: Fraction(row[n], row[j]) for row, j in zip(tab, basis)}
    x = tuple(xb.get(j, Fraction(0)) for j in range(n))
    return OPTIMAL, x, dot(c, x)


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
    close the inequalities.  Every entry must be rational (TypeError
    otherwise), and each row needs its right-hand side (ValueError otherwise).
    """
    if not 0 <= nonneg <= n:
        raise ValueError(f"nonneg={nonneg} must lie in 0..{n}")
    if len(b_ub) != len(a_ub) or len(b_eq) != len(a_eq):
        raise ValueError(f"{len(a_ub)} + {len(a_eq)} rows but {len(b_ub)} + {len(b_eq)} right-hand sides")
    nfree = n - nonneg
    nub = len(a_ub)

    def columns(row, name):  # caller's coefficients -> u (nfree), w (nfree), x >= 0 (nonneg)
        r = _exact(row, name)
        return r[:nfree] + [-x for x in r[:nfree]] + r[nfree:]

    rows_a = [columns(row, f"a_ub[{i}]") + [int(j == i) for j in range(nub)] for i, row in enumerate(a_ub)]
    rows_a += [columns(row, f"a_eq[{i}]") + [0] * nub for i, row in enumerate(a_eq)]
    rows_b = _exact(b_ub, "b_ub") + _exact(b_eq, "b_eq")
    c = columns(objective, "objective")
    if not minimize:
        c = [-x for x in c]
    status, xs, val = _standard_simplex(rows_a, rows_b, c + [0] * nub)
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
    feasibility is equivalent to feasibility with some uniform margin.  Each
    row needs its right-hand side (ValueError otherwise).
    """
    for name, a, b in (("strict", a_strict, b_strict), ("eq", a_eq, b_eq), ("ub", a_ub, b_ub)):
        if len(a) != len(b):
            raise ValueError(f"a_{name} has {len(a)} rows but b_{name} has {len(b)} right-hand sides")
    rows = [list(r) + [1] for r in a_strict] + [list(r) + [0] for r in a_ub] + [[0] * n + [1]]  # t <= 1
    rhs = [*b_strict, *b_ub, 1]
    eq = [list(r) + [0] for r in a_eq]
    obj = [0] * n + [-1]  # minimize -t
    res = solve(obj, n + 1, a_ub=rows, b_ub=rhs, a_eq=eq, b_eq=b_eq)
    if not res.ok or res.x is None or res.x[n] <= 0:
        return None
    return res.x[:n]


def strictly_feasible(n: int, *, a_strict: Sequence[Sequence], b_strict: Sequence) -> bool:
    """Whether some x has a_strict x < b_strict.  The margin LP of `interior_point`,
    max t s.t. a_strict x + t 1 <= b_strict, t <= 1, is feasible (t can go down)
    and bounded (t <= 1), so by strong duality its optimum is that of the dual
    min b.lam + mu s.t. a_strict^T lam = 0, sum(lam) + mu = 1, lam, mu >= 0: n + 1
    equality rows over m + 1 nonnegative columns, against the primal's m + 1
    rows over 2n + 2 split columns and m + 1 slacks.  Strict iff it is positive.
    """
    if len(a_strict) != len(b_strict):
        raise ValueError(f"a_strict has {len(a_strict)} rows but b_strict has {len(b_strict)} right-hand sides")
    m = len(a_strict)
    a_eq = [[r[i] for r in a_strict] + [0] for i in range(n)] + [[1] * (m + 1)]
    return solve([*b_strict, 1], m + 1, a_eq=a_eq, b_eq=[0] * n + [1], nonneg=m + 1).value > 0


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
