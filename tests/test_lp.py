"""Exact simplex: feasibility, optimality, unboundedness, lexicographic ties."""

from fractions import Fraction as F
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylcone import lp
from weylcone.linalg import dot, vec


def test_solve_box_minimum():
    # min x + 2y on [0,1]^2 shifted: x >= -1, x <= 2, y >= 0, y <= 3
    res = lp.solve(
        vec([1, 2]),
        2,
        a_ub=[vec([-1, 0]), vec([1, 0]), vec([0, -1]), vec([0, 1])],
        b_ub=vec([1, 2, 0, 3]),
    )
    assert res.ok
    assert res.x == vec([-1, 0])
    assert res.value == F(-1)


def test_solve_maximize_via_negation():
    res = lp.solve(
        vec([-1, -1]),
        2,
        a_ub=[vec([1, 0]), vec([0, 1]), vec([-1, 0]), vec([0, -1])],
        b_ub=vec([1, 1, 0, 0]),
    )
    assert res.ok and res.value == F(-2) and res.x == vec([1, 1])


def test_solve_rejects_inexact_input():
    # a float or a string is not silently rounded or parsed: the LP is exact
    rows = [vec([1, 0]), vec([0, 1])]
    with pytest.raises(TypeError, match=r"b_ub\[1\] = 0\.1 "):
        lp.solve(vec([1, 1]), 2, a_ub=rows, b_ub=[F(1), 0.1])
    with pytest.raises(TypeError, match=r"a_eq\[0\]\[1\] = '1/3' "):
        lp.solve(vec([1, 1]), 2, a_eq=[[F(1), "1/3"]], b_eq=[F(1)])
    with pytest.raises(TypeError, match=r"objective\[0\]"):
        lp.solve([0.5, 1], 2, a_ub=rows, b_ub=vec([1, 1]))


def test_solve_needs_one_right_hand_side_per_row():
    with pytest.raises(ValueError):
        lp.solve(vec([1]), 1, a_ub=[vec([1])], b_ub=vec([1, 2]))
    with pytest.raises(ValueError):
        lp.solve(vec([1]), 1, a_eq=[vec([1]), vec([2])], b_eq=vec([1]))


def test_solve_takes_numpy_integers():
    # numpy ints are numbers.Rational: the same exact answer as Python ints
    res = lp.solve(
        np.array([1, 2], dtype=np.int64),
        2,
        a_ub=np.array([[-1, 0], [1, 0], [0, -1], [0, 1]], dtype=np.int64),
        b_ub=np.array([1, 2, 0, 3], dtype=np.int64),
    )
    assert res.ok and res.x == vec([-1, 0]) and res.value == F(-1)
    assert all(type(v) is F for v in (*res.x, res.value))


def test_infeasible():
    res = lp.solve(vec([1]), 1, a_ub=[vec([1]), vec([-1])], b_ub=vec([-1, 0]))
    assert res.status == lp.INFEASIBLE and not res.ok


def test_unbounded():
    res = lp.solve(vec([-1]), 1, a_ub=[vec([-1])], b_ub=vec([0]))
    assert res.status == lp.UNBOUNDED


def test_equality_rows():
    res = lp.solve(
        vec([0, 1]),
        2,
        a_ub=[vec([0, -1])],
        b_ub=vec([4]),
        a_eq=[vec([1, 1])],
        b_eq=vec([3]),
    )
    assert res.ok and res.x is not None
    assert res.x[0] + res.x[1] == 3 and res.value == F(-4)


def test_feasible_point_none_when_empty():
    assert lp.feasible_point(2, a_ub=[vec([1, 0]), vec([-1, 0])], b_ub=vec([-2, 1])) is None


def test_feasible_point_satisfies_rows():
    rows = [vec([1, 1]), vec([-1, 0]), vec([0, -1])]
    rhs = vec([5, 0, 0])
    x = lp.feasible_point(2, a_ub=rows, b_ub=rhs)
    assert x is not None
    assert all(dot(r, x) <= b for r, b in zip(rows, rhs))


def test_interior_point_strictness():
    # open square (0,1)^2
    x = lp.interior_point(
        2,
        a_strict=[vec([-1, 0]), vec([1, 0]), vec([0, -1]), vec([0, 1])],
        b_strict=vec([0, 1, 0, 1]),
    )
    assert x is not None
    assert 0 < x[0] < 1 and 0 < x[1] < 1


def test_interior_point_none_for_degenerate():
    # x > 0 and x < 0 cannot both hold strictly
    assert lp.interior_point(1, a_strict=[vec([1]), vec([-1])], b_strict=vec([0, 0])) is None


def test_interior_point_with_equalities():
    x = lp.interior_point(
        2,
        a_strict=[vec([-1, 0]), vec([1, 0])],
        b_strict=vec([0, 1]),
        a_eq=[vec([1, -1])],
        b_eq=vec([0]),
    )
    assert x is not None and x[0] == x[1] and 0 < x[0] < 1


@pytest.mark.parametrize(
    "name, args",
    [
        ("ub", dict(a_strict=[[1]], b_strict=[1], a_ub=[[1], [-1]], b_ub=[0])),
        ("strict", dict(a_strict=[[1], [-1]], b_strict=[1])),
        ("eq", dict(a_strict=[[1]], b_strict=[1], a_eq=[[1]], b_eq=[0, 1])),
    ],
)
def test_interior_point_needs_one_right_hand_side_per_row(name, args):
    # the message counts the caller's own arguments, not those of the LP it builds
    with pytest.raises(ValueError, match=rf"^a_{name} has \d rows but b_{name} has \d right-hand sides$"):
        lp.interior_point(1, **args)


def test_lexmin_breaks_ties():
    # the segment x + y = 1, x,y >= 0 minimizes x+y everywhere; lexmin picks x first
    objs = [vec([1, 0]), vec([0, 1])]
    x = lp.lexmin_point(
        objs,
        2,
        a_ub=[vec([-1, 0]), vec([0, -1])],
        b_ub=vec([0, 0]),
        a_eq=[vec([1, 1])],
        b_eq=vec([1]),
    )
    assert x == vec([0, 1])


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=2, max_size=2))
def test_box_lp_matches_separable_minimum(c):
    # min c.x over [0,1]^2 decomposes coordinatewise
    res = lp.solve(
        vec(c),
        2,
        a_ub=[vec([1, 0]), vec([0, 1]), vec([-1, 0]), vec([0, -1])],
        b_ub=vec([1, 1, 0, 0]),
    )
    assert res.ok
    assert res.value == sum(min(ci, F(0)) for ci in c)


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    coef = st.integers(-3, 3)
    rows = lambda m: st.lists(st.lists(coef, min_size=n, max_size=n), min_size=0, max_size=m)
    a_ub, a_eq = draw(rows(4)), draw(rows(2))
    b_ub = draw(st.lists(coef, min_size=len(a_ub), max_size=len(a_ub)))
    b_eq = draw(st.lists(coef, min_size=len(a_eq), max_size=len(a_eq)))
    c = draw(st.lists(coef, min_size=n, max_size=n))
    return n, k, a_ub, b_ub, a_eq, b_eq, c, draw(st.booleans())


@settings(max_examples=300)
@given(small_lps())
def test_nonneg_matches_explicit_rows(lp_case):
    # reference: all variables free, x_j >= 0 written as rows -x_j <= 0
    n, k, a_ub, b_ub, a_eq, b_eq, c, minimize = lp_case
    neg_id = [[-1 if j == i else 0 for j in range(n)] for i in range(n - k, n)]
    ref = lp.solve(c, n, minimize=minimize, a_ub=a_ub + neg_id, b_ub=b_ub + [0] * k, a_eq=a_eq, b_eq=b_eq)
    res = lp.solve(c, n, minimize=minimize, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=k)
    assert res.status == ref.status
    assert res.value == ref.value
    if res.ok:
        x = res.x
        assert len(x) == n and all(v >= 0 for v in x[n - k :])
        assert all(dot(r, x) <= b for r, b in zip(a_ub, b_ub))
        assert all(dot(r, x) == b for r, b in zip(a_eq, b_eq))
        assert dot(c, x) == res.value
    feasible = lp.feasible_point(n, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=k)
    assert (feasible is None) == (ref.status == lp.INFEASIBLE)


# --- the integer-row kernel against a plain Fraction tableau ------------------
# The reference is the dense Fraction two-phase simplex with Bland's rule that
# the integer-row kernel replaced.  Both must make the same pivots, so the
# pivot sequence, status, point and value all agree exactly.


def _ref_pivot(tab, basis, row, col, log):
    log.append((row, col))
    pv = tab[row][col]
    tab[row] = [x / pv for x in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
    basis[row] = col


def _ref_simplex(tab, basis, ncols, log):
    m = len(tab) - 1
    while True:
        obj = tab[m]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return lp.OPTIMAL
        row, best = None, None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][ncols] / tab[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    row, best = i, ratio
        if row is None:
            return lp.UNBOUNDED
        _ref_pivot(tab, basis, row, col, log)


def _ref_standard_simplex(a, b, c, log):
    m, n = len(a), len(c)
    a = [list(map(F, row)) for row in a]
    b = [F(x) for x in b]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    ncols = n + m
    tab = [a[i] + [F(1 if j == i else 0) for j in range(m)] + [b[i]] for i in range(m)]
    obj = [F(0)] * (ncols + 1)
    for i in range(m):
        obj = [o - t for o, t in zip(obj, tab[i])]
    for j in range(n, ncols):
        obj[j] = F(0)
    tab.append(obj)
    basis = list(range(n, ncols))
    _ref_simplex(tab, basis, ncols, log)
    if -tab[m][ncols] > 0:
        return lp.INFEASIBLE, None, None
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                del tab[i], basis[i]
            else:
                _ref_pivot(tab, basis, i, col, log)
    rows = len(tab) - 1
    tab = [row[:n] + [row[ncols]] for row in tab[:rows]]
    obj = [F(x) for x in c] + [F(0)]
    for i in range(rows):
        if obj[basis[i]] != 0:
            f = obj[basis[i]]
            obj = [x - f * y for x, y in zip(obj, tab[i])]
    tab.append(obj)
    if _ref_simplex(tab, basis, n, log) == lp.UNBOUNDED:
        return lp.UNBOUNDED, None, None
    x = [F(0)] * n
    for i in range(rows):
        x[basis[i]] = tab[i][n]
    return lp.OPTIMAL, tuple(x), -tab[rows][n]


def _ref_solve(c, n, **args):
    """lp.solve on the reference tableau: ((status, x, value), pivots)."""
    log = []
    with patch.object(lp, "_standard_simplex", partial(_ref_standard_simplex, log=log)):
        res = lp.solve(c, n, **args)
    return (res.status, res.x, res.value), log


def _int_solve(c, n, **args):
    """lp.solve as it is, with its pivots logged: ((status, x, value), pivots)."""
    log, pivot = [], lp._pivot

    def logged(tab, basis, row, col):
        log.append((row, col))
        pivot(tab, basis, row, col)

    with patch.object(lp, "_pivot", logged):
        res = lp.solve(c, n, **args)
    return (res.status, res.x, res.value), log


@st.composite
def rational_lps(draw):
    """Small LPs with rational data, mixed nonneg, and dependent equality rows."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rhs = st.one_of(st.just(F(0)), coef)  # zero right-hand sides make ratio ties
    row = st.lists(coef, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=4))
    a_eq = draw(st.lists(row, max_size=3))
    b_ub = draw(st.lists(rhs, min_size=len(a_ub), max_size=len(a_ub)))
    b_eq = draw(st.lists(rhs, min_size=len(a_eq), max_size=len(a_eq)))
    # repeat some equality rows, scaled by a nonzero factor: redundant rows
    for i in draw(st.lists(st.integers(0, len(a_eq) - 1), max_size=2) if a_eq else st.just([])):
        s = draw(st.sampled_from([F(1), F(-1), F(2), F(-1, 3), F(3, 2)]))
        a_eq.append([s * x for x in a_eq[i]])
        b_eq.append(s * b_eq[i])
    c = draw(row)
    return n, k, a_ub, b_ub, a_eq, b_eq, c, draw(st.booleans())


_EQ, _RHS = [[F(1), F(1)], [F(-1, 2), F(-1, 2)]], [F(1), F(-1, 2)]


@settings(max_examples=250)
@given(rational_lps())
# one case per outcome, each through a dependent equality row
@example((2, 2, [], [], _EQ, _RHS, [1, 0], True))  # optimal, the copy row dropped
@example((2, 2, [], [], _EQ, [F(1), F(1)], [1, 0], True))  # infeasible
@example((2, 1, [], [], _EQ, _RHS, [1, 0], True))  # unbounded: x = 1 - y, y >= 0
@example(  # a negative drive-out pivot ahead of phase-2 pivots
    (3, 1, [[1, 1, 0]], [0], [[0, F(1, 2), 2], [1, 1, -1], [0, 1, 4]], [-2, 0, -4], [-1, 1, 0], False)
)
def test_integer_rows_match_fraction_tableau(lp_case):
    n, k, a_ub, b_ub, a_eq, b_eq, c, minimize = lp_case
    args = dict(minimize=minimize, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=k)
    assert _int_solve(c, n, **args) == _ref_solve(c, n, **args)

