"""Exact simplex: feasibility, optimality, unboundedness, lexicographic ties."""

from fractions import Fraction as F

from hypothesis import given, settings
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
