"""Exact rational linear algebra kernel."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylcone.linalg import (
    add,
    coords_in_basis,
    det,
    dot,
    gram,
    identity,
    independent_subset,
    integer_rows,
    integer_solve,
    invert,
    mat_mul,
    mat_vec,
    nullspace,
    project_onto_span,
    rank,
    rref,
    scale,
    solve,
    solve_any,
    span_key,
    sub,
    transpose,
    vec,
)

from vertex_oracle import fraction_det, fraction_independent_subset, fraction_rref, fraction_solve

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def frac_vec(n):
    return st.tuples(*[fracs] * n)


def frac_mat(rows, cols):
    return st.tuples(*[frac_vec(cols)] * rows)


def test_rref_known():
    rows = [vec([1, 2, 3]), vec([2, 4, 6]), vec([0, 1, 1])]
    reduced, pivots = rref(rows)
    assert tuple(pivots) == (0, 1)
    assert reduced[0] == vec([1, 0, 1])
    assert reduced[1] == vec([0, 1, 1])


def test_rank_dependent_rows():
    assert rank([vec([1, 1]), vec([2, 2])], 2) == 1
    assert rank([], 3) == 0


def test_solve_and_invert_known():
    a = [vec([2, 1]), vec([1, 3])]
    x = solve(a, vec([5, 10]))
    assert mat_vec(a, x) == vec([5, 10])
    assert mat_mul(invert(a), a) == identity(2)


def test_solve_singular_raises():
    with pytest.raises(ValueError):
        solve([vec([1, 1]), vec([2, 2])], vec([1, 1]))


def test_solve_any_underdetermined():
    x = solve_any([vec([1, 1, 0])], vec([3]), 3)
    assert x is not None and x[0] + x[1] == 3
    assert solve_any([vec([0, 0]), vec([0, 0])], vec([1, 0]), 2) is None


@given(frac_mat(3, 3))
def test_det_transpose_invariant(m):
    assert det(list(m)) == det(transpose(list(m)))


@given(frac_mat(2, 2), frac_mat(2, 2))
def test_det_multiplicative(a, b):
    assert det(mat_mul(a, b)) == det(a) * det(b)


@given(frac_mat(3, 3))
def test_invert_roundtrip(m):
    rows = [vec(r) for r in m]
    if det(rows) == 0:
        with pytest.raises(ValueError):
            invert(rows)
    else:
        assert mat_mul(invert(rows), rows) == identity(3)


@given(frac_mat(2, 4))
def test_nullspace_annihilates(m):
    rows = [vec(r) for r in m]
    basis = nullspace(rows, 4)
    assert len(basis) == 4 - rank(rows, 4)
    for k in basis:
        assert all(dot(r, k) == 0 for r in rows)
    assert rank(list(basis), 4) == len(basis)


@given(frac_mat(3, 4))
def test_rref_preserves_row_space(m):
    rows = [vec(r) for r in m]
    reduced, pivots = rref(rows)
    assert span_key(rows, 4) == span_key(reduced, 4)
    assert len(pivots) == rank(rows, 4)


@given(frac_vec(3), frac_vec(3))
def test_vector_arithmetic(u, v):
    assert sub(add(u, v), v) == vec(u)
    assert scale(F(2), u) == add(u, u)
    assert dot(u, v) == dot(v, u)


def test_project_onto_span_idempotent_and_orthogonal():
    inner = identity(3)
    basis = [vec([1, 0, 0]), vec([1, 1, 0])]
    x = vec([F(2), F(3), F(5)])
    p = project_onto_span(basis, x, inner)
    assert project_onto_span(basis, p, inner) == p
    resid = sub(x, p)
    assert all(dot(b, mat_vec(inner, resid)) == 0 for b in basis)


def test_project_onto_span_nontrivial_inner():
    inner = [vec([2, -1]), vec([-1, 2])]
    basis = [vec([1, 0])]
    p = project_onto_span(basis, vec([0, 1]), inner)
    # residual must be inner-orthogonal to the basis, not euclidean-orthogonal
    assert dot(basis[0], mat_vec(inner, sub(vec([0, 1]), p))) == 0
    assert p == vec([F(-1, 2), F(0)])


@given(frac_vec(2))
def test_coords_in_basis_roundtrip(x):
    basis = [vec([1, 1]), vec([0, 1])]
    c = coords_in_basis(basis, x)
    assert c is not None
    assert add(scale(c[0], basis[0]), scale(c[1], basis[1])) == vec(x)


def test_coords_in_basis_off_span():
    assert coords_in_basis([vec([1, 0, 0])], vec([0, 1, 0])) is None


def test_independent_subset_lex_first():
    rows = [vec([1, 1]), vec([2, 2]), vec([0, 1]), vec([1, 0])]
    assert independent_subset(rows, 2) == (0, 2)
    assert independent_subset([vec([0, 0])], 2) == ()


def test_span_key_permutation_invariant():
    a = [vec([1, 2, 0]), vec([0, 1, 1])]
    b = [add(a[0], a[1]), scale(F(3), a[1])]
    assert span_key(a, 3) == span_key(b, 3)
    assert span_key(a, 3) != span_key([a[0]], 3)


def test_gram_symmetric():
    inner = [vec([2, -1]), vec([-1, 2])]
    basis = [vec([1, 0]), vec([1, 1])]
    g = gram(basis, inner)
    assert g == transpose(g)
    assert g[0][0] == F(2)


@st.composite
def square_systems(draw):
    """(a, b) with a n x n, n 0-4; a random a is almost always nonsingular."""
    n = draw(st.integers(min_value=0, max_value=4))
    return draw(frac_mat(n, n)), draw(frac_vec(n))


@st.composite
def singular_systems(draw):
    """(a, b) with a n x n, n 1-4, whose last row is a combination of the others."""
    n = draw(st.integers(min_value=1, max_value=4))
    rows = list(draw(frac_mat(n - 1, n)))
    coeffs = draw(st.lists(fracs, min_size=n - 1, max_size=n - 1))
    rows.append(tuple(sum((c * r[j] for c, r in zip(coeffs, rows)), F(0)) for j in range(n)))
    return rows, draw(frac_vec(n))


@given(square_systems())
def test_solve_matches_the_fraction_reference(case):
    a, b = case
    try:
        expected = fraction_solve(a, b)
    except ValueError:
        with pytest.raises(ValueError):
            solve(a, b)
        return
    assert solve(a, b) == expected
    rows, _ = integer_rows([(*row, x) for row, x in zip(a, b)])
    nums, den = integer_solve(rows, len(a))
    assert den > 0 and gcd(den, *nums) == 1  # the one canonical (nums, den) of the solution
    assert tuple(F(x, den) for x in nums) == expected


@given(singular_systems())
def test_singular_systems_still_raise(case):
    a, b = case
    with pytest.raises(ValueError):
        fraction_solve(a, b)
    with pytest.raises(ValueError):
        solve(a, b)
    assert integer_solve(integer_rows([(*row, x) for row, x in zip(a, b)])[0], len(a)) is None


@st.composite
def degenerate_matrices(draw, square=False):
    """(rows, width): m x n rational rows, m 0-5 and n 1-6 (n = m if square),
    each row random, zero, a copy of an earlier row or a combination of them."""
    m = draw(st.integers(min_value=0, max_value=5))
    n = m if square else draw(st.integers(min_value=1, max_value=6))
    rows: list[tuple[F, ...]] = []
    for _ in range(m):
        kind = draw(st.sampled_from(("random", "zero", "copy", "combination") if rows else ("random", "zero")))
        if kind == "random":
            row = draw(frac_vec(n))
        elif kind == "zero":
            row = (F(0),) * n
        elif kind == "copy":
            row = draw(st.sampled_from(rows))
        else:
            coeffs = draw(st.lists(fracs, min_size=len(rows), max_size=len(rows)))
            row = tuple(sum((c * r[j] for c, r in zip(coeffs, rows)), F(0)) for j in range(n))
        rows.append(row)
    return rows, n


@given(degenerate_matrices())
def test_rref_rank_nullspace_and_subset_match_the_fraction_reference(case):
    rows, n = case
    expected, pivots = fraction_rref(rows, n)
    assert rref(rows, n) == (expected, pivots)
    assert rank(rows, n) == len(pivots)
    kernel = tuple(
        tuple(-expected[pivots.index(c)][f] if c in pivots else F(c == f) for c in range(n))
        for f in range(n)
        if f not in pivots
    )
    assert nullspace(rows, n) == kernel
    assert independent_subset([vec(r) for r in rows], n) == fraction_independent_subset(rows, n)


@given(degenerate_matrices(), st.data())
def test_solve_any_matches_the_fraction_reference(case, data):
    rows, n = case
    b = data.draw(frac_vec(len(rows)))
    expected, pivots = fraction_rref([(*r, x) for r, x in zip(rows, b)], n + 1)
    x = solve_any(rows, b, n)
    if n in pivots:
        assert x is None
        return
    assert x == tuple(expected[pivots.index(c)][n] if c in pivots else F(0) for c in range(n))
    assert mat_vec(rows, x) == vec(b)


@given(degenerate_matrices(square=True))
def test_det_matches_the_fraction_reference(case):
    rows, _ = case
    assert det(rows) == fraction_det(rows)
