"""Differential campaigns, deselected by default: run them with `pytest -m campaign -s`.

Each campaign checks an exact routine against an independent library, a
floating-point one or SymPy's exact matrices, on thousands of random instances
and prints how many it checked.
"""

import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from weylcone import lp
from weylcone import polyhedra as PH
from weylcone.linalg import det, dot, invert, rref

pytestmark = pytest.mark.campaign

TOL = 1e-9


def _random_bounded_polytope(rng, d):
    """A full-dimensional bounded polytope in Q^d: small integer normals, each
    offset 1-3 at a random rational centre (so the centre is interior)."""
    centre = [F(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(d)]
    while True:
        normals = set()
        while len(normals) < rng.randrange(d + 1, 2 * d + 4):
            a = tuple(rng.randrange(-2, 3) for _ in range(d))
            if any(a):
                normals.add(a)
        normals = sorted(normals)
        if PH.recession_cone_is_zero([tuple(map(F, a)) for a in normals], d):
            break
    pairs = [(a, rng.randrange(1, 4) - sum(x * c for x, c in zip(a, centre))) for a in normals]
    return PH.HPolyhedron.from_pairs(pairs, d)


def _scipy_vertices(h):
    """Vertices by SciPy's halfspace intersection from a HiGHS Chebyshev centre,
    with points that lie within TOL of each other merged."""
    a = np.array([[-float(x) for x in n] for n in h.normals])  # a.x <= b
    b = np.array([float(c) for c in h.offsets])
    d = h.dim
    res = linprog(
        np.r_[np.zeros(d), -1.0],
        A_ub=np.c_[a, np.linalg.norm(a, axis=1)],
        b_ub=b,
        bounds=[(None, None)] * d + [(0, None)],
        method="highs",
    )
    assert res.status == 0 and res.x[d] > 0
    hs = HalfspaceIntersection(np.c_[a, -b], res.x[:d])
    merged = []
    for p in hs.intersections:
        if not any(np.max(np.abs(p - q)) <= TOL for q in merged):
            merged.append(p)
    return merged


def test_vertices_match_scipy_halfspace_intersection():
    rng = random.Random(2024)
    checked = 0
    for k in range(2100):
        h = _random_bounded_polytope(rng, 2 + k % 3)
        exact = [np.array([float(x) for x in v]) for v in PH.vertices(h).vertices]
        floats = _scipy_vertices(h)
        assert len(exact) == len(floats), h
        for v in exact:
            assert min(np.max(np.abs(v - p)) for p in floats) <= TOL, (h, v)
        checked += 1
    print(f"\nvertices vs scipy HalfspaceIntersection: {checked} bounded full-dimensional polytopes, dim 2-4")
    assert checked >= 2000


# --- exact LPs against HiGHS ---------------------------------------------------

HIGHS_STATUS = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}


def _random_lp(rng):
    """A small LP with rational data, mixed `nonneg`, zero right-hand sides, in
    about half the cases an equality row that is a combination of others, and
    in about half a box that makes it bounded."""
    n = rng.randint(1, 5)

    def coef():
        return F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    def rhs():
        return F(0) if rng.random() < 0.3 else coef()

    a_ub = [[coef() for _ in range(n)] for _ in range(rng.randint(0, 4))]
    a_eq = [[coef() for _ in range(n)] for _ in range(rng.randint(0, 3))]
    b_ub = [rhs() for _ in a_ub]
    b_eq = [rhs() for _ in a_eq]
    if rng.random() < 0.5:  # a box |x_j| <= 3 bounds the LP
        for j in range(n):
            for s in (1, -1):
                a_ub.append([F(s * (i == j)) for i in range(n)])
                b_ub.append(F(3))
    if a_eq and rng.random() < 0.5:
        i, j, s = rng.randrange(len(a_eq)), rng.randrange(len(a_eq)), coef()
        a_eq.append([x + s * y for x, y in zip(a_eq[i], a_eq[j])])
        b_eq.append(b_eq[i] + s * b_eq[j])
    c = [coef() for _ in range(n)]
    return c, n, dict(minimize=rng.random() < 0.5, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=rng.randint(0, n))


def _floats(rows):
    return np.array([[float(x) for x in r] for r in rows]) if rows else None


def _highs(c, n, *, minimize, a_ub, b_ub, a_eq, b_eq, nonneg):
    """(status, optimal value) of the same LP by SciPy's HiGHS."""
    sign = 1 if minimize else -1
    args = dict(
        A_ub=_floats(a_ub),
        b_ub=[float(b) for b in b_ub] or None,
        A_eq=_floats(a_eq),
        b_eq=[float(b) for b in b_eq] or None,
        bounds=[(None, None)] * (n - nonneg) + [(0, None)] * nonneg,
        method="highs",
    )
    res = linprog([sign * float(x) for x in c], **args)
    assert res.status in HIGHS_STATUS, res.message
    if res.status == 3 and linprog(np.zeros(n), **args).status == 2:
        return lp.INFEASIBLE, None  # HiGHS may call an infeasible LP unbounded
    return HIGHS_STATUS[res.status], sign * res.fun if res.status == 0 else None


def test_solve_matches_highs():
    rng = random.Random(14)
    checked, outcomes = 0, Counter()
    for _ in range(2500):
        c, n, args = _random_lp(rng)
        res = lp.solve(c, n, **args)
        status, value = _highs(c, n, **args)
        assert res.status == status, (c, n, args)
        if res.ok:
            assert abs(float(res.value) - value) <= TOL * max(1.0, abs(value)), (c, n, args)
        checked += 1
        outcomes[res.status] += 1
    print(f"\nlp.solve vs scipy linprog (HiGHS): {checked} LPs, 1-5 variables, mixed nonneg; {dict(outcomes)}")
    assert checked >= 2000


def test_interior_point_matches_the_highs_margin():
    """interior_point is None exactly when HiGHS's largest uniform margin t
    (a_strict x + t <= b_strict, t <= 1) is at most TOL; margins within 1e-7
    of that cut are too close for floats to call and are skipped."""
    rng = random.Random(1999)
    checked = skipped = empty = 0
    while checked < 2000:
        _, n, args = _random_lp(rng)
        strict, b_strict = args["a_ub"], args["b_ub"]
        extra = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        a_ub, b_ub = extra, [F(rng.randint(-1, 3)) for _ in extra]
        a_eq, b_eq = args["a_eq"][:1], args["b_eq"][:1]
        x = lp.interior_point(n, a_strict=strict, b_strict=b_strict, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        margin_rows = [list(r) + [F(1)] for r in strict] + [list(r) + [F(0)] for r in a_ub]
        margin_rows.append([F(0)] * n + [F(1)])
        res = linprog(
            np.r_[np.zeros(n), -1.0],
            A_ub=_floats(margin_rows),
            b_ub=[float(b) for b in (*b_strict, *b_ub, 1)],
            A_eq=_floats([list(r) + [F(0)] for r in a_eq]),
            b_eq=[float(b) for b in b_eq] or None,
            bounds=[(None, None)] * (n + 1),
            method="highs",
        )
        assert res.status in (0, 2), res.message
        margin = -np.inf if res.status == 2 else res.x[n]
        if abs(margin - TOL) <= 1e-7:
            skipped += 1
            continue
        assert (x is None) == (margin <= TOL), (n, strict, b_strict, a_ub, b_ub, a_eq, b_eq, margin)
        if x is not None:
            assert all(dot(r, x) < b for r, b in zip(strict, b_strict))
            assert all(dot(r, x) <= b for r, b in zip(a_ub, b_ub))
            assert all(dot(r, x) == b for r, b in zip(a_eq, b_eq))
        checked += 1
        empty += x is None
    print(f"\nlp.interior_point vs the HiGHS margin: {checked} cases ({empty} with no point), {skipped} skipped near the cut")


# --- exact eliminations against SymPy --------------------------------------------


def _random_rank_matrix(rng, m, n, r):
    """An m x n rational matrix of rank at most r (almost always r): the product
    of random m x r and r x n factors with small rational entries."""
    def factor(rows, cols):
        return [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]

    left, right = factor(m, r), factor(r, n)
    return [[sum((left[i][k] * right[k][j] for k in range(r)), F(0)) for j in range(n)] for i in range(m)]


def test_rref_det_and_invert_match_sympy():
    sympy = pytest.importorskip("sympy")

    def fractions(matrix):
        return tuple(tuple(F(int(x.p), int(x.q)) for x in matrix.row(i)) for i in range(matrix.rows))

    rng = random.Random(16)
    ranks, squares = Counter(), 0
    for _ in range(3000):
        m = rng.randint(1, 6)
        n = m if rng.random() < 0.5 else rng.randint(1, 6)
        full = min(m, n)  # full rank twice as likely as each lower rank
        rows = _random_rank_matrix(rng, m, n, rng.choice((full, *range(full + 1))))
        exact = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
        reduced, pivots = exact.rref()
        assert rref(rows, n) == (fractions(reduced)[: len(pivots)], tuple(pivots)), rows
        ranks[len(pivots)] += 1
        if m == n:
            squares += 1
            d = exact.det()
            assert det(rows) == F(int(d.p), int(d.q)), rows
            if d == 0:
                with pytest.raises(ValueError):
                    invert(rows)
            else:
                assert invert(rows) == fractions(exact.inv()), rows
    print(f"\nrref, det and invert vs sympy.Matrix: 3000 matrices up to 6 x 6 ({squares} square), by rank {dict(sorted(ranks.items()))}")
    assert all(ranks[r] for r in range(7))
