"""Differential campaigns, deselected by default: run them with `pytest -m campaign -s`.

Each campaign checks an exact routine against an independent reference, a
floating-point library, SymPy's exact matrices or a plain `Fraction` oracle,
on thousands of random instances and prints how many it checked.
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from weylcone import chambers as CH
from weylcone import lp
from weylcone import polyhedra as PH
from weylcone import regions as RG
from weylcone.linalg import det, dot, exact_json, invert, mat_vec, rref, transpose
from weylcone.rootspace import build_root_datum, minimal_parabolic, parabolic, weights_of

import chamber_oracle
import distance_oracle
import polytope_oracle
import region_oracle
import vertex_oracle

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


def _with_parallel_looser_rows(rng, h):
    """h with one to three rows parallel to its own: a row times 2 or 1/3 with
    its offset loosened by 0-2, then `_with_duplicate_and_redundant_rows`."""
    pairs = list(zip(h.normals, h.offsets))
    for _ in range(rng.randint(1, 3)):
        a, c = rng.choice(pairs)
        k = rng.choice((F(2), F(1, 3)))
        pairs.append((tuple(k * x for x in a), k * (c + rng.randint(0, 2))))
    return _with_duplicate_and_redundant_rows(rng, PH.HPolyhedron.from_pairs(pairs, h.dim))


def test_vertices_match_scipy_halfspace_intersection():
    """Every other polytope has duplicated, parallel looser and implied rows
    mixed in; SciPy always sees the polytope's own rows."""
    rng = random.Random(2024)
    checked = Counter()
    for k in range(2800):
        h = _random_bounded_polytope(rng, 2 + k % 4)
        mixed = _with_parallel_looser_rows(rng, h) if k // 4 % 2 else h
        exact = [np.array([float(x) for x in v]) for v in PH.vertices(mixed).vertices]
        floats = _scipy_vertices(h)
        assert len(exact) == len(floats), mixed
        for v in exact:
            assert min(np.max(np.abs(v - p)) for p in floats) <= TOL, (mixed, v)
        checked[f"dim {h.dim}{', mixed' if mixed is not h else ''}"] += 1
    print(f"\nvertices vs scipy HalfspaceIntersection, bounded full-dimensional: {dict(sorted(checked.items()))}")
    assert sum(checked.values()) == 2800


# --- exact volumes against Qhull ------------------------------------------------


def _random_point_cloud(rng, d):
    """Points in Q^d whose hull is full-dimensional: d+1 to d+3 random rational
    points, then up to two copies of them and up to two convex combinations of
    them (points that are no vertex), shuffled."""
    while True:
        n = rng.randint(d + 1, d + 3)
        pts = [tuple(F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(d)) for _ in range(n)]
        if PH.VPolytope(tuple(pts)).affine_dim() == d:
            break
    extra = [rng.choice(pts) for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(0, 2)):
        w = [F(rng.randint(0, 3)) for _ in pts]
        w[rng.randrange(len(w))] += 1
        extra.append(tuple(sum((wi * p[j] for wi, p in zip(w, pts)), F(0)) / sum(w) for j in range(d)))
    pts += extra
    rng.shuffle(pts)
    return PH.VPolytope(tuple(pts))


def _with_duplicate_and_redundant_rows(rng, h):
    """h with up to two of its rows repeated, each as it is or scaled by 2, and
    up to two implied rows: the sum of two rows with its offset loosened by 0-2."""
    pairs = list(zip(h.normals, h.offsets))
    for _ in range(rng.randint(0, 2)):
        a, c = rng.choice(pairs)
        k = rng.choice((1, 2))
        pairs.append((tuple(k * x for x in a), k * c))
    for _ in range(rng.randint(0, 2)):
        (a, c), (b, e) = rng.choice(pairs), rng.choice(pairs)
        if any(x + y for x, y in zip(a, b)):
            pairs.append((tuple(x + y for x, y in zip(a, b)), c + e + rng.randint(0, 2)))
    rng.shuffle(pairs)
    return PH.HPolyhedron.from_pairs(pairs, h.dim)


def test_volume_matches_scipy_convex_hull():
    rng = random.Random(20)
    kinds = Counter()
    for k in range(3000):
        if k % 3:
            d = 2 + k % 4
            poly = _random_point_cloud(rng, d)
            kinds[f"points, dim {d}"] += 1
        else:
            d = 2 + k % 2
            poly = PH.vertices(_with_duplicate_and_redundant_rows(rng, _random_bounded_polytope(rng, d)))
            kinds[f"rows, dim {d}"] += 1
        exact = PH.volume(poly)
        floats = ConvexHull(np.array([[float(x) for x in p] for p in poly.vertices])).volume
        assert exact > 0 and abs(float(exact) - floats) <= TOL * floats, (poly, exact, floats)
    print(f"\nvolume vs scipy ConvexHull: 3000 full-dimensional polytopes, {dict(sorted(kinds.items()))}")


# --- exp integrals against mpmath ----------------------------------------------


def _tiny_simplex(rng, d):
    """A nondegenerate d-simplex with edges 2^-6 to 2^-12, at a rational corner
    c with |c_i| up to 50, and an integer exponent mu with |mu_i| <= 4."""
    h = F(1, 2 ** rng.randint(6, 12))
    corner = tuple(F(rng.randint(-50 * 64, 50 * 64), 64) for _ in range(d))
    while True:
        edges = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        if det([[F(x) for x in e] for e in edges]) != 0:
            break
    pts = [corner] + [tuple(c + h * x for c, x in zip(corner, e)) for e in edges]
    return PH.VPolytope(tuple(sorted(pts))), tuple(F(rng.randint(-4, 4)) for _ in range(d))


def _mp_simplex_integral(simplex, mu):
    """∫ e^{mu} over the simplex by mpmath's Gauss-Legendre quadrature on the
    unit cube, through x = v0 + u (v1 - v0) + (1 - u) w (v2 - v0) in dimension 2.
    The factor e^{mu(v0)} stays outside the integral: mpmath's error estimate is
    absolute, and the integrand is near 1 without it."""
    with mpmath.workdps(40):
        pts = [[mpmath.mpf(c.numerator) / c.denominator for c in p] for p in simplex.vertices]
        m = [mpmath.mpf(int(c)) for c in mu]
        v0, *rest = pts
        diffs = [[a - b for a, b in zip(v, v0)] for v in rest]
        base = mpmath.fsum(a * b for a, b in zip(m, v0))
        slopes = [mpmath.fsum(a * b for a, b in zip(m, e)) for e in diffs]
        if len(pts) == 2:
            jac = abs(diffs[0][0])
            value = mpmath.quad(lambda u: mpmath.exp(u * slopes[0]), [0, 1], method="gauss-legendre")
        else:
            jac = abs(diffs[0][0] * diffs[1][1] - diffs[0][1] * diffs[1][0])
            value = mpmath.quad(
                lambda u, w: (1 - u) * mpmath.exp(u * slopes[0] + (1 - u) * w * slopes[1]),
                [0, 1], [0, 1], method="gauss-legendre",
            )
        return float(jac * mpmath.exp(base) * value)


def test_integrate_exp_matches_mpmath_on_tiny_far_simplices():
    rng = random.Random(26)
    worst, checked = 0.0, Counter()
    for k in range(400):
        d = 1 + k % 2
        simplex, mu = _tiny_simplex(rng, d)
        got = PH.integrate_exp_oracle(simplex, mu)
        want = _mp_simplex_integral(simplex, mu)
        rel = abs(got - want) / want
        assert rel <= 1e-12, (simplex, mu, got, want)
        worst = max(worst, rel)
        checked[f"dim {d}"] += 1
    print(f"\nintegrate_exp_oracle vs mpmath.quad: {dict(checked)} tiny far simplices, worst relative error {worst:.2g}")


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


def test_strictly_feasible_matches_the_highs_margin():
    """strictly_feasible is True exactly when HiGHS's largest uniform margin t
    (a_strict x + t <= b_strict, t <= 1) exceeds TOL.  The strict rows are
    `_random_lp`'s inequality rows, sometimes projected onto x_0 = 0 so that
    they do not span, plus repeated rows, wall pairs a x < b, -a x < -b and
    zero rows.  A cell that only touches a wall has margin exactly 0, which
    HiGHS returns as 0.0, so those are checked; positive margins up to 1e-7
    are too close to HiGHS's tolerance to call and are skipped."""
    rng = random.Random(2101)
    checked = skipped = empty = 0
    while checked < 2000:
        _, n, args = _random_lp(rng)
        rows, rhs = [list(r) for r in args["a_ub"]], list(args["b_ub"])
        if n > 1 and rng.random() < 0.3:
            rows = [[F(0)] + r[1:] for r in rows]
        if rows and rng.random() < 0.3:
            i = rng.randrange(len(rows))
            rows.append(rows[i])
            rhs.append(rhs[i])
        if rows and rng.random() < 0.3:
            i = rng.randrange(len(rows))
            rows.append([-x for x in rows[i]])
            rhs.append(-rhs[i])
        if rng.random() < 0.2:
            rows.append([F(0)] * n)
            rhs.append(F(rng.randint(-1, 1)))
        feasible = polytope_oracle.strictly_feasible(n, a_strict=rows, b_strict=rhs)
        res = linprog(
            np.r_[np.zeros(n), -1.0],
            A_ub=_floats([r + [F(1)] for r in rows] + [[F(0)] * n + [F(1)]]),
            b_ub=[float(b) for b in (*rhs, 1)],
            bounds=[(None, None)] * (n + 1),
            method="highs",
        )
        assert res.status == 0, res.message  # t can go down and t <= 1: always optimal
        margin = res.x[n]
        if TOL < margin <= 1e-7:
            skipped += 1
            continue
        assert feasible == (margin > TOL), (n, rows, rhs, margin)
        checked += 1
        empty += not feasible
    print(f"\nstrictly_feasible vs the HiGHS margin: {checked} cases ({empty} empty), {skipped} skipped near the cut")


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


# --- compiled region systems against the Fraction oracle ----------------------


def _random_parameter(rng):
    """Small integers, moderate fractions, and large numerators or denominators, of either sign."""
    kind = rng.randrange(4)
    if kind == 0:
        return F(rng.randint(-50, 50))
    if kind == 1:
        return F(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
    if kind == 2:
        return F(rng.randint(-(2**70), 2**70), rng.randint(1, 2**64))
    return F(rng.randint(-9, 9), rng.choice((2**61 - 1, 10**18 + 9, 3**40)))


def test_instantiate_matches_the_fraction_oracle_at_rank_three():
    a3 = build_root_datum("A", 3)
    b3 = build_root_datum("B", 3)
    cases = []  # (datum, rep, p outside, q outside, epsilon or None for the suggested one, T, S)
    a3_t, a3_s = (F(99), F(77), F(44)), (F(3, 5), F(7, 15), F(4, 15))
    cases.append((a3, "standard", {0, 1, 2}, {2}, F(1, 40), a3_t, a3_s))
    cases.append((a3, "standard", {0, 1}, {1}, None, a3_t, a3_s))
    cases.append((a3, "adjoint", {0, 1, 2}, {2}, None, (F(28), F(217, 8), F(73, 4)), (F(33, 64), F(1, 2), F(67, 192))))
    cases.append((b3, "standard", {0, 1}, {0}, None, (F(55), F(77), F(44)), (F(5, 8), F(7, 8), F(1, 2))))
    systems = []
    for datum, rep, p_out, q_out, eps, t, s in cases:
        fam = RG.pi_cones(RG.psi_pi(datum, weights_of(datum, rep)))
        p, q = parabolic(datum, frozenset(p_out)), parabolic(datum, frozenset(q_out))
        eps = RG.suggest_epsilon(fam) if eps is None else eps
        ctx = RG.make_context(datum, p, q, fam.psi, eps, family=fam)
        descs = RG.decompose(ctx, t, s)
        systems += [(ctx, ineqs) for _, ineqs in region_oracle.region_systems(ctx, descs, t, s)]
    rng = random.Random(17)
    rows = 0
    for _ in range(3000):
        ctx, ineqs = rng.choice(systems)
        t = tuple(_random_parameter(rng) for _ in range(3))
        s = tuple(_random_parameter(rng) for _ in range(3))
        h = RG.instantiate(ineqs, ctx.basis, ctx.b_form, t, s)
        assert (h.normals, h.offsets) == region_oracle.instantiate_oracle(ineqs, ctx.basis, ctx.b_form, t, s), (ineqs, t, s)
        rows += len(ineqs)
    print(f"\ninstantiate vs the Fraction oracle: 3000 (T, S) over {len(systems)} rank-3 systems, {rows} rows")


# --- d^2 against the face-enumeration oracle ----------------------------------

D2_FAMILIES = ["A2/adjoint", "A2/standard", "A2/sym2", "B2/standard", "B2/adjoint", "C2/standard", "C2/adjoint",
               "D2/adjoint", "A3/standard", "A3/adjoint", "B3/standard", "B3/adjoint", "C3/standard", "C3/adjoint"]


def test_d_value_matches_the_face_oracle_at_many_points():
    """d^2 over the undominated kernels against `distance_oracle`, which
    enumerates the faces of each hull for every admissible kernel."""
    points = 0
    for family in D2_FAMILIES:
        datum = build_root_datum(family[0], int(family[1]))
        psi = RG.psi_pi(datum, weights_of(datum, family[3:]))
        roots_inv = invert(datum.simple_roots)
        rng = random.Random(family)
        for _ in range(40 if datum.rank == 2 else 25):
            # a regular dominant point from its simple-root values
            values = [F(rng.randint(1, 60), rng.choice((1, 2, 3, 4, 7))) for _ in range(datum.rank)]
            x = tuple(mat_vec(roots_inv, values))
            assert RG.d_value_squared(x, psi) == distance_oracle.d_value_squared(x, psi), (family, x)
            points += 1
    print(f"\nd^2 vs the face oracle: {points} regular dominant points over {len(D2_FAMILIES)} families")


# (regular dominant, non-dominant) points per rank-4 family; the oracle takes
# about 3-5 s per point on B4 and D4 and 8-10 s on A4
D2_RANK4_POINTS = {"A4/standard": (1, 1), "B4/standard": (2, 2), "D4/standard": (2, 2)}


def test_d_value_matches_the_face_oracle_at_rank_four():
    """d^2 against `distance_oracle` on A4, B4 and D4 standard, at regular
    dominant points and at points with a negative simple-root value."""
    points = 0
    for family, (dominant, other) in D2_RANK4_POINTS.items():
        datum = build_root_datum(family[0], 4)
        psi = RG.psi_pi(datum, weights_of(datum, "standard"))
        roots_inv = invert(datum.simple_roots)
        rng = random.Random(family)
        for i in range(dominant + other):
            # a point from its simple-root values, all positive for the first `dominant`
            values = [F(rng.randint(1, 60), rng.choice((1, 2, 3, 4, 7))) for _ in range(4)]
            if i >= dominant:
                values[rng.randrange(4)] *= -1
            x = tuple(mat_vec(roots_inv, values))
            assert RG.d_value_squared(x, psi) == distance_oracle.d_value_squared(x, psi), (family, x)
            points += 1
    print(f"\nd^2 vs the face oracle at rank 4: {points} points over {len(D2_RANK4_POINTS)} families")


# --- the wall test of pi_cones against its LP form at rank 4 -----------------


def test_wall_test_matches_the_lp_oracle_at_rank_four():
    """`_meets_signed_root_cone` (closed form at k = 1, 3 and 4, an LP at k = 2)
    against one feasibility LP on every kernel basis of every rank-4 family."""
    bases = 0
    for ctype in "ABCD":
        datum = build_root_datum(ctype, 4)
        coords = invert(transpose(datum.simple_roots))
        for rep in ("standard", "adjoint", "sym2"):
            psi = RG.psi_pi(datum, weights_of(datum, rep))
            for b in psi.kernels[0]:
                got = RG._meets_signed_root_cone(datum, b, coords)
                assert got == region_oracle.meets_signed_root_cone_lp(datum, b), (ctype, rep, b)
                bases += 1
    print(f"\nwall test vs the LP oracle: {bases} kernel bases over 12 rank-4 families")


# --- span classes and cone families at rank 4 --------------------------------


def test_span_classes_match_the_subset_oracle_at_rank_four():
    """`_span_classes` against `region_oracle.span_classes_oracle` (same keys,
    subsets and order) on the system at every p of B4, C4 and D4 adjoint and
    A4 and B4 sym2; the oracle takes about 12 s."""
    classes = 0
    for family in ("B4/adjoint", "C4/adjoint", "D4/adjoint", "A4/sym2", "B4/sym2"):
        datum = build_root_datum(family[0], 4)
        psi = RG.psi_pi(datum, weights_of(datum, family[3:]))
        for funcs in region_oracle.systems_at_every_p(psi):
            got = list(RG._span_classes(funcs, 4).items())
            assert got == list(region_oracle.span_classes_oracle(funcs, 4).items()), family
            classes += len(got)
    print(f"\nspan classes vs the subset oracle: {classes} classes over 5 rank-4 families")


# walls, cells, and the digests (`_digest`) of the hyperplanes and of each
# cell's (signs, witness, d2) of `pi_cones`, recorded while the span classes
# were still found by the subset loop of `region_oracle.span_classes_oracle`;
# the A4 families were recorded while every cell was still decided by an LP
RANK4_CONE_FAMILIES = {
    "A4/standard": (22, 94, "3c81729da4e3bc58", "ad93c67a6afe2553"),
    "A4/adjoint": (8, 19, "2727d59e46619ca8", "72b6afccb142ff8c"),
    "A4/sym2": (41, 508, "2ed62d0a5ecc22a6", "95f6862b3bca3a10"),
    "B4/adjoint": (7, 15, "a03d451329306888", "604660c22ae6fc82"),
    "C4/adjoint": (7, 15, "238a27dbc41c17c8", "8b6f03cca2202d7e"),
    "D4/adjoint": (3, 6, "225af197f74d655d", "798290203ae79b8f"),
    "B4/sym2": (7, 15, "a03d451329306888", "604660c22ae6fc82"),
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(exact_json(obj)).encode()).hexdigest()[:16]


def test_rank_four_cone_families_are_pinned():
    for family, pinned in RANK4_CONE_FAMILIES.items():
        datum = build_root_datum(family[0], 4)
        fam = RG.pi_cones(RG.psi_pi(datum, weights_of(datum, family[3:])))
        cells = [(c.signs, c.witness, c.d2) for c in fam.cones]
        assert (len(fam.hyperplanes), len(fam.cones), _digest(fam.hyperplanes), _digest(cells)) == pinned, family
    print(f"\npi_cones pinned on {len(RANK4_CONE_FAMILIES)} rank-4 families")


# --- the A4 adjoint leaves tile their base region ---------------------------

# The inputs of test_regions.py::test_a4_adjoint_recursion_is_pinned, and the
# volume of the base region R for each Q.
A4_ADJ_T = (F(119), F(119), F(102), F(68))
A4_ADJ_S = (F(7, 9), F(7, 9), F(2, 3), F(4, 9))
A4_ADJ_VOLUMES = {0: F(7050155, 1296), 1: F(3129581, 216)}


def test_a4_adjoint_leaf_volumes_sum_to_the_base_region():
    a4 = build_root_datum("A", 4)
    fam = RG.pi_cones(RG.psi_pi(a4, weights_of(a4, "adjoint")))
    eps = RG.suggest_epsilon(fam)
    t, s = A4_ADJ_T, A4_ADJ_S
    for outside, want in A4_ADJ_VOLUMES.items():
        q = parabolic(a4, frozenset({outside}))
        ctx = RG.make_context(a4, minimal_parabolic(a4), q, fam.psi, eps, family=fam)
        descs = RG.decompose(ctx, t, s)
        leaves = [RG.instantiate(RG.region_inequalities(ctx.psi, d), ctx.basis, ctx.b_form, t, s) for d in descs]
        total = sum(PH.volume(PH.vertices(h)) for h in leaves)
        base = RG.instantiate(RG.base_inequalities(ctx.psi, ctx.p, ctx.q), ctx.basis, ctx.b_form, t, s)
        assert total == PH.volume(PH.vertices(base)) == want, (outside, total)
        print(f"\nA4 adjoint P0 <= Q{{{outside}}}: {len(descs)} leaves, volumes sum to {total}")


def test_a4_adjoint_leaf_faces_from_rows_match_the_point_sets():
    a4 = build_root_datum("A", 4)
    fam = RG.pi_cones(RG.psi_pi(a4, weights_of(a4, "adjoint")))
    eps = RG.suggest_epsilon(fam)
    t, s = A4_ADJ_T, A4_ADJ_S
    count = 0
    for outside in A4_ADJ_VOLUMES:
        ctx = RG.make_context(a4, minimal_parabolic(a4), parabolic(a4, frozenset({outside})), fam.psi, eps, family=fam)
        for d in RG.decompose(ctx, t, s):
            vp = PH.vertices(RG.instantiate(RG.region_inequalities(ctx.psi, d), ctx.basis, ctx.b_form, t, s))
            polytope_oracle.assert_rows_match_points(vp)
            count += 1
    assert count == 65
    print(f"\nA4 adjoint P0 <= Q{{0}}, Q{{1}}: all {count} leaves match their point sets and the brute-force facets")


def test_a4_adjoint_vertices_match_basis_enumeration():
    """`vertices` (double description) against `vertex_oracle.basis_vertices` on
    the 67 A4 adjoint systems: both base regions and their 48 + 17 leaves."""
    a4 = build_root_datum("A", 4)
    fam = RG.pi_cones(RG.psi_pi(a4, weights_of(a4, "adjoint")))
    eps = RG.suggest_epsilon(fam)
    t, s = A4_ADJ_T, A4_ADJ_S
    systems = []
    for outside in A4_ADJ_VOLUMES:
        ctx = RG.make_context(a4, minimal_parabolic(a4), parabolic(a4, frozenset({outside})), fam.psi, eps, family=fam)
        systems.append(RG.instantiate(RG.base_inequalities(ctx.psi, ctx.p, ctx.q), ctx.basis, ctx.b_form, t, s))
        systems += [RG.instantiate(RG.region_inequalities(ctx.psi, d), ctx.basis, ctx.b_form, t, s) for d in RG.decompose(ctx, t, s)]
    assert len(systems) == 67
    for h in systems:
        got, want = PH.vertices(h), vertex_oracle.basis_vertices(h)
        assert (got.vertices, got.incidences) == (want.vertices, want.incidences), h
    print(f"\nA4 adjoint P0 <= Q{{0}}, Q{{1}}: vertices and incidences of {len(systems)} systems match basis enumeration")


def test_a4_adjoint_refinements_match_the_lp_oracle():
    """refine against `region_oracle.refine_oracle` on the 17 A4 adjoint Q{1} leaves,
    each with its pi_zero and up to 3 proper subsets: m = 3 occurs once."""
    a4 = build_root_datum("A", 4)
    fam = RG.pi_cones(RG.psi_pi(a4, weights_of(a4, "adjoint")))
    ctx = RG.make_context(a4, minimal_parabolic(a4), parabolic(a4, frozenset({1})), fam.psi, RG.suggest_epsilon(fam), family=fam)
    t, s = A4_ADJ_T, A4_ADJ_S
    descs = RG.decompose(ctx, t, s)
    assert len(descs) == 17
    kinds = Counter()
    for desc, pi_one in region_oracle.refine_cases(descs, proper=3):
        got = region_oracle.refine_outcome(RG.refine, ctx, desc, pi_one, t, s)
        assert got == region_oracle.refine_outcome(region_oracle.refine_oracle, ctx, desc, pi_one, t, s), (desc, pi_one)
        kinds[region_oracle.outcome_kind(got)] += 1
    print(f"\nA4 adjoint P0 <= Q{{1}}: {sum(kinds.values())} refinements match the LP oracle: {dict(kinds)}")
    assert kinds["m=3"] == 1


def _chamber_case(rng, d):
    """A bounded parametric polyhedron in Q^d (integer normals, or entries of
    denominators 2-7), with the identity or a random N x m offset map, and a
    chamber: the one at x(theta) for a random theta if P(x(theta)) is nonempty,
    else at a random positive x.  Returns (data, chamber, dual vectors)."""
    fractional = rng.random() < 0.5

    def entry(lo, hi):
        return F(rng.randrange(lo, hi), rng.randrange(2, 8) if fractional else 1)

    n = rng.randrange(d + 1, d + 4)
    while True:
        normals = tuple(tuple(entry(-3, 4) for _ in range(d)) for _ in range(n))
        try:
            base = CH.ParametricPolyhedron.make(normals, d)
        except ValueError:
            continue
        if CH.is_bounded(base):
            break
    m = rng.randrange(1, n + 2)
    om = None if rng.random() < 0.3 else [tuple(entry(-2, 3) for _ in range(m)) for _ in range(n)]
    pp = CH.ParametricPolyhedron.make(normals, d, offset_matrix=om)
    cd = CH.enumerate_bases(pp)
    try:
        asg = CH.chamber_of(cd, pp.offsets([entry(-4, 5) for _ in range(pp.n_params)]))
    except ValueError:
        asg = CH.chamber_of(cd, tuple(F(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(n)))
    duals = [u for s in sorted(asg.members, key=sorted) for u in cd.sigmas[s].dual_basis]
    return cd, asg.members, duals


def _outcome(limit, cd, chamber, mu):
    try:
        return limit(cd, chamber, mu)
    except (ValueError, AssertionError) as exc:  # PoleCancellationError is an AssertionError
        return type(exc), str(exc)


def test_chamber_limit_matches_the_polynomial_oracle():
    rng = random.Random(20261020)
    kinds = Counter()
    for case in range(2000):
        d = 1 + case % 4
        cd, chamber, duals = _chamber_case(rng, d)
        kind = ("zero", "random", "kills")[case // 4 % 3]
        if kind == "zero":
            mu = (F(0),) * d
        elif kind == "random":
            mu = tuple(F(rng.randrange(-3, 4), rng.randrange(1, 8)) for _ in range(d))
        else:  # free entries off i, and the one at i that makes mu(u) = 0
            u = rng.choice(duals)
            i = next(i for i, a in enumerate(u) if a)
            mu = [F(rng.randrange(-3, 4), rng.randrange(1, 8)) for _ in range(d)]
            mu[i] = -sum((c * a for j, (c, a) in enumerate(zip(mu, u)) if j != i), F(0)) / u[i]
        got = _outcome(CH.bv_limit_tfinite, cd, chamber, mu)
        assert got == _outcome(chamber_oracle.limit_tfinite, cd, chamber, mu), (cd.pp, sorted(map(sorted, chamber)), mu)
        kinds[(d, kind, "error" if isinstance(got, tuple) else "form")] += 1
    print(f"\nbv_limit_tfinite vs the polynomial oracle: 2000 chambers, {dict(sorted(kinds.items()))}")
