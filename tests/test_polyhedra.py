"""Exact polytope kernel and its numeric integration oracle."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylcone import polyhedra as PH
from weylcone.linalg import dot, neg, sub, vec

import vertex_oracle
from distance_oracle import squared_distance
from polytope_oracle import (
    assert_rows_match_points,
    brute_facets,
    contains,
    face_lattice,
    mc_integrate_exp,
    min_norm_squared,
    support_value,
    tight_set,
    to_hrep,
)

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def cube_h(d):
    normals = []
    offsets = []
    for i in range(d):
        e = [F(0)] * d
        e[i] = F(1)
        normals.append(tuple(e))
        offsets.append(F(0))  # x_i >= 0
        normals.append(tuple(-c for c in e))
        offsets.append(F(1))  # x_i <= 1
    return PH.HPolyhedron(tuple(normals), tuple(offsets), d)


def simplex_h(d):
    normals = []
    offsets = []
    for i in range(d):
        e = [F(0)] * d
        e[i] = F(1)
        normals.append(tuple(e))
        offsets.append(F(0))
    normals.append(tuple([F(-1)] * d))
    offsets.append(F(1))  # sum x_i <= 1
    return PH.HPolyhedron(tuple(normals), tuple(offsets), d)


def test_vertices_square():
    vp = PH.vertices(cube_h(2))
    assert set(vp.vertices) == {
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    }


def test_vertices_empty_and_unbounded():
    empty = PH.HPolyhedron(((F(1),), (F(-1),)), (F(-2), F(1)), 1)
    assert PH.vertices(empty).vertices == ()
    ray = PH.HPolyhedron(((F(1),),), (F(0),), 1)
    with pytest.raises(PH.UnboundedError):
        PH.vertices(ray)


def test_tight_set_and_contains():
    h = cube_h(2)
    assert contains(h, (F(1, 2), F(1, 2)))
    assert not contains(h, (F(2), F(0)))
    corner = (F(0), F(1))
    tight = tight_set(h, corner)
    assert tight == {0, 3}


def test_face_lattice_square_census():
    lattice = face_lattice(cube_h(2))
    sizes = sorted(len(f) for f in lattice.values())
    # 4 vertices, 4 edges, 1 full face
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 4]


def test_face_lattice_simplex_census():
    lattice = face_lattice(simplex_h(3))
    by_card = {}
    for f in lattice.values():
        by_card[len(f)] = by_card.get(len(f), 0) + 1
    assert by_card == {1: 4, 2: 6, 3: 4, 4: 1}


def test_in_hull_interval():
    pts = [(F(0),), (F(2),)]
    assert PH.in_hull(pts, (F(1),))
    assert PH.in_hull(pts, (F(2),))
    assert not PH.in_hull(pts, (F(5, 2),))
    assert not PH.in_hull([], (F(0),))


@given(st.tuples(fracs, fracs))
def test_in_hull_matches_hrep_membership(x):
    square = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    member = PH.in_hull(square, x)
    assert member == (0 <= x[0] <= 1 and 0 <= x[1] <= 1)


def test_extreme_points_drops_midpoints():
    pts = [(F(0),), (F(1),), (F(2),), (F(1, 2),)]
    assert PH.extreme_points(pts) == ((F(0),), (F(2),))


def test_minkowski_sum_square_plus_segment():
    sq = PH.VPolytope(((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))))
    seg = PH.VPolytope(((F(0), F(0)), (F(2), F(0))))
    s = PH.minkowski_sum(sq, seg)
    assert set(s.vertices) == {
        (F(0), F(0)),
        (F(3), F(0)),
        (F(0), F(1)),
        (F(3), F(1)),
    }


def test_support_value():
    vp = PH.vertices(cube_h(2))
    assert support_value(vp, (F(1), F(1))) == F(2)
    assert support_value(vp, (F(-1), F(0))) == F(0)


def test_to_hrep_roundtrip_square():
    vp = PH.vertices(cube_h(2))
    h = to_hrep(vp)
    assert set(PH.vertices(h).vertices) == set(vp.vertices)


def test_to_hrep_lower_dimensional_segment():
    seg = PH.VPolytope(((F(0), F(0)), (F(1), F(1))))
    h = to_hrep(seg)
    assert set(PH.vertices(h).vertices) == set(seg.vertices)


def test_volume_simplices_and_cubes():
    for d in (1, 2, 3, 4):
        assert PH.volume(PH.vertices(cube_h(d))) == 1
        assert PH.volume(PH.vertices(simplex_h(d))) == F(1, math.factorial(d))


def test_volume_lower_dimensional_is_zero():
    seg = PH.VPolytope(((F(0), F(0)), (F(1), F(0))))
    assert PH.volume(seg) == 0


def test_triangulate_partitions_volume():
    # hexagon: triangulation volumes must add up to the polygon area
    pts = [(F(2), F(0)), (F(1), F(2)), (F(-1), F(2)), (F(-2), F(0)), (F(-1), F(-2)), (F(1), F(-2))]
    vp = PH.VPolytope(tuple(sorted(pts)))
    total = F(0)
    for simplex in PH.triangulate(vp):
        m = [sub(p, simplex[0]) for p in simplex[1:]]
        total += abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) / 2
    assert total == PH.volume(vp) == F(12)


def test_squared_distance_point_cases():
    seg = PH.VPolytope(((F(1), F(0)), (F(2), F(0))))
    # distance from ker(x axis functional)... use forms = [e0]: kernel is the y axis
    d2 = squared_distance([(F(1), F(0))], seg)
    assert d2 == F(1)
    through = PH.VPolytope(((F(-1), F(1)), (F(1), F(1))))
    assert squared_distance([(F(1), F(0))], through) == F(0)


def test_squared_distance_weighted_inner():
    # |.|^2 = 2x^2 with inner = diag(2,1): kernel of e0 to the point (3,0)
    pt = PH.VPolytope(((F(3), F(0)),))
    inner = ((F(2), F(0)), (F(0), F(1)))
    assert squared_distance([(F(1), F(0))], pt, inner=inner) == F(18)


@st.composite
def min_norm_cases(draw, d):
    """A positive-definite metric L L^T and a point cloud in dimension d:
    general, with repeats, collinear, coplanar, symmetric about the origin
    (origin inside) or in a half-space through a symmetric pair (origin on
    the boundary)."""
    lower = [[draw(st.integers(1, 3)) if i == j else draw(st.integers(-2, 2)) if j < i else 0
              for j in range(d)] for i in range(d)]
    metric = tuple(tuple(F(sum(a * b for a, b in zip(r, c))) for c in lower) for r in lower)
    point = st.tuples(*[fracs] * d)
    shape = draw(st.sampled_from(("general", "repeated", "collinear", "coplanar", "inside", "boundary")))
    pts = draw(st.lists(point, min_size=1, max_size=6))
    if shape == "repeated":
        pts += draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3))
    elif shape in ("collinear", "coplanar"):
        dirs = draw(st.lists(point, min_size=1, max_size=1 if shape == "collinear" else 2))
        pts = [tuple(a + sum(draw(fracs) * u[i] for u in dirs) for i, a in enumerate(pts[0]))
               for _ in range(draw(st.integers(2, 5)))]
    elif shape == "inside":
        pts += [neg(p) for p in pts]
    elif shape == "boundary":  # x_0 >= 0 on the cloud, and the pair +-u has x_0 = 0
        u = (F(0),) + draw(point)[1:]
        pts = [u, neg(u)] + [(abs(p[0]),) + p[1:] for p in pts]
    return metric, pts


@pytest.mark.parametrize("d", [1, 2, 3])
@given(data=st.data())
def test_min_norm_squared_matches_the_face_oracle(d, data):
    metric, pts = data.draw(min_norm_cases(d))
    got = min_norm_squared(pts, metric)
    # with every coordinate as a form the kernel is {0}: the oracle's distance is the least norm
    want = squared_distance([tuple(F(i == j) for j in range(d)) for i in range(d)], PH.VPolytope(tuple(pts)), metric)
    assert got == want
    assert got <= min(dot(p, [dot(r, p) for r in metric]) for p in pts)


def test_min_norm_squared_point_cases():
    diag = ((F(2), F(0)), (F(0), F(1)))
    # nearest point of the segment (1,-1)-(1,1) to 0 is (1,0): 2 * 1^2
    assert min_norm_squared([(F(1), F(-1)), (F(1), F(1))], diag) == 2
    # a triangle around the origin, given with a repeated vertex
    tri = [(F(1), F(0)), (F(-1), F(1)), (F(-1), F(-1)), (F(1), F(0))]
    assert min_norm_squared(tri, diag) == 0
    # integer input stays exact and comes back as a Fraction
    got = min_norm_squared([(-3, 2), (-3, -4)], ((5, 0), (0, 1)))
    assert got == 45 and isinstance(got, F)


def closed_form_exp_cube(mu):
    out = 1.0
    for m in mu:
        out *= (math.exp(m) - 1) / m if m else 1.0
    return out


def test_integrate_exp_oracle_closed_forms():
    vp1 = PH.vertices(cube_h(1))
    assert abs(PH.integrate_exp_oracle(vp1, (F(1),)) - (math.e - 1)) < 1e-12
    vp2 = PH.vertices(cube_h(2))
    got = PH.integrate_exp_oracle(vp2, (F(1), F(2)))
    assert abs(got - closed_form_exp_cube([1.0, 2.0])) < 1e-12
    # standard 2-simplex with mu = (1, 0): integral of e^x = e - 2
    vps = PH.vertices(simplex_h(2))
    assert abs(PH.integrate_exp_oracle(vps, (F(1), F(0))) - (math.e - 2)) < 1e-12


def test_integrate_exp_oracle_equal_exponents_at_simplex_vertices():
    # mu = -2x - 3y is 4 at both a and c, two vertices of one simplex; float
    # evaluation put them one ulp apart, where the divided difference is off
    # by about 4%
    import numpy as np
    from scipy.integrate import dblquad

    a, b, c, d = (F(-11, 3), F(10, 9)), (F(-1), F(2)), (F(-7, 8), F(-3, 4)), (F(13, 4), F(2))
    mu = (F(-2), F(-3))
    got = PH.integrate_exp_oracle(PH.VPolytope((a, b, c, d)), mu)
    xs = [float(p[0]) for p in (a, b, c, d)]
    ys = [float(p[1]) for p in (a, b, c, d)]
    lower = lambda x: float(np.interp(x, [xs[0], xs[2], xs[3]], [ys[0], ys[2], ys[3]]))  # a, c, d
    upper = lambda x: float(np.interp(x, [xs[0], xs[1], xs[3]], [ys[0], ys[1], ys[3]]))  # a, b, d
    ref = 0.0
    for lo, hi in ((xs[0], xs[1]), (xs[1], xs[2]), (xs[2], xs[3])):  # split at the kinks
        part, _ = dblquad(lambda y, x: math.exp(-2 * x - 3 * y), lo, hi, lower, upper, epsabs=0, epsrel=1e-12)
        ref += part
    assert abs(got - ref) <= 1e-7 * ref


def _mp_exp_divided_difference(values):
    """exp[y_0,...,y_d] = sum_m h_m(y) / (m + d)!, with h_m the complete
    homogeneous symmetric polynomial of degree m (the divided difference of
    x^n is h_{n-d}), summed to 50 digits in mpmath; the guard digits absorb
    the cancellation of negative values."""
    d = len(values) - 1
    with mpmath.workdps(50 + int(max(abs(y) for y in values))):
        h = [mpmath.mpf(1)] + [mpmath.mpf(0)] * 200  # |y| <= 22: 22^200 / 200! is negligible
        for y in values:
            for m in range(1, len(h)):
                h[m] += y * h[m - 1]
        return sum(h[m] / mpmath.factorial(m + d) for m in range(len(h)))


@st.composite
def exp_nodes(draw):
    """1-6 nodes: near-equal (within 1e-8) or exactly equal values near ±20,
    values spread widely over [-20, 20], or a mix of the three."""
    k = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["near", "equal", "wide", "mixed"]))
    base = draw(st.sampled_from([1, -1])) * draw(st.floats(18, 22))
    nodes = {"near": st.floats(-1e-8, 1e-8).map(lambda e: base + e), "equal": st.just(base), "wide": st.floats(-20, 20)}
    nodes["mixed"] = st.one_of(*nodes.values())
    return draw(st.lists(nodes[kind], min_size=k, max_size=k))


@settings(max_examples=200)
@given(exp_nodes())
def test_exp_divided_difference_matches_mpmath(values):
    ref = _mp_exp_divided_difference(values)
    assert abs(PH._exp_divided_difference(values) - ref) <= 1e-12 * ref


def test_integrate_exp_oracle_loads_no_blas():
    """The divided differences run in plain floats, so an integral in a fresh
    process imports neither NumPy nor SciPy and starts no BLAS thread pool."""
    code = (
        "import sys; from fractions import Fraction as F; from weylcone import polyhedra as PH; "
        "o, a, b, c = (0, 0, 0), (5, 0, 0), (0, 7, 0), (0, 0, 9); "
        "v = PH.VPolytope(tuple(tuple(map(F, p)) for p in (o, a, b, c))); "
        "assert PH.integrate_exp_oracle(v, (F(3), F(-2), F(1))) > 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_integrate_exp_oracle_on_a_tiny_square_far_from_the_origin():
    # [1, 1 + 1e-9]^2 with mu = (12, 12): every exponent lies within 3e-8 of 24
    e = F(1, 10**9)
    square = PH.VPolytope(((F(1), F(1)), (1 + e, F(1)), (F(1), 1 + e), (1 + e, 1 + e)))
    with mpmath.workdps(50):
        exact = ((mpmath.exp(12 * (1 + mpmath.mpf(e.numerator) / e.denominator)) - mpmath.exp(12)) / 12) ** 2
    assert abs(PH.integrate_exp_oracle(square, (F(12), F(12))) - exact) <= 1e-14 * exact


def test_integrate_exp_oracle_zero_mu_is_volume():
    vp = PH.vertices(simplex_h(3))
    assert abs(PH.integrate_exp_oracle(vp, (F(0), F(0), F(0))) - 1 / 6) < 1e-13


def test_mc_integrate_agrees_loosely():
    vp = PH.vertices(cube_h(2))
    est, err = mc_integrate_exp(vp, (F(1), F(1)), 4000, random.Random(0))
    exact = closed_form_exp_cube([1.0, 1.0])
    assert abs(est - exact) < 5 * err + 0.05


def test_json_roundtrips():
    h = simplex_h(2)
    h2 = PH.h_from_json(PH.h_to_json(h))
    assert h2.normals == h.normals and h2.offsets == h.offsets and h2.dim == h.dim
    vp = PH.vertices(h)
    vp2 = PH.v_from_json(PH.v_to_json(vp))
    assert vp2.vertices == vp.vertices
    assert json.loads(PH.v_to_json(vp))  # plain JSON, no custom types


def test_off_output_shape():
    text = PH.to_off(PH.vertices(cube_h(3)))
    lines = text.strip().splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = (int(c) for c in lines[1].split())
    assert nv == 8 and nf == 6


@given(st.lists(st.tuples(fracs, fracs), min_size=1, max_size=6))
def test_extreme_points_reproduce_hull(pts):
    ext = PH.extreme_points(pts)
    assert set(ext) <= set(pts)
    for p in pts:
        assert PH.in_hull(ext, p)


@st.composite
def normal_sets(draw):
    """Small integer normals, dim 1-4: zero rows, repeats and rank-deficient sets all occur."""
    dim = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim)
    return tuple(vec(r) for r in draw(st.lists(row, max_size=2 * dim + 2))), dim


@settings(max_examples=100)
@given(normal_sets())
def test_recession_cone_is_zero_matches_witness_lps(case):
    normals, dim = case
    d = PH.recession_direction(PH.HPolyhedron(normals, (F(0),) * len(normals), dim))
    assert PH.recession_cone_is_zero(normals, dim) == (d is None)
    if d is not None:
        assert any(c != 0 for c in d)
        assert all(dot(a, d) >= 0 for a in normals)


def test_recession_cone_is_zero_edge_cases():
    e = lambda *c: vec(c)
    assert not PH.recession_cone_is_zero((), 2)
    assert not PH.recession_cone_is_zero((e(1, 0), e(-1, 0)), 2)  # rank 1: the y axis recedes
    assert not PH.recession_cone_is_zero((e(1, 0), e(0, 1), e(1, 1)), 2)  # no positive relation
    assert PH.recession_cone_is_zero((e(1, 0), e(0, 1), e(-1, -1)), 2)
    assert PH.recession_cone_is_zero((e(1, 0), e(0, 1), e(-1, -1), e(0, 0)), 2)  # zero rows are free
    assert PH.recession_cone_is_zero(cube_h(4).normals, 4)


@st.composite
def stiemke_normal_sets(draw):
    """Integer normals in dim 0-5: drawn rows plus zero rows, repeats, positive
    multiples and opposites of drawn rows, sometimes all inside a hyperplane."""
    dim = draw(st.integers(min_value=0, max_value=5))
    row = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim)
    rows = draw(st.lists(row, max_size=2 * dim + 2))
    if dim and draw(st.booleans()):  # rank-deficient: every first coordinate 0
        rows = [(0, *r[1:]) for r in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        r = draw(st.sampled_from(rows))
        rows.append(tuple(draw(st.sampled_from([1, 2, -1])) * x for x in r))
    if draw(st.booleans()):
        rows.append((0,) * dim)
    return tuple(vec(r) for r in draw(st.permutations(rows))), dim


@settings(max_examples=150)
@given(stiemke_normal_sets())
def test_recession_cone_is_zero_matches_the_stiemke_oracle(case):
    normals, dim = case
    assert PH.recession_cone_is_zero(normals, dim) == vertex_oracle.recession_cone_is_zero(normals, dim)


def test_full_rank_vertices_and_boundedness_solve_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("an LP was solved")

    witness = (F(7),)
    monkeypatch.setattr(PH.lp, "solve", refuse)
    monkeypatch.setattr(PH, "recession_direction", lambda h: witness)  # the witness LPs run only to raise
    assert len(PH.vertices(cube_h(3)).vertices) == 8
    assert len(PH.vertices(simplex_h(4)).vertices) == 5
    assert PH.vertices(PH.HPolyhedron.from_pairs(VERTEX_CASES["empty, full rank"][0], 2)).vertices == ()
    ray = PH.HPolyhedron.from_pairs(VERTEX_CASES["unbounded ray"][0], 2)
    with pytest.raises(PH.UnboundedError) as info:
        PH.vertices(ray)
    assert info.value.direction == witness
    assert PH.recession_cone_is_zero(cube_h(3).normals, 3)
    assert PH.recession_cone_is_zero(simplex_h(4).normals, 4)
    assert not PH.recession_cone_is_zero(ray.normals, 2)


def test_bounded_paths_never_run_the_witness_lps(monkeypatch):
    from weylcone import chambers as CH

    real, calls = PH.recession_direction, []

    def counting(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(PH, "recession_direction", counting)
    assert len(PH.vertices(cube_h(3)).vertices) == 8
    assert len(PH.vertices(simplex_h(4)).vertices) == 5
    assert PH.vertices(PH.HPolyhedron(((F(1),), (F(-1),)), (F(-2), F(1)), 1)).vertices == ()
    assert CH.is_bounded(CH.ParametricPolyhedron.make([(1, 0), (0, 1), (-1, -1)], 2))
    assert not CH.is_bounded(CH.ParametricPolyhedron.make([(1, 0), (0, 1), (1, 1)], 2))
    assert calls == []
    with pytest.raises(PH.UnboundedError):
        PH.vertices(PH.HPolyhedron(((F(1),),), (F(0),), 1))
    assert len(calls) == 1  # only the raising path computes a witness


UNBOUNDED_WITNESSES = [
    # {x >= 0, x + y >= 1, y >= -2}
    ([((1, 0), 0), ((1, 1), -1), ((0, 1), 2)], 2, (1, 0)),
    # the strip 0 <= y <= 1
    ([((0, 1), 0), ((0, -1), 1)], 2, (1, 0)),
    # a unit square times {z <= 5}
    ([((1, 0, 0), 0), ((-1, 0, 0), 1), ((0, 1, 0), 0), ((0, -1, 0), 1), ((0, 0, -1), 5)], 3, (0, 0, -1)),
    # {x1 + x2 >= 0, x2 + x3 >= 0, x1 + x3 >= 2}
    ([((1, 1, 0), 0), ((0, 1, 1), 0), ((1, 0, 1), -2)], 3, (1, 1, -1)),
]


@pytest.mark.parametrize("pairs,dim,direction", UNBOUNDED_WITNESSES)
def test_unbounded_witness_is_pinned(pairs, dim, direction):
    h = PH.HPolyhedron.from_pairs(pairs, dim)
    with pytest.raises(PH.UnboundedError) as info:
        PH.vertices(h)
    assert info.value.direction == vec(direction)
    assert str(info.value) == f"polyhedron is unbounded in direction {vec(direction)}"


@st.composite
def point_clouds(draw):
    """Points of a random flat in Q^d, d 1-4: repeats, interior and boundary
    points, lower-dimensional sets and a single repeated point all occur."""
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=d))
    coord = st.tuples(*[st.integers(min_value=-2, max_value=2)] * d)
    origin, dirs = draw(coord), draw(st.lists(coord, min_size=k, max_size=k))
    coef = st.fractions(min_value=-1, max_value=2, max_denominator=2)
    combos = draw(st.lists(st.tuples(*[coef] * k), min_size=k + 1, max_size=k + 4))
    pts = [vec(o + sum(c * u[i] for c, u in zip(cs, dirs)) for i, o in enumerate(origin)) for cs in combos]
    if draw(st.booleans()):
        pts.append(vec(sum(p[i] for p in pts) / len(pts) for i in range(d)))
    if draw(st.booleans()):
        pts.append(pts[0])
    return PH.VPolytope(tuple(pts))


@settings(max_examples=150, deadline=None)
@given(point_clouds())
def test_faces_match_the_face_lattice_oracle(v):
    got = PH.faces(v)
    assert len(set(got)) == len(got)
    assert set(got) == set(face_lattice(to_hrep(v)).values())


@settings(max_examples=150, deadline=None)
@given(point_clouds())
def test_facets_of_a_point_set_match_the_brute_force(v):
    assert PH._facets(v) == [on for *_, on in brute_facets(v)]


def _r_prime_hulls(ctype, rank):
    """`r_prime(p, q, t)` for every p <= q above the minimal parabolic, at a regular dominant t."""
    from weylcone import regions as RG
    from weylcone import rootspace as RS
    from weylcone.linalg import solve

    datum = RS.build_root_datum(ctype, rank)
    t = solve(list(datum.simple_roots), [F(2 * i + 1, i + 2) for i in range(rank)])
    p0 = RS.minimal_parabolic(datum)
    return [RG.r_prime(p, q, t) for q in RS.parabolics_between(p0, RS.full_group(datum)) for p in RS.parabolics_between(p0, q)]


@pytest.mark.parametrize("ctype", ["A", "B", "D"])
def test_facets_of_rank_four_projection_hulls_match_the_brute_force(ctype):
    hulls = _r_prime_hulls(ctype, 4)
    assert len(hulls) == 81
    for hull in hulls:
        assert PH._facets(hull) == [on for *_, on in brute_facets(hull)]


def test_a_bare_point_set_takes_no_nullspace(monkeypatch):
    """Faces, volume and exp integral of a bare 4-D point set come from the double
    description on its rows: no `nullspace` per vertex subset."""
    (hull,) = [h for h in _r_prime_hulls("A", 4) if h.affine_dim() == 4]
    mu = (F(1, 3), F(-1, 2), F(1), F(0))
    want = PH.faces(hull), PH.volume(hull), PH.integrate_exp_oracle(hull, mu)

    def refuse(*args):
        raise AssertionError("a bare point set took a nullspace")

    monkeypatch.setattr(PH, "nullspace", refuse)
    bare = PH.VPolytope(hull.vertices)  # no cached simplices
    assert (PH.faces(bare), PH.volume(bare), PH.integrate_exp_oracle(bare, mu)) == want
    assert want[1] > 0


def test_faces_censuses():
    def census(v):
        by_card = {}
        for f in PH.faces(v):
            by_card[len(f)] = by_card.get(len(f), 0) + 1
        return by_card

    assert census(PH.vertices(cube_h(2))) == {1: 4, 2: 4, 4: 1}
    assert census(PH.vertices(simplex_h(3))) == {1: 4, 2: 6, 3: 4, 4: 1}
    a, mid, b = (F(0), F(0)), (F(1), F(1)), (F(2), F(2))
    assert sorted(PH.faces(PH.VPolytope((a, mid, b)))) == [(a,), (a, b), (b,)]
    assert PH.faces(PH.VPolytope((a, a))) == [(a,)]
    assert PH.faces(PH.VPolytope(())) == []


@pytest.mark.parametrize("ctype,rank", [("A", 2), ("A", 3), ("B", 3)])
def test_faces_of_projection_hulls_match_lemma31(ctype, rank):
    from weylcone import regions as RG
    from weylcone import rootspace as RS
    from weylcone.linalg import solve

    datum = RS.build_root_datum(ctype, rank)
    t = solve(list(datum.simple_roots), [F(2 * i + 1, i + 2) for i in range(rank)])  # regular dominant
    p0 = RS.minimal_parabolic(datum)
    for q in RS.parabolics_between(p0, RS.full_group(datum)):
        for p in RS.parabolics_between(p0, q):
            census = {frozenset(f) for f in RG.faces_lemma31(p, q, t).values()}
            assert {frozenset(f) for f in PH.faces(RG.r_prime(p, q, t))} == census


CUBE_OFF = (
    "OFF\n8 6 0\n0.0 0.0 0.0\n0.0 0.0 1.0\n0.0 1.0 0.0\n0.0 1.0 1.0\n1.0 0.0 0.0\n1.0 0.0 1.0\n"
    "1.0 1.0 0.0\n1.0 1.0 1.0\n4 3 1 5 7\n4 5 4 6 7\n4 4 0 1 5\n4 2 0 4 6\n4 1 0 2 3\n4 6 2 3 7\n"
)


def test_face_queries_never_build_an_hrep(monkeypatch):
    from weylcone import regions as RG
    from weylcone import rootspace as RS

    datum = RS.build_root_datum("A", 2)
    psi = RG.psi_pi(datum, RS.weights_of(datum, "adjoint"))
    cube = PH.vertices(cube_h(3))
    shifted = PH.VPolytope(tuple(tuple(c + 1 for c in p) for p in cube.vertices))
    o, e0, e1, e = (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))
    square = PH.VPolytope((o, e1, e0, e, (F(1, 2), F(1, 2)), (F(1, 2), F(0))))  # with two non-extreme points
    hexagon = [(F(2), F(0)), (F(1), F(2)), (F(-1), F(2)), (F(-2), F(0)), (F(-1), F(-2)), (F(1), F(-2))]
    hexagon += [(F(0), F(0)), (F(2), F(0)), (F(3, 2), F(-1))]

    def refuse(*args):
        raise AssertionError("face query went through an H-representation")

    monkeypatch.setattr(PH, "vertices", refuse)
    assert PH.triangulate(square) == [(o, e0, e), (o, e1, e)]
    assert PH.volume(PH.VPolytope(tuple(hexagon))) == 12
    assert PH.volume(shifted) == 1
    got = PH.integrate_exp_oracle(square, (F(1), F(2)))
    assert abs(got - closed_form_exp_cube([1.0, 2.0])) < 1e-12 * got
    est, err = mc_integrate_exp(square, (F(1), F(1)), 2000, random.Random(0))
    assert abs(est - closed_form_exp_cube([1.0, 1.0])) < 5 * err + 0.05
    assert squared_distance([(F(1), F(1), F(1))], shifted) == 3
    assert PH.to_off(cube) == CUBE_OFF
    assert RG.d_value_squared((F(3), F(1)), psi) == F(1, 2)


@st.composite
def h_polyhedra(draw, min_dim=0, max_dim=4):
    """H-polyhedra in dim 0-4 (by default) for the vertex differential test.

    A uniform draw is mostly unbounded or empty, so three draws in five start
    from a box around a centre p, one in five from its lower faces only, and
    each cut a.x + c >= 0 has a.p + c >= -1/2.  Cuts that leave out the last
    coordinate (without a box, rank-deficient normals), repeated, scaled and
    opposite rows and zero normals with c >= 0 all occur."""
    dim = draw(st.integers(min_value=min_dim, max_value=max_dim))
    coef = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    margin = st.sampled_from([F(0), F(1, 2), F(1), F(2)])
    p = draw(st.tuples(*[coef] * dim))
    unit = lambda i, s: tuple(F(s if j == i else 0) for j in range(dim))
    pairs = []
    box = draw(st.sampled_from(["none", "lower", "full", "full", "full"]))
    for i in range(dim if box != "none" else 0):
        pairs.append((unit(i, 1), draw(margin) - p[i]))
        if box == "full":
            pairs.append((unit(i, -1), draw(margin) + p[i]))
    flat = draw(st.booleans())
    for _ in range(draw(st.integers(min_value=0, max_value=4 - dim // 2))):
        a = draw(st.tuples(*[coef] * dim))
        a = (*a[:-1], F(0)) if flat and dim else a
        pairs.append((a, draw(margin) - dot(a, p) - F(1, 2) * draw(st.booleans()) if any(a) else draw(margin)))
    if pairs and draw(st.booleans()):
        a, c = draw(st.sampled_from(pairs))
        k = draw(st.sampled_from([F(1), F(3), F(1, 2)]))
        pairs.append((tuple(k * x for x in a), k * c))
    if pairs and draw(st.booleans()):  # 0 <= a.x + c <= d: empty, a hyperplane or a slab
        a, c = draw(st.sampled_from(pairs))
        if any(a):
            pairs.append((tuple(-x for x in a), draw(st.sampled_from([F(-1), F(0), F(1)])) - c))
    if draw(st.booleans()):
        pairs.append(((F(0),) * dim, draw(st.sampled_from([F(0), F(2)]))))
    return PH.HPolyhedron.from_pairs(draw(st.permutations(pairs)), dim)


@st.composite
def parallel_h_polyhedra(draw):
    """`h_polyhedra` in dim 1-5 with more rows along the normals it has: positive
    multiples of its rows with looser, equal or tighter offsets, and zero normals."""
    h = draw(h_polyhedra(min_dim=1, max_dim=5))
    pairs = list(zip(h.normals, h.offsets))
    along = [(a, c) for a, c in pairs if any(a)]
    for _ in range(draw(st.integers(min_value=1, max_value=4)) if along else 0):
        a, c = draw(st.sampled_from(along))
        k = draw(st.sampled_from([F(1), F(2), F(1, 3)]))
        shift = draw(st.sampled_from([F(-1), F(-1, 2), F(0), F(0), F(1, 2), F(1)]))  # tighter, equal, looser
        pairs.append((tuple(k * x for x in a), k * (c + shift)))
    for c in draw(st.lists(st.sampled_from([F(0), F(1)]), max_size=2)):
        pairs.append(((F(0),) * h.dim, c))
    return PH.HPolyhedron.from_pairs(draw(st.permutations(pairs)), h.dim)


def _vertices_or_direction(f, h):
    try:
        return "vertices", f(h).vertices
    except PH.UnboundedError as exc:
        return "unbounded", exc.direction


@settings(max_examples=200)
@given(h_polyhedra())
def test_vertices_match_the_fraction_reference(h):
    assert _vertices_or_direction(PH.vertices, h) == _vertices_or_direction(vertex_oracle.vertices, h)


@settings(max_examples=150)
@given(parallel_h_polyhedra())
def test_vertices_on_parallel_rows_match_the_fraction_reference(h):
    assert _vertices_or_direction(PH.vertices, h) == _vertices_or_direction(vertex_oracle.vertices, h)


@settings(max_examples=80)
@given(parallel_h_polyhedra())
def test_vertices_and_incidences_match_basis_enumeration(h):
    def outcome(f):
        try:
            vp = f(h)
        except PH.UnboundedError as exc:
            return "unbounded", exc.direction
        return vp.vertices, vp.incidences

    assert outcome(PH.vertices) == outcome(vertex_oracle.basis_vertices)


def test_vertices_solve_only_subsets_of_distinct_normal_directions(monkeypatch):
    real, calls = PH._extreme_rays, []

    def counting(rows, width):
        calls.append(len(rows))
        return real(rows, width)

    monkeypatch.setattr(PH, "_extreme_rays", counting)
    for h, k in ((cube_h(3), 6), (simplex_h(4), 5)):
        pairs = [(tuple(m * x for x in a), m * c + shift) for a, c in zip(h.normals, h.offsets)
                 for m, shift in ((F(1), F(0)), (F(2), F(3)), (F(1, 3), F(1)))]  # (a, c) itself is the tightest
        tripled = PH.HPolyhedron.from_pairs(random.Random(k).sample(pairs, len(pairs)), h.dim)
        want = PH.vertices(h)
        calls.clear()
        assert PH.vertices(tripled) == want
        assert calls and all(n <= k + 1 for n in calls)  # k directions and x0 >= 0


VERTEX_CASES = {
    "empty, full rank": ([((1, 0), -2), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)], 2),
    "empty, rank-deficient": ([((1, 0), -2), ((-1, 0), 1)], 2),
    "unbounded ray": ([((1, 0), 0), ((1, 1), -1), ((0, 1), 2)], 2),
    "strip": ([((0, 1), 0), ((0, -1), 1)], 2),
    "repeated and scaled rows": ([((1, 0), 0), ((2, 0), 0), ((0, 1), 0), ((-1, -1), 1), ((-3, -3), 3)], 2),
    "zero normals": ([((0, 0, 0), 0), ((0, 0, 0), 5)] + [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 2)], 3),
    "degenerate apex": ([((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1), ((0, 0, 1), 0),
                         ((1, 0, -1), 1), ((-1, 0, -1), 1), ((0, 1, -1), 1), ((0, -1, -1), 1)], 3),
    "dimension 0": ([((), 0), ((), 1)], 0),
    "no constraints": ([], 1),
}


@pytest.mark.parametrize("pairs,dim", VERTEX_CASES.values(), ids=VERTEX_CASES)
def test_vertex_cases_match_the_fraction_reference(pairs, dim):
    h = PH.HPolyhedron.from_pairs(pairs, dim)
    assert _vertices_or_direction(PH.vertices, h) == _vertices_or_direction(vertex_oracle.vertices, h)


def test_vertices_runs_an_lp_only_for_boundedness_or_a_rank_deficient_empty_set(monkeypatch):
    real, calls = PH.lp.solve, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(PH.lp, "solve", counting)
    for pairs, dim, n_vertices, n_lps in (
        ([], 0, 1, 0),
        ([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 1)], 3, 4, 0),  # full rank: no LP
        (VERTEX_CASES["empty, full rank"][0], 2, 0, 0),  # no vertex among full-rank normals: empty, no LP
        (VERTEX_CASES["empty, rank-deficient"][0], 2, 0, 1),  # the feasibility LP
    ):
        calls.clear()
        assert len(PH.vertices(PH.HPolyhedron.from_pairs(pairs, dim)).vertices) == n_vertices
        assert len(calls) == n_lps, pairs


def test_hpolyhedron_rejects_rows_of_the_wrong_length():
    e = (F(1), F(0))
    for normals, offsets, dim in (
        ((e, (F(1),)), (F(0), F(0)), 2),  # a short normal
        ((e, (F(0), F(1), F(5))), (F(0), F(0)), 2),  # a long one
        ((e, e), (F(0),), 2),  # one offset short
        ((e,), (F(0),), "2"),
        ((e,), (F(0),), True),
        ((), (), -1),
    ):
        with pytest.raises(ValueError):
            PH.HPolyhedron(normals, offsets, dim)


@settings(max_examples=60)
@given(parallel_h_polyhedra())
def test_faces_from_row_incidences_match_the_point_set(h):
    try:
        vp = PH.vertices(h)
    except PH.UnboundedError:
        return
    # the brute force tries C(n, k) vertex subsets: keep its cost in hand
    assume(math.comb(len(vp.vertices), max(vp.affine_dim(), 0)) <= 2000)
    assert_rows_match_points(vp)


@settings(max_examples=150)
@given(parallel_h_polyhedra())
def test_vertices_record_the_tight_rows_of_h_at_each_vertex(h):
    try:
        vp = PH.vertices(h)
    except PH.UnboundedError:
        return
    assert len(vp.incidences) == len(vp.vertices)  # () for an empty polytope
    for v, tight in zip(vp.vertices, vp.incidences):
        assert tight == tight_set(h, v)


def test_an_empty_polytope_from_rows_has_no_incidences():
    for pairs, dim in (VERTEX_CASES["empty, full rank"], VERTEX_CASES["empty, rank-deficient"]):
        vp = PH.vertices(PH.HPolyhedron.from_pairs(pairs, dim))
        assert vp.vertices == () and vp.incidences == ()


def test_a_polytope_from_its_rows_lists_its_faces_once(monkeypatch):
    calls = []
    for name in ("faces", "_facets"):
        real = getattr(PH, name)
        monkeypatch.setattr(PH, name, lambda v, name=name, real=real: calls.append(name) or real(v))
    mu = (F(1), F(2), F(3))
    cube = PH.vertices(cube_h(3))
    assert PH.volume(cube) == 1
    want = PH.integrate_exp_oracle(cube, mu)
    assert calls == ["faces"]  # one triangulation for both, from the rows
    calls.clear()
    bare = PH.VPolytope(cube.vertices)
    assert PH.volume(bare) == 1 and PH.integrate_exp_oracle(bare, mu) == want
    assert calls == ["faces", "_facets"]  # a bare point set finds its facets, once
