"""Polytope references that the program itself never calls.

`contains` is the membership test of a point in an H-polyhedron, `tight_set`
the rows of one tight at a point (the reference for `vertices(h).incidences`),
`support_value` is the support function max_p direction.p over a vertex list,
and `mc_integrate_exp` is a Monte Carlo estimate of the integral of e^{mu}
over a polytope, a second-tier oracle for `polyhedra.integrate_exp_oracle`:
it samples simplices of `polyhedra.triangulate` by volume and points in each
by uniform barycentric coordinates, so it shares no divided differences with
the formula it checks.  `min_norm_squared` is the least metric norm over a
point hull, by `polyhedra.min_norm_gram` on the points' Gram matrix.

`strictly_feasible` decides a strict system a x < b without a point, by the
dual of `lp.interior_point`'s margin LP handed to `lp.solve`; the program
decides its arrangement cells by double description instead
(`polyhedra.arrangement_cells`).

`lp_extreme_points` keeps the points that are no convex combination of the
others, one `polyhedra.in_hull` LP per point; `polyhedra.extreme_points` reads
the vertices off the double-description facets (`_facets`) instead.

`brute_facets` finds the facets of a point set by brute force, one `nullspace`
per affinely independent k-subset of its points; it shares nothing with
`polyhedra._facets`, the double description on the points' rows, that it
checks.  `to_hrep` lifts its facets to an H-representation, and
`face_lattice` is the face lattice of an H-polyhedron, read from the tight
constraints of its vertices; on `to_hrep(v)` it is the oracle of
`polyhedra.faces(v)`, and it closes the constraints' vertex sets under
intersection with its own loop.  `assert_rows_match_points` checks a polytope
made by `polyhedra.vertices(h)`, whose faces come from its row incidences,
against the bare point set of its vertices, and the row facets against
`brute_facets` of that point set.
"""

import math
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul
from typing import Sequence

from weylcone import lp
from weylcone.linalg import Mat, Vec, coords_in_basis, dot, neg, nullspace, scale, solve_any, sub
from weylcone.polyhedra import (
    HPolyhedron,
    VPolytope,
    _row_facets,
    _simplex_det,
    faces,
    in_hull,
    integrate_exp_oracle,
    min_norm_gram,
    triangulate,
    v_to_json,
    vertices,
    volume,
)


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
    return lp.solve([*b_strict, 1], m + 1, a_eq=a_eq, b_eq=[0] * n + [1], nonneg=m + 1).value > 0


def lp_extreme_points(points: Sequence[Vec]) -> tuple[Vec, ...]:
    """Subset of points not expressible as hulls of the others."""
    pts = sorted(set(points))
    return tuple(p for i, p in enumerate(pts) if not in_hull(pts[:i] + pts[i + 1 :], p))


def contains(h: HPolyhedron, x: Sequence[Fraction]) -> bool:
    return all(dot(a, x) + c >= 0 for a, c in zip(h.normals, h.offsets))


def tight_set(h: HPolyhedron, x: Sequence[Fraction]) -> frozenset[int]:
    """Rows of h tight at x, by index: the reference for `vertices(h).incidences`."""
    return frozenset(i for i, (a, c) in enumerate(zip(h.normals, h.offsets)) if dot(a, x) + c == 0)


def support_value(v: VPolytope, direction: Sequence[Fraction]) -> Fraction:
    if not v.vertices:
        raise ValueError("empty polytope has no support function")
    return max(dot(direction, p) for p in v.vertices)


def mc_integrate_exp(poly: VPolytope, mu: Sequence, samples: int, rng) -> tuple[float, float]:
    """Monte Carlo ∫ e^{mu} dv: (estimate, standard error)."""
    simplices = triangulate(poly)
    if not simplices:
        return 0.0, 0.0
    d = poly.dim
    fact = math.factorial(d)
    vols = [float(_simplex_det(s)) / fact for s in simplices]
    vol_total = sum(vols)
    mu_f = [float(c) for c in mu]
    acc = 0.0
    acc2 = 0.0
    cum = list(accumulate(vols))
    for _ in range(samples):
        r = rng.random() * vol_total
        idx = next((i for i, c in enumerate(cum) if c >= r), len(cum) - 1)
        simplex = simplices[idx]
        # uniform barycentric coordinates via exponential spacings
        es = [-math.log(rng.random()) for _ in range(d + 1)]
        tot = sum(es)
        bary = [e / tot for e in es]
        pt = [0.0] * d
        for b, p in zip(bary, simplex):
            for c in range(d):
                pt[c] += b * float(p[c])
        val = math.exp(sum(c * x for c, x in zip(mu_f, pt)))
        acc += val
        acc2 += val * val
    mean = acc / samples
    var = max(acc2 / samples - mean * mean, 0.0)
    est = mean * vol_total
    se = vol_total * math.sqrt(var / samples)
    return est, se


def min_norm_squared(points: Sequence[Vec], metric: Mat) -> Fraction:
    """Least metric-norm² |x|² = x.metric.x over conv(points), exactly: `min_norm_gram`
    on the Gram matrix p.metric.q of the distinct points, from the one of least norm."""
    pts = tuple(dict.fromkeys(map(tuple, points)))
    images = [tuple(sum(map(mul, row, p)) for row in metric) for p in pts]
    gram = [[sum(map(mul, p, image)) for image in images] for p in pts]
    return min_norm_gram(gram, min(range(len(pts)), key=lambda i: gram[i][i]))


def brute_facets(v: VPolytope):
    """Facets of conv(v) within its affine hull, once each and in subset order:
    (form, offset, points of v on it) in the chart of `affine_basis` at the first
    vertex v0: form . coords(y - v0) + offset >= 0 on v, with coords taken in
    that basis.  Only `to_hrep` reads the forms, and lifts them to ambient normals.

    A facet comes first at its least affinely independent k-subset, its greedy
    one, so this order is that of the facets' sorted index lists, as in
    `polyhedra._facets`: where two facets' lists first differ, the smaller index
    lies off the other facet's affine hull, so its own facet's greedy subset
    takes it there while the other's takes a larger index."""
    basis = v.affine_basis()
    k = len(basis)
    if k == 0:
        return
    v0 = v.vertices[0]
    coords = [coords_in_basis(basis, sub(p, v0)) for p in v.vertices]
    seen = set()
    for subset in combinations(range(len(coords)), k):
        diffs = [sub(coords[j], coords[subset[0]]) for j in subset[1:]]
        ns = nullspace(diffs, k)
        if len(ns) != 1:
            continue
        nrm = ns[0]
        base = dot(nrm, coords[subset[0]])
        vals = [dot(nrm, c) - base for c in coords]
        for sign in (1, -1):
            if all(sign * x <= 0 for x in vals):
                on = frozenset(p for p, x in zip(v.vertices, vals) if x == 0)
                if on not in seen:
                    seen.add(on)
                    yield scale(-sign, nrm), sign * base, on


def to_hrep(v: VPolytope) -> HPolyhedron:
    """Facet enumeration (`brute_facets`); affine hull becomes equality pairs.
    For small polytopes only: it is the input of the face-lattice oracle and of
    acceptance criterion c04.  Each facet's chart form is lifted here, to any
    ambient normal that agrees with it on the affine basis."""
    if not v.vertices:
        raise ValueError("empty polytope has no H-representation")
    dim = v.dim
    v0 = v.vertices[0]
    basis = v.affine_basis()
    pairs: list[tuple[Vec, Fraction]] = []
    # affine-hull equalities: forms vanishing on the span, pinned at v0
    for form in nullspace(basis, dim) if len(basis) < dim else ():
        c = dot(form, v0)
        pairs.append((form, -c))
        pairs.append((neg(form), c))
    for form, offset, _ in brute_facets(v):
        amb = solve_any(basis, form, dim)  # form . coords(y - v0) = amb . (y - v0)
        pairs.append((amb, offset - dot(amb, v0)))
    return HPolyhedron.from_pairs(pairs, dim)


def face_lattice(h: HPolyhedron) -> dict[frozenset[int], tuple[Vec, ...]]:
    """All nonempty faces of a polytope, keyed by their full tight-constraint set.

    A face is the vertex set of some set of constraints held with equality, so
    the faces are the constraints' vertex sets closed under intersection, from
    the polytope itself down to the vertices.
    """
    vp = vertices(h)
    if not vp.vertices:
        return {}
    vtight = {v: tight_set(h, v) for v in vp.vertices}
    constraint_sets = {frozenset(v for v in vp.vertices if i in vtight[v]) for i in range(len(h.normals))}
    found = {frozenset(vp.vertices)}
    grew = True
    while grew:
        more = {f & s for f in found for s in constraint_sets} - found - {frozenset()}
        found |= more
        grew = bool(more)
    return {frozenset.intersection(*(vtight[v] for v in f)): tuple(sorted(f)) for f in found}


def assert_rows_match_points(vp: VPolytope) -> None:
    """`vp`, from `vertices(h)`, against `VPolytope(vp.vertices)`: the two are equal,
    hash and print alike, and give identical faces (order included),
    simplices, volumes and exp integrals, the floats compared with ==.  The
    row facets are those of `brute_facets(bare)`, in its order."""
    bare = VPolytope(vp.vertices)
    assert bare.incidences is None and (vp.incidences is not None or not vp.vertices)
    assert vp == bare and hash(vp) == hash(bare) and repr(vp) == repr(bare) and v_to_json(vp) == v_to_json(bare)
    if vp.vertices:
        assert _row_facets(vp) == [on for _, _, on in brute_facets(bare)]
    assert faces(vp) == faces(bare)
    assert triangulate(vp) == triangulate(bare)
    assert volume(vp) == volume(bare)
    if vp.vertices and vp.affine_dim() == vp.dim:  # else both warn and give 0.0
        mu = tuple(Fraction(j + 1, 3) for j in range(vp.dim))
        assert integrate_exp_oracle(vp, mu) == integrate_exp_oracle(bare, mu)
