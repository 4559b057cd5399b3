"""Polytope references that the program itself never calls.

`contains` is the membership test of a point in an H-polyhedron,
`support_value` is the support function max_p direction.p over a vertex list,
and `mc_integrate_exp` is a Monte Carlo estimate of the integral of e^{mu}
over a polytope, a second-tier oracle for `polyhedra.integrate_exp_oracle`:
it samples simplices of `polyhedra.triangulate` by volume and points in each
by uniform barycentric coordinates, so it shares no divided differences with
the formula it checks.  `face_lattice` is the face lattice of an
H-polyhedron, read from the tight constraints of its vertices; on
`polyhedra.to_hrep(v)` it is the oracle of `polyhedra.faces(v)`, which works
from the points alone for a bare point set, and it closes the constraints' vertex sets under
intersection with its own loop.  `assert_rows_match_points` checks a polytope
made by `polyhedra.vertices(h)`, whose faces come from its row incidences,
against the bare point set of its vertices, whose faces come from the brute
force `polyhedra._facets`.
"""

import math
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from weylcone.linalg import Vec, dot
from weylcone.polyhedra import (
    HPolyhedron,
    VPolytope,
    _facets,
    _row_facets,
    _simplex_det,
    faces,
    integrate_exp_oracle,
    tight_set,
    triangulate,
    v_to_json,
    vertices,
    volume,
)


def contains(h: HPolyhedron, x: Sequence[Fraction]) -> bool:
    return all(dot(a, x) + c >= 0 for a, c in zip(h.normals, h.offsets))


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
    hash and print alike, and give identical facets, faces (order included),
    simplices, volumes and exp integrals, the floats compared with ==."""
    bare = VPolytope(vp.vertices)
    assert bare.incidences is None and (vp.incidences is not None or not vp.vertices)
    assert vp == bare and hash(vp) == hash(bare) and repr(vp) == repr(bare) and v_to_json(vp) == v_to_json(bare)
    if vp.vertices:
        assert _row_facets(vp) == [on for _, _, on in _facets(bare)]
    assert faces(vp) == faces(bare)
    assert triangulate(vp) == triangulate(bare)
    assert volume(vp) == volume(bare)
    if vp.vertices and vp.affine_dim() == vp.dim:  # else both warn and give 0.0
        mu = tuple(Fraction(j + 1, 3) for j in range(vp.dim))
        assert integrate_exp_oracle(vp, mu) == integrate_exp_oracle(bare, mu)
