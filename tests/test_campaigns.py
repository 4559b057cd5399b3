"""Differential campaigns, deselected by default: run them with `pytest -m campaign -s`.

Each campaign checks an exact routine against an independent floating-point
library on thousands of random instances and prints how many it checked.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from weylcone import polyhedra as PH

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
