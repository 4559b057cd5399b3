"""Fraction references for square solves and vertex enumeration.

`fraction_solve` is Gauss-Jordan elimination on `Fraction` rows, and
`vertices` is basis enumeration that solves every dim-subset with it and tests
membership with `Fraction` dot products, after a feasibility LP and the
Stiemke boundedness LP.  Neither calls `linalg.solve` or
`linalg.integer_solve`, so the tests use them as the independent oracle of the
integer kernels.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from weylcone import polyhedra
from weylcone.linalg import Vec, dot


def fraction_solve(a, b) -> Vec:
    """Solve the square system a x = b; raises ValueError if singular."""
    n = len(a)
    work = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        work[c], work[pivot] = work[pivot], work[c]
        pv = work[c][c]
        work[c] = [x / pv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return tuple(work[i][n] for i in range(n))


def vertices(h: polyhedra.HPolyhedron) -> polyhedra.VPolytope:
    """Extreme points of h; an empty tuple iff h is empty; UnboundedError if unbounded."""
    if polyhedra.feasible_point(h) is None:
        return polyhedra.VPolytope(())
    if not polyhedra.recession_cone_is_zero(h.normals, h.dim):
        raise polyhedra.UnboundedError(polyhedra.recession_direction(h))
    n, dim = len(h.normals), h.dim
    found: set[Vec] = set()
    for subset in combinations(range(n), dim):
        try:
            v = fraction_solve([h.normals[i] for i in subset], [-h.offsets[i] for i in subset])
        except ValueError:
            continue
        if v in found:
            continue
        if all(dot(a, v) + c >= 0 for a, c in zip(h.normals, h.offsets)):
            found.add(v)
    return polyhedra.VPolytope(tuple(sorted(found)))
