"""Fraction references for the eliminations and for vertex enumeration.

`fraction_solve` and `fraction_rref` are Gauss-Jordan elimination on
`Fraction` rows, `fraction_det` is Gaussian elimination on `Fraction` rows,
`fraction_independent_subset` adds one row at a time while the rank grows, and
`vertices` is basis enumeration that solves every dim-subset with
`fraction_solve` and tests membership with `Fraction` dot products, after a
feasibility LP and the Stiemke boundedness LP.  None of them calls an
elimination of `linalg`, all of which run on int rows, so the tests use them
as the independent oracle of the integer kernels.
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


def fraction_rref(rows, width=None):
    """Reduced row echelon form with the zero rows dropped: (rows, pivot columns)."""
    work = [list(map(Fraction, r)) for r in rows]
    if width is None:
        width = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def fraction_det(a) -> Fraction:
    n = len(a)
    work = [list(map(Fraction, row)) for row in a]
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            result = -result
        result *= work[c][c]
        inv = 1 / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return result


def fraction_independent_subset(rows, width) -> tuple[int, ...]:
    """Indices of the lexicographically-first maximal independent subset, greedily."""
    chosen: list[int] = []
    for i, row in enumerate(rows):
        if len(fraction_rref([rows[j] for j in chosen] + [row], width)[0]) > len(chosen):
            chosen.append(i)
    return tuple(chosen)


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
