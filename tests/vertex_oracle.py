"""Fraction references for the products, the eliminations and vertex enumeration.

`fraction_dot` sums normalised `Fraction` products one term at a time and
`fraction_mat_vec` is built on it; `fraction_solve` and `fraction_rref` are
Gauss-Jordan elimination on `Fraction` rows, `fraction_invert` is one
`fraction_solve` per unit vector, `fraction_det` is Gaussian elimination on
`Fraction` rows, `fraction_independent_subset` adds one row at a time while
the rank grows, `recession_cone_is_zero` is Stiemke's alternative (the rank
from `fraction_rref`, then one LP for a positive dependence), and `vertices`
is basis enumeration that solves every dim-subset with `fraction_solve` and
tests membership with `fraction_dot`, after a feasibility LP and that
boundedness test.  None of them calls a product or an elimination of
`linalg`, all of which run on ints, so the tests use them as the independent
oracle of the integer kernels.

`basis_vertices` is the int reference of `polyhedra.vertices`: the same
dedupe of parallel rows and the same output, incidences included, but by basis
enumeration (Avis and Fukuda 1992; one `linalg.integer_solve` per dim-subset
of the kept rows) and the Stiemke LP, where `polyhedra.vertices` runs the
double description method and solves no LP on full-rank rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul

from weylcone import lp, polyhedra
from weylcone.linalg import Mat, Vec, integer_rows, integer_solve


def fraction_dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def fraction_mat_vec(m, v) -> Vec:
    return tuple(fraction_dot(row, v) for row in m)


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


def fraction_invert(a) -> Mat:
    """a⁻¹ column by column; raises ValueError if singular."""
    n = len(a)
    cols = [fraction_solve(a, tuple(Fraction(int(i == j)) for j in range(n))) for i in range(n)]
    return tuple(zip(*cols)) if cols else ()


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


def positively_dependent(normals) -> bool:
    """sum y_i a_i = 0 for some y >= 1; y = 1 + z, z >= 0 makes that one LP."""
    cols, m = list(zip(*normals)), len(normals)
    return lp.feasible_point(m, a_eq=cols, b_eq=[-sum(c) for c in cols], nonneg=m) is not None


def recession_cone_is_zero(normals, dim) -> bool:
    """No d != 0 has a.d >= 0 for every normal a.  Stiemke: iff rank is dim and
    sum y_i a_i = 0 for some y >= 1 (`positively_dependent`)."""
    return len(fraction_rref(normals, dim)[0]) == dim and positively_dependent(normals)


def vertices(h: polyhedra.HPolyhedron) -> polyhedra.VPolytope:
    """Extreme points of h; an empty tuple iff h is empty; UnboundedError if unbounded."""
    if polyhedra.feasible_point(h) is None:
        return polyhedra.VPolytope(())
    if not recession_cone_is_zero(h.normals, h.dim):
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
        if all(fraction_dot(a, v) + c >= 0 for a, c in zip(h.normals, h.offsets)):
            found.add(v)
    return polyhedra.VPolytope(tuple(sorted(found)))


def basis_vertices(h: polyhedra.HPolyhedron) -> polyhedra.VPolytope:
    """`polyhedra.vertices(h)` by basis enumeration on int rows, incidences included.

    Of the rows (a, c) along one primitive normal a/gcd(a) only the tightest,
    the least c/gcd(a), is kept.  A new `integer_solve` solution nums / den of
    a dim-subset of the kept rows is a vertex iff a.nums + c*den >= 0 on each;
    its incidence is the set of h's own rows, by index, with a.nums + c*den == 0.
    With no vertex, a nonsingular subset (rank dim) or an infeasible h means
    empty; else, or if the kept normals are not positively dependent, h is
    unbounded and `polyhedra.recession_direction` gives the witness."""
    dim, least = h.dim, {}  # primitive normal -> least c / gcd(a)
    own = [integer_rows([(*a, c)])[0][0] for a, c in zip(h.normals, h.offsets)]
    for r in own:
        if g := math.gcd(*r[:dim]):
            key, off = tuple(x // g for x in r[:dim]), Fraction(r[dim], g)
            least[key] = min(off, least.get(key, off))
    rows = [(*(x * c.denominator for x in a), c.numerator) for a, c in least.items()]
    seen, found = set(), {}  # vertex -> the rows of h tight at it
    for subset in combinations([(*r[:dim], -r[dim]) for r in rows], dim):
        sol = integer_solve(subset, dim)
        if sol is None or sol in seen:
            continue
        seen.add(sol)
        nums, den = sol
        if all(sum(map(mul, r, nums)) + r[dim] * den >= 0 for r in rows):
            tight = frozenset(i for i, r in enumerate(own) if sum(map(mul, r, nums)) + r[dim] * den == 0)
            found[tuple(Fraction(x, den) for x in nums)] = tight
    if not found and (seen or polyhedra.feasible_point(h) is None):
        return polyhedra.VPolytope((), ())
    if not found or not positively_dependent([r[:dim] for r in rows]):
        raise polyhedra.UnboundedError(polyhedra.recession_direction(h))
    return polyhedra.VPolytope(*zip(*sorted(found.items())))
