"""Exact rational linear algebra on small dense matrices.

Vectors are tuples of Fraction; matrices are tuples of row tuples.  Everything
here is exact -- no floats -- because downstream predicates (hull membership,
face identity, LP feasibility) must be decided, not estimated.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def vec(entries: Iterable) -> Vec:
    # a Fraction is immutable, so one is kept as it is; Fraction(e) would
    # rebuild it behind an abstract-base-class isinstance check
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zeros(n: int) -> Vec:
    return (Fraction(0),) * n


def unit(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def identity(n: int) -> Mat:
    return tuple(unit(n, i) for i in range(n))


def add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale(c, v: Sequence[Fraction]) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in v)


def neg(v: Sequence[Fraction]) -> Vec:
    return tuple(-a for a in v)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(d * rows, d) for the least d that makes every entry an integer."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows), d


def is_zero(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def mat_vec(m: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, v) for row in m)


def transpose(m: Sequence[Sequence[Fraction]]) -> Mat:
    return tuple(zip(*[tuple(r) for r in m])) if m else ()


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def rref(rows: Sequence[Sequence[Fraction]], width: int | None = None):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    Zero rows are dropped.  `width` pads/validates the row length when the
    input may be empty.
    """
    work = [list(map(Fraction, r)) for r in rows]
    if width is None:
        if not work:
            raise ValueError("width required for empty input")
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


def rank(rows: Sequence[Sequence[Fraction]], width: int | None = None) -> int:
    if not rows:
        return 0
    return len(rref(rows, width)[0])


def nullspace(rows: Sequence[Sequence[Fraction]], width: int) -> tuple[Vec, ...]:
    """Basis of {v : row . v = 0 for every row}, as tuples of length `width`."""
    if not rows:
        return tuple(unit(width, i) for i in range(width))
    red, pivots = rref(rows, width)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def solve(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vec:
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


def solve_any(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], width: int | None = None) -> Vec | None:
    """One exact solution of a x = b (underdetermined ok), or None if inconsistent.

    A pivot landing in the augmented constant column certifies inconsistency;
    otherwise setting the free variables to zero solves every row exactly.
    """
    if width is None:
        if not a:
            return None
        width = len(a[0])
    if not a:
        return zeros(width)
    aug = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(a)]
    red, pivots = rref(aug, width + 1)
    if width in pivots:
        return None
    x = [Fraction(0)] * width
    for i, p in enumerate(pivots):
        x[p] = red[i][width]
    return tuple(x)


def det(a: Sequence[Sequence[Fraction]]) -> Fraction:
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


def invert(a: Sequence[Sequence[Fraction]]) -> Mat:
    n = len(a)
    cols = [solve(a, unit(n, i)) for i in range(n)]
    return transpose(cols)


def gram(basis: Sequence[Vec], inner: Mat) -> Mat:
    """Gram matrix G_ij = <b_i, b_j> under the bilinear form `inner`."""
    imgs = [mat_vec(inner, b) for b in basis]
    return tuple(tuple(dot(b, img) for img in imgs) for b in basis)


def project_onto_span(basis: Sequence[Vec], x: Sequence[Fraction], inner: Mat) -> Vec:
    """Orthogonal projection of x onto span(basis) w.r.t. the `inner` form."""
    if not basis:
        return zeros(len(x))
    g = gram(basis, inner)
    rhs = tuple(dot(b, mat_vec(inner, x)) for b in basis)
    coeff = solve(g, rhs)
    out = zeros(len(x))
    for c, b in zip(coeff, basis):
        out = add(out, scale(c, b))
    return out


def coords_in_basis(basis: Sequence[Vec], x: Sequence[Fraction]) -> Vec | None:
    """Coordinates of x in the given (independent) basis, or None if outside the span."""
    if not basis:
        return () if is_zero(x) else None
    return solve_any(transpose(basis), x, len(basis))


def span_key(rows: Sequence[Sequence[Fraction]], width: int):
    """Canonical hashable key identifying span(rows) -- its RREF."""
    if not rows:
        return ()
    return rref(rows, width)[0]


def independent_subset(rows: Sequence[Vec], width: int) -> tuple[int, ...]:
    """Indices of a lexicographically-first maximal independent subset."""
    chosen: list[int] = []
    current: list[Vec] = []
    r = 0
    for i, row in enumerate(rows):
        if rank(current + [row], width) > r:
            chosen.append(i)
            current.append(row)
            r += 1
    return tuple(chosen)
