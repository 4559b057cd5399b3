"""Exact rational linear algebra on small dense matrices.

Vectors are tuples of Fraction; matrices are tuples of row tuples.  Everything
here is exact -- no floats -- because downstream predicates (hull membership,
face identity, LP feasibility) must be decided, not estimated.  Products
accumulate integer numerators over one running denominator (`dot`, and
through it `mat_vec`, `mat_mul` and `gram`).  Every elimination runs on int
rows, scaled by `integer_rows`: one fraction-free Gauss-Jordan (`_reduce`,
Edmonds 1967) whose steps `eliminate` keeps divided by their gcd, as the `lp`
simplex pivots, serves `rref`, `integer_solve` and `integer_inverse` (one
elimination of [a | I]), whose Fraction view is `invert`; `integer_det` is
Bareiss's exact-division elimination (1968), and `det` its Fraction view.
`exact_json` is the one JSON form of exact data: each Fraction as its "p/q" text.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    """Σ aᵢbᵢ as one normalised Fraction, also for ints and empty vectors: the integer
    numerators accumulate over one running denominator d, which a term whose
    denominator does not divide it widens to their lcm through one gcd."""
    n, d = 0, 1
    for a, b in zip(u, v, strict=True):
        if p := a.numerator * b.numerator:
            q = a.denominator * b.denominator
            if d % q:
                g = gcd(d, q)
                n, d = n * (q // g) + p * (d // g), d // g * q
            else:
                n += p * (d // q)
    return Fraction(n, d)


def integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(d * rows, d) for the least d that makes every entry an integer.

    Each entry's denominator (a Python-level property of Fraction) is read once."""
    dens = [x.denominator for row in rows for x in row]
    d = lcm(*dens)
    if d == 1:
        return tuple(tuple(x.numerator for x in row) for row in rows), 1
    scales = iter([d // q for q in dens])
    return tuple(tuple(x.numerator * next(scales) for x in row) for row in rows), d


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
    work = mat(rows)
    if width is None:
        if not work:
            raise ValueError("width required for empty input")
        width = len(work[0])
    red, pivots = _reduce(integer_rows(work)[0], width)
    return tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(red, pivots)), pivots


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


def eliminate(row, prow, col):
    """prow[col]·row − row[col]·prow over its gcd: zero at col, and a positive scale if prow[col] > 0."""
    pv, f = prow[col], row[col]
    out = [pv * x - f * y for x, y in zip(row, prow)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _reduce(rows: Sequence[Sequence[int]], width: int) -> tuple[list[Sequence[int]], tuple[int, ...]]:
    """Gauss-Jordan on int rows over their first `width` columns: (pivot rows, pivot columns).

    Each pivot is positive and the only nonzero entry of its column; the rows
    with no pivot (zero in those columns) are dropped."""
    work = list(rows)
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        prow = work[p] if work[p][c] > 0 else [-x for x in work[p]]
        work[p], work[r] = work[r], prow
        work = [row if i == r or row[c] == 0 else eliminate(row, prow, c) for i, row in enumerate(work)]
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return work[: len(pivots)], tuple(pivots)


def integer_solve(rows: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], int] | None:
    """x = nums / den solving the n int rows [a | b] of a x = b, or None if a is singular.

    One `_reduce`; den > 0 (the lcm of the final diagonal) and
    gcd(den, *nums) == 1, so each rational solution has exactly one (nums, den)."""
    red, pivots = _reduce(rows, n)
    if len(pivots) < n:
        return None
    den = lcm(*(row[i] for i, row in enumerate(red)))
    nums = [row[n] * (den // row[i]) for i, row in enumerate(red)]
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def solve(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vec:
    """Solve the square system a x = b; raises ValueError if singular."""
    sol = integer_solve(integer_rows([vec((*row, x)) for row, x in zip(a, b)])[0], len(a))
    if sol is None:
        raise ValueError("singular system")
    return tuple(Fraction(x, sol[1]) for x in sol[0])


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
    """det a = det(d·a) / d^n on the int rows d·a of `integer_rows`."""
    rows, d = integer_rows(mat(a))
    return Fraction(integer_det(rows), d ** len(rows))


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Bareiss's exact-division elimination on square int rows."""
    work = list(rows)
    n, sign, prev = len(work), 1, 1
    for c in range(n):
        p = next((i for i in range(c, n) if work[i][c]), None)
        if p is None:
            return 0
        if p != c:
            work[c], work[p] = work[p], work[c]
            sign = -sign
        prow = work[c]
        # each entry is a (c+1)-minor, so the division by the last pivot is exact
        work[c + 1 :] = [[(prow[c] * x - row[c] * y) // prev for x, y in zip(row, prow)] for row in work[c + 1 :]]
        prev = prow[c]
    return sign * prev


def integer_inverse(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int] | None:
    """a⁻¹ = nums / den for the square rows a, or None if a is singular.

    One `_reduce` of the int rows of [a | d·I], d the scale of `integer_rows`:
    row i ends as (row[i]·eᵢ | row[i]·(a⁻¹)ᵢ).  den > 0 and gcd(den, *nums) == 1,
    so den is the least common denominator of a⁻¹ and (nums, den) is unique."""
    n = len(rows)
    ints, d = integer_rows(rows)
    red, pivots = _reduce([(*row, *(d * (i == j) for j in range(n))) for i, row in enumerate(ints)], n)
    if len(pivots) < n:
        return None
    den = lcm(*(row[i] for i, row in enumerate(red)))
    nums = [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(red)]
    g = gcd(den, *(x for row in nums for x in row))
    return tuple(tuple(x // g for x in row) for row in nums), den // g


def invert(a: Sequence[Sequence[Fraction]]) -> Mat:
    """a⁻¹ as the Fraction view of `integer_inverse`."""
    inv = integer_inverse(mat(a))
    if inv is None:
        raise ValueError("singular system")
    nums, den = inv
    return tuple(tuple(Fraction(x, den) for x in row) for row in nums)


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
    return tuple(dot(coeff, col) for col in zip(*basis))


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


def independent_subset(rows: Sequence[Vec]) -> tuple[int, ...]:
    """Indices of a lexicographically-first maximal independent subset.

    These are the pivot columns of the rows taken as columns: one elimination
    of their int rows."""
    return _reduce(integer_rows(transpose(rows))[0], len(rows))[1]


def exact_json(obj):
    """`obj` ready for `json.dumps`: every Fraction as str(Fraction), every tuple
    as a list, dicts and lists walked entry by entry, all else as it is."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (tuple, list)):
        return [exact_json(x) for x in obj]
    if isinstance(obj, dict):
        return {k: exact_json(v) for k, v in obj.items()}
    return obj
