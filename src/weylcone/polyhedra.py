"""Exact rational convex polyhedra and an independent integration oracle.

H-representation: constraints (normal, offset) meaning normal . v + offset >= 0.
V-representation: tuple of extreme points.  All combinatorial questions (vertex
identity, faces) and least norms over a point hull (P. Wolfe's minimum-norm point
on the Gram matrix alone, `min_norm_gram`) are decided exactly over Q; floats
appear only in the integration oracle at the very end.  One double-description
kernel on int rows (`_extreme_rays`) serves both directions.  H to V: it decides
the vertices, their incidences, emptiness and boundedness in `vertices`, and
boundedness in `recession_cone_is_zero`, with no LP on full-rank rows.  V to H:
it finds the facets of a bare point set (`_facets`).  Face queries on a
V-polytope go through `faces`, from the tight rows per vertex that `vertices(h)`
alone decides, else from those facets; each polytope is triangulated once, on
bitmasks of vertex indices.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Sequence

from . import lp
from .linalg import (
    Vec,
    add,
    coords_in_basis,
    det,
    dot,
    exact_json,
    identity,
    independent_subset,
    integer_inverse,
    integer_rows,
    is_zero,
    neg,
    nullspace,
    rank,
    scale,
    solve,
    sub,
    vec,
)


class UnboundedError(ValueError):
    """Raised when a bounded polytope was required; carries a recession witness."""

    def __init__(self, direction: Vec):
        super().__init__(f"polyhedron is unbounded in direction {direction}")
        self.direction = direction


@dataclass(frozen=True)
class HPolyhedron:
    normals: tuple[Vec, ...]
    offsets: tuple[Fraction, ...]
    dim: int

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 0:
            raise ValueError(f"dim must be a non-negative integer, got {self.dim!r}")
        if (lengths := [len(a) for a in self.normals]) != [self.dim] * len(self.offsets):
            raise ValueError(f"expected {len(self.offsets)} normals of length {self.dim}, got lengths {lengths}")
        for a, c in zip(self.normals, self.offsets):
            if is_zero(a) and c < 0:
                raise ValueError("trivially infeasible constraint with zero normal")

    @staticmethod
    def from_pairs(pairs: Sequence[tuple[Sequence, object]], dim: int) -> "HPolyhedron":
        return HPolyhedron(
            tuple(vec(a) for a, _ in pairs),
            tuple(Fraction(c) for _, c in pairs),
            dim,
        )

    def with_constraints(self, pairs) -> "HPolyhedron":
        extra = HPolyhedron.from_pairs(pairs, self.dim)
        return HPolyhedron(self.normals + extra.normals, self.offsets + extra.offsets, self.dim)

    # LP-ready rows: normal.v + offset >= 0  <=>  (-normal).v <= offset
    def ub_rows(self):
        return [neg(a) for a in self.normals], list(self.offsets)


@dataclass(frozen=True)
class VPolytope:
    vertices: tuple[Vec, ...]
    # from `vertices(h)`: per vertex, the indices of the rows (a, c) of h with
    # a.v + c == 0; None for a bare point set.  Not part of equality, hash or repr.
    incidences: tuple[frozenset[int], ...] | None = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    @cached_property
    def _basis(self) -> tuple[Vec, ...]:
        if len(self.vertices) <= 1:
            return ()
        v0 = self.vertices[0]
        diffs = [sub(v, v0) for v in self.vertices[1:]]
        idx = independent_subset(diffs)
        return tuple(diffs[i] for i in idx)

    def affine_basis(self) -> tuple[Vec, ...]:
        """Basis of the direction space of the affine hull."""
        return self._basis

    def affine_dim(self) -> int:
        return len(self._basis) if self.vertices else -1

    @cached_property
    def simplices(self) -> tuple[tuple[tuple[Vec, ...], Fraction], ...]:
        """(simplex, |det|) for `triangulate`'s simplices, made once; full dimension only."""
        return tuple((s, _simplex_det(s)) for s in triangulate(self))


def feasible_point(h: HPolyhedron) -> Vec | None:
    a, b = h.ub_rows()
    return lp.feasible_point(h.dim, a_ub=a, b_ub=b)


def recession_cone_is_zero(normals: Sequence[Vec], dim: int) -> bool:
    """No d != 0 has a.d >= 0 for every normal a: the cone of the nonzero
    normals is pointed and has no extreme ray (`_extreme_rays`, no LP)."""
    return _extreme_rays(integer_rows([a for a in normals if not is_zero(a)])[0], dim) == []


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def _extreme_rays(rows: Sequence[Sequence[int]], width: int) -> list[tuple[tuple[int, ...], int]] | None:
    """(primitive ray, zero set) for each extreme ray of {y : r.y >= 0 for each row r},
    or None if the rows have rank < width, so that the cone is not pointed.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda and
    Prodon 1996) on int rows; a zero set is a bitmask of the rows added so far
    that vanish on the ray.  The first `width` independent rows make a simplicial
    cone, whose rays are the columns of their `integer_inverse`; the others follow
    in index order.  A row keeps the rays where it is >= 0 and joins each adjacent
    pair across it by their positive int combination on which it vanishes.  Two
    rays are adjacent iff their common zero set has at least width - 2 rows and
    lies in no third ray's zero set (their least common face is then 2-dimensional)."""
    basis, inv = range(width), integer_inverse(rows[:width]) if len(rows) >= width else None
    if inv is None:  # the first `width` rows are no basis
        basis = independent_subset(rows)
        if len(basis) < width:
            return None
        inv = integer_inverse([rows[i] for i in basis])
    done = sum(1 << i for i in basis)
    rays = [(_primitive(col), done & ~(1 << i)) for i, col in zip(basis, zip(*inv[0]))]
    for k, row in enumerate(rows):
        if done >> k & 1:
            continue
        signed = [(sum(map(mul, row, ray)), ray, zeros) for ray, zeros in rays]
        masks = [zeros for _, _, zeros in signed]
        below = [t for t in signed if t[0] < 0]
        rays = [(ray, zeros if s else zeros | 1 << k) for s, ray, zeros in signed if s >= 0]
        rays += [
            (_primitive([sp * x - sn * y for x, y in zip(n, p)]), common | 1 << k)
            for sp, p, zp in signed if sp > 0
            for sn, n, zn in below
            if (common := zp & zn).bit_count() >= width - 2
            and not any(z & common == common and z != zp and z != zn for z in masks)
        ]
    return rays


def recession_direction(h: HPolyhedron) -> Vec | None:
    """Witness path (2*dim box LPs): a nonzero d with normal.d >= 0 for all normals, else None."""
    rows = [neg(a) for a in h.normals]
    rhs = [Fraction(0)] * len(rows)
    box = [Fraction(1)] * h.dim
    for i in range(h.dim):
        for sign in (1, -1):
            obj = scale(sign, tuple(Fraction(j == i) for j in range(h.dim)))
            res = lp.solve(
                obj,
                h.dim,
                minimize=False,
                a_ub=rows + [identity(h.dim)[j] for j in range(h.dim)] + [neg(r) for r in identity(h.dim)],
                b_ub=rhs + box + box,
            )
            if res.ok and res.value > 0:
                return res.x
    return None


def vertices(h: HPolyhedron) -> VPolytope:
    """Exact extreme points by double description (`_extreme_rays`) on int rows.

    Of the rows (a, c) along one primitive normal a/gcd(a) only the tightest,
    the least c/gcd(a), is kept: it implies the others, as zero normals hold.
    Homogenised, they act on (x, x0) as a.x + c*x0 >= 0, after the row x0 >= 0,
    which so joins the starting basis.  If the normals have rank dim, the rays with
    x0 > 0 are the vertices nums / x0, each with h's own rows, by index, where
    a.nums + c*x0 == 0 as its incidence; with none h is empty, and a ray with
    x0 = 0 beside them recedes, so `recession_direction` runs only to raise.
    Rank < dim has no vertex, and one feasibility LP tells empty from unbounded.
    """
    dim, least = h.dim, {}  # primitive normal -> least c / gcd(a)
    own = [integer_rows([(*a, c)])[0][0] for a, c in zip(h.normals, h.offsets)]
    for r in own:
        if g := math.gcd(*r[:dim]):
            key, off = tuple(x // g for x in r[:dim]), Fraction(r[dim], g)
            least[key] = min(off, least.get(key, off))
    rows = [(*(x * c.denominator for x in a), c.numerator) for a, c in least.items()]
    rays = _extreme_rays([(0,) * dim + (1,), *rows], dim + 1)
    found = {  # vertex -> the rows of h tight at it
        tuple(Fraction(x, ray[dim]) for x in ray[:dim]): frozenset(i for i, r in enumerate(own) if not sum(map(mul, r, ray)))
        for ray, _ in rays or ()
        if ray[dim]
    }
    if not found and (rays is not None or feasible_point(h) is None):
        return VPolytope((), ())
    if rays is None or len(found) < len(rays):
        raise UnboundedError(recession_direction(h))
    return VPolytope(*zip(*sorted(found.items())))


def _close(top: frozenset, sets: Sequence[frozenset]) -> set[frozenset]:
    """`top` and every nonempty intersection of it with some of `sets`."""
    closed = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for face in frontier:
            for s in sets:
                sub_face = face & s
                if sub_face and sub_face not in closed:
                    closed.add(sub_face)
                    nxt.append(sub_face)
        frontier = nxt
    return closed


def in_hull(points: Sequence[Vec], x: Sequence[Fraction]) -> bool:
    """Exact LP test: is x a convex combination of the points?"""
    if not points:
        return False
    m = len(points)
    a_eq = [[p[i] for p in points] for i in range(len(x))]
    a_eq.append([Fraction(1)] * m)
    b_eq = list(x) + [Fraction(1)]
    return lp.feasible_point(m, a_eq=a_eq, b_eq=b_eq, nonneg=m) is not None


def extreme_points(points: Sequence[Vec]) -> tuple[Vec, ...]:
    """Subset of points not expressible as hulls of the others."""
    pts = sorted(set(points))
    return tuple(p for i, p in enumerate(pts) if not in_hull(pts[:i] + pts[i + 1 :], p))


def minkowski_sum(a: VPolytope, b: VPolytope) -> VPolytope:
    if a.vertices and b.vertices and len(a.vertices[0]) != len(b.vertices[0]):
        raise ValueError("ambient dimension mismatch")
    sums = {add(p, q) for p in a.vertices for q in b.vertices}
    return VPolytope(extreme_points(tuple(sums)))


def _facets(v: VPolytope) -> list[frozenset]:
    """Facets of conv(v) within its affine hull, each as the points of v on it,
    once each and in the order of their sorted index tuples.

    Each point's coordinates in `affine_basis` at the first point, with a 1
    appended, make a row (y, 1); the points span a k-flat, so the rows have rank
    k + 1 and the cone of valid inequalities {(a, c) : a.y + c >= 0 for each row}
    is pointed.  conv(v) is bounded, so its extreme rays (`_extreme_rays`, as in
    `vertices`) are exactly its facets, each with its points as its zero set."""
    pts, basis = v.vertices, v.affine_basis()
    if not basis:
        return []
    rows = integer_rows([(*coords_in_basis(basis, sub(p, pts[0])), 1) for p in pts])[0]
    rays = _extreme_rays(rows, len(basis) + 1)
    tights = sorted(tuple(j for j in range(len(pts)) if zeros >> j & 1) for _, zeros in rays)
    return [frozenset(pts[j] for j in t) for t in tights]


def _row_facets(v: VPolytope) -> list[frozenset]:
    """The point sets of `_facets(v)`, in its order, from v's incidences (per vertex,
    the rows of h tight there): each row's vertex list, kept where its affine
    dimension is k - 1 (a facet is the tight set of a row, Ziegler 1995, 2.1), once
    each and sorted.  A looser parallel row is tight nowhere, a zero row with
    offset 0 everywhere (dimension k), and duplicate rows give one list."""
    pts, k, on = v.vertices, v.affine_dim(), {}
    for j, t in enumerate(v.incidences):
        for i in t:
            on.setdefault(i, []).append(j)
    tights = sorted(set(map(tuple, on.values())))
    return [frozenset(pts[j] for j in t) for t in tights if rank([sub(pts[j], pts[t[0]]) for j in t[1:]]) == k - 1]


def faces(v: VPolytope) -> list[tuple[Vec, ...]]:
    """Vertex sets of all nonempty faces of conv(v), conv(v) included: the
    facets' point sets closed under intersection (a face is an intersection of
    facets, Ziegler 1995, 2.1), with the points that are no vertex dropped."""
    pts = frozenset(v.vertices)
    if not pts:
        return []
    sets = _facets(v) if v.incidences is None else _row_facets(v)
    verts = frozenset(p for p in pts if pts.intersection(*(s for s in sets if p in s)) == {p})
    return [tuple(sorted(f)) for f in _close(verts, [s & verts for s in sets])]


def min_norm_gram(gram: Sequence[Sequence], start: int) -> Fraction:
    """Least norm² over the hull of points given by their Gram matrix, from `start`.

    P. Wolfe's algorithm (Finding the nearest point in a polytope, Math.
    Programming 11, 1976) on inner products alone: x = sum w_i p_i is never
    formed, as <x, p> = sum w_i <p_i, p>.  A major cycle stops when
    <x, x> <= <x, p> for every point p (x is then optimal), else adds the p
    with the least <x, p> to the corral.  A minor cycle moves x to the affine
    minimum of the corral (a bordered Gram solve); if a weight is not positive
    it steps back towards the old weights by the largest theta that keeps them
    all >= 0 and drops the points whose weight reaches 0.  An added p has
    <x, p> < <x, x>, while every q in aff(corral) has <x, q> = <x, x>, so the
    corral stays affinely independent and each solve is nonsingular.  An
    integer Gram matrix is worked in integers up to the first solve.
    """
    corral, weights = [start], [1]
    while True:
        xp = [sum(w * gram[i][j] for i, w in zip(corral, weights)) for j in range(len(gram))]
        xx = sum(w * xp[i] for i, w in zip(corral, weights))
        j = min(range(len(gram)), key=xp.__getitem__)
        if xx <= xp[j]:
            return Fraction(xx)
        corral.append(j)
        weights.append(Fraction(0))
        while True:
            m = len(corral)
            bordered = [[gram[a][b] for b in corral] + [-1] for a in corral]
            bordered.append([1] * m + [0])
            alpha = solve(bordered, [0] * m + [1])[:m]
            if all(a > 0 for a in alpha):
                weights = list(alpha)
                break
            theta = min(w / (w - a) for w, a in zip(weights, alpha) if a <= 0)
            mixed = [(1 - theta) * w + theta * a for w, a in zip(weights, alpha)]
            corral = [i for i, w in zip(corral, mixed) if w != 0]
            weights = [w for w in mixed if w != 0]


def triangulate(poly: VPolytope) -> list[tuple[Vec, ...]]:
    """Decompose into simplices sharing the first vertex (recursively by facet).

    The faces are listed once, each as a bitmask of point indices, with its
    dimension from its grade: 0 for a vertex, else 1 + the largest of its proper
    subfaces'.  The recursion then works purely on those bitmasks.
    """
    verts = poly.vertices
    k = poly.affine_dim()
    if k <= 0:
        return []
    if len(verts) == k + 1:
        return [verts]
    index = {p: 1 << i for i, p in enumerate(verts)}
    masked = [(sum(map(index.get, f)), f) for f in faces(poly)]
    grade: dict[int, int] = {}
    for m, _ in sorted(masked, key=lambda mf: mf[0].bit_count()):
        grade[m] = max((d + 1 for s, d in grade.items() if s & m == s), default=0)

    def rec(face_verts: tuple[Vec, ...], mask: int, dim: int) -> list[tuple[Vec, ...]]:
        if len(face_verts) == dim + 1:
            return [face_verts]
        v0, bit = face_verts[0], index[face_verts[0]]
        return [
            (v0,) + simplex
            for m2, f2 in masked
            if grade[m2] == dim - 1 and not m2 & bit and m2 & mask == m2
            for simplex in rec(f2, m2, dim - 1)
        ]

    return rec(verts, sum(index.values()), k)


def volume(poly: VPolytope) -> Fraction:
    """Exact volume in the ambient dimension (0 for lower-dimensional sets)."""
    if not poly.vertices:
        return Fraction(0)
    d = poly.dim
    if poly.affine_dim() < d:
        return Fraction(0)
    return sum((det_ for _, det_ in poly.simplices), Fraction(0)) / math.factorial(d)


def _simplex_det(simplex: Sequence[Vec]) -> Fraction:
    """|det| of the edges from the first vertex: d! times the simplex's volume."""
    return abs(det([sub(p, simplex[0]) for p in simplex[1:]]))


# 1/n! for the Taylor series of exp[w_0..w_d] at |w| <= 1, summed over 20 terms:
# the first omitted one is at most 1.1e-18 of the sum
_INV_FACTORIALS = tuple(1.0 / math.factorial(n) for n in range(170))


def _exp_pair(a: float, b: float) -> float:
    """exp[a, b] = e^max expm1(-spread) / (-spread), accurate at any spread."""
    lo, hi = sorted((a, b))
    return math.exp(hi) * (math.expm1(lo - hi) / (lo - hi) if lo < hi else 1.0)


def _exp_taylor(w: Sequence[float]) -> float:
    """exp[w_0..w_d] = sum_n h_n(w) / (n + d)! at |w| <= 1, with h_n the complete
    homogeneous symmetric polynomial; one node more maps h_n to h_n + w_j h_(n-1)."""
    h = (1.0,) + (0.0,) * 19
    for wj in w:
        h = tuple(accumulate(h, lambda acc, x: x + wj * acc))
    return sum(map(mul, h, _INV_FACTORIALS[len(w) - 1:]))


def _exp_divided_difference(values) -> float:
    """exp[y_0,...,y_d] in floats, with no BLAS (McCurdy, Ng and Parlett 1984).

    Entry (i, j) of exp(diag(w) + ones above the diagonal) is exp[w_i..w_j]
    (Opitz 1964).  Shift by c in [min y, max y] nearest 0, scale by 2^-s into
    [-1, 1], sum the Taylor series, and square s times, putting the diagonal
    and the superdiagonal back in closed form after each squaring (Higham
    2009, code fragment 2.1).  Every entry is positive, so the squarings
    cancel nothing; the corner ends as 2^(s d) exp[y - c]."""
    k = len(values)
    if k < 3:
        return math.exp(values[0]) if k == 1 else _exp_pair(*values)
    lo, hi = min(values), max(values)
    c = min(max(0.0, lo), hi)
    m = max(hi - c, c - lo)
    s = math.ceil(math.log2(m)) if m > 1 else 0
    z = [y - c for y in values]
    if not s:
        return math.exp(c) * _exp_taylor(z)
    f = None
    for t in range(s, -1, -1):
        v = [math.ldexp(x, -t) for x in z]
        g = [[0.0] * k for _ in range(k)]
        for i in range(k):
            g[i][i] = math.exp(v[i])
            for j in range(i + 1, k):
                g[i][j] = (
                    math.ldexp(_exp_pair(v[i], v[j]), s - t) if j == i + 1
                    else _exp_taylor(v[i:j + 1]) if f is None
                    else sum(f[i][l] * f[l][j] for l in range(i, j + 1))
                )
        f = g
    return math.exp(c) * math.ldexp(f[0][k - 1], -s * (k - 1))


def integrate_exp_oracle(poly: VPolytope, mu: Sequence) -> float:
    """Numeric ∫ e^{mu(v)} dv by simplicial decomposition + divided differences.

    Exact rational triangulation, then per-simplex closed form
    |det| * exp[mu(v_0),...,mu(v_d)]; all terms positive, no cancellation.
    Each mu(v_i) is evaluated over Q and rounded once, so equal exponent
    values stay equal floats (the divided difference is ill-conditioned at
    values that are merely one ulp apart).
    """
    if not poly.vertices:
        return 0.0
    d = poly.dim
    if poly.affine_dim() < d:
        warnings.warn("polytope is lower-dimensional; integral over it is 0")
        return 0.0
    mu_q = [Fraction(c) for c in mu]
    total = 0.0
    for simplex, det_ in poly.simplices:
        ys = [float(dot(mu_q, p)) for p in simplex]
        total += float(det_) * _exp_divided_difference(ys)
    return total


# --- serialization ---------------------------------------------------------


def h_to_json(h: HPolyhedron) -> str:
    rows = [{"normal": a, "offset": c} for a, c in zip(h.normals, h.offsets)]
    return json.dumps(exact_json({"H": rows, "dim": h.dim}))


def h_from_json(text: str) -> HPolyhedron:
    data = json.loads(text)
    pairs = [(vec(map(Fraction, row["normal"])), Fraction(row["offset"])) for row in data["H"]]
    return HPolyhedron.from_pairs(pairs, data["dim"])


def v_to_json(v: VPolytope) -> str:
    return json.dumps(exact_json({"V": v.vertices}))


def v_from_json(text: str) -> VPolytope:
    """The points of {"V": [...]}; a point whose length differs from the first's raises ValueError."""
    points = tuple(vec(map(Fraction, p)) for p in json.loads(text)["V"])
    if (bad := next((i for i, p in enumerate(points) if len(p) != len(points[0])), None)) is not None:
        raise ValueError(f"point {bad} has length {len(points[bad])}, point 0 has length {len(points[0])}")
    return VPolytope(points)


def to_off(v: VPolytope) -> str:
    """OFF text for a 3-dimensional polytope (visual inspection only)."""
    if v.dim != 3 or v.affine_dim() != 3:
        raise ValueError("OFF export requires a full-dimensional 3-D polytope")
    verts = list(v.vertices)
    index = {p: i for i, p in enumerate(verts)}
    facets = [f for f in faces(v) if VPolytope(f).affine_dim() == 2]
    faces_idx = []
    for f in facets:
        pts = [tuple(float(x) for x in p) for p in f]
        cx = [sum(c) / len(pts) for c in zip(*pts)]
        b1 = [p - c for p, c in zip(pts[0], cx)]
        normal = nullspace([sub(p, f[0]) for p in f[1:]], 3)
        nrm = [float(x) for x in normal[0]] if normal else [0.0, 0.0, 1.0]
        b2 = [
            nrm[1] * b1[2] - nrm[2] * b1[1],
            nrm[2] * b1[0] - nrm[0] * b1[2],
            nrm[0] * b1[1] - nrm[1] * b1[0],
        ]
        def ang(p):
            dx = [a - c for a, c in zip(p, cx)]
            return math.atan2(sum(a * b for a, b in zip(dx, b2)), sum(a * b for a, b in zip(dx, b1)))
        ordered = sorted(f, key=lambda q: ang(tuple(float(x) for x in q)))
        faces_idx.append([index[q] for q in ordered])
    lines = ["OFF", f"{len(verts)} {len(faces_idx)} 0"]
    for p in verts:
        lines.append(" ".join(repr(float(x)) for x in p))
    for fi in faces_idx:
        lines.append(str(len(fi)) + " " + " ".join(map(str, fi)))
    return "\n".join(lines) + "\n"
