"""Exact rational convex polyhedra and an independent integration oracle.

H-representation: constraints (normal, offset) meaning normal . v + offset >= 0.
V-representation: tuple of extreme points.  All combinatorial questions (vertex
identity, faces) and least norms over a point hull (`min_norm_squared`, P. Wolfe's
minimum-norm point on the Gram matrix alone, `min_norm_gram`) are decided exactly
over Q; floats appear only in the integration oracle at the very end.  Face
queries on a V-polytope go through `faces`, straight from its points.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Sequence

from . import lp
from .linalg import (
    Mat,
    Vec,
    add,
    coords_in_basis,
    det,
    dot,
    exact_json,
    identity,
    independent_subset,
    integer_rows,
    integer_solve,
    is_zero,
    neg,
    nullspace,
    rank,
    scale,
    solve,
    solve_any,
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

    @property
    def dim(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    def affine_basis(self) -> tuple[Vec, ...]:
        """Basis of the direction space of the affine hull."""
        if len(self.vertices) <= 1:
            return ()
        v0 = self.vertices[0]
        diffs = [sub(v, v0) for v in self.vertices[1:]]
        idx = independent_subset(diffs)
        return tuple(diffs[i] for i in idx)

    def affine_dim(self) -> int:
        return len(self.affine_basis()) if self.vertices else -1


def feasible_point(h: HPolyhedron) -> Vec | None:
    a, b = h.ub_rows()
    return lp.feasible_point(h.dim, a_ub=a, b_ub=b)


def recession_cone_is_zero(normals: Sequence[Vec], dim: int) -> bool:
    """No d != 0 has a.d >= 0 for every normal a.  Stiemke: iff rank is dim and
    sum y_i a_i = 0 for some y >= 1 (`_positively_dependent`)."""
    return rank(normals, dim) == dim and _positively_dependent(normals)


def _positively_dependent(normals: Sequence[Vec]) -> bool:
    """sum y_i a_i = 0 for some y >= 1; y = 1 + z, z >= 0 makes that one LP."""
    cols, m = list(zip(*normals)), len(normals)
    return lp.feasible_point(m, a_eq=cols, b_eq=[-sum(c) for c in cols], nonneg=m) is not None


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
    """Exact extreme points by basis enumeration (Avis-Fukuda 1992) on int rows.

    Of the rows (a, c) along one primitive normal a/gcd(a) only the tightest,
    the least c/gcd(a), is kept: it implies the others, as zero normals hold.
    A new `integer_solve` solution nums / den of a dim-subset of the kept rows
    is a vertex iff a.nums + c*den >= 0 on each.  A nonempty pointed set has a
    vertex, so only rank < dim with no vertex runs the feasibility LP.  A vertex
    is a nonsingular dim-subset, so rank = dim is proved and only the Stiemke LP
    decides boundedness; `recession_direction` runs on the full h only to raise.
    """
    dim, least = h.dim, {}  # primitive normal -> least c / gcd(a)
    for r in (integer_rows([(*a, c)])[0][0] for a, c in zip(h.normals, h.offsets)):
        if g := math.gcd(*r[:dim]):
            key, off = tuple(x // g for x in r[:dim]), Fraction(r[dim], g)
            least[key] = min(off, least.get(key, off))
    rows = [(*(x * c.denominator for x in a), c.numerator) for a, c in least.items()]
    seen, found = set(), []
    for subset in combinations([(*r[:dim], -r[dim]) for r in rows], dim):
        sol = integer_solve(subset, dim)
        if sol is None or sol in seen:
            continue
        seen.add(sol)
        nums, den = sol
        if all(sum(map(mul, r, nums)) + r[dim] * den >= 0 for r in rows):
            found.append(tuple(Fraction(x, den) for x in nums))
    if not found and (seen or feasible_point(h) is None):
        return VPolytope(())
    if not found or not _positively_dependent([r[:dim] for r in rows]):
        raise UnboundedError(recession_direction(h))
    return VPolytope(tuple(sorted(found)))


def tight_set(h: HPolyhedron, x: Sequence[Fraction]) -> frozenset[int]:
    return frozenset(i for i, (a, c) in enumerate(zip(h.normals, h.offsets)) if dot(a, x) + c == 0)


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


def to_hrep(v: VPolytope) -> HPolyhedron:
    """Facet enumeration (brute force over vertex subsets); affine hull becomes
    equality pairs.  For small polytopes only; face queries use `faces`.  Each
    facet's chart form is lifted here, to any ambient normal that agrees with it
    on the affine basis."""
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
    for form, offset, _ in _facets(v):
        amb = solve_any(basis, form, dim)  # form . coords(y - v0) = amb . (y - v0)
        pairs.append((amb, offset - dot(amb, v0)))
    return HPolyhedron.from_pairs(pairs, dim)


def _facets(v: VPolytope):
    """Facets of conv(v) within its affine hull, once each and in subset order:
    (form, offset, points of v on it) in the chart of `affine_basis` at the first
    vertex v0: form . coords(y - v0) + offset >= 0 on v, with coords taken in
    that basis.  Only `to_hrep` reads the forms, and lifts them to ambient normals."""
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


def faces(v: VPolytope) -> list[tuple[Vec, ...]]:
    """Vertex sets of all nonempty faces of conv(v), conv(v) included: the
    facets' point sets closed under intersection (a face is an intersection of
    facets, Ziegler 1995, 2.1), with the points that are no vertex dropped."""
    pts = frozenset(v.vertices)
    if not pts:
        return []
    sets = [on for _, _, on in _facets(v)]
    verts = frozenset(p for p in pts if pts.intersection(*(s for s in sets if p in s)) == {p})
    return [tuple(sorted(f)) for f in _close(verts, [s & verts for s in sets])]


def min_norm_squared(points: Sequence[Vec], metric: Mat) -> Fraction:
    """Least metric-norm² |x|² = x.metric.x over conv(points), exactly: `min_norm_gram`
    on the Gram matrix p.metric.q of the distinct points, from the one of least norm."""
    pts = tuple(dict.fromkeys(map(tuple, points)))
    images = [tuple(sum(map(mul, row, p)) for row in metric) for p in pts]
    gram = [[sum(map(mul, p, image)) for image in images] for p in pts]
    return min_norm_gram(gram, min(range(len(pts)), key=lambda i: gram[i][i]))


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

    The faces are listed once; the recursion then works purely on vertex
    sets (the faces of a face are the listed faces contained in it).
    """
    verts = poly.vertices
    k = poly.affine_dim()
    if k <= 0:
        return []
    if len(verts) == k + 1:
        return [verts]
    listed = [(VPolytope(f).affine_dim(), frozenset(f), f) for f in faces(poly)]

    def rec(face_verts: tuple[Vec, ...], dim: int) -> list[tuple[Vec, ...]]:
        if len(face_verts) == dim + 1:
            return [face_verts]
        v0 = face_verts[0]
        fset = frozenset(face_verts)
        out: list[tuple[Vec, ...]] = []
        for d2, s2, f2 in listed:
            if d2 == dim - 1 and v0 not in s2 and s2 < fset:
                for simplex in rec(f2, dim - 1) if dim - 1 > 0 else [f2]:
                    out.append((v0,) + tuple(simplex))
        return out

    return rec(verts, k)


def volume(poly: VPolytope) -> Fraction:
    """Exact volume in the ambient dimension (0 for lower-dimensional sets)."""
    if not poly.vertices:
        return Fraction(0)
    d = poly.dim
    if poly.affine_dim() < d:
        return Fraction(0)
    return sum(map(_simplex_det, triangulate(poly)), Fraction(0)) / math.factorial(d)


def _simplex_det(simplex: Sequence[Vec]) -> Fraction:
    """|det| of the edges from the first vertex: d! times the simplex's volume."""
    return abs(det([sub(p, simplex[0]) for p in simplex[1:]]))


def _exp_divided_difference(values) -> float:
    """exp[y_0,...,y_d] = e^c exp[y_0 - c,...] (c in [min y, max y], nearest 0) via
    `expm` of the Opitz bidiagonal, its diagonal scaled by 2^-s into [-1, 1] so that
    `expm` does none of its own squaring, which loses digits at nearly equal
    entries; s squarings of the nonnegative result give 2^(s d) times the corner."""
    import numpy as np
    from scipy.linalg import expm

    k = len(values)
    c = min(max(0.0, min(values)), max(values))
    m = max(abs(y - c) for y in values)
    s = math.ceil(math.log2(m)) if m > 1 else 0
    j = np.diag([math.ldexp(y - c, -s) for y in values]) + np.diag(np.ones(k - 1), 1)
    e = expm(j)
    for _ in range(s):
        e = e @ e
    return math.exp(c) * math.ldexp(float(e[0, k - 1]), -s * (k - 1))


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
    for simplex in triangulate(poly):
        ys = [float(dot(mu_q, p)) for p in simplex]
        total += float(_simplex_det(simplex)) * _exp_divided_difference(ys)
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
    data = json.loads(text)
    return VPolytope(tuple(vec(map(Fraction, p)) for p in data["V"]))


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
