"""Face-enumeration reference for the cone distance d.

`squared_distance` finds the distance between a kernel and a polytope face by
face: on each face the minimizer solves the normal equations over the face's
affine span times the kernel, and an LP checks that some minimizer lies in the
face.  `d_value_squared` is the distance d built from it, over every kernel
of `admissible_kernels`: `regions._keyed_kernels` without the span keys, so
with no dominated kernel dropped.  Neither shares a
code path with `polyhedra.min_norm_gram` (Wolfe's algorithm, which
`regions.d_value_squared` and `polytope_oracle.min_norm_squared` run) beyond the
eliminations of `linalg`, and their products come from `vertex_oracle`, so the
tests use them as its independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from weylcone import lp, polyhedra
from weylcone.linalg import Mat, Vec, add, identity, is_zero, neg, nullspace, scale, solve_any, vec
from weylcone.polyhedra import VPolytope
from weylcone.regions import _keyed_kernels
from weylcone.rootspace import parabolics_between, project

from vertex_oracle import fraction_dot, fraction_mat_vec


def squared_distance(forms: Sequence[Vec], poly: VPolytope, inner: Mat | None = None) -> Fraction:
    """Exact squared distance between ker(forms) and the polytope.

    The metric is the bilinear form `inner` (identity by default).  An LP
    settles intersection (distance 0); otherwise the minimizer lies in the
    relative interior of some face, where it solves the unconstrained normal
    equations over affspan(face) x kernel: enumerate faces and keep the values
    whose minimizer set actually meets the face.
    """
    if not poly.vertices:
        raise ValueError("empty polytope")
    dim = poly.dim
    inner = inner if inner is not None else identity(dim)
    kernel = nullspace([f for f in forms if not is_zero(f)], dim)
    # shortcut: does the kernel meet the hull?  f . (sum lam_j p_j) = 0 per form
    m = len(poly.vertices)
    rows = [[fraction_dot(f, p) for p in poly.vertices] for f in forms]
    rows.append([Fraction(1)] * m)
    rhs = [Fraction(0)] * len(forms) + [Fraction(1)]
    if lp.feasible_point(m, a_eq=rows, b_eq=rhs, nonneg=m) is not None:
        return Fraction(0)

    best: Fraction | None = None
    for face in polyhedra.faces(poly):
        val = _face_min(face, kernel, inner)
        if val is not None and (best is None or val < best):
            best = val
    assert best is not None
    return best


def _face_min(face_verts: Sequence[Vec], kernel: Sequence[Vec], inner: Mat) -> Fraction | None:
    """Min of |p - k|^2 over p in affspan(face), k in span(kernel), provided
    some minimizer has p inside the face; None otherwise."""
    dim = len(face_verts[0])
    v0 = face_verts[0]
    fbasis = list(VPolytope(tuple(face_verts)).affine_basis())
    directions = fbasis + [neg(k) for k in kernel]
    nf = len(fbasis)
    nd = len(directions)
    # difference vector: r(t) = v0 + D t ; minimize r^T M r
    img = [fraction_mat_vec(inner, d) for d in directions]
    hess = [[fraction_dot(directions[i], img[j]) for j in range(nd)] for i in range(nd)]
    rhs = [-fraction_dot(directions[i], fraction_mat_vec(inner, v0)) for i in range(nd)]
    part = solve_any(hess, rhs, nd) if nd else ()
    if nd and part is None:
        return None  # cannot happen: PSD normal equations are always consistent
    null = nullspace(hess, nd) if nd else ()
    # feasibility: exists minimizer t = part + N s with p(t) in hull(face)
    # p(t) = v0 + sum_{i<nf} t_i fbasis_i ; barycentric lam over face vertices
    nv = len(face_verts)
    ns = len(null)
    a_eq: list[list[Fraction]] = []
    b_eq: list[Fraction] = []
    for c in range(dim):
        row = [sum(null[s][i] * fbasis[i][c] for i in range(nf)) if nf else Fraction(0) for s in range(ns)]
        row += [-p[c] for p in face_verts]
        base = -v0[c] - (sum(part[i] * fbasis[i][c] for i in range(nf)) if nf else Fraction(0))
        a_eq.append(row)
        b_eq.append(base)
    a_eq.append([Fraction(0)] * ns + [Fraction(1)] * nv)
    b_eq.append(Fraction(1))
    sol = lp.feasible_point(ns + nv, a_eq=a_eq, b_eq=b_eq, nonneg=nv)
    if sol is None:
        return None
    t = list(part)
    for s in range(ns):
        for i in range(nd):
            t[i] += sol[s] * null[s][i]
    r = list(v0)
    for i in range(nd):
        r = add(r, scale(t[i], directions[i]))
    return fraction_dot(r, fraction_mat_vec(inner, r))


def admissible_kernels(psi):
    """(p, q, ((combo, basis), ...)) per parabolic pair with an admissible
    kernel, in `regions._proper_pairs` order: combo is one independent subset
    per span class of the system at p, and basis (nonempty) spans its
    intersection with the forms vanishing on the Levi of q."""
    return ((p, q, tuple((c, b) for _, c, b in kernels)) for p, q, kernels in _keyed_kernels(psi))


def d_value_squared(x, psi) -> Fraction:
    """d(x)^2 over every kernel of `admissible_kernels`, each term by
    `squared_distance` in the metric datum.inner."""
    xv = vec(x)
    terms = (
        squared_distance(combo, VPolytope(tuple(sorted({project(xv, r) for r in parabolics_between(p, q)}))),
                         inner=psi.datum.inner)
        for p, q, kernels in admissible_kernels(psi)
        for combo, _ in kernels
    )
    return min(terms)
