"""A plain `Fraction` reference for `regions.instantiate`, and the systems to try it on.

`instantiate_oracle` reads each `SymbolicIneq` as it is written,
lhs(X) REL b_coeff*B(T) + t_form(T) + ts_form(T+S), with X = sum_i y_i basis_i,
and sums it out row by row in `Fraction`: the normal is (lhs . basis_i)_i,
negated for 'le', and the offset is -rhs for 'ge' and rhs for 'le', where
`rhs_value` is the right-hand side at (T, S).  Neither calls anything in
weylcone, so they share no code with the compiled parameter rows.

`meets_signed_root_cone_lp` is the wall test of `regions.pi_cones` as one
exact feasibility LP for every size of basis: the reference of the closed
forms that `regions._meets_signed_root_cone` uses at k = 1, n - 1 and n, and
of its hull test at other k.  `kernel_meets_lp` is the leaf test of
`regions.decompose` as one feasibility LP on the region's rows with the forms
as equalities; `regions._kernel_meets` reads the double-description vertices
of the cut region instead.
`in_c_epsilon` is membership in the shrunken cones of an epsilon cone family,
read straight from the definition.  `kappa_oracle` is `regions.kappa` as a
plain loop over every combination of functionals, which tests its rank and
computes the kernel of every prefix again; `kappa` walks each prefix once.
`span_classes_oracle` is `regions._span_classes` as the plain loop over every
subset of up to n functionals, one `span_key` each, keeping the first
independent subset per span; `_span_classes` enumerates the flats instead.
`systems_at_every_p` gives it its inputs.
`refine_oracle` is `regions.refine` as it decided the kernel slice, the
closure test and the pyramid by linear programs: one feasibility LP for the
slice, a minimum and a maximum LP per other unconsumed weight, and the pyramid
as `polytope_oracle.to_hrep` of the `polytope_oracle.lp_extreme_points` of the
projected cut region (one hull LP per point, no `polyhedra._facets`), its
facets through the origin scaled to a leading entry of 1 or -1.
`refine_outcome` gives the result or the error of either, for comparison, and
`refine_cases` the (region, subset) pairs to compare them on.
"""

from fractions import Fraction
from itertools import combinations, islice

from weylcone import lp
from weylcone import polyhedra as PH
from weylcone import regions as RG
from weylcone.linalg import (
    dot,
    independent_subset,
    is_zero,
    mat_vec,
    neg,
    nullspace,
    project_onto_span,
    rank,
    scale,
    span_key,
    sub,
    transpose,
    vec,
    zeros,
)
from weylcone.rootspace import parabolic

from polytope_oracle import lp_extreme_points, to_hrep


def _dot(u, v):
    total = Fraction(0)
    for a, b in zip(u, v, strict=True):
        total += a * b
    return total


def rhs_value(iq, b_form, t, s) -> Fraction:
    """b_coeff*B(T) + t_form(T) + ts_form(T+S) of one inequality at (T, S)."""
    t = [Fraction(c) for c in t]
    ts = [a + Fraction(b) for a, b in zip(t, s, strict=True)]
    return iq.b_coeff * _dot(b_form, t) + _dot(iq.t_form, t) + _dot(iq.ts_form, ts)


def instantiate_oracle(ineqs, basis, b_form, t, s):
    """(normals, offsets) of the system at (T, S) in the coordinates of basis."""
    normals, offsets = [], []
    for iq in ineqs:
        row = tuple(_dot(iq.lhs, b) for b in basis)
        rhs = rhs_value(iq, b_form, t, s)
        if iq.rel == "ge":
            normals.append(row)
            offsets.append(-rhs)
        else:
            normals.append(tuple(-c for c in row))
            offsets.append(rhs)
    return tuple(normals), tuple(offsets)


def region_systems(ctx, descs, t, s):
    """(name, ineqs) of the base system, every region's and every refinement's:
    one refinement per leaf with unconsumed weights, on all of them, at (T, S)."""
    out = [("base", RG.base_inequalities(ctx.psi, ctx.p, ctx.q))]
    for i, d in enumerate(descs):
        out.append((f"region {i}", RG.region_inequalities(ctx.psi, d)))
        if d.pi_zero:
            for j, ref in enumerate(RG.refine(ctx, d, d.pi_zero, t, s)):
                out.append((f"refinement {i}.{j}", RG.refinement_inequalities(ctx, ref)))
    return out


def meets_signed_root_cone_lp(datum, basis):
    """Whether span(basis) contains a nonzero nonnegative root combination: is
    there a point with sum_j c_j basis_j = sum_i s_i alpha_i, s >= 0, sum(s) = 1?"""
    n, k = datum.rank, len(basis)  # k free span coefficients, then n roots s >= 0 summing to 1
    a_eq = [[b[i] for b in basis] + [-a[i] for a in datum.simple_roots] for i in range(n)]
    a_eq.append([Fraction(0)] * k + [Fraction(1)] * n)
    return lp.feasible_point(k + n, a_eq=a_eq, b_eq=[Fraction(0)] * n + [Fraction(1)], nonneg=n) is not None


def kernel_meets_lp(region_h, forms_y) -> bool:
    """Whether the region meets {f.y = 0 for each form f}: one feasibility LP."""
    rows, rhs = region_h.ub_rows()
    return (
        lp.feasible_point(
            region_h.dim,
            a_ub=rows,
            b_ub=rhs,
            a_eq=[list(f) for f in forms_y],
            b_eq=[Fraction(0)] * len(forms_y),
        )
        is not None
    )


def in_c_epsilon(family, x) -> bool:
    """Whether x lies in an open cell of the family with d(x)^2 > epsilon^2 |x|^2."""
    if family.epsilon is None:
        raise ValueError("cone family carries no epsilon")
    if RG.cone_of(family, x) is None:
        return False
    xv = tuple(Fraction(c) for c in x)
    return RG.d_value_squared(xv, family.psi) > family.epsilon**2 * family.datum.norm2(xv)


def kappa_oracle(datum, functionals) -> Fraction:
    """The largest squared thickening constant over every independent combo."""
    funcs = RG._sorted_forms(tuple(Fraction(c) for c in f) for f in functionals)
    n = datum.rank
    best = Fraction(2)
    for size in range(1, n + 1):
        for combo in combinations(funcs, size):
            if rank(combo, n) < size:
                continue
            c2 = Fraction(1) / datum.form_norm2(combo[0])
            rows = [combo[0]]
            for lam in combo[1:]:
                prev_kernel = nullspace(rows, n)
                next_kernel = nullspace(list(rows) + [lam], n)
                u0 = next(v for v in prev_kernel if dot(lam, v) != 0)
                if next_kernel:
                    u = sub(u0, project_onto_span(next_kernel, u0, datum.inner))
                else:
                    u = u0
                dn2 = datum.form_norm2(lam)
                sin_sq = dot(lam, u) ** 2 / (datum.norm2(u) * dn2)
                half = RG._sin_half_sq_lower(sin_sq)
                c2 = max(c2, Fraction(1) / dn2) / half
                rows.append(lam)
            best = max(best, c2)
    return best


def span_classes_oracle(funcs, n) -> dict:
    """Independent subsets of `funcs` up to span equality: span_key -> subset."""
    out = {}
    for size in range(1, n + 1):
        for combo in combinations(funcs, size):
            key = span_key(combo, n)
            if len(key) == size:
                out.setdefault(key, combo)
    return out


def systems_at_every_p(psi):
    """`regions.psi_at` at every parabolic p of the datum, p = G (an empty system) too."""
    n = psi.datum.rank
    for k in range(n + 1):
        for outside in combinations(range(n), k):
            yield RG.psi_at(psi, parabolic(psi.datum, frozenset(outside)))


def _lead_scaled(form, absolute):
    """form over its leading nonzero entry, or over that entry's absolute value."""
    lead = next(c for c in form if c != 0)
    return scale(1 / (abs(lead) if absolute else lead), form)


def refine_oracle(ctx, desc, pi_one, t, s):
    """`regions.refine` at (T, S) with the slice, the closure and the pyramid from LPs."""
    tv, sv = vec(t), vec(s)
    p1 = RG._sorted_forms(vec(f) for f in pi_one)
    pi0 = desc.pi_zero
    if not p1 or not set(p1) <= set(pi0):
        raise ValueError("the refinement subset must be a nonempty subset of the unconsumed weights")
    basis = ctx.basis
    dim_y = len(basis)
    system = RG.compile_system(RG.region_inequalities(ctx.psi, desc), basis, ctx.b_form)
    h = system.at(tv, sv)
    p1_rows = RG._quotient_rows(basis, p1)
    rows_ub, rhs_ub = h.ub_rows()
    on_slice = dict(a_ub=rows_ub, b_ub=rhs_ub, a_eq=p1_rows, b_eq=[Fraction(0)] * len(p1_rows))
    if lp.feasible_point(dim_y, **on_slice) is None:
        raise AssertionError("kernel slice is empty; the region is not a recursion leaf")
    for lam, row in zip(pi0, RG._quotient_rows(basis, pi0)):
        if lam in p1:
            continue
        lo = lp.solve(row, dim_y, **on_slice)
        hi = lp.solve(row, dim_y, minimize=False, **on_slice)
        if lo.ok and hi.ok and lo.value == 0 and hi.value == 0:
            raise RG.ClosureError(
                f"weight {RG._text(lam)} vanishes on the kernel slice but is outside the subset"
                + RG._where(desc, tv, sv)
            )
    idx = independent_subset(p1_rows)
    basis_b = tuple(p1[i] for i in idx)
    m = len(basis_b)
    b_rows = RG._quotient_rows(basis, basis_b)
    sgn_vec = tuple(Fraction(desc.sgn(b)) for b in basis_b)
    (lam_b_row,) = RG._quotient_rows(basis, [RG._lambda_b(desc, basis_b)])

    b_value = dot(ctx.b_form, tv)
    c_values = set()
    for e in RG._vertex_atlas(system, h, tv, sv):
        c_y = dot(lam_b_row, e.point) / b_value
        if c_y < 0:
            raise AssertionError("quotient height is negative at a vertex")
        comp_t = mat_vec(transpose(e.t_matrix), lam_b_row)
        comp_s = mat_vec(transpose(e.s_matrix), lam_b_row)
        if comp_t != scale(c_y, ctx.b_form) or not is_zero(comp_s):
            raise RG.TransportError(
                "vertex height is not a fixed multiple of the threshold functional" + RG._where(desc, tv, sv)
            )
        c_values.add(c_y)
    positive = [c for c in c_values if c > 0]
    if not positive:
        raise ValueError("every vertex lies on the kernel; nothing to cut")
    delta_prime = min(positive) / 2

    cut_height = delta_prime * b_value
    cut_vp = PH.vertices(h.with_constraints([(neg(lam_b_row), cut_height)]))
    proj_pts = tuple(sorted({mat_vec(b_rows, v) for v in cut_vp.vertices}))
    ext = lp_extreme_points(proj_pts)
    origin = zeros(m)
    for e in ext:
        if e != origin and dot(sgn_vec, e) != cut_height:
            raise AssertionError("projected cut region is not a pyramid over the cut facet")
    if origin not in ext:
        raise AssertionError("kernel image is not a vertex of the projected cut region")
    hull_h = to_hrep(PH.VPolytope(ext))
    facets = tuple(sorted(_lead_scaled(a, True) for a, c in zip(hull_h.normals, hull_h.offsets) if c == 0))

    normals = set()
    for verts in PH.faces(cut_vp):
        pts = tuple(sorted({mat_vec(b_rows, v) for v in verts}))
        diffs = [sub(p, pts[0]) for p in pts[1:]]
        if rank(diffs, m) == m - 1 == rank(pts, m):
            normals.add(_lead_scaled(nullspace(pts, m)[0], False))
    problematic = tuple(sorted(normals))
    return tuple(
        RG.RefinementDescriptor(desc, p1, basis_b, delta_prime, problematic, signs, facets)
        for signs in RG._cells(hull_h, problematic)
    )


def refine_outcome(refine, ctx, desc, pi_one, t, s):
    """The result of refine(ctx, desc, pi_one, t, s), or the type and message of its error."""
    try:
        return refine(ctx, desc, pi_one, t, s)
    except (AssertionError, RuntimeError, ValueError) as exc:  # refine's own errors
        return type(exc), str(exc)


def refine_cases(descs, proper=None):
    """(region, pi_one) pairs: each leaf with its pi_zero (empty ones included), then
    its nonempty proper subsets, largest first, at most `proper` of them (all if None),
    and once each the region one threshold level above a deeper leaf, whose kernel
    slice is empty."""
    parents = {}
    for d in descs:
        yield d, d.pi_zero
        z = d.pi_zero
        yield from ((d, c) for c in islice(
            (c for k in range(len(z) - 1, 0, -1) for c in combinations(z, k)), proper))
        if len(d.lambdas) > 1:
            up = RG.RegionDescriptor(d.p, d.q, d.pi, d.pi_plus, d.lambdas[:-1], d.deltas[:-1])
            parents.setdefault(up, up.pi_zero)
    yield from parents.items()


def outcome_kind(outcome) -> str:
    """'m=<len(basis_b)>' of a result, or the name of an error type."""
    if isinstance(outcome[0], type):
        return outcome[0].__name__
    return f"m={len(outcome[0].basis_b)}"
