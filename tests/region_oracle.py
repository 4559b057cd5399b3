"""A plain `Fraction` reference for `regions.instantiate`, and the systems to try it on.

`instantiate_oracle` reads each `SymbolicIneq` as it is written,
lhs(X) REL b_coeff*B(T) + t_form(T) + ts_form(T+S), with X = sum_i y_i basis_i,
and sums it out row by row in `Fraction`: the normal is (lhs . basis_i)_i,
negated for 'le', and the offset is -rhs for 'ge' and rhs for 'le', where
`rhs_value` is the right-hand side at (T, S).  Neither calls anything in
weylcone, so they share no code with the compiled parameter rows.

`meets_signed_root_cone_lp` is the wall test of `regions.pi_cones` as one
exact feasibility LP for every size of basis: the reference of the closed
forms that `regions._meets_signed_root_cone` uses at k = 1, n - 1 and n.
`in_c_epsilon` is membership in the shrunken cones of an epsilon cone family,
read straight from the definition.  `kappa_oracle` is `regions.kappa` as a
plain loop over every combination of functionals, which tests its rank and
computes the kernel of every prefix again; `kappa` walks each prefix once.
`span_classes_oracle` is `regions._span_classes` as the plain loop over every
subset of up to n functionals, one `span_key` each, keeping the first
independent subset per span; `_span_classes` enumerates the flats instead.
`systems_at_every_p` gives it its inputs.
"""

from fractions import Fraction
from itertools import combinations

from weylcone import lp
from weylcone import regions as RG
from weylcone.linalg import dot, nullspace, project_onto_span, rank, span_key, sub
from weylcone.rootspace import parabolic


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
