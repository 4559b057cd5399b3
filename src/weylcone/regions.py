"""Weight-driven decomposition of nested-hull regions in the dominant cone.

Given a root datum and a finite weight multiset, this module builds the
functional system Psi (simple roots plus nonzero weights), the homogeneous
distance d from kernel subspaces to projection hulls, the open cones of the
dominant chamber on which d stays positive, and the nested-hull region
R = cvx-hull sum attached to a parabolic pair.  A recursion then splits R into
polytopes cut out by weight inequalities with thresholds proportional to a
fixed rational functional B, every threshold certified by an exact linear
program.  Refinements cut each region near the kernel of a chosen weight
subset, split it along problematic-face hyperplanes, and expose the slice
polytopes whose exponential integrals are polynomial-times-exponential in all
parameters.

Conventions: points live in a (coroot coordinates), functionals are form
vectors; everything is exact over Q except the floating-point integral oracle
and the fitted models.  All enumeration orders are canonical (sorted forms,
fixed DFS order, lexicographically least LP solutions), so outputs are
deterministic.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import isqrt
from operator import mul
from typing import Iterable, Sequence

from . import lp, polyhedra
from .linalg import (
    Mat,
    Vec,
    add,
    coords_in_basis,
    dot,
    independent_subset,
    integer_rows,
    invert,
    is_zero,
    mat_mul,
    mat_vec,
    neg,
    nullspace,
    project_onto_span,
    rank,
    rref,
    scale,
    span_key,
    sub,
    transpose,
    vec,
    zeros,
)
from .polyhedra import HPolyhedron, VPolytope, _normalize_form
from .rootspace import (
    BOUNDARY,
    ParabolicSubset,
    RootDatum,
    WeightSet,
    coproject,
    delta_between,
    full_group,
    gamma,
    parabolic,
    parabolics_between,
    project,
    subspace_basis,
)
from .tfinite import TFiniteFunction, fit_tfinite


class CertificateError(RuntimeError):
    """The recursion had to continue but no exact certificate exists.

    This contradicts the finite-dimensional Krein-Milman argument backing the
    construction; in practice it signals inputs that fail the largeness or
    cone-membership requirements."""


class TransportError(RuntimeError):
    """Vertex transport between parameter samples failed; the inputs are not
    actually well-situated."""


class ClosureError(ValueError):
    """The chosen weight subset violates its closure condition."""


# ---------------------------------------------------------------------------
# functional systems


def _sorted_forms(forms: Iterable[Vec]) -> tuple[Vec, ...]:
    return tuple(sorted(set(forms)))


@dataclass(frozen=True)
class PsiSystem:
    """Simple roots plus the nonzero weights of a representation.

    `weights` keeps the representation's own functionals separate from the
    roots: sign splits and kernel recursions range over weight projections
    only, while the deduplicated union `functionals` drives the distance d.
    """

    datum: RootDatum
    weights: tuple[Vec, ...]
    functionals: tuple[Vec, ...]

    @cached_property
    def kernels(self) -> tuple:
        """(basis, maps, metric, denom) per kernel of `_admissible_kernels`, in
        its order, built once per system on first use.  For the kernel's forms
        S, G = S M^-1 S^T (M = datum.inner) and the projections P_r to the
        parabolics r between its pair, maps are the integer matrices c S P_r,
        metric is the integer g G^-1, and denom = c^2 g."""
        m_inv = invert(self.datum.inner)
        out = []
        for p, q, kernels in _admissible_kernels(self):
            between = parabolics_between(p, q)
            for combo, basis in kernels:
                k = len(combo)
                rows, c = integer_rows([coproject(f, r) for r in between for f in combo])
                metric, g = integer_rows(invert(mat_mul(mat_mul(combo, m_inv), transpose(combo))))
                out.append((basis, tuple(rows[i : i + k] for i in range(0, len(rows), k)), metric, c * c * g))
        return tuple(out)


def psi_pi(datum: RootDatum, weights: WeightSet | Iterable) -> PsiSystem:
    nz = _sorted_forms(w for w in (vec(x) for x in weights) if not is_zero(w))
    funcs = _sorted_forms(tuple(datum.simple_roots) + nz)
    return PsiSystem(datum, nz, funcs)


def pi_at(psi: PsiSystem, p: ParabolicSubset) -> tuple[Vec, ...]:
    """Nonzero projections of the weights to the central subspace of p."""
    out = set()
    for lam in psi.weights:
        lp_ = coproject(lam, p)
        if not is_zero(lp_):
            out.add(lp_)
    return _sorted_forms(out)


def delta_p_at(psi: PsiSystem, p: ParabolicSubset) -> tuple[Vec, ...]:
    """Projections of the simple roots outside the Levi of p (all nonzero)."""
    out = set()
    for i in sorted(p.outside):
        f = coproject(psi.datum.simple_roots[i], p)
        if is_zero(f):
            raise AssertionError("simple root outside the Levi projects to zero")
        out.add(f)
    return _sorted_forms(out)


def psi_at(psi: PsiSystem, p: ParabolicSubset) -> tuple[Vec, ...]:
    return _sorted_forms(pi_at(psi, p) + delta_p_at(psi, p))


# ---------------------------------------------------------------------------
# the distance d and the cone family


def _span_classes(funcs: Sequence[Vec], n: int) -> dict:
    """Independent subsets of `funcs` up to span equality: span_key -> subset."""
    out = {}
    for size in range(1, n + 1):
        for combo in combinations(funcs, size):
            key = span_key(combo, n)
            if len(key) == size:
                out.setdefault(key, combo)
    return out


def _intersection_with_dual(combo: Sequence[Vec], q: ParabolicSubset, n: int) -> tuple[Vec, ...]:
    """Basis (RREF rows) of span(combo) ∩ {forms vanishing on the Levi of q}."""
    levi_rows = [[f[i] for f in combo] for i in sorted(q.levi)]
    columns = transpose(combo)
    return rref([mat_vec(columns, c) for c in nullspace(levi_rows, len(combo))], n)[0]


def _proper_pairs(datum: RootDatum):
    """All parabolic pairs (p, q) with p ⊆ q and q proper, canonical order."""
    n = datum.rank
    idx = range(n)
    for q_out in sorted(
        (frozenset(c) for k in range(1, n + 1) for c in combinations(idx, k)), key=sorted
    ):
        q = parabolic(datum, q_out)
        p_outs = sorted(
            {q_out | frozenset(c) for k in range(n + 1) for c in combinations(idx, k)},
            key=sorted,
        )
        for p_out in p_outs:
            yield parabolic(datum, p_out), q


def _admissible_kernels(psi: PsiSystem):
    """Admissible kernels of the system, grouped by parabolic pair.

    Yields (p, q, ((combo, basis), ...)) in `_proper_pairs` order for every
    pair with at least one admissible kernel: combo is one independent subset
    per span class of the system at p, and basis (nonempty) spans its
    intersection with the forms vanishing on the Levi of q.  Span classes
    depend only on p, so each p's classes are built once per call.
    """
    n = psi.datum.rank
    classes: dict[frozenset[int], tuple] = {}
    for p, q in _proper_pairs(psi.datum):
        if p.outside not in classes:
            classes[p.outside] = tuple(_span_classes(psi_at(psi, p), n).values())
        candidates = ((c, _intersection_with_dual(c, q, n)) for c in classes[p.outside])
        kernels = tuple((c, basis) for c, basis in candidates if basis)
        if kernels:
            yield p, q, kernels


def d_value_squared(x, psi: PsiSystem) -> Fraction:
    """Least squared distance from an admissible kernel to the projection hull.

    Minimum over parabolic pairs p ⊆ q (q proper) and independent functional
    subsets S of the system at p whose span meets the forms vanishing on the
    Levi of q; each term is the metric distance between ker S and the hull of
    the projections of x across the parabolics between p and q.  With
    M = datum.inner and G = S M^-1 S^T, the squared M-distance from h to
    ker S is (Sh)^T G^-1 (Sh), so each term is the least G^-1-norm over the
    hull of the vectors S h: one `polyhedra.min_norm_squared`, worked in
    integers by scaling x, S P_r and G^-1 (`PsiSystem.kernels`).
    """
    (xi,), den = integer_rows([vec(x)])
    terms = (
        polyhedra.min_norm_squared([[sum(map(mul, row, xi)) for row in m] for m in maps], metric) / denom
        for _, maps, metric, denom in psi.kernels
    )
    best = min(terms, default=None)
    if best is None:
        raise AssertionError("no admissible kernel exists; datum has no proper parabolic")
    return best / (den * den)


@dataclass(frozen=True)
class ConeCell:
    signs: tuple[int, ...]
    witness: Vec
    d2: Fraction  # d_value_squared at the witness, computed once in pi_cones


@dataclass(frozen=True)
class ConeFamily:
    """Arrangement walls inside the dominant cone and its open cells.

    Each cell is an open convex cone on which d stays positive; the optional
    epsilon fixes the shrunken cones {X in cell : d(X)^2 > eps^2 |X|^2}.
    """

    datum: RootDatum
    psi: PsiSystem
    hyperplanes: tuple[Vec, ...]
    cones: tuple[ConeCell, ...]
    epsilon: Fraction | None = None


def _canonical_form(form: Vec) -> Vec:
    lead = next(c for c in form if c != 0)
    return scale(Fraction(1) / lead, form)


def _meets_signed_root_cone(datum: RootDatum, basis: Sequence[Vec]) -> bool:
    """Whether span(basis) contains a nonzero nonnegative root combination."""
    n = datum.rank
    k = len(basis)
    nv = k + n  # free span coefficients, then s >= 0
    a_eq = []
    b_eq = []
    for i in range(n):
        row = [basis[j][i] for j in range(k)] + [-datum.simple_roots[a][i] for a in range(n)]
        a_eq.append(row)
        b_eq.append(Fraction(0))
    a_eq.append([Fraction(0)] * k + [Fraction(1)] * n)
    b_eq.append(Fraction(1))
    return lp.feasible_point(nv, a_eq=a_eq, b_eq=b_eq, nonneg=n) is not None


def pi_cones(psi: PsiSystem, epsilon=None) -> ConeFamily:
    """Cells of the induced wall arrangement inside the open dominant cone.

    For every admissible (p, q, span) class the zero set of its distance term
    lies inside each wall {mu = 0}, mu in span ∩ (Levi-q annihilator); when
    that intersection contains a signed nonnegative root combination the zero
    set misses the open dominant cone entirely and no wall is needed.  Every
    surviving cell carries an interior witness with d > 0 (validated): the
    point of the cell's own strict-interior LP on the dominant-cone rows and
    then its signed wall rows, solved here when `_cells` proved the cell
    nonempty by an inherited witness and so ran no LP for it.
    """
    datum = psi.datum
    n = datum.rank
    bases = dict.fromkeys(b for b, _, _, _ in psi.kernels)
    walls = {_canonical_form(mu) for b in bases if not _meets_signed_root_cone(datum, b) for mu in b}
    hyper = tuple(sorted(walls))
    dominant = HPolyhedron.from_pairs([(a, Fraction(0)) for a in datum.simple_roots], n)
    cells = []
    for signs, w in _cells(dominant, hyper):
        if w is None:
            w = _cell_point(dominant, hyper, signs)
        d2 = d_value_squared(w, psi)
        if d2 <= 0:
            raise AssertionError("cone cell witness has d = 0; wall covering is incomplete")
        cells.append(ConeCell(signs, w, d2))
    if epsilon is not None and Fraction(epsilon) <= 0:
        raise ValueError("epsilon must be positive")
    return ConeFamily(datum, psi, hyper, tuple(cells), Fraction(epsilon) if epsilon is not None else None)


def with_epsilon(family: ConeFamily, epsilon) -> ConeFamily:
    e = Fraction(epsilon)
    if e <= 0:
        raise ValueError("epsilon must be positive")
    return ConeFamily(family.datum, family.psi, family.hyperplanes, family.cones, e)


def _sqrt_lower(x: Fraction, scale_bits: int = 32) -> Fraction:
    m = 1 << scale_bits
    return Fraction(isqrt((x.numerator * m * m) // x.denominator), m)


def _sqrt_upper(x: Fraction, scale_bits: int = 32) -> Fraction:
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    m = 1 << scale_bits
    return Fraction(isqrt((x.numerator * m * m) // x.denominator) + 1, m)


def suggest_epsilon(family: ConeFamily) -> Fraction:
    """A rational epsilon for which every shrunken cone keeps its witness."""
    r = min(cell.d2 / family.datum.norm2(cell.witness) for cell in family.cones)
    eps = _sqrt_lower(r) / 2
    if eps <= 0:
        raise AssertionError("witness distance ratio too small to certify an epsilon")
    return eps


def cone_of(family: ConeFamily, x) -> int | None:
    """Index of the open cell containing x, or None."""
    xv = vec(x)
    if any(dot(a, xv) <= 0 for a in family.datum.simple_roots):
        return None
    for i, cell in enumerate(family.cones):
        if all(s * dot(h, xv) > 0 for s, h in zip(cell.signs, family.hyperplanes)):
            return i
    return None


def in_c_epsilon(family: ConeFamily, x) -> bool:
    if family.epsilon is None:
        raise ValueError("cone family carries no epsilon")
    idx = cone_of(family, x)
    if idx is None:
        return False
    xv = vec(x)
    return d_value_squared(xv, family.psi) > family.epsilon**2 * family.datum.norm2(xv)


# ---------------------------------------------------------------------------
# nested hulls


def r_prime(p: ParabolicSubset, q: ParabolicSubset, t) -> VPolytope:
    """Hull of the projections of t across the parabolics between p and q."""
    tv = vec(t)
    datum = p.datum
    if any(dot(a, tv) < 0 for a in datum.simple_roots):
        raise ValueError("t must lie in the closed dominant cone")
    if any(dot(a, tv) == 0 for a in datum.simple_roots):
        warnings.warn("t is not regular; the hull degenerates", stacklevel=2)
    pts = tuple(sorted({project(tv, r) for r in parabolics_between(p, q)}))
    return VPolytope(pts)


def faces_lemma31(p: ParabolicSubset, q: ParabolicSubset, t) -> dict:
    """Faces of r_prime indexed by nested parabolic pairs (p1, p2)."""
    tv = vec(t)
    out = {}
    for p1 in parabolics_between(p, q):
        for p2 in parabolics_between(p1, q):
            pts = tuple(sorted({project(tv, r) for r in parabolics_between(p1, p2)}))
            out[(p1, p2)] = pts
    return out


def r_region(
    p: ParabolicSubset,
    q: ParabolicSubset,
    t,
    s,
    validate_samples: int = 0,
    rng=None,
) -> VPolytope:
    """Minkowski sum of the two nested hulls; optionally cross-checked against
    the product of indicator functions on random points."""
    datum = p.datum
    g = full_group(datum)
    a = r_prime(p, q, t)
    b = r_prime(q, g, s)
    m = polyhedra.minkowski_sum(a, b)
    if validate_samples:
        _validate_region_gamma(p, q, vec(t), vec(s), m, validate_samples, rng)
    return m


def _validate_region_gamma(p, q, tv, sv, m: VPolytope, samples: int, rng) -> None:
    import random

    rng = rng or random.Random(0)
    datum = p.datum
    g = full_group(datum)
    basis = subspace_basis(p, g)
    if not basis:
        return
    coords = [coords_in_basis(basis, v) for v in m.vertices]
    lo = [min(c[i] for c in coords) - 1 for i in range(len(basis))]
    hi = [max(c[i] for c in coords) + 1 for i in range(len(basis))]
    checked = 0
    while checked < samples:
        u = [
            Fraction(rng.randrange(int(a * 64), int(b * 64) + 1), 64)
            for a, b in zip(lo, hi)
        ]
        x = zeros(datum.rank)
        for ui, bv in zip(u, basis):
            x = add(x, scale(ui, bv))
        g1 = gamma(p, q, x, tv)
        g2 = gamma(q, g, sub(x, tv), sv)
        if g1 == BOUNDARY or g2 == BOUNDARY:
            continue
        inside = polyhedra.in_hull(m.vertices, x)
        if bool(g1 * g2) != inside:
            raise AssertionError(
                f"indicator product disagrees with the Minkowski hull at {x}"
            )
        checked += 1


# ---------------------------------------------------------------------------
# the thickening constant and the threshold functional


def _sin_half_sq_lower(sin_sq: Fraction) -> Fraction:
    """Rational lower bound for sin^2(theta/2) given sin^2(theta)."""
    cos_sq = 1 - sin_sq
    if cos_sq < 0:
        raise ValueError("sin^2 exceeds 1")
    rn, rd = isqrt(cos_sq.numerator), isqrt(cos_sq.denominator)
    if rn * rn == cos_sq.numerator and rd * rd == cos_sq.denominator:
        return (1 - Fraction(rn, rd)) / 2
    ub = _sqrt_upper(cos_sq)
    fallback = sin_sq / 4
    if ub >= 1:
        return fallback
    return max((1 - ub) / 2, fallback)


def kappa(datum: RootDatum, functionals: Sequence[Vec]) -> Fraction:
    """Squared thickening constant: |lam(X)| <= b for all lam in a subset S
    forces dist(X, ker S) < kappa * b.  Built by intersecting one kernel at a
    time; each step divides by a rational lower bound on sin^2(theta/2) for
    the angle between the running kernel and the next hyperplane."""
    funcs = _sorted_forms(vec(f) for f in functionals)
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
                half = _sin_half_sq_lower(sin_sq)
                c2 = max(c2, Fraction(1) / dn2) / half
                rows.append(lam)
            best = max(best, c2)
    return best


def b_functional(datum: RootDatum, epsilon, kappa_sq: Fraction) -> Vec:
    """Rational multiple of the first simple root with 0 < B(T) and
    4*kappa^2*B(T)^2 <= eps^2*|T|^2 throughout the dominant cone."""
    eps = Fraction(epsilon)
    if eps <= 0 or kappa_sq <= 1:
        raise ValueError("need epsilon > 0 and kappa^2 > 1")
    alpha = datum.simple_roots[0]
    r = _sqrt_upper(kappa_sq * datum.form_norm2(alpha))
    b = scale(eps / (2 * r), alpha)
    rays = transpose(invert(datum.simple_roots))  # fundamental coweights
    for v in rays:
        val = dot(b, v)
        if val < 0 or 4 * kappa_sq * val**2 > eps**2 * datum.norm2(v):
            raise AssertionError("threshold functional violates its bound on a ray")
    return b


# ---------------------------------------------------------------------------
# symbolic inequality systems


@dataclass(frozen=True)
class SymbolicIneq:
    """lhs(X) REL b_coeff*B(T) + t_form(T) + ts_form(T+S), REL in {>=, <=}."""

    lhs: Vec
    rel: str
    b_coeff: Fraction
    t_form: Vec
    ts_form: Vec
    kind: str  # 'delta_p' | 'hat_pq' | 'delta_q' | 'hat_q' | 'weight'

    def rhs_value(self, b_form: Vec, t: Vec, s: Vec) -> Fraction:
        return (
            self.b_coeff * dot(b_form, t)
            + dot(self.t_form, t)
            + dot(self.ts_form, add(t, s))
        )


def _ineq(lhs, rel, kind, b_coeff=Fraction(0), t_form=None, ts_form=None, n=None):
    n = n if n is not None else len(lhs)
    return SymbolicIneq(
        vec(lhs),
        rel,
        Fraction(b_coeff),
        vec(t_form) if t_form is not None else zeros(n),
        vec(ts_form) if ts_form is not None else zeros(n),
        kind,
    )


def base_inequalities(psi: PsiSystem, p: ParabolicSubset, q: ParabolicSubset) -> tuple[SymbolicIneq, ...]:
    """The hull-membership system: dominance at p plus the three hull blocks."""
    datum = psi.datum
    rows = [_ineq(f, "ge", "delta_p") for f in delta_p_at(psi, p)]
    for i in delta_between(p, q):
        w = coproject(datum.fundamental_weights[i], p, q)
        rows.append(_ineq(w, "le", "hat_pq", t_form=w))
    for i in sorted(q.outside):
        a = coproject(datum.simple_roots[i], q)
        rows.append(_ineq(a, "ge", "delta_q", t_form=a))
    for i in sorted(q.outside):
        w = datum.fundamental_weights[i]  # already kills the Levi of q
        rows.append(_ineq(w, "le", "hat_q", ts_form=w))
    return tuple(rows)


@dataclass(frozen=True)
class RegionDescriptor:
    """One leaf of the recursion: sign split plus nested threshold levels."""

    p: ParabolicSubset
    q: ParabolicSubset
    pi: tuple[Vec, ...]
    pi_plus: tuple[Vec, ...]
    lambdas: tuple[tuple[Vec, ...], ...]
    deltas: tuple[Fraction, ...]

    def sgn(self, lam: Vec) -> int:
        return 1 if lam in self.pi_plus else -1

    def level_of(self, lam: Vec) -> int | None:
        for i, lv in enumerate(self.lambdas):
            if lam in lv:
                return i
        return None

    @property
    def pi_zero(self) -> tuple[Vec, ...]:
        used = {lam for lv in self.lambdas for lam in lv}
        return tuple(f for f in self.pi if f not in used)


def _text(x) -> str:
    """A vector, or nested tuples of them, as in the CLI: (1, -1/2), not Fraction reprs."""
    return "(" + ", ".join(map(_text, x)) + ")" if isinstance(x, tuple) else str(x)


def _where(desc: RegionDescriptor, t, s, **more) -> str:
    """The region and parameters of a failure, enough to reproduce it."""
    p, q = tuple(sorted(desc.p.outside)), tuple(sorted(desc.q.outside))
    fields = dict(p=p, q=q, pi_plus=desc.pi_plus, lambdas=desc.lambdas, deltas=desc.deltas, T=t, S=s, **more)
    return " [" + " ".join(f"{k}={_text(v)}" for k, v in fields.items()) + "]"


def region_inequalities(psi: PsiSystem, desc: RegionDescriptor) -> tuple[SymbolicIneq, ...]:
    rows = list(base_inequalities(psi, desc.p, desc.q))
    k = len(desc.deltas) - 1
    for lam in desc.pi:
        signed = scale(desc.sgn(lam), lam)
        lvl = desc.level_of(lam)
        if lvl is None:
            rows.append(_ineq(signed, "ge", "weight"))
            rows.append(_ineq(signed, "le", "weight", b_coeff=desc.deltas[k]))
        else:
            rows.append(_ineq(signed, "ge", "weight", b_coeff=desc.deltas[lvl]))
            if lvl >= 1:
                rows.append(_ineq(signed, "le", "weight", b_coeff=desc.deltas[lvl - 1]))
    return tuple(rows)


def _quotient_rows(basis: Sequence[Vec], forms: Sequence[Vec]) -> list[Vec]:
    return [tuple(dot(f, bv) for bv in basis) for f in forms]


def instantiate(
    ineqs: Sequence[SymbolicIneq], basis: Sequence[Vec], b_form: Vec, t, s
) -> HPolyhedron:
    """H-representation in the coordinates of the given subspace basis."""
    tv, sv = vec(t), vec(s)
    pairs = []
    for iq, lhs_y in zip(ineqs, _quotient_rows(basis, [iq.lhs for iq in ineqs])):
        rhs = iq.rhs_value(b_form, tv, sv)
        if iq.rel == "ge":
            pairs.append((lhs_y, -rhs))
        else:
            pairs.append((neg(lhs_y), rhs))
    return HPolyhedron.from_pairs(pairs, len(basis))


# ---------------------------------------------------------------------------
# decomposition context


@dataclass(frozen=True)
class DecompositionContext:
    datum: RootDatum
    p: ParabolicSubset
    q: ParabolicSubset
    psi: PsiSystem
    family: ConeFamily
    epsilon: Fraction
    kappa_sq: Fraction
    b_form: Vec
    largeness_sq: Fraction

    @property
    def basis(self) -> tuple[Vec, ...]:
        return subspace_basis(self.p, full_group(self.datum))

    @property
    def pi(self) -> tuple[Vec, ...]:
        return pi_at(self.psi, self.p)


def make_context(
    datum: RootDatum,
    p: ParabolicSubset,
    q: ParabolicSubset,
    psi: PsiSystem,
    epsilon,
    largeness_sq=None,
    family: ConeFamily | None = None,
) -> DecompositionContext:
    if not q.outside:
        raise ValueError("q must be a proper parabolic")
    if not q.outside <= p.outside:
        raise ValueError("p must be contained in q")
    eps = Fraction(epsilon)
    fam = with_epsilon(family, eps) if family is not None else pi_cones(psi, eps)
    ks = kappa(datum, psi_at(psi, p))
    b = b_functional(datum, eps, ks)
    large = Fraction(largeness_sq) if largeness_sq is not None else 4 / eps**2
    return DecompositionContext(datum, p, q, psi, fam, eps, ks, b, large)


@dataclass(frozen=True)
class WellSituatedReport:
    ok: bool
    failures: tuple[str, ...]
    cone_index: int | None


def well_situated_report(ctx: DecompositionContext, t, s) -> WellSituatedReport:
    tv, sv = vec(t), vec(s)
    fails = []
    it = cone_of(ctx.family, tv)
    ist = cone_of(ctx.family, sv)
    if it is None:
        fails.append("T lies in no open cone cell")
    if ist is None:
        fails.append("S lies in no open cone cell")
    if it is not None and ist is not None and it != ist:
        fails.append("T and S lie in different cone cells")
    e2 = ctx.epsilon**2
    if it is not None and not d_value_squared(tv, ctx.psi) > e2 * ctx.datum.norm2(tv):
        fails.append("T fails d(T) > eps*|T|")
    if ist is not None and not d_value_squared(sv, ctx.psi) > e2 * ctx.datum.norm2(sv):
        fails.append("S fails d(S) > eps*|S|")
    if ctx.datum.norm2(sv) > 1:
        fails.append("|S| exceeds 1")
    if not ctx.datum.norm2(tv) > ctx.largeness_sq:
        fails.append("|T|^2 is not above the largeness threshold")
    return WellSituatedReport(not fails, tuple(fails), it)


# ---------------------------------------------------------------------------
# the recursion


def _cell_point(h: HPolyhedron, forms: Sequence[Vec], signs: Sequence[int], level=Fraction(0)):
    """The strict-interior LP point of the cell `signs` of `_cells`, or None if it is empty.

    Its rows are h's, then s_i (f_i.y - level) > 0 in the order of the forms."""
    rows, rhs = h.ub_rows()
    rows += [neg(scale(s, f)) for s, f in zip(signs, forms)]
    rhs += [-s * level for s in signs]
    return lp.interior_point(h.dim, a_strict=rows, b_strict=rhs)


def _cells(h: HPolyhedron, forms: Sequence[Vec], level=Fraction(0)):
    """Open cells of the arrangement {f.y = level : f in forms} inside h.

    Depth-first over the forms, +1 before -1 (Sleumer 1999).  Yields
    (signs, point) for every sign vector s whose cell {y strictly inside h :
    s_i (f_i.y - level) > 0} is nonempty, in lexicographic order with +1
    first.  Each node hands its strict interior point w down: a child with
    s (f.w - level) > 0 is nonempty by w and runs no LP; any other child is
    decided by its own strict-interior LP.  point is the leaf's own LP point,
    which is `_cell_point` of that leaf, or None when an inherited witness
    proved the leaf nonempty.  The root runs no LP when there are forms:
    every child's LP has h's rows, so an empty h still yields nothing.
    """

    def rec(signs, w, own):
        if len(signs) == len(forms):
            yield signs, w if own else None
            return
        f = forms[len(signs)]
        for s in (1, -1):
            child = signs + (s,)
            if w is not None and s * (dot(f, w) - level) > 0:
                yield from rec(child, w, False)
            elif (point := _cell_point(h, forms, child, level)) is not None:
                yield from rec(child, point, True)

    if forms:
        yield from rec((), None, False)
    elif (point := _cell_point(h, forms, ())) is not None:
        yield (), point


def _sign_cells(base_h: HPolyhedron, forms_y: Sequence[Vec]):
    """Sign vectors of the forms' open cells inside the region (the work units of `decompose`)."""
    return [s for s, _ in _cells(base_h, forms_y)]


def _kernel_meets(region_h: HPolyhedron, forms_y: Sequence[Vec]) -> bool:
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


def _certificate(ctx: DecompositionContext, desc: RegionDescriptor, t: Vec, s: Vec) -> Fraction:
    """Exact threshold for the next recursion level.

    Finds the lexicographically least nonnegative combination of the active
    lower-bound inequalities whose total functional lands in the span of the
    unconsumed weights, normalized so the aggregated constant is 1; the new
    threshold is then (1/|Pi|) / max |coordinate| of that functional in the
    canonical basis of the unconsumed span.
    """
    n = ctx.datum.rank
    cert = []  # (form, sgn, delta multiplier)
    for lam in desc.pi:
        lvl = desc.level_of(lam)
        if lvl is not None:
            cert.append((scale(desc.sgn(lam), lam), desc.deltas[lvl]))
    for f in delta_p_at(ctx.psi, desc.p):
        cert.append((f, Fraction(0)))
    cert.sort(key=lambda fc: (fc[0], fc[1]))
    pi0 = desc.pi_zero
    basis_idx = independent_subset(pi0, n)
    pi0_basis = [pi0[i] for i in basis_idx]
    # variables: free span coefficients (nb), then the multipliers >= 0
    nb = len(pi0_basis)
    nv = nb + len(cert)
    a_eq, b_eq = [], []
    for i in range(n):
        row = [-b[i] for b in pi0_basis] + [f[i] for f, _ in cert]
        a_eq.append(row)
        b_eq.append(Fraction(0))
    a_eq.append([Fraction(0)] * nb + [mult for _, mult in cert])
    b_eq.append(Fraction(1))
    objectives = [[Fraction(1 if j == nb + i else 0) for j in range(nv)] for i in range(len(cert))]
    x = lp.lexmin_point(objectives, nv, a_eq=a_eq, b_eq=b_eq, nonneg=len(cert))
    if x is None:
        raise CertificateError(
            "no exact certificate for the next threshold level; "
            "the inputs likely fail the largeness requirement" + _where(desc, t, s)
        )
    mu = zeros(n)
    for (f, _), c in zip(cert, x[nb:]):
        mu = add(mu, scale(c, f))
    d = coords_in_basis(pi0_basis, mu)
    if d is None:
        raise CertificateError("certificate functional escapes the unconsumed span" + _where(desc, t, s))
    dmax = max(abs(c) for c in d)
    if dmax == 0:
        raise CertificateError("certificate functional is zero" + _where(desc, t, s))
    delta = Fraction(1, len(desc.pi))
    return delta / dmax


def _descriptors_for_cell(args) -> list[RegionDescriptor]:
    """All recursion leaves inside one sign cell (a picklable work unit)."""
    ctx, tv, sv, signs = args
    basis = ctx.basis
    psi = ctx.psi
    pi = ctx.pi
    b_value = dot(ctx.b_form, tv)
    base_h = instantiate(base_inequalities(psi, ctx.p, ctx.q), basis, ctx.b_form, tv, sv)
    pi_y = _quotient_rows(basis, pi)
    out: list[RegionDescriptor] = []

    def recurse(desc: RegionDescriptor):
        region_h = instantiate(region_inequalities(psi, desc), basis, ctx.b_form, tv, sv)
        pi0 = desc.pi_zero
        pi0_y = _quotient_rows(basis, pi0)
        if _kernel_meets(region_h, pi0_y):
            out.append(desc)
            return
        delta_next = _certificate(ctx, desc, tv, sv)
        if not 0 < delta_next <= desc.deltas[-1]:
            raise CertificateError(
                f"next threshold {delta_next} escapes (0, {desc.deltas[-1]}]" + _where(desc, tv, sv)
            )
        signed = [scale(desc.sgn(lam), ly) for lam, ly in zip(pi0, pi0_y)]
        children = 0
        for cell, _ in _cells(region_h, signed, delta_next * b_value):
            lam_next = tuple(f for f, sg in zip(pi0, cell) if sg == 1)
            if not lam_next:
                raise CertificateError(
                    "threshold level with empty split cell; certificate bound failed" + _where(desc, tv, sv)
                )
            children += 1
            recurse(
                RegionDescriptor(
                    desc.p,
                    desc.q,
                    desc.pi,
                    desc.pi_plus,
                    desc.lambdas + (lam_next,),
                    desc.deltas + (delta_next,),
                )
            )
        if children == 0:
            raise CertificateError("region produced no children despite nonempty interior" + _where(desc, tv, sv))

    pi_plus = tuple(f for f, sg in zip(pi, signs) if sg == 1)
    signed = [scale(sg, ly) for sg, ly in zip(signs, pi_y)]
    # level 0 splits at the full threshold B(T); no certificate is needed
    cell_region = base_h.with_constraints([(f, Fraction(0)) for f in signed])
    for cell, _ in _cells(cell_region, signed, b_value):
        lam0 = tuple(f for f, sg in zip(pi, cell) if sg == 1)
        recurse(RegionDescriptor(ctx.p, ctx.q, pi, pi_plus, (lam0,), (Fraction(1),)))
    return out


def decompose(ctx: DecompositionContext, t, s, jobs: int = 1) -> tuple[RegionDescriptor, ...]:
    """Split the nested-hull region into threshold polytopes (the index set).

    Every leaf's kernel of unconsumed weights meets the leaf region; the
    interiors partition the region.  Inputs must be well-situated.  With
    jobs > 1 the sign cells are processed in parallel by at most
    min(jobs, cells, cpu count) workers; the result order is canonical either
    way.
    """
    report = well_situated_report(ctx, t, s)
    if not report.ok:
        raise ValueError("inputs are not well-situated: " + "; ".join(report.failures))
    tv, sv = vec(t), vec(s)
    if dot(ctx.b_form, tv) <= 0:
        raise AssertionError("threshold functional is nonpositive at T")
    basis = ctx.basis
    base_h = instantiate(
        base_inequalities(ctx.psi, ctx.p, ctx.q), basis, ctx.b_form, tv, sv
    )
    pi_y = _quotient_rows(basis, ctx.pi)
    work = [(ctx, tv, sv, signs) for signs in _sign_cells(base_h, pi_y)]
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_descriptors_for_cell, work))
    else:
        chunks = [_descriptors_for_cell(w) for w in work]
    out = [d for chunk in chunks for d in chunk]
    out.sort(key=lambda d: (d.pi_plus, d.lambdas))
    return tuple(out)


# ---------------------------------------------------------------------------
# affine vertex atlas


@dataclass(frozen=True)
class VertexEntry:
    """One region vertex as an affine function of the parameters.

    The vertex in subspace coordinates is t_matrix . T + s_matrix . S for
    every parameter pair that keeps the combinatorics of the region fixed."""

    point: Vec
    tight: frozenset[int]
    solve_rows: tuple[int, ...]
    t_matrix: Mat
    s_matrix: Mat

    def at(self, t: Vec, s: Vec) -> Vec:
        return add(mat_vec(self.t_matrix, t), mat_vec(self.s_matrix, s))


def _rhs_parameter_rows(iq: SymbolicIneq, b_form: Vec) -> tuple[Vec, Vec]:
    """The tight equality lhs(X) = row_T(T) + row_S(S)."""
    row_t = add(add(scale(iq.b_coeff, b_form), iq.t_form), iq.ts_form)
    return row_t, iq.ts_form


def region_vertices_affine(
    ctx: DecompositionContext,
    desc: RegionDescriptor,
    t,
    s,
    check: Sequence[tuple] = (),
) -> tuple[VertexEntry, ...]:
    """Vertices of the instantiated region together with their affine laws.

    Each vertex is resolved from the lexicographically first independent
    subset of its tight inequalities; the optional check samples re-verify
    the full tight sets, region membership, and vertex-set bijection at other
    parameter values, raising TransportError on any drift."""
    tv, sv = vec(t), vec(s)
    basis = ctx.basis
    ineqs = region_inequalities(ctx.psi, desc)
    h = instantiate(ineqs, basis, ctx.b_form, tv, sv)
    vp = polyhedra.vertices(h)
    dim_y = len(basis)
    lhs_rows = _quotient_rows(basis, [iq.lhs for iq in ineqs])
    entries = []
    for v in vp.vertices:
        tight = polyhedra.tight_set(h, v)
        order = sorted(tight)
        chosen_local = independent_subset([lhs_rows[i] for i in order], dim_y)
        solve_rows = tuple(order[i] for i in chosen_local)
        if len(solve_rows) != dim_y:
            raise AssertionError("tight rows of a vertex do not span")
        m_inv = invert([lhs_rows[i] for i in solve_rows])
        rt = [_rhs_parameter_rows(ineqs[i], ctx.b_form)[0] for i in solve_rows]
        rs = [_rhs_parameter_rows(ineqs[i], ctx.b_form)[1] for i in solve_rows]
        t_matrix = mat_mul(m_inv, rt)
        s_matrix = mat_mul(m_inv, rs)
        entry = VertexEntry(v, tight, solve_rows, t_matrix, s_matrix)
        if entry.at(tv, sv) != v:
            raise AssertionError("affine law fails to reproduce its own vertex")
        entries.append(entry)
    entries.sort(key=lambda e: e.point)
    for t2, s2 in check:
        t2, s2 = vec(t2), vec(s2)
        _check_transport(ctx, ineqs, lhs_rows, entries, t2, s2, _where(desc, tv, sv, T2=t2, S2=s2))
    return tuple(entries)


def _check_transport(ctx, ineqs, lhs_rows, entries, t2: Vec, s2: Vec, where: str) -> None:
    basis = ctx.basis
    h2 = instantiate(ineqs, basis, ctx.b_form, t2, s2)
    predicted = []
    for e in entries:
        y2 = e.at(t2, s2)
        for i in e.tight:
            iq = ineqs[i]
            if dot(lhs_rows[i], y2) != iq.rhs_value(ctx.b_form, t2, s2):
                raise TransportError(
                    f"tight constraint {i} breaks at the transported vertex {_text(y2)}" + where
                )
        for a, c in zip(h2.normals, h2.offsets):
            if dot(a, y2) + c < 0:
                raise TransportError(
                    f"transported vertex {_text(y2)} leaves the region at the new parameters" + where
                )
        predicted.append(y2)
    actual = polyhedra.vertices(h2).vertices
    if tuple(sorted(set(predicted))) != actual:
        raise TransportError("vertex sets fail to biject across parameter samples" + where)


# ---------------------------------------------------------------------------
# refinement


@dataclass(frozen=True)
class RefinementDescriptor:
    """One sign cell of the near-kernel cut of a region.

    All fields are symbolic: the quotient coordinates are the values of the
    `basis_b` functionals, the cut keeps those values within delta_prime
    times the threshold functional, and `signs` fixes one side of every
    problematic hyperplane.  None of the data depends on the parameters, and
    `rbar_key` is the canonical H-form of the recession-invariant cone that
    replaces the cut region after rescaling."""

    region: RegionDescriptor
    pi_one: tuple[Vec, ...]
    basis_b: tuple[Vec, ...]
    delta_prime: Fraction
    problematic: tuple[Vec, ...]
    signs: tuple[int, ...]
    pyramid_facets: tuple[Vec, ...]
    rbar_key: tuple


def _ambient_from_quotient(normal: Vec, basis_b: Sequence[Vec]) -> Vec:
    out = zeros(len(basis_b[0]))
    for c, b in zip(normal, basis_b):
        out = add(out, scale(c, b))
    return out


def refinement_inequalities(
    ctx: DecompositionContext, ref: RefinementDescriptor
) -> tuple[SymbolicIneq, ...]:
    rows = list(region_inequalities(ctx.psi, ref.region))
    lam_b = zeros(ctx.datum.rank)
    for b in ref.basis_b:
        lam_b = add(lam_b, scale(ref.region.sgn(b), b))
    rows.append(_ineq(lam_b, "le", "cut", b_coeff=ref.delta_prime))
    for s, nrm in zip(ref.signs, ref.problematic):
        rows.append(_ineq(scale(s, _ambient_from_quotient(nrm, ref.basis_b)), "ge", "face"))
    return tuple(rows)


def refine(
    ctx: DecompositionContext,
    desc: RegionDescriptor,
    pi_one: Iterable,
    t,
    s,
    check: Sequence[tuple] = (),
) -> tuple[RefinementDescriptor, ...]:
    """Cut the region near the kernel of the chosen weights and split it
    along the problematic hyperplanes of the quotient projection.

    pi_one must be a nonempty subset of the unconsumed weights, closed in the
    sense that no other unconsumed weight vanishes identically on the kernel
    slice of the region (ClosureError names any violator).  Returns one
    descriptor per sign cell with nonempty interior, in canonical order."""
    tv, sv = vec(t), vec(s)
    p1 = _sorted_forms(vec(f) for f in pi_one)
    pi0 = desc.pi_zero
    if not p1 or not set(p1) <= set(pi0):
        raise ValueError("the refinement subset must be a nonempty subset of the unconsumed weights")
    basis = ctx.basis
    dim_y = len(basis)
    ineqs = region_inequalities(ctx.psi, desc)
    h = instantiate(ineqs, basis, ctx.b_form, tv, sv)
    rows_ub, rhs_ub = h.ub_rows()
    p1_rows = _quotient_rows(basis, p1)
    if (
        lp.feasible_point(
            dim_y, a_ub=rows_ub, b_ub=rhs_ub, a_eq=p1_rows, b_eq=[Fraction(0)] * len(p1_rows)
        )
        is None
    ):
        raise AssertionError("kernel slice is empty; the region is not a recursion leaf")
    for lam, row in zip(pi0, _quotient_rows(basis, pi0)):
        if lam in p1:
            continue
        lo = lp.solve(row, dim_y, a_ub=rows_ub, b_ub=rhs_ub, a_eq=p1_rows, b_eq=[Fraction(0)] * len(p1_rows))
        hi = lp.solve(row, dim_y, minimize=False, a_ub=rows_ub, b_ub=rhs_ub, a_eq=p1_rows, b_eq=[Fraction(0)] * len(p1_rows))
        if lo.ok and hi.ok and lo.value == 0 and hi.value == 0:
            raise ClosureError(
                f"weight {_text(lam)} vanishes on the kernel slice but is outside the subset"
                + _where(desc, tv, sv)
            )
    idx = independent_subset(p1_rows, dim_y)
    basis_b = tuple(p1[i] for i in idx)
    m = len(basis_b)
    b_rows = _quotient_rows(basis, basis_b)
    sgn_vec = tuple(Fraction(desc.sgn(b)) for b in basis_b)
    lam_b_row = zeros(dim_y)
    for sg, r in zip(sgn_vec, b_rows):
        lam_b_row = add(lam_b_row, scale(sg, r))

    b_value = dot(ctx.b_form, tv)
    atlas = region_vertices_affine(ctx, desc, tv, sv)
    c_values = set()
    for e in atlas:
        c_y = dot(lam_b_row, e.point) / b_value
        if c_y < 0:
            raise AssertionError("quotient height is negative at a vertex")
        comp_t = [sum(lam_b_row[k] * e.t_matrix[k][j] for k in range(dim_y)) for j in range(ctx.datum.rank)]
        comp_s = [sum(lam_b_row[k] * e.s_matrix[k][j] for k in range(dim_y)) for j in range(ctx.datum.rank)]
        if vec(comp_t) != scale(c_y, ctx.b_form) or not is_zero(vec(comp_s)):
            raise TransportError(
                "vertex height is not a fixed multiple of the threshold functional" + _where(desc, tv, sv)
            )
        c_values.add(c_y)
    positive = [c for c in c_values if c > 0]
    if not positive:
        raise ValueError("every vertex lies on the kernel; nothing to cut")
    delta_prime = min(positive) / 2

    lam_b_amb = zeros(ctx.datum.rank)
    for b in basis_b:
        lam_b_amb = add(lam_b_amb, scale(desc.sgn(b), b))
    cut_ineqs = ineqs + (_ineq(lam_b_amb, "le", "cut", b_coeff=delta_prime),)
    cut_h = instantiate(cut_ineqs, basis, ctx.b_form, tv, sv)
    cut_vp = polyhedra.vertices(cut_h)

    def qmap(y: Vec) -> Vec:
        return tuple(dot(r, y) for r in b_rows)

    proj_pts = tuple(sorted({qmap(v) for v in cut_vp.vertices}))
    ext = polyhedra.extreme_points(proj_pts)
    origin = zeros(m)
    cut_height = delta_prime * b_value
    for e in ext:
        if e != origin and dot(sgn_vec, e) != cut_height:
            raise AssertionError("projected cut region is not a pyramid over the cut facet")
    if origin not in ext:
        raise AssertionError("kernel image is not a vertex of the projected cut region")
    hull_h = polyhedra.to_hrep(VPolytope(ext))
    facets = tuple(
        sorted(
            _normalize_form(a, 0)[0]
            for a, c in zip(hull_h.normals, hull_h.offsets)
            if c == 0
        )
    )

    candidates: list[frozenset] = []
    for verts in polyhedra.faces(cut_vp):
        pts = tuple(sorted({qmap(v) for v in verts}))
        if rank(pts, m) != m - 1:
            continue
        p0 = pts[0]
        diffs = [sub(p, p0) for p in pts[1:]]
        if rank(list(diffs) + [p0], m) != rank(diffs, m):
            continue
        candidates.append(frozenset(verts))
    maximal = [
        f for f in candidates if not any(f < g for g in candidates)
    ]
    normals = set()
    for f in maximal:
        pts = tuple(sorted({qmap(v) for v in f}))
        ns = nullspace(pts, m)
        if len(ns) != 1:
            raise AssertionError("problematic face has no unique hyperplane")
        normals.add(_canonical_form(ns[0]))
    problematic = tuple(sorted(normals))

    out = []
    for signs, _ in _cells(hull_h, problematic):
        cone_rows = [(f, Fraction(0)) for f in facets] + [
            (scale(sg, nrm), Fraction(0)) for sg, nrm in zip(signs, problematic)
        ]
        key = polyhedra.canonical_hrep(HPolyhedron.from_pairs(cone_rows, m))
        out.append(
            RefinementDescriptor(
                desc, p1, basis_b, delta_prime, problematic, signs, facets, key
            )
        )
    result = tuple(out)
    for t2, s2 in check:
        again = refine(ctx, desc, pi_one, t2, s2)
        if again != result:
            raise TransportError("refinement data varies with the parameters" + _where(desc, tv, sv, T2=vec(t2), S2=vec(s2)))
    return result


# ---------------------------------------------------------------------------
# kernel slices and their exponential integrals


@dataclass(frozen=True)
class SliceData:
    """The shifted kernel slice of a refined region at a base point.

    `polytope` lives in the coordinates of `kernel_basis` (vectors expressed
    in the subspace coordinates of the ambient pair); integrals below are
    taken with respect to those coordinates."""

    polytope: VPolytope
    h: HPolyhedron
    kernel_basis: tuple[Vec, ...]
    x_coords: Vec


def slice_polytope(
    ctx: DecompositionContext, ref: RefinementDescriptor, x, t, s
) -> SliceData:
    tv, sv = vec(t), vec(s)
    xv = vec(x)
    basis = ctx.basis
    y = coords_in_basis(basis, xv)
    if y is None:
        raise ValueError("the base point does not lie in the subspace of the pair")
    ineqs = refinement_inequalities(ctx, ref)
    h = instantiate(ineqs, basis, ctx.b_form, tv, sv)
    for a, c in zip(h.normals, h.offsets):
        if dot(a, y) + c < 0:
            raise ValueError("the base point lies outside the refined region")
    p1_rows = _quotient_rows(basis, ref.pi_one)
    kernel = nullspace(p1_rows, len(basis))
    if not kernel:
        raise ValueError("the chosen weights leave a zero-dimensional slice")
    pairs = []
    for a, c in zip(h.normals, h.offsets):
        pairs.append((tuple(dot(a, k) for k in kernel), dot(a, y) + c))
    h_u = HPolyhedron.from_pairs(pairs, len(kernel))
    return SliceData(polyhedra.vertices(h_u), h_u, kernel, y)


def slice_exp_integral(
    ctx: DecompositionContext, ref: RefinementDescriptor, x, t, s, mu
) -> float:
    sd = slice_polytope(ctx, ref, x, t, s)
    mu_u = _slice_exponent(ctx, sd, vec(mu))
    return polyhedra.integrate_exp_oracle(sd.polytope, mu_u)


def _slice_exponent(ctx: DecompositionContext, sd: SliceData, mu: Vec) -> Vec:
    basis = ctx.basis
    out = []
    for k in sd.kernel_basis:
        amb = zeros(ctx.datum.rank)
        for c, bv in zip(k, basis):
            amb = add(amb, scale(c, bv))
        out.append(dot(mu, amb))
    return vec(out)


@dataclass(frozen=True)
class FitReport:
    model: TFiniteFunction
    residual: float
    exponents: tuple[Vec, ...]
    vertex_labels: int


def fit_slice_model(
    ctx: DecompositionContext,
    ref: RefinementDescriptor,
    mu,
    x0,
    dx,
    t0,
    dt,
    s0,
    ds,
    grid: int = 5,
    step: Fraction = Fraction(1, 16),
) -> FitReport:
    """Sample the slice integral on a parameter box and fit its closed form.

    The box is (X, T, S) = (x0, t0, s0) + (a dx, b dt, c ds) over a cubic
    grid.  Slice vertices are clustered by tight set (the labels must not
    change across the box), each cluster is verified to move affinely in
    (a, b, c), and the integral values are fitted against the exponentials of
    the cluster heights.  Returns the model with its maximum residual."""
    mu_v = vec(mu)
    params = [i * step for i in range(grid)]
    x0v, dxv = vec(x0), vec(dx)
    t0v, dtv = vec(t0), vec(dt)
    s0v, dsv = vec(s0), vec(ds)
    labels: dict[frozenset, dict[tuple, Vec]] = {}
    values: dict[tuple, float] = {}
    mu_u = None
    dim_u = None
    for a in params:
        for b in params:
            for c in params:
                xx = add(x0v, scale(a, dxv))
                tt = add(t0v, scale(b, dtv))
                ss = add(s0v, scale(c, dsv))
                sd = slice_polytope(ctx, ref, xx, tt, ss)
                if mu_u is None:
                    mu_u = _slice_exponent(ctx, sd, mu_v)
                    dim_u = len(sd.kernel_basis)
                here = {}
                for v in sd.polytope.vertices:
                    here[polyhedra.tight_set(sd.h, v)] = v
                if len(here) != len(sd.polytope.vertices):
                    raise TransportError("two slice vertices share a tight set" + _where(ref.region, tt, ss))
                if not labels:
                    for key in here:
                        labels[key] = {}
                elif set(here) != set(labels):
                    raise TransportError(
                        "slice tight-set labels vary across the sample box" + _where(ref.region, tt, ss)
                    )
                for key, v in here.items():
                    labels[key][(a, b, c)] = v
                values[(a, b, c)] = polyhedra.integrate_exp_oracle(
                    sd.polytope, mu_u
                )
    exponents = set()
    for key, table in labels.items():
        u000 = table[(Fraction(0), Fraction(0), Fraction(0))]
        ga = scale(1 / step, sub(table[(step, Fraction(0), Fraction(0))], u000))
        gb = scale(1 / step, sub(table[(Fraction(0), step, Fraction(0))], u000))
        gc = scale(1 / step, sub(table[(Fraction(0), Fraction(0), step)], u000))
        for (a, b, c), v in table.items():
            pred = add(add(add(u000, scale(a, ga)), scale(b, gb)), scale(c, gc))
            if pred != v:
                where = _where(ref.region, t0v, s0v, dT=dtv, dS=dsv)
                raise TransportError("slice vertex motion is not affine in the box" + where)
        exponents.add((dot(mu_u, ga), dot(mu_u, gb), dot(mu_u, gc)))
    exp_list = tuple(sorted(exponents))
    samples = [
        ((float(a), float(b), float(c)), val) for (a, b, c), val in sorted(values.items())
    ]
    model, residual = fit_tfinite(samples, exp_list, max_degree=dim_u)
    return FitReport(model, residual, exp_list, len(labels))


# ---------------------------------------------------------------------------
# consistency checks and serialization


def lemma33_equivalence(ctx: DecompositionContext, t, s) -> tuple[str, ...]:
    """Cross-check the thickened systems against kernel-hull membership.

    For every span class of the functional system at the pair, bounding all
    its members by the threshold inside the region must be feasible exactly
    when the class kernel meets the hull of the T-projections.  Returns the
    descriptions of any classes where the two sides disagree."""
    tv, sv = vec(t), vec(s)
    basis = ctx.basis
    dim_y = len(basis)
    base_h = instantiate(
        base_inequalities(ctx.psi, ctx.p, ctx.q), basis, ctx.b_form, tv, sv
    )
    rows_ub, rhs_ub = base_h.ub_rows()
    b_value = dot(ctx.b_form, tv)
    hull = r_prime(ctx.p, ctx.q, tv).vertices
    violations = []
    for combo in _span_classes(psi_at(ctx.psi, ctx.p), ctx.datum.rank).values():
        a_ub = list(rows_ub)
        b_ub = list(rhs_ub)
        for row in _quotient_rows(basis, combo):
            a_ub.append(row)
            b_ub.append(b_value)
            a_ub.append(neg(row))
            b_ub.append(b_value)
        thick = lp.feasible_point(dim_y, a_ub=a_ub, b_ub=b_ub) is not None
        nv = len(hull)
        a_eq = [[Fraction(1)] * nv]
        b_eq = [Fraction(1)]
        for lam in combo:
            a_eq.append([dot(lam, v) for v in hull])
            b_eq.append(Fraction(0))
        bary = lp.feasible_point(nv, a_eq=a_eq, b_eq=b_eq, nonneg=nv) is not None
        if thick != bary:
            violations.append(
                f"span class {combo}: thickened={thick} kernel-hull={bary}"
            )
    return tuple(violations)


def _form_json(f: Vec) -> list[str]:
    return [str(c) for c in f]


def _ineq_json(iq: SymbolicIneq) -> dict:
    return {
        "lhs": _form_json(iq.lhs),
        "rel": iq.rel,
        "b_coeff": str(iq.b_coeff),
        "t_form": _form_json(iq.t_form),
        "ts_form": _form_json(iq.ts_form),
        "kind": iq.kind,
    }


def region_to_json(psi: PsiSystem, desc: RegionDescriptor) -> dict:
    index = {f: i for i, f in enumerate(desc.pi)}
    return {
        "p": sorted(desc.p.outside),
        "q": sorted(desc.q.outside),
        "pi": [_form_json(f) for f in desc.pi],
        "pi_plus": [index[f] for f in desc.pi_plus],
        "lambdas": [[index[f] for f in level] for level in desc.lambdas],
        "deltas": [str(d) for d in desc.deltas],
        "ineqs": [_ineq_json(iq) for iq in region_inequalities(psi, desc)],
    }


def decomposition_to_json(
    ctx: DecompositionContext, descs: Sequence[RegionDescriptor]
) -> dict:
    return {
        "p": sorted(ctx.p.outside),
        "q": sorted(ctx.q.outside),
        "epsilon": str(ctx.epsilon),
        "kappa_sq": str(ctx.kappa_sq),
        "b_functional": _form_json(ctx.b_form),
        "largeness_sq": str(ctx.largeness_sq),
        "regions": [region_to_json(ctx.psi, d) for d in descs],
    }


def refinement_to_json(ctx: DecompositionContext, ref: RefinementDescriptor) -> dict:
    index = {f: i for i, f in enumerate(ref.region.pi)}
    return {
        "region": region_to_json(ctx.psi, ref.region),
        "pi_one": [index[f] for f in ref.pi_one],
        "basis": [index[f] for f in ref.basis_b],
        "delta_prime": str(ref.delta_prime),
        "problematic": [_form_json(f) for f in ref.problematic],
        "signs": list(ref.signs),
        "pyramid_facets": [_form_json(f) for f in ref.pyramid_facets],
        "ineqs": [_ineq_json(iq) for iq in refinement_inequalities(ctx, ref)],
    }
