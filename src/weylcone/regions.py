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

import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, product
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
    eliminate,
    exact_json,
    identity,
    independent_subset,
    integer_inverse,
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
    unit,
    vec,
    zeros,
)
from .polyhedra import HPolyhedron, VPolytope
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
    only.  `functionals` is their deduplicated union with the simple roots;
    the distance d reads the kernels of Psi at p (`psi_at`) through `kernels`.
    """

    datum: RootDatum
    weights: tuple[Vec, ...]
    functionals: tuple[Vec, ...]

    @cached_property
    def kernels(self) -> tuple[tuple, tuple]:
        """(bases, terms) from one pass over the admissible kernels, built once per
        system on first use, from one flat enumeration of the span classes per
        p (`_keyed_kernels`).  bases: the distinct bases of every admissible
        kernel (`pi_cones` takes its walls from them).  terms: (gram, denom)
        per kernel (p, q, S) that no kernel with span S and a wider interval
        [p', q'] dominates: ker S depends only on span S and conv{P_r x} grows
        with the interval, so a dominated term is never the least.  With
        G = S M^-1 S^T (M = datum.inner) and P_r the projections to the
        parabolics r between p and q, gram holds the Gram rows (`_gram_rows`)
        of the distinct integer matrices c S P_r in the integer metric g G^-1,
        and denom = c^2 g."""
        found = [(key, p, q, combo, basis) for p, q, ks in _keyed_kernels(self) for key, combo, basis in ks]
        intervals: dict[tuple, list] = {}
        for key, p, q, _, _ in found:
            intervals.setdefault(key, []).append((p.outside, q.outside))
        terms = []
        for key, p, q, combo, _ in found:
            pq = (p.outside, q.outside)
            if any(qo <= pq[1] and pq[0] <= po and (po, qo) != pq for po, qo in intervals[key]):
                continue  # dominated
            k = len(combo)
            rows, c = integer_rows([coproject(f, r) for r in parabolics_between(p, q) for f in combo])
            metric, g = integer_inverse(mat_mul(mat_mul(combo, self.datum.inv_inner), transpose(combo)))
            maps = tuple(dict.fromkeys(rows[i : i + k] for i in range(0, len(rows), k)))
            terms.append((_gram_rows(maps, metric), c * c * g))
        return tuple(dict.fromkeys(b for *_, b in found)), tuple(terms)


def _gram_rows(maps: Sequence[Mat], metric: Mat) -> tuple:
    """gram[r][s]: the integer coefficients of x -> (A_r x)^T metric (A_s x) over
    the monomials x_i x_j, i <= j: B_ii and B_ij + B_ji for B = A_r^T metric A_s."""
    cols = [tuple(zip(*a)) for a in maps]
    images = [[[sum(map(mul, row, col)) for row in metric] for col in c] for c in cols]
    n = len(cols[0])

    def form(u, v):
        b = [[sum(map(mul, ui, vj)) for vj in v] for ui in u]
        return tuple(b[i][j] + b[j][i] if i < j else b[i][i] for i in range(n) for j in range(i, n))

    return tuple(tuple(form(u, v) for v in images) for u in cols)


def psi_pi(datum: RootDatum, weights: WeightSet | Iterable) -> PsiSystem:
    nz = _sorted_forms(w for w in (vec(x) for x in weights) if not is_zero(w))
    funcs = _sorted_forms(tuple(datum.simple_roots) + nz)
    return PsiSystem(datum, nz, funcs)


def pi_at(psi: PsiSystem, p: ParabolicSubset) -> tuple[Vec, ...]:
    """Nonzero projections of the weights to the central subspace of p."""
    return _sorted_forms(f for f in (coproject(lam, p) for lam in psi.weights) if not is_zero(f))


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
    """Independent subsets of `funcs` up to span equality: span_key -> subset.

    The classes are the flats of the functionals' linear matroid (Oxley,
    *Matroid Theory*), enumerated rank by rank on the functionals scaled to int
    rows.  Each flat F carries its annihilator, int vectors that every member
    of F vanishes on.  Cutting it against the least functional j left outside F
    (one fraction-free `eliminate` step) gives the annihilator of the cover
    cl(F ∪ {j}), whose other members are the functionals left with an int dot
    of 0 on every cut vector; removing them and repeating yields every cover of
    F.  A class's subset is its flat's greedy basis in index order, the first
    independent subset in `combinations` order with that span.  The flats of a
    rank are visited in the order of their subsets, so a cover is first reached
    from the least flat it covers, whose subset plus j is the cover's greedy
    basis, and covers are first reached in the order of their subsets too.
    One `span_key` per class; a zero functional belongs to no class."""
    rows = [integer_rows([f])[0][0] for f in funcs]
    live = [j for j, row in enumerate(rows) if any(row)]
    out = {}
    # per flat of the current rank: (greedy basis, annihilator rows, member bitmask)
    level = [((), [tuple(int(i == j) for j in range(n)) for i in range(n)], 0)]
    for _ in range(n):
        covers: dict[int, tuple] = {}
        for basis, ann, members in level:
            rest = [j for j in live if not members >> j & 1]
            while rest:
                j = rest[0]
                cut = [(*a, sum(map(mul, a, rows[j]))) for a in ann]
                p = next(i for i, a in enumerate(cut) if a[n])
                cut = [eliminate(a, cut[p], n)[:n] if a[n] else a[:n] for i, a in enumerate(cut) if i != p]
                flat = members
                for m in rest:
                    if all(sum(map(mul, a, rows[m])) == 0 for a in cut):
                        flat |= 1 << m
                covers.setdefault(flat, ((*basis, j), cut, flat))
                rest = [m for m in rest if not flat >> m & 1]
        level = list(covers.values())
        for basis, _, _ in level:
            combo = tuple(funcs[i] for i in basis)
            out[span_key(combo, n)] = combo
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


def _keyed_kernels(psi: PsiSystem):
    """Admissible kernels of the system, grouped by parabolic pair, unpruned.

    Yields (p, q, ((key, combo, basis), ...)) in `_proper_pairs` order for
    every pair with at least one admissible kernel: combo is one independent
    subset per span class of the system at p, key is that class's span key,
    and basis (nonempty) spans its intersection with the forms vanishing on
    the Levi of q.  Span classes depend only on p, so each p's classes are
    built once per call, by one flat enumeration (`_span_classes`)."""
    n = psi.datum.rank
    classes: dict[frozenset[int], tuple] = {}
    for p, q in _proper_pairs(psi.datum):
        if p.outside not in classes:
            classes[p.outside] = tuple(_span_classes(psi_at(psi, p), n).items())
        candidates = ((key, c, _intersection_with_dual(c, q, n)) for key, c in classes[p.outside])
        kernels = tuple((key, c, basis) for key, c, basis in candidates if basis)
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
    hull of the vectors S h, skipping dominated kernels (`PsiSystem.kernels`).
    A Gram entry is an integer dot of its row with the monomials x_i x_j of
    the integer-scaled x.  A term is its nearest vertex's norm |p_s|^2 when
    <p_s, p_r> >= |p_s|^2 for every r (Wolfe's optimality test), else
    `polyhedra.min_norm_gram` on the whole Gram matrix.  The least term is
    kept as an integer pair (numerator, denominator * denom), compared by
    cross-multiplying; one `Fraction` is built at the end.
    """
    (xi,), den = integer_rows([vec(x)])
    mono = [a * b for i, a in enumerate(xi) for b in xi[i:]]
    best = None
    for gram, denom in psi.kernels[1]:
        norms = [sum(map(mul, row[r], mono)) for r, row in enumerate(gram)]
        term = min(norms)
        s = norms.index(term)
        if any(sum(map(mul, g, mono)) < term for g in gram[s]):  # p_s is not optimal
            term = polyhedra.min_norm_gram([[sum(map(mul, g, mono)) for g in row] for row in gram], s)
        num, div = term.numerator, term.denominator * denom
        if best is None or num * best[1] < best[0] * div:
            best = num, div
    if best is None:
        raise AssertionError("no admissible kernel exists; datum has no proper parabolic")
    return Fraction(best[0], best[1] * den * den)


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


def _meets_signed_root_cone(datum: RootDatum, basis: Sequence[Vec], root_coords: Mat) -> bool:
    """Whether span(basis) contains a nonzero nonnegative root combination.

    The simple roots form a basis, so three sizes k of the basis need no LP.
    k = n: always.  k = 1, basis (mu): iff the coordinates root_coords . mu of
    mu in the simple-root basis (root_coords is the inverse of the transposed
    simple roots) are all >= 0 or all <= 0.  k = n - 1, span = the
    annihilator of nu: iff the values nu.alpha_i include a 0 or both signs
    (Gordan 1873, one row).  Any other k solves one exact feasibility LP.
    """
    n, k = datum.rank, len(basis)
    if k == n:
        return True
    if k == 1:
        coords = mat_vec(root_coords, basis[0])
        return all(c >= 0 for c in coords) or all(c <= 0 for c in coords)
    if k == n - 1:
        (nu,) = nullspace(basis, n)
        values = [dot(nu, a) for a in datum.simple_roots]
        return min(values) <= 0 <= max(values)
    # k free span coefficients, then n roots s >= 0 summing to 1
    a_eq = [[b[i] for b in basis] + [-a[i] for a in datum.simple_roots] for i in range(n)]
    a_eq.append([Fraction(0)] * k + [Fraction(1)] * n)
    return lp.feasible_point(k + n, a_eq=a_eq, b_eq=[Fraction(0)] * n + [Fraction(1)], nonneg=n) is not None


def pi_cones(psi: PsiSystem, epsilon=None) -> ConeFamily:
    """Cells of the induced wall arrangement inside the open dominant cone.

    For every admissible (p, q, span) class the zero set of its distance term
    lies inside each wall {mu = 0}, mu in span ∩ (Levi-q annihilator); when
    that intersection contains a signed nonnegative root combination the zero
    set misses the open dominant cone entirely and no wall is needed.  That
    test (`_meets_signed_root_cone`) is closed-form for a basis of 1, n - 1 or
    n forms, so ranks 2 and 3 solve no wall LP; other sizes solve one LP each.
    Every surviving cell carries an interior witness with d > 0 (validated): the
    point of `lp.interior_point` on the cell's own strict rows (`_cell_rows`:
    the dominant-cone rows, then its signed wall rows, each built once per
    call), one per leaf, since `_cells` yields sign tuples only.  The walls
    are the rows of the bases of every admissible kernel, dominated ones
    included (`PsiSystem.kernels`): RREF rows, already led by 1.  A
    non-positive epsilon raises before any work.
    """
    if epsilon is not None and Fraction(epsilon) <= 0:
        raise ValueError("epsilon must be positive")
    datum = psi.datum
    n = datum.rank
    root_coords = invert(transpose(datum.simple_roots))
    walls = {mu for b in psi.kernels[0] if not _meets_signed_root_cone(datum, b, root_coords) for mu in b}
    hyper = tuple(sorted(walls))
    dominant = HPolyhedron.from_pairs([(a, Fraction(0)) for a in datum.simple_roots], n)
    cell = _cell_rows(dominant, hyper)
    cells = []
    for signs in _cells(dominant, hyper):
        w = lp.interior_point(n, **cell(signs))
        d2 = d_value_squared(w, psi)
        if d2 <= 0:
            raise AssertionError("cone cell witness has d = 0; wall covering is incomplete")
        cells.append(ConeCell(signs, w, d2))
    return ConeFamily(datum, psi, hyper, tuple(cells), Fraction(epsilon) if epsilon is not None else None)


def with_epsilon(family: ConeFamily, epsilon) -> ConeFamily:
    e = Fraction(epsilon)
    if e <= 0:
        raise ValueError("epsilon must be positive")
    return ConeFamily(family.datum, family.psi, family.hyperplanes, family.cones, e)


def _sqrt_lower(x: Fraction) -> Fraction:
    m = 1 << 32  # rounded to a multiple of 2^-32
    return Fraction(isqrt((x.numerator * m * m) // x.denominator), m)


def _sqrt_upper(x: Fraction) -> Fraction:
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    m = 1 << 32  # rounded to a multiple of 2^-32
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
        x = mat_vec(transpose(basis), u)
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
    ub = _sqrt_upper(cos_sq)
    fallback = sin_sq / 4
    if ub >= 1:
        return fallback
    return max((1 - ub) / 2, fallback)


def kappa(datum: RootDatum, functionals: Sequence[Vec]) -> Fraction:
    """Squared thickening constant: |lam(X)| <= b for all lam in a subset S
    forces dist(X, ker S) < kappa * b.  Built by intersecting one kernel at a
    time; each step divides by a rational lower bound on sin^2(theta/2) for
    the angle between the running kernel and the next hyperplane.  The subsets
    are walked as a tree of prefixes, so each prefix's kernel is built once."""
    funcs = _sorted_forms(vec(f) for f in functionals)
    n = datum.rank

    def widen(rows, kernel, c2, start) -> Fraction:  # the largest c2 over rows and their independent extensions
        best = c2
        for j, lam in enumerate(funcs[start:], start + 1):
            u0 = next((v for v in kernel if dot(lam, v) != 0), None)
            if u0 is None:
                continue  # lam is dependent on rows, and so is every combo through both
            grown, dn2 = rows + [lam], datum.form_norm2(lam)
            grown_kernel = nullspace(grown, n)
            step = Fraction(1) / dn2
            if rows:
                u = sub(u0, project_onto_span(grown_kernel, u0, datum.inner))
                step = max(c2, step) / _sin_half_sq_lower(dot(lam, u) ** 2 / (datum.norm2(u) * dn2))
            best = max(best, widen(grown, grown_kernel, step, j))
        return best

    return widen([], identity(n), Fraction(2), 0)


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
    kind: str  # 'delta_p' | 'hat_pq' | 'delta_q' | 'hat_q' | 'weight' | 'cut' | 'face'


def _ineq(lhs, rel, kind, b_coeff=Fraction(0), t_form=None, ts_form=None):
    n = len(lhs)
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


@dataclass(frozen=True)
class ParametricSystem:
    """An inequality system compiled for one subspace basis and threshold functional.

    Row i reads normals[i].y >= (rows[i] . (T, S)) / den: normals are the lhs rows in
    subspace coordinates, rows the int parameter rows (b_coeff*B + t_form + ts_form, ts_form)
    of the right-hand side, both negated for 'le' rows.  A caller that loops over (T, S)
    compiles once per call; nothing is cached across calls."""

    normals: tuple[Vec, ...]
    rows: tuple[tuple[int, ...], ...]
    den: int
    dim: int
    rank: int

    def at(self, t, s) -> HPolyhedron:
        """The H-representation at (T, S): one int product per row."""
        tv, sv = vec(t), vec(s)
        if not len(tv) == len(sv) == self.rank:
            raise ValueError(f"T and S must have length {self.rank}")
        (ts,), d = integer_rows([tv + sv])
        return HPolyhedron(self.normals, tuple(Fraction(-sum(map(mul, r, ts)), self.den * d) for r in self.rows), self.dim)

    def parameter_rows(self, i: int) -> tuple[Vec, Vec]:
        """(row_T, row_S) of the tight equality normals[i].y = row_T.T + row_S.S."""
        row = [Fraction(c, self.den) for c in self.rows[i]]
        return tuple(row[: self.rank]), tuple(row[self.rank :])


def compile_system(ineqs: Sequence[SymbolicIneq], basis: Sequence[Vec], b_form: Vec) -> ParametricSystem:
    """The system of `ineqs` at every (T, S), built once (see ParametricSystem)."""
    rows, den = integer_rows([add(add(scale(iq.b_coeff, b_form), iq.t_form), iq.ts_form) + iq.ts_form for iq in ineqs])
    le = [iq.rel != "ge" for iq in ineqs]
    normals = tuple(neg(r) if f else r for f, r in zip(le, _quotient_rows(basis, [iq.lhs for iq in ineqs])))
    rows = tuple(tuple(-c for c in r) if f else r for f, r in zip(le, rows))
    return ParametricSystem(normals, rows, den, len(basis), len(b_form))


def instantiate(
    ineqs: Sequence[SymbolicIneq], basis: Sequence[Vec], b_form: Vec, t, s
) -> HPolyhedron:
    """H-representation in the coordinates of the given subspace basis."""
    return compile_system(ineqs, basis, b_form).at(t, s)


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


def _cell_rows(h: HPolyhedron, forms: Sequence[Vec], level=Fraction(0)):
    """signs -> the strict rows of the cell `signs` of `_cells`: h's, then
    s_i (f_i.y - level) > 0 as -s_i f_i.y < -s_i level.  Each form's two signed
    rows and their level terms are built once, here, and every cell reads them."""
    rows, rhs = h.ub_rows()
    signed = [{s: (neg(scale(s, f)), -s * level) for s in (1, -1)} for f in forms]

    def cell(signs: Sequence[int]) -> dict:
        picked = [signed[i][s] for i, s in enumerate(signs)]
        return dict(a_strict=rows + [a for a, _ in picked], b_strict=rhs + [b for _, b in picked])

    return cell


def _cells(h: HPolyhedron, forms: Sequence[Vec], level=Fraction(0)):
    """Open cells of the arrangement {f.y = level : f in forms} inside h.

    Depth-first over the forms, +1 before -1 (Sleumer 1999).  Yields the
    sign tuple s of every cell {y strictly inside h : s_i (f_i.y - level) > 0}
    that is nonempty, in lexicographic order with +1 first.  Each child is
    decided by `lp.strictly_feasible` on its own rows, and an empty one prunes
    its subtree; the root only when there are no forms.  The dual gives no
    point: a caller that needs a leaf's witness solves `lp.interior_point` on
    its `_cell_rows`.
    """
    cell = _cell_rows(h, forms, level)

    def rec(signs):
        if len(signs) == len(forms):
            yield signs
            return
        for s in (1, -1):
            if lp.strictly_feasible(h.dim, **cell(signs + (s,))):
                yield from rec(signs + (s,))

    if forms or lp.strictly_feasible(h.dim, **cell(())):
        yield from rec(())


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
    cert = []  # (signed form, delta multiplier)
    for lam in desc.pi:
        lvl = desc.level_of(lam)
        if lvl is not None:
            cert.append((scale(desc.sgn(lam), lam), desc.deltas[lvl]))
    for f in delta_p_at(ctx.psi, desc.p):
        cert.append((f, Fraction(0)))
    cert.sort()
    pi0 = desc.pi_zero
    basis_idx = independent_subset(pi0)
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
    x = lp.lexmin_point(identity(nv)[nb:], nv, a_eq=a_eq, b_eq=b_eq, nonneg=len(cert))
    if x is None:
        raise CertificateError(
            "no exact certificate for the next threshold level; "
            "the inputs likely fail the largeness requirement" + _where(desc, t, s)
        )
    # the equality rows make x[:nb] the coordinates of the functional in pi0_basis
    dmax = max(abs(c) for c in x[:nb])
    if dmax == 0:
        raise CertificateError("certificate functional is zero" + _where(desc, t, s))
    delta = Fraction(1, len(desc.pi))
    return delta / dmax


def decompose(ctx: DecompositionContext, t, s, jobs: int = 1) -> tuple[RegionDescriptor, ...]:
    """Split the nested-hull region into threshold polytopes (the index set).

    One recursion, `split`, makes every level.  It cuts a piece along
    {sgn(lam) lam.y = delta B(T)} for each weight lam the piece has not yet
    consumed, and a cell's weights above the threshold become its child's
    next level.  A child whose region meets the kernel of its unconsumed
    weights is a leaf; any other child certifies a threshold delta' in
    (0, delta] and is split again.  The roots are the sign cells of the weights in the base
    region, split at delta = 1.  The interiors of the leaves partition the
    region.  Inputs must be well-situated.  The run is serial and the result
    order is canonical; `jobs` is accepted and ignored.
    """
    report = well_situated_report(ctx, t, s)
    if not report.ok:
        raise ValueError("inputs are not well-situated: " + "; ".join(report.failures))
    tv, sv = vec(t), vec(s)
    b_value = dot(ctx.b_form, tv)
    if b_value <= 0:
        raise AssertionError("threshold functional is nonpositive at T")
    basis, pi = ctx.basis, ctx.pi
    base_h = instantiate(base_inequalities(ctx.psi, ctx.p, ctx.q), basis, ctx.b_form, tv, sv)
    pi_y = _quotient_rows(basis, pi)
    form_y = dict(zip(pi, pi_y))  # each weight's row in subspace coordinates
    out: list[RegionDescriptor] = []

    def split(desc: RegionDescriptor, region_h: HPolyhedron, delta: Fraction):
        pi0 = desc.pi_zero
        signed = [scale(desc.sgn(lam), form_y[lam]) for lam in pi0]
        children = 0
        for cell in _cells(region_h, signed, delta * b_value):
            lam_next = tuple(f for f, sg in zip(pi0, cell) if sg == 1)
            if desc.lambdas and not lam_next:
                raise CertificateError(
                    "threshold level with empty split cell; certificate bound failed" + _where(desc, tv, sv)
                )
            children += 1
            child = RegionDescriptor(
                desc.p, desc.q, desc.pi, desc.pi_plus, desc.lambdas + (lam_next,), desc.deltas + (delta,)
            )
            child_h = instantiate(region_inequalities(ctx.psi, child), basis, ctx.b_form, tv, sv)
            if _kernel_meets(child_h, [form_y[f] for f in child.pi_zero]):
                out.append(child)
                continue
            delta_next = _certificate(ctx, child, tv, sv)
            if not 0 < delta_next <= delta:
                raise CertificateError(f"next threshold {delta_next} escapes (0, {delta}]" + _where(child, tv, sv))
            split(child, child_h, delta_next)
        if children == 0:
            raise CertificateError("region produced no children despite nonempty interior" + _where(desc, tv, sv))

    for signs in _cells(base_h, pi_y):
        pi_plus = tuple(f for f, sg in zip(pi, signs) if sg == 1)
        sign_cell = base_h.with_constraints([(scale(sg, ly), Fraction(0)) for sg, ly in zip(signs, pi_y)])
        split(RegionDescriptor(ctx.p, ctx.q, pi, pi_plus, (), ()), sign_cell, Fraction(1))
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


def region_vertices_affine(
    ctx: DecompositionContext,
    desc: RegionDescriptor,
    t,
    s,
    check: Sequence[tuple] = (),
) -> tuple[VertexEntry, ...]:
    """Vertices of the instantiated region together with their affine laws.

    Each vertex is resolved from the lexicographically first independent subset
    of its tight inequalities, read from `polyhedra.vertices` (`incidences`);
    the optional check samples re-verify the full tight sets, region membership,
    and vertex-set bijection at other parameter values, raising TransportError
    on any drift.  The region's system is compiled once for all of them."""
    tv, sv = vec(t), vec(s)
    system = compile_system(region_inequalities(ctx.psi, desc), ctx.basis, ctx.b_form)
    entries = _vertex_atlas(system, system.at(tv, sv), tv, sv)
    for t2, s2 in check:
        t2, s2 = vec(t2), vec(s2)
        _check_transport(system, entries, t2, s2, _where(desc, tv, sv, T2=t2, S2=s2))
    return entries


def _vertex_atlas(system: ParametricSystem, h: HPolyhedron, tv: Vec, sv: Vec) -> tuple[VertexEntry, ...]:
    """The sorted atlas entries of h = system.at(tv, sv), tight rows from `polyhedra.vertices(h)`."""
    entries = []
    vp = polyhedra.vertices(h)
    for v, tight in zip(vp.vertices, vp.incidences):
        order = sorted(tight)
        chosen_local = independent_subset([h.normals[i] for i in order])
        solve_rows = tuple(order[i] for i in chosen_local)
        if len(solve_rows) != h.dim:
            raise AssertionError("tight rows of a vertex do not span")
        m_inv = invert([h.normals[i] for i in solve_rows])
        rt, rs = zip(*map(system.parameter_rows, solve_rows))
        entry = VertexEntry(v, tight, solve_rows, mat_mul(m_inv, rt), mat_mul(m_inv, rs))
        if entry.at(tv, sv) != v:
            raise AssertionError("affine law fails to reproduce its own vertex")
        entries.append(entry)
    entries.sort(key=lambda e: e.point)
    return tuple(entries)


def _check_transport(system: ParametricSystem, entries, t2: Vec, s2: Vec, where: str) -> None:
    h2 = system.at(t2, s2)
    predicted = []
    for e in entries:
        y2 = e.at(t2, s2)
        for i in e.tight:
            if dot(h2.normals[i], y2) + h2.offsets[i] != 0:
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
    problematic hyperplane.  None of the data depends on the parameters."""

    region: RegionDescriptor
    pi_one: tuple[Vec, ...]
    basis_b: tuple[Vec, ...]
    delta_prime: Fraction
    problematic: tuple[Vec, ...]
    signs: tuple[int, ...]
    pyramid_facets: tuple[Vec, ...]


def _lambda_b(region: RegionDescriptor, basis_b: Sequence[Vec]) -> Vec:
    """The cut functional: the sum of the basis_b weights, each signed as in the region."""
    return mat_vec(transpose(basis_b), [region.sgn(b) for b in basis_b])


def refinement_inequalities(
    ctx: DecompositionContext, ref: RefinementDescriptor
) -> tuple[SymbolicIneq, ...]:
    rows = list(region_inequalities(ctx.psi, ref.region))
    rows.append(_ineq(_lambda_b(ref.region, ref.basis_b), "le", "cut", b_coeff=ref.delta_prime))
    to_ambient = transpose(ref.basis_b)
    for s, nrm in zip(ref.signs, ref.problematic):
        rows.append(_ineq(scale(s, mat_vec(to_ambient, nrm)), "ge", "face"))
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
    descriptor per sign cell with nonempty interior, in canonical order.

    Beyond two vertex enumerations and the cell search this solves no LP.  A
    face of a polytope is the hull of its vertices, and a linear form attains
    its extremes over a face at those vertices (Ziegler 1995, 2.1).  The
    region holds sgn(lam) lam.y >= 0 for each unconsumed lam, so the kernel
    slice is a face, read from the atlas: nonempty iff some vertex has every
    pi_one row 0, and a weight vanishes on it iff its row is 0 at each such
    vertex.  The projected cut region is a pyramid with apex 0, and its facets
    through 0 are the problematic hyperplanes with every projected point on
    one side: a facet's preimage is a face of the cut region with that image,
    and such a hyperplane supports the pyramid on an (m - 1)-dimensional
    image."""
    tv, sv = vec(t), vec(s)
    p1 = _sorted_forms(vec(f) for f in pi_one)
    pi0 = desc.pi_zero
    if not p1 or not set(p1) <= set(pi0):
        raise ValueError("the refinement subset must be a nonempty subset of the unconsumed weights")
    basis = ctx.basis
    system = compile_system(region_inequalities(ctx.psi, desc), basis, ctx.b_form)
    h = system.at(tv, sv)
    atlas = _vertex_atlas(system, h, tv, sv)
    p1_rows = _quotient_rows(basis, p1)
    on_slice = [e.point for e in atlas if all(dot(r, e.point) == 0 for r in p1_rows)]
    if not on_slice:
        raise AssertionError("kernel slice is empty; the region is not a recursion leaf")
    for lam, row in zip(pi0, _quotient_rows(basis, pi0)):
        if lam not in p1 and all(dot(row, v) == 0 for v in on_slice):
            raise ClosureError(
                f"weight {_text(lam)} vanishes on the kernel slice but is outside the subset"
                + _where(desc, tv, sv)
            )
    idx = independent_subset(p1_rows)
    basis_b = tuple(p1[i] for i in idx)
    m = len(basis_b)
    b_rows = _quotient_rows(basis, basis_b)
    sgn_vec = tuple(Fraction(desc.sgn(b)) for b in basis_b)
    (lam_b_row,) = _quotient_rows(basis, [_lambda_b(desc, basis_b)])

    b_value = dot(ctx.b_form, tv)
    c_values = set()
    for e in atlas:
        c_y = dot(lam_b_row, e.point) / b_value
        if c_y < 0:
            raise AssertionError("quotient height is negative at a vertex")
        comp_t = mat_vec(transpose(e.t_matrix), lam_b_row)
        comp_s = mat_vec(transpose(e.s_matrix), lam_b_row)
        if comp_t != scale(c_y, ctx.b_form) or not is_zero(comp_s):
            raise TransportError(
                "vertex height is not a fixed multiple of the threshold functional" + _where(desc, tv, sv)
            )
        c_values.add(c_y)
    positive = [c for c in c_values if c > 0]
    if not positive:
        raise ValueError("every vertex lies on the kernel; nothing to cut")
    delta_prime = min(positive) / 2

    # the cut row of refinement_inequalities, lam_b.y <= delta' B(T), at (T, S)
    cut_height = delta_prime * b_value
    cut_vp = polyhedra.vertices(h.with_constraints([(neg(lam_b_row), cut_height)]))

    proj_pts = tuple(sorted({mat_vec(b_rows, v) for v in cut_vp.vertices}))
    origin = zeros(m)
    if any(p != origin and dot(sgn_vec, p) != cut_height for p in proj_pts):
        raise AssertionError("projected cut region is not a pyramid over the cut facet")
    if origin not in proj_pts:
        raise AssertionError("kernel image is not a vertex of the projected cut region")

    # a face is problematic when its image spans a hyperplane through the origin
    normals = set()
    for verts in polyhedra.faces(cut_vp):
        pts = tuple(sorted({mat_vec(b_rows, v) for v in verts}))
        diffs = [sub(p, pts[0]) for p in pts[1:]]
        if rank(diffs, m) == m - 1 == rank(pts, m):
            normals.add(span_key(nullspace(pts, m), m)[0])
    problematic = tuple(sorted(normals))

    # the pyramid's facets through its apex, each normal turned towards the points
    facets = []
    for nrm in problematic:
        side = {dot(nrm, p) > 0 for p in proj_pts if dot(nrm, p) != 0}
        if len(side) == 1:
            facets.append(nrm if True in side else neg(nrm))
    facets = tuple(sorted(facets))
    hull_h = HPolyhedron.from_pairs([(a, 0) for a in facets] + [(neg(sgn_vec), cut_height)], m)

    result = tuple(
        RefinementDescriptor(desc, p1, basis_b, delta_prime, problematic, signs, facets)
        for signs in _cells(hull_h, problematic)
    )
    for t2, s2 in check:
        if refine(ctx, desc, pi_one, t2, s2) != result:
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


def slice_polytope(
    ctx: DecompositionContext, ref: RefinementDescriptor, x, t, s
) -> SliceData:
    return _slice_at(ctx, _slice_frame(ctx, ref), x, t, s)


def _slice_frame(ctx: DecompositionContext, ref: RefinementDescriptor) -> tuple:
    """The parameter-free part of a slice: the compiled refinement system, the
    kernel of the chosen weights, and the system's normals on that kernel."""
    basis = ctx.basis
    system = compile_system(refinement_inequalities(ctx, ref), basis, ctx.b_form)
    kernel = nullspace(_quotient_rows(basis, ref.pi_one), len(basis))
    return system, kernel, tuple(tuple(dot(a, k) for k in kernel) for a in system.normals)


def _slice_at(ctx: DecompositionContext, frame: tuple, x, t, s) -> SliceData:
    system, kernel, normals_u = frame
    y = coords_in_basis(ctx.basis, vec(x))
    if y is None:
        raise ValueError("the base point does not lie in the subspace of the pair")
    h = system.at(t, s)
    offsets = tuple(dot(a, y) + c for a, c in zip(h.normals, h.offsets))
    if any(c < 0 for c in offsets):
        raise ValueError("the base point lies outside the refined region")
    if not kernel:
        raise ValueError("the chosen weights leave a zero-dimensional slice")
    h_u = HPolyhedron(normals_u, offsets, len(kernel))
    return SliceData(polyhedra.vertices(h_u), h_u, kernel)


def slice_exp_integral(
    ctx: DecompositionContext, ref: RefinementDescriptor, x, t, s, mu
) -> float:
    sd = slice_polytope(ctx, ref, x, t, s)
    mu_u = _slice_exponent(ctx, sd, vec(mu))
    return polyhedra.integrate_exp_oracle(sd.polytope, mu_u)


def _slice_exponent(ctx: DecompositionContext, sd: SliceData, mu: Vec) -> Vec:
    (mu_y,) = _quotient_rows(ctx.basis, [mu])
    return mat_vec(sd.kernel_basis, mu_y)


FIT_STEP = Fraction(1, 16)


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
) -> FitReport:
    """Sample the slice integral on a parameter box and fit its closed form.

    The box is (X, T, S) = (x0, t0, s0) + (a dx, b dt, c ds) over a cubic
    grid: a, b and c run over the first `grid` multiples of FIT_STEP.  Slice
    vertices are clustered by the tight sets that `polyhedra.vertices` records
    (the labels must not change across the box), each cluster is verified to
    move affinely in (a, b, c), and the integral values are fitted against the
    exponentials of the cluster heights.  Returns the model with its maximum
    residual."""
    mu_v = vec(mu)
    params = [i * FIT_STEP for i in range(grid)]
    x0v, dxv = vec(x0), vec(dx)
    t0v, dtv = vec(t0), vec(dt)
    s0v, dsv = vec(s0), vec(ds)
    labels: dict[frozenset, dict[tuple, Vec]] = {}
    values: dict[tuple, float] = {}  # in sorted order: product() runs over the sorted params
    mu_u = None
    frame = _slice_frame(ctx, ref)
    for abc in product(params, repeat=3):
        a, b, c = abc
        xx, tt, ss = add(x0v, scale(a, dxv)), add(t0v, scale(b, dtv)), add(s0v, scale(c, dsv))
        sd = _slice_at(ctx, frame, xx, tt, ss)
        if mu_u is None:
            mu_u = _slice_exponent(ctx, sd, mu_v)
        here = dict(zip(sd.polytope.incidences, sd.polytope.vertices))
        if len(here) != len(sd.polytope.vertices):
            raise TransportError("two slice vertices share a tight set" + _where(ref.region, tt, ss))
        if labels and set(here) != set(labels):
            raise TransportError("slice tight-set labels vary across the sample box" + _where(ref.region, tt, ss))
        for key, v in here.items():
            labels.setdefault(key, {})[abc] = v
        values[abc] = polyhedra.integrate_exp_oracle(sd.polytope, mu_u)
    exponents = set()
    for table in labels.values():
        u000 = table[zeros(3)]
        grads = [scale(1 / FIT_STEP, sub(table[scale(FIT_STEP, unit(3, i))], u000)) for i in range(3)]
        for abc, v in table.items():
            pred = u000
            for k, g in zip(abc, grads):
                pred = add(pred, scale(k, g))
            if pred != v:
                where = _where(ref.region, t0v, s0v, dT=dtv, dS=dsv)
                raise TransportError("slice vertex motion is not affine in the box" + where)
        exponents.add(tuple(dot(mu_u, g) for g in grads))
    exp_list = tuple(sorted(exponents))
    samples = [(tuple(map(float, abc)), val) for abc, val in values.items()]
    model, residual = fit_tfinite(samples, exp_list, max_degree=len(mu_u))
    return FitReport(model, residual, exp_list, len(labels))


# ---------------------------------------------------------------------------
# consistency checks and serialization


def lemma33_equivalence(ctx: DecompositionContext, t, s) -> tuple[str, ...]:
    """Cross-check the thickened systems against kernel-hull membership.

    For every span class of the functional system at the pair, bounding all
    its members by the threshold inside the region must be feasible exactly
    when the class kernel meets the hull of the T-projections, that is when
    the origin lies in the hull of the points (lambda(v))_{lambda in class}
    over its vertices v.  Returns the descriptions of any classes where the
    two sides disagree."""
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
        bary = polyhedra.in_hull([tuple(dot(lam, v) for lam in combo) for v in hull], zeros(len(combo)))
        if thick != bary:
            violations.append(
                f"span class {combo}: thickened={thick} kernel-hull={bary}"
            )
    return tuple(violations)


def region_to_json(psi: PsiSystem, desc: RegionDescriptor) -> dict:
    index = {f: i for i, f in enumerate(desc.pi)}
    return exact_json({
        "p": sorted(desc.p.outside),
        "q": sorted(desc.q.outside),
        "pi": desc.pi,
        "pi_plus": [index[f] for f in desc.pi_plus],
        "lambdas": [[index[f] for f in level] for level in desc.lambdas],
        "deltas": desc.deltas,
        "ineqs": [asdict(iq) for iq in region_inequalities(psi, desc)],
    })


def decomposition_to_json(ctx: DecompositionContext, descs: Sequence[RegionDescriptor]) -> dict:
    return exact_json({
        "p": sorted(ctx.p.outside),
        "q": sorted(ctx.q.outside),
        "epsilon": ctx.epsilon,
        "kappa_sq": ctx.kappa_sq,
        "b_functional": ctx.b_form,
        "largeness_sq": ctx.largeness_sq,
        "regions": [region_to_json(ctx.psi, d) for d in descs],
    })


def refinement_to_json(ctx: DecompositionContext, ref: RefinementDescriptor) -> dict:
    index = {f: i for i, f in enumerate(ref.region.pi)}
    return exact_json({
        "region": region_to_json(ctx.psi, ref.region),
        "pi_one": [index[f] for f in ref.pi_one],
        "basis": [index[f] for f in ref.basis_b],
        "delta_prime": ref.delta_prime,
        "problematic": ref.problematic,
        "signs": ref.signs,
        "pyramid_facets": ref.pyramid_facets,
        "ineqs": [asdict(iq) for iq in refinement_inequalities(ctx, ref)],
    })
