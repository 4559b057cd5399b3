"""Parametric polytopes P(x) = {v : mu_i(v) + x_i >= 0} and chamber calculus.

For each subset sigma whose complementary normals form a basis of V*, the
vertex map s_sigma(x) solves mu_i(v) + x_i = 0 over the complement.  Offsets x
for which s_sigma(x) lands inside P(x) form the closed cone C(sigma); maximal
common refinements of these cones are the chambers.  On a chamber, the
exponential integral over P(x) is the finite vertex sum (per-sigma closed
form), and its degenerate-direction limit is computed symbolically as an exact
polynomial-times-exponential function of the offset parameters.  Vertex maps
and parameter forms are computed from the dual basis on the complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, product
from math import prod
from typing import Mapping, Sequence

from . import polyhedra
from .linalg import (
    Mat,
    Vec,
    det,
    dot,
    identity,
    invert,
    is_zero,
    rank,
    transpose,
    vec,
    zeros,
)
from .polyhedra import HPolyhedron
from .tfinite import Polynomial, TFiniteFunction


class PoleCancellationError(AssertionError):
    """Internal-error report: negative powers survived the limit regrouping."""


@dataclass(frozen=True)
class ParametricPolyhedron:
    """Normals plus an affine offset map theta -> x(theta) in R^N.

    The default map is the identity (parameters are the offsets themselves).
    Construction verifies that some parameter value yields a nonempty,
    line-free polyhedron.
    """

    normals: tuple[Vec, ...]  # mu_i as form vectors on V = Q^d
    dim: int  # dim V
    offset_matrix: Mat  # N x m
    offset_const: Vec  # length N

    @staticmethod
    def make(normals: Sequence[Sequence], dim: int, offset_matrix=None, offset_const=None):
        mus = tuple(vec(m) for m in normals)
        n = len(mus)
        om = tuple(vec(r) for r in offset_matrix) if offset_matrix is not None else identity(n)
        oc = vec(offset_const) if offset_const is not None else zeros(n)
        pp = ParametricPolyhedron(mus, dim, om, oc)
        if rank(mus, dim) < dim:
            raise ValueError("normals do not span the dual space (line in every P(x))")
        if not pp._somewhere_nonempty():
            raise ValueError("polyhedron empty for every parameter value")
        return pp

    @property
    def n_constraints(self) -> int:
        return len(self.normals)

    @property
    def n_params(self) -> int:
        return len(self.offset_matrix[0]) if self.offset_matrix else 0

    def offsets(self, theta: Sequence) -> Vec:
        th = vec(theta)
        return tuple(dot(row, th) + c for row, c in zip(self.offset_matrix, self.offset_const))

    def instance(self, x: Sequence) -> HPolyhedron:
        return HPolyhedron(self.normals, vec(x), self.dim)

    def _somewhere_nonempty(self) -> bool:
        from . import lp

        # joint feasibility over (v, theta): mu_i(v) + x_i(theta) >= 0
        m = self.n_params
        rows = []
        for mu, orow in zip(self.normals, self.offset_matrix):
            rows.append([-c for c in mu] + [-c for c in orow])
        rhs = list(self.offset_const)
        return lp.feasible_point(self.dim + m, a_ub=rows, b_ub=rhs) is not None


@dataclass(frozen=True)
class SigmaData:
    """A sigma whose complementary normals form a basis.  Vertex maps and
    parameter forms are computed from the dual basis on the complement."""

    complement: tuple[int, ...]
    dual_basis: tuple[Vec, ...]  # u_{i,sigma} for i in complement order
    box_volume: Fraction


@dataclass(frozen=True)
class ChamberData:
    pp: ParametricPolyhedron
    sigmas: Mapping[frozenset[int], SigmaData]

    @cached_property
    def bounded(self) -> bool:
        """is_bounded(pp), decided once for these data."""
        return is_bounded(self.pp)


def enumerate_bases(pp: ParametricPolyhedron) -> ChamberData:
    """All sigma whose complementary normal set is a basis, with dual data."""
    n, d = pp.n_constraints, pp.dim
    out = {}
    for comp in combinations(range(n), d):
        rows = [pp.normals[i] for i in comp]
        det_rows = det(rows)
        if det_rows == 0:
            continue
        dual = transpose(invert(rows))  # the inverse's columns are the dual basis
        sigma = frozenset(range(n)) - frozenset(comp)
        out[sigma] = SigmaData(comp, dual, abs(Fraction(1) / det_rows))
    return ChamberData(pp, out)


def vertex_map(data: SigmaData, x: Sequence) -> Vec:
    """s_sigma(x) = -sum_k x_{complement[k]} u_k."""
    xs = [x[c] for c in data.complement]
    return tuple(-dot(xs, col) for col in zip(*data.dual_basis))


@dataclass(frozen=True)
class ChamberAssignment:
    members: frozenset[frozenset[int]]
    maximal: bool


def chamber_of(cd: ChamberData, x: Sequence) -> ChamberAssignment:
    """Member set Sigma_x = {sigma : s_sigma(x) in P(x)}, with a maximality flag.

    The flag is set when every sigma is decided strictly (no vertex candidate
    sits exactly on a non-defining constraint), i.e. x is off every wall, so no
    perturbation of x can strictly enlarge the member set.  The normals span,
    so a nonempty P(x) has a vertex s_sigma(x): it is empty iff Sigma_x is.
    """
    xv = vec(x)
    pp = cd.pp
    if len(xv) != pp.n_constraints:
        raise ValueError(f"x has length {len(xv)}, expected one entry per constraint ({pp.n_constraints})")
    members = set()
    decided = True
    for sigma, data in cd.sigmas.items():
        v = vertex_map(data, xv)
        slacks = [dot(pp.normals[j], v) + xv[j] for j in sorted(sigma)]
        if any(s < 0 for s in slacks):
            continue
        members.add(sigma)
        if not all(s > 0 for s in slacks):
            decided = False  # vertex candidate sits exactly on a wall
    if not members:
        raise ValueError("outside C: P(x) is empty")
    return ChamberAssignment(frozenset(members), decided)


def is_bounded(pp: ParametricPolyhedron) -> bool:
    """P(x) bounded wherever nonempty, i.e. the normals positively span (one Stiemke LP)."""
    return polyhedra.recession_cone_is_zero(pp.normals, pp.dim)


@dataclass(frozen=True)
class ExpSum:
    """Exact finite sum of coeff * e^{exponent} with rational data."""

    terms: tuple[tuple[Fraction, Fraction], ...]  # (coefficient, exponent)

    def eval(self) -> float:
        import mpmath

        with mpmath.workdps(50):
            total = mpmath.fsum(
                mpmath.mpf(c.numerator) / c.denominator * mpmath.exp(mpmath.mpf(e.numerator) / e.denominator)
                for c, e in self.terms
            )
            return float(total)


def bv_integral(cd: ChamberData, chamber: frozenset[frozenset[int]], x: Sequence, mu: Sequence) -> ExpSum:
    """Vertex-sum formula for ∫_{P(x)} e^{-mu(v)} dv on the given chamber.

    Requires mu generic on the chamber: mu(u_{i,sigma}) != 0 for every member
    sigma and dual vector.  The result is an exact coefficient/exponent sum.
    """
    xv = vec(x)
    if len(xv) != cd.pp.n_constraints:
        raise ValueError(f"x has length {len(xv)}, expected one entry per constraint ({cd.pp.n_constraints})")
    muv = vec(mu)
    terms: dict[Fraction, Fraction] = {}
    for sigma in chamber:
        data = cd.sigmas[sigma]
        denom = Fraction(1)
        for u in data.dual_basis:
            val = dot(muv, u)
            if val == 0:
                raise ValueError(
                    "mu is not generic for this chamber (mu vanishes on a dual vector); "
                    "use bv_limit_tfinite"
                )
            denom *= val
        exponent = -dot(muv, vertex_map(data, xv))
        coeff = data.box_volume / denom
        terms[exponent] = terms.get(exponent, Fraction(0)) + coeff
    clean = tuple(sorted((c, e) for e, c in terms.items() if c != 0))
    return ExpSum(clean)


def _mu0_candidates(d: int):
    """Deterministic lexicographic sequence of integer covectors."""
    k = 1
    while True:
        for cand in product(range(-k, k + 1), repeat=d):
            if any(cand) and max(abs(c) for c in cand) == k:
                yield vec(cand)
        k += 1


def choose_mu0(cd: ChamberData, chamber, mu: Sequence) -> Vec:
    """First covector in the fixed sequence with mu0(u) != 0 wherever mu(u) = 0."""
    muv = vec(mu)
    degenerate = []
    for sigma in chamber:
        for u in cd.sigmas[sigma].dual_basis:
            if dot(muv, u) == 0:
                degenerate.append(u)
    for cand in _mu0_candidates(cd.pp.dim):
        if all(dot(cand, u) != 0 for u in degenerate):
            return cand
    raise AssertionError("unreachable: candidate sequence is infinite")


def bv_limit_tfinite(cd: ChamberData, chamber, mu: Sequence) -> TFiniteFunction:
    """Exact limit of the vertex-sum formula for possibly non-generic mu.

    Returns the integral ∫_{P(x(theta))} e^{-mu(v)} dv as a t-finite function
    of the offset parameters theta, valid on the chamber.  The perturbation
    mu + t*mu0 is expanded symbolically: per-sigma Laurent factors are grouped
    by the exact exponent form, negative powers of t must cancel within each
    group (checked; failure raises PoleCancellationError), and the t^0
    coefficient is assembled.  Requires a linear offset map (no constant part).
    """
    pp = cd.pp
    if not cd.bounded:
        raise ValueError("polyhedron is unbounded on its chambers; limit formula needs boundedness")
    if not is_zero(pp.offset_const):
        raise ValueError("symbolic limit requires a linear offset map (zero constant part)")
    muv = vec(mu)
    mu0 = choose_mu0(cd, chamber, muv)
    m = pp.n_params
    d = pp.dim

    # with x(theta) = OM theta, s_sigma = -sum_k x_{c_k} u_k makes the exponent -mu(s_sigma)
    # = sum_k mu(u_k) OM[c_k] and mu0(s_sigma) = -sum_k mu0(u_k) OM[c_k] covectors on theta
    groups: dict[Vec, list] = {}
    for sigma in chamber:
        data = cd.sigmas[sigma]
        vals = [dot(muv, u) for u in data.dual_basis]
        ws = [dot(mu0, u) for u in data.dual_basis]
        cols = tuple(zip(*(pp.offset_matrix[c] for c in data.complement)))
        a_form = tuple(dot(vals, col) for col in cols)
        b_form = tuple(-dot(ws, col) for col in cols)
        groups.setdefault(a_form, []).append((data.box_volume, vals, ws, b_form))

    terms: dict[Vec, Polynomial] = {}
    for a_form, members in groups.items():
        by_power: dict[int, dict] = {}  # t-power -> monomial -> coefficient
        for vol, vals, ws, b_form in members:
            msig = vals.count(0)
            # sum_j g_j t^j = vol / prod(v, or w where v = 0) * prod_{v != 0} 1/(1 + t w/v), to t^msig
            g = [vol / prod(w if v == 0 else v for v, w in zip(vals, ws))] + [Fraction(0)] * msig
            for c in (-w / v for v, w in zip(vals, ws) if v != 0):
                for j in range(1, msig + 1):
                    g[j] += c * g[j - 1]
            e_series = _exp_series(b_form, msig)
            # collect t^{j + r - msig} for j + r <= msig
            for j, gj in enumerate(g):
                for r in range(msig + 1 - j):
                    acc = by_power.setdefault(j + r - msig, {})
                    for mono, c in e_series[r].items():
                        acc[mono] = acc.get(mono, 0) + gj * c
        for power in sorted(by_power):
            if power < 0 and any(by_power[power].values()):
                raise PoleCancellationError(
                    f"negative power t^{power} failed to cancel in exponent group {a_form}"
                )
        p0 = Polynomial.make(m, by_power.get(0, {}))
        if not p0.is_zero():
            terms[a_form] = p0

    f = TFiniteFunction.make(m, terms)
    for lam, p in f.terms.items():
        bound = d if is_zero(lam) else d - 1
        if p.degree() > bound:
            raise AssertionError(f"degree bound violated: {p.degree()} > {bound} for exponent {lam}")
    return f


def _exp_series(form: Vec, order: int) -> list[dict]:
    """(-B)^r / r! for r = 0..order, B = form . theta, as monomial -> coefficient:
    the multinomial sum over B's support of prod_i (-b_i)^{a_i} / a_i!.  A degree-r
    monomial grows from a degree r - 1 one at that one's last variable or a later
    one: its coefficient is an entry of that variable's table (-b_i)^e / e! times
    the coefficient grown from, less its last variable's factor if it grew there."""
    tables = [(i, list(accumulate(range(1, order + 1), lambda t, e: t * -c / e, initial=1))) for i, c in enumerate(form) if c]
    zero = (0,) * len(form)
    series, level = [{zero: 1}], [(zero, 0, 1, 1)]  # (monomial, its last table, coefficient less that factor, coefficient)
    for _ in range(order):
        level = [(mono[:i] + (mono[i] + 1,) + mono[i + 1 :], k, base, base * table[mono[i] + 1])
                 for mono, last, rest, coeff in level
                 for k, (i, table) in enumerate(tables[last:], last)
                 for base in [rest if k == last else coeff]]
        series.append({mono: coeff for mono, _, _, coeff in level})
    return series
