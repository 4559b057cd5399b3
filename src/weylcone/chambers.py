"""Parametric polytopes P(x) = {v : mu_i(v) + x_i >= 0} and chamber calculus.

For each subset sigma whose complementary normals form a basis of V*, the
vertex map s_sigma(x) solves mu_i(v) + x_i = 0 over the complement.  Offsets x
for which s_sigma(x) lands inside P(x) form the closed cone C(sigma); maximal
common refinements of these cones are the chambers.  On a chamber, the
exponential integral over P(x) is the finite vertex sum (per-sigma closed
form), and its degenerate-direction limit is computed symbolically as an exact
polynomial-times-exponential function of the offset parameters.

Each basis keeps its dual vectors as int numerators over one positive
denominator, from one fraction-free elimination (`linalg.integer_inverse`;
Bareiss 1968).  Offsets, frequencies and offset maps are scaled to ints once
per call, so vertex maps, slack signs, parameter forms and the limit's series
run on int dots, and a `Fraction` is built only where a value is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, count, product
from math import factorial, gcd, lcm, prod
from operator import mul
from typing import Mapping, Sequence

from . import polyhedra
from .linalg import (
    Mat,
    Vec,
    dot,
    identity,
    integer_det,
    integer_inverse,
    integer_rows,
    is_zero,
    rank,
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
    """A sigma whose complementary normals form a basis, with the dual basis
    u_k = dual_nums[k] / dual_den (k in complement order) as int numerators over
    one denominator dual_den > 0, the least: gcd(dual_den, *numerators) == 1.
    Vertex maps and parameter forms are computed on the numerators."""

    complement: tuple[int, ...]
    dual_nums: tuple[tuple[int, ...], ...]
    dual_den: int

    @cached_property
    def dual_basis(self) -> tuple[Vec, ...]:
        """u_{i,sigma} for i in complement order, as Fractions."""
        return tuple(tuple(Fraction(x, self.dual_den) for x in u) for u in self.dual_nums)

    @cached_property
    def box_volume(self) -> Fraction:
        """|det| of the dual basis: 1 / |det| of the complement's normals."""
        return Fraction(abs(integer_det(self.dual_nums)), self.dual_den ** len(self.dual_nums))

    def __repr__(self) -> str:  # the exact values, not their int form
        return f"SigmaData(complement={self.complement}, dual_basis={self.dual_basis}, box_volume={self.box_volume!r})"


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
        inv = integer_inverse([pp.normals[i] for i in comp])
        if inv is not None:  # the inverse's columns are the dual basis
            out[frozenset(range(n)) - frozenset(comp)] = SigmaData(comp, tuple(zip(*inv[0])), inv[1])
    return ChamberData(pp, out)


def _scaled(v: Sequence, n: int, name: str, per: str) -> tuple[tuple[int, ...], int]:
    """(nums, den) with v = nums / den, den the least, once v is checked to have n entries."""
    v = vec(v)
    if len(v) != n:
        raise ValueError(f"{name} has length {len(v)}, expected one entry per {per} ({n})")
    (nums,), den = integer_rows([v])
    return nums, den


def vertex_map(data: SigmaData, x: Sequence) -> Vec:
    """s_sigma(x) = -sum_k x_{complement[k]} u_k."""
    (xs,), x_den = integer_rows([[x[c] for c in data.complement]])
    den = x_den * data.dual_den
    return tuple(Fraction(-sum(map(mul, xs, col)), den) for col in zip(*data.dual_nums))


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
    pp = cd.pp
    xs, _ = _scaled(x, pp.n_constraints, "x", "constraint")
    normals, n_den = integer_rows(pp.normals)
    members = set()
    decided = True
    for sigma, data in cd.sigmas.items():
        # slack j of s_sigma(x) = -v / (x_den dual_den) with v = sum_k xs[c_k] nums_k,
        # times n_den x_den dual_den > 0
        xc = [xs[c] for c in data.complement]
        v = [sum(map(mul, xc, col)) for col in zip(*data.dual_nums)]
        scale = n_den * data.dual_den
        slacks = [scale * xs[j] - sum(map(mul, normals[j], v)) for j in sigma]
        if any(s < 0 for s in slacks):
            continue
        members.add(sigma)
        if not all(s > 0 for s in slacks):
            decided = False  # vertex candidate sits exactly on a wall
    if not members:
        raise ValueError("outside C: P(x) is empty")
    return ChamberAssignment(frozenset(members), decided)


def is_bounded(pp: ParametricPolyhedron) -> bool:
    """P(x) bounded wherever nonempty, i.e. the normals positively span: their cone
    {d : a.d >= 0} is {0} (`polyhedra.recession_cone_is_zero`, double description, no LP)."""
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
    xs, x_den = _scaled(x, cd.pp.n_constraints, "x", "constraint")
    mus, mu_den = _scaled(mu, cd.pp.dim, "mu", "dimension")
    terms: dict[Fraction, Fraction] = {}
    for sigma in chamber:
        data = cd.sigmas[sigma]
        vals = [sum(map(mul, mus, u)) for u in data.dual_nums]  # mu(u_k) = vals[k] / scale
        if not all(vals):
            raise ValueError(
                "mu is not generic for this chamber (mu vanishes on a dual vector); "
                "use bv_limit_tfinite"
            )
        scale = mu_den * data.dual_den
        # -mu(s_sigma(x)) = sum_k x_{c_k} mu(u_k); the box volume over prod_k mu(u_k)
        exponent = Fraction(sum(xs[c] * v for c, v in zip(data.complement, vals)), x_den * scale)
        vol = data.box_volume
        coeff = Fraction(vol.numerator * scale ** len(vals), vol.denominator * prod(vals))
        terms[exponent] = terms.get(exponent, 0) + coeff
    clean = tuple(sorted((c, e) for e, c in terms.items() if c != 0))
    return ExpSum(clean)


def _first_mu0(d: int, degenerate: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The first integer covector nonzero on every vector of `degenerate`, in the
    fixed lexicographic sequence of {-k..k}^d with max |c_i| = k, k = 1, 2, ..."""
    for k in count(1):
        for cand in product(range(-k, k + 1), repeat=d):
            if max(map(abs, cand)) == k and all(sum(map(mul, cand, u)) for u in degenerate):
                return cand


def choose_mu0(cd: ChamberData, chamber, mu: Sequence) -> Vec:
    """First covector in the fixed sequence with mu0(u) != 0 wherever mu(u) = 0."""
    mus, _ = _scaled(mu, cd.pp.dim, "mu", "dimension")
    duals = (u for sigma in chamber for u in cd.sigmas[sigma].dual_nums)
    return vec(_first_mu0(cd.pp.dim, [u for u in duals if not sum(map(mul, mus, u))]))


def bv_limit_tfinite(cd: ChamberData, chamber, mu: Sequence) -> TFiniteFunction:
    """Exact limit of the vertex-sum formula for possibly non-generic mu.

    Returns the integral ∫_{P(x(theta))} e^{-mu(v)} dv as a t-finite function
    of the offset parameters theta, valid on the chamber.  The perturbation
    mu + t*mu0 is expanded symbolically: per-sigma Laurent factors are grouped
    by the exact exponent form, negative powers of t must cancel within each
    group (checked; failure raises PoleCancellationError), and the t^0
    coefficient is assembled.  Requires a linear offset map (no constant part).

    Everything runs on ints: mu(u), mu0(u), both parameter forms and the
    series.  Each member's contribution to a t-power is a rational scalar
    times an int series term; per exponent group and t-power the scalars
    share one denominator, their lcm, the int numerators accumulate over it,
    and each output monomial is one `Fraction`.
    """
    pp = cd.pp
    m, d = pp.n_params, pp.dim
    mus, mu_den = _scaled(mu, d, "mu", "dimension")
    if not cd.bounded:
        raise ValueError("polyhedron is unbounded on its chambers; limit formula needs boundedness")
    if not is_zero(pp.offset_const):
        raise ValueError("symbolic limit requires a linear offset map (zero constant part)")
    om, om_den = integer_rows(pp.offset_matrix)
    members = [(data, [sum(map(mul, mus, u)) for u in data.dual_nums]) for data in (cd.sigmas[s] for s in chamber)]
    mu0 = _first_mu0(d, [u for data, vals in members for u, v in zip(data.dual_nums, vals) if not v])

    # with x(theta) = OM theta, s_sigma = -sum_k x_{c_k} u_k makes the exponent -mu(s_sigma)
    # = sum_k mu(u_k) OM[c_k] and mu0(s_sigma) = -sum_k mu0(u_k) OM[c_k] covectors on theta;
    # mu(u_k) = vals[k] / (mu_den dual_den) and mu0(u_k) = ws[k] / dual_den
    groups: dict[tuple, list] = {}  # (a-form numerators, denominator), lowest terms -> members
    for data, vals in members:
        ws = [sum(map(mul, mu0, u)) for u in data.dual_nums]
        cols = tuple(zip(*(om[c] for c in data.complement)))
        a_num = [sum(map(mul, vals, col)) for col in cols]
        a_den = mu_den * data.dual_den * om_den
        g = gcd(a_den, *a_num)
        b_form = [-sum(map(mul, ws, col)) for col in cols]  # over b_den = dual_den om_den
        groups.setdefault((tuple(a // g for a in a_num), a_den // g), []).append((data, vals, ws, b_form))

    terms: dict[Vec, Polynomial] = {}
    for (a_num, a_den), group in groups.items():
        a_form = tuple(Fraction(a, a_den) for a in a_num)
        by_power: dict[int, list] = {}  # t-power -> (scalar numerator, its denominator, int series term)
        for data, vals, ws, b_form in group:
            msig = vals.count(0)
            nonzero = [v for v in vals if v]
            p = prod(nonzero)
            # sum_j g_j t^j = vol / prod(mu(u), or mu0(u) where mu(u) = 0) * prod_{mu(u) != 0} 1/(1 + t c)
            # with c = mu0(u)/mu(u) = -e/p for an int e: g_j = g_0 h_j / p^j, h_j the complete sums of the e
            vol = data.box_volume
            g0_num = vol.numerator * mu_den ** len(nonzero) * data.dual_den ** len(vals)
            g0_den = vol.denominator * p * prod(w for v, w in zip(vals, ws) if not v)
            h = [1] + [0] * msig
            for e in (-w * mu_den * (p // v) for v, w in zip(vals, ws) if v):
                for j in range(1, msig + 1):
                    h[j] += e * h[j - 1]
            e_series = _exp_series(b_form, msig)
            b_den = data.dual_den * om_den
            # t^{j + r - msig} for j + r <= msig takes g_j (-B)^r / r! = g_0 h_j / (p^j r! b_den^r) e_series[r]
            for j, hj in enumerate(h):
                if not hj:
                    continue
                for r in range(msig + 1 - j):
                    scalar = (g0_num * hj, g0_den * p**j * factorial(r) * b_den**r)
                    by_power.setdefault(j + r - msig, []).append((*scalar, e_series[r]))
        for power in sorted(by_power):  # 0 is last: h_0 = 1
            den = lcm(*(q for _, q, _ in by_power[power]))
            acc: dict[tuple, int] = {}
            for num, q, series in by_power[power]:
                s = num * (den // q)
                for mono, c in series.items():
                    acc[mono] = acc.get(mono, 0) + s * c
            if power < 0 and any(acc.values()):
                raise PoleCancellationError(
                    f"negative power t^{power} failed to cancel in exponent group {a_form}"
                )
        p0 = Polynomial.make(m, {mono: Fraction(c, den) for mono, c in acc.items() if c})
        if not p0.is_zero():
            terms[a_form] = p0

    f = TFiniteFunction.make(m, terms)
    for lam, p in f.terms.items():
        bound = d if is_zero(lam) else d - 1
        if p.degree() > bound:
            raise AssertionError(f"degree bound violated: {p.degree()} > {bound} for exponent {lam}")
    return f


def _exp_series(form: Sequence[int], order: int) -> list[dict]:
    """(-B)^r for r = 0..order, B = form . theta with int coefficients b_i, as
    monomial -> int: the multinomial sum over B's support of r!/prod_i a_i! *
    prod_i (-b_i)^{a_i}.  With B = b_form / b_den, (-B)^r / r! is term r over
    r! b_den^r, so each scalar of a t-power carries that denominator.  A
    degree-r monomial grows from a degree r - 1 one at that one's last variable
    or a later one, i, by the exact int step coeff * (-b_i) * r // (a_i + 1)."""
    steps = [(i, -c) for i, c in enumerate(form) if c]
    zero = (0,) * len(form)
    series, level = [{zero: 1}], [(zero, 0, 1)]  # (monomial, its last step, coefficient)
    for r in range(1, order + 1):
        level = [(mono[:i] + (mono[i] + 1,) + mono[i + 1 :], k, coeff * c * r // (mono[i] + 1))
                 for mono, last, coeff in level
                 for k, (i, c) in enumerate(steps[last:], last)]
        series.append({mono: coeff for mono, _, coeff in level})
    return series
