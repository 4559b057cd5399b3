"""Reference for the degenerate-frequency limit of the chamber vertex sum.

`limit_tfinite` expands the perturbation mu + t*mu0 the long way: it builds
each sigma's d x N vertex matrix from the dual basis on the complement, takes
the d x m parameter map `vertex_matrix . offset_matrix`, and runs both series
in `Polynomial` algebra, all on `Fraction`s.  `chambers.bv_limit_tfinite`
reads the complement rows directly and runs the series on int numerators, so
the tests use this module as its independent oracle: equal canonical forms, or
the same error with the same message.  `choose_mu0` is its own `Fraction`
search over the same lexicographic sequence of covectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, product

from weylcone.chambers import PoleCancellationError, is_bounded
from weylcone.linalg import is_zero, neg, transpose, vec, zeros
from weylcone.tfinite import Polynomial, TFiniteFunction

from vertex_oracle import fraction_dot, fraction_mat_vec


def vertex_matrix(data, n):
    """d x N matrix of s_sigma: column complement[k] is -u_k, sigma's columns are zero."""
    d = len(data.dual_basis)
    cols = [zeros(d)] * n
    for c, u in zip(data.complement, data.dual_basis):
        cols[c] = neg(u)
    return transpose(cols)


def choose_mu0(cd, chamber, mu):
    """The first c, over the shells max |c_i| = k (k = 1, 2, ...) each in the
    lexicographic order of {-k..k}^d, with c(u) != 0 on every dual vector u of
    the chamber where mu(u) = 0."""
    muv = vec(mu)
    degenerate = [u for s in chamber for u in cd.sigmas[s].dual_basis if fraction_dot(muv, u) == 0]
    for k in count(1):
        for cand in product(range(-k, k + 1), repeat=cd.pp.dim):
            c = vec(cand)
            if max(abs(x) for x in c) == k and all(fraction_dot(c, u) != 0 for u in degenerate):
                return c


def limit_tfinite(cd, chamber, mu) -> TFiniteFunction:
    pp = cd.pp
    if not is_bounded(pp):
        raise ValueError("polyhedron is unbounded on its chambers; limit formula needs boundedness")
    if not is_zero(pp.offset_const):
        raise ValueError("symbolic limit requires a linear offset map (zero constant part)")
    muv = vec(mu)
    mu0 = choose_mu0(cd, chamber, muv)
    m = pp.n_params
    d = pp.dim

    # groups keyed by the linear form theta -> -mu(s_sigma(x(theta)))
    groups: dict = {}
    for sigma in chamber:
        data = cd.sigmas[sigma]
        smap = tuple(
            tuple(fraction_dot(row, col) for col in transpose(pp.offset_matrix))
            for row in vertex_matrix(data, pp.n_constraints)
        )  # d x m
        a_form = neg(fraction_mat_vec(transpose(smap), muv))
        b_form = fraction_mat_vec(transpose(smap), mu0)
        groups.setdefault(a_form, []).append((data, b_form))

    terms: dict = {}
    for a_form, members in groups.items():
        by_power: dict = {}
        for data, b_form in members:
            vals = [fraction_dot(muv, u) for u in data.dual_basis]
            w = [fraction_dot(mu0, u) for u in data.dual_basis]
            msig = sum(1 for v in vals if v == 0)
            k_const = data.box_volume
            for i, v in enumerate(vals):
                k_const /= w[i] if v == 0 else v
            cs = [w[i] / v for i, v in enumerate(vals) if v != 0]
            # denominator series: prod 1/(1 + t c) = sum_j g_j t^j, to order msig
            g = [Fraction(1)] + [Fraction(0)] * msig
            for c in cs:
                powers = [Fraction(1)]
                for _ in range(msig):
                    powers.append(powers[-1] * (-c))
                g = [sum((g[j - r] * powers[r] for r in range(j + 1)), Fraction(0)) for j in range(msig + 1)]
            # exponential series: e^{-t * B(theta)} = sum_r ((-B)^r / r!) t^r
            neg_b = Polynomial.make(
                m, {tuple(1 if i == j else 0 for i in range(m)): -c for j, c in enumerate(b_form) if c != 0}
            )
            powers_b = [Polynomial.constant(m, 1)]
            for _ in range(msig):
                powers_b.append(powers_b[-1] * neg_b)
            e_series = [p.scale(Fraction(1, math.factorial(r))) for r, p in enumerate(powers_b)]
            for j in range(msig + 1):
                if g[j] == 0:
                    continue
                for r in range(msig + 1 - j):
                    power = j + r - msig
                    contrib = e_series[r].scale(g[j] * k_const)
                    by_power[power] = by_power.get(power, Polynomial.make(m, {})) + contrib
        for power, poly in sorted(by_power.items()):
            if power < 0 and not poly.is_zero():
                raise PoleCancellationError(
                    f"negative power t^{power} failed to cancel in exponent group {a_form}"
                )
        p0 = by_power.get(0, Polynomial.make(m, {}))
        if not p0.is_zero():
            terms[a_form] = terms.get(a_form, Polynomial.make(m, {})) + p0

    f = TFiniteFunction.make(m, terms)
    for lam, p in f.terms.items():
        bound = d if is_zero(lam) else d - 1
        if p.degree() > bound:
            raise AssertionError(f"degree bound violated: {p.degree()} > {bound} for exponent {lam}")
    return f
