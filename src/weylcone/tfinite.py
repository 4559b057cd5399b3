"""Polynomial-times-exponential functions with exact canonical forms.

A function here is a finite sum  sum_lambda p_lambda(x) e^{lambda(x)}  with
rational linear exponents lambda and rational-coefficient polynomials p_lambda.
The representation (exponent -> polynomial, zero polynomials dropped) is the
canonical form: distinct canonical forms are distinct functions, so algebraic
identities can be asserted by structural equality.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import Vec, vec, zeros

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial: map from exponent tuples to rational coefficients."""

    nvars: int
    coeffs: Mapping[Monomial, Fraction]

    @staticmethod
    def make(nvars: int, coeffs: Mapping[Monomial, object]) -> "Polynomial":
        clean = {tuple(m): Fraction(c) for m, c in coeffs.items() if Fraction(c) != 0}
        return Polynomial(nvars, _frozen(clean))

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        return Polynomial.make(nvars, {(0,) * nvars: Fraction(c)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.coeffs), default=-1)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial.make(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial.make(self.nvars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Polynomial.make(self.nvars, out)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial.make(self.nvars, {m: c * v for m, v in self.coeffs.items()})

    def eval(self, x: Sequence) -> Fraction:
        xv = [Fraction(v) for v in x]
        total = Fraction(0)
        for m, c in self.coeffs.items():
            term = c
            for e, v in zip(m, xv):
                term *= v**e
            total += term
        return total

    def eval_float(self, x: Sequence[float]) -> float:
        total = 0.0
        for m, c in self.coeffs.items():
            term = float(c)
            for e, v in zip(m, x):
                term *= float(v) ** e
            total += term
        return total

    def shift(self, base: Sequence) -> "Polynomial":
        """p(base + y) as a polynomial in y, exactly."""
        bv = [Fraction(v) for v in base]
        result = Polynomial.make(self.nvars, {})
        for m, c in self.coeffs.items():
            term = Polynomial.constant(self.nvars, c)
            for i, e in enumerate(m):
                factor = Polynomial.make(
                    self.nvars,
                    {
                        (0,) * self.nvars: bv[i],
                        tuple(1 if j == i else 0 for j in range(self.nvars)): Fraction(1),
                    },
                )
                for _ in range(e):
                    term = term * factor
            result = result + term
        return result

    def __hash__(self):  # agrees with the generated __eq__, which compares coeffs as dicts
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomial arity mismatch")


def _frozen(d: dict):
    return dict(sorted(d.items()))


@dataclass(frozen=True)
class TFiniteFunction:
    """Canonical finite sum of p_lambda(x) e^{lambda(x)} terms."""

    nvars: int
    terms: Mapping[Vec, Polynomial]

    @staticmethod
    def make(nvars: int, terms: Mapping[Sequence, Polynomial]) -> "TFiniteFunction":
        clean = {}
        for lam, p in terms.items():
            lv = vec(lam)
            if len(lv) != nvars or p.nvars != nvars:
                raise ValueError("arity mismatch between exponent and polynomial")
            if not p.is_zero():
                clean[lv] = clean.get(lv, Polynomial.make(nvars, {})) + p
        clean = {lam: p for lam, p in clean.items() if not p.is_zero()}
        return TFiniteFunction(nvars, _frozen(clean))

    @staticmethod
    def zero(nvars: int) -> "TFiniteFunction":
        return TFiniteFunction.make(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "TFiniteFunction":
        return TFiniteFunction.make(nvars, {zeros(nvars): Polynomial.constant(nvars, c)})

    @staticmethod
    def exponential(lam: Sequence, poly: Polynomial | None = None) -> "TFiniteFunction":
        lv = vec(lam)
        n = len(lv)
        return TFiniteFunction.make(n, {lv: poly if poly is not None else Polynomial.constant(n, 1)})

    def __add__(self, other: "TFiniteFunction") -> "TFiniteFunction":
        self._check(other)
        out: dict[Vec, Polynomial] = dict(self.terms)
        for lam, p in other.terms.items():
            out[lam] = out.get(lam, Polynomial.make(self.nvars, {})) + p
        return TFiniteFunction.make(self.nvars, out)

    def __neg__(self) -> "TFiniteFunction":
        return TFiniteFunction.make(self.nvars, {l: -p for l, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "TFiniteFunction") -> "TFiniteFunction":
        self._check(other)
        out: dict[Vec, Polynomial] = {}
        for l1, p1 in self.terms.items():
            for l2, p2 in other.terms.items():
                lam = tuple(a + b for a, b in zip(l1, l2))
                prod = p1 * p2
                if lam in out:
                    out[lam] = out[lam] + prod
                else:
                    out[lam] = prod
        return TFiniteFunction.make(self.nvars, out)

    def scale(self, c) -> "TFiniteFunction":
        return TFiniteFunction.make(self.nvars, {l: p.scale(c) for l, p in self.terms.items()})

    def eval(self, x: Sequence) -> float:
        """Float evaluation; extended precision once any |lambda(x)| exceeds 700."""
        xf = [float(v) for v in x]
        exponents = [sum(float(c) * v for c, v in zip(lam, xf)) for lam in self.terms]
        if any(abs(e) > 700 for e in exponents):
            return self._eval_mp(x)
        total = 0.0
        for (lam, p), e in zip(self.terms.items(), exponents):
            total += p.eval_float(xf) * math.exp(e)
        return total

    def _eval_mp(self, x: Sequence) -> float:
        import mpmath

        with mpmath.workdps(50):
            total = mpmath.mpf(0)
            xf = [mpmath.mpf(float(v)) for v in x]
            for lam, p in self.terms.items():
                e = mpmath.fsum(mpmath.mpf(float(c)) * v for c, v in zip(lam, xf))
                pe = mpmath.mpf(0)
                for m, c in p.coeffs.items():
                    term = mpmath.mpf(float(c))
                    for k, v in zip(m, xf):
                        term *= v**k
                    pe += term
                total += pe * mpmath.exp(e)
            try:
                return float(total)
            except OverflowError:
                return math.inf if total > 0 else -math.inf

    def constant_term(self, base: Sequence | None = None) -> Fraction:
        """Coefficient of the zero-exponent, degree-zero term after recentering
        the argument at `base` (default: the origin)."""
        zero = zeros(self.nvars)
        p0 = self.terms.get(zero)
        if p0 is None:
            return Fraction(0)
        if base is None:
            base = zero
        return p0.eval(base)

    def exponent_degree_bound(self) -> dict[Vec, int]:
        return {lam: p.degree() for lam, p in self.terms.items()}

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("argument-space dimension mismatch")

    def __eq__(self, other):
        if not isinstance(other, TFiniteFunction):
            return NotImplemented
        return self.nvars == other.nvars and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))


def fit_tfinite(
    samples: Sequence[tuple[Sequence, float]],
    exponents: Sequence[Sequence],
    max_degree: int,
):
    """Least-squares fit of a t-finite model; returns (function, max_residual).

    Model columns are monomial(x) * e^{lambda(x)} for every candidate exponent
    and every monomial of total degree <= max_degree.  An ill-conditioned
    design matrix triggers a warning and a ridge-regularized solve.  The
    coefficients are binary64 least-squares values stored as `Fraction`, so
    they are not exact; those with |c| <= 1e-12 are dropped.
    """
    import numpy as np

    if not samples:
        raise ValueError("no samples")
    nvars = len(samples[0][0])
    lam_list = [vec(l) for l in exponents]
    monos = _monomials(nvars, max_degree)
    ncols = len(lam_list) * len(monos)
    if len(samples) < 2 * ncols:
        raise ValueError(f"need at least {2 * ncols} samples for {ncols} model columns")
    rows = []
    ys = []
    for x, y in samples:
        xf = [float(v) for v in x]
        row = []
        for lam in lam_list:
            e = math.exp(sum(float(c) * v for c, v in zip(lam, xf)))
            for m in monos:
                t = e
                for k, v in zip(m, xf):
                    t *= v**k
                row.append(t)
        rows.append(row)
        ys.append(float(y))
    a = np.array(rows, dtype=float)
    b = np.array(ys, dtype=float)
    cond = np.linalg.cond(a)
    if cond > 1e12:
        warnings.warn(f"design matrix condition number {cond:.2e}; using ridge regularization")
        reg = 1e-10 * np.eye(a.shape[1])
        coef = np.linalg.solve(a.T @ a + reg, a.T @ b)
    else:
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    terms: dict[Vec, Polynomial] = {}
    idx = 0
    for lam in lam_list:
        pc: dict[Monomial, Fraction] = {}
        for m in monos:
            c = float(coef[idx])
            idx += 1
            if abs(c) > 1e-12:
                pc[m] = Fraction(c)
        poly = Polynomial.make(nvars, pc)
        if not poly.is_zero():
            terms[lam] = terms.get(lam, Polynomial.make(nvars, {})) + poly
    f = TFiniteFunction.make(nvars, terms)
    residual = max(abs(f.eval(x) - float(y)) for x, y in samples)
    return f, residual


def _monomials(nvars: int, max_degree: int) -> list[Monomial]:
    out: list[Monomial] = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for d in range(budget + 1):
            rec(prefix + [d], remaining - 1, budget - d)

    rec([], nvars, max_degree)
    return sorted(out)


# --- serialization ----------------------------------------------------------


def to_json(f: TFiniteFunction) -> str:
    return json.dumps(
        {
            "nvars": f.nvars,
            "terms": [
                {
                    "exponent": [str(c) for c in lam],
                    "poly": [
                        {"monomial": list(m), "coeff": str(c)}
                        for m, c in sorted(p.coeffs.items())
                    ],
                }
                for lam, p in sorted(f.terms.items())
            ],
        }
    )


def from_json(text: str) -> TFiniteFunction:
    data = json.loads(text)
    n = data["nvars"]
    terms = {}
    for t in data["terms"]:
        lam = vec(Fraction(c) for c in t["exponent"])
        poly = Polynomial.make(n, {tuple(e["monomial"]): Fraction(e["coeff"]) for e in t["poly"]})
        terms[lam] = poly
    return TFiniteFunction.make(n, terms)
