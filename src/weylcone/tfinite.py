"""Polynomial-times-exponential functions with exact canonical forms.

A function here is a finite sum  sum_lambda p_lambda(x) e^{lambda(x)}  with
rational linear exponents lambda and rational-coefficient polynomials p_lambda.
The representation (exponent -> polynomial, zero polynomials dropped) is the
canonical form: distinct canonical forms are distinct functions, so algebraic
identities can be asserted by structural equality.  A polynomial is the same
kind of sum one level down (monomial -> coefficient), and both share one
canonical form, one arithmetic (`_Sum`) and one monomial evaluator.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import Vec, exact_json, vec, zeros

Monomial = tuple[int, ...]


def _canonical(pairs: Iterable[tuple], is_zero: Callable) -> dict:
    """The canonical form of a sum of (key, value) pairs: equal keys merged,
    zero values dropped, keys sorted."""
    out: dict = {}
    for k, v in pairs:
        out[k] = out[k] + v if k in out else v
    return {k: out[k] for k in sorted(out) if not is_zero(out[k])}


def _eval_monomials(coeffs: Mapping[Monomial, Fraction], x: Sequence, num: Callable):
    """sum_m num(c_m) prod_i x_i^{m_i}, multiplied left to right in the number
    type of `num` (Fraction, float or an mpmath mpf); `x` is already of it."""
    total = num(0)
    for m, c in coeffs.items():
        term = num(c)
        for e, v in zip(m, x):
            term *= v**e
        total += term
    return total


class _Sum:
    """The arithmetic of a canonical sum: a frozen dataclass (nvars, map) whose
    map takes key tuples to values.  The product adds keys entrywise and
    multiplies values.  A subclass names the map's field (`_field`), the zero
    test of its values (`_is_zero`), its arity error and its `constant`."""

    _field: str
    _is_zero: Callable
    _mismatch: str

    @classmethod
    def _of(cls, nvars: int, pairs: Iterable[tuple]):
        return cls(nvars, _canonical(pairs, cls._is_zero))

    def _items(self):
        return getattr(self, self._field).items()

    def __add__(self, other):
        self._check(other)
        return self._of(self.nvars, [*self._items(), *other._items()])

    def __neg__(self):
        return self._of(self.nvars, ((k, -v) for k, v in self._items()))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self._of(
            self.nvars,
            ((tuple(map(operator.add, k1, k2)), v1 * v2) for k1, v1 in self._items() for k2, v2 in other._items()),
        )

    def scale(self, c):
        return self * self.constant(self.nvars, c)

    def __hash__(self):  # agrees with the generated __eq__, which compares the maps as dicts
        return hash((self.nvars, frozenset(self._items())))

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError(self._mismatch)


@dataclass(frozen=True)
class Polynomial(_Sum):
    """Multivariate polynomial: map from exponent tuples to rational coefficients."""

    nvars: int
    coeffs: Mapping[Monomial, Fraction]

    _field, _is_zero, _mismatch = "coeffs", operator.not_, "polynomial arity mismatch"
    __hash__ = _Sum.__hash__  # a frozen dataclass would otherwise hash the dict

    @staticmethod
    def make(nvars: int, coeffs: Mapping[Monomial, object]) -> "Polynomial":
        return Polynomial._of(nvars, ((tuple(m), Fraction(c)) for m, c in coeffs.items()))

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        return Polynomial.make(nvars, {(0,) * nvars: Fraction(c)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.coeffs), default=-1)

    def eval(self, x: Sequence) -> Fraction:
        return _eval_monomials(self.coeffs, [Fraction(v) for v in x], Fraction)

    def eval_float(self, x: Sequence[float]) -> float:
        return _eval_monomials(self.coeffs, [float(v) for v in x], float)

    def shift(self, base: Sequence) -> "Polynomial":
        """p(base + y) as a polynomial in y, exactly."""
        n = self.nvars
        result = Polynomial.make(n, {})
        for m, c in self.coeffs.items():
            term = Polynomial.constant(n, c)
            for i, e in enumerate(m):
                factor = Polynomial.make(n, {(0,) * n: base[i], tuple(int(j == i) for j in range(n)): 1})
                for _ in range(e):
                    term = term * factor
            result = result + term
        return result


@dataclass(frozen=True)
class TFiniteFunction(_Sum):
    """Canonical finite sum of p_lambda(x) e^{lambda(x)} terms."""

    nvars: int
    terms: Mapping[Vec, Polynomial]

    _field, _is_zero, _mismatch = "terms", staticmethod(Polynomial.is_zero), "argument-space dimension mismatch"
    __hash__ = _Sum.__hash__

    @staticmethod
    def make(nvars: int, terms: Mapping[Sequence, Polynomial]) -> "TFiniteFunction":
        pairs = [(vec(lam), p) for lam, p in terms.items()]
        if any(len(lv) != nvars or p.nvars != nvars for lv, p in pairs):
            raise ValueError("arity mismatch between exponent and polynomial")
        return TFiniteFunction._of(nvars, pairs)

    @staticmethod
    def zero(nvars: int) -> "TFiniteFunction":
        return TFiniteFunction.make(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "TFiniteFunction":
        return TFiniteFunction.make(nvars, {zeros(nvars): Polynomial.constant(nvars, c)})

    @staticmethod
    def exponential(lam: Sequence, poly: Polynomial | None = None) -> "TFiniteFunction":
        lv = vec(lam)
        return TFiniteFunction.make(len(lv), {lv: poly if poly is not None else Polynomial.constant(len(lv), 1)})

    def eval(self, x: Sequence) -> float:
        """Float evaluation; extended precision once any |lambda(x)| exceeds 700."""
        xf = [float(v) for v in x]
        exponents = [sum(float(c) * v for c, v in zip(lam, xf)) for lam in self.terms]
        if any(abs(e) > 700 for e in exponents):
            return self._eval_mp(x, max(exponents) - min(exponents))
        total = 0.0
        for p, e in zip(self.terms.values(), exponents):
            total += p.eval_float(xf) * math.exp(e)
        return total

    def _eval_mp(self, x: Sequence, spread: float) -> float:
        """The sum at 50 digits plus the decimal digits of e^spread, so that a term
        e^spread times smaller than the largest still counts after a cancellation
        (no extra digits for a spread of inf or nan, from a float overflow in x)."""
        import mpmath

        digits = 50 + math.ceil(spread / math.log(10)) if spread < math.inf else 50
        with mpmath.workdps(digits):
            mpf = lambda c: mpmath.mpf(float(c))
            xf = [mpf(v) for v in x]
            total = mpmath.mpf(0)
            for lam, p in self.terms.items():
                e = mpmath.fsum(mpf(c) * v for c, v in zip(lam, xf))
                total += _eval_monomials(p.coeffs, xf, mpf) * mpmath.exp(e)
            try:
                return float(total)
            except OverflowError:
                return math.inf if total > 0 else -math.inf

    def constant_term(self, base: Sequence | None = None) -> Fraction:
        """Coefficient of the zero-exponent, degree-zero term after recentering
        the argument at `base` (default: the origin)."""
        p0 = self.terms.get(zeros(self.nvars))
        if p0 is None:
            return Fraction(0)
        return p0.eval(zeros(self.nvars) if base is None else base)

    def exponent_degree_bound(self) -> dict[Vec, int]:
        return {lam: p.degree() for lam, p in self.terms.items()}


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
    for lam, row in zip(lam_list, coef.reshape(len(lam_list), len(monos))):
        poly = Polynomial.make(nvars, {m: float(c) for m, c in zip(monos, row) if abs(c) > 1e-12})
        terms[lam] = terms[lam] + poly if lam in terms else poly
    f = TFiniteFunction.make(nvars, terms)
    residual = max(abs(f.eval(x) - float(y)) for x, y in samples)
    return f, residual


def _monomials(nvars: int, max_degree: int) -> list[Monomial]:
    return [m for m in product(range(max_degree + 1), repeat=nvars) if sum(m) <= max_degree]


# --- serialization ----------------------------------------------------------


def to_json(f: TFiniteFunction) -> str:
    terms = [
        {"exponent": lam, "poly": [{"monomial": m, "coeff": c} for m, c in p.coeffs.items()]}
        for lam, p in f.terms.items()
    ]
    return json.dumps(exact_json({"nvars": f.nvars, "terms": terms}))


def from_json(text: str) -> TFiniteFunction:
    data = json.loads(text)
    n = data["nvars"]
    terms = {}
    for t in data["terms"]:
        lam = vec(Fraction(c) for c in t["exponent"])
        poly = Polynomial.make(n, {tuple(e["monomial"]): Fraction(e["coeff"]) for e in t["poly"]})
        terms[lam] = poly
    return TFiniteFunction.make(n, terms)
