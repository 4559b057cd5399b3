"""Polynomial-times-exponential algebra and model fitting."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylcone.tfinite import Polynomial, TFiniteFunction, fit_tfinite, from_json, to_json

small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def poly_strategy(nvars=2, max_deg=2):
    mono = st.tuples(*[st.integers(min_value=0, max_value=max_deg)] * nvars)
    return st.dictionaries(mono, small, max_size=4).map(lambda d: Polynomial.make(nvars, d))


def test_polynomial_make_drops_zeros():
    p = Polynomial.make(2, {(0, 0): 0, (1, 0): F(1, 2)})
    assert list(p.coeffs) == [(1, 0)]
    assert Polynomial.make(1, {(3,): 0}).is_zero()


def test_polynomial_eval_exact_and_degree():
    p = Polynomial.make(2, {(2, 1): F(3), (0, 0): F(-1, 2)})
    assert p.eval((F(1, 3), F(2))) == F(3) * F(1, 9) * 2 - F(1, 2)
    assert p.degree() == 3
    assert Polynomial.make(2, {}).degree() == -1


def test_polynomial_shift_exact():
    p = Polynomial.make(1, {(2,): F(1)})
    q = p.shift((F(3),))  # (3 + y)^2
    assert q.coeffs == {(0,): F(9), (1,): F(6), (2,): F(1)}
    assert q.eval((F(1),)) == p.eval((F(4),))


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_polynomial_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


def test_tfinite_make_merges_and_cleans():
    p = Polynomial.constant(1, 1)
    f = TFiniteFunction.make(1, {(F(1),): p})
    g = TFiniteFunction.make(1, {(F(1),): -p})
    assert (f + g).terms == {}
    assert f + g == TFiniteFunction.zero(1)


def test_tfinite_arity_mismatch():
    with pytest.raises(ValueError):
        TFiniteFunction.make(2, {(F(1),): Polynomial.constant(2, 1)})
    with pytest.raises(ValueError):
        TFiniteFunction.constant(1, 1) + TFiniteFunction.constant(2, 1)


def test_tfinite_product_adds_exponents():
    f = TFiniteFunction.exponential((F(1), F(0)))
    g = TFiniteFunction.exponential((F(0), F(2)))
    h = f * g
    assert set(h.terms) == {(F(1), F(2))}
    x = (0.3, -0.7)
    assert abs(h.eval(x) - math.exp(0.3 - 1.4)) < 1e-12


def test_tfinite_eval_matches_closed_form():
    # (1 + x) e^{2x} - 5
    f = TFiniteFunction.make(
        1,
        {
            (F(2),): Polynomial.make(1, {(0,): F(1), (1,): F(1)}),
            (F(0),): Polynomial.constant(1, -5),
        },
    )
    for x in (-1.5, 0.0, 0.25, 2.0):
        assert abs(f.eval((x,)) - ((1 + x) * math.exp(2 * x) - 5)) < 1e-12


def test_tfinite_eval_extreme_exponent_finite():
    f = TFiniteFunction.exponential((F(-1),))
    assert f.eval((800.0,)) >= 0.0  # extended-precision path, no overflow


def test_constant_term():
    f = TFiniteFunction.make(
        1,
        {
            (F(0),): Polynomial.make(1, {(0,): F(7), (1,): F(2)}),
            (F(3),): Polynomial.constant(1, 1),
        },
    )
    assert f.constant_term() == F(7)
    assert f.constant_term((F(1),)) == F(9)  # recentred: 7 + 2*1
    assert TFiniteFunction.exponential((F(1),)).constant_term() == 0


def test_exponent_degree_bound():
    f = TFiniteFunction.make(
        2,
        {(F(1), F(0)): Polynomial.make(2, {(1, 1): F(1)}), (F(0), F(0)): Polynomial.constant(2, 3)},
    )
    b = f.exponent_degree_bound()
    assert b[(F(1), F(0))] == 2 and b[(F(0), F(0))] == 0


@given(poly_strategy(nvars=1, max_deg=2), poly_strategy(nvars=1, max_deg=2))
def test_tfinite_algebra_matches_pointwise(p, q):
    f = TFiniteFunction.make(1, {(F(1),): p})
    g = TFiniteFunction.make(1, {(F(-1),): q})
    x = (0.37,)
    lhs = (f * g + f).eval(x)
    rhs = f.eval(x) * g.eval(x) + f.eval(x)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_fit_recovers_planted_model():
    planted = TFiniteFunction.make(
        1,
        {
            (F(2),): Polynomial.make(1, {(0,): F(1, 2), (1,): F(-3)}),
            (F(0),): Polynomial.make(1, {(1,): F(1)}),
        },
    )
    xs = [(F(i, 8),) for i in range(-12, 13)]
    samples = [(x, planted.eval(x)) for x in xs]
    fitted, resid = fit_tfinite(samples, [(F(2),), (F(0),)], max_degree=1)
    assert resid < 1e-9
    for x in ((F(1, 3),), (F(-2, 3),)):
        assert abs(fitted.eval(x) - planted.eval(x)) < 1e-8


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError):
        fit_tfinite([((F(0),), 1.0)], [(F(0),)], max_degree=3)
    with pytest.raises(ValueError):
        fit_tfinite([], [(F(0),)], max_degree=0)


def test_json_roundtrip():
    f = TFiniteFunction.make(
        2,
        {
            (F(1, 2), F(0)): Polynomial.make(2, {(1, 0): F(-2, 3)}),
            (F(0), F(0)): Polynomial.constant(2, 5),
        },
    )
    assert from_json(to_json(f)) == f


def test_polynomial_and_tfinite_hash_agree_with_equality():
    assert hash(Polynomial.constant(1, 3)) == hash(Polynomial.make(1, {(0,): F(6, 2)}))
    p = Polynomial.make(2, {(1, 0): F(1, 2), (0, 2): F(-3)})
    q = Polynomial(2, {(0, 2): F(-3), (1, 0): F(1, 2)})  # same terms, other insertion order
    assert p == q and hash(p) == hash(q)
    table = {p: "p", Polynomial.constant(2, 1): "one"}
    assert table[q] == "p" and table[Polynomial.make(2, {(0, 0): 1})] == "one"
    assert len({p, q, p + Polynomial.make(2, {})}) == 1
    f = TFiniteFunction.exponential((1, 0), p)
    g = TFiniteFunction(2, {(F(1), F(0)): q})
    assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1


def _is_canonical(f):
    """Exponents sorted, no zero polynomial, each polynomial's monomials sorted with no zero coefficient."""
    polys = list(f.terms.values())
    return (
        list(f.terms) == sorted(f.terms)
        and not any(p.is_zero() for p in polys)
        and all(list(p.coeffs) == sorted(p.coeffs) and all(p.coeffs.values()) for p in polys)
    )


@given(poly_strategy(), poly_strategy(), poly_strategy(), small)
def test_tfinite_scale_and_minus_agree_with_the_product_by_a_constant(p, q, r, c):
    f = TFiniteFunction.make(2, {(F(1), F(0)): p, (F(0), F(0)): q})
    g = TFiniteFunction.make(2, {(F(0), F(-1, 2)): r, (F(0), F(0)): p})
    const = TFiniteFunction.constant
    assert f.scale(c) == f * const(2, c) == const(2, c) * f
    assert -f == f * const(2, -1) == f.scale(-1)
    assert f - g == f + g * const(2, -1)
    assert f.scale(0) == f - f == TFiniteFunction.zero(2)
    for h in (f.scale(c), -f, f - g):
        assert _is_canonical(h)
    x = (0.37, -0.81)
    fx, gx = f.eval(x), g.eval(x)
    assert f.scale(c).eval(x) == pytest.approx(float(c) * fx, rel=1e-12, abs=1e-12)
    assert (-f).eval(x) == pytest.approx(-fx, rel=1e-12, abs=1e-12)
    assert (f - g).eval(x) == pytest.approx(fx - gx, rel=1e-12, abs=1e-12)


def test_tfinite_eval_takes_the_extended_precision_path_past_exponent_700():
    f = TFiniteFunction.exponential((F(1), F(0))) - TFiniteFunction.exponential((F(0), F(1)))
    with pytest.raises(OverflowError):
        math.exp(800.0)  # what the float path would compute for each term at (800, 800)
    assert f.eval((800, 800)) == 0.0
    assert f.eval((F(1, 2), F(1, 4))) == math.exp(0.5) - math.exp(0.25)


def test_tfinite_eval_keeps_a_small_term_beside_cancelling_large_ones():
    # e^x - e^y + e^(x-y) at (800, 800) is 1: the 1 has to survive beside e^800 ~ 10^347
    exp = TFiniteFunction.exponential
    f = exp((F(1), F(0))) - exp((F(0), F(1))) + exp((F(1), F(-1)))
    assert f.eval((800, 800)) == 1.0
