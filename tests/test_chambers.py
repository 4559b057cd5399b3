"""Parametric chamber decomposition and the vertex-sum integral formula."""

import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chamber_oracle
import vertex_oracle
from polytope_oracle import assert_rows_match_points
from weylcone import chambers as CH
from weylcone import polyhedra as PH
from weylcone.linalg import neg, vec

INTERVAL = CH.ParametricPolyhedron.make([(1,), (-1,)], 1)  # [-x1, x2]
SQUARE = CH.ParametricPolyhedron.make([(1, 0), (0, 1), (-1, 0), (0, -1)], 2)


def rand_bounded_instance(rng, d, ncap):
    n = rng.randrange(d + 1, ncap + 1)
    while True:
        normals = tuple(tuple(F(rng.randrange(-3, 4)) for _ in range(d)) for _ in range(n))
        try:
            pp = CH.ParametricPolyhedron.make(normals, d)
        except ValueError:
            continue
        if CH.is_bounded(pp):
            return pp


_CD = {}


def chamber_data(pp):
    if pp not in _CD:
        _CD[pp] = CH.enumerate_bases(pp)
    return _CD[pp]


def test_make_validations():
    with pytest.raises(ValueError):
        CH.ParametricPolyhedron.make([(1, 0), (2, 0)], 2)  # normals span a line
    with pytest.raises(ValueError):
        CH.ParametricPolyhedron.make([], 1)


def test_offsets_affine_map():
    pp = CH.ParametricPolyhedron.make(
        [(1,), (-1,)], 1, offset_matrix=[(2,), (0,)], offset_const=(0, 1)
    )
    assert pp.n_params == 1
    assert pp.offsets((F(3),)) == (F(6), F(1))


def test_enumerate_bases_interval():
    cd = chamber_data(INTERVAL)
    assert len(cd.sigmas) == 2
    data = cd.sigmas[frozenset({1})]
    assert data.dual_basis == ((F(1),),) and data.box_volume == 1
    assert CH.vertex_map(data, (F(0), F(1))) == (F(0),)


@given(seed=st.integers(0, 2**32), d=st.integers(1, 3))
def test_vertex_map_solves_the_complement_system(seed, d):
    rng = random.Random(seed)
    pp = rand_bounded_instance(rng, d, 6)
    x = tuple(F(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(pp.n_constraints))
    for data in CH.enumerate_bases(pp).sigmas.values():
        comp = data.complement
        # mu_j(v) + x_j = 0 for every j in the complement
        want = vertex_oracle.fraction_solve([pp.normals[j] for j in comp], [-x[j] for j in comp])
        assert CH.vertex_map(data, x) == want


def test_is_bounded():
    assert CH.is_bounded(INTERVAL) and CH.is_bounded(SQUARE)
    half = CH.ParametricPolyhedron.make([(1, 0), (0, 1), (-1, -1), (1, 1)], 2)
    assert CH.is_bounded(half)
    ray = CH.ParametricPolyhedron.make([(1, 0), (0, 1), (1, 1)], 2)
    assert not CH.is_bounded(ray)


def test_chamber_of_interval():
    cd = chamber_data(INTERVAL)
    asg = CH.chamber_of(cd, (F(0), F(1)))
    assert asg.maximal and len(asg.members) == 2
    degenerate = CH.chamber_of(cd, (F(0), F(0)))  # the point interval
    assert not degenerate.maximal
    with pytest.raises(ValueError):
        CH.chamber_of(cd, (F(-2), F(1)))  # empty instance


def test_chamber_of_is_empty_exactly_when_the_feasibility_lp_is():
    # no LP in chamber_of: a nonempty P(x) is pointed, so some s_sigma(x) is its vertex
    rng = random.Random(23)
    kinds = set()
    for _ in range(100):
        d = rng.choice([1, 2, 3])
        normals = [[rng.randrange(-2, 3) for _ in range(d)] for _ in range(rng.randrange(d, d + 4))]
        try:
            pp = CH.ParametricPolyhedron.make([a for a in normals if any(a)], d)
        except ValueError:
            continue
        cd = chamber_data(pp)
        x = tuple(F(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(pp.n_constraints))
        empty = PH.feasible_point(pp.instance(x)) is None
        kinds.add((empty, CH.is_bounded(pp)))
        if empty:
            with pytest.raises(ValueError, match="P\\(x\\) is empty"):
                CH.chamber_of(cd, x)
        else:
            assert CH.chamber_of(cd, x).members
    assert len(kinds) == 4  # empty and nonempty, bounded and unbounded


def test_chamber_of_rejects_x_of_wrong_length():
    cd = chamber_data(SQUARE)
    for x in ((F(1),) * 3, (F(1),) * 5):
        with pytest.raises(ValueError, match="one entry per constraint"):
            CH.chamber_of(cd, x)


def test_vertex_maps_enumerate_vertices():
    # Theorem-style check: at a maximal chamber the candidate vertices are
    # exactly the extreme points of the instance
    rng = random.Random(6)
    for _ in range(5):
        pp = rand_bounded_instance(rng, 2, 6)
        cd = chamber_data(pp)
        while True:
            x = tuple(F(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(pp.n_constraints))
            asg = CH.chamber_of(cd, x)
            if asg.maximal:
                break
        got = {CH.vertex_map(cd.sigmas[s], x) for s in asg.members}
        expect = set(PH.vertices(PH.HPolyhedron(pp.normals, vec(x), pp.dim)).vertices)
        assert got == expect


def test_bv_integral_interval_exact_terms():
    cd = chamber_data(INTERVAL)
    x = (F(0), F(1))
    asg = CH.chamber_of(cd, x)
    es = CH.bv_integral(cd, asg.members, x, (F(2),))
    assert es.terms == ((F(-1, 2), F(-2)), (F(1, 2), F(0)))
    assert abs(es.eval() - (1 - math.exp(-2)) / 2) < 1e-15


def test_bv_integral_square_product_form():
    cd = chamber_data(SQUARE)
    x = (F(0), F(0), F(1), F(1))  # unit square
    asg = CH.chamber_of(cd, x)
    es = CH.bv_integral(cd, asg.members, x, (F(1), F(2)))
    want = (1 - math.exp(-1)) * (1 - math.exp(-2)) / 2
    assert abs(es.eval() - want) < 1e-15


def test_bv_integral_rejects_degenerate_mu():
    cd = chamber_data(SQUARE)
    x = (F(0), F(0), F(2), F(3))
    asg = CH.chamber_of(cd, x)
    with pytest.raises(ValueError):
        CH.bv_integral(cd, asg.members, x, (F(1), F(0)))


def test_bv_integral_rejects_x_of_wrong_length():
    cd = chamber_data(INTERVAL)
    asg = CH.chamber_of(cd, (F(0), F(1)))
    for x in ((F(0),), (F(0), F(1), F(5))):
        with pytest.raises(ValueError, match="one entry per constraint"):
            CH.bv_integral(cd, asg.members, x, (F(2),))


def test_bv_integral_matches_oracle_random():
    rng = random.Random(17)
    for _ in range(12):
        pp = rand_bounded_instance(rng, rng.choice([1, 2, 2, 3]), 6)
        cd = chamber_data(pp)
        while True:
            x = tuple(F(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(pp.n_constraints))
            asg = CH.chamber_of(cd, x)
            if asg.maximal:
                break
        while True:
            mu = tuple(F(rng.randrange(-3, 4)) for _ in range(pp.dim))
            if not any(mu):
                continue
            try:
                es = CH.bv_integral(cd, asg.members, x, mu)
                break
            except ValueError:
                continue
        oracle = PH.integrate_exp_oracle(
            PH.vertices(PH.HPolyhedron(pp.normals, vec(x), pp.dim)), neg(mu)
        )
        assert abs(es.eval() - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_limit_zero_mu_is_volume_polynomial():
    cd = chamber_data(INTERVAL)
    x = (F(0), F(1))
    asg = CH.chamber_of(cd, x)
    fn = CH.bv_limit_tfinite(cd, asg.members, (F(0),))
    zero = (F(0), F(0))
    assert set(fn.terms) == {zero}
    assert dict(fn.terms[zero].coeffs) == {(1, 0): F(1), (0, 1): F(1)}  # x1 + x2
    for x2 in [(F(1), F(2)), (F(1, 3), F(5, 7))]:
        vol = PH.volume(PH.vertices(PH.HPolyhedron(INTERVAL.normals, vec(x2), 1)))
        assert fn.terms[zero].eval(x2) == vol


def test_limit_degenerate_mu_matches_oracle():
    cd = chamber_data(SQUARE)
    x = (F(0), F(0), F(2), F(3))
    asg = CH.chamber_of(cd, x)
    mu = (F(1), F(0))  # vanishes on the vertical dual directions
    assert CH.choose_mu0(cd, asg.members, mu) == (F(-1), F(-1))
    fn = CH.bv_limit_tfinite(cd, asg.members, mu)
    oracle = PH.integrate_exp_oracle(
        PH.vertices(PH.HPolyhedron(SQUARE.normals, vec(x), 2)), neg(mu)
    )
    assert abs(fn.eval(x) - oracle) < 1e-12
    # degree bounds: n for the zero exponent, n-1 otherwise
    for lam, deg in fn.exponent_degree_bound().items():
        assert deg <= (2 if not any(lam) else 1)


def test_limit_degree_bounds_generic():
    cd = chamber_data(SQUARE)
    x = (F(0), F(0), F(2), F(3))
    asg = CH.chamber_of(cd, x)
    fn = CH.bv_limit_tfinite(cd, asg.members, (F(1), F(2)))
    es = CH.bv_integral(cd, asg.members, x, (F(1), F(2)))
    assert abs(fn.eval(x) - es.eval()) < 1e-12
    for lam, deg in fn.exponent_degree_bound().items():
        assert deg <= (2 if not any(lam) else 1)


def test_limit_rejects_unbounded_and_affine_offsets():
    ray = CH.ParametricPolyhedron.make([(1, 0), (0, 1), (1, 1)], 2)
    cd = CH.enumerate_bases(ray)
    asg = CH.chamber_of(cd, (F(1), F(1), F(1)))
    with pytest.raises(ValueError, match="unbounded"):
        CH.bv_limit_tfinite(cd, asg.members, (F(1), F(2)))
    assert cd.bounded is False
    shifted = CH.ParametricPolyhedron.make(
        [(1,), (-1,)], 1, offset_matrix=[(1,), (1,)], offset_const=(0, 1)
    )
    cd = CH.enumerate_bases(shifted)
    asg = CH.chamber_of(cd, (F(0), F(1)))
    with pytest.raises(ValueError, match="zero constant part"):
        CH.bv_limit_tfinite(cd, asg.members, (F(0),))


def _killing_covector(rng, u):
    """A nonzero covector vanishing on u (zero when d = 1)."""
    if len(u) == 1:
        return (F(0),)
    if len(u) == 2:
        return (u[1], -u[0])
    while True:
        w = tuple(F(rng.randrange(-3, 4)) for _ in range(3))
        mu = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
        if any(mu):
            return mu


def _limit_or_error(limit, cd, chamber, mu):
    try:
        return limit(cd, chamber, mu)
    except (ValueError, AssertionError) as exc:  # PoleCancellationError is an AssertionError
        return type(exc), str(exc)


@given(
    seed=st.integers(0, 2**32),
    d=st.integers(1, 3),
    kind=st.sampled_from(["zero", "random", "kills"]),
)
def test_limit_matches_the_polynomial_reference(seed, d, kind):
    # non-identity N x m offset maps, m = N included; the chamber is the one at
    # x(theta) for a random theta when P(x(theta)) is nonempty, else at a random x
    rng = random.Random(seed)
    base = rand_bounded_instance(rng, d, 6)
    n = base.n_constraints
    m = rng.randrange(1, n + 2)
    om = [tuple(F(rng.randrange(-2, 3)) for _ in range(m)) for _ in range(n)]
    pp = CH.ParametricPolyhedron.make(base.normals, d, offset_matrix=om)
    cd = CH.enumerate_bases(pp)
    try:
        asg = CH.chamber_of(cd, pp.offsets([F(rng.randrange(-4, 5)) for _ in range(m)]))
    except ValueError:
        asg = CH.chamber_of(cd, tuple(F(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(n)))
    if kind == "zero":
        mu = (F(0),) * d
    elif kind == "random":
        mu = tuple(F(rng.randrange(-3, 4)) for _ in range(d))
    else:
        duals = [u for s in sorted(asg.members, key=sorted) for u in cd.sigmas[s].dual_basis]
        mu = _killing_covector(rng, rng.choice(duals))
    got = _limit_or_error(CH.bv_limit_tfinite, cd, asg.members, mu)
    assert got == _limit_or_error(chamber_oracle.limit_tfinite, cd, asg.members, mu)


def test_chamber_instances_take_faces_from_their_rows():
    rng = random.Random(31)
    for d in (1, 2, 3, 4):
        for _ in range(6 if d < 4 else 3):
            pp = rand_bounded_instance(rng, d, d + 3)
            x = tuple(F(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(pp.n_constraints))
            assert_rows_match_points(PH.vertices(pp.instance(x)))


def _frac(rng):
    """A rational with denominator 2-7 (before reduction)."""
    return F(rng.randrange(-6, 7), rng.randrange(2, 8))


def rand_fractional_instance(rng, d, ncap):
    """Like `rand_bounded_instance`, with normal entries of denominators 2-7."""
    n = rng.randrange(d + 1, ncap + 1)
    while True:
        normals = tuple(tuple(_frac(rng) for _ in range(d)) for _ in range(n))
        try:
            pp = CH.ParametricPolyhedron.make(normals, d)
        except ValueError:
            continue
        if CH.is_bounded(pp):
            return pp


@given(seed=st.integers(0, 2**32), d=st.integers(1, 4))
def test_dual_numerators_over_their_denominator_are_the_inverse_columns(seed, d):
    rng = random.Random(seed)
    pp = rand_fractional_instance(rng, d, d + 3)
    n = pp.n_constraints
    cd = CH.enumerate_bases(pp)
    bases = []
    for comp in combinations(range(n), d):
        rows = [pp.normals[i] for i in comp]
        if vertex_oracle.fraction_det(rows) == 0:
            continue
        sigma = frozenset(range(n)) - frozenset(comp)
        bases.append(sigma)
        data = cd.sigmas[sigma]
        assert data.complement == comp and data.dual_den > 0
        assert math.gcd(data.dual_den, *(x for u in data.dual_nums for x in u)) == 1
        want = tuple(zip(*vertex_oracle.fraction_invert(rows)))  # the inverse's columns
        assert tuple(tuple(F(x, data.dual_den) for x in u) for u in data.dual_nums) == want
        assert data.dual_basis == want
        assert data.box_volume == 1 / abs(vertex_oracle.fraction_det(rows))
    assert list(cd.sigmas) == bases


def _slack_reference(pp, x):
    """(members, maximal) from `Fraction` vertices and slacks, one basis at a time."""
    n, d = pp.n_constraints, pp.dim
    members, maximal = set(), True
    for comp in combinations(range(n), d):
        try:
            v = vertex_oracle.fraction_solve([pp.normals[i] for i in comp], [-x[i] for i in comp])
        except ValueError:
            continue
        slacks = [vertex_oracle.fraction_dot(pp.normals[j], v) + x[j] for j in range(n) if j not in comp]
        if all(s >= 0 for s in slacks):
            members.add(frozenset(range(n)) - frozenset(comp))
            maximal = maximal and all(s > 0 for s in slacks)
    return frozenset(members), maximal


@given(seed=st.integers(0, 2**32), d=st.integers(1, 4), on_wall=st.booleans())
def test_chamber_of_matches_the_fraction_slacks_on_and_off_the_walls(seed, d, on_wall):
    # x puts a rational point v0 in P(x) at random positive slacks; on a wall,
    # d + 1 of them are 0, so a vertex candidate sits exactly on a non-defining row
    rng = random.Random(seed)
    pp = rand_fractional_instance(rng, d, d + 3)
    n = pp.n_constraints
    v0 = [_frac(rng) for _ in range(d)]
    tight = set(rng.sample(range(n), d + 1)) if on_wall else set()
    slack = [F(0) if j in tight else F(rng.randrange(1, 9), rng.randrange(1, 8)) for j in range(n)]
    x = tuple(s - vertex_oracle.fraction_dot(a, v0) for a, s in zip(pp.normals, slack))
    asg = CH.chamber_of(CH.enumerate_bases(pp), x)
    assert (asg.members, asg.maximal) == _slack_reference(pp, x)
    if len(vertex_oracle.fraction_rref([pp.normals[j] for j in tight], d)[1]) == d:
        assert not asg.maximal


def _fractional_mu(rng, kind, duals, d):
    """mu = 0, a random covector, or one killing a random dual vector, with denominators 2-7."""
    if kind == "zero":
        return (F(0),) * d
    if kind == "random":
        return tuple(_frac(rng) for _ in range(d))
    u = rng.choice(duals)
    i = next(i for i, a in enumerate(u) if a)
    while True:  # free entries off i, and the one at i that makes mu(u) = 0
        mu = [_frac(rng) for _ in range(d)]
        mu[i] = -sum((c * a for j, (c, a) in enumerate(zip(mu, u)) if j != i), F(0)) / u[i]
        if any(mu) or d == 1:
            return tuple(mu)


@given(seed=st.integers(0, 2**32), d=st.integers(1, 4), kind=st.sampled_from(["zero", "random", "kills"]))
def test_choose_mu0_matches_the_fraction_search(seed, d, kind):
    # integer normals give dual vectors that the first candidates vanish on
    rng = random.Random(seed)
    pp = rng.choice([rand_bounded_instance, rand_fractional_instance])(rng, d, d + 3)
    cd = CH.enumerate_bases(pp)
    asg = CH.chamber_of(cd, tuple(F(rng.randrange(1, 9), rng.randrange(1, 8)) for _ in range(pp.n_constraints)))
    duals = [u for s in sorted(asg.members, key=sorted) for u in cd.sigmas[s].dual_basis]
    mu = _fractional_mu(rng, kind, duals, d)
    assert CH.choose_mu0(cd, asg.members, mu) == chamber_oracle.choose_mu0(cd, asg.members, mu)


@given(
    seed=st.integers(0, 2**32),
    d=st.integers(1, 3),
    kind=st.sampled_from(["zero", "random", "kills"]),
)
def test_limit_matches_the_polynomial_reference_on_fractional_data(seed, d, kind):
    # normals, offset-map entries and mu with denominators 2-7, which the int
    # path clears; the chamber is found as in the integer-data test
    rng = random.Random(seed)
    base = rand_fractional_instance(rng, d, 6)
    n = base.n_constraints
    m = rng.randrange(1, n + 2)
    om = [tuple(_frac(rng) for _ in range(m)) for _ in range(n)]
    pp = CH.ParametricPolyhedron.make(base.normals, d, offset_matrix=om)
    cd = CH.enumerate_bases(pp)
    try:
        asg = CH.chamber_of(cd, pp.offsets([_frac(rng) for _ in range(m)]))
    except ValueError:
        asg = CH.chamber_of(cd, tuple(F(rng.randrange(1, 9), rng.randrange(1, 8)) for _ in range(n)))
    duals = [u for s in sorted(asg.members, key=sorted) for u in cd.sigmas[s].dual_basis]
    mu = _fractional_mu(rng, kind, duals, d)
    got = _limit_or_error(CH.bv_limit_tfinite, cd, asg.members, mu)
    assert got == _limit_or_error(chamber_oracle.limit_tfinite, cd, asg.members, mu)


def test_mu_of_wrong_length_is_rejected_before_any_other_work():
    cd = chamber_data(SQUARE)
    x = (F(0), F(0), F(2), F(3))
    asg = CH.chamber_of(cd, x)
    for mu in ((F(1),), (F(1), F(2), F(3))):
        message = f"^mu has length {len(mu)}, expected one entry per dimension \\(2\\)$"
        with pytest.raises(ValueError, match=message):
            CH.bv_integral(cd, asg.members, x, mu)
        with pytest.raises(ValueError, match=message):
            CH.bv_limit_tfinite(cd, asg.members, mu)
    # the unbounded ray's limit reports the length before its boundedness
    ray = CH.enumerate_bases(CH.ParametricPolyhedron.make([(1, 0), (0, 1), (1, 1)], 2))
    members = CH.chamber_of(ray, (F(1), F(1), F(1))).members
    with pytest.raises(ValueError, match="^mu has length 3, expected one entry per dimension"):
        CH.bv_limit_tfinite(ray, members, (F(1), F(2), F(0)))
