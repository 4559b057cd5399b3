"""Root data, parabolic combinatorics, projections, truncation indicator."""

import json
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from weylcone import polyhedra as PH
from weylcone import rootspace as RS
from weylcone.linalg import add, dot, mat_vec, sub, transpose, unit, vec

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)

A2 = RS.build_root_datum("A", 2)
A3 = RS.build_root_datum("A", 3)


def test_cartan_matrices():
    assert A2.cartan == ((F(2), F(-1)), (F(-1), F(2)))
    b2 = RS.build_root_datum("B", 2)
    c2 = RS.build_root_datum("C", 2)
    assert b2.cartan == ((F(2), F(-2)), (F(-1), F(2)))
    assert c2.cartan == ((F(2), F(-1)), (F(-2), F(2)))
    d2 = RS.build_root_datum("D", 2)
    assert d2.cartan == ((F(2), F(0)), (F(0), F(2)))  # A1 x A1
    d4 = RS.build_root_datum("D", 4)
    assert sum(1 for c in d4.cartan[1] if c == F(-1)) == 3  # trivalent node


def test_bad_datum_rejected():
    with pytest.raises(ValueError):
        RS.build_root_datum("E", 2)
    with pytest.raises(ValueError):
        RS.build_root_datum("A", 0)
    with pytest.raises(ValueError):
        RS.build_root_datum("D", 1)


def test_root_lengths():
    # B: last simple root short; C: last simple root long
    b3 = RS.build_root_datum("B", 3)
    c3 = RS.build_root_datum("C", 3)
    assert [b3.form_norm2(a) for a in b3.simple_roots] == [F(2), F(2), F(1)]
    assert [c3.form_norm2(a) for a in c3.simple_roots] == [F(2), F(2), F(4)]
    assert all(A3.form_norm2(a) == F(2) for a in A3.simple_roots)


def test_inner_symmetric_positive():
    for datum in (A2, RS.build_root_datum("B", 3), RS.build_root_datum("C", 2)):
        g = datum.inner
        assert g == tuple(tuple(row) for row in zip(*g))
        for i in range(datum.rank):
            e = unit(datum.rank, i)
            assert datum.norm2(e) > 0


def test_fundamental_weights_dual_to_coroots():
    for i, w in enumerate(A3.fundamental_weights):
        for j in range(3):
            assert dot(w, unit(3, j)) == (1 if i == j else 0)


def test_weights_of_counts():
    assert len(RS.weights_of(A2, "adjoint")) == 6
    assert len(RS.weights_of(A2, "standard")) == 3
    assert len(RS.weights_of(A2, "trivial")) == 0
    assert len(RS.weights_of(A2, "sym2")) == 6
    assert len(RS.weights_of(A2, "sym3")) == 9
    assert len(RS.weights_of(A2, (1, 1))) == 6  # highest weight = sum of fundamentals
    assert len(RS.weights_of(RS.build_root_datum("A", 3), "adjoint")) == 12


def test_weights_of_sym_powers_rank_one():
    a1 = RS.build_root_datum("A", 1)
    assert set(RS.weights_of(a1, "sym3")) == {(F(-3),), (F(-1),), (F(1),), (F(3),)}
    assert set(RS.weights_of(a1, "standard")) == {(F(-1),), (F(1),)}


def test_weights_closed_under_reflection():
    ws = set(RS.weights_of(A2, "adjoint"))
    for i in range(2):
        for w in ws:
            r = RS.reflect(A2, i, w)
            assert r in ws or all(c == 0 for c in r)


@pytest.mark.parametrize("ctype,rank", [(t, n) for t in "ABCD" for n in range(2, 6)])
def test_adjoint_weights_are_the_roots(ctype, rank):
    """|adjoint weights| = |Phi| in closed form, and every s_i maps the roots to roots."""
    datum = RS.build_root_datum(ctype, rank)
    ws = set(RS.weights_of(datum, "adjoint"))
    n = rank
    assert len(ws) == {"A": n * (n + 1), "B": 2 * n * n, "C": 2 * n * n, "D": 2 * n * (n - 1)}[ctype]
    for i in range(rank):
        assert {RS.reflect(datum, i, w) for w in ws} == ws


def test_weights_of_rejects_nondominant():
    with pytest.raises(ValueError):
        RS.weights_of(A2, (-1, 0))


def test_parabolic_lattice():
    p0 = RS.minimal_parabolic(A3)
    g = RS.full_group(A3)
    q = RS.parabolic(A3, {0})
    assert p0 <= q <= g
    assert q.levi == {1, 2}
    assert RS.parabolic_from_levi(A3, {1, 2}) == q
    assert not (q <= p0)
    between = list(RS.parabolics_between(p0, g))
    assert len(between) == 8  # all subsets of a rank-3 Delta
    assert len(list(RS.parabolics_between(q, g))) == 2


def test_delta_between_and_subspace_dims():
    p0 = RS.minimal_parabolic(A3)
    q = RS.parabolic(A3, {0})
    g = RS.full_group(A3)
    assert RS.delta_between(p0, q) == (1, 2)
    assert len(RS.subspace_basis(p0, q)) == 2
    assert len(RS.subspace_basis(q, g)) == 1
    assert len(RS.subspace_basis(p0, g)) == 3
    with pytest.raises(ValueError):
        RS.delta_between(q, p0)


@given(st.tuples(fracs, fracs, fracs))
def test_projection_orthogonal_decomposition(x):
    q = RS.parabolic(A3, {0, 2})
    xp = RS.project(x, q)
    resid = sub(vec(x), xp)
    # G-orthogonality of the complement, and idempotence
    assert dot(resid, mat_vec(A3.inner, xp)) == 0
    assert RS.project(xp, q) == xp


@given(st.tuples(fracs, fracs, fracs))
def test_projection_block_additivity(x):
    p = RS.parabolic(A3, {0, 1})
    q = RS.parabolic(A3, {0})
    assert RS.project(x, p, q) == sub(RS.project(x, p), RS.project(x, q))


@given(st.tuples(fracs, fracs, fracs), st.tuples(fracs, fracs, fracs))
def test_coproject_is_dual_to_project(lam, x):
    p = RS.parabolic(A3, {1})
    assert dot(RS.coproject(lam, p), x) == dot(vec(lam), RS.project(x, p))


def test_gamma_rank_one_interval():
    a1 = RS.build_root_datum("A", 1)
    p0 = RS.minimal_parabolic(a1)
    g = RS.full_group(a1)
    t = (F(2),)
    assert RS.gamma(p0, g, (F(1),), t) == 1
    assert RS.gamma(p0, g, (F(3),), t) == 0
    assert RS.gamma(p0, g, (F(-1),), t) == 0
    assert RS.gamma(p0, g, (F(0),), t) is RS.BOUNDARY
    assert RS.gamma(p0, g, (F(2),), t) is RS.BOUNDARY


def test_gamma_equal_pair_is_one():
    p0 = RS.minimal_parabolic(A2)
    assert RS.gamma(p0, p0, (F(5), F(-7)), (F(1), F(1))) == 1


def test_gamma_hull_points_count():
    p0 = RS.minimal_parabolic(A3)
    g = RS.full_group(A3)
    pts = RS.gamma_hull_points(p0, g, (F(3), F(2), F(3)))
    assert len(pts) == 8
    assert (F(0), F(0), F(0)) in pts


def test_gamma_matches_hull_membership_sampled():
    # dominant regular t; x unrestricted; ties resampled
    rng = random.Random(20260814)
    p0 = RS.minimal_parabolic(A2)
    g = RS.full_group(A2)
    pairs = [
        (p, q)
        for q in RS.parabolics_between(p0, g)
        for p in RS.parabolics_between(p0, q)
    ]
    done = 0
    while done < 300:
        p, q = pairs[rng.randrange(len(pairs))]
        x = tuple(F(rng.randrange(-16, 17), rng.randrange(1, 5)) for _ in range(2))
        t = tuple(F(rng.randrange(0, 17), rng.randrange(1, 5)) for _ in range(2))
        if any(dot(a, t) <= 0 for a in A2.simple_roots):
            continue
        gv = RS.gamma(p, q, x, t)
        if gv is RS.BOUNDARY:
            continue
        member = PH.in_hull(RS.gamma_hull_points(p, q, t), RS.project(x, p, q))
        assert gv == (1 if member else 0), (p.outside, q.outside, x, t)
        done += 1


def test_gamma_nested_blocks_compose():
    # over a maximal parabolic the indicator only sees the one-dimensional block,
    # here the segment from the origin to (0, 1/2)
    p0 = RS.minimal_parabolic(A2)
    q = RS.parabolic(A2, {0})
    t = (F(3), F(2))
    assert RS.gamma_hull_points(p0, q, t) == ((F(0), F(1, 2)), (F(0), F(0)))
    assert RS.gamma(p0, q, (F(0), F(1, 4)), t) == 1
    assert RS.gamma(p0, q, (F(0), F(1)), t) == 0
    assert RS.gamma(p0, q, (F(0), F(-1, 4)), t) == 0


def test_projection_sl5_example():
    a4 = RS.build_root_datum("A", 4)
    q = RS.parabolic_from_levi(a4, {2, 3})
    x = sub(unit(4, 1), unit(4, 0))
    assert RS.project(x, q) == (F(-1), F(1), F(2, 3), F(1, 3))


def test_datum_json_shape():
    blob = json.loads(RS.datum_to_json(A2, RS.weights_of(A2, "standard")))
    assert blob["type"] == "A" and blob["rank"] == 2
    assert len(blob["weights"]) == 3
    assert blob["simple_roots"][0] == ["2", "-1"]
    assert blob["fundamental_weights"] == [["1", "0"], ["0", "1"]]


def _rank(rows):
    """Rank over Q by plain Gaussian elimination (kept here, apart from linalg)."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("ctype,rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_project_and_coproject_against_their_defining_equations(ctype, rank):
    """y = X_P^Q is fixed by three facts, each checked with sums written here:
    y lies in a^Q (coordinates outside Q's Levi vanish) and is killed by the
    roots of P's Levi; x - y is G-orthogonal to that subspace, i.e. G(x - y)
    is a combination of exactly those cutting forms; and lambda(y) equals
    coproject(lambda)(x).  G is positive definite, so they determine y."""
    datum = RS.build_root_datum(ctype, rank)
    n = datum.rank
    g, cartan = datum.inner, datum.cartan
    rng = random.Random(f"project:{ctype}{rank}")
    draw = lambda: tuple(F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n))
    subsets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(2**n)]
    pairs = 0
    for p_out in subsets:
        for q_out in subsets:
            if not q_out <= p_out:
                continue
            p, q = RS.parabolic(datum, p_out), RS.parabolic(datum, q_out)
            coord = lambda j: tuple(F(int(k == j)) for k in range(n))
            cutting = [coord(j) for j in sorted(q_out)] + [cartan[i] for i in sorted(p.levi)]
            for _ in range(2):
                x, lam = draw(), draw()
                y = RS.project(x, p, q)
                assert all(y[j] == 0 for j in q_out)
                assert all(sum(cartan[i][k] * y[k] for k in range(n)) == 0 for i in p.levi)
                gr = tuple(sum(g[r][k] * (x[k] - y[k]) for k in range(n)) for r in range(n))
                assert _rank(cutting + [gr]) == _rank(cutting), (p_out, q_out, x)
                mu = RS.coproject(lam, p, q)
                assert sum(a * b for a, b in zip(lam, y)) == sum(a * b for a, b in zip(mu, x))
            pairs += 1
    assert pairs == 3**n


# --- the integer kernel against the Fraction bodies it replaced --------------


_reference_matrix = lru_cache(maxsize=None)(RS.projection_matrix)


def _project_reference(x, p, q):
    return mat_vec(_reference_matrix(p, q), vec(x))


def _coproject_reference(lam, p, q):
    return mat_vec(transpose(_reference_matrix(p, q)), vec(lam))


def _gamma_reference(p, q, x, t):
    """The inclusion-exclusion sum over P <= R <= Q, on Fraction projections."""
    roots = p.datum.simple_roots
    between = RS.delta_between(p, q)
    xp = _project_reference(x, p, q)
    y = sub(xp, _project_reference(t, p, q))
    for i in between:
        if dot(roots[i], xp) == 0 or y[i] == 0:
            return RS.BOUNDARY
    total = 0
    for k in range(len(between) + 1):
        for extra in combinations(between, k):
            rest = [i for i in between if i not in extra]
            if all(dot(roots[i], xp) > 0 for i in extra) and all(y[i] > 0 for i in rest):
                total += -1 if len(rest) % 2 else 1
    return total


def _onto_wall(x, form, value):
    """x moved along one coordinate so that form(x) == value."""
    j = next(j for j, c in enumerate(form) if c != 0)
    x = list(x)
    x[j] += (value - dot(form, x)) / form[j]
    return tuple(x)


KERNEL_DATA = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4)]
mixed = st.fractions(min_value=-9, max_value=9, max_denominator=36)


@pytest.mark.parametrize("ctype,rank", KERNEL_DATA)
# each example sweeps every pair, so a failure is reported as drawn (its
# message names the pair) rather than shrunk by rerunning the sweep
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(data=st.data())
def test_integer_kernel_matches_the_fraction_bodies(ctype, rank, data):
    datum = RS.build_root_datum(ctype, rank)
    x, lam, t = (data.draw(st.tuples(*[mixed] * rank)) for _ in range(3))
    p0, g = RS.minimal_parabolic(datum), RS.full_group(datum)
    for q in RS.parabolics_between(p0, g):
        for p in RS.parabolics_between(p0, q):
            for out, ref in (
                (RS.project(x, p, q), _project_reference(x, p, q)),
                (RS.coproject(lam, p, q), _coproject_reference(lam, p, q)),
                *zip(RS.gamma_hull_points(p, q, t), (_project_reference(t, r, q) for r in RS.parabolics_between(p, q))),
            ):
                assert out == ref and all(type(c) is F for c in out)
            assert RS.gamma(p, q, x, t) == _gamma_reference(p, q, x, t), (p.outside, q.outside, x, t)
            for i in RS.delta_between(p, q):
                root_form = _coproject_reference(datum.simple_roots[i], p, q)
                weight_form = _coproject_reference(unit(rank, i), p, q)
                wall_t = _project_reference(t, p, q)[i]
                for wall in (_onto_wall(x, root_form, 0), _onto_wall(x, weight_form, wall_t)):
                    assert RS.gamma(p, q, wall, t) is RS.BOUNDARY
                    assert _gamma_reference(p, q, wall, t) is RS.BOUNDARY
