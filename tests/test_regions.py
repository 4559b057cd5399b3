"""Weight-system cones, threshold recursion, refinement, slices, fits."""

import collections
import dataclasses
import functools
import itertools
import json
import math
import random
import types
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylcone import lp
from weylcone import polyhedra as PH
from weylcone import regions as RG
from weylcone.linalg import add, dot, invert, mat_mul, mat_vec, neg, nullspace, rank, scale, sub, transpose, vec
from weylcone.rootspace import (
    build_root_datum,
    coproject,
    full_group,
    minimal_parabolic,
    parabolic,
    parabolics_between,
    project,
    weights_of,
)

import distance_oracle
import polytope_oracle
import region_oracle

A2 = build_root_datum("A", 2)
P0 = minimal_parabolic(A2)
Q1 = parabolic(A2, frozenset({0}))
G2 = full_group(A2)

T = (F(8), F(8))
S = (F(1, 2), F(1, 2))


@pytest.fixture(scope="module")
def adjoint_psi():
    return RG.psi_pi(A2, weights_of(A2, "adjoint"))


@pytest.fixture(scope="module")
def standard_psi():
    return RG.psi_pi(A2, weights_of(A2, "standard"))


@pytest.fixture(scope="module")
def ctx(adjoint_psi):
    return RG.make_context(A2, P0, Q1, adjoint_psi, F(1, 4))


@pytest.fixture(scope="module")
def descs(ctx):
    return RG.decompose(ctx, T, S)


@pytest.fixture(scope="module")
def leaf(descs):
    return next(d for d in descs if d.pi_zero)


@pytest.fixture(scope="module")
def refinement(ctx, leaf):
    refs = RG.refine(ctx, leaf, leaf.pi_zero, T, S)
    assert len(refs) == 1
    return refs[0]


# --- weight systems ---------------------------------------------------------


def test_psi_pi_collects_nonzero_weights(adjoint_psi):
    assert len(adjoint_psi.functionals) == 6
    assert len(RG.pi_at(adjoint_psi, P0)) == 6
    assert RG.delta_p_at(adjoint_psi, P0) == ((F(-1), F(2)), (F(2), F(-1)))
    assert len(RG.psi_at(adjoint_psi, P0)) == 6  # roots are adjoint weights


def test_pi_at_coprojects_and_dedups(adjoint_psi):
    pi_q = RG.pi_at(adjoint_psi, Q1)
    assert pi_q == ((F(-3, 2), F(0)), (F(3, 2), F(0)))


def test_d_value_frozen_and_homogeneous(adjoint_psi):
    assert RG.d_value_squared((F(1), F(1)), adjoint_psi) == F(1, 2)
    assert RG.d_value_squared((F(3), F(1)), adjoint_psi) == F(1, 2)
    assert RG.d_value_squared((F(1), F(0)), adjoint_psi) == 0  # chamber wall
    rng = random.Random(4)
    for _ in range(10):
        x = (F(rng.randrange(1, 9)), F(rng.randrange(1, 9)))
        c = F(rng.randrange(1, 6), rng.randrange(1, 6))
        d1 = RG.d_value_squared(x, adjoint_psi)
        d2 = RG.d_value_squared(scale(c, x), adjoint_psi)
        assert d2 == c**2 * d1


def test_d_value_standard(standard_psi):
    assert RG.d_value_squared((F(3), F(1)), standard_psi) == F(1, 2)


# --- admissible kernels -----------------------------------------------------


def _echelon(rows):
    """Reduced row echelon form by plain Fraction elimination, zero rows dropped."""
    work = [list(map(F, r)) for r in rows]
    out = []
    for c in range(len(work[0]) if work else 0):
        piv = next((r for r in work if r[c] != 0), None)
        if piv is None:
            continue
        work.remove(piv)
        piv = [v / piv[c] for v in piv]
        work = [[v - r[c] * w for v, w in zip(r, piv)] for r in work]
        out = [[v - r[c] * w for v, w in zip(r, piv)] for r in out] + [piv]
    return tuple(sorted(tuple(r) for r in out))


def _brute_force_kernels(psi):
    """(p.outside, q.outside, span) for every independent subset S of the system
    at p whose span meets the forms vanishing on Q's Levi: the Levi(q) x |S|
    matrix S_j[i] has rank below |S|."""
    n = psi.datum.rank
    idx = range(n)
    subsets = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(idx, k)]
    out = set()
    for q_out, p_out in itertools.product(subsets, subsets):
        if not q_out or not q_out <= p_out:
            continue
        funcs = RG.psi_at(psi, parabolic(psi.datum, p_out))
        levi = [i for i in idx if i not in q_out]
        for size in range(1, n + 1):
            for combo in itertools.combinations(funcs, size):
                if len(_echelon(combo)) < size:
                    continue
                if len(_echelon([[f[i] for f in combo] for i in levi])) < size:
                    out.add((p_out, q_out, _echelon(combo)))
    return out


KERNEL_CASES = [
    (ctype, rank, rep)
    for ctype, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 2)]
    for rep in ("standard", "adjoint")
]


@pytest.mark.parametrize("ctype,rank,rep", KERNEL_CASES)
def test_admissible_kernels_match_brute_force(ctype, rank, rep):
    datum = build_root_datum(ctype, rank)
    psi = RG.psi_pi(datum, weights_of(datum, rep))
    order = [(p.outside, q.outside) for p, q in RG._proper_pairs(datum)]
    got = set()
    positions = []
    for p, q, kernels in distance_oracle.admissible_kernels(psi):
        positions.append(order.index((p.outside, q.outside)))
        spans = [_echelon(combo) for combo, _ in kernels]
        assert len(set(spans)) == len(spans)  # one kernel per span class
        for (combo, basis), span in zip(kernels, spans):
            got.add((p.outside, q.outside, span))
            # basis: nonzero forms inside span(combo) that vanish on Q's Levi
            assert basis and _echelon(list(combo) + list(basis)) == span
            assert all(f[i] == 0 for f in basis for i in q.levi)
    assert positions == sorted(positions) and len(set(positions)) == len(positions)
    assert got == _brute_force_kernels(psi)


@pytest.mark.parametrize(
    "ctype,rep,x,d2",
    [
        ("A", "standard", (F(11, 2), F(6), F(9, 2)), F(1, 3)),
        ("A", "adjoint", (F(17, 4), F(13, 2), F(23, 4)), F(2)),
        ("B", "adjoint", (F(6), F(10), F(11, 2)), F(1)),
        ("C", "adjoint", (F(11, 2), F(9), F(19, 2)), F(1, 4)),
    ],
)
def test_d_value_rank_three_pinned(ctype, rep, x, d2):
    datum = build_root_datum(ctype, 3)
    assert all(dot(a, x) > 0 for a in datum.simple_roots)  # regular dominant
    assert RG.d_value_squared(x, RG.psi_pi(datum, weights_of(datum, rep))) == d2


# points where d^2 = 0: on the boundary of the dominant cone or on a wall of the cone family
WALL_POINTS = {
    "A2/adjoint": [(1, 0), (0, 1)],
    "A2/standard": [(1, 1)],
    "B2/standard": [(1, 1)],
    "A3/standard": [(1, 1, 1)],
    "A3/adjoint": [(1, 0, 1)],
}


@pytest.mark.parametrize(
    "family",
    ["A2/adjoint", "A2/standard", "A2/sym2", "B2/standard", "B2/adjoint", "C2/standard", "C2/adjoint",
     "D2/adjoint", "A3/standard", "A3/adjoint", "B3/standard", "B3/adjoint", "C3/standard", "C3/adjoint"],
)
def test_d_value_matches_the_face_oracle(family):
    """d^2 by one min-norm point per kernel equals d^2 by face enumeration at
    seeded regular dominant points, and at wall points where it is 0."""
    ctype, rank, rep = family[0], int(family[1]), family[3:]
    datum = build_root_datum(ctype, rank)
    psi = RG.psi_pi(datum, weights_of(datum, rep))
    rng = random.Random(family)
    walls = [tuple(map(F, w)) for w in WALL_POINTS.get(family, [])]
    points = []
    while len(points) < (4 if rank == 2 else 2):
        x = tuple(F(rng.randrange(1, 40), rng.choice((1, 2, 4))) for _ in range(rank))
        if all(dot(a, x) > 0 for a in datum.simple_roots):
            points.append(x)
    for x in walls + points:
        d2 = RG.d_value_squared(x, psi)
        assert d2 == distance_oracle.d_value_squared(x, psi)
        assert (d2 == 0) == (x in walls)


def test_span_classes_built_once_per_p(monkeypatch):
    a3 = build_root_datum("A", 3)
    psi = RG.psi_pi(a3, weights_of(a3, "standard"))
    calls = []
    real = RG._span_classes

    def counting(funcs, n):
        calls.append(funcs)
        return real(funcs, n)

    monkeypatch.setattr(RG, "_span_classes", counting)
    RG.d_value_squared((F(11, 2), F(6), F(9, 2)), psi)
    assert len(calls) == 7  # one per nonempty p.outside, not one per proper pair (19)


def _span_classes_agree(funcs, n):
    got = list(RG._span_classes(funcs, n).items())
    assert got == list(region_oracle.span_classes_oracle(funcs, n).items())
    return len(got)


@pytest.mark.parametrize(
    "family",
    ["A2/adjoint", "A2/standard", "A2/sym2", "B2/adjoint", "B2/sym2", "C2/adjoint", "D2/adjoint",
     "A3/standard", "A3/adjoint", "B3/standard", "B3/adjoint", "C3/adjoint", "C3/sym2",
     "A4/standard", "A4/adjoint"],
)
def test_span_classes_match_the_subset_oracle(family):
    psi = _family_psi(family)
    for funcs in region_oracle.systems_at_every_p(psi):
        _span_classes_agree(funcs, psi.datum.rank)


def test_span_classes_of_parallel_and_zero_functionals_match_the_subset_oracle():
    # unsorted, led by a zero functional, with f and 2f, a multiple by 1/2 and
    # dependent triples: each class keeps its first independent subset
    f, g, h = vec((1, -1, 0)), vec((0, 2, 1)), vec((F(1, 3), 0, 1))
    funcs = [vec((0, 0, 0)), scale(2, f), g, f, add(f, g), scale(F(1, 2), g), h, sub(h, f), vec((0, 0, 5))]
    assert _span_classes_agree(funcs, 3) == 18  # 6 lines, 11 planes, the space
    assert list(RG._span_classes(funcs, 3).values())[:3] == [(funcs[1],), (funcs[2],), (funcs[4],)]
    # n = 1: every nonzero functional spans the line, and the first one keeps it
    line = [vec((F(-2, 3),)), vec((0,)), vec((5,))]
    assert _span_classes_agree(line, 1) == 1
    assert RG._span_classes(line, 1) == {(vec((1,)),): (line[0],)}


# (before, after): admissible kernels, and those that no kernel with the same
# span and a wider parabolic interval dominates
PRUNED_KERNELS = {
    "A2/standard": (12, 7),
    "A2/sym2": (12, 7),
    "B2/adjoint": (11, 6),
    "C2/adjoint": (11, 6),
    "D2/adjoint": (9, 4),
    "A3/standard": (129, 53),
    "A3/adjoint": (67, 43),
    "B3/adjoint": (117, 48),
    "C3/adjoint": (117, 48),
    "B4/standard": (513, 161),
    "D4/standard": (601, 195),
}


def _family_psi(family):
    datum = build_root_datum(family[0], int(family[1]))
    return RG.psi_pi(datum, weights_of(datum, family[3:]))


@pytest.mark.parametrize("family", sorted(PRUNED_KERNELS))
def test_dominated_kernels_are_dropped(family):
    psi = _family_psi(family)
    full = [basis for _, _, kernels in distance_oracle.admissible_kernels(psi) for _, basis in kernels]
    bases, terms = psi.kernels
    assert (len(full), len(terms)) == PRUNED_KERNELS[family]
    assert bases == tuple(dict.fromkeys(full))  # walls still come from every kernel


@functools.cache
def _unpruned(family):
    """psi, and per kernel of `distance_oracle.admissible_kernels` with nothing dropped: the
    forms S P_r for the parabolics r between p and q, and the metric
    (S M^-1 S^T)^-1."""
    psi = _family_psi(family)
    m_inv = invert(psi.datum.inner)
    return psi, [
        ([[coproject(f, r) for f in combo] for r in parabolics_between(p, q)],
         invert(mat_mul(mat_mul(combo, m_inv), transpose(combo))))
        for p, q, kernels in distance_oracle.admissible_kernels(psi)
        for combo, _ in kernels
    ]


@pytest.mark.parametrize("family", ["A4/standard", "D4/standard"])
@settings(max_examples=8)
@given(values=st.lists(st.fractions(0, 12, max_denominator=4).filter(bool), min_size=4, max_size=4))
def test_d_value_equals_the_unpruned_minimum(family, values):
    """d^2 over the undominated kernels equals the least min-norm term over
    every admissible kernel, at regular dominant points x given by their
    simple-root values."""
    psi, kernels = _unpruned(family)
    roots = psi.datum.simple_roots
    x = tuple(mat_vec(invert(roots), values))
    assert [dot(a, x) for a in roots] == values
    unpruned = min(polytope_oracle.min_norm_squared([[dot(f, x) for f in fs] for fs in hull], metric) for hull, metric in kernels)
    assert RG.d_value_squared(x, psi) == unpruned


def _kept_kernels(psi):
    """(p, q, combo) of every admissible kernel that no kernel with the same
    span and a wider interval dominates, in the order of `psi.kernels[1]`."""
    found = [(key, p, q, combo) for p, q, ks in RG._keyed_kernels(psi) for key, combo, _ in ks]
    intervals = {}
    for key, p, q, _ in found:
        intervals.setdefault(key, []).append((p.outside, q.outside))
    return [
        (p, q, combo) for key, p, q, combo in found
        if not any(qo <= q.outside and p.outside <= po and (po, qo) != (p.outside, q.outside)
                   for po, qo in intervals[key])
    ]


def test_d_value_runs_wolfe_only_where_the_nearest_vertex_is_not_optimal(monkeypatch):
    """At the wall points and at seeded points outside the dominant cone of
    A2 and A3 (standard and adjoint), some terms are settled at their nearest
    vertex and some fall back to Wolfe's algorithm.  Either way each term is
    the face oracle's distance from its kernel to its hull, and d^2 is the
    face oracle's d^2."""
    calls = []
    real = PH.min_norm_gram

    def counting(gram, start):
        calls.append(start)
        return real(gram, start)

    monkeypatch.setattr(PH, "min_norm_gram", counting)
    terms = 0
    for family in ["A2/standard", "A2/adjoint", "A3/standard", "A3/adjoint"]:
        psi = _family_psi(family)
        roots = psi.datum.simple_roots
        rng = random.Random(family)
        points = [tuple(map(F, w)) for w in WALL_POINTS.get(family, [])]
        while len(points) < 4:
            x = tuple(F(rng.randrange(-40, 41), rng.choice((1, 2, 4))) for _ in range(len(roots)))
            if any(dot(a, x) < 0 for a in roots):
                points.append(x)
        for x in points:
            assert RG.d_value_squared(x, psi) == distance_oracle.d_value_squared(x, psi), (family, x)
            for (p, q, combo), term in zip(_kept_kernels(psi), psi.kernels[1]):
                one = types.SimpleNamespace(kernels=((), (term,)))  # d^2 over this term alone
                hull = PH.VPolytope(tuple(sorted({project(x, r) for r in parabolics_between(p, q)})))
                want = distance_oracle.squared_distance(combo, hull, inner=psi.datum.inner)
                assert RG.d_value_squared(x, one) == want, (family, x, p.outside, q.outside, combo)
        terms += 2 * len(points) * len(psi.kernels[1])
    assert 0 < len(calls) < terms  # the fallback ran, and so did the shortcut


@pytest.mark.parametrize("family", ["A3/standard", "B3/adjoint", "D4/standard"])
def test_gram_rows_give_the_metric_of_each_term(family):
    """Evaluated at a seeded x, each term's integer Gram rows over its denom
    and den^2 are (S P_r x)^T G^-1 (S P_s x), G = S M^-1 S^T, computed here
    in Fractions from the kernel's combo; a repeated S P_r counts once."""
    psi = _family_psi(family)
    kept = _kept_kernels(psi)
    terms = psi.kernels[1]
    assert len(terms) == len(kept)
    m_inv = invert(psi.datum.inner)
    rng = random.Random(family)
    for _ in range(3):
        x = tuple(F(rng.randrange(-30, 31), rng.choice((1, 2, 3))) for _ in range(psi.datum.rank))
        den = math.lcm(*(v.denominator for v in x))
        mono = [den * a * den * b for i, a in enumerate(x) for b in x[i:]]
        for (p, q, combo), (gram, denom) in zip(kept, terms):
            g_inv = invert(mat_mul(mat_mul(combo, m_inv), transpose(combo)))
            forms = dict.fromkeys(tuple(coproject(f, r) for f in combo) for r in parabolics_between(p, q))
            hs = [[dot(f, x) for f in fs] for fs in forms]
            want = [[dot(h, mat_vec(g_inv, k)) for k in hs] for h in hs]
            got = [[F(sum(c * v for c, v in zip(row, mono)), denom * den * den) for row in rows] for rows in gram]
            assert got == want, (family, p.outside, q.outside, combo, x)


# --- cone families ----------------------------------------------------------


def test_pi_cones_adjoint_single_cell(adjoint_psi):
    fam = RG.pi_cones(adjoint_psi)
    assert fam.hyperplanes == ()
    assert len(fam.cones) == 1
    assert fam.cones[0].witness == (F(1), F(1))
    assert RG.suggest_epsilon(fam) == F(1, 4)


def test_pi_cones_standard_two_cells(standard_psi):
    fam = RG.pi_cones(standard_psi)
    assert fam.hyperplanes == ((F(1), F(-1)),)
    assert [c.signs for c in fam.cones] == [(1,), (-1,)]
    assert RG.cone_of(fam, (F(3), F(2))) == 0
    assert RG.cone_of(fam, (F(2), F(3))) == 1
    assert RG.cone_of(fam, (F(1), F(1))) is None  # on the wall
    assert RG.cone_of(fam, (F(1), F(0))) is None  # dominant boundary


def test_suggest_epsilon_certifies_witnesses(standard_psi):
    fam = RG.pi_cones(standard_psi)
    eps = RG.suggest_epsilon(fam)
    assert 0 < eps < 1
    fam_e = RG.with_epsilon(fam, eps)
    assert fam_e.epsilon == eps
    for cell in fam_e.cones:
        assert region_oracle.in_c_epsilon(fam_e, cell.witness)
    assert not region_oracle.in_c_epsilon(fam_e, (F(1), F(1)))


# Cell witnesses come from interior_point, so they depend on the exact pivot
# order of the LP kernel; the values are pinned from the Fraction tableau
# (A2 adjoint is pinned above).
@pytest.mark.parametrize(
    "ctype, rep, witnesses",
    [
        ("A", "standard", [(3, 2), (2, 3)]),
        ("A", "sym2", [(3, 2), (2, 3)]),
        ("B", "adjoint", [(2, F(3, 2))]),
        ("C", "adjoint", [(F(3, 2), 2)]),
        ("D", "adjoint", [(F(1, 2), F(1, 2))]),
    ],
)
def test_pi_cones_witnesses_are_pinned(ctype, rep, witnesses):
    datum = build_root_datum(ctype, 2)
    fam = RG.pi_cones(RG.psi_pi(datum, weights_of(datum, rep)))
    assert [c.witness for c in fam.cones] == [vec(w) for w in witnesses]


A3 = build_root_datum("A", 3)


@pytest.fixture(scope="module")
def a3_family():
    return RG.pi_cones(RG.psi_pi(A3, weights_of(A3, "standard")))


def test_pi_cones_a3_standard_is_pinned(a3_family):
    # the one tier-1 family with walls: the cell search prunes, and every
    # witness comes from a leaf LP with several wall rows
    walls = [(0, 1, -1), (1, -1, 0), (1, 0, -2), (1, 0, -1), (1, 0, F(-1, 2))]
    assert a3_family.hyperplanes == tuple(vec(w) for w in walls)
    witnesses = [(9, 7, 4), (7, 6, 4), (4, 5, 3), (3, 5, 4), (5, 7, 8), (5, 9, 12)]
    assert [c.witness for c in a3_family.cones] == [vec(w) for w in witnesses]
    assert [c.d2 for c in a3_family.cones] == [F(1, 2)] * 6


@pytest.mark.parametrize(
    "family, walls, cells",
    [
        ("B4/standard", [(0, 1, 0, F(-4, 3)), (1, -2, 0, 2), (1, 0, -1, 1), (1, 0, F(-1, 2), 0), (1, 0, 0, -1),
                         (1, 0, 0, F(-2, 3))], 13),
        ("D4/standard", [(0, 0, 1, -1), (0, 1, F(-4, 3), 0), (0, 1, 0, F(-4, 3)), (1, -2, 0, 2), (1, -2, 2, 0),
                         (1, 0, -1, 0), (1, 0, F(-2, 3), 0), (1, 0, F(-1, 2), F(-1, 2)), (1, 0, 0, -1),
                         (1, 0, 0, F(-2, 3))], 26),
    ],
)
def test_pi_cones_rank_four_is_pinned(family, walls, cells):
    # the walls come from every admissible kernel, not only the undominated ones
    fam = RG.pi_cones(_family_psi(family))
    assert fam.hyperplanes == tuple(vec(w) for w in walls)
    assert len(fam.cones) == cells


def test_pi_cones_checks_epsilon_before_any_work(monkeypatch):
    def no_cells(*args, **kwargs):
        raise AssertionError("a non-positive epsilon must be rejected before the cell search")

    monkeypatch.setattr(RG, "_cells", no_cells)
    psi = RG.psi_pi(A3, weights_of(A3, "standard"))
    for eps in (0, F(-1, 4)):
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            RG.pi_cones(psi, eps)
    assert "kernels" not in vars(psi)  # nor were the kernels built


def test_in_c_epsilon_requires_epsilon(adjoint_psi):
    fam = RG.pi_cones(adjoint_psi)
    with pytest.raises(ValueError):
        region_oracle.in_c_epsilon(fam, (F(1), F(1)))


def _root_coords(datum):
    return invert(transpose(datum.simple_roots))


@pytest.mark.parametrize(
    "family", [f"{t}{r}/{rep}" for r in (2, 3) for t in "ABCD" for rep in ("standard", "adjoint", "sym2")]
)
def test_wall_test_matches_the_lp_oracle(family):
    """The closed-form wall test against one feasibility LP on every kernel basis."""
    psi = _family_psi(family)
    datum = psi.datum
    coords = _root_coords(datum)
    bases = psi.kernels[0]
    assert {len(b) for b in bases} == set(range(1, datum.rank + 1))
    for b in bases:
        assert RG._meets_signed_root_cone(datum, b, coords) == region_oracle.meets_signed_root_cone_lp(datum, b), b


@st.composite
def root_cone_bases(draw, n):
    """(datum, basis, separated): k = 1..n independent forms at rank n.  A
    separated basis lies in the annihilator of some nu with nu.alpha_i > 0 for
    every simple root, so its span misses the signed root cone; by the
    alternative theorem every span that misses it lies in such an annihilator.
    The other bases mix random integer forms and signed nonnegative
    combinations of the simple roots."""
    datum = build_root_datum(draw(st.sampled_from("ABCD")), n)
    roots = datum.simple_roots
    separated = draw(st.booleans())
    k = draw(st.integers(1, n - 1 if separated else n))
    ints = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    if separated:
        nu = mat_vec(invert(roots), draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))  # nu.alpha_i >= 1
    rows = []
    for _ in range(k):
        if separated:
            r = vec(draw(ints))
            rows.append(add(scale(dot(nu, nu), r), scale(-dot(r, nu), nu)))
        elif draw(st.booleans()):
            c = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            rows.append(scale(draw(st.sampled_from((1, -1))), mat_vec(transpose(roots), c)))
        else:
            rows.append(vec(draw(ints)))
    assume(len(_echelon(rows)) == k)
    return datum, tuple(rows), separated


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@given(data=st.data())
def test_wall_test_matches_the_lp_oracle_on_random_bases(n, data):
    datum, basis, separated = data.draw(root_cone_bases(n))
    got = RG._meets_signed_root_cone(datum, basis, _root_coords(datum))
    assert got == region_oracle.meets_signed_root_cone_lp(datum, basis)
    assert not (separated and got)


@pytest.mark.parametrize("family", ["A2/standard", "A3/standard"])
def test_pi_cones_solves_no_wall_lp_below_rank_four(family, monkeypatch):
    psi = _family_psi(family)
    psi.kernels  # built before counting
    calls, real = [], RG.lp.feasible_point

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(RG.lp, "feasible_point", counting)
    assert RG.pi_cones(psi).hyperplanes
    assert calls == []


# --- nested hulls -----------------------------------------------------------


def test_r_prime_hull_and_validations():
    hull = RG.r_prime(P0, G2, (F(3), F(2)))
    assert len(hull.vertices) == 4
    assert (F(0), F(0)) in hull.vertices
    with pytest.raises(ValueError):
        RG.r_prime(P0, G2, (F(1), F(-1)))
    with pytest.warns(UserWarning):
        RG.r_prime(P0, G2, (F(2, 3), F(1, 3)))  # on a chamber wall


def test_faces_lemma31_census_matches_lattice():
    t = (F(3), F(2))
    lem = RG.faces_lemma31(P0, G2, t)
    assert len(lem) == 9  # chains P0 <= P1 <= P2 <= G in rank two
    hull = RG.r_prime(P0, G2, t)
    lattice = polytope_oracle.face_lattice(polytope_oracle.to_hrep(hull))
    assert {frozenset(v) for v in lem.values()} == {frozenset(f) for f in lattice.values()}


def test_r_region_minkowski_and_gamma_validation():
    rng = random.Random(9)
    m = RG.r_region(P0, Q1, T, S, validate_samples=100, rng=rng)
    a = RG.r_prime(P0, Q1, T)
    b = RG.r_prime(Q1, G2, S)
    assert PH.volume(m) >= PH.volume(a)
    assert set(PH.minkowski_sum(a, b).vertices) == set(m.vertices)


# --- constants kappa, B -----------------------------------------------------


def test_kappa_frozen_values(adjoint_psi):
    assert RG.kappa(A2, RG.psi_at(adjoint_psi, P0)) == 2
    d2 = build_root_datum("D", 2)
    assert RG.kappa(d2, d2.simple_roots) == 2  # orthogonal pair, exact


def test_kappa_at_least_two():
    b3 = build_root_datum("B", 3)
    assert RG.kappa(b3, b3.simple_roots) >= 2


@pytest.mark.parametrize(
    "kind,rank,rep",
    [(t, r, rep) for t in "ABCD" for r in (2, 3, 4) for rep in ("standard", "adjoint") if r < 4 or rep == "standard"],
)
def test_kappa_matches_the_combination_loop(kind, rank, rep):
    datum = build_root_datum(kind, rank)
    psi = RG.psi_pi(datum, weights_of(datum, rep))
    for p in (minimal_parabolic(datum), parabolic(datum, frozenset({0}))):
        funcs = RG.psi_at(psi, p)
        assert RG.kappa(datum, funcs) == region_oracle.kappa_oracle(datum, funcs)


def test_b_functional_frozen(ctx):
    assert ctx.kappa_sq == 2
    assert ctx.b_form == (F(1, 8), F(-1, 16))
    assert ctx.largeness_sq == 64
    assert dot(ctx.b_form, (F(1), F(1))) > 0  # positive on the witness ray


def test_b_functional_other_types():
    b3 = build_root_datum("B", 3)
    b = RG.b_functional(b3, F(1, 8), RG.kappa(b3, b3.simple_roots))
    assert any(c != 0 for c in b)


def test_make_context_validations(adjoint_psi):
    with pytest.raises(ValueError):
        RG.make_context(A2, P0, G2, adjoint_psi, F(1, 4))  # q not proper
    with pytest.raises(ValueError):
        RG.make_context(A2, Q1, parabolic(A2, frozenset({1})), adjoint_psi, F(1, 4))


# --- well-situated pairs ----------------------------------------------------


def test_well_situated_fixture(ctx):
    rep = RG.well_situated_report(ctx, T, S)
    assert rep.ok and rep.failures == () and rep.cone_index == 0


def test_well_situated_failures(ctx):
    rep = RG.well_situated_report(ctx, T, (F(2), F(2)))
    assert not rep.ok and "|S| exceeds 1" in rep.failures
    rep = RG.well_situated_report(ctx, (F(1), F(1)), S)
    assert any("largeness" in f for f in rep.failures)
    rep = RG.well_situated_report(ctx, (F(8), F(0)), S)
    assert "T lies in no open cone cell" in rep.failures


def test_well_situated_cone_split(standard_psi):
    fam = RG.pi_cones(standard_psi)
    eps = RG.suggest_epsilon(fam)
    ctx2 = RG.make_context(A2, P0, Q1, standard_psi, eps)
    rep = RG.well_situated_report(ctx2, (F(240), F(160)), (F(2, 4), F(3, 4)))
    assert "T and S lie in different cone cells" in rep.failures


# --- decomposition ----------------------------------------------------------


def test_decompose_rejects_bad_inputs(ctx):
    with pytest.raises(ValueError):
        RG.decompose(ctx, (F(1), F(1)), S)


def test_decompose_fixture_shape(descs):
    assert len(descs) == 2
    assert [len(d.lambdas[0]) for d in descs] == [6, 4]
    assert all(d.deltas == (F(1),) for d in descs)
    assert descs[0].pi_zero == ()
    assert descs[1].pi_zero == ((F(-1), F(2)), (F(1), F(-2)))


def test_decompose_descriptors_are_pinned():
    d2 = build_root_datum("D", 2)
    psi = RG.psi_pi(d2, weights_of(d2, "adjoint"))
    ctx = RG.make_context(d2, minimal_parabolic(d2), parabolic(d2, frozenset({1})), psi, F(1, 3))
    descs = RG.decompose(ctx, (F(9, 2), F(5)), (F(9, 32), F(9, 32)))
    pi = ((-2, 0), (0, -2), (0, 2), (2, 0))
    assert [(d.pi, d.pi_plus, d.lambdas, d.deltas) for d in descs] == [
        (pi, ((0, 2), (2, 0)), (pi,), (1,)),
        (pi, ((0, 2), (2, 0)), (((0, -2), (0, 2)),), (1,)),
    ]


def test_certificate_error_names_the_region_and_parameters(ctx, monkeypatch):
    monkeypatch.setattr(RG, "_kernel_meets", lambda region_h, forms_y: False)  # force a certificate
    monkeypatch.setattr(RG.lp, "lexmin_point", lambda *args, **kwargs: None)
    with pytest.raises(RG.CertificateError) as err:
        RG.decompose(ctx, T, S)
    msg = str(err.value)
    assert msg.startswith("no exact certificate for the next threshold level")
    assert "p=(0, 1) q=(0) pi_plus=((-1, 2), (1, 1), (2, -1))" in msg
    assert "lambdas=(((-2, 1), (-1, -1), (-1, 2), (1, -2), (1, 1), (2, -1))) deltas=(1)" in msg
    assert msg.endswith("T=(8, 8) S=(1/2, 1/2)]")


@pytest.mark.parametrize(
    "certificate, start",
    [
        (F(2), "next threshold 2 escapes (0, 1]"),
        (F(1, 10**9), "threshold level with empty split cell"),
    ],
    ids=["escapes", "empty-cell"],
)
def test_decompose_guards_name_the_region_that_failed(ctx, monkeypatch, certificate, start):
    """A threshold above its parent's, or a split cell with no weight above
    the threshold, raises and names the level-0 region it came from."""
    monkeypatch.setattr(RG, "_kernel_meets", lambda region_h, forms_y: False)  # force a certificate
    monkeypatch.setattr(RG, "_certificate", lambda ctx, desc, t, s: certificate)
    with pytest.raises(RG.CertificateError) as err:
        RG.decompose(ctx, T, S)
    msg = str(err.value)
    assert msg.startswith(start)
    assert "lambdas=(((-2, 1), (-1, -1), (-1, 2), (1, -2), (1, 1), (2, -1))) deltas=(1)" in msg
    assert msg.endswith("T=(8, 8) S=(1/2, 1/2)]")


def test_transport_error_names_the_region_and_parameters(ctx, leaf):
    with pytest.raises(RG.TransportError) as err:
        RG.region_vertices_affine(ctx, leaf, T, S, check=[((F(8), F(30)), S)])
    msg = str(err.value)
    assert "leaves the region at the new parameters" in msg
    assert "lambdas=(((-2, 1), (-1, -1), (1, 1), (2, -1))) deltas=(1)" in msg
    assert msg.endswith("T=(8, 8) S=(1/2, 1/2) T2=(8, 30) S2=(1/2, 1/2)]")


def test_decompose_partitions_volume(ctx, descs):
    base = RG.r_region(P0, Q1, T, S)
    vols = []
    for d in descs:
        h = RG.instantiate(RG.region_inequalities(ctx.psi, d), ctx.basis, ctx.b_form, T, S)
        vols.append(PH.volume(PH.vertices(h)))
    assert vols == [F(15, 8), F(1, 8)]
    assert sum(vols) == PH.volume(base) == 2


def test_decompose_membership_unique(ctx, descs):
    base = RG.r_region(P0, Q1, T, S)
    hs = [
        RG.instantiate(RG.region_inequalities(ctx.psi, d), ctx.basis, ctx.b_form, T, S)
        for d in descs
    ]
    lo = [min(v[i] for v in base.vertices) for i in range(2)]
    hi = [max(v[i] for v in base.vertices) for i in range(2)]
    rng = random.Random(12)
    done = 0
    while done < 300:
        x = tuple(
            l + F(rng.randrange(0, 257), 256) * (h - l) for l, h in zip(lo, hi)
        )
        if not PH.in_hull(base.vertices, x):
            continue
        strict = sum(
            1 for h in hs if all(dot(a, x) + c > 0 for a, c in zip(h.normals, h.offsets))
        )
        touching = any(
            polytope_oracle.contains(h, x)
            and not all(dot(a, x) + c > 0 for a, c in zip(h.normals, h.offsets))
            for h in hs
        )
        if touching:
            continue  # measure-zero shared boundary
        assert strict == 1, x
        done += 1


def test_decompose_deterministic_and_parallel(ctx, descs):
    assert RG.decompose(ctx, T, S) == descs
    assert RG.decompose(ctx, T, S, jobs=2) == descs


# A rank-3 region with several sign cells: P0 <= Q{2} in A3 standard.
A3_T = (F(99), F(77), F(44))
A3_S = (F(3, 5), F(7, 15), F(4, 15))


@pytest.fixture(scope="module")
def a3_ctx(a3_family):
    q = parabolic(A3, frozenset({2}))
    return RG.make_context(A3, minimal_parabolic(A3), q, a3_family.psi, F(1, 40), family=a3_family)


def test_decompose_starts_no_process_whatever_jobs(a3_ctx, monkeypatch):
    """`jobs` is accepted and ignored: three sign cells, jobs=50, and not one process starts."""
    import concurrent.futures
    import multiprocessing.process

    serial = RG.decompose(a3_ctx, A3_T, A3_S)

    def refuse(*args, **kwargs):
        raise AssertionError("decompose must start no process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    assert RG.decompose(a3_ctx, A3_T, A3_S, jobs=50) == serial


def test_rank_three_decomposition_partitions_the_region(a3_ctx):
    descs = RG.decompose(a3_ctx, A3_T, A3_S)
    assert len({d.pi_plus for d in descs}) == 3 and len(descs) == 10
    assert RG.decompose(a3_ctx, A3_T, A3_S, jobs=2) == descs  # jobs is accepted; the run is serial
    base_h = RG.instantiate(
        RG.base_inequalities(a3_ctx.psi, a3_ctx.p, a3_ctx.q), a3_ctx.basis, a3_ctx.b_form, A3_T, A3_S
    )
    base = PH.vertices(base_h)
    hs = [
        RG.instantiate(RG.region_inequalities(a3_ctx.psi, d), a3_ctx.basis, a3_ctx.b_form, A3_T, A3_S)
        for d in descs
    ]
    hull = RG.r_region(a3_ctx.p, a3_ctx.q, A3_T, A3_S)
    assert sum(PH.volume(PH.vertices(h)) for h in hs) == PH.volume(base) == PH.volume(hull) == F(20086, 45)

    def strict(h, x):
        return all(dot(a, x) + c > 0 for a, c in zip(h.normals, h.offsets))

    lo = [min(v[i] for v in base.vertices) for i in range(3)]
    hi = [max(v[i] for v in base.vertices) for i in range(3)]
    rng = random.Random(13)
    done = 0
    while done < 300:
        x = tuple(a + F(rng.randrange(0, 1025), 1024) * (b - a) for a, b in zip(lo, hi))
        if not strict(base_h, x) or any(polytope_oracle.contains(h, x) and not strict(h, x) for h in hs):
            continue  # outside, or on a measure-zero shared boundary
        assert sum(1 for h in hs if strict(h, x)) == 1, x
        done += 1


# The paper's recursion past level 0: P0 <= Q{a1, a2} in A3 adjoint, at the
# family's suggested epsilon, needs one certificate LP and a second threshold.
A3_ADJ_T = (F(28), F(217, 8), F(73, 4))
A3_ADJ_S = (F(33, 64), F(1, 2), F(67, 192))


@pytest.fixture(scope="module")
def a3_adjoint_family():
    return RG.pi_cones(RG.psi_pi(A3, weights_of(A3, "adjoint")))


def test_a3_adjoint_recursion_reaches_a_second_threshold(a3_adjoint_family, monkeypatch):
    fam = a3_adjoint_family
    eps = RG.suggest_epsilon(fam)
    assert eps == F(811672525, 8589934592)
    q = parabolic(A3, frozenset({2}))  # Levi {a1, a2}
    ctx3 = RG.make_context(A3, minimal_parabolic(A3), q, fam.psi, eps, family=fam)
    calls = []
    lexmin = RG.lp.lexmin_point

    def counting(*args, **kwargs):
        calls.append(1)
        return lexmin(*args, **kwargs)

    monkeypatch.setattr(RG.lp, "lexmin_point", counting)
    descs = RG.decompose(ctx3, A3_ADJ_T, A3_ADJ_S)
    assert calls  # the certificate LP really ran
    index = {w: i for i, w in enumerate(fam.psi.weights)}
    assert [[[index[w] for w in level] for level in d.lambdas] for d in descs] == [
        [list(range(12))],
        [[0, 1, 2, 3, 5, 6, 8, 9, 10, 11]],
        [list(range(1, 11))],
        [[1, 2, 3, 5, 6, 8, 9, 10], [0, 4, 7, 11]],
        [[1, 2, 3, 5, 6, 8, 9, 10], [0, 11]],
        [[1, 2, 3, 5, 6, 8, 9, 10], [4, 7]],
        [[2, 3, 5, 6, 8, 9]],
    ]
    assert [d.deltas for d in descs] == [(1,)] * 3 + [(1, F(1, 12))] * 3 + [(1,)]
    hs = [RG.instantiate(RG.region_inequalities(ctx3.psi, d), ctx3.basis, ctx3.b_form, A3_ADJ_T, A3_ADJ_S) for d in descs]
    total = sum(PH.volume(PH.vertices(h)) for h in hs)
    assert total == PH.volume(RG.r_region(ctx3.p, ctx3.q, A3_ADJ_T, A3_ADJ_S)) == F(7811731, 147456)


def test_a3_leaves_take_faces_from_their_rows(a3_ctx, a3_adjoint_leaves):
    ctx3, descs3 = a3_adjoint_leaves
    cases = [(a3_ctx, RG.decompose(a3_ctx, A3_T, A3_S), A3_T, A3_S), (ctx3, descs3, A3_ADJ_T, A3_ADJ_S)]
    for c, descs, t, s in cases:
        hs = [RG.instantiate(RG.base_inequalities(c.psi, c.p, c.q), c.basis, c.b_form, t, s)]
        hs += [RG.instantiate(RG.region_inequalities(c.psi, d), c.basis, c.b_form, t, s) for d in descs]
        for h in hs:
            polytope_oracle.assert_rows_match_points(PH.vertices(h))


# The recursion at rank 4: P0 <= Q in A4 adjoint at the family's suggested
# epsilon, with T and S as perfbench's rank-4 inputs place them.
A4 = build_root_datum("A", 4)
A4_ADJ_T = (F(119), F(119), F(102), F(68))
A4_ADJ_S = (F(7, 9), F(7, 9), F(2, 3), F(4, 9))


@pytest.fixture(scope="module")
def a4_adjoint_family():
    return RG.pi_cones(RG.psi_pi(A4, weights_of(A4, "adjoint")))


@pytest.mark.parametrize(
    "outside,leaves,deepest,certificates",
    [({0}, 48, (1, F(1, 20), F(1, 400)), 10), ({1}, 17, (1, F(1, 20)), 2)],
    ids=["Q{0}", "Q{1}"],
)
def test_a4_adjoint_recursion_is_pinned(a4_adjoint_family, monkeypatch, outside, leaves, deepest, certificates):
    fam = a4_adjoint_family
    eps = RG.suggest_epsilon(fam)
    assert eps == F(134060717, 8589934592)
    ctx4 = RG.make_context(A4, minimal_parabolic(A4), parabolic(A4, frozenset(outside)), fam.psi, eps, family=fam)
    calls = []
    lexmin = RG.lp.lexmin_point

    def counting(*args, **kwargs):
        calls.append(1)
        return lexmin(*args, **kwargs)

    monkeypatch.setattr(RG.lp, "lexmin_point", counting)
    descs = RG.decompose(ctx4, A4_ADJ_T, A4_ADJ_S)
    assert len(descs) == leaves
    depth = max(len(d.deltas) for d in descs)
    assert {d.deltas for d in descs if len(d.deltas) == depth} == {deepest}
    assert len(calls) == certificates


@pytest.fixture(scope="module")
def a3_adjoint_leaves(a3_adjoint_family):
    fam = a3_adjoint_family
    q = parabolic(A3, frozenset({2}))  # Levi {a1, a2}
    ctx3 = RG.make_context(A3, minimal_parabolic(A3), q, fam.psi, RG.suggest_epsilon(fam), family=fam)
    return ctx3, RG.decompose(ctx3, A3_ADJ_T, A3_ADJ_S)


def test_a3_adjoint_recursion_leaves_transport_refine_and_partition(a3_adjoint_leaves):
    ctx3, descs = a3_adjoint_leaves
    t, s = A3_ADJ_T, A3_ADJ_S
    check = [(add(t, (F(1, 4), F(0), F(0))), s), (add(t, (F(1, 2), F(0), F(0))), s)]
    for d in descs:
        assert RG.region_vertices_affine(ctx3, d, t, s, check=check)
    refinable = [d for d in descs if d.pi_zero]
    assert len(refinable) == 5
    assert all(len(RG.refine(ctx3, d, d.pi_zero, t, s)) == 1 for d in refinable)
    assert RG.lemma33_equivalence(ctx3, t, s) == ()
    assert RG.decompose(ctx3, t, s, jobs=2) == descs

    base_h = RG.instantiate(RG.base_inequalities(ctx3.psi, ctx3.p, ctx3.q), ctx3.basis, ctx3.b_form, t, s)
    hs = [RG.instantiate(RG.region_inequalities(ctx3.psi, d), ctx3.basis, ctx3.b_form, t, s) for d in descs]

    def strict(h, x):
        return all(dot(a, x) + c > 0 for a, c in zip(h.normals, h.offsets))

    base = PH.vertices(base_h).vertices
    lo = [min(v[i] for v in base) for i in range(3)]
    hi = [max(v[i] for v in base) for i in range(3)]
    rng = random.Random(7)
    done = 0
    while done < 300:
        x = tuple(a + F(rng.randrange(0, 1025), 1024) * (b - a) for a, b in zip(lo, hi))
        if not strict(base_h, x) or any(polytope_oracle.contains(h, x) and not strict(h, x) for h in hs):
            continue  # outside, or on a measure-zero shared boundary
        assert sum(1 for h in hs if strict(h, x)) == 1, x
        done += 1


# --- the cell search: inherited witnesses against one LP per sign vector -------


@st.composite
def arrangements(draw):
    """(h, forms, level): h a box with corner v = (c, 0, ..., 0), maybe cut by up
    to two halfspaces; 1-4 small integer forms, some through v at level c, so
    that some LP witnesses land on a later form's hyperplane, and some zero,
    whose cells are all empty at level 0 though every witness lies on them."""
    dim = draw(st.integers(1, 3))
    c = draw(st.sampled_from([0, 1, -2]))
    corner = [c] + [0] * (dim - 1)
    width = st.integers(1, 3)
    around = draw(st.booleans())  # v inside the box rather than at a corner
    pairs = []
    for i, x in enumerate(corner):
        if around:
            lo, hi = x - draw(width), x + draw(width)
        else:
            lo, hi = sorted((x, x + draw(width) * draw(st.sampled_from([1, -1]))))
        e = [0] * dim
        e[i] = 1
        pairs += [(e, -lo), ([-v for v in e], hi)]  # lo <= y_i <= hi
    coef = st.integers(-2, 2)
    for _ in range(draw(st.integers(0, 2))):  # a.y <= b
        a = draw(st.lists(coef, min_size=dim, max_size=dim))
        if any(a):
            pairs.append(([-v for v in a], draw(st.integers(-1, 3))))
    through = draw(st.booleans())
    level = F(c) if through else draw(st.sampled_from([F(0), F(1), F(-1), F(1, 2)]))
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.lists(coef, min_size=dim, max_size=dim))
        if draw(st.integers(0, 7)) == 0:
            f = [0] * dim
        if through and c and draw(st.booleans()):
            f[0] = 1  # f.v = c = level: the hyperplane passes through the corner v
        forms.append(vec(f))
    return PH.HPolyhedron.from_pairs(pairs, dim), forms, level


@settings(max_examples=150)
@given(arrangements())
def test_cells_match_one_lp_per_sign_vector(case):
    h, forms, level = case
    base_rows, base_rhs = [neg(a) for a in h.normals], list(h.offsets)
    expected = {}
    for signs in itertools.product((1, -1), repeat=len(forms)):
        rows = base_rows + [scale(-s, f) for s, f in zip(signs, forms)]  # s (f.y - level) > 0
        rhs = base_rhs + [-s * level for s in signs]
        point = lp.interior_point(h.dim, a_strict=rows, b_strict=rhs)
        if point is not None:
            expected[signs] = point
    assert list(RG._cells(h, forms, level)) == list(expected)


def _cells_by_lp(h, forms, level):
    """The sign vectors of `_cells`, in its order, by one `lp.interior_point` each."""
    base_rows, base_rhs = [neg(a) for a in h.normals], list(h.offsets)
    return [
        signs
        for signs in itertools.product((1, -1), repeat=len(forms))
        if lp.interior_point(
            h.dim,
            a_strict=base_rows + [scale(-s, f) for s, f in zip(signs, forms)],  # s (f.y - level) > 0
            b_strict=base_rhs + [-s * level for s in signs],
        )
        is not None
    ]


@st.composite
def pointed_arrangements(draw):
    """(h, forms, level): h the simplicial cone {a_i.(y - v) >= 0} of dim independent
    small integer normals a_i with apex v, maybe cut by one more halfspace, so
    that it is pointed and mostly unbounded, unlike `arrangements()`' boxes;
    1-4 small integer forms at a level 0 or not, some moved to pass through v."""
    dim = draw(st.integers(1, 3))
    coef = st.integers(-2, 2)
    vector = st.lists(coef, min_size=dim, max_size=dim)
    normals = draw(st.lists(vector, min_size=dim, max_size=dim))
    assume(rank([vec(a) for a in normals], dim) == dim)
    apex = vec(draw(st.sampled_from([[0] * dim, draw(vector)])))
    pairs = [(a, -dot(vec(a), apex)) for a in normals]
    if draw(st.booleans()):
        a, c = draw(vector), draw(st.integers(-2, 3))
        pairs += [(a, c)] if any(a) or c >= 0 else []  # a zero normal needs c >= 0
    level = draw(st.sampled_from([F(0), F(0), F(1), F(-2), F(1, 2)]))
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        f = list(vec(draw(vector)))
        j = next((i for i, x in enumerate(apex) if x), None)
        if j is not None and draw(st.booleans()):
            f[j] += (level - dot(vec(f), apex)) / apex[j]  # f.v = level: through the apex
        forms.append(vec(f))
    return PH.HPolyhedron.from_pairs(pairs, dim), forms, level


@settings(max_examples=150)
@given(pointed_arrangements())
def test_cells_of_pointed_cones_match_one_lp_per_sign_vector(case):
    h, forms, level = case
    assert list(PH.arrangement_cells(h, forms, level)) == _cells_by_lp(h, forms, level)


def test_a_zero_row_leaves_no_cell():
    box = PH.HPolyhedron.from_pairs([((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)], 2)
    forms = [vec((2, -1))]
    assert list(PH.arrangement_cells(box, forms, F(1, 2))) == [(1,), (-1,)]
    assert list(PH.arrangement_cells(box, [], 0)) == [()]
    flat = box.with_constraints([((0, 0), 0)])  # 0.y + 0 >= 0 holds nowhere strictly
    assert list(PH.arrangement_cells(flat, forms, F(1, 2))) == _cells_by_lp(flat, forms, F(1, 2)) == []
    assert list(PH.arrangement_cells(flat, [], 0)) == []


def test_the_cell_search_refuses_an_h_that_is_not_pointed():
    slab = PH.HPolyhedron.from_pairs([((1, 1, 0), 0), ((-1, -1, 0), 2), ((0, 0, 1), 0)], 3)
    with pytest.raises(ValueError, match=r"^the normals of h have rank 2 < 3: h is not pointed$"):
        list(PH.arrangement_cells(slab, [vec((1, 0, 0))], 0))


def test_the_cell_search_solves_no_lp(a3_family, a3_ctx, monkeypatch):
    """A box, the A3 dominant cone with its walls (as in `pi_cones`) and every
    search of the A3 decomposition, with `lp.solve` refused."""
    searches = []
    cells = RG._cells

    def recording(h, forms, level=F(0)):
        searches.append((h, forms, level, list(cells(h, forms, level))))
        return iter(searches[-1][3])

    monkeypatch.setattr(RG, "_cells", recording)
    assert len(RG.decompose(a3_ctx, A3_T, A3_S)) == 10
    assert len(searches) > 1
    box = PH.HPolyhedron.from_pairs([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)], 2)
    diagonals = [vec((1, 1)), vec((1, -2))]
    dominant = PH.HPolyhedron.from_pairs([(a, 0) for a in A3.simple_roots], 3)
    searches += [
        (box, diagonals, F(1, 3), _cells_by_lp(box, diagonals, F(1, 3))),
        (dominant, a3_family.hyperplanes, F(0), [c.signs for c in a3_family.cones]),
    ]

    def refuse(*args, **kwargs):
        pytest.fail("the cell search called lp.solve")

    monkeypatch.setattr(lp, "solve", refuse)
    for h, forms, level, expected in searches:
        assert list(PH.arrangement_cells(h, forms, level)) == expected


@pytest.fixture
def interior_lps(monkeypatch):
    """A list that gets one entry per `lp.interior_point` call."""
    calls, real = [], RG.lp.interior_point

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(RG.lp, "interior_point", counting)
    return calls


def test_pi_cones_solves_leaf_lps_only_without_a_witness(a3_family, interior_lps):
    # 30 strict-interior LPs without inherited witnesses
    assert RG.pi_cones(a3_family.psi).cones == a3_family.cones
    assert len(interior_lps) <= 24


def test_rank_three_decomposition_reuses_witnesses(a3_ctx, interior_lps):
    descs = RG.decompose(a3_ctx, A3_T, A3_S)
    assert len(descs) == 10
    assert len(interior_lps) <= 43  # 76 without inherited witnesses


def test_a3_adjoint_recursion_reuses_witnesses(a3_adjoint_family, interior_lps):
    fam = a3_adjoint_family
    q = parabolic(A3, frozenset({2}))  # Levi {a1, a2}
    ctx3 = RG.make_context(A3, minimal_parabolic(A3), q, fam.psi, RG.suggest_epsilon(fam), family=fam)
    interior_lps.clear()
    assert len(RG.decompose(ctx3, A3_ADJ_T, A3_ADJ_S)) == 7
    assert len(interior_lps) <= 73  # 136 without inherited witnesses


@pytest.fixture
def cell_lps(monkeypatch):
    """Counts of `lp.solve` calls made while `RG._cells` computes a cell, and of
    `lp.interior_point` calls (witnesses)."""
    counts = {"cell_search": 0, "interior_point": 0}
    searching = [False]
    cells, solve, interior_point = RG._cells, RG.lp.solve, RG.lp.interior_point

    def flagged_cells(*args):
        search = cells(*args)
        while True:
            searching[0] = True
            try:
                signs = next(search, None)
            finally:
                searching[0] = False
            if signs is None:
                return
            yield signs

    def counting_solve(*args, **kwargs):
        counts["cell_search"] += searching[0]
        return solve(*args, **kwargs)

    def counting_interior_point(*args, **kwargs):
        counts["interior_point"] += 1
        return interior_point(*args, **kwargs)

    monkeypatch.setattr(RG, "_cells", flagged_cells)
    monkeypatch.setattr(RG.lp, "solve", counting_solve)
    monkeypatch.setattr(RG.lp, "interior_point", counting_interior_point)
    return counts


def test_cells_solve_no_lp_and_leaves_solve_their_witness(a3_family, a3_adjoint_family, a3_ctx, cell_lps):
    """The cell search solves no LP; only `pi_cones` leaves solve a primal LP."""
    assert RG.pi_cones(a3_family.psi).cones == a3_family.cones
    assert cell_lps == {"cell_search": 0, "interior_point": 6}

    cell_lps.update(cell_search=0, interior_point=0)
    assert len(RG.decompose(a3_ctx, A3_T, A3_S)) == 10
    assert cell_lps == {"cell_search": 0, "interior_point": 0}

    fam = a3_adjoint_family
    q = parabolic(A3, frozenset({2}))  # Levi {a1, a2}
    ctx3 = RG.make_context(A3, minimal_parabolic(A3), q, fam.psi, RG.suggest_epsilon(fam), family=fam)
    cell_lps.update(cell_search=0, interior_point=0)
    assert len(RG.decompose(ctx3, A3_ADJ_T, A3_ADJ_S)) == 7
    assert cell_lps == {"cell_search": 0, "interior_point": 0}


def test_region_inequalities_hold_at_interior_point(ctx, leaf):
    ineqs = RG.region_inequalities(ctx.psi, leaf)
    h = RG.instantiate(ineqs, ctx.basis, ctx.b_form, T, S)
    y = PH.feasible_point(h)
    assert y is not None
    x = vec([sum(y[i] * ctx.basis[i][j] for i in range(len(ctx.basis))) for j in range(2)])
    for iq in ineqs:
        lhs = dot(iq.lhs, x)
        rhs = region_oracle.rhs_value(iq, ctx.b_form, T, S)
        assert lhs >= rhs if iq.rel == "ge" else lhs <= rhs


def test_base_inequality_kinds(ctx):
    kinds = {iq.kind for iq in RG.base_inequalities(ctx.psi, P0, Q1)}
    assert kinds == {"delta_p", "hat_pq", "delta_q", "hat_q"}


def test_standard_rep_context_decomposes(standard_psi):
    fam = RG.pi_cones(standard_psi)
    eps = RG.suggest_epsilon(fam)
    ctx2 = RG.make_context(A2, P0, Q1, standard_psi, eps)
    t2, s2 = (F(24), F(16)), (F(3, 4), F(1, 2))
    assert RG.well_situated_report(ctx2, t2, s2).ok
    descs2 = RG.decompose(ctx2, t2, s2)
    assert len(descs2) == 1 and descs2[0].pi_zero == ()
    assert RG.lemma33_equivalence(ctx2, t2, s2) == ()


# --- compiled parameter systems ---------------------------------------------

RATIONALS = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
PARAMETERS = st.lists(RATIONALS, min_size=3, max_size=3)


@pytest.fixture(scope="module")
def parametric_systems(ctx, descs, a3_ctx, a3_adjoint_leaves):
    """(ctx, name, ineqs) of every base, region and refinement system of the A2
    adjoint fixture and of the A3 standard and A3 adjoint decompositions."""
    ctx3, leaves3 = a3_adjoint_leaves
    cases = [
        (ctx, descs, T, S),
        (a3_ctx, RG.decompose(a3_ctx, A3_T, A3_S), A3_T, A3_S),
        (ctx3, leaves3, A3_ADJ_T, A3_ADJ_S),
    ]
    out = [(c, name, ineqs) for c, ds, t, s in cases for name, ineqs in region_oracle.region_systems(c, ds, t, s)]
    assert len(out) == 4 + 18 + 13
    return out


@settings(max_examples=25)
@given(PARAMETERS, PARAMETERS)
def test_instantiate_matches_the_fraction_oracle(parametric_systems, t, s):
    for c, name, ineqs in parametric_systems:
        n = c.datum.rank
        tn, sn = tuple(t[:n]), tuple(s[:n])
        h = RG.instantiate(ineqs, c.basis, c.b_form, tn, sn)
        assert (h.normals, h.offsets) == region_oracle.instantiate_oracle(ineqs, c.basis, c.b_form, tn, sn), name
        assert h.dim == len(c.basis)
        assert all(type(x) is F for x in h.offsets) and all(type(x) is F for a in h.normals for x in a)
        # one compiled system serves every (T, S)
        system = RG.compile_system(ineqs, c.basis, c.b_form)
        assert system.at(tn, sn) == h
        assert system.at(sn, tn) == RG.instantiate(ineqs, c.basis, c.b_form, sn, tn)


def test_instantiate_rejects_parameters_of_the_wrong_length(ctx):
    ineqs = RG.base_inequalities(ctx.psi, P0, Q1)
    with pytest.raises(ValueError, match="length 2"):
        RG.instantiate(ineqs, ctx.basis, ctx.b_form, (F(8), F(8), F(1)), S)


def test_vertex_laws_solve_their_rows_for_every_parameter(ctx, leaf, a3_adjoint_leaves):
    """Each law solves lhs.(basis y) = (b_coeff*B + t_form + ts_form).T + ts_form.S
    on its solve rows as matrices, which fixes t_matrix and s_matrix."""
    ctx3, leaves3 = a3_adjoint_leaves
    for c, d, t, s in [(ctx, leaf, T, S)] + [(ctx3, d, A3_ADJ_T, A3_ADJ_S) for d in leaves3]:
        ineqs = RG.region_inequalities(c.psi, d)
        for entry in RG.region_vertices_affine(c, d, t, s):
            for i in entry.solve_rows:
                iq = ineqs[i]
                lhs_y = [sum((a * b for a, b in zip(iq.lhs, bv)), F(0)) for bv in c.basis]
                row_t = [iq.b_coeff * b + u + v for b, u, v in zip(c.b_form, iq.t_form, iq.ts_form)]
                for matrix, row in ((entry.t_matrix, row_t), (entry.s_matrix, list(iq.ts_form))):
                    assert [sum((lhs_y[k] * matrix[k][j] for k in range(len(lhs_y))), F(0)) for j in range(len(row))] == row


def test_loops_compile_their_system_once(ctx, leaf, refinement, monkeypatch):
    sd = RG.slice_polytope(ctx, refinement, X0, T, S)
    dx = tuple(F(1, 32) * c for c in sd.kernel_basis[0])
    compiled, real = [], RG.compile_system

    def counting(*args):
        compiled.append(1)
        return real(*args)

    monkeypatch.setattr(RG, "compile_system", counting)
    RG.fit_slice_model(ctx, refinement, MU, X0, dx, T, (F(1, 4), F(0)), S, (F(-1, 64), F(0)), grid=5)
    assert len(compiled) == 1  # 125 slices
    compiled.clear()
    t2, s2 = (F(33, 4), F(8)), (F(31, 64), F(1, 2))
    t3, s3 = (F(17, 2), F(8)), (F(15, 32), F(1, 2))
    RG.region_vertices_affine(ctx, leaf, T, S, check=[(t2, s2), (t3, s3)])
    assert len(compiled) == 1
    compiled.clear()
    RG.refine(ctx, leaf, leaf.pi_zero, T, S)  # the region, its atlas and its cut
    assert len(compiled) == 1


# --- vertex atlas -----------------------------------------------------------


def test_vertex_atlas_affine_transport(ctx, leaf):
    t2, s2 = (F(33, 4), F(8)), (F(31, 64), F(1, 2))
    t3 = tuple(2 * a - b for a, b in zip(t2, T))
    s3 = tuple(2 * a - b for a, b in zip(s2, S))
    atlas = RG.region_vertices_affine(ctx, leaf, T, S, check=[(t2, s2), (t3, s3)])
    assert len(atlas) == 4
    for entry in atlas:
        assert entry.at(vec(T), vec(S)) == entry.point
        # affine law: the midpoint sample is the midpoint of endpoint images
        a2v = entry.at(vec(t2), vec(s2))
        a3v = entry.at(vec(t3), vec(s3))
        assert tuple(F(1, 2) * (p + q) for p, q in zip(entry.point, a3v)) == a2v


def test_vertex_atlas_tight_sets_solve(ctx, leaf):
    atlas = RG.region_vertices_affine(ctx, leaf, T, S)
    ineqs = RG.region_inequalities(ctx.psi, leaf)
    h = RG.instantiate(ineqs, ctx.basis, ctx.b_form, T, S)
    for entry in atlas:
        assert set(entry.solve_rows) <= set(entry.tight)
        assert polytope_oracle.tight_set(h, entry.point) == entry.tight


def test_atlas_and_fit_read_the_tight_sets_of_vertices(ctx, leaf, refinement):
    t2, s2 = (F(33, 4), F(8)), (F(31, 64), F(1, 2))
    want = RG.region_vertices_affine(ctx, leaf, T, S)
    assert RG.region_vertices_affine(ctx, leaf, T, S, check=[(t2, s2)]) == want
    dx = tuple(F(1, 32) * c for c in RG.slice_polytope(ctx, refinement, X0, T, S).kernel_basis[0])
    report = RG.fit_slice_model(ctx, refinement, MU, X0, dx, T, (F(1, 4), F(0)), S, (F(-1, 64), F(0)), grid=5)
    assert report.vertex_labels == len(RG.slice_polytope(ctx, refinement, X0, T, S).polytope.vertices)


# --- refinement -------------------------------------------------------------


def test_refine_fixture(refinement):
    ref = refinement
    assert ref.pi_one == ref.region.pi_zero
    assert ref.basis_b == ((F(-1), F(2)),)
    assert ref.delta_prime == F(1, 2)
    assert ref.problematic == ((F(1),),)
    assert ref.signs == (1,)
    assert ref.pyramid_facets == ((F(1),),)


def test_refine_parameter_independent(ctx, leaf, refinement):
    refs = RG.refine(ctx, leaf, leaf.pi_zero, T, S, check=[((F(33, 4), F(8)), (F(31, 64), F(1, 2)))])
    assert refs == (refinement,)


def test_refine_closure_violation(ctx, leaf):
    with pytest.raises(RG.ClosureError):
        RG.refine(ctx, leaf, (leaf.pi_zero[0],), T, S)


def test_refine_rejects_empty_or_foreign(ctx, leaf):
    with pytest.raises(ValueError):
        RG.refine(ctx, leaf, (), T, S)
    with pytest.raises(ValueError):
        RG.refine(ctx, leaf, ((F(9), F(9)),), T, S)


def test_refinement_inequalities_add_cut(ctx, refinement):
    kinds = [iq.kind for iq in RG.refinement_inequalities(ctx, refinement)]
    assert "cut" in kinds
    h = RG.instantiate(
        RG.refinement_inequalities(ctx, refinement), ctx.basis, ctx.b_form, T, S
    )
    assert PH.feasible_point(h) is not None


def test_problematic_hyperplanes_match_the_face_lattice_oracle(a3_family, a3_adjoint_family):
    """Every A3 standard and adjoint refinement at P0 <= Q, Q in {0}, {1}, {2}:
    the problematic hyperplanes are the lead-1 normals of the faces of the cut
    region (the refinement's rows less its face rows), listed by the oracle,
    whose images under the basis_b rows span a hyperplane through the origin."""
    cases = [
        (a3_family, F(1, 40), A3_T, A3_S),
        (a3_adjoint_family, RG.suggest_epsilon(a3_adjoint_family), A3_ADJ_T, A3_ADJ_S),
    ]
    ms = []
    for fam, eps, t, s in cases:
        for outside in ({0}, {1}, {2}):
            ctx3 = RG.make_context(A3, minimal_parabolic(A3), parabolic(A3, frozenset(outside)), fam.psi, eps, family=fam)
            for d in RG.decompose(ctx3, t, s):
                if not d.pi_zero:
                    continue
                for ref in RG.refine(ctx3, d, d.pi_zero, t, s):
                    cut = [iq for iq in RG.refinement_inequalities(ctx3, ref) if iq.kind != "face"]
                    h = RG.instantiate(cut, ctx3.basis, ctx3.b_form, t, s)
                    rows = [[dot(b, v) for v in ctx3.basis] for b in ref.basis_b]
                    m = len(rows)
                    normals = set()
                    for verts in polytope_oracle.face_lattice(h).values():
                        pts = [mat_vec(rows, v) for v in verts]
                        through_origin = rank(pts, m) == m - 1 == rank([sub(p, pts[0]) for p in pts], m)
                        if through_origin:
                            (nrm,) = nullspace(pts, m)
                            lead = next(c for c in nrm if c != 0)
                            normals.add(scale(1 / lead, nrm))
                    assert tuple(sorted(normals)) == ref.problematic
                    ms.append(m)
    assert ms.count(2) == 6 and len(ms) == 22


def test_refine_matches_the_lp_oracle(ctx, descs, a3_ctx, a3_adjoint_leaves):
    """refine against its LP form, `region_oracle.refine_oracle`: the same result, or
    the same error type and message, on every A2 fixture, A3 standard and A3 adjoint
    leaf with its pi_zero and each nonempty proper subset, and on a non-leaf region."""
    cases = [
        (ctx, descs, T, S),
        (a3_ctx, RG.decompose(a3_ctx, A3_T, A3_S), A3_T, A3_S),
        (*a3_adjoint_leaves, A3_ADJ_T, A3_ADJ_S),
    ]
    kinds = collections.Counter()
    for c, ds, t, s in cases:
        for desc, pi_one in region_oracle.refine_cases(ds):
            got = region_oracle.refine_outcome(RG.refine, c, desc, pi_one, t, s)
            assert got == region_oracle.refine_outcome(region_oracle.refine_oracle, c, desc, pi_one, t, s), (desc, pi_one)
            kinds[region_oracle.outcome_kind(got)] += 1
    assert kinds == {"m=1": 15, "m=2": 4, "ClosureError": 72, "ValueError": 6, "AssertionError": 1}


def test_refine_splits_the_pyramid_along_an_interior_hyperplane(a3_ctx, monkeypatch):
    """No pinned refinement has a problematic hyperplane through the pyramid's
    interior, so one is made: every face list of the cut region gets one more
    point set, a kernel vertex and the centroid of the vertices off the kernel,
    whose image spans a line through the apex and an inner point of the base.
    That line splits the pyramid into two cells and is none of its facets, as
    the LP oracle's `to_hrep` pyramid says too."""
    leaf = next(d for d in RG.decompose(a3_ctx, A3_T, A3_S) if len(d.pi_zero) == 2)
    (plain,) = RG.refine(a3_ctx, leaf, leaf.pi_zero, A3_T, A3_S)
    rows = [[dot(b, v) for v in a3_ctx.basis] for b in plain.basis_b]
    assert len(rows) == 2
    faces = PH.faces

    def with_inner_line(vp):
        kernel = [v for v in vp.vertices if not any(mat_vec(rows, v))]
        off = [v for v in vp.vertices if any(mat_vec(rows, v))]
        centroid = tuple(sum(c) / len(off) for c in zip(*off))
        return faces(vp) + [(kernel[0], centroid)]

    monkeypatch.setattr(PH, "faces", with_inner_line)
    got = region_oracle.refine_outcome(RG.refine, a3_ctx, leaf, leaf.pi_zero, A3_T, A3_S)
    assert got == region_oracle.refine_outcome(region_oracle.refine_oracle, a3_ctx, leaf, leaf.pi_zero, A3_T, A3_S)
    assert plain.problematic == plain.pyramid_facets == ((0, 1), (1, -1))
    assert [r.signs for r in got] == [(1, 1, 1), (1, -1, 1)]
    assert all(r.problematic == ((0, 1), (1, -3), (1, -1)) for r in got)
    assert all(r.pyramid_facets == plain.pyramid_facets for r in got)


def test_refine_solves_no_lp_outside_the_cell_search(ctx, leaf, refinement, a3_ctx, a3_adjoint_leaves, monkeypatch):
    """The kernel slice, the closure test and the pyramid come from the atlas and the
    cut region's faces: no `_kernel_meets`, `extreme_points` or `lp.feasible_point`,
    and no `lp.solve` at all, since the cell search decides its cells with no LP."""
    a3_leaf = next(d for d in RG.decompose(a3_ctx, A3_T, A3_S) if len(d.pi_zero) == 2)
    a3_refs = RG.refine(a3_ctx, a3_leaf, a3_leaf.pi_zero, A3_T, A3_S)
    ctx3, descs3 = a3_adjoint_leaves
    deep = next(d for d in descs3 if len(d.lambdas) > 1)
    up = RG.RegionDescriptor(deep.p, deep.q, deep.pi, deep.pi_plus, deep.lambdas[:-1], deep.deltas[:-1])

    def refuse(name):
        def raising(*args, **kwargs):
            pytest.fail(f"refine called {name}")

        return raising

    monkeypatch.setattr(RG, "_kernel_meets", refuse("_kernel_meets"))
    monkeypatch.setattr(PH, "extreme_points", refuse("extreme_points"))
    monkeypatch.setattr(RG.lp, "feasible_point", refuse("lp.feasible_point"))
    monkeypatch.setattr(RG.lp, "solve", refuse("lp.solve"))
    assert RG.refine(ctx, leaf, leaf.pi_zero, T, S) == (refinement,)
    assert RG.refine(a3_ctx, a3_leaf, a3_leaf.pi_zero, A3_T, A3_S) == a3_refs
    assert len(a3_refs[0].basis_b) == 2
    with pytest.raises(RG.ClosureError):
        RG.refine(ctx, leaf, (leaf.pi_zero[0],), T, S)
    with pytest.raises(AssertionError, match="kernel slice is empty"):
        RG.refine(ctx3, up, up.pi_zero, A3_ADJ_T, A3_ADJ_S)


# --- slices and fitting -----------------------------------------------------

X0 = (F(97, 12), F(197, 48))
MU = (F(1), F(1))


def test_slice_polytope_fixture(ctx, refinement):
    sd = RG.slice_polytope(ctx, refinement, X0, T, S)
    assert len(sd.kernel_basis) == 1
    assert sd.polytope.vertices == ((F(-1, 24),), (F(5, 24),))
    with pytest.raises(ValueError):
        RG.slice_polytope(ctx, refinement, (F(100), F(0)), T, S)


def test_slice_polytope_checks_subspace_then_region_then_dimension(ctx, refinement, a3_family):
    # every weight of the region spans the plane, so its kernel slice is a point
    flat = dataclasses.replace(refinement, pi_one=refinement.region.pi)
    with pytest.raises(ValueError, match="^the chosen weights leave a zero-dimensional slice$"):
        RG.slice_polytope(ctx, flat, X0, T, S)
    for ref in (refinement, flat):
        with pytest.raises(ValueError, match="^the base point lies outside the refined region$"):
            RG.slice_polytope(ctx, ref, (F(100), F(0)), T, S)
    # P{a3} <= Q{a1, a3} in A3 standard: its subspace is a plane in the 3-space
    p, q = parabolic(A3, frozenset({0, 1})), parabolic(A3, frozenset({1}))
    ctx3 = RG.make_context(A3, p, q, a3_family.psi, RG.suggest_epsilon(a3_family), family=a3_family)
    leaf3 = next(d for d in RG.decompose(ctx3, A3_T, A3_S) if d.pi_zero)
    (ref3,) = RG.refine(ctx3, leaf3, leaf3.pi_zero, A3_T, A3_S)
    for ref in (ref3, dataclasses.replace(ref3, pi_one=leaf3.pi)):
        with pytest.raises(ValueError, match="^the base point does not lie in the subspace of the pair$"):
            RG.slice_polytope(ctx3, ref, (F(0), F(0), F(1)), A3_T, A3_S)
        with pytest.raises(ValueError, match="^the base point lies outside the refined region$"):
            RG.slice_polytope(ctx3, ref, (F(1), F(0), F(0)), A3_T, A3_S)


def test_slice_exp_integral_matches_quadrature(ctx, refinement):
    val = RG.slice_exp_integral(ctx, refinement, X0, T, S, MU)
    assert abs(val - 0.3285830182825423) < 1e-12
    sd = RG.slice_polytope(ctx, refinement, X0, T, S)
    mu_u = float(RG._slice_exponent(ctx, sd, vec(MU))[0])
    lo, hi = (float(v[0]) for v in sd.polytope.vertices)
    quad = mpmath.quad(lambda u: mpmath.e ** (mu_u * u), [lo, hi])
    assert abs(val - float(quad)) < 1e-9


def test_fit_slice_model(ctx, refinement):
    sd = RG.slice_polytope(ctx, refinement, X0, T, S)
    dx = tuple(F(1, 32) * c for c in sd.kernel_basis[0])
    fit = RG.fit_slice_model(
        ctx, refinement, MU, X0, dx, T, (F(1, 4), F(0)), S, (F(-1, 64), F(0))
    )
    assert fit.residual <= 1e-9
    assert fit.vertex_labels == 2
    assert len(fit.exponents) == 2


# --- equivalence check and JSON ---------------------------------------------


def test_lemma33_equivalence_clean(ctx):
    assert RG.lemma33_equivalence(ctx, T, S) == ()


@pytest.fixture(scope="module")
def decompositions(ctx, descs, a3_ctx, a3_adjoint_leaves):
    """(ctx, leaves, T, S) of the A2 adjoint, A3 standard and A3 adjoint decompositions."""
    ctx3, leaves3 = a3_adjoint_leaves
    return [
        (ctx, descs, T, S),
        (a3_ctx, RG.decompose(a3_ctx, A3_T, A3_S), A3_T, A3_S),
        (ctx3, leaves3, A3_ADJ_T, A3_ADJ_S),
    ]


def test_kernel_meets_matches_the_lp_oracle_on_every_child_region(decompositions):
    """`_kernel_meets` (a vertex of the region cut by the kernel rows) against one
    feasibility LP on every child region of the decompositions, each leaf and each
    region above a deeper leaf: with its unconsumed weights, which meet it iff it
    is a leaf, with each single weight and with all of them."""
    seen, inner = collections.Counter(), 0
    for c, leaves, t, s in decompositions:
        form_y = dict(zip(c.pi, RG._quotient_rows(c.basis, c.pi)))
        children = {
            RG.RegionDescriptor(d.p, d.q, d.pi, d.pi_plus, d.lambdas[:k], d.deltas[:k])
            for d in leaves
            for k in range(1, len(d.lambdas) + 1)
        }
        inner += len(children - set(leaves))
        for child in children:
            h = RG.instantiate(RG.region_inequalities(c.psi, child), c.basis, c.b_form, t, s)
            assert RG._kernel_meets(h, [form_y[f] for f in child.pi_zero]) == (child in leaves), child
            for forms in (child.pi_zero, c.pi, *((f,) for f in c.pi)):
                forms_y = [form_y[f] for f in forms]
                got = RG._kernel_meets(h, forms_y)
                assert got == region_oracle.kernel_meets_lp(h, forms_y), (child, forms)
                seen[got] += 1
    assert inner and seen[True] and seen[False]


def test_decompose_and_lemma33_solve_feasibility_lps_only_for_hull_membership(decompositions, monkeypatch):
    """`decompose` decides its leaves and `lemma33_equivalence` its thickened side
    by vertices, with no feasibility LP; the lemma's one LP per span class is its
    kernel-hull membership (`polyhedra.in_hull`)."""
    calls, real = [], RG.lp.feasible_point

    def refuse(*args, **kwargs):
        pytest.fail("decompose called lp.feasible_point")

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for c, leaves, t, s in decompositions:
        monkeypatch.setattr(RG.lp, "feasible_point", refuse)
        assert RG.decompose(c, t, s) == leaves
        monkeypatch.setattr(RG.lp, "feasible_point", counting)
        calls.clear()
        assert RG.lemma33_equivalence(c, t, s) == ()
        assert len(calls) == len(RG._span_classes(RG.psi_at(c.psi, c.p), c.datum.rank))


def test_json_shapes(ctx, descs, refinement):
    blob = RG.decomposition_to_json(ctx, descs)
    assert blob["epsilon"] == "1/4" and blob["kappa_sq"] == "2"
    assert blob["b_functional"] == ["1/8", "-1/16"]
    assert len(blob["regions"]) == 2
    assert blob["regions"][1]["lambdas"] == [[0, 1, 4, 5]]
    rblob = RG.refinement_to_json(ctx, refinement)
    assert rblob["delta_prime"] == "1/2" and rblob["signs"] == [1]
    # stable serialization
    assert json.dumps(blob, sort_keys=True) == json.dumps(
        RG.decomposition_to_json(ctx, RG.decompose(ctx, T, S)), sort_keys=True
    )
