"""Weight-system cones, threshold recursion, refinement, slices, fits."""

import itertools
import json
import random
from fractions import Fraction as F

import mpmath
import pytest

from weylcone import polyhedra as PH
from weylcone import regions as RG
from weylcone.linalg import add, dot, scale, vec
from weylcone.rootspace import (
    build_root_datum,
    full_group,
    minimal_parabolic,
    parabolic,
    weights_of,
)

import distance_oracle

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
    for p, q, kernels in RG._admissible_kernels(psi):
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
        assert RG.in_c_epsilon(fam_e, cell.witness)
    assert not RG.in_c_epsilon(fam_e, (F(1), F(1)))


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


def test_in_c_epsilon_requires_epsilon(adjoint_psi):
    fam = RG.pi_cones(adjoint_psi)
    with pytest.raises(ValueError):
        RG.in_c_epsilon(fam, (F(1), F(1)))


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
    lattice = PH.face_lattice(PH.to_hrep(hull))
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
            PH.contains(h, x)
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


def test_decompose_worker_count_is_bounded(ctx, descs, monkeypatch):
    import concurrent.futures

    started = []

    class FakePool:  # records the pool size and maps serially; starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(RG.os, "cpu_count", lambda: 64)
    # the fixture has a single sign cell, so no pool is started at all
    assert RG.decompose(ctx, T, S, jobs=50) == descs and started == []
    # three copies of that cell stand in for three sign cells
    real_cells = RG._sign_cells
    monkeypatch.setattr(RG, "_sign_cells", lambda h, f: list(real_cells(h, f)) * 3)
    for jobs, cpus, expected in ((50, 64, 3), (50, 2, 2), (2, 64, 2), (50, None, None)):
        monkeypatch.setattr(RG.os, "cpu_count", lambda: cpus)
        started.clear()
        assert RG.decompose(ctx, T, S, jobs=jobs) == RG.decompose(ctx, T, S)
        assert started == ([expected] if expected else [])


# A rank-3 region with several sign cells: P0 <= Q{2} in A3 standard.
A3_T = (F(99), F(77), F(44))
A3_S = (F(3, 5), F(7, 15), F(4, 15))


@pytest.fixture(scope="module")
def a3_ctx(a3_family):
    q = parabolic(A3, frozenset({2}))
    return RG.make_context(A3, minimal_parabolic(A3), q, a3_family.psi, F(1, 40), family=a3_family)


def test_rank_three_decomposition_partitions_the_region(a3_ctx):
    descs = RG.decompose(a3_ctx, A3_T, A3_S)
    assert len({d.pi_plus for d in descs}) == 3 and len(descs) == 10
    assert RG.decompose(a3_ctx, A3_T, A3_S, jobs=2) == descs  # starts the pool on two or more CPUs
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
        if not strict(base_h, x) or any(PH.contains(h, x) and not strict(h, x) for h in hs):
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
        if not strict(base_h, x) or any(PH.contains(h, x) and not strict(h, x) for h in hs):
            continue  # outside, or on a measure-zero shared boundary
        assert sum(1 for h in hs if strict(h, x)) == 1, x
        done += 1


def test_region_inequalities_hold_at_interior_point(ctx, leaf):
    ineqs = RG.region_inequalities(ctx.psi, leaf)
    h = RG.instantiate(ineqs, ctx.basis, ctx.b_form, T, S)
    y = PH.feasible_point(h)
    assert y is not None
    x = vec([sum(y[i] * ctx.basis[i][j] for i in range(len(ctx.basis))) for j in range(2)])
    for iq in ineqs:
        lhs = dot(iq.lhs, x)
        rhs = iq.rhs_value(ctx.b_form, vec(T), vec(S))
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
        assert PH.tight_set(h, entry.point) == entry.tight


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


# --- slices and fitting -----------------------------------------------------

X0 = (F(97, 12), F(197, 48))
MU = (F(1), F(1))


def test_slice_polytope_fixture(ctx, refinement):
    sd = RG.slice_polytope(ctx, refinement, X0, T, S)
    assert len(sd.kernel_basis) == 1
    assert sd.polytope.vertices == ((F(-1, 24),), (F(5, 24),))
    with pytest.raises(ValueError):
        RG.slice_polytope(ctx, refinement, (F(100), F(0)), T, S)


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
