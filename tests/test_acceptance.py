"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Each test is one acceptance criterion; the conftest hook prints a
``[PASS]``/``[FAIL]`` line per criterion when this module runs.  Tolerances
are pinned here as module constants.
"""

import json
import random
import time
from fractions import Fraction as F

from weylcone import asymptote as AS
from weylcone import chambers as CH
from weylcone import cli
from weylcone import polyhedra as PH
from weylcone import regions as RG
from weylcone import rootspace as RS
from weylcone.linalg import add, coords_in_basis, dot, neg, nullspace, rank, sub, vec

from polytope_oracle import contains, face_lattice, to_hrep

REL_TOL_INTEGRAL = 1e-9
FIT_TOL = 1e-6
PROFILE_TOL = 1e-6
SEED = 20260814

GAMMA_CASES = (("A", 1), ("A", 2), ("D", 2), ("A", 3))
GAMMA_SAMPLES = 10_000
GAMMA_BUDGET_S = 60.0
BV_MIX = ((1, 10, 200), (2, 8, 150), (3, 6, 110), (4, 6, 40))  # dim, max rows, count
VOLUME_INSTANCES = 100
FACE_T_SAMPLES = 5
MEMBERSHIP_SAMPLES = 10_000
TOY_BUDGET_S = 10.0

A2 = RS.build_root_datum("A", 2)
P0 = RS.minimal_parabolic(A2)
Q1 = RS.parabolic(A2, frozenset({0}))
T6 = (F(8), F(8))
S6 = (F(1, 2), F(1, 2))


def _regular_dominant(rng, datum):
    while True:
        t = vec([F(rng.randrange(0, 65), 4) for _ in range(datum.rank)])
        if all(dot(a, t) > 0 for a in datum.simple_roots):
            return t


def test_c01_nested_hull_indicator_matches_lp_oracle():
    start = time.monotonic()
    rng = random.Random(SEED)
    for ctype, cr in GAMMA_CASES:
        datum = RS.build_root_datum(ctype, cr)
        g_full, p_min = RS.full_group(datum), RS.minimal_parabolic(datum)
        pairs = [
            (p, q)
            for q in RS.parabolics_between(p_min, g_full)
            for p in RS.parabolics_between(p_min, q)
        ]
        done = 0
        while done < GAMMA_SAMPLES:
            p, q = pairs[rng.randrange(len(pairs))]
            t = _regular_dominant(rng, datum)
            x = vec([F(rng.randrange(-96, 97), 16) for _ in range(cr)])
            g = RS.gamma(p, q, x, t)
            if g == RS.BOUNDARY:
                continue
            inside = PH.in_hull(RS.gamma_hull_points(p, q, t), RS.project(x, p, q))
            assert (g == 1) == inside, (ctype, cr, x, t, g, inside)
            done += 1
    assert time.monotonic() - start < GAMMA_BUDGET_S


def _random_bounded_instance(rng, d, ncap):
    n = rng.randrange(d + 1, ncap + 1)
    while True:
        normals = tuple(tuple(F(rng.randrange(-3, 4)) for _ in range(d)) for _ in range(n))
        try:
            pp = CH.ParametricPolyhedron.make(normals, d)
        except ValueError:
            continue
        if CH.is_bounded(pp):
            return pp


def _maximal_offsets(rng, pp, cd):
    while True:
        x = tuple(F(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(pp.n_constraints))
        asg = CH.chamber_of(cd, x)
        if asg.maximal:
            return x, asg


def test_c02_parametric_chamber_integrals_match_oracle():
    rng = random.Random(SEED + 2)
    for d, ncap, count in BV_MIX:
        for _ in range(count):
            pp = _random_bounded_instance(rng, d, ncap)
            cd = CH.enumerate_bases(pp)
            x, asg = _maximal_offsets(rng, pp, cd)
            while True:
                mu = tuple(F(rng.randrange(-3, 4)) for _ in range(d))
                if not any(mu):
                    continue
                try:
                    es = CH.bv_integral(cd, asg.members, x, mu)
                    break
                except ValueError:
                    continue
            vp = PH.vertices(PH.HPolyhedron(pp.normals, vec(x), d))
            oracle = PH.integrate_exp_oracle(vp, neg(mu))
            rel = abs(es.eval() - oracle) / max(abs(oracle), 1e-300)
            assert rel <= REL_TOL_INTEGRAL, (d, pp.normals, x, mu, rel)


def test_c03_zero_frequency_limit_is_exact_volume_polynomial():
    rng = random.Random(SEED + 3)
    for _ in range(VOLUME_INSTANCES):
        d = rng.choice([1, 2, 2, 3])
        pp = _random_bounded_instance(rng, d, {1: 8, 2: 7, 3: 6}[d])
        cd = CH.enumerate_bases(pp)
        x, asg = _maximal_offsets(rng, pp, cd)
        fn = CH.bv_limit_tfinite(cd, asg.members, tuple(F(0) for _ in range(d)))
        zero = (F(0),) * pp.n_constraints
        assert set(fn.terms) == {zero}
        exact = PH.volume(PH.vertices(PH.HPolyhedron(pp.normals, vec(x), d)))
        assert fn.terms[zero].eval(x) == exact  # exact rational equality
        mu = tuple(F(rng.randrange(-2, 3)) for _ in range(d))
        for out in (fn, CH.bv_limit_tfinite(cd, asg.members, mu)):
            for expo, poly in out.terms.items():
                bound = d if all(e == 0 for e in expo) else d - 1
                assert poly.degree() <= bound, (expo, poly.degree(), bound)


def test_c04_face_census_bijects_with_parabolic_chains():
    rng = random.Random(SEED + 4)
    for ctype, cr in (("A", 2), ("A", 3)):
        datum = RS.build_root_datum(ctype, cr)
        g, p0 = RS.full_group(datum), RS.minimal_parabolic(datum)
        for q in RS.parabolics_between(p0, g):
            for p in RS.parabolics_between(p0, q):
                chains = sum(
                    len(RS.parabolics_between(p1, q)) for p1 in RS.parabolics_between(p, q)
                )
                for _ in range(FACE_T_SAMPLES):
                    t = _regular_dominant(rng, datum)
                    lem = RG.faces_lemma31(p, q, t)
                    assert len(lem) == chains
                    hull = RG.r_prime(p, q, t)
                    if len(hull.vertices) == 1:
                        oracle = {frozenset(hull.vertices)}
                    else:
                        lattice = face_lattice(to_hrep(hull))
                        oracle = {frozenset(f) for f in lattice.values()}
                    census = {frozenset(v) for v in lem.values()}
                    assert census == oracle and len(census) == len(lem)


def _span_intersection(us, ws):
    cols = [list(u) for u in us] + [list(w) for w in ws]
    mat = [tuple(col[i] for col in cols) for i in range(len(us[0]))]
    basis = []
    for nv in nullspace(mat, len(cols)):
        coef = nv[: len(us)]
        v = vec([sum(c * u[j] for c, u in zip(coef, us)) for j in range(len(us[0]))])
        if any(v) and rank([*basis, v]) > len(basis):
            basis.append(v)
    return basis


def test_c05_rank_four_projection_span_claims():
    """Rank-4 projection/span claims in A4; the stated generator is refuted.

    Indices are 0-based and vectors of forms are written in simple-root
    coordinates. P has Levi {α₃}, Q has Levi {α₂, α₃}, and the spanning forms
    are s₁ = α₂+α₃−α₀ = (−1,0,1,1) and s₂ = α₂−α₃−α₁ = (0,−1,1,−1).

    The paper claims that span(s₁_P, s₂_P) ∩ a_Q^* is the line through
    (α₁−α₀)_Q = (−1,1,2/3,1/3). That generator lies in a_Q^* but not in the
    span, so the test asserts the line that the computation gives instead.

    By hand: λ_P = λ − ½⟨λ,α₃^∨⟩α₃, with ⟨s₁,α₃^∨⟩ = 1 and ⟨s₂,α₃^∨⟩ = −3, so
    s₁_P = (−1,0,1,½) and s₂_P = (0,−1,1,½). The combination
    a·s₁_P + b·s₂_P = (−a,−b,a+b,(a+b)/2) kills α₃^∨ always and α₂^∨ exactly
    when 3a+5b = 0, so the intersection is the line through (−5,3,2,1).
    The stated generator would need a = 1, b = −1, hence a+b = 0 ≠ 2/3.
    """
    a4 = RS.build_root_datum("A", 4)
    p = RS.parabolic_from_levi(a4, frozenset({3}))
    q = RS.parabolic_from_levi(a4, frozenset({2, 3}))
    al = a4.simple_roots
    printed = (F(-1), F(1), F(2, 3), F(1, 3))

    unit = lambda i: vec([F(int(j == i)) for j in range(4)])
    assert RS.project(sub(unit(1), unit(0)), q) == printed
    target = RS.coproject(sub(al[1], al[0]), q)
    assert coords_in_basis(al, target) == printed

    s1 = sub(add(al[2], al[3]), al[0])
    s2 = sub(sub(al[2], al[3]), al[1])
    a_q_star = [a4.fundamental_weights[i] for i in sorted(q.outside)]
    assert _span_intersection([s1, s2], a_q_star) == []
    line = _span_intersection([RS.coproject(s1, p), RS.coproject(s2, p)], a_q_star)
    assert len(line) == 1

    # The same line from the Cartan matrix alone, in root coordinates.
    def pair(c, i):  # <sum_j c_j alpha_j, alpha_i^vee>
        return sum(cj * a4.cartan[j][i] for j, cj in enumerate(c))

    def off_alpha3(c):  # lam_P = lam - (1/2)<lam, alpha_3^vee> alpha_3
        return (*c[:3], c[3] - pair(c, 3) / 2)

    s1_p = off_alpha3((F(-1), F(0), F(1), F(1)))
    s2_p = off_alpha3((F(0), F(-1), F(1), F(-1)))
    u, w = pair(s1_p, 2), pair(s2_p, 2)  # w*s1_P - u*s2_P kills alpha_2^vee
    generator = tuple(w * x - u * y for x, y in zip(s1_p, s2_p))
    generator = tuple(x / generator[3] for x in generator)
    assert generator == (F(-5), F(3), F(2), F(1))
    computed = coords_in_basis(al, line[0])
    assert rank([computed, generator]) == 1, (computed, generator)
    assert rank([line[0], target]) == 2, (
        "the stated generator (root coordinates "
        f"{coords_in_basis(al, target)}) lies on the intersection line, which is "
        f"spanned by {computed}"
    )


def _fixture_context():
    psi = RG.psi_pi(A2, RS.weights_of(A2, "adjoint"))
    return RG.make_context(A2, P0, Q1, psi, F(1, 4))


def test_c06_region_partition_has_exact_volumes_and_unique_membership():
    ctx = _fixture_context()
    assert RG.well_situated_report(ctx, T6, S6).ok
    descs = RG.decompose(ctx, T6, S6)
    base_h = RG.instantiate(
        RG.base_inequalities(ctx.psi, P0, Q1), ctx.basis, ctx.b_form, T6, S6
    )
    base = PH.vertices(base_h)
    hs = [
        RG.instantiate(RG.region_inequalities(ctx.psi, d), ctx.basis, ctx.b_form, T6, S6)
        for d in descs
    ]
    total = sum(PH.volume(PH.vertices(h)) for h in hs)
    assert total == PH.volume(base) == PH.volume(RG.r_region(P0, Q1, T6, S6))

    def strict(h, x):
        return all(dot(a, x) + c > 0 for a, c in zip(h.normals, h.offsets))

    def touching(h, x):
        return contains(h, x) and not strict(h, x)

    lo = [min(v[i] for v in base.vertices) for i in range(2)]
    hi = [max(v[i] for v in base.vertices) for i in range(2)]
    rng = random.Random(SEED + 6)
    done = 0
    while done < MEMBERSHIP_SAMPLES:
        x = tuple(a + F(rng.randrange(0, 2049), 2048) * (b - a) for a, b in zip(lo, hi))
        if not strict(base_h, x) or any(touching(h, x) for h in hs):
            continue
        assert sum(1 for h in hs if strict(h, x)) == 1, x
        done += 1


def test_c07_vertex_transport_is_affine_across_collinear_parameters():
    ctx = _fixture_context()
    descs = RG.decompose(ctx, T6, S6)
    t2, s2 = (F(33, 4), F(8)), (F(31, 64), F(1, 2))
    t3 = tuple(2 * a - b for a, b in zip(t2, T6))
    s3 = tuple(2 * a - b for a, b in zip(s2, S6))
    for rep in (RG.well_situated_report(ctx, t2, s2), RG.well_situated_report(ctx, t3, s3)):
        assert rep.ok
    for desc in descs:
        atlas = RG.region_vertices_affine(ctx, desc, T6, S6, check=[(t2, s2), (t3, s3)])
        assert atlas
        for entry in atlas:
            assert entry.at(vec(T6), vec(S6)) == entry.point
            mid = tuple(F(1, 2) * (a + b) for a, b in zip(entry.point, entry.at(vec(t3), vec(s3))))
            assert mid == entry.at(vec(t2), vec(s2))  # exact affinity


def test_c08_slice_model_fit_within_tolerance():
    ctx = _fixture_context()
    descs = RG.decompose(ctx, T6, S6)
    leaf = next(d for d in descs if d.pi_zero)
    ref = RG.refine(ctx, leaf, leaf.pi_zero, T6, S6)[0]
    x0 = (F(97, 12), F(197, 48))
    sd = RG.slice_polytope(ctx, ref, x0, T6, S6)
    dx = tuple(F(1, 32) * c for c in sd.kernel_basis[0])
    fit = RG.fit_slice_model(
        ctx, ref, (F(1), F(1)), x0, dx, T6, (F(1, 4), F(0)), S6, (F(-1, 64), F(0))
    )
    assert fit.residual <= FIT_TOL
    assert fit.vertex_labels == 2
    assert fit.exponents == (
        (F(-3, 32), F(3, 8), F(-3, 128)),
        (F(-3, 32), F(3, 8), F(0)),
    )


def test_c09_toy_truncation_matches_linear_profile():
    start = time.monotonic()
    exp = AS.run_toy(6.0)
    assert abs(exp.integral - (6.0 + AS.c_plus())) <= PROFILE_TOL
    table = AS.residual_table((2.0, 3.0, 4.0, 5.0, 6.0))
    tails = [e.log10_tail for e in table]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    assert AS.log_residual_slope(table) < -1.0
    assert time.monotonic() - start < TOY_BUDGET_S


def _artifact_bundle(capsys, tmp_path):
    square = PH.HPolyhedron.from_pairs(
        [((F(1), F(0)), F(0)), ((F(0), F(1)), F(0)), ((F(-1), F(0)), F(1)), ((F(0), F(-1)), F(1))],
        2,
    )
    h_file = tmp_path / "h.json"
    h_file.write_text(PH.h_to_json(square), encoding="utf-8")
    v_file = tmp_path / "v.json"
    v_file.write_text(PH.v_to_json(PH.vertices(square)), encoding="utf-8")
    dec = ["--type", "A", "--rank", "2", "--rep", "adjoint", "--P", "", "--Q", "a2",
           "--eps", "1/4", "--T", "8,8", "--S", "1/2,1/2"]
    commands = [
        ["rootdatum", "--type", "A", "--rank", "2", "--rep", "adjoint"],
        ["gamma", "--type", "A", "--rank", "1", "--P", "", "--Q", "a1", "--X", "1/2", "--T", "2"],
        ["bv", "--normals", "1;-1", "--x", "0,1", "--mu", "2"],
        ["bv", "--normals", "1;-1", "--x", "0,1", "--mu", "0", "--limit"],
        ["cones", "--type", "A", "--rank", "2", "--rep", "standard", "--eps", "1/10"],
        ["regions", "decompose", *dec],
        ["regions", "decompose", *dec, "--jobs", "2"],
        ["regions", "refine", *dec, "--region-index", "1", "--pi-one", "2,3"],
        ["regions", "slice", *dec, "--region-index", "1", "--pi-one", "2,3",
         "--X", "97/12,197/48", "--mu", "1,1"],
        ["asymptote", "toy", "--T-list", "2,3"],
        ["oracle", "vertices", "--in", str(h_file)],
        ["oracle", "integrate", "--in", str(v_file), "--mu", "1,-1"],
    ]
    parts = []
    for argv in commands:
        assert cli.main(argv) == 0, argv
        parts.append(capsys.readouterr().out)
    return parts


def test_c10_artifact_bundle_is_deterministic(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WEYLCONE_SEED", "0")
    first = _artifact_bundle(capsys, tmp_path)
    second = _artifact_bundle(capsys, tmp_path)
    assert "".join(first).encode() == "".join(second).encode()  # byte-identical
    assert first[5] == first[6]  # --jobs 2 is accepted and prints the serial bytes
    assert json.loads(first[5])["regions"]
