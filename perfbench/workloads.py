"""The four benchmark workloads.

Each workload has four parts:

* ``setup()`` builds the fixtures that items share (root data, weight
  systems, cone families, decomposition contexts); it is timed as part of
  set-up.
* ``make_items(rng, fx)`` draws the run's fixed item list from the seed.  It
  runs before any timing; it may call weylcone to reject unusable draws.
* ``run(item, fx)`` is one item: calls into weylcone only, and is the only
  timed code.
* ``check(item, out, fx)`` returns the problems found in one item's output,
  comparing against computations made apart from weylcone (SciPy, mpmath,
  plain Fraction arithmetic here) or against properties the method must have.

``perturb(out)`` returns a deliberately wrong copy of an output; the
self-test feeds it to ``check`` and expects a problem.
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from itertools import product

import mpmath
import numpy as np

from weylcone import chambers as CH
from weylcone import polyhedra as PH
from weylcone import regions as RG
from weylcone import rootspace as RS

REL_TOL = 1e-9
FIT_TOL = 1e-6
# 4^3 = 64 samples for the 8 model columns of a 1-D slice in (X, T, S); a
# 3^3 grid leaves the design matrix ill-conditioned (about 1e16)
FIT_GRID = 4


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def _regular_dominant(rng, datum, denominators):
    """A point with every simple root positive, coordinate i = a / p_i.

    With pairwise distinct primes p_i above every coefficient of a wall, no
    nonzero small-integer form vanishes at the point, so the point lies off
    every wall of the cone arrangement.
    """
    while True:
        x = tuple(
            F(a, p)
            for p in denominators
            for a in [rng.choice([k for k in range(1, 8 * p) if k % p])]
        )
        if all(_dot(root, x) > 0 for root in datum.simple_roots):
            return x


def _rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# hull_oracle


class HullOracle:
    """Nested-hull indicator gamma against LP membership in_hull."""

    name = "hull_oracle"
    DATA = (("A", 1), ("A", 2), ("D", 2), ("A", 3), ("B", 3), ("C", 3), ("A", 4))
    POINTS_PER_PAIR = 2
    HIGHS_EVERY = 4  # SciPy HiGHS re-checks every 4th item

    def setup(self):
        fx = {}
        for ctype, rank in self.DATA:
            datum = RS.build_root_datum(ctype, rank)
            g, p0 = RS.full_group(datum), RS.minimal_parabolic(datum)
            pairs = [(p, q) for q in RS.parabolics_between(p0, g) for p in RS.parabolics_between(p0, q)]
            fx[f"{ctype}{rank}"] = (datum, pairs)
        return fx

    def make_items(self, rng, fx):
        items = []
        for key, (datum, pairs) in fx.items():
            for k in range(len(pairs)):
                for _ in range(self.POINTS_PER_PAIR):
                    while True:
                        t = tuple(F(rng.randrange(1, 65), 4) for _ in range(datum.rank))
                        if all(_dot(a, t) > 0 for a in datum.simple_roots):
                            break
                    x = tuple(F(rng.randrange(-96, 97), 16) for _ in range(datum.rank))
                    items.append((key, k, x, t))
        return items

    def run(self, item, fx):
        key, k, x, t = item
        p, q = fx[key][1][k]
        g = RS.gamma(p, q, x, t)
        pts = RS.gamma_hull_points(p, q, t)
        xp = RS.project(x, p, q)
        return {"gamma": g, "inside": PH.in_hull(pts, xp), "points": pts, "xp": xp}

    def check(self, item, out, fx, index=0):
        problems = []
        g = out["gamma"]
        if g != RS.BOUNDARY and (g == 1) != out["inside"]:
            problems.append(f"gamma {g} disagrees with in_hull {out['inside']}")
        if index % self.HIGHS_EVERY == 0 and _highs_member(out["points"], out["xp"]) != out["inside"]:
            problems.append("in_hull disagrees with SciPy HiGHS membership")
        return problems

    @staticmethod
    def perturb(out):
        return dict(out, gamma=0 if out["inside"] else 1)


def _highs_member(points, x) -> bool:
    from scipy.optimize import linprog  # check-only import, kept out of set-up

    m = len(points)
    a_eq = [[float(p[i]) for p in points] for i in range(len(x))] + [[1.0] * m]
    b_eq = [float(v) for v in x] + [1.0]
    res = linprog(np.zeros(m), A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=[(0, None)] * m, method="highs")
    return res.status == 0


# ---------------------------------------------------------------------------
# chamber_integrals


class ChamberIntegrals:
    """Vertex-sum chamber integrals and their limits against the oracles."""

    name = "chamber_integrals"
    # (dimension, number of normals, items per round)
    STRATA = ((1, 3, 20), (1, 6, 20), (2, 4, 30), (2, 6, 12), (3, 4, 12), (4, 5, 2))

    def setup(self):
        return {}

    def make_items(self, rng, fx):
        items = []
        for d, n, count in self.STRATA:
            for _ in range(count):
                pp = _bounded_instance(rng, d, n)
                cd = CH.enumerate_bases(pp)
                while True:
                    x = tuple(F(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(n))
                    asg = CH.chamber_of(cd, x)
                    if asg.maximal:
                        break
                duals = [u for s in sorted(asg.members, key=sorted) for u in cd.sigmas[s].dual_basis]
                corners = {CH.vertex_map(cd.sigmas[s], x) for s in asg.members}
                # generic: no dual vector killed, and pairwise distinct values at
                # the vertices, so no simplex of the oracle has repeated exponents
                while True:
                    mu = tuple(F(rng.randrange(-3, 4)) for _ in range(d))
                    values = {_dot(mu, v) for v in corners}
                    if all(_dot(mu, u) != 0 for u in duals) and len(values) == len(corners):
                        break
                items.append((pp, x, mu, _degenerate_frequency(rng, duals)))
        return items

    def run(self, item, fx):
        pp, x, mu, mu_deg = item
        cd = CH.enumerate_bases(pp)
        asg = CH.chamber_of(cd, x)
        formula = CH.bv_integral(cd, asg.members, x, mu).eval()
        lim0 = CH.bv_limit_tfinite(cd, asg.members, (F(0),) * pp.dim)
        vol_poly = lim0.terms.get((F(0),) * pp.n_constraints)
        lim_deg = CH.bv_limit_tfinite(cd, asg.members, mu_deg)
        vp = PH.vertices(pp.instance(x))
        return {
            "formula": formula,
            "oracle": PH.integrate_exp_oracle(vp, tuple(-c for c in mu)),
            "vol_formula": vol_poly.eval(x) if vol_poly is not None else F(0),
            "deg_formula": lim_deg.eval(x),
            "volume": PH.volume(vp),
            "vertices": vp.vertices,
            "limits": (lim0, lim_deg),
        }

    def check(self, item, out, fx, index=0):
        pp, x, mu, mu_deg = item
        d = pp.dim
        problems = []
        ref_vol, ref_int = _reference_integrals(out["vertices"], (tuple(-c for c in mu), tuple(-c for c in mu_deg)))
        for label, value, ref in (
            ("bv_integral", out["formula"], ref_int[0]),
            ("integrate_exp_oracle", out["oracle"], ref_int[0]),
            ("degenerate limit", out["deg_formula"], ref_int[1]),
        ):
            if _rel_err(value, ref) > REL_TOL:
                problems.append(f"{label} {value} vs reference {ref}")
        if out["vol_formula"] != out["volume"]:
            problems.append(f"zero-frequency limit {out['vol_formula']} != volume {out['volume']}")
        if out["volume"] != ref_vol:
            problems.append(f"volume {out['volume']} != reference {ref_vol}")
        for lim in out["limits"]:
            for lam, poly in lim.terms.items():
                if poly.degree() > (d if not any(lam) else d - 1):
                    problems.append(f"degree bound violated: {poly.degree()} at exponent {lam}")
        if d > 1:
            from scipy.spatial import ConvexHull  # check-only import, kept out of set-up

            hull = ConvexHull(np.array([[float(c) for c in v] for v in out["vertices"]])).volume
            if _rel_err(float(out["volume"]), hull) > REL_TOL:
                problems.append(f"volume {out['volume']} vs SciPy ConvexHull {hull}")
        return problems

    @staticmethod
    def perturb(out):
        return dict(out, volume=out["volume"] * F(1001, 1000))


def _bounded_instance(rng, d, n):
    """Random integer normals that positively span, so every P(x) is bounded.

    SciPy HiGHS screens the draws (some y >= 1 with sum y_i a_i = 0); the
    item's own bv_limit_tfinite proves boundedness exactly."""
    from scipy.optimize import linprog  # generation-only import, kept out of set-up

    while True:
        normals = tuple(tuple(F(rng.randrange(-3, 4)) for _ in range(d)) for _ in range(n))
        a = np.array([[float(v[i]) for v in normals] for i in range(d)])
        if np.linalg.matrix_rank(a) < d:
            continue
        res = linprog(np.zeros(n), A_eq=a, b_eq=np.zeros(d), bounds=[(1, None)] * n, method="highs")
        if res.status != 0:
            continue
        return CH.ParametricPolyhedron.make(normals, d)


def _degenerate_frequency(rng, duals):
    """A small nonzero integer covector vanishing on one of the dual vectors
    (zero when d = 1), so the chamber's vertex-sum formula degenerates."""
    d = len(duals[0])
    if d == 1:
        return (F(0),)
    u = duals[rng.randrange(len(duals))]
    if d == 2:
        lcm = math.lcm(u[0].denominator, u[1].denominator)
        v = (int(u[1] * lcm), int(-u[0] * lcm))
        g = math.gcd(*v)
        return tuple(F(c // g) for c in v)
    small = [c for c in product(range(-3, 4), repeat=d) if any(c) and _dot(c, u) == 0]
    return tuple(F(c) for c in small[rng.randrange(len(small))])


def _det(rows):
    """Exact determinant by Gaussian elimination over Fraction."""
    m = [list(r) for r in rows]
    n, det = len(m), F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _reference_integrals(vertices, mus):
    """Exact volume and integrals of e^{mu(v)} over the hull of the vertices.

    SciPy's Delaunay triangulation gives the simplices; each contributes its
    exact |det| / d! to the volume and |det| times the divided difference
    exp[mu(v_0), ..., mu(v_d)] to the integral, the latter from mpmath's
    matrix exponential of the bidiagonal at 40 digits with exact exponents.
    """
    from scipy.spatial import Delaunay  # check-only import, kept out of set-up

    d = len(vertices[0])
    if d == 1:
        ends = sorted(v[0] for v in vertices)
        simplices = [((ends[0],), (ends[-1],))]
    else:
        tri = Delaunay(np.array([[float(c) for c in v] for v in vertices]))
        simplices = [tuple(vertices[i] for i in s) for s in tri.simplices]
    volume = F(0)
    totals = [mpmath.mpf(0) for _ in mus]
    with mpmath.workdps(40):
        for simplex in simplices:
            det = abs(_det([[a - b for a, b in zip(v, simplex[0])] for v in simplex[1:]]))
            volume += det / math.factorial(d)
            for k, mu in enumerate(mus):
                jm = mpmath.zeros(d + 1, d + 1)
                for i, v in enumerate(simplex):
                    y = _dot(mu, v)
                    jm[i, i] = mpmath.mpf(y.numerator) / y.denominator
                    if i < d:
                        jm[i, i + 1] = 1
                totals[k] += mpmath.mpf(det.numerator) / det.denominator * mpmath.expm(jm)[0, d]
    return volume, [float(t) for t in totals]


# ---------------------------------------------------------------------------
# region_pipeline


class RegionPipeline:
    """Well-situated decompositions, vertex atlases, refinements, slices."""

    name = "region_pipeline"
    # (type, representation, epsilon); epsilon is a simple rational below
    # suggest_epsilon of the datum's cone family.
    CONFIGS = (
        ("A", "adjoint", F(1, 4)),
        ("A", "standard", F(1, 11)),
        ("A", "sym2", F(1, 11)),
        ("B", "adjoint", F(1, 7)),
        ("C", "adjoint", F(1, 7)),
        ("D", "adjoint", F(1, 3)),
    )
    # (config, pair index in _proper_pairs order, fit a slice model); the
    # job's (T, S) lies near the witness of the family's first cell; pairs
    # 0..4 are (P0,P0), (P0,Q{1}), (Q{1},Q{1}), (P0,Q{0}), (Q{0},Q{0}), with
    # Q{i} the maximal parabolic that leaves out simple root i
    JOBS = (
        ("A/adjoint", 3, True),
        ("A/adjoint", 2, False),
        ("A/standard", 3, False),
        ("A/sym2", 0, False),
        ("B/adjoint", 3, False),
        ("B/adjoint", 2, False),
        ("C/adjoint", 3, False),
        ("C/adjoint", 4, False),
        ("D/adjoint", 1, False),
        ("D/adjoint", 3, False),
        ("D/adjoint", 4, False),
    )

    def setup(self):
        fx = {}
        for ctype, rep, eps in self.CONFIGS:
            datum = RS.build_root_datum(ctype, 2)
            psi = RG.psi_pi(datum, RS.weights_of(datum, rep))
            family = RG.pi_cones(psi)
            contexts = [RG.make_context(datum, p, q, psi, eps, family=family) for p, q in _proper_pairs(datum)]
            fx[f"{ctype}/{rep}"] = contexts
        return fx

    def make_items(self, rng, fx):
        return [_region_job(rng, key, k, fx[key][k], fit) for key, k, fit in self.JOBS]

    def run(self, item, fx):
        ctx = fx[item["key"]][item["k"]]
        t, s = item["t"], item["s"]
        descs = RG.decompose(ctx, t, s)
        base_h = RG.instantiate(RG.base_inequalities(ctx.psi, ctx.p, ctx.q), ctx.basis, ctx.b_form, t, s)
        base = PH.vertices(base_h).vertices
        atlases = [RG.region_vertices_affine(ctx, d, t, s, check=item["check"]) for d in descs]
        slices, fit = [], None
        for desc in descs:
            if not desc.pi_zero:
                continue
            for ref in RG.refine(ctx, desc, desc.pi_zero, t, s):
                cut_h = RG.instantiate(RG.refinement_inequalities(ctx, ref), ctx.basis, ctx.b_form, t, s)
                verts = PH.vertices(cut_h).vertices
                y = tuple(sum(c) / len(verts) for c in zip(*verts))
                x = tuple(sum((yi * b[j] for yi, b in zip(y, ctx.basis)), F(0)) for j in range(ctx.datum.rank))
                sd = RG.slice_polytope(ctx, ref, x, t, s)
                value = RG.slice_exp_integral(ctx, ref, x, t, s, item["mu"])
                slices.append((sd, value))
                if item["fit"] and fit is None:
                    dx = tuple(F(1, 32) * c for c in sd.kernel_basis[0])
                    fit = RG.fit_slice_model(
                        ctx, ref, item["mu"], x, dx, t, (F(1, 4), F(0)), s, (F(-1, 64), F(0)), grid=FIT_GRID
                    )
        return {
            "leaves": len(descs),
            "base": base,
            "atlases": atlases,
            "slices": slices,
            "lemma33": RG.lemma33_equivalence(ctx, t, s),
            "fit": None if fit is None else fit.residual,
        }

    def check(self, item, out, fx, index=0):
        ctx = fx[item["key"]][item["k"]]
        problems = []
        if not out["leaves"]:
            problems.append("decomposition has no leaves")
        whole = _measure(out["base"])
        parts = sum(_measure(tuple(e.point for e in atlas)) for atlas in out["atlases"])
        if parts != whole:
            problems.append(f"leaf measures sum to {parts}, base region measures {whole}")
        (t2, s2), (t3, s3) = item["check"]
        for atlas in out["atlases"]:
            for e in atlas:
                far = e.at(t3, s3)
                mid = tuple((a + b) / 2 for a, b in zip(e.point, far))
                if mid != e.at(t2, s2):
                    problems.append(f"midpoint law fails at vertex {e.point}")
        if out["lemma33"]:
            problems.append(f"lemma33_equivalence reports {out['lemma33']}")
        for sd, value in out["slices"]:
            ref = _slice_closed_form(ctx, sd, item["mu"])
            if ref is not None and _rel_err(value, ref) > REL_TOL:
                problems.append(f"slice integral {value} vs closed form {ref}")
        if item["fit"] and (out["fit"] is None or not out["fit"] <= FIT_TOL):
            problems.append(f"fit residual {out['fit']}")
        return problems

    @staticmethod
    def perturb(out):
        return dict(out, slices=[(sd, v * 1.01) for sd, v in out["slices"]])


def _proper_pairs(datum):
    """Pairs P <= Q with Q proper, in a fixed order."""
    g, p0 = RS.full_group(datum), RS.minimal_parabolic(datum)
    return [
        (p, q)
        for q in RS.parabolics_between(p0, g)
        if q.outside
        for p in RS.parabolics_between(p0, q)
    ]


def _region_job(rng, key, k, ctx, fit):
    """Well-situated (T, S) near a cone witness, plus a collinear transport
    triple (T, S), (T2, S2), (T3, S3) with T2 - T = T3 - T2 a small step."""
    datum = ctx.datum
    w = ctx.family.cones[0].witness
    grow = 1
    while datum.norm2(tuple(grow * c for c in w)) <= 2 * ctx.largeness_sq:
        grow += 1
    shrink = 1
    while datum.norm2(tuple(c / shrink for c in w)) > F(1, 2):
        shrink += 1
    while True:
        t = tuple(grow * c + F(rng.randrange(0, 9), 8) for c in w)
        s = tuple(c / shrink + F(rng.randrange(0, 5), 128) for c in w)
        dt = (F(rng.randrange(1, 3), 4), F(rng.randrange(0, 2), 4))
        ds = (F(-rng.randrange(0, 2), 128), F(0))
        t2 = tuple(a + b for a, b in zip(t, dt))
        s2 = tuple(a + b for a, b in zip(s, ds))
        t3 = tuple(a + 2 * b for a, b in zip(t, dt))
        s3 = tuple(a + 2 * b for a, b in zip(s, ds))
        if RG.well_situated_report(ctx, t, s).ok:
            break
    mu = (F(rng.randrange(1, 3)), F(rng.randrange(1, 3)))
    return {"key": key, "k": k, "t": t, "s": s, "check": ((t2, s2), (t3, s3)), "mu": mu, "fit": fit}


def _measure(points):
    """Exact length (1-D) or area (2-D, shoelace) of the hull of the points."""
    pts = sorted(set(points))
    if not pts:
        return F(0)
    if len(pts[0]) == 1:
        return pts[-1][0] - pts[0][0]
    cx = sum(float(p[0]) for p in pts) / len(pts)
    cy = sum(float(p[1]) for p in pts) / len(pts)
    ring = sorted(pts, key=lambda p: math.atan2(float(p[1]) - cy, float(p[0]) - cx))
    area = sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(ring, ring[1:] + ring[:1]))
    return abs(area) / 2


def _slice_closed_form(ctx, sd, mu):
    """mpmath value of the exponential integral over a 1-D slice, else None."""
    if len(sd.kernel_basis) != 1:
        return None
    (k,) = sd.kernel_basis
    amb = [sum((c * b[j] for c, b in zip(k, ctx.basis)), F(0)) for j in range(ctx.datum.rank)]
    m = _dot(mu, amb)
    ends = sorted(v[0] for v in sd.polytope.vertices)
    a, b = ends[0], ends[-1]
    with mpmath.workdps(40):
        if m == 0:
            return float(mpmath.mpf(b - a))
        mm = mpmath.mpf(m.numerator) / m.denominator
        ea = mpmath.exp(mm * mpmath.mpf(a.numerator) / a.denominator)
        eb = mpmath.exp(mm * mpmath.mpf(b.numerator) / b.denominator)
        return float((eb - ea) / mm)


# ---------------------------------------------------------------------------
# cone_distance


class ConeDistance:
    """The cone distance d^2 on rank 3 and rank-2 cone families."""

    name = "cone_distance"
    RANK3 = (("A", "standard"), ("A", "adjoint"), ("B", "adjoint"), ("C", "adjoint"))
    RANK2 = (("A", "adjoint"), ("A", "standard"), ("A", "sym2"), ("B", "adjoint"), ("C", "adjoint"), ("D", "adjoint"))
    PRIMES = (17, 19, 23)
    RANK2_POINTS = 2

    def setup(self):
        fx = {}
        for rank, configs in ((3, self.RANK3), (2, self.RANK2)):
            for ctype, rep in configs:
                datum = RS.build_root_datum(ctype, rank)
                fx[f"{ctype}{rank}/{rep}"] = RG.psi_pi(datum, RS.weights_of(datum, rep))
        return fx

    def make_items(self, rng, fx):
        items = []
        for ctype, rep in self.RANK3:
            psi = fx[f"{ctype}3/{rep}"]
            items.append(("d2", f"{ctype}3/{rep}", _regular_dominant(rng, psi.datum, self.PRIMES), None))
        for ctype, rep in self.RANK2:
            key = f"{ctype}2/{rep}"
            psi = fx[key]
            items.append(("family", key, None, None))
            family = RG.pi_cones(psi)
            for _ in range(self.RANK2_POINTS):
                while True:
                    x = _regular_dominant(rng, psi.datum, self.PRIMES[:2])
                    if RG.cone_of(family, x) is not None:
                        break
                items.append(("d2", key, x, F(rng.randrange(2, 4))))
        return items

    def run(self, item, fx):
        kind, key, x, c = item
        psi = fx[key]
        if kind == "family":
            family = RG.pi_cones(psi)
            return {"family": family, "epsilon": RG.suggest_epsilon(family)}
        out = {"d2": RG.d_value_squared(x, psi)}
        if c is not None:
            out["d2_scaled"] = RG.d_value_squared(tuple(c * v for v in x), psi)
        return out

    def check(self, item, out, fx, index=0):
        kind, key, x, c = item
        datum = fx[key].datum
        problems = []
        if kind == "family":
            family, eps = out["family"], out["epsilon"]
            if not 0 < eps < 1:
                problems.append(f"suggested epsilon {eps} outside (0, 1)")
            if not family.cones:
                problems.append("cone family has no cells")
            for cell in family.cones:
                w = cell.witness
                if not all(_dot(a, w) > 0 for a in datum.simple_roots):
                    problems.append(f"witness {w} is not regular dominant")
                if not all(sg * _dot(h, w) > 0 for sg, h in zip(cell.signs, family.hyperplanes)):
                    problems.append(f"witness {w} is off its cell")
            return problems
        d2 = out["d2"]
        norm2 = _dot(x, [_dot(row, x) for row in datum.inner])
        if not 0 < d2 <= norm2:
            problems.append(f"d^2 = {d2} outside (0, |x|^2 = {norm2}]")
        bound = _single_kernel_bound(fx[key], x)
        if d2 > bound:
            problems.append(f"d^2 = {d2} above the single-kernel bound {bound}")
        if c is not None and out["d2_scaled"] != c * c * d2:
            problems.append(f"d^2({c}x) = {out['d2_scaled']} != {c * c} d^2(x) = {c * c * d2}")
        return problems

    @staticmethod
    def perturb(out):
        if "d2" in out:
            return dict(out, d2=out["d2"] * 2)
        return dict(out, epsilon=-out["epsilon"])


def _single_kernel_bound(psi, x):
    """min over the weights and simple roots lam of lam(x)^2 / |lam|^2.

    The pair P = Q = P0 is admissible for d with every single functional as
    its kernel, and its hull is the point x itself, so d^2(x) is at most the
    squared distance from x to each hyperplane lam = 0 in the metric of the
    root datum; the dual norm |lam|^2 = lam . inner^{-1} lam is computed
    here by elimination, apart from weylcone."""
    inner = [list(r) for r in psi.datum.inner]
    return min(
        _dot(lam, x) ** 2 / _dot(lam, _solve(inner, lam))
        for lam in set(psi.weights) | set(psi.datum.simple_roots)
    )


def _solve(a, b):
    """Exact solution of the square nonsingular system a y = b."""
    n = len(a)
    m = [list(r) + [v] for r, v in zip(a, b)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


WORKLOADS = {w.name: w for w in (HullOracle(), ChamberIntegrals(), RegionPipeline(), ConeDistance())}
