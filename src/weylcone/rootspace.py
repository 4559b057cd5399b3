"""Root-system and parabolic combinatorics on a split maximal torus.

Coordinates: the ambient space a ~ Q^n is written in the basis of simple
coroots, so the coroot of alpha_i is the standard basis vector e_i.  A linear
form is stored by its values on the coroots; in particular the fundamental
weight w_i is e_i as a form vector, and the simple root alpha_j is the vector
(alpha_j(alpha_i^vee))_i read off the Cartan matrix.  Weights of
representations live in the same form coordinates (their fundamental-weight
coordinates), so all objects share one exact rational chart.

Parabolic bookkeeping follows the complement convention: a standard parabolic
is named by the subset of simple-root indices OUTSIDE its Levi, so containment
of parabolics reverses containment of subsets (full set <-> minimal parabolic,
empty set <-> the whole group).

Projections run on one cached integer matrix per pair P <= Q: `project`,
`coproject`, `gamma` and `gamma_hull_points` scale their input to integers over
one denominator and multiply in int arithmetic; `gamma` decides its signs there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
import json
from operator import mul

from .linalg import (
    Mat,
    Vec,
    add,
    dot,
    exact_json,
    identity,
    integer_rows,
    invert,
    mat_vec,
    nullspace,
    project_onto_span,
    scale,
    sub,
    transpose,
    vec,
    zeros,
)

BOUNDARY = "boundary"

_VALID_TYPES = ("A", "B", "C", "D")


def _cartan_matrix(ctype: str, rank: int) -> tuple[Mat, tuple[Fraction, ...]]:
    """Cartan matrix A (A[i][j] = <alpha_i, alpha_j^vee>) and symmetrizers d.

    d_i = (alpha_i, alpha_i)/2 with long roots normalized to length^2 = 2, so
    that G = (coroot Gram matrix) has G[i][j] = A[j][i] / d_i ... see `inner`.
    """
    n = rank
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = Fraction(2)
    for i in range(n - 1):
        a[i][i + 1] = Fraction(-1)
        a[i + 1][i] = Fraction(-1)
    d = [Fraction(1)] * n
    if ctype == "A":
        pass
    elif ctype == "B":
        # alpha_n short: d_n = 1/2, <alpha_{n-1}, alpha_n^vee> = -2
        a[n - 2][n - 1] = Fraction(-2)
        d[n - 1] = Fraction(1, 2)
    elif ctype == "C":
        # alpha_n long: d_n = 2, <alpha_n, alpha_{n-1}^vee> = -2
        a[n - 1][n - 2] = Fraction(-2)
        d[n - 1] = Fraction(2)
    elif ctype == "D":
        # fork: last node attaches to node n-3 instead of n-2 (D_2 = A_1 x A_1)
        a[n - 2][n - 1] = Fraction(0)
        a[n - 1][n - 2] = Fraction(0)
        if n >= 3:
            a[n - 3][n - 1] = Fraction(-1)
            a[n - 1][n - 3] = Fraction(-1)
    return tuple(tuple(row) for row in a), tuple(d)


@dataclass(frozen=True)
class RootDatum:
    ctype: str
    rank: int
    cartan: Mat  # cartan[i][j] = <alpha_i, alpha_j^vee>
    sym: tuple[Fraction, ...]  # d_i = (alpha_i, alpha_i)/2

    def __hash__(self):
        # type and rank fix the Cartan data, so the caches keyed on parabolics
        # hash no Fraction
        return hash((self.ctype, self.rank))

    @property
    def simple_roots(self) -> tuple[Vec, ...]:
        # alpha_j as a form vector: component i is alpha_j(alpha_i^vee) = cartan[j][i]
        return self.cartan

    @property
    def fundamental_weights(self) -> tuple[Vec, ...]:
        return identity(self.rank)

    @property
    def inner(self) -> Mat:
        """Gram matrix of the simple coroots under the Weyl-invariant form.

        (alpha_i^vee, alpha_j^vee) = <alpha_j, alpha_i^vee>/d_j = cartan[j][i]/d_j.
        """
        n = self.rank
        return tuple(
            tuple(self.cartan[j][i] / self.sym[j] for j in range(n)) for i in range(n)
        )

    @cached_property
    def inv_inner(self) -> Mat:
        return invert(self.inner)

    def norm2(self, x: Vec) -> Fraction:
        return dot(x, mat_vec(self.inner, x))

    def form_norm2(self, lam: Vec) -> Fraction:
        """Squared dual norm of a linear form."""
        return dot(lam, mat_vec(self.inv_inner, lam))


def build_root_datum(ctype: str, rank: int) -> RootDatum:
    ctype = ctype.upper()
    if ctype not in _VALID_TYPES:
        raise ValueError(f"unknown Cartan type {ctype!r}; expected one of {_VALID_TYPES}")
    minimum = {"A": 1, "B": 2, "C": 2, "D": 2}[ctype]
    if rank < minimum:
        raise ValueError(f"type {ctype} requires rank >= {minimum}, got {rank}")
    cartan, sym = _cartan_matrix(ctype, rank)
    return RootDatum(ctype, rank, cartan, sym)


@dataclass(frozen=True)
class ParabolicSubset:
    """Standard parabolic named by its complement subset of simple-root indices.

    `outside` holds the indices whose roots are NOT in the Levi, so the minimal
    parabolic carries the full index set and the whole group the empty one.
    """

    datum: RootDatum
    outside: frozenset[int]

    def __post_init__(self):
        if not all(0 <= i < self.datum.rank for i in self.outside):
            raise ValueError("root index out of range")

    @property
    def levi(self) -> frozenset[int]:
        return frozenset(range(self.datum.rank)) - self.outside

    def contains(self, other: "ParabolicSubset") -> bool:
        """self <= other in the parabolic order (self contained in other)."""
        return self.outside >= other.outside

    def __le__(self, other):
        return self.contains(other)


def parabolic(datum: RootDatum, outside) -> ParabolicSubset:
    return ParabolicSubset(datum, frozenset(outside))


def parabolic_from_levi(datum: RootDatum, levi) -> ParabolicSubset:
    return ParabolicSubset(datum, frozenset(range(datum.rank)) - frozenset(levi))


def minimal_parabolic(datum: RootDatum) -> ParabolicSubset:
    return parabolic(datum, range(datum.rank))


def full_group(datum: RootDatum) -> ParabolicSubset:
    return parabolic(datum, ())


def _require_nested(p: ParabolicSubset, q: ParabolicSubset):
    if p.datum is not q.datum and p.datum != q.datum:
        raise ValueError("parabolics from different root data")
    if not p <= q:
        raise ValueError("expected nested parabolics P <= Q")


def delta_between(p: ParabolicSubset, q: ParabolicSubset) -> tuple[int, ...]:
    """Indices of the simple roots in the Levi of Q but not of P."""
    _require_nested(p, q)
    return tuple(sorted(p.outside - q.outside))


@lru_cache(maxsize=None)
def subspace_basis(p: ParabolicSubset, q: ParabolicSubset) -> tuple[Vec, ...]:
    """Basis of a_P^Q = a_P ∩ a^Q in coroot coordinates.

    a^Q is the coordinate span of the Levi coroots of Q; inside it we cut by
    the simple-root forms of the Levi of P.
    """
    _require_nested(p, q)
    datum = p.datum
    n = datum.rank
    span_idx = sorted(q.levi)
    rows = [[datum.simple_roots[i][j] for j in span_idx] for i in sorted(p.levi)]
    small = nullspace(rows, len(span_idx))
    basis = []
    for v in small:
        w = [Fraction(0)] * n
        for c, j in zip(v, span_idx):
            w[j] = c
        basis.append(tuple(w))
    return tuple(basis)


def projection_matrix(p: ParabolicSubset, q: ParabolicSubset) -> Mat:
    """Matrix of the orthogonal projection onto a_P^Q (columns = images of e_j)."""
    datum = p.datum
    basis = subspace_basis(p, q)
    cols = [project_onto_span(basis, unit_vec, datum.inner) for unit_vec in identity(datum.rank)]
    return transpose(cols)


@lru_cache(maxsize=None)
def _projector(p: ParabolicSubset, q: ParabolicSubset):
    """(N, N^T, d, tests): the int matrix N = d * projection_matrix(p, q), and
    per i in delta_between(p, q) the rows (alpha_i N, N_i) that `gamma` tests."""
    rows, d = integer_rows(projection_matrix(p, q))
    cols = tuple(zip(*rows))
    roots = integer_rows(p.datum.simple_roots)[0]
    tests = tuple((tuple(sum(map(mul, roots[i], c)) for c in cols), rows[i]) for i in delta_between(p, q))
    return rows, cols, d, tests


def _integer_vector(x, n: int) -> tuple[tuple[int, ...], int]:
    """(den * x, den) for the least den that makes x integral."""
    v = vec(x)
    if len(v) != n:
        raise ValueError(f"expected a vector of length {n}, got {len(v)}")
    (xs,), den = integer_rows([v])
    return xs, den


def _apply(rows, d: int, xs, den: int) -> Vec:
    """(rows / d)(xs / den), one exact Fraction per row."""
    dd = d * den
    return tuple(Fraction(sum(map(mul, row, xs)), dd) for row in rows)


def project(x, p: ParabolicSubset, q: ParabolicSubset | None = None) -> Vec:
    """Orthogonal projection X_P^Q of X onto a_P^Q (Q defaults to the full group),
    as the cached int matrix N = d * projection_matrix(p, q) times X scaled to ints."""
    rows, _, d, _ = _projector(p, full_group(p.datum) if q is None else q)
    return _apply(rows, d, *_integer_vector(x, len(rows)))


def coproject(lam, p: ParabolicSubset, q: ParabolicSubset | None = None) -> Vec:
    """The form lam composed with projection onto a_P^Q (the dual projection lam_P)."""
    _, cols, d, _ = _projector(p, full_group(p.datum) if q is None else q)
    return _apply(cols, d, *_integer_vector(lam, len(cols)))


def parabolics_between(p: ParabolicSubset, q: ParabolicSubset):
    """All R with P <= R <= Q, as ParabolicSubsets."""
    _require_nested(p, q)
    between = delta_between(p, q)
    out = []
    for k in range(len(between) + 1):
        for extra in combinations(between, k):
            out.append(ParabolicSubset(p.datum, p.outside - frozenset(extra)))
    return out


def gamma(p: ParabolicSubset, q: ParabolicSubset, x, t):
    """Arthur's alternating truncation indicator for the pair P <= Q.

    Works on the projections X_P^Q, T_P^Q.  Returns 1 on the open region whose
    closure is cvx(T_R)_{P<=R<=Q}, 0 outside it, and BOUNDARY whenever any of
    the tested root/weight functionals vanishes exactly (the union of these
    zero sets covers every boundary hyperplane of the hull).

    The alternating sum over P <= R <= Q factors as the product over i in
    delta_between(p, q) of [alpha_i(X_P^Q) > 0] - [w_i(X_P^Q - T_P^Q) > 0].
    With N = d * projection_matrix(p, q), X = xs/x_den and T = ts/t_den, these
    have the signs of (alpha_i N) xs and (N xs)_i t_den - (N ts)_i x_den.
    """
    rows, _, _, tests = _projector(p, q)
    xs, x_den = _integer_vector(x, len(rows))
    ts, t_den = _integer_vector(t, len(rows))
    value = 1
    for root_row, row in tests:
        root = sum(map(mul, root_row, xs))
        y = sum(map(mul, row, xs)) * t_den - sum(map(mul, row, ts)) * x_den
        if root == 0 or y == 0:
            return BOUNDARY
        value *= (root > 0) - (y > 0)
    return value


def gamma_hull_points(p: ParabolicSubset, q: ParabolicSubset, t) -> tuple[Vec, ...]:
    """The projections (T_R)_P^Q for P <= R <= Q: vertices generating the support hull."""
    ts, den = _integer_vector(t, p.datum.rank)
    pts = []
    for r in parabolics_between(p, q):
        rows, _, d, _ = _projector(r, q)  # projection of T to a_R^Q, inside a_P^Q
        pts.append(_apply(rows, d, ts, den))
    return tuple(pts)


# --- representation weight sets --------------------------------------------


def _saturation(datum: RootDatum, highest: Vec) -> frozenset[Vec]:
    """All weights of the irreducible representation with the given dominant
    highest weight, via downward simple-root strings."""
    if any(c < 0 for c in highest):
        raise ValueError("highest weight must be dominant (nonnegative coordinates)")
    if any(c.denominator != 1 for c in highest):
        raise ValueError("highest weight must have integer coordinates")
    roots = datum.simple_roots
    seen = {highest}
    frontier = [highest]
    while frontier:
        w = frontier.pop()
        for i in range(datum.rank):
            k = w[i]  # <w, alpha_i^vee> in fundamental-weight coordinates
            step = w
            for _ in range(int(k)):
                step = sub(step, roots[i])
                if step not in seen:
                    seen.add(step)
                    frontier.append(step)
    return frozenset(seen)


def _dominantify(datum: RootDatum, w: Vec) -> Vec:
    cur = w
    while True:
        i = next((i for i in range(datum.rank) if cur[i] < 0), None)
        if i is None:
            return cur
        cur = reflect(datum, i, cur)


def _all_roots(datum: RootDatum) -> frozenset[Vec]:
    """Every root, as the union of saturations of the dominant representatives
    of the simple-root orbits (covers reducible rank-2 type D as well)."""
    out: set[Vec] = set()
    for alpha in datum.simple_roots:
        out |= _saturation(datum, _dominantify(datum, alpha))
    zero = zeros(datum.rank)
    return frozenset(w for w in out if w != zero)


@dataclass(frozen=True)
class WeightSet:
    datum: RootDatum
    spec: str
    weights: frozenset[Vec]  # nonzero restricted weights, in form coordinates

    def __iter__(self):
        return iter(sorted(self.weights))

    def __len__(self):
        return len(self.weights)

    def __contains__(self, w):
        return vec(w) in self.weights


def weights_of(datum: RootDatum, rep_spec) -> WeightSet:
    """Nonzero weight set of a representation.

    rep_spec: "standard" | "adjoint" | "trivial" | "symK" (e.g. "sym3") |
    a sequence of nonnegative fundamental-weight coordinates (highest weight).
    """
    zero = zeros(datum.rank)
    if isinstance(rep_spec, str):
        name = rep_spec.lower()
        if name == "trivial":
            return WeightSet(datum, "trivial", frozenset())
        if name == "adjoint":
            return WeightSet(datum, "adjoint", _all_roots(datum))
        if name == "standard":
            full = _saturation(datum, identity(datum.rank)[0])
            return WeightSet(datum, "standard", frozenset(w for w in full if w != zero))
        if name.startswith("sym"):
            k = int(name[3:])
            if k < 0:
                raise ValueError("symmetric power must be nonnegative")
            base = _saturation(datum, identity(datum.rank)[0])
            sums = {zero}
            for _ in range(k):
                sums = {add(a, b) for a in sums for b in base}
            return WeightSet(datum, name, frozenset(w for w in sums if w != zero))
        raise ValueError(f"unknown representation spec {rep_spec!r}")
    highest = vec(rep_spec)
    if len(highest) != datum.rank:
        raise ValueError("highest weight has wrong length")
    full = _saturation(datum, highest)
    return WeightSet(datum, f"highest_weight{tuple(map(str, highest))}", frozenset(w for w in full if w != zero))


def reflect(datum: RootDatum, i: int, w) -> Vec:
    """Simple reflection s_i acting on a form vector."""
    wv = vec(w)
    return sub(wv, scale(wv[i], datum.simple_roots[i]))


# --- serialization ----------------------------------------------------------


def datum_to_json(datum: RootDatum, weights: WeightSet | None = None) -> str:
    out = {
        "type": datum.ctype,
        "rank": datum.rank,
        "simple_roots": datum.simple_roots,
        "fundamental_weights": datum.fundamental_weights,
        "inner_product": datum.inner,
    }
    if weights is not None:
        out["weights"] = sorted(weights.weights)
    return json.dumps(exact_json(out))
