"""Outside-in per-layer trace of weylcone.

The tracer replaces public, coarse functions of each weylcone module with
timing wrappers, including the names other weylcone modules bound to them
with ``from ... import`` (``polyhedra.solve`` is ``linalg.solve``).  A span is
one call of a wrapped function; its self time is its duration minus the parts
covered by its child spans.  Nothing inside ``src/`` changes.

A layer is a module.  ``<layer>.calls`` counts calls that enter the layer
from outside it, and ``<layer>.self_s`` sums the self time of its spans.
Calls nested inside the same layer get spans of their own (so that, say,
``polyhedra.recession_direction`` under ``polyhedra.vertices`` is visible),
except in ``lp``: its entry points all delegate to ``lp.solve``, so an LP
call is one span named after the entry point the caller used, and
``lp.solve.*`` covers direct calls only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Public, coarse functions per module; vector helpers such as dot or vec are
# left out on purpose.  Names missing from the module are skipped, so the
# trace keeps working when a later change removes one.
TRACED = {
    "linalg": (
        "rref", "rank", "nullspace", "solve", "solve_any", "det", "invert",
        "gram", "project_onto_span", "coords_in_basis", "span_key",
        "independent_subset", "mat_mul",
    ),
    "lp": ("solve", "feasible_point", "interior_point", "lexmin_point"),
    "polyhedra": (
        "feasible_point", "recession_direction", "vertices", "face_lattice",
        "in_hull", "extreme_points", "minkowski_sum", "to_hrep",
        "canonical_hrep", "squared_distance", "triangulate", "volume",
        "integrate_exp_oracle",
    ),
    "rootspace": (
        "build_root_datum", "subspace_basis", "projection_matrix", "project",
        "coproject", "parabolics_between", "gamma", "gamma_hull_points",
        "weights_of",
    ),
    "tfinite": (
        "fit_tfinite", "Polynomial.eval", "TFiniteFunction.make",
        "TFiniteFunction.eval",
    ),
    "chambers": (
        "enumerate_bases", "chamber_of", "is_bounded", "bv_integral",
        "bv_limit_tfinite", "choose_mu0", "ExpSum.eval",
    ),
    "regions": (
        "psi_pi", "psi_at", "d_value_squared", "pi_cones", "suggest_epsilon",
        "cone_of", "r_prime", "kappa", "make_context", "well_situated_report",
        "base_inequalities", "region_inequalities", "instantiate", "decompose",
        "region_vertices_affine", "refine", "slice_polytope",
        "slice_exp_integral", "fit_slice_model", "lemma33_equivalence",
    ),
}

# Functions whose repeat ratio (calls on an argument already seen in the same
# item) is reported; the first argument is the key.
REPEAT_KEYED = ("polyhedra.recession_direction", "polyhedra.face_lattice")


class _Span:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str):
        self.layer = layer
        self.child = 0.0  # seconds covered by child spans


class Tracer:
    """Span bookkeeping for the wrapped functions; records only while active."""

    def __init__(self):
        self.active = False
        self.stack: list[_Span] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.returned_some: dict[str, int] = defaultdict(int)
        self.returned_zero: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self.tableau_cells = 0
        self.seen: dict[str, set] = defaultdict(set)
        self.cache_hits = 0
        self.cache_misses = 0
        self.cached = None  # the lru_cache object behind rootspace.projection_matrix

    def new_item(self) -> None:
        self.seen.clear()

    def _note_lp_shape(self, args, kwargs) -> None:
        # lp.solve(objective, n, a_ub=..., a_eq=...): the standard form has
        # one row per constraint and columns u, w (n each) plus one slack per
        # inequality row.
        n = args[1] if len(args) > 1 else kwargs["n"]
        nub = len(kwargs.get("a_ub", ()))
        neq = len(kwargs.get("a_eq", ()))
        self.tableau_cells += (nub + neq) * (2 * n + nub)

    def wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        is_lp_solve = full == "lp.solve"
        keyed = full in REPEAT_KEYED
        count_some = full == "lp.interior_point"
        count_zero = full == "polyhedra.squared_distance"
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_lp_solve:
                tracer._note_lp_shape(args, kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if layer == "lp" and parent is not None and parent.layer == "lp":
                return fn(*args, **kwargs)
            if keyed:
                seen = tracer.seen[full]
                if args[0] in seen:
                    tracer.repeats[full] += 1
                else:
                    seen.add(args[0])
            span = _Span(layer)
            stack.append(span)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                tracer.self_s[full] += dur - span.child
                tracer.calls[full] += 1
                if parent is None:
                    tracer.layer_calls[layer] += 1
                else:
                    parent.child += dur
                    if parent.layer != layer:
                        tracer.layer_calls[layer] += 1
            if count_some and out is not None:
                tracer.returned_some[full] += 1
            if count_zero and out == 0:
                tracer.returned_zero[full] += 1
            return out

        return functools.wraps(fn)(traced)

    def install(self, package) -> None:
        """Wrap every name in TRACED and rebind every module-level alias."""
        originals: dict[int, tuple] = {}  # id -> (original, wrapper)
        for short, names in TRACED.items():
            mod = importlib.import_module(f"{package.__name__}.{short}")
            for name in names:
                if "." in name:  # a method: wrap it on its class
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name, None)
                    raw = vars(owner).get(attr) if owner is not None else None
                    if isinstance(raw, staticmethod):
                        setattr(owner, attr, staticmethod(self.wrap(short, name, raw.__func__)))
                    elif raw is not None:
                        setattr(owner, attr, self.wrap(short, name, raw))
                    continue
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                if short == "rootspace" and name == "projection_matrix":
                    self.cached = fn
                wrapped = self.wrap(short, name, fn)
                originals[id(fn)] = (fn, wrapped)
                setattr(mod, name, wrapped)
        # aliases bound by `from .x import y` in every loaded weylcone module
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def cache_counts(self) -> tuple[int, int]:
        info = getattr(self.cached, "cache_info", None)
        if info is None:
            return 0, 0
        ci = info()
        return ci.hits, ci.misses

    def metrics(self, timed_wall: float, timed_cpu: float, untraced_wall: float) -> dict:
        """The per-layer metrics over everything recorded while active."""
        out: dict[str, tuple[float, str]] = {}

        def layer_self(layer):
            return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

        def ratio(num, den):
            return num / den if den else 0.0

        for layer in ("lp", "polyhedra", "rootspace", "chambers", "tfinite", "regions", "linalg"):
            out[f"{layer}.self_s"] = (layer_self(layer), "s")
            out[f"{layer}.calls"] = (self.layer_calls.get(layer, 0), "count")
        out["lp.tableau_cells"] = (self.tableau_cells, "count")
        for name in (
            "lp.feasible_point", "lp.interior_point", "lp.solve",
            "polyhedra.recession_direction", "polyhedra.squared_distance",
            "polyhedra.vertices", "polyhedra.to_hrep", "polyhedra.triangulate",
            "polyhedra.integrate_exp_oracle", "polyhedra.in_hull",
            "rootspace.gamma", "chambers.is_bounded", "chambers.bv_limit_tfinite",
            "tfinite.fit_tfinite", "regions.decompose", "regions.refine",
            "regions.region_vertices_affine", "regions.fit_slice_model",
            "regions.pi_cones", "regions.d_value_squared",
        ):
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        ip = "lp.interior_point"
        out[f"{ip}.hit_ratio"] = (ratio(self.returned_some.get(ip, 0), self.calls.get(ip, 0)), "ratio")
        out["lp.lexmin_point.calls"] = (self.calls.get("lp.lexmin_point", 0), "count")
        rd = "polyhedra.recession_direction"
        out[f"{rd}.calls"] = (self.calls.get(rd, 0), "count")
        for name in REPEAT_KEYED:
            out[f"{name}.repeat_ratio"] = (ratio(self.repeats.get(name, 0), self.calls.get(name, 0)), "ratio")
        sd = "polyhedra.squared_distance"
        out[f"{sd}.zero_ratio"] = (ratio(self.returned_zero.get(sd, 0), self.calls.get(sd, 0)), "ratio")
        out["rootspace.projection_matrix.hit_ratio"] = (
            ratio(self.cache_hits, self.cache_hits + self.cache_misses), "ratio")
        out["process.cpu_per_wall"] = (ratio(timed_cpu, timed_wall), "ratio")
        out["trace.overhead_ratio"] = (ratio(timed_wall, untraced_wall), "ratio")
        return out
