"""Command-line surface for the package.

Subcommands cover root-datum queries, nested indicator evaluation, parametric
chamber integrals, cone families, region decomposition with refinement and
slice integrals, the one-dimensional asymptotics table, and the brute-force
polytope oracles.  All rational inputs are "p/q" strings (comma-separated for
vectors, semicolons between rows); outputs are JSON with sorted keys, or CSV
and OFF where noted, so identical invocations produce identical bytes.

Exit codes: 0 success, 1 domain error (infeasible input, failed validation),
2 argument error.  Errors are reported as {"error": {"kind", "message"}}.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import asymptote, chambers, polyhedra, regions, rootspace
from . import tfinite as tfin
from .linalg import exact_json, vec

_DOMAIN_ERRORS = (
    ValueError,
    ZeroDivisionError,
    polyhedra.UnboundedError,
    chambers.PoleCancellationError,
    regions.CertificateError,
    regions.ClosureError,
    regions.TransportError,
)


class ArgumentDataError(Exception):
    """Malformed inline data (bad rational, wrong arity)."""


def _parse_vec(text: str) -> tuple[Fraction, ...]:
    try:
        return vec([Fraction(p.strip()) for p in text.split(",") if p.strip() != ""])
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentDataError(f"bad rational vector {text!r}: {exc}") from exc


def _parse_rows(text: str) -> list[tuple[Fraction, ...]]:
    return [_parse_vec(row) for row in text.split(";") if row.strip() != ""]


def _parse_fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentDataError(f"bad rational {text!r}: {exc}") from exc


def _parse_eps(text: str) -> Fraction:
    eps = _parse_fraction_arg(text)
    if eps <= 0:
        raise ArgumentDataError(f"--eps must be positive, got {text!r}")
    return eps


def _parse_largeness(text: str) -> Fraction:
    large = _parse_fraction_arg(text)
    if large < 0:
        raise ArgumentDataError(f"--largeness must be nonnegative, got {text!r}")
    return large


def _parse_levi(datum: rootspace.RootDatum, text: str) -> rootspace.ParabolicSubset:
    """Parabolic from its Levi set, written 'a1,a3' or '1,3' ('' = minimal)."""
    levi = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part.startswith("a"):
            part = part[1:]
        try:
            i = int(part) - 1
        except ValueError as exc:
            raise ArgumentDataError(f"bad simple-root label {part!r}") from exc
        if not 0 <= i < datum.rank:
            raise ArgumentDataError(f"simple-root label {part!r} out of range")
        levi.add(i)
    return rootspace.parabolic_from_levi(datum, frozenset(levi))


def _rep_spec(text: str, rank: int):
    if text in {"adjoint", "standard", "trivial"}:
        return text
    if not text.startswith("sym"):
        highest = _parse_vec(text)
        if len(highest) != rank:
            raise ArgumentDataError(f"highest weight {text!r} has length {len(highest)}, the rank is {rank}")
        if any(c < 0 or c.denominator != 1 for c in highest):
            raise ArgumentDataError(f"highest weight {text!r} must have nonnegative integer coordinates")
        return highest
    if not (text[3:].isascii() and text[3:].isdigit()):
        raise ArgumentDataError(f"bad representation {text!r}: K in symK must be a nonnegative integer")
    return text


def _datum(args) -> rootspace.RootDatum:
    try:  # --type is already one of ABCD, so only a rank below the type's minimum lands here
        return rootspace.build_root_datum(args.ctype, args.rank)
    except ValueError as exc:
        raise ArgumentDataError(str(exc)) from exc


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(exact_json(obj), sort_keys=True, separators=(",", ": "), indent=1))
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_rootdatum(args) -> int:
    datum = _datum(args)
    weights = rootspace.weights_of(datum, _rep_spec(args.rep, datum.rank)) if args.rep else None
    _emit(json.loads(rootspace.datum_to_json(datum, weights)))
    return 0


def _cmd_gamma(args) -> int:
    datum = _datum(args)
    p = _parse_levi(datum, args.P)
    q = _parse_levi(datum, args.Q)
    if not q.outside <= p.outside:
        raise ArgumentDataError("P must be contained in Q")
    value = rootspace.gamma(p, q, _rank_vec(args.X, "X", datum.rank), _rank_vec(args.T, "T", datum.rank))
    _emit({"value": value if value == rootspace.BOUNDARY else int(value), "exact": True})
    return 0


def _cmd_bv(args) -> int:
    normals = _parse_rows(args.normals)
    if not normals:
        raise ArgumentDataError("at least one normal is required")
    dim = len(normals[0])
    if any(len(a) != dim for a in normals):
        raise ArgumentDataError("every normal must have the same length")
    pp = chambers.ParametricPolyhedron.make(normals, dim)
    x = _parse_vec(args.x)
    mu = _parse_vec(args.mu)
    if len(x) != pp.n_constraints:
        raise ArgumentDataError("x must have one entry per constraint")
    if len(mu) != dim:
        raise ArgumentDataError("mu must match the ambient dimension")
    cd = chambers.enumerate_bases(pp)
    assignment = chambers.chamber_of(cd, x)
    out = {
        "chamber": sorted(sorted(s) for s in assignment.members),
        "maximal": assignment.maximal,
        "exact": True,
    }
    if args.limit:
        fn = chambers.bv_limit_tfinite(cd, assignment.members, mu)
        out["kind"] = "tfinite"
        out["result"] = json.loads(tfin.to_json(fn))
        out["float_value"] = float(fn.eval(x))
    else:
        es = chambers.bv_integral(cd, assignment.members, x, mu)
        out["kind"] = "exp_sum"
        out["result"] = {"terms": [{"coeff": c, "exponent": e} for c, e in es.terms]}
        out["float_value"] = float(es.eval())
    _emit(out)
    return 0


def _cmd_cones(args) -> int:
    datum = _datum(args)
    psi = regions.psi_pi(datum, rootspace.weights_of(datum, _rep_spec(args.rep, datum.rank)))
    eps = _parse_eps(args.eps) if args.eps else None
    family = regions.pi_cones(psi, eps)
    _emit({
        "walls": family.hyperplanes,
        "cells": [{"signs": c.signs, "witness": c.witness} for c in family.cones],
        "epsilon": family.epsilon,
        "suggested_epsilon": regions.suggest_epsilon(family),
        "exact": True,
    })
    return 0


def _rank_vec(text: str, name: str, rank: int) -> tuple[Fraction, ...]:
    v = _parse_vec(text)
    if len(v) != rank:
        raise ArgumentDataError(f"--{name} has length {len(v)}, the rank is {rank}")
    return v


def _regions_context(args):
    if args.jobs < 1:
        raise ArgumentDataError(f"--jobs must be at least 1, got {args.jobs}")
    large = _parse_largeness(args.largeness) if args.largeness else None
    datum = _datum(args)
    psi = regions.psi_pi(datum, rootspace.weights_of(datum, _rep_spec(args.rep, datum.rank)))
    p = _parse_levi(datum, args.P)
    q = _parse_levi(datum, args.Q)
    if not q.outside:  # make_context's checks, made here as argument checks
        raise ArgumentDataError("q must be a proper parabolic")
    if not q.outside <= p.outside:
        raise ArgumentDataError("p must be contained in q")
    t, s = _rank_vec(args.T, "T", datum.rank), _rank_vec(args.S, "S", datum.rank)
    return regions.make_context(datum, p, q, psi, _parse_eps(args.eps), large), t, s


def _cmd_regions_decompose(args) -> int:
    ctx, t, s = _regions_context(args)
    descs = regions.decompose(ctx, t, s)
    _emit(regions.decomposition_to_json(ctx, descs))
    return 0


def _pick_region(ctx, t, s, args):
    try:  # checked before the decomposition, which is the slow part
        indices = [int(part) for part in args.pi_one.split(",") if part.strip()]
    except ValueError as exc:
        raise ArgumentDataError(f"bad weight index list {args.pi_one!r}: {exc}") from exc
    if not indices:
        raise ArgumentDataError(f"--pi-one must name at least one weight, got {args.pi_one!r}")
    descs = regions.decompose(ctx, t, s)
    if not 0 <= args.region_index < len(descs):
        raise ArgumentDataError(
            f"region index {args.region_index} out of range (0..{len(descs) - 1})"
        )
    desc = descs[args.region_index]
    for i in indices:
        if not 0 <= i < len(desc.pi):
            raise ArgumentDataError(f"weight index {i} out of range")
    return desc, tuple(desc.pi[i] for i in indices)


def _cmd_regions_refine(args) -> int:
    ctx, t, s = _regions_context(args)
    desc, pi_one = _pick_region(ctx, t, s, args)
    refs = regions.refine(ctx, desc, pi_one, t, s)
    _emit({"refinements": [regions.refinement_to_json(ctx, r) for r in refs]})
    return 0


def _cmd_regions_slice(args) -> int:
    ctx, t, s = _regions_context(args)
    x = _rank_vec(args.X, "X", ctx.datum.rank)
    mu = _rank_vec(args.mu, "mu", ctx.datum.rank) if args.mu else None
    desc, pi_one = _pick_region(ctx, t, s, args)
    refs = regions.refine(ctx, desc, pi_one, t, s)
    if not 0 <= args.ref_index < len(refs):
        raise ArgumentDataError(
            f"refinement index {args.ref_index} out of range (0..{len(refs) - 1})"
        )
    ref = refs[args.ref_index]
    sd = regions.slice_polytope(ctx, ref, x, t, s)
    out = {"vertices": sd.polytope.vertices, "kernel_basis": sd.kernel_basis, "exact": True}
    if mu is not None:
        out["integral"] = regions.slice_exp_integral(ctx, ref, x, t, s, mu)
        out["integral_kind"] = "float"
    _emit(out)
    return 0


def _cmd_asymptote_toy(args) -> int:
    ts = tuple(float(x) for x in _parse_vec(args.t_list))
    table = asymptote.residual_table(ts, args.branch)
    sys.stdout.write("T,integral,profile,residual\n")
    for e in table:
        sys.stdout.write(
            f"{e.t_value!r},{e.integral!r},{e.profile_value!r},{e.residual!r}\n"
        )
    return 0


def _read_input(args) -> str:
    try:
        if args.infile == "-":
            return sys.stdin.read()
        with open(args.infile, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ArgumentDataError(f"cannot read {args.infile!r}: {exc}") from exc


def _load_polytope(text: str, loader, what: str):
    try:
        return loader(text)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ArgumentDataError(f"malformed {what} input: {exc!r}") from exc


def _cmd_oracle_vertices(args) -> int:
    h = _load_polytope(_read_input(args), polyhedra.h_from_json, "H-rep")
    v = polyhedra.vertices(h)
    if args.format == "off":
        sys.stdout.write(polyhedra.to_off(v))
        return 0
    _emit(json.loads(polyhedra.v_to_json(v)))
    return 0


def _cmd_oracle_integrate(args) -> int:
    v = _load_polytope(_read_input(args), polyhedra.v_from_json, "V-rep")
    mu = _parse_vec(args.mu)
    if v.vertices and len(mu) != v.dim:
        raise ArgumentDataError(f"--mu has length {len(mu)}, the polytope has dimension {v.dim}")
    value = polyhedra.integrate_exp_oracle(v, mu)
    _emit({"value": value, "kind": "float", "method": "simplicial"})
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_datum_args(sp) -> None:
    sp.add_argument("--type", dest="ctype", required=True, choices=list("ABCD"))
    sp.add_argument("--rank", type=int, required=True)


def _add_regions_args(sp) -> None:
    _add_datum_args(sp)
    sp.add_argument("--rep", required=True, help="adjoint|standard|trivial|symK|c1,c2,...")
    sp.add_argument("--P", required=True, help="Levi set of P, e.g. '' or 'a1,a3'")
    sp.add_argument("--Q", required=True, help="Levi set of Q")
    sp.add_argument("--eps", required=True, help="positive rational p/q")
    sp.add_argument("--T", required=True, help="rational vector")
    sp.add_argument("--S", required=True, help="rational vector")
    sp.add_argument("--largeness", default=None, help="override squared largeness bound")
    sp.add_argument("--jobs", type=int, default=1, help="accepted (at least 1) and ignored; the run is serial")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weylcone",
        description="Cone decompositions, chamber integrals, and indicator calculus.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rootdatum", help="emit a root datum as JSON")
    _add_datum_args(sp)
    sp.add_argument("--rep", default=None)
    sp.set_defaults(func=_cmd_rootdatum)

    sp = sub.add_parser("gamma", help="evaluate the nested-hull indicator")
    _add_datum_args(sp)
    sp.add_argument("--P", required=True)
    sp.add_argument("--Q", required=True)
    sp.add_argument("--X", required=True)
    sp.add_argument("--T", required=True)
    sp.set_defaults(func=_cmd_gamma)

    sp = sub.add_parser("bv", help="parametric chamber integral")
    sp.add_argument("--normals", required=True, help="rows 'a,b;c,d;...'")
    sp.add_argument("--x", required=True, help="offset parameters, one per row")
    sp.add_argument("--mu", required=True, help="integrand covector")
    sp.add_argument("--limit", action="store_true", help="take the degenerate limit")
    sp.set_defaults(func=_cmd_bv)

    sp = sub.add_parser("cones", help="distance-positivity cone family")
    _add_datum_args(sp)
    sp.add_argument("--rep", required=True)
    sp.add_argument("--eps", default=None)
    sp.set_defaults(func=_cmd_cones)

    rg = sub.add_parser("regions", help="region decomposition").add_subparsers(
        dest="subcommand", required=True
    )
    sp = rg.add_parser("decompose")
    _add_regions_args(sp)
    sp.set_defaults(func=_cmd_regions_decompose)
    sp = rg.add_parser("refine")
    _add_regions_args(sp)
    sp.add_argument("--region-index", type=int, required=True)
    sp.add_argument("--pi-one", required=True, help="weight indices into the region's pi")
    sp.set_defaults(func=_cmd_regions_refine)
    sp = rg.add_parser("slice")
    _add_regions_args(sp)
    sp.add_argument("--region-index", type=int, required=True)
    sp.add_argument("--pi-one", required=True)
    sp.add_argument("--ref-index", type=int, default=0)
    sp.add_argument("--X", required=True)
    sp.add_argument("--mu", default=None)
    sp.set_defaults(func=_cmd_regions_slice)

    at = sub.add_parser("asymptote", help="toy asymptotics").add_subparsers(
        dest="subcommand", required=True
    )
    sp = at.add_parser("toy")
    sp.add_argument("--T-list", dest="t_list", default="2,3,4,5,6")
    sp.add_argument("--branch", choices=["plus", "minus"], default="plus")
    sp.set_defaults(func=_cmd_asymptote_toy)

    orc = sub.add_parser("oracle", help="brute-force polytope oracles").add_subparsers(
        dest="subcommand", required=True
    )
    sp = orc.add_parser("vertices")
    sp.add_argument("--in", dest="infile", default="-")
    sp.add_argument("--format", choices=["json", "off"], default="json")
    sp.set_defaults(func=_cmd_oracle_vertices)
    sp = orc.add_parser("integrate")
    sp.add_argument("--in", dest="infile", default="-")
    sp.add_argument("--mu", required=True)
    sp.set_defaults(func=_cmd_oracle_integrate)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentDataError as exc:
        _emit({"error": {"kind": "argument", "message": str(exc)}})
        return 2
    except _DOMAIN_ERRORS as exc:
        _emit({"error": {"kind": "domain", "message": str(exc)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
