"""End-to-end command-line checks (in-process, plus one console-script run)."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from weylcone import cli
from weylcone import polyhedra as PH

SQUARE_H = PH.HPolyhedron.from_pairs(
    [((F(1), F(0)), F(0)), ((F(0), F(1)), F(0)), ((F(-1), F(0)), F(1)), ((F(0), F(-1)), F(1))],
    2,
)

DECOMPOSE_ARGS = [
    "regions", "decompose", "--type", "A", "--rank", "2", "--rep", "adjoint",
    "--P", "", "--Q", "a2", "--eps", "1/4", "--T", "8,8", "--S", "1/2,1/2",
]


DATA = Path(__file__).resolve().parent / "data"


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_rootdatum_json(capsys):
    code, out = run(["rootdatum", "--type", "A", "--rank", "2", "--rep", "adjoint"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["type"] == "A" and blob["rank"] == 2
    assert blob["simple_roots"] == [["2", "-1"], ["-1", "2"]]
    assert len(blob["weights"]) == 6


def test_gamma_values(capsys):
    base = ["gamma", "--type", "A", "--rank", "1", "--P", "", "--Q", "a1", "--T", "2"]
    assert run(base + ["--X", "1/2"], capsys) == (0, '{\n "exact": true,\n "value": 1\n}\n')
    code, out = run(base + ["--X", "3"], capsys)
    assert code == 0 and json.loads(out)["value"] == 0
    code, out = run(base + ["--X", "0"], capsys)
    assert code == 0 and json.loads(out)["value"] == "boundary"


def test_gamma_containment_is_argument_error(capsys):
    code, out = run(
        ["gamma", "--type", "A", "--rank", "2", "--P", "a1", "--Q", "",
         "--X", "1,1", "--T", "2,2"],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "argument", "message": "P must be contained in Q"}


@pytest.mark.parametrize(
    "p, q, message",
    [("a1", "a2", "p must be contained in q"), ("", "a1,a2", "q must be a proper parabolic")],
    ids=["P-not-in-Q", "Q-is-G"],
)
def test_regions_bad_parabolic_pair_is_argument_error(capsys, p, q, message):
    args = list(DECOMPOSE_ARGS)
    args[args.index("--P") + 1], args[args.index("--Q") + 1] = p, q
    code, out = run(args, capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "argument", "message": message}


def test_gamma_vector_of_wrong_length_is_argument_error(capsys):
    base = ["gamma", "--type", "A", "--rank", "2", "--P", "", "--Q", ""]
    for x, t, message in (("1", "2,2", "--X has length 1"), ("1,1", "2,2,2", "--T has length 3")):
        code, out = run(base + ["--X", x, "--T", t], capsys)
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "argument", "message": f"{message}, the rank is 2"}


def test_bv_interval_exact_terms(capsys):
    code, out = run(
        ["bv", "--normals", "1;-1", "--x", "0,1", "--mu", "2"], capsys
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["kind"] == "exp_sum" and blob["maximal"] is True
    assert blob["result"]["terms"] == [
        {"coeff": "-1/2", "exponent": "-2"},
        {"coeff": "1/2", "exponent": "0"},
    ]
    assert abs(blob["float_value"] - 0.43233235838169365) < 1e-15


def test_bv_limit_volume_polynomial(capsys):
    code, out = run(
        ["bv", "--normals", "1;-1", "--x", "0,1", "--mu", "0", "--limit"], capsys
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["kind"] == "tfinite" and blob["float_value"] == 1.0


def test_bv_degenerate_mu_is_domain_error(capsys):
    code, out = run(
        ["bv", "--normals", "1,0;0,1;-1,0;0,-1", "--x", "0,0,2,3", "--mu", "1,0"],
        capsys,
    )
    assert code == 1
    assert "generic" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize(
    "pin, argv",
    [
        ("bv_limit_square.json", ["--normals", "1,0;0,1;-1,0;0,-1", "--x", "0,0,2,3", "--mu", "1,0"]),
        (
            "bv_limit_cut_box.json",
            ["--normals", "1,0,0;0,1,0;0,0,1;-1,0,0;0,-1,0;0,0,-1;-1,-1,-1",
             "--x", "0,0,0,2,3,4,11/2", "--mu", "1,2,5"],
        ),
    ],
)
def test_bv_limit_stdout_is_pinned(capsys, pin, argv):
    # the square's mu kills the vertical dual vectors; the cut box is a generic 3-d case
    code, out = run(["bv"] + argv + ["--limit"], capsys)
    assert code == 0
    assert out.encode() == (DATA / pin).read_bytes()


def test_bv_checks_arguments_before_enumerating_bases(capsys, monkeypatch):
    def no_bases(*args, **kwargs):
        raise AssertionError("a bad x or mu must be rejected before the basis enumeration")

    monkeypatch.setattr(cli.chambers, "enumerate_bases", no_bases)
    for x, mu, message in (
        ("0", "2", "x must have one entry per constraint"),
        ("0,1", "2,2", "mu must match the ambient dimension"),
    ):
        code, out = run(["bv", "--normals", "1;-1", "--x", x, "--mu", mu], capsys)
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "argument", "message": message}


def test_bv_arity_is_argument_error(capsys):
    code, out = run(["bv", "--normals", "1;-1", "--x", "0", "--mu", "2"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "argument"


def test_bv_ragged_normals_are_argument_error(capsys):
    code, out = run(["bv", "--normals", "1,0;0,1,3;-1,-1", "--x", "1,1,1", "--mu", "1,2"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "argument", "message": "every normal must have the same length"}


def test_bad_rational_is_argument_error(capsys, monkeypatch):
    def no_decompose(*args, **kwargs):
        raise AssertionError("a malformed index list must be rejected before decomposing")

    monkeypatch.setattr(cli.regions, "decompose", no_decompose)
    pick = ["--region-index", "1", "--pi-one", "2,x"]
    for argv in (
        ["gamma", "--type", "A", "--rank", "1", "--P", "", "--Q", "a1",
         "--X", "1/0", "--T", "2"],
        ["asymptote", "toy", "--T-list", "2,x"],
        ["regions", "refine"] + DECOMPOSE_ARGS[2:] + pick,
        ["regions", "slice"] + DECOMPOSE_ARGS[2:] + pick + ["--X", "97/12,197/48"],
    ):
        code, out = run(argv, capsys)
        assert code == 2, argv
        assert json.loads(out)["error"]["kind"] == "argument"


def _regions_argv(command, **edits):
    argv = ["regions", command] + DECOMPOSE_ARGS[2:]
    if command != "decompose":
        argv += ["--region-index", "1", "--pi-one", "2,3"]
    if command == "slice":
        argv += ["--X", "97/12,197/48", "--mu", "1,1"]
    for flag, value in edits.items():
        argv[argv.index(f"--{flag}") + 1] = value
    return argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (_regions_argv("decompose", T="8"), "--T has length 1, the rank is 2"),
        (_regions_argv("refine", S="1/2,1/2,1/2"), "--S has length 3, the rank is 2"),
        (_regions_argv("slice", T="8,8,8"), "--T has length 3, the rank is 2"),
        (_regions_argv("slice", X="100"), "--X has length 1, the rank is 2"),
        (_regions_argv("slice", X="97/12,197/48,1"), "--X has length 3, the rank is 2"),
        (_regions_argv("slice", mu="1"), "--mu has length 1, the rank is 2"),
    ],
    ids=["decompose-T", "refine-S", "slice-T", "slice-short-X", "slice-long-X", "slice-mu"],
)
def test_regions_vector_of_wrong_length_is_argument_error(capsys, monkeypatch, argv, message):
    def no_decompose(*args, **kwargs):
        raise AssertionError("a vector of the wrong length must be rejected before decomposing")

    monkeypatch.setattr(cli.regions, "decompose", no_decompose)
    code, out = run(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "argument", "message": message}


@pytest.mark.parametrize("command", ["refine", "slice"])
@pytest.mark.parametrize("pi_one", ["", " , "], ids=["empty", "commas"])
def test_empty_pi_one_is_argument_error(capsys, monkeypatch, command, pi_one):
    def no_decompose(*args, **kwargs):
        raise AssertionError("an empty --pi-one must be rejected before decomposing")

    monkeypatch.setattr(cli.regions, "decompose", no_decompose)
    code, out = run(_regions_argv(command, **{"pi-one": pi_one}), capsys)
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "argument",
        "message": f"--pi-one must name at least one weight, got {pi_one!r}",
    }


def test_malformed_symmetric_power_is_argument_error(capsys):
    for rep in ("symx", "sym-1"):
        code, out = run(["rootdatum", "--type", "A", "--rank", "2", "--rep", rep], capsys)
        assert code == 2, rep
        assert json.loads(out)["error"] == {
            "kind": "argument",
            "message": f"bad representation {rep!r}: K in symK must be a nonnegative integer",
        }


def test_usage_error_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_cones_family(capsys):
    code, out = run(["cones", "--type", "A", "--rank", "2", "--rep", "standard"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["walls"] == [["1", "-1"]]
    assert [c["signs"] for c in blob["cells"]] == [[1], [-1]]
    assert blob["epsilon"] is None and blob["suggested_epsilon"]


def test_cones_computes_d_once_per_cell(capsys, monkeypatch):
    from weylcone import regions as RG

    real, calls = RG.d_value_squared, []

    def counting(x, psi):
        calls.append(x)
        return real(x, psi)

    monkeypatch.setattr(RG, "d_value_squared", counting)
    code, out = run(["cones", "--type", "A", "--rank", "2", "--rep", "standard"], capsys)
    assert code == 0
    witnesses = [tuple(F(c) for c in cell["witness"]) for cell in json.loads(out)["cells"]]
    assert len(witnesses) == 2 and sorted(calls) == sorted(witnesses)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cones", "--type", "A", "--rank", "2", "--rep", "standard", "--eps", "0"], "--eps must be positive, got '0'"),
        (_regions_argv("decompose", eps="0/3"), "--eps must be positive, got '0/3'"),
        (_regions_argv("decompose", T="8"), "--T has length 1, the rank is 2"),
    ],
    ids=["cones-eps", "decompose-eps", "decompose-T"],
)
def test_bad_arguments_are_rejected_before_the_cone_family(capsys, monkeypatch, argv, message):
    def no_cones(*args, **kwargs):
        raise AssertionError("bad arguments must be rejected before the cone family is built")

    monkeypatch.setattr(cli.regions, "pi_cones", no_cones)
    code, out = run(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "argument", "message": message}


@pytest.mark.parametrize("command", ["decompose", "refine", "slice"])
def test_negative_largeness_is_argument_error(capsys, monkeypatch, command):
    def no_cones(*args, **kwargs):
        raise AssertionError("a negative --largeness must be rejected before the cone family is built")

    monkeypatch.setattr(cli.regions, "pi_cones", no_cones)
    code, out = run(_regions_argv(command) + ["--largeness", "-1"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "argument", "message": "--largeness must be nonnegative, got '-1'"}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_argument_error(capsys, monkeypatch, jobs):
    def no_cones(*args, **kwargs):
        raise AssertionError("--jobs below 1 must be rejected before the cone family is built")

    monkeypatch.setattr(cli.regions, "pi_cones", no_cones)
    code, out = run(_regions_argv("decompose") + ["--jobs", jobs], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "argument", "message": f"--jobs must be at least 1, got {jobs}"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rank", "0"], "type A requires rank >= 1, got 0"),
        (["--type", "D", "--rank", "1"], "type D requires rank >= 2, got 1"),
        (["--rep", "1,2,3"], "highest weight '1,2,3' has length 3, the rank is 2"),
        (["--rep", "1/2,0"], "highest weight '1/2,0' must have nonnegative integer coordinates"),
        (["--rep", "0,-1"], "highest weight '0,-1' must have nonnegative integer coordinates"),
    ],
    ids=["A-rank-0", "D-rank-1", "long-weight", "fractional-weight", "negative-weight"],
)
def test_bad_datum_or_highest_weight_is_argument_error(capsys, monkeypatch, argv, message):
    def no_weights(*args, **kwargs):
        raise AssertionError("a bad datum or highest weight must be rejected before any weight is built")

    monkeypatch.setattr(cli.rootspace, "weights_of", no_weights)
    code, out = run(["rootdatum", "--type", "A", "--rank", "2", *argv], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "argument", "message": message}


def test_regions_decompose(capsys):
    code, out = run(DECOMPOSE_ARGS, capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["epsilon"] == "1/4" and blob["kappa_sq"] == "2"
    assert blob["b_functional"] == ["1/8", "-1/16"]
    assert len(blob["regions"]) == 2


def test_regions_decompose_deterministic_and_parallel(capsys):
    _, first = run(DECOMPOSE_ARGS, capsys)
    _, second = run(DECOMPOSE_ARGS, capsys)
    _, parallel = run(DECOMPOSE_ARGS + ["--jobs", "2"], capsys)
    assert first == second == parallel


def test_regions_refine(capsys):
    code, out = run(
        ["regions", "refine"] + DECOMPOSE_ARGS[2:] + ["--region-index", "1", "--pi-one", "2,3"],
        capsys,
    )
    assert code == 0
    blob = json.loads(out)
    assert len(blob["refinements"]) == 1
    ref = blob["refinements"][0]
    assert ref["delta_prime"] == "1/2" and ref["signs"] == [1]
    assert ref["basis"] == [2] and ref["pi_one"] == [2, 3]


def test_regions_slice_with_integral(capsys):
    code, out = run(
        ["regions", "slice"] + DECOMPOSE_ARGS[2:]
        + ["--region-index", "1", "--pi-one", "2,3", "--ref-index", "0",
           "--X", "97/12,197/48", "--mu", "1,1"],
        capsys,
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["vertices"] == [["-1/24"], ["5/24"]]
    assert abs(blob["integral"] - 0.3285830182825423) < 1e-12


def test_regions_slice_outside_x_is_domain_error(capsys):
    code, out = run(
        ["regions", "slice"] + DECOMPOSE_ARGS[2:]
        + ["--region-index", "1", "--pi-one", "2,3", "--X", "100,0"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "domain"


def test_regions_slice_outside_x_names_the_refined_region(capsys):
    code, out = run(
        ["regions", "slice"] + DECOMPOSE_ARGS[2:]
        + ["--region-index", "1", "--pi-one", "2,3", "--ref-index", "0", "--X", "97/12,100"],
        capsys,
    )
    assert code == 1
    assert json.loads(out) == {
        "error": {"kind": "domain", "message": "the base point lies outside the refined region"}
    }


def test_regions_refine_closure_error_prints_plain_rationals(capsys):
    code, out = run(
        ["regions", "refine"] + DECOMPOSE_ARGS[2:] + ["--region-index", "1", "--pi-one", "2"],
        capsys,
    )
    assert code == 1
    err = json.loads(out)["error"]
    assert err["kind"] == "domain"
    assert err["message"].startswith("weight (1, -2) vanishes on the kernel slice but is outside the subset [")
    assert err["message"].endswith("T=(8, 8) S=(1/2, 1/2)]")
    assert "Fraction" not in err["message"]


def test_asymptote_toy_csv(capsys):
    code, out = run(["asymptote", "toy", "--T-list", "2,3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T,integral,profile,residual"
    assert len(lines) == 3 and lines[1].startswith("2.0,")


def test_oracle_vertices_json_and_off(tmp_path, capsys):
    src = tmp_path / "square.json"
    src.write_text(PH.h_to_json(SQUARE_H), encoding="utf-8")
    code, out = run(["oracle", "vertices", "--in", str(src)], capsys)
    assert code == 0
    assert len(json.loads(out)["V"]) == 4
    axis = lambda i, s: tuple(F(s) if j == i else F(0) for j in range(3))
    cube = PH.HPolyhedron.from_pairs(
        [(axis(i, 1), F(0)) for i in range(3)] + [(axis(i, -1), F(1)) for i in range(3)],
        3,
    )
    src3 = tmp_path / "cube.json"
    src3.write_text(PH.h_to_json(cube), encoding="utf-8")
    code, out = run(["oracle", "vertices", "--in", str(src3), "--format", "off"], capsys)
    assert code == 0 and out.startswith("OFF\n")


def test_oracle_integrate(tmp_path, capsys):
    src = tmp_path / "square_v.json"
    src.write_text(PH.v_to_json(PH.vertices(SQUARE_H)), encoding="utf-8")
    code, out = run(["oracle", "integrate", "--in", str(src), "--mu", "0,0"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert abs(blob["value"] - 1.0) < 1e-12


def test_oracle_integrate_tiny_square_far_from_the_origin(tmp_path, capsys):
    # [1, 1 + 1e-9]^2 with mu = (12, 12); the exact value is
    # ((e^(12 + 1.2e-8) - e^12) / 12)^2 = 2.6489122447712940077e-08
    e = F(1, 10**9)
    src = tmp_path / "tiny_v.json"
    src.write_text(PH.v_to_json(PH.VPolytope(((F(1), F(1)), (1 + e, F(1)), (F(1), 1 + e), (1 + e, 1 + e)))), "utf-8")
    code, out = run(["oracle", "integrate", "--in", str(src), "--mu", "12,12"], capsys)
    assert code == 0
    assert abs(json.loads(out)["value"] - 2.6489122447712940077e-08) <= 1e-14 * 2.6489122447712940077e-08


def test_oracle_integrate_mu_of_wrong_length_is_argument_error(tmp_path, capsys):
    src = tmp_path / "square_v.json"
    src.write_text(PH.v_to_json(PH.vertices(SQUARE_H)), encoding="utf-8")
    for mu in ("1", "0,0,1"):
        code, out = run(["oracle", "integrate", "--in", str(src), "--mu", mu], capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "argument"


@pytest.mark.parametrize(
    "points,message",
    [
        ([["0", "0"], ["1"]], "point 1 has length 1, point 0 has length 2"),
        ([["0"], ["1"], ["1", "2"]], "point 2 has length 2, point 0 has length 1"),
    ],
    ids=["short-point", "long-point"],
)
def test_oracle_integrate_ragged_points_are_argument_errors(tmp_path, capsys, points, message):
    src = tmp_path / "ragged.json"
    src.write_text(json.dumps({"V": points}), encoding="utf-8")
    code, out = run(["oracle", "integrate", "--in", str(src), "--mu", "1,1"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "argument" and message in error["message"]


def test_oracle_vertices_unbounded_bytes(tmp_path, capsys):
    # {x >= 0, x + y >= 1, y >= -2} recedes along (1, 0)
    wedge = PH.HPolyhedron.from_pairs([((1, 0), 0), ((1, 1), -1), ((0, 1), 2)], 2)
    src = tmp_path / "wedge.json"
    src.write_text(PH.h_to_json(wedge), encoding="utf-8")
    code, out = run(["oracle", "vertices", "--in", str(src)], capsys)
    assert code == 1
    assert out == (
        '{\n "error": {\n  "kind": "domain",\n  "message": "polyhedron is unbounded in direction '
        '(Fraction(1, 1), Fraction(0, 1))"\n }\n}\n'
    )


def test_oracle_malformed_input_is_argument_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "rows": []}', encoding="utf-8")
    code, out = run(["oracle", "vertices", "--in", str(bad)], capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "argument"


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["H"][0].update(normal=["1"]), "expected 4 normals of length 2, got lengths [1, 2, 2, 2]"),
        (lambda d: d["H"][0].update(normal=["1", "0", "5"]), "expected 4 normals of length 2, got lengths [3, 2, 2, 2]"),
        (lambda d: d.update(dim="2"), "dim must be a non-negative integer, got '2'"),
        (lambda d: d.update(dim=-1), "dim must be a non-negative integer, got -1"),
    ],
    ids=["short-normal", "long-normal", "string-dim", "negative-dim"],
)
def test_oracle_vertices_rows_of_the_wrong_length_are_argument_errors(tmp_path, capsys, edit, message):
    data = json.loads(PH.h_to_json(SQUARE_H))
    edit(data)
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(data), encoding="utf-8")
    code, out = run(["oracle", "vertices", "--in", str(src)], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "argument" and message in error["message"]


def test_oracle_missing_file_is_argument_error(capsys):
    code, out = run(["oracle", "vertices", "--in", "/nonexistent/x.json"], capsys)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "argument"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "weylcone.cli", "rootdatum", "--type", "A", "--rank", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 1


def cli_transcript(tmp_path) -> str:
    """Exit code and stdout of a fixed bundle of commands, one block per command.

    The bundle leaves out the commands whose output holds computed floats (`slice --mu`,
    `oracle integrate`, `asymptote toy`). Each block starts with the command line,
    input files named relative to `tmp_path`.
    """
    axis = lambda i, s: tuple(F(s) if j == i else F(0) for j in range(3))
    inputs = {
        "square.json": SQUARE_H,
        "cube.json": PH.HPolyhedron.from_pairs(
            [(axis(i, 1), F(0)) for i in range(3)] + [(axis(i, -1), F(1)) for i in range(3)], 3
        ),
        "ray.json": PH.HPolyhedron.from_pairs([((F(1),), F(0))], 1),
    }
    for name, h in inputs.items():
        (tmp_path / name).write_text(PH.h_to_json(h), encoding="utf-8")
    dec = DECOMPOSE_ARGS[2:]
    a3 = ["--type", "A", "--rank", "3", "--rep", "standard", "--P", "a3", "--Q", "a1,a3",
          "--eps", "27255491/1073741824", "--T", "99,77,44", "--S", "3/5,7/15,4/15"]
    square = ["bv", "--normals", "1,0;0,1;-1,0;0,-1", "--x", "0,0,2,3"]
    commands = [
        ["rootdatum", "--type", "A", "--rank", "2", "--rep", "adjoint"],
        ["rootdatum", "--type", "B", "--rank", "3", "--rep", "standard"],
        ["rootdatum", "--type", "C", "--rank", "3", "--rep", "adjoint"],
        ["rootdatum", "--type", "D", "--rank", "4"],
        ["gamma", "--type", "A", "--rank", "1", "--P", "", "--Q", "a1", "--X", "1/2", "--T", "2"],
        ["bv", "--normals", "1;-1", "--x", "0,1", "--mu", "2"],
        ["bv", "--normals", "1;-1", "--x", "0,1", "--mu", "0", "--limit"],
        square + ["--mu", "1,2"],
        square + ["--mu", "0,0"],
        square + ["--mu", "1,2", "--limit"],
        square + ["--mu", "0,0", "--limit"],
        ["cones", "--type", "A", "--rank", "2", "--rep", "standard", "--eps", "1/10"],
        ["cones", "--type", "A", "--rank", "2", "--rep", "adjoint"],
        ["cones", "--type", "A", "--rank", "3", "--rep", "adjoint"],
        ["cones", "--type", "B", "--rank", "3", "--rep", "standard"],
        DECOMPOSE_ARGS,
        DECOMPOSE_ARGS + ["--jobs", "2"],
        ["regions", "refine", *dec, "--region-index", "1", "--pi-one", "2,3"],
        ["regions", "refine", *dec, "--region-index", "1", "--pi-one", "2"],
        ["regions", "refine", *a3, "--region-index", "3", "--pi-one", "0"],
        ["regions", "slice", *dec, "--region-index", "1", "--pi-one", "2,3", "--X", "97/12,197/48"],
        ["oracle", "vertices", "--in", str(tmp_path / "square.json")],
        ["oracle", "vertices", "--in", str(tmp_path / "cube.json")],
        ["oracle", "vertices", "--in", str(tmp_path / "cube.json"), "--format", "off"],
        ["oracle", "vertices", "--in", str(tmp_path / "ray.json")],
        ["bv", "--normals", "1;-1", "--x", "0,1/0", "--mu", "2"],
        ["regions", "decompose", *dec, "--jobs", "0"],
    ]
    blocks = []
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        line = shlex.join(a.replace(f"{tmp_path}{os.sep}", "") for a in argv)
        blocks.append(f"$ weylcone {line}\nexit {code}\n{out.getvalue()}")
    return "".join(blocks)


def test_cli_bundle_stdout_and_exit_codes_are_pinned(tmp_path):
    # the file is cli_transcript's text at 526ef63, before linalg.exact_json became the one
    # JSON writer; regenerate it only for an intended change of output
    assert cli_transcript(tmp_path).encode() == (DATA / "cli_golden.txt").read_bytes()
