import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hblcert import cli, flowgraph, formats
from hblcert.builder import build_presentation
from hblcert.cli import main
from hblcert.data import HBLDatum
from hblcert.lattice import generate_lattice
from hblcert.linalg import kernel
from hblcert.presentation import verify_presentation

from conftest import random_matrix, reference_violation

FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parents[1]
     / "src" / "hblcert" / "report_schema.json").read_text()
)


def fixture(name: str) -> str:
    return str(FIXTURE_DIR / name)


def python_subprocess(args, cwd, timeout: float = 60) -> subprocess.CompletedProcess:
    """`python args` as its own process in cwd, with this checkout's src
    first on the path; it raises subprocess.TimeoutExpired after `timeout` s."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout)


def cli_subprocess(argv, cwd) -> subprocess.CompletedProcess:
    """`hblcert argv` as its own process in cwd, as `python_subprocess` runs it."""
    return python_subprocess(["-m", "hblcert.cli", *argv], cwd)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def strict_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args, "--format", "json")
    report = json.loads(out, parse_constant=strict_constant)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_verify_fixture_is_valid(capsys):
    code, report = run_json(
        capsys, "verify",
        "--data", fixture("r6.datum.json"),
        "--presentation", fixture("r6.presentation.json"),
    )
    assert code == 0
    assert report["verdict"] == "valid"
    assert report["bound"]["value"] == pytest.approx(2 ** -0.5)


def test_verify_mismatched_pair_is_invalid(capsys):
    code, report = run_json(
        capsys, "verify",
        "--data", fixture("lw2.datum.json"),
        "--presentation", fixture("r6.presentation.json"),
    )
    assert code == 1
    assert report["verdict"] == "invalid"


def _fixture_args(command: str, name: str) -> tuple[str, ...]:
    args = (command, "--data", fixture(f"{name}.datum.json"))
    if command in ("verify", "bound", "quadrature"):
        args += ("--presentation", fixture(f"{name}.presentation.json"))
    return args


def _count_verifications(monkeypatch) -> list:
    """Wrap verify_presentation by identity across the loaded hblcert
    modules, however each imported it; each call appends to the list."""
    calls = []

    def counted(*args):
        calls.append(args)
        return verify_presentation(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hblcert":
            for key, value in list(vars(module).items()):
                if value is verify_presentation:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.mark.parametrize("args", [
    *(_fixture_args(command, name) for name in ("lw2", "lw3", "lw4", "lw5", "r6")
      for command in ("verify", "bound", "build", "check-data")),
    _fixture_args("quadrature", "lw2"),
    ("check-data", "--data", fixture("r6.datum.json"),
     "--candidates", fixture("r6_forcing.candidates.txt")),
], ids=lambda args: " ".join(pathlib.Path(a).name for a in args))
def test_each_certificate_verdict_verifies_once(capsys, monkeypatch, args):
    # One exact verification decides each verdict that rests on a certificate.
    calls = _count_verifications(monkeypatch)
    code, _ = run_json(capsys, *args)
    assert code == 0 and len(calls) == 1


def test_check_data_flags_violation(capsys, monkeypatch, tmp_path):
    bad = json.loads((FIXTURE_DIR / "lw2.datum.json").read_text())
    bad["exponents"] = ["3/4", "3/4", "0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    calls = _count_verifications(monkeypatch)
    code, report = run_json(capsys, "check-data", "--data", str(path))
    assert code == 1 and calls == []  # a violation needs no certificate
    assert report["verdict"] == "violation"
    assert report["violation"]["slack"] == "-1/4"
    assert report["violation"]["basis"] == [["1", "0", "0"]]


def test_check_data_scaling_failure(capsys, tmp_path):
    bad = json.loads((FIXTURE_DIR / "lw2.datum.json").read_text())
    bad["exponents"] = ["1", "1", "1"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, report = run_json(capsys, "check-data", "--data", str(path))
    assert code == 1
    assert report["scaling"] == {"holds": False, "lhs": "3", "rhs": "6"}


def lw2_with_exponents(tmp_path, exponents):
    datum = json.loads((FIXTURE_DIR / "lw2.datum.json").read_text())
    datum["exponents"] = exponents
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    return str(path)


def test_check_data_needs_a_proof_when_the_family_is_not_ready(capsys, tmp_path):
    # On every family, ready or not, the proof of "feasible" is a certificate
    # built on it. lw2 at (1, 1/4, 1/4) violates at ker pi_1 = span{e1} with
    # slack -1/2, which neither {0, H} (a cap of 2, or a file of comments) nor
    # the build on that family can see: the build meets a violation only below
    # the vertex (1, 0, 1/2) and says so. The family a cap of 3 generates holds e1.
    path = lw2_with_exponents(tmp_path, ["1", "1/4", "1/4"])
    comments = tmp_path / "comments.txt"
    comments.write_text("# no subspace\n")
    for family in (["--max-lattice", "2"], ["--candidates", str(comments)]):
        code, report = run_json(capsys, "check-data", "--data", path, *family)
        assert code == 4 and report["verdict"] == "inconclusive"
        assert report["lattice"]["size"] == 2 and "proof" not in report
    assert report["reason"] == \
        "candidate set insufficient: at exponents (1, 0, 1/2), a candidate " \
        "subspace violates the dimension inequality (dim 1, slack -1/2)"
    code, report = run_json(capsys, "check-data", "--data", path, "--max-lattice", "3")
    assert code == 1 and report["violation"]["slack"] == "-1/2"
    # r6 with its forcing candidates: not closed, but the build certifies it.
    code, report = run_json(capsys, "check-data", "--data", fixture("r6.datum.json"),
                            "--candidates", fixture("r6_forcing.candidates.txt"))
    assert code == 0 and report["verdict"] == "feasible" and "proof" not in report
    assert report["lattice"]["closed"] is False
    # A ready family is proved the same way, and no report names its proof:
    # the schema rejects a "proof" key.
    code, report = run_json(capsys, "check-data", "--data", fixture("r6.datum.json"))
    assert code == 0 and report["verdict"] == "feasible" and "proof" not in report
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**report, "proof": "certificate"}, SCHEMA)


def _small_random_datum(rng: random.Random) -> HBLDatum | None:
    """Two or three maps on R^2 or R^3 with entries in {-1, 0, 1} and
    exponents in quarters, the last positive-rank map's solving the scaling
    equality."""
    m = rng.randint(2, 3)
    maps = tuple(random_matrix(rng, rng.randint(1, m), m, -1, 1)
                 for _ in range(rng.randint(2, 3)))
    ranks = [mp.cols - kernel(mp).dim for mp in maps]
    if not any(ranks):
        return None
    j = max(i for i, r in enumerate(ranks) if r)
    tau = [Fraction(rng.randint(0, 4), 4) for _ in maps]
    tau[j] = (m - sum(t * r for i, (t, r) in enumerate(zip(tau, ranks)) if i != j)) / ranks[j]
    if not 0 <= tau[j] <= 1:
        return None
    return HBLDatum(m, maps, tuple(f"p{i}" for i in range(len(maps))), tuple(tau))


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_check_data_says_feasible_only_with_a_proof(hyp_rng):
    """At every lattice cap, "feasible" means that a certificate built on that
    family verifies, and never disagrees with a closed lattice's verdict."""
    datum = _small_random_datum(random.Random(hyp_rng.randint(0, 10**9)))
    if datum is None:
        return
    full = generate_lattice(datum, max_size=32)
    violated = reference_violation(datum, full) is not None
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "datum.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(formats.serialize_datum(datum))
        for cap in range(2, min(len(full.subspaces), 12) + 2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["check-data", "--data", path, "--max-lattice", str(cap),
                             "--format", "json"])
            report = json.loads(out.getvalue())
            jsonschema.validate(report, SCHEMA)
            verdict = report["verdict"]
            assert code == {"feasible": 0, "violation": 1, "inconclusive": 4}[verdict]
            assert "proof" not in report
            lattice = generate_lattice(datum, max_size=cap)
            if verdict == "feasible":
                assert not violated
                pres = build_presentation(datum, lattice, max_lattice=cap)
                assert verify_presentation(datum, pres).valid
            elif verdict == "violation":
                assert violated or not full.closed


def test_polytope_forcing(capsys):
    code, report = run_json(
        capsys, "polytope",
        "--data", fixture("r6.datum.json"),
        "--candidates", fixture("r6_forcing.candidates.txt"),
    )
    assert code == 0
    assert report["vertices"] == [["1/2", "1/2", "1/2", "1/2"]]
    assert report["member"] is True


@pytest.mark.parametrize("name, width, value", [
    ("lw2", 3, "1/2"), ("lw3", 4, "1/3"), ("lw4", 5, "1/4"), ("lw5", 6, "1/5"), ("r6", 4, "1/2"),
])
def test_polytope_of_each_fixture_is_its_balanced_vertex(capsys, name, width, value):
    code, report = run_json(capsys, "polytope", "--data", fixture(f"{name}.datum.json"))
    assert code == 0
    assert report == {"command": "polytope", "verdict": "feasible",
                      "vertices": [[value] * width], "member": True}


def test_polytope_of_a_feasible_datum_is_never_empty(capsys, tmp_path):
    # R^4 with its six coordinate-pair projections at 1/3 and its four
    # coordinate-axis projections at 0. The polytope has 14 vertices in 10
    # exponents; a capped search over n-subsets of its rows stopped before
    # it found one and reported "infeasible" for a member point.
    def projection(axes):
        return {"name": "p" + "".join(str(j + 1) for j in axes),
                "rows": [[str(int(k == j)) for k in range(4)] for j in axes]}

    pairs = list(itertools.combinations(range(4), 2))
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({
        "dim": 4,
        "maps": [projection(p) for p in pairs] + [projection((j,)) for j in range(4)],
        "exponents": ["1/3"] * 6 + ["0"] * 4,
    }))
    code, report = run_json(capsys, "check-data", "--data", str(path))
    assert code == 0 and report["verdict"] == "feasible"
    code, report = run_json(capsys, "build", "--data", str(path))
    assert code == 0 and report["verdict"] == "built"
    code, report = run_json(capsys, "polytope", "--data", str(path))
    assert code == 0
    assert report["verdict"] == "feasible"
    assert len(report["vertices"]) == 14
    assert report["member"] is True


def test_build_writes_a_verifiable_presentation(capsys, tmp_path):
    out = tmp_path / "built.json"
    code, report = run_json(
        capsys, "build", "--data", fixture("lw2.datum.json"), "--out", str(out),
    )
    assert code == 0
    assert report["verdict"] == "built"
    code2, report2 = run_json(
        capsys, "verify",
        "--data", fixture("lw2.datum.json"), "--presentation", str(out),
    )
    assert code2 == 0 and report2["verdict"] == "valid"


def test_build_with_an_insufficient_family_is_inconclusive(capsys):
    # lw3 at 1/3 is feasible; families capped at 4 miss the subspace that
    # cuts off a vertex below it, so a larger family may yet build.
    args = ("build", "--data", fixture("lw3.datum.json"), "--max-lattice", "4")
    code, report = run_json(capsys, *args)
    assert code == 4 and report["verdict"] == "inconclusive"
    assert report["reason"] == \
        "candidate set insufficient: at exponents (1/2, 0, 0, 1), a candidate " \
        "subspace violates the dimension inequality (dim 1, slack -1/2)"
    assert report["trace"][0] == "tau ('1/3', '1/3', '1/3', '1/3') not extreme; splitting"
    code, out = run_cli(capsys, *args)
    assert code == 4 and out.startswith("build: inconclusive\nreason: ")


@pytest.mark.parametrize("cap", ["2", "4"])
def test_a_ready_family_builds_at_any_lattice_cap(capsys, tmp_path, cap):
    # lw4's closed lattice, given as a file, is ready: check-data and build
    # read each split's families off its intervals, which the cap on
    # generation does not limit.
    datum = formats.parse_datum((FIXTURE_DIR / "lw4.datum.json").read_text())
    path = tmp_path / "lw4.candidates.txt"
    path.write_text("".join("; ".join(" ".join(map(str, row)) for row in v.basis_rows()) + "\n"
                            for v in generate_lattice(datum).subspaces if v.dim))
    args = ("--data", fixture("lw4.datum.json"), "--candidates", str(path), "--max-lattice", cap)
    code, report = run_json(capsys, "check-data", *args)
    assert code == 0 and report["verdict"] == "feasible" and "proof" not in report
    assert report["lattice"] == {"size": 32, "closed": True}
    code, report = run_json(capsys, "build", *args)
    assert code == 0 and report["verdict"] == "built" and report["vertices"] == 6


def test_a_ready_candidates_file_builds_the_generated_bytes(capsys, tmp_path):
    # lw4's closed lattice, given as a file in its generated order, is ready:
    # the build reads its image dimensions off the given family's meets, and
    # its reports and certificate are those of the generated lattice.
    datum = formats.parse_datum((FIXTURE_DIR / "lw4.datum.json").read_text())
    path = tmp_path / "lw4.candidates.txt"
    path.write_text("".join("; ".join(" ".join(map(str, row)) for row in v.basis_rows()) + "\n"
                            for v in generate_lattice(datum).subspaces if v.dim))
    data = ("build", "--data", fixture("lw4.datum.json"))
    for fmt in ("text", "json"):
        generated = run_cli(capsys, *data, "--format", fmt)
        given = run_cli(capsys, *data, "--candidates", str(path), "--format", fmt)
        assert generated[0] == 0 and given == generated
    outs = [tmp_path / "generated.json", tmp_path / "given.json"]
    run_cli(capsys, *data, "--out", str(outs[0]))
    run_cli(capsys, *data, "--candidates", str(path), "--out", str(outs[1]))
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("exponents, reason", [
    (["1", "1", "1"], "scaling equality fails: 3 != 6"),
    (["3/4", "3/4", "0"],
     "candidate subspace violates the dimension inequality (dim 1, slack -1/4)"),
])
def test_build_that_is_refuted_at_the_datum_fails(capsys, tmp_path, exponents, reason):
    code, report = run_json(capsys, "build", "--data", lw2_with_exponents(tmp_path, exponents))
    assert code == 1 and report["verdict"] == "failed"
    assert report["reason"] == reason


def test_bound_command(capsys):
    code, report = run_json(
        capsys, "bound",
        "--data", fixture("lw3.datum.json"),
        "--presentation", fixture("lw3.presentation.json"),
    )
    assert code == 0
    assert report["bound"]["exact_one"] is True
    assert report["bound"]["value"] == 1.0


def test_decompose_flow_command(capsys):
    code, report = run_json(
        capsys, "decompose-flow", "--presentation", fixture("r6.presentation.json"),
    )
    assert code == 0
    assert report["masses"] == ["1/2"] * 4
    assert all(t["coefficient"] == "1/2" for t in report["terms"])


def test_project_command(capsys):
    code, report = run_json(
        capsys, "project",
        "--data", fixture("lw2.datum.json"),
        "--presentation", fixture("lw2.presentation.json"),
        "--map-index", "2",
    )
    assert code == 0
    assert report["edge_map"] == [0, 1, None]
    assert report["masses"] == ["1/2", "1/2", "1/2"]


@pytest.mark.parametrize("map_index", ["0", "1", "2", "3"])
def test_project_pushes_the_graph_forward_once(capsys, monkeypatch, map_index):
    real = flowgraph.project_graph
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    # Patch every package module that binds the name, however it was imported.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hblcert" and getattr(module, "project_graph", None) is real:
            monkeypatch.setattr(module, "project_graph", spy)
    code, _ = run_json(capsys, "project", "--data", fixture("r6.datum.json"),
                       "--presentation", fixture("r6.presentation.json"),
                       "--map-index", map_index)
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("map_index", ["0", "1", "2"])
def test_project_rejects_an_unbalanced_weight(capsys, tmp_path, map_index):
    # Under pi2 the bad edge v1 -> v2 collapses, so only an input check sees it.
    pres = json.loads(pathlib.Path(fixture("lw2.presentation.json")).read_text())
    pres["edges"][1]["theta"] = ["1", "1/2", "1/2"]
    path = tmp_path / "unbalanced.presentation.json"
    path.write_text(json.dumps(pres))
    code = main(["project", "--data", fixture("lw2.datum.json"),
                 "--presentation", str(path), "--map-index", map_index])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: weight is not balanced at span{[1 0 0]}" in captured.err


def test_gaussian_command_bounded_and_divergent(capsys, tmp_path):
    code, report = run_json(capsys, "gaussian", "--data", fixture("lw2.datum.json"))
    assert code == 0
    assert report["verdict"] == "bounded"
    assert report["sup_estimate"] == pytest.approx(1.0, abs=1e-6)

    bad = json.loads((FIXTURE_DIR / "lw2.datum.json").read_text())
    bad["exponents"] = ["3/4", "3/4", "0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, report = run_json(capsys, "gaussian", "--data", str(path))
    assert code == 1
    assert report["verdict"] == "diverged"


def test_gaussian_command_diverges_on_a_common_kernel(capsys, tmp_path):
    # Both maps kill e2, so the left side is infinite on every Gaussian.
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({
        "dim": 2,
        "maps": [{"name": "p", "rows": [["1", "0"]]}, {"name": "q", "rows": [["2", "0"]]}],
        "exponents": ["1", "1"],
    }))
    code, report = run_json(capsys, "gaussian", "--data", str(path))
    assert code == 1
    assert report["verdict"] == "diverged"
    assert report["sup_estimate"] > 1e6


def test_json_reports_write_non_finite_floats_as_strings(capsys, tmp_path):
    # Two equal maps at exponent 1 on R^2: at the identity the left side is
    # infinite, a float that strict JSON has no token for.
    path = tmp_path / "equal.json"
    path.write_text(json.dumps({
        "dim": 2,
        "maps": [{"name": "p", "rows": [["1", "0"]]}, {"name": "q", "rows": [["1", "0"]]}],
        "exponents": ["1", "1"],
    }))
    code, report = run_json(capsys, "gaussian", "--data", str(path))
    assert code == 1 and report["identity_ratio"] == "inf"
    assert float(report["identity_ratio"]) == math.inf
    # quadrature's ratios take the same path.
    trials = [{"lhs": 1.0, "rhs": 0.0, "ratio": math.inf},
              {"lhs": 0.0, "rhs": 0.0, "ratio": math.nan}]
    report = cli._strict({"command": "quadrature", "verdict": "exceeded",
                          "bound_value": 1.0, "worst_ratio": -math.inf, "trials": trials})
    report = json.loads(json.dumps(report, allow_nan=False), parse_constant=strict_constant)
    jsonschema.validate(report, SCHEMA)
    assert [t["ratio"] for t in report["trials"]] == ["inf", "nan"]
    assert report["worst_ratio"] == "-inf" and float(report["worst_ratio"]) == -math.inf


def test_quadrature_command(capsys):
    code, report = run_json(
        capsys, "quadrature",
        "--data", fixture("lw2.datum.json"),
        "--presentation", fixture("lw2.presentation.json"),
    )
    assert code == 0
    assert report["verdict"] == "dominated"
    assert report["worst_ratio"] <= 1 + 1e-9


def test_export_dot_json_report_validates(capsys):
    code, report = run_json(
        capsys, "export-dot",
        "--data", fixture("r6.datum.json"),
        "--presentation", fixture("r6.presentation.json"),
    )
    assert code == 0
    assert report["dot"].startswith("digraph")


def test_export_dot_format(capsys):
    code, out = run_cli(
        capsys, "export-dot",
        "--data", fixture("lw2.datum.json"),
        "--presentation", fixture("lw2.presentation.json"),
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "1/2*" in out


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_export_dot_rejects_a_datum_that_does_not_match(capsys, fmt):
    # verify reports this pair as a structure problem, so there is no
    # distinguishing map to star and no diagram to draw.
    code = main(["export-dot", "--data", fixture("lw2.datum.json"),
                 "--presentation", fixture("r6.presentation.json"), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: datum dimension does not match graph ambient\n"


@pytest.mark.parametrize("command, files", [
    ("build", ["--data", fixture("lw2.datum.json")]),
    ("verify", ["--data", fixture("lw2.datum.json"),
                "--presentation", fixture("lw2.presentation.json")]),
])
def test_format_dot_is_rejected_before_the_command_runs(capsys, tmp_path, command, files):
    # build writes its --out file itself, so a late rejection left one behind.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *files, "--out", str(out), "--format", "dot"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--format dot is only valid for export-dot" in captured.err
    assert not out.exists()


def test_malformed_input_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code = main(["verify", "--data", str(path),
                 "--presentation", fixture("lw2.presentation.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("theta", [5, "11"])
def test_theta_that_is_not_a_list_exits_two(capsys, tmp_path, theta):
    pres = json.loads(pathlib.Path(fixture("lw2.presentation.json")).read_text())
    pres["edges"][0]["theta"] = theta
    path = tmp_path / "bad.presentation.json"
    path.write_text(json.dumps(pres))
    code, out = run_cli(capsys, "verify", "--data", fixture("lw2.datum.json"),
                        "--presentation", str(path))
    assert code == 2 and out == ""


def test_empty_theta_exits_two_naming_its_edge(tmp_path):
    # As a subprocess: the exit status and the one error line are what a user sees.
    pres = json.loads(pathlib.Path(fixture("lw2.presentation.json")).read_text())
    pres["edges"][0]["theta"] = []
    (tmp_path / "bad.presentation.json").write_text(json.dumps(pres))
    result = cli_subprocess(["verify", "--data", fixture("lw2.datum.json"),
                             "--presentation", "bad.presentation.json"], tmp_path)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == ("error: presentation: edges[0].theta must be a non-empty "
                             "list of rationals\n")


def test_missing_file_exits_two(capsys):
    code = main(["check-data", "--data", "/nonexistent/nowhere.json"])
    assert code == 2


@pytest.mark.parametrize("argv, what", [
    (["check-data", "--data", "bad.bin"], "data"),
    (["verify", "--data", fixture("lw2.datum.json"), "--presentation", "bad.bin"],
     "presentation"),
    (["polytope", "--data", fixture("lw2.datum.json"), "--candidates", "bad.bin"],
     "candidates"),
])
def test_a_file_that_is_not_utf8_names_its_flag(tmp_path, argv, what):
    (tmp_path / "bad.bin").write_bytes(b"\xff\xfe")
    result = cli_subprocess(argv, tmp_path)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == (f"error: cannot read {what} file: 'utf-8' codec can't decode "
                             "byte 0xff in position 0: invalid start byte\n")


def test_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "verify",
                       "--data", fixture("r6.datum.json"),
                       "--presentation", fixture("r6.presentation.json"),
                       "--format", "json")
    _, second = run_cli(capsys, "verify",
                        "--data", fixture("r6.datum.json"),
                        "--presentation", fixture("r6.presentation.json"),
                        "--format", "json")
    assert first == second

    _, g1 = run_cli(capsys, "gaussian", "--data", fixture("lw2.datum.json"),
                    "--seed", "3", "--format", "json")
    _, g2 = run_cli(capsys, "gaussian", "--data", fixture("lw2.datum.json"),
                    "--seed", "3", "--format", "json")
    assert g1 == g2


def test_out_writes_report_to_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check-data", "--data", fixture("lw2.datum.json"),
                 "--out", str(out), "--format", "json"])
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["verdict"] == "feasible"


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


# A one-map datum in dimension one, so that a node of the wrong type is the
# input's only fault.
_LINE_DATUM = {"dim": 1, "maps": [{"name": "id", "rows": [["1"]]}], "exponents": ["1"]}


@pytest.mark.parametrize("kind, path, value, message", [
    ("datum", ("maps",), 5, "maps must be a list"),
    ("presentation", ("vertices",), 5, "vertices must be a list"),
    ("presentation", ("edges",), 3, "edges must be a list"),
    ("presentation", ("vertices", 1, "basis"), {"x": 1}, r"vertices\[1\]\.basis must be a list"),
    ("datum", ("dim",), True, "dim must be a positive integer"),
    ("datum", ("exponents",), "1", "exponents must be a list"),
])
def test_json_node_of_the_wrong_type_exits_two(capsys, tmp_path, kind, path, value, message):
    if kind == "datum":
        obj = json.loads(json.dumps(_LINE_DATUM))
        parse, argv = formats.parse_datum, ["check-data", "--data"]
    else:
        obj = json.loads(pathlib.Path(fixture("lw2.presentation.json")).read_text())
        parse = formats.parse_presentation
        argv = ["verify", "--data", fixture("lw2.datum.json"), "--presentation"]
    _set(obj, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(formats.ParseError, match=message):
        parse(bad.read_text())
    code = main([*argv, str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_unexpected_error_exits_three_on_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    code = main(["verify", "--data", fixture("lw2.datum.json"),
                 "--presentation", fixture("lw2.presentation.json")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: internal: RuntimeError: boom second line\n"


def test_unwritable_out_exits_two(capsys, tmp_path):
    code = main(["check-data", "--data", fixture("lw2.datum.json"),
                 "--out", str(tmp_path / "absent" / "report.txt")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("option, value, message", [
    ("--tol", "nan", "--tol must be finite and positive"),
    ("--tol", "inf", "--tol must be finite and positive"),
    ("--tol", "0", "--tol must be finite and positive"),
    ("--max-lattice", "1", "--max-lattice must be at least 2"),
])
def test_out_of_range_options_exit_two(capsys, option, value, message):
    # A NaN tolerance would turn quadrature's valid certificate into a false
    # "exceeded" (exit 1), an infinite one into "dominated" on any evidence.
    with pytest.raises(SystemExit) as exc:
        main(["quadrature", "--data", fixture("lw2.datum.json"),
              "--presentation", fixture("lw2.presentation.json"), option, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert message in captured.err


LW2_PAIR = ["--data", fixture("lw2.datum.json"),
            "--presentation", fixture("lw2.presentation.json")]


@pytest.mark.parametrize("command, files", [
    ("gaussian", LW2_PAIR[:2]), ("quadrature", LW2_PAIR), ("verify", LW2_PAIR),
])
def test_negative_seed_exits_two(capsys, command, files):
    with pytest.raises(SystemExit) as exc:
        main([command, *files, "--seed", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--seed must be non-negative" in captured.err


# A weight balanced on a graph with the cycle a -> b -> a, whose edges jump no
# dimension; and an R^0 file whose two vertices are both {0}, joined by a loop.
CYCLIC_DATUM = {"dim": 2, "maps": [{"rows": [["1", "0"], ["0", "1"]]}], "exponents": ["1"]}
CYCLIC_PRESENTATION = {
    "vertices": [{"id": "z", "basis": []}, {"id": "a", "basis": [["1", "0"]]},
                 {"id": "b", "basis": [["0", "1"]]},
                 {"id": "f", "basis": [["1", "0"], ["0", "1"]]}],
    "edges": [{"from": "z", "to": "a", "theta": ["1"]}, {"from": "a", "to": "b", "theta": ["2"]},
              {"from": "b", "to": "a", "theta": ["1"]}, {"from": "b", "to": "f", "theta": ["1"]}],
}
LOOP_PRESENTATION = {"vertices": [{"id": "a", "basis": [[]]}, {"id": "b", "basis": []}],
                     "edges": [{"from": "b", "to": "a", "theta": ["1"]}]}


CYCLE_PROBLEM = "not a graph decomposition: edge 1 (span{[0 1]} -> span{[1 0]}) jumps dimension 1 to 1"


# No datum has dimension 0, so `project` stops the R^0 file at the ambient check.
@pytest.mark.parametrize("command, presentation, problem", [
    ("decompose-flow", CYCLIC_PRESENTATION, CYCLE_PROBLEM),
    ("project", CYCLIC_PRESENTATION, CYCLE_PROBLEM),
    ("decompose-flow", LOOP_PRESENTATION,
     "not a graph decomposition: edge 0 (0 -> 0) jumps dimension 0 to 0"),
    ("project", LOOP_PRESENTATION, "map domain does not match graph ambient"),
])
def test_flow_commands_reject_a_graph_that_is_not_a_decomposition(
        tmp_path, command, presentation, problem):
    # In a subprocess with a timeout: a command that never stops fails instead of hanging.
    (tmp_path / "p.json").write_text(json.dumps(presentation))
    (tmp_path / "d.json").write_text(json.dumps(CYCLIC_DATUM))
    argv = [command, "--presentation", "p.json"]
    if command == "project":
        argv += ["--data", "d.json", "--map-index", "0"]
    try:
        result = cli_subprocess(argv, tmp_path)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{command} did not stop within 60 s")
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: {problem}\n"


def test_exact_commands_never_import_numpy(tmp_path):
    """verify, build and check-data are rational arithmetic only."""
    script = (
        "import sys\n"
        "from hblcert import cli\n"
        "lw2 = sys.argv[1:]\n"
        "for argv in (['verify', '--data', lw2[0], '--presentation', lw2[1]],\n"
        "             ['build', '--data', lw2[0]], ['check-data', '--data', lw2[0]]):\n"
        "    assert cli.main(argv + ['--format', 'json']) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "sys.exit(f'imported {loaded[:3]}' if loaded else 0)\n"
    )
    result = python_subprocess(["-c", script, fixture("lw2.datum.json"),
                                fixture("lw2.presentation.json")], tmp_path, timeout=120)
    assert result.returncode == 0, result.stderr


def test_commands_that_do_not_build_never_import_the_builder_or_dataclasses(tmp_path):
    """The commands that only check a certificate, and a malformed input,
    load neither the builder, the candidate family nor dataclasses, whose
    inspect import is start-up that no command needs, and data defines no
    part of the family; check-data, polytope and build load the family and
    the builder, and the package and data still serve their names."""
    bad = tmp_path / "bad.datum.json"
    bad.write_text("{", encoding="utf-8")
    checking = (
        "import sys\n"
        "from hblcert import cli, data\n"
        "datum, pres, bad = sys.argv[1:]\n"
        "for command in ('verify', 'bound', 'export-dot', 'decompose-flow', 'project'):\n"
        "    argv = [command, '--data', datum, '--presentation', pres, '--format', 'json']\n"
        "    assert cli.main(argv) == 0, command\n"
        "assert cli.main(['check-data', '--data', bad]) == 2\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'hblcert.builder', 'hblcert.lattice')\n"
        "          if m in sys.modules]\n"
        "if loaded:\n"
        "    sys.exit(f'imported {loaded}')\n"
        "if hasattr(data, '_Inclusions'):\n"
        "    sys.exit('data defines the candidate family')\n"
    )
    result = python_subprocess(["-c", checking, fixture("r6.datum.json"),
                                fixture("r6.presentation.json"), str(bad)], tmp_path, timeout=120)
    assert result.returncode == 0, result.stderr
    building = (
        "import sys\n"
        "from hblcert import cli\n"
        "command, datum = sys.argv[1:]\n"
        "assert cli.main([command, '--data', datum, '--format', 'json']) == 0, command\n"
        "missing = [m for m in ('hblcert.lattice', 'hblcert.builder') if m not in sys.modules]\n"
        "if missing:\n"
        "    sys.exit(f'{command} did not load {missing}')\n"
        "from hblcert import BuildError, CandidateLattice, build_presentation, generate_lattice\n"
        "from hblcert import builder, data, lattice\n"
        "if (BuildError, build_presentation) != (builder.BuildError, builder.build_presentation):\n"
        "    sys.exit('the package serves other builder names')\n"
        "if (CandidateLattice, generate_lattice) != (lattice.CandidateLattice,\n"
        "                                            lattice.generate_lattice):\n"
        "    sys.exit('the package serves other family names')\n"
        "if data.generate_lattice is not lattice.generate_lattice:\n"
        "    sys.exit('data serves another generate_lattice')\n"
    )
    for command in ("check-data", "polytope", "build"):
        result = python_subprocess(["-c", building, command, fixture("r6.datum.json")],
                                   tmp_path, timeout=120)
        assert result.returncode == 0, result.stderr
