"""Command-line front end.

Commands run the library pipelines on datum/presentation/candidate files and
emit text or JSON reports (DOT for diagram export). Exit status 0 means a
positive verdict (valid, feasible, dominated), 1 a mathematically negative
verdict with the report attached, 2 malformed input or usage errors, among
them a datum and presentation that do not match, found before any verdict, 3
an unexpected internal error, reported on one `error: internal:` line, and 4 an
inconclusive verdict: a `check-data` that finds no violation but cannot build
a certificate on the family, or a `build` whose candidate family is
insufficient.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from hblcert import formats
from hblcert.flowgraph import decompose_flow, pushforward, total_mass
from hblcert.presentation import _certificate, _require_match, export_dot, verify_presentation


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hblcert",
        description="verify, construct and cross-check graph certificates "
                    "for Holder-Brascamp-Lieb finiteness",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--data", help="datum file")
    parser.add_argument("--presentation", help="presentation file")
    parser.add_argument("--candidates", help="candidate subspace file")
    parser.add_argument("--max-lattice", type=int, default=512,
                        help="cap on generated candidate lattices (default 512)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized probes (default 0)")
    parser.add_argument("--map-index", type=int, default=0,
                        help="map index for the project command (default 0)")
    parser.add_argument("--out", help="write the report or artifact here instead of stdout")
    parser.add_argument("--format", choices=["text", "json", "dot"], default="text")
    return parser


def _read(path: str | None, what: str) -> str:
    if not path:
        raise formats.ParseError(f"missing required --{what}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise formats.ParseError(f"cannot read {what} file: {exc}") from None


def _load_datum(args):
    return formats.parse_datum(_read(args.data, "data"))


def _load_presentation(args):
    return formats.parse_presentation(_read(args.presentation, "presentation"))


def _load_candidates(args, datum):
    # Only check-data, polytope and build read a candidate family, so only
    # they compile the lattice closure.
    from hblcert.lattice import CandidateLattice, generate_lattice

    if args.candidates:
        subs = formats.parse_candidates(_read(args.candidates, "candidates"), datum.dim)
        return CandidateLattice.from_subspaces(datum.dim, subs)
    return generate_lattice(datum, max_size=args.max_lattice)


def _cmd_verify(args) -> tuple[int, dict]:
    datum = _load_datum(args)
    pres = _load_presentation(args)
    report = verify_presentation(datum, pres)
    out = {
        "command": "verify",
        "verdict": "valid" if report.valid else "invalid",
        "problems": list(report.problems),
        "sigma": [str(x) for x in report.sigma],
        "sigma_mass": str(report.sigma_mass),
        "map_masses": [str(x) for x in report.map_masses],
    }
    if report.valid:
        out["bound"] = _certificate_dict(datum, pres)
    return (0 if report.valid else 1), out


def _certificate_dict(datum, pres) -> dict:
    """The constant of a presentation that verify_presentation has found valid."""
    cert = _certificate(datum, pres)
    return {
        "value": cert.value,
        "exact_one": cert.exact_one,
        "factors": [
            {"map": f.map_index, "edge": list(pres.graph.edges[f.edge]),
             "base": str(f.base), "exponent": str(f.exponent)}
            for f in cert.factors
        ],
    }


def _basis(v) -> list[list[str]]:
    return [[str(x) for x in row] for row in v.basis_rows()]


# Only the commands that build import the builder, once their input is read,
# so the others never compile it.
def _cmd_check_data(args) -> tuple[int, dict]:
    datum = _load_datum(args)
    candidates = _load_candidates(args, datum)
    from hblcert import builder

    poly = builder.polytope_from_candidates(datum, candidates)
    point = builder.as_point(datum.exponents)
    gaps = list(poly.gaps(point))
    # The family opens with {0} and H, so H's equality row gives the scaling
    # slack, and a scaling failure is the violation reported; exponents lie
    # in [0, 1], so no box row is violated.
    violation = poly.violated(gaps)
    scaling = next(gap for row, gap in zip(poly.rows, gaps) if row.equality)
    out = {
        "command": "check-data",
        "verdict": "feasible" if violation is None else "violation",
        "scaling": {"holds": scaling == 0, "lhs": str(datum.dim),
                    "rhs": str(datum.dim + Fraction(scaling, point[0]))},
        "lattice": {"size": len(candidates.subspaces), "closed": candidates.closed},
        "criticals": [{"dim": row.rhs, "basis": _basis(row.subspace)}
                      for row in poly.criticals(gaps)],
    }
    if violation is not None:
        row, gap = violation
        out["violation"] = {
            "dim": row.rhs,
            "slack": str(Fraction(gap, point[0])),
            "classification": "scaling" if row.equality else "violating",
            "basis": _basis(row.subspace),
        }
        return 1, out
    try:  # only a certificate on the family, verified by the build, proves feasibility
        builder.build_presentation(datum, candidates, max_lattice=args.max_lattice)
    except builder.BuildError as exc:
        out.update(verdict="inconclusive", reason=str(exc))
        return 4, out
    return 0, out


def _cmd_polytope(args) -> tuple[int, dict]:
    datum = _load_datum(args)
    candidates = _load_candidates(args, datum)
    from hblcert import builder

    poly = builder.polytope_from_candidates(datum, candidates)
    vertices = builder.enumerate_extremes(poly)
    violated = poly.member(datum.exponents)
    out = {
        "command": "polytope",
        "verdict": "feasible" if vertices else "infeasible",
        "vertices": [[str(x) for x in p] for p in vertices],
        "member": violated is None,
    }
    if violated is not None:
        out["violated_row"] = violated.provenance
    return (0 if vertices else 1), out


def _cmd_build(args) -> tuple[int, dict]:
    datum = _load_datum(args)
    candidates = _load_candidates(args, datum)
    from hblcert import builder

    trace: list[str] = []
    try:
        pres = builder.build_presentation(
            datum, candidates, max_lattice=args.max_lattice, trace=trace
        )
    except builder.BuildError as exc:
        # A larger family may yet build; only other failures are a "no".
        insufficient = isinstance(exc, builder.InsufficientCandidates)
        return (4 if insufficient else 1), {
            "command": "build", "verdict": "inconclusive" if insufficient else "failed",
            "reason": str(exc), "trace": trace}
    text = formats.serialize_presentation(pres)
    out = {
        "command": "build",
        "verdict": "built",
        "vertices": len(pres.graph.vertices),
        "edges": len(pres.graph.edges),
        "trace": trace,
        "presentation": json.loads(text),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        out["written"] = args.out
    return 0, out


def _cmd_bound(args) -> tuple[int, dict]:
    datum = _load_datum(args)
    pres = _load_presentation(args)
    report = verify_presentation(datum, pres)
    if not report.valid:
        return 1, {"command": "bound", "verdict": "invalid",
                   "problems": list(report.problems)}
    return 0, {"command": "bound", "verdict": "ok",
               "bound": _certificate_dict(datum, pres)}


def _cmd_decompose_flow(args) -> tuple[int, dict]:
    pres = _load_presentation(args)
    decomposition = decompose_flow(pres.graph, pres.theta)
    masses = total_mass(pres.graph, pres.theta)
    out = {
        "command": "decompose-flow",
        "verdict": "ok",
        "masses": [str(x) for x in masses],
        "terms": [
            {"component": t.component, "coefficient": str(t.coefficient),
             "edges": [list(pres.graph.edges[k]) for k in t.edges]}
            for t in decomposition.terms
        ],
    }
    return 0, out


def _cmd_project(args) -> tuple[int, dict]:
    datum = _load_datum(args)
    pres = _load_presentation(args)
    _require_match(datum, pres)
    i = args.map_index
    if not (0 <= i < datum.n_maps):
        raise formats.ParseError(f"--map-index {i} out of range for {datum.n_maps} maps")
    projected, edge_map, weight = pushforward(pres.graph, pres.theta, datum.maps[i])
    out = {
        "command": "project",
        "verdict": "ok",
        "map": datum.names[i],
        "vertices": [projected.describe_vertex(k) for k in range(len(projected.vertices))],
        "edges": [
            {"from": a, "to": b, "weight": [str(x) for x in weight.values[k]]}
            for k, (a, b) in enumerate(projected.edges)
        ],
        "edge_map": list(edge_map),
        "masses": [str(x) for x in total_mass(projected, weight)],
    }
    return 0, out


# The floating-point commands import numpy and the oracles themselves, so the
# exact commands never load them.
def _cmd_gaussian(args) -> tuple[int, dict]:
    from hblcert.oracle import GaussianInput, gaussian_ascent, gaussian_ratio

    datum = _load_datum(args)
    sup, diverged = gaussian_ascent(datum, iterations=400, seed=args.seed)
    identity_ratio = gaussian_ratio(datum, GaussianInput.identity(datum))
    out = {
        "command": "gaussian",
        "verdict": "diverged" if diverged else "bounded",
        "sup_estimate": sup,
        "identity_ratio": identity_ratio,
        "seed": args.seed,
    }
    return (1 if diverged else 0), out


# quadrature reads a worst ratio up to 1 + this as dominated: the slack
# absorbs rounding in the float midpoint sums.
_QUADRATURE_SLACK = 1e-9


def _cmd_quadrature(args) -> tuple[int, dict]:
    datum = _load_datum(args)
    pres = _load_presentation(args)
    _require_match(datum, pres)  # input it cannot run on is exit 2 before any verdict
    if datum.dim > 3:
        raise ValueError("quadrature beyond dimension 3 is unsupported")
    if 0 in datum.ranks:
        raise ValueError("quadrature needs positive-rank maps")
    report = verify_presentation(datum, pres)
    if not report.valid:
        return 1, {"command": "quadrature", "verdict": "invalid",
                   "problems": list(report.problems)}
    import numpy as np

    from hblcert.oracle import GridFunction, quadrature_check

    cert = _certificate(datum, pres)
    rng = np.random.default_rng(args.seed)
    trials = []
    worst = 0.0
    for _ in range(8):
        fs = []
        for r in datum.ranks:
            blocks = rng.uniform(0.0, 1.0, size=(4,) * r)
            values = blocks
            for axis in range(r):
                values = values.repeat(8, axis)
            fs.append(GridFunction(((0.0, 1.0),) * r, values))
        lhs, rhs, ratio = quadrature_check(
            datum, cert.value, fs, box=((0.0, 1.0),) * datum.dim, resolution=32
        )
        trials.append({"lhs": lhs, "rhs": rhs, "ratio": ratio})
        worst = max(worst, ratio)
    dominated = worst <= 1 + _QUADRATURE_SLACK
    out = {
        "command": "quadrature",
        "verdict": "dominated" if dominated else "exceeded",
        "bound_value": cert.value,
        "worst_ratio": worst,
        "trials": trials,
        "seed": args.seed,
    }
    return (0 if dominated else 1), out


def _cmd_export_dot(args) -> tuple[int, dict]:
    datum = _load_datum(args)
    pres = _load_presentation(args)
    dot = export_dot(datum, pres)
    return 0, {"command": "export-dot", "verdict": "ok", "dot": dot}


_COMMANDS = {
    "verify": _cmd_verify,
    "check-data": _cmd_check_data,
    "polytope": _cmd_polytope,
    "build": _cmd_build,
    "bound": _cmd_bound,
    "decompose-flow": _cmd_decompose_flow,
    "project": _cmd_project,
    "gaussian": _cmd_gaussian,
    "quadrature": _cmd_quadrature,
    "export-dot": _cmd_export_dot,
}


def _render_text(report: dict) -> str:
    lines = [f"{report['command']}: {report['verdict']}"]
    for key, value in report.items():
        if key in ("command", "verdict", "dot", "presentation"):
            continue
        if isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{key}:")
            for item in value:
                lines.append(f"  {json.dumps(item)}")
        else:
            lines.append(f"{key}: {json.dumps(value)}")
    if "dot" in report:
        lines.append(report["dot"].rstrip("\n"))
    return "\n".join(lines) + "\n"


def _strict(value):
    """`value` with each non-finite float, which strict JSON cannot hold, as
    its str() ("inf", "-inf" or "nan"), which float() reads back."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Execute one command; returns (exit status, rendered report)."""
    status, report = _COMMANDS[args.command](args)
    if args.format == "json":
        rendered = json.dumps(_strict(report), indent=2, allow_nan=False) + "\n"
    elif args.format == "dot":
        rendered = report["dot"]
    else:
        rendered = _render_text(report)
    return status, rendered


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.max_lattice < 2:
        parser.error("--max-lattice must be at least 2")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.format == "dot" and args.command != "export-dot":
        parser.error("--format dot is only valid for export-dot")
    try:
        status, rendered = run(args)
        if args.out and args.command != "build":
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - any other failure is a defect
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {message}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
