"""Parsing and canonical serialization of the on-disk grammars.

Three file kinds: datum files (dimension, named map matrices, exponents),
presentation files (vertices with bases, edges with weight vectors), and
candidate files (one subspace per line, basis vectors separated by
semicolons). Rationals travel as strings like "-3/4" and are always
gcd-reduced on output; serialization is canonical, so parse-serialize
round-trips are byte-identical on canonical input.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from hblcert.data import HBLDatum
from hblcert.linalg import Matrix, Subspace, canonicalize
from hblcert.presentation import Presentation


class ParseError(ValueError):
    """Malformed input; the message carries the offending location."""


_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: str, where: str = "rational") -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.match(text.strip()):
        raise ParseError(f"{where}: malformed rational {text!r}")
    try:
        return Fraction(text.strip())
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"{where}: {exc}") from None


def _load_json(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer with more digits than int() converts
        raise ParseError(f"{what}: {exc}") from None
    except RecursionError:
        raise ParseError(f"{what}: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: top level must be an object")
    return obj


def _list(obj: dict, key: str, where: str) -> list:
    if not isinstance(obj[key], list):
        raise ParseError(f"{where}: {key} must be a list")
    return obj[key]


def _parse_matrix(rows, cols: int | None, where: str) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{where}: rows must be a list of lists")
    parsed = [[parse_rational(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
              for i, row in enumerate(rows)]
    widths = {len(r) for r in parsed}
    if len(widths) > 1:
        raise ParseError(f"{where}: ragged matrix rows")
    if cols is None:
        if not parsed:
            raise ParseError(f"{where}: empty matrix needs a known width")
        cols = len(parsed[0])
    elif widths and widths != {cols}:
        raise ParseError(f"{where}: expected {cols} columns, got {widths.pop()}")
    return Matrix.from_rows(parsed, cols=cols)


def parse_datum(text: str) -> HBLDatum:
    obj = _load_json(text, "datum")
    for key in ("dim", "maps", "exponents"):
        if key not in obj:
            raise ParseError(f"datum: missing key {key!r}")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("datum: dim must be a positive integer")
    maps, names = [], []
    for k, entry in enumerate(_list(obj, "maps", "datum")):
        if not isinstance(entry, dict) or "rows" not in entry:
            raise ParseError(f"datum: maps[{k}] needs a rows field")
        name = entry.get("name", f"pi{k + 1}")
        if not isinstance(name, str):
            raise ParseError(f"datum: maps[{k}].name must be a string")
        maps.append(_parse_matrix(entry["rows"], dim, f"datum: maps[{k}] ({name})"))
        names.append(name)
    exponents = [parse_rational(x, f"datum: exponents[{k}]")
                 for k, x in enumerate(_list(obj, "exponents", "datum"))]
    if len(exponents) != len(maps):
        raise ParseError("datum: one exponent per map required")
    try:
        return HBLDatum(dim, tuple(maps), tuple(names), tuple(exponents))
    except ValueError as exc:
        raise ParseError(f"datum: {exc}") from None


def serialize_datum(datum: HBLDatum) -> str:
    obj = {
        "dim": datum.dim,
        "maps": [
            {"name": name,
             "rows": [[str(x) for x in m.row(i)] for i in range(m.rows)]}
            for name, m in zip(datum.names, datum.maps)
        ],
        "exponents": [str(t) for t in datum.exponents],
    }
    return json.dumps(obj, indent=2) + "\n"


def parse_presentation(text: str) -> Presentation:
    obj = _load_json(text, "presentation")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise ParseError(f"presentation: missing key {key!r}")
    vertices = _list(obj, "vertices", "presentation")
    edges = _list(obj, "edges", "presentation")
    if not vertices:
        raise ParseError("presentation: needs at least one vertex")
    for k, entry in enumerate(vertices):
        if not isinstance(entry, dict) or "id" not in entry or "basis" not in entry:
            raise ParseError(f"presentation: vertices[{k}] needs id and basis")
        if not isinstance(entry["id"], str):
            raise ParseError(f"presentation: vertices[{k}].id must be a string")
        if not isinstance(entry["basis"], list):
            raise ParseError(f"presentation: vertices[{k}].basis must be a list")
    ambient = next((len(e["basis"][0]) for e in vertices
                    if e["basis"] and isinstance(e["basis"][0], list)), None)
    if ambient is None:
        raise ParseError("presentation: could not infer the ambient dimension")
    by_id: dict[str, Subspace] = {}
    for entry in vertices:
        vid = entry["id"]
        if vid in by_id:
            raise ParseError(f"presentation: duplicate vertex id {vid!r}")
        basis = entry["basis"]
        mat = _parse_matrix(basis, ambient, f"presentation: vertex {vid}") if basis \
            else Matrix.zeros(0, ambient)
        by_id[vid] = canonicalize(mat)

    width = None
    weights: dict[tuple[Subspace, Subspace], tuple[Fraction, ...]] = {}
    for k, entry in enumerate(edges):
        if not isinstance(entry, dict):
            raise ParseError(f"presentation: edges[{k}] must be an object")
        for key in ("from", "to", "theta"):
            if key not in entry:
                raise ParseError(f"presentation: edges[{k}] missing {key!r}")
        for end in ("from", "to"):
            if not isinstance(entry[end], str) or entry[end] not in by_id:
                raise ParseError(
                    f"presentation: edges[{k}].{end}: unknown vertex id {entry[end]!r}"
                )
        if not isinstance(entry["theta"], list):
            raise ParseError(f"presentation: edges[{k}].theta must be a list of rationals")
        if not entry["theta"]:
            raise ParseError(f"presentation: edges[{k}].theta must be a non-empty list "
                             "of rationals")
        theta = tuple(parse_rational(x, f"presentation: edges[{k}].theta[{j}]")
                      for j, x in enumerate(entry["theta"]))
        if width is None:
            width = len(theta)
        elif len(theta) != width:
            raise ParseError(f"presentation: edges[{k}].theta width {len(theta)} != {width}")
        weights[by_id[entry["from"]], by_id[entry["to"]]] = theta
    if width is None:
        raise ParseError("presentation: needs at least one edge")
    if len(weights) != len(edges):
        raise ParseError("presentation: parallel duplicate edge")
    return Presentation.from_edges(ambient, width, by_id.values(), weights)


def serialize_presentation(pres: Presentation) -> str:
    graph = pres.graph
    obj = {
        "vertices": [
            {"id": f"v{i}",
             "basis": [[str(x) for x in row] for row in v.basis_rows()]}
            for i, v in enumerate(graph.vertices)
        ],
        "edges": [
            {"from": f"v{a}", "to": f"v{b}",
             "theta": [str(x) for x in pres.theta.values[k]]}
            for k, (a, b) in enumerate(graph.edges)
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def parse_candidates(text: str, ambient: int) -> list[Subspace]:
    """One subspace per line: basis vectors split by ';', entries by spaces
    or commas. Blank lines and '#' comments are skipped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        vectors = []
        for chunk in line.split(";"):
            parts = [p for p in re.split(r"[,\s]+", chunk.strip()) if p]
            if not parts:
                continue
            if len(parts) != ambient:
                raise ParseError(
                    f"candidates: line {lineno}: vector has {len(parts)} entries, "
                    f"ambient is {ambient}"
                )
            vectors.append([parse_rational(p, f"candidates: line {lineno}") for p in parts])
        if not vectors:
            raise ParseError(f"candidates: line {lineno}: no vectors")
        out.append(canonicalize(Matrix.from_rows(vectors, cols=ambient)))
    return out
