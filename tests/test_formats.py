import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hblcert.formats import (
    ParseError,
    parse_candidates,
    parse_datum,
    parse_presentation,
    parse_rational,
    serialize_datum,
    serialize_presentation,
)
from hblcert.fixtures import ALL_FIXTURES
from hblcert.linalg import span
from hblcert.presentation import verify_presentation

FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def test_rational_reduction_and_grammar():
    assert str(parse_rational("2/4")) == "1/2"
    assert str(parse_rational("-3")) == "-3"
    assert str(parse_rational("0")) == "0"
    for bad in ("1.5", "1/0", "1/-2", "a", "", "1//2", "1e3"):
        with pytest.raises(ParseError, match="malformed rational"):
            parse_rational(bad)


def test_fixture_files_round_trip_byte_identically():
    for name, (make_datum, make_pres) in ALL_FIXTURES.items():
        datum_text = (FIXTURE_DIR / f"{name}.datum.json").read_text()
        assert serialize_datum(parse_datum(datum_text)) == datum_text
        assert parse_datum(datum_text) == make_datum()

        pres_text = (FIXTURE_DIR / f"{name}.presentation.json").read_text()
        parsed = parse_presentation(pres_text)
        assert serialize_presentation(parsed) == pres_text
        assert parsed == make_pres()


def test_parse_presentation_accepts_scrambled_ids_and_unreduced_entries():
    text = json.dumps({
        "vertices": [
            {"id": "top", "basis": [["2", "0"], ["0", "2"]]},
            {"id": "origin", "basis": []},
            {"id": "mid", "basis": [["4/4", "0"]]},
        ],
        "edges": [
            {"from": "mid", "to": "top", "theta": ["2/4"]},
            {"from": "origin", "to": "mid", "theta": ["1/2"]},
        ],
    })
    pres = parse_presentation(text)
    assert pres.graph.vertices[1] == span([[1, 0]], 2)
    assert pres.theta.values == ((Fraction(1, 2),), (Fraction(1, 2),))


def test_parse_errors_name_the_problem():
    with pytest.raises(ParseError, match="unknown vertex id 'ghost'"):
        parse_presentation(json.dumps({
            "vertices": [{"id": "a", "basis": [["1"]]}],
            "edges": [{"from": "a", "to": "ghost", "theta": ["1"]}],
        }))
    with pytest.raises(ParseError, match="ragged"):
        parse_datum(json.dumps({
            "dim": 2,
            "maps": [{"name": "p", "rows": [["1", "0"], ["1"]]}],
            "exponents": ["1"],
        }))
    with pytest.raises(ParseError, match="line 1"):
        parse_datum("{not json")
    with pytest.raises(ParseError, match="exponent"):
        parse_datum(json.dumps({
            "dim": 1, "maps": [{"rows": [["1"]]}], "exponents": ["3/2"],
        }))


@pytest.mark.parametrize("ids", [("a", "b", "a", "b"), ("a", "b", "a2", "b")])
def test_parse_presentation_rejects_parallel_duplicate_edges(ids):
    """The same edge listed twice, or two ids with equal bases joined to one
    target, give one subspace pair twice; the edge loop's own errors win."""
    vertices = [{"id": "a", "basis": []}, {"id": "a2", "basis": []},
                {"id": "b", "basis": [["1"]]}]
    edges = [{"from": ids[0], "to": ids[1], "theta": ["1"]},
             {"from": ids[2], "to": ids[3], "theta": ["1"]}]
    with pytest.raises(ParseError, match="^presentation: parallel duplicate edge$"):
        parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))
    edges.append({"from": "a", "to": "b", "theta": ["1", "1"]})
    with pytest.raises(ParseError, match=r"edges\[2\]\.theta width 2 != 1"):
        parse_presentation(json.dumps({"vertices": vertices, "edges": edges}))


@pytest.mark.parametrize("theta", [5, "11", None, {"0": "1"}])
def test_parse_presentation_rejects_theta_that_is_not_a_list(theta):
    text = json.dumps({
        "vertices": [{"id": "a", "basis": []}, {"id": "b", "basis": [["1"]]}],
        "edges": [{"from": "a", "to": "b", "theta": theta}],
    })
    with pytest.raises(ParseError, match=r"edges\[0\]\.theta must be a list"):
        parse_presentation(text)


@pytest.mark.parametrize("vertices, edges, message", [
    ([], [], "needs at least one vertex"),
    ([{"id": "a", "basis": []}, {"id": "b", "basis": []}],
     [{"from": "a", "to": "b", "theta": ["1"]}], "could not infer the ambient dimension"),
    ([{"id": "a", "basis": []}, {"id": "a", "basis": [["1"]]}],
     [{"from": "a", "to": "a", "theta": ["1"]}], "duplicate vertex id 'a'"),
    ([{"id": "a", "basis": []}, {"id": "b", "basis": [["1"]]}], [],
     "needs at least one edge"),
])
def test_parse_presentation_rejects_an_empty_or_ambiguous_graph(vertices, edges, message):
    text = json.dumps({"vertices": vertices, "edges": edges})
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert str(exc.value) == f"presentation: {message}"


def test_parse_presentation_rejects_an_empty_theta_at_its_own_edge():
    # An empty first row used to set the width to 0 and blame the next edge.
    edges = [{"from": "a", "to": "b", "theta": []}, {"from": "b", "to": "c", "theta": ["1"]}]
    text = json.dumps({
        "vertices": [{"id": "a", "basis": []}, {"id": "b", "basis": [["1", "0"]]},
                     {"id": "c", "basis": [["1", "0"], ["0", "1"]]}],
        "edges": edges,
    })
    with pytest.raises(ParseError, match=r"^presentation: edges\[0\]\.theta must be a "
                                         r"non-empty list of rationals$"):
        parse_presentation(text)


def test_parse_candidates():
    text = "# comment line\n1 0 0; 0 1 0\n\n0 0 2\n"
    subs = parse_candidates(text, 3)
    assert subs == [span([[1, 0, 0], [0, 1, 0]], 3), span([[0, 0, 1]], 3)]
    with pytest.raises(ParseError, match="line 1"):
        parse_candidates("1 0\n", 3)


def test_datum_serialization_preserves_map_order():
    datum = ALL_FIXTURES["r6"][0]()
    obj = json.loads(serialize_datum(datum))
    assert [m["name"] for m in obj["maps"]] == ["pi1", "pi2", "pi3", "pi4"]


def test_parsed_fixture_presentations_verify():
    for name, (make_datum, _) in ALL_FIXTURES.items():
        datum = parse_datum((FIXTURE_DIR / f"{name}.datum.json").read_text())
        pres = parse_presentation((FIXTURE_DIR / f"{name}.presentation.json").read_text())
        assert verify_presentation(datum, pres).valid


# -- fuzzing: every parser either parses or raises ParseError ---------------

_KEYS = ("dim", "maps", "name", "rows", "exponents", "vertices", "edges",
         "id", "basis", "from", "to", "theta")
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "1/0", "x", "", "v0", "v1"])
            | st.text(max_size=5))
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=16,
)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


def _parses_or_rejects(parse, *args):
    try:
        parse(*args)
    except ParseError:
        pass


_DOCS = {
    "datum": (parse_datum, json.loads((FIXTURE_DIR / "lw2.datum.json").read_text())),
    "presentation": (parse_presentation,
                     json.loads((FIXTURE_DIR / "lw2.presentation.json").read_text())),
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_DOCS)), data=st.data())
def test_fuzz_one_node_of_a_fixture_replaced(kind, data):
    parse, doc = _DOCS[kind]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    _parses_or_rejects(parse, json.dumps(_replaced(doc, path, data.draw(_TREES))))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_DOCS)), tree=_TREES)
def test_fuzz_json_trees(kind, tree):
    _parses_or_rejects(_DOCS[kind][0], json.dumps(tree))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_DOCS)), text=st.text(max_size=40))
@example(kind="datum", text="9" * 5000)
@example(kind="datum", text="[" * 100_000)
@example(kind="presentation", text='{"vertices": [{"id": "a", "basis": [["1/' + "9" * 5000 + '"]]}]}')
def test_fuzz_text(kind, text):
    _parses_or_rejects(_DOCS[kind][0], text)


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet=" \t\n;,#-/019x", max_size=40), ambient=st.integers(0, 4))
@example(text="9" * 5000, ambient=1)
def test_fuzz_candidates(text, ambient):
    _parses_or_rejects(parse_candidates, text, ambient)
