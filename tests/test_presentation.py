import random
from fractions import Fraction

import pytest

from hblcert.data import HBLDatum, transform_datum
from hblcert.fixtures import (
    ALL_FIXTURES,
    fourmap_r6_datum,
    fourmap_r6_presentation,
    loomis_whitney_datum,
    loomis_whitney_presentation,
)
from hblcert.flowgraph import GraphDecomposition, WeightFunction
from hblcert.linalg import Matrix, Subspace, image, span
from hblcert.presentation import (
    Presentation,
    bound_constant,
    edge_norm_squared,
    export_dot,
    summary_weight,
    verify_presentation,
)

from conftest import random_invertible, random_signed_permutation


def r6_edge(pres, target_from_dim, to_basis_rows):
    """Edge index with given source dimension and target subspace."""
    target = span(to_basis_rows, 6)
    for k, (a, b) in enumerate(pres.graph.edges):
        if pres.graph.vertices[a].dim == target_from_dim and pres.graph.vertices[b] == target:
            return k
    raise AssertionError("edge not found")


def transport_presentation(pres, t):
    moved = {image(t, v) for v in pres.graph.vertices}
    pairs = []
    weights = {}
    for k, (a, b) in enumerate(pres.graph.edges):
        key = (image(t, pres.graph.vertices[a]), image(t, pres.graph.vertices[b]))
        pairs.append(key)
        weights[key] = pres.theta.values[k]
    graph = GraphDecomposition.build(pres.graph.ambient, moved, pairs)
    rows = [weights[(graph.vertices[a], graph.vertices[b])] for a, b in graph.edges]
    return Presentation(graph, WeightFunction(pres.theta.width, tuple(rows)))


def test_summary_weight_r6_diamond_edge():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    sigma = summary_weight(datum, pres)
    v5_to_full = r6_edge(pres, 5, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                                   [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                                   [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
    # Only the third map distinguishes V5 from the full space.
    assert pres.graph.vertices[pres.graph.edges[v5_to_full][0]].dim == 5
    assert sigma.values[v5_to_full] == (Fraction(1, 2),)


def test_summary_weight_loomis_whitney_is_one():
    datum, pres = loomis_whitney_datum(3), loomis_whitney_presentation(3)
    sigma = summary_weight(datum, pres)
    assert all(v == (Fraction(1),) for v in sigma.values)


def test_summary_weight_zero_maps():
    graph = loomis_whitney_presentation(2).graph
    zero_maps = tuple(Matrix.zeros(2, 3) for _ in range(3))
    datum = HBLDatum(3, zero_maps, ("a", "b", "c"),
                     (Fraction(1), Fraction(1), Fraction(1)))
    pres = Presentation(graph, loomis_whitney_presentation(2).theta)
    sigma = summary_weight(datum, pres)
    assert all(v == (Fraction(0),) for v in sigma.values)


def test_fixtures_verify():
    for name, (make_datum, make_pres) in ALL_FIXTURES.items():
        report = verify_presentation(make_datum(), make_pres())
        assert report.valid, (name, report.problems)


def test_mutated_diamond_weight_is_rejected_with_named_conditions():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    k = r6_edge(pres, 4, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                          [0, 0, 0, 0, 1, 1]])
    rows = [list(v) for v in pres.theta.values]
    rows[k][1] = Fraction(1, 4)
    mutated = Presentation(pres.graph, WeightFunction.from_rows(rows, 4))
    report = verify_presentation(datum, mutated)
    assert not report.valid
    assert any(p.startswith("theta-balance: map pi2") and "span" in p
               for p in report.problems)
    assert any(p.startswith("sigma-balance") for p in report.problems)


def test_structure_mismatch_lands_in_report():
    datum = loomis_whitney_datum(2)
    pres = fourmap_r6_presentation()
    report = verify_presentation(datum, pres)
    assert not report.valid
    assert any(p.startswith("structure") for p in report.problems)


@pytest.mark.parametrize("stranger, edge_problems", [
    (Subspace.full(2), ("graph: edge 0 (0 -> R^2) jumps dimension 0 to 2",
                        "graph: edge 1 (R^2 -> span{[1 0 0],[0 1 0]}) jumps dimension 2 to 2")),
    (span([[1, 1]], 2), ()),
])
def test_vertex_of_the_wrong_ambient_lands_in_report(stranger, edge_problems):
    # A vertex of R^2 in a graph of R^3: one of another dimension than the
    # vertex it replaces, and one of the same dimension, whose edges reach
    # the containment check.
    datum, pres = loomis_whitney_datum(2), loomis_whitney_presentation(2)
    vertices = list(pres.graph.vertices)
    vertices[1] = stranger
    bad = Presentation(GraphDecomposition(3, tuple(vertices), pres.graph.edges), pres.theta)
    report = verify_presentation(datum, bad)
    assert not report.valid
    assert report.problems == ("graph: vertex 1 has ambient 2, graph has 3", *edge_problems)
    assert report.sigma == () and not report.sigma_balanced
    with pytest.raises(ValueError, match="requires a valid presentation"):
        bound_constant(datum, bad)


def test_edge_norms_loomis_whitney_all_one():
    datum, pres = loomis_whitney_datum(2), loomis_whitney_presentation(2)
    sigma = summary_weight(datum, pres)
    assert all(v == (Fraction(1),) for v in sigma.values)
    for k in range(len(pres.graph.edges)):
        for i in range(3):
            a, b = pres.graph.edges[k]
            if image(datum.maps[i], pres.graph.vertices[a]) \
                    == image(datum.maps[i], pres.graph.vertices[b]):
                continue
            assert edge_norm_squared(datum, pres, i, k) == 1


def test_edge_norms_r6_diamond():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    v6_rows = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
               [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 1]]
    k = r6_edge(pres, 4, v6_rows)
    assert edge_norm_squared(datum, pres, 1, k) == 2
    k2 = next(kk for kk, (a, b) in enumerate(pres.graph.edges)
              if pres.graph.vertices[a] == span(v6_rows, 6)
              and pres.graph.vertices[b].is_full())
    assert edge_norm_squared(datum, pres, 3, k2) == 2


def test_edge_norms_positive_wherever_defined():
    # The squared norm can exceed 1 (the diamond edges reach 2) but is
    # always strictly positive on distinguished pairs.
    for make_datum, make_pres in ALL_FIXTURES.values():
        datum, pres = make_datum(), make_pres()
        for k, (a, b) in enumerate(pres.graph.edges):
            for i, m in enumerate(datum.maps):
                if image(m, pres.graph.vertices[a]) == image(m, pres.graph.vertices[b]):
                    continue
                assert edge_norm_squared(datum, pres, i, k) > 0


def test_edge_norm_requires_distinguishing_map():
    datum, pres = loomis_whitney_datum(2), loomis_whitney_presentation(2)
    # Map pi1 does not move the first edge ({0} -> span{e1}).
    with pytest.raises(ValueError, match="does not distinguish"):
        edge_norm_squared(datum, pres, 0, 0)


def test_bound_constant_loomis_whitney_exactly_one():
    for d in (2, 3, 4, 5):
        cert = bound_constant(loomis_whitney_datum(d), loomis_whitney_presentation(d))
        assert cert.exact_one
        assert all(f.base == 1 for f in cert.factors)
        assert cert.value == 1.0


def test_bound_constant_r6():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    cert = bound_constant(datum, pres)
    assert not cert.exact_one
    base_two = [f for f in cert.factors if f.base == 2]
    assert len(base_two) == 2
    assert all(f.exponent == Fraction(-1, 4) for f in base_two)
    assert {f.map_index for f in base_two} == {1, 3}
    assert cert.value == pytest.approx(2 ** -0.5, rel=1e-12)
    # theta = 0 on a distinguished pair contributes no factor.
    assert all(pres.theta.values[f.edge][f.map_index] > 0 for f in cert.factors)


def test_bound_constant_requires_validity():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    rows = [list(v) for v in pres.theta.values]
    rows[0][0] += Fraction(1, 4)
    bad = Presentation(pres.graph, WeightFunction.from_rows(rows, 4))
    with pytest.raises(ValueError, match="valid presentation"):
        bound_constant(datum, bad)


def test_export_dot_marks_distinguishing_entries():
    datum, pres = loomis_whitney_datum(2), loomis_whitney_presentation(2)
    dot = export_dot(datum, pres)
    assert dot.startswith("digraph")
    assert '(1/2,1/2*,1/2*)' in dot
    assert 'label="R^3"' in dot


def test_export_dot_r6_topology():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    dot = export_dot(datum, pres)
    assert dot.count(" -> ") == 8
    assert dot.count("label=") == 8 + 8  # one per vertex, one per edge


def test_export_dot_survives_invalid_graph():
    datum = loomis_whitney_datum(2)
    zero, full = Subspace.zero(3), Subspace.full(3)
    graph = GraphDecomposition(3, (zero, full), ())
    pres = Presentation(graph, WeightFunction.zeros(0, 3))
    dot = export_dot(datum, pres)
    assert 'v0' in dot and 'v1' in dot


def test_signed_permutation_transport_gives_identical_certificates():
    rng = random.Random(1234)
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    cert = bound_constant(datum, pres)
    for _ in range(10):
        t = random_signed_permutation(rng, 6)
        s_list = [random_signed_permutation(rng, m.rows) for m in datum.maps]
        moved_datum = transform_datum(datum, t, s_list)
        moved_pres = transport_presentation(pres, t)
        moved_cert = bound_constant(moved_datum, moved_pres)
        assert moved_cert.invariant_key() == cert.invariant_key()
        assert moved_cert.value == cert.value
        assert moved_cert.exact_one == cert.exact_one


def test_unimodular_transport_preserves_the_constant():
    rng = random.Random(4321)
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    cert = bound_constant(datum, pres)
    for _ in range(10):
        t = random_invertible(rng, 6)
        s_list = [random_invertible(rng, m.rows) for m in datum.maps]
        moved_datum = transform_datum(datum, t, s_list)
        moved_pres = transport_presentation(pres, t)
        report = verify_presentation(moved_datum, moved_pres)
        assert report.valid, report.problems
        moved_cert = bound_constant(moved_datum, moved_pres)
        assert moved_cert.value == pytest.approx(cert.value, rel=1e-9)
