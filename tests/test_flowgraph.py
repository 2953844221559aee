import random
from fractions import Fraction

import pytest

from hblcert.fixtures import (
    fourmap_r6_datum,
    fourmap_r6_presentation,
    loomis_whitney_datum,
    loomis_whitney_presentation,
)
from hblcert.flowgraph import (
    GraphDecomposition,
    WeightFunction,
    decompose_flow,
    is_balanced,
    project_graph,
    project_weight,
    total_mass,
    validate_graph,
)
from hblcert.linalg import Matrix, Subspace, kernel, span
from hblcert.presentation import summary_weight

from conftest import (
    identity,
    random_balanced_weight,
    random_flag_graph,
    random_matrix,
    reference_decompose_flow,
    weight_rows,
    zero_weights,
)


def lw_chain():
    return loomis_whitney_presentation(2).graph


def test_validate_accepts_the_chain():
    assert validate_graph(lw_chain()) == []


def test_validate_reports_missing_edges():
    g = lw_chain()
    broken = GraphDecomposition(g.ambient, g.vertices, g.edges[:-1])
    problems = validate_graph(broken)
    assert any("lacks an outgoing edge" in p for p in problems)
    assert any("lacks an incoming edge" in p for p in problems)


def test_validate_reports_dimension_jump():
    zero = Subspace.zero(3)
    v2 = span([[1, 0, 0], [0, 1, 0]], 3)
    full = Subspace.full(3)
    g = GraphDecomposition.build(3, [zero, v2, full], [(zero, v2), (v2, full)])
    problems = validate_graph(g)
    assert any("jumps dimension 0 to 2" in p for p in problems)


def test_r6_weights_balanced_with_mass_half():
    pres = fourmap_r6_presentation()
    assert is_balanced(pres.graph, pres.theta)
    assert total_mass(pres.graph, pres.theta) == (Fraction(1, 2),) * 4


def test_zero_weight_is_balanced_with_zero_mass():
    g = lw_chain()
    w = zero_weights(len(g.edges), 2)
    assert is_balanced(g, w)
    assert total_mass(g, w) == (Fraction(0), Fraction(0))


def test_perturbed_diamond_edge_unbalances_the_join():
    pres = fourmap_r6_presentation()
    g = pres.graph
    v5 = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
               [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]], 6)
    target = next(k for k, (a, b) in enumerate(g.edges) if g.vertices[b] == v5)
    rows = [list(v) for v in pres.theta.values]
    rows[target][0] = Fraction(1, 4)
    assert not is_balanced(g, weight_rows(rows, 4))


def test_sigma_decomposes_into_two_chains_through_the_diamond():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    sigma = summary_weight(datum, pres)
    terms = decompose_flow(pres.graph, sigma).terms
    assert len(terms) == 2
    assert all(t.coefficient == Fraction(1, 2) and len(t.edges) == 6 for t in terms)
    # One chain runs through each diamond vertex.
    mids = {pres.graph.edges[t.edges[4]][1] for t in terms}
    assert len(mids) == 2


def test_zero_weight_decomposes_to_no_terms():
    g = lw_chain()
    assert decompose_flow(g, zero_weights(len(g.edges), 3)).terms == ()


def test_single_chain_constant_weight():
    g = lw_chain()
    tau = Fraction(2, 5)
    w = weight_rows([[tau]] * len(g.edges), 1)
    terms = decompose_flow(g, w).terms
    assert len(terms) == 1
    assert terms[0].coefficient == tau
    assert terms[0].edges == tuple(range(len(g.edges)))


def test_decompose_rejects_unbalanced_and_negative():
    g = lw_chain()
    rows = [[Fraction(1)], [Fraction(1, 2)], [Fraction(1)]]
    with pytest.raises(ValueError, match="not balanced"):
        decompose_flow(g, weight_rows(rows, 1))
    rows = [[Fraction(-1)], [Fraction(-1)], [Fraction(-1)]]
    with pytest.raises(ValueError, match="negative"):
        decompose_flow(g, weight_rows(rows, 1))


def test_project_lw_chain_through_the_top_map():
    datum = loomis_whitney_datum(2)
    g = lw_chain()
    projected, edge_map = project_graph(g, datum.maps[2])
    assert len(projected.vertices) == 3
    assert validate_graph(projected) == []
    assert edge_map == (0, 1, None)


def test_project_by_identity_is_isomorphic():
    g = lw_chain()
    projected, edge_map = project_graph(g, identity(3))
    assert projected == g
    assert edge_map == tuple(range(len(g.edges)))


def test_project_r6_through_pi3_collapses_to_length_two_chain():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    projected, edge_map = project_graph(pres.graph, datum.maps[2])
    assert projected.ambient == 2
    assert len(projected.vertices) == 3
    assert len(projected.edges) == 2
    # The first four vertices of the chain all collapse into {0}.
    assert edge_map[0] is None and edge_map[1] is None and edge_map[2] is None


def test_project_weight_lw():
    datum = loomis_whitney_datum(2)
    pres = loomis_whitney_presentation(2)
    theta1 = WeightFunction.scalar([v[0] for v in pres.theta.values])
    pushed = project_weight(pres.graph, theta1, datum.maps[2])
    assert pushed.values == ((Fraction(1, 2),), (Fraction(1, 2),))
    assert total_mass(project_graph(pres.graph, datum.maps[2])[0], pushed) \
        == (Fraction(1, 2),)


def test_project_zero_weight():
    g = lw_chain()
    datum = loomis_whitney_datum(2)
    pushed = project_weight(g, zero_weights(len(g.edges), 1), datum.maps[0])
    assert all(v == (Fraction(0),) for v in pushed.values)


def test_project_through_rank_zero_map_degenerates():
    # The image space is trivial: one vertex that is both {0} and H, no
    # edges, and an empty pushforward that cannot carry the source mass.
    g = lw_chain()
    zero_map = Matrix.zeros(2, 3)
    projected, edge_map = project_graph(g, zero_map)
    assert projected.ambient == 0
    assert len(projected.vertices) == 1 and projected.edges == ()
    assert edge_map == (None, None, None)
    w = WeightFunction.scalar([1, 1, 1])
    assert project_weight(g, w, zero_map).values == ()


def test_project_r6_theta1_through_pi1():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    theta1 = WeightFunction.scalar([v[0] for v in pres.theta.values])
    pushed = project_weight(pres.graph, theta1, datum.maps[0])
    projected, _ = project_graph(pres.graph, datum.maps[0])
    assert is_balanced(projected, pushed)
    assert total_mass(projected, pushed) == (Fraction(1, 2),)


def test_chain_indicator_is_balanced_with_mass_one():
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randint(1, 5)
        graph, flags = random_flag_graph(rng, m, rng.randint(1, 3))
        flag = flags[0]
        values = [[Fraction(0)] for _ in graph.edges]
        for k in range(m):
            a = graph.vertex_index[flag[k]]
            b = graph.vertex_index[flag[k + 1]]
            values[graph.edge_index[(a, b)]][0] = Fraction(1)
        w = weight_rows(values, 1)
        assert is_balanced(graph, w)
        assert total_mass(graph, w) == (Fraction(1),)


def test_reconstruction_property():
    rng = random.Random(2024)
    for _ in range(60):
        m = rng.randint(1, 6)
        width = rng.randint(1, 4)
        graph, flags = random_flag_graph(rng, m, rng.randint(1, 3))
        w = random_balanced_weight(rng, graph, flags, width)
        decomposition = decompose_flow(graph, w)
        assert list(map(tuple, decomposition.terms)) == reference_decompose_flow(graph, w)
        assert len(decomposition.terms) <= len(graph.edges) * width
        rebuilt = [[Fraction(0)] * width for _ in graph.edges]
        for t in decomposition.terms:
            for k in t.edges:
                rebuilt[k][t.component] += t.coefficient
        assert tuple(tuple(r) for r in rebuilt) == w.values


def test_projection_property():
    rng = random.Random(505)
    for _ in range(40):
        m = rng.randint(1, 5)
        graph, flags = random_flag_graph(rng, m, rng.randint(1, 3))
        w = random_balanced_weight(rng, graph, flags, rng.randint(1, 3))
        mat = random_matrix(rng, rng.randint(1, 4), m)
        while kernel(mat).dim == m:
            mat = random_matrix(rng, rng.randint(1, 4), m)
        projected, _ = project_graph(graph, mat)
        assert validate_graph(projected) == []
        pushed = project_weight(graph, w, mat)  # asserts balance internally
        assert total_mass(projected, pushed) == total_mass(graph, w)
