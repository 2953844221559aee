import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hblcert import data, flowgraph, formats, linalg, presentation
from hblcert.builder import build_presentation
from hblcert.data import HBLDatum, transform_datum
from hblcert.fixtures import (
    ALL_FIXTURES,
    fourmap_r6_datum,
    fourmap_r6_presentation,
    loomis_whitney_datum,
    loomis_whitney_presentation,
)
from hblcert.flowgraph import GraphDecomposition, WeightFunction, total_mass, unbalanced_vertices
from hblcert.lattice import generate_lattice
from hblcert.linalg import Matrix, Subspace, image, span
from hblcert.presentation import (
    Presentation,
    bound_constant,
    edge_norm_squared,
    export_dot,
    summary_weight,
    verify_presentation,
)

from conftest import (
    apply,
    norm_sq,
    random_balanced_weight,
    random_flag_graph,
    random_invertible,
    random_matrix,
    random_signed_permutation,
    random_subspace,
    rand_fraction,
    reference_certificate,
    reference_summary,
    reference_total_mass,
    reference_unbalanced,
    reference_verify,
    weight_rows,
    zero_weights,
)


def r6_edge(pres, target_from_dim, to_basis_rows):
    """Edge index with given source dimension and target subspace."""
    target = span(to_basis_rows, 6)
    for k, (a, b) in enumerate(pres.graph.edges):
        if pres.graph.vertices[a].dim == target_from_dim and pres.graph.vertices[b] == target:
            return k
    raise AssertionError("edge not found")


def transport_presentation(pres, t):
    moved = [image(t, v) for v in pres.graph.vertices]
    weights = {(moved[a], moved[b]): row
               for (a, b), row in zip(pres.graph.edges, pres.theta.values)}
    return Presentation.from_edges(pres.graph.ambient, pres.theta.width, moved, weights)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_from_edges_ignores_the_order_of_edges_and_vertices(name):
    pres = ALL_FIXTURES[name][1]()
    graph = pres.graph
    pairs = [((graph.vertices[a], graph.vertices[b]), row)
             for (a, b), row in zip(graph.edges, pres.theta.values)]
    rng = random.Random(name)
    for _ in range(4):
        rng.shuffle(pairs)
        vertices = list(graph.vertices)
        rng.shuffle(vertices)
        assert Presentation.from_edges(graph.ambient, pres.theta.width, vertices,
                                       dict(pairs)) == pres


def test_from_edges_keeps_isolated_vertices_and_needs_every_endpoint():
    zero, line, full = Subspace.zero(2), span([[1, 0]], 2), Subspace.full(2)
    weights = {(zero, full): (Fraction(1),)}
    pres = Presentation.from_edges(2, 1, [full, line, zero], weights)
    assert pres.graph.vertices == (zero, line, full)
    assert pres.graph.edges == ((0, 2),)
    with pytest.raises(ValueError, match="edge endpoint is not a vertex"):
        Presentation.from_edges(2, 1, [zero, line], weights)


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
    mutated = Presentation(pres.graph, weight_rows(rows, 4))
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
    assert report.map_masses == () and report.sigma == () and report.sigma_mass == 0


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
    assert report.sigma == () and not report.sigma_balanced and report.sigma_mass == 0
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


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_edge_norms_match_orthogonal_projection(hyp_rng):
    """On random flags and dense maps, the edge norm equals |P-perp pi_i(w)|^2
    / |w|^2 computed with the orthogonal projector onto pi_i(V1)."""
    rng = random.Random(hyp_rng.randint(0, 10**9))
    m = rng.randint(2, 4)
    graph, _ = random_flag_graph(rng, m, 2)
    maps = tuple(random_matrix(rng, rng.randint(1, m), m) for _ in range(2))
    datum = HBLDatum(m, maps, ("p", "q"), (Fraction(0),) * 2)
    pres = Presentation(graph, WeightFunction(2, ((Fraction(0),) * 2,) * len(graph.edges)))
    for k, (a, b) in enumerate(graph.edges):
        v1, v2 = graph.vertices[a], graph.vertices[b]
        w = (v2 & v1.perp()).basis.row(0)
        for i, pi in enumerate(maps):
            low = image(pi, v1)
            if low == image(pi, v2):
                continue
            u = apply(pi, w)
            residual = [x - y for x, y in zip(u, apply(low.projector(), u))]
            assert edge_norm_squared(datum, pres, i, k) == norm_sq(residual) / norm_sq(w)


def chain_through(graph, k):
    """The edges of a maximal chain of the graph through edge k, lowest-index first."""
    chain = [k]
    while not graph.vertices[graph.edges[chain[0]][0]].is_zero():
        chain.insert(0, graph.incoming[graph.edges[chain[0]][0]][0])
    while not graph.vertices[graph.edges[chain[-1]][1]].is_full():
        chain.append(graph.outgoing[graph.edges[chain[-1]][1]][0])
    return chain


@given(st.randoms(use_true_random=False), st.sampled_from(sorted(ALL_FIXTURES)),
       st.sampled_from(["negative", "unbalanced", "mass", "sigma", "mixed"]))
@settings(max_examples=80, deadline=None)
def test_verification_matches_the_fraction_reference(hyp_rng, name, kind):
    # Mutants of the fixture certificates: a negative entry, an entry moved
    # off balance, a chain of one map shifted (balanced, mass off), the same
    # with that map's exponent shifted too (theta holds, sigma may not), and
    # several entries moved. The integer checks give the Fraction
    # reference's report, field by field and problem by problem.
    rng = random.Random(hyp_rng.randint(0, 10**9))
    make_datum, make_pres = ALL_FIXTURES[name]
    datum, pres = make_datum(), make_pres()
    graph = pres.graph
    rows = [list(row) for row in pres.theta.values]
    exponents = list(datum.exponents)
    k, i = rng.randrange(len(rows)), rng.randrange(datum.n_maps)
    if kind == "negative":
        rows[k][i] = -Fraction(rng.randint(1, 5), rng.randint(1, 7))
    elif kind == "unbalanced":
        rows[k][i] += rand_fraction(rng) or Fraction(1, 3)
    elif kind in ("mass", "sigma"):
        shift = Fraction(rng.randint(1, 4), rng.randint(5, 12))
        shift = shift if exponents[i] + shift <= 1 else -min(shift, exponents[i])
        for e in chain_through(graph, k):
            rows[e][i] += shift
        if kind == "sigma":
            exponents[i] += shift
    else:
        for _ in range(rng.randint(2, 6)):
            rows[rng.randrange(len(rows))][rng.randrange(datum.n_maps)] += rand_fraction(rng)
    datum = HBLDatum(datum.dim, datum.maps, datum.names, tuple(exponents))
    theta = WeightFunction(datum.n_maps, tuple(map(tuple, rows)))
    mutant = Presentation(graph, theta)
    report = verify_presentation(datum, mutant)
    assert report == reference_verify(datum, mutant)
    assert total_mass(graph, theta) == reference_total_mass(graph, theta)
    assert list(unbalanced_vertices(graph, theta)) == reference_unbalanced(graph, theta)


def count_calls(monkeypatch, calls: Counter, *names: str) -> None:
    """Count calls of the named linalg functions in `calls`, through every
    module that binds them."""
    for name in names:
        for module in (linalg, data, flowgraph, presentation):
            if hasattr(module, name):
                def counted(*args, original=getattr(module, name), name=name):
                    calls[name] += 1
                    return original(*args)
                monkeypatch.setattr(module, name, counted)


def test_verification_forms_no_image(monkeypatch):
    # Distinguishing maps come from the datum's image-dimension table, so a
    # verification forms no image subspace, and a second one of the same
    # datum computes no rank either.
    calls = Counter()
    count_calls(monkeypatch, calls, "image", "image_rank")
    for make_datum, make_pres in ALL_FIXTURES.values():
        datum, pres = make_datum(), make_pres()
        calls.clear()
        assert verify_presentation(datum, pres).valid
        assert calls["image"] == 0
        calls.clear()
        verify_presentation(datum, pres)
        assert not calls


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_dimension_rule_equals_image_rule(hyp_rng):
    """On nested endpoints V1 <= V2, pi(V1) != pi(V2) exactly when their
    dimensions differ, so the summary weight read off the image-dimension
    table equals the one that compares image subspaces."""
    m, n = hyp_rng.randint(2, 4), hyp_rng.randint(1, 3)
    graph, flags = random_flag_graph(hyp_rng, m, hyp_rng.randint(1, 3))
    maps = tuple(random_matrix(hyp_rng, hyp_rng.randint(1, m), m) for _ in range(n))
    datum = HBLDatum(m, maps, tuple(f"p{i}" for i in range(n)), (Fraction(0),) * n)
    pres = Presentation(graph, random_balanced_weight(hyp_rng, graph, flags, n))
    assert summary_weight(datum, pres).values == reference_summary(datum, pres)


@pytest.mark.parametrize("name", ["lw2", "lw3", "r6"])
def test_built_certificate_reports_alike_on_a_fresh_datum(name):
    # The builder's datum has filled its table while building; a parsed copy
    # starts with an empty one. Both must give the same report and constant.
    text = formats.serialize_datum(ALL_FIXTURES[name][0]())
    datum = formats.parse_datum(text)
    pres = build_presentation(datum, generate_lattice(datum))
    fresh = formats.parse_datum(text)
    report = verify_presentation(fresh, pres)
    assert report.valid and report == verify_presentation(datum, pres)
    assert bound_constant(fresh, pres) == bound_constant(datum, pres)


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


def dense_map(rng, rows: int, cols: int, killed=None) -> Matrix:
    """A random map with fractional entries (den > 1 before any projection);
    with `killed` given, its rows are made orthogonal to that vector, which
    then lies in the map's kernel."""
    entries = [[rand_fraction(rng, den=5) for _ in range(cols)] for _ in range(rows)]
    entries[0][0] += Fraction(1, 7)
    if killed is not None:
        u = [Fraction(x) for x in killed]
        entries = [[x - sum(a * b for a, b in zip(row, u)) / norm_sq(u) * y
                    for x, y in zip(row, u)] for row in entries]
    return Matrix.from_rows(entries, cols=cols)


@given(st.sampled_from(["random", *sorted(ALL_FIXTURES)]), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
@example("lw2", random.Random(0))
@example("lw3", random.Random(0))
@example("lw4", random.Random(0))
@example("lw5", random.Random(0))
@example("r6", random.Random(0))
def test_certificate_matches_the_image_line_reference(case, hyp_rng):
    # Random flags in R^2..R^6, whose first edges start at V1 = {0}, under
    # dense maps with den > 1, some of which kill a vector of a flag vertex
    # so that the images of that vertex's rows are dependent; and each
    # fixture with its own presentation (the four-map r6 one for r6), its
    # built certificate and both moved by a unimodular change of variables.
    # The Gram-determinant bases give the image-line formula's factors.
    rng = random.Random(hyp_rng.randint(0, 10**9))
    if case == "random":
        ambient = rng.randint(2, 6)
        graph, flags = random_flag_graph(rng, ambient, rng.randint(1, 3))
        maps = []
        for _ in range(rng.randint(2, 4)):
            vertex = rng.choice(rng.choice(flags)[1:])
            killed = rng.choice(vertex.echelon) if rng.random() < 0.5 else None
            maps.append(dense_map(rng, rng.randint(1, ambient), ambient, killed))
        n = len(maps)
        datum = HBLDatum(ambient, tuple(maps), tuple(f"p{i}" for i in range(n)),
                         (Fraction(0),) * n)
        cases = [(datum, Presentation(graph, random_balanced_weight(rng, graph, flags, n)))]
    else:
        make_datum, make_pres = ALL_FIXTURES[case]
        datum = make_datum()
        t = random_invertible(rng, datum.dim)
        moved = transform_datum(datum, t, [random_invertible(rng, m.rows) for m in datum.maps])
        cases = [(datum, make_pres()), (datum, build_presentation(datum, generate_lattice(datum)))]
        cases += [(moved, transport_presentation(pres, t)) for _, pres in cases]
    for datum, pres in cases:
        cert = presentation._certificate(datum, pres)
        assert cert == reference_certificate(datum, pres)
        for f in cert.factors:
            assert edge_norm_squared(datum, pres, f.map_index, f.edge) == f.base


@pytest.mark.parametrize("name", ["lw4", "r6-built", "r6"])
def test_the_constant_forms_one_edge_line_per_weighted_edge_and_no_image(name, monkeypatch):
    # bound_constant takes each weighted edge's new direction once (one
    # perp_in) and each factor's base from the Gram determinants of the
    # image rows, so it forms no image subspace and no image edge line.
    make_datum, make_pres = ALL_FIXTURES[name.removesuffix("-built")]
    datum = make_datum()
    pres = (build_presentation(datum, generate_lattice(datum)) if name.endswith("-built")
            else make_pres())
    weighted = sum(1 for (s,) in summary_weight(datum, pres).values if s != 0)
    calls = Counter()
    perp_in = Subspace.perp_in

    def counted_perp_in(self, high):
        calls["perp_in"] += 1
        return perp_in(self, high)

    monkeypatch.setattr(Subspace, "perp_in", counted_perp_in)
    count_calls(monkeypatch, calls, "image")
    cert = bound_constant(datum, pres)
    assert len({f.edge for f in cert.factors}) == weighted
    assert calls["perp_in"] == weighted
    assert calls["image"] == 0


def test_bound_constant_requires_validity():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    rows = [list(v) for v in pres.theta.values]
    rows[0][0] += Fraction(1, 4)
    bad = Presentation(pres.graph, weight_rows(rows, 4))
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
    pres = Presentation(graph, zero_weights(0, 3))
    dot = export_dot(datum, pres)
    assert 'v0' in dot and 'v1' in dot


def test_export_dot_rejects_a_datum_that_does_not_match():
    # Both mismatches are structure problems to verify_presentation; the
    # rendering would otherwise star the wrong entries or none.
    lw2, pres = loomis_whitney_datum(2), loomis_whitney_presentation(2)
    two_maps = HBLDatum(3, lw2.maps[:2], lw2.names[:2], lw2.exponents[:2])
    with pytest.raises(ValueError, match="theta width does not match the number of maps"):
        export_dot(two_maps, pres)
    with pytest.raises(ValueError, match="datum dimension does not match graph ambient"):
        export_dot(lw2, fourmap_r6_presentation())


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


@given(st.integers(3, 6), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_new_direction_is_the_line_high_cap_low_perp(ambient, hyp_rng):
    # The edge direction is one null space over m columns; the reference is
    # the Zassenhaus meet with the complement, over 2m.
    rng = random.Random(hyp_rng.randint(0, 10**9))
    low = random_subspace(rng, ambient, max_dim=ambient - 1)
    while True:
        high = low + span([[rng.randint(-2, 2) for _ in range(ambient)]], ambient)
        if high != low:
            break
    assert presentation._new_direction(low, high) == (high & low.perp()).echelon[0]
    with pytest.raises(ValueError, match="does not raise dimension by one"):
        presentation._new_direction(low, low)
