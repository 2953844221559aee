import copy
import gc
import itertools
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hblcert import builder, linalg
from hblcert import data as data_module
from hblcert.builder import (
    BuildError,
    InsufficientCandidates,
    as_point,
    base_case_dim1,
    build_presentation,
    caratheodory,
    concatenate,
    convex_combine,
    enumerate_extremes,
    polytope_from_candidates,
    vertex_count_bound,
)
from hblcert.data import (
    CandidateLattice,
    HBLDatum,
    _related,
    generate_lattice,
    is_ready,
    quotient_datum,
    restrict_datum,
)
from hblcert.fixtures import (
    ALL_FIXTURES,
    fourmap_r6_datum,
    fourmap_r6_forcing_candidates,
    loomis_whitney_datum,
)
from hblcert.flowgraph import GraphDecomposition
from hblcert.linalg import (
    Matrix,
    Subspace,
    _echelon,
    image,
    kernel,
    span,
)
from hblcert.oracle import GaussianInput, gaussian_ratio
from hblcert.presentation import Presentation, bound_constant, verify_presentation

from conftest import (
    fraction_point,
    fraction_terms,
    identity,
    random_flag_graph,
    random_matrix,
    random_subspace,
    reference_caratheodory,
    reference_convex_combine,
    reference_extremes,
    reference_reduce,
    reference_violation,
    transformed_lw4,
)


def integer_table(edges):
    """The builder's form of a table of Fraction theta rows: D, the lcm of
    their denominators, and the rows times D, which is in lowest terms."""
    den = lcm(*(x.denominator for row in edges.values() for x in row))
    return den, {edge: tuple(x.numerator * (den // x.denominator) for x in row)
                 for edge, row in edges.items()}


def fraction_rows(table):
    """The (low, high) subspace pair -> Fraction theta row table of an
    integer table (D, rows)."""
    den, rows = table
    return {edge: tuple(Fraction(x, den) for x in row) for edge, row in rows.items()}


def edge_table(pres):
    """The (low, high) subspace pair -> theta row table of a presentation,
    in the builder's integer form."""
    ends = pres.graph.vertices
    return integer_table({(ends[a], ends[b]): row
                          for (a, b), row in zip(pres.graph.edges, pres.theta.values)})


def vertices_of(table):
    return {w for edge in table[1] for w in edge}


def presentation_of(datum, table):
    return Presentation.from_edges(datum.dim, datum.n_maps, vertices_of(table),
                                   fraction_rows(table))


def built_edges(datum):
    return edge_table(build_presentation(datum, generate_lattice(datum)))


def forcing_lattice():
    return CandidateLattice.from_subspaces(6, fourmap_r6_forcing_candidates())


def coordinate_subset_datum(m, subsets, tau):
    maps = []
    for subset in subsets:
        rows = [[Fraction(1) if c == j else Fraction(0) for c in range(m)]
                for j in sorted(subset)]
        maps.append(Matrix.from_rows(rows, cols=m))
    names = tuple("s" + "".join(str(j) for j in sorted(sub)) for sub in subsets)
    return HBLDatum(m, tuple(maps), names, tuple(tau))


def subsets_interior_datum():
    """The build benchmark's second coordinate-subset template, unrelabelled:
    the four 3-subsets of R^4 and the identity, at the mean of two feasible
    exponent points, so the build takes the Caratheodory path."""
    return coordinate_subset_datum(4, [(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2, 3)],
                                   [Fraction(1, 6)] * 4 + [Fraction(1, 2)])


def coordinate_lattice(m):
    subs = []
    for bits in itertools.product([0, 1], repeat=m):
        axes = [j for j, b in enumerate(bits) if b]
        rows = [[Fraction(1) if c == j else Fraction(0) for c in range(m)] for j in axes]
        subs.append(span(rows, m) if rows else Subspace.zero(m))
    return CandidateLattice.from_subspaces(m, subs)


def test_polytope_rows_for_the_forcing_candidates():
    datum = fourmap_r6_datum()
    poly = polytope_from_candidates(datum, forcing_lattice())
    data_rows = [r for r in poly.rows if "candidate" in r.provenance]
    one = Fraction(1)
    zero = Fraction(0)
    expected = {
        ((one, zero, zero, one), Fraction(1), False),
        ((one, one, zero, zero), Fraction(1), False),
        ((zero, one, zero, one), Fraction(1), False),
        ((zero, zero, one, one), Fraction(1), False),
        ((Fraction(3), Fraction(3), Fraction(2), Fraction(4)), Fraction(6), True),
    }
    assert {(r.coeffs, r.rhs, r.equality) for r in data_rows} == expected
    boxes = [r for r in poly.rows if r.provenance.startswith("tau")]
    assert len(boxes) == 8


def test_polytope_trivial_candidates():
    datum = loomis_whitney_datum(2)
    lat = CandidateLattice.from_subspaces(3, [])
    poly = polytope_from_candidates(datum, lat)
    data_rows = [r for r in poly.rows if "candidate" in r.provenance]
    assert len(data_rows) == 1 and data_rows[0].equality


def test_forcing_polytope_has_the_single_announced_vertex():
    datum = fourmap_r6_datum()
    poly = polytope_from_candidates(datum, forcing_lattice())
    assert enumerate_extremes(poly) == ((Fraction(1, 2),) * 4,)


def test_loomis_whitney_polytope_contains_the_balanced_vertex():
    # The axis constraints pair-sum to the scaling row, so the balanced
    # exponents are forced: the polytope is that single vertex.
    datum = loomis_whitney_datum(2)
    poly = polytope_from_candidates(datum, generate_lattice(datum))
    assert (Fraction(1, 2),) * 3 in enumerate_extremes(poly)


def test_single_map_polytope():
    datum = HBLDatum(2, (identity(2),), ("id",), (Fraction(1),))
    poly = polytope_from_candidates(datum, CandidateLattice.from_subspaces(2, []))
    assert enumerate_extremes(poly) == ((Fraction(1),),)


def test_caratheodory_on_an_extreme_point_is_trivial():
    datum = fourmap_r6_datum()
    poly = polytope_from_candidates(datum, forcing_lattice())
    decomposition = caratheodory(poly, (2, (1, 1, 1, 1)))
    assert decomposition.terms == ((Fraction(1), (2, (1, 1, 1, 1))),)


def lines_and_plane_polytope():
    """Two coordinate lines plus the identity on R^2; two-vertex polytope."""
    datum = coordinate_subset_datum(2, [(0,), (1,), (0, 1)],
                                    [Fraction(1, 2)] * 3)
    return datum, polytope_from_candidates(datum, coordinate_lattice(2))


def test_caratheodory_midpoint():
    _, poly = lines_and_plane_polytope()
    assert set(enumerate_extremes(poly)) == {
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0)),
    }
    decomposition = caratheodory(poly, (2, (1, 1, 1)))
    assert sorted(decomposition.terms) == [
        (Fraction(1, 2), (1, (0, 0, 1))),
        (Fraction(1, 2), (1, (1, 1, 0))),
    ]


def test_caratheodory_reconstruction_guard_is_an_exception(monkeypatch):
    # The check must survive python -O, so it raises rather than asserts.
    _, poly = lines_and_plane_polytope()
    monkeypatch.setattr(builder, "_reduce_caratheodory",
                        lambda n, terms: [(Fraction(1), terms[0][1])])
    with pytest.raises(BuildError, match="failed to reconstruct"):
        caratheodory(poly, (2, (1, 1, 1)))
    # Weights that mix to tau but do not sum to one fail the check too.
    monkeypatch.setattr(builder, "_reduce_caratheodory",
                        lambda n, terms: [(Fraction(2), (4, (1, 1, 1)))])
    with pytest.raises(BuildError, match="failed to reconstruct"):
        caratheodory(poly, (2, (1, 1, 1)))


def test_caratheodory_recovers_random_combinations():
    rng = random.Random(8)
    datum = coordinate_subset_datum(2, [(0,), (1,), (0,), (1,)],
                                    [Fraction(1, 2)] * 4)
    poly = polytope_from_candidates(datum, coordinate_lattice(2))
    vertices = enumerate_extremes(poly)
    assert len(vertices) == 4
    for _ in range(20):
        chosen = rng.sample(vertices, 3)
        raw = [Fraction(rng.randint(1, 5)) for _ in chosen]
        total = sum(raw)
        coeffs = [c / total for c in raw]
        tau = tuple(
            sum((c * p[i] for c, p in zip(coeffs, chosen)), Fraction(0))
            for i in range(4)
        )
        decomposition = caratheodory(poly, as_point(tau))
        assert len(decomposition.terms) <= 5
        recovered = tuple(
            sum((c * p[i] for c, p in fraction_terms(decomposition)), Fraction(0))
            for i in range(4)
        )
        assert recovered == tau
        assert sum(c for c, _ in decomposition.terms) == 1


@given(st.randoms(use_true_random=False),
       st.sampled_from(["coordinate", "signed", "short"]),
       st.sampled_from(["generated", "capped", "listed"]))
@settings(max_examples=90, deadline=None)
def test_vertices_match_the_subset_reference(hyp_rng, maps, family):
    # "short" maps have total rank below the dimension, so the scaling row
    # cannot hold with tau <= 1 and the polytope is empty. Four maps on R^3
    # can generate an infinite lattice, and the reference solves every
    # n-subset of rows, so even "generated" stops at 16 members.
    rng = random.Random(hyp_rng.randint(0, 10**9))
    m = rng.randint(2 if maps == "short" else 1, 3)
    n = rng.randint(1, m - 1) if maps == "short" else rng.randint(1, 4)
    if maps == "coordinate":
        subsets = [tuple(sorted(rng.sample(range(m), rng.randint(0, m)))) for _ in range(n)]
        datum = coordinate_subset_datum(m, subsets, [Fraction(0)] * n)
    else:
        ranks = [1 if maps == "short" else rng.randint(0, m) for _ in range(n)]
        datum = HBLDatum(m, tuple(random_matrix(rng, r, m, -1, 1) for r in ranks),
                         tuple(f"p{i}" for i in range(n)), (Fraction(0),) * n)
    if family == "generated":
        lattice = generate_lattice(datum, max_size=16)
    elif family == "capped":
        lattice = generate_lattice(datum, max_size=rng.randint(2, 6))
    else:
        lattice = CandidateLattice.from_subspaces(
            m, [random_subspace(rng, m) for _ in range(rng.randint(0, 4))])
    poly = polytope_from_candidates(datum, lattice)
    vertices = enumerate_extremes(poly)
    assert vertices == reference_extremes(poly)
    if maps == "short":
        assert vertices == ()
    for vertex in vertices:
        gaps = poly.gaps(as_point(vertex))
        tight = [row.coeffs for row, gap in zip(poly.rows, gaps) if gap == 0]
        assert poly.member(vertex) is None and len(_echelon(tight, n)[1]) == n
    probes = [tuple(Fraction(rng.randint(0, 4), 4) for _ in range(n))]
    if vertices:
        chosen = rng.sample(vertices, rng.randint(1, len(vertices)))
        weights = [Fraction(rng.randint(1, 5)) for _ in chosen]
        probes.append(tuple(sum((w * p[i] for w, p in zip(weights, chosen)), Fraction(0))
                            / sum(weights) for i in range(n)))
    for tau in probes:
        if poly.member(tau) is None:
            decomposition = caratheodory(poly, as_point(tau))
            assert {p for _, p in fraction_terms(decomposition)} <= set(vertices)


def fraction_value(row, tau):
    """coeffs . tau, one Fraction product at a time."""
    return sum((Fraction(c) * Fraction(t) for c, t in zip(row.coeffs, tau)), Fraction(0))


def fraction_satisfied(row, tau):
    value = fraction_value(row, tau)
    return value == row.rhs if row.equality else value >= row.rhs


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_integer_rows_agree_with_fraction_evaluation(hyp_rng):
    rng = random.Random(hyp_rng.randint(0, 10**9))
    m, n = rng.randint(2, 3), rng.randint(2, 4)
    subsets = [tuple(sorted(rng.sample(range(m), rng.randint(1, m)))) for _ in range(n)]
    probe = coordinate_subset_datum(m, subsets, [Fraction(0)] * n)
    poly = polytope_from_candidates(probe, coordinate_lattice(m))
    vertices = list(enumerate_extremes(poly))
    points = list(vertices)
    for _ in range(3 if vertices else 0):
        chosen = rng.sample(vertices, rng.randint(1, len(vertices)))
        weights = [Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in chosen]
        total = sum(weights)
        points.append(tuple(sum((w * p[i] for w, p in zip(weights, chosen)), Fraction(0)) / total
                            for i in range(n)))
    outside = []
    while len(outside) < 4:
        tau = tuple(Fraction(rng.randint(-3, 9), rng.randint(1, 6)) for _ in range(n))
        if not all(fraction_satisfied(row, tau) for row in poly.rows):
            outside.append(tau)
    for tau in points + outside:
        point = as_point(tau)
        den, gaps = point[0], poly.gaps(point)
        for row, gap in zip(poly.rows, gaps):
            assert isinstance(gap, int)
            assert Fraction(gap, den) == fraction_value(row, tau) - row.rhs
        first = next((row for row in poly.rows if not fraction_satisfied(row, tau)), None)
        assert poly.member(tau) is first
        assert (first is None) == (tau not in outside)


def test_caratheodory_rejects_non_members():
    # The message names the first violated row and prints coeffs . tau against its rhs.
    _, poly = lines_and_plane_polytope()
    cases = [
        ((1, 1, 1), "tau violates constraint dim-2 candidate: 4 vs 2"),
        ((Fraction(3, 2), Fraction(1, 2), 0), "tau violates constraint dim-1 candidate: 1/2 vs 1"),
        ((Fraction(5, 4), Fraction(5, 4), Fraction(-1, 4)),
         "tau violates constraint tau1 <= 1: -5/4 vs -1"),
    ]
    for tau, message in cases:
        with pytest.raises(ValueError) as excinfo:
            caratheodory(poly, as_point(tau))
        assert str(excinfo.value) == message


def mix(points, weights):
    """The convex combination of the points with the given positive weights."""
    total = sum(weights)
    return tuple(sum((w * p[i] for w, p in zip(weights, points)), Fraction(0)) / total
                 for i in range(len(points[0])))


@given(st.randoms(use_true_random=False), st.sampled_from(["coordinate", "integer"]))
@settings(max_examples=60, deadline=None)
def test_caratheodory_matches_the_fraction_bisection(hyp_rng, maps):
    # Candidate polytopes over R^2 to R^5, at a vertex, at points of a face
    # (vertices tight on one row, mixed) and at interior points (every
    # vertex, mixed). The integer bisection gives the Fraction bisection's
    # terms, and hands each vertex it reaches on with its gaps and an
    # echelon of rank n.
    rng = random.Random(hyp_rng.randint(0, 10**9))
    m, n = rng.randint(2, 5), rng.randint(2, 5)
    if maps == "coordinate":
        subsets = [tuple(sorted(rng.sample(range(m), rng.randint(1, m)))) for _ in range(n)]
        datum = coordinate_subset_datum(m, subsets, [Fraction(0)] * n)
    else:
        datum = HBLDatum(m, tuple(random_matrix(rng, rng.randint(1, m), m, -1, 1)
                                  for _ in range(n)),
                         tuple(f"p{i}" for i in range(n)), (Fraction(0),) * n)
    poly = polytope_from_candidates(datum, generate_lattice(datum, max_size=24))
    vertices = enumerate_extremes(poly)
    if not vertices:
        return  # the maps' total rank is below the dimension
    tight_on = {v: {r for r, gap in enumerate(poly.gaps(as_point(v))) if gap == 0}
                for v in vertices}
    faces = [[v for v in vertices if r in tight_on[v]] for r in range(len(poly.rows))]
    faces = [face for face in faces if 1 < len(face) < len(vertices)]
    points = [rng.choice(vertices),
              mix(vertices, [Fraction(rng.randint(1, 9)) for _ in vertices])]
    for face in rng.sample(faces, min(2, len(faces))):
        chosen = rng.sample(face, rng.randint(2, len(face)))
        points.append(mix(chosen, [Fraction(rng.randint(1, 9)) for _ in chosen]))
    for tau in points:
        reached = {}
        decomposition = caratheodory(poly, as_point(tau), reached=reached)
        assert fraction_terms(decomposition) == reference_caratheodory(poly, tau)
        assert {p for _, p in decomposition.terms} <= set(reached)
        assert set(map(fraction_point, reached)) <= set(vertices)
        for vertex, (gaps, tight) in reached.items():
            # Each vertex reached is in lowest terms, the key of its Fractions.
            assert vertex == as_point(fraction_point(vertex))
            assert gaps == list(poly.gaps(vertex)) and len(tight[1]) == n


def test_each_node_meets_an_exponent_vector_once(monkeypatch):
    # Per (node, exponent vector) the gaps and the tight echelon are formed
    # once: the vertices Caratheodory reaches come with theirs, and every
    # node forms its own polytope, so the polytope's identity names the node.
    gaps, tight = builder.ExponentPolytope.gaps, builder._tight
    met, ranked = Counter(), Counter()

    def counted_gaps(poly, point):
        met[id(poly), point] += 1
        return gaps(poly, point)

    def counted_tight(poly, row_gaps):
        ranked[id(poly)] += 1
        return tight(poly, row_gaps)

    monkeypatch.setattr(builder.ExponentPolytope, "gaps", counted_gaps)
    monkeypatch.setattr(builder, "_tight", counted_tight)
    counts = []
    for datum in (loomis_whitney_datum(4), subsets_interior_datum()):
        met.clear()
        ranked.clear()
        build_presentation(datum, generate_lattice(datum))
        assert max(met.values()) == 1
        assert ranked == Counter(key for key, _ in met)
        counts.append((sum(met.values()), sum(ranked.values())))
    assert counts == [(7, 7), (6, 6)]


def test_build_reads_scaling_off_the_root_polytope(monkeypatch):
    # The root polytope's equality row is H's, so the build makes no
    # subspace_slack call, and a failure keeps check_scaling's message, on
    # a ready family, on one that is not, and on a dimension-one root.
    slack, calls = data_module.subspace_slack, []
    monkeypatch.setattr(data_module, "subspace_slack", lambda *a: calls.append(a) or slack(*a))
    lw3 = loomis_whitney_datum(3)
    build_presentation(lw3, generate_lattice(lw3))
    assert calls == []
    quarter = lw3.with_exponents((Fraction(1, 4),) * 4)
    line = HBLDatum(1, (identity(1), identity(1)), ("a", "b"), (Fraction(1, 2), Fraction(1, 4)))
    for datum, family, message in [
            (quarter, generate_lattice(quarter), "4 != 3"),
            (quarter, CandidateLattice.from_subspaces(4, []), "4 != 3"),
            (line, generate_lattice(line), "1 != 3/4")]:
        with pytest.raises(BuildError) as excinfo:
            build_presentation(datum, family)
        assert str(excinfo.value) == f"scaling equality fails: {message}"
    assert calls == []
    # A family closed inside a proper interval has no scaling row to read.
    inner = generate_lattice(lw3, [], interval=(Subspace.zero(4), lw3.kernels[0]))
    with pytest.raises(ValueError, match="does not hold the full space"):
        build_presentation(lw3, inner)


def test_base_case_examples():
    zero, line = Subspace.zero(1), Subspace.full(1)
    one = HBLDatum(1, (identity(1),), ("id",), (Fraction(1),))
    assert as_point(one.exponents) == (1, (1,))
    assert base_case_dim1((1, (1,)), zero, line, one.ranks) == (1, {(zero, line): (1,)})
    assert verify_presentation(one, presentation_of(one, base_case_dim1(
        (1, (1,)), zero, line, one.ranks))).valid

    half = (2, (1, 1))
    assert base_case_dim1(half, zero, line, (1, 1)) == (2, {(zero, line): (1, 1)})

    with_rank0 = HBLDatum(1, (identity(1), Matrix.zeros(1, 1)), ("a", "z"),
                          (Fraction(1), Fraction(1)))
    report = verify_presentation(with_rank0, presentation_of(with_rank0, base_case_dim1(
        as_point(with_rank0.exponents), zero, line, with_rank0.ranks)))
    assert report.valid
    assert report.sigma == (Fraction(1),)

    with pytest.raises(BuildError, match=r"scaling equality fails in dimension 1: 1 != 1/2"):
        base_case_dim1((2, (1,)), zero, line, (1,))
    with pytest.raises(ValueError, match="dimension 1"):
        base_case_dim1((1, (1,)), zero, Subspace.full(2), (2,))


def test_base_case_is_an_interval_of_the_top_level_space():
    # A dimension-one interval [A, B] of R^3 is the edge A -> B itself, its
    # scaling read off the rise of the image dimensions from A to B.
    datum = loomis_whitney_datum(2)
    low, high = span([[1, 0, 0]], 3), span([[1, 0, 0], [0, 1, 0]], 3)
    rise = tuple(h - l for h, l in zip(datum.image_dims(high), datum.image_dims(low)))
    assert rise == (1, 0, 1)
    point = as_point(datum.exponents)
    assert fraction_rows(base_case_dim1(point, low, high, rise)) == {(low, high): datum.exponents}
    with pytest.raises(BuildError, match="dimension 1: 1 != 3/2"):
        base_case_dim1(point, low, high, (1, 1, 1))


def embedded(table, v, high_part: bool):
    """A chart edge table of the restriction to V (or of the quotient by V,
    when high_part) in the top-level space: low vertices through the chart of
    V, high vertices W as V + W through the chart of V-perp."""
    chart = v.perp().chart() if high_part else v.chart()
    at = {w: image(chart, w) + v if high_part else image(chart, w) for w in vertices_of(table)}
    den, rows = table
    return den, {(at[a], at[b]): row for (a, b), row in rows.items()}


def split_tables(datum, v):
    """Built tables of [0, V] and [V, H], by the public restriction and
    quotient and the charts they use."""
    low = built_edges(restrict_datum(datum, v)[0])
    high = built_edges(quotient_datum(datum, v)[0])
    return embedded(low, v, False), embedded(high, v, True)


def test_concatenate_loomis_whitney_split():
    datum = loomis_whitney_datum(2)
    v = span([[1, 0, 0], [0, 1, 0]], 3)
    low, high = split_tables(datum, v)
    edges = concatenate(low, high)
    assert verify_presentation(datum, presentation_of(datum, edges)).valid
    assert len(vertices_of(edges)) == len(vertices_of(low)) + len(vertices_of(high)) - 1


def test_concatenate_r6_split_has_five_chain_low_part():
    datum = fourmap_r6_datum()
    v = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    low, high = split_tables(datum, v)
    assert len(vertices_of(low)) == 5
    edges = concatenate(low, high)
    assert verify_presentation(datum, presentation_of(datum, edges)).valid
    assert len(vertices_of(edges)) == len(vertices_of(low)) + len(vertices_of(high)) - 1
    low_vertices = [w for w in vertices_of(edges) if w <= v]
    assert sorted(w.dim for w in low_vertices) == [0, 1, 2, 3, 4]


def test_concatenate_embeds_each_part_vertex_once():
    # Both parts are already in the top-level space, so every vertex of each
    # part appears once in the result, unmoved: every edge keeps its key and
    # its row, low edges first, and the two tables share the vertex V alone.
    datum = fourmap_r6_datum()
    v = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    low, high = split_tables(datum, v)
    edges = concatenate(low, high)
    assert list(fraction_rows(edges).items()) == [*fraction_rows(low).items(),
                                                  *fraction_rows(high).items()]
    assert vertices_of(low) & vertices_of(high) == {v}
    assert vertices_of(edges) == vertices_of(low) | vertices_of(high)
    assert verify_presentation(datum, presentation_of(datum, edges)).valid


def test_concatenate_at_the_zero_subspace_reembeds_the_high_part():
    # At V = {0} the low part is empty and the high part is already the whole
    # table, so concatenating returns it as it is, from either side.
    datum = loomis_whitney_datum(2)
    high = built_edges(datum)
    assert concatenate((1, {}), high) == high == concatenate(high, (1, {}))
    assert verify_presentation(datum, presentation_of(datum, concatenate((1, {}), high))).valid


def test_convex_combine_trivial_cases():
    datum = loomis_whitney_datum(2)
    edges = built_edges(datum)
    assert convex_combine([(Fraction(1), edges)]) == edges
    assert convex_combine([(Fraction(1, 2), edges), (Fraction(1, 2), edges)]) == edges
    assert verify_presentation(datum, presentation_of(datum, convex_combine(
        [(Fraction(1, 3), edges), (Fraction(2, 3), edges)]))).valid
    with pytest.raises(ValueError, match="^coefficients must be nonnegative with sum 1, got sum 1/2$"):
        convex_combine([(Fraction(1, 2), edges)])
    with pytest.raises(ValueError, match="^coefficients must be nonnegative with sum 1, got sum 1$"):
        convex_combine([(Fraction(3, 2), edges), (Fraction(-1, 2), edges)])
    with pytest.raises(ValueError, match="^edge tables must share ambient and width$"):
        convex_combine([(Fraction(1, 2), edges),
                        (Fraction(1, 2), (edges[0], {e: row[:2] for e, row in edges[1].items()}))])
    with pytest.raises(ValueError, match="^nothing to combine$"):
        convex_combine([])


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_convex_combine_matches_the_fraction_mix(hyp_rng):
    # Three to five parts, each a random subset of one graph's edges in its
    # own order, with rows over its own denominators, mixed with
    # coefficients of unequal denominators, one of them zero. The integer
    # mix gives the Fraction reference's table, key order included.
    rng = random.Random(hyp_rng.randint(0, 10**9))
    graph, _ = random_flag_graph(rng, rng.randint(2, 4), 3)
    pool = [(graph.vertices[a], graph.vertices[b]) for a, b in graph.edges]
    n, width = rng.randint(3, 5), rng.randint(1, 4)
    coeffs = [Fraction(rng.randint(0, q), q * (n - 1)) for q in rng.sample(range(1, 10), n - 2)]
    coeffs.append(1 - sum(coeffs))
    coeffs.insert(rng.randrange(n), Fraction(0))
    terms = []
    for c in coeffs:
        dens = rng.sample([1, 2, 3, 4, 5, 7, 9], 2)
        edges = rng.sample(pool, rng.randint(1, len(pool)))
        terms.append((c, {edge: tuple(Fraction(rng.randint(0, 6), rng.choice(dens))
                                      for _ in range(width)) for edge in edges}))
    mixed = convex_combine([(c, integer_table(edges)) for c, edges in terms])
    assert list(fraction_rows(mixed).items()) == list(reference_convex_combine(terms).items())
    # The mix is an integer table in lowest terms.
    assert all(type(x) is int for row in mixed[1].values() for x in row)
    assert mixed == integer_table(fraction_rows(mixed))


def test_convex_combine_of_distinct_chains_is_valid():
    # Two chain certificates of the same two-map datum through different
    # subspaces; their mix is a diamond and still verifies.
    datum = HBLDatum(
        2,
        (Matrix.from_rows([[1, 0]], cols=2), Matrix.from_rows([[0, 1]], cols=2)),
        ("x", "y"),
        (Fraction(1), Fraction(1)),
    )
    zero, full = Subspace.zero(2), Subspace.full(2)
    chains = []
    for axis in ([[1, 0]], [[0, 1]]):
        v = span(axis, 2)
        rises = [tuple(h - l for h, l in zip(datum.image_dims(b), datum.image_dims(a)))
                 for a, b in ((zero, v), (v, full))]
        point = as_point(datum.exponents)
        chains.append(concatenate(base_case_dim1(point, zero, v, rises[0]),
                                  base_case_dim1(point, v, full, rises[1])))
    mixed = convex_combine([(Fraction(1, 2), chains[0]), (Fraction(1, 2), chains[1])])
    assert len(vertices_of(mixed)) == 4
    assert verify_presentation(datum, presentation_of(datum, mixed)).valid


def test_build_loomis_whitney():
    datum = loomis_whitney_datum(2)
    pres = build_presentation(datum, generate_lattice(datum))
    assert verify_presentation(datum, pres).valid
    assert len(pres.graph.vertices) == 4
    assert vertex_count_bound(3, 3) == 22


def test_build_r6_with_seeded_lattice():
    datum = fourmap_r6_datum()
    seed = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                 [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    lattice = generate_lattice(datum, seeds=[seed])
    pres = build_presentation(datum, lattice)
    assert verify_presentation(datum, pres).valid
    assert len(pres.graph.vertices) <= vertex_count_bound(4, 6) == 3907


def test_build_rejects_violating_exponents():
    datum = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
    with pytest.raises(BuildError, match="violates the dimension inequality"):
        build_presentation(datum, generate_lattice(datum))


def test_build_names_a_violation_below_a_vertex_as_an_insufficient_family():
    # lw3 at 1/3 is feasible and builds from its full lattice, but families
    # capped at 4 miss a subspace that cuts off the vertex (1/2, 0, 0, 1);
    # the violation the build meets there is not one of the datum.
    datum = loomis_whitney_datum(3)
    capped = generate_lattice(datum, max_size=4)
    assert reference_violation(datum, capped) is None
    with pytest.raises(InsufficientCandidates) as err:
        build_presentation(datum, capped, max_lattice=4)
    assert str(err.value) == (
        "candidate set insufficient: at exponents (1/2, 0, 0, 1), a candidate "
        "subspace violates the dimension inequality (dim 1, slack -1/2)")
    assert verify_presentation(datum, build_presentation(datum, generate_lattice(datum))).valid


def test_build_rejects_scaling_failure():
    datum = loomis_whitney_datum(2, [1, 1, 1])
    with pytest.raises(BuildError, match="scaling"):
        build_presentation(datum, generate_lattice(datum))


def test_build_random_coordinate_subset_data():
    """Feasible exponents of random subset systems always build and verify."""
    rng = random.Random(777)
    built = 0
    for _ in range(12):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        subsets = []
        for _ in range(n):
            size = rng.randint(1, m)
            subsets.append(tuple(sorted(rng.sample(range(m), size))))
        if not all(any(j in s for s in subsets) for j in range(m)):
            continue  # uncovered coordinate cannot satisfy the equality row
        probe = coordinate_subset_datum(m, subsets, [Fraction(0)] * n)
        lattice = coordinate_lattice(m)
        poly = polytope_from_candidates(probe, lattice)
        points = enumerate_extremes(poly)
        if not points:
            continue
        # Mix the vertices to get an interior feasible exponent vector.
        tau = tuple(
            sum((p[i] for p in points), Fraction(0)) / len(points)
            for i in range(n)
        )
        datum = coordinate_subset_datum(m, subsets, tau)
        pres = build_presentation(datum, lattice)
        assert verify_presentation(datum, pres).valid
        assert len(pres.graph.vertices) <= vertex_count_bound(n, m)
        built += 1
    assert built >= 6


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_built_constant_dominates_gaussian_ratios(hyp_rng):
    """Differential check against the float oracle: the certificate's C is at
    least every Gaussian ratio, which Gaussians approach (Lieb, 1990)."""
    rng = random.Random(hyp_rng.randint(0, 10**9))
    m, n = rng.randint(2, 4), rng.randint(2, 4)
    subsets = [tuple(sorted(rng.sample(range(m), rng.randint(1, m)))) for _ in range(n)]
    lattice = coordinate_lattice(m)
    probe = coordinate_subset_datum(m, subsets, [Fraction(0)] * n)
    points = enumerate_extremes(polytope_from_candidates(probe, lattice))
    if not points:
        return  # no feasible exponents, e.g. an uncovered coordinate
    tau = tuple(sum((p[i] for p in points), Fraction(0)) / len(points) for i in range(n))
    datum = coordinate_subset_datum(m, subsets, tau)
    pres = build_presentation(datum, lattice)
    assert verify_presentation(datum, pres).valid
    constant = bound_constant(datum, pres).value
    gauss = np.random.default_rng(rng.randint(0, 10**9))
    for _ in range(5):
        ratio = gaussian_ratio(datum, GaussianInput.random(datum, gauss))
        assert ratio <= constant * (1 + 1e-9)


# Data whose build reaches the tau_i = 1 branch: no candidate is critical at
# the extreme exponents, so the builder takes a hyperplane through the node
# kernel (ker pi_i + A) cap B. The third reaches it in the interval
# [ker pi_1, H] after splitting at ker pi_1. A generated lattice holds every
# kernel, and a nonzero ker pi_i is critical when tau_i = 1, so only a given
# candidate family (the fourth case, with {0} and H alone) reaches the branch
# with a nonzero kernel.
TAU_ONE_CASES = {
    "identity-r2": (HBLDatum(2, (identity(2),), ("id",), (Fraction(1),)), False, 1.0),
    "shear-r3": (HBLDatum(3, (Matrix.from_rows([[1, 2, 0], [0, 1, 3], [1, 0, 1]]),),
                          ("A",), (Fraction(1),)), False, 1 / 7),
    "quotient-r3": (HBLDatum(3, (Matrix.from_rows([[1, 1, 0], [0, 1, 1]]),
                                 Matrix.from_rows([[1, 0, 1]])),
                             ("p", "q"), (Fraction(1), Fraction(1))), False, None),
    "kernel-r3": (HBLDatum(3, (Matrix.from_rows([[1, 0, 0]]),
                               Matrix.from_rows([[0, 1, 0], [0, 0, 1]])),
                           ("p", "q"), (Fraction(1), Fraction(1))), True, 1.0),
}


@pytest.mark.parametrize("name", sorted(TAU_ONE_CASES))
def test_tau_one_branch_builds_valid_certificates(name, monkeypatch):
    datum, trivial_family, constant = TAU_ONE_CASES[name]
    hyperplanes, branches = [], []
    original_hyperplane, original_choice = builder._codim1_critical, builder._split_subspace

    def hyperplane(kernel, low, high):
        h = original_hyperplane(kernel, low, high)
        hyperplanes.append((kernel, low, high, h))
        return h

    def choice(d, node, poly, point, gaps):
        v, branch = original_choice(d, node, poly, point, gaps)
        if branch is not None:
            branches.append((node, fraction_point(point), v))
        return v, branch

    monkeypatch.setattr(builder, "_codim1_critical", hyperplane)
    monkeypatch.setattr(builder, "_split_subspace", choice)
    candidates = (CandidateLattice.from_subspaces(datum.dim, []) if trivial_family
                  else generate_lattice(datum))
    trace: list[str] = []
    pres = build_presentation(datum, candidates, trace=trace)
    assert verify_presentation(datum, pres).valid
    assert any("tau1=1 branch" in line for line in trace)
    assert hyperplanes and branches
    for k, low, high, h in hyperplanes:
        assert k in datum.kernels
        assert h.dim == high.dim - 1
        assert low <= h <= high and (k + low) & high <= h
    fresh = _fresh(datum)
    for node, tau, h in branches:
        assert h in [called[3] for called in hyperplanes]
        assert interval_slack(fresh, tau, node.low, h) == 0
    if constant is not None:
        assert abs(bound_constant(datum, pres).value - constant) <= 1e-12


def interval_slack(datum, tau, low, u) -> Fraction:
    """Reference slack of U/A in an interval [A, B] at tau: sum_i tau_i
    (dim pi_i(U) - dim pi_i(A)) - (dim U - dim A), one Fraction per map."""
    return sum((t * (image(m, u).dim - image(m, low).dim) for t, m in zip(tau, datum.maps)),
               Fraction(0)) - (u.dim - low.dim)


def _fresh(d: HBLDatum) -> HBLDatum:
    """The same datum with an empty image-dimension table."""
    return HBLDatum(d.dim, d.maps, d.names, d.exponents)


def _children(datum, lattice, ready, v, max_size):
    """The children of the root node [0, H] of a family split at V."""
    root = builder._Node(lattice, -1, Subspace.zero(datum.dim), Subspace.full(datum.dim), ready)
    return builder._split(datum, root, v, max_size)


def _from_intervals(lattice, children) -> bool:
    """Whether the children are intervals of the lattice, not regenerated."""
    shared = [child.lattice is lattice for child in children]
    assert shared in ([True, True], [False, False])
    return shared[0]


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_children_read_intervals_off_a_closed_family(hyp_rng):
    """At every proper V of a ready family L, the children are the intervals
    [0, V] and [V, H] of L: they hold what the closure of the split seeds
    holds, and are closed and ready."""
    rng = random.Random(hyp_rng.randint(0, 10**9))
    m = rng.randint(3, 5)
    maps = tuple(random_matrix(rng, rng.randint(1, m - 1), m, -1, 1)
                 for _ in range(rng.randint(2, 4)))
    datum = HBLDatum(m, maps, tuple(f"p{i}" for i in range(len(maps))),
                     (Fraction(0),) * len(maps))
    seeds = [random_subspace(rng, m) for _ in range(rng.randint(0, 1))]
    lattice = generate_lattice(datum, seeds=seeds, max_size=64)
    if not lattice.closed:
        return
    assert is_ready(datum, lattice)
    for v in lattice.subspaces:
        if not 0 < v.dim < m:
            continue
        children = _children(datum, lattice, True, v, 64)
        generated = _children(datum, lattice, False, v, 64)
        assert _from_intervals(lattice, children) and not _from_intervals(lattice, generated)
        for child, expected, ends in zip(children, generated, ((Subspace.zero(m), v),
                                                               (v, Subspace.full(m)))):
            assert (child.low, child.high) == (expected.low, expected.high) == ends
            assert list(child.family) == [u for u in lattice.subspaces
                                          if ends[0] <= u <= ends[1]]
            assert set(child.family) == set(expected.family)
            assert child.ready and expected.ready and expected.lattice.closed
            assert _related(list(child.family)).closed()


def test_children_regenerate_when_the_family_cannot_supply_them():
    def from_intervals(datum, lattice, v, max_size=512):
        ready = is_ready(datum, lattice)
        return _from_intervals(lattice, _children(datum, lattice, ready, v, max_size))

    r6 = fourmap_r6_datum()
    unclosed = forcing_lattice()
    assert not unclosed.closed
    assert not from_intervals(r6, unclosed, unclosed.subspaces[2])
    # Closed, but of the four coordinate-axis kernels only e1 is present.
    lw3 = loomis_whitney_datum(3)
    axes = [[1 if c == j else 0 for c in range(4)] for j in range(4)]
    flag = CandidateLattice.from_subspaces(4, [span(axes[:k], 4) for k in (1, 2, 3)])
    assert flag.closed
    assert not is_ready(lw3, flag)
    assert not from_intervals(lw3, flag, span(axes[:2], 4))
    # A tau_i = 1 hyperplane outside the family.
    lattice = generate_lattice(lw3)
    hyperplane = span([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4)
    assert hyperplane not in lattice.subspaces
    assert not from_intervals(lw3, lattice, hyperplane)
    # An interval larger than the size cap still comes from the family: the
    # cap limits generation, not a family already given.
    v = span(axes[:3], 4)
    assert from_intervals(lw3, lattice, v, max_size=7)
    assert from_intervals(lw3, lattice, v, max_size=8)


def test_regenerated_children_are_the_closures_inside_their_intervals():
    # The family of a child that cannot be read off its parent is the capped
    # closure inside [A, V] or [V, B] of the ends, the node kernels
    # (ker pi_i + A) cap B and the seeds U cap V or U + V.
    lw3 = loomis_whitney_datum(3)
    axes = [[1 if c == j else 0 for c in range(4)] for j in range(4)]
    flag = CandidateLattice.from_subspaces(4, [span(axes[:k], 4) for k in (1, 2, 3)])
    v = span(axes[:2], 4)
    low, high = _children(lw3, flag, False, v, 512)
    assert low.lattice.subspaces[:2] == (Subspace.zero(4), v)
    assert high.lattice.subspaces[:2] == (v, Subspace.full(4))
    for child in (low, high):
        assert child.ready == child.lattice.closed
        assert all(child.low <= u <= child.high for u in child.family)
        assert {(k + child.low) & child.high for k in lw3.kernels} <= set(child.family)
    assert {u & v for u in flag} <= set(low.family)
    assert {u + v for u in flag} <= set(high.family)


def _random_datum(rng: random.Random, dims: tuple[int, int] = (3, 5)) -> HBLDatum | None:
    """Maps on R^m, m drawn from `dims` (R^3-R^5 by default), with entries in
    {-1, 0, 1} and exponents in quarters, the last positive-rank map's
    exponent solving the scaling equality."""
    m = rng.randint(*dims)
    maps = tuple(random_matrix(rng, rng.randint(1, m), m, -1, 1)
                 for _ in range(rng.randint(2, 4)))
    ranks = [mp.cols - kernel(mp).dim for mp in maps]
    if not any(ranks):
        return None
    j = max(i for i, r in enumerate(ranks) if r)
    for _ in range(20):
        tau = [Fraction(rng.randint(0, 4), 4) for _ in maps]
        tau[j] = (m - sum(t * r for i, (t, r) in enumerate(zip(tau, ranks)) if i != j)) / ranks[j]
        if 0 <= tau[j] <= 1:
            return HBLDatum(m, maps, tuple(f"p{i}" for i in range(len(maps))), tuple(tau))
    return None


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_builder_splits_at_the_least_critical_and_reports_the_first_violation(hyp_rng):
    """The builder's one row scan per node agrees with the Fraction
    references: a violating datum fails naming the first violation's
    dimension and slack, and every split takes the least critical."""
    datum = _random_datum(random.Random(hyp_rng.randint(0, 10**9)))
    if datum is None:
        return
    lattice = generate_lattice(datum, max_size=64)
    violation = reference_violation(datum, lattice)
    if violation is not None:
        v, slack = violation
        with pytest.raises(BuildError) as err:
            build_presentation(datum, lattice)
        assert not isinstance(err.value, InsufficientCandidates)
        assert str(err.value) == (
            f"candidate subspace violates the dimension inequality (dim {v.dim}, slack {slack})")
        return
    chosen = []
    original = builder._split_subspace

    def choice(d, node, poly, point, gaps):
        v, branch = original(d, node, poly, point, gaps)
        chosen.append((node, fraction_point(point), v))
        return v, branch

    with mock.patch.object(builder, "_split_subspace", choice):
        try:
            build_presentation(datum, lattice)
        except BuildError as err:
            assert isinstance(err, InsufficientCandidates)
            assert "candidate set insufficient" in str(err)
    fresh = _fresh(datum)
    for node, tau, v in chosen:
        slacks = [(u, interval_slack(fresh, tau, node.low, u)) for u in node.family]
        assert all(slack >= 0 for _, slack in slacks)
        span = node.high.dim - node.low.dim
        criticals = sorted((u for u, slack in slacks
                            if slack == 0 and 0 < u.dim - node.low.dim < span),
                           key=lambda u: (u.dim, u.basis.entries))
        if criticals:
            assert v == criticals[0]


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_the_split_subspace_is_the_first_critical(hyp_rng):
    """On random data in R^2-R^5, at every extreme point the build meets,
    a node with a critical row splits at `criticals(gaps)[0]`, though only
    the critical rows of least dimension are ordered."""
    datum = _random_datum(random.Random(hyp_rng.randint(0, 10**9)), dims=(2, 5))
    if datum is None:
        return
    met = []
    original = builder._split_subspace

    def choice(d, node, poly, point, gaps):
        v, branch = original(d, node, poly, point, gaps)
        met.append((poly, gaps, v, branch))
        return v, branch

    with mock.patch.object(builder, "_split_subspace", choice):
        try:
            build_presentation(datum, generate_lattice(datum, max_size=64))
        except BuildError:
            pass
    for poly, gaps, v, branch in met:
        criticals = poly.criticals(gaps)
        if criticals:
            assert (v, branch) == (criticals[0].subspace, None)
        else:
            assert branch is not None


def test_an_lw5_build_orders_only_its_least_dimension_criticals(monkeypatch):
    # At the lw5 root every proper coordinate subspace is critical, 62 rows;
    # the split reads only the first, so only the 5 lines are ordered.
    received, least, critical_rows = [], [], 0
    ordered, original = builder.ordered, builder._split_subspace

    def counted_ordered(subspaces):
        subspaces = list(subspaces)
        received.append(set(subspaces))
        return ordered(subspaces)

    def choice(d, node, poly, point, gaps):
        nonlocal critical_rows
        rows = [row for row, gap in zip(poly.rows, gaps)
                if gap == 0 and row.subspace is not None and not row.equality]
        critical_rows += len(rows)
        if rows:
            least.append({row.subspace for row in rows
                          if row.rhs == min(r.rhs for r in rows)})
        return original(d, node, poly, point, gaps)

    monkeypatch.setattr(builder, "ordered", counted_ordered)
    monkeypatch.setattr(builder, "_split_subspace", choice)
    datum = loomis_whitney_datum(5)
    build_presentation(datum, generate_lattice(datum))
    assert received == least
    assert (len(received), sum(map(len, received)), critical_rows) == (15, 50, 198)


def test_an_untraced_build_formats_no_fraction(monkeypatch):
    """Trace lines are formed only for a caller's trace list: without one,
    no Fraction becomes text, and the build returns what a traced build
    returns."""

    def refuse(self):
        raise AssertionError("an untraced build formatted a Fraction")

    for datum in (loomis_whitney_datum(3), subsets_interior_datum()):
        lattice = generate_lattice(datum)
        trace: list[str] = []
        traced = build_presentation(datum, lattice, trace=trace)
        assert any("not extreme" in line for line in trace)
        with monkeypatch.context() as patched:
            patched.setattr(Fraction, "__str__", refuse)
            untraced = build_presentation(datum, lattice)
        assert untraced == traced


def test_an_untraced_build_hashes_no_fraction(monkeypatch):
    """Exponent vectors pass between nodes as integer points (D, N), which
    key the nodes' tables and Caratheodory's merge: an untraced build,
    Caratheodory path included, hashes no Fraction, and returns what a
    traced build returns."""

    def refuse(self):
        raise AssertionError("the build hashed a Fraction")

    for datum in (loomis_whitney_datum(4), subsets_interior_datum()):
        lattice = generate_lattice(datum)
        trace: list[str] = []
        traced = build_presentation(datum, lattice, trace=trace)
        with monkeypatch.context() as patched:
            patched.setattr(Fraction, "__hash__", refuse)
            untraced = build_presentation(datum, lattice)
        assert untraced == traced
    assert any("not extreme" in line for line in trace)


def test_polytope_rows_name_themselves_from_their_fields():
    # A row stores no text: its provenance, read by reports and errors, is
    # derived from its dimension over low or its unit box coefficient.
    _, poly = lines_and_plane_polytope()
    assert all(not isinstance(field, str) for row in poly.rows for field in row)
    assert [row.provenance for row in poly.rows] == [
        "dim-2 candidate", "dim-1 candidate", "dim-1 candidate",
        "tau1 >= 0", "tau1 <= 1", "tau2 >= 0", "tau2 <= 1", "tau3 >= 0", "tau3 <= 1"]
    assert [row.equality for row in poly.rows] == [True] + [False] * 8


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_the_integer_merge_and_sort_gives_the_fraction_order(hyp_rng):
    # Points of R^1 to R^4 over unequal denominators, some repeated and some
    # with weight zero, more of them than n + 1, so the affine loop runs:
    # merging on (D, N) and sorting by numerators over the common lcm gives
    # the Fraction reference's points, order and weights.
    rng = random.Random(hyp_rng.randint(0, 10**9))
    n = rng.randint(1, 4)
    pool = [tuple(Fraction(rng.randint(0, 6), rng.choice([1, 2, 3, 4, 6])) for _ in range(n))
            for _ in range(rng.randint(n + 2, n + 5))]
    terms = [(Fraction(rng.randint(0, 5), rng.randint(1, 7)), rng.choice(pool))
             for _ in range(rng.randint(len(pool), 2 * len(pool)))]
    reduced = builder._reduce_caratheodory(
        n, [(c, as_point(p)) for c, p in terms])
    expected = reference_reduce(n, terms)
    assert [(c, fraction_point(p)) for c, p in reduced] == expected
    assert all(p == as_point(fraction_point(p)) for _, p in reduced)
    assert len(reduced) <= n + 1


def _reference_node(datum, node):
    """The node's datum on high/low and its family in that datum's chart, by
    the public restriction to high and quotient by low."""
    chart = node.high.retraction()
    low = image(chart, node.low)
    quotient = quotient_datum(restrict_datum(datum, node.high)[0], low)[0]
    perp = low.perp()
    return quotient, [image(perp.retraction(), image(chart, u) & perp) for u in node.family]


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_interval_rows_are_the_rows_of_the_restricted_quotient(hyp_rng):
    """On random ready families in R^3-R^5, every node's polytope, read off
    the interval [A, B] of the top-level family and the build's own table,
    has the rows of the chart datum that restriction to B and quotient by A
    give, in the same order, with that datum's ranks computed afresh."""
    datum = _random_datum(random.Random(hyp_rng.randint(0, 10**9)))
    if datum is None:
        return
    lattice = generate_lattice(datum, max_size=64)
    if not is_ready(datum, lattice):
        return
    made = []

    class Recorded(builder._Node):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with mock.patch.object(builder, "_Node", Recorded):
        try:
            build_presentation(datum, lattice)
        except BuildError:
            pass
    for node in made:
        if node.poly is None:
            continue
        assert node.ready
        reference = polytope_from_candidates(*_reference_node(datum, node))
        assert [(r.coeffs, r.rhs, r.equality, r.provenance) for r in node.poly.rows] \
            == [(r.coeffs, r.rhs, r.equality, r.provenance) for r in reference.rows]


def _counting(monkeypatch, functions) -> Counter:
    """Count the calls of each named function from every hblcert module,
    wherever the module binds it."""
    counts: Counter = Counter()
    for name, fn in functions.items():
        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "hblcert":
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, counted)
    return counts


# On a ready family every node is an interval of the top-level family: its
# rows come from the build's table and its children from the kept order, so
# the recursion forms no child datum, image or Zassenhaus meet. The builder
# that made chart data made 4 restrictions, 4 quotients and 78 images on lw4.
@pytest.mark.parametrize("name", ["lw4", "r6", "lw4-unimodular"])
def test_a_ready_build_forms_no_chart_data(name, monkeypatch):
    datum = transformed_lw4() if name == "lw4-unimodular" else ALL_FIXTURES[name][0]()
    lattice = generate_lattice(datum)
    assert is_ready(datum, lattice)
    counts = _counting(monkeypatch, {
        "restrict_datum": data_module.restrict_datum,
        "quotient_datum": data_module.quotient_datum,
        "image": linalg.image,
        "sum_and_intersection": linalg.sum_and_intersection,
    })
    assert verify_presentation(datum, build_presentation(datum, lattice)).valid
    assert not counts


# A node's kernels are (ker pi_i + A) cap B of the datum's kernels, needed
# only off the ready path, and a Caratheodory step takes the null space of
# its tight rows' echelon, so a build calls `kernel` only to trim more than
# n + 1 Caratheodory terms, and on neither lw4 nor r6 (the datum's kernels
# are computed once, with its lattice); a builder that computed those of
# every child map made 109 on lw4 and 67 on r6, and one that formed a Matrix
# of the tight rows made 9 and 3.
@pytest.mark.parametrize("name, limit", [("lw4", 14), ("r6", 7)])
def test_splits_compute_no_kernels(name, limit, monkeypatch):
    datum = ALL_FIXTURES[name][0]()
    lattice = generate_lattice(datum)
    counts = _counting(monkeypatch, {"kernel": linalg.kernel})
    build_presentation(datum, lattice)
    assert counts["kernel"] <= limit


# Each recursion node's polytope and each split are made once per build. On
# lw4 the root is not extreme: its Caratheodory vertices share its interval
# and family, so they share its polytope and splits, and the children of a
# split are shared likewise. Without the nodes' caches the build made 13
# polytopes and 10 splits.
def test_node_work_is_done_once_per_build(monkeypatch):
    datum = loomis_whitney_datum(4)
    lattice = generate_lattice(datum)
    calls = {"polytope": 0, "split": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(builder, "polytope_from_candidates",
                        counted("polytope", builder.polytope_from_candidates))
    monkeypatch.setattr(builder, "_split", counted("split", builder._split))
    for _ in range(2):  # nothing is kept from one build to the next
        calls.update(polytope=0, split=0)
        assert verify_presentation(datum, build_presentation(datum, lattice)).valid
        assert calls == {"polytope": 4, "split": 4}


# The recursion passes edge tables, and only the top-level table becomes a
# presentation; building one per node made 27 graphs on lw4 and 19 on r6.
@pytest.mark.parametrize("name", ["lw4", "r6"])
def test_build_makes_one_graph(name, monkeypatch):
    datum = ALL_FIXTURES[name][0]()
    lattice = generate_lattice(datum)
    calls = []
    original = GraphDecomposition.build
    monkeypatch.setattr(GraphDecomposition, "build",
                        staticmethod(lambda *args: calls.append(args) or original(*args)))
    for _ in range(2):
        calls.clear()
        assert verify_presentation(datum, build_presentation(datum, lattice)).valid
        assert len(calls) == 1


# The node tree holds every polytope and child family of a build; nothing may
# keep it alive in a reference cycle once the build returns, or it would
# wait for the cycle collector.
@pytest.mark.parametrize("name", ["lw4", "r6"])
def test_build_frees_its_node_tree_by_reference_counting(name, monkeypatch):
    datum = ALL_FIXTURES[name][0]()
    lattice = generate_lattice(datum)
    made = []

    class Recording(builder._Node):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(builder, "_Node", Recording)
    gc.disable()
    try:
        build_presentation(datum, lattice)
        assert made and not [ref for ref in made if ref() is not None]
    finally:
        gc.enable()


# The builder reads a ready family's image dimensions off its meets in the
# kept inclusion order, into a table of its own; the verification that
# closes each build computes its ranks by elimination on the caller's datum,
# whose table so holds the certificate's vertices and nothing else.
@pytest.mark.parametrize("name", ["lw3", "lw4", "r6"])
def test_a_build_leaves_the_callers_table_to_the_verification(name):
    datum = ALL_FIXTURES[name][0]()
    lattice = generate_lattice(datum)
    assert is_ready(datum, lattice) and lattice.order is not None
    pres = build_presentation(datum, lattice)
    assert set(datum._image_dims) == set(pres.graph.vertices)


def _flipped(order, rng: random.Random):
    """A copy of an inclusion order with one bit of a down mask or of a
    dimension class flipped."""
    corrupt = copy.copy(order)
    corrupt.down, corrupt.bydim = list(order.down), list(order.bydim)
    masks = corrupt.down if rng.random() < 0.75 else corrupt.bydim
    masks[rng.randrange(len(masks))] ^= 1 << rng.randrange(len(order.subs))
    return corrupt


# A corrupt order may make a build fail, but never gives a certificate that a
# fresh datum rejects, nor a derived dimension to the caller's datum. The
# builder reads the image dimensions off the order's meets and each split's
# intervals off its down masks, so only flips that change neither are skipped.
@pytest.mark.parametrize("name", ["lw3", "lw4", "r6"])
def test_a_corrupt_inclusion_order_never_passes_a_wrong_certificate(name):
    make = ALL_FIXTURES[name][0]
    lattice = generate_lattice(make())
    exact = lattice.meet_image_dims(make().kernels)
    rng = random.Random(20)
    tried = 0
    for _ in range(2000):
        corrupt = CandidateLattice(lattice.subspaces, lattice.closed, lattice.generation_log,
                                   _flipped(lattice.order, rng))
        datum = make()
        if corrupt.order.down == lattice.order.down \
                and corrupt.meet_image_dims(datum.kernels) == exact:
            continue
        try:
            pres = build_presentation(datum, corrupt)
        except BuildError:
            pass
        else:
            assert verify_presentation(make(), pres).valid
        fresh = _fresh(datum)
        assert all(dims == fresh.image_dims(u) for u, dims in datum._image_dims.items())
        tried += 1
        if tried == 20:
            break
    assert tried == 20
