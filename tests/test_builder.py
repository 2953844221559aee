import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hblcert import builder
from hblcert.builder import (
    BuildError,
    base_case_dim1,
    build_presentation,
    caratheodory,
    concatenate,
    convex_combine,
    enumerate_extremes,
    is_extreme,
    polytope_from_candidates,
    vertex_count_bound,
)
from hblcert.data import (
    CandidateLattice,
    HBLDatum,
    generate_lattice,
    quotient_datum,
    restrict_datum,
)
from hblcert.fixtures import (
    fourmap_r6_datum,
    fourmap_r6_forcing_candidates,
    loomis_whitney_datum,
)
from hblcert.linalg import Matrix, Subspace, span
from hblcert.oracle import GaussianInput, gaussian_ratio
from hblcert.presentation import bound_constant, verify_presentation


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
    extremes = enumerate_extremes(poly)
    assert not extremes.truncated
    assert extremes.points == ((Fraction(1, 2),) * 4,)


def test_loomis_whitney_polytope_contains_the_balanced_vertex():
    # The axis constraints pair-sum to the scaling row, so the balanced
    # exponents are forced: the polytope is that single vertex.
    datum = loomis_whitney_datum(2)
    poly = polytope_from_candidates(datum, generate_lattice(datum))
    extremes = enumerate_extremes(poly)
    assert (Fraction(1, 2),) * 3 in extremes.points
    assert is_extreme(poly, (Fraction(1, 2),) * 3)


def test_single_map_polytope():
    datum = HBLDatum(2, (Matrix.identity(2),), ("id",), (Fraction(1),))
    poly = polytope_from_candidates(datum, CandidateLattice.from_subspaces(2, []))
    extremes = enumerate_extremes(poly)
    assert extremes.points == ((Fraction(1),),)


def test_caratheodory_on_an_extreme_point_is_trivial():
    datum = fourmap_r6_datum()
    poly = polytope_from_candidates(datum, forcing_lattice())
    decomposition = caratheodory(poly, (Fraction(1, 2),) * 4)
    assert decomposition.terms == ((Fraction(1), (Fraction(1, 2),) * 4),)


def lines_and_plane_polytope():
    """Two coordinate lines plus the identity on R^2; two-vertex polytope."""
    datum = coordinate_subset_datum(2, [(0,), (1,), (0, 1)],
                                    [Fraction(1, 2)] * 3)
    return datum, polytope_from_candidates(datum, coordinate_lattice(2))


def test_caratheodory_midpoint():
    _, poly = lines_and_plane_polytope()
    assert set(enumerate_extremes(poly).points) == {
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0)),
    }
    mid = (Fraction(1, 2),) * 3
    assert not is_extreme(poly, mid)
    decomposition = caratheodory(poly, mid)
    assert sorted(decomposition.terms) == [
        (Fraction(1, 2), (Fraction(0), Fraction(0), Fraction(1))),
        (Fraction(1, 2), (Fraction(1), Fraction(1), Fraction(0))),
    ]


def test_caratheodory_reconstruction_guard_is_an_exception(monkeypatch):
    # The check must survive python -O, so it raises rather than asserts.
    _, poly = lines_and_plane_polytope()
    monkeypatch.setattr(builder, "_reduce_caratheodory",
                        lambda n, terms: [(Fraction(1), terms[0][1])])
    with pytest.raises(BuildError, match="failed to reconstruct"):
        caratheodory(poly, (Fraction(1, 2),) * 3)


def test_caratheodory_recovers_random_combinations():
    rng = random.Random(8)
    datum = coordinate_subset_datum(2, [(0,), (1,), (0,), (1,)],
                                    [Fraction(1, 2)] * 4)
    poly = polytope_from_candidates(datum, coordinate_lattice(2))
    vertices = enumerate_extremes(poly).points
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
        decomposition = caratheodory(poly, tau)
        assert len(decomposition.terms) <= 5
        recovered = tuple(
            sum((c * p[i] for c, p in decomposition.terms), Fraction(0))
            for i in range(4)
        )
        assert recovered == tau
        assert sum(c for c, _ in decomposition.terms) == 1


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
    vertices = list(enumerate_extremes(poly).points)
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
        for row in poly.rows:
            value = fraction_value(row, tau)
            assert row.evaluate(tau) == value
            assert row.satisfied(tau) == fraction_satisfied(row, tau)
            assert row.tight(tau) == (value == row.rhs)
        first = next((row for row in poly.rows if not fraction_satisfied(row, tau)), None)
        assert poly.member(tau) is first
        assert (first is None) == (tau not in outside)


def test_caratheodory_rejects_non_members():
    _, poly = lines_and_plane_polytope()
    with pytest.raises(ValueError, match="violates constraint"):
        caratheodory(poly, (Fraction(1), Fraction(1), Fraction(1)))


def test_base_case_examples():
    one = HBLDatum(1, (Matrix.identity(1),), ("id",), (Fraction(1),))
    pres = base_case_dim1(one)
    assert len(pres.graph.edges) == 1
    assert pres.theta.values[0] == (Fraction(1),)

    two = HBLDatum(1, (Matrix.identity(1), Matrix.identity(1)), ("a", "b"),
                   (Fraction(1, 2), Fraction(1, 2)))
    pres = base_case_dim1(two)
    assert pres.theta.values[0] == (Fraction(1, 2), Fraction(1, 2))

    with_rank0 = HBLDatum(1, (Matrix.identity(1), Matrix.zeros(1, 1)), ("a", "z"),
                          (Fraction(1), Fraction(1)))
    pres = base_case_dim1(with_rank0)
    report = verify_presentation(with_rank0, pres)
    assert report.valid
    assert report.sigma == (Fraction(1),)

    bad = HBLDatum(1, (Matrix.identity(1),), ("id",), (Fraction(1, 2),))
    with pytest.raises(BuildError, match="scaling"):
        base_case_dim1(bad)


def test_concatenate_loomis_whitney_split():
    datum = loomis_whitney_datum(2)
    v = span([[1, 0, 0], [0, 1, 0]], 3)
    low_datum, _ = restrict_datum(datum, v)
    high_datum, _ = quotient_datum(datum, v)
    p_low = build_presentation(low_datum, generate_lattice(low_datum))
    p_high = build_presentation(high_datum, generate_lattice(high_datum))
    pres = concatenate(datum, v, p_low, p_high)
    assert verify_presentation(datum, pres).valid
    assert len(pres.graph.vertices) \
        == len(p_low.graph.vertices) + len(p_high.graph.vertices) - 1


def test_concatenate_r6_split_has_five_chain_low_part():
    datum = fourmap_r6_datum()
    v = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    low_datum, _ = restrict_datum(datum, v)
    high_datum, _ = quotient_datum(datum, v)
    p_low = build_presentation(low_datum, generate_lattice(low_datum))
    p_high = build_presentation(high_datum, generate_lattice(high_datum))
    assert len(p_low.graph.vertices) == 5
    pres = concatenate(datum, v, p_low, p_high)
    assert verify_presentation(datum, pres).valid
    assert len(pres.graph.vertices) \
        == len(p_low.graph.vertices) + len(p_high.graph.vertices) - 1
    low_vertices = [w for w in pres.graph.vertices if w <= v]
    assert sorted(w.dim for w in low_vertices) == [0, 1, 2, 3, 4]


def test_concatenate_at_the_zero_subspace_reembeds_the_high_part():
    from hblcert.flowgraph import GraphDecomposition
    from hblcert.presentation import Presentation
    from hblcert.flowgraph import WeightFunction

    datum = loomis_whitney_datum(2)
    p_high = build_presentation(datum, generate_lattice(datum))
    trivial = Presentation(
        GraphDecomposition.build(0, [Subspace.zero(0)], []),
        WeightFunction.zeros(0, 3),
    )
    pres = concatenate(datum, Subspace.zero(3), trivial, p_high)
    assert pres == p_high


def test_convex_combine_trivial_cases():
    datum = loomis_whitney_datum(2)
    pres = build_presentation(datum, generate_lattice(datum))
    assert convex_combine([(Fraction(1), pres)]) == pres
    assert convex_combine([(Fraction(1, 2), pres), (Fraction(1, 2), pres)]) == pres
    with pytest.raises(ValueError, match="sum 1"):
        convex_combine([(Fraction(1, 2), pres)])


def test_convex_combine_of_distinct_chains_is_valid():
    # Two chain certificates of the same two-map datum through different
    # subspaces; their mix is a diamond and still verifies.
    datum = HBLDatum(
        2,
        (Matrix.from_rows([[1, 0]], cols=2), Matrix.from_rows([[0, 1]], cols=2)),
        ("x", "y"),
        (Fraction(1), Fraction(1)),
    )
    chains = []
    for axis in ([[1, 0]], [[0, 1]]):
        v = span(axis, 2)
        low_datum, _ = restrict_datum(datum, v)
        high_datum, _ = quotient_datum(datum, v)
        chains.append(concatenate(datum, v,
                                  base_case_dim1(low_datum),
                                  base_case_dim1(high_datum)))
    mixed = convex_combine([(Fraction(1, 2), chains[0]), (Fraction(1, 2), chains[1])])
    assert len(mixed.graph.vertices) == 4
    assert verify_presentation(datum, mixed).valid


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
        points = enumerate_extremes(poly).points
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
    points = enumerate_extremes(polytope_from_candidates(probe, lattice)).points
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
