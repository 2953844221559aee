"""Acceptance suite: one test per shipped criterion, each printing a verdict line.

Every tolerance is pinned here; exact criteria use rational equality with no
tolerance at all.
"""

import random
from fractions import Fraction

import numpy as np

from hblcert.builder import (
    build_presentation,
    enumerate_extremes,
    polytope_from_candidates,
    vertex_count_bound,
)
from hblcert.fixtures import (
    ALL_FIXTURES,
    fourmap_r6_datum,
    fourmap_r6_forcing_candidates,
    fourmap_r6_presentation,
    loomis_whitney_datum,
    loomis_whitney_presentation,
)
from hblcert.flowgraph import (
    WeightFunction,
    decompose_flow,
    is_balanced,
    project_graph,
    project_weight,
    total_mass,
    validate_graph,
)
from hblcert.lattice import CandidateLattice, generate_lattice
from hblcert.linalg import Subspace, kernel, span
from hblcert.oracle import (
    GaussianInput,
    GridFunction,
    gaussian_ascent,
    gaussian_ratio,
    grid_factorize,
    quadrature_check,
)
from hblcert.presentation import Presentation, bound_constant, verify_presentation

from conftest import (
    check_scaling,
    random_balanced_weight,
    random_flag_graph,
    random_matrix,
    scan,
    weight_rows,
)
from test_presentation import transport_presentation

from hblcert.data import transform_datum
from conftest import random_invertible, random_signed_permutation


def report(n: int, text: str) -> None:
    print(f"criterion {n:2d}: PASS - {text}")


def test_criterion_01_shipped_fixtures_verify():
    for name, (make_datum, make_pres) in ALL_FIXTURES.items():
        rep = verify_presentation(make_datum(), make_pres())
        assert rep.valid, (name, rep.problems)
    report(1, "all shipped certificates verify exactly")


def test_criterion_02_mutation_soundness():
    rng = random.Random(20240)
    named = ("theta-balance", "theta-mass", "sigma-balance", "sigma-mass")
    fixtures = [(d(), p()) for d, p in ALL_FIXTURES.values()]
    for trial in range(50):
        datum, pres = fixtures[rng.randrange(len(fixtures))]
        edge = rng.randrange(len(pres.graph.edges))
        comp = rng.randrange(datum.n_maps)
        delta = rng.choice([Fraction(1, 4), Fraction(-1, 4)])
        rows = [list(v) for v in pres.theta.values]
        rows[edge][comp] += delta
        mutated = Presentation(pres.graph, weight_rows(rows, datum.n_maps))
        rep = verify_presentation(datum, mutated)
        assert not rep.valid, f"false accept on trial {trial}"
        assert any(p.startswith(named) for p in rep.problems), rep.problems
    report(2, "50/50 single-entry mutations rejected with a named condition")


def test_criterion_03_exponent_forcing():
    datum = fourmap_r6_datum()
    lattice = CandidateLattice.from_subspaces(6, fourmap_r6_forcing_candidates())
    assert enumerate_extremes(polytope_from_candidates(datum, lattice)) == ((Fraction(1, 2),) * 4,)
    report(3, "four coordinate-line constraints force exponents (1/2,1/2,1/2,1/2)")


def test_criterion_04_constant_computation():
    for d in (2, 3, 4, 5):
        cert = bound_constant(loomis_whitney_datum(d), loomis_whitney_presentation(d))
        assert cert.exact_one and cert.value == 1.0
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    cert = bound_constant(datum, pres)
    v4 = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
               [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    v6 = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
               [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 1]], 6)
    diamond = [
        f for f in cert.factors
        if f.map_index == 1
        and pres.graph.vertices[pres.graph.edges[f.edge][0]] == v4
        and pres.graph.vertices[pres.graph.edges[f.edge][1]] == v6
    ]
    assert len(diamond) == 1
    assert diamond[0].base == 2 and diamond[0].exponent == Fraction(-1, 4)
    report(4, "chain constants exactly 1; diamond factor has base 2, exponent -1/4")


def test_criterion_05_builder_end_to_end():
    lw = loomis_whitney_datum(2)
    pres = build_presentation(lw, generate_lattice(lw))
    assert verify_presentation(lw, pres).valid
    assert len(pres.graph.vertices) <= vertex_count_bound(3, 3) == 22

    r6 = fourmap_r6_datum()
    seed = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                 [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    pres6 = build_presentation(r6, generate_lattice(r6, seeds=[seed]))
    assert verify_presentation(r6, pres6).valid
    assert len(pres6.graph.vertices) <= vertex_count_bound(4, 6) == 3907
    report(5, f"builds verify ({len(pres.graph.vertices)} and "
              f"{len(pres6.graph.vertices)} vertices, bounds 22 and 3907)")


def test_criterion_06_violation_detection():
    lw = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
    assert scan(lw, generate_lattice(lw))[0] == (span([[1, 0, 0]], 3), Fraction(-1, 4))

    bad = loomis_whitney_datum(2, [1, 1, 1])
    holds, lhs, rhs = check_scaling(bad)
    assert not holds and (lhs, rhs) == (Fraction(3), Fraction(6))
    assert scan(bad, generate_lattice(bad))[0] == (Subspace.full(3), Fraction(3))
    report(6, "detects the -1/4 slack line and the 3 != 6 scaling failure")


def test_criterion_07_chain_decomposition_suite():
    rng = random.Random(7001)
    for trial in range(200):
        m = rng.randint(1, 6)
        width = rng.randint(1, 4)
        graph, flags = random_flag_graph(rng, m, rng.randint(1, 3))
        weight = random_balanced_weight(rng, graph, flags, width)
        decomposition = decompose_flow(graph, weight)
        assert len(decomposition.terms) <= len(graph.edges) * width
        rebuilt = [[Fraction(0)] * width for _ in graph.edges]
        for t in decomposition.terms:
            for k in t.edges:
                rebuilt[k][t.component] += t.coefficient
        assert tuple(tuple(r) for r in rebuilt) == weight.values, f"trial {trial}"
    report(7, "200/200 random balanced weights reconstruct exactly")


def test_criterion_08_projection_suite():
    rng = random.Random(8001)
    for trial in range(100):
        m = rng.randint(1, 5)
        graph, flags = random_flag_graph(rng, m, rng.randint(1, 3))
        weight = random_balanced_weight(rng, graph, flags, rng.randint(1, 3))
        mat = random_matrix(rng, rng.randint(1, 4), m)
        while kernel(mat).dim == m:
            mat = random_matrix(rng, rng.randint(1, 4), m)
        projected, _ = project_graph(graph, mat)
        assert validate_graph(projected) == []
        pushed = project_weight(graph, weight, mat)
        assert is_balanced(projected, pushed)
        assert total_mass(projected, pushed) == total_mass(graph, weight), f"trial {trial}"
    report(8, "100/100 projected weights balanced with identical mass")


def test_criterion_09_gaussian_domination():
    lw = loomis_whitney_datum(2)
    identity_ratio = gaussian_ratio(lw, GaussianInput.identity(lw))
    assert abs(identity_ratio - 1.0) <= 1e-12
    for name, (make_datum, make_pres) in ALL_FIXTURES.items():
        datum, pres = make_datum(), make_pres()
        cert = bound_constant(datum, pres)
        rng = np.random.default_rng(900)
        for _ in range(200):
            ratio = gaussian_ratio(datum, GaussianInput.random(datum, rng))
            assert ratio <= cert.value * (1 + 1e-9), name
    report(9, "5 x 200 random Gaussian inputs stay below the certificate constant")


def test_criterion_10_quadrature():
    lw = loomis_whitney_datum(2)
    cube = GridFunction(((0.0, 1.0), (0.0, 1.0)), np.ones((64, 64)))
    lhs, rhs, ratio = quadrature_check(lw, 1.0, [cube] * 3,
                                       box=((0.0, 1.0),) * 3, resolution=64)
    assert abs(ratio - 1.0) <= 1e-6

    rng = np.random.default_rng(1000)
    for trial in range(20):
        fs = []
        for _ in range(3):
            blocks = rng.uniform(0.0, 1.5, size=(8, 8))
            fs.append(GridFunction(((0.0, 1.0), (0.0, 1.0)),
                                   blocks.repeat(8, 0).repeat(8, 1)))
        _, _, r = quadrature_check(lw, 1.0, fs, box=((0.0, 1.0),) * 3, resolution=64)
        assert r <= 1 + 1e-6, f"trial {trial}"
    report(10, "cube ratio 1 within 1e-6; 20/20 step triples dominated")


def test_criterion_11_grid_factorization():
    graph = loomis_whitney_presentation(2).graph
    phi = WeightFunction.scalar([1, 1, 1])
    steps_h = 1.0 / 32
    rng = np.random.default_rng(1100)
    for trial in range(20):
        blocks = rng.uniform(0.0, 2.0, size=(8, 8, 8))
        values = blocks.repeat(4, 0).repeat(4, 1).repeat(4, 2)
        f = GridFunction(((0.0, 1.0),) * 3, values)
        edge_functions, err = grid_factorize(f, graph, phi)
        assert err <= 1e-9, f"trial {trial}: {err}"
        for k in range(3):
            line = edge_functions[k].values.sum(axis=k) * steps_h
            assert float(line.max()) <= 1 + 1e-12
    report(11, "20/20 factorizations within 1e-9; line sums below 1 + 1e-12")


def test_criterion_12_invariance():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    cert = bound_constant(datum, pres)
    rng = random.Random(1200)
    for _ in range(20):
        t = random_signed_permutation(rng, 6)
        s_list = [random_signed_permutation(rng, m.rows) for m in datum.maps]
        moved = bound_constant(transform_datum(datum, t, s_list),
                               transport_presentation(pres, t))
        assert moved.invariant_key() == cert.invariant_key()
        assert moved.value == cert.value
    for _ in range(20):
        t = random_invertible(rng, 6)
        s_list = [random_invertible(rng, m.rows) for m in datum.maps]
        moved = bound_constant(transform_datum(datum, t, s_list),
                               transport_presentation(pres, t))
        assert abs(moved.value - cert.value) <= 1e-9 * abs(cert.value)
    report(12, "20 signed-permutation transports bit-identical; "
               "20 unimodular transports agree to 1e-9")


def test_criterion_13_infeasibility_heuristic():
    bad = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
    good = loomis_whitney_datum(2)
    for seed in range(5):
        sup, diverged = gaussian_ascent(bad, iterations=400, seed=seed)
        assert diverged and sup > 1e6, f"seed {seed}"
        sup2, diverged2 = gaussian_ascent(good, iterations=400, seed=seed)
        assert not diverged2
        assert abs(sup2 - 1.0) <= 1e-6, f"seed {seed}: {sup2}"
    report(13, "ascent diverges on the violating exponents, stays at 1 on the balanced ones")
