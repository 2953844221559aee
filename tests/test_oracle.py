import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hblcert import oracle
from hblcert.builder import build_presentation
from hblcert.data import HBLDatum, transform_datum
from hblcert.fixtures import (
    ALL_FIXTURES,
    fourmap_r6_datum,
    fourmap_r6_presentation,
    loomis_whitney_datum,
    loomis_whitney_presentation,
)
from hblcert.flowgraph import WeightFunction
from hblcert.lattice import generate_lattice
from hblcert.linalg import Matrix
from hblcert.oracle import (
    GaussianInput,
    GridFunction,
    gaussian_ascent,
    gaussian_ratio,
    grid_factorize,
    orthonormal_forms,
    quadrature_check,
)
from hblcert.presentation import bound_constant

from conftest import identity


def test_gaussian_ratio_loomis_whitney_identity():
    datum = loomis_whitney_datum(2)
    assert gaussian_ratio(datum, GaussianInput.identity(datum)) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_ratio_diverges_on_degenerate_sum():
    # A single rank-one map cannot control R^2, so the sum matrix is singular.
    datum = HBLDatum(2, (Matrix.from_rows([[1, 0]], cols=2),), ("x",), (Fraction(1),))
    assert gaussian_ratio(datum, GaussianInput.identity(datum)) == math.inf


def test_gaussian_ratio_r6_identity_below_the_bound():
    datum, pres = fourmap_r6_datum(), fourmap_r6_presentation()
    cert = bound_constant(datum, pres)
    ratio = gaussian_ratio(datum, GaussianInput.identity(datum))
    assert ratio <= cert.value * (1 + 1e-9)


def test_gaussian_ratio_rejects_bad_matrices():
    datum = loomis_whitney_datum(2)
    mats = [np.eye(2) for _ in range(3)]
    mats[0] = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError, match="positive definite"):
        gaussian_ratio(datum, GaussianInput(tuple(mats)))
    mats[0] = np.array([[1.0, 0.5], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_ratio(datum, GaussianInput(tuple(mats)))


def two_dim_test_datum():
    """x1, x2 and x1+x2 with exponents 2/3: a coupled planar system."""
    maps = (
        Matrix.from_rows([[1, 0]], cols=2),
        Matrix.from_rows([[0, 1]], cols=2),
        Matrix.from_rows([[1, 1]], cols=2),
    )
    t = Fraction(2, 3)
    return HBLDatum(2, maps, ("x", "y", "diag"), (t, t, t))


def _direct_gaussian_quadrature(datum, mats, half_width=8.0, resolution=600):
    """Midpoint quadrature of both sides of the inequality at Gaussian inputs."""
    forms = orthonormal_forms(datum)
    h = 2 * half_width / resolution
    centers = -half_width + h * (np.arange(resolution) + 0.5)
    mesh = np.meshgrid(*([centers] * datum.dim), indexing="ij")
    points = np.stack([mm.ravel() for mm in mesh])
    integrand = np.ones(points.shape[1])
    rhs = 1.0
    for tau, form, a in zip(datum.exponents, forms, mats):
        t = float(tau)
        y = form @ points
        quad_form = np.einsum("ij,jk,ik->k", a, y, y) if y.shape[0] else 0.0
        integrand = integrand * np.exp(-math.pi * t * quad_form)
        r = a.shape[0]
        if r == 0:
            continue
        ycent = np.meshgrid(*([centers] * r), indexing="ij")
        ypts = np.stack([mm.ravel() for mm in ycent])
        mass = float(np.exp(-math.pi * np.einsum("ij,jk,ik->k", a, ypts, ypts)).sum()) * h**r
        rhs *= mass**t
    lhs = float(integrand.sum()) * h**datum.dim
    return lhs / rhs


def test_gaussian_ratio_matches_direct_quadrature():
    datum = two_dim_test_datum()
    rng = np.random.default_rng(5)
    for _ in range(3):
        # Wishart-like draws as GaussianInput.random makes them, at a smaller scale.
        ws = [rng.normal(scale=0.6, size=(r, r)) for r in datum.ranks]
        g = GaussianInput(tuple(w @ w.T + 0.1 * np.eye(len(w)) for w in ws))
        expected = _direct_gaussian_quadrature(datum, g.matrices)
        assert gaussian_ratio(datum, g) == pytest.approx(expected, rel=1e-4)


def test_gaussian_ratio_matches_direct_quadrature_dim1():
    datum = HBLDatum(1, (identity(1), identity(1)), ("a", "b"),
                     (Fraction(1, 2), Fraction(1, 2)))
    g = GaussianInput((np.array([[2.0]]), np.array([[0.5]])))
    expected = _direct_gaussian_quadrature(datum, g.matrices, half_width=10.0)
    assert gaussian_ratio(datum, g) == pytest.approx(expected, rel=1e-4)


def test_ascent_bounded_case_reaches_the_sharp_value():
    sup, diverged = gaussian_ascent(loomis_whitney_datum(2), iterations=400, seed=0)
    assert type(diverged) is bool and not diverged
    assert sup == pytest.approx(1.0, abs=1e-6)


def test_ascent_detects_the_dimension_violation():
    datum = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
    sup, diverged = gaussian_ascent(datum, iterations=400, seed=0)
    assert diverged and sup > 1e6


def test_ascent_detects_scaling_failure_by_dilation():
    datum = loomis_whitney_datum(2, [1, 1, 1])
    sup, diverged = gaussian_ascent(datum, iterations=400, seed=0)
    assert type(diverged) is bool and diverged and sup > 1e6


def _permutation(p):
    return Matrix.from_rows([[1 if c == j else 0 for c in range(len(p))] for j in p],
                            cols=len(p))


def test_ascent_detects_the_violation_under_every_relabelling():
    # Every coordinate permutation of R^3 and codomain swap of the three
    # maps, from three starts: a start-dependent probe missed some of these.
    datum = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
    swaps = (_permutation((0, 1)), _permutation((1, 0)))
    for p in itertools.permutations(range(3)):
        for pattern in itertools.product((0, 1), repeat=3):
            moved = transform_datum(datum, _permutation(p), [swaps[k] for k in pattern])
            for start in range(3):
                sup, diverged = gaussian_ascent(moved, iterations=400, seed=start)
                assert diverged and sup > 1e6, (p, pattern, start, sup)


def test_ascent_detects_a_violation_carried_by_equal_maps():
    # x2 twice at 1/4 each and the identity at 3/4: the line x2 = 0 has slack
    # 3/4 - 1 < 0. Scaled apart, rounding would break the copies' exact
    # parallelism and the run could converge to a feasible perturbation.
    x1, x2 = Matrix.from_rows([[1, 0]]), Matrix.from_rows([[0, 1]])
    datum = HBLDatum(2, (identity(2), x2, x2, x1), ("id", "a", "b", "c"),
                     (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4), Fraction(0)))
    for start in range(10):
        sup, diverged = gaussian_ascent(datum, iterations=400, seed=start)
        assert diverged and sup > 1e6, (start, sup)


def test_ascent_keeps_the_sup_when_a_map_is_split_in_two():
    # pi1 carried twice at 1/4 is Loomis-Whitney on R^3, whose sup is 1.
    pi = loomis_whitney_datum(2).maps
    datum = HBLDatum(3, (pi[0], pi[1], pi[2], pi[0]), ("a", "b", "c", "d"),
                     (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)))
    for start in range(3):
        sup, diverged = gaussian_ascent(datum, iterations=400, seed=start)
        assert not diverged
        assert abs(sup - 1) <= 1e-9, (start, sup)


@pytest.mark.parametrize("pad", ["zero row", "zero map"])
def test_gaussian_side_ignores_a_zero_row_and_a_zero_map(pad):
    # A zero row keeps pi1 of rank 2 but no longer onto its codomain, so its
    # chart is the QR one; a zero map at tau = 0 has rank 0 and no chart.
    lw2 = loomis_whitney_datum(2)
    pi = lw2.maps
    if pad == "zero row":
        pi1 = Matrix.from_rows([*map(pi[0].row, range(pi[0].rows)), (0, 0, 0)])
        padded = HBLDatum(3, (pi1, *pi[1:]), lw2.names, lw2.exponents)
        charted, shape = 0, (2, 3)
    else:
        padded = HBLDatum(3, (*pi, Matrix.zeros(1, 3)), (*lw2.names, "z"), (*lw2.exponents, 0))
        charted, shape = 3, (0, 3)
    assert orthonormal_forms(padded)[charted].shape == shape
    readings = [(gaussian_ratio(datum, GaussianInput.identity(datum)),
                 gaussian_ratio(datum, GaussianInput.random(datum, np.random.default_rng(7))),
                 *gaussian_ascent(datum, 400, 0)) for datum in (lw2, padded)]
    assert readings[1] == pytest.approx(readings[0], rel=1e-12)


@pytest.mark.parametrize("name", ["lw2", "lw3", "lw4", "lw5", "r6"])
def test_ascent_stops_once_it_reaches_the_sup(name, monkeypatch):
    make_datum, make_pres = ALL_FIXTURES[name]
    datum = make_datum()
    c = bound_constant(datum, make_pres()).value
    calls = []
    evaluate = oracle.ascent_log_ratio
    monkeypatch.setattr(oracle, "ascent_log_ratio", lambda *a: calls.append(1) or evaluate(*a))
    for start in range(3):
        calls.clear()
        sup, diverged = gaussian_ascent(datum, iterations=400, seed=start)
        assert not diverged
        assert abs(sup - c) <= 1e-9 * c, (start, sup, c)
        assert len(calls) <= 200, (start, len(calls))


def step_function(rng, shape, block=4, lo=0.0, hi=2.0):
    blocks = rng.uniform(lo, hi, size=tuple(s // block for s in shape))
    values = blocks
    for axis in range(len(shape)):
        values = values.repeat(block, axis)
    return values


def test_grid_factorize_reconstructs_step_functions():
    rng = np.random.default_rng(3)
    graph = loomis_whitney_presentation(2).graph
    values = step_function(rng, (16, 16, 16), block=4, lo=0.1, hi=2.0)
    f = GridFunction(((0.0, 1.0),) * 3, values)
    phi = WeightFunction.scalar([1, 1, 1])
    edge_functions, err = grid_factorize(f, graph, phi)
    assert err < 1e-9
    assert len(edge_functions) == 3
    for g in edge_functions:
        assert g.values.shape == (16, 16, 16)


def test_grid_factorize_constant_function_has_unit_line_sums():
    graph = loomis_whitney_presentation(2).graph
    f = GridFunction(((0.0, 1.0),) * 3, np.full((8, 8, 8), 3.0))
    phi = WeightFunction.scalar([1, 1, 1])
    edge_functions, err = grid_factorize(f, graph, phi)
    assert err < 1e-12
    steps = f.steps()
    for k, (a, b) in enumerate(graph.edges):
        new_axis = k  # chain adds axes in order
        sums = edge_functions[k].values.sum(axis=new_axis) * steps[new_axis]
        # Constant edge functions integrate to exactly one along the new axis.
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_grid_factorize_half_support():
    rng = np.random.default_rng(9)
    graph = loomis_whitney_presentation(2).graph
    values = step_function(rng, (16, 16, 16), block=4, lo=0.5, hi=2.0)
    values[8:] = 0.0
    f = GridFunction(((0.0, 1.0),) * 3, values)
    phi = WeightFunction.scalar([Fraction(1, 2)] * 3)
    _, err = grid_factorize(f, graph, phi)
    assert err < 1e-9


def test_grid_factorize_rejects_bad_inputs():
    from hblcert.flowgraph import GraphDecomposition
    from hblcert.linalg import Subspace, span

    diag = span([[1, 1]], 2)
    tilted = GraphDecomposition.build(
        2, [Subspace.zero(2), diag, Subspace.full(2)],
        [(Subspace.zero(2), diag), (diag, Subspace.full(2))],
    )
    f2 = GridFunction(((0.0, 1.0), (0.0, 1.0)), np.ones((4, 4)))
    with pytest.raises(ValueError, match="coordinate subspace"):
        grid_factorize(f2, tilted, WeightFunction.scalar([1, 1]))

    graph = loomis_whitney_presentation(2).graph
    f3 = GridFunction(((0.0, 1.0),) * 3, np.ones((4, 4, 4)))
    unbalanced = WeightFunction.scalar([Fraction(1, 2), 1, 1])
    with pytest.raises(ValueError, match="balanced"):
        grid_factorize(f3, graph, unbalanced)


def test_grid_factorize_line_sum_guard_raises_floating_point_error():
    from hblcert.flowgraph import GraphDecomposition
    from hblcert.linalg import Subspace

    # Subnormal samples: the marginal 4u/3 rounds to u, so the quotients
    # 1, 1, 2 integrate to 4/3 along the single axis.
    u = 5e-324
    f = GridFunction(((0.0, 1.0),), np.array([u, u, 2 * u]))
    line = GraphDecomposition.build(1, [Subspace.zero(1), Subspace.full(1)],
                                    [(Subspace.zero(1), Subspace.full(1))])
    with pytest.raises(FloatingPointError, match="edge 0 line sums exceed 1"):
        grid_factorize(f, line, WeightFunction.scalar([1]))


def test_quadrature_unit_cube_is_sharp():
    datum = loomis_whitney_datum(2)
    cube = GridFunction(((0.0, 1.0), (0.0, 1.0)), np.ones((64, 64)))
    lhs, rhs, ratio = quadrature_check(datum, 1.0, [cube] * 3,
                                       box=((0.0, 1.0),) * 3, resolution=64)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_quadrature_random_steps_stay_dominated():
    rng = np.random.default_rng(17)
    datum = loomis_whitney_datum(2)
    for _ in range(10):
        fs = [GridFunction(((0.0, 1.0), (0.0, 1.0)),
                           step_function(rng, (32, 32), block=8, hi=1.5))
              for _ in range(3)]
        _, _, ratio = quadrature_check(datum, 1.0, fs,
                                       box=((0.0, 1.0),) * 3, resolution=32)
        assert ratio <= 1 + 1e-6


def test_quadrature_zero_function_reports_zero_ratio():
    datum = loomis_whitney_datum(2)
    zero = GridFunction(((0.0, 1.0), (0.0, 1.0)), np.zeros((8, 8)))
    lhs, rhs, ratio = quadrature_check(datum, 1.0, [zero] * 3,
                                       box=((0.0, 1.0),) * 3, resolution=8)
    assert (lhs, rhs, ratio) == (0.0, 0.0, 0.0)


SQUARE = GridFunction(((0.0, 1.0), (0.0, 1.0)), np.ones((4, 4)))
SEGMENT = GridFunction(((0.0, 1.0),), np.ones(4))


@pytest.mark.parametrize("datum, fs, message", [
    (loomis_whitney_datum(3), [SQUARE] * 4, "quadrature beyond dimension 3 is unsupported"),
    (loomis_whitney_datum(2), [SQUARE] * 2, "need one grid function per map"),
    (loomis_whitney_datum(2), [SEGMENT] * 3, "grid function dimension does not match map rank"),
], ids=["dimension", "count", "rank"])
def test_quadrature_rejects_input_it_cannot_integrate(datum, fs, message):
    with pytest.raises(ValueError) as raised:
        quadrature_check(datum, 1.0, fs, box=((0.0, 1.0),) * datum.dim, resolution=4)
    assert str(raised.value) == message


# Maps that are not surjective, each with a product extremiser: the pivot
# chart y of (x1, x1)'s image is the point (y, y), whose own measure is
# sqrt(2) dy, and (x1, x2) of (x1, x2, x1+x2)'s image is a point of measure
# sqrt(3) dx1 dx2; the built constants are 1/sqrt(2) and 1/sqrt(3).
NON_SURJECTIVE = {
    "diagonal-r2": (HBLDatum(2, (Matrix.from_rows([[1, 0], [1, 0]], cols=2),
                                 Matrix.from_rows([[0, 1]], cols=2)),
                             ("d", "y"), (Fraction(1), Fraction(1))), 1 / math.sqrt(2)),
    "plane-r3": (HBLDatum(3, (Matrix.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 0]], cols=3),
                              Matrix.from_rows([[0, 0, 1]], cols=3)),
                          ("p", "z"), (Fraction(1), Fraction(1))), 1 / math.sqrt(3)),
}


@pytest.mark.parametrize("name", NON_SURJECTIVE)
def test_quadrature_measures_each_image_in_its_own_volume(name):
    datum, constant = NON_SURJECTIVE[name]
    cert = bound_constant(datum, build_presentation(datum, generate_lattice(datum)))
    assert cert.value == pytest.approx(constant, rel=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(3):
        fs = [GridFunction(((0.0, 1.0),) * r, step_function(rng, (16,) * r, block=4, hi=1.0))
              for r in datum.ranks]
        _, _, ratio = quadrature_check(datum, cert.value, fs,
                                       box=((0.0, 1.0),) * datum.dim, resolution=16)
        assert ratio == pytest.approx(1.0, abs=1e-9)


def test_gaussian_domination_for_all_fixtures():
    rng = np.random.default_rng(0)
    for name, (make_datum, make_pres) in ALL_FIXTURES.items():
        datum, pres = make_datum(), make_pres()
        cert = bound_constant(datum, pres)
        for _ in range(30):
            ratio = gaussian_ratio(datum, GaussianInput.random(datum, rng))
            assert ratio <= cert.value * (1 + 1e-9), name
