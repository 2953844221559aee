import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hblcert.data import HBLDatum
from hblcert.linalg import (
    Matrix,
    Subspace,
    _echelon,
    _null_space,
    canonicalize,
    image,
    kernel,
    ordered,
    quotient_rank,
    span,
    sum_and_intersection,
)
from hblcert.fixtures import fourmap_r6_datum

from conftest import apply, identity, product, random_subspace


def test_canonicalize_scaling_and_duplicates():
    assert span([[2, 0, 0], [0, 0, 3]], 3).basis == Matrix.from_rows([[1, 0, 0], [0, 0, 1]])
    assert span([[1, 1, 0], [1, 1, 0]], 3).basis == Matrix.from_rows([[1, 1, 0]])
    empty = span([], 3)
    assert empty.dim == 0 and empty.is_zero()


def test_image_examples():
    r6 = fourmap_r6_datum()
    pi1, _, pi3, _ = r6.maps
    assert image(pi1, span([[1, 0, 0, 0, 0, 0]], 6)) == span([[1, 0, 0]], 3)
    assert image(pi1, Subspace.zero(6)) == Subspace.zero(3)
    v = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    assert image(pi3, v) == span([[1, 0]], 2)


def test_kernel_examples():
    r6 = fourmap_r6_datum()
    pi3 = r6.maps[2]
    expect = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                   [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]], 6)
    assert kernel(pi3) == expect
    assert kernel(identity(3)) == Subspace.zero(3)
    assert kernel(Matrix.zeros(2, 2)) == Subspace.full(2)


def test_sum_intersect_examples():
    assert (span([[1, 0, 0]], 3) + span([[0, 1, 0]], 3)) == span([[1, 0, 0], [0, 1, 0]], 3)
    assert (span([[1, 0, 0], [0, 1, 0]], 3) & span([[0, 1, 0], [0, 0, 1]], 3)) \
        == span([[0, 1, 0]], 3)


def test_r6_kernel_intersection_from_the_chain_analysis():
    # With V = {0}: (V + ker pi1) cap (V + ker pi2) is the fourth axis.
    r6 = fourmap_r6_datum()
    k1, k2 = kernel(r6.maps[0]), kernel(r6.maps[1])
    assert (k1 & k2) == span([[0, 0, 0, 1, 0, 0]], 6)


def test_orthogonal_complement_examples():
    v4 = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
               [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    assert v4.perp() == span([[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], 6)
    v6 = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
               [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 1]], 6)
    assert v6.perp() == span([[0, 0, 0, 0, 1, -1]], 6)
    assert Subspace.zero(4).perp() == Subspace.full(4)


def test_projection_matrix_examples():
    assert span([[1, 1]], 2).projector() == Matrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    )
    assert Subspace.full(3).projector() == identity(3)
    assert span([[1, 0, 0]], 3).projector() == Matrix.from_rows(
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    )
    assert Subspace.zero(2).projector() == Matrix.zeros(2, 2)


def test_matrix_inverse():
    m = Matrix.from_rows([[2, 1], [1, 1]])
    assert m @ m.inverse() == identity(2)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_retraction_is_left_inverse_of_chart():
    rng = random.Random(7)
    for _ in range(50):
        v = random_subspace(rng, 5)
        if v.dim == 0:
            continue
        r = v.retraction()
        e = v.basis.transpose()
        assert r @ e == identity(v.dim)


@st.composite
def generator_matrices(draw):
    ambient = draw(st.integers(1, 5))
    rows = draw(st.integers(0, 5))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    data = draw(st.lists(st.lists(entries, min_size=ambient, max_size=ambient),
                         min_size=rows, max_size=rows))
    return Matrix.from_rows(data, cols=ambient)


@given(generator_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_canonical_form_is_span_invariant(mat, rng):
    v = canonicalize(mat)
    rows = [list(mat.row(i)) for i in range(mat.rows)]
    rng.shuffle(rows)
    # Random invertible row operations preserve the span.
    for _ in range(4):
        if len(rows) < 2:
            break
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i != j:
            c = Fraction(rng.randint(-2, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        k = rng.randrange(len(rows))
        scale = Fraction(rng.choice([1, 2, 3, -1, -2]))
        rows[k] = [scale * x for x in rows[k]]
    assert canonicalize(Matrix.from_rows(rows, cols=mat.cols)) == v
    assert hash(v) == hash((v.ambient, v.echelon))


@given(st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_modular_dimension_law(ambient, hyp_rng):
    rng = random.Random(hyp_rng.randint(0, 10**9))
    u = random_subspace(rng, ambient)
    w = random_subspace(rng, ambient)
    assert (u + w).dim + (u & w).dim == u.dim + w.dim


@given(st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_intersection_duality(ambient, hyp_rng):
    rng = random.Random(hyp_rng.randint(0, 10**9))
    u = random_subspace(rng, ambient)
    w = random_subspace(rng, ambient)
    assert (u & w) == (u.perp() + w.perp()).perp()
    assert u.perp().perp() == u
    assert u.dim + u.perp().dim == ambient


@given(st.integers(1, 5), st.randoms(use_true_random=False),
       st.sampled_from(["random", "zero", "full", "equal", "above", "below"]))
@settings(max_examples=200, deadline=None)
def test_inclusion_and_quotient_rank_match_the_sum(ambient, hyp_rng, kind):
    rng = random.Random(hyp_rng.randint(0, 10**9))
    u = random_subspace(rng, ambient)
    other = random_subspace(rng, ambient)
    w = {"random": other, "zero": Subspace.zero(ambient), "full": Subspace.full(ambient),
         "equal": u, "above": u + other, "below": u & other}[kind]
    for a, b in ((u, w), (w, u)):
        assert (a <= b) == ((a + b) == b)
        assert quotient_rank(a, b) == (a + b).dim - a.dim
    assert u.perp() == kernel(u.basis)
    with pytest.raises(ValueError):
        u <= Subspace.full(ambient + 1)
    with pytest.raises(ValueError):
        quotient_rank(u, Subspace.zero(ambient + 1))


def reference_rref(rows, cols):
    """Plain Gauss-Jordan in Fraction arithmetic: divide by the pivot, clear."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def reference_span(rows, ambient):
    """The RREF basis of the span, as a Matrix."""
    reduced, _ = reference_rref(rows, ambient)
    return Matrix.from_rows(reduced, cols=ambient)


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    """Integer matrices with each row and each column divided by its own
    denominator, so that rows carry different denominators."""
    cols = draw(st.integers(1, 6)) if cols is None else cols
    rows = draw(st.integers(0, 6)) if rows is None else rows
    ints = draw(st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    row_dens = draw(st.lists(st.integers(1, 6), min_size=rows, max_size=rows))
    col_dens = draw(st.lists(st.integers(1, 6), min_size=cols, max_size=cols))
    return Matrix.from_rows(
        [[Fraction(x, rd * cd) for x, cd in zip(row, col_dens)]
         for row, rd in zip(ints, row_dens)], cols=cols)


def assert_echelon_is_the_primitive_basis(s):
    # The stored integer rows are the basis rows, each scaled to primitive
    # integers; the leading ones make every pivot positive.
    assert len(s.echelon) == s.dim
    for ints, row in zip(s.echelon, s.basis_rows()):
        scaled = [x * lcm(*(y.denominator for y in row)) for x in row]
        g = gcd(*(int(x) for x in scaled))
        assert ints == tuple(int(x) // g for x in scaled)


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_fraction_gauss_jordan(mat):
    rows = [mat.row(i) for i in range(mat.rows)]
    assert canonicalize(mat).basis == reference_span(rows, mat.cols)


def reference_null_space(rows, cols):
    """The RREF basis of the null space, as a Matrix: one vector per free
    column of the Fraction Gauss-Jordan."""
    reduced, pivots = reference_rref(rows, cols)
    vectors = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(cols)]
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        vectors.append(v)
    return reference_span(vectors, cols)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_stops_at_full_rank_and_extends_a_start(data):
    """Rows read lazily up to full rank, and an echelon extended by fresh
    rows, give the pivots, rows and null space of the Fraction Gauss-Jordan
    of all the rows; zero rows and rows dependent after full rank included."""
    cols = data.draw(st.integers(1, 5))
    row = st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)
    rows = data.draw(st.lists(row, max_size=6))
    if data.draw(st.booleans()):
        # Full rank, then a zero row and a dependent one.
        units = [[int(i == j) for j in range(cols)] for i in range(cols)]
        rows += data.draw(st.permutations(units)) + [[0] * cols, [2 * x for x in units[0]]]
    rows.insert(data.draw(st.integers(0, len(rows))), [0] * cols)
    reduced, pivots = reference_rref(rows, cols)
    null = reference_null_space(rows, cols)
    lazy = iter(rows)
    cut = data.draw(st.integers(0, len(rows)))
    for got in (_echelon(rows, cols), _echelon(lazy, cols),
                _echelon(rows[cut:], cols, _echelon(rows[:cut], cols))):
        assert got[1] == pivots
        assert [[Fraction(x, r[p]) for x in r] for r, p in zip(*got)] == reduced
        assert _null_space(*got, cols).basis == null
    # The lazy read stopped at the row that brought the rank to cols.
    full = (k for k in range(len(rows)) if len(reference_rref(rows[:k + 1], cols)[1]) == cols)
    assert len(rows) - len(list(lazy)) == next(full, len(rows) - 1) + 1


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matrix_is_one_denominator_over_integer_rows(data):
    mat = data.draw(rational_matrices())
    rows = [mat.row(i) for i in range(mat.rows)]
    flat = [x for row in mat.ints for x in row]
    assert mat.den == lcm(*(x.denominator for row in rows for x in row))
    assert gcd(mat.den, *flat) == 1
    assert [x for row in rows for x in row] == [Fraction(x, mat.den) for x in flat]
    copy = Matrix.from_rows(rows, cols=mat.cols)
    assert copy == mat and hash(copy) == hash(mat)
    assert hash(mat) == hash((mat.rows, mat.cols, mat.den, mat.ints))
    assert mat.transpose().transpose() == mat
    other = data.draw(rational_matrices(rows=mat.cols))
    assert mat @ other == Matrix.from_rows(product(mat, other), cols=other.cols)
    n = data.draw(st.integers(1, 5))
    square = data.draw(rational_matrices(rows=n, cols=n))
    if kernel(square).dim:
        with pytest.raises(ValueError, match="singular"):
            square.inverse()
    else:
        inverse = square.inverse()
        assert square @ inverse == inverse @ square == identity(n)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_sum_and_intersection_matches_duality(data):
    ambient = data.draw(st.integers(1, 5))
    u = canonicalize(data.draw(rational_matrices(cols=ambient)))
    w = canonicalize(data.draw(rational_matrices(cols=ambient)))
    total, meet = sum_and_intersection(u, w)
    assert total.basis == reference_span(u.basis_rows() + w.basis_rows(), ambient)
    assert meet == (u.perp() + w.perp()).perp()
    assert (total, meet) == (u + w, u & w)
    assert total.dim + meet.dim == u.dim + w.dim
    for s in (total, meet, u.perp()):
        assert_echelon_is_the_primitive_basis(s)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_image_and_image_dims_with_unequal_row_denominators(data):
    ambient = data.draw(st.integers(1, 5))
    maps = tuple(data.draw(rational_matrices(rows=data.draw(st.integers(1, 4)), cols=ambient))
                 for _ in range(data.draw(st.integers(1, 3))))
    datum = HBLDatum(ambient, maps, tuple(f"p{i}" for i in range(len(maps))),
                     (Fraction(0),) * len(maps))
    v = canonicalize(data.draw(rational_matrices(cols=ambient)))
    for m in maps:
        assert image(m, v).basis == reference_span([apply(m, b) for b in v.basis_rows()], m.rows)
        assert_echelon_is_the_primitive_basis(image(m, v))
    assert datum.image_dims(v) == tuple(image(m, v).dim for m in maps)
    shifted = datum.with_exponents((Fraction(1),) * len(maps))
    assert shifted.image_dims(v) == datum.image_dims(v)


@given(st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_projector_laws(ambient, hyp_rng):
    rng = random.Random(hyp_rng.randint(0, 10**9))
    u = random_subspace(rng, ambient)
    p = u.projector()
    assert p @ p == p
    assert p.transpose() == p
    for row in u.basis_rows():
        assert apply(p, row) == tuple(row)
    for row in u.perp().basis_rows():
        assert all(x == 0 for x in apply(p, row))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_ordered_matches_the_fraction_basis_order(data):
    # Spans of rows with fractional and negative entries, of mixed dimension:
    # the integer keys sort them as (dim, Fraction RREF entries) does.
    ambient = data.draw(st.integers(1, 5))
    subs = {canonicalize(data.draw(rational_matrices(cols=ambient)))
            for _ in range(data.draw(st.integers(0, 8)))}
    expected = sorted(subs, key=lambda v: (v.dim, v.basis.entries))
    assert ordered(subs) == expected
    assert ordered(reversed(expected)) == expected


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_perp_in_is_the_meet_with_the_complement(data):
    # One null space over m columns gives what the Zassenhaus elimination
    # over 2m gives, for any pair, nested or not.
    ambient = data.draw(st.integers(1, 5))
    u = canonicalize(data.draw(rational_matrices(cols=ambient)))
    w = canonicalize(data.draw(rational_matrices(cols=ambient)))
    for low, high in ((u, w), (u & w, w), (u, u + w)):
        assert low.perp_in(high) == high & low.perp()
    with pytest.raises(ValueError, match="ambient mismatch"):
        u.perp_in(Subspace.zero(ambient + 1))
