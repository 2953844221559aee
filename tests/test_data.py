import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hblcert.data import (
    CRITICAL,
    CandidateLattice,
    HBLDatum,
    check_scaling,
    find_critical,
    find_violation,
    generate_lattice,
    quotient_datum,
    restrict_datum,
    subspace_slack,
    transform_datum,
)
from hblcert.fixtures import fourmap_r6_datum, loomis_whitney_datum
from hblcert.linalg import Matrix, Subspace, image, span

from conftest import random_invertible, random_matrix, random_subspace


def test_scaling_examples():
    assert check_scaling(fourmap_r6_datum()) == (True, Fraction(6), Fraction(6))
    assert check_scaling(loomis_whitney_datum(2)) == (True, Fraction(3), Fraction(3))
    holds, lhs, rhs = check_scaling(loomis_whitney_datum(2, [1, 1, 1]))
    assert not holds and (lhs, rhs) == (Fraction(3), Fraction(6))


def test_slack_examples():
    r6 = fourmap_r6_datum()
    rep = subspace_slack(r6, span([[1, 0, 0, 0, 0, 0]], 6))
    assert rep.slack == 0 and rep.classification == "critical"
    v4 = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
               [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    rep = subspace_slack(r6, v4)
    assert rep.slack == 0 and rep.classification == "critical"
    lw = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
    rep = subspace_slack(lw, span([[1, 0, 0]], 3))
    assert rep.slack == Fraction(-1, 4) and rep.classification == "violating"


def test_slack_at_full_space_matches_scaling():
    for datum in (fourmap_r6_datum(), loomis_whitney_datum(3),
                  loomis_whitney_datum(2, [1, 1, 1])):
        _, lhs, rhs = check_scaling(datum)
        assert subspace_slack(datum, Subspace.full(datum.dim)).slack == rhs - lhs


def test_lattice_for_loomis_whitney_closes_at_eight():
    lat = generate_lattice(loomis_whitney_datum(2))
    assert len(lat.subspaces) == 8
    assert lat.closed
    axes = [span([[1, 0, 0]], 3), span([[0, 1, 0]], 3), span([[0, 0, 1]], 3)]
    for axis in axes:
        assert axis in lat.subspaces


def test_lattice_with_injective_map_stays_small():
    datum = HBLDatum(2, (Matrix.identity(2),), ("id",), (Fraction(1),))
    lat = generate_lattice(datum)
    assert lat.closed
    assert set(lat.subspaces) == {Subspace.zero(2), Subspace.full(2)}


def test_lattice_truncation_is_reported():
    lat = generate_lattice(loomis_whitney_datum(2), max_size=2)
    assert [s.dim for s in lat.subspaces] == [0, 3]
    assert not lat.closed


def test_find_violation_names_the_first_kernel():
    lw = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
    lat = generate_lattice(lw)
    rep = find_violation(lw, lat)
    assert rep is not None
    assert rep.subspace == span([[1, 0, 0]], 3)
    assert rep.slack == Fraction(-1, 4)


def test_find_violation_reports_scaling_failure():
    lw = loomis_whitney_datum(2, [1, 1, 1])
    rep = find_violation(lw, generate_lattice(lw))
    assert rep is not None and rep.classification == "scaling"


def test_no_violation_for_good_exponents():
    lw = loomis_whitney_datum(2)
    assert find_violation(lw, generate_lattice(lw)) is None


def test_find_critical_sorted_by_dimension():
    r6 = fourmap_r6_datum()
    seed = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                 [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    lat = generate_lattice(r6, seeds=[seed])
    reports = find_critical(r6, lat)
    dims = [r.subspace.dim for r in reports]
    assert dims == sorted(dims)
    found = {r.subspace for r in reports}
    assert span([[1, 0, 0, 0, 0, 0]], 6) in found
    assert seed in found


def test_restrict_examples():
    lw = loomis_whitney_datum(2)
    restricted, embedding = restrict_datum(lw, span([[1, 0, 0], [0, 1, 0]], 3))
    assert restricted.dim == 2
    assert restricted.ranks == (1, 1, 2)
    assert embedding == Matrix.from_rows([[1, 0], [0, 1], [0, 0]])

    same, chart = restrict_datum(lw, Subspace.full(3))
    assert same.maps == lw.maps and chart == Matrix.identity(3)

    r6 = fourmap_r6_datum()
    one, _ = restrict_datum(r6, span([[1, 0, 0, 0, 0, 0]], 6))
    assert one.dim == 1 and one.ranks == (1, 0, 0, 1)

    with pytest.raises(ValueError):
        restrict_datum(lw, Subspace.zero(3))


def test_quotient_examples():
    r6 = fourmap_r6_datum()
    v4 = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
               [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    quotient, embedding = quotient_datum(r6, v4)
    assert quotient.dim == 2
    # P1 pi1 kills e6 but keeps e5.
    e5 = image(quotient.maps[0], span([[1, 0]], 2))
    e6 = image(quotient.maps[0], span([[0, 1]], 2))
    assert e5.dim == 1 and e6.dim == 0
    assert embedding == Matrix.from_rows([[0, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 1]])

    same, _ = quotient_datum(r6, Subspace.zero(6))
    assert same.maps == r6.maps

    lw = loomis_whitney_datum(2)
    q, _ = quotient_datum(lw, span([[1, 0, 0], [0, 1, 0]], 3))
    assert q.dim == 1 and q.ranks == (1, 1, 0)

    with pytest.raises(ValueError):
        quotient_datum(lw, Subspace.full(3))


def test_transform_identity_and_permutation():
    lw = loomis_whitney_datum(2)
    same = transform_datum(lw, Matrix.identity(3), [Matrix.identity(2)] * 3)
    assert same.maps == lw.maps

    perm = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    moved = transform_datum(lw, perm, [Matrix.identity(2)] * 3)
    from hblcert.linalg import kernel
    new_kernels = {kernel(m) for m in moved.maps}
    expected = {image(perm, kernel(m)) for m in lw.maps}
    assert new_kernels == expected

    with pytest.raises(ValueError):
        transform_datum(lw, Matrix.zeros(3, 3), [Matrix.identity(2)] * 3)


def test_transform_preserves_slack_on_transported_subspaces():
    rng = random.Random(99)
    lw = loomis_whitney_datum(2)
    for _ in range(25):
        t = random_invertible(rng, 3)
        s_list = [random_invertible(rng, 2) for _ in range(3)]
        moved = transform_datum(lw, t, s_list)
        v = random_subspace(rng, 3)
        assert subspace_slack(moved, image(t, v)).slack == subspace_slack(lw, v).slack


def test_quotient_dimension_identity():
    rng = random.Random(31)
    r6 = fourmap_r6_datum()
    for _ in range(25):
        v = random_subspace(rng, 6, max_dim=5)
        if v.is_full():
            continue
        quotient, embedding = quotient_datum(r6, v)
        w = random_subspace(rng, quotient.dim)
        actual = image(embedding, w)
        for new_map, old_map in zip(quotient.maps, r6.maps):
            lhs = image(new_map, w).dim
            rhs = image(old_map, actual + v).dim - image(old_map, v).dim
            assert lhs == rhs


def test_restriction_preserves_slack():
    rng = random.Random(17)
    r6 = fourmap_r6_datum()
    for _ in range(25):
        v = random_subspace(rng, 6)
        if v.dim == 0:
            continue
        restricted, embedding = restrict_datum(r6, v)
        w = random_subspace(rng, restricted.dim)
        assert subspace_slack(restricted, w).slack \
            == subspace_slack(r6, image(embedding, w)).slack


def test_candidate_lattice_from_subspaces():
    axes = [span([[1, 0, 0]], 3), span([[0, 1, 0]], 3)]
    lat = CandidateLattice.from_subspaces(3, axes)
    assert lat.subspaces[0].is_zero() and lat.subspaces[1].is_full()
    assert not lat.closed  # missing the plane spanned by the two axes


# Exponents with unequal denominators, so the slack loops need one common one.
EXPONENTS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
             Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def reference_violation(datum, lattice):
    """The scaling failure, else the first negative slack in stored order."""
    if not check_scaling(datum)[0]:
        return subspace_slack(datum, Subspace.full(datum.dim))
    for v in lattice.subspaces:
        report = subspace_slack(datum, v)
        if report.slack < 0:
            return report
    return None


def reference_critical(datum, lattice):
    """All zero-slack proper subspaces, sorted by sort_key."""
    reports = [subspace_slack(datum, v) for v in lattice.subspaces if 0 < v.dim < datum.dim]
    return sorted((r for r in reports if r.slack == 0), key=lambda r: r.subspace.sort_key)


@given(st.integers(2, 4), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_violation_and_critical_agree_with_fraction_slack(ambient, hyp_rng):
    # A last injective map takes up the deficit m - sum_i tau_i r_i when it
    # lies in [0, m], so most data satisfy the scaling equality and the
    # candidate loops run; the rest exercise the scaling failure.
    rng = random.Random(hyp_rng.randint(0, 10**9))
    maps = [random_matrix(rng, rng.randint(1, ambient), ambient)
            for _ in range(rng.randint(1, 3))]
    exponents = [rng.choice(EXPONENTS) for _ in maps]
    deficit = ambient - sum(t * m.rank for t, m in zip(exponents, maps))
    maps.append(random_invertible(rng, ambient))
    exponents.append(deficit / ambient if 0 <= deficit <= ambient else rng.choice(EXPONENTS))
    datum = HBLDatum(ambient, tuple(maps), tuple(f"pi{k}" for k in range(len(maps))),
                     tuple(exponents))
    seeds = [random_subspace(rng, ambient) for _ in range(2)]
    lattice = generate_lattice(datum, seeds=seeds, max_size=32)
    assert find_violation(datum, lattice) == reference_violation(datum, lattice)
    criticals = find_critical(datum, lattice)
    assert criticals == reference_critical(datum, lattice)
    assert all(r.classification == CRITICAL for r in criticals)
