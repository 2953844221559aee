import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hblcert import lattice as lattice_module
from hblcert.data import (
    HBLDatum,
    quotient_datum,
    restrict_datum,
    subspace_slack,
    transform_datum,
)
from hblcert.fixtures import ALL_FIXTURES, fourmap_r6_datum, loomis_whitney_datum
from hblcert.lattice import CandidateLattice, _related, generate_lattice, is_ready
from hblcert.linalg import Matrix, Subspace, image, image_rank, kernel, span

from conftest import (
    check_scaling,
    fraction_slack,
    identity,
    random_invertible,
    random_matrix,
    random_signed_permutation,
    random_subspace,
    reference_critical,
    reference_violation,
    scan,
)


def test_scaling_examples():
    assert check_scaling(fourmap_r6_datum()) == (True, Fraction(6), Fraction(6))
    assert check_scaling(loomis_whitney_datum(2)) == (True, Fraction(3), Fraction(3))
    holds, lhs, rhs = check_scaling(loomis_whitney_datum(2, [1, 1, 1]))
    assert not holds and (lhs, rhs) == (Fraction(3), Fraction(6))


def test_slack_examples():
    r6 = fourmap_r6_datum()
    assert subspace_slack(r6, span([[1, 0, 0, 0, 0, 0]], 6)) == 0
    v4 = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
               [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    assert subspace_slack(r6, v4) == 0
    lw = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
    assert subspace_slack(lw, span([[1, 0, 0]], 3)) == Fraction(-1, 4)


def test_slack_at_full_space_matches_scaling():
    for datum in (fourmap_r6_datum(), loomis_whitney_datum(3),
                  loomis_whitney_datum(2, [1, 1, 1])):
        full = Subspace.full(datum.dim)
        holds, lhs, rhs = check_scaling(datum)
        assert (lhs, rhs - lhs) == (datum.dim, fraction_slack(datum, full))
        assert holds == (rhs == lhs)
        assert subspace_slack(datum, full) == fraction_slack(datum, full)


def test_lattice_for_loomis_whitney_closes_at_eight():
    lat = generate_lattice(loomis_whitney_datum(2))
    assert len(lat.subspaces) == 8
    assert lat.closed
    axes = [span([[1, 0, 0]], 3), span([[0, 1, 0]], 3), span([[0, 0, 1]], 3)]
    for axis in axes:
        assert axis in lat.subspaces


def test_lattice_with_injective_map_stays_small():
    datum = HBLDatum(2, (identity(2),), ("id",), (Fraction(1),))
    lat = generate_lattice(datum)
    assert lat.closed
    assert set(lat.subspaces) == {Subspace.zero(2), Subspace.full(2)}


def test_lattice_truncation_is_reported():
    lat = generate_lattice(loomis_whitney_datum(2), max_size=2)
    assert [s.dim for s in lat.subspaces] == [0, 3]
    assert not lat.closed


# The scan of the candidate polytope's rows (conftest.scan) finds violations
# and critical subspaces.
def test_find_violation_names_the_first_kernel():
    lw = loomis_whitney_datum(2, [Fraction(3, 4), Fraction(3, 4), 0])
    violation, _ = scan(lw, generate_lattice(lw))
    assert violation == (span([[1, 0, 0]], 3), Fraction(-1, 4))


def test_find_violation_reports_scaling_failure():
    lw = loomis_whitney_datum(2, [1, 1, 1])
    violation, _ = scan(lw, generate_lattice(lw))
    assert violation == (Subspace.full(3), Fraction(3))


def test_no_violation_for_good_exponents():
    lw = loomis_whitney_datum(2)
    assert scan(lw, generate_lattice(lw))[0] is None


def test_find_critical_sorted_by_dimension():
    r6 = fourmap_r6_datum()
    seed = span([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                 [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]], 6)
    lat = generate_lattice(r6, seeds=[seed])
    _, criticals = scan(r6, lat)
    dims = [v.dim for v in criticals]
    assert dims == sorted(dims)
    assert span([[1, 0, 0, 0, 0, 0]], 6) in criticals
    assert seed in criticals


def test_restrict_examples():
    lw = loomis_whitney_datum(2)
    restricted, embedding = restrict_datum(lw, span([[1, 0, 0], [0, 1, 0]], 3))
    assert restricted.dim == 2
    assert restricted.ranks == (1, 1, 2)
    assert embedding == Matrix.from_rows([[1, 0], [0, 1], [0, 0]])

    same, chart = restrict_datum(lw, Subspace.full(3))
    assert same.maps == lw.maps and chart == identity(3)

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
    same = transform_datum(lw, identity(3), [identity(2)] * 3)
    assert same.maps == lw.maps

    perm = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    moved = transform_datum(lw, perm, [identity(2)] * 3)
    new_kernels = {kernel(m) for m in moved.maps}
    expected = {image(perm, kernel(m)) for m in lw.maps}
    assert new_kernels == expected

    with pytest.raises(ValueError):
        transform_datum(lw, Matrix.zeros(3, 3), [identity(2)] * 3)


def test_transform_preserves_slack_on_transported_subspaces():
    rng = random.Random(99)
    lw = loomis_whitney_datum(2)
    for _ in range(25):
        t = random_invertible(rng, 3)
        s_list = [random_invertible(rng, 2) for _ in range(3)]
        moved = transform_datum(lw, t, s_list)
        v = random_subspace(rng, 3)
        assert subspace_slack(moved, image(t, v)) == subspace_slack(lw, v)


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


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_quotient_maps_match_orthogonal_projections(hyp_rng):
    """The quotient maps and P-perp pi_i on V-perp, with P-perp the orthogonal
    projection off pi_i(V), have the same kernels and image dimensions."""
    rng = random.Random(hyp_rng.randint(0, 10**9))
    m = rng.randint(1, 5)
    maps = tuple(random_matrix(rng, rng.randint(1, 4), m) for _ in range(rng.randint(1, 3)))
    datum = HBLDatum(m, maps, tuple(f"p{i}" for i in range(len(maps))),
                     (Fraction(0),) * len(maps))
    v = random_subspace(rng, m, max_dim=m - 1)
    quotient, embedding = quotient_datum(datum, v)
    w = random_subspace(rng, quotient.dim)
    for new_map, old_map in zip(quotient.maps, maps):
        reference = image(old_map, v).perp.projector() @ old_map @ embedding
        assert kernel(new_map) == kernel(reference)
        assert new_map.cols - kernel(new_map).dim == reference.cols - kernel(reference).dim
        assert image(new_map, w).dim == image(reference, w).dim


def test_restriction_preserves_slack():
    rng = random.Random(17)
    r6 = fourmap_r6_datum()
    for _ in range(25):
        v = random_subspace(rng, 6)
        if v.dim == 0:
            continue
        restricted, embedding = restrict_datum(r6, v)
        w = random_subspace(rng, restricted.dim)
        assert subspace_slack(restricted, w) == subspace_slack(r6, image(embedding, w))


def test_candidate_lattice_from_subspaces():
    axes = [span([[1, 0, 0]], 3), span([[0, 1, 0]], 3)]
    lat = CandidateLattice.from_subspaces(3, axes)
    assert lat.subspaces[0].is_zero() and lat.subspaces[1].is_full()
    assert not lat.closed  # missing the plane spanned by the two axes


# Exponents with unequal denominators, so the slack loops need one common one.
EXPONENTS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
             Fraction(2, 3), Fraction(3, 4), Fraction(1)]


@given(st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_slack_agrees_with_fraction_reference(ambient, hyp_rng):
    # Exponents 1/4, 1/3 and 2/3 have unequal denominators, so the integer
    # gap of subspace_slack is taken over their common denominator 12.
    rng = random.Random(hyp_rng.randint(0, 10**9))
    maps = tuple(random_matrix(rng, rng.randint(1, ambient), ambient)
                 for _ in range(rng.randint(1, 4)))
    exponents = tuple(rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(2, 3)])
                      for _ in maps)
    datum = HBLDatum(ambient, maps, tuple(f"pi{k}" for k in range(len(maps))), exponents)
    subspaces = [Subspace.zero(ambient), Subspace.full(ambient), *map(kernel, maps)]
    subspaces += [random_subspace(rng, ambient) for _ in range(4)]
    for v in subspaces:
        assert subspace_slack(datum, v) == fraction_slack(datum, v)


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
    deficit = ambient - sum(t * (m.cols - kernel(m).dim) for t, m in zip(exponents, maps))
    maps.append(random_invertible(rng, ambient))
    exponents.append(deficit / ambient if 0 <= deficit <= ambient else rng.choice(EXPONENTS))
    datum = HBLDatum(ambient, tuple(maps), tuple(f"pi{k}" for k in range(len(maps))),
                     tuple(exponents))
    seeds = [random_subspace(rng, ambient) for _ in range(2)]
    lattice = generate_lattice(datum, seeds=seeds, max_size=32)
    assert scan(datum, lattice) == (reference_violation(datum, lattice),
                                    reference_critical(datum, lattice))


def reference_lattice(datum, seeds, max_size):
    """generate_lattice written plainly: `+`, `&` and list membership by `==`."""
    subs, log = [], []
    overflow = False

    def push(s, why):
        nonlocal overflow
        if s in subs:
            return
        if len(subs) >= max_size:
            overflow = True
            return
        subs.append(s)
        log.append(why)

    push(Subspace.zero(datum.dim), "zero")
    push(Subspace.full(datum.dim), "full")
    for name, m in zip(datum.names, datum.maps):
        push(kernel(m), f"kernel of {name}")
    for k, s in enumerate(seeds):
        push(s, f"seed[{k}]")
    processed = 0
    while processed < len(subs) and not overflow:
        for j in range(2, processed):
            push(subs[processed] + subs[j], f"sum({j},{processed})")
            push(subs[processed] & subs[j], f"intersect({j},{processed})")
            if overflow:
                break
        processed += 1
    return tuple(subs), tuple(log), not overflow


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_generate_lattice_matches_a_plain_closure(data):
    ambient = data.draw(st.integers(2, 4))
    vectors = st.lists(st.integers(-1, 1), min_size=ambient, max_size=ambient)
    maps = tuple(Matrix.from_rows(data.draw(st.lists(vectors, min_size=1, max_size=ambient)),
                                  cols=ambient)
                 for _ in range(data.draw(st.integers(1, 3))))
    datum = HBLDatum(ambient, maps, tuple(f"pi{k}" for k in range(len(maps))),
                     (Fraction(0),) * len(maps))
    seeds = [span(data.draw(st.lists(vectors, max_size=ambient)), ambient)
             for _ in range(data.draw(st.integers(0, 2)))]
    lattice = assert_matches_reference(datum, seeds, max_size=data.draw(st.integers(2, 40)))
    assert _related(list(lattice.subspaces)).closed() == reference_closed(lattice.subspaces)


def reference_closed(subspaces):
    """Every pairwise sum and intersection is a member."""
    members = set(subspaces)
    return all(a + b in members and a & b in members for a, b in combinations(subspaces, 2))


def assert_matches_reference(datum, seeds=(), max_size=512):
    lattice = generate_lattice(datum, seeds=seeds, max_size=max_size)
    assert (lattice.subspaces, lattice.generation_log, lattice.closed) \
        == reference_lattice(datum, seeds, max_size)
    return lattice


def zero_exponent_datum(*maps):
    ambient = len(maps[0][0])
    return HBLDatum(ambient, tuple(Matrix.from_rows(m) for m in maps),
                    tuple(f"pi{k}" for k in range(len(maps))), (Fraction(0),) * len(maps))


# A duplicate kernel or product is dropped before the cap is consulted, so it
# never makes a family that has every member report itself truncated.
@pytest.mark.parametrize("datum, max_size, closed", [
    (zero_exponent_datum([[1, 0], [0, 1]]), 2, True),                # the kernel is {0}
    (zero_exponent_datum([[1, 0], [0, 1]]), 3, True),
    (zero_exponent_datum(*[[[1, 0, 0], [0, 1, 0]]] * 2), 2, False),  # the first kernel is new
    (zero_exponent_datum(*[[[1, 0, 0], [0, 1, 0]]] * 2), 3, True),   # the second is not
    (loomis_whitney_datum(2), 8, True),                              # later products repeat
], ids=["injective-2", "injective-3", "repeated-2", "repeated-3", "lw2-8"])
def test_a_duplicate_does_not_count_against_the_cap(datum, max_size, closed):
    assert assert_matches_reference(datum, max_size=max_size).closed is closed


def relabelled(datum, perm):
    t = Matrix.from_rows([[int(c == p) for c in range(len(perm))] for p in perm])
    return transform_datum(datum, t, [identity(m.rows) for m in datum.maps])


def signed_r6():
    """The R^6 datum moved by a signed permutation, with the moved seed span{e1..e4}."""
    rng = random.Random(6)
    t = random_signed_permutation(rng, 6)
    r6 = fourmap_r6_datum()
    moved = transform_datum(r6, t, [random_signed_permutation(rng, m.rows) for m in r6.maps])
    return moved, (image(t, span([[int(c == j) for c in range(6)] for j in range(4)], 6)),)


# The sizes the build benchmark closes: R^5 and R^6 with 32 to 96 members.
@pytest.mark.parametrize("case", [
    lambda: (relabelled(loomis_whitney_datum(4), (3, 0, 4, 1, 2)), ()),
    lambda: (relabelled(loomis_whitney_datum(5), (2, 4, 0, 5, 1, 3)), ()),
    signed_r6,
], ids=["lw4-relabelled", "lw5-relabelled", "r6-signed"])
def test_closure_at_the_benchmark_sizes_matches_a_plain_closure(case):
    datum, seeds = case()
    lattice = assert_matches_reference(datum, seeds)
    plain = _related(list(lattice.subspaces))
    assert lattice.closed and (lattice.order.up, lattice.order.down) == (plain.up, plain.down)


def test_a_cap_between_a_sum_and_its_intersection():
    # The first pair whose sum and intersection are both new: a cap one past
    # its sum stops the closure between the two.
    datum, seeds = signed_r6()
    log = generate_lattice(datum, seeds).generation_log
    k = next(k for k in range(len(log) - 1) if log[k].startswith("sum(")
             and log[k + 1] == "intersect" + log[k][len("sum"):])
    lattice = assert_matches_reference(datum, seeds, max_size=k + 1)
    assert not lattice.closed and lattice.generation_log[-1] == log[k]


# A pair is eliminated only when the inclusion order cannot show that its sum
# and intersection are both present, so every call adds at least one member.
# Eliminating every pair took 435, 1,891 and 4,371 calls on these three.
@pytest.mark.parametrize("name", ["lw4", "lw5", "r6"])
def test_closure_eliminates_only_for_new_subspaces(name, monkeypatch):
    datum, seeds = fixture_closure(name)
    calls = []
    original = lattice_module.sum_and_intersection
    monkeypatch.setattr(lattice_module, "sum_and_intersection",
                        lambda u, w: calls.append(1) or original(u, w))
    lattice = generate_lattice(datum, seeds=seeds)
    generated = sum(why.startswith(("sum(", "intersect(")) for why in lattice.generation_log)
    assert lattice.closed and 0 < len(calls) <= generated


def fixture_closure(name):
    datum = ALL_FIXTURES[name][0]()
    return datum, [span([[int(c == j) for c in range(6)] for j in range(4)], 6)] if name == "r6" else []


# A product inherits its order from its parents and a mod-2 rank proves most
# sums, so few pairs are compared or ranked. Relating every pair by
# comparison and ranking every pair the masks leave open took 1,586
# comparisons and 304 ranks on lw5, and 3,502 and 1,007 on r6.
@pytest.mark.parametrize("name, comparisons, ranks", [("lw5", 169, 0), ("r6", 149, 115)])
def test_closure_compares_and_ranks_only_what_its_order_leaves_open(
        name, comparisons, ranks, monkeypatch):
    datum, seeds = fixture_closure(name)
    counts = {"le": 0, "rank": 0, "eliminate": 0}

    def counted(key, f):
        return lambda *args: counts.__setitem__(key, counts[key] + 1) or f(*args)

    monkeypatch.setattr(Subspace, "__le__", counted("le", Subspace.__le__))
    # Only the exact fallback of `_spans` eliminates in the lattice module.
    monkeypatch.setattr(lattice_module, "_echelon", counted("rank", lattice_module._echelon))
    monkeypatch.setattr(lattice_module, "sum_and_intersection",
                        counted("eliminate", lattice_module.sum_and_intersection))
    lattice = generate_lattice(datum, seeds=seeds)
    generated = sum(why.startswith(("sum(", "intersect(")) for why in lattice.generation_log)
    assert lattice.closed
    assert counts["le"] <= comparisons and counts["rank"] <= ranks
    assert counts["eliminate"] <= generated


def last_turn(lattice) -> int:
    """The turn of the last product in a closure's log, or -1."""
    products = [why for why in lattice.generation_log if why.startswith(("sum(", "intersect("))]
    return int(products[-1].split(",")[1][:-1]) if products else -1


# The kept order is the inclusion order, as a plain comparison of every pair
# gives it. A truncated closure stops before every member has had its turn:
# there each pair with a member whose turn came is related, and no kept bit
# is wrong. The order's own `closed` is the plain test of every pair. Sparse
# entries in {-2..2} make the coincident sums and meets that the rules of a
# product's parents decide.
@given(st.randoms(use_true_random=True))
@settings(max_examples=200, deadline=None)
def test_the_kept_order_is_the_inclusion_order(rng):
    ambient = rng.randint(2, 5)

    def vectors(count):
        return [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.3 else 0 for _ in range(ambient)]
                for _ in range(count)]

    maps = [vectors(rng.randint(1, ambient)) for _ in range(rng.randint(1, 4))]
    seeds = [span(vectors(rng.randint(0, ambient)), ambient) for _ in range(rng.randint(0, 2))]
    interval = None
    if rng.random() < 0.3:
        low = span(vectors(rng.randint(0, 1)), ambient)
        high = low + span(vectors(rng.randint(1, ambient)), ambient)
        seeds, interval = [(s + low) & high for s in seeds], (low, high)
    lattice = generate_lattice(zero_exponent_datum(*maps), seeds, rng.randint(2, 64),
                               interval=interval)
    kept, plain = lattice.order, _related(list(lattice.subspaces))
    related = (1 << last_turn(lattice) + 1) - 1 if not lattice.closed else -1
    for i in range(len(lattice.subspaces)):
        for kept_mask, plain_mask in ((kept.up[i], plain.up[i]), (kept.down[i], plain.down[i])):
            assert kept_mask & ~plain_mask == 0
            assert kept_mask & related == plain_mask & related
            if related >> i & 1:
                assert kept_mask == plain_mask
    # A truncated closure may leave out a kernel or seed and still be closed.
    assert plain.closed() == reference_closed(lattice.subspaces) >= lattice.closed
    if lattice.closed:
        assert kept.closed()


# Data whose echelon rows have even entries, so the mod-2 rank of a pair's
# rows falls short of the dimension of their sum: the short rank proves
# nothing, and the exact rank decides.
def test_a_short_mod2_rank_falls_back_to_the_exact_rank(monkeypatch):
    calls = []
    original = lattice_module._echelon
    monkeypatch.setattr(lattice_module, "_echelon",
                        lambda *args: calls.append(1) or original(*args))
    rng = random.Random(23)
    for _ in range(40):
        ambient = rng.randint(3, 5)
        maps = [[[rng.choice((0, 2, 3)) for _ in range(ambient)]
                 for _ in range(rng.randint(1, ambient - 1))] for _ in range(rng.randint(2, 3))]
        datum = zero_exponent_datum(*maps)
        seeds = [span([[rng.choice((0, 2, 3)) for _ in range(ambient)]
                       for _ in range(rng.randint(1, ambient - 1))], ambient)]
        lattice = assert_matches_reference(datum, seeds, max_size=48)
        assert _related(list(lattice.subspaces)).closed() == reference_closed(lattice.subspaces)
    assert calls


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_a_ready_familys_meets_give_its_image_dimensions(data):
    # dim pi_i(U) = dim U - dim(U cap ker pi_i), the meet's dimension read off
    # the kept inclusion order: on every member of a ready family, whether
    # generated or given in another order, it is the rank of the image.
    ambient = data.draw(st.integers(2, 4))
    vectors = st.lists(st.integers(-2, 2), min_size=ambient, max_size=ambient)
    maps = tuple(Matrix.from_rows(data.draw(st.lists(vectors, min_size=1, max_size=ambient)),
                                  cols=ambient)
                 for _ in range(data.draw(st.integers(1, 4))))
    datum = HBLDatum(ambient, maps, tuple(f"pi{k}" for k in range(len(maps))),
                     (Fraction(0),) * len(maps))
    seeds = [span(data.draw(st.lists(vectors, max_size=ambient)), ambient)
             for _ in range(data.draw(st.integers(0, 2)))]
    lattice = generate_lattice(datum, seeds=seeds, max_size=64)
    given_ = CandidateLattice.from_subspaces(
        ambient, data.draw(st.permutations(lattice.subspaces)))
    for family in (lattice, given_):
        if not is_ready(datum, family):
            continue
        assert family.meet_image_dims(datum.kernels) == {
            u: tuple(image_rank(m, u) for m in maps) for u in family.subspaces}
