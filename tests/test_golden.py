"""Golden builds: the bytes the builder emits for fixed data are pinned.

Each case builds a candidate lattice and a certificate from a fixed datum and
hashes five things: the lattice's subspaces and its generation log, the
serialized certificate, the factored constant and the builder's trace, the
lines `hblcert build` prints. A change to the exact linear algebra that
alters any canonical form, any lattice order or any verdict, or a change to
the recursion that alters the path it takes, shows up here as a changed hash.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from hblcert.builder import build_presentation
from hblcert.data import CandidateLattice, HBLDatum, generate_lattice, transform_datum
from hblcert.fixtures import (
    ALL_FIXTURES,
    fourmap_r6_datum,
    fourmap_r6_forcing_candidates,
    loomis_whitney_datum,
)
from hblcert.flowgraph import GraphDecomposition, WeightFunction
from hblcert.formats import serialize_presentation
from hblcert.linalg import Matrix, span
from hblcert.presentation import Presentation, bound_constant, verify_presentation

from conftest import random_invertible


def _transformed_lw4() -> HBLDatum:
    rng = random.Random(7)
    t = random_invertible(rng, 5, shears=10)
    s_list = [random_invertible(rng, 4, shears=4) for _ in range(5)]
    return transform_datum(loomis_whitney_datum(4), t, s_list)


def _interior_subsets() -> HBLDatum:
    # Mean of two feasible exponent points, so the build takes the
    # Caratheodory and convex-combination path.
    subsets = ((0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2, 3))
    maps = tuple(
        Matrix.from_rows([[1 if c == j else 0 for c in range(4)] for j in s], cols=4)
        for s in subsets)
    tau = (Fraction(1, 6),) * 4 + (Fraction(1, 2),)
    names = tuple("s" + "".join(map(str, s)) for s in subsets)
    return HBLDatum(4, maps, names, tau)


def _r6_seed():
    return span([[1 if c == j else 0 for c in range(6)] for j in range(4)], 6)


CASES = {
    "lw3": (lambda: loomis_whitney_datum(3), lambda: ()),
    "lw4": (lambda: loomis_whitney_datum(4), lambda: ()),
    "lw4-unimodular": (_transformed_lw4, lambda: ()),
    "r6-seeded": (fourmap_r6_datum, lambda: (_r6_seed(),)),
    "subsets-interior": (_interior_subsets, lambda: ()),
}

# sha256 of (lattice subspaces, generation log, serialized certificate,
# constant factors, build trace). The first four were recorded from the
# Fraction Gauss-Jordan implementation, the trace before the builder made
# each node's polytope and split once per build.
GOLDEN = {
    "lw3": (
        "2183fd8240a04c119eb881e7263125f15296a875cda517f545ba08357783015a",
        "aab0e73562998d3f1a1a5084675ba4f392e9c02d9765187e34e0f284e53b8e30",
        "43aacb6f937aa70cda94df893c2fb8458a5370a186a0c4449ecd4672229326ca",
        "c05db5afc8fd0735fcedec71eb7a7aaa4850eb110d037eeb4ecbbafb4791cd94",
        "5272aac831896ec531c6375ee03dfc32bf429d3bda6ee22e728e7f6c485ccc42",
    ),
    "lw4": (
        "3fd6c65909c166f43f8ca662a0bdb9713ce9951243715cb31e4c7ef4ecbd77d0",
        "65c64057b7201c2838f553106e5683082f81018c7ea803520a919fddd7582dd6",
        "d512465cda49507bd08bd8c27f72a61b5579c018dce3f1c309e1ceaf0fd02999",
        "1ac31d3df462012d24f615ff9a7224a8cc585b7accd0559d33155fdbc7bc59d7",
        "77a96aa8e9289d110676abd2097ea06efba58cbed5ef29a40edf25419f527ce9",
    ),
    "lw4-unimodular": (
        "da4f521b5e9d7ddeb6198feaad6e33aa69cb9124581f7fe2f7b6ac0d6f3f313e",
        "65c64057b7201c2838f553106e5683082f81018c7ea803520a919fddd7582dd6",
        "63c392df0e12a54fe4ec6b63d083a76121e852914282cac9aa24051850f0a511",
        "a7be43c1f3735e991b5346578dc20249948c2108f23486b4c519718ef3930bbc",
        "77a96aa8e9289d110676abd2097ea06efba58cbed5ef29a40edf25419f527ce9",
    ),
    "r6-seeded": (
        "6034eecc52ce844688344448bfeee9987bae0627b623491ebfaf0ed1416cb191",
        "db1675a84f41b2a84e995c806faa10cfef3a0d9eb305148d06826b23690e2e1f",
        "f1bf3ed6a1abf0ba48420e8f0b777cbed93bc07fed02b847e96d3230fa8780f0",
        "7f21a62299fe12eb40b2d97e65387adf1936f766345d1f32f1ce8222155de349",
        "4386249034541f2fe7fc29de664f97fda4b30641ad0efbb6514911dd377d327f",
    ),
    "subsets-interior": (
        "d548bb0c90147fb669c75ecb1ee681165c3eea0fa8e035baa427998314d8ba1e",
        "3f7f8350a75d3f1b713a64a1986faaa98206c528356dd52d6eca2b1024e130af",
        "fd79640ebbf912549c026ef072f398a36770a11bacb4f22a5ef86f773395ee00",
        "6e38322255075422890ce816e83f41d4192c7651f54258aea4561c09de915eee",
        "9e26b5d3f5c91cf659a24216df6c193cd428035234df034f1859ec8178a0e794",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hashes(datum: HBLDatum, seeds) -> tuple[str, ...]:
    return _lattice_hashes(datum, generate_lattice(datum, seeds=seeds))


def _lattice_hashes(datum: HBLDatum, lattice: CandidateLattice) -> tuple[str, ...]:
    trace: list[str] = []
    pres = build_presentation(datum, lattice, trace=trace)
    cert = bound_constant(datum, pres)
    subspaces = "\n".join(
        ";".join(",".join(str(x) for x in row) for row in v.basis_rows())
        for v in lattice.subspaces)
    factors = "\n".join(f"{f.map_index} {f.edge} {f.base} {f.exponent}" for f in cert.factors)
    return (_sha(subspaces), _sha("\n".join(lattice.generation_log)),
            _sha(serialize_presentation(pres)), _sha(factors), _sha("\n".join(trace)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_outputs_are_byte_identical(name):
    make_datum, make_seeds = CASES[name]
    assert _hashes(make_datum(), make_seeds()) == GOLDEN[name]


def _lw3_flag() -> CandidateLattice:
    # {0} < e1 < e1 + e2 < e1 + e2 + e3 < H: closed, but of the four kernels
    # (the coordinate axes) it holds only e1.
    axes = [[1 if c == j else 0 for c in range(4)] for j in range(4)]
    return CandidateLattice.from_subspaces(4, [span(axes[:k], 4) for k in (1, 2, 3)])


def _tau_one_quotient() -> HBLDatum:
    # Splits at ker p, then takes a tau_i = 1 hyperplane inside the quotient.
    return HBLDatum(3, (Matrix.from_rows([[1, 1, 0], [0, 1, 1]]), Matrix.from_rows([[1, 0, 1]])),
                    ("p", "q"), (Fraction(1), Fraction(1)))


# Families for which a split cannot read its children off the parent family:
# one not closed, one closed without the kernels, one truncated by the size
# cap, and a split at a tau_i = 1 hyperplane outside the family.
FALLBACK_CASES = {
    "r6-forcing-unclosed": (
        fourmap_r6_datum,
        lambda d: CandidateLattice.from_subspaces(6, fourmap_r6_forcing_candidates())),
    "lw3-flag-without-kernels": (lambda: loomis_whitney_datum(3), lambda d: _lw3_flag()),
    "lw4-truncated": (lambda: loomis_whitney_datum(4), lambda d: generate_lattice(d, max_size=6)),
    "tau-one-quotient": (_tau_one_quotient, generate_lattice),
}

# Same five hashes as GOLDEN. The first four were recorded before children
# of a split could be read off a closed parent family, the trace as in GOLDEN.
FALLBACK_GOLDEN = {
    "lw3-flag-without-kernels": (
        "16f4b5a926b2bf2d7e470cdbd61bc6aeb3192cb653f08c1f11a86f0ea187a724",
        "ac8b5b87485878db5e61de0aafd945a851c76ce95531508a9453a77809b025ed",
        "552fca293a8d6d3190bf8cba74cf039e60e37cd64985d6c578673b445871e21e",
        "0d1e047b3d4054deb65fb73b2f7243d103a0cc23a52b9d489dff934c267c8213",
        "d71ec74d1e21c00195a3d6c4cf89e8f7f8e4b345e939d41f032db901f0d46328",
    ),
    "lw4-truncated": (
        "b0cca1b892feb6fc8df8fdd9c61c151d2063c34ef5545cc40e6234ef830d7226",
        "61b1b0a311125d979abfd332bd38911284b2d547d61e2d9122f0cdeacc6d33ed",
        "bd46f5aff5d9d060b6cebfb7732e644643f608ac9450c980b84a3310a88776e2",
        "f1de691314b885c85763513ff38dc341d3a0fd85c8392ccc1f9ae4a2e5e584ea",
        "e9b3a460356d9790d3e4c3df22e099506faed73bf3283aeb0b90a49143e9aa73",
    ),
    "r6-forcing-unclosed": (
        "ab683b560422430fb564084a6f7af303e2ae1eda52ce11decf6d82d9a80d66af",
        "5069cb939834dd0cd8e0dfd95d8270efa67ff7f586df4bf18f51d252acd5af54",
        "f1bf3ed6a1abf0ba48420e8f0b777cbed93bc07fed02b847e96d3230fa8780f0",
        "7f21a62299fe12eb40b2d97e65387adf1936f766345d1f32f1ce8222155de349",
        "4386249034541f2fe7fc29de664f97fda4b30641ad0efbb6514911dd377d327f",
    ),
    "tau-one-quotient": (
        "bd92aa2830c0a68fe2ac50fadeddec99559e223582eecbb05155ec0c122ae70b",
        "99631171eb0ce42c2e85c8bb5445205c2fab4ac998c629e6bc2a7c43cab06d15",
        "b74b400bb5bcff5a1f11d5ddae2e3ae81652dc95e007eaef5cb6308b6a88dd0b",
        "c8765ee2f5976d5f5aba7df62c820bb905bff564226fff25e71017af5be54bb4",
        "1ecb51c0b080ea7e6ca0958b7738249918694d3e34db6c986297c99d42596375",
    ),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
def test_fallback_builds_are_byte_identical(name):
    make_datum, make_lattice = FALLBACK_CASES[name]
    datum = make_datum()
    lattice = make_lattice(datum)
    assert _lattice_hashes(datum, lattice) == FALLBACK_GOLDEN[name]


def _mutant(name: str, seed: int):
    """One seeded single-entry change of a shipped certificate's theta."""
    make_datum, make_pres = ALL_FIXTURES[name]
    datum, pres = make_datum(), make_pres()
    rng = random.Random(seed)
    rows = [list(v) for v in pres.theta.values]
    edge = rng.randrange(len(rows))
    comp = rng.randrange(datum.n_maps)
    rows[edge][comp] += rng.choice([Fraction(1, 4), Fraction(-1, 3), Fraction(-1), Fraction(2)])
    return datum, Presentation(pres.graph, WeightFunction.from_rows(rows, datum.n_maps))


def _structure_mismatch():
    return ALL_FIXTURES["lw2"][0](), ALL_FIXTURES["r6"][1]()


def _graph_violation():
    # Drop the first edge and add a {0} -> H edge, which jumps dimension.
    datum, pres = ALL_FIXTURES["lw3"][0](), ALL_FIXTURES["lw3"][1]()
    graph = pres.graph
    edges = graph.edges[1:] + ((graph.zero_vertex, graph.full_vertex),)
    rows = pres.theta.values[1:] + ((Fraction(0),) * datum.n_maps,)
    return datum, Presentation(GraphDecomposition(graph.ambient, graph.vertices, edges),
                               WeightFunction(datum.n_maps, rows))


PROBLEM_CASES = {
    **{f"{name}-mutant-{seed}": (lambda name=name, seed=seed: _mutant(name, seed))
       for name in ("lw3", "lw4", "r6") for seed in range(6)},
    "structure-mismatch": _structure_mismatch,
    "graph-violation": _graph_violation,
}

# sha256 of the problem strings, one per line in report order, recorded
# before verification took a single flux pass.
PROBLEM_GOLDEN = {
    "graph-violation":
        "bc757e286a3fa3cf24d50a1f1c6f419fa9cc103d62e9efbf82fa6add476aca7c",
    "lw3-mutant-0":
        "07ec285d6ca614ce87c654174243bca0da0978f3e94ba7a63d49260e78ac8dce",
    "lw3-mutant-1":
        "1264574ac7918d619f4a1cd65b9a5076da4c47d1e8c3a2e48dab8e3f8c904003",
    "lw3-mutant-2":
        "7f2805aac2d5ad55a775b189dd7b9dca068b8abf74df568f06b38be6d84f7361",
    "lw3-mutant-3":
        "a8073038ae8b9ec40759af1069fe06a92c01e5238885c6389331aa1dea82a4f9",
    "lw3-mutant-4":
        "04480335c5645549b4e5adb8ea9af6403861fbeeaece81187c865ca74f86fe4b",
    "lw3-mutant-5":
        "9ce7e82bee8f9c2fe5816b5a16e988bc41bed8b27497d245e1e04c65f6837131",
    "lw4-mutant-0":
        "1c36088106c4e47b5a7a75b89983cf52d6930fd83d954cac05fcab941e963cfc",
    "lw4-mutant-1":
        "a810a8dcad945e006c6db286bd56c9611cd9b599ad16463cc25c2cb28c27f44e",
    "lw4-mutant-2":
        "4a3edd32bdc7863f7305f570ad0426a00c994ac8ef688821d52859d4f0aa9ebb",
    "lw4-mutant-3":
        "20fe63cc493b18d9720739891ec8ee4a009db5f536e4c903acd8f106ffae2241",
    "lw4-mutant-4":
        "7e0e47545a0790bb01bc92a9598d60ba49b8d5fd7f3b02c581525c3de2005dc4",
    "lw4-mutant-5":
        "d2694c1b1afe0909d6ab3ca14ec7ea7d34c184e7b266ac82d084d19543f161b5",
    "r6-mutant-0":
        "1a57dcde89e5227fa0f3e8bb8a88e914072fc18fc34d4860da9dbf0b69afabef",
    "r6-mutant-1":
        "f8840e26fcb6033ef3c8ff6da2e78a8897c829f3fb03dd2e8495cea1f7c2c9ce",
    "r6-mutant-2":
        "d91fd53a6c4dffb14f325c5543e955f1c02ea4486e14f4519b6d70421656454f",
    "r6-mutant-3":
        "7a717f0ad7afb6a326b28e23764dd6f87a505cf6bd706f42b27fec1e3ef731b1",
    "r6-mutant-4":
        "511f3550cc2ee4e9559fccb95db941ed973af203c312f9d46b8c22bd68194a43",
    "r6-mutant-5":
        "c1b07bb1dd5a88a18c53ce144439481273e90cb43117072acb9a27de5cdf91e6",
    "structure-mismatch":
        "3b28586a47b728f471288db9832286830407a9563d34b7e67d522c32722c5990",
}


@pytest.mark.parametrize("name", sorted(PROBLEM_CASES))
def test_problem_strings_are_byte_identical(name):
    report = verify_presentation(*PROBLEM_CASES[name]())
    assert not report.valid
    assert _sha("\n".join(report.problems)) == PROBLEM_GOLDEN[name]
