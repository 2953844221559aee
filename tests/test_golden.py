"""Golden builds: the bytes the builder emits for fixed data are pinned.

Each case builds a candidate lattice and a certificate from a fixed datum and
hashes five things: the lattice's subspaces and its generation log, the
serialized certificate, the factored constant and the builder's trace, the
lines `hblcert build` prints. A change to the exact linear algebra that
alters any canonical form, any lattice order or any verdict, or a change to
the recursion that alters the path it takes, shows up here as a changed hash.
"""

import hashlib
import pathlib
import random
from fractions import Fraction

import pytest

from hblcert.builder import build_presentation
from hblcert.cli import main
from hblcert.data import CandidateLattice, HBLDatum, generate_lattice
from hblcert.fixtures import (
    ALL_FIXTURES,
    fourmap_r6_datum,
    fourmap_r6_forcing_candidates,
    loomis_whitney_datum,
)
from hblcert.flowgraph import GraphDecomposition, WeightFunction
from hblcert.formats import serialize_datum, serialize_presentation
from hblcert.linalg import Matrix, span
from hblcert.presentation import Presentation, bound_constant, verify_presentation

from conftest import transformed_lw4, weight_rows


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
    "lw4-unimodular": (transformed_lw4, lambda: ()),
    # A node of this build has two criticals that the chart of its interval
    # and the top-level space order differently; the top-level order decides.
    "lw4-unimodular-2": (lambda: transformed_lw4(2), lambda: ()),
    "r6-seeded": (fourmap_r6_datum, lambda: (_r6_seed(),)),
    "subsets-interior": (_interior_subsets, lambda: ()),
}

# sha256 of (lattice subspaces, generation log, serialized certificate,
# constant factors, build trace). The first four were recorded from the
# Fraction Gauss-Jordan implementation, the trace before the builder made
# each node's polytope and split once per build; lw4-unimodular-2 when the
# recursion nodes became intervals of the top-level family.
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
    "lw4-unimodular-2": (
        "f8f7a8466b846f48e068c9ece1f28286057e519d56eab5a7054f98b0b0a25a90",
        "65c64057b7201c2838f553106e5683082f81018c7ea803520a919fddd7582dd6",
        "99fc0bf5c636a18a4ba08893558bf719b47341a8b92fec6445acaa03d512f8ad",
        "d681bf119b6cc02b0c3479c4438ce00aeb3bde52fd789aa62b42af1569dafadf",
        "9383c9a735010ebe4417b1e3ec28f6a3156e4da93d4c7396bc290022bad95695",
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
    return datum, Presentation(pres.graph, weight_rows(rows, datum.n_maps))


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
}


@pytest.mark.parametrize("name", sorted(PROBLEM_CASES))
def test_problem_strings_are_byte_identical(name):
    report = verify_presentation(*PROBLEM_CASES[name]())
    assert not report.valid
    assert _sha("\n".join(report.problems)) == PROBLEM_GOLDEN[name]


FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

# The exact commands on each shipped fixture. `gaussian` and `quadrature` are
# left out: their numpy floats may differ between platforms.
CLI_RUNS = {
    f"{command}/{name}/{fmt}": (command, name, fmt)
    for command in ("verify", "bound", "check-data", "polytope", "build",
                    "decompose-flow", "project", "export-dot")
    for name in ("lw2", "lw3", "lw4", "lw5", "r6")
    for fmt in ("text", "json") + (("dot",) if command == "export-dot" else ())
}

# lw2 at exponents that the dimension inequalities refute, written to a
# temporary folder: a violation at e1 with slack -1/4, and a scaling failure
# 3 != 6.
REFUTED = {
    "lw2-violating": (Fraction(3, 4), Fraction(3, 4), Fraction(0)),
    "lw2-unscaled": (Fraction(1), Fraction(1), Fraction(1)),
}
CLI_RUNS.update({
    f"{command}/{name}/{fmt}": (command, name, fmt)
    for command in ("check-data", "polytope", "build")
    for name in REFUTED
    for fmt in ("text", "json")
})

# sha256 of "<exit status>\n<stdout>" for each run, recorded before the
# distinguishing maps were read off the datum's image-dimension table; the
# runs on REFUTED data were recorded before check-data read the polytope's
# row scan.
CLI_GOLDEN = {
    "bound/lw2/json":
        "81e7a1b45a828cef73384fc82a2c53fee7388ba794bb15529b87595a154dee35",
    "bound/lw2/text":
        "c3e864d4f1df96b7266a52368bffdcb0ccc9b2ed4c86638f6cdc25332cac674a",
    "bound/lw3/json":
        "04fad4906fa5bd9edb7d317bd3a250a977bbbfb9320128bc988125d85779eb8d",
    "bound/lw3/text":
        "678192dd6e630d44a5767fde4d9d43828b4483c173e0d2f8517a3d6cfd9a8655",
    "bound/lw4/json":
        "cab3c5d3779ae529b69685cffdc716cd9afaff2497a61cf294fcc16d364b8dbf",
    "bound/lw4/text":
        "a9422daa2ba4fe4362e1a2e369ffe6878dd304aec3533064a025d7111c9ab0b1",
    "bound/lw5/json":
        "5ae1f35fafb2edef68e16e84b353ee4a2d3ffa31225a8bce844595d030be6ca0",
    "bound/lw5/text":
        "63adacfbaa71c53e71a1ab694a62a247d697a1ea3d2711cb135b0eb71f5282ed",
    "bound/r6/json":
        "cedbd9e3ed7938ae96e14a63f046fae3956805b3f301ea5d524e71f85f7c1564",
    "bound/r6/text":
        "2af116c3562becde5bc2457021f1508f0fc7cd8e6a04175fe7c3c8f3e0464a5e",
    "build/lw2/json":
        "19b06f4e9e1a88167fc96c48d6d1e67d081f92dbc0df15e5f83f9ed0c82be937",
    "build/lw2/text":
        "b1b4dd02d5b3468ca3af4982a471745db75157c1257db2a580db066a6e33420b",
    "build/lw3/json":
        "61e1130f68309ebfa9ba699b3e01b0fa621f4e70411e1d3668b52b527430251c",
    "build/lw3/text":
        "346470e68afa0536dce6a64cecd46b0f8b8b6def9a17dfa7d39e9558007b75e5",
    "build/lw4/json":
        "90af4a7058097cf3d0268dacbd2ce4810a47d0b1c722466959f5b99da147008f",
    "build/lw4/text":
        "9f108465341a5ead3c88aa5ebad8b424a128f997143cf850ef1135af4d6273a8",
    "build/lw5/json":
        "5d6545171d10be5dfa011fbff6c4bd083ea9d57e20489620094523d195c5c095",
    "build/lw5/text":
        "3cc380126e8d34075eb9d6e439a4c2889bff32fbd9c521f56d8da178b52689d9",
    "build/r6/json":
        "55833a2a9dc0c88fb468a2d0a18baa4c6648c087c8f88cc6ac12f444fd7d3d14",
    "build/r6/text":
        "66a911c40993acfac57a1bddbc37c5ea44b343f6239a60980419338e0367c545",
    "build/lw2-unscaled/json":
        "83ca49a1c2583e01c66fc8c4c00d717a68e15dde1ca448633f259bc068e7039d",
    "build/lw2-unscaled/text":
        "5fe4dc5adb4303ed1552705f7f7ed2116ed2490aa5a5091383944b39a04ef486",
    "build/lw2-violating/json":
        "469e60488beb6a378f7a5bb84dd0f45318cd2c0b5886c3a0c8aa6f1cf4a93286",
    "build/lw2-violating/text":
        "7a0259e28a17ba6a0ba416cb7c8b60f232de9d9770be69097699f1aa01b56389",
    "check-data/lw2-unscaled/json":
        "2354932a187ea0e15c840eca64bcc81a1c932a213ce24c1f7ae4b1bcf214dbc2",
    "check-data/lw2-unscaled/text":
        "81475b3ae4be9ddbdaba1a5f73bfae6abca7efff847eb9a13924519ffd887699",
    "check-data/lw2-violating/json":
        "bb92519e4d08d8fb34ca597a64650a4cb542c84049820aca7b336f8d0e6c8c75",
    "check-data/lw2-violating/text":
        "098e5240dd7a62533c4175bc8377cb8d56a74f50bb093309199df304c4f1bc8b",
    "check-data/lw2/json":
        "2f827eb80aa42eb0c908d9424ea31a6e3955bc0d1c7ba9e48f818816bd2f5b10",
    "check-data/lw2/text":
        "954c18e06c8fbdbc89f88180451748e573c16597f678a408e66cda460fa9b83f",
    "check-data/lw3/json":
        "4673e3b62934d4d3c87b5b0b8a6ed8d55093f51072e77a790f7c3d227277afdd",
    "check-data/lw3/text":
        "b0cdca7344c80020b3f8a6af1ec4d9ae542b657dd432fd7add2ca44afd53841c",
    "check-data/lw4/json":
        "03b839223ee3124e5f40ec8a21840184e4f0378800fddcce5ea3cf3b85031391",
    "check-data/lw4/text":
        "188017b0756a8b8507855e28f8ee5cd451853fc2294f105e74d6bfdc2de233f2",
    "check-data/lw5/json":
        "7735bd9bfc2de1cce9073925961fd454ae9a1f37d2c776a198aaf8a08ad42b36",
    "check-data/lw5/text":
        "b8d68523cedad575f9735a507677236acb94165d7f100417762c62e95148c61d",
    "check-data/r6/json":
        "8f12e38fec734583e21c94bc5a89ef37ac4d71e7f6ac552af0fe1b0e291bac2f",
    "check-data/r6/text":
        "96b9f01a5c89c7dc9623bfe50e50cb75e6326c1b957af81d785a141beabce519",
    "decompose-flow/lw2/json":
        "7c6da217a37bc2802bae3f8672077c2beebdf66210db952a014ad208d5272957",
    "decompose-flow/lw2/text":
        "b45f9bba0507a7f55f32e1854336d5f4f17486ea75732f9b8b626a01dabcf2de",
    "decompose-flow/lw3/json":
        "bdd404fe123fc0fc7a977078af276caf81ee5cfab2b91dfab2d6d3b760398106",
    "decompose-flow/lw3/text":
        "b4c53ffdafc6cf0bc414679976f9b3ccbdfaf974cab4bcc08c5e20d9b350a93f",
    "decompose-flow/lw4/json":
        "77867d5f0ab7b6dbcc6f827fdf3aa38da939010a0ee31a5062f56a51b380e3ab",
    "decompose-flow/lw4/text":
        "255b3c0d49c73994041484773c014aad4f49dc582666c1d4d0badb897110b56c",
    "decompose-flow/lw5/json":
        "2a901b049f917a3ff2fa2102acf20a1bc6444e691057892b100f406728ceeaa7",
    "decompose-flow/lw5/text":
        "1aee39b565ba96074897eb80f000fbc10169f0151eaf0b252d012a718da2f1c9",
    "decompose-flow/r6/json":
        "d1af7b36dc87c81572a8b20230cacb546d7a034a5571303448017a8dc4bcd414",
    "decompose-flow/r6/text":
        "fb0f1e6717b69b110ebeec558a39682b459a4ea9a4a5325bccbf4ab97ac60d70",
    "export-dot/lw2/dot":
        "7fb7889c7dc6ab7fbe3417302858c0edd0b1ba8370a588c48630cdeccec9ff6e",
    "export-dot/lw2/json":
        "c3450691d6d64223250e0f300db78cdbe1740352021ba46ef74fe40b6d52cbf6",
    "export-dot/lw2/text":
        "05717a67afec924e3209a90ff73fc1142df5ac238567d111737481b65efcee57",
    "export-dot/lw3/dot":
        "0f6091c1e31e837d79ce2fb4deceb53e13ef7205eccb978c5a4e75f2819c7fca",
    "export-dot/lw3/json":
        "ab82eec9308dd69d79a1c7e9f239a1b9ba5d4f1ae0202a53346fe7200537d448",
    "export-dot/lw3/text":
        "9b443e3d663ce32b8bcdb559d7f593e972c7e40703e36b7450309320260e2127",
    "export-dot/lw4/dot":
        "db4e341f36a90782afe61f0c18a0b864099bb0a02811bd42eddb2061db28fb17",
    "export-dot/lw4/json":
        "9303dd0db1e99c3616ce4e4caf1ed5514e994ec33cb66a273b67fd85cf32d4a4",
    "export-dot/lw4/text":
        "51250d5995f927bae2ead4ef856eabd0096ac1b98eeb6fdfbe577d6cfcfc38d1",
    "export-dot/lw5/dot":
        "7aa906d8848803d5150fbc2fe2cf3192c44b17bb84a4e01f817a4ebd5cb00d8a",
    "export-dot/lw5/json":
        "7f61f1f6a3c066f880d4ab528a95d8af86ab68d0fad8300641491f237ee10a61",
    "export-dot/lw5/text":
        "344feaa774dcc590879bd1d87a53dd1121328a123c2b710f2fb476487986e7d9",
    "export-dot/r6/dot":
        "ce8e78cee1986855049d3748d06583b79c562381df5307aa85eca84b9de5e1d1",
    "export-dot/r6/json":
        "289f3be8c7cc05f6437f7782e85df71e92b7de78e689217732e5df4d37eb144d",
    "export-dot/r6/text":
        "47c0c0112d7490d8ca06b4b9860425ef683799786ba0f2b54d7ded93ba365971",
    "polytope/lw2-unscaled/json":
        "045789984dd6130a674d2d5c31d967832785abb5524d950aa1a510d8d912f921",
    "polytope/lw2-unscaled/text":
        "70c2af2526893197f011e79c8e978889b1e365ffbace1d5ab5e149a111be5a63",
    "polytope/lw2-violating/json":
        "1634b93e3893e864916877d5da742e80eda15454ae4ae128bd7294d4be2bd0c4",
    "polytope/lw2-violating/text":
        "bfeae785f6152750cf0a0bd9c44629e587b4d7c44991b6f2c3e347f2078bc67a",
    "polytope/lw2/json":
        "6ff973d0000281b504a16643a33d0aec3d0437cb534ad8ce30d3080f02fcc5b4",
    "polytope/lw2/text":
        "4fd924a8c872c8ac0986a2156aca0f5891f09cecd1bf2327cd562727fc3214bd",
    "polytope/lw3/json":
        "cf4ee194a1e5c7c1630c3ca96b9e28890f6459874626b7fbbabefa3c0dca7dc0",
    "polytope/lw3/text":
        "ed5d9c20a9da167c38f48115f597af10c76d915687be991b31ce4809d1d05e0d",
    "polytope/lw4/json":
        "414d40b984fe4e59b769cdc2272062dff59132877262b67c5e18c3ec42254df7",
    "polytope/lw4/text":
        "6ff8140a36d0b88fa78192f719430da417c8525249c5572193eb0d52997d98ed",
    "polytope/lw5/json":
        "0927099863aa895a3932da7237769c49744d2b6299f75bd605af486bc2f232f4",
    "polytope/lw5/text":
        "ae85969bed43131a391979ce18ef0752786f044acde6e24d865ab7ea040d242e",
    "polytope/r6/json":
        "8161f24b1f14523f00552f5f7ba05bb65442a4de93d7b5023c54faa9128f04c5",
    "polytope/r6/text":
        "98bd081012048f9727d8b6883b515c22da42161be5facf7eabacd5920accd736",
    "project/lw2/json":
        "e657d430037a65fb9ca65058a1ce460a9bea5aea53497bfe634102114fd668d5",
    "project/lw2/text":
        "ea6fd938e5a5e8d3dd1ae283dfbbfaa5b92a06e98bc931e76f98b17543c8879a",
    "project/lw3/json":
        "d58f37512952756041cc06909402b1c1d759b58fcbeea9eb1ad1d22916b9289d",
    "project/lw3/text":
        "4a9e5681a04ac64099c414609312f34ff445b2d11a60953635737258dd9d7993",
    "project/lw4/json":
        "41b2f0b3ff9343811b3f70976b91b0792072f259e9b5ae8e14b66f216f050e6b",
    "project/lw4/text":
        "f6df4e590c71f60ae9f50cc19399d82b5d455abc216643676f5d5af96d96a580",
    "project/lw5/json":
        "9bdf851a3210e367cc88dd68e23f7a387c88413ab5d1b05d7253a368d524151d",
    "project/lw5/text":
        "ebda0b16a772e74c3fcc7ef43c23b6e95162d5ca954635720c2043b179df52d1",
    "project/r6/json":
        "0529be2e3bb182640e942b2474a7fc553f1743cfa3a3ddb26a9b5f4f4584bef0",
    "project/r6/text":
        "654169d198d21fa7f9b45a96b74c1560bbc09a90356765151cdc8680617579cb",
    "verify/lw2/json":
        "876977fae2b91cc1d721d26e6bd683a1feafa856ecd198df642314c0b90a5891",
    "verify/lw2/text":
        "4e34fe86277e61bd22ef34bf51a31287979a518aeabc20c94da8b0955fe1ce5e",
    "verify/lw3/json":
        "a6778ba5b41668363a4d452e9b0de1d2208dfb134f7e37770a180ade7c85c21d",
    "verify/lw3/text":
        "a23e7e4104d111ad605bbefbca5839dd46c592316d57ddddf41ffec53fecb83c",
    "verify/lw4/json":
        "85702d661cd4ea1494a263ae38b037da47ae823b1f50674deeae125e26998ef9",
    "verify/lw4/text":
        "82b97718da25beae3e027e88aa83b0edc01ef1f70fcb28b0a6ba73615520fdb2",
    "verify/lw5/json":
        "a8150b403d8f0181213d6a534b0e4b3955c1f64cf8391368d1ce7ba92945f78f",
    "verify/lw5/text":
        "40183b3d040391e3d3f987be2111117b8a0260df4c8b437a5eb24bdfcb6ae8ab",
    "verify/r6/json":
        "9214410fad402822929e15ce1bf8f6a5fd6b9fc614d723d82ed41d280e55937a",
    "verify/r6/text":
        "0b55cdc934b712b3f91f752fc136ae400f0cdfd3accaa203a4ad19d3d2c092e8",
}


@pytest.mark.parametrize("run", sorted(CLI_RUNS))
def test_cli_reports_are_byte_identical(capsys, tmp_path, run):
    command, name, fmt = CLI_RUNS[run]
    if name in REFUTED:
        data = tmp_path / f"{name}.datum.json"
        data.write_text(serialize_datum(loomis_whitney_datum(2, REFUTED[name])))
        argv = [command, "--data", str(data), "--format", fmt]
    else:
        argv = [command, "--data", str(FIXTURE_DIR / f"{name}.datum.json"),
                "--presentation", str(FIXTURE_DIR / f"{name}.presentation.json"),
                "--format", fmt]
    if command == "project":
        argv += ["--map-index", "0"]
    status = main(argv)
    assert _sha(f"{status}\n{capsys.readouterr().out}") == CLI_GOLDEN[run]
