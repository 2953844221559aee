"""Golden builds: the bytes the builder emits for fixed data are pinned.

Each case builds a candidate lattice and a certificate from a fixed datum and
hashes four things: the lattice's subspaces and its generation log, the
serialized certificate, and the factored constant. A change to the exact
linear algebra that alters any canonical form, any lattice order or any
verdict shows up here as a changed hash.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from hblcert.builder import build_presentation
from hblcert.data import HBLDatum, generate_lattice, transform_datum
from hblcert.fixtures import fourmap_r6_datum, loomis_whitney_datum
from hblcert.formats import serialize_presentation
from hblcert.linalg import Matrix, span
from hblcert.presentation import bound_constant

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
# constant factors), recorded from the Fraction Gauss-Jordan implementation.
GOLDEN = {
    "lw3": (
        "2183fd8240a04c119eb881e7263125f15296a875cda517f545ba08357783015a",
        "aab0e73562998d3f1a1a5084675ba4f392e9c02d9765187e34e0f284e53b8e30",
        "43aacb6f937aa70cda94df893c2fb8458a5370a186a0c4449ecd4672229326ca",
        "c05db5afc8fd0735fcedec71eb7a7aaa4850eb110d037eeb4ecbbafb4791cd94",
    ),
    "lw4": (
        "3fd6c65909c166f43f8ca662a0bdb9713ce9951243715cb31e4c7ef4ecbd77d0",
        "65c64057b7201c2838f553106e5683082f81018c7ea803520a919fddd7582dd6",
        "d512465cda49507bd08bd8c27f72a61b5579c018dce3f1c309e1ceaf0fd02999",
        "1ac31d3df462012d24f615ff9a7224a8cc585b7accd0559d33155fdbc7bc59d7",
    ),
    "lw4-unimodular": (
        "da4f521b5e9d7ddeb6198feaad6e33aa69cb9124581f7fe2f7b6ac0d6f3f313e",
        "65c64057b7201c2838f553106e5683082f81018c7ea803520a919fddd7582dd6",
        "63c392df0e12a54fe4ec6b63d083a76121e852914282cac9aa24051850f0a511",
        "a7be43c1f3735e991b5346578dc20249948c2108f23486b4c519718ef3930bbc",
    ),
    "r6-seeded": (
        "6034eecc52ce844688344448bfeee9987bae0627b623491ebfaf0ed1416cb191",
        "db1675a84f41b2a84e995c806faa10cfef3a0d9eb305148d06826b23690e2e1f",
        "f1bf3ed6a1abf0ba48420e8f0b777cbed93bc07fed02b847e96d3230fa8780f0",
        "7f21a62299fe12eb40b2d97e65387adf1936f766345d1f32f1ce8222155de349",
    ),
    "subsets-interior": (
        "d548bb0c90147fb669c75ecb1ee681165c3eea0fa8e035baa427998314d8ba1e",
        "3f7f8350a75d3f1b713a64a1986faaa98206c528356dd52d6eca2b1024e130af",
        "fd79640ebbf912549c026ef072f398a36770a11bacb4f22a5ef86f773395ee00",
        "6e38322255075422890ce816e83f41d4192c7651f54258aea4561c09de915eee",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hashes(datum: HBLDatum, seeds) -> tuple[str, str, str, str]:
    lattice = generate_lattice(datum, seeds=seeds)
    pres = build_presentation(datum, lattice)
    cert = bound_constant(datum, pres)
    subspaces = "\n".join(
        ";".join(",".join(str(x) for x in row) for row in v.basis_rows())
        for v in lattice.subspaces)
    factors = "\n".join(f"{f.map_index} {f.edge} {f.base} {f.exponent}" for f in cert.factors)
    return (_sha(subspaces), _sha("\n".join(lattice.generation_log)),
            _sha(serialize_presentation(pres)), _sha(factors))


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_outputs_are_byte_identical(name):
    make_datum, make_seeds = CASES[name]
    assert _hashes(make_datum(), make_seeds()) == GOLDEN[name]
