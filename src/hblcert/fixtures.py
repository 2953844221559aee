"""Reference data and certificates used by the test suite and shipped files.

Two families: the Loomis-Whitney data in R^(d+1) with the chain certificate
carrying weight 1/d per map on every edge, and a four-map datum on R^6 whose
certificate graph forks into a diamond over the last two dimensions.
"""

from __future__ import annotations

from fractions import Fraction

from hblcert.data import HBLDatum
from hblcert.linalg import Matrix, Subspace, span
from hblcert.presentation import Presentation


def loomis_whitney_datum(d: int, exponents=None) -> HBLDatum:
    """d+1 maps on R^(d+1), the i-th omitting coordinate i; exponents 1/d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    m = d + 1
    maps = []
    names = []
    for i in range(m):
        rows = []
        for j in range(m):
            if j == i:
                continue
            rows.append([Fraction(1) if c == j else Fraction(0) for c in range(m)])
        maps.append(Matrix.from_rows(rows, cols=m))
        names.append(f"pi{i + 1}")
    if exponents is None:
        exponents = [Fraction(1, d)] * m
    return HBLDatum(m, tuple(maps), tuple(names), tuple(Fraction(t) for t in exponents))


def loomis_whitney_presentation(d: int) -> Presentation:
    """Coordinate-flag chain with weight 1/d per map on every edge."""
    m = d + 1
    flag = [span([[Fraction(1) if c == j else Fraction(0) for c in range(m)]
                  for j in range(k)], m) for k in range(m + 1)]
    weights = {(flag[k], flag[k + 1]): [Fraction(1, d)] * m for k in range(m)}
    return Presentation.from_edges(m, m, flag, weights)


def fourmap_r6_datum() -> HBLDatum:
    """Four maps on R^6: (x1,x2,x5), (x2,x3,x5+x6), (x4,x6), (x1,x3,x4,x5-x6)."""
    rows1 = [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]]
    rows2 = [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1]]
    rows3 = [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]
    rows4 = [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
             [0, 0, 0, 0, 1, -1]]
    maps = tuple(Matrix.from_rows(r, cols=6) for r in (rows1, rows2, rows3, rows4))
    return HBLDatum(6, maps, ("pi1", "pi2", "pi3", "pi4"), (Fraction(1, 2),) * 4)


def fourmap_r6_presentation() -> Presentation:
    """Certificate for the R^6 datum: a chain through dimension four, then a
    diamond through span{e1..e4,e5} and span{e1..e4,e5+e6}."""
    e = [[Fraction(1) if c == j else Fraction(0) for c in range(6)] for j in range(6)]
    v = [span(e[:k], 6) for k in range(5)]            # {0}, V1..V4
    v5 = span(e[:5], 6)
    v6 = span(e[:4] + [[0, 0, 0, 0, 1, 1]], 6)
    full = Subspace.full(6)
    half = Fraction(1, 2)
    zero = Fraction(0)
    return Presentation.from_edges(6, 4, v + [v5, v6, full], {
        (v[0], v[1]): (half, half, half, half),
        (v[1], v[2]): (half, half, half, half),
        (v[2], v[3]): (half, half, half, half),
        (v[3], v[4]): (half, half, half, half),
        (v[4], v5): (half, zero, half, zero),
        (v[4], v6): (zero, half, zero, half),
        (v5, full): (half, zero, half, zero),
        (v6, full): (zero, half, zero, half),
    })


def fourmap_r6_forcing_candidates() -> list[Subspace]:
    """The four coordinate lines whose constraints pin the exponents, plus H."""
    lines = [span([[Fraction(1) if c == j else Fraction(0) for c in range(6)]], 6)
             for j in range(4)]
    return lines + [Subspace.full(6)]


ALL_FIXTURES = {
    "lw2": (lambda: loomis_whitney_datum(2), lambda: loomis_whitney_presentation(2)),
    "lw3": (lambda: loomis_whitney_datum(3), lambda: loomis_whitney_presentation(3)),
    "lw4": (lambda: loomis_whitney_datum(4), lambda: loomis_whitney_presentation(4)),
    "lw5": (lambda: loomis_whitney_datum(5), lambda: loomis_whitney_presentation(5)),
    "r6": (fourmap_r6_datum, fourmap_r6_presentation),
}
