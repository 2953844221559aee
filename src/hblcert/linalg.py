"""Exact linear algebra over the rationals.

No floating point enters. Subspaces are kept in a unique canonical form
(reduced row echelon rows scaled to primitive integers with positive pivots)
so that equality of spans is plain value equality and subspaces can be
hashed, sorted and used as graph vertices. Elimination runs on integer rows:
each input row is scaled by the lcm of its denominators, and Gauss-Jordan
proceeds fraction-free (Bareiss, Math. Comp. 22, 1968) with every new row
divided by its content. A subspace's `fractions.Fraction` basis, its rows
divided by their pivots, is formed only when something reads it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Scalar = Fraction | int | str
Rows = tuple[tuple[int, ...], ...]


def frac(x: Scalar) -> Fraction:
    """Coerce ints, Fractions and strings like "-3/4" to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The row divided by the gcd of its entries (unchanged if zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _over_common_denominator(values: Sequence[Fraction | int]) -> tuple[int, tuple[int, ...]]:
    """(D, n) with values[k] = n[k] / D, D the lcm of the denominators."""
    den = lcm(*(x.denominator for x in values))
    return den, tuple(x.numerator * (den // x.denominator) for x in values)


def _integer_row(row: Sequence[Fraction | int]) -> Sequence[int]:
    """Primitive integer multiple of a rational row."""
    return _primitive(_over_common_denominator(row)[1])


def _echelon(rows: Sequence[Sequence[int]], cols: int
             ) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free Gauss-Jordan on integer rows.

    Returns the nonzero rows and the pivot column of each: every pivot column
    is zero outside its own row, so dividing each row by its pivot entry
    gives the reduced row echelon form. Each row made by elimination is
    divided by its content, which keeps the entries small.
    """
    rows = [r for r in rows if any(r)]
    n = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == n:
            break
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows[r] = prow
        p = prow[c]
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
    return rows[:r], pivots


_ZERO, _ONE = Fraction(0), Fraction(1)


def _leading_ones(rows: Sequence[Sequence[int]], pivots: Sequence[int]) -> list[list[Fraction]]:
    """Each row divided by its pivot entry."""
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        out.append([_ZERO if not x else _ONE if x == p else Fraction(x, p) for x in row])
    return out


def _rref(rows: Sequence[Sequence[Fraction | int]], cols: int
          ) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with leading-one pivots.

    Returns the nonzero rows and the pivot column of each.
    """
    reduced, pivots = _echelon([_integer_row(r) for r in rows], cols)
    return _leading_ones(reduced, pivots), pivots


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"matrix needs {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> Matrix:
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, got {width}")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged matrix rows")
        flat = tuple(frac(x) for r in rows for x in r)
        return Matrix(len(rows), cols, flat)

    @staticmethod
    def identity(n: int) -> Matrix:
        ent = tuple(Fraction(1) if i == j else Fraction(0) for i in range(n) for j in range(n))
        return Matrix(n, n, ent)

    @staticmethod
    def zeros(rows: int, cols: int) -> Matrix:
        return Matrix(rows, cols, (Fraction(0),) * (rows * cols))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> Matrix:
        ent = tuple(self[i, j] for j in range(self.cols) for i in range(self.rows))
        return Matrix(self.cols, self.rows, ent)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        da, a = self._scaled
        db, b = other._scaled
        den = da * db
        cols = list(zip(*b)) if b else [()] * other.cols
        out = []
        for ra in a:
            for cb in cols:
                x = sum(map(mul, ra, cb))
                out.append(Fraction(x, den) if x else _ZERO)
        return Matrix(self.rows, other.cols, tuple(out))

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """D and the integer rows of D * self, with D the lcm of all denominators.

        One common factor for the whole matrix: scaling rows separately
        would change the map, and so its images.
        """
        den, flat = _over_common_denominator(self.entries)
        c = self.cols
        return den, tuple(flat[i * c:(i + 1) * c] for i in range(self.rows))

    def inverse(self) -> Matrix:
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        aug = [list(self.row(i)) + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
               for i in range(n)]
        reduced, pivots = _rref(aug, 2 * n)
        if pivots[:n] != list(range(n)) or len(reduced) != n:
            raise ValueError("singular matrix")
        ent = tuple(reduced[i][n + j] for i in range(n) for j in range(n))
        return Matrix(n, n, ent)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient, stored as the unique echelon form of its span.

    `echelon` holds the reduced row echelon rows scaled to primitive integers
    with positive pivots. Equal spans produce identical values, so `==`,
    `hash` and sorting all operate on the subspace itself rather than on one
    of its presentations. The zero subspace has no rows. The `Fraction`
    basis with leading ones is formed only when read.
    """

    ambient: int
    echelon: Rows

    def __post_init__(self) -> None:
        if any(len(row) != self.ambient for row in self.echelon):
            raise ValueError("echelon row width does not match ambient dimension")

    @staticmethod
    def zero(ambient: int) -> Subspace:
        return Subspace(ambient, ())

    @staticmethod
    def full(ambient: int) -> Subspace:
        return Subspace(ambient, tuple(tuple(int(i == j) for j in range(ambient))
                                       for i in range(ambient)))

    @cached_property
    def dim(self) -> int:
        return len(self.echelon)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient

    @cached_property
    def basis(self) -> Matrix:
        """The RREF basis: each row of `echelon` divided by its pivot entry."""
        flat = tuple(x for row in _leading_ones(self.echelon, self.pivots) for x in row)
        return Matrix(self.dim, self.ambient, flat)

    @property
    def sort_key(self) -> tuple:
        return (self.dim, self.basis.entries)

    def basis_rows(self) -> list[tuple[Fraction, ...]]:
        return [self.basis.row(i) for i in range(self.dim)]

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.echelon)

    def __add__(self, other: Subspace) -> Subspace:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch in subspace sum")
        return _canonical([*self.echelon, *other.echelon], self.ambient)

    def __and__(self, other: Subspace) -> Subspace:
        return sum_and_intersection(self, other)[1]

    def __le__(self, other: Subspace) -> bool:
        """U <= W: every echelon row of U is annihilated by the rows of W-perp.

        U <= W also puts each pivot of U among the pivots of W, a first filter
        that takes no product.
        """
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch in subspace comparison")
        if self.dim > other.dim or not set(self.pivots).issubset(other.pivots):
            return False
        perp = other.perp().echelon
        return not any(sum(map(mul, p, x)) for x in self.echelon for p in perp)

    def perp(self) -> Subspace:
        """Orthogonal complement w.r.t. the standard inner product."""
        return self._perp

    @cached_property
    def _perp(self) -> Subspace:
        # Computed once: a split reads V-perp in the quotient, the children's
        # families and the concatenation, and every inclusion test U <= V
        # reads V-perp. The echelon rows are already reduced.
        return _null_space(self.echelon, self.pivots, self.ambient)

    def projector(self) -> Matrix:
        """Orthogonal projector onto this subspace: B^T (B B^T)^-1 B."""
        if self.dim == 0:
            return Matrix.zeros(self.ambient, self.ambient)
        b = self.basis
        gram = b @ b.transpose()
        return b.transpose() @ gram.inverse() @ b

    def chart(self) -> Matrix:
        """The chart Q^dim -> Q^ambient whose columns are the RREF basis."""
        return self.basis.transpose()

    def retraction(self) -> Matrix:
        """Left inverse of the chart: selects pivot coordinates.

        With E = chart(), retraction() @ E is the identity and
        E @ retraction() restricts to the identity on the subspace itself.
        """
        rows = []
        for p in self.pivots:
            rows.append([Fraction(1) if j == p else Fraction(0) for j in range(self.ambient)])
        return Matrix.from_rows(rows, cols=self.ambient)


def _normalized(rows: Sequence[Sequence[int]], pivots: Sequence[int]) -> Rows:
    """Echelon rows as primitive integer rows with positive pivots.

    These rows depend on the span alone: they are a subspace's `echelon`.
    """
    return tuple(tuple(_primitive(row if row[p] > 0 else [-x for x in row]))
                 for row, p in zip(rows, pivots))


def _canonical(rows: Sequence[Sequence[int]], ambient: int) -> Subspace:
    """Canonical subspace spanned by integer rows."""
    reduced, pivots = _echelon(rows, ambient)
    return Subspace(ambient, _normalized(reduced, pivots))


def canonicalize(generators: Matrix) -> Subspace:
    """Row space of `generators` in canonical RREF form."""
    return _canonical([_integer_row(generators.row(i)) for i in range(generators.rows)],
                      generators.cols)


def span(vectors: Iterable[Sequence[Scalar]], ambient: int) -> Subspace:
    """Subspace spanned by the given vectors of Q^ambient."""
    rows = [[frac(x) for x in v] for v in vectors]
    for r in rows:
        if len(r) != ambient:
            raise ValueError("vector length does not match ambient dimension")
    return canonicalize(Matrix.from_rows(rows, cols=ambient))


def _image_rows(map_: Matrix, v: Subspace) -> list[list[int]]:
    if map_.cols != v.ambient:
        raise ValueError("map domain does not match subspace ambient")
    scaled = map_._scaled[1]
    return [[sum(map(mul, row, b)) for row in scaled] for b in v.echelon]


def image(map_: Matrix, v: Subspace) -> Subspace:
    """Canonical image subspace map(v) inside Q^(map rows)."""
    return _canonical(_image_rows(map_, v), map_.rows)


def image_rank(map_: Matrix, v: Subspace) -> int:
    """dim map(v), without forming the image subspace."""
    return len(_echelon(_image_rows(map_, v), map_.rows)[1])


def kernel(map_: Matrix) -> Subspace:
    """Null space of the map, in canonical form."""
    return _null_space(*_echelon(map_._scaled[1], map_.cols), map_.cols)


def _null_space(reduced: Sequence[Sequence[int]], pivots: Sequence[int], cols: int) -> Subspace:
    """Null space of integer rows in which each pivot column is zero outside its row."""
    pivot_set = set(pivots)
    rows = []
    for f in range(cols):
        if f in pivot_set:
            continue
        # Integer null vector with entry `scale` at free column f: each
        # pivot row k then forces entry -row[f] * scale / row[p] at p.
        scale = lcm(*(row[p] for row, p in zip(reduced, pivots) if row[f]))
        v = [0] * cols
        v[f] = scale
        for row, p in zip(reduced, pivots):
            v[p] = -row[f] * (scale // row[p])
        rows.append(v)
    return _canonical(rows, cols)


def quotient_rank(u: Subspace, w: Subspace) -> int:
    """dim(U + W) - dim U, without forming U + W: the rank of the echelon rows
    of W in coordinates of Q^m / U, one pairing with each row of U-perp."""
    if u.ambient != w.ambient:
        raise ValueError("ambient mismatch in subspace quotient rank")
    perp = u.perp().echelon
    return len(_echelon([[sum(map(mul, p, x)) for p in perp] for x in w.echelon],
                        u.ambient - u.dim)[1])


def sum_and_intersection(u: Subspace, w: Subspace) -> tuple[Subspace, Subspace]:
    """U + W and U cap W from one Zassenhaus elimination.

    The RREF of the rows [u, u] (u in U) and [w, 0] (w in W), over 2m
    columns, splits in two: the rows with a pivot left of column m have as
    left halves the RREF of U + W, and the other rows, whose left halves are
    zero, have as right halves the RREF of U cap W.
    """
    if u.ambient != w.ambient:
        raise ValueError("ambient mismatch in subspace sum and intersection")
    m = u.ambient
    zeros = (0,) * m
    rows = [b + b for b in u.echelon] + [b + zeros for b in w.echelon]
    reduced, pivots = _echelon(rows, 2 * m)
    k = bisect_left(pivots, m)
    meet_pivots = [p - m for p in pivots[k:]]
    return (Subspace(m, _normalized([row[:m] for row in reduced[:k]], pivots[:k])),
            Subspace(m, _normalized([row[m:] for row in reduced[k:]], meet_pivots)))
