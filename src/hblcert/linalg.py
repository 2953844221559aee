"""Exact linear algebra over the rationals.

No floating point enters. Subspaces are kept in a unique canonical form
(reduced row echelon basis of `fractions.Fraction`s) so that equality of
spans is plain value equality and subspaces can be hashed, sorted and used
as graph vertices. Elimination itself runs on integer rows: each input row
is scaled by the lcm of its denominators, Gauss-Jordan proceeds
fraction-free (Bareiss, Math. Comp. 22, 1968) with every new row divided by
its content, and only the finished rows are divided by their pivots.
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

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

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

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum((self[i, k] * vec[k] for k in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

    def __add__(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: Matrix) -> Matrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c: Scalar) -> Matrix:
        c = frac(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def stack(self, other: Matrix) -> Matrix:
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    @cached_property
    def rank(self) -> int:
        return len(_echelon(self._scaled[1], self.cols)[1])

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

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("length mismatch in dot product")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(v: Sequence[Fraction]) -> Fraction:
    return dot(v, v)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient, stored as the unique RREF basis of its span.

    Equal spans produce identical values, so `==`, `hash` and sorting all
    operate on the subspace itself rather than on one of its presentations.
    The zero subspace has a basis with no rows.
    """

    ambient: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient:
            raise ValueError("basis width does not match ambient dimension")

    @staticmethod
    def zero(ambient: int) -> Subspace:
        return Subspace(ambient, Matrix.zeros(0, ambient))

    @staticmethod
    def full(ambient: int) -> Subspace:
        return Subspace(ambient, Matrix.identity(ambient))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient

    @property
    def sort_key(self) -> tuple:
        return (self.dim, self.basis.entries)

    def basis_rows(self) -> list[tuple[Fraction, ...]]:
        return [self.basis.row(i) for i in range(self.dim)]

    def contains_vector(self, vec: Sequence[Fraction]) -> bool:
        v = [frac(x) for x in vec]
        for i in range(self.dim):
            p = self.pivots[i]
            if v[p] != 0:
                f = v[p]
                row = self.basis.row(i)
                v = [a - f * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        # Basis is already in RREF; pivots are the leading-one columns.
        out = []
        for i in range(self.dim):
            row = self.basis.row(i)
            out.append(next(j for j, x in enumerate(row) if x != 0))
        return tuple(out)

    @cached_property
    def _integer_basis(self) -> Rows:
        """Primitive integer multiples of the basis rows.

        Their pivots are positive, so these rows are a function of the
        basis alone; subspaces built by elimination get them set directly.
        """
        return tuple(tuple(_integer_row(row)) for row in self.basis_rows())

    def __hash__(self) -> int:
        # The integer rows and the basis determine each other, so this agrees
        # with equality, and it is far cheaper than hashing Fractions.
        return hash((self.ambient, self._integer_basis))

    def __add__(self, other: Subspace) -> Subspace:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch in subspace sum")
        return _canonical([*self._integer_basis, *other._integer_basis], self.ambient)

    def __and__(self, other: Subspace) -> Subspace:
        return _from_rows(self.ambient, *_zassenhaus(self, other)[1])

    def __le__(self, other: Subspace) -> bool:
        return (self + other) == other

    def perp(self) -> Subspace:
        """Orthogonal complement w.r.t. the standard inner product."""
        return kernel(self.basis)

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

    These rows depend on the span alone, so they can key a subspace before,
    or instead of, its Fraction basis being formed.
    """
    return tuple(tuple(_primitive(row if row[p] > 0 else [-x for x in row]))
                 for row, p in zip(rows, pivots))


def _from_rows(ambient: int, rows: Rows, pivots: Sequence[int]) -> Subspace:
    """The subspace with these normalized echelon rows."""
    flat = tuple(x for row in _leading_ones(rows, pivots) for x in row)
    sub = Subspace(ambient, Matrix(len(rows), ambient, flat))
    object.__setattr__(sub, "_integer_basis", rows)
    return sub


def _canonical(rows: Sequence[Sequence[int]], ambient: int) -> Subspace:
    """Canonical subspace spanned by integer rows."""
    reduced, pivots = _echelon(rows, ambient)
    return _from_rows(ambient, _normalized(reduced, pivots), pivots)


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
    return [[sum(map(mul, row, b)) for row in scaled] for b in v._integer_basis]


def image(map_: Matrix, v: Subspace) -> Subspace:
    """Canonical image subspace map(v) inside Q^(map rows)."""
    return _canonical(_image_rows(map_, v), map_.rows)


def image_rank(map_: Matrix, v: Subspace) -> int:
    """dim map(v), without forming the image subspace."""
    return len(_echelon(_image_rows(map_, v), map_.rows)[1])


def kernel(map_: Matrix) -> Subspace:
    """Null space of the map, in canonical form."""
    cols = map_.cols
    reduced, pivots = _echelon(map_._scaled[1], cols)
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


def _zassenhaus(u: Subspace, w: Subspace
                ) -> tuple[tuple[Rows, list[int]], tuple[Rows, list[int]]]:
    """Normalized echelon rows and pivots of U + W and of U cap W.

    The RREF of the rows [u, u] (u in U) and [w, 0] (w in W), over 2m
    columns, splits in two: the rows with a pivot left of column m have as
    left halves the RREF of U + W, and the other rows, whose left halves are
    zero, have as right halves the RREF of U cap W.
    """
    if u.ambient != w.ambient:
        raise ValueError("ambient mismatch in subspace sum and intersection")
    m = u.ambient
    zeros = (0,) * m
    rows = [b + b for b in u._integer_basis] + [b + zeros for b in w._integer_basis]
    reduced, pivots = _echelon(rows, 2 * m)
    k = bisect_left(pivots, m)
    total_pivots = pivots[:k]
    meet_pivots = [p - m for p in pivots[k:]]
    return ((_normalized([row[:m] for row in reduced[:k]], total_pivots), total_pivots),
            (_normalized([row[m:] for row in reduced[k:]], meet_pivots), meet_pivots))


def sum_and_intersection(u: Subspace, w: Subspace) -> tuple[Subspace, Subspace]:
    """U + W and U cap W from one Zassenhaus elimination."""
    total, meet = _zassenhaus(u, w)
    return _from_rows(u.ambient, *total), _from_rows(u.ambient, *meet)
