"""Exact linear algebra over the rationals.

No floating point enters. Subspaces are kept in a unique canonical form
(reduced row echelon rows scaled to primitive integers with positive pivots)
so that equality of spans is plain value equality and subspaces can be
hashed, sorted and used as graph vertices. A matrix is stored as a
denominator and integer rows, in lowest terms, so equal matrices are equal
values too. Every operation runs on integer rows: Gauss-Jordan proceeds
fraction-free (Bareiss, Math. Comp. 22, 1968) with every new row divided by
its content. The `fractions.Fraction` entries of a matrix, and so the basis
of a subspace, are formed only when something reads them.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

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


def _echelon(rows: Iterable[Sequence[int]], cols: int,
             start: tuple[Sequence[Sequence[int]], Sequence[int]] = ((), ())
             ) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free Gauss-Jordan on integer rows, one row at a time.

    Returns the nonzero rows and the pivot column of each, by pivot: every
    pivot column is zero outside its own row, so dividing each row by its
    pivot entry gives the reduced row echelon form. Each row is reduced by
    the pivot rows so far; if anything is left, its first nonzero column
    becomes a pivot and is eliminated from them. Each row made by
    elimination is divided by its content, which keeps the entries small.
    A lazy `rows` is read only up to the row that brings the rank to
    `cols`. `start`, an output of this routine, is extended by `rows`
    without being eliminated again.
    """
    reduced, pivots = list(start[0]), list(start[1])
    for row in rows:
        for prow, p in zip(reduced, pivots):
            f = row[p]
            if f:
                g = gcd(prow[p], f)
                row = _primitive([prow[p] // g * x - f // g * y for x, y in zip(row, prow)])
        for c, p in enumerate(row):
            if p:
                break
        else:
            continue  # the row is in the span of the pivot rows
        for k, prow in enumerate(reduced):
            f = prow[c]
            if f:
                g = gcd(p, f)
                reduced[k] = _primitive([p // g * x - f // g * y for x, y in zip(prow, row)])
        k = bisect_left(pivots, c)
        reduced.insert(k, row)
        pivots.insert(k, c)
        if len(pivots) == cols:
            break
    return reduced, pivots


# The package's records are NamedTuples, so `==` and `hash` are those of the
# tuple of their fields. A record that checks its fields, or has cached
# properties, subclasses the NamedTuple of its fields: it checks them in
# `__new__`, which a NamedTuple cannot override, and its instances get the
# `__dict__` that `cached_property` writes. Matrix and Subspace, made by
# every elimination, call `tuple.__new__` directly.
class _MatrixFields(NamedTuple):
    rows: int
    cols: int
    den: int
    ints: Rows


class Matrix(_MatrixFields):
    """Immutable dense rational matrix, stored as ints / den.

    `den` is the least common denominator of the entries and `ints` the
    integer rows of den * M; together they are in lowest terms, so `==` and
    `hash` compare values. One factor serves the whole matrix: scaling rows
    separately would change the map, and so its images. The `Fraction`
    entries, row-major, are formed only when read.
    """

    def __new__(cls, rows: int, cols: int, den: int, ints: Rows) -> Matrix:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(ints) != rows or any(len(r) != cols for r in ints):
            raise ValueError(f"matrix needs {rows} rows of {cols} entries")
        return tuple.__new__(cls, (rows, cols, den, ints))

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
        den, flat = _over_common_denominator([frac(x) for r in rows for x in r])
        return Matrix(len(rows), cols, den, tuple(flat[i * cols:(i + 1) * cols]
                                                   for i in range(len(rows))))

    @staticmethod
    def zeros(rows: int, cols: int) -> Matrix:
        return _reduced(1, [[0] * cols] * rows, cols)

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for row in self.ints for x in row)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> Matrix:
        return _reduced(self.den, list(zip(*self.ints)) or [()] * self.cols, self.rows)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other.ints)) or [()] * other.cols
        return _reduced(self.den * other.den,
                        [[sum(map(mul, ra, cb)) for cb in cols] for ra in self.ints], other.cols)

    def inverse(self) -> Matrix:
        """Gauss-Jordan on [den * M | I]: row i ends [p_i e_i | r_i] with
        (den * M)^-1 row i = r_i / p_i, so M^-1 row i = den * r_i / p_i."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(self.ints)]
        reduced, pivots = _echelon(aug, 2 * n)
        if pivots[:n] != list(range(n)):
            raise ValueError("singular matrix")
        den = lcm(*(row[i] for i, row in enumerate(reduced)))
        return _reduced(den, [[x * self.den * (den // row[i]) for x in row[n:]]
                              for i, row in enumerate(reduced)], n)


def _reduced(den: int, ints: Sequence[Sequence[int]], cols: int) -> Matrix:
    """The matrix ints / den, for den > 0, in lowest terms."""
    g = gcd(den, *(x for row in ints for x in row)) if den > 1 else 1
    if g > 1:
        den //= g
        ints = [[x // g for x in row] for row in ints]
    return Matrix(len(ints), cols, den, tuple(map(tuple, ints)))


class _SubspaceFields(NamedTuple):
    ambient: int
    echelon: Rows


class Subspace(_SubspaceFields):
    """A subspace of Q^ambient, stored as the unique echelon form of its span.

    `echelon` holds the reduced row echelon rows scaled to primitive integers
    with positive pivots. Equal spans produce identical values, so `==`,
    `hash` and `ordered` all operate on the subspace itself rather than on
    one of its presentations. The zero subspace has no rows. The `Fraction`
    basis with leading ones is formed only when read.
    """

    def __new__(cls, ambient: int, echelon: Rows) -> Subspace:
        if any(len(row) != ambient for row in echelon):
            raise ValueError("echelon row width does not match ambient dimension")
        return tuple.__new__(cls, (ambient, echelon))

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
        """The RREF basis: each row of `echelon` divided by its pivot entry.

        Its denominator is the lcm of the pivot entries, in lowest terms
        already, because the echelon rows are primitive.
        """
        den = lcm(*(row[p] for row, p in zip(self.echelon, self.pivots)))
        return _reduced(den, [[x * (den // row[p]) for x in row]
                              for row, p in zip(self.echelon, self.pivots)], self.ambient)

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
        # Computed once: every inclusion test U <= V reads V-perp. The
        # echelon rows are already reduced.
        return _null_space(self.echelon, self.pivots, self.ambient)

    def perp_in(self, high: Subspace) -> Subspace:
        """high cap self-perp, as the null space of the rows of self and of
        high-perp: one elimination over m columns, not 2m as in a meet."""
        if self.ambient != high.ambient:
            raise ValueError("ambient mismatch in relative complement")
        return _null_space(*_echelon(high.perp().echelon, self.ambient,
                                     (self.echelon, self.pivots)), self.ambient)

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
        return _reduced(1, [[int(j == p) for j in range(self.ambient)] for p in self.pivots],
                        self.ambient)


def ordered(subspaces: Iterable[Subspace]) -> list[Subspace]:
    """The subspaces by dimension, then by their RREF basis entries, row-major.

    The comparison runs in integers: each entry x / row[p] of the RREF basis
    is put over L, the lcm of the pivot entries of all the subspaces, which
    keeps the order of the `Fraction` entries.
    """
    subs = list(subspaces)
    den = lcm(*(row[p] for s in subs for row, p in zip(s.echelon, s.pivots)))
    return sorted(subs, key=lambda s: (s.dim, tuple(x * (den // row[p])
                                                    for row, p in zip(s.echelon, s.pivots)
                                                    for x in row)))


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
    return _canonical(generators.ints, generators.cols)


def span(vectors: Iterable[Sequence[Scalar]], ambient: int) -> Subspace:
    """Subspace spanned by the given vectors of Q^ambient."""
    return canonicalize(Matrix.from_rows(list(vectors), cols=ambient))


def _image_rows(map_: Matrix, v: Subspace) -> list[list[int]]:
    if map_.cols != v.ambient:
        raise ValueError("map domain does not match subspace ambient")
    return [[sum(map(mul, row, b)) for row in map_.ints] for b in v.echelon]


def image(map_: Matrix, v: Subspace) -> Subspace:
    """Canonical image subspace map(v) inside Q^(map rows)."""
    return _canonical(_image_rows(map_, v), map_.rows)


def image_rank(map_: Matrix, v: Subspace) -> int:
    """dim map(v), without forming the image subspace."""
    return len(_echelon(_image_rows(map_, v), map_.rows)[1])


def off_image_ratio(map_: Matrix, v: Subspace, w: Sequence[int]) -> Fraction:
    """|P-perp map(w)|^2 / |w|^2 for a nonzero integer vector w, with P-perp
    projecting off map(v); no subspace or null space is formed.

    With E the independent integer rows of den * map(v) that elimination
    leaves and x = den * map(w), |P-perp x|^2 = det G([E; x]) / det G(E), G
    the Gram matrix (det 1 for an empty E). One fraction-free (Bareiss)
    elimination on the upper triangle of G([E; x]) gives both: G(E) is
    positive definite, so no pivot is zero, and the pivot before the last is
    det G(E).
    """
    rows = [*_echelon(_image_rows(map_, v), map_.rows)[0],
            [sum(map(mul, row, w)) for row in map_.ints]]
    g = [[sum(map(mul, a, b)) if j >= i else 0 for j, b in enumerate(rows)]
         for i, a in enumerate(rows)]
    n, prev = len(g), 1
    for k in range(n - 1):
        gk, p = g[k], g[k][k]
        for i in range(k + 1, n):
            gi, f = g[i], gk[i]
            for j in range(i, n):
                gi[j] = (p * gi[j] - f * gk[j]) // prev
        prev = p
    return Fraction(g[-1][-1], prev * map_.den ** 2 * sum(x * x for x in w))


def kernel(map_: Matrix) -> Subspace:
    """Null space of the map, in canonical form."""
    return _null_space(*_echelon(map_.ints, map_.cols), map_.cols)


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
    # The rows [u, u] are reduced already, with U's pivots: only W's are eliminated.
    reduced, pivots = _echelon([b + zeros for b in w.echelon], 2 * m,
                               ([b + b for b in u.echelon], u.pivots))
    k = bisect_left(pivots, m)
    meet_pivots = [p - m for p in pivots[k:]]
    return (Subspace(m, _normalized([row[:m] for row in reduced[:k]], pivots[:k])),
            Subspace(m, _normalized([row[m:] for row in reduced[k:]], meet_pivots)))
