"""Constructs a valid presentation from data satisfying the dimension
inequalities over a candidate family.

The construction recurses over intervals [A, B] of top-level subspaces, each
with a candidate family inside it, in integers: it passes exponent vectors
as points (D, N), N / D in lowest terms, and edge tables, (low, high)
subspace pair -> theta row in the top-level space, as D and integer rows
over D: dimension one is the edge A -> B carrying the exponents; a
non-extreme point is split into extreme points of the node's polytope, whose
rows are the dimension inequalities of B/A read off the build's
image-dimension table, and their tables convexly combined, after a check in
integers that the weights sum to one and mix back to the exponents; at an
extreme point the least critical subspace V (zero slack, proper), for which
only the critical rows of least dimension are ordered, splits [A, B] into
[A, V] and [V, B], whose tables are unioned. On a ready top-level family
(lattice.is_ready) the children are its intervals, read off the kept inclusion
order, and the image dimensions come from its meets; other families are
closed afresh inside each child. A node's polytope and splits do not depend
on its exponents, so its extreme points and its revisits share them, and
each node forms the row gaps and the tight echelon of an exponent vector
once: the vertices Caratheodory reaches come with theirs. A tight echelon
stops at rank n, and a bisection point's extends its parent's by the rows
that became tight. The scaling equality is read off the root polytope's
equality row and checked again, in integers, on each dimension-one edge
(base_case_dim1); the nodes between inherit it: extreme points lie on the
polytope's B row, and the children of a split at a critical V inherit it.
The one presentation made from the top-level table, in Fractions, is verified
exactly, so an impoverished candidate family can only cause an explicit
failure, never a wrong certificate. Other Fractions are formed only for
Caratheodory's weights and for error text, and trace lines only when the
caller passes a trace list.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul, sub
from typing import NamedTuple

from hblcert.data import HBLDatum
from hblcert.lattice import CandidateLattice, generate_lattice, is_ready
from hblcert.linalg import (
    Subspace,
    _echelon,
    _null_space,
    _over_common_denominator,
    _primitive,
    ordered,
    sum_and_intersection,
)
from hblcert.presentation import Presentation, verify_presentation


class BuildError(Exception):
    """Raised when no certificate can be constructed; message says why."""


class InsufficientCandidates(BuildError):
    """The candidate family was too small to decide: a larger one may build."""


Point = tuple[int, tuple[int, ...]]  # (D, N): the exponent vector N / D, in lowest terms
EdgeTable = tuple[int, dict[tuple[Subspace, Subspace], tuple[int, ...]]]  # D, D * theta rows
Echelon = tuple[list[Sequence[int]], list[int]]  # reduced rows and pivots, as _echelon gives
Met = tuple[list[int], Echelon]  # row gaps and tight echelon of a point of a polytope


def as_point(tau: Sequence[Fraction]) -> Point:
    """The exponent vector tau, in Fractions, as the point (D, N): D is the
    lcm of the denominators, so N / D is in lowest terms."""
    return _over_common_denominator(tau)


class PolytopeRow(NamedTuple):
    """The constraint coeffs . tau >= rhs (== rhs if `equality`), in integers;
    `subspace` is a dimension row's candidate V, None for a box row."""

    coeffs: tuple[int, ...]
    rhs: int
    equality: bool
    subspace: Subspace | None

    @property
    def provenance(self) -> str:
        """The row's name in reports: a candidate row's rhs is dim V - dim low,
        and a box row's unit coefficient is +1 for tau_i >= 0, -1 for tau_i <= 1."""
        if self.subspace is not None:
            return f"dim-{self.rhs} candidate"
        i = next(i for i, c in enumerate(self.coeffs) if c)
        return f"tau{i + 1} >= 0" if self.coeffs[i] > 0 else f"tau{i + 1} <= 1"


class ExponentPolytope(NamedTuple):
    n: int
    rows: tuple[PolytopeRow, ...]

    def gaps(self, point: Point) -> Iterator[int]:
        """Lazily D * (coeffs . tau - rhs) per row, at the point tau = N / D."""
        den, nums = point
        return (sum(map(mul, row.coeffs, nums)) - row.rhs * den for row in self.rows)

    def violated(self, gaps: Iterable[int]) -> tuple[PolytopeRow, int] | None:
        """The first row the gaps violate, with its gap, or None."""
        return next(((row, gap) for row, gap in zip(self.rows, gaps)
                     if gap < 0 or (row.equality and gap > 0)), None)

    def criticals(self, gaps: Iterable[int]) -> list[PolytopeRow]:
        """The rows of the critical subspaces, in `linalg.ordered` order: the
        candidate rows of gap zero but the equality row's."""
        rows = {row.subspace: row for row in self._critical_rows(gaps)}
        return [rows[v] for v in ordered(rows)]

    def least_critical(self, gaps: Iterable[int]) -> Subspace | None:
        """The subspace of `criticals(gaps)[0]`, or None, ordering only the
        critical rows of least dimension: a row's rhs is dim V - dim low."""
        rows = self._critical_rows(gaps)
        if not rows:
            return None
        least = min(row.rhs for row in rows)
        return ordered(row.subspace for row in rows if row.rhs == least)[0]

    def _critical_rows(self, gaps: Iterable[int]) -> list[PolytopeRow]:
        return [row for row, gap in zip(self.rows, gaps)
                if gap == 0 and row.subspace is not None and not row.equality]

    def member(self, tau) -> PolytopeRow | None:
        """None if tau, in Fractions, satisfies every row, else the first violated row."""
        violated = self.violated(self.gaps(as_point(tau)))
        return None if violated is None else violated[0]


class ExtremeDecomposition(NamedTuple):
    terms: tuple[tuple[Fraction, Point], ...]  # (coefficient, extreme point)


def polytope_from_candidates(datum: HBLDatum, candidates: Iterable[Subspace],
                             low: Subspace | None = None,
                             high: Subspace | None = None) -> ExponentPolytope:
    """The candidate polytope of the interval [low, high], by default [{0}, H].

    One >=-row per candidate U strictly between low and high in dimension, in
    the family's order, an =-row at U = high, then box rows 0<=tau<=1. U's
    row, (dim pi_i(U) - dim pi_i(low))_i . tau >= dim U - dim low, is the
    inequality of U/low in high/low, whose slack is its gap over D.
    """
    n = datum.n_maps
    low = Subspace.zero(datum.dim) if low is None else low
    high = Subspace.full(datum.dim) if high is None else high
    base, span = datum.image_dims(low), high.dim - low.dim
    rows: list[PolytopeRow] = []
    for v in candidates:
        d = v.dim - low.dim
        top = d == span and v == high
        if not (0 < d < span or top):
            continue  # low itself, whose row is vacuous, or no member of [low, high]
        rows.append(PolytopeRow(tuple(map(sub, datum.image_dims(v), base)), d, top, v))
    for i in range(n):
        rows.append(PolytopeRow(tuple(1 if j == i else 0 for j in range(n)), 0, False, None))
        rows.append(PolytopeRow(tuple(-1 if j == i else 0 for j in range(n)), -1, False, None))
    return ExponentPolytope(n, tuple(rows))


def enumerate_extremes(poly: ExponentPolytope) -> tuple[tuple[Fraction, ...], ...]:
    """The vertices of the polytope, sorted, by the double-description method.

    A point tau is the ray (tau, 1) and a row coeffs . tau >= rhs the cut
    (coeffs, -rhs) . (x, t) >= 0; an equality row gives two cuts. The cone
    starts as the orthant x, t >= 0, which holds the cone over the polytope
    because the polytope has the rows tau >= 0, and the cuts are applied in
    order, in integers. Each ray keeps the bitmask of the cuts it is tight on,
    the orthant's first; two rays are adjacent when they share at least
    n - 1 tight cuts and no third ray is tight on all of them. The polytope
    has the rows tau <= 1, so every ray left has t > 0 and is a vertex; an
    empty polytope leaves none.
    """
    n = poly.n
    orthant = (1 << n + 1) - 1
    rays = {tuple(int(i == j) for j in range(n + 1)): orthant & ~(1 << i) for i in range(n + 1)}
    cuts = []
    for row in poly.rows:
        cut = (*row.coeffs, -row.rhs)
        cuts += [cut, tuple(-c for c in cut)] if row.equality else [cut]
    for bit, cut in enumerate(cuts, n + 1):
        side = {ray: sum(map(mul, cut, ray)) for ray in rays}
        kept = {ray: tight | (side[ray] == 0) << bit
                for ray, tight in rays.items() if side[ray] >= 0}
        below = [ray for ray in rays if side[ray] < 0]
        for a in (ray for ray in rays if side[ray] > 0):
            for b in below:
                common = rays[a] & rays[b]
                if common.bit_count() < n - 1 or any(
                        common & ~tight == 0 for ray, tight in rays.items() if ray not in (a, b)):
                    continue
                new = _primitive([side[a] * y - side[b] * x for x, y in zip(a, b)])
                kept[tuple(new)] = common | 1 << bit
        rays = kept
    return tuple(sorted(tuple(Fraction(x, ray[n]) for x in ray[:n]) for ray in rays))


def caratheodory(poly: ExponentPolytope, point: Point, *,
                 met: dict[Point, Met] | None = None) -> ExtremeDecomposition:
    """Exact convex decomposition of a member point N / D into at most n+1 vertices.

    Walks tight-set bisections down to vertices, then trims the combination
    by eliminating affine dependences; every step is exact, and before
    returning sum c_k = 1 and sum c_k tau_k = tau are checked in integers.
    `met`, when given, maps points of the polytope to their row gaps and
    `_tight` echelon: the point's are read from it when there, and each
    vertex the bisections reach is entered into it with its own.
    """
    met = {} if met is None else met
    gaps, tight = met.get(point) or (list(poly.gaps(point)), None)
    violated = poly.violated(gaps)
    if violated is not None:
        row, gap = violated
        raise ValueError(f"tau violates constraint {row.provenance}: "
                         f"{row.rhs + Fraction(gap, point[0])} vs {row.rhs}")
    raw = _decompose_point(poly, point, gaps, _tight(poly, gaps) if tight is None else tight, met)
    terms = _reduce_caratheodory(poly.n, raw)
    if not _reconstructs(terms, point):
        raise BuildError("convex decomposition failed to reconstruct the exponents")
    return ExtremeDecomposition(tuple(terms))


def _reconstructs(terms: list[tuple[Fraction, Point]], point: Point) -> bool:
    """Whether sum c_k = 1 and sum c_k p_k = N / D, in integers: with
    p_k = P_k / d_k and L = lcm(D, denominator(c_k) d_k), c_k = s_k d_k / L
    and c_k p_k = s_k P_k / L."""
    den, nums = point
    big = lcm(den, *(c.denominator * d for c, (d, _) in terms))
    scales = [c.numerator * (big // (c.denominator * d)) for c, (d, _) in terms]
    return (sum(s * d for s, (_, (d, _)) in zip(scales, terms)) == big
            and [sum(map(mul, scales, column)) for column in zip(*(p for _, (_, p) in terms))]
            == [x * (big // den) for x in nums])


def _tight(poly: ExponentPolytope, gaps: list[int]) -> Echelon:
    """`_echelon` of the rows of gap zero: tau is a vertex when it has rank n,
    and the rows past that rank are never read; below n, its null space holds
    the directions that keep those rows tight."""
    return _echelon((row.coeffs for row, gap in zip(poly.rows, gaps) if gap == 0), poly.n)


def _decompose_point(poly: ExponentPolytope, point: Point, gaps: list[int], tight: Echelon,
                     reached: dict[Point, Met]) -> list[tuple[Fraction, Point]]:
    """Convex weights and vertices of the member point N / D, in lowest
    terms, with row gaps `gaps` (D * slack) and tight echelon `tight`.

    Along the direction d, a positive integer multiple of the first RREF
    row of the tight rows' null space, row r moves at speed s_r = coeffs_r . d;
    every tight row has speed 0. Going forward, the far end is reached after
    the least g_r / k over the rows with k = -s_r > 0, at the point
    (k N + g d) / (k D) with gaps k g_r + g s_r, all divided by their gcd;
    going back, k = s_r and g is negated. Its tight rows are this point's
    and those that became tight, so its echelon is `tight` with only the
    latter eliminated into it.
    """
    if len(tight[1]) == poly.n:
        reached[point] = gaps, tight
        return [(Fraction(1), point)]
    den, nums = point
    direction = _null_space(*tight, poly.n).echelon[0]
    rows = poly.rows
    speeds = {r: sum(map(mul, rows[r].coeffs, direction)) for r, gap in enumerate(gaps) if gap}
    ends = []
    for sign in (1, -1):
        best: tuple[int, int] | None = None
        for r, speed in speeds.items():
            k = -sign * speed
            if k > 0 and (best is None or gaps[r] * best[1] < best[0] * k):
                best = gaps[r], k
        if best is None:
            raise BuildError("unbounded direction in exponent polytope")
        ends.append(best)
    (g_plus, k_plus), (g_minus, k_minus) = ends
    if g_plus <= 0 or g_minus <= 0:
        raise BuildError("Caratheodory step along a tight direction has zero length")
    lam = Fraction(g_minus * k_plus, g_plus * k_minus + g_minus * k_plus)
    out = []
    for weight, k, step in ((lam, k_plus, g_plus), (1 - lam, k_minus, -g_minus)):
        end = [k * x + step * d for x, d in zip(nums, direction)]
        end_gaps = [k * gap + step * speeds[r] if gap else 0 for r, gap in enumerate(gaps)]
        g = gcd(k * den, *end)
        if g > 1:
            end = [x // g for x in end]
            end_gaps = [gap // g for gap in end_gaps]
        fresh = (rows[r].coeffs for r, gap in enumerate(end_gaps) if gap == 0 and gaps[r])
        for c, vertex in _decompose_point(poly, (k * den // g, tuple(end)), end_gaps,
                                          _echelon(fresh, poly.n, tight), reached):
            out.append((weight * c, vertex))
    return out


def _reduce_caratheodory(n: int, terms: list[tuple[Fraction, Point]]
                         ) -> list[tuple[Fraction, Point]]:
    """Merge duplicates and eliminate affine dependences until <= n+1 terms.
    The points are sorted as their Fraction vectors are: by their numerators
    over the points' common denominator."""
    merged: dict[Point, Fraction] = {}
    for c, p in terms:
        if c != 0:
            merged[p] = merged.get(p, 0) + c
    big = lcm(*(d for d, _ in merged))
    points = sorted(merged, key=lambda p: [x * (big // p[0]) for x in p[1]])
    coeffs = [merged[p] for p in points]
    while len(points) > n + 1:
        # Column k is (N_k, D_k), the point with a trailing 1 times D_k > 0, so a
        # null vector mu gives the affine dependence lam_k = mu_k D_k:
        # sum lam_k p_k = 0 and sum lam_k = 0, so some lam_k > 0. There are
        # more columns than the n+1 rows, so the null space is never zero.
        cols = len(points)
        rows = zip(*(nums + (d,) for d, nums in points))
        mu = _null_space(*_echelon(rows, cols), cols).echelon[0]
        lam = [m * d for m, (d, _) in zip(mu, points)]
        step: Fraction | None = None
        for c, l in zip(coeffs, lam):
            if l > 0 and (step is None or c / l < step):
                step = c / l
        if step is None:
            raise BuildError("affine dependence with no positive coefficient")
        coeffs = [c - step * l for c, l in zip(coeffs, lam)]
        keep = [k for k, c in enumerate(coeffs) if c != 0]
        points = [points[k] for k in keep]
        coeffs = [coeffs[k] for k in keep]
    return list(zip(coeffs, points))


def base_case_dim1(point: Point, low: Subspace, high: Subspace, rise: Sequence[int]) -> EdgeTable:
    """Single edge low -> high carrying the exponents N / D, for an interval
    of dimension one; rise is (dim pi_i(high) - dim pi_i(low))_i, and the
    scaling equality sum_i tau_i rise_i = 1 must hold."""
    if high.dim - low.dim != 1:
        raise ValueError("base case needs an interval of dimension 1")
    den, nums = point
    total = sum(map(mul, nums, rise))
    if total != den:
        raise BuildError(f"scaling equality fails in dimension 1: 1 != {Fraction(total, den)}")
    return den, {(low, high): nums}


def _endpoints(edges: Iterable[tuple[Subspace, Subspace]]) -> dict[Subspace, None]:
    """The distinct endpoints of the edges, in first-seen order."""
    return dict.fromkeys(w for edge in edges for w in edge)


def concatenate(low: EdgeTable, high: EdgeTable) -> EdgeTable:
    """Splice an edge table of [A, V] with one of [V, B]: both are in the
    top-level space, so the result is their union, low edges first, with no
    vertex moved, over the lcm of their denominators. It is not verified here."""
    den = lcm(low[0], high[0])
    return den, {edge: tuple(x * (den // d) for x in row)
                 for d, rows in (low, high) for edge, row in rows.items()}


def convex_combine(terms) -> EdgeTable:
    """Union the edge tables and mix the rows; absent edges contribute zero.

    Coefficients must be nonnegative and sum to one; callers verify the
    result against the mixed exponents. The mix runs in integers: with part
    j's rows over d_j and c_j = n_j / q_j, every product c_j x is put over
    L = lcm_j(q_j d_j), and the table is divided by the gcd of L and its
    entries, so that it is in lowest terms.
    """
    terms = [(Fraction(c), table) for c, table in terms]
    if not terms:
        raise ValueError("nothing to combine")
    total = sum((c for c, _ in terms), Fraction(0))
    if total != 1 or any(c < 0 for c, _ in terms):
        raise ValueError(f"coefficients must be nonnegative with sum 1, got sum {total}")
    ambients = {w.ambient for _, (_, edges) in terms for w in _endpoints(edges)}
    widths = {len(row) for _, (_, edges) in terms for row in edges.values()}
    if len(ambients) > 1 or len(widths) > 1:
        raise ValueError("edge tables must share ambient and width")
    den = lcm(*(c.denominator * d for c, (d, _) in terms))
    sums: dict[tuple[Subspace, Subspace], list[int]] = {}
    for c, (d, edges) in terms:
        scale = c.numerator * (den // (c.denominator * d))
        for edge, row in edges.items():
            acc = sums.setdefault(edge, [0] * len(row))
            for k, x in enumerate(row):
                acc[k] += x * scale
    g = gcd(den, *(x for acc in sums.values() for x in acc))
    return den // g, {edge: tuple(x // g for x in acc) for edge, acc in sums.items()}


def _text(point: Point) -> tuple[str, ...]:
    """The point N / D as the strings of its Fractions, for trace and error text."""
    den, nums = point
    return tuple(str(Fraction(x, den)) for x in nums)


def vertex_count_bound(n_maps: int, dim: int) -> int:
    """Worst-case vertex count of the recursive construction."""
    return ((n_maps + 1) ** dim - 1) // n_maps + 1


def _codim1_critical(ker: Subspace, low: Subspace, high: Subspace) -> Subspace:
    """For tau_i = 1 on a map of positive rank on high/low: a hyperplane of
    high through K = (ker pi_i + low) cap high, the kernel of the map on
    high/low.

    It is K plus the RREF basis of high cap K-perp, a complement of K in
    high, with the last vector dropped. By the scaling equality a hyperplane
    W of high through K has slack sum_{j != i} tau_j (dim pi_j(W) -
    dim pi_j(high)) in high/low, which is at most 0, and at least 0 for
    feasible data, so W is critical; the caller still checks its slack.
    """
    k = (ker + low) & high
    return k + Subspace(k.ambient, k.perp_in(high).echelon[:-1])


class _Node:
    """An interval [low, high] of top-level subspaces with its candidate
    family, whichever the exponents: the members of `lattice` whose bits are
    set in `members` (-1 sets them all). `ready` says that the family is
    closed and holds low, high and the node's kernels (ker pi_i + low) cap
    high, and that the lattice's order is complete; `splits` maps V to the
    children [low, V] and [V, high], `poly` is the polytope once made, and
    `met` maps each exponent point the node has met to its row gaps and
    tight echelon on that polytope."""

    def __init__(self, lattice: CandidateLattice, members: int,
                 low: Subspace, high: Subspace, ready: bool) -> None:
        self.lattice, self.members, self.low, self.high = lattice, members, low, high
        self.ready, self.splits, self.poly = ready, {}, None
        self.met: dict[Point, Met] = {}

    @cached_property
    def family(self) -> dict[Subspace, int]:
        """The members, in the lattice's order, with their indices in it."""
        return {u: k for k, u in enumerate(self.lattice.subspaces) if self.members >> k & 1}


def _split(datum: HBLDatum, node: _Node, v: Subspace, max_size: int) -> tuple[_Node, _Node]:
    """The children [low, V] and [V, high] of a node split at V.

    When the node is ready and holds V, they are its intervals, read off the
    lattice's order: closed, and holding their kernels, which are sums and
    meets of members. Otherwise generate_lattice closes inside each its ends,
    its kernels and the seeds U cap V or U + V of the members U, capped at
    max_size, which caps generation, not a family given; such a family is
    ready exactly when closed.
    """
    k = node.family.get(v) if node.ready else None
    if k is not None:
        order, lattice = node.lattice.order, node.lattice
        return (_Node(lattice, node.members & order.down[k], node.low, v, True),
                _Node(lattice, node.members & order.up[k], v, node.high, True))
    pairs = [sum_and_intersection(u, v) for u in node.family]
    low = generate_lattice(datum, [m for _, m in pairs], max_size, interval=(node.low, v))
    high = generate_lattice(datum, [t for t, _ in pairs], max_size, interval=(v, node.high))
    return _Node(low, -1, node.low, v, low.closed), _Node(high, -1, v, node.high, high.closed)


def _split_subspace(datum: HBLDatum, node: _Node, poly: ExponentPolytope,
                    point: Point, gaps: list[int]) -> tuple[Subspace, int | None]:
    """The subspace a node splits at, at extreme exponents N / D with the
    polytope's row gaps, and the branch taken: the least critical subspace
    in `linalg.ordered` order, with None, else the first tau_i = 1 (N_i = D)
    hyperplane of _codim1_critical, on a map of positive rank on high/low,
    if critical, with i."""
    low, high = node.low, node.high
    v = poly.least_critical(gaps)
    if v is not None:
        return v, None
    base, (den, nums) = datum.image_dims(low), point
    for i, (x, top, bottom) in enumerate(zip(nums, datum.image_dims(high), base)):
        if x == den and top > bottom:
            v = _codim1_critical(datum.kernels[i], low, high)
            rise = map(sub, datum.image_dims(v), base)
            if sum(map(mul, nums, rise)) == den * (v.dim - low.dim):
                return v, i
    raise InsufficientCandidates("candidate set insufficient: extreme exponents admit no "
                                 "critical subspace among the candidates")


def build_presentation(datum: HBLDatum, candidates: CandidateLattice, *,
                       max_lattice: int = 512,
                       trace: list[str] | None = None) -> Presentation:
    """Recursive certificate construction; the output always verifies.

    Raises BuildError when the scaling equality fails or a candidate violates
    the dimension inequality at the datum's exponents, and its subclass
    InsufficientCandidates when the candidates are insufficient: a child
    violates it below a Caratheodory vertex, or no critical subspace can be
    found among them. A family without H, whose polytope has no scaling
    row, raises ValueError.
    """

    exponents = as_point(datum.exponents)

    def meet(node: _Node, point: Point) -> tuple[ExponentPolytope, Met]:
        """The node's polytope and its row gaps and tight echelon at the
        point, each formed the first time the node meets them."""
        poly = node.poly
        if poly is None:
            poly = node.poly = polytope_from_candidates(top, node.family, node.low, node.high)
        met = node.met.get(point)
        if met is None:
            gaps = list(poly.gaps(point))
            met = node.met[point] = gaps, _tight(poly, gaps)
        return poly, met

    def recurse(node: _Node, point: Point, depth: int) -> EdgeTable:
        # A trace line is formed only when the caller passed a trace list.
        indent = "  " * depth
        low, high = node.low, node.high
        if high.dim - low.dim == 1:
            if trace is not None:
                trace.append(f"{indent}dim 1 base case")
            return base_case_dim1(point, low, high,
                                  tuple(map(sub, top.image_dims(high), top.image_dims(low))))

        poly, (gaps, tight) = meet(node, point)
        # B's row holds by scaling and the box rows for any datum, so a
        # violated row is a candidate V's, with gap D * slack(V) in B/A.
        violated = poly.violated(gaps)
        if violated is not None:
            # At the datum's exponents a violation lifts to the datum itself;
            # below a Caratheodory vertex it only shows that the family missed
            # the subspace that cuts the vertex off.
            row, gap = violated
            reason = ("candidate subspace violates the dimension inequality "
                      f"(dim {row.rhs}, slack {Fraction(gap, point[0])})")
            if point == exponents:
                raise BuildError(reason)
            at = ", ".join(_text(point))
            raise InsufficientCandidates(
                f"candidate set insufficient: at exponents ({at}), a {reason}")
        if len(tight[1]) < poly.n:
            if trace is not None:
                trace.append(f"{indent}tau {_text(point)} not extreme; splitting")
            parts = []
            # The vertices reached are met here with their gaps and echelons.
            for c, vertex in caratheodory(poly, point, met=node.met).terms:
                if trace is not None:
                    trace.append(f"{indent}  extreme {_text(vertex)} with weight {c}")
                parts.append((c, recurse(node, vertex, depth + 1)))
            return convex_combine(parts)

        v, branch = _split_subspace(top, node, poly, point, gaps)
        if trace is not None:
            trace.append(indent + (f"critical subspace of dim {v.dim - low.dim}" if branch is None
                                   else f"tau{branch + 1}=1 branch: codim-1 critical subspace"))
        children = node.splits.get(v)
        if children is None:
            children = node.splits[v] = _split(top, node, v, max_lattice)
        low_edges, high_edges = (recurse(child, point, depth + 1) for child in children)
        return concatenate(low_edges, high_edges)

    ready, top = is_ready(datum, candidates), datum
    if ready:
        # The family's image dimensions from its meets fill a table of the
        # builder's own: the verification below computes its ranks afresh.
        top = HBLDatum(datum.dim, datum.maps, datum.names, datum.exponents,
                       _image_dims=candidates.meet_image_dims(datum.kernels))
    root = _Node(candidates, -1, Subspace.zero(datum.dim), Subspace.full(datum.dim), ready)
    # The family opens with {0} and H, so the root polytope's equality row,
    # H's, carries the scaling slack; a dimension-one root is met here only.
    poly, (gaps, _) = meet(root, exponents)
    scaling = next((gap for row, gap in zip(poly.rows, gaps) if row.equality), None)
    if scaling is None:
        raise ValueError("candidate family does not hold the full space")
    if scaling:
        raise BuildError(f"scaling equality fails: {datum.dim} != "
                         f"{datum.dim + Fraction(scaling, exponents[0])}")
    den, rows = recurse(root, exponents, 0)
    edges = {edge: tuple(Fraction(x, den) for x in row) for edge, row in rows.items()}
    pres = Presentation.from_edges(datum.dim, datum.n_maps, _endpoints(edges), edges)
    report = verify_presentation(datum, pres)
    if not report.valid:
        raise BuildError("constructed presentation failed verification: "
                         + "; ".join(report.problems))
    bound = vertex_count_bound(datum.n_maps, datum.dim)
    if len(pres.graph.vertices) > bound:
        raise BuildError(f"vertex count {len(pres.graph.vertices)} exceeds bound {bound}")
    return pres
