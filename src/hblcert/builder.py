"""Constructs a valid presentation from data satisfying the dimension
inequalities over a candidate family.

The construction recurses on ambient dimension over nodes (a datum's maps
with a candidate family) and passes edge tables, (low, high) subspace pair
-> theta row: dimension one is a single edge carrying the exponents; a
non-extreme exponent vector is split into extreme points of the candidate
polytope and their tables convexly combined; at an extreme point a critical
subspace (zero slack, proper) pivots the problem into a restriction to V and
a quotient onto V-perp whose tables concatenate; at a V in a ready top-level
family (data.is_ready) the children's families are its intervals, and the
family's image dimensions come from its meets, into the build's own table.
A node's polytope and splits do not depend on its exponents, so its extreme
points and its revisits share them. The scaling equality is checked once, at the
top: extreme points lie on the polytope's H row, and the children of a split
at a critical V inherit it. The one presentation made from the top-level
table is verified exactly, so an impoverished candidate family can only
cause an explicit failure, never a wrong certificate.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, sub

from hblcert.data import (
    CandidateLattice,
    HBLDatum,
    check_scaling,
    generate_lattice,
    is_ready,
    quotient_datum,
    restrict_datum,
    subspace_slack,
)
from hblcert.linalg import (
    Matrix,
    Subspace,
    _echelon,
    _null_space,
    _over_common_denominator,
    _primitive,
    image,
    kernel,
    ordered,
    preimage,
    span,
    sum_and_intersection,
)
from hblcert.presentation import Presentation, verify_presentation


class BuildError(Exception):
    """Raised when no certificate can be constructed; message says why."""


class InsufficientCandidates(BuildError):
    """The candidate family was too small to decide: a larger one may build."""


EdgeTable = dict[tuple[Subspace, Subspace], tuple[Fraction, ...]]
Echelon = tuple[list[Sequence[int]], list[int]]  # reduced rows and pivots, as _echelon gives


@dataclass(frozen=True)
class PolytopeRow:
    """The constraint coeffs . tau >= rhs (== rhs if `equality`), in integers;
    `subspace` is a dimension row's candidate V, None for a box row."""

    coeffs: tuple[int, ...]
    rhs: int
    equality: bool
    provenance: str
    subspace: Subspace | None


@dataclass(frozen=True)
class ExponentPolytope:
    n: int
    rows: tuple[PolytopeRow, ...]

    def gaps(self, tau) -> tuple[int, Iterator[int]]:
        """D, the common denominator of tau, and lazily D * (coeffs . tau - rhs) per row."""
        den, nums = _over_common_denominator(tau)
        return den, (sum(map(mul, row.coeffs, nums)) - row.rhs * den for row in self.rows)

    def violated(self, gaps: Iterable[int]) -> tuple[PolytopeRow, int] | None:
        """The first row the gaps violate, with its gap, or None."""
        return next(((row, gap) for row, gap in zip(self.rows, gaps)
                     if gap < 0 or (row.equality and gap > 0)), None)

    def criticals(self, gaps: Iterable[int]) -> list[PolytopeRow]:
        """The rows of the critical subspaces, in `linalg.ordered` order: the
        candidate rows of gap zero but H's."""
        rows = {row.subspace: row for row, gap in zip(self.rows, gaps)
                if gap == 0 and row.subspace is not None and not row.equality}
        return [rows[v] for v in ordered(rows)]

    def member(self, tau) -> PolytopeRow | None:
        """None if tau satisfies every row, else the first violated row."""
        violated = self.violated(self.gaps(tau)[1])
        return None if violated is None else violated[0]


@dataclass(frozen=True)
class ExtremeDecomposition:
    terms: tuple[tuple[Fraction, tuple[Fraction, ...]], ...]  # (coefficient, extreme tau)


def polytope_from_candidates(datum: HBLDatum, candidates: CandidateLattice) -> ExponentPolytope:
    """One >=-row per proper candidate, in the family's order, an =-row for H,
    then box rows 0<=tau<=1; the gap of V's row is D times the slack of V."""
    n = datum.n_maps
    rows: list[PolytopeRow] = []
    for v in candidates.subspaces:
        if v.dim == 0:
            continue  # vacuous row
        rows.append(PolytopeRow(datum.image_dims(v), v.dim, v.is_full(),
                                f"dim-{v.dim} candidate", v))
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        rows.append(PolytopeRow(unit, 0, False, f"tau{i + 1} >= 0", None))
        neg = tuple(-1 if j == i else 0 for j in range(n))
        rows.append(PolytopeRow(neg, -1, False, f"tau{i + 1} <= 1", None))
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


def caratheodory(poly: ExponentPolytope, tau, *,
                 gaps: tuple[int, list[int]] | None = None,
                 tight: Echelon | None = None) -> ExtremeDecomposition:
    """Exact convex decomposition of a member point into at most n+1 vertices.

    Walks tight-set bisections down to vertices, then trims the combination
    by eliminating affine dependences; every step is rational arithmetic and
    the reconstruction sum c_k tau_k = tau is verified before returning.
    `gaps`, when given, is D and the list of row gaps of `poly.gaps(tau)`,
    and `tight` the `_tight` echelon of those gaps, which a caller that has
    them passes rather than compute them again.
    """
    tau = tuple(Fraction(t) for t in tau)
    if gaps is None:
        den, lazy = poly.gaps(tau)
        gaps = den, list(lazy)
    den, row_gaps = gaps
    violated = poly.violated(row_gaps)
    if violated is not None:
        row, gap = violated
        raise ValueError(f"tau violates constraint {row.provenance}: "
                         f"{row.rhs + Fraction(gap, den)} vs {row.rhs}")
    raw = _decompose_point(poly, tau, den, row_gaps,
                           _tight(poly, row_gaps) if tight is None else tight)
    terms = _reduce_caratheodory(poly.n, raw)
    total = sum((c for c, _ in terms), Fraction(0))
    recon = tuple(
        sum((c * p[i] for c, p in terms), Fraction(0)) for i in range(poly.n)
    )
    if total != 1 or recon != tau:
        raise BuildError("convex decomposition failed to reconstruct the exponents")
    return ExtremeDecomposition(tuple(terms))


def _tight(poly: ExponentPolytope, gaps: list[int]) -> Echelon:
    """`_echelon` of the rows of gap zero: tau is a vertex when it has rank n,
    and its null space holds the directions that keep those rows tight."""
    return _echelon([row.coeffs for row, gap in zip(poly.rows, gaps) if gap == 0], poly.n)


def _decompose_point(poly: ExponentPolytope, tau, den: int, gaps: list[int], tight: Echelon
                     ) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """Convex weights and vertices of a member point whose row gaps are D * `gaps`."""
    null = _null_space(*tight, poly.n)
    if null.dim == 0:
        return [(Fraction(1), tau)]
    # A positive integer multiple of the RREF direction: the step lengths
    # shrink by the same factor, so the end points and lam do not change.
    direction = null.echelon[0]

    def max_step(sign: int) -> Fraction:
        best: Fraction | None = None
        for row, gap in zip(poly.rows, gaps):
            if row.equality or gap == 0:
                continue
            speed = sign * sum(map(mul, row.coeffs, direction))
            if speed < 0:
                limit = Fraction(gap, -speed * den)
                if best is None or limit < best:
                    best = limit
        if best is None:
            raise BuildError("unbounded direction in exponent polytope")
        return best

    s_plus = max_step(+1)
    s_minus = max_step(-1)
    if s_plus <= 0 or s_minus <= 0:
        raise BuildError("Caratheodory step along a tight direction has zero length")
    hi = tuple(t + s_plus * d for t, d in zip(tau, direction))
    lo = tuple(t - s_minus * d for t, d in zip(tau, direction))
    lam = s_minus / (s_plus + s_minus)
    out = []
    for weight, point in ((lam, hi), (1 - lam, lo)):
        point_den, lazy = poly.gaps(point)
        point_gaps = list(lazy)
        for c, vertex in _decompose_point(poly, point, point_den, point_gaps,
                                          _tight(poly, point_gaps)):
            out.append((weight * c, vertex))
    return out


def _reduce_caratheodory(n: int, terms):
    """Merge duplicates and eliminate affine dependences until <= n+1 terms."""
    merged: dict[tuple[Fraction, ...], Fraction] = {}
    for c, p in terms:
        if c != 0:
            merged[p] = merged.get(p, Fraction(0)) + c
    points = sorted(merged)
    coeffs = [merged[p] for p in points]
    while len(points) > n + 1:
        # Rows are the points with a trailing 1; a kernel vector is an
        # affine dependence sum lam_k p_k = 0, sum lam_k = 0, so some lam_k > 0.
        mat = Matrix.from_rows([list(p) + [Fraction(1)] for p in points], cols=n + 1)
        dep = kernel(mat.transpose())
        if dep.dim == 0:
            raise BuildError("more than n+1 vertices without an affine dependence")
        lam = list(dep.basis.row(0))
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


def base_case_dim1(datum: HBLDatum) -> EdgeTable:
    """Single edge {0} -> H carrying the exponents; needs the scaling equality."""
    if datum.dim != 1:
        raise ValueError("base case needs ambient dimension 1")
    holds, lhs, rhs = check_scaling(datum)
    if not holds:
        raise BuildError(f"scaling equality fails in dimension 1: {lhs} != {rhs}")
    return {(Subspace.zero(1), Subspace.full(1)): datum.exponents}


def _endpoints(edges: EdgeTable) -> dict[Subspace, None]:
    """The distinct endpoints of the edges, in first-seen order."""
    return dict.fromkeys(w for edge in edges for w in edge)


def concatenate(datum: HBLDatum, v: Subspace, low: EdgeTable, high: EdgeTable) -> EdgeTable:
    """Splice an edge table of the restriction to V with one of the quotient.

    Low vertices embed through the chart of V and high vertices W become
    V + W through the chart of V-perp, the charts restrict_datum and
    quotient_datum use, each distinct vertex once; edges keep their rows. The
    result is not verified here. With V = {0} the low table is empty.
    """
    if v.ambient != datum.dim:
        raise ValueError("subspace ambient does not match datum dimension")
    low_vertices, high_vertices = _endpoints(low), _endpoints(high)
    if any(w.ambient != v.dim for w in low_vertices) \
            or any(w.ambient != datum.dim - v.dim for w in high_vertices):
        raise ValueError("part edge tables do not match the split dimensions")
    low_embed, high_embed = v.chart(), v.perp().chart()
    low_at = {w: image(low_embed, w) for w in low_vertices}
    high_at = {w: image(high_embed, w) + v for w in high_vertices}
    edges = {(low_at[a], low_at[b]): row for (a, b), row in low.items()}
    edges.update({(high_at[a], high_at[b]): row for (a, b), row in high.items()})
    return edges


def convex_combine(terms) -> EdgeTable:
    """Union the edge tables and mix the rows; absent edges contribute zero.

    Coefficients must be nonnegative and sum to one; callers verify the
    result against the mixed exponents.
    """
    terms = [(Fraction(c), edges) for c, edges in terms]
    if not terms:
        raise ValueError("nothing to combine")
    total = sum((c for c, _ in terms), Fraction(0))
    if total != 1 or any(c < 0 for c, _ in terms):
        raise ValueError(f"coefficients must be nonnegative with sum 1, got sum {total}")
    ambients = {w.ambient for _, edges in terms for w in _endpoints(edges)}
    widths = {len(row) for _, edges in terms for row in edges.values()}
    if len(ambients) > 1 or len(widths) > 1:
        raise ValueError("edge tables must share ambient and width")
    mixed: EdgeTable = {}
    for c, edges in terms:
        for edge, row in edges.items():
            mixed[edge] = tuple(a + c * x for a, x in zip(mixed.get(edge, (0,) * len(row)), row))
    return mixed


def vertex_count_bound(n_maps: int, dim: int) -> int:
    """Worst-case vertex count of the recursive construction."""
    return ((n_maps + 1) ** dim - 1) // n_maps + 1


def _codim1_critical(datum: HBLDatum, i: int) -> Subspace:
    """For tau_i = 1 on a positive-rank map: a hyperplane through ker pi_i.

    It is ker pi_i plus the RREF basis of its complement with the last vector
    dropped. By the scaling equality any hyperplane H containing ker pi_i has
    slack sum_{j != i} tau_j (dim pi_j(H) - rank pi_j), which is at most 0,
    and at least 0 for feasible data, so H is critical; the caller still
    checks its slack.
    """
    k = kernel(datum.maps[i])
    return k + span(k.perp().basis_rows()[:-1], datum.dim)


def _child_families(datum: HBLDatum, candidates: CandidateLattice, ready: bool,
                    v: Subspace, low_datum: HBLDatum, high_datum: HBLDatum,
                    max_size: int) -> tuple[CandidateLattice, CandidateLattice]:
    """The families of the restriction to V and the quotient by V.

    When L is ready and holds V, they are its intervals [0, V] = {U in L :
    U <= V} in the chart of V and [V, H] = {U in L : V <= U} carried by
    U -> U cap V-perp into the chart of V-perp: closed (the second by the
    modular law), ready, and with the parent's image dimensions dim pi_i(U)
    and dim pi_i(U) - dim pi_i(V) filling the children's tables; an interval
    is no larger than L, and max_size caps generation, not a given family.
    Otherwise generate_lattice closes the seeds U cap V and (U + V) cap V-perp
    of each U in L, capped at max_size; such a family holds {0}, H and every
    kernel, so it is ready exactly when closed. For U >= V, U cap V-perp in
    the chart of V-perp is the preimage of U under that chart.
    """
    low_retract, high_chart = v.retraction(), v.perp().chart()
    if ready and v in candidates.subspaces:
        base = datum.image_dims(v)
        low: dict[Subspace, tuple[int, ...]] = {}
        high: dict[Subspace, tuple[int, ...]] = {}
        for u in candidates.subspaces:
            if u <= v:
                low[image(low_retract, u)] = datum.image_dims(u)
            if v <= u:
                high[preimage(high_chart, u)] = tuple(map(sub, datum.image_dims(u), base))
        low_datum._image_dims.update(low)
        high_datum._image_dims.update(high)
        return (CandidateLattice(tuple(low), True, ("interval [0, V]",) * len(low)),
                CandidateLattice(tuple(high), True, ("interval [V, H]",) * len(high)))
    low_seeds, high_seeds = [], []
    for u in candidates.subspaces:
        total, meet = sum_and_intersection(u, v)
        low_seeds.append(image(low_retract, meet))
        high_seeds.append(preimage(high_chart, total))
    return (generate_lattice(low_datum, seeds=low_seeds, max_size=max_size),
            generate_lattice(high_datum, seeds=high_seeds, max_size=max_size))


class _Node:
    """A datum's maps with their candidate family, whichever the exponents;
    `ready` is data.is_ready of the family, and `splits` maps V to children."""

    def __init__(self, datum: HBLDatum, family: CandidateLattice, ready: bool) -> None:
        self.datum, self.family, self.ready = datum, family, ready
        self.splits: dict[Subspace, tuple[_Node, _Node]] = {}

    @cached_property
    def poly(self) -> ExponentPolytope:
        return polytope_from_candidates(self.datum, self.family)


def build_presentation(datum: HBLDatum, candidates: CandidateLattice, *,
                       max_lattice: int = 512,
                       trace: list[str] | None = None) -> Presentation:
    """Recursive certificate construction; the output always verifies.

    Raises BuildError when the scaling equality fails or a candidate violates
    the dimension inequality at the datum's exponents, and its subclass
    InsufficientCandidates when the candidates are insufficient: a child
    violates it below a Caratheodory vertex, or no critical subspace can be
    found among them.
    """

    exponents = datum.exponents

    def log(msg: str) -> None:
        if trace is not None:
            trace.append(msg)

    def recurse(node: _Node, tau: tuple[Fraction, ...], depth: int) -> EdgeTable:
        indent = "  " * depth
        datum = node.datum.with_exponents(tau)
        if datum.dim == 1:
            log(f"{indent}dim 1 base case")
            return base_case_dim1(datum)

        poly = node.poly
        den, lazy = poly.gaps(tau)
        gaps = list(lazy)
        # H's row holds by scaling and the box rows for any datum, so a
        # violated row is a candidate V's, with gap D * slack(V).
        violated = poly.violated(gaps)
        if violated is not None:
            # At the datum's exponents a violation lifts to the datum itself;
            # below a Caratheodory vertex it only shows that the family missed
            # the subspace that cuts the vertex off.
            row, gap = violated
            reason = ("candidate subspace violates the dimension inequality "
                      f"(dim {row.rhs}, slack {Fraction(gap, den)})")
            if tau == exponents:
                raise BuildError(reason)
            at = ", ".join(map(str, tau))
            raise InsufficientCandidates(
                f"candidate set insufficient: at exponents ({at}), a {reason}")
        tight = _tight(poly, gaps)
        if len(tight[1]) < poly.n:
            log(f"{indent}tau {tuple(map(str, tau))} not extreme; splitting")
            parts = []
            for c, point in caratheodory(poly, tau, gaps=(den, gaps), tight=tight).terms:
                log(f"{indent}  extreme {tuple(map(str, point))} with weight {c}")
                parts.append((c, recurse(node, point, depth + 1)))
            return convex_combine(parts)

        criticals = poly.criticals(gaps)
        if criticals:
            v = criticals[0].subspace
            log(f"{indent}critical subspace of dim {v.dim}")
        else:
            for i, t in enumerate(tau):
                if t == 1 and datum.ranks[i] > 0:
                    v = _codim1_critical(datum, i)
                    if subspace_slack(datum, v) == 0:
                        log(f"{indent}tau{i + 1}=1 branch: codim-1 critical subspace")
                        break
            else:
                raise InsufficientCandidates(
                    "candidate set insufficient: extreme exponents admit no "
                    "critical subspace among the candidates"
                )
        children = node.splits.get(v)
        if children is None:
            low, high = restrict_datum(datum, v)[0], quotient_datum(datum, v)[0]
            families = _child_families(datum, node.family, node.ready, v, low, high, max_lattice)
            children = node.splits[v] = tuple(_Node(child, family, family.closed)
                                              for child, family in zip((low, high), families))
        low_edges, high_edges = (recurse(child, tau, depth + 1) for child in children)
        return concatenate(datum, v, low_edges, high_edges)

    holds, lhs, rhs = check_scaling(datum)
    if not holds:
        raise BuildError(f"scaling equality fails: {lhs} != {rhs}")
    ready, top = is_ready(datum, candidates), datum
    if ready and candidates.order is not None:
        # The family's image dimensions from its meets fill a table of the
        # builder's own: the verification below computes its ranks afresh.
        top = HBLDatum(datum.dim, datum.maps, datum.names, datum.exponents,
                       _image_dims=candidates.meet_image_dims(datum.kernels))
    edges = recurse(_Node(top, candidates, ready), datum.exponents, 0)
    pres = Presentation.from_edges(datum.dim, datum.n_maps, _endpoints(edges), edges)
    report = verify_presentation(datum, pres)
    if not report.valid:
        raise BuildError("constructed presentation failed verification: "
                         + "; ".join(report.problems))
    bound = vertex_count_bound(datum.n_maps, datum.dim)
    if len(pres.graph.vertices) > bound:
        raise BuildError(f"vertex count {len(pres.graph.vertices)} exceeds bound {bound}")
    return pres
